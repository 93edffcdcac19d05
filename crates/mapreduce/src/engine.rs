//! The generic MapReduce execution engine.
//!
//! Semantics mirror Hadoop's:
//!
//! * the input is a vector of records; each record is passed to
//!   [`Mapper::map`], which emits `(key, value)` pairs;
//! * pairs are hash-partitioned by key into `num_partitions` buckets;
//! * within a partition, pairs are grouped by key (keys processed in
//!   ascending order) and each group is passed to [`Reducer::reduce`];
//! * reducer emissions are concatenated in partition order.
//!
//! **Determinism.** Work is split into fixed chunks; every emitted pair is
//! tagged with `(chunk index, emission sequence)` and value groups are
//! sorted by that tag before reduction. Output therefore depends only on
//! the input, never on thread scheduling — which is what lets the test
//! suite assert byte-equality between 1-worker and N-worker runs, and
//! between the MapReduce pipeline and the in-memory reference.
//!
//! Threads come from `std::thread::scope`; workers claim task indices
//! from one atomic counter (simple dynamic load balancing) and results
//! are placed by task index. A panicking mapper or reducer propagates out
//! of [`run_job`] with its original payload.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The map side of a job.
pub trait Mapper: Sync {
    /// Input record type.
    type In: Send;
    /// Intermediate key.
    type Key: Ord + Hash + Clone + Send;
    /// Intermediate value.
    type Value: Send;

    /// Transforms one record into zero or more `(key, value)` pairs.
    fn map(&self, record: Self::In, emit: &mut dyn FnMut(Self::Key, Self::Value));
}

/// The reduce side of a job.
pub trait Reducer: Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Ord + Hash + Clone + Send;
    /// Intermediate value (must match the mapper's).
    type Value: Send;
    /// Output record type.
    type Out: Send;

    /// Folds one key group (values in deterministic input order) into zero
    /// or more output records.
    fn reduce(&self, key: Self::Key, values: Vec<Self::Value>, emit: &mut dyn FnMut(Self::Out));
}

/// Execution knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of worker threads for both phases (≥ 1).
    pub num_workers: usize,
    /// Number of hash partitions (≥ 1) — Hadoop's reducer count.
    pub num_partitions: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            num_workers: 1,
            num_partitions: 4,
        }
    }
}

impl JobConfig {
    /// Config with `workers` threads and a matching partition count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            num_workers: workers.max(1),
            num_partitions: workers.max(1) * 2,
        }
    }
}

/// Counters and timings of one job run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobMetrics {
    /// Input records consumed by the map phase.
    pub map_input_records: usize,
    /// Pairs emitted by the map phase.
    pub map_output_pairs: usize,
    /// Distinct key groups reduced.
    pub reduce_groups: usize,
    /// Records emitted by the reduce phase.
    pub reduce_output_records: usize,
    /// Wall-clock duration of the map phase (including shuffle build).
    pub map_duration: Duration,
    /// Wall-clock duration of the sort+reduce phase.
    pub reduce_duration: Duration,
}

/// Output records plus metrics.
#[derive(Debug, Clone)]
pub struct JobResult<Out> {
    /// Concatenated reducer output (partition order, keys ascending within
    /// each partition).
    pub output: Vec<Out>,
    /// Run counters.
    pub metrics: JobMetrics,
}

fn partition_of<K: Hash>(key: &K, num_partitions: usize) -> usize {
    // DefaultHasher with default keys is deterministic across processes.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % num_partitions as u64) as usize
}

/// Runs `work` once per task over up to `num_workers` scoped threads and
/// returns the results in task order. Workers claim task indices from one
/// atomic counter; a panicking task propagates its panic (after every
/// worker has stopped).
fn run_phase<T, O, F>(tasks: Vec<T>, num_workers: usize, work: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(usize, T) -> O + Sync,
{
    let num_tasks = tasks.len();
    // Each task is taken exactly once, by whichever worker claims its
    // index.
    let tasks: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<O>> = (0..num_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..num_workers.min(num_tasks))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = tasks.get(i) else {
                            return done;
                        };
                        let task = slot
                            .lock()
                            .expect("task slots are never locked across a panic")
                            .take()
                            .expect("each task index is claimed once");
                        done.push((i, work(i, task)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, out) in done {
                        results[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

/// Runs one MapReduce job over `input`.
///
/// See the module docs for the execution and determinism model.
///
/// # Panics
/// Propagates a panic raised by the mapper or the reducer.
pub fn run_job<M, R>(
    mapper: &M,
    reducer: &R,
    input: Vec<M::In>,
    config: JobConfig,
) -> JobResult<R::Out>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    let num_workers = config.num_workers.max(1);
    let num_partitions = config.num_partitions.max(1);
    let mut metrics = JobMetrics {
        map_input_records: input.len(),
        ..JobMetrics::default()
    };

    // ---- Map phase -------------------------------------------------------
    let map_start = Instant::now();
    // Chunking is deterministic: chunk i covers a fixed input range.
    let chunk_size = input.len().div_ceil(num_workers * 4).max(1);
    let mut chunks: Vec<Vec<M::In>> = Vec::new();
    {
        let mut it = input.into_iter();
        loop {
            let chunk: Vec<M::In> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
    }

    // Each map task produces per-partition buckets of
    // (key, (chunk, seq), value).
    type Tagged<K, V> = (K, (u32, u32), V);
    let map_outputs = run_phase(chunks, num_workers, |task, records: Vec<M::In>| {
        let chunk_idx = u32::try_from(task).expect("chunk count fits u32");
        let mut local: Vec<Vec<Tagged<M::Key, M::Value>>> =
            (0..num_partitions).map(|_| Vec::new()).collect();
        let mut seq = 0u32;
        for record in records {
            mapper.map(record, &mut |k, v| {
                let p = partition_of(&k, num_partitions);
                local[p].push((k, (chunk_idx, seq), v));
                seq += 1;
            });
        }
        local
    });

    // Deterministic shuffle: merge per-chunk buckets in chunk order.
    let mut shuffle: Vec<Vec<Tagged<M::Key, M::Value>>> =
        (0..num_partitions).map(|_| Vec::new()).collect();
    for chunk_buckets in map_outputs {
        for (p, mut bucket) in chunk_buckets.into_iter().enumerate() {
            metrics.map_output_pairs += bucket.len();
            shuffle[p].append(&mut bucket);
        }
    }
    metrics.map_duration = map_start.elapsed();

    // ---- Sort + reduce phase ----------------------------------------------
    let reduce_start = Instant::now();
    let reduce_outputs = run_phase(shuffle, num_workers, |_, mut bucket| {
        // Sort by key, then by (chunk, seq) for deterministic value
        // order inside each group.
        bucket.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = Vec::new();
        let mut groups = 0usize;
        let mut it = bucket.into_iter().peekable();
        while let Some((key, _, first)) = it.next() {
            let mut values = vec![first];
            while it.peek().is_some_and(|(k, _, _)| *k == key) {
                values.push(it.next().expect("peeked").2);
            }
            groups += 1;
            reducer.reduce(key, values, &mut |o| out.push(o));
        }
        (groups, out)
    });

    let mut output: Vec<R::Out> = Vec::new();
    for (groups, mut part) in reduce_outputs {
        metrics.reduce_groups += groups;
        output.append(&mut part);
    }
    metrics.reduce_output_records = output.len();
    metrics.reduce_duration = reduce_start.elapsed();
    JobResult { output, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic word count: records are lines, keys are words.
    struct WcMap;
    impl Mapper for WcMap {
        type In = String;
        type Key = String;
        type Value = u64;
        fn map(&self, record: String, emit: &mut dyn FnMut(String, u64)) {
            for w in record.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
    }
    struct WcReduce;
    impl Reducer for WcReduce {
        type Key = String;
        type Value = u64;
        type Out = (String, u64);
        fn reduce(&self, key: String, values: Vec<u64>, emit: &mut dyn FnMut((String, u64))) {
            emit((key, values.into_iter().sum()));
        }
    }

    fn word_count(lines: &[&str], config: JobConfig) -> Vec<(String, u64)> {
        let input: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        let mut out = run_job(&WcMap, &WcReduce, input, config).output;
        out.sort();
        out
    }

    #[test]
    fn word_count_single_worker() {
        let got = word_count(&["the cat sat", "the cat", "sat sat"], JobConfig::default());
        assert_eq!(
            got,
            vec![("cat".into(), 2), ("sat".into(), 3), ("the".into(), 2)]
        );
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let lines: Vec<String> = (0..500)
            .map(|i| format!("w{} w{} shared", i % 17, i % 5))
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let base = word_count(
            &refs,
            JobConfig {
                num_workers: 1,
                num_partitions: 3,
            },
        );
        for workers in [2, 4, 8] {
            for partitions in [1, 3, 7] {
                let got = word_count(
                    &refs,
                    JobConfig {
                        num_workers: workers,
                        num_partitions: partitions,
                    },
                );
                assert_eq!(got, base, "workers={workers} partitions={partitions}");
            }
        }
    }

    #[test]
    fn value_order_within_group_is_input_order() {
        /// Emits (key, original position); the reducer checks ordering.
        struct PosMap;
        impl Mapper for PosMap {
            type In = (u32, u32); // (key, position)
            type Key = u32;
            type Value = u32;
            fn map(&self, r: (u32, u32), emit: &mut dyn FnMut(u32, u32)) {
                emit(r.0, r.1);
            }
        }
        struct CollectReduce;
        impl Reducer for CollectReduce {
            type Key = u32;
            type Value = u32;
            type Out = (u32, Vec<u32>);
            fn reduce(&self, k: u32, vs: Vec<u32>, emit: &mut dyn FnMut((u32, Vec<u32>))) {
                emit((k, vs));
            }
        }
        let input: Vec<(u32, u32)> = (0..200).map(|p| (p % 3, p)).collect();
        for workers in [1, 4] {
            let mut out = run_job(
                &PosMap,
                &CollectReduce,
                input.clone(),
                JobConfig {
                    num_workers: workers,
                    num_partitions: 2,
                },
            )
            .output;
            out.sort_by_key(|(k, _)| *k);
            for (_, positions) in out {
                let mut sorted = positions.clone();
                sorted.sort_unstable();
                assert_eq!(positions, sorted, "values must arrive in input order");
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let result = run_job(&WcMap, &WcReduce, Vec::new(), JobConfig::default());
        assert!(result.output.is_empty());
        assert_eq!(result.metrics.map_input_records, 0);
        assert_eq!(result.metrics.reduce_groups, 0);
    }

    #[test]
    fn metrics_count_records_and_groups() {
        let input: Vec<String> = vec!["a b".into(), "b c".into()];
        let result = run_job(&WcMap, &WcReduce, input, JobConfig::default());
        assert_eq!(result.metrics.map_input_records, 2);
        assert_eq!(result.metrics.map_output_pairs, 4);
        assert_eq!(result.metrics.reduce_groups, 3);
        assert_eq!(result.metrics.reduce_output_records, 3);
    }

    #[test]
    fn keys_are_sorted_within_partition() {
        // Single partition ⇒ the whole output must be key-sorted.
        let lines = ["zeta alpha", "mid alpha zeta"];
        let input: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        let result = run_job(
            &WcMap,
            &WcReduce,
            input,
            JobConfig {
                num_workers: 3,
                num_partitions: 1,
            },
        );
        let keys: Vec<&String> = result.output.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn config_helpers() {
        let c = JobConfig::with_workers(0);
        assert_eq!(c.num_workers, 1);
        let c = JobConfig::with_workers(3);
        assert_eq!(c.num_workers, 3);
        assert_eq!(c.num_partitions, 6);
    }

    /// A mapper that panics on the poison record.
    struct PoisonMap;
    impl Mapper for PoisonMap {
        type In = u32;
        type Key = u32;
        type Value = u32;
        fn map(&self, r: u32, emit: &mut dyn FnMut(u32, u32)) {
            assert!(r != 13, "poison record");
            emit(r % 4, r);
        }
    }

    struct SumReduce;
    impl Reducer for SumReduce {
        type Key = u32;
        type Value = u32;
        type Out = (u32, u32);
        fn reduce(&self, k: u32, vs: Vec<u32>, emit: &mut dyn FnMut((u32, u32))) {
            emit((k, vs.into_iter().sum()));
        }
    }

    #[test]
    #[should_panic(expected = "poison record")]
    fn mapper_panic_propagates_out_of_run_job() {
        let input: Vec<u32> = (0..40).collect(); // includes the poison 13
        let _ = run_job(&PoisonMap, &SumReduce, input, JobConfig::with_workers(2));
    }
}
