//! The distributed shard-pair warm: the
//! [`ShardedPeerIndex`] symmetric triangle, executed as a MapReduce job
//! from **self-contained task descriptors**.
//!
//! The in-process [`ShardedPeerIndex::warm_symmetric`] decomposes the
//! symmetric bulk warm into one [`shard_pair_edges`] call per unordered
//! shard pair — `S·(S+1)/2` independent tasks whose only inputs are five
//! scalars (`shard_a`, `shard_b`, the universe bound, `min_overlap`, δ)
//! plus the partitioned matrix every worker already holds. That makes the
//! schedule *shippable*: this module serialises it as one-line string
//! descriptors ([`WarmTask::encode`]), feeds the encoded records through
//! the in-repo MapReduce engine (map = decode + run the pair kernel,
//! emitting every qualifying edge to both endpoints; reduce = per-user
//! canonicalisation), and installs the reduced lists through
//! [`ShardedPeerIndex::adopt_full_lists`] — the index's off-process
//! adoption path. δ travels as the exact IEEE-754 bit pattern, so a
//! descriptor round-trip is bitwise lossless and the distributed warm is
//! **bitwise identical** to the in-process one and to the monolithic
//! warm (asserted by this module's tests for S ∈ {1, 2, 3, 8} and, under
//! injected faults, by the chaos suite).

use crate::engine::{try_run_job, JobConfig, JobMetrics, Mapper, Reducer, RetryPolicy};
use crate::fault::{self, FaultAction, FaultSite};
use fairrec_similarity::{shard_pair_edges, PeerSelector, Peers, ShardedPeerIndex};
use fairrec_types::{FairrecError, Parallelism, Result, ShardedRatingMatrix, UserId};

/// One shard pair's warm, as a value a task queue can carry: everything
/// [`shard_pair_edges`] needs besides the partitioned matrix each worker
/// holds. Descriptors are self-contained — no index handle, no closure —
/// so the same schedule runs in-process, on the thread-pool MapReduce
/// engine, or (in principle) on separate machines holding the shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmTask {
    /// First shard of the pair (`shard_a ≤ shard_b`).
    pub shard_a: u32,
    /// Second shard of the pair.
    pub shard_b: u32,
    /// Exclusive upper bound of the user universe being warmed.
    pub num_users: u32,
    /// Minimum co-rated overlap for Pearson.
    pub min_overlap: u32,
    /// Peer threshold δ (Definition 1), applied per edge.
    pub delta: f64,
}

impl WarmTask {
    /// Serialises the descriptor as one line. δ is written as its exact
    /// 64-bit IEEE-754 pattern in hex, so decode → encode → decode is
    /// the identity down to the last ulp (including negative zero).
    pub fn encode(&self) -> String {
        format!(
            "warm {} {} {} {} {:016x}",
            self.shard_a,
            self.shard_b,
            self.num_users,
            self.min_overlap,
            self.delta.to_bits()
        )
    }

    /// Parses a descriptor produced by [`encode`](Self::encode).
    ///
    /// # Errors
    /// [`FairrecError::Parse`] on any malformed field.
    pub fn decode(line: &str) -> Result<Self> {
        let malformed = |message: String| FairrecError::Parse {
            line: None,
            message,
        };
        let mut fields = line.split_whitespace();
        if fields.next() != Some("warm") {
            return Err(malformed(format!("not a warm task descriptor: {line:?}")));
        }
        let mut next_u32 = |name: &str| -> Result<u32> {
            fields
                .next()
                .ok_or_else(|| malformed(format!("warm task missing field {name}: {line:?}")))?
                .parse::<u32>()
                .map_err(|e| malformed(format!("warm task field {name}: {e}")))
        };
        let shard_a = next_u32("shard_a")?;
        let shard_b = next_u32("shard_b")?;
        let num_users = next_u32("num_users")?;
        let min_overlap = next_u32("min_overlap")?;
        let delta_bits = fields
            .next()
            .ok_or_else(|| malformed(format!("warm task missing field delta: {line:?}")))
            .and_then(|f| {
                u64::from_str_radix(f, 16)
                    .map_err(|e| malformed(format!("warm task field delta: {e}")))
            })?;
        if let Some(extra) = fields.next() {
            return Err(malformed(format!(
                "warm task has trailing field {extra:?}: {line:?}"
            )));
        }
        Ok(Self {
            shard_a,
            shard_b,
            num_users,
            min_overlap,
            delta: f64::from_bits(delta_bits),
        })
    }
}

/// The full symmetric-warm schedule for `num_shards` shards: one task per
/// unordered shard pair (`a ≤ b`), `S·(S+1)/2` tasks total — exactly the
/// triangle [`ShardedPeerIndex::warm_symmetric`] runs in-process.
pub fn warm_schedule(
    num_shards: u32,
    num_users: u32,
    min_overlap: u32,
    delta: f64,
) -> Vec<WarmTask> {
    (0..num_shards)
        .flat_map(|a| {
            (a..num_shards).map(move |b| WarmTask {
                shard_a: a,
                shard_b: b,
                num_users,
                min_overlap,
                delta,
            })
        })
        .collect()
}

/// The map side of the distributed warm: decodes one task descriptor and
/// runs its shard-pair kernel, emitting every qualifying Definition-1
/// edge to **both** endpoints' keys — the scatter half of the in-process
/// warm, expressed as map output. Descriptors are validated by
/// [`distributed_warm`] before the job launches, so a decode failure
/// here is a driver bug and panics.
pub struct WarmMapper<'a> {
    matrix: &'a ShardedRatingMatrix,
}

impl Mapper for WarmMapper<'_> {
    type In = String;
    type Key = UserId;
    type Value = (UserId, f64);

    fn map(&self, record: String, emit: &mut dyn FnMut(UserId, (UserId, f64))) {
        let task = WarmTask::decode(&record).expect("descriptors validated before launch");
        // At-least-once emission site: under an installed fault plan a
        // task may scatter each edge twice — the reducer's idempotent
        // dedup must erase the difference (the WarmTask idempotence
        // contract).
        let copies = match fault::perturb(
            FaultSite::WarmEmit,
            (u64::from(task.shard_a) << 32) | u64::from(task.shard_b),
            0,
        ) {
            FaultAction::DuplicateResult => 2,
            _ => 1,
        };
        let edges = shard_pair_edges(
            self.matrix,
            task.shard_a as usize,
            task.shard_b as usize,
            task.num_users,
            task.min_overlap as usize,
            task.delta,
        );
        for (u, v, sim) in edges {
            for _ in 0..copies {
                emit(u, (v, sim));
                emit(v, (u, sim));
            }
        }
    }
}

/// The reduce side: folds one user's scattered edges into that user's
/// finished full peer list — canonical order (similarity descending, id
/// ascending), exactly the shape
/// [`ShardedPeerIndex::adopt_full_lists`] installs. The shard-pair
/// schedule emits each unordered pair exactly once and δ was applied per
/// edge, so in a fault-free run the group arrives duplicate-free,
/// self-edge-free, and filtered. Under at-least-once execution a task's
/// emissions can arrive more than once; since every re-emission is
/// bitwise identical (the kernel is deterministic), dropping exact
/// duplicates after canonicalisation restores the exactly-once list —
/// this is the dedup half of the `WarmTask` idempotence contract.
pub struct WarmReducer;

impl Reducer for WarmReducer {
    type Key = UserId;
    type Value = (UserId, f64);
    type Out = (UserId, Peers);

    fn reduce(&self, user: UserId, values: Vec<(UserId, f64)>, emit: &mut dyn FnMut(Self::Out)) {
        let mut list: Peers = values;
        PeerSelector::canonicalize(&mut list);
        // Canonical order puts bitwise-identical duplicates adjacent.
        list.dedup_by(|a, b| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        emit((user, list));
    }
}

/// The receipt of one distributed warm: what ran, what it cost in
/// retries, and whether the degradation ladder was taken. Every field is
/// truthful even when the MapReduce job failed — the metrics of the
/// failed job are carried into the receipt, not discarded.
#[derive(Debug, Clone, Copy)]
pub struct WarmReport {
    /// Tasks in the schedule (`S·(S+1)/2`).
    pub tasks: usize,
    /// Lists installed into the index; `None` when the index rejected
    /// the adoption (it was not fully cold, or the universe moved
    /// between scheduling and installation).
    pub installed: Option<usize>,
    /// Task attempts launched across both phases (firsts + retries +
    /// speculative re-executions).
    pub attempts: usize,
    /// Attempts launched because a prior attempt panicked.
    pub retries: usize,
    /// Worker panics caught and absorbed by the retry driver.
    pub panics_caught: usize,
    /// Straggler-triggered speculative re-executions.
    pub speculative: usize,
    /// `true` when the MapReduce job exhausted its retry budget and the
    /// warm fell back to the in-process [`ShardedPeerIndex::warm_symmetric`].
    pub fallback: bool,
    /// MapReduce metrics of the warm job (of the *failed* job when
    /// `fallback` is set).
    pub metrics: JobMetrics,
}

/// Warms `index` end-to-end through the MapReduce engine: serialises the
/// shard-pair schedule as [`WarmTask`] descriptors, runs them as a job
/// over `matrix` (map = pair kernel + scatter, reduce = canonicalise),
/// and installs the reduced lists with
/// [`ShardedPeerIndex::adopt_full_lists`]. Bitwise identical to
/// [`ShardedPeerIndex::warm_symmetric`] on a fully cold index; on a
/// partially warm index the adoption is refused
/// (`report.installed == None`) and the index is left untouched — the
/// caller falls back to the in-process warm, which handles partial
/// cache states.
///
/// The selector's δ and the universe bound come from `index` itself, so
/// schedule and installation can never disagree about the admission
/// threshold.
///
/// # Errors
/// [`FairrecError::Parse`] when a serialised descriptor fails its
/// round-trip validation (a bug, surfaced rather than shipped to
/// workers).
pub fn distributed_warm(
    matrix: &ShardedRatingMatrix,
    index: &ShardedPeerIndex,
    min_overlap: usize,
    config: JobConfig,
) -> Result<WarmReport> {
    distributed_warm_with(matrix, index, min_overlap, config, RetryPolicy::default())
}

/// [`distributed_warm`] with an explicit [`RetryPolicy`] — the knob the
/// chaos suite turns to exhaust the retry budget deterministically.
///
/// Degradation ladder: a panicking task attempt is retried with
/// exponential backoff; a silent one is speculatively re-executed after
/// the straggler timeout; and when a task still fails every permitted
/// attempt the whole warm falls back to the in-process
/// [`ShardedPeerIndex::warm_symmetric`] instead of surfacing the error —
/// the caller always gets a warm index, plus a [`WarmReport`] saying
/// which rung was reached.
///
/// # Errors
/// Same as [`distributed_warm`]: only descriptor round-trip validation
/// failures. Retry exhaustion is absorbed by the fallback.
pub fn distributed_warm_with(
    matrix: &ShardedRatingMatrix,
    index: &ShardedPeerIndex,
    min_overlap: usize,
    config: JobConfig,
    policy: RetryPolicy,
) -> Result<WarmReport> {
    let num_users = index.num_users();
    let tasks = warm_schedule(
        matrix.spec().num_shards(),
        num_users,
        u32::try_from(min_overlap).unwrap_or(u32::MAX),
        index.selector().delta,
    );
    // Serialise, then prove each descriptor survives the wire before any
    // worker sees it: the mapper decodes records blind, exactly as an
    // off-process worker would.
    let encoded: Vec<String> = tasks.iter().map(WarmTask::encode).collect();
    for (task, line) in tasks.iter().zip(&encoded) {
        let roundtrip = WarmTask::decode(line)?;
        if roundtrip.delta.to_bits() != task.delta.to_bits()
            || (
                roundtrip.shard_a,
                roundtrip.shard_b,
                roundtrip.num_users,
                roundtrip.min_overlap,
            ) != (task.shard_a, task.shard_b, task.num_users, task.min_overlap)
        {
            return Err(FairrecError::Parse {
                line: None,
                message: format!("warm task round-trip mismatch: {line:?}"),
            });
        }
    }

    let job = match try_run_job(
        &WarmMapper { matrix },
        &WarmReducer,
        encoded,
        config,
        policy,
    ) {
        Ok(job) => job,
        Err(failure) => {
            // Retry budget exhausted: degrade to the in-process warm.
            // The index is untouched by the failed job (adoption never
            // ran), so the fallback starts from exactly the state the
            // distributed warm saw.
            let measure = fairrec_similarity::ShardedRatingsSimilarity::new(matrix)
                .with_min_overlap(min_overlap);
            let parallelism = if config.num_workers > 1 {
                Parallelism::Threads(config.num_workers)
            } else {
                Parallelism::Sequential
            };
            index.warm_symmetric(&measure, parallelism);
            let m = failure.metrics;
            return Ok(WarmReport {
                tasks: tasks.len(),
                installed: Some(num_users as usize),
                attempts: m.attempts,
                retries: m.retries,
                panics_caught: m.panics_caught,
                speculative: m.speculative,
                fallback: true,
                metrics: m,
            });
        }
    };

    // Users with no qualifying edges never reach the reducer; their
    // finished list is the empty canonical list.
    let mut lists: Vec<Peers> = vec![Peers::new(); num_users as usize];
    for (user, list) in job.output {
        lists[user.index()] = list;
    }
    let m = job.metrics;
    Ok(WarmReport {
        tasks: tasks.len(),
        installed: index.adopt_full_lists(lists),
        attempts: m.attempts,
        retries: m.retries,
        panics_caught: m.panics_caught,
        speculative: m.speculative,
        fallback: false,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_similarity::{PeerIndex, ShardedRatingsSimilarity};
    use fairrec_types::{ItemId, Parallelism, Rating, RatingMatrix, RatingTriple, ShardSpec};
    use proptest::prelude::*;
    use proptest::sample::select;

    fn triple(u: u32, i: u32, r: f64) -> RatingTriple {
        RatingTriple {
            user: UserId::new(u),
            item: ItemId::new(i),
            rating: Rating::new(r).unwrap(),
        }
    }

    /// 12 users × 14 items, deterministic pseudo-random-ish ratings with
    /// enough co-rating mass that Pearson is defined for many pairs.
    fn dataset() -> Vec<RatingTriple> {
        let mut triples = Vec::new();
        for u in 0..12u32 {
            for i in 0..14u32 {
                if (u * 7 + i * 3) % 4 == 0 {
                    continue; // punch holes so overlaps vary
                }
                let r = 1.0 + f64::from((u * 13 + i * 5) % 9) / 2.0;
                triples.push(triple(u, i, r));
            }
        }
        triples
    }

    /// Ids equal and similarities equal bit for bit: `==` on `f64` would
    /// let `-0.0` stand in for `0.0`.
    fn assert_bitwise(got: &Peers, want: &Peers, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: peer-list length");
        for (pos, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.0, w.0, "{label}: peer id at {pos}");
            assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "{label}: similarity bits at {pos}"
            );
        }
    }

    #[test]
    fn descriptor_round_trip_is_bitwise() {
        for delta in [0.0, -0.0, 0.35, -1.0, 1.0, f64::MIN_POSITIVE, 0.1 + 0.2] {
            let task = WarmTask {
                shard_a: 3,
                shard_b: 7,
                num_users: 1000,
                min_overlap: 2,
                delta,
            };
            let decoded = WarmTask::decode(&task.encode()).unwrap();
            assert_eq!(decoded.shard_a, 3);
            assert_eq!(decoded.shard_b, 7);
            assert_eq!(decoded.num_users, 1000);
            assert_eq!(decoded.min_overlap, 2);
            assert_eq!(
                decoded.delta.to_bits(),
                delta.to_bits(),
                "δ must survive the wire bit-for-bit"
            );
        }
    }

    #[test]
    fn malformed_descriptors_are_rejected() {
        for line in [
            "",
            "cold 0 1 2 3 0",
            "warm 0 1 2 3",
            "warm 0 1 2 3 zz",
            "warm x 1 2 3 0",
            "warm 0 1 2 3 0 extra",
        ] {
            assert!(WarmTask::decode(line).is_err(), "{line:?}");
        }
    }

    /// A token that is mostly malformed: a hand-picked edge case
    /// (overflow, sign, non-numeric, non-hex, oversized hex, empty) or a
    /// generated run of signs, digits, hex letters and `x`.
    fn junk() -> impl Strategy<Value = String> {
        (
            0u8..2,
            select(vec![
                "",
                "4294967296",
                "-1",
                "-0",
                "x",
                "1e3",
                "0x10",
                "zz",
                "10000000000000000",
                "warm",
            ]),
            "(-|\\+)?(0|1|9|a|f|x)+",
        )
            .prop_map(|(pick, fixed, generated)| {
                if pick == 0 {
                    fixed.to_owned()
                } else {
                    generated
                }
            })
    }

    /// A descriptor field: well formed seven times in eight, junk
    /// otherwise, so generated lines decode often enough to exercise the
    /// round trip.
    fn field<S: Strategy<Value = String>>(valid: S) -> impl Strategy<Value = String> {
        (0u8..8, valid, junk()).prop_map(|(pick, ok, bad)| if pick < 7 { ok } else { bad })
    }

    fn u32_field() -> impl Strategy<Value = String> {
        field((0u32..=u32::MAX).prop_map(|v| v.to_string()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn decode_never_panics_and_ok_round_trips(
            tag in select(vec!["warm", "warm", "warm", "cold", "", "Warm"]),
            shards in (u32_field(), u32_field()),
            rest in (
                u32_field(),
                u32_field(),
                field((0u64..=u64::MAX).prop_map(|bits| format!("{bits:x}"))),
            ),
            keep in select(vec![0usize, 1, 2, 3, 4, 5, 5, 5, 5]),
            extra in proptest::collection::vec(junk(), 0..3),
            sep in "( |\t)+",
        ) {
            let mut line = tag.to_owned();
            let fields = [shards.0, shards.1, rest.0, rest.1, rest.2];
            for token in fields[..keep].iter().chain(&extra) {
                line.push_str(&sep);
                line.push_str(token);
            }
            match WarmTask::decode(&line) {
                Ok(task) => {
                    let again = WarmTask::decode(&task.encode());
                    prop_assert!(again.is_ok(), "{line:?}: re-encoded form must decode");
                    let again = again.unwrap();
                    prop_assert_eq!(
                        (again.shard_a, again.shard_b, again.num_users, again.min_overlap),
                        (task.shard_a, task.shard_b, task.num_users, task.min_overlap),
                        "{:?}", line
                    );
                    prop_assert_eq!(again.delta.to_bits(), task.delta.to_bits(), "{:?}", line);
                }
                Err(FairrecError::Parse { .. }) => {}
                Err(other) => prop_assert!(false, "{line:?}: expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn schedule_is_the_shard_pair_triangle() {
        let tasks = warm_schedule(4, 100, 2, 0.25);
        assert_eq!(tasks.len(), 4 * 5 / 2);
        let pairs: Vec<(u32, u32)> = tasks.iter().map(|t| (t.shard_a, t.shard_b)).collect();
        for (a, b) in &pairs {
            assert!(a <= b);
        }
        let mut unique = pairs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), pairs.len(), "each pair scheduled once");
        assert_eq!(warm_schedule(1, 5, 2, 0.0).len(), 1);
    }

    #[test]
    fn distributed_warm_matches_in_process_warm_bitwise() {
        let triples = dataset();
        let mono = RatingMatrix::from_triples(triples.iter().copied()).unwrap();
        let n = mono.num_users();
        let selector = PeerSelector::new(0.1).unwrap();

        // Monolithic reference lists.
        let reference = PeerIndex::new(selector, n);
        reference.warm_symmetric(
            &fairrec_similarity::RatingsSimilarity::new(&mono).with_min_overlap(2),
            Parallelism::Sequential,
        );

        for num_shards in [1u32, 2, 3, 8] {
            let spec = ShardSpec::new(num_shards).unwrap();
            let sharded = ShardedRatingMatrix::from_matrix(&mono, spec).unwrap();
            let measure = ShardedRatingsSimilarity::new(&sharded).with_min_overlap(2);

            let in_process = ShardedPeerIndex::new(selector, spec, n);
            in_process.warm_symmetric(&measure, Parallelism::Sequential);

            let off_process = ShardedPeerIndex::new(selector, spec, n);
            let report = distributed_warm(&sharded, &off_process, 2, JobConfig::default()).unwrap();
            assert_eq!(report.tasks, (num_shards * (num_shards + 1) / 2) as usize);
            assert_eq!(
                report.installed,
                Some(n as usize),
                "S={num_shards}: every list must install"
            );

            for u in (0..n).map(UserId::new) {
                let distributed = off_process.cached_full(u).expect("warmed");
                assert_bitwise(
                    &distributed,
                    &in_process.cached_full(u).expect("warmed"),
                    &format!("S={num_shards}: user {u} vs in-process warm"),
                );
                assert_bitwise(
                    &distributed,
                    &reference.cached_full(u).expect("warmed"),
                    &format!("S={num_shards}: user {u} vs monolithic warm"),
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_warm() {
        let triples = dataset();
        let mono = RatingMatrix::from_triples(triples.iter().copied()).unwrap();
        let n = mono.num_users();
        let selector = PeerSelector::new(0.0).unwrap();
        let spec = ShardSpec::new(3).unwrap();
        let sharded = ShardedRatingMatrix::from_matrix(&mono, spec).unwrap();

        let serial = ShardedPeerIndex::new(selector, spec, n);
        distributed_warm(
            &sharded,
            &serial,
            2,
            JobConfig {
                num_workers: 1,
                num_partitions: 1,
            },
        )
        .unwrap();
        let parallel = ShardedPeerIndex::new(selector, spec, n);
        distributed_warm(
            &sharded,
            &parallel,
            2,
            JobConfig {
                num_workers: 4,
                num_partitions: 7,
            },
        )
        .unwrap();
        for u in (0..n).map(UserId::new) {
            assert_eq!(serial.cached_full(u), parallel.cached_full(u), "user {u}");
        }
    }

    #[test]
    fn partially_warm_index_refuses_adoption() {
        let triples = dataset();
        let mono = RatingMatrix::from_triples(triples.iter().copied()).unwrap();
        let n = mono.num_users();
        let selector = PeerSelector::new(0.0).unwrap();
        let spec = ShardSpec::new(2).unwrap();
        let sharded = ShardedRatingMatrix::from_matrix(&mono, spec).unwrap();
        let measure = ShardedRatingsSimilarity::new(&sharded).with_min_overlap(2);

        let index = ShardedPeerIndex::new(selector, spec, n);
        let _ = index.full_peers(&measure, UserId::new(0)); // one warm slot
        let before = index.generation();
        let report = distributed_warm(&sharded, &index, 2, JobConfig::default()).unwrap();
        assert_eq!(report.installed, None, "adoption must be refused");
        assert_eq!(index.generation(), before, "index untouched");
    }
}
