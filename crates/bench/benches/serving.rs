//! Serving front-end benchmarks: the streaming [`Server`] (bounded
//! admission + coalescing + batched fan-out) raced against per-call
//! [`RecommenderEngine::recommend_batch`] serving, plus a deterministic
//! closed-loop load-generator replay reporting p50/p95/p99 latency and
//! sustained QPS.
//!
//! The workload is the ISSUE's 64-small-groups stream: 64 distinct
//! two-member groups, each requested four times, interleaved — the
//! duplicate-heavy shape of real caregiver traffic where several
//! caregivers ask about the same patient group within one window. The
//! per-call path computes all 256 requests; the server coalesces the
//! duplicates onto 64 computations and fans compatible requests out in
//! dispatcher batches. Thread counts come from `FAIRREC_THREADS`
//! (default `1,8`); `scripts/bench_trajectory` freezes the rows (and
//! the coalesced/per-call ratio) into the committed `BENCH_*.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairrec_bench::{bench_thread_counts, bench_users};
use fairrec_core::group::Group;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_engine::{EngineConfig, IngestPolicy, RecommenderEngine, Server, ServerConfig};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_similarity::{PeerIndex, PeerSelector, RatingsSimilarity};
use fairrec_types::{Deadline, GroupId, ItemId, Parallelism, UserId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NUM_GROUPS: u32 = 64;
const REPEATS: usize = 4;
const Z: usize = 5;

fn make_engine(threads: usize) -> Arc<RecommenderEngine> {
    let num_users = bench_users(1000);
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users,
            num_items: num_users * 2,
            num_communities: 4,
            ratings_per_user: 40,
            seed: 23,
            ..Default::default()
        },
        &clinical_fragment(),
    )
    .expect("valid config");
    Arc::new(
        RecommenderEngine::new(
            data.matrix,
            data.profiles,
            clinical_fragment(),
            EngineConfig {
                parallelism: Parallelism::Threads(threads),
                ..Default::default()
            },
        )
        .expect("valid engine"),
    )
}

/// The 64 distinct two-member groups of the workload.
fn make_groups(num_users: u32) -> Vec<Group> {
    (0..NUM_GROUPS)
        .map(|g| {
            let base = (g * 2) % (num_users - 1);
            Group::new(GroupId::new(g), [UserId::new(base), UserId::new(base + 1)])
                .expect("non-empty group")
        })
        .collect()
}

/// The interleaved request schedule: g0, g1, …, g63, g0, … (each group
/// `REPEATS` times). Deterministic — no RNG, no clock.
fn schedule() -> Vec<usize> {
    (0..REPEATS).flat_map(|_| 0..NUM_GROUPS as usize).collect()
}

fn server_over(engine: &Arc<RecommenderEngine>) -> Server {
    Server::new(
        Arc::clone(engine),
        ServerConfig {
            queue_capacity: 512,
            max_batch: 16,
            workers: 2,
        },
    )
}

fn bench_serving(c: &mut Criterion) {
    let mut bench = c.benchmark_group("serving");
    bench.sample_size(10);
    for threads in bench_thread_counts() {
        let engine = make_engine(threads);
        engine.warm_peer_index();
        let groups = make_groups(engine.ratings().num_users());
        let order = schedule();

        // The paths must agree before they are raced.
        {
            let server = server_over(&engine);
            let served = server
                .recommend(groups[0].clone(), Z, Deadline::none())
                .expect("served");
            let direct = engine.recommend_for_group(&groups[0], Z).expect("direct");
            assert_eq!(*served, direct, "server and per-call results must match");
        }

        bench.bench_with_input(BenchmarkId::new("per_call", threads), &threads, |b, _| {
            b.iter(|| {
                for &g in &order {
                    let got = engine
                        .recommend_batch(std::slice::from_ref(&groups[g]), Z)
                        .expect("per-call serving");
                    black_box(got);
                }
            })
        });
        bench.bench_with_input(BenchmarkId::new("coalesced", threads), &threads, |b, _| {
            b.iter(|| {
                let server = server_over(&engine);
                let tickets: Vec<_> = order
                    .iter()
                    .map(|&g| {
                        server
                            .submit(groups[g].clone(), Z, Deadline::none())
                            .expect("capacity covers the schedule")
                    })
                    .collect();
                for ticket in tickets {
                    black_box(ticket.wait().expect("served"));
                }
                server.shutdown()
            })
        });
    }
    bench.finish();
}

/// Nearest-rank percentile over sorted nanosecond latencies.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let rank = (sorted.len() * pct).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The load-generator replay: four closed-loop submitter lanes replay
/// the schedule against one persistent server — each lane takes a
/// contiguous quarter, i.e. one full g0…g63 sweep, so concurrent lanes
/// ask for the *same* groups and the admission layer coalesces them —
/// timing each request from submit to delivery. Reports p50/p95/p99
/// latency and sustained QPS as scalar rows in the same JSONL stream
/// as the timing benches.
fn bench_load_replay(c: &mut Criterion) {
    let _ = c; // same signature as the timing benches; measures by hand
    const LANES: usize = 4;
    for threads in bench_thread_counts() {
        let engine = make_engine(threads);
        engine.warm_peer_index();
        let groups = make_groups(engine.ratings().num_users());
        let order = schedule();
        let server = server_over(&engine);

        let started = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let lane_len = order.len().div_ceil(LANES);
            let handles: Vec<_> = order
                .chunks(lane_len)
                .map(|lane| {
                    let server = &server;
                    let groups = &groups;
                    scope.spawn(move || {
                        let mut lane_latencies = Vec::new();
                        for &g in lane {
                            let t0 = Instant::now();
                            let ticket = server
                                .submit(groups[g].clone(), Z, Deadline::none())
                                .expect("capacity covers the schedule");
                            ticket.wait().expect("served");
                            lane_latencies.push(t0.elapsed().as_nanos() as u64);
                        }
                        lane_latencies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("lane panicked"))
                .collect()
        });
        let wall = started.elapsed();
        let stats = server.shutdown();
        assert_eq!(
            stats.completed + stats.coalesced,
            u64::try_from(order.len()).expect("fits"),
            "every scheduled request was served"
        );

        latencies.sort_unstable();
        let n = latencies.len();
        let qps = n as f64 / wall.as_secs_f64();
        criterion::record_scalar(
            &format!("serving_load/p50/{threads}"),
            percentile(&latencies, 50) as f64,
            n,
        );
        criterion::record_scalar(
            &format!("serving_load/p95/{threads}"),
            percentile(&latencies, 95) as f64,
            n,
        );
        criterion::record_scalar(
            &format!("serving_load/p99/{threads}"),
            percentile(&latencies, 99) as f64,
            n,
        );
        criterion::record_scalar(&format!("serving_load/qps/{threads}"), qps, n);
        println!(
            "serving_load[{threads} threads]: {n} requests in {:.1} ms, {qps:.1} QPS, \
             {} coalesced / {} computed",
            wall.as_secs_f64() * 1e3,
            stats.coalesced,
            stats.completed,
        );
    }
}

/// Group-read latency under a concurrent full warm: reader threads time
/// group-shaped snapshot reads (one `cached_full` slot load per member)
/// over the hot members of the coalescing workload above, while a writer
/// loops a blanket invalidation plus a full symmetric kernel warm of the
/// same [`PeerIndex`]. The p50/p95 rows land as scalars — the
/// serve-through-warms claim in numbers.
fn bench_warm_under_load(c: &mut Criterion) {
    let _ = c; // same signature as the timing benches; measures by hand
    const READERS: usize = 4;
    /// The duplicate-heavy serving shape: concurrent requests hit the
    /// *same* few group members, so reader traffic concentrates on a
    /// hot slot set.
    const HOT_USERS: u32 = 8;
    /// Members per timed read — the two-member groups of the serving
    /// workload.
    const GROUP: usize = 2;
    const WARM_THREADS: usize = 4;
    const WINDOW: Duration = Duration::from_millis(250);
    let num_users = bench_users(1000);
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users,
            num_items: num_users * 2,
            num_communities: 4,
            ratings_per_user: 40,
            seed: 23,
            ..Default::default()
        },
        &clinical_fragment(),
    )
    .expect("valid config");
    let measure = RatingsSimilarity::new(Arc::new(data.matrix));
    let selector = PeerSelector::new(0.0).expect("finite δ");

    let index = PeerIndex::new(selector, num_users);
    index.warm_symmetric(&measure, Parallelism::Threads(WARM_THREADS));
    let done = AtomicBool::new(false);
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                index.invalidate_all();
                index.warm_symmetric(&measure, Parallelism::Threads(WARM_THREADS));
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let index = &index;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x9E37 + r as u64);
                    let mut latencies = Vec::with_capacity(1 << 20);
                    let started = Instant::now();
                    while started.elapsed() < WINDOW {
                        let group: [UserId; GROUP] =
                            std::array::from_fn(|_| UserId::new(rng.gen_range(0..HOT_USERS)));
                        let t0 = Instant::now();
                        black_box(group.map(|u| index.cached_full(u)));
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        let all = readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        done.store(true, Ordering::Release);
        all
    });
    latencies.sort_unstable();

    let n = latencies.len();
    criterion::record_scalar("warm_under_load/p50", percentile(&latencies, 50) as f64, n);
    criterion::record_scalar("warm_under_load/p95", percentile(&latencies, 95) as f64, n);
    println!(
        "warm_under_load: {n} reads, p50 {} ns, p95 {} ns, p99 {} ns",
        percentile(&latencies, 50),
        percentile(&latencies, 95),
        percentile(&latencies, 99),
    );
}

/// Batch maintenance cost, model-picked vs forced-blanket: the same
/// small batch (point updates on four users) against a warm engine,
/// once under the default [`IngestPolicy::Adaptive`] (the kernel cost
/// model routes it to per-event delta replays; the cache never cools)
/// and once under [`IngestPolicy::AlwaysBlanket`] plus the
/// `warm_peer_index` call the blanket then requires before serving
/// resumes. The `ingest_adaptive_vs_blanket` trajectory ratio is the
/// cost-model claim: adaptively-routed small batches undercut the
/// blanket by orders of magnitude.
fn bench_ingest_adaptive(c: &mut Criterion) {
    let num_users = bench_users(1000);
    let mut bench = c.benchmark_group("ingest_adaptive");
    bench.sample_size(10);
    let build = |policy: IngestPolicy| {
        let data = SyntheticDataset::generate(
            SyntheticConfig {
                num_users,
                num_items: num_users * 2,
                num_communities: 4,
                ratings_per_user: 40,
                seed: 23,
                ..Default::default()
            },
            &clinical_fragment(),
        )
        .expect("valid config");
        let engine = RecommenderEngine::new(
            data.matrix,
            data.profiles,
            clinical_fragment(),
            EngineConfig {
                parallelism: Parallelism::Threads(4),
                ingest_policy: policy,
                ..Default::default()
            },
        )
        .expect("valid engine");
        engine.warm_peer_index();
        engine
    };
    // Same-score updates: idempotent, so iterations compose and both
    // engines keep serving the identical relation.
    let batch: Vec<(UserId, ItemId, f64)> = (0..4)
        .map(|k| (UserId::new(k * 7), ItemId::new(k * 11), 3.5))
        .collect();

    let mut engine = build(IngestPolicy::Adaptive);
    bench.bench_function("model_picked", |b| {
        b.iter(|| {
            black_box(
                engine
                    .ingest_ratings(batch.iter().copied())
                    .expect("valid batch"),
            )
        })
    });

    let mut engine = build(IngestPolicy::AlwaysBlanket);
    bench.bench_function("forced_blanket", |b| {
        b.iter(|| {
            black_box(
                engine
                    .ingest_ratings(batch.iter().copied())
                    .expect("valid batch"),
            );
            black_box(engine.warm_peer_index())
        })
    });
    bench.finish();
}

criterion_group!(
    benches,
    bench_serving,
    bench_load_replay,
    bench_warm_under_load,
    bench_ingest_adaptive
);
criterion_main!(benches);
