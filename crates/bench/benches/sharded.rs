//! Sharded warm benchmarks: the per-shard-pair symmetric warm of
//! [`ShardedPeerIndex`] against the monolithic
//! [`PeerIndex::warm_symmetric`] at serving scale (2k users by default;
//! override with `FAIRREC_BENCH_USERS`, up to the ISSUE's 8k).
//!
//! The `sharded_warm` group is the scaling trajectory the ROADMAP's
//! million-user goal rides on: a shard pair is an independent kernel task,
//! so the warm parallelises across the worker pool in units that a
//! multi-node deployment would place on different machines. Thread
//! counts come from `FAIRREC_THREADS` (default `1,8`) so the CI bench
//! matrix can measure each count in a dedicated job;
//! `scripts/bench_trajectory` turns the JSON rows into the committed
//! `BENCH_*.json` trajectory and `scripts/bench_summary --baseline`
//! gates regressions against the previous PR's numbers.

use criterion::{criterion_group, criterion_main, record_scalar, BenchmarkId, Criterion};
use fairrec_bench::{bench_thread_counts, bench_users};
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_similarity::{
    PeerIndex, PeerSelector, RatingsSimilarity, ShardedPeerIndex, ShardedRatingsSimilarity,
};
use fairrec_types::{Parallelism, ShardSpec, ShardedRatingMatrix, UserId};
use std::hint::black_box;

/// `1` is the engine's default store; its row against
/// `monolithic_symmetric` is the `sharded_vs_mono_1` ratio.
const SHARD_COUNTS: [u32; 3] = [1, 4, 8];

fn fixture(num_users: u32) -> SyntheticDataset {
    SyntheticDataset::generate(
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
    .expect("valid config")
}

fn bench_sharded_warm(c: &mut Criterion) {
    let data = fixture(bench_users(2000));
    let num_users = data.matrix.num_users();
    let selector = PeerSelector::new(0.0).expect("finite");
    let measure = RatingsSimilarity::new(&data.matrix);
    let partitions: Vec<ShardedRatingMatrix> = SHARD_COUNTS
        .iter()
        .map(|&s| {
            ShardedRatingMatrix::from_matrix(&data.matrix, ShardSpec::new(s).expect("nonzero"))
                .expect("partitionable")
        })
        .collect();

    // The paths must be interchangeable before they are raced.
    {
        let mono = PeerIndex::new(selector, num_users);
        mono.warm_symmetric(&measure, Parallelism::Rayon);
        for part in &partitions {
            let sharded_measure = ShardedRatingsSimilarity::new(part);
            let index = ShardedPeerIndex::new(selector, part.spec(), num_users);
            index.warm_symmetric(&sharded_measure, Parallelism::Rayon);
            for u in (0..num_users).step_by(97).map(UserId::new) {
                assert_eq!(
                    index.cached_full(u),
                    mono.cached_full(u),
                    "sharded and monolithic warms must cache identical lists"
                );
            }
        }
    }

    let mut bench = c.benchmark_group("sharded_warm");
    bench.sample_size(10);
    for threads in bench_thread_counts() {
        bench.bench_with_input(
            BenchmarkId::new("monolithic_symmetric", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let index = PeerIndex::new(selector, num_users);
                    black_box(index.warm_symmetric(&measure, Parallelism::Threads(threads)))
                })
            },
        );
        for (part, &shards) in partitions.iter().zip(&SHARD_COUNTS) {
            let sharded_measure = ShardedRatingsSimilarity::new(part);
            bench.bench_with_input(
                BenchmarkId::new(format!("shards_{shards}"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let index = ShardedPeerIndex::new(selector, part.spec(), num_users);
                        black_box(
                            index.warm_symmetric(&sharded_measure, Parallelism::Threads(threads)),
                        )
                    })
                },
            );
        }
    }

    bench.finish();

    // Resident-set trajectory: the compacted per-shard id spaces are the
    // memory half of the sharding story, so record user-axis byte counts
    // next to the timings. `record_scalar` drops them into the same
    // JSONL as the timing rows; `scripts/bench_trajectory` divides
    // max-shard by monolithic into the `shard_memory/ratio_*` entries of
    // the committed `BENCH_*.json`, and `scripts/bench_summary
    // --baseline` gates those like the perf ratios. Expected ≈ 1.25/S: a
    // shard pays ~20 bytes per *owned* user (compact CSR row starts,
    // means, degrees, plus the global-id column of the remap) where the
    // monolithic axis pays ~16 per user of the whole universe.
    record_scalar(
        "shard_memory/monolithic_axis_bytes",
        data.matrix.user_axis_bytes() as f64,
        1,
    );
    for (part, &shards) in partitions.iter().zip(&SHARD_COUNTS) {
        record_scalar(
            &format!("shard_memory/total_axis_bytes/shards_{shards}"),
            part.user_axis_bytes() as f64,
            shards as usize,
        );
        record_scalar(
            &format!("shard_memory/max_shard_axis_bytes/shards_{shards}"),
            part.max_shard_user_axis_bytes() as f64,
            shards as usize,
        );
    }
}

criterion_group!(benches, bench_sharded_warm);
criterion_main!(benches);
