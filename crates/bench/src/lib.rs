//! Shared fixtures and harness utilities for the benchmark suite.
//!
//! Every table and figure of the paper's evaluation — plus the ablations
//! A1–A5 of the table below, which are this repo's additions, not the
//! paper's — is regenerated by a binary in `src/bin/` (full grids,
//! wall-clock measurements, paper-style output) and, where
//! microbenchmarks make sense, a Criterion bench in `benches/`. The
//! inputs are the synthetic cohorts of `fairrec-data`, which stand in
//! for the paper's private iManageCancer data.
//!
//! | artefact | binary | bench |
//! |---|---|---|
//! | Table II (brute force vs heuristic) | `table2` | `benches/table2.rs` |
//! | Fig. 2 pipeline (scaling, A4) | `mapreduce_scaling` | `benches/mapreduce.rs` |
//! | A1 aggregation ablation | `ablation_aggregation` | `benches/aggregation.rs` |
//! | A2 similarity ablation | `ablation_similarity` | `benches/similarity.rs` |
//! | A3 fairness sweep | `fairness_sweep` | — |
//! | A5 optimality gap | `optimality_gap` | — |
//! | Equation 1 throughput | — | `benches/relevance.rs` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use fairrec_core::pool::CandidatePool;
use fairrec_core::predictions::{compute_group_predictions, GroupPredictionConfig};
use fairrec_core::Group;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_ontology::Ontology;
use fairrec_similarity::{PeerSelector, RatingsSimilarity};
use fairrec_types::{GroupId, ItemId, RatingMatrixBuilder, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Default group size used by the Table II harness (the paper does not
/// state one; |G| = 4 keeps the pairwise loop meaningful and the pool
/// constructible).
pub const TABLE2_GROUP_SIZE: usize = 4;

/// Default per-user list length k.
pub const TABLE2_K: usize = 10;

/// Builds a *realistic* candidate pool: synthetic cohort data, CF
/// predictions for a mixed group, truncated to `m` candidates.
pub fn realistic_pool(m: usize, group_size: usize, seed: u64) -> CandidatePool {
    let ontology: Ontology = clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 160,
            num_items: (m as u32 * 8).max(160),
            num_communities: 4,
            ratings_per_user: 30,
            seed,
            ..Default::default()
        },
        &ontology,
    )
    .expect("generator produces valid data");
    // One member per community, then fill round-robin for bigger groups.
    let mut members = Vec::with_capacity(group_size);
    let mut c = 0u32;
    while members.len() < group_size {
        let pick = data.sample_group(1 + members.len() / 4, Some(c % 4), seed + u64::from(c));
        for u in pick {
            if !members.contains(&u) && members.len() < group_size {
                members.push(u);
            }
        }
        c += 1;
    }
    let group = Group::new(GroupId::new(0), members).expect("non-empty");
    let measure = RatingsSimilarity::new(&data.matrix);
    let selector = PeerSelector::new(0.0).expect("finite delta");
    let predictions = compute_group_predictions(
        &data.matrix,
        &measure,
        &selector,
        &group,
        GroupPredictionConfig::default(),
    )
    .expect("members exist");
    CandidatePool::from_predictions(&predictions, Some(m)).expect("pool non-empty")
}

/// Builds a dense random pool directly (no CF phase) — used where the
/// pool contents don't matter, only its dimensions (e.g. timing grids
/// beyond what the CF fixture can fill).
pub fn random_pool(m: usize, group_size: usize, seed: u64) -> CandidatePool {
    let mut rng = StdRng::seed_from_u64(seed);
    let member_scores: Vec<Vec<Option<f64>>> = (0..group_size)
        .map(|_| (0..m).map(|_| Some(rng.gen_range(1.0..=5.0))).collect())
        .collect();
    let group_scores: Vec<f64> = (0..m)
        .map(|j| {
            member_scores
                .iter()
                .map(|row| row[j].expect("dense"))
                .sum::<f64>()
                / group_size as f64
        })
        .collect();
    CandidatePool::from_parts(
        (0..group_size as u32).map(UserId::new).collect(),
        (0..m as u32).map(ItemId::new).collect(),
        member_scores,
        group_scores,
    )
}

/// The fairness-evaluation fixture: the §IV-style synthetic cohort with
/// user activity deliberately *skewed* — per-user rating degrees cycle
/// deterministically through `8..=30` instead of the generator's
/// uniform count — so the activity terciles of
/// `fairrec_metrics::SegmentSpec` are all populated, plus the 24-group
/// evaluation workload: cohort-diverse quartets (the hard case §III-C
/// motivates), same-cohort trios, and adjacent-user pairs.
///
/// Deliberately **fixed** (no `FAIRREC_BENCH_USERS` scaling): the
/// fairness rows frozen into `BENCH_*.json` are claims about model
/// behaviour on this exact input, and must stay comparable across
/// trajectory entries.
pub fn fairness_fixture() -> (SyntheticDataset, Vec<Group>) {
    let ontology = clinical_fragment();
    let mut data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 160,
            num_items: 320,
            num_communities: 4,
            ratings_per_user: 30,
            seed: 31,
            ..Default::default()
        },
        &ontology,
    )
    .expect("valid config");

    // Thin each user's list to a user-dependent degree (8 + 7u mod 23).
    let mut b =
        RatingMatrixBuilder::new().reserve_ids(data.matrix.num_users(), data.matrix.num_items());
    for u in data.matrix.user_ids() {
        let keep = 8 + (u.raw() as usize * 7) % 23;
        for (i, s) in data.matrix.ratings_of(u).take(keep) {
            b.add_raw(u, i, s).expect("score came from a valid matrix");
        }
    }
    data.matrix = b.build().expect("non-empty");

    let mut groups = Vec::new();
    for g in 0..8u32 {
        let mut members = Vec::new();
        for c in 0..4 {
            members.extend(data.sample_group(1, Some(c), 100 + u64::from(g * 4 + c)));
        }
        members.dedup();
        groups.push(Group::new(GroupId::new(g), members).expect("non-empty"));
    }
    for g in 0..8u32 {
        let members = data.sample_group(3, Some(g % 4), 500 + u64::from(g));
        groups.push(Group::new(GroupId::new(8 + g), members).expect("non-empty"));
    }
    let num_users = data.matrix.num_users();
    for g in 0..8u32 {
        let base = (g * 13) % (num_users - 1);
        groups.push(
            Group::new(
                GroupId::new(16 + g),
                [UserId::new(base), UserId::new(base + 1)],
            )
            .expect("non-empty"),
        );
    }
    (data, groups)
}

/// Thread counts a bench sweep should cover, from the `FAIRREC_THREADS`
/// environment variable (comma-separated, e.g. `8` or `1,8`), defaulting
/// to `[1, 8]`. The CI bench matrix pins one count per job through this
/// knob so single-thread and multi-thread trajectories are measured in
/// isolation (bench noise in one cannot mask a regression in the other).
pub fn bench_thread_counts() -> Vec<usize> {
    match std::env::var("FAIRREC_THREADS") {
        Ok(raw) => {
            let parsed: Vec<usize> = raw
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 1)
                .collect();
            if parsed.is_empty() {
                vec![1, 8]
            } else {
                parsed
            }
        }
        Err(_) => vec![1, 8],
    }
}

/// User-count override for serving-scale fixtures: `FAIRREC_BENCH_USERS`
/// when set (clamped to `[100, 8000]` so a typo cannot run for hours),
/// otherwise `default`.
pub fn bench_users(default: u32) -> u32 {
    std::env::var("FAIRREC_BENCH_USERS")
        .ok()
        .and_then(|raw| raw.trim().parse::<u32>().ok())
        .map_or(default, |n| n.clamp(100, 8000))
}

/// Times `f`, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with three decimals, for paper-style tables.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Binomial coefficient (saturating), for combination counts.
pub fn binomial(m: u64, z: u64) -> u64 {
    if z > m {
        return 0;
    }
    let z = z.min(m - z);
    let mut out: u64 = 1;
    for i in 0..z {
        out = out.saturating_mul(m - i) / (i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realistic_pool_has_requested_shape() {
        let pool = realistic_pool(20, 4, 1);
        assert_eq!(pool.num_items(), 20);
        assert_eq!(pool.num_members(), 4);
    }

    #[test]
    fn random_pool_is_dense() {
        let pool = random_pool(15, 3, 2);
        assert_eq!(pool.num_items(), 15);
        for m in 0..3 {
            for j in 0..15 {
                assert!(pool.member_relevance(m, j).is_some());
            }
        }
    }

    #[test]
    fn fairness_fixture_has_skewed_activity_and_24_groups() {
        let (data, groups) = fairness_fixture();
        assert_eq!(groups.len(), 24);
        let degrees = data.matrix.user_degrees();
        let (min, max) = (degrees.iter().min().unwrap(), degrees.iter().max().unwrap());
        assert!(min < max, "degrees must be skewed, got uniform {min}");
        for g in &groups {
            for &u in g.members() {
                assert!(u.raw() < data.matrix.num_users());
            }
        }
    }

    #[test]
    fn binomial_matches_known_values() {
        assert_eq!(binomial(30, 12), 86_493_225);
        assert_eq!(binomial(30, 16), 145_422_675);
        assert_eq!(binomial(30, 20), 30_045_015);
        assert_eq!(binomial(10, 4), 210);
        assert_eq!(binomial(5, 9), 0);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(fmt_ms(d).parse::<f64>().unwrap() >= 0.0);
    }
}
