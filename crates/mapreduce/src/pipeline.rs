//! The chained Job 0 → 1 → 2 → 3 pipeline (§IV end-to-end).
//!
//! [`mapreduce_group_predictions`] takes the raw rating triples and a
//! caregiver group and produces the same
//! [`GroupPredictions`] the
//! in-memory reference
//! ([`compute_group_predictions`](fairrec_core::predictions::compute_group_predictions))
//! produces — the equivalence is asserted by integration tests on random
//! datasets. After the jobs *"the majority of the computations \[are\]
//! done"*, and Algorithm 1 runs centralised on the assembled pool, exactly
//! as the paper prescribes.

use crate::engine::{run_job, JobConfig, JobMetrics};
use crate::jobs::{
    ItemScores, Job1Mapper, Job1Out, Job1Reducer, Job2Mapper, Job2Reducer, Job3Mapper, Job3Reducer,
    MeansMapper, MeansReducer, SimEdge,
};
use fairrec_core::aggregate::{Aggregation, MissingPolicy};
use fairrec_core::group::Group;
use fairrec_core::predictions::GroupPredictions;
use fairrec_similarity::{PeerIndex, PeerSelector};
use fairrec_types::{FairrecError, ItemId, RatingTriple, Relevance, Result, UserId};
use std::collections::HashMap;

/// Pipeline knobs; mirrors the in-memory configuration exactly so the two
/// paths can be compared run-for-run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Peer threshold δ (Definition 1).
    pub delta: f64,
    /// Minimum co-rated overlap for Pearson (in-memory default: 2).
    pub min_overlap: usize,
    /// Optional per-member peer cap, applied between Jobs 2 and 3 (the
    /// kNN variant of Definition 1).
    pub max_peers: Option<usize>,
    /// Definition 2 aggregation.
    pub aggregation: Aggregation,
    /// Missing-prediction policy.
    pub missing: MissingPolicy,
    /// Engine execution knobs.
    pub job: JobConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            delta: 0.0,
            min_overlap: 2,
            max_peers: None,
            aggregation: Aggregation::default(),
            missing: MissingPolicy::default(),
            job: JobConfig::default(),
        }
    }
}

/// Metrics of each stage, for the scaling experiments (A4).
#[derive(Debug, Clone, Default)]
pub struct MapReducePipelineReport {
    /// Job 0 (user means) metrics.
    pub job0: JobMetrics,
    /// Job 1 (candidates + partials) metrics.
    pub job1: JobMetrics,
    /// Job 2 (similarity) metrics.
    pub job2: JobMetrics,
    /// Job 3 (relevance) metrics.
    pub job3: JobMetrics,
    /// Candidate items that had at least one outside rating.
    pub rated_candidates: usize,
    /// Number of (member, peer) similarity edges ≥ δ.
    pub sim_edges: usize,
}

impl MapReducePipelineReport {
    /// Total map+reduce wall-clock across the four jobs.
    pub fn total_duration(&self) -> std::time::Duration {
        [self.job0, self.job1, self.job2, self.job3]
            .iter()
            .map(|m| m.map_duration + m.reduce_duration)
            .sum()
    }
}

/// Runs the full pipeline.
///
/// `num_items` is the size of the item id space. Like the in-memory
/// reference, the output holds exactly the items no member rated that
/// have a defined group relevance. Items with no ratings at all never
/// reach the jobs, yet they are still "unrated by the group": under
/// [`MissingPolicy::Pessimistic`] they are reassembled with all-undefined
/// member predictions and the policy's group score, and under
/// [`MissingPolicy::Skip`] they are dropped, as are the items Job 3
/// scored for no member.
///
/// # Errors
/// Returns [`FairrecError::InvalidParameter`] (naming `num_items`) when
/// a triple's item lies outside the item id space, and
/// [`FairrecError::DuplicateRating`] when the relation holds the same
/// `(user, item)` pair twice — the workspace-wide invariant
/// [`RatingMatrixBuilder`](fairrec_types::RatingMatrixBuilder) enforces.
/// Group validation happens in [`Group`].
pub fn mapreduce_group_predictions(
    triples: Vec<RatingTriple>,
    num_items: u32,
    group: &Group,
    config: &PipelineConfig,
) -> Result<(GroupPredictions, MapReducePipelineReport)> {
    let mut report = MapReducePipelineReport::default();
    let members: Vec<UserId> = group.members().to_vec();
    let n = members.len();

    // Every item must index the exclusion set and appear in the
    // assembled item list, so an item outside the id space is rejected
    // before any job runs.
    if let Some(t) = triples.iter().find(|t| t.item.raw() >= num_items) {
        return Err(FairrecError::invalid_parameter(
            "num_items",
            format!(
                "rating ({}, {}) lies outside the item id space of {num_items}",
                t.user, t.item
            ),
        ));
    }

    // Canonicalise the input order up front. Float summation is order-
    // sensitive in the last ulp, and Job 0 sums each user's ratings in
    // input order while the in-memory reference's `RatingMatrix` sums in
    // `(user, item)` order — sorting here makes the pipeline's bits
    // independent of how the caller ordered the relation, so the
    // MapReduce/in-memory equality holds unconditionally rather than only
    // for pre-sorted input.
    let mut triples = triples;
    triples.sort_unstable_by_key(|t| (t.user, t.item));
    // Duplicate pairs are invalid input everywhere in the workspace
    // (`RatingMatrixBuilder` rejects them because keeping one silently
    // would make results depend on insertion order); the job chain would
    // otherwise silently sum both ratings.
    for w in triples.windows(2) {
        if (w[0].user, w[0].item) == (w[1].user, w[1].item) {
            return Err(FairrecError::DuplicateRating {
                user: w[0].user,
                item: w[0].item,
            });
        }
    }

    // Exclusion set: items any member rated. In the deployed system the
    // caregiver's group ratings are a small, known relation; here it is
    // one scan over the input before the jobs consume it.
    let mut group_rated = vec![false; num_items as usize];
    for t in &triples {
        if group.contains(t.user) {
            group_rated[t.item.index()] = true;
        }
    }

    // ---- Jobs 0–2: the Definition-1 similarity edges ----------------------
    // Job 0: user means (side data for the Pearson partials).
    let job0 = run_job(&MeansMapper, &MeansReducer, triples.clone(), config.job);
    report.job0 = job0.metrics;
    let means: HashMap<UserId, f64> = job0.output.into_iter().collect();

    // Job 1: per-item grouping — candidates + partial similarities.
    let job1 = run_job(
        &Job1Mapper,
        &Job1Reducer::new(members.clone(), means),
        triples,
        config.job,
    );
    report.job1 = job1.metrics;
    let (candidates, partials): (Vec<Job1Out>, Vec<Job1Out>) = job1
        .output
        .into_iter()
        .partition(|o| matches!(o, Job1Out::Candidate { .. }));

    // Job 2: finalise simU with threshold δ.
    let job2 = run_job(
        &Job2Mapper,
        &Job2Reducer::new(config.delta, config.min_overlap),
        partials,
        config.job,
    );
    report.job2 = job2.metrics;
    let sim_edges: Vec<SimEdge> = job2.output;
    report.sim_edges = sim_edges.len();

    // Per-member peer tables, canonicalised (sort by sim desc, id asc;
    // optional kNN truncation) by the same `PeerIndex` path the in-memory
    // pipeline uses — the edges are just a precomputed similarity
    // function, so Definition 1 semantics live in exactly one place.
    let mut selector = PeerSelector::new(config.delta)?;
    if let Some(cap) = config.max_peers {
        selector = selector.with_max_peers(cap);
    }
    let num_users = members.iter().map(|m| m.raw() + 1).max().unwrap_or(0);
    let index = PeerIndex::from_edges(
        selector,
        num_users,
        &members,
        sim_edges.into_iter().map(|SimEdge { member, peer, sim }| {
            // `from_edges` quietly ignores edges for unlisted users; the
            // paper's invariant is stronger — Job 1 keys every partial by
            // a member — so a violation here is a job bug worth failing on.
            debug_assert!(
                members.binary_search(&member).is_ok(),
                "Job 2 emitted an edge for non-member {member}"
            );
            (member, peer, sim)
        }),
    );
    let peer_sims: Vec<HashMap<UserId, f64>> = index
        .group_peers_cached(&members)
        .into_iter()
        .map(|(_, peers)| peers.into_iter().collect())
        .collect();

    // ---- Job 3: Equation 1 + Definition 2 over the candidates ------------
    let job3 = run_job(
        &Job3Mapper,
        &Job3Reducer::new(
            members.clone(),
            peer_sims,
            config.aggregation,
            config.missing,
        ),
        candidates,
        config.job,
    );
    report.job3 = job3.metrics;
    report.rated_candidates = job3.output.len();

    // ---- Assembly ----------------------------------------------------------
    let mut scored: HashMap<ItemId, ItemScores> = HashMap::with_capacity(job3.output.len());
    for s in job3.output {
        scored.insert(s.item, s);
    }
    // The in-memory contract: exactly the unrated items with a defined
    // group relevance, ascending by id.
    let empty_column: Vec<Option<Relevance>> = vec![None; n];
    let unrated_group_score = config.aggregation.aggregate(&empty_column, config.missing);

    let mut items: Vec<ItemId> = Vec::new();
    let mut member_scores: Vec<Vec<Option<Relevance>>> = vec![Vec::new(); n];
    let mut group_scores: Vec<Option<Relevance>> = Vec::new();
    for item in (0..num_items)
        .map(ItemId::new)
        .filter(|i| !group_rated[i.index()])
    {
        // An item no member's peers scored has every member undefined.
        let scores = scored.get(&item);
        let group_score = scores.map_or(unrated_group_score, |s| s.group_score);
        if group_score.is_none() {
            continue;
        }
        for (m, row) in member_scores.iter_mut().enumerate() {
            row.push(scores.and_then(|s| s.member_scores[m]));
        }
        group_scores.push(group_score);
        items.push(item);
    }

    Ok((
        GroupPredictions::from_parts(members, items, member_scores, group_scores),
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_similarity::{BulkUserSimilarity, RatingsSimilarity, SimScratch};
    use fairrec_types::{GroupId, Rating, RatingMatrix, RATING_MIN};

    fn triple(u: u32, i: u32, r: f64) -> RatingTriple {
        RatingTriple {
            user: UserId::new(u),
            item: ItemId::new(i),
            rating: Rating::new(r).unwrap(),
        }
    }

    /// Group {u0, u1}; outsiders u2, u3. Items:
    ///   i0 group-rated; i1 group-rated;
    ///   i2 rated by u2, u3; i3 rated by u2; i4 ratings-free.
    fn fixture() -> Vec<RatingTriple> {
        vec![
            triple(0, 0, 5.0),
            triple(1, 1, 4.0),
            // co-rated history so Pearson is defined (overlap ≥ 2):
            triple(0, 5, 4.0),
            triple(0, 6, 2.0),
            triple(1, 5, 5.0),
            triple(1, 6, 1.0),
            triple(2, 5, 4.5),
            triple(2, 6, 1.5),
            triple(3, 5, 3.0),
            triple(3, 6, 4.0),
            // candidate ratings:
            triple(2, 2, 5.0),
            triple(3, 2, 3.0),
            triple(2, 3, 2.0),
        ]
    }

    #[test]
    fn pipeline_classifies_items_correctly() {
        let group = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        let (preds, report) = mapreduce_group_predictions(
            fixture(),
            7,
            &group,
            &PipelineConfig {
                delta: -1.0,
                ..Default::default()
            },
        )
        .unwrap();
        // Unrated by the group: i2, i3, i4 (i5/i6 are group-rated history).
        // i4 has no ratings at all, so no member can score it: under Skip
        // it has no group relevance and is no candidate.
        assert_eq!(preds.items(), &[ItemId::new(2), ItemId::new(3)]);
        assert!((0..preds.num_items()).all(|j| preds.group_relevance(j).is_some()));
        assert!(report.rated_candidates >= 1);
        assert!(report.sim_edges > 0);
        assert!(report.job1.map_input_records == 13);

        // Under Pessimistic every member's missing score counts as the
        // minimum rating, so i4 is a candidate with that group score.
        let (pessimistic, _) = mapreduce_group_predictions(
            fixture(),
            7,
            &group,
            &PipelineConfig {
                delta: -1.0,
                missing: MissingPolicy::Pessimistic,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            pessimistic.items(),
            &[ItemId::new(2), ItemId::new(3), ItemId::new(4)]
        );
        assert_eq!(pessimistic.member_relevance(0, 2), None);
        assert_eq!(pessimistic.member_relevance(1, 2), None);
        assert_eq!(pessimistic.group_relevance(2), Some(RATING_MIN));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let group = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        let cfg1 = PipelineConfig {
            delta: -1.0,
            job: JobConfig {
                num_workers: 1,
                num_partitions: 1,
            },
            ..Default::default()
        };
        let cfg4 = PipelineConfig {
            delta: -1.0,
            job: JobConfig {
                num_workers: 4,
                num_partitions: 7,
            },
            ..Default::default()
        };
        let (a, _) = mapreduce_group_predictions(fixture(), 7, &group, &cfg1).unwrap();
        let (b, _) = mapreduce_group_predictions(fixture(), 7, &group, &cfg4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_kernel_edges_match_job2_bitwise() {
        let members = vec![UserId::new(0), UserId::new(1)];
        let triples = fixture();
        // The Job 0 → 1 → 2 chain.
        let job0 = run_job(
            &MeansMapper,
            &MeansReducer,
            triples.clone(),
            JobConfig::default(),
        );
        let means: HashMap<UserId, f64> = job0.output.into_iter().collect();
        let job1 = run_job(
            &Job1Mapper,
            &Job1Reducer::new(members.clone(), means),
            triples.clone(),
            JobConfig::default(),
        );
        let partials: Vec<Job1Out> = job1
            .output
            .into_iter()
            .filter(|o| matches!(o, Job1Out::Partial { .. }))
            .collect();
        let mut mapreduce = run_job(
            &Job2Mapper,
            &Job2Reducer::new(-1.0, 2),
            partials,
            JobConfig::default(),
        )
        .output;
        mapreduce.sort_by_key(|e| (e.member, e.peer));

        // Oracle: the in-memory bulk kernel, one pass per member, minus
        // in-group peers and edges below δ = -1. Job 2 sums each pair's partials in item order,
        // which is exactly the kernel's accumulation order.
        let matrix = RatingMatrix::from_triples(triples).unwrap();
        let measure = RatingsSimilarity::new(&matrix).with_min_overlap(2);
        let mut scratch = SimScratch::new();
        let mut kernel = Vec::new();
        for &member in &members {
            let mut row = Vec::new();
            measure.similarities_from(member, matrix.num_users(), &mut scratch, &mut row);
            kernel.extend(
                row.into_iter()
                    .filter(|(peer, sim)| *sim >= -1.0 && !members.contains(peer))
                    .map(|(peer, sim)| (member, peer, sim)),
            );
        }
        kernel.sort_by_key(|&(member, peer, _)| (member, peer));

        assert_eq!(mapreduce.len(), kernel.len());
        for (a, &(member, peer, sim)) in mapreduce.iter().zip(&kernel) {
            assert_eq!((a.member, a.peer), (member, peer));
            assert_eq!(
                a.sim.to_bits(),
                sim.to_bits(),
                "edge ({member}, {peer}) must carry identical bits"
            );
        }
    }

    #[test]
    fn duplicate_pairs_are_rejected_by_both_producers() {
        // The Job chain answers duplicate input exactly as the in-memory
        // reference's matrix build does.
        let group = Group::new(GroupId::new(0), [UserId::new(0)]).unwrap();
        let mut dup = fixture();
        dup.push(triple(2, 2, 1.0)); // (u2, i2) already present
        let expected = (UserId::new(2), ItemId::new(2));
        match RatingMatrix::from_triples(dup.iter().copied()) {
            Err(FairrecError::DuplicateRating { user, item }) => {
                assert_eq!((user, item), expected);
            }
            other => panic!("in-memory: expected DuplicateRating, got {other:?}"),
        }
        match mapreduce_group_predictions(dup, 7, &group, &PipelineConfig::default()) {
            Err(FairrecError::DuplicateRating { user, item }) => {
                assert_eq!((user, item), expected);
            }
            other => panic!("Job chain: expected DuplicateRating, got {other:?}"),
        }
    }

    #[test]
    fn input_order_does_not_change_results() {
        // Float sums are order-sensitive in the last ulp; the pipeline
        // canonicalises the relation up front, so a reversed (or any)
        // input order must produce identical bits.
        let group = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        let mut reversed = fixture();
        reversed.reverse();
        let cfg = PipelineConfig {
            delta: -1.0,
            ..Default::default()
        };
        let (sorted, _) = mapreduce_group_predictions(fixture(), 7, &group, &cfg).unwrap();
        let (shuffled, _) = mapreduce_group_predictions(reversed, 7, &group, &cfg).unwrap();
        assert_eq!(sorted, shuffled);
    }

    #[test]
    fn items_outside_the_id_space_are_rejected() {
        let group = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        // A member's out-of-range rating would index past the exclusion
        // set and a non-member's would drop out of the item list: both
        // get a typed error naming `num_items`, ahead of the duplicate.
        for (who, rater) in [("member", 0), ("non-member", 3)] {
            let mut triples = fixture();
            triples.push(triple(rater, 9, 4.0));
            triples.push(triple(2, 2, 1.0)); // duplicate: must not win
            match mapreduce_group_predictions(triples, 7, &group, &PipelineConfig::default()) {
                Err(FairrecError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, "num_items", "{who}");
                }
                other => panic!("{who}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn max_peers_caps_the_tables() {
        let group = Group::new(GroupId::new(0), [UserId::new(0)]).unwrap();
        let base = PipelineConfig {
            delta: -1.0,
            ..Default::default()
        };
        let capped = PipelineConfig {
            max_peers: Some(1),
            ..base
        };
        let (full, _) = mapreduce_group_predictions(fixture(), 7, &group, &base).unwrap();
        let (few, _) = mapreduce_group_predictions(fixture(), 7, &group, &capped).unwrap();
        // With fewer peers, predictions can only change or disappear, so
        // the capped candidates (items with a defined group relevance)
        // are a subset of the uncapped ones — here a strict one.
        assert!(few.items().iter().all(|i| full.items().contains(i)));
        assert!(few.num_items() < full.num_items());
    }
}
