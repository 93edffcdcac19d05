//! The paper's recommendation jobs (Fig. 2), plus the Job 0 means pass.
//!
//! Data flow (`R` = rating triples, `G` = the caregiver group):
//!
//! ```text
//! R ──ι Job 0: user means ─────────────────────────┐ (side data)
//! R ──ι Job 1: key=item ── candidates ───────────────────┐
//!                        └─ partial pair scores ──ι Job 2: simU ≥ δ ──┐
//! candidates + simU ──ι Job 3: Equation 1 + Definition 2 ──ι item scores
//! ```
//!
//! Partial similarity decomposition: for Pearson (Equation 2) every
//! co-rated item `i` of a (member, peer) pair contributes the triple
//! `(dᵤ·dᵥ, dᵤ², dᵥ²)` with `dᵤ = rating(u, i) − µᵤ`; Job 2 sums the
//! triples and finishes `Σdᵤdᵥ / (√Σdᵤ² · √Σdᵥ²)`. The user means µ come
//! from Job 0 and ride into Job 1 as side data — the "distributed cache"
//! step Hadoop programs use for small broadcast tables.

use crate::engine::{Mapper, Reducer};
use fairrec_core::aggregate::{Aggregation, MissingPolicy};
use fairrec_types::{ItemId, RatingTriple, Relevance, UserId};
use std::collections::HashMap;

// --------------------------------------------------------------------------
// Job 0 — user means (side data for the Pearson decomposition)
// --------------------------------------------------------------------------

/// Job 0 mapper: `(u, i, r) → (u, r)`.
pub struct MeansMapper;

impl Mapper for MeansMapper {
    type In = RatingTriple;
    type Key = UserId;
    type Value = f64;

    fn map(&self, record: RatingTriple, emit: &mut dyn FnMut(UserId, f64)) {
        emit(record.user, record.rating.value());
    }
}

/// Job 0 reducer: mean of each user's ratings.
pub struct MeansReducer;

impl Reducer for MeansReducer {
    type Key = UserId;
    type Value = f64;
    type Out = (UserId, f64);

    fn reduce(&self, key: UserId, values: Vec<f64>, emit: &mut dyn FnMut((UserId, f64))) {
        let n = values.len() as f64;
        let sum: f64 = values.iter().sum();
        emit((key, sum / n));
    }
}

// --------------------------------------------------------------------------
// Job 1 — group by item: candidates + partial pair similarities
// --------------------------------------------------------------------------

/// Job 1 mapper: `(u, i, r) → (i, (u, r))` — exactly the paper's mapping.
pub struct Job1Mapper;

impl Mapper for Job1Mapper {
    type In = RatingTriple;
    type Key = ItemId;
    type Value = (UserId, f64);

    fn map(&self, record: RatingTriple, emit: &mut dyn FnMut(ItemId, (UserId, f64))) {
        emit(record.item, (record.user, record.rating.value()));
    }
}

/// One output record of Job 1 (the job has two logical outputs; Hadoop
/// writes them to two files, we tag them in one stream).
#[derive(Debug, Clone, PartialEq)]
pub enum Job1Out {
    /// No group member rated the item: it is a candidate recommendation,
    /// re-emitted as the paper says ("the output will be the same as the
    /// one given by the map phase").
    Candidate {
        /// The candidate item.
        item: ItemId,
        /// A non-member rating of that item, passed through to Job 3.
        rater: UserId,
        /// The rating value.
        rating: f64,
    },
    /// A partial similarity contribution for a (member, non-member) pair
    /// that co-rated the item.
    Partial {
        /// The co-rated item the partial came from. Carried so Job 2 can
        /// sum partials in item order — bit-identical to the in-memory
        /// reference's merge-join, which makes the two execution paths
        /// comparable with exact equality.
        item: ItemId,
        /// The group member `u_G`.
        member: UserId,
        /// The potential peer outside the group.
        peer: UserId,
        /// `dᵤ · dᵥ` for this item.
        dot: f64,
        /// `dᵤ²` for this item.
        member_sq: f64,
        /// `dᵥ²` for this item.
        peer_sq: f64,
    },
}

/// Job 1 reducer; holds the group membership and the Job 0 means as side
/// data.
pub struct Job1Reducer {
    group: Vec<UserId>,
    means: HashMap<UserId, f64>,
}

impl Job1Reducer {
    /// Creates the reducer with its side data.
    pub fn new(group: Vec<UserId>, means: HashMap<UserId, f64>) -> Self {
        Self { group, means }
    }

    fn is_member(&self, u: UserId) -> bool {
        self.group.contains(&u)
    }
}

impl Reducer for Job1Reducer {
    type Key = ItemId;
    type Value = (UserId, f64);
    type Out = Job1Out;

    fn reduce(&self, item: ItemId, raters: Vec<(UserId, f64)>, emit: &mut dyn FnMut(Job1Out)) {
        let any_member = raters.iter().any(|&(u, _)| self.is_member(u));
        if !any_member {
            // Candidate item: pass the ratings through for Job 3.
            for (rater, rating) in raters {
                emit(Job1Out::Candidate {
                    item,
                    rater,
                    rating,
                });
            }
            return;
        }
        // Partial similarity for every (member, non-member) rater pair.
        for &(u, ru) in &raters {
            if !self.is_member(u) {
                continue;
            }
            let mu = self.means.get(&u).copied().unwrap_or(ru);
            let du = ru - mu;
            for &(v, rv) in &raters {
                if self.is_member(v) {
                    continue;
                }
                let mv = self.means.get(&v).copied().unwrap_or(rv);
                let dv = rv - mv;
                emit(Job1Out::Partial {
                    item,
                    member: u,
                    peer: v,
                    dot: du * dv,
                    member_sq: du * du,
                    peer_sq: dv * dv,
                });
            }
        }
    }
}

// --------------------------------------------------------------------------
// Job 2 — finalise simU and apply the threshold δ
// --------------------------------------------------------------------------

/// Job 2 mapper: key the partials by the `(member, peer)` pair — the
/// paper's `<u_G, u>` key.
pub struct Job2Mapper;

impl Mapper for Job2Mapper {
    type In = Job1Out;
    type Key = (UserId, UserId);
    type Value = (ItemId, f64, f64, f64);

    fn map(
        &self,
        record: Job1Out,
        emit: &mut dyn FnMut((UserId, UserId), (ItemId, f64, f64, f64)),
    ) {
        if let Job1Out::Partial {
            item,
            member,
            peer,
            dot,
            member_sq,
            peer_sq,
        } = record
        {
            emit((member, peer), (item, dot, member_sq, peer_sq));
        }
    }
}

/// A finalised similarity edge `simU(member, peer) ≥ δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEdge {
    /// The group member.
    pub member: UserId,
    /// The qualifying peer.
    pub peer: UserId,
    /// The similarity value.
    pub sim: f64,
}

/// Job 2 reducer: sums partials, finishes Pearson, applies δ and the
/// minimum co-rating overlap.
pub struct Job2Reducer {
    delta: f64,
    min_overlap: usize,
}

impl Job2Reducer {
    /// Creates the reducer with Definition 1's δ and the Pearson overlap
    /// requirement (2 in the in-memory reference).
    pub fn new(delta: f64, min_overlap: usize) -> Self {
        Self {
            delta,
            min_overlap: min_overlap.max(1),
        }
    }
}

impl Reducer for Job2Reducer {
    type Key = (UserId, UserId);
    type Value = (ItemId, f64, f64, f64);
    type Out = SimEdge;

    fn reduce(
        &self,
        key: (UserId, UserId),
        mut partials: Vec<(ItemId, f64, f64, f64)>,
        emit: &mut dyn FnMut(SimEdge),
    ) {
        if partials.len() < self.min_overlap {
            return;
        }
        // Sum in item order: bit-identical to the in-memory merge-join
        // over `I(u) ∩ I(v)` (see `RatingsSimilarity`).
        partials.sort_unstable_by_key(|&(item, ..)| item);
        let (mut dot, mut msq, mut psq) = (0.0, 0.0, 0.0);
        for (_, d, m, p) in partials {
            dot += d;
            msq += m;
            psq += p;
        }
        if msq == 0.0 || psq == 0.0 {
            return; // zero variance on the co-rated set: undefined
        }
        let sim = (dot / (msq.sqrt() * psq.sqrt())).clamp(-1.0, 1.0);
        if sim >= self.delta {
            emit(SimEdge {
                member: key.0,
                peer: key.1,
                sim,
            });
        }
    }
}

// --------------------------------------------------------------------------
// Job 3 — per-member relevance (Equation 1) + group relevance (Definition 2)
// --------------------------------------------------------------------------

/// Job 3 mapper: candidates back to `(item, (rater, rating))`.
pub struct Job3Mapper;

impl Mapper for Job3Mapper {
    type In = Job1Out;
    type Key = ItemId;
    type Value = (UserId, f64);

    fn map(&self, record: Job1Out, emit: &mut dyn FnMut(ItemId, (UserId, f64))) {
        if let Job1Out::Candidate {
            item,
            rater,
            rating,
        } = record
        {
            emit(item, (rater, rating));
        }
    }
}

/// Scores for one candidate item: both relevance levels, as the paper's
/// Job 3 "calculates the two relevance scores and gives them both as
/// output".
#[derive(Debug, Clone, PartialEq)]
pub struct ItemScores {
    /// The scored item.
    pub item: ItemId,
    /// Per-member Equation 1 predictions, in group member order.
    pub member_scores: Vec<Option<Relevance>>,
    /// Definition 2 aggregate.
    pub group_score: Option<Relevance>,
}

/// Job 3 reducer; side data: the group's peer similarity tables from
/// Job 2 (optionally truncated to `max_peers` per member before the job,
/// mirroring the in-memory `PeerSelector`).
pub struct Job3Reducer {
    group: Vec<UserId>,
    /// `peer_sims[m]`: peer → simU for group member m.
    peer_sims: Vec<HashMap<UserId, f64>>,
    aggregation: Aggregation,
    missing: MissingPolicy,
}

impl Job3Reducer {
    /// Creates the reducer. `peer_sims` must be parallel to `group`.
    ///
    /// # Panics
    /// Panics if the side-data shapes disagree.
    pub fn new(
        group: Vec<UserId>,
        peer_sims: Vec<HashMap<UserId, f64>>,
        aggregation: Aggregation,
        missing: MissingPolicy,
    ) -> Self {
        assert_eq!(group.len(), peer_sims.len(), "one sim table per member");
        Self {
            group,
            peer_sims,
            aggregation,
            missing,
        }
    }
}

impl Reducer for Job3Reducer {
    type Key = ItemId;
    type Value = (UserId, f64);
    type Out = ItemScores;

    fn reduce(&self, item: ItemId, raters: Vec<(UserId, f64)>, emit: &mut dyn FnMut(ItemScores)) {
        let member_scores: Vec<Option<Relevance>> = self
            .peer_sims
            .iter()
            .map(|sims| {
                let (mut num, mut den) = (0.0, 0.0);
                for &(rater, rating) in &raters {
                    if let Some(&sim) = sims.get(&rater) {
                        num += sim * rating;
                        den += sim;
                    }
                }
                (den > 0.0).then(|| num / den)
            })
            .collect();
        let group_score = self.aggregation.aggregate(&member_scores, self.missing);
        debug_assert_eq!(member_scores.len(), self.group.len());
        emit(ItemScores {
            item,
            member_scores,
            group_score,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_job, JobConfig};
    use fairrec_types::Rating;

    fn triple(u: u32, i: u32, r: f64) -> RatingTriple {
        RatingTriple {
            user: UserId::new(u),
            item: ItemId::new(i),
            rating: Rating::new(r).unwrap(),
        }
    }

    #[test]
    fn job0_computes_user_means() {
        let input = vec![triple(0, 0, 4.0), triple(0, 1, 2.0), triple(1, 0, 5.0)];
        let mut out = run_job(&MeansMapper, &MeansReducer, input, JobConfig::default()).output;
        out.sort_by_key(|(u, _)| *u);
        assert_eq!(out, vec![(UserId::new(0), 3.0), (UserId::new(1), 5.0)]);
    }

    #[test]
    fn job1_splits_candidates_from_partials() {
        // Group = {u0}. Item 0 rated by u0 and u1 → partials.
        // Item 1 rated only by u1, u2 → candidate passthrough.
        let input = vec![
            triple(0, 0, 4.0),
            triple(1, 0, 5.0),
            triple(1, 1, 3.0),
            triple(2, 1, 2.0),
        ];
        let means: HashMap<UserId, f64> = [
            (UserId::new(0), 4.0),
            (UserId::new(1), 4.0),
            (UserId::new(2), 2.0),
        ]
        .into_iter()
        .collect();
        let reducer = Job1Reducer::new(vec![UserId::new(0)], means);
        let out = run_job(&Job1Mapper, &reducer, input, JobConfig::default()).output;

        let candidates: Vec<_> = out
            .iter()
            .filter(|o| matches!(o, Job1Out::Candidate { .. }))
            .collect();
        let partials: Vec<_> = out
            .iter()
            .filter(|o| matches!(o, Job1Out::Partial { .. }))
            .collect();
        assert_eq!(candidates.len(), 2, "two raters of the candidate item");
        assert_eq!(partials.len(), 1, "one (member, peer) co-rating pair");
        match partials[0] {
            Job1Out::Partial {
                item,
                member,
                peer,
                dot,
                member_sq,
                peer_sq,
            } => {
                assert_eq!(*item, ItemId::new(0));
                assert_eq!(*member, UserId::new(0));
                assert_eq!(*peer, UserId::new(1));
                // dᵤ = 4−4 = 0; dᵥ = 5−4 = 1.
                assert_eq!(*dot, 0.0);
                assert_eq!(*member_sq, 0.0);
                assert_eq!(*peer_sq, 1.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn job2_finalises_pearson_with_threshold() {
        // Two partials for the same pair → overlap 2, perfectly aligned.
        let partials = vec![
            Job1Out::Partial {
                item: ItemId::new(0),
                member: UserId::new(0),
                peer: UserId::new(1),
                dot: 1.0,
                member_sq: 1.0,
                peer_sq: 1.0,
            },
            Job1Out::Partial {
                item: ItemId::new(1),
                member: UserId::new(0),
                peer: UserId::new(1),
                dot: 4.0,
                member_sq: 4.0,
                peer_sq: 4.0,
            },
            // A second pair with overlap 1 — dropped by min_overlap.
            Job1Out::Partial {
                item: ItemId::new(0),
                member: UserId::new(0),
                peer: UserId::new(2),
                dot: 1.0,
                member_sq: 1.0,
                peer_sq: 1.0,
            },
        ];
        let out = run_job(
            &Job2Mapper,
            &Job2Reducer::new(0.0, 2),
            partials,
            JobConfig::default(),
        )
        .output;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].peer, UserId::new(1));
        assert!((out[0].sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn job2_drops_below_threshold_and_zero_variance() {
        let mut next_item = 0u32;
        let mut mk = |dot: f64, msq: f64, psq: f64| {
            next_item += 1;
            Job1Out::Partial {
                item: ItemId::new(next_item),
                member: UserId::new(0),
                peer: UserId::new(1),
                dot,
                member_sq: msq,
                peer_sq: psq,
            }
        };
        // Anti-correlated pair, δ = 0 ⇒ dropped.
        let out = run_job(
            &Job2Mapper,
            &Job2Reducer::new(0.0, 2),
            vec![mk(-1.0, 1.0, 1.0), mk(-4.0, 4.0, 4.0)],
            JobConfig::default(),
        )
        .output;
        assert!(out.is_empty());
        // Zero member variance ⇒ undefined ⇒ dropped even with δ = −1.
        let out = run_job(
            &Job2Mapper,
            &Job2Reducer::new(-1.0, 2),
            vec![mk(0.0, 0.0, 1.0), mk(0.0, 0.0, 4.0)],
            JobConfig::default(),
        )
        .output;
        assert!(out.is_empty());
    }

    #[test]
    fn job3_computes_equation_1_and_definition_2() {
        let candidates = vec![
            Job1Out::Candidate {
                item: ItemId::new(7),
                rater: UserId::new(1),
                rating: 5.0,
            },
            Job1Out::Candidate {
                item: ItemId::new(7),
                rater: UserId::new(2),
                rating: 2.0,
            },
        ];
        // Member 0 trusts u1 (0.8) and u2 (0.4); member 1 sees nobody.
        let peer_sims = vec![
            [(UserId::new(1), 0.8), (UserId::new(2), 0.4)]
                .into_iter()
                .collect(),
            HashMap::new(),
        ];
        let reducer = Job3Reducer::new(
            vec![UserId::new(10), UserId::new(11)],
            peer_sims,
            Aggregation::Average,
            MissingPolicy::Skip,
        );
        let out = run_job(&Job3Mapper, &reducer, candidates, JobConfig::default()).output;
        assert_eq!(out.len(), 1);
        let expected = (0.8 * 5.0 + 0.4 * 2.0) / 1.2;
        assert_eq!(out[0].item, ItemId::new(7));
        assert!((out[0].member_scores[0].unwrap() - expected).abs() < 1e-12);
        assert_eq!(out[0].member_scores[1], None);
        assert!((out[0].group_score.unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one sim table per member")]
    fn job3_validates_side_data_shape() {
        Job3Reducer::new(
            vec![UserId::new(0)],
            vec![],
            Aggregation::Average,
            MissingPolicy::Skip,
        );
    }
}
