//! Group prediction phase (§III-B and MapReduce Jobs 1–3, in memory).
//!
//! Given a rating matrix, a similarity measure, a peer selector, and a
//! group, [`compute_group_predictions`] produces everything the selection
//! algorithms need:
//!
//! 1. candidates — items **no** group member has rated (Definition 2's
//!    precondition `∀u ∈ G, ∄rating(u, i)`),
//! 2. per-member relevance predictions (Equation 1) over the candidates,
//! 3. aggregated group relevance per candidate (Definition 2).
//!
//! This function is also the reference implementation that the MapReduce
//! path (`fairrec-mapreduce`) is verified against.

use crate::aggregate::{Aggregation, MissingPolicy};
use crate::group::Group;
use crate::relevance::RelevancePredictor;
use fairrec_similarity::{BulkUserSimilarity, PeerIndex, PeerSelector};
use fairrec_types::{
    ItemId, Parallelism, RatingMatrix, RatingsRead, Relevance, Result, ScoredItem, TopK, UserId,
};

/// Knobs for the prediction phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupPredictionConfig {
    /// Definition 2 aggregation (default: average).
    pub aggregation: Aggregation,
    /// Handling of undefined member predictions (default: skip).
    pub missing: MissingPolicy,
    /// How per-member Equation 1 scoring fans out across candidates
    /// (default: the ambient rayon pool). Every mode yields bitwise
    /// identical results; `Sequential` exists to pin determinism by
    /// construction and to avoid fan-out overhead on tiny inputs.
    pub parallelism: Parallelism,
}

/// Per-member and aggregated predictions over a group's candidate items.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPredictions {
    members: Vec<UserId>,
    items: Vec<ItemId>,
    /// `member_scores[m][j]` = `relevance(members[m], items[j])`.
    member_scores: Vec<Vec<Option<Relevance>>>,
    /// `group_scores[j]` = `relevanceG(G, items[j])`.
    group_scores: Vec<Option<Relevance>>,
}

impl GroupPredictions {
    /// Assembles predictions from raw parts (used by the MapReduce path).
    ///
    /// # Panics
    /// Panics when the shapes disagree — this is an internal assembly
    /// error, not input data.
    pub fn from_parts(
        members: Vec<UserId>,
        items: Vec<ItemId>,
        member_scores: Vec<Vec<Option<Relevance>>>,
        group_scores: Vec<Option<Relevance>>,
    ) -> Self {
        assert_eq!(member_scores.len(), members.len(), "one row per member");
        for row in &member_scores {
            assert_eq!(row.len(), items.len(), "one score slot per item");
        }
        assert_eq!(group_scores.len(), items.len());
        Self {
            members,
            items,
            member_scores,
            group_scores,
        }
    }

    /// The group members, sorted.
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// The candidate items, sorted by id.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of candidates.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// `relevance(members[member_idx], items[item_idx])`.
    pub fn member_relevance(&self, member_idx: usize, item_idx: usize) -> Option<Relevance> {
        self.member_scores[member_idx][item_idx]
    }

    /// `relevanceG(G, items[item_idx])`.
    pub fn group_relevance(&self, item_idx: usize) -> Option<Relevance> {
        self.group_scores[item_idx]
    }

    /// All group scores, parallel to [`items`](Self::items).
    pub(crate) fn group_scores(&self) -> &[Option<Relevance>] {
        &self.group_scores
    }

    /// The top-k list `A_u` of one member over the candidates.
    pub fn top_k_for_member(&self, member_idx: usize, k: usize) -> Vec<ScoredItem> {
        let mut top = TopK::new(k);
        for (j, score) in self.member_scores[member_idx].iter().enumerate() {
            if let Some(s) = score {
                top.push(self.items[j], *s);
            }
        }
        top.into_sorted_vec()
    }

    /// Group-level top-k (the plain §III-B recommendation, before any
    /// fairness treatment).
    pub fn top_k_for_group(&self, k: usize) -> Vec<ScoredItem> {
        let mut top = TopK::new(k);
        for (j, score) in self.group_scores.iter().enumerate() {
            if let Some(s) = score {
                top.push(self.items[j], *s);
            }
        }
        top.into_sorted_vec()
    }
}

/// Runs the full prediction phase for `group` — the one-shot
/// monolithic form: Definition 1 from a transient [`PeerIndex`], then
/// the shared tail [`compute_group_predictions_from_peers`]. A serving
/// engine holds a long-lived index instead, resolves the members' peers
/// there and calls the tail directly; this form is its reference oracle.
///
/// # Errors
/// Propagates [`fairrec_types::FairrecError::UnknownUser`] when a group
/// member lies outside the matrix's user space.
pub fn compute_group_predictions<S: BulkUserSimilarity + ?Sized>(
    matrix: &RatingMatrix,
    measure: &S,
    selector: &PeerSelector,
    group: &Group,
    config: GroupPredictionConfig,
) -> Result<GroupPredictions> {
    if let Some(&user) = group
        .members()
        .iter()
        .find(|m| m.raw() >= matrix.num_users())
    {
        return Err(fairrec_types::FairrecError::UnknownUser { user });
    }
    let index = PeerIndex::new(*selector, matrix.num_users());
    compute_group_predictions_from_peers(
        matrix,
        index.group_peers(measure, group.members()),
        group,
        config,
    )
}

/// The Equation-1 + Definition-2 phase over **pre-resolved** peer lists —
/// the common tail every Definition-1 source funnels into: the monolithic
/// [`PeerIndex`] (via [`compute_group_predictions`]) and the sharded
/// index, whose
/// scatter-gather lookup lives in `fairrec-similarity` and hands the
/// merged per-member lists in here. `peers` must hold one
/// `(member, masked peer list)` entry per group member, in member order —
/// exactly what `group_peers` produces on either index. Generic over
/// [`RatingsRead`], so the sharded engine serves this tail through owner
/// routing alone — no monolithic shadow copy.
///
/// # Errors
/// Returns [`fairrec_types::FairrecError::UnknownUser`] when a peers
/// entry names a non-member, and
/// [`fairrec_types::FairrecError::InvalidParameter`] for other shape
/// defects (wrong length, wrong member order).
pub fn compute_group_predictions_from_peers<R: RatingsRead + ?Sized>(
    matrix: &R,
    peers: Vec<(UserId, Vec<(UserId, f64)>)>,
    group: &Group,
    config: GroupPredictionConfig,
) -> Result<GroupPredictions> {
    if peers.len() != group.members().len()
        || peers
            .iter()
            .zip(group.members())
            .any(|((who, _), &member)| *who != member)
    {
        if let Some(offender) = peers
            .iter()
            .map(|&(who, _)| who)
            .find(|who| !group.contains(*who))
        {
            return Err(fairrec_types::FairrecError::UnknownUser { user: offender });
        }
        // Every listed user is a member, so the defect is structural:
        // name the first out-of-place entry (or the length mismatch)
        // instead of blaming a fabricated user id.
        let detail = peers
            .iter()
            .zip(group.members())
            .find(|((who, _), &member)| *who != member)
            .map_or_else(
                || {
                    format!(
                        "got {} peer lists for {} members",
                        peers.len(),
                        group.members().len()
                    )
                },
                |((who, _), &member)| {
                    format!("peer list for {who} where member {member} was expected")
                },
            );
        return Err(fairrec_types::FairrecError::invalid_parameter(
            "peers",
            format!("peer lists must match the group members in order: {detail}"),
        ));
    }
    let items = matrix.unrated_by_all(group.members());
    let predictor = RelevancePredictor::new(matrix);

    let member_scores: Vec<Vec<Option<Relevance>>> = peers
        .into_iter()
        .map(|(_, peers)| predictor.predict_many_with(&peers, &items, config.parallelism))
        .collect();

    // One column buffer reused across items: no allocation per candidate.
    let mut column: Vec<Option<Relevance>> = Vec::with_capacity(member_scores.len());
    let group_scores = (0..items.len())
        .map(|j| {
            column.clear();
            column.extend(member_scores.iter().map(|row| row[j]));
            config.aggregation.aggregate(&column, config.missing)
        })
        .collect();

    Ok(GroupPredictions::from_parts(
        group.members().to_vec(),
        items,
        member_scores,
        group_scores,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_similarity::UserSimilarity;
    use fairrec_types::{GroupId, RatingMatrixBuilder};

    /// Similarity by lookup table over raw ids; defined everywhere.
    struct Uniform(f64);
    impl UserSimilarity for Uniform {
        fn similarity(&self, _: UserId, _: UserId) -> Option<f64> {
            Some(self.0)
        }
        fn name(&self) -> &'static str {
            "uniform"
        }
    }
    impl BulkUserSimilarity for Uniform {}

    fn matrix(rows: &[(u32, u32, f64)]) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for &(u, i, s) in rows {
            b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
        }
        b.build().unwrap()
    }

    /// Two group members (u0, u1); outsiders u2, u3 rate candidate items
    /// i2 and i3; i0/i1 are rated inside the group and must be excluded.
    fn fixture() -> (RatingMatrix, Group) {
        let m = matrix(&[
            (0, 0, 5.0), // group member rating → i0 not a candidate
            (1, 1, 4.0), // group member rating → i1 not a candidate
            (2, 2, 5.0),
            (3, 2, 3.0),
            (2, 3, 2.0),
            (3, 0, 4.0),
            (2, 0, 1.0),
        ]);
        let g = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        (m, g)
    }

    #[test]
    fn candidates_exclude_group_rated_items() {
        let (m, g) = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let p = compute_group_predictions(
            &m,
            &Uniform(1.0),
            &sel,
            &g,
            GroupPredictionConfig::default(),
        )
        .unwrap();
        assert_eq!(p.items(), &[ItemId::new(2), ItemId::new(3)]);
        assert_eq!(p.members(), g.members());
    }

    #[test]
    fn member_scores_follow_equation_1() {
        let (m, g) = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let p = compute_group_predictions(
            &m,
            &Uniform(1.0),
            &sel,
            &g,
            GroupPredictionConfig::default(),
        )
        .unwrap();
        // With uniform similarity 1.0, Equation 1 is the plain mean of the
        // outsiders' ratings: i2 → (5+3)/2 = 4; i3 → 2.
        assert_eq!(p.member_relevance(0, 0), Some(4.0));
        assert_eq!(p.member_relevance(1, 0), Some(4.0));
        assert_eq!(p.member_relevance(0, 1), Some(2.0));
        // Group (average) scores match.
        assert_eq!(p.group_relevance(0), Some(4.0));
        assert_eq!(p.group_relevance(1), Some(2.0));
    }

    #[test]
    fn min_aggregation_takes_the_veto() {
        // Make members differ: u0's only peer is u2, u1's only peer is u3,
        // via a similarity defined per pair.
        struct PairSim;
        impl UserSimilarity for PairSim {
            fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
                match (u.raw(), v.raw()) {
                    (0, 2) | (2, 0) => Some(1.0),
                    (1, 3) | (3, 1) => Some(1.0),
                    _ => None,
                }
            }
            fn name(&self) -> &'static str {
                "pair"
            }
        }
        impl BulkUserSimilarity for PairSim {}
        let (m, g) = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let cfg = GroupPredictionConfig {
            aggregation: Aggregation::Min,
            missing: MissingPolicy::Skip,
            ..Default::default()
        };
        let p = compute_group_predictions(&m, &PairSim, &sel, &g, cfg).unwrap();
        // i2: u0 sees rating 5 (via u2), u1 sees 3 (via u3) ⇒ min = 3.
        assert_eq!(p.member_relevance(0, 0), Some(5.0));
        assert_eq!(p.member_relevance(1, 0), Some(3.0));
        assert_eq!(p.group_relevance(0), Some(3.0));
        // i3: only u2 rated ⇒ u1 has no prediction; Skip ⇒ min over {2.0}.
        assert_eq!(p.member_relevance(1, 1), None);
        assert_eq!(p.group_relevance(1), Some(2.0));
    }

    #[test]
    fn unknown_members_error() {
        let (m, _) = fixture();
        let g = Group::new(GroupId::new(0), [UserId::new(99)]).unwrap();
        let sel = PeerSelector::new(0.0).unwrap();
        let err = compute_group_predictions(
            &m,
            &Uniform(1.0),
            &sel,
            &g,
            GroupPredictionConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown user"));
    }

    #[test]
    fn per_member_and_group_top_k() {
        let (m, g) = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let p = compute_group_predictions(
            &m,
            &Uniform(1.0),
            &sel,
            &g,
            GroupPredictionConfig::default(),
        )
        .unwrap();
        let top = p.top_k_for_member(0, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].item, ItemId::new(2));
        let gtop = p.top_k_for_group(5);
        assert_eq!(gtop.len(), 2);
        assert_eq!(gtop[0].item, ItemId::new(2));
    }

    #[test]
    #[should_panic(expected = "one row per member")]
    fn from_parts_validates_shapes() {
        GroupPredictions::from_parts(
            vec![UserId::new(0)],
            vec![ItemId::new(0)],
            vec![],
            vec![None],
        );
    }
}
