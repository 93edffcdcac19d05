//! Group prediction phase (§III-B and MapReduce Jobs 1–3, in memory).
//!
//! Given a rating matrix, a similarity measure, a peer selector, and a
//! group, [`compute_group_predictions`] produces everything the selection
//! algorithms need:
//!
//! 1. candidates — items **no** group member has rated (Definition 2's
//!    precondition `∀u ∈ G, ∄rating(u, i)`) that have a defined group
//!    relevance. Under [`MissingPolicy::Skip`] that is an item some
//!    member's peer rated with a positive similarity mass for at least
//!    one member: Equation 1 is undefined everywhere else, so Definition
//!    2 has nothing to aggregate. Under [`MissingPolicy::Pessimistic`]
//!    every unrated item is a candidate, since each one gets a group
//!    score from [`RATING_MIN`](fairrec_types::RATING_MIN);
//! 2. per-member relevance predictions (Equation 1) over the candidates;
//! 3. aggregated group relevance per candidate (Definition 2);
//! 4. optionally, each member's top-k list `A_u` over the candidates.
//!
//! All four come out of one **group pass**: one mark pass over the
//! members' peer rows finds the covered candidates; then, per member, the
//! peers' rows are scattered into dense accumulators and read out once
//! over the candidates in ascending item id, and that one read writes the
//! member's row, offers each defined score to the member's `A_u` and folds
//! it into Definition 2. Positions whose item no member could score (a
//! peer with zero or negative similarity touched it, but the mass stayed
//! `≤ 0`) are compacted out at the end, and the `A_u` positions remapped.
//! The pass is bitwise equal to the dense path that scored every unrated
//! item and aggregated it column by column; that path survives as a test
//! oracle. The pass runs on the calling thread: a fan-out over members,
//! folded afterwards, lost the fused fold and measured slower; batches
//! fan out over their requests instead.
//!
//! This function is also the reference implementation that the MapReduce
//! path (`fairrec-mapreduce`) is verified against.

use crate::aggregate::{Aggregation, GroupFold, MissingPolicy};
use crate::group::Group;
use crate::pool::TopPositions;
use crate::relevance::{by_ascending_id, RelevancePredictor};
use fairrec_similarity::{BulkUserSimilarity, PeerIndex, PeerSelector};
use fairrec_types::{
    ItemId, RatingMatrix, RatingsRead, Relevance, Result, ScoredItem, TopK, UserId,
};
use std::sync::Arc;

/// Knobs for the prediction phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupPredictionConfig {
    /// Definition 2 aggregation (default: average).
    pub aggregation: Aggregation,
    /// Handling of undefined member predictions (default: skip).
    pub missing: MissingPolicy,
}

/// Per-member and aggregated predictions over a group's candidate items.
#[derive(Debug, Clone)]
pub struct GroupPredictions {
    members: Vec<UserId>,
    items: Vec<ItemId>,
    /// `member_scores[m][j]` = `relevance(members[m], items[j])`. Shared,
    /// so a pool that keeps every item borrows the rows instead of
    /// copying them.
    member_scores: Arc<[Vec<Option<Relevance>>]>,
    /// `group_scores[j]` = `relevanceG(G, items[j])`.
    group_scores: Vec<Option<Relevance>>,
    /// `(k, A_u for every member)` as positions into `items`, when the
    /// group pass was asked for them. Derived from `member_scores`, so
    /// equality ignores it.
    top_lists: Option<(usize, Vec<Vec<usize>>)>,
}

impl PartialEq for GroupPredictions {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
            && self.items == other.items
            && *self.member_scores == *other.member_scores
            && self.group_scores == other.group_scores
    }
}

impl GroupPredictions {
    /// Assembles predictions from raw parts (used by the MapReduce path).
    /// Items without a group score are kept as given; the group pass and
    /// the MapReduce assembly never produce them, and a pool drops them.
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
            member_scores: member_scores.into(),
            group_scores,
            top_lists: None,
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

    /// The member rows, for a pool that shares them.
    pub(crate) fn member_rows(&self) -> &Arc<[Vec<Option<Relevance>>]> {
        &self.member_scores
    }

    /// `(k, A_u per member)` if the group pass built them.
    pub(crate) fn top_lists(&self) -> Option<&(usize, Vec<Vec<usize>>)> {
        self.top_lists.as_ref()
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
/// the shared tail [`compute_group_predictions_from_peers`] (without
/// `A_u` lists). A serving engine holds a long-lived index instead,
/// resolves the members' peers there and calls the tail directly; this
/// form is its reference oracle.
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
        None,
    )
}

/// The Equation-1 + Definition-2 phase over **pre-resolved** peer lists —
/// the group pass every Definition-1 source funnels into: the monolithic
/// [`PeerIndex`] (via [`compute_group_predictions`]) and the sharded
/// index, whose scatter-gather lookup lives in `fairrec-similarity` and
/// hands the merged per-member lists in here. `peers` must hold one
/// `(member, masked peer list)` entry per group member, in member order —
/// exactly what `group_peers` produces on either index. Generic over
/// [`RatingsRead`], so the sharded engine serves this tail through owner
/// routing alone — no monolithic shadow copy.
///
/// With `top_k = Some(k)` the readout also builds every member's `A_u`
/// (`k` best candidate positions, by the pool's ranking rule), and a
/// [`CandidatePool`](crate::CandidatePool) that keeps every candidate
/// starts with them memoised.
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
    top_k: Option<usize>,
) -> Result<GroupPredictions> {
    check_peer_shape(&peers, group)?;
    let peers: Vec<Vec<(UserId, f64)>> = peers
        .iter()
        .map(|(_, list)| by_ascending_id(list))
        .collect();
    let mut items = candidates(matrix, group.members(), &peers, config.missing);
    let predictor = RelevancePredictor::new(matrix);
    let k = top_k.unwrap_or(0);
    // Definition 2 folds inside each member's readout, members in order.
    let mut fold = GroupFold::new(config.aggregation, config.missing, items.len());
    let (mut member_scores, mut lists): (Vec<_>, Vec<_>) = peers
        .iter()
        .map(|peers| score_member(&predictor, peers, &items, k, &mut fold))
        .unzip();
    let mut group_scores = fold.finish();

    // A candidate that only zero- or negative-similarity peers touched
    // has no defined score for anyone: drop it, and move every `A_u`
    // position to its compacted index (a monotone map, so each list's
    // order stands).
    if group_scores.iter().any(Option::is_none) {
        let mut next = 0;
        let remap: Vec<Option<usize>> = group_scores
            .iter()
            .map(|score| {
                score.map(|_| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        items = compact(&items, &remap);
        for row in &mut member_scores {
            *row = compact(row, &remap);
        }
        group_scores = compact(&group_scores, &remap);
        for j in lists.iter_mut().flatten() {
            *j = remap[*j].expect("A_u holds only defined scores");
        }
    }

    let mut predictions =
        GroupPredictions::from_parts(group.members().to_vec(), items, member_scores, group_scores);
    predictions.top_lists = top_k.map(|k| (k, lists));
    Ok(predictions)
}

/// One member's readout over `items`: its Equation 1 row and its `A_u`
/// (the `k` best positions), with every score also folded into `fold`.
fn score_member<R: RatingsRead + ?Sized>(
    predictor: &RelevancePredictor<'_, R>,
    peers: &[(UserId, f64)],
    items: &[ItemId],
    k: usize,
    fold: &mut GroupFold,
) -> (Vec<Option<Relevance>>, Vec<usize>) {
    let mut top = TopPositions::new(k);
    let row = predictor.scatter(peers, items, |j, score| {
        if let Some(s) = score {
            top.push(s, j);
        }
        fold.add(j, score);
    });
    (row, top.into_positions())
}

/// The slots of `values` whose `remap` entry is set, in order.
fn compact<T: Copy>(values: &[T], remap: &[Option<usize>]) -> Vec<T> {
    values
        .iter()
        .zip(remap)
        .filter(|(_, to)| to.is_some())
        .map(|(&v, _)| v)
        .collect()
}

/// The group's candidates, ascending by item id: under `Skip` the items
/// some member's peer rated and no member rated (one mark pass over those
/// rows), under `Pessimistic` every item no member rated.
fn candidates<R: RatingsRead + ?Sized>(
    matrix: &R,
    members: &[UserId],
    peers: &[Vec<(UserId, f64)>],
    missing: MissingPolicy,
) -> Vec<ItemId> {
    if missing == MissingPolicy::Pessimistic {
        return matrix.unrated_by_all(members);
    }
    let mut covered = vec![false; matrix.num_items() as usize];
    for &(peer, _) in peers.iter().flatten() {
        for &item in matrix.ratings_row(peer).0 {
            covered[item.index()] = true;
        }
    }
    for &member in members {
        for &item in matrix.ratings_row(member).0 {
            covered[item.index()] = false;
        }
    }
    (0..matrix.num_items())
        .filter(|&raw| covered[raw as usize])
        .map(ItemId::new)
        .collect()
}

/// Rejects a peers vector that is not one entry per member, in member
/// order.
fn check_peer_shape(peers: &[(UserId, Vec<(UserId, f64)>)], group: &Group) -> Result<()> {
    if peers.len() == group.members().len()
        && peers
            .iter()
            .zip(group.members())
            .all(|((who, _), &member)| *who == member)
    {
        return Ok(());
    }
    if let Some(offender) = peers
        .iter()
        .map(|&(who, _)| who)
        .find(|who| !group.contains(*who))
    {
        return Err(fairrec_types::FairrecError::UnknownUser { user: offender });
    }
    // Every listed user is a member, so the defect is structural: name
    // the first out-of-place entry (or the length mismatch) instead of
    // blaming a fabricated user id.
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
            |((who, _), &member)| format!("peer list for {who} where member {member} was expected"),
        );
    Err(fairrec_types::FairrecError::invalid_parameter(
        "peers",
        format!("peer lists must match the group members in order: {detail}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_similarity::UserSimilarity;
    use fairrec_types::{GroupId, RatingMatrixBuilder, RATING_MIN};

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

    /// Members u0, u1. Outsider u2 (similarity 1.0) rates i2, u3
    /// (similarity 0.0) only i3, u4 (similarity −0.5) only i4.
    #[test]
    fn items_only_zero_or_negative_peers_rated_have_no_group_score() {
        struct Signed;
        impl UserSimilarity for Signed {
            fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
                let (member, other) = if u.raw() < 2 { (u, v) } else { (v, u) };
                if member.raw() >= 2 {
                    return None;
                }
                match other.raw() {
                    2 => Some(1.0),
                    3 => Some(0.0),
                    4 => Some(-0.5),
                    _ => None,
                }
            }
            fn name(&self) -> &'static str {
                "signed"
            }
        }
        impl BulkUserSimilarity for Signed {}
        let m = matrix(&[
            (0, 0, 5.0),
            (1, 1, 4.0),
            (2, 2, 5.0),
            (3, 3, 4.0),
            (4, 4, 3.0),
        ]);
        let g = Group::new(GroupId::new(0), [UserId::new(0), UserId::new(1)]).unwrap();
        let ids = |raw: &[u32]| raw.iter().map(|&i| ItemId::new(i)).collect::<Vec<_>>();
        for aggregation in [Aggregation::Min, Aggregation::Average] {
            // δ = 0 admits u3, δ = −1 admits u3 and u4.
            for delta in [0.0, -1.0] {
                let sel = PeerSelector::new(delta).unwrap();
                let config = |missing| GroupPredictionConfig {
                    aggregation,
                    missing,
                };
                let skip =
                    compute_group_predictions(&m, &Signed, &sel, &g, config(MissingPolicy::Skip))
                        .unwrap();
                assert_eq!(skip.items(), ids(&[2]), "{aggregation:?} δ={delta}");
                assert_eq!(skip.group_relevance(0), Some(5.0));
                let pool = crate::CandidatePool::from_predictions(&skip, None).unwrap();
                assert_eq!(pool.items(), ids(&[2]));

                let pessimistic = compute_group_predictions(
                    &m,
                    &Signed,
                    &sel,
                    &g,
                    config(MissingPolicy::Pessimistic),
                )
                .unwrap();
                assert_eq!(pessimistic.items(), ids(&[2, 3, 4]));
                for j in [1, 2] {
                    assert_eq!(pessimistic.member_relevance(0, j), None);
                    assert_eq!(pessimistic.member_relevance(1, j), None);
                    assert_eq!(pessimistic.group_relevance(j), Some(RATING_MIN));
                }
                let pool = crate::CandidatePool::from_predictions(&pessimistic, None).unwrap();
                assert_eq!(pool.items(), ids(&[2, 3, 4]));
            }
        }
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
