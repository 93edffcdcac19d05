//! The dense candidate pool consumed by the selection algorithms.
//!
//! §VI evaluates the heuristic against the brute force over a pool of `m`
//! candidate recommendations. [`CandidatePool`] freezes a
//! [`GroupPredictions`] into that
//! dense form: only items with a **defined group relevance** survive
//! (items nobody can score cannot be ranked at all), optionally truncated
//! to the best `m` by group relevance — the natural way a recommender
//! shortlists before package selection.
//!
//! The pool also owns the per-member top-k lists `A_u` that Definition 3
//! and Algorithm 1 both read, memoised for one `k`
//! ([`CandidatePool::top_k_lists`]). A pool that keeps every predicted
//! item takes the memo from the group pass, which built each list inside
//! the member's Equation 1 readout when asked for a `k` (the engine asks
//! for its configured `k`), and shares the predictions' member rows
//! instead of copying them. A truncated pool, or one from predictions
//! without lists, computes them on first use: one bounded selection pass
//! per member, memoised for the `k` first asked for. The evaluator,
//! Algorithm 1, the swap refinement, the brute force and the engine's
//! per-member `personal_best` (the head of its list) all read that one
//! result.
//!
//! Every ranking here — `A_u`, the pool truncation and
//! [`plain_top_z`](crate::greedy::plain_top_z) — shares one selection
//! kernel and one order: higher score first, equal scores (`±0.0`
//! included) to the smaller position, undefined and non-finite scores
//! never ranked. It is the order [`TopK`](fairrec_types::TopK) gives when
//! fed positions as item ids.

use crate::predictions::GroupPredictions;
use fairrec_types::{FairrecError, ItemId, Relevance, Result, UserId};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The bounded selection kernel: fed `(score, position)` in ascending
/// position, it keeps the positions of the `k` best scores, best first;
/// equal scores go to the smaller position, and non-finite scores are
/// skipped.
///
/// It holds at most `k` `(score, position)` pairs best-first: once full,
/// a score enters only if it is strictly greater than the current worst,
/// so a later position never wins a tie. A rejected score costs one
/// comparison and an admitted one an `O(k)` shift. Once the list is full
/// few scores in no particular order are admitted, so for a `k` well below
/// the number of scores the pass is close to one comparison per position;
/// scores in ascending order are the worst case, `O(m·k)`.
#[derive(Debug)]
pub(crate) struct TopPositions {
    k: usize,
    best: Vec<(Relevance, usize)>,
}

impl TopPositions {
    /// An empty selection of at most `k` positions.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::with_capacity(k),
        }
    }

    /// Offers `score` at `position`, which must exceed every position
    /// offered before.
    #[inline]
    pub(crate) fn push(&mut self, score: Relevance, position: usize) {
        if !score.is_finite() {
            return;
        }
        if self.best.len() == self.k {
            match self.best.last() {
                Some(&(worst, _)) if score > worst => {
                    self.best.pop();
                }
                _ => return,
            }
        }
        let at = self.best.partition_point(|&(b, _)| b >= score);
        self.best.insert(at, (score, position));
    }

    /// The kept positions, best first.
    pub(crate) fn into_positions(self) -> Vec<usize> {
        self.best.into_iter().map(|(_, j)| j).collect()
    }
}

/// Positions of the `k` best scores, best first, by the
/// [`TopPositions`] kernel; `None` and non-finite scores are skipped.
pub(crate) fn top_k_of<S: Copy + Into<Option<Relevance>>>(scores: &[S], k: usize) -> Vec<usize> {
    let mut top = TopPositions::new(k);
    for (j, &score) in scores.iter().enumerate() {
        if let Some(s) = score.into() {
            top.push(s, j);
        }
    }
    top.into_positions()
}

/// Dense per-member and group scores over a shortlist of candidates.
#[derive(Clone)]
pub struct CandidatePool {
    members: Vec<UserId>,
    items: Vec<ItemId>,
    /// `member_scores[m][j]`; `None` where Equation 1 was undefined for
    /// that member (the item still has a group score via the others).
    /// Shared with the [`GroupPredictions`] the pool was built from when
    /// it keeps every predicted item.
    member_scores: Arc<[Vec<Option<Relevance>>]>,
    /// Dense: every pooled item has a group score.
    group_scores: Vec<Relevance>,
    /// `(k, A_u for every member)`, filled by the first
    /// [`top_k_lists`](Self::top_k_lists). A cache of the fields above,
    /// so equality and debug output ignore it.
    top_lists: OnceLock<(usize, Vec<Vec<usize>>)>,
}

impl PartialEq for CandidatePool {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
            && self.items == other.items
            && *self.member_scores == *other.member_scores
            && self.group_scores == other.group_scores
    }
}

impl fmt::Debug for CandidatePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CandidatePool")
            .field("members", &self.members)
            .field("items", &self.items)
            .field("member_scores", &self.member_scores)
            .field("group_scores", &self.group_scores)
            .finish()
    }
}

impl CandidatePool {
    /// Builds the pool from predictions, keeping items with defined group
    /// relevance, optionally truncated to the top `max_items` by group
    /// relevance (ties by ascending item id).
    ///
    /// When every predicted item is kept — the group pass predicts only
    /// items with a defined group relevance, so that is any call without
    /// a binding cap — the pool shares the predictions' member rows and
    /// starts with their `A_u` memo, if the pass built one. Otherwise the
    /// kept slots are copied and `A_u` is computed on first use.
    ///
    /// # Errors
    /// [`FairrecError::InvalidParameter`] if `max_items == Some(0)` or the
    /// resulting pool would be empty.
    pub fn from_predictions(
        predictions: &GroupPredictions,
        max_items: Option<usize>,
    ) -> Result<Self> {
        if max_items == Some(0) {
            return Err(FairrecError::invalid_parameter(
                "max_items",
                "pool must keep at least one item",
            ));
        }
        let scored = predictions
            .group_scores()
            .iter()
            .filter(|s| s.is_some())
            .count();
        if scored == 0 {
            return Err(FairrecError::invalid_parameter(
                "pool",
                "no candidate has a defined group relevance",
            ));
        }
        let capped = max_items.is_some_and(|m| m < scored);
        if !capped && scored == predictions.num_items() {
            return Ok(Self {
                members: predictions.members().to_vec(),
                items: predictions.items().to_vec(),
                member_scores: Arc::clone(predictions.member_rows()),
                group_scores: predictions
                    .group_scores()
                    .iter()
                    .flatten()
                    .copied()
                    .collect(),
                top_lists: predictions
                    .top_lists()
                    .cloned()
                    .map_or_else(OnceLock::new, OnceLock::from),
            });
        }

        // Select surviving item positions.
        let keep: Vec<usize> = match max_items {
            Some(m) if capped => {
                let mut keep = top_k_of(predictions.group_scores(), m);
                keep.sort_unstable(); // restore item-id order
                keep
            }
            _ => (0..predictions.num_items())
                .filter(|&j| predictions.group_relevance(j).is_some())
                .collect(),
        };
        let items: Vec<ItemId> = keep.iter().map(|&j| predictions.items()[j]).collect();
        let member_scores: Vec<Vec<Option<Relevance>>> = (0..predictions.members().len())
            .map(|m| {
                keep.iter()
                    .map(|&j| predictions.member_relevance(m, j))
                    .collect()
            })
            .collect();
        let group_scores: Vec<Relevance> = keep
            .iter()
            .map(|&j| predictions.group_relevance(j).expect("scored"))
            .collect();

        Ok(Self {
            members: predictions.members().to_vec(),
            items,
            member_scores: member_scores.into(),
            group_scores,
            top_lists: OnceLock::new(),
        })
    }

    /// Builds a pool directly from dense parts (tests, benches, MapReduce).
    ///
    /// # Panics
    /// Panics on shape mismatches (internal assembly error).
    pub fn from_parts(
        members: Vec<UserId>,
        items: Vec<ItemId>,
        member_scores: Vec<Vec<Option<Relevance>>>,
        group_scores: Vec<Relevance>,
    ) -> Self {
        assert_eq!(member_scores.len(), members.len(), "one row per member");
        for row in &member_scores {
            assert_eq!(row.len(), items.len(), "one score slot per item");
        }
        assert_eq!(group_scores.len(), items.len());
        assert!(!items.is_empty(), "pool cannot be empty");
        Self {
            members,
            items,
            member_scores: member_scores.into(),
            group_scores,
            top_lists: OnceLock::new(),
        }
    }

    /// Group members.
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// Group size `n = |G|`.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Pooled items (ascending item id).
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Pool size `m`.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Per-member relevance at pool position `item_idx`.
    pub fn member_relevance(&self, member_idx: usize, item_idx: usize) -> Option<Relevance> {
        self.member_scores[member_idx][item_idx]
    }

    /// Group relevance at pool position `item_idx`.
    pub fn group_relevance(&self, item_idx: usize) -> Relevance {
        self.group_scores[item_idx]
    }

    /// All group scores, parallel to [`items`](Self::items).
    pub fn group_scores(&self) -> &[Relevance] {
        &self.group_scores
    }

    /// The per-member top-k list `A_u` as pool *positions* (not item ids),
    /// best first, ties by ascending position.
    pub fn top_k_positions(&self, member_idx: usize, k: usize) -> Vec<usize> {
        top_k_of(&self.member_scores[member_idx], k)
    }

    /// `A_u` for every member, indexed by member: the lists of
    /// [`top_k_positions`](Self::top_k_positions). The first call fills
    /// the memo with its `k` and borrows it; later calls borrow it for the
    /// same `k` and compute afresh for any other.
    pub fn top_k_lists(&self, k: usize) -> Cow<'_, [Vec<usize>]> {
        let (memo_k, lists) = self
            .top_lists
            .get_or_init(|| (k, self.compute_top_k_lists(k)));
        if *memo_k == k {
            Cow::Borrowed(lists)
        } else {
            Cow::Owned(self.compute_top_k_lists(k))
        }
    }

    fn compute_top_k_lists(&self, k: usize) -> Vec<Vec<usize>> {
        self.member_scores
            .iter()
            .map(|scores| top_k_of(scores, k))
            .collect()
    }

    /// Sum of group relevance over a set of pool positions (the Σ term of
    /// the value function).
    pub fn sum_group_relevance(&self, positions: &[usize]) -> Relevance {
        positions.iter().map(|&j| self.group_scores[j]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictions::GroupPredictions;

    fn preds() -> GroupPredictions {
        // 2 members, 4 items; item 1 unscored for everyone; item 3 scored
        // only by member 1.
        GroupPredictions::from_parts(
            vec![UserId::new(0), UserId::new(1)],
            (0..4).map(ItemId::new).collect(),
            vec![
                vec![Some(4.0), None, Some(1.0), None],
                vec![Some(2.0), None, Some(5.0), Some(3.0)],
            ],
            vec![Some(3.0), None, Some(3.0), Some(3.0)],
        )
    }

    #[test]
    fn unscored_items_are_dropped() {
        let pool = CandidatePool::from_predictions(&preds(), None).unwrap();
        assert_eq!(
            pool.items(),
            &[ItemId::new(0), ItemId::new(2), ItemId::new(3)]
        );
        assert_eq!(pool.num_items(), 3);
        assert_eq!(pool.num_members(), 2);
        assert_eq!(pool.group_relevance(0), 3.0);
        assert_eq!(pool.member_relevance(0, 2), None);
    }

    #[test]
    fn truncation_keeps_best_by_group_score_in_item_order() {
        let p = GroupPredictions::from_parts(
            vec![UserId::new(0)],
            (0..4).map(ItemId::new).collect(),
            vec![vec![Some(1.0), Some(4.0), Some(2.0), Some(3.0)]],
            vec![Some(1.0), Some(4.0), Some(2.0), Some(3.0)],
        );
        let pool = CandidatePool::from_predictions(&p, Some(2)).unwrap();
        // Best two by group score are items 1 (4.0) and 3 (3.0), reported
        // in ascending item order.
        assert_eq!(pool.items(), &[ItemId::new(1), ItemId::new(3)]);
        assert_eq!(pool.group_scores(), &[4.0, 3.0]);
    }

    #[test]
    fn truncation_ties_break_by_item_id() {
        let p = GroupPredictions::from_parts(
            vec![UserId::new(0)],
            (0..3).map(ItemId::new).collect(),
            vec![vec![Some(2.0), Some(2.0), Some(2.0)]],
            vec![Some(2.0), Some(2.0), Some(2.0)],
        );
        let pool = CandidatePool::from_predictions(&p, Some(2)).unwrap();
        assert_eq!(pool.items(), &[ItemId::new(0), ItemId::new(1)]);
    }

    #[test]
    fn empty_pool_is_an_error() {
        let p = GroupPredictions::from_parts(
            vec![UserId::new(0)],
            vec![ItemId::new(0)],
            vec![vec![None]],
            vec![None],
        );
        assert!(CandidatePool::from_predictions(&p, None).is_err());
        assert!(CandidatePool::from_predictions(&preds(), Some(0)).is_err());
    }

    #[test]
    fn top_k_positions_skip_undefined_member_scores() {
        let pool = CandidatePool::from_predictions(&preds(), None).unwrap();
        // Member 0 scores: pos0=4.0, pos1=1.0, pos2=None.
        assert_eq!(pool.top_k_positions(0, 2), vec![0, 1]);
        assert_eq!(pool.top_k_positions(0, 5), vec![0, 1]);
        // Member 1 scores: pos0=2.0, pos1=5.0, pos2=3.0.
        assert_eq!(pool.top_k_positions(1, 2), vec![1, 2]);
    }

    #[test]
    fn sum_group_relevance_over_positions() {
        let pool = CandidatePool::from_predictions(&preds(), None).unwrap();
        assert_eq!(pool.sum_group_relevance(&[0, 2]), 6.0);
        assert_eq!(pool.sum_group_relevance(&[]), 0.0);
    }
}
