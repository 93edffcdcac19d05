//! Fairness and value of a recommendation package — Definition 3.
//!
//! *"Given a user `u` and a set of recommendations `D`, we define that `D`
//! is fair to `u` if `D` contains at least one data item that belongs to
//! the set of items with the top-k relevance scores for `u`."* Then
//! `fairness(G, D) = |G_D| / |G|` and
//! `value(G, D) = fairness(G, D) · Σ_{i∈D} relevanceG(G, i)`.
//!
//! [`FairnessEvaluator`] precomputes, for every pool item, the bitmask of
//! members whose top-k list contains it. The lists come from the pool's
//! `A_u` memo ([`CandidatePool::top_k_lists`]): built by the group pass
//! or computed once per pool, memoised per `k`, and shared with
//! Algorithm 1, so the evaluator itself
//! only walks `Σ|A_u|` list entries. Evaluating a package is then an OR
//! over `|D|` masks plus a popcount — the O(1)-per-item inner loop the
//! brute force needs to enumerate hundreds of millions of combinations
//! (§VI) in reasonable time. Group size is limited to 64 members per
//! evaluator (one machine word); caregiver groups in the paper are far
//! smaller.

use crate::pool::CandidatePool;
use fairrec_types::{FairrecError, Result};

/// Precomputed satisfaction masks for fairness/value evaluation.
#[derive(Debug, Clone)]
pub struct FairnessEvaluator {
    /// `masks[j]`: bit `m` set ⇔ pool item `j` is in member `m`'s top-k.
    masks: Vec<u64>,
    num_members: usize,
    k: usize,
}

impl FairnessEvaluator {
    /// Most members one evaluator supports: one bit each in a `u64` mask.
    pub const MAX_MEMBERS: usize = 64;

    /// Builds the evaluator for `pool` with per-member lists of length `k`.
    ///
    /// A member whose predictions are all undefined has an empty top-k
    /// list and can never be satisfied; Definition 3 still counts them in
    /// the denominator `|G|` (the conservative reading: an invisible
    /// member is an unfairly treated member).
    ///
    /// # Errors
    /// * `k == 0` — no list, fairness degenerates to 0 everywhere;
    /// * more than 64 members (mask word size).
    pub fn new(pool: &CandidatePool, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(FairrecError::invalid_parameter(
                "k",
                "top-k lists need k ≥ 1",
            ));
        }
        Self::check_group_size(pool.num_members())?;
        Ok(Self::from_lists(pool.num_items(), &pool.top_k_lists(k), k))
    }

    /// Rejects a group of more than [`MAX_MEMBERS`](Self::MAX_MEMBERS)
    /// members — the check [`new`](Self::new) makes, exposed so callers
    /// can fail before computing predictions.
    ///
    /// # Errors
    /// [`FairrecError::InvalidParameter`] naming the limit.
    pub fn check_group_size(n: usize) -> Result<()> {
        if n > Self::MAX_MEMBERS {
            return Err(FairrecError::invalid_parameter(
                "group",
                format!(
                    "fairness evaluator supports at most {} members, got {n}",
                    Self::MAX_MEMBERS
                ),
            ));
        }
        Ok(())
    }

    /// Masks from per-member lists `A_u` (pool positions, indexed by
    /// member) over a pool of `num_items`.
    pub(crate) fn from_lists(num_items: usize, lists: &[Vec<usize>], k: usize) -> Self {
        Self {
            masks: membership_masks(num_items, lists),
            num_members: lists.len(),
            k,
        }
    }

    /// The `k` the evaluator was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of group members.
    pub fn num_members(&self) -> usize {
        self.num_members
    }

    /// Satisfaction mask of one pool item.
    pub fn item_mask(&self, item_idx: usize) -> u64 {
        self.masks[item_idx]
    }

    /// Bitmask of members for whom `selected` is fair.
    pub fn satisfied_mask(&self, selected: &[usize]) -> u64 {
        selected.iter().fold(0u64, |acc, &j| acc | self.masks[j])
    }

    /// `fairness(G, D)` — Definition 3.
    pub fn fairness(&self, selected: &[usize]) -> f64 {
        debug_assert!(self.num_members > 0);
        self.satisfied_mask(selected).count_ones() as f64 / self.num_members as f64
    }

    /// `value(G, D) = fairness(G, D) · Σ relevanceG` — the objective the
    /// paper's Problem Statement maximises.
    pub fn value(&self, pool: &CandidatePool, selected: &[usize]) -> f64 {
        self.fairness(selected) * pool.sum_group_relevance(selected)
    }

    /// Members (indices into the pool's member list) not yet satisfied by
    /// `selected` — used in explanations.
    pub fn unsatisfied_members(&self, selected: &[usize]) -> Vec<usize> {
        let mask = self.satisfied_mask(selected);
        (0..self.num_members)
            .filter(|&m| mask & (1u64 << m) == 0)
            .collect()
    }
}

/// `masks[j]`: bit `u` set ⇔ pool position `j` is in `lists[u]`.
pub(crate) fn membership_masks(num_items: usize, lists: &[Vec<usize>]) -> Vec<u64> {
    let mut masks = vec![0u64; num_items];
    for (member, list) in lists.iter().enumerate() {
        for &j in list {
            masks[j] |= 1u64 << member;
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_types::{ItemId, UserId};

    /// Pool: 3 members, 4 items. Member top-1 lists (k=1):
    ///   member0 → item pos 0; member1 → pos 1; member2 → pos 1.
    fn pool() -> CandidatePool {
        CandidatePool::from_parts(
            (0..3).map(UserId::new).collect(),
            (0..4).map(ItemId::new).collect(),
            vec![
                vec![Some(5.0), Some(1.0), Some(1.0), Some(1.0)],
                vec![Some(1.0), Some(5.0), Some(2.0), Some(1.0)],
                vec![Some(1.0), Some(4.0), Some(3.0), Some(1.0)],
            ],
            vec![2.0, 3.0, 2.5, 1.0],
        )
    }

    #[test]
    fn masks_reflect_top_k_membership() {
        let p = pool();
        let ev = FairnessEvaluator::new(&p, 1).unwrap();
        assert_eq!(ev.item_mask(0), 0b001);
        assert_eq!(ev.item_mask(1), 0b110);
        assert_eq!(ev.item_mask(2), 0b000);
        assert_eq!(ev.item_mask(3), 0b000);
        assert_eq!(ev.k(), 1);
        assert_eq!(ev.num_members(), 3);
    }

    #[test]
    fn fairness_counts_satisfied_fraction() {
        let p = pool();
        let ev = FairnessEvaluator::new(&p, 1).unwrap();
        assert_eq!(ev.fairness(&[]), 0.0);
        assert_eq!(ev.fairness(&[2]), 0.0);
        assert!((ev.fairness(&[0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((ev.fairness(&[1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ev.fairness(&[0, 1]), 1.0);
        // Redundant satisfaction does not over-count.
        assert_eq!(ev.fairness(&[0, 1, 2, 3]), 1.0);
    }

    #[test]
    fn value_multiplies_fairness_and_relevance_sum() {
        let p = pool();
        let ev = FairnessEvaluator::new(&p, 1).unwrap();
        // D = {0, 1}: fairness 1, Σ = 5.0.
        assert!((ev.value(&p, &[0, 1]) - 5.0).abs() < 1e-12);
        // D = {1, 2}: fairness 2/3, Σ = 5.5.
        assert!((ev.value(&p, &[1, 2]) - 2.0 / 3.0 * 5.5).abs() < 1e-12);
        // A fairer, lower-relevance package can beat an unfair one — the
        // effect the paper's value function is designed to create.
        assert!(ev.value(&p, &[0, 1]) > ev.value(&p, &[1, 2]));
    }

    #[test]
    fn larger_k_widens_satisfaction() {
        let p = pool();
        let ev = FairnessEvaluator::new(&p, 2).unwrap();
        // k=2 top lists: member0 {0, then ties 1|2|3 → pos1}; member1
        // {1,2}; member2 {1,2}.
        assert_eq!(ev.item_mask(2), 0b110);
        assert!((ev.fairness(&[2]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unsatisfied_members_listed() {
        let p = pool();
        let ev = FairnessEvaluator::new(&p, 1).unwrap();
        assert_eq!(ev.unsatisfied_members(&[0]), vec![1, 2]);
        assert_eq!(ev.unsatisfied_members(&[0, 1]), Vec::<usize>::new());
    }

    #[test]
    fn members_without_predictions_are_never_satisfied() {
        let p = CandidatePool::from_parts(
            (0..2).map(UserId::new).collect(),
            (0..2).map(ItemId::new).collect(),
            vec![
                vec![Some(5.0), Some(4.0)],
                vec![None, None], // invisible member
            ],
            vec![5.0, 4.0],
        );
        let ev = FairnessEvaluator::new(&p, 2).unwrap();
        assert_eq!(ev.fairness(&[0, 1]), 0.5);
        assert_eq!(ev.unsatisfied_members(&[0, 1]), vec![1]);
    }

    #[test]
    fn parameter_validation() {
        let p = pool();
        assert!(FairnessEvaluator::new(&p, 0).is_err());
        let big = CandidatePool::from_parts(
            (0..65).map(UserId::new).collect(),
            vec![ItemId::new(0)],
            vec![vec![Some(1.0)]; 65],
            vec![1.0],
        );
        assert!(FairnessEvaluator::new(&big, 1).is_err());
    }
}
