//! m-proportional fairness (extension).
//!
//! The paper's fairness notion comes from its ref. \[19\] (Qi, Mamoulis,
//! Pitoura, Tsaparas — *Recommending Packages to Groups*, ICDM 2016),
//! which defines the stronger **m-proportionality**: a package `D` is
//! m-proportional for `u` when it contains at least `m` items from `u`'s
//! top-k. Definition 3 is exactly the `m = 1` case.
//!
//! This module generalises the evaluator and adds a greedy selector that
//! targets the weakest member first:
//!
//! * [`ProportionalityEvaluator`] — per-member satisfied counts,
//!   `proportionality(G, D) = |{u : |D ∩ A_u| ≥ m}| / |G|`, and the value
//!   function `proportionality · Σ relevanceG`,
//! * [`greedy_proportional`] — repeatedly gives the currently least
//!   satisfied member their best remaining top-k item (by group
//!   relevance), then fills leftover slots with plain top relevance.
//!
//! For `m = 1` the evaluator coincides with [`FairnessEvaluator`] —
//! asserted in the tests.

use crate::fairness::{membership_masks, FairnessEvaluator};
use crate::greedy::Selection;
use crate::pool::CandidatePool;
use fairrec_types::{FairrecError, Result};

/// Generalised (m-proportional) fairness evaluation.
#[derive(Debug, Clone)]
pub struct ProportionalityEvaluator {
    /// `masks[j]`: bit `u` set ⇔ pool item `j` ∈ A_u(k).
    masks: Vec<u64>,
    num_members: usize,
    k: usize,
    /// Required per-member count `m`.
    required: u32,
}

impl ProportionalityEvaluator {
    /// Builds the evaluator: lists of length `k`, requirement `m ≥ 1`.
    ///
    /// # Errors
    /// [`FairrecError::InvalidParameter`] for `k == 0`, `m == 0`, `m > k`
    /// (a member's list cannot contain more than `k` items), or more than
    /// 64 members.
    pub fn new(pool: &CandidatePool, k: usize, m: u32) -> Result<Self> {
        if k == 0 {
            return Err(FairrecError::invalid_parameter(
                "k",
                "top-k lists need k ≥ 1",
            ));
        }
        if m == 0 || m as usize > k {
            return Err(FairrecError::invalid_parameter(
                "m",
                format!("proportionality requires 1 ≤ m ≤ k, got m={m}, k={k}"),
            ));
        }
        let n = pool.num_members();
        FairnessEvaluator::check_group_size(n)?;
        Ok(Self {
            masks: membership_masks(pool.num_items(), &pool.top_k_lists(k)),
            num_members: n,
            k,
            required: m,
        })
    }

    /// The list length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-member requirement `m`.
    pub fn required(&self) -> u32 {
        self.required
    }

    /// How many selected items fall into each member's top-k.
    pub fn satisfied_counts(&self, selected: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_members];
        for &j in selected {
            let mut mask = self.masks[j];
            while mask != 0 {
                let member = mask.trailing_zeros() as usize;
                counts[member] += 1;
                mask &= mask - 1;
            }
        }
        counts
    }

    /// `proportionality(G, D)`: fraction of members with ≥ m of their
    /// top-k items in `D`.
    pub fn proportionality(&self, selected: &[usize]) -> f64 {
        debug_assert!(self.num_members > 0);
        let satisfied = self
            .satisfied_counts(selected)
            .into_iter()
            .filter(|&c| c >= self.required)
            .count();
        satisfied as f64 / self.num_members as f64
    }

    /// `proportionality · Σ relevanceG` — the generalised value function.
    pub fn value(&self, pool: &CandidatePool, selected: &[usize]) -> f64 {
        self.proportionality(selected) * pool.sum_group_relevance(selected)
    }
}

/// Greedy m-proportional selection: while some member is below `m`, give
/// the currently weakest such member their best (group-relevance-ranked)
/// unselected top-k item; when everyone reachable is satisfied, fill the
/// remaining slots with the highest group relevance overall.
///
/// Ties: the weakest member with the smallest index; among items, the
/// highest group relevance then the smallest position.
pub fn greedy_proportional(
    pool: &CandidatePool,
    evaluator: &ProportionalityEvaluator,
    z: usize,
) -> Selection {
    let n = pool.num_members();
    let m_required = evaluator.required();
    let k = evaluator.k();
    let z = z.min(pool.num_items());
    let mut selection = Selection::default();
    if z == 0 {
        return selection;
    }

    // Per-member top-k lists pre-sorted by descending group relevance.
    let top_lists: Vec<Vec<usize>> = pool
        .top_k_lists(k)
        .iter()
        .map(|list| {
            let mut list = list.clone();
            list.sort_by(|&a, &b| {
                pool.group_relevance(b)
                    .partial_cmp(&pool.group_relevance(a))
                    .expect("finite scores")
                    .then(a.cmp(&b))
            });
            list
        })
        .collect();

    let mut selected = vec![false; pool.num_items()];
    let mut counts = vec![0u32; n];
    let mut exhausted = vec![false; n];

    while selection.len() < z {
        // Weakest member still below the requirement with items left.
        let target = (0..n)
            .filter(|&u| !exhausted[u] && counts[u] < m_required)
            .min_by_key(|&u| (counts[u], u));
        let Some(u) = target else { break };
        let pick = top_lists[u].iter().copied().find(|&j| !selected[j]);
        match pick {
            Some(j) => {
                selected[j] = true;
                selection.positions.push(j);
                // One item may advance several members at once.
                for member in 0..n {
                    if top_lists[member].contains(&j) {
                        counts[member] += 1;
                    }
                }
            }
            None => exhausted[u] = true,
        }
    }

    // Fill the remainder with plain top relevance.
    if selection.len() < z {
        let mut order: Vec<usize> = (0..pool.num_items()).filter(|&j| !selected[j]).collect();
        order.sort_by(|&a, &b| {
            pool.group_relevance(b)
                .partial_cmp(&pool.group_relevance(a))
                .expect("finite scores")
                .then(a.cmp(&b))
        });
        for j in order {
            if selection.len() >= z {
                break;
            }
            selection.positions.push(j);
        }
    }
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::FairnessEvaluator;
    use fairrec_types::{ItemId, UserId};

    fn pool(member_scores: Vec<Vec<Option<f64>>>, group_scores: Vec<f64>) -> CandidatePool {
        let n_items = group_scores.len();
        CandidatePool::from_parts(
            (0..member_scores.len() as u32).map(UserId::new).collect(),
            (0..n_items as u32).map(ItemId::new).collect(),
            member_scores,
            group_scores,
        )
    }

    fn polarized() -> CandidatePool {
        pool(
            vec![
                vec![
                    Some(5.0),
                    Some(4.8),
                    Some(4.6),
                    Some(1.0),
                    Some(1.2),
                    Some(1.4),
                ],
                vec![
                    Some(1.0),
                    Some(1.2),
                    Some(1.4),
                    Some(5.0),
                    Some(4.8),
                    Some(4.6),
                ],
            ],
            vec![3.5, 3.4, 3.3, 3.2, 3.1, 3.0],
        )
    }

    #[test]
    fn m1_matches_definition_3() {
        let p = polarized();
        let prop = ProportionalityEvaluator::new(&p, 3, 1).unwrap();
        let fair = FairnessEvaluator::new(&p, 3).unwrap();
        for selected in [vec![], vec![0], vec![0, 3], vec![0, 1, 2], vec![2, 4]] {
            assert_eq!(
                prop.proportionality(&selected),
                fair.fairness(&selected),
                "selected {selected:?}"
            );
            assert!((prop.value(&p, &selected) - fair.value(&p, &selected)).abs() < 1e-12);
        }
    }

    #[test]
    fn satisfied_counts_are_per_member() {
        let p = polarized();
        let ev = ProportionalityEvaluator::new(&p, 3, 2).unwrap();
        // Items 0,1 are member 0's; item 3 is member 1's.
        assert_eq!(ev.satisfied_counts(&[0, 1, 3]), vec![2, 1]);
        assert_eq!(ev.proportionality(&[0, 1, 3]), 0.5);
        assert_eq!(ev.proportionality(&[0, 1, 3, 4]), 1.0);
    }

    #[test]
    fn greedy_reaches_full_proportionality_when_z_allows() {
        let p = polarized();
        for m in 1..=3u32 {
            let ev = ProportionalityEvaluator::new(&p, 3, m).unwrap();
            let z_needed = (m as usize) * 2; // disjoint lists
            let sel = greedy_proportional(&p, &ev, z_needed);
            assert_eq!(sel.len(), z_needed);
            assert_eq!(
                ev.proportionality(&sel.positions),
                1.0,
                "m={m}: counts {:?}",
                ev.satisfied_counts(&sel.positions)
            );
        }
    }

    #[test]
    fn greedy_targets_the_weakest_member_first() {
        let p = polarized();
        let ev = ProportionalityEvaluator::new(&p, 3, 2).unwrap();
        let sel = greedy_proportional(&p, &ev, 4);
        // Alternates between the two members' best items; after 4 picks
        // both have exactly 2.
        assert_eq!(ev.satisfied_counts(&sel.positions), vec![2, 2]);
        // First pick: member 0 (tie on counts, smaller index), their best
        // by group relevance = position 0.
        assert_eq!(sel.positions[0], 0);
        // Second pick: member 1's best = position 3.
        assert_eq!(sel.positions[1], 3);
    }

    #[test]
    fn fills_with_top_relevance_after_satisfaction() {
        let p = polarized();
        let ev = ProportionalityEvaluator::new(&p, 3, 1).unwrap();
        let sel = greedy_proportional(&p, &ev, 4);
        assert_eq!(ev.proportionality(&sel.positions), 1.0);
        assert_eq!(sel.len(), 4);
        // First two picks satisfy both members (positions 0 and 3); the
        // filler picks are the best remaining group scores: 1 then 2.
        assert_eq!(sel.positions, vec![0, 3, 1, 2]);
    }

    #[test]
    fn shared_favourite_advances_both_members() {
        // One item both members love (k=1 lists are both {0}).
        let p = pool(
            vec![vec![Some(5.0), Some(2.0)], vec![Some(5.0), Some(2.0)]],
            vec![4.0, 2.0],
        );
        let ev = ProportionalityEvaluator::new(&p, 1, 1).unwrap();
        let sel = greedy_proportional(&p, &ev, 1);
        assert_eq!(sel.positions, vec![0]);
        assert_eq!(ev.proportionality(&sel.positions), 1.0);
    }

    #[test]
    fn unreachable_members_do_not_deadlock() {
        // Member 1 has no defined scores at all: exhausted immediately.
        let p = pool(
            vec![vec![Some(5.0), Some(4.0)], vec![None, None]],
            vec![3.0, 2.0],
        );
        let ev = ProportionalityEvaluator::new(&p, 2, 2).unwrap();
        let sel = greedy_proportional(&p, &ev, 2);
        assert_eq!(sel.len(), 2);
        assert_eq!(ev.proportionality(&sel.positions), 0.5);
    }

    #[test]
    fn parameter_validation() {
        let p = polarized();
        assert!(ProportionalityEvaluator::new(&p, 0, 1).is_err());
        assert!(ProportionalityEvaluator::new(&p, 3, 0).is_err());
        assert!(ProportionalityEvaluator::new(&p, 3, 4).is_err()); // m > k
        assert!(ProportionalityEvaluator::new(&p, 3, 3).is_ok());
    }

    #[test]
    fn higher_m_is_harder() {
        let p = polarized();
        let sel = vec![0usize, 3];
        let p1 = ProportionalityEvaluator::new(&p, 3, 1).unwrap();
        let p2 = ProportionalityEvaluator::new(&p, 3, 2).unwrap();
        assert!(p2.proportionality(&sel) <= p1.proportionality(&sel));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fairrec_types::{ItemId, UserId};
    use proptest::prelude::*;

    fn arb_pool() -> impl Strategy<Value = CandidatePool> {
        (2usize..=4, 4usize..=9).prop_flat_map(|(n, m)| {
            proptest::collection::vec(1.0f64..=5.0, n * m).prop_map(move |flat| {
                let member_scores: Vec<Vec<Option<f64>>> = (0..n)
                    .map(|u| (0..m).map(|j| Some(flat[u * m + j])).collect())
                    .collect();
                let group_scores: Vec<f64> = (0..m)
                    .map(|j| (0..n).map(|u| flat[u * m + j]).sum::<f64>() / n as f64)
                    .collect();
                CandidatePool::from_parts(
                    (0..n as u32).map(UserId::new).collect(),
                    (0..m as u32).map(ItemId::new).collect(),
                    member_scores,
                    group_scores,
                )
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With k ≥ m and z ≥ m·|G|, the greedy reaches proportionality 1
        /// on dense pools (every member's list has k ≥ m entries).
        #[test]
        fn full_proportionality_when_z_suffices(pool in arb_pool(), m in 1u32..3) {
            let k = 3usize;
            prop_assume!(m as usize <= k);
            let need = m as usize * pool.num_members();
            prop_assume!(need <= pool.num_items());
            let ev = ProportionalityEvaluator::new(&pool, k, m).unwrap();
            let sel = greedy_proportional(&pool, &ev, need);
            prop_assert!((ev.proportionality(&sel.positions) - 1.0).abs() < 1e-12,
                "counts: {:?}", ev.satisfied_counts(&sel.positions));
        }

        /// Selections are well-formed: distinct, in range, |D| = min(z, m).
        #[test]
        fn well_formed(pool in arb_pool(), z in 0usize..12, m in 1u32..3) {
            let ev = ProportionalityEvaluator::new(&pool, 3, m).unwrap();
            let sel = greedy_proportional(&pool, &ev, z);
            prop_assert_eq!(sel.len(), z.min(pool.num_items()));
            let mut seen = std::collections::HashSet::new();
            for &j in &sel.positions {
                prop_assert!(j < pool.num_items());
                prop_assert!(seen.insert(j));
            }
        }

        /// Proportionality is monotone in the selection (supersets never
        /// lose satisfied members) and anti-monotone in m.
        #[test]
        fn monotonicity(pool in arb_pool()) {
            let ev1 = ProportionalityEvaluator::new(&pool, 3, 1).unwrap();
            let ev2 = ProportionalityEvaluator::new(&pool, 3, 2).unwrap();
            let all: Vec<usize> = (0..pool.num_items()).collect();
            let mut prev1 = 0.0;
            for end in 0..=all.len() {
                let sel = &all[..end];
                let p1 = ev1.proportionality(sel);
                prop_assert!(p1 >= prev1 - 1e-12);
                prev1 = p1;
                prop_assert!(ev2.proportionality(sel) <= p1 + 1e-12);
            }
        }
    }
}
