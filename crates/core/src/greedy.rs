//! Algorithm 1 — the fairness-aware greedy heuristic — and the plain
//! top-z baseline.
//!
//! Algorithm 1, verbatim from the paper: starting from `D = ∅`, *"we
//! incrementally construct `D` by selecting, for each pair of users `u_x`
//! and `u_y`, the item in `A_{u_y}` with the maximum relevance score for
//! `u_x`"*, looping over all ordered pairs until `|D| = z`.
//!
//! Two readings are pinned down here (the pseudo-code leaves them
//! implicit):
//!
//! * `D = D ∪ i` is **set** insertion. To guarantee progress, the pairwise
//!   argmax skips items already in `D`; if every item of `A_{u_y}` is
//!   already selected, the pair contributes nothing this round.
//! * If a whole sweep over all pairs adds nothing (all `A_u` lists
//!   exhausted) the algorithm stops early with `|D| < z` — there is
//!   nothing fair left to add; callers may pad with
//!   [`plain_top_z`]-style filler if they need exactly `z` items (the
//!   engine crate does exactly that).
//!
//! Ties in the argmax break toward the *smaller pool position* so runs are
//! deterministic.
//!
//! The lists `A_u` are not rebuilt here: [`algorithm1`] reads the pool's
//! memo ([`CandidatePool::top_k_lists`]) — built by the group pass, or
//! computed once per pool for the first `k` asked for — so the evaluator
//! built for the same request and the greedy share one selection pass
//! per member.

use crate::pool::{top_k_of, CandidatePool};
use fairrec_types::ItemId;

/// Why an item entered the selection — kept for explanations and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionStep {
    /// Pool position of the selected item.
    pub position: usize,
    /// Member index `x` whose relevance ranked the pick.
    pub for_member: usize,
    /// Member index `y` from whose top-k list `A_{u_y}` the item came.
    pub from_list_of: usize,
    /// Sweep number (0-based) over the pair loop.
    pub round: usize,
}

/// An ordered selection of pool positions with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Selected pool positions, in selection order.
    pub positions: Vec<usize>,
    /// Provenance per selected position (absent for baselines that have
    /// no pairwise provenance).
    pub steps: Vec<SelectionStep>,
}

impl Selection {
    /// Resolves pool positions into item ids, in selection order.
    pub fn items(&self, pool: &CandidatePool) -> Vec<ItemId> {
        self.positions.iter().map(|&j| pool.items()[j]).collect()
    }

    /// Number of selected items `|D|`.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Algorithm 1: fairness-aware greedy selection of `z` items.
///
/// `k` is the length of the per-member lists `A_u` (the same `k` the
/// fairness definition uses). `z = 0` returns an empty selection.
pub fn algorithm1(pool: &CandidatePool, z: usize, k: usize) -> Selection {
    if z == 0 || pool.num_items() == 0 {
        return Selection::default();
    }
    pairwise_greedy(pool, &pool.top_k_lists(k), z)
}

/// Algorithm 1's pair loop over given lists `A_u` (pool positions, best
/// first, indexed by member); `z ≥ 1` and the pool is non-empty.
pub(crate) fn pairwise_greedy(
    pool: &CandidatePool,
    top_lists: &[Vec<usize>],
    z: usize,
) -> Selection {
    let n = pool.num_members();
    let m = pool.num_items();
    let mut selection = Selection::default();
    let mut selected = vec![false; m];
    let z = z.min(m);

    let mut round = 0usize;
    'outer: while selection.len() < z {
        let mut progressed = false;
        // Index loops kept deliberately: they mirror Algorithm 1's
        // `for x … for y` pseudo-code line by line.
        #[allow(clippy::needless_range_loop)]
        for x in 0..n {
            for y in 0..n {
                if x == y {
                    continue;
                }
                // Item in A_{u_y} with max relevance(u_x, ·), skipping
                // already-selected positions; undefined relevance ranks
                // below any defined one.
                let mut best: Option<(usize, Option<f64>)> = None;
                for &j in &top_lists[y] {
                    if selected[j] {
                        continue;
                    }
                    let score = pool.member_relevance(x, j);
                    let better = match &best {
                        None => true,
                        Some((bj, bscore)) => match (score, *bscore) {
                            (Some(s), Some(b)) => s > b || (s == b && j < *bj),
                            (Some(_), None) => true,
                            (None, Some(_)) => false,
                            (None, None) => j < *bj,
                        },
                    };
                    if better {
                        best = Some((j, score));
                    }
                }
                if let Some((j, _)) = best {
                    selected[j] = true;
                    selection.positions.push(j);
                    selection.steps.push(SelectionStep {
                        position: j,
                        for_member: x,
                        from_list_of: y,
                        round,
                    });
                    progressed = true;
                    if selection.len() == z {
                        break 'outer;
                    }
                }
            }
        }
        if !progressed {
            break; // every A_u exhausted — nothing fair left to add
        }
        round += 1;
    }
    selection
}

/// Baseline without fairness: the `z` items with the highest group
/// relevance (§III-B's plain group top-k), ties by ascending position.
/// Ranked by the pool's selection kernel, the same one that builds `A_u`.
pub fn plain_top_z(pool: &CandidatePool, z: usize) -> Selection {
    Selection {
        positions: top_k_of(pool.group_scores(), z),
        steps: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::FairnessEvaluator;
    use fairrec_types::UserId;

    fn pool(member_scores: Vec<Vec<Option<f64>>>, group_scores: Vec<f64>) -> CandidatePool {
        let n_items = group_scores.len();
        CandidatePool::from_parts(
            (0..member_scores.len() as u32).map(UserId::new).collect(),
            (0..n_items as u32).map(ItemId::new).collect(),
            member_scores,
            group_scores,
        )
    }

    /// 2 members with opposite tastes over 4 items.
    fn polarized() -> CandidatePool {
        pool(
            vec![
                vec![Some(5.0), Some(4.5), Some(1.0), Some(1.5)],
                vec![Some(1.0), Some(1.5), Some(5.0), Some(4.5)],
            ],
            vec![3.0, 3.0, 3.0, 3.0],
        )
    }

    #[test]
    fn first_round_covers_both_members() {
        let p = polarized();
        let sel = algorithm1(&p, 2, 2);
        assert_eq!(sel.len(), 2);
        let ev = FairnessEvaluator::new(&p, 2).unwrap();
        assert_eq!(ev.fairness(&sel.positions), 1.0);
        // Pair (x=0, y=1) first: from member 1's list {2, 3}, member 0
        // prefers 3 (1.5 > 1.0). Then (x=1, y=0): from member 0's list
        // {0, 1}, member 1 prefers 1.
        assert_eq!(sel.positions, vec![3, 1]);
        assert_eq!(sel.steps[0].for_member, 0);
        assert_eq!(sel.steps[0].from_list_of, 1);
        assert_eq!(sel.steps[0].round, 0);
    }

    #[test]
    fn proposition_1_fairness_is_one_when_z_ge_group() {
        // Proposition 1 for the polarized pool at several z ≥ |G| = 2.
        let p = polarized();
        let ev = FairnessEvaluator::new(&p, 2).unwrap();
        for z in 2..=4 {
            let sel = algorithm1(&p, z, 2);
            assert_eq!(
                ev.fairness(&sel.positions),
                1.0,
                "Proposition 1 violated at z={z}"
            );
        }
    }

    #[test]
    fn stops_at_z_items() {
        let p = polarized();
        for z in 0..=6 {
            let sel = algorithm1(&p, z, 4);
            assert_eq!(sel.len(), z.min(4), "z={z}");
            // No duplicates.
            let mut ps = sel.positions.clone();
            ps.sort_unstable();
            ps.dedup();
            assert_eq!(ps.len(), sel.len());
        }
    }

    #[test]
    fn exhausted_lists_stop_early() {
        // k=1 ⇒ A_u lists hold one item each; both members love item 0.
        let p = pool(
            vec![vec![Some(5.0), Some(1.0)], vec![Some(5.0), Some(2.0)]],
            vec![4.0, 1.5],
        );
        let sel = algorithm1(&p, 2, 1);
        // Both lists = {0}; after selecting it nothing remains.
        assert_eq!(sel.positions, vec![0]);
    }

    #[test]
    fn singleton_group_has_no_pairs() {
        let p = pool(vec![vec![Some(5.0), Some(4.0)]], vec![5.0, 4.0]);
        let sel = algorithm1(&p, 2, 2);
        assert!(
            sel.is_empty(),
            "no (x, y) pairs exist for |G| = 1, Algorithm 1 selects nothing"
        );
    }

    #[test]
    fn undefined_relevance_ranks_below_defined() {
        // Member 0 cannot score item 2; item 2 is in member 1's list.
        let p = pool(
            vec![
                vec![Some(5.0), Some(2.0), None],
                vec![Some(1.0), Some(4.0), Some(5.0)],
            ],
            vec![3.0, 3.0, 3.0],
        );
        let sel = algorithm1(&p, 1, 2);
        // Pair (0,1): A_1 = {2, 1}; member 0 prefers 1 (2.0) over 2 (None).
        assert_eq!(sel.positions, vec![1]);
    }

    #[test]
    fn plain_top_z_orders_by_group_relevance() {
        let p = pool(
            vec![vec![Some(1.0), Some(2.0), Some(3.0), Some(2.0)]],
            vec![2.0, 4.0, 3.0, 4.0],
        );
        let sel = plain_top_z(&p, 3);
        assert_eq!(sel.positions, vec![1, 3, 2]); // 4.0, 4.0 (tie → id), 3.0
        assert!(sel.steps.is_empty());
        let all = plain_top_z(&p, 99);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn greedy_fairness_never_below_plain_top_z() {
        // The polarized case where plain top-z is unfair: group scores
        // favour member 0's items.
        let p = pool(
            vec![
                vec![Some(5.0), Some(4.8), Some(1.0), Some(1.2)],
                vec![Some(1.0), Some(1.2), Some(4.9), Some(4.7)],
            ],
            vec![4.0, 3.9, 3.0, 2.9],
        );
        let ev = FairnessEvaluator::new(&p, 2).unwrap();
        let greedy = algorithm1(&p, 2, 2);
        let plain = plain_top_z(&p, 2);
        assert!((ev.fairness(&plain.positions) - 0.5).abs() < 1e-12);
        assert_eq!(ev.fairness(&greedy.positions), 1.0);
    }

    #[test]
    fn items_resolves_positions() {
        let p = polarized();
        let sel = algorithm1(&p, 2, 2);
        let items = sel.items(&p);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], p.items()[sel.positions[0]]);
    }
}
