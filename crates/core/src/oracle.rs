//! The heap-based ranking path the selection stack used before the
//! bounded kernel of [`pool`](crate::pool), kept as a test oracle, and the
//! property tests that pin every consumer of the kernel to it bit for bit:
//! the `A_u` lists and their memo, the evaluator masks, Algorithm 1, the
//! swap refinement, the brute force, [`plain_top_z`] and the pool
//! truncation.

use crate::fairness::FairnessEvaluator;
use crate::greedy::{algorithm1, pairwise_greedy, plain_top_z, Selection};
use crate::pool::CandidatePool;
use crate::predictions::GroupPredictions;
use crate::{brute_force, swap_refine};
use fairrec_types::{ItemId, Relevance, TopK, UserId};
use proptest::prelude::*;
use std::borrow::Cow;

/// `A_u` through a [`TopK`] heap fed pool positions as item ids.
fn heap_top_k_positions(pool: &CandidatePool, member: usize, k: usize) -> Vec<usize> {
    let mut top = TopK::new(k);
    for j in 0..pool.num_items() {
        if let Some(s) = pool.member_relevance(member, j) {
            top.push(ItemId::new(u32::try_from(j).expect("pool fits u32")), s);
        }
    }
    top.into_items().into_iter().map(|i| i.index()).collect()
}

fn heap_lists(pool: &CandidatePool, k: usize) -> Vec<Vec<usize>> {
    (0..pool.num_members())
        .map(|u| heap_top_k_positions(pool, u, k))
        .collect()
}

/// Plain top-z by a full sort of the pool.
fn sorted_top_z(pool: &CandidatePool, z: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.num_items()).collect();
    order.sort_by(|&a, &b| {
        pool.group_relevance(b)
            .partial_cmp(&pool.group_relevance(a))
            .expect("group scores are finite")
            .then(a.cmp(&b))
    });
    order.truncate(z);
    order
}

/// Pool truncation to the best `max_items` by group score, through a
/// [`TopK`] heap, reported in ascending position.
fn heap_truncation(predictions: &GroupPredictions, max_items: usize) -> Vec<ItemId> {
    let mut top = TopK::new(max_items);
    for j in 0..predictions.num_items() {
        if let Some(s) = predictions.group_relevance(j) {
            top.push(ItemId::new(u32::try_from(j).expect("fits u32")), s);
        }
    }
    let mut keep: Vec<usize> = top.into_items().into_iter().map(|i| i.index()).collect();
    keep.sort_unstable();
    keep.iter().map(|&j| predictions.items()[j]).collect()
}

/// One member score: undefined, `±0.0`, a value from a short ladder (so
/// equal-score runs are common), a non-finite value, or a free value.
fn member_score(code: u32, free: f64) -> Option<Relevance> {
    match code {
        0..=3 => None,
        4 => Some(0.0),
        5 => Some(-0.0),
        6..=11 => Some(f64::from(code - 6) * 0.5),
        12 => Some(f64::NAN),
        13 => Some(f64::INFINITY),
        _ => Some(free),
    }
}

/// One group score: always finite, with the same ties and signed zeros.
fn group_score(code: u32, free: f64) -> Relevance {
    match member_score(code, free) {
        Some(s) if s.is_finite() => s,
        _ => free,
    }
}

fn cells(len: usize) -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0u32..20, -1.0f64..5.0), len)
}

/// A pool of `n ∈ {1, 2, 3, 8, 64}` members over up to 150 items. Without
/// `nan`, NaN member scores become `-∞` so the pool equals itself.
fn arb_pool(max_items: usize, nan: bool) -> impl Strategy<Value = CandidatePool> {
    let sizes: Vec<usize> = [1, 2, 3, 5, 9, 17, 40, 150]
        .into_iter()
        .filter(|&m| m <= max_items)
        .collect();
    (
        proptest::sample::select(vec![1usize, 2, 3, 8, 64]),
        proptest::sample::select(sizes),
    )
        .prop_flat_map(move |(n, m)| {
            cells(n * m + m).prop_map(move |cells| {
                let member_scores: Vec<Vec<Option<Relevance>>> = cells[..n * m]
                    .chunks(m)
                    .map(|row| {
                        row.iter()
                            .map(|&(c, x)| match member_score(c, x) {
                                Some(s) if s.is_nan() && !nan => Some(f64::NEG_INFINITY),
                                s => s,
                            })
                            .collect()
                    })
                    .collect();
                let group_scores: Vec<Relevance> = cells[n * m..]
                    .iter()
                    .map(|&(c, x)| group_score(c, x))
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

/// `k = 1`, small lists, the insertion kernel's bound and past it.
fn arb_k() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![1usize, 2, 3, 5, 10, 64, 65, 200])
}

fn masks(evaluator: &FairnessEvaluator, m: usize) -> Vec<u64> {
    (0..m).map(|j| evaluator.item_mask(j)).collect()
}

fn value_bits(v: f64) -> u64 {
    v.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel's lists, the evaluator masks and Algorithm 1 (positions
    /// and steps) equal the heap path.
    #[test]
    fn kernel_lists_masks_and_algorithm1_match_the_heap(
        pool in arb_pool(150, true),
        k in arb_k(),
        z in 1usize..12,
    ) {
        let oracle = heap_lists(&pool, k);
        prop_assert_eq!(pool.top_k_lists(k).to_vec(), oracle.clone());
        for (u, list) in oracle.iter().enumerate() {
            prop_assert_eq!(pool.top_k_positions(u, k), list.clone());
        }

        let evaluator = FairnessEvaluator::new(&pool, k).unwrap();
        let heap_evaluator = FairnessEvaluator::from_lists(pool.num_items(), &oracle, k);
        prop_assert_eq!(
            masks(&evaluator, pool.num_items()),
            masks(&heap_evaluator, pool.num_items())
        );

        let served = algorithm1(&pool, z, k);
        let heap = pairwise_greedy(&pool, &oracle, z);
        prop_assert_eq!(served, heap);
    }

    /// The swap refinement and, on small pools, the brute force return
    /// the same package, value bits and counters under either evaluator.
    #[test]
    fn swaps_and_brute_force_match_the_heap(
        pool in arb_pool(17, true),
        k in arb_k(),
        z in 1usize..5,
        passes in 0usize..4,
    ) {
        let oracle = heap_lists(&pool, k);
        let evaluator = FairnessEvaluator::new(&pool, k).unwrap();
        let heap_evaluator = FairnessEvaluator::from_lists(pool.num_items(), &oracle, k);

        let start = algorithm1(&pool, z, k);
        let heap_start = pairwise_greedy(&pool, &oracle, z);
        let swapped = swap_refine(&pool, &evaluator, &start, passes);
        let heap_swapped = swap_refine(&pool, &heap_evaluator, &heap_start, passes);
        prop_assert_eq!(&swapped.selection, &heap_swapped.selection);
        prop_assert_eq!(value_bits(swapped.value), value_bits(heap_swapped.value));
        prop_assert_eq!(swapped.swaps, heap_swapped.swaps);
        prop_assert_eq!(swapped.converged, heap_swapped.converged);

        if pool.num_items() <= 9 {
            let exact = brute_force(&pool, &evaluator, z);
            let heap_exact = brute_force(&pool, &heap_evaluator, z);
            prop_assert_eq!(&exact.selection, &heap_exact.selection);
            prop_assert_eq!(value_bits(exact.value), value_bits(heap_exact.value));
            prop_assert_eq!(exact.combinations, heap_exact.combinations);
        }
    }

    /// `plain_top_z` equals a full sort, for every `z` up to past the pool.
    #[test]
    fn plain_top_z_matches_the_sort(pool in arb_pool(150, true), z in 0usize..200) {
        let Selection { positions, steps } = plain_top_z(&pool, z);
        prop_assert_eq!(positions, sorted_top_z(&pool, z));
        prop_assert!(steps.is_empty());
        let m = pool.num_items();
        prop_assert_eq!(plain_top_z(&pool, m).positions, sorted_top_z(&pool, m));
    }

    /// Truncating the pool keeps the heap's items, in ascending item order.
    #[test]
    fn pool_truncation_matches_the_heap(
        cells in cells(150),
        max_items in 1usize..160,
    ) {
        let items: Vec<ItemId> = (0..150u32).map(|i| ItemId::new(i * 3)).collect();
        let group: Vec<Option<Relevance>> = cells
            .iter()
            .map(|&(c, x)| member_score(c, x).filter(|s| s.is_finite()))
            .collect();
        let predictions = GroupPredictions::from_parts(
            vec![UserId::new(0)],
            items,
            vec![group.clone()],
            group,
        );
        match CandidatePool::from_predictions(&predictions, Some(max_items)) {
            Ok(pool) => {
                prop_assert_eq!(pool.items().to_vec(), heap_truncation(&predictions, max_items));
            }
            Err(_) => prop_assert!(heap_truncation(&predictions, max_items).is_empty()),
        }
    }

    /// The memo: the first `k` is borrowed and any other `k'` computed
    /// afresh, `top_k_positions` ignores it, a clone keeps it, and a pool
    /// with a filled memo equals a fresh one.
    #[test]
    fn the_memo_serves_its_k_and_recomputes_any_other(
        pool in arb_pool(40, false),
        k in arb_k(),
        other in arb_k(),
    ) {
        let fresh = pool.clone();
        prop_assert!(matches!(pool.top_k_lists(k), Cow::Borrowed(_)));
        prop_assert_eq!(&pool, &fresh);

        let lists = pool.top_k_lists(other);
        prop_assert_eq!(matches!(lists, Cow::Borrowed(_)), other == k);
        prop_assert_eq!(lists.to_vec(), heap_lists(&pool, other));
        for u in 0..pool.num_members() {
            prop_assert_eq!(pool.top_k_positions(u, other), heap_top_k_positions(&pool, u, other));
            prop_assert_eq!(pool.top_k_positions(u, 1), heap_top_k_positions(&pool, u, 1));
        }

        let cloned = pool.clone();
        prop_assert!(matches!(cloned.top_k_lists(k), Cow::Borrowed(_)));
        prop_assert_eq!(&cloned, &fresh);
        prop_assert_eq!(format!("{cloned:?}"), format!("{fresh:?}"));
    }
}
