//! Relevance prediction — Equation 1.
//!
//! For a user `u` with peers `P_u` and an item `i` that `u` has not rated:
//!
//! ```text
//!                   Σ_{u′ ∈ P_u ∩ U(i)}  simU(u, u′) · rating(u′, i)
//! relevance(u, i) = ───────────────────────────────────────────────
//!                   Σ_{u′ ∈ P_u ∩ U(i)}  simU(u, u′)
//! ```
//!
//! The prediction is **undefined** (`None`) when no peer has rated `i`, or
//! when the similarity mass in the denominator is not strictly positive —
//! the latter can only happen when the caller admits non-positive
//! similarities through a negative δ, in which case a weighted "average"
//! loses its meaning as one.
//!
//! ## Summation order
//!
//! Float addition is not associative, so the order of the terms is part
//! of the output. Every entry point sums each item's terms over its
//! peer raters **in ascending user id**, starting from `0.0`. Two shapes
//! reach that order:
//!
//! * **Rater-side** (one item: [`predict`](RelevancePredictor::predict),
//!   [`predict_prepared`](RelevancePredictor::predict_prepared)): walk
//!   the item's column `U(i)`, which ascends by user id, and probe a
//!   peer lookup. Cost `|U(i)|` per item.
//! * **Peer-side** (many items:
//!   [`predict_many`](RelevancePredictor::predict_many) and the group
//!   pass of [`predictions`](crate::predictions)): walk the peers in
//!   ascending id, clear the dense per-item accumulators with one fill
//!   of the item space, scatter each whole peer row into them and read
//!   the candidates out once. Filtering `U(i)` to the peers visits the
//!   same peers in the same order as walking the peers by ascending id,
//!   and each accumulator starts at `0.0` and *adds* its first term, so
//!   each item sees exactly the rater-side's `0.0 + t₁ + t₂ + …`. Cost
//!   one fill of the item space, `Σ_{p ∈ P_u} |I(p)|` scatter updates
//!   and one read per candidate, on the calling thread.
//!
//! An earlier peer-side path disagreed with the rater-side in the last
//! ulp because it walked the peers in *list* order (descending
//! similarity), a different addition order. Sorting the peers by id is
//! what makes the two shapes the same function; the property tests pin
//! them against each other bit for bit.

use fairrec_similarity::Peers;
use fairrec_types::{ItemId, RatingMatrix, RatingsRead, Relevance, ScoredItem, TopK, UserId};
use std::cell::RefCell;
use std::collections::HashMap;

/// A peer list preprocessed for repeated single-item Equation 1
/// evaluations: the peer → similarity lookup that `predict` builds
/// internally, made reusable across items (one allocation per peer
/// list instead of one per prediction).
#[derive(Debug, Clone, Default)]
pub struct PreparedPeers {
    peer_sim: HashMap<UserId, f64>,
}

impl PreparedPeers {
    /// Builds the lookup from a peer list.
    pub fn new(peers: &Peers) -> Self {
        Self {
            peer_sim: peers.iter().copied().collect(),
        }
    }
}

/// Dense item-indexed Equation 1 accumulators for the peer-side
/// scatter, one per thread and reused across calls, so a pass allocates
/// nothing once the scratch has grown to the item space.
#[derive(Debug, Default)]
struct Scatter {
    num: Vec<f64>,
    den: Vec<f64>,
}

thread_local! {
    static SCATTER: RefCell<Scatter> = RefCell::new(Scatter::default());
}

/// `peers` ascending by id with duplicate ids collapsed, the last entry
/// winning — the same peer set the rater-side lookup map holds.
pub(crate) fn by_ascending_id(peers: &[(UserId, f64)]) -> Vec<(UserId, f64)> {
    let mut sorted = peers.to_vec();
    // Stable, so each run of one id keeps its list order.
    sorted.sort_by_key(|&(peer, _)| peer);
    sorted.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = next.1;
        }
        same
    });
    sorted
}

/// Predicts Equation 1 scores against a rating relation.
///
/// Generic over [`RatingsRead`], so the same summation serves the
/// monolithic [`RatingMatrix`] and the sharded store (whose rows are
/// owner-local and whose columns arrive through the owner-routed S-way
/// merge — same order, same bits). The default type parameter keeps the
/// common `RelevancePredictor::new(&matrix)` call sites unchanged.
#[derive(Debug, Clone, Copy)]
pub struct RelevancePredictor<'a, R: RatingsRead + ?Sized = RatingMatrix> {
    matrix: &'a R,
}

impl<'a, R: RatingsRead + ?Sized> RelevancePredictor<'a, R> {
    /// Creates a predictor over `matrix`.
    pub fn new(matrix: &'a R) -> Self {
        Self { matrix }
    }

    /// The underlying rating relation.
    pub fn matrix(&self) -> &'a R {
        self.matrix
    }

    /// Predicts `relevance(u, i)` for one item, given `u`'s peer list.
    ///
    /// `peers` comes from
    /// [`PeerSelector`](fairrec_similarity::PeerSelector); the user itself
    /// is never in it.
    ///
    /// Sums rater-side: over the item's raters in ascending id, probing
    /// the peer set — for one item the cheaper shape. That is the same
    /// order [`predict_many`](Self::predict_many) reaches from
    /// the peer side (see the module docs), so the same `(peers, item)`
    /// always produces the same bits through every entry point.
    ///
    /// Builds the peer lookup afresh each call; loops evaluating many
    /// items for one peer list should build [`PreparedPeers`] once and
    /// use [`predict_prepared`](Self::predict_prepared), or score them
    /// all at once with [`predict_many`](Self::predict_many).
    pub fn predict(&self, peers: &Peers, item: ItemId) -> Option<Relevance> {
        self.predict_prepared(&PreparedPeers::new(peers), item)
    }

    /// Like [`predict`](Self::predict) over a prebuilt peer lookup —
    /// same summation, same bits, without the per-call map construction.
    pub fn predict_prepared(&self, peers: &PreparedPeers, item: ItemId) -> Option<Relevance> {
        let mut num = 0.0;
        let mut den = 0.0;
        self.matrix.for_each_rater(item, &mut |rater, r| {
            if let Some(&sim) = peers.peer_sim.get(&rater) {
                num += sim * r;
                den += sim;
            }
        });
        (den > 0.0).then(|| num / den)
    }

    /// Predicts over a candidate slice, preserving order; `None` entries
    /// mark undefined predictions. Scores peer-side: each peer's row is
    /// scattered into dense per-item accumulators, so a call costs the
    /// peers' ratings, not every rater of every candidate. The group
    /// pass ([`compute_group_predictions_from_peers`]) scores through
    /// the same scatter; this entry is the single-member form and the
    /// oracle the rater-side sum pins.
    ///
    /// [`compute_group_predictions_from_peers`]:
    ///     crate::predictions::compute_group_predictions_from_peers
    pub fn predict_many(&self, peers: &Peers, candidates: &[ItemId]) -> Vec<Option<Relevance>> {
        self.scatter(&by_ascending_id(peers), candidates, |_, _| {})
    }

    /// The peer-side Equation 1 over `candidates`, given peers ascending
    /// by distinct id: the thread's scratch cleared over the item space,
    /// every peer row accumulated into it, then read out once in
    /// candidate order — `visit(j, score)` sees each candidate's score as
    /// it is read.
    pub(crate) fn scatter(
        &self,
        peers: &[(UserId, f64)],
        candidates: &[ItemId],
        mut visit: impl FnMut(usize, Option<Relevance>),
    ) -> Vec<Option<Relevance>> {
        let n_items = self.matrix.num_items() as usize;
        SCATTER.with(|scratch| {
            let Scatter { num, den } = &mut *scratch.borrow_mut();
            if num.len() < n_items {
                num.resize(n_items, 0.0);
                den.resize(n_items, 0.0);
            }
            // Every slot starts at 0.0 and *adds* its first term, exactly
            // as the rater-side sum does (0.0 + -0.0 is 0.0). The clear
            // is a branch-free fill of the item space: re-zeroing only
            // the slots the rows touched, a second pass over the rows,
            // measured slower on both perfbench cohorts.
            num[..n_items].fill(0.0);
            den[..n_items].fill(0.0);
            for &(peer, sim) in peers {
                let (items, scores) = self.matrix.ratings_row(peer);
                for (&item, &r) in items.iter().zip(scores) {
                    num[item.index()] += sim * r;
                    den[item.index()] += sim;
                }
            }
            // An untouched slot reads den 0.0, hence `None`, as the
            // rater-side sum over no peers does; so does an item past the
            // item space.
            candidates
                .iter()
                .enumerate()
                .map(|(j, &item)| {
                    let score = (item.index() < n_items && den[item.index()] > 0.0)
                        .then(|| num[item.index()] / den[item.index()]);
                    visit(j, score);
                    score
                })
                .collect()
        })
    }

    /// The top-k list `A_u` (§III-A) over `candidates`.
    pub fn top_k(&self, peers: &Peers, candidates: &[ItemId], k: usize) -> Vec<ScoredItem> {
        let mut top = TopK::new(k);
        for (item, score) in candidates
            .iter()
            .zip(self.predict_many(peers, candidates))
            .filter_map(|(&i, s)| s.map(|s| (i, s)))
        {
            top.push(item, score);
        }
        top.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_types::RatingMatrixBuilder;

    fn matrix(rows: &[(u32, u32, f64)]) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for &(u, i, s) in rows {
            b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
        }
        b.build().unwrap()
    }

    fn peers(list: &[(u32, f64)]) -> Peers {
        list.iter().map(|&(u, s)| (UserId::new(u), s)).collect()
    }

    #[test]
    fn equation_1_hand_computed() {
        // Peers u1 (sim .8, rated 5) and u2 (sim .4, rated 2); u3 rated but
        // is not a peer.
        let m = matrix(&[(1, 0, 5.0), (2, 0, 2.0), (3, 0, 1.0)]);
        let p = peers(&[(1, 0.8), (2, 0.4)]);
        let r = RelevancePredictor::new(&m)
            .predict(&p, ItemId::new(0))
            .unwrap();
        let expected = (0.8 * 5.0 + 0.4 * 2.0) / (0.8 + 0.4);
        assert!((r - expected).abs() < 1e-12);
    }

    #[test]
    fn prediction_is_a_convex_combination() {
        let m = matrix(&[(1, 0, 2.0), (2, 0, 5.0)]);
        let p = peers(&[(1, 0.9), (2, 0.1)]);
        let r = RelevancePredictor::new(&m)
            .predict(&p, ItemId::new(0))
            .unwrap();
        assert!((2.0..=5.0).contains(&r));
        // Heavier weight pulls toward that peer's rating.
        assert!(r < 3.0);
    }

    #[test]
    fn undefined_when_no_peer_rated() {
        let m = matrix(&[(3, 0, 4.0)]);
        let p = peers(&[(1, 0.8), (2, 0.4)]);
        assert_eq!(
            RelevancePredictor::new(&m).predict(&p, ItemId::new(0)),
            None
        );
        assert_eq!(
            RelevancePredictor::new(&m).predict(&peers(&[]), ItemId::new(0)),
            None
        );
    }

    #[test]
    fn undefined_on_nonpositive_similarity_mass() {
        let m = matrix(&[(1, 0, 5.0), (2, 0, 1.0)]);
        // Negative-δ regime admitting anti-correlated "peers".
        let p = peers(&[(1, -0.5), (2, 0.5)]);
        assert_eq!(
            RelevancePredictor::new(&m).predict(&p, ItemId::new(0)),
            None
        );
    }

    #[test]
    fn single_and_batch_paths_agree_bitwise() {
        // Small peer list vs. large rater set and vice versa: the
        // rater-side `predict` and the peer-side `predict_many` must be
        // bit-for-bit identical for every shape.
        let mut rows = vec![(0u32, 0u32, 3.0)];
        for u in 1..40 {
            rows.push((u, 0, f64::from(u % 5) + 1.0));
        }
        let m = matrix(&rows);
        let small = peers(&[(1, 0.5), (2, 0.5)]);
        let big: Peers = (1..40).map(|u| (UserId::new(u), 0.1)).collect();
        let pred = RelevancePredictor::new(&m);
        for p in [&small, &big] {
            let one = pred.predict(p, ItemId::new(0)).unwrap();
            let many = pred.predict_many(p, &[ItemId::new(0)])[0].unwrap();
            assert_eq!(one.to_bits(), many.to_bits());
        }
    }

    #[test]
    fn duplicate_peers_keep_the_last_similarity() {
        let m = matrix(&[(1, 0, 5.0), (2, 0, 1.0)]);
        // u1 listed twice: the later 0.9 wins, as in the rater-side
        // lookup map.
        let p = peers(&[(1, 0.1), (2, 0.5), (1, 0.9)]);
        let pred = RelevancePredictor::new(&m);
        let expected = (0.5 * 1.0 + 0.9 * 5.0) / (0.5 + 0.9);
        assert_eq!(
            pred.predict_many(&p, &[ItemId::new(0)]),
            vec![Some(expected)]
        );
        assert_eq!(pred.predict(&p, ItemId::new(0)), Some(expected));
    }

    #[test]
    fn predict_many_preserves_order_and_gaps() {
        let m = matrix(&[(1, 0, 5.0), (1, 2, 3.0)]);
        let p = peers(&[(1, 1.0)]);
        let out = RelevancePredictor::new(&m)
            .predict_many(&p, &[ItemId::new(2), ItemId::new(1), ItemId::new(0)]);
        assert_eq!(out, vec![Some(3.0), None, Some(5.0)]);
    }

    #[test]
    fn top_k_returns_a_u() {
        let m = matrix(&[(1, 0, 5.0), (1, 1, 1.0), (1, 2, 4.0), (1, 3, 3.0)]);
        let p = peers(&[(1, 1.0)]);
        let candidates: Vec<ItemId> = (0..4).map(ItemId::new).collect();
        let top = RelevancePredictor::new(&m).top_k(&p, &candidates, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].item, ItemId::new(0));
        assert_eq!(top[1].item, ItemId::new(2));
    }

    #[test]
    fn top_k_skips_undefined_predictions() {
        let m = matrix(&[(1, 0, 5.0)]);
        let p = peers(&[(1, 1.0)]);
        let candidates: Vec<ItemId> = (0..5).map(ItemId::new).collect();
        let top = RelevancePredictor::new(&m).top_k(&p, &candidates, 3);
        assert_eq!(top.len(), 1, "only the predictable item qualifies");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fairrec_types::{RatingMatrixBuilder, ShardSpec, ShardedRatingMatrix};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    proptest! {
        /// Determinism contract: the single-item and batch entry points
        /// are the same function — `predict(peers, i)` equals
        /// `predict_many(peers, [i])[0]` bit for bit, for any matrix
        /// shape and peer list (both paths take the canonical rater-side
        /// summation order).
        #[test]
        fn predict_equals_predict_many_bitwise(
            ratings in proptest::collection::btree_map(
                (0u32..12, 0u32..6), 1.0f64..5.0, 1..40,
            ),
            peer_sims in proptest::collection::btree_map(0u32..12, 0.01f64..1.0, 0..12),
            item in 0u32..6,
        ) {
            let mut b = RatingMatrixBuilder::new();
            for (&(u, i), &r) in &ratings {
                b.add_raw(UserId::new(u), ItemId::new(i), r).unwrap();
            }
            let m = b.build().unwrap();
            let peers: Peers = BTreeMap::into_iter(peer_sims)
                .map(|(u, s)| (UserId::new(u), s))
                .collect();
            let pred = RelevancePredictor::new(&m);
            let item = ItemId::new(item);
            let one = pred.predict(&peers, item);
            let many = pred.predict_many(&peers, &[item])[0];
            prop_assert_eq!(one.map(f64::to_bits), many.map(f64::to_bits));
        }
    }

    /// Scores `candidates` item by item with the rater-side summation
    /// (the oracle) and checks `predict_many` against it bit for bit,
    /// twice in a row on one thread, so the second call also pins the
    /// scratch the first one left behind.
    fn agrees_with_rater_side<R: RatingsRead + ?Sized>(
        store: &R,
        peers: &Peers,
        candidates: &[ItemId],
        label: &str,
    ) -> Result<(), TestCaseError> {
        let pred = RelevancePredictor::new(store);
        let prepared = PreparedPeers::new(peers);
        let oracle: Vec<Option<u64>> = candidates
            .iter()
            .map(|&i| pred.predict_prepared(&prepared, i).map(f64::to_bits))
            .collect();
        for call in 0..2 {
            let got: Vec<Option<u64>> = pred
                .predict_many(peers, candidates)
                .into_iter()
                .map(|s| s.map(f64::to_bits))
                .collect();
            prop_assert_eq!(&got, &oracle, "{} call {}", label, call);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The peer-side scatter is the rater-side summation, bit for
        /// bit, on the monolithic matrix and on S ∈ {1, 2, 3, 8} shards:
        /// negative similarities (so `den ≤ 0` must read `None`),
        /// duplicate peer ids (the last wins), peer ids past the user
        /// space, empty peer lists, and candidates past the item space,
        /// repeated, in any order.
        #[test]
        fn scatter_matches_rater_side_oracle(
            ratings in proptest::collection::btree_map(
                (0u32..24, 0u32..40), 1.0f64..5.0, 1..200,
            ),
            peer_list in proptest::collection::vec((0u32..30, -1.0f64..1.0), 0..16),
            len in proptest::sample::select(vec![
                0, 1, 9, 60, 2600,
            ]),
            rotate in 0usize..3000,
        ) {
            let mut b = RatingMatrixBuilder::new();
            for (&(u, i), &r) in &ratings {
                b.add_raw(UserId::new(u), ItemId::new(i), r).unwrap();
            }
            let m = b.build().unwrap();
            let peers: Peers = peer_list
                .into_iter()
                .map(|(u, s)| (UserId::new(u), s))
                .collect();
            // Ascending with repeats over 0..48 (past the item space),
            // rotated so the candidates need not ascend.
            let mut candidates: Vec<ItemId> =
                (0..len).map(|k| ItemId::new((k * 48 / len.max(1)) as u32)).collect();
            if len > 0 {
                candidates.rotate_left(rotate % len);
            }
            agrees_with_rater_side(&m, &peers, &candidates, "mono")?;
            for shards in [1u32, 2, 3, 8] {
                let part =
                    ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(shards).unwrap()).unwrap();
                agrees_with_rater_side(&part, &peers, &candidates, &format!("S={shards}"))?;
            }
        }
    }
}
