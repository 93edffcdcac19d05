//! Property tests for the sharding layer: a [`ShardedPeerIndex`] over a
//! hash-partitioned [`ShardedRatingMatrix`] must be **bitwise
//! indistinguishable** from the monolithic [`PeerIndex`] for every shard
//! count in {1, 2, 3, 8} — after the per-shard-pair symmetric warm,
//! after lazy scatter-gather fills, through random interleavings of
//! insert/update/remove deltas routed to the owning shard, and across a
//! new-user growth event landing in the correct shard.

use fairrec_similarity::{
    DeltaOutcome, PeerIndex, PeerSelector, RatingsSimilarity, ShardedPeerIndex,
    ShardedRatingsSimilarity,
};
use fairrec_types::{
    ItemId, Parallelism, Rating, RatingMatrix, RatingMatrixBuilder, ShardSpec, ShardedRatingMatrix,
    UserId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const MAX_USERS: u32 = 14;
const MAX_ITEMS: u32 = 20;
const SHARD_COUNTS: [u32; 4] = [1, 2, 3, 8];

type Relation = BTreeMap<(u32, u32), f64>;

/// `(user, item, score, op-kind)` — the kind only disambiguates
/// update-vs-remove when the pair already exists; missing pairs insert.
type Op = (u32, u32, f64, u8);

fn arb_base() -> impl Strategy<Value = Relation> {
    proptest::collection::btree_map((0u32..MAX_USERS, 0u32..MAX_ITEMS), 1.0f64..=5.0, 0..120)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, s)| (k, (s * 2.0).round() / 2.0))
                .collect()
        })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..MAX_USERS, 0u32..MAX_ITEMS, 1.0f64..=5.0, 0u8..3),
        1..20,
    )
}

fn build(relation: &Relation) -> RatingMatrix {
    let mut b = RatingMatrixBuilder::new().reserve_ids(MAX_USERS, MAX_ITEMS);
    for (&(u, i), &s) in relation {
        b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
    }
    b.build().unwrap()
}

/// Asserts every user's list in `sharded` carries exactly the bits of
/// the monolithic `mono` list, plus the masked group views.
fn assert_lists_match(
    sharded: &ShardedPeerIndex,
    measure: &ShardedRatingsSimilarity<&ShardedRatingMatrix>,
    mono: &PeerIndex,
    mono_measure: &RatingsSimilarity<&RatingMatrix>,
    label: &str,
) {
    for u in (0..MAX_USERS).map(UserId::new) {
        let want = mono.full_peers(mono_measure, u);
        let got = sharded.full_peers(measure, u);
        assert_eq!(got.len(), want.len(), "{label}: user {u} peer count");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.0, w.0, "{label}: user {u} peer id");
            assert_eq!(
                g.1.to_bits(),
                w.1.to_bits(),
                "{label}: user {u}, peer {} similarity bits",
                g.0
            );
        }
    }
    let group = [UserId::new(0), UserId::new(1), UserId::new(2)];
    assert_eq!(
        sharded.group_peers(measure, &group),
        mono.group_peers(mono_measure, &group),
        "{label}: masked group views"
    );
}

/// Applies one op to the sharded matrix (owner-routed) and the shadow
/// relation; returns the affected user.
fn apply_op(sharded: &mut ShardedRatingMatrix, relation: &mut Relation, op: Op) -> UserId {
    let (u, i, s, kind) = op;
    let (user, item) = (UserId::new(u), ItemId::new(i));
    let s = (s * 2.0).round() / 2.0;
    let rating = Rating::new(s).unwrap();
    match (relation.contains_key(&(u, i)), kind) {
        (false, _) => {
            sharded.insert_rating(user, item, rating).unwrap();
            relation.insert((u, i), s);
        }
        (true, 0) => {
            sharded.remove_rating(user, item).unwrap();
            relation.remove(&(u, i));
        }
        (true, _) => {
            sharded.update_rating(user, item, rating).unwrap();
            relation.insert((u, i), s);
        }
    }
    user
}

/// Threshold / overlap / cap corners, mirroring the incremental suite.
fn selector_grid() -> Vec<(PeerSelector, usize)> {
    vec![
        (PeerSelector::new(-1.0).unwrap(), 1),
        (PeerSelector::new(0.0).unwrap(), 2),
        (PeerSelector::new(0.35).unwrap(), 3),
        (PeerSelector::new(0.0).unwrap().with_max_peers(2), 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-shard-pair symmetric warm produces, for every shard
    /// count, exactly the monolithic warm's lists.
    #[test]
    fn sharded_warm_equals_monolithic(base in arb_base()) {
        let matrix = build(&base);
        for (selector, min_overlap) in selector_grid() {
            let mono_measure = RatingsSimilarity::new(&matrix).with_min_overlap(min_overlap);
            let mono = PeerIndex::new(selector, MAX_USERS);
            mono.warm_symmetric(&mono_measure, Parallelism::Sequential);
            for shards in SHARD_COUNTS {
                let part = ShardedRatingMatrix::from_matrix(
                    &matrix,
                    ShardSpec::new(shards).unwrap(),
                )
                .unwrap();
                let measure =
                    ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap);
                let index = ShardedPeerIndex::new(selector, part.spec(), MAX_USERS);
                prop_assert_eq!(
                    index.warm_symmetric(&measure, Parallelism::Sequential),
                    MAX_USERS as usize
                );
                assert_lists_match(&index, &measure, &mono, &mono_measure, &format!("S={shards}"));
            }
        }
    }

    /// Lazy scatter-gather fills (no warm at all) agree with the
    /// monolithic lazy path list-for-list.
    #[test]
    fn lazy_fills_equal_monolithic(base in arb_base(), shards_idx in 0usize..SHARD_COUNTS.len()) {
        let matrix = build(&base);
        let shards = SHARD_COUNTS[shards_idx];
        let (selector, min_overlap) = (PeerSelector::new(0.0).unwrap(), 2);
        let mono_measure = RatingsSimilarity::new(&matrix).with_min_overlap(min_overlap);
        let mono = PeerIndex::new(selector, MAX_USERS);
        let part =
            ShardedRatingMatrix::from_matrix(&matrix, ShardSpec::new(shards).unwrap()).unwrap();
        let measure = ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap);
        let index = ShardedPeerIndex::new(selector, part.spec(), MAX_USERS);
        assert_lists_match(&index, &measure, &mono, &mono_measure, &format!("lazy S={shards}"));
    }

    /// A warm sharded index maintained by owner-routed deltas stays
    /// bitwise equal to a cold monolithic rebuild over the final data —
    /// the sharded form of the update-path contract.
    #[test]
    fn sharded_deltas_equal_cold_rebuild(
        base in arb_base(),
        ops in arb_ops(),
        shards_idx in 0usize..SHARD_COUNTS.len(),
    ) {
        let shards = SHARD_COUNTS[shards_idx];
        for (selector, min_overlap) in selector_grid() {
            let mut relation = base.clone();
            let mut part = ShardedRatingMatrix::from_matrix(
                &build(&relation),
                ShardSpec::new(shards).unwrap(),
            )
            .unwrap();
            let index = ShardedPeerIndex::new(selector, part.spec(), MAX_USERS);
            index.warm_symmetric(
                &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
                Parallelism::Sequential,
            );
            for &op in &ops {
                let user = UserId::new(op.0);
                index.prepare_delta(
                    &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
                    user,
                );
                let user = apply_op(&mut part, &mut relation, op);
                let report = index.apply_delta(
                    &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
                    user,
                );
                prop_assert!(
                    matches!(report, DeltaOutcome::Spliced { .. }),
                    "warm sharded index must splice exactly, got {:?}",
                    report
                );
            }
            let final_matrix = build(&relation);
            let mono_measure =
                RatingsSimilarity::new(&final_matrix).with_min_overlap(min_overlap);
            let mono = PeerIndex::new(selector, MAX_USERS);
            mono.warm_symmetric(&mono_measure, Parallelism::Sequential);
            let measure = ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap);
            assert_lists_match(
                &index,
                &measure,
                &mono,
                &mono_measure,
                &format!("deltas S={shards}"),
            );
        }
    }

    /// A brand-new user's first rating grows the universe in place: the
    /// slot lands in the correct owning shard, existing warm lists
    /// survive, and everything still matches the monolithic oracle.
    #[test]
    fn new_user_growth_lands_in_the_owning_shard(
        base in arb_base(),
        shards_idx in 0usize..SHARD_COUNTS.len(),
        item in 0u32..MAX_ITEMS,
    ) {
        let shards = SHARD_COUNTS[shards_idx];
        let (selector, min_overlap) = (PeerSelector::new(0.0).unwrap(), 2);
        let mut relation = base.clone();
        let mut part = ShardedRatingMatrix::from_matrix(
            &build(&relation),
            ShardSpec::new(shards).unwrap(),
        )
        .unwrap();
        let index = ShardedPeerIndex::new(selector, part.spec(), MAX_USERS);
        index.warm_symmetric(
            &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
            Parallelism::Sequential,
        );
        let cached_before = index.num_cached();

        // The engine's growth discipline: grow in place, pre-cache (the
        // new user's empty list), mutate, delta.
        let newcomer = UserId::new(MAX_USERS);
        let index = index.grow_universe(MAX_USERS + 1);
        prop_assert_eq!(index.num_cached(), cached_before, "warm lists survive growth");
        index.prepare_delta(
            &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
            newcomer,
        );
        part.insert_rating(newcomer, ItemId::new(item), Rating::new(4.0).unwrap())
            .unwrap();
        relation.insert((MAX_USERS, item), 4.0);
        let report = index.apply_delta(
            &ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap),
            newcomer,
        );
        let spliced = matches!(report, DeltaOutcome::Spliced { .. });
        prop_assert!(spliced, "expected an exact splice, got {:?}", report);
        // The serving slot lives in the hash-assigned owning shard.
        prop_assert_eq!(index.shard_of(newcomer), part.spec().shard_of(newcomer));
        prop_assert!(index.cached_full(newcomer).is_some());

        let mut b = RatingMatrixBuilder::new().reserve_ids(MAX_USERS + 1, MAX_ITEMS);
        for (&(u, i), &s) in &relation {
            b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
        }
        let final_matrix = b.build().unwrap();
        let mono_measure = RatingsSimilarity::new(&final_matrix).with_min_overlap(min_overlap);
        let mono = PeerIndex::new(selector, MAX_USERS + 1);
        mono.warm_symmetric(&mono_measure, Parallelism::Sequential);
        let measure = ShardedRatingsSimilarity::new(&part).with_min_overlap(min_overlap);
        for u in (0..=MAX_USERS).map(UserId::new) {
            let want = mono.full_peers(&mono_measure, u);
            let got = index.full_peers(&measure, u);
            prop_assert_eq!(got.len(), want.len(), "user {} peer count", u);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }
}
