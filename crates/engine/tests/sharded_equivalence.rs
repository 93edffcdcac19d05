//! Engine ↔ monolithic-oracle equivalence pins.
//!
//! The engine has one store and one index — `S` compacted user shards,
//! `S = 1` by default — and keeps **no monolithic copy** of the rating
//! relation: reads are owner-routed across per-shard compacted
//! matrices, peer lists come off per-shard indexes over owned-user
//! universes, and ingest mutates only the owning shard. These tests pin
//! the contract that makes that safe:
//!
//! * for random operation streams (point ingests, removals, batch
//!   ingests, mid-stream warms, group and single-user serving), an
//!   engine at every S ∈ {None, 1, 2, 3, 8} serves **bitwise** what
//!   fairrec-core's one-shot monolithic path computes over a
//!   [`RatingMatrix`] rebuilt from the stream's relation
//!   (`compute_group_predictions` → `recommend_from_predictions`,
//!   `single_user_top_k`, `PeerIndex::warm_symmetric` lists), including
//!   new-user growth mid-stream and `max_peers`-capped configurations
//!   (where the capped splice rules and saturation degrades must agree
//!   too);
//! * the per-shard metadata really is O(U/S): shard universes partition
//!   the global id space, and no shard's user-axis footprint approaches
//!   the monolithic one.

use fairrec_core::group::Group;
use fairrec_core::predictions::{compute_group_predictions, GroupPredictionConfig};
use fairrec_core::recommend::single_user_top_k;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_engine::{EngineConfig, RecommenderEngine};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_similarity::{PeerIndex, PeerSelector, RatingsSimilarity};
use fairrec_types::{GroupId, ItemId, Parallelism, RatingMatrix, UserId};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

const NUM_USERS: u32 = 32;
const NUM_ITEMS: u32 = 60;
const SHARD_COUNTS: [Option<u32>; 5] = [None, Some(1), Some(2), Some(3), Some(8)];

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(
        SyntheticConfig {
            num_users: NUM_USERS,
            num_items: NUM_ITEMS,
            num_communities: 4,
            ratings_per_user: 12,
            seed: 23,
            ..Default::default()
        },
        &clinical_fragment(),
    )
    .unwrap()
}

fn engine_with(num_shards: Option<u32>, max_peers: Option<usize>) -> RecommenderEngine {
    let data = dataset();
    RecommenderEngine::new(
        data.matrix,
        data.profiles,
        clinical_fragment(),
        EngineConfig {
            num_shards,
            max_peers,
            ..Default::default()
        },
    )
    .unwrap()
}

fn engine(num_shards: Option<u32>) -> RecommenderEngine {
    engine_with(num_shards, None)
}

/// The one-shot monolithic path of fairrec-core over a [`RatingMatrix`]
/// rebuilt from an engine's `to_triples()`, configured like the engine.
struct Oracle {
    matrix: RatingMatrix,
    selector: PeerSelector,
}

impl Oracle {
    fn of(engine: &RecommenderEngine) -> Self {
        let mut selector = PeerSelector::new(engine.config().delta).unwrap();
        if let Some(cap) = engine.config().max_peers {
            selector = selector.with_max_peers(cap);
        }
        Self {
            matrix: engine.ratings().to_monolithic().unwrap(),
            selector,
        }
    }

    fn measure(&self) -> RatingsSimilarity<&RatingMatrix> {
        RatingsSimilarity::new(&self.matrix).with_min_overlap(EngineConfig::default().min_overlap)
    }

    fn predictions(&self, group: &Group) -> fairrec_core::predictions::GroupPredictions {
        let defaults = EngineConfig::default();
        let config = GroupPredictionConfig {
            aggregation: defaults.aggregation,
            missing: defaults.missing,
        };
        compute_group_predictions(&self.matrix, &self.measure(), &self.selector, group, config)
            .unwrap()
    }

    fn user_top_k(&self, user: UserId, k: usize) -> Vec<fairrec_types::ScoredItem> {
        single_user_top_k(&self.matrix, &self.measure(), &self.selector, user, k).unwrap()
    }

    /// Every user's full list from a cold symmetric warm.
    fn warm_index(&self) -> PeerIndex {
        let index = PeerIndex::new(self.selector, self.matrix.num_users());
        index.warm_symmetric(&self.measure(), Parallelism::Sequential);
        index
    }
}

/// One step of the random serving-plus-ingestion stream.
#[derive(Debug, Clone)]
enum Op {
    /// `ingest_rating` — users can exceed the seeded universe, so the
    /// stream exercises in-place growth too.
    Ingest { user: u32, item: u32, score: f64 },
    /// `remove_rating` — shrinks through the delta machinery; misses
    /// must fail identically on every engine.
    Remove { user: u32, item: u32 },
    /// `ingest_ratings` (batch rebuild path).
    IngestBatch(Vec<(u32, u32, f64)>),
    /// Mid-stream symmetric warm on every engine.
    Warm,
    /// `recommend_for_group`, compared bitwise across engines.
    Group { members: Vec<u32>, z: usize },
    /// `recommend_for_user`, compared bitwise across engines.
    User { user: u32, k: usize },
}

fn score_strategy() -> impl Strategy<Value = f64> {
    // Half-steps in [1, 5]: always valid, and exercises distinct values.
    (2u32..=10).prop_map(|s| f64::from(s) / 2.0)
}

fn rating_strategy() -> impl Strategy<Value = (u32, u32, f64)> {
    (0..NUM_USERS + 4, 0..NUM_ITEMS + 4, score_strategy())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice over the op kinds (the shim has no `prop_oneof!`):
    // 0–1 point ingest, 2 removal, 3 batch ingest, 4 warm, 5–7 group,
    // 8–9 user.
    (0u32..10).prop_flat_map(|kind| -> BoxedStrategy<Op> {
        match kind {
            0..=1 => rating_strategy()
                .prop_map(|(user, item, score)| Op::Ingest { user, item, score })
                .boxed(),
            2 => (0..NUM_USERS, 0..NUM_ITEMS)
                .prop_map(|(user, item)| Op::Remove { user, item })
                .boxed(),
            3 => proptest::collection::vec(rating_strategy(), 1..6)
                .prop_map(Op::IngestBatch)
                .boxed(),
            4 => Just(Op::Warm).boxed(),
            5..=7 => (proptest::collection::vec(0..NUM_USERS, 1..5), 2usize..8)
                .prop_map(|(mut members, z)| {
                    members.sort_unstable();
                    members.dedup();
                    Op::Group { members, z }
                })
                .boxed(),
            _ => (0..NUM_USERS, 1usize..8)
                .prop_map(|(user, k)| Op::User { user, k })
                .boxed(),
        }
    })
}

fn group_of(members: &[u32], id: u32) -> Group {
    Group::new(GroupId::new(id), members.iter().copied().map(UserId::new)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole pin: engines at every shard count consume the same
    /// operation stream and must never disagree with the one-shot
    /// monolithic oracle over the stream's relation — not in ingest or
    /// removal outcomes, not in any served result, not in the peer
    /// lists, not in the final batch APIs. `cap` additionally runs the
    /// whole stream under a `max_peers` cap, where the pre-capped
    /// cache, the capped splice rules, and the saturation degrades must
    /// also agree bitwise.
    #[test]
    fn sharded_engines_match_monolithic_bitwise(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        cap in 0usize..4,
    ) {
        let max_peers = [None, Some(2), Some(3), Some(5)][cap];
        let mut engines: Vec<RecommenderEngine> =
            SHARD_COUNTS.iter().map(|&s| engine_with(s, max_peers)).collect();
        let mut groups: Vec<Group> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Ingest { user, item, score } => {
                    let (user, item) = (UserId::new(*user), ItemId::new(*item));
                    let reports: Vec<_> = engines
                        .iter_mut()
                        .map(|e| e.ingest_rating(user, item, *score).unwrap().op)
                        .collect();
                    for (got, s) in reports.iter().zip(SHARD_COUNTS) {
                        prop_assert_eq!(got, &reports[0], "step {}: S={:?}", step, s);
                    }
                }
                Op::Remove { user, item } => {
                    let (user, item) = (UserId::new(*user), ItemId::new(*item));
                    let outcomes: Vec<_> = engines
                        .iter_mut()
                        .map(|e| e.remove_rating(user, item).ok().map(|r| r.op))
                        .collect();
                    for (got, s) in outcomes.iter().zip(SHARD_COUNTS) {
                        prop_assert_eq!(got, &outcomes[0], "step {}: S={:?}", step, s);
                    }
                }
                Op::IngestBatch(batch) => {
                    let triples: Vec<(UserId, ItemId, f64)> = batch
                        .iter()
                        .map(|&(u, i, s)| (UserId::new(u), ItemId::new(i), s))
                        .collect();
                    let reports: Vec<_> = engines
                        .iter_mut()
                        .map(|e| e.ingest_ratings(triples.iter().copied()).unwrap())
                        .collect();
                    for (got, s) in reports.iter().zip(SHARD_COUNTS) {
                        prop_assert_eq!(got, &reports[0], "step {}: S={:?}", step, s);
                    }
                }
                Op::Warm => {
                    for (engine, s) in engines.iter().zip(SHARD_COUNTS) {
                        let oracle = Oracle::of(engine).warm_index();
                        engine.warm_peer_index();
                        for u in (0..engine.ratings().num_users()).map(UserId::new) {
                            let served = engine.peer_index().full_peers(engine.measure(), u);
                            prop_assert_eq!(
                                Some(served),
                                oracle.cached_full(u),
                                "step {}: S={:?}, peer list of {}", step, s, u
                            );
                        }
                    }
                }
                Op::Group { members, z } => {
                    let g = group_of(members, step as u32);
                    for (engine, s) in engines.iter().zip(SHARD_COUNTS) {
                        let predictions = Oracle::of(engine).predictions(&g);
                        let expected = engine.recommend_from_predictions(&g, &predictions, *z).unwrap();
                        let got = engine.recommend_for_group(&g, *z).unwrap();
                        prop_assert_eq!(&got, &expected, "step {}: S={:?}", step, s);
                    }
                    groups.push(g);
                }
                Op::User { user, k } => {
                    let user = UserId::new(*user);
                    for (engine, s) in engines.iter().zip(SHARD_COUNTS) {
                        let expected = Oracle::of(engine).user_top_k(user, *k);
                        let got = engine.recommend_for_user(user, *k).unwrap();
                        prop_assert_eq!(&got, &expected, "step {}: S={:?}", step, s);
                    }
                }
            }
        }

        // The relation itself must have converged identically: the store
        // is the only copy, so compare via the canonical triple dump.
        for (engine, s) in engines.iter().zip(SHARD_COUNTS) {
            prop_assert_eq!(
                engine.ratings().to_triples(), engines[0].ratings().to_triples(), "S={:?}", s
            );
        }

        // Batch serving funnels: same groups, one call, per-request
        // results bitwise equal to the oracle's predictions served.
        for (engine, s) in engines.iter().zip(SHARD_COUNTS) {
            let oracle = Oracle::of(engine);
            let served = |z| -> Vec<_> {
                groups
                    .iter()
                    .map(|g| engine.recommend_from_predictions(g, &oracle.predictions(g), z).unwrap())
                    .collect()
            };
            prop_assert_eq!(
                &engine.recommend_batch(&groups, 5).unwrap(), &served(5), "recommend_batch S={:?}", s
            );
            let requests: Vec<(Group, usize)> = groups.iter().map(|g| (g.clone(), 4)).collect();
            let got: Vec<_> =
                engine.recommend_requests(&requests).into_iter().map(Result::unwrap).collect();
            prop_assert_eq!(&got, &served(4), "recommend_requests S={:?}", s);
        }
    }
}

/// The compaction pin: per-shard state is sized by **owned** users, not
/// by the global universe. Shard universes partition the id space, each
/// shard's peer-index slots cover exactly its owned users, and no
/// single shard's user-axis bytes approach the monolithic axis.
#[test]
fn sharded_metadata_is_owned_sized_not_global_sized() {
    let e = engine(Some(8));
    let n = e.ratings().num_users();
    let store = e.ratings();
    let index = e.peer_index();

    let universes = index.shard_universes();
    assert_eq!(universes.len(), 8);
    assert_eq!(
        universes.iter().sum::<u32>(),
        n,
        "shard universes must partition the global id space"
    );
    let per_shard = (n as usize).div_ceil(8);
    for (s, &len) in universes.iter().enumerate() {
        assert_eq!(
            len as usize,
            store.users_of_shard(s).len(),
            "shard {s}: index universe must equal the owned-user list"
        );
        assert!(
            (len as usize) <= 3 * per_shard,
            "shard {s}: universe {len} is not O(U/S) of U={n}"
        );
    }
    // An `IngestOp`-style growth keeps the partition exact.
    let mut e = e;
    let grown = n + 3;
    e.ingest_rating(UserId::new(grown - 1), ItemId::new(0), 3.0)
        .unwrap();
    assert_eq!(
        e.peer_index().shard_universes().iter().sum::<u32>(),
        grown,
        "growth must stay a partition"
    );

    // Memory: the largest shard's user axis is a fraction of the
    // monolithic axis (≈ 20·U/S + c vs 16·U + c bytes).
    let store = e.ratings();
    let mono_axis = store.to_monolithic().unwrap().user_axis_bytes();
    assert!(
        store.max_shard_user_axis_bytes() * 2 < mono_axis,
        "largest shard axis {} must be well under the monolithic axis {}",
        store.max_shard_user_axis_bytes(),
        mono_axis
    );
}
