//! The parallel prediction pipeline must be **bitwise identical** to the
//! sequential path: every parallel loop in the workspace is an
//! order-preserving map with a fixed (sequential) aggregation order, so
//! no float result may depend on thread count or scheduling.

use fairrec::core::predictions::{
    compute_group_predictions, compute_group_predictions_from_peers, GroupPredictionConfig,
    GroupPredictions,
};
use fairrec::core::{Aggregation, CandidatePool, Group, MissingPolicy};
use fairrec::prelude::*;
use fairrec::similarity::PeerIndex;
use fairrec::types::Parallelism;
use proptest::prelude::*;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 60,
            // A sparse item space: a group leaves thousands of items
            // unrated, most of them covered by no member's peers.
            num_items: 2600,
            num_communities: 3,
            ratings_per_user: 20,
            seed,
            ..Default::default()
        },
        &fairrec::ontology::snomed::clinical_fragment(),
    )
    .unwrap()
}

/// Groups of 2 to 6 members sampled from `data`, one per seed offset:
/// groups of different sizes leave different candidate sets, so a
/// worker's reused scatter scratch meets a new shape on every task.
fn groups(data: &SyntheticDataset, seed: u64) -> Vec<Group> {
    (0..6)
        .map(|g| {
            let members = data.sample_group(2 + g as usize % 5, None, seed + g);
            Group::new(GroupId::new(g as u32), members).unwrap()
        })
        .collect()
}

const MODES: [Parallelism; 4] = [
    Parallelism::Rayon,
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The group pass with its `A_u` lists (peers → Equation 1 →
    /// Definition 2 → `A_u`) runs on the thread that serves the request,
    /// reusing that thread's scatter scratch. Fanned out over groups in
    /// every parallelism mode, as a batch fans out its requests, it gives
    /// the bits of a sequential loop under both missing policies, and the
    /// lists the pass hands the pool equal the ones the pool computes
    /// itself.
    #[test]
    fn group_pass_is_bitwise_stable_across_modes(seed in 0u64..500, delta in -0.5f64..0.8) {
        let data = dataset(seed);
        let measure = RatingsSimilarity::new(&data.matrix);
        let selector = PeerSelector::new(delta).unwrap();
        let groups = groups(&data, seed);
        let index = PeerIndex::new(selector, data.matrix.num_users());
        let k = 10;
        for missing in [MissingPolicy::Skip, MissingPolicy::Pessimistic] {
            let pass = |group: &Group| {
                compute_group_predictions_from_peers(
                    &data.matrix,
                    index.group_peers(&measure, group.members()),
                    group,
                    GroupPredictionConfig { aggregation: Aggregation::Average, missing },
                    Some(k),
                )
                .unwrap()
            };
            let sequential: Vec<GroupPredictions> = groups.iter().map(pass).collect();
            // The pass's lists (the pool's memo) and, next to them, the
            // lists the pool's kernel computes afresh from the rows.
            let lists = |p: &GroupPredictions| match CandidatePool::from_predictions(p, None) {
                Ok(pool) => (
                    pool.top_k_lists(k).into_owned(),
                    (0..pool.num_members()).map(|m| pool.top_k_positions(m, k)).collect(),
                ),
                Err(_) => (Vec::new(), Vec::new()),
            };
            let expected: Vec<Vec<Vec<usize>>> = sequential
                .iter()
                .map(|p| {
                    let (memo, recomputed): (Vec<Vec<usize>>, Vec<Vec<usize>>) = lists(p);
                    assert_eq!(memo, recomputed, "{missing:?}");
                    memo
                })
                .collect();
            for mode in MODES {
                let parallel = mode.map(groups.iter().collect(), pass);
                // Option<f64> equality is bit-for-bit here: scores come
                // out of identical arithmetic on identical inputs in
                // identical order.
                prop_assert_eq!(&parallel, &sequential, "{:?} {:?}", mode, missing);
                let got: Vec<_> = parallel.iter().map(|p| lists(p).0).collect();
                prop_assert_eq!(&got, &expected, "{:?} {:?}", mode, missing);
            }
        }
    }

    /// The full prediction phase (peers → Equation 1 → Definition 2),
    /// fanned out over groups: same bits in every parallelism mode.
    #[test]
    fn group_predictions_are_bitwise_stable_across_modes(seed in 0u64..500) {
        let data = dataset(seed);
        let measure = RatingsSimilarity::new(&data.matrix);
        let selector = PeerSelector::new(0.0).unwrap();
        let groups = groups(&data, seed);
        let predict = |group: &Group| {
            compute_group_predictions(
                &data.matrix, &measure, &selector, group, GroupPredictionConfig::default(),
            ).unwrap()
        };
        let sequential: Vec<GroupPredictions> = groups.iter().map(predict).collect();
        for mode in MODES {
            let parallel = mode.map(groups.iter().collect(), predict);
            prop_assert_eq!(&parallel, &sequential, "{:?}", mode);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Nested parallelism under a `Threads(1)` pin: the outer map *and*
    /// every nested `par_iter` inside it stay on the calling thread, and
    /// the scores are bitwise-equal to a fully sequential run. (Before
    /// the worker-pool executor, a pin did not propagate into spawned
    /// workers, so nested calls could silently fan out to machine
    /// parallelism.)
    #[test]
    fn threads1_nested_par_iter_stays_single_threaded(len in 1usize..80, scale in 0.5f64..2.0) {
        use rayon::prelude::*;
        let caller = std::thread::current().id();
        let input: Vec<u32> = (0..len as u32).collect();
        let work = |x: u32| -> Vec<(f64, std::thread::ThreadId)> {
            (0..x % 17 + 1)
                .into_par_iter()
                .map(|y| {
                    (
                        (f64::from(x) * scale + f64::from(y)).sqrt(),
                        std::thread::current().id(),
                    )
                })
                .collect()
        };
        let pinned = Parallelism::Threads(1).map(input.clone(), work);
        let sequential = Parallelism::Sequential.map(input, work);
        prop_assert_eq!(pinned.len(), sequential.len());
        for (p_row, s_row) in pinned.iter().zip(&sequential) {
            prop_assert_eq!(p_row.len(), s_row.len());
            for (&(p, p_id), &(s, _)) in p_row.iter().zip(s_row) {
                prop_assert_eq!(p.to_bits(), s.to_bits(), "bitwise-equal to Sequential");
                prop_assert_eq!(p_id, caller, "Threads(1) must stay on the calling thread");
            }
        }
    }
}

/// The pin must propagate into pool *workers*, not just the installing
/// thread: a barrier across as many items as the pool has threads forces
/// the chunks onto distinct threads (at most one of them the caller), so
/// most observations genuinely come from inside workers. The pool width
/// is deliberately different from the machine's parallelism — the value
/// an unpinned worker would report.
#[test]
fn thread_pins_propagate_into_pool_workers() {
    let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = machine + 2;
    let barrier = std::sync::Barrier::new(n);
    let observed: Vec<(std::thread::ThreadId, usize)> =
        Parallelism::Threads(n).map((0..n).collect(), |_| {
            barrier.wait();
            (std::thread::current().id(), rayon::current_num_threads())
        });
    let distinct: std::collections::HashSet<_> = observed.iter().map(|&(id, _)| id).collect();
    assert_eq!(distinct.len(), n, "chunks ran on {n} distinct threads");
    for &(_, seen) in &observed {
        assert_eq!(
            seen, n,
            "nested calls inside workers must see the {n}-thread pin"
        );
    }
}

/// A denser cohort for the engine-level tests: enough co-rating overlap
/// that Pearson is defined and packages actually materialise. (The big
/// sparse `dataset()` exists only to exceed the parallel-fan-out floor.)
fn dense_dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 80,
            num_items: 200,
            num_communities: 3,
            ratings_per_user: 30,
            seed,
            ..Default::default()
        },
        &fairrec::ontology::snomed::clinical_fragment(),
    )
    .unwrap()
}

/// `recommend_batch` must agree item-for-item with a sequential
/// `recommend_for_group` loop, across parallelism modes, while sharing
/// one peer index.
#[test]
fn recommend_batch_matches_sequential_loop() {
    let data = dense_dataset(42);
    let mut groups = Vec::new();
    for g in 0..10u64 {
        groups.push(Group::new(GroupId::new(g as u32), data.sample_group(3, None, g)).unwrap());
    }

    let engine_with = |parallelism| {
        RecommenderEngine::new(
            data.matrix.clone(),
            data.profiles.clone(),
            fairrec::ontology::snomed::clinical_fragment(),
            EngineConfig {
                parallelism,
                ..Default::default()
            },
        )
        .unwrap()
    };

    let sequential_engine = engine_with(Parallelism::Sequential);
    let looped: Vec<GroupRecommendation> = groups
        .iter()
        .map(|g| sequential_engine.recommend_for_group(g, 6).unwrap())
        .collect();

    for mode in [
        Parallelism::Sequential,
        Parallelism::Rayon,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let engine = engine_with(mode);
        let batched = engine.recommend_batch(&groups, 6).unwrap();
        assert_eq!(batched, looped, "{mode:?}");
        // The batch shared one index: every group member's peer list is
        // cached at most once.
        assert!(engine.peer_index().num_cached() > 0);
    }
}

/// The engine's cached path answers exactly like a freshly-built engine
/// (cold cache) — repeated requests hit the cache without drift.
#[test]
fn warm_requests_match_cold_requests() {
    let data = dense_dataset(7);
    let group = Group::new(GroupId::new(0), data.sample_group(4, None, 9)).unwrap();
    let engine = RecommenderEngine::new(
        data.matrix.clone(),
        data.profiles.clone(),
        fairrec::ontology::snomed::clinical_fragment(),
        EngineConfig::default(),
    )
    .unwrap();
    let cold = engine.recommend_for_group(&group, 6).unwrap();
    assert!(engine.peer_index().num_cached() >= group.members().len());
    let warm = engine.recommend_for_group(&group, 6).unwrap();
    assert_eq!(cold, warm);

    // Warming everything up front changes nothing either.
    let warmed_engine = RecommenderEngine::new(
        data.matrix.clone(),
        data.profiles.clone(),
        fairrec::ontology::snomed::clinical_fragment(),
        EngineConfig::default(),
    )
    .unwrap();
    let computed = warmed_engine.warm_peer_index();
    assert_eq!(computed as u32, data.matrix.num_users());
    assert_eq!(warmed_engine.recommend_for_group(&group, 6).unwrap(), cold);

    // Invalidation empties the cache and recomputes to the same answer.
    warmed_engine.invalidate_peers();
    assert_eq!(warmed_engine.peer_index().num_cached(), 0);
    assert_eq!(warmed_engine.recommend_for_group(&group, 6).unwrap(), cold);
}
