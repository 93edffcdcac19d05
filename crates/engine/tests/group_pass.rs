//! The group pass ≡ the dense path it replaced, bit for bit.
//!
//! The engine serves every request through one group pass: it scores
//! only the candidates some member's peer rated (every unrated item
//! under `Pessimistic`), and one readout per member writes the member's
//! row, folds Definition 2 and builds `A_u`. The dense path scored every
//! item the group left unrated with `predict_many`, aggregated each
//! column with `Aggregation::aggregate`, and left the pool to drop the
//! items without a group score and to rank `A_u` afterwards. It survives
//! here as the oracle, built from those public pieces.
//!
//! For random small cohorts (integer ratings over few items, so zero and
//! negative Pearson similarities are common), at S ∈ {1, 3} and in the
//! sequential and a parallel mode, the pass must give the oracle's
//! items, member scores and group scores (after the dense path's pool
//! filter), the same pool, the same `A_u` lists, the same Algorithm 1
//! positions and steps, and the same served package, alone and from a
//! batch — under
//! `Skip`/`Pessimistic` × `Min`/`Average`, δ ∈ {−0.5, 0, 0.3},
//! `max_peers` ∈ {None, 3} and `pool_size` ∈ {None, a cap below the
//! pool}.

use fairrec_core::predictions::GroupPredictions;
use fairrec_core::{
    algorithm1, Aggregation, CandidatePool, Group, MissingPolicy, RelevancePredictor,
};
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_engine::{EngineConfig, RecommenderEngine};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_types::{GroupId, Parallelism, RatingsRead};
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestCaseError;

const K: usize = 3;
const Z: usize = 4;

/// The dense path: every item the group left unrated, scored for every
/// member by the peer-side `predict_many`, aggregated column by column.
/// Items without a group score stay in, as they did.
fn dense_oracle(engine: &RecommenderEngine, group: &Group) -> GroupPredictions {
    let store = engine.ratings();
    let config = engine.config();
    let items = store.unrated_by_all(group.members());
    let predictor = RelevancePredictor::new(store);
    let rows: Vec<Vec<Option<f64>>> = engine
        .peer_index()
        .group_peers(engine.measure(), group.members())
        .iter()
        .map(|(_, peers)| predictor.predict_many(peers, &items))
        .collect();
    let group_scores = (0..items.len())
        .map(|j| {
            let column: Vec<Option<f64>> = rows.iter().map(|row| row[j]).collect();
            config.aggregation.aggregate(&column, config.missing)
        })
        .collect();
    GroupPredictions::from_parts(group.members().to_vec(), items, rows, group_scores)
}

/// The dense predictions cut to the items with a group score: the group
/// pass's contract.
fn defined_only(dense: &GroupPredictions) -> GroupPredictions {
    let keep: Vec<usize> = (0..dense.num_items())
        .filter(|&j| dense.group_relevance(j).is_some())
        .collect();
    GroupPredictions::from_parts(
        dense.members().to_vec(),
        keep.iter().map(|&j| dense.items()[j]).collect(),
        (0..dense.members().len())
            .map(|m| keep.iter().map(|&j| dense.member_relevance(m, j)).collect())
            .collect(),
        keep.iter().map(|&j| dense.group_relevance(j)).collect(),
    )
}

fn bits(scores: impl IntoIterator<Item = Option<f64>>) -> Vec<Option<u64>> {
    scores.into_iter().map(|s| s.map(f64::to_bits)).collect()
}

/// Every member row and the group scores, as bits.
fn all_bits(p: &GroupPredictions) -> Vec<Vec<Option<u64>>> {
    let mut out: Vec<Vec<Option<u64>>> = (0..p.members().len())
        .map(|m| bits((0..p.num_items()).map(|j| p.member_relevance(m, j))))
        .collect();
    out.push(bits((0..p.num_items()).map(|j| p.group_relevance(j))));
    out
}

fn check(
    data: &SyntheticDataset,
    group: &Group,
    config: EngineConfig,
    label: &str,
) -> Result<(), TestCaseError> {
    let engine = RecommenderEngine::new(
        data.matrix.clone(),
        data.profiles.clone(),
        clinical_fragment(),
        config,
    )
    .unwrap();
    let pass = engine.predictions_for(group).unwrap();
    let dense = dense_oracle(&engine, group);
    let expected = defined_only(&dense);
    prop_assert_eq!(pass.items(), expected.items(), "{}", label);
    prop_assert_eq!(all_bits(&pass), all_bits(&expected), "{}", label);

    let from_pass = CandidatePool::from_predictions(&pass, config.pool_size);
    let from_dense = CandidatePool::from_predictions(&dense, config.pool_size);
    let (from_pass, from_dense) = match (from_pass, from_dense) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "{}", label);
            return Ok(());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "{label}: pool {:?} vs dense {:?}",
                a.map(|p| p.num_items()),
                b.map(|p| p.num_items())
            )))
        }
    };
    prop_assert_eq!(&from_pass, &from_dense, "{}", label);
    prop_assert_eq!(
        bits(from_pass.group_scores().iter().map(|&s| Some(s))),
        bits(from_dense.group_scores().iter().map(|&s| Some(s))),
        "{}",
        label
    );
    // The pass's lists (the memo it hands an uncapped pool) and the ones
    // the dense pool ranks afresh.
    prop_assert_eq!(
        from_pass.top_k_lists(K).into_owned(),
        from_dense.top_k_lists(K).into_owned(),
        "{}",
        label
    );
    prop_assert_eq!(
        algorithm1(&from_pass, Z, K),
        algorithm1(&from_dense, Z, K),
        "{}",
        label
    );
    let package = engine.recommend_from_predictions(group, &dense, Z).unwrap();
    prop_assert_eq!(
        &engine.recommend_for_group(group, Z).unwrap(),
        &package,
        "{}",
        label
    );
    // A batch runs each request's pass on the thread serving it: a pool
    // worker in the parallel mode.
    for served in engine
        .recommend_batch(&[group.clone(), group.clone()], Z)
        .unwrap()
    {
        prop_assert_eq!(&served, &package, "{}", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn group_pass_matches_the_dense_oracle_bitwise(
        seed in 0u64..10_000,
        size in 1usize..6,
        aggregation in select(vec![Aggregation::Min, Aggregation::Average]),
        missing in select(vec![MissingPolicy::Skip, MissingPolicy::Pessimistic]),
        max_peers in select(vec![None, Some(3usize)]),
        cap_below in select(vec![false, true]),
    ) {
        let data = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: 24,
                num_items: 40,
                num_communities: 3,
                ratings_per_user: 6,
                seed,
                ..Default::default()
            },
            &clinical_fragment(),
        )
        .unwrap();
        let group = Group::new(GroupId::new(0), data.sample_group(size, None, seed)).unwrap();
        for delta in [-0.5, 0.0, 0.3] {
            for num_shards in [1u32, 3] {
                for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                    let mut config = EngineConfig {
                        delta,
                        max_peers,
                        k: K,
                        aggregation,
                        missing,
                        parallelism,
                        num_shards: Some(num_shards),
                        ..Default::default()
                    };
                    let label = format!("δ={delta} S={num_shards} {parallelism:?} {config:?}");
                    check(&data, &group, config, &label)?;
                    if cap_below {
                        // A cap below the uncapped pool, so truncation
                        // really cuts.
                        let engine = RecommenderEngine::new(
                            data.matrix.clone(),
                            data.profiles.clone(),
                            clinical_fragment(),
                            config,
                        )
                        .unwrap();
                        let pooled = engine.predictions_for(&group).unwrap().num_items();
                        if pooled > 1 {
                            config.pool_size = Some(pooled / 2);
                            check(&data, &group, config, &format!("{label} capped"))?;
                        }
                    }
                }
            }
        }
    }
}
