//! End-to-end integration: dataset → engine → recommendation → report.

use fairrec::engine::{Server, ServerConfig};
use fairrec::mapreduce::{mapreduce_group_predictions, PipelineConfig};
use fairrec::prelude::*;
use fairrec::types::Deadline;

fn engine_with(config: EngineConfig, seed: u64) -> (RecommenderEngine, SyntheticDataset) {
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 120,
            num_items: 240,
            num_communities: 4,
            ratings_per_user: 30,
            seed,
            ..Default::default()
        },
        &ontology,
    )
    .unwrap();
    let engine =
        RecommenderEngine::new(data.matrix.clone(), data.profiles.clone(), ontology, config)
            .unwrap();
    (engine, data)
}

#[test]
fn caregiver_flow_with_default_model() {
    let (engine, data) = engine_with(EngineConfig::default(), 42);
    let group = Group::new(GroupId::new(0), data.sample_group(4, None, 9)).unwrap();
    let rec = engine.recommend_for_group(&group, 10).unwrap();

    assert_eq!(rec.items.len(), 10);
    assert!((rec.fairness - 1.0).abs() < 1e-12, "Proposition 1 regime");
    assert_eq!(rec.members.len(), 4);
    assert!(rec.members.iter().all(|m| m.satisfied));

    // Package items were never rated by any member.
    for item in &rec.items {
        for &member in group.members() {
            assert!(!engine.ratings().has_rated(member, item.item));
        }
    }
    // Group relevance values are inside the rating range.
    for item in &rec.items {
        assert!((1.0..=5.0).contains(&item.group_relevance));
    }
}

#[test]
fn homogeneous_groups_get_higher_relevance_than_mixed() {
    let (engine, data) = engine_with(EngineConfig::default(), 43);
    let same = Group::new(GroupId::new(0), data.sample_group(4, Some(0), 5)).unwrap();
    let mixed_members = {
        // One member from each community — the diverse caregiver case the
        // paper's discussion motivates.
        let mut v = Vec::new();
        for c in 0..4 {
            v.push(data.sample_group(1, Some(c), 11)[0]);
        }
        v
    };
    let mixed = Group::new(GroupId::new(1), mixed_members).unwrap();

    let rec_same = engine.recommend_for_group(&same, 8).unwrap();
    let rec_mixed = engine.recommend_for_group(&mixed, 8).unwrap();
    let mean = |r: &GroupRecommendation| {
        r.items.iter().map(|i| i.group_relevance).sum::<f64>() / r.items.len() as f64
    };
    assert!(
        mean(&rec_same) > mean(&rec_mixed),
        "cohesive group {:.3} should beat diverse group {:.3}",
        mean(&rec_same),
        mean(&rec_mixed)
    );
    // Fairness stays 1 for both (z ≥ |G|).
    assert!((rec_mixed.fairness - 1.0).abs() < 1e-12);
}

#[test]
fn fairness_aware_beats_plain_top_z_on_fairness() {
    let base = EngineConfig {
        pad_to_z: false,
        k: 5,
        ..Default::default()
    };
    let (engine_fair, data) = engine_with(base, 44);
    let (engine_plain, _) = engine_with(
        EngineConfig {
            algorithm: SelectionAlgorithm::PlainTopZ,
            ..base
        },
        44,
    );
    // A mixed group makes plain top-z likely to ignore someone.
    let mut members = Vec::new();
    for c in 0..4 {
        members.extend(data.sample_group(1, Some(c), 21 + u64::from(c)));
    }
    let group = Group::new(GroupId::new(0), members).unwrap();
    let mut fair_sum = 0.0;
    let mut plain_sum = 0.0;
    for z in [4usize, 6, 8] {
        fair_sum += engine_fair.recommend_for_group(&group, z).unwrap().fairness;
        plain_sum += engine_plain
            .recommend_for_group(&group, z)
            .unwrap()
            .fairness;
    }
    assert!(
        fair_sum >= plain_sum,
        "greedy fairness sum {fair_sum} < plain {plain_sum}"
    );
    assert!(
        (fair_sum - 3.0).abs() < 1e-12,
        "greedy is fully fair at z ≥ |G|"
    );
}

#[test]
fn single_user_and_group_paths_are_consistent() {
    let (engine, data) = engine_with(EngineConfig::default(), 45);
    let user = data.sample_group(1, Some(2), 3)[0];
    let personal = engine.recommend_for_user(user, 5).unwrap();
    assert!(!personal.is_empty());
    // The same user as a singleton group (padding on): the pool is the
    // same candidate set, so the padded package equals the user's top
    // items by group relevance = their own relevance.
    let group = Group::new(GroupId::new(0), [user]).unwrap();
    let rec = engine.recommend_for_group(&group, 5).unwrap();
    assert_eq!(rec.items.len(), 5);
    let package: Vec<ItemId> = rec.items.iter().map(|i| i.item).collect();
    let personal_items: Vec<ItemId> = personal.iter().map(|s| s.item).collect();
    assert_eq!(package, personal_items);
}

#[test]
fn pool_size_caps_candidates() {
    let (engine, data) = engine_with(
        EngineConfig {
            pool_size: Some(20),
            ..Default::default()
        },
        46,
    );
    let group = Group::new(GroupId::new(0), data.sample_group(3, None, 2)).unwrap();
    let rec = engine.recommend_for_group(&group, 5).unwrap();
    assert_eq!(rec.pool_size, 20);
    assert_eq!(rec.items.len(), 5);
}

#[test]
fn exact_and_swap_configurations_run_end_to_end() {
    for alg in [
        SelectionAlgorithm::Exact,
        SelectionAlgorithm::GreedyWithSwaps { max_passes: 5 },
    ] {
        let (engine, data) = engine_with(
            EngineConfig {
                algorithm: alg,
                pool_size: Some(12),
                k: 4,
                ..Default::default()
            },
            47,
        );
        let group = Group::new(GroupId::new(0), data.sample_group(3, None, 8)).unwrap();
        let rec = engine.recommend_for_group(&group, 4).unwrap();
        assert_eq!(rec.items.len(), 4, "{alg:?}");
        assert!((rec.fairness - 1.0).abs() < 1e-12, "{alg:?}");
    }
}

#[test]
fn mapreduce_predictions_for_an_unknown_member_are_rejected() {
    // The pipeline scores any id it is handed (an unknown member simply
    // has no ratings); serving its predictions must still reject the
    // group exactly as the in-memory path does.
    let (engine, data) = engine_with(EngineConfig::default(), 49);
    let unknown = UserId::new(engine.ratings().num_users());
    let mut members = data.sample_group(2, None, 4);
    members.push(unknown);
    let group = Group::new(GroupId::new(0), members).unwrap();
    let (predictions, _) = mapreduce_group_predictions(
        engine.ratings().to_triples(),
        engine.ratings().num_items(),
        &group,
        &PipelineConfig::default(),
    )
    .unwrap();
    let mut errors = vec![
        engine
            .recommend_from_predictions(&group, &predictions, 4)
            .unwrap_err(),
        engine.recommend_for_group(&group, 4).unwrap_err(),
        engine
            .recommend_batch(std::slice::from_ref(&group), 4)
            .unwrap_err(),
    ];
    let outcomes = engine.recommend_requests(&[(group.clone(), 4)]);
    assert_eq!(outcomes.len(), 1);
    errors.push(outcomes[0].clone().unwrap_err());
    let server = Server::new(std::sync::Arc::new(engine), ServerConfig::default());
    errors.push(server.recommend(group, 4, Deadline::none()).unwrap_err());
    server.shutdown();
    for err in errors {
        assert!(
            matches!(err, FairrecError::UnknownUser { user } if user == unknown),
            "got: {err:?}"
        );
    }
}

#[test]
fn oversized_group_is_rejected_cleanly() {
    // Sparse ratings so a 65-member group still leaves a scored candidate
    // pool — the rejection must come from the 64-member fairness-mask
    // limit, not from pool exhaustion.
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 200,
            num_items: 2_000,
            num_communities: 2,
            ratings_per_user: 10,
            seed: 48,
            ..Default::default()
        },
        &ontology,
    )
    .unwrap();
    let engine = RecommenderEngine::new(
        data.matrix.clone(),
        data.profiles.clone(),
        ontology,
        EngineConfig {
            delta: -1.0, // admit any defined similarity: maximum coverage
            min_overlap: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let members: Vec<UserId> = (0..65).map(UserId::new).collect();
    let group = Group::new(GroupId::new(0), members).unwrap();
    let err = engine.recommend_for_group(&group, 70).unwrap_err();
    assert!(err.to_string().contains("64"), "got: {err}");

    // Every serving surface rejects the group with the same typed error.
    let named_64 = |err: &FairrecError| {
        matches!(err, FairrecError::InvalidParameter { .. }) && err.to_string().contains("64")
    };
    assert!(named_64(&err), "got: {err:?}");
    let err = engine
        .recommend_batch(std::slice::from_ref(&group), 70)
        .unwrap_err();
    assert!(named_64(&err), "recommend_batch got: {err:?}");
    let predictions = engine.predictions_for(&group).unwrap();
    let err = engine
        .recommend_from_predictions(&group, &predictions, 70)
        .unwrap_err();
    assert!(named_64(&err), "recommend_from_predictions got: {err:?}");
    let outcomes = engine.recommend_requests(&[(group.clone(), 70)]);
    assert_eq!(outcomes.len(), 1);
    let err = outcomes[0].as_ref().unwrap_err();
    assert!(named_64(err), "recommend_requests got: {err:?}");
    let server = Server::new(std::sync::Arc::new(engine), ServerConfig::default());
    let err = server.recommend(group, 70, Deadline::none()).unwrap_err();
    assert!(named_64(&err), "Server got: {err:?}");
    server.shutdown();
}
