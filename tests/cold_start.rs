//! Cold-start integration: users with profiles but no ratings are
//! unreachable for ratings-based CF and rescued by the §V health-domain
//! measures — the paper's motivation, as an executable claim.

use fairrec::prelude::*;

/// Builds a dataset where `cold` users have profiles but zero ratings.
fn cold_fixture() -> (RatingMatrix, PhrStore, Vec<UserId>) {
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 100,
            num_items: 200,
            num_communities: 4,
            ratings_per_user: 20,
            seed: 91,
            ..Default::default()
        },
        &ontology,
    )
    .unwrap();
    let cold: Vec<UserId> = (0..4)
        .map(|c| data.sample_group(1, Some(c), 500 + u64::from(c))[0])
        .collect();
    let mut builder =
        RatingMatrixBuilder::new().reserve_ids(data.matrix.num_users(), data.matrix.num_items());
    for t in data.matrix.to_triples() {
        if !cold.contains(&t.user) {
            builder.add(t.user, t.item, t.rating);
        }
    }
    (builder.build().unwrap(), data.profiles.clone(), cold)
}

#[test]
fn ratings_similarity_cannot_serve_cold_groups() {
    let (matrix, profiles, cold) = cold_fixture();
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let engine = RecommenderEngine::new(
        matrix,
        profiles,
        ontology,
        EngineConfig {
            similarity: SimilarityKind::Ratings,
            pad_to_z: false,
            ..Default::default()
        },
    )
    .unwrap();
    let group = Group::new(GroupId::new(0), cold).unwrap();
    // No member has co-rated anything with anyone: no peers, no
    // predictions, empty pool.
    let err = engine.recommend_for_group(&group, 6).unwrap_err();
    assert!(err.to_string().contains("no candidate"), "got: {err}");
}

#[test]
fn content_measures_rescue_cold_groups() {
    let (matrix, profiles, cold) = cold_fixture();
    for similarity in [
        SimilarityKind::Profile,
        SimilarityKind::Semantic,
        SimilarityKind::Hybrid {
            ratings: 1.0,
            profile: 1.0,
            semantic: 1.0,
        },
    ] {
        // `None` and `Some(1)` are the same one-shard store and must
        // serve the same package; more shards need the ratings backend.
        let engine = |num_shards| {
            RecommenderEngine::new(
                matrix.clone(),
                profiles.clone(),
                fairrec::ontology::snomed::clinical_fragment(),
                EngineConfig {
                    similarity,
                    pad_to_z: false,
                    num_shards,
                    ..Default::default()
                },
            )
        };
        assert!(engine(Some(2)).is_err(), "{similarity:?}");
        let group = Group::new(GroupId::new(0), cold.clone()).unwrap();
        let rec = engine(None)
            .unwrap()
            .recommend_for_group(&group, 6)
            .unwrap();
        let one_shard = engine(Some(1)).unwrap().recommend_for_group(&group, 6);
        assert_eq!(one_shard.unwrap(), rec, "{similarity:?}");
        assert_eq!(rec.items.len(), 6, "{similarity:?}");
        assert!(
            (rec.fairness - 1.0).abs() < 1e-12,
            "{similarity:?}: fairness {}",
            rec.fairness
        );
        assert!(rec.members.iter().all(|m| m.satisfied), "{similarity:?}");
    }
}

#[test]
fn cold_recommendations_align_with_the_cold_users_cohorts() {
    // The rescue is not just *any* package: a cold patient's package must
    // lean toward documents their own cohort rates highly.
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 100,
            num_items: 200,
            num_communities: 4,
            ratings_per_user: 20,
            seed: 92,
            ..Default::default()
        },
        &ontology,
    )
    .unwrap();
    let cold = data.sample_group(1, Some(2), 77)[0];
    let mut builder =
        RatingMatrixBuilder::new().reserve_ids(data.matrix.num_users(), data.matrix.num_items());
    for t in data.matrix.to_triples() {
        if t.user != cold {
            builder.add(t.user, t.item, t.rating);
        }
    }
    let matrix = builder.build().unwrap();
    // δ = 0 would admit *every* user (path similarity is always positive);
    // a focused neighbourhood is needed for cohort-aligned predictions —
    // the same δ regime the A2 ablation identifies as SS's sweet spot.
    let engine = RecommenderEngine::new(
        matrix,
        data.profiles.clone(),
        ontology,
        EngineConfig {
            similarity: SimilarityKind::Semantic,
            delta: 0.25,
            max_peers: Some(15),
            ..Default::default()
        },
    )
    .unwrap();
    let recs = engine.recommend_for_user(cold, 10).unwrap();
    assert!(!recs.is_empty());
    let own_cohort = recs
        .iter()
        .filter(|s| data.communities.item_community(s.item) == 2)
        .count();
    assert!(
        own_cohort * 2 > recs.len(),
        "only {own_cohort}/{} recommendations from the cold user's cohort",
        recs.len()
    );
}
