//! The §IV MapReduce pipeline must agree **exactly** with the in-memory
//! reference — same candidates, same per-member predictions, same group
//! scores — across datasets, aggregations, thresholds, and worker counts.

use fairrec::core::aggregate::{Aggregation, MissingPolicy};
use fairrec::core::predictions::{compute_group_predictions, GroupPredictionConfig};
use fairrec::core::Group;
use fairrec::mapreduce::{mapreduce_group_predictions, JobConfig, PipelineConfig};
use fairrec::prelude::*;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 70,
            num_items: 140,
            num_communities: 3,
            ratings_per_user: 22,
            seed,
            ..Default::default()
        },
        &fairrec::ontology::snomed::clinical_fragment(),
    )
    .unwrap()
}

fn compare(
    data: &SyntheticDataset,
    group_members: Vec<UserId>,
    delta: f64,
    max_peers: Option<usize>,
    aggregation: Aggregation,
    missing: MissingPolicy,
    job: JobConfig,
) {
    let group = Group::new(GroupId::new(0), group_members).unwrap();

    let selector = {
        let mut s = PeerSelector::new(delta).unwrap();
        if let Some(cap) = max_peers {
            s = s.with_max_peers(cap);
        }
        s
    };
    let measure = RatingsSimilarity::new(&data.matrix);
    let reference = compute_group_predictions(
        &data.matrix,
        &measure,
        &selector,
        &group,
        GroupPredictionConfig {
            aggregation,
            missing,
        },
    )
    .unwrap();

    // The paper's Job 0→1→2→3 chain must reproduce the in-memory
    // reference exactly.
    let (pipeline, report) = mapreduce_group_predictions(
        data.matrix.to_triples(),
        data.matrix.num_items(),
        &group,
        &PipelineConfig {
            delta,
            min_overlap: 2,
            max_peers,
            aggregation,
            missing,
            job,
        },
    )
    .unwrap();

    assert_eq!(
        reference, pipeline,
        "mismatch at δ={delta}, cap={max_peers:?}, {aggregation:?}, {missing:?}"
    );
    assert!(report.job1.map_input_records == data.matrix.num_ratings());
}

#[test]
fn agreement_across_aggregations_and_policies() {
    let data = dataset(1);
    let members = data.sample_group(4, None, 1);
    for aggregation in [Aggregation::Min, Aggregation::Average] {
        for missing in [MissingPolicy::Skip, MissingPolicy::Pessimistic] {
            compare(
                &data,
                members.clone(),
                0.0,
                None,
                aggregation,
                missing,
                JobConfig::default(),
            );
        }
    }
}

#[test]
fn agreement_across_delta_sweep() {
    let data = dataset(2);
    let members = data.sample_group(3, None, 2);
    for delta in [-1.0, -0.25, 0.0, 0.3, 0.7, 0.95] {
        compare(
            &data,
            members.clone(),
            delta,
            None,
            Aggregation::Average,
            MissingPolicy::Skip,
            JobConfig::default(),
        );
    }
}

#[test]
fn agreement_with_peer_caps() {
    let data = dataset(3);
    let members = data.sample_group(3, Some(1), 3);
    for cap in [1usize, 3, 10, 50] {
        compare(
            &data,
            members.clone(),
            0.1,
            Some(cap),
            Aggregation::Min,
            MissingPolicy::Skip,
            JobConfig::default(),
        );
    }
}

#[test]
fn agreement_across_worker_and_partition_counts() {
    let data = dataset(4);
    let members = data.sample_group(4, None, 4);
    for (workers, partitions) in [(1, 1), (2, 3), (4, 8), (3, 16)] {
        compare(
            &data,
            members.clone(),
            0.2,
            Some(20),
            Aggregation::Average,
            MissingPolicy::Skip,
            JobConfig {
                num_workers: workers,
                num_partitions: partitions,
            },
        );
    }
}

#[test]
fn agreement_over_many_seeds() {
    for seed in 10..16 {
        let data = dataset(seed);
        let members = data.sample_group(3, None, seed);
        compare(
            &data,
            members,
            0.0,
            None,
            Aggregation::Average,
            MissingPolicy::Skip,
            JobConfig::with_workers(2),
        );
    }
}

#[test]
fn singleton_and_whole_community_groups() {
    let data = dataset(7);
    // Singleton.
    compare(
        &data,
        data.sample_group(1, None, 5),
        0.0,
        None,
        Aggregation::Average,
        MissingPolicy::Skip,
        JobConfig::default(),
    );
    // A large homogeneous group.
    compare(
        &data,
        data.sample_group(12, Some(0), 5),
        0.0,
        None,
        Aggregation::Min,
        MissingPolicy::Pessimistic,
        JobConfig::with_workers(2),
    );
}

#[test]
fn distributed_top_k_agrees_with_group_top_k() {
    use fairrec::mapreduce::topk::top_k_mapreduce;

    let data = dataset(8);
    let group = Group::new(GroupId::new(0), data.sample_group(3, None, 6)).unwrap();
    let measure = RatingsSimilarity::new(&data.matrix);
    let selector = PeerSelector::new(0.0).unwrap();
    let preds = compute_group_predictions(
        &data.matrix,
        &measure,
        &selector,
        &group,
        GroupPredictionConfig::default(),
    )
    .unwrap();

    let records: Vec<ScoredItem> = (0..preds.num_items())
        .filter_map(|j| {
            preds
                .group_relevance(j)
                .map(|s| ScoredItem::new(preds.items()[j], s))
        })
        .collect();
    let mr = top_k_mapreduce(records, 10, JobConfig::with_workers(3));
    let reference = preds.top_k_for_group(10);
    assert_eq!(mr.len(), reference.len());
    for (a, b) in mr.iter().zip(reference.iter()) {
        assert_eq!(a.item, b.item);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}
