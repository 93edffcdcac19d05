//! **A1** — min (veto) vs average (majority) aggregation.
//!
//! Definition 2 offers two semantics; this ablation quantifies the
//! difference on cohesive and diverse groups: distribution of group
//! scores, package overlap, and the worst member's satisfaction under
//! the package each semantics selects.
//!
//! ```sh
//! cargo run --release -p fairrec-bench --bin ablation_aggregation
//! ```

use fairrec_core::aggregate::{Aggregation, MissingPolicy};
use fairrec_core::fairness::FairnessEvaluator;
use fairrec_core::greedy::algorithm1;
use fairrec_core::pool::CandidatePool;
use fairrec_core::predictions::{compute_group_predictions, GroupPredictionConfig};
use fairrec_core::Group;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_similarity::{PeerSelector, RatingsSimilarity};
use fairrec_types::{GroupId, ItemId};

const K: usize = 5;
const Z: usize = 8;
const POOL: usize = 40;

fn main() {
    let ontology = clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 160,
            num_items: 320,
            num_communities: 4,
            ratings_per_user: 30,
            seed: 21,
            ..Default::default()
        },
        &ontology,
    )
    .expect("valid config");

    let cohesive = data.sample_group(4, Some(1), 5);
    let mut diverse = Vec::new();
    for c in 0..4 {
        diverse.extend(data.sample_group(1, Some(c), 60 + u64::from(c)));
    }

    println!("aggregation ablation (z = {Z}, k = {K}, m = {POOL}):\n");
    println!(
        "{:<10} {:<6} | {:>10} {:>10} {:>10} | {:>9} {:>10} {:>12}",
        "group",
        "aggr",
        "mean(relG)",
        "min(relG)",
        "max(relG)",
        "fairness",
        "worst sat",
        "pkg overlap"
    );

    for (label, members) in [("cohesive", cohesive), ("diverse", diverse)] {
        let group = Group::new(GroupId::new(0), members).expect("non-empty");
        let measure = RatingsSimilarity::new(&data.matrix);
        let selector = PeerSelector::new(0.0).expect("finite");

        let mut packages: Vec<Vec<ItemId>> = Vec::new();
        for aggregation in [Aggregation::Average, Aggregation::Min] {
            let preds = compute_group_predictions(
                &data.matrix,
                &measure,
                &selector,
                &group,
                GroupPredictionConfig {
                    aggregation,
                    missing: MissingPolicy::Skip,
                },
            )
            .expect("group exists");
            let pool = CandidatePool::from_predictions(&preds, Some(POOL)).expect("pool");
            let ev = FairnessEvaluator::new(&pool, K).expect("small group");
            let sel = algorithm1(&pool, Z, K);

            let scores: Vec<f64> = sel
                .positions
                .iter()
                .map(|&j| pool.group_relevance(j))
                .collect();
            let mean = scores.iter().sum::<f64>() / scores.len() as f64;
            let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            // Worst member's best relevance inside the package.
            let worst = (0..pool.num_members())
                .map(|m| {
                    sel.positions
                        .iter()
                        .filter_map(|&j| pool.member_relevance(m, j))
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .fold(f64::INFINITY, f64::min);

            let package: Vec<ItemId> = sel.items(&pool);
            let overlap = packages
                .first()
                .map(|first| package.iter().filter(|i| first.contains(i)).count())
                .unwrap_or(package.len());
            packages.push(package);

            println!(
                "{label:<10} {:<6} | {mean:>10.3} {lo:>10.3} {hi:>10.3} | {:>9.2} {worst:>10.3} {overlap:>9}/{Z}",
                aggregation.name(),
                ev.fairness(&sel.positions),
            );
        }
        println!();
    }
    println!("Reading: min-aggregation pulls group scores down (the veto bites hardest on");
    println!("diverse groups) and steers the selection toward consensus items — the two");
    println!("semantics agree on less than half the package on this data.");
}
