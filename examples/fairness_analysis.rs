//! Fairness analysis: what does the fairness-aware objective buy?
//!
//! Sweeps the package size z for a *diverse* caregiver group (one patient
//! from each cohort — the hard case §III-C motivates) and compares
//! Algorithm 1 against plain top-z on fairness, value, and the least
//! satisfied member. Also demonstrates Proposition 1 empirically.
//!
//! ```sh
//! cargo run --release --example fairness_analysis
//! ```

use fairrec::core::pool::CandidatePool;
use fairrec::core::predictions::{compute_group_predictions, GroupPredictionConfig};
use fairrec::prelude::*;

fn main() -> Result<()> {
    let ontology = fairrec::ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: 160,
            num_items: 320,
            num_communities: 4,
            ratings_per_user: 30,
            seed: 31,
            ..Default::default()
        },
        &ontology,
    )?;

    // One member from each cohort: interests barely overlap.
    let mut members = Vec::new();
    for c in 0..4 {
        members.extend(data.sample_group(1, Some(c), 100 + u64::from(c)));
    }
    let group = Group::new(GroupId::new(0), members)?;
    println!(
        "diverse group (one patient per cohort): {:?}",
        group.members()
    );

    let measure = RatingsSimilarity::new(&data.matrix);
    let selector = PeerSelector::new(0.0)?;
    let predictions = compute_group_predictions(
        &data.matrix,
        &measure,
        &selector,
        &group,
        GroupPredictionConfig::default(),
    )?;
    let pool = CandidatePool::from_predictions(&predictions, Some(40))?;
    let k = 5;
    let evaluator = FairnessEvaluator::new(&pool, k)?;

    println!(
        "\n{:>3} | {:^26} | {:^26}",
        "z", "Algorithm 1 (fairness-aware)", "plain top-z"
    );
    println!(
        "{:>3} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "", "fairness", "value", "minSat", "fairness", "value", "minSat"
    );
    for z in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        let fair = algorithm1(&pool, z, k);
        let plain = plain_top_z(&pool, z);
        let min_sat = |sel: &fairrec::core::greedy::Selection| {
            (0..pool.num_members())
                .map(|m| {
                    sel.positions
                        .iter()
                        .filter_map(|&j| pool.member_relevance(m, j))
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .fold(f64::INFINITY, f64::min)
        };
        println!(
            "{z:>3} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
            evaluator.fairness(&fair.positions),
            evaluator.value(&pool, &fair.positions),
            min_sat(&fair),
            evaluator.fairness(&plain.positions),
            evaluator.value(&pool, &plain.positions),
            min_sat(&plain),
        );
    }
    println!(
        "\nProposition 1: for z ≥ |G| = {} Algorithm 1's fairness column is 1.00.",
        group.len()
    );

    // Aggregation semantics: min (veto) vs average (majority).
    println!("\naggregation ablation (same group, z = 6):");
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
        )?;
        let pool = CandidatePool::from_predictions(&preds, Some(40))?;
        let ev = FairnessEvaluator::new(&pool, k)?;
        let sel = algorithm1(&pool, 6, k);
        let sum: f64 = sel.positions.iter().map(|&j| pool.group_relevance(j)).sum();
        println!(
            "  {:<8} fairness {:.2}, Σ relevanceG {:.2}, value {:.2}",
            aggregation.name(),
            ev.fairness(&sel.positions),
            sum,
            ev.value(&pool, &sel.positions)
        );
    }
    println!("  (min-aggregation scores are lower by construction: the veto bites.)");
    Ok(())
}
