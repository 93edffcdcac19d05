//! Fairness-aware group recommendations — the paper's core model (§III).
//!
//! The pipeline, in the paper's own order:
//!
//! 1. **Single-user relevance** ([`relevance`]) — Equation 1 predicts
//!    `relevance(u, i)` as the simU-weighted mean of peer ratings.
//! 2. **Group candidates & predictions** ([`predictions`]) — for a
//!    caregiver group `G`, score every item no member has rated and some
//!    member's peers can score, per member and aggregated (Definition 2,
//!    [`aggregate`]): `min` (veto semantics) or `average` (majority
//!    semantics), in one pass per member that also builds `A_u`.
//! 3. **Candidate pool** ([`pool`]) — the `m` best group-scored candidates
//!    with dense per-member scores, the input of the selection algorithms.
//! 4. **Fairness & value** ([`fairness`]) — Definition 3:
//!    `fairness(G, D) = |G_D| / |G|` where `D` is fair to `u` when it
//!    contains at least one of `u`'s top-k items, and
//!    `value(G, D) = fairness(G, D) · Σ_{i∈D} relevanceG(G, i)`.
//! 5. **Selection** — [`greedy`] implements Algorithm 1 (the pairwise
//!    heuristic), [`brute_force`](brute_force::brute_force) the exact `argmax_{|D|=z} value(G, D)`
//!    baseline of §VI, and [`swap`] a local-search refinement (extension).
//!
//! Single-user top-k recommendation (§III-A's `A_u`) lives in
//! [`recommend`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod baselines;
pub mod brute_force;
pub mod fairness;
pub mod greedy;
pub mod group;
#[cfg(test)]
mod oracle;
pub mod pool;
pub mod predictions;
pub mod proportionality;
pub mod recommend;
pub mod relevance;
pub mod swap;

pub use aggregate::{Aggregation, MissingPolicy};
pub use baselines::{BiasModel, GlobalMean, ItemKnn, ItemMean, RatingPredictor, UserMean};
pub use brute_force::{brute_force, BruteForceResult};
pub use fairness::FairnessEvaluator;
pub use greedy::{algorithm1, plain_top_z, Selection, SelectionStep};
pub use group::Group;
pub use pool::CandidatePool;
pub use predictions::{
    compute_group_predictions, compute_group_predictions_from_peers, GroupPredictionConfig,
    GroupPredictions,
};
pub use proportionality::{greedy_proportional, ProportionalityEvaluator};
pub use recommend::{single_user_top_k, single_user_top_k_from_peers};
pub use relevance::{PreparedPeers, RelevancePredictor};
pub use swap::swap_refine;
