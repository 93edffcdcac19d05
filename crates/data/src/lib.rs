//! Synthetic health-domain workloads and persistence.
//!
//! The paper evaluates inside the iManageCancer platform, whose patient
//! profiles and expert-curated document ratings are private EU-project
//! data. This crate provides a substitute for that data, not an extract
//! of it: seeded generators with **planted community structure** — users and
//! items belong to latent communities; users rate in-community items
//! highly and out-of-community items poorly, and their PHR problems are
//! drawn from a community-specific region of the ontology.
//!
//! The plant gives experiments a ground truth the original evaluation
//! lacked: similarity ablations (experiment A2) can measure whether the
//! §V measures actually recover true neighbourhoods, and prediction
//! quality is checkable against the generative model.
//!
//! * [`SyntheticConfig`] / [`SyntheticDataset`] — the generator,
//! * [`CommunityModel`] — the planted ground truth,
//! * [`documents`] — a health-document corpus generator for text examples,
//! * [`tsv`] — plain TSV persistence for ratings and profiles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod communities;
mod dataset;
pub mod documents;
pub mod tsv;

pub use communities::CommunityModel;
pub use dataset::{SyntheticConfig, SyntheticDataset};
