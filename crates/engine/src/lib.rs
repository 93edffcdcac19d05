//! End-to-end fairness-aware group recommendation engine.
//!
//! This crate is the runnable counterpart of the paper's architecture
//! figure (Fig. 1): the PHR feeds patient profiles, patients rate
//! documents, and the recommendation engine serves caregivers packages
//! that are *"highly related and fair"* to their patient groups.
//!
//! * [`EngineConfig`] — every model knob in one place (similarity measure,
//!   δ, k, aggregation, pool size, selection algorithm, sharding),
//! * [`RecommenderEngine`] — owns the data, answers group and single-user
//!   queries in memory, and serves predictions computed elsewhere (the
//!   §IV MapReduce pipeline) through the same selection path,
//! * [`GroupRecommendation`] / [`MemberSatisfaction`] — the result with a
//!   per-member fairness explanation,
//! * [`evaluation`] — hold-out prediction quality (MAE/RMSE/coverage) and
//!   planted-community peer-recovery, used by the ablation experiments,
//! * [`Server`] — the streaming serving front-end: bounded admission,
//!   generation-keyed request coalescing, deadlines, graceful shutdown.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod engine;
pub mod evaluation;
mod serving;

pub use config::{EngineConfig, IngestPolicy, SelectionAlgorithm, SimilarityKind};
pub use engine::{
    BatchIngestReport, BatchPeerMaintenance, GroupRecommendation, IngestOp, IngestReport,
    MemberSatisfaction, PeerMaintenance, RecommendationObserver, RecommendedItem,
    RecommenderEngine,
};
pub use serving::{Server, ServerConfig, ServerStats, Ticket};
