//! # fairrec — fairness in group recommendations in the health domain
//!
//! A complete Rust implementation of *Stratigi, Kondylakis, Stefanidis:
//! "Fairness in Group Recommendations in the Health Domain"* (ICDE 2017),
//! including every substrate the paper relies on: a SNOMED-CT-like
//! clinical ontology, a Personal Health Record store, a tf-idf text
//! pipeline, the three user-similarity measures, the fairness-aware group
//! model with Algorithm 1 and its brute-force baseline, and an in-process
//! MapReduce engine running the paper's Job 1–3 decomposition.
//!
//! ## Quickstart
//!
//! ```
//! use fairrec::prelude::*;
//!
//! // A clinical ontology and a synthetic patient cohort.
//! let ontology = fairrec::ontology::snomed::clinical_fragment();
//! let data = SyntheticDataset::generate(SyntheticConfig::default(), &ontology)?;
//!
//! // The engine with the paper's default model.
//! let engine = RecommenderEngine::new(
//!     data.matrix.clone(),
//!     data.profiles.clone(),
//!     ontology,
//!     EngineConfig::default(),
//! )?;
//!
//! // A caregiver asks for a fair package of 6 documents for 3 patients.
//! let group = Group::new(GroupId::new(0), data.sample_group(3, None, 7))?;
//! let rec = engine.recommend_for_group(&group, 6)?;
//! assert_eq!(rec.items.len(), 6);
//! assert!((rec.fairness - 1.0).abs() < 1e-12); // z ≥ |G| ⇒ fairness 1
//! # Ok::<(), fairrec::types::FairrecError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `fairrec-types` | ids, ratings, sparse matrix, top-k |
//! | [`ontology`] | `fairrec-ontology` | clinical is-a tree, path queries |
//! | [`phr`] | `fairrec-phr` | patient profiles and store |
//! | [`text`] | `fairrec-text` | tokenizer, tf-idf, cosine |
//! | [`similarity`] | `fairrec-similarity` | RS / CS / SS measures, peers, `PeerIndex`, bulk kernel |
//! | [`core`] | `fairrec-core` | relevance, aggregation, fairness, Algorithm 1, brute force |
//! | [`mapreduce`] | `fairrec-mapreduce` | engine + Jobs 0–3 + top-k |
//! | [`search`] | `fairrec-search` | curated document search (BM25) |
//! | [`data`] | `fairrec-data` | synthetic workloads, TSV persistence |
//! | [`engine`] | `fairrec-engine` | end-to-end facade, batch serving, evaluation |
//! | [`metrics`] | `fairrec-metrics` | fairness metrics, exposure parity, serving-path monitor |
//!
//! ## Serving architecture
//!
//! The request path is layered so that everything expensive happens once
//! and everything per-request is a cache read plus arithmetic:
//!
//! ```text
//!   types          RatingMatrix (CSR + CSC), Parallelism knob
//!     │
//!   similarity     RS / CS / SS measures (built once, Arc-shared)
//!     │                 └─ PeerIndex: memoized full peer lists
//!     │                    (Definition 1), masked group views
//!   core           Equation 1 scoring over candidates (parallel map),
//!     │            Definition 2 aggregation, Algorithm 1 selection
//!   engine         RecommenderEngine: owns one store + one index
//!                  (S shards, S = 1 by default) + backend,
//!                  recommend_for_group / recommend_batch fan-out
//! ```
//!
//! * **Build once.** [`RecommenderEngine::new`](engine::RecommenderEngine::new) constructs the
//!   configured similarity backend over `Arc`s of the engine's data and
//!   attaches one [`ShardedPeerIndex`](similarity::ShardedPeerIndex) —
//!   a [`PeerIndex`](similarity::PeerIndex) per shard, one shard by
//!   default; nothing is rebuilt per request. The MapReduce pipeline
//!   ([`mapreduce_group_predictions`](mapreduce::mapreduce_group_predictions))
//!   feeds its Job 2 similarity edges through the same index type
//!   (`PeerIndex::from_edges`), so Definition 1 semantics — canonical
//!   ordering, group masking, peer caps — live in exactly one place, and
//!   its predictions reach the engine's one selection path through
//!   `RecommenderEngine::recommend_from_predictions`. The serving
//!   engine does not link `fairrec-mapreduce`; this facade re-exports
//!   both.
//! * **Cold fills take the bulk kernel.** Peer-list computation routes
//!   through [`BulkUserSimilarity`](similarity::BulkUserSimilarity), the
//!   one-vs-all form of `simU`: `RatingsSimilarity` generates candidates
//!   from the matrix's item-major (CSC) view — only co-raters can be
//!   peers — so a full cold warm costs the dataset's co-rating mass
//!   instead of O(U²·d), and `PeerIndex::warm_symmetric` fills both
//!   endpoints of every pair from one upper-triangle pass per user.
//!   The kernel is bitwise identical to the per-pair path (same
//!   merge-join accumulation order), pinned by proptests.
//! * **Caching contract & live ingestion.** The index memoizes each
//!   user's *full* (uncapped, unmasked) peer list; request-time views
//!   mask co-members and truncate to `max_peers`, which is provably
//!   equivalent to recomputing with an exclusion set. Entries are never
//!   revalidated; instead the rating relation is live:
//!   `RecommenderEngine::ingest_rating` patches the owning shard in place
//!   and repairs the warm index exactly with `apply_delta` (one
//!   kernel pass for the changed user, spliced into the affected lists
//!   — bitwise identical to a cold rebuild); `remove_rating` shrinks
//!   through the same machinery. Bulk loads go through
//!   `ingest_ratings`, whose kernel cost model (co-rating mass of the
//!   per-event deltas vs one symmetric rewarm) picks delta replay or
//!   the blanket invalidation per batch; `PeerIndex::generation` is
//!   the freshness token guarding in-flight fills, and each slot
//!   publishes under its own lock (a read waits at most for one slot's
//!   replace; fills install by version CAS), so warms overlap serving. `docs/ARCHITECTURE.md` documents the three
//!   peer-build paths and the full update-path contract.
//! * **Parallelism.** Every parallel loop (index warming,
//!   `recommend_batch` group fan-out) is an order-preserving
//!   pure map, so results are bitwise identical across
//!   [`Parallelism`](types::Parallelism) modes and thread counts —
//!   asserted by the `parallel_equivalence` property tests. Batched
//!   serving parallelizes at group granularity; nested fan-out is
//!   deliberately avoided.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use fairrec_core as core;
pub use fairrec_data as data;
pub use fairrec_engine as engine;
pub use fairrec_mapreduce as mapreduce;
pub use fairrec_metrics as metrics;
pub use fairrec_ontology as ontology;
pub use fairrec_phr as phr;
pub use fairrec_search as search;
pub use fairrec_similarity as similarity;
pub use fairrec_text as text;
pub use fairrec_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use fairrec_core::{
        algorithm1, brute_force, plain_top_z, Aggregation, CandidatePool, FairnessEvaluator, Group,
        MissingPolicy,
    };
    pub use fairrec_data::{SyntheticConfig, SyntheticDataset};
    pub use fairrec_engine::{
        EngineConfig, GroupRecommendation, RecommenderEngine, SelectionAlgorithm, SimilarityKind,
    };
    pub use fairrec_ontology::{Ontology, PathScoring};
    pub use fairrec_phr::{Gender, PatientProfile, PhrStore};
    pub use fairrec_similarity::{
        BulkUserSimilarity, PairwiseOnly, PeerIndex, PeerSelector, ProfileSimilarity,
        RatingsSimilarity, SemanticSimilarity, SimScratch, UserSimilarity,
    };
    pub use fairrec_types::{
        FairrecError, GroupId, ItemId, Parallelism, Rating, RatingMatrix, RatingMatrixBuilder,
        Result, ScoredItem, UserId,
    };
}
