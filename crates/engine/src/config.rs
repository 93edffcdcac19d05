//! Engine configuration.

use fairrec_core::aggregate::{Aggregation, MissingPolicy};
use fairrec_types::Parallelism;

/// Which §V similarity measure drives peer selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimilarityKind {
    /// `RS` — Pearson over co-rated items (Equation 2).
    Ratings,
    /// `CS` — tf-idf cosine over rendered profiles (§V-B).
    Profile,
    /// `SS` — ontology harmonic mean over health problems (§V-C).
    Semantic,
    /// Weighted mix; Pearson is rescaled into `[0, 1]` before mixing so
    /// the component scales are commensurable.
    Hybrid {
        /// Weight of the (rescaled) ratings measure.
        ratings: f64,
        /// Weight of the profile measure.
        profile: f64,
        /// Weight of the semantic measure.
        semantic: f64,
    },
}

/// Which selection algorithm produces the final package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionAlgorithm {
    /// Algorithm 1 (the paper's heuristic).
    Greedy,
    /// Algorithm 1 followed by best-improvement swaps (extension).
    GreedyWithSwaps {
        /// Maximum refinement passes.
        max_passes: usize,
    },
    /// Exact brute force (§VI baseline) — exponential, small pools only.
    Exact,
    /// Plain group top-z without fairness (§III-B baseline).
    PlainTopZ,
}

/// How [`RecommenderEngine::ingest_ratings`] keeps the peer cache fresh
/// for a batch.
///
/// [`RecommenderEngine::ingest_ratings`]:
///     crate::RecommenderEngine::ingest_ratings
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// The kernel cost model decides per batch: replay the batch as
    /// per-event deltas when their estimated co-rating mass undercuts
    /// one symmetric rewarm, blanket-invalidate otherwise. Both routes
    /// serve bitwise-identical results; only the work differs.
    #[default]
    Adaptive,
    /// Always take the blanket invalidation (the pre-model behaviour) —
    /// the baseline the cost-model regression tests and benches compare
    /// against.
    AlwaysBlanket,
}

/// All engine knobs. `Default` reproduces the paper's setup as closely as
/// its text pins down: ratings similarity, δ = 0, k = 10, average
/// aggregation, greedy selection.
///
/// The engine always predicts in memory. The paper's §IV MapReduce
/// formulation is a separate entry point
/// (`fairrec_mapreduce::mapreduce_group_predictions`); its predictions
/// are served through
/// [`RecommenderEngine::recommend_from_predictions`](crate::RecommenderEngine::recommend_from_predictions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Peer similarity measure.
    pub similarity: SimilarityKind,
    /// Peer threshold δ (Definition 1).
    pub delta: f64,
    /// Optional peer cap (kNN variant).
    pub max_peers: Option<usize>,
    /// Minimum co-rated overlap for Pearson.
    pub min_overlap: usize,
    /// Per-user list length k (both `A_u` and the fairness definition).
    pub k: usize,
    /// Definition 2 aggregation.
    pub aggregation: Aggregation,
    /// Missing-prediction policy.
    pub missing: MissingPolicy,
    /// Optional candidate-pool cap `m` (§VI's pool size).
    pub pool_size: Option<usize>,
    /// Selection algorithm.
    pub algorithm: SelectionAlgorithm,
    /// Pad the package with plain top-relevance items when the fairness
    /// algorithm returns fewer than `z` (exhausted `A_u` lists).
    pub pad_to_z: bool,
    /// How the hot loops fan out: peer-index warming and the
    /// `recommend_batch` fan-out over requests. A request's group pass
    /// runs on the thread that serves it, in every mode.
    /// Every mode produces bitwise identical results; `Sequential` pins
    /// single-threaded execution for determinism tests and tiny
    /// workloads.
    pub parallelism: Parallelism,
    /// The number of user shards `S` of the engine's one store and one
    /// peer index: the rating matrix is split per user, cold peer warms
    /// decompose into per-shard-pair kernel tasks, and every request's
    /// peer lookups route to each member's owning shard
    /// (scatter-gather). Results are **bitwise identical** to the
    /// monolithic computation for any `S`. `None` (the default) ≡
    /// `Some(1)`: the input matrix moves whole into a single shard under
    /// the identity remap, at the monolithic cost. Every similarity
    /// backend runs at `S = 1`; `S > 1` is only supported with
    /// [`SimilarityKind::Ratings`] — the shard kernels are the
    /// inverted-index Pearson passes, and profile/semantic measures do
    /// not derive from the rating relation, so partitioning it would
    /// not shard their work.
    pub num_shards: Option<u32>,
    /// Batch-ingestion maintenance route: cost-model-driven
    /// ([`IngestPolicy::Adaptive`], the default) or the unconditional
    /// blanket invalidation.
    pub ingest_policy: IngestPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            similarity: SimilarityKind::Ratings,
            delta: 0.0,
            max_peers: None,
            min_overlap: 2,
            k: 10,
            aggregation: Aggregation::Average,
            missing: MissingPolicy::Skip,
            pool_size: None,
            algorithm: SelectionAlgorithm::Greedy,
            pad_to_z: true,
            parallelism: Parallelism::default(),
            num_shards: None,
            ingest_policy: IngestPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`fairrec_types::FairrecError::InvalidParameter`] on nonsensical
    /// values (k = 0, non-finite δ, negative hybrid weights, all-zero
    /// hybrid weights, zero-sized pool).
    pub fn validate(&self) -> fairrec_types::Result<()> {
        use fairrec_types::FairrecError;
        if self.k == 0 {
            return Err(FairrecError::invalid_parameter("k", "must be ≥ 1"));
        }
        if !self.delta.is_finite() {
            return Err(FairrecError::invalid_parameter("delta", "must be finite"));
        }
        if self.pool_size == Some(0) {
            return Err(FairrecError::invalid_parameter(
                "pool_size",
                "must be ≥ 1 when set",
            ));
        }
        if let Some(shards) = self.num_shards {
            if shards == 0 {
                return Err(FairrecError::invalid_parameter(
                    "num_shards",
                    "must be ≥ 1 when set",
                ));
            }
            if shards > 1 && !matches!(self.similarity, SimilarityKind::Ratings) {
                return Err(FairrecError::invalid_parameter(
                    "num_shards",
                    "more than one shard requires the ratings similarity backend \
                     (the shard kernels are rating-matrix passes)",
                ));
            }
        }
        if let SimilarityKind::Hybrid {
            ratings,
            profile,
            semantic,
        } = self.similarity
        {
            for (name, w) in [
                ("ratings", ratings),
                ("profile", profile),
                ("semantic", semantic),
            ] {
                if !w.is_finite() || w < 0.0 {
                    return Err(FairrecError::invalid_parameter(
                        "similarity",
                        format!("hybrid weight {name} must be finite and ≥ 0, got {w}"),
                    ));
                }
            }
            if ratings + profile + semantic <= 0.0 {
                return Err(FairrecError::invalid_parameter(
                    "similarity",
                    "hybrid weights must not all be zero",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paperlike() {
        let c = EngineConfig::default();
        c.validate().unwrap();
        assert_eq!(c.similarity, SimilarityKind::Ratings);
        assert_eq!(c.algorithm, SelectionAlgorithm::Greedy);
        assert_eq!(c.k, 10);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            EngineConfig {
                k: 0,
                ..Default::default()
            },
            EngineConfig {
                delta: f64::NAN,
                ..Default::default()
            },
            EngineConfig {
                pool_size: Some(0),
                ..Default::default()
            },
            EngineConfig {
                similarity: SimilarityKind::Hybrid {
                    ratings: -1.0,
                    profile: 1.0,
                    semantic: 1.0,
                },
                ..Default::default()
            },
            EngineConfig {
                similarity: SimilarityKind::Hybrid {
                    ratings: 0.0,
                    profile: 0.0,
                    semantic: 0.0,
                },
                ..Default::default()
            },
            EngineConfig {
                num_shards: Some(0),
                ..Default::default()
            },
            EngineConfig {
                num_shards: Some(2),
                similarity: SimilarityKind::Profile,
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn sharded_ratings_config_is_valid() {
        for shards in [1, 2, 8] {
            EngineConfig {
                num_shards: Some(shards),
                ..Default::default()
            }
            .validate()
            .unwrap();
        }
    }

    #[test]
    fn valid_hybrid_passes() {
        EngineConfig {
            similarity: SimilarityKind::Hybrid {
                ratings: 1.0,
                profile: 0.5,
                semantic: 0.5,
            },
            ..Default::default()
        }
        .validate()
        .unwrap();
    }
}
