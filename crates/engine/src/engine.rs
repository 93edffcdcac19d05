//! The recommender engine facade.
//!
//! Construction is where all heavy lifting happens: the configured
//! similarity backend is built **once** (sharing the engine's data via
//! `Arc`, so no per-request rebuilds), and a [`ShardedPeerIndex`] is
//! attached through which every request path — group, single-user,
//! batched — resolves Definition 1. The index fills lazily on first use
//! and can be pre-filled with [`RecommenderEngine::warm_peer_index`].
//!
//! There is one store and one index: the rating relation is a
//! [`ShardedRatingMatrix`] and the peer cache a [`ShardedPeerIndex`],
//! both over `S` user shards ([`EngineConfig::num_shards`], `None` ≡
//! `S = 1`). At `S = 1` the input matrix moves into the single shard
//! under the identity remap — no copy, and every id lookup is O(1) — so
//! the unsharded engine is the `S = 1` case of the same code, not a
//! second path. Every similarity backend runs at `S = 1`; only `Ratings`
//! shards further.
//!
//! The rating relation is live: single ratings stream in through
//! [`RecommenderEngine::ingest_rating`], which patches the owning shard
//! in place and repairs the peer cache incrementally
//! ([`ShardedPeerIndex::apply_delta`]) instead of dropping it;
//! [`RecommenderEngine::remove_rating`] is the shrink counterpart over
//! the same delta machinery; [`RecommenderEngine::ingest_ratings`]
//! routes bulk loads through a kernel cost model — per-event delta
//! replay below the computed mass threshold, blanket invalidation above
//! it — and [`RecommenderEngine::invalidate_peers`] remains the manual
//! fallback (the index docs spell out the full update-path contract).

use crate::config::{EngineConfig, IngestPolicy, SelectionAlgorithm, SimilarityKind};
use fairrec_core::brute_force::brute_force;
use fairrec_core::fairness::FairnessEvaluator;
use fairrec_core::greedy::{algorithm1, plain_top_z, Selection};
use fairrec_core::group::Group;
use fairrec_core::pool::CandidatePool;
use fairrec_core::predictions::{
    compute_group_predictions_from_peers, GroupPredictionConfig, GroupPredictions,
};
use fairrec_core::recommend::single_user_top_k_from_peers;
use fairrec_core::swap::swap_refine;
use fairrec_ontology::Ontology;
use fairrec_phr::PhrStore;
use fairrec_similarity::{
    BulkUserSimilarity, DeltaOutcome, HybridSimilarity, PeerSelector, ProfileSimilarity, Rescale01,
    SemanticSimilarity, ShardedPeerIndex, ShardedRatingsSimilarity, UserSimilarity,
};
use fairrec_types::{
    FairrecError, ItemId, Rating, RatingMatrix, RatingTriple, RatingsRead, Result, ScoredItem,
    ShardSpec, ShardedRatingMatrix, UserId,
};
use std::sync::Arc;

/// One recommended item with its scores.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendedItem {
    /// The item.
    pub item: ItemId,
    /// Group relevance `relevanceG(G, i)`.
    pub group_relevance: f64,
    /// Per-member relevance, in group member order (`None` = Equation 1
    /// undefined for that member).
    pub member_relevance: Vec<Option<f64>>,
    /// Whether this item was added by fairness-agnostic padding (see
    /// [`EngineConfig::pad_to_z`]).
    pub padded: bool,
}

/// Per-member satisfaction breakdown (the transparency §III-C calls for:
/// *"insights into the properties of the produced recommendations … to
/// help making the algorithmic process transparent"*).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSatisfaction {
    /// The member.
    pub user: UserId,
    /// Whether the package contains one of the member's top-k items.
    pub satisfied: bool,
    /// The member's best-ranked package item (position in the package),
    /// when any package item has a defined relevance for them.
    pub best_package_rank: Option<usize>,
    /// The member's own top recommendation over the pool, for comparison.
    pub personal_best: Option<ScoredItem>,
}

/// A group recommendation with its fairness accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRecommendation {
    /// The package `D`, in selection order.
    pub items: Vec<RecommendedItem>,
    /// `fairness(G, D)` — Definition 3.
    pub fairness: f64,
    /// `value(G, D)` — the paper's objective.
    pub value: f64,
    /// Per-member breakdown.
    pub members: Vec<MemberSatisfaction>,
    /// Size of the candidate pool the selection ran over (`m`).
    pub pool_size: usize,
}

/// What [`RecommenderEngine::ingest_rating`] /
/// [`RecommenderEngine::remove_rating`] did to the rating relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestOp {
    /// A new `(user, item)` fact was inserted.
    Inserted,
    /// An existing fact's score was replaced.
    Updated {
        /// The score that was replaced.
        previous: f64,
    },
    /// An existing fact was deleted
    /// ([`RecommenderEngine::remove_rating`]).
    Removed {
        /// The score that was removed.
        previous: f64,
    },
}

/// How [`RecommenderEngine::ingest_rating`] kept the peer cache fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerMaintenance {
    /// The exact incremental path ran ([`ShardedPeerIndex::apply_delta`]): the
    /// user's list was recomputed with one kernel pass and `touched`
    /// warm endpoint lists were spliced in place. Everything else stayed
    /// warm.
    DeltaSpliced {
        /// Warm peer lists (beyond the user's own) patched in place.
        touched: usize,
    },
    /// The index was fully cold — nothing to maintain.
    IndexCold,
    /// The insert grew the user id space past the index universe under a
    /// non-delta-capable backend that mixes rating data into its scores
    /// (`Hybrid`), so the index was rebuilt (cold) over the larger
    /// universe — a newly added id can score against existing users
    /// there, which stales every list computed over the old universe.
    /// The `Ratings` backend never reports this: it grows the universe
    /// in place ([`ShardedPeerIndex::grow_universe`], warm lists preserved — a
    /// user with no ratings had no defined pairs) and reports the delta
    /// outcome instead.
    UniverseGrown,
    /// The insert grew the user id space under a `Profile` / `Semantic`
    /// backend: instead of the cold rebuild, every preserved warm list
    /// was **revalidated** in place against the appended ids
    /// ([`ShardedPeerIndex::grow_universe_revalidated`] — each new id's
    /// similarity is probed against every warm slot and spliced in at
    /// its canonical position), leaving lists bitwise identical to a
    /// cold rebuild over the grown universe while keeping the cache
    /// warm.
    UniverseGrownRevalidated,
    /// The blanket fallback ran: every cached list was dropped (the
    /// backend reads ratings but is not delta-capable, e.g. `Hybrid`).
    InvalidatedAll,
    /// The configured backend never reads the rating matrix (`Profile`,
    /// `Semantic`), so every cached list is still exact — untouched.
    Unaffected,
}

/// Receipt of one [`RecommenderEngine::ingest_rating`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// What happened to the rating relation.
    pub op: IngestOp,
    /// What happened to the cached peer lists.
    pub peers: PeerMaintenance,
}

/// How [`RecommenderEngine::ingest_ratings`] maintained the peer cache —
/// the cost model's routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPeerMaintenance {
    /// The model priced the batch's per-event deltas below one rewarm
    /// (and the policy allowed it): every event replayed through the
    /// exact delta path, warm lists stayed warm, `touched` endpoint
    /// lists were spliced in place across the batch.
    DeltaReplayed {
        /// Warm peer lists (beyond the writing users' own) patched.
        touched: usize,
    },
    /// The relation was rebuilt in one pass and the blanket
    /// invalidation ran — the model priced the deltas at or above one
    /// rewarm, the policy forced it
    /// ([`IngestPolicy::AlwaysBlanket`](crate::IngestPolicy)), the
    /// backend is not delta-capable, or the cache was already cold.
    Blanket,
    /// The batch was empty — nothing changed anywhere.
    Untouched,
}

/// Receipt of one [`RecommenderEngine::ingest_ratings`] call: what was
/// applied, which maintenance route ran, and the cost-model masses that
/// drove the choice (comparable across runs — they derive only from the
/// pre-batch relation shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchIngestReport {
    /// Ratings applied (inserts + updates).
    pub applied: usize,
    /// The maintenance route taken.
    pub peers: BatchPeerMaintenance,
    /// Estimated kernel work of replaying the batch as per-event
    /// deltas: `Σ_events co_rating_mass(user)` over the pre-batch
    /// store.
    pub delta_mass: u64,
    /// Estimated kernel work of one symmetric rewarm:
    /// `total_co_rating_mass() / 2` over the pre-batch store.
    pub blanket_mass: u64,
}

/// Transient backend installed while the matrix is patched: dropping the
/// real backend releases its `Arc<ShardedRatingMatrix>` clone, making the
/// engine's handle unique so the patch happens in place (no matrix copy).
/// Never serves a request — the real backend is rebuilt before the
/// ingest call returns.
struct DetachedMeasure;

impl UserSimilarity for DetachedMeasure {
    fn similarity(&self, _: UserId, _: UserId) -> Option<f64> {
        None
    }
    fn name(&self) -> &'static str {
        "detached"
    }
}

impl BulkUserSimilarity for DetachedMeasure {}

/// Observer of served group recommendations — the runtime-monitoring
/// hook of the serving path. Every successful group recommendation,
/// whatever surface produced it (`recommend_for_group`, the batched
/// fan-outs, the streaming [`Server`](crate::Server)), is reported to
/// the installed observer *after* assembly and *before* the result is
/// returned, together with a [`RatingsRead`] view of the engine's
/// store (the observer never sees the shard count).
///
/// Implementations are called concurrently from the request fan-out and
/// must be cheap on the common path — `fairrec-metrics`'
/// `FairnessMonitor` samples every Nth request and keeps atomic
/// counters, exactly like [`ServerStats`](crate::ServerStats). An
/// observer must never panic: it runs inside the serving path.
pub trait RecommendationObserver: Send + Sync {
    /// Called with the served package for `(group, z)`.
    fn observe_recommendation(
        &self,
        group: &Group,
        z: usize,
        recommendation: &GroupRecommendation,
        reads: &dyn RatingsRead,
    );
}

/// The engine: owns the dataset, the similarity backend (built once at
/// construction), and the shared [`ShardedPeerIndex`], and serves
/// recommendations over them.
pub struct RecommenderEngine {
    /// The one copy of the rating relation, `S` compacted shards.
    store: Arc<ShardedRatingMatrix>,
    profiles: Arc<PhrStore>,
    ontology: Arc<Ontology>,
    config: EngineConfig,
    /// tf-idf vectors are corpus-wide; built once.
    profile_sim: Arc<ProfileSimilarity>,
    /// The configured similarity backend, built once over `Arc`s of the
    /// engine's data (Pearson is the scatter-gather sharded kernel, a
    /// single pass at `S = 1`). Bulk-capable: cold peer fills run the backend's
    /// one-vs-all path (the inverted-index kernel for `Ratings`, per-pair
    /// fallbacks elsewhere).
    measure: Box<dyn BulkUserSimilarity + Send + Sync>,
    /// Cached Definition-1 peer lists, one slot per user in its owning
    /// shard; every request path goes through it.
    peers: ShardedPeerIndex,
    /// The runtime-monitoring hook: every successful group
    /// recommendation is reported here (see [`RecommendationObserver`]).
    observer: Option<Arc<dyn RecommendationObserver>>,
}

impl std::fmt::Debug for RecommenderEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecommenderEngine")
            .field("num_users", &self.store.num_users())
            .field("num_items", &self.store.num_items())
            .field("num_ratings", &self.store.num_ratings())
            .field("measure", &self.measure.name())
            .field("cached_peer_lists", &self.peers.num_cached())
            .field("config", &self.config)
            .finish()
    }
}

impl RecommenderEngine {
    /// Builds the engine: validates the configuration, builds the tf-idf
    /// profile vectors, the configured similarity backend, and a cold
    /// [`ShardedPeerIndex`] — all exactly once. The input matrix becomes
    /// the `S`-shard store ([`EngineConfig::num_shards`], `None` ≡
    /// `S = 1`): at `S = 1` it moves in whole, otherwise it is
    /// partitioned and **dropped** — the engine keeps no second copy.
    ///
    /// # Errors
    /// Propagates [`EngineConfig::validate`] failures.
    pub fn new(
        matrix: RatingMatrix,
        profiles: PhrStore,
        ontology: Ontology,
        config: EngineConfig,
    ) -> Result<Self> {
        config.validate()?;
        let spec = ShardSpec::new(config.num_shards.unwrap_or(1))?;
        let store = Arc::new(ShardedRatingMatrix::from_owned(matrix, spec)?);
        let profiles = Arc::new(profiles);
        let ontology = Arc::new(ontology);
        let profile_sim = Arc::new(ProfileSimilarity::build(&profiles, &ontology));
        let measure = Self::build_measure(&config, &store, &profiles, &ontology, &profile_sim);
        let mut selector = PeerSelector::new(config.delta)?;
        if let Some(cap) = config.max_peers {
            selector = selector.with_max_peers(cap);
        }
        let peers = ShardedPeerIndex::new(selector, spec, store.num_users());
        Ok(Self {
            store,
            profiles,
            ontology,
            config,
            profile_sim,
            measure,
            peers,
            observer: None,
        })
    }

    /// Installs the serving-path observer (replacing any previous one).
    /// Every subsequent successful group recommendation — single-call,
    /// batched, or via the streaming [`Server`](crate::Server) — is
    /// reported to it. See [`RecommendationObserver`] for the contract.
    pub fn set_observer(&mut self, observer: Arc<dyn RecommendationObserver>) {
        self.observer = Some(observer);
    }

    /// Removes the serving-path observer, returning it.
    pub fn clear_observer(&mut self) -> Option<Arc<dyn RecommendationObserver>> {
        self.observer.take()
    }

    /// The installed serving-path observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn RecommendationObserver>> {
        self.observer.as_ref()
    }

    /// Builds the configured similarity backend over shared handles of
    /// the engine's data, so it lives as long as the engine without
    /// self-referential borrows. Pearson — alone or as `Hybrid`'s ratings
    /// term — is the scatter-gather sharded kernel (config validation
    /// keeps the other backends at `S = 1`, where it is one pass).
    fn build_measure(
        config: &EngineConfig,
        store: &Arc<ShardedRatingMatrix>,
        profiles: &Arc<PhrStore>,
        ontology: &Arc<Ontology>,
        profile_sim: &Arc<ProfileSimilarity>,
    ) -> Box<dyn BulkUserSimilarity + Send + Sync> {
        match config.similarity {
            SimilarityKind::Ratings => Box::new(Self::pearson(config, store)),
            SimilarityKind::Profile => Box::new(Arc::clone(profile_sim)),
            SimilarityKind::Semantic => Box::new(SemanticSimilarity::new(
                Arc::clone(profiles),
                Arc::clone(ontology),
            )),
            SimilarityKind::Hybrid {
                ratings,
                profile,
                semantic,
            } => Box::new(
                HybridSimilarity::new()
                    .with(Rescale01::new(Self::pearson(config, store)), ratings)
                    .with(Arc::clone(profile_sim), profile)
                    .with(
                        SemanticSimilarity::new(Arc::clone(profiles), Arc::clone(ontology)),
                        semantic,
                    ),
            ),
        }
    }

    /// The configured Pearson measure over the sharded store — the
    /// `Ratings` backend and `Hybrid`'s ratings term.
    fn pearson(
        config: &EngineConfig,
        store: &Arc<ShardedRatingMatrix>,
    ) -> ShardedRatingsSimilarity {
        ShardedRatingsSimilarity::new(Arc::clone(store)).with_min_overlap(config.min_overlap)
    }

    /// The rating store: the compacted `S`-shard partition (one shard
    /// holding the whole matrix at `S = 1`).
    pub fn ratings(&self) -> &ShardedRatingMatrix {
        &self.store
    }

    /// The profile store.
    pub fn profiles(&self) -> &PhrStore {
        &self.profiles
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The configured similarity backend.
    pub fn measure(&self) -> &(dyn BulkUserSimilarity + Send + Sync) {
        &*self.measure
    }

    /// The corpus-wide tf-idf profile similarity (built once at
    /// construction; also a component of the `Profile` and `Hybrid`
    /// backends).
    pub fn profile_similarity(&self) -> &ProfileSimilarity {
        &self.profile_sim
    }

    /// The shared peer index.
    pub fn peer_index(&self) -> &ShardedPeerIndex {
        &self.peers
    }

    /// Eagerly computes every user's peer list (fanned out across the
    /// configured parallelism), so later requests are pure cache hits.
    /// On a fully cold index under the bitwise-symmetric `Ratings`
    /// kernel this takes the symmetric bulk warm — one upper-triangle
    /// pass fills both endpoints' lists, decomposed into shard-pair
    /// tasks on the worker pool. The other backends (and a partially
    /// warm index) take the per-user bulk warm. Returns the number of
    /// lists computed.
    pub fn warm_peer_index(&self) -> usize {
        let parallelism = self.config.parallelism;
        match self.config.similarity {
            SimilarityKind::Ratings => {
                // The shard-pair warm needs the typed measure; the boxed
                // one is the same measure, type-erased.
                let pearson = Self::pearson(&self.config, &self.store);
                self.peers.warm_symmetric(&pearson, parallelism)
            }
            _ => self.peers.warm(&self.measure, parallelism),
        }
    }

    /// Drops every cached peer list — the blanket maintenance path for
    /// bulk data changes; see the
    /// [`PeerIndex`](fairrec_similarity::PeerIndex) update-path contract.
    /// Single rating changes should go through
    /// [`ingest_rating`](Self::ingest_rating) instead, which keeps the
    /// warm index and repairs only the affected lists.
    pub fn invalidate_peers(&self) {
        self.peers.invalidate_all();
    }

    /// Ingests one live rating — inserting a new `(user, item)` fact or
    /// updating an existing one — and keeps the peer cache exact without
    /// a blanket invalidation wherever possible:
    ///
    /// * `Ratings` backend — the delta path: the user's pre-change list
    ///   is materialised (satisfying [`ShardedPeerIndex::apply_delta`]'s
    ///   exactness precondition), the matrix is patched in place, and
    ///   `apply_delta` splices the refreshed edges into the warm lists.
    ///   Subsequent requests serve results bitwise identical to a fresh
    ///   engine built over the final matrix.
    /// * `Profile` / `Semantic` backends — these never read the rating
    ///   matrix, so the cache is reported [`PeerMaintenance::Unaffected`]
    ///   and stays fully warm.
    /// * `Hybrid` — reads ratings but is not bitwise symmetric, so the
    ///   blanket invalidation runs.
    /// * A first rating by a brand-new user: under the `Ratings` backend
    ///   the index universe grows **in place**
    ///   ([`ShardedPeerIndex::grow_universe`] — warm lists stay valid,
    ///   since a user with no ratings had no defined pairs) and the ordinary
    ///   delta runs; other backends that read ratings rebuild the index
    ///   cold over the grown universe
    ///   ([`PeerMaintenance::UniverseGrown`]).
    ///
    /// For *streams* of single ratings this is the right call per event;
    /// for large batches prefer [`ingest_ratings`](Self::ingest_ratings)
    /// — each delta costs one kernel pass, so past roughly the user
    /// count the blanket invalidate-plus-rewarm is cheaper.
    ///
    /// # Errors
    /// Returns [`fairrec_types::FairrecError::InvalidRating`] for scores
    /// outside `[1, 5]` and
    /// [`fairrec_types::FairrecError::InvalidParameter`] for the
    /// unstorable sentinel id `u32::MAX`. The engine is unchanged on
    /// error.
    pub fn ingest_rating(
        &mut self,
        user: UserId,
        item: ItemId,
        score: f64,
    ) -> Result<IngestReport> {
        let rating = Rating::new(score)?;
        // Guard the sentinel ids *before* any index growth or matrix
        // mutation: `raw() + 1` sizing cannot represent them, and the
        // error contract promises an untouched engine.
        Self::validate_ingest_ids(user, item)?;
        self.ingest_one(user, item, rating)
    }

    /// The validated single-event ingest: everything
    /// [`ingest_rating`](Self::ingest_rating) does after its input
    /// guards — also the per-event unit the adaptive batch path
    /// ([`ingest_ratings`](Self::ingest_ratings)) replays.
    fn ingest_one(&mut self, user: UserId, item: ItemId, rating: Rating) -> Result<IngestReport> {
        let is_update = self.store.has_rated(user, item);
        let delta_capable = matches!(self.config.similarity, SimilarityKind::Ratings);
        // A brand-new rater under the delta-capable backend: grow the
        // index universe in place *before* the mutation. Every warm list
        // stays valid (the user has no ratings yet, so no defined pairs
        // — growing cannot stale anything), and the pre-cache below then
        // materialises the user's pre-change list as the empty list,
        // which is exactly what keeps the subsequent delta exact.
        if delta_capable && user.raw() >= self.peers.num_users() {
            self.peers = self.peers.grow_universe(user.raw() + 1);
        }
        // Exactness precondition of `apply_delta`: the user's pre-change
        // list must be cached whenever any list is. Materialise it
        // through the ordinary lazy-fill path while the store still
        // holds pre-change data (a cache hit on a warm index; only the
        // owning shard's slot fills).
        if delta_capable {
            self.peers.prepare_delta(&self.measure, user);
        }
        // One write, to the one copy of the data, routed to the owning
        // shard alone.
        let previous = self.patch_store(|store| {
            if is_update {
                store.update_rating(user, item, rating).map(Some)
            } else {
                store.insert_rating(user, item, rating).map(|()| None)
            }
        })?;
        let peers = self.refresh_peers_after(user, delta_capable);
        Ok(IngestReport {
            op: match previous {
                Some(previous) => IngestOp::Updated { previous },
                None => IngestOp::Inserted,
            },
            peers,
        })
    }

    /// Deletes one stored rating — the shrink half of the live update
    /// path (a patient ending care walks out of the co-rating relation
    /// one rating at a time). The peer maintenance is the same exact
    /// machinery as [`ingest_rating`](Self::ingest_rating): the user's
    /// pre-change list is materialised, the matrix row shrinks in
    /// place, and [`ShardedPeerIndex::apply_delta`] splices the refreshed
    /// edges into every warm endpoint list — subsequent requests serve
    /// bitwise what a fresh engine over the shrunk relation would. The
    /// id spaces never shrink (the user keeps existing, possibly with
    /// zero ratings), so the index universe is untouched.
    ///
    /// # Errors
    /// Returns [`fairrec_types::FairrecError::MissingRating`] when
    /// `(user, item)` holds no rating. The engine is unchanged on
    /// error.
    pub fn remove_rating(&mut self, user: UserId, item: ItemId) -> Result<IngestReport> {
        // Reject before the pre-cache fill below so an erroneous call
        // leaves the engine bit-for-bit untouched.
        if !self.store.has_rated(user, item) {
            return Err(FairrecError::MissingRating { user, item });
        }
        let delta_capable = matches!(self.config.similarity, SimilarityKind::Ratings);
        // Same exactness precondition as the insert/update path: the
        // pre-change list must be cached whenever any list is.
        if delta_capable {
            self.peers.prepare_delta(&self.measure, user);
        }
        let previous = self.patch_store(|store| store.remove_rating(user, item))?;
        let peers = self.refresh_peers_after(user, delta_capable);
        Ok(IngestReport {
            op: IngestOp::Removed { previous },
            peers,
        })
    }

    /// Batch ingestion: applies every `(user, item, score)` as an insert
    /// (or update when the pair exists; later duplicates in the batch
    /// win), keeping the peer cache fresh along whichever maintenance
    /// route the kernel cost model prices cheaper (under the default
    /// [`IngestPolicy::Adaptive`](crate::IngestPolicy)):
    ///
    /// * **Delta replay** — each event runs the exact
    ///   [`ingest_rating`](Self::ingest_rating) delta, priced at its
    ///   user's co-rating mass `Σ_{i ∈ I(u)} |U(i)|` (the ratings one
    ///   one-vs-all kernel pass scans, read off the maintained degree
    ///   arrays). Warm lists stay warm throughout.
    /// * **Blanket** — the final relation is rebuilt in one pass
    ///   (O(|R| + batch) instead of per-entry memmoves) and every
    ///   cached list is dropped for the next
    ///   [`warm_peer_index`](Self::warm_peer_index), priced at the
    ///   symmetric warm's `total_co_rating_mass() / 2`.
    ///
    /// The batch takes the delta route iff the summed delta mass
    /// undercuts the rewarm mass, the backend is delta-capable
    /// (`Ratings`), and any list is warm to preserve — otherwise
    /// blanket. Both routes leave the engine serving **bitwise
    /// identical** results; only the work differs. The decision and
    /// both masses are surfaced in the returned [`BatchIngestReport`].
    ///
    /// # Errors
    /// All-or-nothing: an invalid score or an unstorable sentinel id
    /// (`u32::MAX`) rejects the whole batch, and the engine (matrix
    /// *and* warm peer cache) is left untouched.
    pub fn ingest_ratings<I>(&mut self, batch: I) -> Result<BatchIngestReport>
    where
        I: IntoIterator<Item = (UserId, ItemId, f64)>,
    {
        // Validate the whole batch up front so failure cannot leave a
        // half-applied relation (and a needlessly dropped cache).
        let staged: Vec<(UserId, ItemId, Rating)> = batch
            .into_iter()
            .map(|(user, item, score)| {
                Self::validate_ingest_ids(user, item)?;
                Ok((user, item, Rating::new(score)?))
            })
            .collect::<Result<_>>()?;
        if staged.is_empty() {
            return Ok(BatchIngestReport {
                applied: 0,
                peers: BatchPeerMaintenance::Untouched,
                delta_mass: 0,
                blanket_mass: 0,
            });
        }
        let applied = staged.len();
        // Price both routes off the pre-batch relation shape: a delta
        // replay for `u` scans the ratings co-rated with `u`'s items,
        // a blanket costs one symmetric rewarm over every co-rating
        // pair. Estimates, not exact counts — the batch itself shifts
        // the degrees as it lands — but the error is O(batch) against
        // masses of O(|R|·degree).
        let delta_mass: u64 = staged
            .iter()
            .map(|&(user, _, _)| self.store.co_rating_mass(user))
            .sum();
        let blanket_mass = self.store.total_co_rating_mass() / 2;
        let delta_capable = matches!(self.config.similarity, SimilarityKind::Ratings);
        if self.config.ingest_policy == IngestPolicy::Adaptive
            && delta_capable
            && self.peers.num_cached() > 0
            && delta_mass < blanket_mass
        {
            let mut touched = 0usize;
            let mut replay_ok = true;
            for &(user, item, rating) in &staged {
                match self.ingest_one(user, item, rating) {
                    Ok(report) => {
                        if let PeerMaintenance::DeltaSpliced { touched: t } = report.peers {
                            touched += t;
                        }
                    }
                    Err(_) => {
                        // Unreachable today — `ingest_one`'s only fallible
                        // step re-checks what the up-front validation
                        // already admitted — but a future fallible path
                        // must not strand a half-replayed batch. Falling
                        // through to the blanket rebuild re-merges the
                        // *whole* staged batch over whatever prefix
                        // already landed (the merge is idempotent), so
                        // the final relation and the dropped cache are
                        // exactly the always-blanket outcome and the
                        // all-or-nothing contract holds by construction.
                        replay_ok = false;
                        break;
                    }
                }
            }
            if replay_ok {
                return Ok(BatchIngestReport {
                    applied,
                    peers: BatchPeerMaintenance::DeltaReplayed { touched },
                    delta_mass,
                    blanket_mass,
                });
            }
        }
        self.patch_store(|store| {
            // Merge the batch into the current relation. The map sorts
            // `(user, item)` — exactly the order the builders sum means
            // in, so the rebuilt store is bitwise what per-entry point
            // mutations would have produced.
            let mut relation: std::collections::BTreeMap<(UserId, ItemId), Rating> = store
                .to_triples()
                .into_iter()
                .map(|t| ((t.user, t.item), t.rating))
                .collect();
            let (mut n_users, mut n_items) = (store.num_users(), store.num_items());
            for &(user, item, rating) in &staged {
                relation.insert((user, item), rating);
                n_users = n_users.max(user.raw() + 1);
                n_items = n_items.max(item.raw() + 1);
            }
            // Straight to the partitioned form — the batch path never
            // materialises a transient monolithic matrix.
            let triples: Vec<RatingTriple> = relation
                .into_iter()
                .map(|((user, item), rating)| RatingTriple { user, item, rating })
                .collect();
            *store = ShardedRatingMatrix::from_triples(&triples, store.spec(), n_users, n_items)?;
            Ok(())
        })?;
        if self.store.num_users() > self.peers.num_users() {
            self.peers = self.peers.rebuild_cold(self.store.num_users());
        } else if self.ratings_feed_measure() {
            self.peers.invalidate_all();
        }
        Ok(BatchIngestReport {
            applied,
            peers: BatchPeerMaintenance::Blanket,
            delta_mass,
            blanket_mass,
        })
    }

    /// Rejects the sentinel ids the `raw() + 1` id-space sizing cannot
    /// represent (mirrors `RatingMatrix::insert_rating`'s guard, hoisted
    /// here so index growth never runs first).
    fn validate_ingest_ids(user: UserId, item: ItemId) -> Result<()> {
        if user.raw() == u32::MAX {
            return Err(FairrecError::invalid_parameter(
                "user",
                "id u32::MAX would overflow the user id space",
            ));
        }
        if item.raw() == u32::MAX {
            return Err(FairrecError::invalid_parameter(
                "item",
                "id u32::MAX would overflow the item id space",
            ));
        }
        Ok(())
    }

    /// Whether the configured backend reads the rating matrix at all —
    /// if not, rating changes cannot stale the peer cache.
    fn ratings_feed_measure(&self) -> bool {
        matches!(
            self.config.similarity,
            SimilarityKind::Ratings | SimilarityKind::Hybrid { .. }
        )
    }

    /// Runs `patch` against the engine's rating store in place. The
    /// backend holds an `Arc` clone of the store's data, so it is
    /// swapped for a transient placeholder first (making the engine's
    /// handle unique — `Arc::make_mut` inside `patch` mutates without a
    /// copy) and rebuilt afterwards; backend construction is cheap
    /// (`Arc` clones plus configuration). The rebuild runs in a drop
    /// guard so that a panic inside `patch` cannot leave the placeholder
    /// installed — an engine caught mid-unwind by a per-request panic
    /// handler must not silently serve empty peer lists forever after.
    fn patch_store<T>(
        &mut self,
        patch: impl FnOnce(&mut ShardedRatingMatrix) -> Result<T>,
    ) -> Result<T> {
        struct RestoreMeasure<'a>(&'a mut RecommenderEngine);
        impl Drop for RestoreMeasure<'_> {
            fn drop(&mut self) {
                self.0.measure = RecommenderEngine::build_measure(
                    &self.0.config,
                    &self.0.store,
                    &self.0.profiles,
                    &self.0.ontology,
                    &self.0.profile_sim,
                );
            }
        }
        self.measure = Box::new(DetachedMeasure);
        let guard = RestoreMeasure(self);
        patch(Arc::make_mut(&mut guard.0.store))
        // `guard` drops here (normally or on unwind), rebuilding the
        // backend over whatever the store now holds.
    }

    /// Post-mutation peer maintenance for a single-rating change by
    /// `user` (the store already holds the new data).
    fn refresh_peers_after(&mut self, user: UserId, delta_capable: bool) -> PeerMaintenance {
        if self.store.num_users() > self.peers.num_users() {
            // The id space grew past the index universe under a
            // non-delta-capable backend (the delta-capable path grows in
            // place *before* the mutation). A newly added id can score
            // against existing users, so cached lists over the old
            // universe are incomplete. `Profile` / `Semantic` measures
            // are per-pair and unchanged by the rating write, so the
            // warm lists are *revalidated* against the appended ids —
            // bitwise what a cold rebuild would serve, without dropping
            // the cache. `Hybrid` mixes the changed rating data into its
            // scores and rebuilds cold over the larger universe. Both
            // paths preserve generation monotonicity.
            let num_users = self.store.num_users();
            if matches!(
                self.config.similarity,
                SimilarityKind::Profile | SimilarityKind::Semantic
            ) {
                self.peers = self
                    .peers
                    .grow_universe_revalidated(&self.measure, num_users);
                return PeerMaintenance::UniverseGrownRevalidated;
            }
            self.peers = self.peers.rebuild_cold(num_users);
            return PeerMaintenance::UniverseGrown;
        }
        if !self.ratings_feed_measure() {
            return PeerMaintenance::Unaffected;
        }
        if !delta_capable {
            self.peers.invalidate_all();
            return PeerMaintenance::InvalidatedAll;
        }
        match self.peers.apply_delta(&self.measure, user) {
            DeltaOutcome::Spliced { touched } => PeerMaintenance::DeltaSpliced { touched },
            DeltaOutcome::ColdIndex => PeerMaintenance::IndexCold,
            // Universe growth is handled above, so the delta user is
            // always inside the index universe here.
            DeltaOutcome::OutOfUniverse => PeerMaintenance::IndexCold,
            DeltaOutcome::InvalidatedAll => PeerMaintenance::InvalidatedAll,
        }
    }

    /// The prediction phase (Equation 1 + Definition 2), in memory
    /// through the peer index: each member's peers resolve on their
    /// owning shard, then the group pass
    /// ([`compute_group_predictions_from_peers`]) reads the store's rows
    /// — monomorphised over [`ShardedRatingMatrix`], not a `dyn` view —
    /// and also builds every member's `A_u` for the configured `k`, so a
    /// pool built from these predictions without a binding `pool_size`
    /// starts with them.
    ///
    /// # Errors
    /// Propagates prediction failures (unknown members etc.).
    pub fn predictions_for(&self, group: &Group) -> Result<GroupPredictions> {
        let cfg = GroupPredictionConfig {
            aggregation: self.config.aggregation,
            missing: self.config.missing,
        };
        self.check_known_members(group)?;
        compute_group_predictions_from_peers(
            self.store.as_ref(),
            self.peers.group_peers(&self.measure, group.members()),
            group,
            cfg,
            Some(self.config.k),
        )
    }

    /// Rejects a group holding a user outside the store's user space.
    fn check_known_members(&self, group: &Group) -> Result<()> {
        match group
            .members()
            .iter()
            .find(|m| m.raw() >= self.store.num_users())
        {
            Some(&user) => Err(FairrecError::UnknownUser { user }),
            None => Ok(()),
        }
    }

    /// Recommends the top-z fairness-aware package for a caregiver group.
    ///
    /// # Errors
    /// Propagates prediction/pool/evaluator failures (unknown members,
    /// empty pool, oversized groups).
    pub fn recommend_for_group(&self, group: &Group, z: usize) -> Result<GroupRecommendation> {
        // Fail an oversized group before Equation 1, not after it.
        FairnessEvaluator::check_group_size(group.members().len())?;
        let predictions = self.predictions_for(group)?;
        self.recommend_from_predictions(group, &predictions, z)
    }

    /// Recommends the top-z package for `group` from predictions computed
    /// elsewhere — e.g. by the §IV MapReduce pipeline
    /// (`fairrec_mapreduce::mapreduce_group_predictions`). This is the
    /// selection half of [`recommend_for_group`](Self::recommend_for_group),
    /// which funnels through here: candidate pool → configured selection
    /// algorithm → optional padding → assembly → observer. Predictions
    /// equal to [`predictions_for`](Self::predictions_for)`(group)` give
    /// the identical package.
    ///
    /// # Errors
    /// The group checks of [`recommend_for_group`](Self::recommend_for_group)
    /// (oversized group, [`FairrecError::UnknownUser`]), then
    /// [`FairrecError::InvalidParameter`] when the predictions' members
    /// differ from the group's, then pool/evaluator failures.
    pub fn recommend_from_predictions(
        &self,
        group: &Group,
        predictions: &GroupPredictions,
        z: usize,
    ) -> Result<GroupRecommendation> {
        FairnessEvaluator::check_group_size(group.members().len())?;
        self.check_known_members(group)?;
        if predictions.members() != group.members() {
            return Err(FairrecError::invalid_parameter(
                "predictions",
                format!(
                    "computed for members {:?}, not for the group's {:?}",
                    predictions.members(),
                    group.members()
                ),
            ));
        }
        let pool = CandidatePool::from_predictions(predictions, self.config.pool_size)?;
        let evaluator = FairnessEvaluator::new(&pool, self.config.k)?;

        let mut selection = match self.config.algorithm {
            SelectionAlgorithm::Greedy => algorithm1(&pool, z, self.config.k),
            SelectionAlgorithm::GreedyWithSwaps { max_passes } => {
                let start = algorithm1(&pool, z, self.config.k);
                swap_refine(&pool, &evaluator, &start, max_passes).selection
            }
            SelectionAlgorithm::Exact => brute_force(&pool, &evaluator, z).selection,
            SelectionAlgorithm::PlainTopZ => plain_top_z(&pool, z),
        };

        // Optional fairness-agnostic padding to exactly z items; ranks
        // from `padded_from` onwards are padding, not selection.
        let padded_from = selection.len();
        let target = z.min(pool.num_items());
        if self.config.pad_to_z && selection.len() < target {
            let mut in_set = vec![false; pool.num_items()];
            for &j in &selection.positions {
                in_set[j] = true;
            }
            // The best `target` by group relevance hold at least
            // `target - |D|` unselected items, and they come first in the
            // full ranking, so ranking `target` pads exactly as ranking
            // the whole pool would.
            let filler = plain_top_z(&pool, target);
            for j in filler.positions {
                if selection.len() >= target {
                    break;
                }
                if !in_set[j] {
                    in_set[j] = true;
                    selection.positions.push(j);
                }
            }
        }

        let recommendation = self.assemble(group, &pool, &evaluator, &selection, padded_from);
        if let Some(observer) = &self.observer {
            observer.observe_recommendation(group, z, &recommendation, self.store.reads());
        }
        Ok(recommendation)
    }

    fn assemble(
        &self,
        group: &Group,
        pool: &CandidatePool,
        evaluator: &FairnessEvaluator,
        selection: &Selection,
        padded_from: usize,
    ) -> GroupRecommendation {
        let items: Vec<RecommendedItem> = selection
            .positions
            .iter()
            .enumerate()
            .map(|(rank, &j)| RecommendedItem {
                item: pool.items()[j],
                group_relevance: pool.group_relevance(j),
                member_relevance: (0..pool.num_members())
                    .map(|m| pool.member_relevance(m, j))
                    .collect(),
                padded: rank >= padded_from,
            })
            .collect();

        let fairness = evaluator.fairness(&selection.positions);
        let value = evaluator.value(pool, &selection.positions);
        let satisfied_mask = evaluator.satisfied_mask(&selection.positions);
        // The evaluator filled the pool's A_u memo for the configured k
        // (≥ 1), so each member's personal best is its list's head.
        let top_lists = pool.top_k_lists(self.config.k);

        let members: Vec<MemberSatisfaction> = group
            .members()
            .iter()
            .enumerate()
            .map(|(m, &user)| {
                let best_package_rank = selection
                    .positions
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, &j)| pool.member_relevance(m, j).map(|s| (rank, s)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
                    .map(|(rank, _)| rank);
                let personal_best = top_lists[m].first().map(|&j| {
                    ScoredItem::new(
                        pool.items()[j],
                        pool.member_relevance(m, j)
                            .expect("top-k positions are defined"),
                    )
                });
                MemberSatisfaction {
                    user,
                    satisfied: satisfied_mask & (1u64 << m) != 0,
                    best_package_rank,
                    personal_best,
                }
            })
            .collect();

        GroupRecommendation {
            items,
            fairness,
            value,
            members,
            pool_size: pool.num_items(),
        }
    }

    /// Single-user top-k recommendation (§III-A), served through the
    /// shared peer index.
    ///
    /// # Errors
    /// Propagates unknown-user failures.
    pub fn recommend_for_user(&self, user: UserId, k: usize) -> Result<Vec<ScoredItem>> {
        let peers = self.peers.peers_of(&self.measure, user);
        single_user_top_k_from_peers(self.store.as_ref(), &peers, user, k)
    }

    /// Batched group serving: recommends a top-z package for every group,
    /// fanning the groups out across the configured parallelism. All
    /// requests share the engine's similarity backend and peer index, so
    /// a user appearing in several groups is served from one cached peer
    /// list — the batched analogue of a serving loop under heavy traffic.
    /// (On a cold index, concurrent requests may briefly duplicate a
    /// shared member's first scan — benign, identical results; call
    /// [`warm_peer_index`](Self::warm_peer_index) first to avoid it.)
    ///
    /// Results are returned in input order and are identical to calling
    /// [`recommend_for_group`](Self::recommend_for_group) in a loop.
    ///
    /// # Errors
    /// Returns the first failure in group order, if any request fails.
    pub fn recommend_batch(&self, groups: &[Group], z: usize) -> Result<Vec<GroupRecommendation>> {
        self.serve_indexed(groups.len(), |idx| (&groups[idx], z), &|_| true)
            .into_iter()
            .collect()
    }

    /// Mixed-`z` batched serving: one `(group, z)` request per entry,
    /// outcomes in input order, **per-request** — a failing request does
    /// not reject its batchmates, which is what lets the streaming
    /// front-end fan a coalesced batch out in one call and still deliver
    /// each waiter its own result. Each entry is identical to calling
    /// [`recommend_for_group`](Self::recommend_for_group) on it.
    pub fn recommend_requests(
        &self,
        requests: &[(Group, usize)],
    ) -> Vec<Result<GroupRecommendation>> {
        self.recommend_requests_budgeted(requests, &|_| true)
    }

    /// [`recommend_requests`](Self::recommend_requests) with a
    /// cooperative deadline budget: `should_compute(idx)` is consulted
    /// immediately before request `idx`'s kernel work would start, and a
    /// `false` answer skips the request with
    /// [`FairrecError::DeadlineExpired`] instead of computing it. This is
    /// the checkpoint the serving dispatcher uses to stop burning kernel
    /// time mid-batch once every remaining waiter's deadline has lapsed —
    /// already-started requests run to completion (the kernel itself is
    /// not interruptible), but no *further* request of the batch starts.
    pub fn recommend_requests_budgeted(
        &self,
        requests: &[(Group, usize)],
        should_compute: &(dyn Fn(usize) -> bool + Sync),
    ) -> Vec<Result<GroupRecommendation>> {
        self.serve_indexed(
            requests.len(),
            |idx| (&requests[idx].0, requests[idx].1),
            should_compute,
        )
    }

    /// Serves requests `0..n`, fanned out over their indices across the
    /// configured parallelism; `request(idx)` borrows request `idx`'s
    /// group and `z`, so no group is copied.
    fn serve_indexed<'g>(
        &self,
        n: usize,
        request: impl Fn(usize) -> (&'g Group, usize) + Sync + Send,
        should_compute: &(dyn Fn(usize) -> bool + Sync),
    ) -> Vec<Result<GroupRecommendation>> {
        // One level of parallelism: a request's group pass runs on the
        // thread that serves it (a group is already a thread-sized unit
        // of work).
        self.config.parallelism.map_indexed(n, |idx| {
            if !should_compute(idx) {
                return Err(FairrecError::DeadlineExpired);
            }
            let (group, z) = request(idx);
            self.recommend_for_group(group, z)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_data::{SyntheticConfig, SyntheticDataset};
    use fairrec_mapreduce::{mapreduce_group_predictions, JobConfig, PipelineConfig};
    use fairrec_ontology::snomed::clinical_fragment;
    use fairrec_types::{GroupId, Parallelism};

    fn engine(config: EngineConfig) -> RecommenderEngine {
        let ontology = clinical_fragment();
        let data = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: 80,
                num_items: 150,
                num_communities: 4,
                ratings_per_user: 25,
                seed: 11,
                ..Default::default()
            },
            &ontology,
        )
        .unwrap();
        RecommenderEngine::new(data.matrix, data.profiles, ontology, config).unwrap()
    }

    fn group(engine: &RecommenderEngine) -> Group {
        let members = [
            UserId::new(0),
            UserId::new(1),
            UserId::new(2),
            UserId::new(3),
        ];
        for &u in &members {
            assert!(u.raw() < engine.ratings().num_users());
        }
        Group::new(GroupId::new(0), members).unwrap()
    }

    #[test]
    fn group_recommendation_has_z_items_and_full_fairness() {
        let e = engine(EngineConfig::default());
        let g = group(&e);
        let rec = e.recommend_for_group(&g, 8).unwrap();
        assert_eq!(rec.items.len(), 8);
        // Proposition 1 regime: z = 8 ≥ |G| = 4.
        assert!((rec.fairness - 1.0).abs() < 1e-12);
        assert!(rec.value > 0.0);
        assert_eq!(rec.members.len(), 4);
        assert!(rec.members.iter().all(|m| m.satisfied));
        assert!(rec.pool_size > 8);
        // Items are distinct.
        let mut ids: Vec<ItemId> = rec.items.iter().map(|i| i.item).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    const ALL_KINDS: [SimilarityKind; 4] = [
        SimilarityKind::Ratings,
        SimilarityKind::Profile,
        SimilarityKind::Semantic,
        SimilarityKind::Hybrid {
            ratings: 1.0,
            profile: 1.0,
            semantic: 1.0,
        },
    ];

    /// The one-shot monolithic path of fairrec-core over a matrix
    /// rebuilt from `e`'s relation, through `e`'s own measure kind:
    /// `(group package, single-user top-k, cold per-user warm lists)`.
    fn monolithic_oracle(
        e: &RecommenderEngine,
        g: &Group,
        z: usize,
        user: UserId,
    ) -> (
        GroupRecommendation,
        Vec<ScoredItem>,
        fairrec_similarity::PeerIndex,
    ) {
        use fairrec_core::predictions::compute_group_predictions;
        use fairrec_core::recommend::single_user_top_k;
        use fairrec_similarity::{PeerIndex, RatingsSimilarity};
        let m = Arc::new(e.ratings().to_monolithic().unwrap());
        let pearson =
            || RatingsSimilarity::new(Arc::clone(&m)).with_min_overlap(e.config().min_overlap);
        let measure: Box<dyn BulkUserSimilarity + Send + Sync> = match e.config().similarity {
            SimilarityKind::Ratings => Box::new(pearson()),
            SimilarityKind::Profile => Box::new(Arc::clone(&e.profile_sim)),
            SimilarityKind::Semantic => Box::new(SemanticSimilarity::new(
                Arc::clone(&e.profiles),
                Arc::clone(&e.ontology),
            )),
            SimilarityKind::Hybrid {
                ratings,
                profile,
                semantic,
            } => Box::new(
                HybridSimilarity::new()
                    .with(Rescale01::new(pearson()), ratings)
                    .with(Arc::clone(&e.profile_sim), profile)
                    .with(
                        SemanticSimilarity::new(Arc::clone(&e.profiles), Arc::clone(&e.ontology)),
                        semantic,
                    ),
            ),
        };
        let mut selector = PeerSelector::new(e.config().delta).unwrap();
        if let Some(cap) = e.config().max_peers {
            selector = selector.with_max_peers(cap);
        }
        let cfg = GroupPredictionConfig {
            aggregation: e.config().aggregation,
            missing: e.config().missing,
        };
        let predictions = compute_group_predictions(&m, &measure, &selector, g, cfg).unwrap();
        let package = e.recommend_from_predictions(g, &predictions, z).unwrap();
        let top_k = single_user_top_k(&m, &measure, &selector, user, 10).unwrap();
        let index = PeerIndex::new(selector, m.num_users());
        index.warm_symmetric(&measure, Parallelism::Sequential);
        (package, top_k, index)
    }

    #[test]
    fn all_similarity_kinds_produce_recommendations() {
        // Every backend serves at S = 1 — `None` and `Some(1)` alike —
        // bitwise what the monolithic one-shot path computes; only
        // `Ratings` shards further.
        for similarity in ALL_KINDS {
            for num_shards in [None, Some(1), Some(2)] {
                let config = EngineConfig {
                    similarity,
                    num_shards,
                    ..Default::default()
                };
                if num_shards == Some(2) && similarity != SimilarityKind::Ratings {
                    assert!(config.validate().is_err(), "{config:?}");
                    continue;
                }
                let e = engine(config);
                let g = group(&e);
                let rec = e.recommend_for_group(&g, 5).unwrap();
                assert_eq!(rec.items.len(), 5, "{similarity:?}");
                let (package, top_k, index) = monolithic_oracle(&e, &g, 5, UserId::new(5));
                assert_eq!(rec, package, "{similarity:?}, {num_shards:?}");
                assert_eq!(
                    e.recommend_for_user(UserId::new(5), 10).unwrap(),
                    top_k,
                    "{similarity:?}, {num_shards:?}"
                );
                e.warm_peer_index();
                for u in (0..e.ratings().num_users()).map(UserId::new) {
                    assert_eq!(
                        e.peer_index().cached_full(u),
                        index.cached_full(u),
                        "{similarity:?}, {num_shards:?}, peer list of {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn mapreduce_path_matches_in_memory() {
        // The §IV pipeline's predictions, fed through the selection half,
        // give the package `recommend_for_group` serves — on the mono and
        // the sharded store, for the fairness and the plain selector.
        for num_shards in [None, Some(3)] {
            for algorithm in [SelectionAlgorithm::Greedy, SelectionAlgorithm::PlainTopZ] {
                let e = engine(EngineConfig {
                    num_shards,
                    algorithm,
                    ..Default::default()
                });
                let g = group(&e);
                let (pipeline, _) = mapreduce_group_predictions(
                    e.ratings().to_triples(),
                    e.ratings().num_items(),
                    &g,
                    &PipelineConfig {
                        job: JobConfig::with_workers(2),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    e.recommend_from_predictions(&g, &pipeline, 6).unwrap(),
                    e.recommend_for_group(&g, 6).unwrap(),
                    "shards {num_shards:?}, {algorithm:?}"
                );
            }
        }
    }

    #[test]
    fn predictions_for_another_group_are_rejected() {
        let e = engine(EngineConfig::default());
        let g = group(&e);
        let other = Group::new(GroupId::new(1), [UserId::new(4), UserId::new(5)]).unwrap();
        let preds = e.predictions_for(&other).unwrap();
        assert!(matches!(
            e.recommend_from_predictions(&g, &preds, 6),
            Err(FairrecError::InvalidParameter {
                name: "predictions",
                ..
            })
        ));
    }

    #[test]
    fn algorithms_rank_as_expected() {
        let base = EngineConfig {
            pool_size: Some(14),
            k: 3,
            ..Default::default()
        };
        let g_cfgs = [
            SelectionAlgorithm::PlainTopZ,
            SelectionAlgorithm::Greedy,
            SelectionAlgorithm::GreedyWithSwaps { max_passes: 10 },
            SelectionAlgorithm::Exact,
        ];
        let mut values = Vec::new();
        for alg in g_cfgs {
            let e = engine(EngineConfig {
                algorithm: alg,
                pad_to_z: false,
                ..base
            });
            let g = group(&e);
            let rec = e.recommend_for_group(&g, 6).unwrap();
            values.push((alg, rec.value));
        }
        let exact = values[3].1;
        for (alg, v) in &values {
            assert!(
                exact >= v - 1e-9,
                "exact {exact} must dominate {alg:?} = {v}"
            );
        }
        // Swaps never fall below greedy.
        assert!(values[2].1 >= values[1].1 - 1e-9);
    }

    #[test]
    fn single_user_recommendations_work() {
        let e = engine(EngineConfig::default());
        let recs = e.recommend_for_user(UserId::new(5), 10).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.len() <= 10);
        // Scores descending.
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Never recommend something already rated.
        for s in &recs {
            assert!(!e.ratings().has_rated(UserId::new(5), s.item));
        }
    }

    #[test]
    fn member_satisfaction_report_is_consistent() {
        let e = engine(EngineConfig::default());
        let g = group(&e);
        let rec = e.recommend_for_group(&g, 4).unwrap();
        for m in &rec.members {
            if m.satisfied {
                assert!(
                    m.best_package_rank.is_some(),
                    "satisfied member must see something"
                );
            }
            assert!(m.personal_best.is_some());
        }
    }

    /// Fresh-engine oracle for ingestion tests: an engine built directly
    /// over `matrix` with the same profiles/ontology/config.
    fn rebuilt_engine(reference: &RecommenderEngine) -> RecommenderEngine {
        RecommenderEngine::new(
            reference.ratings().to_monolithic().unwrap(),
            reference.profiles().clone(),
            reference.ontology().clone(),
            *reference.config(),
        )
        .unwrap()
    }

    #[test]
    fn ingest_reports_ops_and_universe_growth() {
        let mut e = engine(EngineConfig::default());
        e.warm_peer_index();
        let r = e
            .ingest_rating(UserId::new(1), ItemId::new(149), 4.0)
            .unwrap();
        assert_eq!(r.op, IngestOp::Inserted);
        let r = e
            .ingest_rating(UserId::new(1), ItemId::new(149), 2.0)
            .unwrap();
        assert_eq!(r.op, IngestOp::Updated { previous: 4.0 });
        // Out-of-range scores are rejected without touching anything.
        let warm = e.peer_index().num_cached();
        assert!(e
            .ingest_rating(UserId::new(1), ItemId::new(0), 9.0)
            .is_err());
        assert_eq!(e.peer_index().num_cached(), warm);
        // A brand-new rater under the Ratings backend grows the universe
        // *in place*: every warm list survives, the new user's slot is
        // filled, and the ordinary delta runs.
        let grown = e.ratings().num_users() + 3;
        let r = e
            .ingest_rating(UserId::new(grown - 1), ItemId::new(0), 3.0)
            .unwrap();
        assert!(
            matches!(r.peers, PeerMaintenance::DeltaSpliced { .. }),
            "first rating of a new user must stay on the delta path, got {r:?}"
        );
        assert_eq!(e.peer_index().num_users(), grown);
        assert_eq!(
            e.peer_index().num_cached(),
            warm + 1,
            "warm lists survive universe growth; only the new user was added"
        );
        let fresh = rebuilt_engine(&e);
        fresh.warm_peer_index();
        for u in (0..grown).map(UserId::new) {
            assert_eq!(
                e.peer_index().full_peers(e.measure(), u),
                fresh.peer_index().full_peers(fresh.measure(), u),
                "peer list of {u} after in-place growth"
            );
        }
        let g = group(&e);
        assert_eq!(
            e.recommend_for_group(&g, 5).unwrap(),
            fresh.recommend_for_group(&g, 5).unwrap()
        );
    }

    #[test]
    fn universe_growth_revalidates_warm_lists_for_pairwise_backends() {
        // Profile / semantic similarity is per-pair and independent of
        // the rating relation, so a rating write that appends new ids
        // must not throw away the warm cache: every preserved list is
        // revalidated against the appended ids and stays bitwise what a
        // cold rebuild over the grown universe would serve.
        for (similarity, num_shards) in [
            (SimilarityKind::Profile, None),
            (SimilarityKind::Profile, Some(1)),
            (SimilarityKind::Semantic, None),
            (SimilarityKind::Semantic, Some(1)),
        ] {
            let mut e = engine(EngineConfig {
                similarity,
                num_shards,
                ..Default::default()
            });
            e.warm_peer_index();
            let old_n = e.ratings().num_users();
            let warm = e.peer_index().num_cached();
            assert!(warm > 0, "warm_peer_index must fill the cache");
            let grown = old_n + 2;
            let r = e
                .ingest_rating(UserId::new(grown - 1), ItemId::new(0), 3.0)
                .unwrap();
            assert_eq!(r.peers, PeerMaintenance::UniverseGrownRevalidated);
            assert_eq!(e.peer_index().num_users(), grown);
            assert_eq!(
                e.peer_index().num_cached(),
                warm,
                "revalidated growth must keep every warm list ({similarity:?})"
            );
            // Pinned: the preserved lists match the monolithic warm over
            // the grown universe, bitwise, and so does what is served.
            let g = group(&e);
            let (package, _, index) = monolithic_oracle(&e, &g, 6, UserId::new(0));
            for u in (0..old_n).map(UserId::new) {
                assert_eq!(
                    e.peer_index().cached_full(u).expect("preserved list"),
                    index.cached_full(u).expect("oracle warm list"),
                    "peer list of {u} after revalidated growth ({similarity:?}, {num_shards:?})"
                );
            }
            assert_eq!(e.recommend_for_group(&g, 6).unwrap(), package);
        }
    }

    #[test]
    fn universe_growth_rebuilds_cold_for_hybrid() {
        // Hybrid mixes the (changed) rating relation into its scores, so
        // lists computed over the smaller universe cannot be kept.
        for num_shards in [None, Some(1)] {
            let mut e = engine(EngineConfig {
                similarity: SimilarityKind::Hybrid {
                    ratings: 0.5,
                    profile: 0.3,
                    semantic: 0.2,
                },
                num_shards,
                ..Default::default()
            });
            e.warm_peer_index();
            let grown = e.ratings().num_users() + 1;
            let r = e
                .ingest_rating(UserId::new(grown - 1), ItemId::new(0), 3.0)
                .unwrap();
            assert_eq!(r.peers, PeerMaintenance::UniverseGrown);
            assert_eq!(e.peer_index().num_users(), grown);
            assert_eq!(e.peer_index().num_cached(), 0);
            let g = group(&e);
            let (package, top_k, _) = monolithic_oracle(&e, &g, 6, UserId::new(grown - 1));
            assert_eq!(e.recommend_for_group(&g, 6).unwrap(), package);
            assert_eq!(
                e.recommend_for_user(UserId::new(grown - 1), 10).unwrap(),
                top_k
            );
        }
    }

    #[test]
    fn sentinel_max_ids_are_rejected_before_any_maintenance() {
        let mut e = engine(EngineConfig::default());
        e.warm_peer_index();
        let warm = e.peer_index().num_cached();
        let universe = e.peer_index().num_users();
        assert!(e
            .ingest_rating(UserId::new(u32::MAX), ItemId::new(0), 3.0)
            .is_err());
        assert!(e
            .ingest_rating(UserId::new(0), ItemId::new(u32::MAX), 3.0)
            .is_err());
        assert!(e
            .ingest_ratings([(UserId::new(u32::MAX), ItemId::new(0), 3.0)])
            .is_err());
        assert_eq!(e.peer_index().num_cached(), warm, "cache untouched");
        assert_eq!(e.peer_index().num_users(), universe, "no index growth");
    }

    #[test]
    fn empty_or_failed_batches_keep_the_warm_cache() {
        // Pinned on both backends: an empty or all-rejected batch must
        // leave the generation token AND the warm cache untouched — a
        // spurious bump would break serving-side coalescing (slots keyed
        // under the token would stop joining) and invalidate warm peers
        // for nothing.
        for num_shards in [None, Some(4)] {
            let mut e = engine(EngineConfig {
                num_shards,
                ..Default::default()
            });
            e.warm_peer_index();
            let warm = e.peer_index().num_cached();
            let generation = e.peer_index().generation();
            let report = e.ingest_ratings(std::iter::empty()).unwrap();
            assert_eq!(report.applied, 0);
            assert_eq!(report.peers, BatchPeerMaintenance::Untouched);
            assert_eq!(e.peer_index().num_cached(), warm, "no-op batch");
            assert_eq!(
                e.peer_index().generation(),
                generation,
                "no-op batch must not bump the generation token"
            );
            // A batch failing on its first entry applied nothing either.
            assert!(e
                .ingest_ratings([(UserId::new(0), ItemId::new(0), 42.0)])
                .is_err());
            assert_eq!(e.peer_index().num_cached(), warm, "all-rejected batch");
            assert_eq!(
                e.peer_index().generation(),
                generation,
                "all-rejected batch must not bump the generation token"
            );
            // A batch failing mid-way, after valid entries, leaves the
            // store, the token and every cached list bitwise untouched.
            let before = ingest_state(&e);
            let valid = [
                (UserId::new(1), ItemId::new(2), 3.0),
                (UserId::new(5), ItemId::new(149), 4.5),
            ];
            let bad = [
                (UserId::new(3), ItemId::new(7), f64::NAN),
                (UserId::new(3), ItemId::new(7), f64::INFINITY),
                (UserId::new(3), ItemId::new(7), f64::NEG_INFINITY),
                (UserId::new(3), ItemId::new(7), 0.5),
                (UserId::new(3), ItemId::new(7), 5.5),
                (UserId::new(u32::MAX), ItemId::new(7), 3.0),
            ];
            for entry in bad {
                let batch = valid.iter().copied().chain([entry]);
                assert!(e.ingest_ratings(batch).is_err(), "{entry:?}");
                assert!(ingest_state(&e) == before, "{entry:?} changed the engine");
            }
        }
    }

    /// Everything a rejected ingest must leave alone: the triples, the
    /// generation token, the cached count and every cached list, scores
    /// and similarities by bit pattern.
    type IngestState = (
        Vec<(UserId, ItemId, u64)>,
        u64,
        usize,
        Vec<Option<Vec<(UserId, u64)>>>,
    );

    fn ingest_state(e: &RecommenderEngine) -> IngestState {
        let index = e.peer_index();
        let triples = e
            .ratings()
            .to_triples()
            .iter()
            .map(|t| (t.user, t.item, t.rating.value().to_bits()))
            .collect();
        let lists = (0..index.num_users())
            .map(|u| {
                index
                    .cached_full(UserId::new(u))
                    .map(|list| list.iter().map(|&(v, sim)| (v, sim.to_bits())).collect())
            })
            .collect();
        (triples, index.generation(), index.num_cached(), lists)
    }

    #[test]
    fn ingest_maintenance_depends_on_the_backend() {
        for num_shards in [None, Some(1)] {
            // Profile/semantic backends never read ratings: warm stays
            // warm.
            for similarity in [SimilarityKind::Profile, SimilarityKind::Semantic] {
                let mut e = engine(EngineConfig {
                    similarity,
                    num_shards,
                    ..Default::default()
                });
                e.warm_peer_index();
                let warm = e.peer_index().num_cached();
                let r = e
                    .ingest_rating(UserId::new(3), ItemId::new(149), 4.0)
                    .unwrap();
                assert_eq!(r.peers, PeerMaintenance::Unaffected, "{similarity:?}");
                assert_eq!(e.peer_index().num_cached(), warm, "{similarity:?}");
            }
            // Hybrid reads ratings but is not bitwise symmetric: blanket.
            let mut e = engine(EngineConfig {
                similarity: SimilarityKind::Hybrid {
                    ratings: 1.0,
                    profile: 1.0,
                    semantic: 1.0,
                },
                num_shards,
                ..Default::default()
            });
            e.warm_peer_index();
            let r = e
                .ingest_rating(UserId::new(3), ItemId::new(149), 4.0)
                .unwrap();
            assert_eq!(r.peers, PeerMaintenance::InvalidatedAll);
            assert_eq!(e.peer_index().num_cached(), 0);
            let g = group(&e);
            let (package, _, _) = monolithic_oracle(&e, &g, 6, UserId::new(3));
            assert_eq!(e.recommend_for_group(&g, 6).unwrap(), package);
        }
    }

    #[test]
    fn batch_ingestion_invalidates_once_and_matches_fresh() {
        // Pin the pre-model blanket baseline explicitly — the adaptive
        // routing itself is covered by the cost-model regression tests.
        let mut live = engine(EngineConfig {
            ingest_policy: IngestPolicy::AlwaysBlanket,
            ..Default::default()
        });
        live.warm_peer_index();
        let report = live
            .ingest_ratings([
                (UserId::new(0), ItemId::new(140), 4.0),
                (UserId::new(1), ItemId::new(140), 3.0),
                (UserId::new(0), ItemId::new(140), 2.0), // update
            ])
            .unwrap();
        assert_eq!(report.applied, 3);
        assert_eq!(report.peers, BatchPeerMaintenance::Blanket);
        assert_eq!(live.peer_index().num_cached(), 0, "blanket path");
        assert_eq!(
            live.ratings().rating(UserId::new(0), ItemId::new(140)),
            Some(2.0)
        );
        live.warm_peer_index();
        let fresh = rebuilt_engine(&live);
        let g = group(&live);
        assert_eq!(
            live.recommend_for_group(&g, 6).unwrap(),
            fresh.recommend_for_group(&g, 6).unwrap()
        );
    }

    /// The engine must serve bitwise what the monolithic one-shot path
    /// computes: same batches, same packages, same peer lists — for
    /// every shard count (`None` ≡ 1), warm or cold, uncapped or capped.
    #[test]
    fn sharded_engine_matches_monolithic_batches() {
        let groups: Vec<Group> = (0..6u32)
            .map(|g| {
                Group::new(
                    GroupId::new(g),
                    [
                        UserId::new(g * 3),
                        UserId::new(g * 3 + 1),
                        UserId::new(g * 3 + 2),
                    ],
                )
                .unwrap()
            })
            .collect();
        for (shards, max_peers) in [None, Some(1), Some(2), Some(3), Some(8)]
            .into_iter()
            .flat_map(|s| [(s, None), (s, Some(4))])
        {
            let e = engine(EngineConfig {
                num_shards: shards,
                max_peers,
                ..Default::default()
            });
            let oracles: Vec<_> = groups
                .iter()
                .map(|g| monolithic_oracle(&e, g, 6, UserId::new(5)))
                .collect();
            let want: Vec<GroupRecommendation> = oracles
                .iter()
                .map(|(package, _, _)| package.clone())
                .collect();
            let (_, top_k, mono) = &oracles[0];
            // Cold path: lookups scatter-gather on the miss.
            assert_eq!(
                e.recommend_batch(&groups, 6).unwrap(),
                want,
                "S={shards:?}, cap {max_peers:?}, cold"
            );
            // Warm path: per-shard-pair symmetric warm, then cache hits.
            e.invalidate_peers();
            assert_eq!(
                e.warm_peer_index(),
                e.ratings().num_users() as usize,
                "S={shards:?}"
            );
            assert_eq!(
                e.recommend_batch(&groups, 6).unwrap(),
                want,
                "S={shards:?}, cap {max_peers:?}, warm"
            );
            for u in (0..e.ratings().num_users()).map(UserId::new) {
                assert_eq!(
                    e.peer_index().cached_full(u),
                    mono.cached_full(u),
                    "S={shards:?}, cap {max_peers:?}, peer list of {u}"
                );
            }
            // Single-user serving routes through the same lists.
            assert_eq!(
                &e.recommend_for_user(UserId::new(5), 10).unwrap(),
                top_k,
                "S={shards:?}, cap {max_peers:?}"
            );
            assert!(e.recommend_for_user(UserId::new(9999), 5).is_err());
        }
    }

    #[test]
    fn ingest_stream_matches_fresh_engine_bitwise() {
        ingest_stream_matches_fresh_engine(None);
    }

    #[test]
    fn sharded_ingest_stream_matches_fresh_engine_bitwise() {
        ingest_stream_matches_fresh_engine(Some(3));
    }

    fn ingest_stream_matches_fresh_engine(num_shards: Option<u32>) {
        let mut live = engine(EngineConfig {
            num_shards,
            ..Default::default()
        });
        live.warm_peer_index();
        let g = group(&live);
        // Inserts touching group members and outsiders, an update, and a
        // brand-new user growing the universe in place.
        let grown = live.ratings().num_users() + 2;
        let events = [
            (UserId::new(0), ItemId::new(140), 4.5),
            (UserId::new(17), ItemId::new(3), 2.0),
            (UserId::new(2), ItemId::new(141), 1.5),
            (UserId::new(17), ItemId::new(3), 5.0), // update
            (UserId::new(grown - 1), ItemId::new(7), 3.0),
        ];
        for (n, &(u, i, s)) in events.iter().enumerate() {
            if n == events.len() - 1 {
                assert_eq!(
                    live.peer_index().num_cached(),
                    live.ratings().num_users() as usize,
                    "the index must stay fully warm through a delta stream"
                );
            }
            let report = live.ingest_rating(u, i, s).unwrap();
            assert!(
                matches!(report.peers, PeerMaintenance::DeltaSpliced { .. }),
                "the ratings backend must stay on the delta path, got {report:?}"
            );
        }
        assert_eq!(live.peer_index().num_users(), grown);
        // The new user landed in (and is served from) its owning shard;
        // only the never-rated gap user `grown - 2` is left cold.
        assert!(live
            .peer_index()
            .cached_full(UserId::new(grown - 1))
            .is_some());
        assert_eq!(live.peer_index().num_cached(), grown as usize - 1);

        let fresh = rebuilt_engine(&live);
        fresh.warm_peer_index();
        // Compare the cached lists, so a delta path that left an endpoint
        // cold instead of splicing it fails here. The gap user's slot is
        // lazily cold on `live` while the fresh warm caches its empty
        // list; its served list must still agree.
        let gap = UserId::new(grown - 2);
        for u in (0..grown).map(UserId::new).filter(|&u| u != gap) {
            assert_eq!(
                live.peer_index().cached_full(u),
                fresh.peer_index().cached_full(u),
                "peer list of {u}"
            );
        }
        assert_eq!(
            live.peer_index().full_peers(live.measure(), gap),
            fresh.peer_index().full_peers(fresh.measure(), gap),
            "peer list of the gap user {gap}"
        );
        assert_eq!(
            live.recommend_for_group(&g, 6).unwrap(),
            fresh.recommend_for_group(&g, 6).unwrap(),
            "served packages must match a from-scratch engine"
        );

        // Batch path, blanket route forced: one invalidation + shard
        // re-partition (the adaptive model would pick deltas for a
        // batch this small — that route is pinned elsewhere).
        live.config.ingest_policy = IngestPolicy::AlwaysBlanket;
        let report = live
            .ingest_ratings([
                (UserId::new(1), ItemId::new(141), 2.0),
                (UserId::new(2), ItemId::new(141), 4.0),
            ])
            .unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.peers, BatchPeerMaintenance::Blanket);
        assert_eq!(live.peer_index().num_cached(), 0, "blanket path");
        live.warm_peer_index();
        let fresh = rebuilt_engine(&live);
        assert_eq!(
            live.recommend_for_group(&g, 6).unwrap(),
            fresh.recommend_for_group(&g, 6).unwrap()
        );
    }

    #[test]
    fn observer_sees_every_successful_recommendation() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Counting {
            seen: AtomicU64,
            members: AtomicU64,
        }
        impl RecommendationObserver for Counting {
            fn observe_recommendation(
                &self,
                group: &Group,
                z: usize,
                rec: &GroupRecommendation,
                reads: &dyn RatingsRead,
            ) {
                assert_eq!(rec.members.len(), group.members().len());
                assert!(rec.items.len() <= z.max(rec.items.len()));
                assert!(reads.num_users() > 0);
                self.seen.fetch_add(1, Ordering::Relaxed);
                self.members
                    .fetch_add(group.members().len() as u64, Ordering::Relaxed);
            }
        }

        for num_shards in [None, Some(3)] {
            let mut e = engine(EngineConfig {
                num_shards,
                ..Default::default()
            });
            let counting = Arc::new(Counting::default());
            e.set_observer(Arc::clone(&counting) as Arc<dyn RecommendationObserver>);
            let g = group(&e);
            e.recommend_for_group(&g, 5).unwrap();
            assert_eq!(counting.seen.load(Ordering::Relaxed), 1);
            // Batched fan-outs funnel through the same hook, once per
            // request — including the mixed-z path the Server uses.
            e.recommend_batch(&[g.clone(), g.clone()], 4).unwrap();
            assert_eq!(counting.seen.load(Ordering::Relaxed), 3);
            let outcomes = e.recommend_requests(&[(g.clone(), 3), (g.clone(), 6)]);
            assert!(outcomes.iter().all(Result::is_ok));
            assert_eq!(counting.seen.load(Ordering::Relaxed), 5);
            assert_eq!(counting.members.load(Ordering::Relaxed), 5 * 4);
            // A failing request never reaches the observer.
            let bad = Group::new(GroupId::new(9), [UserId::new(u32::MAX - 1)]).unwrap();
            assert!(e.recommend_for_group(&bad, 3).is_err());
            assert_eq!(counting.seen.load(Ordering::Relaxed), 5);
            assert!(e.clear_observer().is_some());
            e.recommend_for_group(&g, 5).unwrap();
            assert_eq!(counting.seen.load(Ordering::Relaxed), 5, "detached");
        }
    }

    #[test]
    fn padding_marks_items() {
        // Singleton group: Algorithm 1 has no pairs, so everything beyond
        // the empty greedy selection is padding.
        let e = engine(EngineConfig::default());
        let g = Group::new(GroupId::new(1), [UserId::new(7)]).unwrap();
        let rec = e.recommend_for_group(&g, 5).unwrap();
        assert_eq!(rec.items.len(), 5);
        assert!(rec.items.iter().all(|i| i.padded));
    }

    #[test]
    fn padding_after_a_partial_selection_follows_the_whole_pool_ranking() {
        // k = 1: Algorithm 1 exhausts the one-item lists after at most
        // |G| picks, so most of the package is padding drawn around them.
        let e = engine(EngineConfig {
            k: 1,
            ..Default::default()
        });
        let g = Group::new(GroupId::new(2), (3..6).map(UserId::new)).unwrap();
        let mut mixed = false;
        for z in [2, 5, 9, 40] {
            let rec = e.recommend_for_group(&g, z).unwrap();
            let pool =
                CandidatePool::from_predictions(&e.predictions_for(&g).unwrap(), None).unwrap();
            let mut positions = algorithm1(&pool, z, 1).positions;
            let greedy = positions.len();
            for j in plain_top_z(&pool, pool.num_items()).positions {
                if positions.len() < z.min(pool.num_items()) && !positions.contains(&j) {
                    positions.push(j);
                }
            }
            let expected: Vec<ItemId> = positions.iter().map(|&j| pool.items()[j]).collect();
            let served: Vec<ItemId> = rec.items.iter().map(|i| i.item).collect();
            assert_eq!(served, expected, "z={z}");
            assert!(rec.items[greedy..].iter().all(|i| i.padded), "z={z}");
            mixed |= greedy > 0 && greedy < served.len();
        }
        assert!(mixed, "some package mixes greedy picks and padding");
    }
}
