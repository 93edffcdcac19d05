//! User similarity measures (§V of the paper).
//!
//! Collaborative filtering stands or falls with the choice of similar
//! users. The paper proposes three measures and this crate implements all
//! of them behind one object-safe trait, [`UserSimilarity`]:
//!
//! * [`RatingsSimilarity`] — `RS(u, u′)`: Pearson correlation over co-rated
//!   items (Equation 2),
//! * [`ProfileSimilarity`] — `CS(u, u′)`: cosine similarity of tf-idf
//!   profile vectors (§V-B, Equation 3),
//! * [`SemanticSimilarity`] — `SS(u, u′)`: harmonic mean of pairwise
//!   ontology-path similarities between the users' health problems
//!   (§V-C, Equation 4),
//! * [`HybridSimilarity`] — a weighted combination (the paper exploits
//!   health-related information *"in addition to the traditional
//!   ratings"*; the hybrid is the natural way to use several signals at
//!   once),
//! * [`PeerSelector`] — Definition 1: `P_u = {u′ ∈ U : simU(u, u′) ≥ δ}`,
//! * [`PeerIndex`] — the cached, thread-safe serving form of Definition 1:
//!   memoized full peer lists with masked group views, explicit
//!   invalidation, and exact incremental maintenance on rating changes
//!   ([`PeerIndex::apply_delta`] — see the module docs for the
//!   update-path contract),
//! * [`BulkUserSimilarity`] — the one-vs-all form of `simU` used for cold
//!   peer builds: every measure gets a per-pair fallback, and
//!   [`RatingsSimilarity`] ships an inverted-index Pearson kernel whose
//!   output is bitwise identical to the per-pair path (see the `bulk`
//!   and `ratings` module docs),
//! * [`ShardedPeerIndex`] / [`ShardedRatingsSimilarity`] — the engine's
//!   one index and Pearson measure, over `S` user shards (one by
//!   default, where they cost what the two above cost): cold warms
//!   decomposed into per-shard-pair kernel tasks, lookups routed to
//!   each user's owning shard — bitwise identical to the monolithic
//!   index for any shard count (see the `sharded` module docs).
//!
//! A similarity may be *undefined* for a pair (no co-rated items, empty
//! profiles, no recorded problems); measures return `Option<f64>` and
//! undefined pairs simply never become peers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bulk;
pub mod clustering;
mod hybrid;
mod peer_index;
mod peers;
mod profile;
mod ratings;
mod semantic;
mod sharded;

pub use bulk::{BulkUserSimilarity, PairwiseOnly, SimScratch};
pub use clustering::{ClusteredPeerSelector, Clustering, KMedoids};
pub use hybrid::{HybridSimilarity, Rescale01};
pub use peer_index::{DeltaOutcome, PeerIndex};
pub use peers::{PeerSelector, Peers};
pub use profile::ProfileSimilarity;
pub use ratings::RatingsSimilarity;
pub use semantic::SemanticSimilarity;
pub use sharded::{ShardedPeerIndex, ShardedRatingsSimilarity};

use fairrec_types::UserId;

/// An object-safe user-to-user similarity measure `simU`.
pub trait UserSimilarity {
    /// Similarity of `u` and `v`, or `None` when undefined for this pair.
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64>;

    /// Short name for reports and benchmark labels.
    fn name(&self) -> &'static str;
}

impl<T: UserSimilarity + ?Sized> UserSimilarity for &T {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        (**self).similarity(u, v)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: UserSimilarity + ?Sized> UserSimilarity for Box<T> {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        (**self).similarity(u, v)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: UserSimilarity + ?Sized> UserSimilarity for std::sync::Arc<T> {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        (**self).similarity(u, v)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
