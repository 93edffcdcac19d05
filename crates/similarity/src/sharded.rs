//! Sharded Definition-1 serving: the peer index and kernel dispatch over
//! a hash-partitioned user universe with **compacted shard-local id
//! spaces** — the engine's one index, at any shard count `S` (`S = 1`
//! by default).
//!
//! * [`ShardedRatingsSimilarity`] — the Pearson measure over a
//!   [`ShardedRatingMatrix`]. Its one-vs-all pass **scatters** one
//!   shard-scoped kernel pass per shard (source row from the owning
//!   shard's compacted CSR, candidates from each shard's local CSC) and
//!   **gathers** the per-shard edge lists into one ascending-id stream.
//!   Each candidate is owned by exactly one shard and its accumulator
//!   sees the same co-rating contributions in the same ascending-item
//!   order as the monolithic kernel — the shard's monotone
//!   [`IdRemap`] keeps local iteration order identical to global order —
//!   so the merged output is **bitwise identical** to
//!   [`RatingsSimilarity`](crate::RatingsSimilarity) over the unsharded
//!   matrix (pinned by `tests/sharded.rs`).
//! * [`ShardedPeerIndex`] — one [`PeerIndex`] per shard over the shard's
//!   **owned** users only: slot `l` of shard `s` is the `l`-th owned
//!   user, so per-shard slot arrays are O(U/S), not O(U). The cached
//!   lists still carry **global** peer ids (they are served verbatim);
//!   translation happens only at this type's boundary. Lookups route to
//!   the owning shard, so serving reads stay one cache hit. Any bulk
//!   measure can fill it ([`ShardedPeerIndex::full_peers`],
//!   [`ShardedPeerIndex::warm`]): each shard sees the measure through a
//!   slot → global-id adapter running over the global universe.
//!
//! ## `S = 1` is the monolithic case
//!
//! With one shard every remap is the identity (`owned = 0..U`), which
//! [`IdRemap::local_of`] recognises from the data and answers in O(1);
//! the engine moves its input matrix into the shard without a copy
//! ([`ShardedRatingMatrix::from_owned`]). The one index therefore costs
//! what a monolithic [`PeerIndex`] costs, and there is no second path.
//!
//! ## The shard-pair symmetric warm
//!
//! [`ShardedPeerIndex::warm_symmetric`] decomposes the upper-triangle
//! warm into `S·(S+1)/2` shard pairs: pair `(a, a)` runs the above-only
//! kernel (each same-shard pair once), pair `(a, b)` with `a < b` runs
//! the full shard-scoped kernel from `a`'s sources into `b`'s
//! candidates (each cross-shard pair once). Each pair's sources are
//! further split into warm-sized chunks, so the single pair of `S = 1`
//! still spreads across the worker pool. Qualifying edges are scattered
//! straight into both endpoints' per-user lists and canonicalised once —
//! exactly the monolithic scatter — then published slot by slot into
//! the owning shards under each shard's recorded generation token (a
//! concurrent invalidation makes that shard's remaining installs
//! no-ops). The result is bitwise identical to the monolithic
//! [`PeerIndex::warm_symmetric`] for **any** shard count.
//!
//! ## The delta path
//!
//! The delta is coordinated **centrally** instead of once per shard:
//! [`ShardedPeerIndex::prepare_delta`] caches the changed user's full
//! pre-change list in its owning slot (a cache hit on a warm index);
//! after the mutation, [`ShardedPeerIndex::apply_delta`] bumps every
//! shard's token, recomputes the user's full list with one scatter-gather
//! pass, and splices the refreshed `(user, simU)` edges into the
//! affected endpoints' lists, each routed to its owning shard's slot.
//! Total kernel work is about two global passes regardless of `S`, no
//! shard ever stores a non-owned user's list, and every warm list ends
//! up bitwise identical to a cold rebuild against the current data.

use crate::bulk::{BulkUserSimilarity, SimScratch};
use crate::peer_index::{splice_delta, warm_chunk_size, DeltaOutcome, PeerIndex};
use crate::peers::{PeerSelector, Peers};
use crate::ratings::{cross_kernel, cross_similarity, KernelSide};
use crate::UserSimilarity;
use fairrec_types::{IdRemap, Parallelism, ShardMatrix, ShardSpec, ShardedRatingMatrix, UserId};
use std::borrow::Borrow;
use std::sync::Arc;

/// Pearson over a [`ShardedRatingMatrix`]: the scatter-gather bulk
/// measure of the sharding layer. Bitwise interchangeable with
/// [`RatingsSimilarity`](crate::RatingsSimilarity) over the equivalent
/// unsharded matrix — see the module docs.
#[derive(Debug, Clone)]
pub struct ShardedRatingsSimilarity<M = Arc<ShardedRatingMatrix>> {
    matrix: M,
    min_overlap: usize,
}

impl<M: Borrow<ShardedRatingMatrix>> ShardedRatingsSimilarity<M> {
    /// Sharded Pearson with the default minimum overlap of 2.
    pub fn new(matrix: M) -> Self {
        Self {
            matrix,
            min_overlap: 2,
        }
    }

    /// Overrides the minimum number of co-rated items (clamped to ≥ 1).
    pub fn with_min_overlap(mut self, min_overlap: usize) -> Self {
        self.min_overlap = min_overlap.max(1);
        self
    }

    /// The underlying sharded matrix.
    pub fn matrix(&self) -> &ShardedRatingMatrix {
        self.matrix.borrow()
    }

    /// The minimum number of co-rated items for a defined correlation.
    pub fn min_overlap(&self) -> usize {
        self.min_overlap
    }

    /// One shard-scoped pass per shard, gathered and re-sorted into the
    /// ascending-candidate order the bulk contract promises.
    fn scatter_gather(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
        above_only: bool,
    ) {
        let sharded = self.matrix.borrow();
        let from = out.len();
        let source = sharded.owning_shard(u);
        for t in 0..sharded.num_shards() as usize {
            let scoped = ShardScopedRatings {
                source,
                candidates: sharded.shard(t),
                min_overlap: self.min_overlap,
            };
            if above_only {
                scoped.similarities_above(u, num_users, scratch, out);
            } else {
                scoped.similarities_from(u, num_users, scratch, out);
            }
        }
        // Each candidate came from exactly its owning shard's pass, so
        // the gather is a pure id re-sort — values untouched.
        out[from..].sort_unstable_by_key(|&(v, _)| v);
    }
}

impl<M: Borrow<ShardedRatingMatrix>> UserSimilarity for ShardedRatingsSimilarity<M> {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        let sharded = self.matrix.borrow();
        if u == v {
            // Same existence rule as the monolithic measure: rating-less
            // users have no defined similarity, themselves included.
            return sharded.owning_shard(u).user_mean(u).map(|_| 1.0);
        }
        cross_similarity(
            KernelSide::shard(sharded.owning_shard(u)),
            KernelSide::shard(sharded.owning_shard(v)),
            u,
            v,
            self.min_overlap,
        )
    }

    fn name(&self) -> &'static str {
        "sharded-ratings-pearson"
    }
}

impl<M: Borrow<ShardedRatingMatrix>> BulkUserSimilarity for ShardedRatingsSimilarity<M> {
    fn similarities_from(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        self.scatter_gather(u, num_users, scratch, out, false);
    }

    fn similarities_above(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        self.scatter_gather(u, num_users, scratch, out, true);
    }

    /// Pearson is bitwise symmetric, and the partition does not change
    /// the per-pair arithmetic.
    fn is_symmetric(&self) -> bool {
        true
    }
}

/// One leg of the scatter: source row from one compacted shard,
/// candidates from (possibly) another. Only users owned by the candidate
/// shard can ever be emitted, as **global** ids in ascending order.
#[derive(Debug, Clone, Copy)]
struct ShardScopedRatings<'a> {
    source: &'a ShardMatrix,
    candidates: &'a ShardMatrix,
    min_overlap: usize,
}

impl UserSimilarity for ShardScopedRatings<'_> {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        if u == v {
            return self.source.user_mean(u).map(|_| 1.0);
        }
        cross_similarity(
            KernelSide::shard(self.source),
            KernelSide::shard(self.candidates),
            u,
            v,
            self.min_overlap,
        )
    }

    fn name(&self) -> &'static str {
        "shard-scoped-pearson"
    }
}

impl BulkUserSimilarity for ShardScopedRatings<'_> {
    fn similarities_from(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        cross_kernel(
            KernelSide::shard(self.source),
            KernelSide::shard(self.candidates),
            u,
            num_users,
            self.min_overlap,
            scratch,
            out,
            false,
        );
    }

    fn similarities_above(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        cross_kernel(
            KernelSide::shard(self.source),
            KernelSide::shard(self.candidates),
            u,
            num_users,
            self.min_overlap,
            scratch,
            out,
            true,
        );
    }

    /// Where both directions are defined (both users in scope), the
    /// values are the same bits.
    fn is_symmetric(&self) -> bool {
        true
    }
}

/// One chunk of a shard pair's slice of the symmetric warm: every
/// qualifying Definition-1 edge `(u, v, simU)` with `u` in `sources` (an
/// ascending run of shard `a`'s owned users) and `v` owned by shard `b`,
/// each unordered pair exactly once (the diagonal pair runs the
/// above-only kernel; `a ≠ b` must be called with the pair once, not
/// both orders). Edges are δ-filtered here because Definition-1
/// admission is per-pair.
fn shard_pair_edges_from(
    matrix: &ShardedRatingMatrix,
    (a, b): (usize, usize),
    sources: &[UserId],
    num_users: u32,
    min_overlap: usize,
    delta: f64,
) -> Vec<(UserId, UserId, f64)> {
    let scoped = ShardScopedRatings {
        source: matrix.shard(a),
        candidates: matrix.shard(b),
        min_overlap,
    };
    let mut scratch = SimScratch::new();
    let mut buf: Peers = Vec::new();
    let mut edges = Vec::new();
    for &u in sources {
        if u.raw() >= num_users {
            // Owned lists ascend: nothing further is in the universe.
            break;
        }
        buf.clear();
        if a == b {
            scoped.similarities_above(u, num_users, &mut scratch, &mut buf);
        } else {
            scoped.similarities_from(u, num_users, &mut scratch, &mut buf);
        }
        edges.extend(
            buf.iter()
                .filter(|&&(_, s)| s >= delta)
                .map(|&(v, s)| (u, v, s)),
        );
    }
    edges
}

/// Adapts a **global**-universe bulk measure to one shard's local slot
/// space: the per-shard [`PeerIndex`] computes slot `l`'s list by asking
/// this adapter, which translates the slot to its global id and runs the
/// inner measure over the full global universe — so the cached list
/// contents stay global, exactly what serving returns verbatim.
struct Localized<'a, S: ?Sized> {
    inner: &'a S,
    remap: &'a IdRemap,
    /// The **global** universe bound substituted for the local one the
    /// per-shard index passes down.
    num_users: u32,
}

impl<S: UserSimilarity + ?Sized> UserSimilarity for Localized<'_, S> {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        self.inner
            .similarity(self.remap.global_of(u), self.remap.global_of(v))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: BulkUserSimilarity + ?Sized> BulkUserSimilarity for Localized<'_, S> {
    fn similarities_from(
        &self,
        u: UserId,
        _local_universe: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        self.inner
            .similarities_from(self.remap.global_of(u), self.num_users, scratch, out);
    }

    fn similarities_above(
        &self,
        u: UserId,
        _local_universe: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        self.inner
            .similarities_above(self.remap.global_of(u), self.num_users, scratch, out);
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
}

/// Hash-partitioned [`PeerIndex`] with compacted per-shard universes:
/// shard `s` holds one slot per **owned** user (O(U/S) metadata), each
/// slot caching that user's full **global** peer list under the shard's
/// own generation token. See the module docs for the warm, serving, and
/// delta contracts.
#[derive(Debug)]
pub struct ShardedPeerIndex {
    spec: ShardSpec,
    selector: PeerSelector,
    /// Size of the global user universe — no shard stores a
    /// global-length array; this scalar is the only global-sized fact.
    num_users: u32,
    /// Per-shard owned-user tables (the same partition the compacted
    /// matrix uses), translating slot ↔ global id at the boundary.
    remaps: Vec<IdRemap>,
    shards: Vec<PeerIndex>,
}

impl ShardedPeerIndex {
    /// An empty (cold) sharded index over `0..num_users` with
    /// `spec.num_shards()` shards, answering with `selector`.
    pub fn new(selector: PeerSelector, spec: ShardSpec, num_users: u32) -> Self {
        let remaps = spec.partition(num_users);
        let shards = remaps
            .iter()
            .map(|remap| PeerIndex::new(selector, remap.len()))
            .collect();
        Self {
            spec,
            selector,
            num_users,
            remaps,
            shards,
        }
    }

    /// The partitioning spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The selector whose δ / cap every shard answers with.
    pub fn selector(&self) -> &PeerSelector {
        &self.selector
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.spec.num_shards()
    }

    /// Size of the (global) user universe.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// The shard owning `user`'s serving slot.
    pub fn shard_of(&self, user: UserId) -> usize {
        self.spec.shard_of(user)
    }

    /// Total cached lists across shards — every one an owned user's
    /// global serving list (the compacted layout has no bookkeeping
    /// slots).
    pub fn num_cached(&self) -> usize {
        self.shards.iter().map(PeerIndex::num_cached).sum()
    }

    /// Per-shard slot-universe sizes, in shard order — each shard's
    /// owned-user count. These sum to [`num_users`](Self::num_users):
    /// the compacted layout keeps every shard's metadata O(U/S), with no
    /// global-length arrays anywhere (what the scale-out tests pin).
    pub fn shard_universes(&self) -> Vec<u32> {
        self.remaps.iter().map(IdRemap::len).collect()
    }

    /// Per-shard freshness tokens, in shard order.
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(PeerIndex::generation).collect()
    }

    /// Aggregate freshness token: the sum of the per-shard tokens. Every
    /// maintenance call bumps at least one shard token before touching
    /// any slot, so the sum is monotone and usable exactly like
    /// [`PeerIndex::generation`].
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(PeerIndex::generation).sum()
    }

    fn shard(&self, s: usize) -> &PeerIndex {
        &self.shards[s]
    }

    /// `measure` adapted to shard `s`'s local slot space.
    fn localized<'a, S: ?Sized>(&'a self, measure: &'a S, s: usize) -> Localized<'a, S> {
        Localized {
            inner: measure,
            remap: &self.remaps[s],
            num_users: self.num_users,
        }
    }

    /// `user`'s owning shard and local slot, when in the universe.
    fn slot_of(&self, user: UserId) -> Option<(usize, UserId)> {
        if user.raw() >= self.num_users {
            return None;
        }
        let s = self.shard_of(user);
        let local = self.remaps[s]
            .local_of(user)
            .expect("every in-universe user has a slot in its owning shard");
        Some((s, local))
    }

    /// The raw cached full (global) list of `user` from its owning
    /// shard's slot, if present.
    pub fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        let (s, local) = self.slot_of(user)?;
        self.shard(s).cached_full(local)
    }

    /// The memoized **full global** peer list of `user`, served by (and
    /// cached in) the owning shard's slot; a cold slot runs one
    /// one-vs-all pass of `measure` over the global universe. Users
    /// outside the universe answer empty.
    pub fn full_peers<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        user: UserId,
    ) -> Arc<Peers> {
        let Some((s, local)) = self.slot_of(user) else {
            return Arc::new(Peers::new());
        };
        self.shard(s).full_peers(&self.localized(measure, s), local)
    }

    /// Definition 1 for one user — identical to the monolithic
    /// [`PeerIndex::peers_of`].
    pub fn peers_of<S: BulkUserSimilarity + ?Sized>(&self, measure: &S, user: UserId) -> Peers {
        self.selector.view(&self.full_peers(measure, user), &[])
    }

    /// Peer lists for every member of `group` with co-members masked —
    /// the serving fan-out: each member's lookup routes to its owning
    /// shard, and the group view is a pure mask+cap over the cached full
    /// list, identical to [`PeerIndex::group_peers`].
    pub fn group_peers<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        group: &[UserId],
    ) -> Vec<(UserId, Peers)> {
        group
            .iter()
            .map(|&member| {
                let full = self.full_peers(measure, member);
                (member, self.selector.view(&full, group))
            })
            .collect()
    }

    /// Eagerly fills every cold slot with one one-vs-all pass of
    /// `measure` (any bulk measure over the global universe), shard by
    /// shard: each shard runs [`PeerIndex::warm`] over its owned users,
    /// fanned out across the configured parallelism. Returns the number
    /// of lists computed. This is the warm of the non-`Ratings` backends
    /// and the fallback [`warm_symmetric`](Self::warm_symmetric) takes
    /// when any shard is partially warm (a partial triangle cannot be
    /// restricted to the cold subset, exactly as in the monolithic
    /// index).
    pub fn warm<S: BulkUserSimilarity + Sync + ?Sized>(
        &self,
        measure: &S,
        parallelism: Parallelism,
    ) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard(s).warm(&self.localized(measure, s), parallelism))
            .sum()
    }

    /// Symmetric bulk warm decomposed into per-shard-pair edge tasks on
    /// the worker pool; see the module docs
    /// for the schedule. Only runs the triangle on a fully cold index
    /// (falls back to [`warm`](Self::warm) otherwise); the per-shard
    /// installs happen under each shard's recorded generation token, so a
    /// concurrent invalidation of a shard skips that shard's swap.
    /// Returns the number of lists computed. Bitwise identical to the
    /// monolithic [`PeerIndex::warm_symmetric`] for any shard count.
    pub fn warm_symmetric<M: Borrow<ShardedRatingMatrix> + Sync>(
        &self,
        measure: &ShardedRatingsSimilarity<M>,
        parallelism: Parallelism,
    ) -> usize {
        let num_shards = self.shards.len();
        if self.shards.iter().any(|shard| shard.num_cached() != 0) {
            return self.warm(measure, parallelism);
        }
        let sharded = measure.matrix();
        let n = self.num_users;
        let delta = self.selector.delta;
        let generations = self.generations();

        // Shard pairs (a ≤ b): the diagonal runs the above-only kernel
        // (each same-shard pair once), off-diagonal pairs run the full
        // scoped kernel from a's sources into b's candidates (each
        // cross-shard pair once). Each pair's sources are split into
        // warm-sized chunks so one big pair (the only one at S = 1)
        // still spreads across the workers.
        let chunk = warm_chunk_size(n as usize, parallelism);
        let tasks: Vec<((usize, usize), &[UserId])> = (0..num_shards)
            .flat_map(|a| {
                (a..num_shards).flat_map(move |b| {
                    sharded
                        .users_of_shard(a)
                        .chunks(chunk)
                        .map(move |sources| ((a, b), sources))
                })
            })
            .collect();
        let edge_sets = parallelism.map(tasks, |(pair, sources)| {
            shard_pair_edges_from(sharded, pair, sources, n, measure.min_overlap(), delta)
        });

        // Scatter every qualifying edge to both endpoints' per-user
        // lists and canonicalise each list exactly once, in parallel —
        // the same funnel as the monolithic scatter. The shard-pair
        // schedule emits each unordered pair exactly once and δ was
        // applied per edge, so the lists arrive duplicate-free,
        // self-edge-free, and filtered.
        let mut lists: Vec<Peers> = vec![Peers::new(); n as usize];
        for (u, v, sim) in edge_sets.into_iter().flatten() {
            lists[u.index()].push((v, sim));
            lists[v.index()].push((u, sim));
        }
        let lists = parallelism.map(lists, |mut list| {
            PeerSelector::canonicalize(&mut list);
            list
        });
        self.install_lists(lists, &generations)
    }

    /// Publishes finished global-id-indexed lists into the per-shard
    /// indexes (slot `l` of shard `s` ← list of the `l`-th owned user),
    /// one slot at a time: each install is a per-slot version CAS under
    /// that shard's recorded token, so concurrent readers keep serving
    /// throughout — they see either the cold slot (and fill it lazily
    /// with the identical list) or the published one, never a
    /// whole-shard lock. A shard whose token moved mid-install skips
    /// its remaining slots' swaps (the CAS-internal generation check),
    /// exactly like the monolithic warm. Returns the number of lists
    /// actually installed.
    fn install_lists(&self, mut lists: Vec<Peers>, generations: &[u64]) -> usize {
        let bound = self.selector.cache_bound();
        let mut computed = 0usize;
        for (s, (shard, &generation)) in self.shards.iter().zip(generations).enumerate() {
            for (local, &u) in self.remaps[s].owned().iter().enumerate() {
                let mut list = std::mem::take(&mut lists[u.index()]);
                if let Some(bound) = bound {
                    list.truncate(bound);
                }
                if shard.try_install_list(UserId::new(local as u32), Arc::new(list), generation) {
                    computed += 1;
                }
            }
        }
        computed
    }

    /// Establishes [`apply_delta`](Self::apply_delta)'s exactness
    /// precondition **before** the underlying data changes: caches
    /// `user`'s full pre-change list in its owning slot (a cache hit on
    /// a warm index). A fully cold index is left cold (its delta
    /// degrades to the cold no-op).
    pub fn prepare_delta<S: BulkUserSimilarity + ?Sized>(&self, measure: &S, user: UserId) {
        if user.raw() >= self.num_users || self.num_cached() == 0 {
            return;
        }
        let _ = self.full_peers(measure, user);
    }

    /// Incrementally repairs the whole sharded index after a point change
    /// to `user`'s ratings (call **after** the matrix mutation, with
    /// [`prepare_delta`](Self::prepare_delta) called before it). One
    /// central coordinator: every shard's token is bumped first (in-flight
    /// fills against pre-change data can never land), then `user`'s full
    /// list is recomputed with one one-vs-all pass of `measure` and the
    /// refreshed edges are spliced into the affected endpoints' lists,
    /// each routed to its owning shard's slot — about two global kernel
    /// passes total, independent of `S`. Degrades to a blanket
    /// invalidation when the measure is not bitwise symmetric or the
    /// pre-change list is missing from a partially warm index, exactly
    /// like [`PeerIndex::apply_delta`] (the same splice, routed).
    pub fn apply_delta<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        user: UserId,
    ) -> DeltaOutcome {
        splice_delta(
            &self.shards,
            |v| self.slot_of(v),
            self.num_users,
            measure,
            user,
        )
    }

    /// Drops every cached list in every shard (each under its own bumped
    /// token) — the blanket maintenance path.
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            shard.invalidate_all();
        }
    }

    /// Returns a sharded index over a larger universe, carrying every
    /// shard's cached lists and token forward: each new id is appended to
    /// its owning shard's remap (hash owners never change, so existing
    /// slots keep their positions) and that shard's local universe grows
    /// by its share of the new ids ([`PeerIndex::grow_universe`] per
    /// shard — same soundness condition: only for growth triggered by a
    /// brand-new user's first rating).
    ///
    /// # Panics
    /// Panics if `num_users` is smaller than the current universe.
    pub fn grow_universe(&self, num_users: u32) -> Self {
        self.assert_grows(num_users);
        self.resized(num_users, |s, slots| self.shard(s).grow_universe(slots))
    }

    /// Like [`grow_universe`](Self::grow_universe), but sound for measures
    /// that **can** score the appended ids against existing users
    /// (profile, semantic): every warm list, in every shard, is
    /// revalidated against **all** the new global ids
    /// ([`PeerIndex::grow_universe_revalidated`] semantics — bitwise what a
    /// cold rebuild over the grown universe would cache; every shard's
    /// token is bumped).
    ///
    /// # Panics
    /// Panics if `num_users` is smaller than the current universe.
    pub fn grow_universe_revalidated<S: UserSimilarity + ?Sized>(
        &self,
        measure: &S,
        num_users: u32,
    ) -> Self {
        self.assert_grows(num_users);
        let appended: Vec<UserId> = (self.num_users..num_users).map(UserId::new).collect();
        self.resized(num_users, |s, slots| {
            let remap = &self.remaps[s];
            self.shard(s)
                .revalidated(|local| remap.global_of(local), measure, &appended, slots)
        })
    }

    /// Returns a fully cold sharded index over `num_users` with every
    /// shard's token bumped ([`PeerIndex::rebuild_cold`] per shard).
    pub fn rebuild_cold(&self, num_users: u32) -> Self {
        self.resized(num_users, |s, slots| self.shard(s).rebuild_cold(slots))
    }

    fn assert_grows(&self, num_users: u32) {
        assert!(
            num_users >= self.num_users,
            "universe can only grow ({} -> {num_users})",
            self.num_users
        );
    }

    /// An index over `num_users` whose shard `s` is `resize(s, slots)`,
    /// `slots` being shard `s`'s owned count in the new universe (hash
    /// owners never change, so existing slots keep their positions).
    fn resized(&self, num_users: u32, resize: impl Fn(usize, u32) -> PeerIndex) -> Self {
        let remaps = self.spec.partition(num_users);
        let shards = remaps
            .iter()
            .enumerate()
            .map(|(s, remap)| resize(s, remap.len()))
            .collect();
        Self {
            spec: self.spec,
            selector: self.selector,
            num_users,
            remaps,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RatingsSimilarity;
    use fairrec_types::{ItemId, Rating, RatingMatrix, RatingMatrixBuilder};

    fn matrix(rows: &[(u32, u32, f64)]) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for &(u, i, s) in rows {
            b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
        }
        b.build().unwrap()
    }

    /// Six users with overlapping histories across several items.
    fn fixture() -> RatingMatrix {
        matrix(&[
            (0, 0, 4.0),
            (0, 1, 2.0),
            (0, 2, 5.0),
            (1, 0, 5.0),
            (1, 1, 1.0),
            (1, 2, 4.0),
            (2, 0, 3.0),
            (2, 1, 3.5),
            (2, 3, 2.0),
            (3, 1, 4.0),
            (3, 2, 2.0),
            (3, 3, 4.5),
            (4, 0, 1.0),
            (4, 2, 3.0),
            (4, 3, 5.0),
            (5, 4, 2.5),
        ])
    }

    fn sharded(m: &RatingMatrix, s: u32) -> ShardedRatingMatrix {
        ShardedRatingMatrix::from_matrix(m, ShardSpec::new(s).unwrap()).unwrap()
    }

    #[test]
    fn scatter_gather_measure_matches_monolithic_bitwise() {
        let m = fixture();
        let mono = RatingsSimilarity::new(&m);
        for s in [1u32, 2, 3, 8] {
            let part = sharded(&m, s);
            let measure = ShardedRatingsSimilarity::new(&part);
            let mut scratch = SimScratch::new();
            for u in m.user_ids() {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                mono.similarities_from(u, m.num_users(), &mut scratch, &mut a);
                measure.similarities_from(u, m.num_users(), &mut scratch, &mut b);
                assert_eq!(a.len(), b.len(), "S={s}, user {u}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.0, y.0, "S={s}, user {u}");
                    assert_eq!(x.1.to_bits(), y.1.to_bits(), "S={s}, user {u}");
                }
                for v in m.user_ids() {
                    assert_eq!(
                        mono.similarity(u, v),
                        measure.similarity(u, v),
                        "S={s}, pair ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_warm_matches_monolithic_lists() {
        let m = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let mono = PeerIndex::new(sel, m.num_users());
        mono.warm_symmetric(&RatingsSimilarity::new(&m), Parallelism::Sequential);
        for s in [1u32, 2, 3, 8] {
            let part = sharded(&m, s);
            let measure = ShardedRatingsSimilarity::new(&part);
            let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
            assert_eq!(
                index.warm_symmetric(&measure, Parallelism::Sequential),
                m.num_users() as usize
            );
            for u in m.user_ids() {
                assert_eq!(index.cached_full(u), mono.cached_full(u), "S={s}, user {u}");
            }
        }
    }

    #[test]
    fn shard_universes_are_owned_sized_not_global_sized() {
        let m = fixture();
        let part = sharded(&m, 3);
        let sel = PeerSelector::new(0.0).unwrap();
        let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
        let mut total = 0u32;
        for s in 0..3usize {
            let local = index.shard(s).num_users();
            assert_eq!(
                local,
                part.users_of_shard(s).len() as u32,
                "shard {s} universe must be its owned count"
            );
            total += local;
        }
        assert_eq!(total, m.num_users(), "slots partition the universe");
    }

    #[test]
    fn lookups_route_to_the_owning_shard() {
        let m = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let part = sharded(&m, 3);
        let measure = ShardedRatingsSimilarity::new(&part);
        let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
        let u = UserId::new(2);
        let first = index.full_peers(&measure, u);
        // Only the owning shard gained a cached slot — at the user's
        // *local* position.
        assert_eq!(index.num_cached(), 1);
        let s = index.shard_of(u);
        assert_eq!(index.shard(s).num_cached(), 1);
        assert!(index.cached_full(u).is_some());
        let again = index.full_peers(&measure, u);
        assert!(Arc::ptr_eq(&first, &again), "second read is a cache hit");
        // Out-of-universe users answer empty without caching anything.
        assert!(index.full_peers(&measure, UserId::new(99)).is_empty());
        assert_eq!(index.num_cached(), 1);
    }

    #[test]
    fn partially_warm_index_falls_back_and_still_matches() {
        let m = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let part = sharded(&m, 2);
        let measure = ShardedRatingsSimilarity::new(&part);
        let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
        let _ = index.full_peers(&measure, UserId::new(1));
        // One slot is warm: the triangle cannot run, the per-user path
        // finishes the job with identical lists.
        assert_eq!(
            index.warm_symmetric(&measure, Parallelism::Sequential),
            m.num_users() as usize - 1
        );
        let mono = PeerIndex::new(sel, m.num_users());
        mono.warm_symmetric(&RatingsSimilarity::new(&m), Parallelism::Sequential);
        for u in m.user_ids() {
            assert_eq!(index.cached_full(u), mono.cached_full(u), "user {u}");
        }
    }

    #[test]
    fn delta_stream_matches_cold_rebuild_bitwise() {
        let m = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        for s in [1u32, 2, 3, 8] {
            let mut part = sharded(&m, s);
            let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
            index.warm_symmetric(
                &ShardedRatingsSimilarity::new(&part),
                Parallelism::Sequential,
            );
            let events: [(u32, u32, Option<f64>); 4] = [
                (0, 3, Some(3.0)), // insert
                (2, 1, Some(1.0)), // update
                (4, 2, None),      // remove
                (5, 0, Some(4.5)), // insert giving u5 real overlap
            ];
            for &(u, i, score) in &events {
                let (user, item) = (UserId::new(u), ItemId::new(i));
                index.prepare_delta(&ShardedRatingsSimilarity::new(&part), user);
                match score {
                    Some(v) if part.rating(user, item).is_some() => {
                        part.update_rating(user, item, Rating::new(v).unwrap())
                            .unwrap();
                    }
                    Some(v) => {
                        part.insert_rating(user, item, Rating::new(v).unwrap())
                            .unwrap();
                    }
                    None => {
                        part.remove_rating(user, item).unwrap();
                    }
                }
                let report = index.apply_delta(&ShardedRatingsSimilarity::new(&part), user);
                assert!(
                    matches!(report, DeltaOutcome::Spliced { .. }),
                    "S={s}, event ({u}, {i}): {report:?}"
                );
            }
            // Oracle: a cold monolithic warm over the final relation.
            let final_matrix = RatingMatrix::from_triples(part.to_triples()).unwrap();
            let mono = PeerIndex::new(sel, m.num_users());
            mono.warm_symmetric(
                &RatingsSimilarity::new(&final_matrix),
                Parallelism::Sequential,
            );
            for u in m.user_ids() {
                assert_eq!(index.cached_full(u), mono.cached_full(u), "S={s}, user {u}");
            }
        }
    }

    #[test]
    fn growth_and_rebuild_mirror_the_monolithic_semantics() {
        let m = fixture();
        let sel = PeerSelector::new(0.0).unwrap();
        let part = sharded(&m, 3);
        let measure = ShardedRatingsSimilarity::new(&part);
        let index = ShardedPeerIndex::new(sel, part.spec(), m.num_users());
        index.warm_symmetric(&measure, Parallelism::Sequential);
        let gens = index.generations();

        let grown = index.grow_universe(m.num_users() + 4);
        assert_eq!(grown.num_users(), m.num_users() + 4);
        assert_eq!(grown.generations(), gens, "growth carries tokens over");
        for u in m.user_ids() {
            assert_eq!(grown.cached_full(u), index.cached_full(u), "user {u}");
        }
        assert!(grown.cached_full(UserId::new(m.num_users() + 1)).is_none());

        let rebuilt = grown.rebuild_cold(m.num_users());
        assert_eq!(rebuilt.num_cached(), 0);
        assert!(rebuilt
            .generations()
            .iter()
            .zip(&gens)
            .all(|(now, then)| now > then));

        index.invalidate_all();
        assert_eq!(index.num_cached(), 0);
    }
}
