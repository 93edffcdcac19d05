//! Cached peer lists — the serving-path form of Definition 1.
//!
//! [`PeerSelector`] answers "who are `u`'s peers?" by scanning the whole
//! user universe per call. That is the right primitive for one-off
//! queries, but a serving engine answers the same question for the same
//! users over and over: every group request needs the peer list of every
//! member, and batched serving multiplies that by the number of groups.
//!
//! [`PeerIndex`] memoizes, per user, the **full** peer list — threshold-
//! filtered, canonically sorted (similarity descending, id ascending),
//! *uncapped* and *unmasked*. Request-time views are then pure list
//! operations:
//!
//! * the single-user view truncates to the selector's `max_peers` cap;
//! * the group view first masks the group's co-members (the Job 1 rule:
//!   members pair only with non-members), then truncates.
//!
//! Masking before capping on the cached list is exactly equivalent to
//! recomputing with the exclusion set, because threshold admission is
//! per-pair and the canonical order is deterministic — the property tests
//! in `tests/peer_index.rs` assert this against direct [`PeerSelector`]
//! calls. This is why the cache stores the uncapped list: a capped cache
//! could not restore the peers a mask frees up.
//!
//! ## Cold fills take the bulk kernel
//!
//! Computing a cold entry no longer scans the whole universe per pair:
//! [`full_peers`](PeerIndex::full_peers), [`warm`](PeerIndex::warm) and
//! [`warm_symmetric`](PeerIndex::warm_symmetric) route through the
//! measure's [`BulkUserSimilarity`] path — one one-vs-all pass per user,
//! which for `RatingsSimilarity` is the inverted-index Pearson kernel
//! (cost proportional to co-rating mass, `Σ_{i∈I(u)} |U(i)|`, instead of
//! `O(U·d)` per user). Eager warms chunk the users so each parallel task
//! reuses one [`SimScratch`] across its chunk — and the O(num_users)
//! scratch arrays are dropped when the warm returns instead of living in
//! the shared worker pool's thread-locals.
//! The bulk contract guarantees bitwise-identical similarities, so cached
//! entries are exactly what the per-pair scan would have produced.
//! `warm_symmetric` additionally exploits bitwise-symmetric measures: one
//! upper-triangle pass per user fills **both** endpoints' lists, halving
//! the arithmetic of a full cold build.
//!
//! ## Caching, invalidation & the update-path contract
//!
//! An index is built for one `(measure, selector, universe)` triple. The
//! measure is passed per call (so one index can serve borrowed or
//! `Arc`-owned backends alike) but **must be logically the same function**
//! between maintenance calls; memoized entries are never revalidated.
//! When the underlying data changes, callers pick one of three
//! maintenance paths, ordered from cheapest to bluntest:
//!
//! 1. [`apply_delta`](PeerIndex::apply_delta) — the **exact incremental
//!    path** for a point change to one user's data (a rating insert,
//!    update, or removal). One bulk kernel pass recomputes that user's
//!    full list, and the refreshed `(user, simU)` edges are spliced into
//!    both endpoints' cached lists. The result is bitwise identical to
//!    dropping everything and re-warming against the changed data —
//!    see the method docs for its two preconditions (bitwise-symmetric
//!    measure; the user's pre-change list cached whenever any list is).
//! 2. [`invalidate_user`](PeerIndex::invalidate_user) — drops one user's
//!    list for lazy recomputation. **Not sufficient on its own** after a
//!    rating change: a changed rating moves `simU(user, ·)` for every
//!    co-rating peer, so the *other* endpoints' cached lists go stale
//!    too. It is the right call when only request-time properties of one
//!    user changed (e.g. an entry cached from a now-retracted edge
//!    stream).
//! 3. [`invalidate_all`](PeerIndex::invalidate_all) — drops every list.
//!    The blanket fallback after bulk changes, and what `apply_delta`
//!    degrades to when its preconditions fail (so callers may treat
//!    `apply_delta` as always-safe).
//!
//! Every maintenance call — all three above — bumps
//! [`generation`](PeerIndex::generation) **before** touching any slot.
//! Downstream caches use the token as their freshness check (the serving
//! front-end keys request coalescing on it). Maintenance calls must be
//! externally serialized with each other (the engine does this by taking
//! `&mut self` on its ingest path); concurrent *readers* are always safe
//! and simply see each list pre- or post-change.
//!
//! ## Slot publication
//!
//! Each slot is a `(version, list)` pair under its own std mutex. A read
//! locks one slot just long enough to clone its `Arc`, so it waits at
//! most for one slot's replace, never for a warm, an invalidation or a
//! delta splice as a whole; it sees each slot's list entirely pre- or
//! entirely post-publication, never a torn intermediate. Displaced lists
//! are freed by `Arc` refcount after the slot is unlocked.
//!
//! Writers build replacement lists off to the side and publish each with
//! a single slot replace. Two write shapes exist:
//!
//! * **Optimistic fills** (lazy [`full_peers`](PeerIndex::full_peers)
//!   misses, eager [`warm`](PeerIndex::warm)/
//!   [`warm_symmetric`](PeerIndex::warm_symmetric) installs) observe the
//!   slot's version *before* computing and publish with a version
//!   compare-and-swap. The invariant making this sound: **every
//!   maintenance write that can change a slot's correct content bumps
//!   that slot's version** — invalidations swap every cleared slot (even
//!   `None` over `None`), and a delta splice refreshes *cold* affected
//!   slots too. A fill computed against pre-change data therefore always
//!   fails its CAS; a fill racing another fill of the same slot loses
//!   benignly (both computed the identical list). Slot versions are
//!   strictly monotonic, so a matching version names exactly the list
//!   that was observed (no ABA).
//! * **Serialized maintenance** (invalidations, delta splices) swaps
//!   unconditionally — external serialization means the only concurrent
//!   writers are fills, and a splice landing over a just-filled list
//!   patches data the fill computed from the same current state.
//!
//! Capped selectors cache a *bounded* full list — the canonical top
//! [`PeerSelector::cache_bound`] (`max_peers + 64` mask slack) — so power
//! users cannot blow up warm-list sizes; the delta path splices exactly
//! while lists are unsaturated and degrades to per-slot (or, for the
//! changed user's own saturated list, full) invalidation when a
//! saturated list's beyond-boundary promotion would be needed.

use crate::bulk::{BulkUserSimilarity, SimScratch};
use crate::peers::{PeerSelector, Peers};
use crate::UserSimilarity;
use fairrec_types::{Parallelism, UserId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Chunk size for eager warms: each parallel task computes one chunk of
/// users with a single [`SimScratch`], so scratch reuse matches worker
/// granularity while the O(num_users) scratch arrays live only as long
/// as the warm itself (a persistent per-thread scratch would pin that
/// memory in the shared worker pool for the process lifetime). Sized
/// from the *configured* parallelism, not the machine: several chunks
/// per executing worker keep the pool load-balanced, and a sequential
/// warm gets one chunk — one scratch — total.
pub(crate) fn warm_chunk_size(total: usize, parallelism: Parallelism) -> usize {
    let workers = parallelism.num_workers();
    if workers <= 1 {
        return total.max(1);
    }
    total.div_ceil(4 * workers).max(1)
}

/// What [`PeerIndex::apply_delta`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The exact splice ran: the user's full list was recomputed with one
    /// bulk kernel pass and the refreshed edges were spliced into
    /// `touched` warm endpoint lists. Every cached list is now bitwise
    /// identical to a cold rebuild against the current data.
    Spliced {
        /// Warm peer lists (other than the user's own) modified: patched
        /// in place, or — for saturated bounded lists whose exact patch
        /// would need beyond-boundary entries — cleared for lazy refill.
        touched: usize,
    },
    /// Every slot was cold — nothing to splice. The generation and every
    /// slot's version were still bumped, so in-flight fills against
    /// pre-change data cannot land.
    ColdIndex,
    /// The user lies outside this index's universe. Similarities between
    /// in-universe users never read an out-of-universe user's data, so no
    /// cached list is affected and the index is left untouched.
    OutOfUniverse,
    /// The delta could not be applied exactly — the measure is not
    /// bitwise symmetric, or the user's pre-change list was not cached in
    /// a partially warm index — so every list was invalidated instead
    /// (the safe blanket fallback).
    InvalidatedAll,
}

/// What a single [`PeerIndex::splice_peer`] call did to its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpliceOutcome {
    /// The slot was cold; its version was bumped (a `None`-over-`None`
    /// swap) so an in-flight fill computed against pre-delta data cannot
    /// land, and it will refill lazily from current data.
    ColdRefreshed,
    /// The warm list was patched exactly.
    Patched,
    /// The warm list was saturated at the cache bound and the exact patch
    /// would need an entry beyond the boundary — the slot was cleared for
    /// lazy recomputation instead.
    Invalidated,
    /// The slot's bounded top list is provably unchanged by this edge
    /// (the edge sits beyond a saturated list's boundary both before and
    /// after); nothing was written.
    Untouched,
}

/// One user's published peer list plus its version, under a std mutex.
///
/// Every successful write installs exactly `version + 1`, so a slot's
/// versions strictly increase and a version names one published value:
/// observe `(list, version)` with [`load_versioned`](Self::load_versioned),
/// compute off to the side, then publish with
/// [`compare_version_swap`](Self::compare_version_swap) only if the slot
/// still holds that version (no ABA). A critical section is only a
/// compare, an `Arc` clone or a replace; displaced lists are dropped
/// after unlocking.
struct Slot(Mutex<(u64, Option<Arc<Peers>>)>);

impl Slot {
    /// New slot holding `value` at version 0.
    fn new(value: Option<Arc<Peers>>) -> Self {
        Self(Mutex::new((0, value)))
    }

    fn lock(&self) -> MutexGuard<'_, (u64, Option<Arc<Peers>>)> {
        // Every critical section leaves the pair valid at each step, so
        // a lock poisoned by a panicking holder still guards a
        // consistent pair.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the current list.
    fn load(&self) -> Option<Arc<Peers>> {
        self.lock().1.clone()
    }

    /// Snapshot of the current `(list, version)` pair.
    fn load_versioned(&self) -> (Option<Arc<Peers>>, u64) {
        let slot = self.lock();
        (slot.1.clone(), slot.0)
    }

    /// Unconditionally publishes `value` at the next version, returning
    /// the displaced list (the caller drops it after the unlock).
    fn swap(&self, value: Option<Arc<Peers>>) -> Option<Arc<Peers>> {
        let mut slot = self.lock();
        slot.0 += 1;
        std::mem::replace(&mut slot.1, value)
    }

    /// Publishes `value` at `expected_version + 1` only if the slot still
    /// holds `expected_version`; returns whether the install happened.
    fn compare_version_swap(&self, expected_version: u64, value: Option<Arc<Peers>>) -> bool {
        let mut slot = self.lock();
        if slot.0 != expected_version {
            return false;
        }
        slot.0 += 1;
        let displaced = std::mem::replace(&mut slot.1, value);
        drop(slot);
        drop(displaced);
        true
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (value, version) = self.load_versioned();
        f.debug_struct("Slot")
            .field("version", &version)
            .field("occupied", &value.is_some())
            .finish()
    }
}

/// Memoized Definition-1 peer lists over a fixed user universe
/// `0..num_users`. See the module docs for the caching contract and the
/// slot publication protocol.
#[derive(Debug)]
pub struct PeerIndex {
    selector: PeerSelector,
    slots: Vec<Slot>,
    generation: AtomicU64,
    /// O(1) count of `Some` slots, kept in sync by the slot-write helpers
    /// [`Self::swap_slot`]/[`Self::cas_slot`] — `num_cached` sits on the
    /// per-ingest hot path (the engine checks it before every delta), so
    /// it must not scan `slots`.
    cached: AtomicUsize,
}

impl PeerIndex {
    /// An empty (cold) index for `num_users` users answering with
    /// `selector`'s threshold and cap.
    pub fn new(selector: PeerSelector, num_users: u32) -> Self {
        Self {
            selector,
            slots: (0..num_users).map(|_| Slot::new(None)).collect(),
            generation: AtomicU64::new(0),
            cached: AtomicUsize::new(0),
        }
    }

    /// Keeps the O(1) cached count in sync after a successful slot write
    /// that displaced `displaced_some` with `stored_some`.
    fn adjust_cached(&self, displaced_some: bool, stored_some: bool) {
        match (displaced_some, stored_some) {
            (false, true) => {
                self.cached.fetch_add(1, Ordering::AcqRel);
            }
            (true, false) => {
                self.cached.fetch_sub(1, Ordering::AcqRel);
            }
            _ => {}
        }
    }

    /// Unconditional slot publication (serialized-maintenance writes).
    /// Returns the displaced value.
    fn swap_slot(&self, idx: usize, value: Option<Arc<Peers>>) -> Option<Arc<Peers>> {
        let stored_some = value.is_some();
        let displaced = self.slots[idx].swap(value);
        self.adjust_cached(displaced.is_some(), stored_some);
        displaced
    }

    /// Optimistic slot publication: installs `value` only if the slot is
    /// still at `expected_version` (as observed by the caller's
    /// `load_versioned`, whose value had someness `displaced_some` —
    /// version uniqueness guarantees that observation *is* the displaced
    /// value). Returns whether the install happened.
    fn cas_slot(
        &self,
        idx: usize,
        displaced_some: bool,
        expected_version: u64,
        value: Option<Arc<Peers>>,
    ) -> bool {
        let stored_some = value.is_some();
        if self.slots[idx].compare_version_swap(expected_version, value) {
            self.adjust_cached(displaced_some, stored_some);
            true
        } else {
            false
        }
    }

    /// Builds an index whose entries come from precomputed similarity
    /// edges `(user, peer, simU)` instead of a measure — the bridge for
    /// the MapReduce pipeline, whose Job 2 emits exactly such edges.
    ///
    /// Every user in `populate` gets an entry (empty when no edge
    /// mentions them); users outside `populate` stay cold. Edges below
    /// the selector's δ and **self-edges** (`user == peer`) are dropped,
    /// duplicate `(user, peer)` edges collapse to the one with the
    /// highest similarity, and each list is canonicalised — so downstream
    /// views behave identically to the measure-driven path, which never
    /// admits a user as their own peer and scans each pair exactly once.
    pub fn from_edges(
        selector: PeerSelector,
        num_users: u32,
        populate: &[UserId],
        edges: impl IntoIterator<Item = (UserId, UserId, f64)>,
    ) -> Self {
        let index = Self::new(selector, num_users);
        let mut lists: Vec<(UserId, Peers)> = populate.iter().map(|&u| (u, Peers::new())).collect();
        lists.sort_by_key(|(u, _)| *u);
        for (user, peer, sim) in edges {
            if peer == user || sim < selector.delta {
                continue;
            }
            if let Ok(slot) = lists.binary_search_by_key(&user, |(u, _)| *u) {
                lists[slot].1.push((peer, sim));
            }
        }
        for (user, mut list) in lists {
            // Collapse duplicate peers to the max-similarity edge: group
            // by peer id with the best similarity first, keep the first
            // occurrence of each peer.
            list.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then(b.1.partial_cmp(&a.1).expect("similarities are finite"))
            });
            list.dedup_by_key(|&mut (peer, _)| peer);
            PeerSelector::canonicalize(&mut list);
            if let Some(bound) = selector.cache_bound() {
                list.truncate(bound);
            }
            if user.index() < index.slots.len() {
                index.swap_slot(user.index(), Some(Arc::new(list)));
            }
        }
        index
    }

    /// Returns an index over a larger universe that keeps this index's
    /// cached lists and generation; the new slots start cold.
    ///
    /// Only sound when every cached list is already correct over the
    /// *grown* universe — i.e. the newly added ids cannot have had a
    /// defined similarity to any existing user at growth time. That
    /// holds for rating-derived measures when growth is triggered by a
    /// brand-new user's first rating (before the event they had no
    /// ratings, hence no defined pairs, so no cached list could mention
    /// them). Measures whose similarities do not derive from the rating
    /// relation (profile, semantic) can score a newly added id against
    /// existing users, so growing *their* index this way would leave
    /// every cached list stale — rebuild or invalidate instead.
    ///
    /// # Panics
    /// Panics if `num_users` is smaller than the current universe.
    pub fn grow_universe(&self, num_users: u32) -> Self {
        assert!(
            num_users >= self.num_users(),
            "universe can only grow ({} -> {num_users})",
            self.num_users()
        );
        let mut cached = 0usize;
        let mut slots: Vec<Slot> = Vec::with_capacity(num_users as usize);
        for slot in &self.slots {
            let value = slot.load();
            cached += usize::from(value.is_some());
            slots.push(Slot::new(value));
        }
        slots.resize_with(num_users as usize, || Slot::new(None));
        Self {
            selector: self.selector,
            slots,
            generation: AtomicU64::new(self.generation()),
            cached: AtomicUsize::new(cached),
        }
    }

    /// Like [`grow_universe`](Self::grow_universe), but sound for
    /// measures that **can** score the newly added ids against existing
    /// users (profile, semantic): every cached list is *revalidated*
    /// against the new ids instead of being trusted as-is. For each warm
    /// user `v` the measure is asked for `simU(v, new)` for every new id;
    /// qualifying edges are inserted at their canonical position, so each
    /// preserved list is bitwise identical to a cold recompute over the
    /// grown universe (same similarity bits, canonical order is a total
    /// order over distinct ids). New slots start cold and fill lazily.
    ///
    /// Unlike `grow_universe` this **bumps** the generation: cached list
    /// *contents* may change, so downstream caches keyed on the token
    /// must revalidate.
    ///
    /// # Panics
    /// Panics if `num_users` is smaller than the current universe.
    pub fn grow_universe_revalidated<S: UserSimilarity + ?Sized>(
        &self,
        measure: &S,
        num_users: u32,
    ) -> Self {
        let old_n = self.num_users();
        assert!(
            num_users >= old_n,
            "universe can only grow ({old_n} -> {num_users})"
        );
        let appended: Vec<UserId> = (old_n..num_users).map(UserId::new).collect();
        self.revalidated(|slot| slot, measure, &appended, num_users)
    }

    /// The body of [`grow_universe_revalidated`](Self::grow_universe_revalidated)
    /// over an explicit slot → user map: slot `l` caches the list of user
    /// `user_of(l)`, every cached list is revalidated against the
    /// `appended` user ids, and the result has `num_slots` slots (new
    /// ones cold). A shard of the sharded index passes its remap here,
    /// with every id appended to the *global* universe.
    pub(crate) fn revalidated<S: UserSimilarity + ?Sized>(
        &self,
        user_of: impl Fn(UserId) -> UserId,
        measure: &S,
        appended: &[UserId],
        num_slots: u32,
    ) -> Self {
        let delta = self.selector.delta;
        let bound = self.selector.cache_bound();
        let mut cached = 0usize;
        let mut slots: Vec<Slot> = Vec::with_capacity(num_slots as usize);
        for (idx, slot) in self.slots.iter().enumerate() {
            let v = user_of(UserId::new(idx as u32));
            let revalidated = slot.load().map(|list| {
                let mut list: Peers = list.as_ref().clone();
                for &u in appended {
                    let Some(s) = measure.similarity(v, u).filter(|&s| s >= delta) else {
                        continue;
                    };
                    let pos = list.partition_point(|&(w, sw)| sw > s || (sw == s && w < u));
                    list.insert(pos, (u, s));
                }
                // New edges only add entries, so the bounded top list of
                // the grown universe is a prefix of this merged list —
                // re-truncating keeps the cache bitwise equal to a cold
                // bounded recompute.
                if let Some(bound) = bound {
                    list.truncate(bound);
                }
                Arc::new(list)
            });
            cached += usize::from(revalidated.is_some());
            slots.push(Slot::new(revalidated));
        }
        slots.resize_with(num_slots as usize, || Slot::new(None));
        Self {
            selector: self.selector,
            slots,
            generation: AtomicU64::new(self.generation() + 1),
            cached: AtomicUsize::new(cached),
        }
    }

    /// Returns a fully cold index over `num_users` (any size) carrying
    /// this index's selector and a **bumped** generation — the
    /// replacement form of [`invalidate_all`](Self::invalidate_all) for
    /// when the universe must change size and warm lists cannot be kept
    /// (see [`grow_universe`](Self::grow_universe) for when they can).
    /// Carrying the token forward keeps it monotonic across the swap, so
    /// downstream caches keyed on [`generation`](Self::generation) can
    /// never revalidate pre-rebuild entries as fresh.
    pub fn rebuild_cold(&self, num_users: u32) -> Self {
        Self {
            selector: self.selector,
            slots: (0..num_users).map(|_| Slot::new(None)).collect(),
            generation: AtomicU64::new(self.generation() + 1),
            cached: AtomicUsize::new(0),
        }
    }

    /// The selector whose δ / cap this index answers with.
    pub fn selector(&self) -> &PeerSelector {
        &self.selector
    }

    /// Size of the user universe.
    pub fn num_users(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Number of users whose peer list is currently cached. O(1): the
    /// count is maintained on every slot transition, not derived by
    /// scanning — this sits on the per-rating ingest hot path.
    pub fn num_cached(&self) -> usize {
        self.cached.load(Ordering::Acquire)
    }

    /// Freshness token: bumped by every invalidation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops the cached list of one user for lazy recomputation.
    ///
    /// This is **not** the rating-change path: a changed rating moves
    /// `simU(user, ·)` for every co-rating peer, leaving *other* users'
    /// cached lists stale — use [`apply_delta`](Self::apply_delta) (exact
    /// splice) or [`invalidate_all`](Self::invalidate_all) (blanket) for
    /// data changes. See the module-level update-path contract.
    ///
    /// The generation is bumped *before* the slot is cleared, and the
    /// clear is a version-bumping swap even when the slot was already
    /// cold: an in-flight fill computed against pre-invalidation data
    /// CASes on the pre-swap version and can never land afterwards.
    pub fn invalidate_user(&self, user: UserId) {
        if user.index() < self.slots.len() {
            self.generation.fetch_add(1, Ordering::AcqRel);
            self.swap_slot(user.index(), None);
        }
    }

    /// Drops every cached list (call after bulk data changes). Bumps the
    /// generation before clearing, like
    /// [`invalidate_user`](Self::invalidate_user).
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.clear_all_slots();
    }

    /// The raw cached full list of `user`, if present. Full = uncapped
    /// and unmasked; most callers want [`peers_of`](Self::peers_of) or
    /// [`group_peers`](Self::group_peers) instead.
    pub fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        self.slots.get(user.index())?.load()
    }

    /// The memoized full peer list of `user`, computing and caching it on
    /// first access. Users outside the universe get an empty list.
    pub fn full_peers<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        user: UserId,
    ) -> Arc<Peers> {
        let Some(slot) = self.slots.get(user.index()) else {
            return Arc::new(Peers::new());
        };
        let (cached, version) = slot.load_versioned();
        if let Some(cached) = cached {
            return cached;
        }
        // Optimistic fill: compute off to the side, publish with a
        // version CAS against the pre-compute observation. A concurrent
        // filler computes the identical list, so losing that race is
        // benign; any *maintenance* write in between bumped the slot
        // version (invalidations and delta refreshes swap even cold
        // slots), so a list computed against pre-change data always fails
        // the CAS. The value is still returned either way — it was
        // correct when computed — it just isn't cached.
        let full = Arc::new(self.compute_full(measure, user));
        let _ = self.cas_slot(user.index(), false, version, Some(Arc::clone(&full)));
        full
    }

    /// Definition 1 for one user: the capped peer list, identical to
    /// `selector.peers_of(measure, user, universe, &[])`.
    pub fn peers_of<S: BulkUserSimilarity + ?Sized>(&self, measure: &S, user: UserId) -> Peers {
        self.selector.view(&self.full_peers(measure, user), &[])
    }

    /// Peer lists for every member of `group` with co-members masked —
    /// identical to `selector.peers_for_group(measure, group, universe)`
    /// but served from the cache without recomputation.
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

    /// Like [`group_peers`](Self::group_peers) but served purely from
    /// cached entries (cold users answer with no peers). This is the
    /// accessor for indexes built with [`from_edges`](Self::from_edges),
    /// where no measure exists to fill misses.
    pub fn group_peers_cached(&self, group: &[UserId]) -> Vec<(UserId, Peers)> {
        group
            .iter()
            .map(|&member| {
                let view = match self.cached_full(member) {
                    Some(full) => self.selector.view(&full, group),
                    None => Peers::new(),
                };
                (member, view)
            })
            .collect()
    }

    /// Eagerly fills every cold slot, fanning the per-user bulk kernel
    /// passes out across the configured parallelism (each worker thread
    /// reuses one kernel scratch). Returns the number of lists computed.
    pub fn warm<S: BulkUserSimilarity + Sync + ?Sized>(
        &self,
        measure: &S,
        parallelism: Parallelism,
    ) -> usize {
        // Scan the cold slots *with their versions*: each install below
        // CASes against its scan-time observation, so any maintenance
        // write in between (which always bumps the touched slot's
        // version) makes the stale install fail — the same guard as
        // `full_peers`, per slot instead of global.
        let cold: Vec<(UserId, u64)> = (0..self.num_users())
            .map(UserId::new)
            .filter_map(|u| {
                let (value, version) = self.slots[u.index()].load_versioned();
                value.is_none().then_some((u, version))
            })
            .collect();
        let computed = cold.len();
        let chunks: Vec<Vec<(UserId, u64)>> = cold
            .chunks(warm_chunk_size(cold.len(), parallelism))
            .map(<[(UserId, u64)]>::to_vec)
            .collect();
        let lists = parallelism.map(chunks, |chunk| {
            let mut scratch = SimScratch::new();
            chunk
                .into_iter()
                .map(|(u, version)| {
                    (
                        u,
                        version,
                        Arc::new(self.compute_full_with(measure, u, &mut scratch)),
                    )
                })
                .collect::<Vec<_>>()
        });
        for (user, version, full) in lists.into_iter().flatten() {
            let _ = self.cas_slot(user.index(), false, version, Some(full));
        }
        computed
    }

    /// Symmetric bulk warm: fills a **fully cold** index with one
    /// upper-triangle kernel pass per user
    /// ([`similarities_above`](BulkUserSimilarity::similarities_above)),
    /// then scatters every qualifying edge to both endpoints' lists —
    /// each pair is evaluated exactly once, halving the arithmetic of
    /// [`warm`](Self::warm). Only sound for measures whose similarity is
    /// **bitwise** symmetric, so it falls back to the per-user warm when
    /// [`is_symmetric`](BulkUserSimilarity::is_symmetric) is `false` or
    /// when any slot is already cached (a partial triangle cannot be
    /// restricted to the cold subset). The resulting lists are bitwise
    /// identical to `warm`'s either way; returns the number of lists
    /// computed.
    pub fn warm_symmetric<S: BulkUserSimilarity + Sync + ?Sized>(
        &self,
        measure: &S,
        parallelism: Parallelism,
    ) -> usize {
        if !measure.is_symmetric() || self.num_cached() != 0 {
            return self.warm(measure, parallelism);
        }
        let n = self.num_users();
        // Per-slot scan-time snapshots: installs CAS against these, so a
        // concurrent invalidation (or a fill that raced in — whose list
        // is bitwise identical, making the overwrite benign) is detected
        // per slot.
        let snapshots: Vec<(bool, u64)> = self
            .slots
            .iter()
            .map(|slot| {
                let (value, version) = slot.load_versioned();
                (value.is_some(), version)
            })
            .collect();
        let delta = self.selector.delta;
        // Upper-triangle pass: Definition-1 admission (simU ≥ δ) is
        // per-pair, so the threshold can be applied per edge here. One
        // scratch per chunk, dropped when the warm returns.
        let users: Vec<UserId> = (0..n).map(UserId::new).collect();
        let chunks: Vec<Vec<UserId>> = users
            .chunks(warm_chunk_size(users.len(), parallelism))
            .map(<[UserId]>::to_vec)
            .collect();
        // Per user: `(u, upper-triangle edges of u)`.
        type UserEdges = (UserId, Vec<(UserId, f64)>);
        let triangle: Vec<Vec<UserEdges>> = parallelism.map(chunks, |chunk| {
            let mut scratch = SimScratch::new();
            chunk
                .into_iter()
                .map(|u| {
                    let mut edges = Vec::new();
                    measure.similarities_above(u, n, &mut scratch, &mut edges);
                    edges.retain(|&(_, s)| s >= delta);
                    (u, edges)
                })
                .collect::<Vec<_>>()
        });
        // Scatter both endpoints, then canonicalize each list. The
        // canonical order (sim desc, id asc) is a total order over
        // distinct peer ids, so the scatter order cannot leak into the
        // final lists.
        let mut lists: Vec<Peers> = vec![Peers::new(); n as usize];
        for (u, edges) in triangle.into_iter().flatten() {
            for (v, s) in edges {
                lists[u.index()].push((v, s));
                lists[v.index()].push((u, s));
            }
        }
        let bound = self.selector.cache_bound();
        let lists = parallelism.map(lists, |mut list| {
            PeerSelector::canonicalize(&mut list);
            if let Some(bound) = bound {
                list.truncate(bound);
            }
            Arc::new(list)
        });
        for (idx, full) in lists.into_iter().enumerate() {
            let (was_some, version) = snapshots[idx];
            let _ = self.cas_slot(idx, was_some, version, Some(full));
        }
        n as usize
    }

    /// Incrementally repairs the cache after a point change to `user`'s
    /// underlying data (one rating inserted, updated, or removed —
    /// *after* the data mutation has been applied). This is the
    /// delta-kernel update path: instead of dropping warm lists it
    ///
    /// 1. bumps the [`generation`](Self::generation) (so in-flight fills
    ///    computed against pre-change data can never be stored),
    /// 2. recomputes `user`'s full peer list with one bulk kernel pass
    ///    over the **current** data,
    /// 3. splices the refreshed `(user, simU)` edge into every warm
    ///    endpoint list — removed where the pair no longer qualifies,
    ///    inserted at its canonical position where it does — touching
    ///    exactly the union of `user`'s old and new peer sets (a rating
    ///    change moves `µ_user`, so *every* co-rating peer's edge can
    ///    move, not merely the raters of the touched item), and
    /// 4. stores the recomputed list in `user`'s own slot.
    ///
    /// The result is **bitwise identical** to [`invalidate_all`] followed
    /// by a fresh [`warm`]/[`warm_symmetric`] against the changed data
    /// (pinned by proptests in `tests/incremental.rs`), at the cost of
    /// one kernel pass plus O(affected lists) splices instead of a full
    /// universe re-warm. Cold slots are skipped — they lazily fill from
    /// current data anyway.
    ///
    /// ## Exactness preconditions
    ///
    /// * The measure is **bitwise symmetric**
    ///   ([`is_symmetric`](BulkUserSimilarity::is_symmetric)): splicing
    ///   writes `user`-side similarities into other users' lists.
    /// * `user`'s **pre-change** list is cached whenever *any* list is
    ///   (callers that cannot guarantee a fully warm index should read
    ///   [`full_peers`](Self::full_peers) for `user` *before* mutating
    ///   the data, as `RecommenderEngine::ingest_rating` does). Without
    ///   it, the stale `(v, user)` edges cannot be enumerated.
    ///
    /// When either precondition fails the call degrades to
    /// [`invalidate_all`] and reports it — callers may therefore treat
    /// `apply_delta` as always-safe. Like all maintenance calls it must
    /// be externally serialized with other mutations; a concurrent
    /// invalidation supersedes the splice (detected via the generation
    /// token, remaining writes are abandoned).
    ///
    /// [`invalidate_all`]: Self::invalidate_all
    /// [`warm`]: Self::warm
    /// [`warm_symmetric`]: Self::warm_symmetric
    pub fn apply_delta<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        user: UserId,
    ) -> DeltaOutcome {
        let n = self.num_users();
        splice_delta(
            std::slice::from_ref(self),
            |v| (v.raw() < n).then_some((0, v)),
            n,
            measure,
            user,
        )
    }

    /// Bumps the generation token and returns the **new** value — the
    /// entry point for maintenance flows coordinated *outside* this type
    /// (the sharded index bumps every shard before splicing any). The
    /// returned token is what the coordinating caller passes back as
    /// `expected_generation` to the splice primitives below.
    pub(crate) fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Splices one refreshed `(peer, sim)` edge into `slot`'s cached
    /// list: removes any existing `peer` entry, then — when `new_sim` is
    /// `Some` — inserts it at its canonical position. The slot id and the
    /// peer id may live in different id spaces (shard-local slots, global
    /// contents). Returns `None` when a concurrent invalidation changed
    /// the generation (the caller must abandon its remaining splices);
    /// otherwise reports what happened via [`SpliceOutcome`].
    ///
    /// Bounded (capped-selector) lists are handled exactly: an
    /// unsaturated list is the endpoint's complete edge set, so the
    /// splice is exact as in the uncapped case. A *saturated* list (at
    /// the cache bound) is a truncation, so only edges ranking at or
    /// above its boundary key can be patched exactly — a new edge
    /// outranking the boundary splices in (re-truncated), an edge beyond
    /// the boundary provably leaves the bounded top unchanged, and a
    /// removal *from within* the list would need the unknown
    /// beyond-boundary promotion, so the slot is cleared for lazy
    /// recomputation instead.
    pub(crate) fn splice_peer(
        &self,
        slot: UserId,
        peer: UserId,
        new_sim: Option<f64>,
        expected_generation: u64,
    ) -> Option<SpliceOutcome> {
        let idx = slot.index();
        let bound = self.selector.cache_bound();
        loop {
            let (cur, version) = self.slots[idx].load_versioned();
            if self.generation() != expected_generation {
                return None;
            }
            let Some(list) = cur else {
                // Refresh the cold slot: the None-over-None CAS bumps its
                // version so an in-flight fill computed against pre-delta
                // data cannot land; the slot refills lazily from current
                // data.
                if self.cas_slot(idx, false, version, None) {
                    return Some(SpliceOutcome::ColdRefreshed);
                }
                continue; // lost to a concurrent fill; re-observe
            };
            let saturated = bound.is_some_and(|b| list.len() >= b);
            let (value, outcome) = if saturated {
                let &(last_peer, last_sim) = list.last().expect("saturated list is non-empty");
                let outranks_boundary =
                    new_sim.is_some_and(|s| s > last_sim || (s == last_sim && peer < last_peer));
                if outranks_boundary {
                    let sim = new_sim.expect("outranking edge exists");
                    let mut patched: Peers =
                        list.iter().copied().filter(|&(w, _)| w != peer).collect();
                    let pos = patched.partition_point(|&(w, s)| s > sim || (s == sim && w < peer));
                    patched.insert(pos, (peer, sim));
                    patched.truncate(bound.expect("saturated implies bounded"));
                    (Some(Arc::new(patched)), SpliceOutcome::Patched)
                } else if list.iter().any(|&(w, _)| w == peer) {
                    // The edge leaves (or falls below) the boundary: the
                    // promotion from beyond the bound is unknown.
                    (None, SpliceOutcome::Invalidated)
                } else {
                    // Beyond the boundary before and after: the bounded
                    // top is unchanged, leave the slot (and version) be.
                    return Some(SpliceOutcome::Untouched);
                }
            } else {
                let mut patched: Peers = list.iter().copied().filter(|&(w, _)| w != peer).collect();
                if let Some(sim) = new_sim {
                    let pos = patched.partition_point(|&(w, s)| s > sim || (s == sim && w < peer));
                    patched.insert(pos, (peer, sim));
                }
                (Some(Arc::new(patched)), SpliceOutcome::Patched)
            };
            if self.cas_slot(idx, true, version, value) {
                return Some(outcome);
            }
            // Lost a race with a concurrent fill (or a superseding
            // invalidation — the generation re-check above catches that
            // next turn). Re-observe and retry.
        }
    }

    /// Stores a complete recomputed full list into `slot`, guarded by the
    /// generation token like every other deferred write.
    pub(crate) fn store_full_list(&self, slot: UserId, list: Arc<Peers>, expected_generation: u64) {
        if slot.index() >= self.slots.len() {
            return;
        }
        loop {
            let (cur, version) = self.slots[slot.index()].load_versioned();
            if self.generation() != expected_generation {
                return;
            }
            if self.cas_slot(
                slot.index(),
                cur.is_some(),
                version,
                Some(Arc::clone(&list)),
            ) {
                return;
            }
        }
    }

    /// Installs a complete full list into `slot` iff the generation still
    /// matches — the per-slot form of a swap-based warm install (the
    /// sharded symmetric warm publishes each computed list through here,
    /// so a whole-shard warm never excludes concurrent readers). The
    /// version-load → generation-check → CAS order makes every
    /// interleaving with an invalidation safe: an invalidation bumps the
    /// generation *before* swapping slots, so either the check here fails
    /// or the invalidation's swap bumps the version after our load and
    /// the CAS fails. Returns whether the install happened.
    pub(crate) fn try_install_list(
        &self,
        slot: UserId,
        list: Arc<Peers>,
        expected_generation: u64,
    ) -> bool {
        if slot.index() >= self.slots.len() {
            return false;
        }
        let (cur, version) = self.slots[slot.index()].load_versioned();
        if self.generation() != expected_generation {
            return false;
        }
        // A concurrent fill may have landed the identical list already;
        // overwriting it is benign (same data) and keeps one code path.
        self.cas_slot(slot.index(), cur.is_some(), version, Some(list))
    }

    /// Clears every slot without bumping the generation (callers on the
    /// maintenance paths have already bumped it). Every clear is a
    /// version-bumping swap — including `None` over `None` — so no
    /// in-flight fill computed against pre-change data can land.
    pub(crate) fn clear_all_slots(&self) {
        for idx in 0..self.slots.len() {
            self.swap_slot(idx, None);
        }
    }

    /// One-off form of [`compute_full_with`](Self::compute_full_with)
    /// for lazy single-user fills: the scratch lives for one kernel
    /// pass, whose cost dominates the allocation.
    fn compute_full<S: BulkUserSimilarity + ?Sized>(&self, measure: &S, user: UserId) -> Peers {
        self.compute_full_with(measure, user, &mut SimScratch::new())
    }

    /// The cached form of a user's full list: δ-filtered, canonical, and
    /// truncated to the selector's [`PeerSelector::cache_bound`] (the
    /// whole list when uncapped). Capped selectors go through the
    /// kernel-side top-cap heap, so a power user's list costs
    /// O(n log bound), not a full sort.
    fn compute_full_with<S: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &S,
        user: UserId,
        scratch: &mut SimScratch,
    ) -> Peers {
        let bounded = PeerSelector {
            delta: self.selector.delta,
            max_peers: self.selector.cache_bound(),
        };
        bounded.peers_of_bulk(measure, user, self.num_users(), &[], scratch)
    }
}

/// The delta splice behind [`PeerIndex::apply_delta`] and
/// `ShardedPeerIndex::apply_delta`, over the indexes in `shards` with
/// `route` mapping a user of the `0..num_users` universe to its
/// `(shard, slot)`: every shard's token is bumped before any slot is
/// touched, `user`'s full list is recomputed with one uncapped pass of
/// `measure`, and each affected endpoint's slot gets the refreshed
/// `(user, simU)` edge. A concurrent invalidation of one shard makes
/// that shard's remaining writes no-ops (the generation guard) while the
/// others proceed. See [`PeerIndex::apply_delta`] for the contract.
pub(crate) fn splice_delta<S: BulkUserSimilarity + ?Sized>(
    shards: &[PeerIndex],
    route: impl Fn(UserId) -> Option<(usize, UserId)>,
    num_users: u32,
    measure: &S,
    user: UserId,
) -> DeltaOutcome {
    let Some((owning, own_slot)) = route(user) else {
        return DeltaOutcome::OutOfUniverse;
    };
    // Bump first, exactly like the invalidation paths: the underlying
    // data already changed, so any fill still in flight computed against
    // stale data and must not be stored.
    let tokens: Vec<u64> = shards.iter().map(PeerIndex::bump_generation).collect();
    if shards.iter().all(|shard| shard.num_cached() == 0) {
        // The token alone does not stop a lazy fill: its CAS checks only
        // the slot version, so bump every slot's version too.
        for shard in shards {
            shard.clear_all_slots();
        }
        return DeltaOutcome::ColdIndex;
    }
    let selector = shards[owning].selector;
    // The user's stored pre-change list is the complete old edge set
    // only when present and unsaturated (a list at the cache bound lost
    // its beyond-boundary peers); without it, or with an asymmetric
    // measure, the stale `(v, user)` edges cannot be enumerated — fall
    // back to the blanket invalidation.
    let old = shards[owning]
        .cached_full(own_slot)
        .filter(|old| selector.cache_bound().is_none_or(|b| old.len() < b));
    let (Some(old), true) = (old, measure.is_symmetric()) else {
        for shard in shards {
            shard.clear_all_slots();
        }
        return DeltaOutcome::InvalidatedAll;
    };
    // The *uncapped* new list: affected-endpoint enumeration and the
    // per-endpoint splices need every qualifying edge, not just the
    // bounded top (an edge below the user's own boundary can still sit
    // inside another endpoint's bounded list).
    let uncapped = PeerSelector {
        delta: selector.delta,
        max_peers: None,
    };
    let new = uncapped.peers_of_bulk(measure, user, num_users, &[], &mut SimScratch::new());

    // The affected endpoints: every peer the user had or now has. Cached
    // lists are symmetric-consistent (same measure, same δ,
    // bitwise-symmetric values), so a warm list contains a stale `user`
    // edge iff its owner appears in the user's old list.
    let mut affected: Vec<UserId> = old.iter().chain(&new).map(|&(v, _)| v).collect();
    affected.sort_unstable();
    affected.dedup();
    // Id-sorted copy of the new list for O(log n) edge lookups.
    let mut new_by_id = new.clone();
    new_by_id.sort_unstable_by_key(|&(v, _)| v);

    let mut touched = 0usize;
    for v in affected {
        let (s, slot) = route(v).expect("peer lists only mention in-universe users");
        let sim = new_by_id
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|idx| new_by_id[idx].1);
        // `Patched`/`Invalidated` changed the slot's contents; a cold
        // refresh or a provably unchanged bounded top does not, and
        // `None` means a concurrent invalidation of that shard
        // superseded its splices.
        if matches!(
            shards[s].splice_peer(slot, user, sim, tokens[s]),
            Some(SpliceOutcome::Patched | SpliceOutcome::Invalidated)
        ) {
            touched += 1;
        }
    }
    let mut own = new;
    if let Some(bound) = selector.cache_bound() {
        own.truncate(bound);
    }
    shards[owning].store_full_list(own_slot, Arc::new(own), tokens[owning]);
    DeltaOutcome::Spliced { touched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserSimilarity;

    /// Similarity fixed by a dense table; `None` where negative.
    struct Table(Vec<Vec<f64>>);

    impl UserSimilarity for Table {
        fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
            let s = *self.0.get(u.index())?.get(v.index())?;
            (s >= 0.0).then_some(s)
        }
        fn name(&self) -> &'static str {
            "table"
        }
    }

    /// The test tables are symmetric matrices of shared constants, so
    /// declaring bitwise symmetry is sound and exercises the symmetric
    /// warm path.
    impl BulkUserSimilarity for Table {
        fn is_symmetric(&self) -> bool {
            true
        }
    }

    fn table5() -> Table {
        Table(vec![
            vec![1.0, 0.9, 0.2, 0.9, 0.5],
            vec![0.9, 1.0, 0.3, 0.4, 0.6],
            vec![0.2, 0.3, 1.0, 0.8, 0.7],
            vec![0.9, 0.4, 0.8, 1.0, 0.1],
            vec![0.5, 0.6, 0.7, 0.1, 1.0],
        ])
    }

    #[test]
    fn slot_versions_name_one_published_value() {
        let list = |v: u32| Some(Arc::new(vec![(UserId::new(v), 0.5)]));
        let slot = Slot::new(None);
        assert_eq!(slot.load_versioned(), (None, 0));
        assert_eq!(slot.swap(list(1)), None);
        assert_eq!(slot.load_versioned(), (list(1), 1));
        // A publish against a stale version is rejected and changes nothing.
        assert!(!slot.compare_version_swap(0, list(2)));
        assert_eq!(slot.load_versioned(), (list(1), 1));
        assert!(slot.compare_version_swap(1, list(2)));
        assert_eq!(slot.swap(None), list(2));
        assert_eq!(slot.load_versioned(), (None, 3));
        // Racing publishes against one observed version: exactly one wins
        // whatever the interleaving, and the slot holds its value.
        let start = std::sync::Barrier::new(4);
        let winners: Vec<u32> = std::thread::scope(|scope| {
            let racers: Vec<_> = (10..14)
                .map(|v| {
                    let (slot, start) = (&slot, &start);
                    scope.spawn(move || {
                        start.wait();
                        slot.compare_version_swap(3, list(v)).then_some(v)
                    })
                })
                .collect();
            racers
                .into_iter()
                .filter_map(|h| h.join().expect("racer panicked"))
                .collect()
        });
        assert_eq!(winners.len(), 1, "{winners:?}");
        assert_eq!(slot.load_versioned(), (list(winners[0]), 4));
    }

    #[test]
    fn matches_direct_selector_calls() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();
        let index = PeerIndex::new(sel, 5);
        for u in (0..5).map(UserId::new) {
            let direct = sel.peers_of(&m, u, (0..5).map(UserId::new), &[]);
            assert_eq!(index.peers_of(&m, u), direct, "user {u}");
        }
    }

    #[test]
    fn group_masking_matches_recomputation_with_cap() {
        let m = table5();
        // Cap of 2 is the interesting case: masking a member must promote
        // the next-best peer into the capped window.
        let sel = PeerSelector::new(0.0).unwrap().with_max_peers(2);
        let index = PeerIndex::new(sel, 5);
        let group = [UserId::new(0), UserId::new(1)];
        let direct = sel.peers_for_group(&m, &group, (0..5).map(UserId::new));
        assert_eq!(index.group_peers(&m, &group), direct);
    }

    #[test]
    fn lazy_fill_then_cache_hit() {
        let m = table5();
        let index = PeerIndex::new(PeerSelector::new(0.5).unwrap(), 5);
        assert_eq!(index.num_cached(), 0);
        let first = index.peers_of(&m, UserId::new(0));
        assert_eq!(index.num_cached(), 1);
        let full_a = index.cached_full(UserId::new(0)).unwrap();
        let again = index.peers_of(&m, UserId::new(0));
        let full_b = index.cached_full(UserId::new(0)).unwrap();
        assert_eq!(first, again);
        assert!(
            Arc::ptr_eq(&full_a, &full_b),
            "second read must hit the cache"
        );
    }

    #[test]
    fn warm_fills_everything_and_counts() {
        let m = table5();
        let index = PeerIndex::new(PeerSelector::new(0.0).unwrap(), 5);
        let _ = index.peers_of(&m, UserId::new(2));
        assert_eq!(index.warm(&m, Parallelism::Sequential), 4);
        assert_eq!(index.num_cached(), 5);
        assert_eq!(index.warm(&m, Parallelism::Sequential), 0, "already warm");
    }

    #[test]
    fn warm_symmetric_matches_per_user_warm() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();
        let per_user = PeerIndex::new(sel, 5);
        per_user.warm(&m, Parallelism::Sequential);
        let symmetric = PeerIndex::new(sel, 5);
        assert_eq!(symmetric.warm_symmetric(&m, Parallelism::Sequential), 5);
        for u in (0..5).map(UserId::new) {
            assert_eq!(
                symmetric.cached_full(u).unwrap(),
                per_user.cached_full(u).unwrap(),
                "user {u}"
            );
        }
    }

    #[test]
    fn warm_symmetric_falls_back_on_partial_or_asymmetric() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();
        let reference = PeerIndex::new(sel, 5);
        reference.warm(&m, Parallelism::Sequential);

        // Partially warm: the triangle cannot be restricted, so the
        // per-user path finishes the job — identical lists either way.
        let partial = PeerIndex::new(sel, 5);
        let _ = partial.peers_of(&m, UserId::new(2));
        assert_eq!(partial.warm_symmetric(&m, Parallelism::Sequential), 4);
        // A measure that does not declare bitwise symmetry never takes
        // the triangle path.
        let pairwise = crate::bulk::PairwiseOnly::new(&m);
        let asymmetric = PeerIndex::new(sel, 5);
        assert_eq!(
            asymmetric.warm_symmetric(&pairwise, Parallelism::Sequential),
            5
        );
        for u in (0..5).map(UserId::new) {
            let want = reference.cached_full(u).unwrap();
            assert_eq!(partial.cached_full(u).unwrap(), want, "partial, user {u}");
            assert_eq!(asymmetric.cached_full(u).unwrap(), want, "asym, user {u}");
        }
    }

    #[test]
    fn invalidation_drops_entries_and_bumps_generation() {
        let m = table5();
        let index = PeerIndex::new(PeerSelector::new(0.0).unwrap(), 5);
        index.warm(&m, Parallelism::Sequential);
        let g0 = index.generation();
        index.invalidate_user(UserId::new(3));
        assert_eq!(index.num_cached(), 4);
        assert!(index.generation() > g0);
        index.invalidate_all();
        assert_eq!(index.num_cached(), 0);
        assert!(index.generation() > g0 + 1);
    }

    #[test]
    fn out_of_universe_users_answer_empty() {
        let m = table5();
        let index = PeerIndex::new(PeerSelector::new(0.0).unwrap(), 5);
        assert!(index.peers_of(&m, UserId::new(99)).is_empty());
        assert!(index.cached_full(UserId::new(99)).is_none());
        index.invalidate_user(UserId::new(99)); // must not panic
    }

    #[test]
    fn from_edges_builds_canonical_capped_lists() {
        let sel = PeerSelector::new(0.5).unwrap().with_max_peers(2);
        let member = UserId::new(0);
        let edges = vec![
            (member, UserId::new(2), 0.6),
            (member, UserId::new(3), 0.9),
            (member, UserId::new(4), 0.9), // ties break by ascending id
            (member, UserId::new(1), 0.2), // below δ — dropped
        ];
        let index = PeerIndex::from_edges(sel, 5, &[member], edges);
        let views = index.group_peers_cached(&[member]);
        assert_eq!(
            views,
            vec![(member, vec![(UserId::new(3), 0.9), (UserId::new(4), 0.9)])]
        );
        // The cached full list keeps the uncapped tail for re-views.
        assert_eq!(index.cached_full(member).unwrap().len(), 3);
        // Unpopulated users are cold, and cached views answer empty.
        assert!(index.cached_full(UserId::new(1)).is_none());
        assert!(index.group_peers_cached(&[UserId::new(1)])[0].1.is_empty());
    }

    #[test]
    fn from_edges_drops_self_edges_and_dedups_to_max() {
        let sel = PeerSelector::new(0.0).unwrap();
        let member = UserId::new(0);
        let edges = vec![
            (member, member, 1.0),         // self-edge — never a peer
            (member, UserId::new(1), 0.4), // duplicate, lower sim
            (member, UserId::new(1), 0.7), // kept: the max-sim edge
            (member, UserId::new(1), 0.2), // duplicate, lower sim
            (member, UserId::new(2), 0.5),
        ];
        let index = PeerIndex::from_edges(sel, 3, &[member], edges);
        assert_eq!(
            index.cached_full(member).unwrap().as_ref(),
            &vec![(UserId::new(1), 0.7), (UserId::new(2), 0.5)]
        );
    }

    #[test]
    fn apply_delta_splices_to_a_cold_rebuild() {
        // "Mutate" the measure by swapping tables: warm against t1, then
        // change row/column 2 and delta user 2. Every warm list must end
        // up exactly as a cold rebuild against t2 would produce it.
        let t1 = table5();
        let mut rows = t1.0.clone();
        for (v, s) in [(0usize, 0.85), (1, 0.05), (3, 0.6)] {
            rows[2][v] = s;
            rows[v][2] = s;
        }
        rows[2][4] = -1.0; // (2, 4) becomes undefined
        rows[4][2] = -1.0;
        let t2 = Table(rows);

        let sel = PeerSelector::new(0.3).unwrap();
        let index = PeerIndex::new(sel, 5);
        index.warm(&t1, Parallelism::Sequential);
        let g0 = index.generation();
        let outcome = index.apply_delta(&t2, UserId::new(2));
        // u2's old peers {1, 3, 4} ∪ new peers {0, 3} = {0, 1, 3, 4}.
        assert_eq!(outcome, DeltaOutcome::Spliced { touched: 4 });
        assert!(index.generation() > g0, "delta must bump the generation");
        assert_eq!(index.num_cached(), 5, "no slot goes cold");

        let cold = PeerIndex::new(sel, 5);
        cold.warm(&t2, Parallelism::Sequential);
        for u in (0..5).map(UserId::new) {
            assert_eq!(
                index.cached_full(u).unwrap(),
                cold.cached_full(u).unwrap(),
                "user {u}"
            );
        }
    }

    #[test]
    fn apply_delta_outcomes_cover_the_contract() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();

        // Fully cold: nothing to splice, generation still bumps.
        let cold = PeerIndex::new(sel, 5);
        let g0 = cold.generation();
        assert_eq!(
            cold.apply_delta(&m, UserId::new(1)),
            DeltaOutcome::ColdIndex
        );
        assert!(cold.generation() > g0);

        // Out of universe: untouched, generation untouched.
        cold.warm(&m, Parallelism::Sequential);
        let g1 = cold.generation();
        assert_eq!(
            cold.apply_delta(&m, UserId::new(99)),
            DeltaOutcome::OutOfUniverse
        );
        assert_eq!(cold.generation(), g1);
        assert_eq!(cold.num_cached(), 5);

        // Asymmetric measure: blanket fallback.
        let warm = PeerIndex::new(sel, 5);
        warm.warm(&m, Parallelism::Sequential);
        let pairwise = crate::bulk::PairwiseOnly::new(&m);
        assert_eq!(
            warm.apply_delta(&pairwise, UserId::new(1)),
            DeltaOutcome::InvalidatedAll
        );
        assert_eq!(warm.num_cached(), 0);

        // Partially warm without the user's own list: blanket fallback.
        let partial = PeerIndex::new(sel, 5);
        let _ = partial.peers_of(&m, UserId::new(0));
        assert_eq!(
            partial.apply_delta(&m, UserId::new(2)),
            DeltaOutcome::InvalidatedAll
        );
        assert_eq!(partial.num_cached(), 0);
    }

    #[test]
    fn grow_and_rebuild_preserve_the_generation_token() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();
        let index = PeerIndex::new(sel, 5);
        index.warm(&m, Parallelism::Sequential);
        index.invalidate_user(UserId::new(0)); // bump the token
        let g = index.generation();

        let grown = index.grow_universe(8);
        assert_eq!(grown.num_users(), 8);
        assert_eq!(grown.generation(), g, "growth carries the token over");
        assert_eq!(
            grown.num_cached(),
            4,
            "warm lists carry over; new slots start cold"
        );
        assert_eq!(
            grown.cached_full(UserId::new(1)),
            index.cached_full(UserId::new(1))
        );
        assert!(grown.cached_full(UserId::new(7)).is_none());

        let rebuilt = grown.rebuild_cold(3);
        assert_eq!(rebuilt.num_users(), 3);
        assert_eq!(rebuilt.num_cached(), 0);
        assert!(
            rebuilt.generation() > g,
            "a rebuild bumps the token — it never restarts at zero"
        );
    }

    #[test]
    fn grow_revalidated_matches_a_cold_rebuild() {
        // A measure that can score the new ids against existing users
        // (the profile/semantic case): revalidated growth must leave
        // every preserved list bitwise identical to a cold rebuild over
        // the grown universe, while new slots start cold.
        let mut rows = vec![vec![0.0; 7]; 7];
        for (u, row) in rows.iter_mut().enumerate() {
            for (v, cell) in row.iter_mut().enumerate() {
                // Symmetric, some pairs undefined, some below δ, ties.
                *cell = match (u + v) % 5 {
                    0 => -1.0, // undefined
                    1 => 0.15, // below δ = 0.3
                    2 => 0.6,
                    3 => 0.6, // ties exercise the id tiebreak
                    _ => 0.9,
                };
            }
        }
        let m = Table(rows);
        let sel = PeerSelector::new(0.3).unwrap();

        let index = PeerIndex::new(sel, 4);
        index.warm(&m, Parallelism::Sequential);
        index.invalidate_user(UserId::new(3)); // one cold slot stays cold
        let g = index.generation();

        let grown = index.grow_universe_revalidated(&m, 7);
        assert_eq!(grown.num_users(), 7);
        assert!(grown.generation() > g, "contents changed: token must bump");
        assert_eq!(grown.num_cached(), 3, "warm lists preserved, rest cold");

        let cold = PeerIndex::new(sel, 7);
        cold.warm(&m, Parallelism::Sequential);
        for u in (0..3).map(UserId::new) {
            assert_eq!(
                grown.cached_full(u).unwrap(),
                cold.cached_full(u).unwrap(),
                "user {u}"
            );
        }
        for u in (3..7).map(UserId::new) {
            assert!(grown.cached_full(u).is_none(), "user {u} must be cold");
        }
    }

    #[test]
    fn apply_delta_skips_cold_slots() {
        let m = table5();
        let sel = PeerSelector::new(0.3).unwrap();
        let index = PeerIndex::new(sel, 5);
        // Warm only u2 (the delta user) and u0: u2's peers at δ=0.3 are
        // {3, 4}, so u3/u4 are affected but cold and must stay cold.
        let _ = index.peers_of(&m, UserId::new(2));
        let _ = index.peers_of(&m, UserId::new(0));
        let outcome = index.apply_delta(&m, UserId::new(2));
        assert_eq!(outcome, DeltaOutcome::Spliced { touched: 0 });
        assert_eq!(index.num_cached(), 2);
        assert!(index.cached_full(UserId::new(3)).is_none());
    }

    #[test]
    fn concurrent_reads_agree() {
        let m = table5();
        let sel = PeerSelector::new(0.0).unwrap();
        let index = PeerIndex::new(sel, 5);
        let expected: Vec<Peers> = (0..5)
            .map(|u| sel.peers_of(&m, UserId::new(u), (0..5).map(UserId::new), &[]))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for u in 0..5 {
                        assert_eq!(index.peers_of(&m, UserId::new(u)), expected[u as usize]);
                    }
                });
            }
        });
        assert_eq!(index.num_cached(), 5);
    }
}
