//! User-partitioned rating storage — the matrix side of the sharding
//! layer.
//!
//! The ROADMAP's >10⁶-user goal needs the rating relation split across
//! shards so that cold peer builds (and their memory) scale out instead
//! of up. [`ShardedRatingMatrix`] hash-partitions the **user** dimension:
//! every user is owned by exactly one shard ([`ShardSpec::shard_of`]),
//! and each shard holds a [`ShardMatrix`] — a [`RatingMatrix`] over a
//! *compacted local user-id space* plus the [`IdRemap`] that ties local
//! rows back to global ids. A shard owning `k` of `U` users allocates
//! user-axis metadata (CSR offsets, means, degrees) of length `k`, not
//! `U`, so per-shard memory is O(U/S) and the partition genuinely
//! spreads residency, not just CPU.
//!
//! The remap is **monotone**: `owned` is the ascending list of global
//! ids a shard holds, and local id = rank in that list. Ascending local
//! order therefore *is* ascending global order inside a shard, which
//! buys the three properties the similarity layer depends on:
//!
//! * **CSR rows are exact.** A user's ratings live wholly in their
//!   owning shard, so the local row (items, scores) and the cached mean
//!   `µ_u` are bitwise identical to the unsharded matrix (same triples,
//!   same sorted build order, same left-to-right mean summation).
//! * **CSC columns preserve the global merge-join order.** A shard
//!   column stores *local* rater ids, but because the remap is monotone
//!   those locals ascend exactly as their globals do — a kernel walking
//!   the column visits candidates in the same order the monolithic
//!   kernel would, so the Pearson accumulation order (and hence every
//!   bit of every similarity) is unchanged. Translation back to global
//!   ids happens only at the kernel boundary ([`IdRemap::global_of`]).
//! * **Point mutations route.** `insert`/`update`/`remove` forward to
//!   the owning shard's local [`RatingMatrix`] mutation (unchanged), so
//!   the incremental-ingestion contract ("patched ≡ rebuilt, bitwise")
//!   holds per shard by the existing proptests. Universe growth admits
//!   each new global id to its hash owner *incrementally* — new ids are
//!   larger than all existing ones, so appending keeps every remap
//!   sorted without a rescan.
//!
//! **One shard is the monolithic matrix.** The engine's store is always
//! a [`ShardedRatingMatrix`], `S = 1` by default. With one shard every
//! remap is the identity, and two rules make it cost nothing:
//! [`ShardedRatingMatrix::from_owned`] moves the input matrix into the
//! shard instead of copying it through its triples, and
//! [`IdRemap::local_of`] answers in O(1) when the remap is the identity
//! — read off the data (an ascending list of `k` distinct ids whose last
//! is `k − 1` is exactly `0..k`), so no flag can disagree with it.
//!
//! Out-of-range item lookups on a shard matrix answer empty (the
//! [`RatingMatrix`] guard), so shards whose item spaces lag behind a
//! growth event degrade safely: a column a shard has never seen is an
//! empty column, which is also what it holds.

use crate::error::{FairrecError, Result};
use crate::ids::{ItemId, UserId};
use crate::matrix::{RatingMatrix, RatingMatrixBuilder, RatingTriple};
use crate::rating::Rating;

/// Deterministic user → shard assignment.
///
/// The partition is a Fibonacci (multiplicative) hash followed by a
/// fixed-point range reduction: well mixed for the sequential id blocks
/// real cohorts arrive in, allocation-free, and — crucially for the
/// bitwise-equality contract — a pure function of `(user, num_shards)`,
/// so every component (matrix, peer index, engine, MapReduce producer)
/// agrees on ownership without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    num_shards: u32,
}

impl ShardSpec {
    /// A spec with `num_shards` shards.
    ///
    /// # Errors
    /// Rejects zero shards.
    pub fn new(num_shards: u32) -> Result<Self> {
        if num_shards == 0 {
            return Err(FairrecError::invalid_parameter("num_shards", "must be ≥ 1"));
        }
        Ok(Self { num_shards })
    }

    /// Number of shards `S`.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The shard owning `user` — a pure function of the id and `S`.
    pub fn shard_of(&self, user: UserId) -> usize {
        // Fibonacci hash (golden-ratio multiplier) then take the high
        // bits via a widening multiply: maps uniformly onto 0..S without
        // the modulo's low-bit bias.
        let mixed = user.raw().wrapping_mul(0x9E37_79B9);
        ((u64::from(mixed) * u64::from(self.num_shards)) >> 32) as usize
    }

    /// One [`IdRemap`] per shard covering the universe `0..num_users` —
    /// a single O(U) enumeration at construction time. Per-call lookups
    /// go through the maintained remaps instead
    /// ([`ShardedRatingMatrix::users_of_shard`] is O(1)).
    pub fn partition(&self, num_users: u32) -> Vec<IdRemap> {
        let mut remaps: Vec<IdRemap> = (0..self.num_shards).map(|_| IdRemap::new()).collect();
        for u in (0..num_users).map(UserId::new) {
            remaps[self.shard_of(u)].push(u);
        }
        remaps
    }

    /// The users of `0..num_users` owned by `shard`, ascending.
    ///
    /// O(U) full-range scan — construction/oracle use only; steady-state
    /// callers read the owned list maintained by the remap.
    pub fn users_of_shard(&self, shard: usize, num_users: u32) -> Vec<UserId> {
        (0..num_users)
            .map(UserId::new)
            .filter(|&u| self.shard_of(u) == shard)
            .collect()
    }
}

/// A shard's global↔local user-id translation table.
///
/// `owned` is the ascending list of global ids the shard holds; a
/// user's local id is their rank in that list. Because new users are
/// only ever admitted with ids larger than every existing one, growth
/// is an append and the list stays sorted — which keeps the remap
/// *monotone* (local order ≡ global order), the invariant the kernel
/// merge-joins rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdRemap {
    owned: Vec<UserId>,
}

impl IdRemap {
    /// An empty remap (no owned users).
    pub fn new() -> Self {
        Self { owned: Vec::new() }
    }

    /// Number of owned users (the size of the local id space).
    pub fn len(&self) -> u32 {
        self.owned.len() as u32
    }

    /// True when the shard owns no users.
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty()
    }

    /// The owned global ids, ascending. Local id `l` maps to
    /// `owned()[l]`.
    pub fn owned(&self) -> &[UserId] {
        &self.owned
    }

    /// The global id behind local id `local`.
    ///
    /// # Panics
    /// Panics when `local` is outside the local id space.
    pub fn global_of(&self, local: UserId) -> UserId {
        self.owned[local.index()]
    }

    /// The local id of `global`, or `None` when this shard does not own
    /// it. O(1) when the remap is the identity (a single shard, read off
    /// the data: an ascending list of `k` distinct ids ending at `k - 1`
    /// is `0..k`); otherwise an O(log k) binary search over the owned
    /// list.
    pub fn local_of(&self, global: UserId) -> Option<UserId> {
        let k = self.owned.len();
        if self.owned.last().is_some_and(|last| last.index() + 1 == k) {
            return (global.index() < k).then_some(global);
        }
        self.owned
            .binary_search(&global)
            .ok()
            .map(|rank| UserId::new(rank as u32))
    }

    /// Number of owned users with global id strictly below `bound` —
    /// equivalently, the first local id whose global id is `≥ bound`.
    /// This is how a *global* universe bound (or an above-only pivot)
    /// translates into the local id space.
    pub fn rank_of_bound(&self, bound: u32) -> u32 {
        self.owned.partition_point(|g| g.raw() < bound) as u32
    }

    /// Admits `global` as the next local id.
    ///
    /// # Panics
    /// Debug-asserts monotonicity: `global` must exceed every owned id.
    pub fn push(&mut self, global: UserId) {
        debug_assert!(
            self.owned.last().is_none_or(|&last| last < global),
            "remap admissions must be ascending (got {global} after {:?})",
            self.owned.last()
        );
        self.owned.push(global);
    }
}

/// One shard of a [`ShardedRatingMatrix`]: a [`RatingMatrix`] whose
/// user axis is the *compacted local id space* (dense rows
/// `0..remap.len()`), plus the [`IdRemap`] back to global ids. The item
/// axis stays global. Global-facing accessors translate at the edge;
/// kernels that want the raw local view take [`local`](Self::local) and
/// [`remap`](Self::remap) directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMatrix {
    remap: IdRemap,
    local: RatingMatrix,
}

impl ShardMatrix {
    /// The global↔local translation table.
    pub fn remap(&self) -> &IdRemap {
        &self.remap
    }

    /// The compacted local matrix (user axis `0..remap.len()`, item
    /// axis global).
    pub fn local(&self) -> &RatingMatrix {
        &self.local
    }

    /// Items rated by global user `user`, ascending — empty when the
    /// shard does not own the user.
    pub fn items_of(&self, user: UserId) -> &[ItemId] {
        self.remap
            .local_of(user)
            .map_or(&[], |l| self.local.items_of(l))
    }

    /// Scores parallel to [`items_of`](Self::items_of).
    pub fn scores_of(&self, user: UserId) -> &[f64] {
        self.remap
            .local_of(user)
            .map_or(&[], |l| self.local.scores_of(l))
    }

    /// [`items_of`](Self::items_of) and [`scores_of`](Self::scores_of)
    /// together, behind one remap lookup.
    pub fn ratings_row(&self, user: UserId) -> (&[ItemId], &[f64]) {
        self.remap.local_of(user).map_or((&[], &[]), |l| {
            (self.local.items_of(l), self.local.scores_of(l))
        })
    }

    /// `(item, score)` pairs of global user `user`, ascending by item.
    pub fn ratings_of(&self, user: UserId) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        let (items, scores) = self.ratings_row(user);
        items.iter().copied().zip(scores.iter().copied())
    }

    /// Raters of `item` owned by this shard as `(global id, score)`,
    /// ascending by global id (the column stores locals; the monotone
    /// remap makes the translated stream ascend).
    pub fn raters_of(&self, item: ItemId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        self.local
            .raters_of(item)
            .map(|(l, r)| (self.remap.global_of(l), r))
    }

    /// `rating(user, item)` for a global user id.
    pub fn rating(&self, user: UserId, item: ItemId) -> Option<f64> {
        self.remap
            .local_of(user)
            .and_then(|l| self.local.rating(l, item))
    }

    /// True when the shard stores `(user, item)`.
    pub fn has_rated(&self, user: UserId, item: ItemId) -> bool {
        self.rating(user, item).is_some()
    }

    /// `µ_user` for a global user id (`None` when unowned or rating-less).
    pub fn user_mean(&self, user: UserId) -> Option<f64> {
        self.remap
            .local_of(user)
            .and_then(|l| self.local.user_mean(l))
    }

    /// Number of ratings by global user `user`.
    pub fn degree_of(&self, user: UserId) -> usize {
        self.remap
            .local_of(user)
            .map_or(0, |l| self.local.degree_of(l))
    }

    /// Stored ratings in this shard.
    pub fn num_ratings(&self) -> usize {
        self.local.num_ratings()
    }

    /// Number of **owned** users who rated `item` — this shard's share
    /// of the global column degree `|U(i)|` (items are global ids in
    /// every shard).
    pub fn item_degree(&self, item: ItemId) -> usize {
        self.local.item_degree(item)
    }

    /// Bytes of user-axis metadata: the compacted local arrays plus the
    /// remap table itself.
    pub fn user_axis_bytes(&self) -> usize {
        self.local.user_axis_bytes() + std::mem::size_of_val(self.remap.owned())
    }

    /// This shard's triples under **global** ids, sorted `(user, item)`
    /// (local user order is global order, so translation preserves the
    /// sort).
    pub fn to_triples(&self) -> Vec<RatingTriple> {
        let mut out = self.local.to_triples();
        for t in &mut out {
            t.user = self.remap.global_of(t.user);
        }
        out
    }

    /// Admits global id `global` as the next local row (empty).
    fn admit_user(&mut self, global: UserId) {
        self.remap.push(global);
        self.local.grow_user_space(self.remap.len());
    }

    /// Maps a mutation error's local user id back to the global id the
    /// caller speaks.
    fn globalize_err(&self, err: FairrecError, global: UserId) -> FairrecError {
        match err {
            FairrecError::DuplicateRating { item, .. } => {
                FairrecError::DuplicateRating { user: global, item }
            }
            FairrecError::MissingRating { item, .. } => {
                FairrecError::MissingRating { user: global, item }
            }
            other => other,
        }
    }
}

/// A user-partitioned [`RatingMatrix`]: one compacted [`ShardMatrix`]
/// per shard. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRatingMatrix {
    spec: ShardSpec,
    shards: Vec<ShardMatrix>,
    n_users: u32,
    n_items: u32,
}

impl ShardedRatingMatrix {
    /// Partitions `matrix` into `spec.num_shards()` compacted
    /// shard-local matrices, copying it through its triple relation.
    ///
    /// # Errors
    /// Propagates shard-matrix build failures (cannot occur for a valid
    /// source matrix — its triples are already duplicate-free).
    pub fn from_matrix(matrix: &RatingMatrix, spec: ShardSpec) -> Result<Self> {
        Self::from_triples(
            &matrix.to_triples(),
            spec,
            matrix.num_users(),
            matrix.num_items(),
        )
    }

    /// Like [`from_matrix`](Self::from_matrix), but takes ownership: with
    /// one shard the matrix **moves** into the single shard under the
    /// identity remap — no copy, no re-sort — so `S = 1` stores exactly
    /// the monolithic matrix.
    ///
    /// # Errors
    /// As [`from_matrix`](Self::from_matrix).
    pub fn from_owned(matrix: RatingMatrix, spec: ShardSpec) -> Result<Self> {
        if spec.num_shards() > 1 {
            return Self::from_matrix(&matrix, spec);
        }
        let (n_users, n_items) = (matrix.num_users(), matrix.num_items());
        let remap = IdRemap {
            owned: (0..n_users).map(UserId::new).collect(),
        };
        Ok(Self {
            spec,
            shards: vec![ShardMatrix {
                remap,
                local: matrix,
            }],
            n_users,
            n_items,
        })
    }

    /// Builds the partition directly from a triple relation — the
    /// batch-ingest path, which must never materialise a transient
    /// monolithic matrix. Dimensions are the larger of the occupied
    /// space and the `min_*` floors.
    ///
    /// # Errors
    /// Propagates shard-matrix build failures (duplicate pairs).
    pub fn from_triples(
        triples: &[RatingTriple],
        spec: ShardSpec,
        min_users: u32,
        min_items: u32,
    ) -> Result<Self> {
        let n_users = triples
            .iter()
            .map(|t| t.user.raw() + 1)
            .max()
            .unwrap_or(0)
            .max(min_users);
        let n_items = triples
            .iter()
            .map(|t| t.item.raw() + 1)
            .max()
            .unwrap_or(0)
            .max(min_items);
        let remaps = spec.partition(n_users);
        let mut builders: Vec<RatingMatrixBuilder> = remaps
            .iter()
            .map(|remap| RatingMatrixBuilder::new().reserve_ids(remap.len(), n_items))
            .collect();
        for t in triples {
            let s = spec.shard_of(t.user);
            let local = remaps[s]
                .local_of(t.user)
                .expect("partition covers the whole universe");
            builders[s].add(local, t.item, t.rating);
        }
        let shards = remaps
            .into_iter()
            .zip(builders)
            .map(|(remap, builder)| {
                Ok(ShardMatrix {
                    remap,
                    local: builder.build()?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            spec,
            shards,
            n_users,
            n_items,
        })
    }

    /// The partitioning spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.spec.num_shards()
    }

    /// The shard owning `user`.
    pub fn shard_of(&self, user: UserId) -> usize {
        self.spec.shard_of(user)
    }

    /// The shard-local matrix of shard `s`.
    ///
    /// # Panics
    /// Panics when `s ≥ num_shards`.
    pub fn shard(&self, s: usize) -> &ShardMatrix {
        &self.shards[s]
    }

    /// All shard-local matrices, in shard order.
    pub fn shards(&self) -> &[ShardMatrix] {
        &self.shards
    }

    /// The shard matrix holding `user`'s CSR row (and mean).
    pub fn owning_shard(&self, user: UserId) -> &ShardMatrix {
        &self.shards[self.shard_of(user)]
    }

    /// Size of the global user id space.
    pub fn num_users(&self) -> u32 {
        self.n_users
    }

    /// Size of the global item id space.
    pub fn num_items(&self) -> u32 {
        self.n_items
    }

    /// Total stored ratings across all shards.
    pub fn num_ratings(&self) -> usize {
        self.shards.iter().map(ShardMatrix::num_ratings).sum()
    }

    /// Total user-axis metadata bytes across all shards (compacted
    /// arrays + remap tables).
    pub fn user_axis_bytes(&self) -> usize {
        self.shards.iter().map(ShardMatrix::user_axis_bytes).sum()
    }

    /// The largest single shard's user-axis metadata bytes — the
    /// per-process residency a distributed deployment would pay.
    pub fn max_shard_user_axis_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(ShardMatrix::user_axis_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The users owned by shard `s` within the global universe,
    /// ascending. O(1): this is the remap's maintained owned list, kept
    /// exact across growth by the append-only admission rule.
    pub fn users_of_shard(&self, s: usize) -> &[UserId] {
        self.shards[s].remap.owned()
    }

    /// Looks up `rating(u, i)` in the owning shard.
    pub fn rating(&self, user: UserId, item: ItemId) -> Option<f64> {
        self.owning_shard(user).rating(user, item)
    }

    /// True when the owning shard stores `(user, item)`.
    pub fn has_rated(&self, user: UserId, item: ItemId) -> bool {
        self.owning_shard(user).has_rated(user, item)
    }

    /// `µ_user` from the owning shard.
    pub fn user_mean(&self, user: UserId) -> Option<f64> {
        self.owning_shard(user).user_mean(user)
    }

    /// Number of ratings by `user`.
    pub fn degree_of(&self, user: UserId) -> usize {
        self.owning_shard(user).degree_of(user)
    }

    /// Global column degree `|U(i)|`: the sum of every shard's share
    /// (each shard stores its owned users' ratings of `item`).
    pub fn item_degree(&self, item: ItemId) -> usize {
        self.shards.iter().map(|s| s.item_degree(item)).sum()
    }

    /// Co-rating mass of `user` — `Σ_{i ∈ I(user)} |U(i)|` over global
    /// column degrees, identical to [`RatingMatrix::co_rating_mass`] on
    /// the equivalent monolithic matrix. The ingestion cost model
    /// prices a delta replay for `user` at this figure.
    pub fn co_rating_mass(&self, user: UserId) -> u64 {
        self.owning_shard(user)
            .items_of(user)
            .iter()
            .map(|&i| self.item_degree(i) as u64)
            .sum()
    }

    /// Total co-rating mass `Σ_i |U(i)|²` over global column degrees —
    /// identical to [`RatingMatrix::total_co_rating_mass`] on the
    /// equivalent monolithic matrix; the cost model's price for a
    /// blanket invalidation + symmetric rewarm (halved by the caller:
    /// the warm visits each unordered pair once).
    pub fn total_co_rating_mass(&self) -> u64 {
        (0..self.n_items)
            .map(|raw| {
                let d = self.item_degree(ItemId::new(raw)) as u64;
                d * d
            })
            .sum()
    }

    /// Inserts a rating into the owning shard, growing the global id
    /// spaces when needed. Growth admits every new global id
    /// `n_users..=user` to its hash owner — an append per id, keeping
    /// all remaps sorted without a rescan.
    ///
    /// # Errors
    /// Propagates [`RatingMatrix::insert_rating`] errors (with global
    /// user ids); the stored relation is untouched on error.
    pub fn insert_rating(&mut self, user: UserId, item: ItemId, rating: Rating) -> Result<()> {
        if user.raw() == u32::MAX {
            return Err(FairrecError::invalid_parameter(
                "user",
                "id u32::MAX is reserved",
            ));
        }
        // Admit any universe growth first; admissions are per-id
        // appends and harmless if the insert below then fails
        // (admitting a user is not observable through the relation).
        for g in self.n_users..=user.raw() {
            let g = UserId::new(g);
            let s = self.spec.shard_of(g);
            self.shards[s].admit_user(g);
        }
        self.n_users = self.n_users.max(user.raw() + 1);
        let s = self.shard_of(user);
        let shard = &mut self.shards[s];
        let local = shard
            .remap
            .local_of(user)
            .expect("owning shard admitted the user");
        shard
            .local
            .insert_rating(local, item, rating)
            .map_err(|e| shard.globalize_err(e, user))?;
        self.n_items = self.n_items.max(item.raw() + 1);
        Ok(())
    }

    /// Updates an existing rating in the owning shard; returns the
    /// previous score.
    ///
    /// # Errors
    /// Propagates [`RatingMatrix::update_rating`] errors (with global
    /// user ids).
    pub fn update_rating(&mut self, user: UserId, item: ItemId, rating: Rating) -> Result<f64> {
        let s = self.shard_of(user);
        let shard = &mut self.shards[s];
        let Some(local) = shard.remap.local_of(user) else {
            return Err(FairrecError::MissingRating { user, item });
        };
        shard
            .local
            .update_rating(local, item, rating)
            .map_err(|e| shard.globalize_err(e, user))
    }

    /// Removes an existing rating from the owning shard; returns the
    /// removed score. Id spaces never shrink.
    ///
    /// # Errors
    /// Propagates [`RatingMatrix::remove_rating`] errors (with global
    /// user ids).
    pub fn remove_rating(&mut self, user: UserId, item: ItemId) -> Result<f64> {
        let s = self.shard_of(user);
        let shard = &mut self.shards[s];
        let Some(local) = shard.remap.local_of(user) else {
            return Err(FairrecError::MissingRating { user, item });
        };
        shard
            .local
            .remove_rating(local, item)
            .map_err(|e| shard.globalize_err(e, user))
    }

    /// Re-materialises the full triple relation, sorted `(user, item)` —
    /// the union of every shard's relation.
    pub fn to_triples(&self) -> Vec<RatingTriple> {
        let mut out: Vec<RatingTriple> = self
            .shards
            .iter()
            .flat_map(ShardMatrix::to_triples)
            .collect();
        out.sort_unstable_by_key(|t| (t.user, t.item));
        out
    }

    /// Re-materialises the relation as one monolithic [`RatingMatrix`]
    /// with identical id-space dimensions — the test-oracle and rebuild
    /// helper (e.g. seeding a fresh engine from a live one). Bitwise
    /// faithful: the builder ingests the sorted triple relation, which
    /// is exactly the order a monolithic build sums in.
    ///
    /// # Errors
    /// Propagates builder failures (cannot occur for a valid partition).
    pub fn to_monolithic(&self) -> Result<RatingMatrix> {
        let mut builder = RatingMatrixBuilder::with_capacity(self.num_ratings())
            .reserve_ids(self.n_users, self.n_items);
        for t in self.to_triples() {
            builder.add(t.user, t.item, t.rating);
        }
        builder.build()
    }

    /// The store as a type-erased [`RatingsRead`](crate::RatingsRead)
    /// view, for consumers that hold `&dyn RatingsRead` (observers,
    /// monitors).
    pub fn reads(&self) -> &dyn crate::RatingsRead {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> Rating {
        Rating::new(v).unwrap()
    }

    fn sample() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new().reserve_ids(10, 6);
        for (u, i, s) in [
            (0u32, 0u32, 5.0),
            (0, 2, 3.0),
            (1, 0, 4.0),
            (3, 1, 2.0),
            (3, 2, 4.5),
            (7, 5, 1.0),
            (9, 0, 3.5),
        ] {
            b.add(UserId::new(u), ItemId::new(i), r(s));
        }
        b.build().unwrap()
    }

    #[test]
    fn spec_rejects_zero_and_partitions_everyone() {
        assert!(ShardSpec::new(0).is_err());
        for s in [1u32, 2, 3, 8] {
            let spec = ShardSpec::new(s).unwrap();
            let mut seen = 0usize;
            for shard in 0..s as usize {
                let users = spec.users_of_shard(shard, 100);
                assert!(users.iter().all(|&u| spec.shard_of(u) == shard));
                seen += users.len();
            }
            assert_eq!(seen, 100, "every user owned by exactly one shard");
        }
    }

    #[test]
    fn remap_is_monotone_and_translates_both_ways() {
        let spec = ShardSpec::new(3).unwrap();
        let remaps = spec.partition(50);
        for (s, remap) in remaps.iter().enumerate() {
            assert_eq!(remap.owned(), spec.users_of_shard(s, 50).as_slice());
            assert!(remap.owned().windows(2).all(|w| w[0] < w[1]), "sorted");
            for (local, &global) in remap.owned().iter().enumerate() {
                let local = UserId::new(local as u32);
                assert_eq!(remap.global_of(local), global);
                assert_eq!(remap.local_of(global), Some(local));
            }
            // A global bound translates to the local rank below it.
            for bound in [0u32, 1, 17, 50, 60] {
                let expect = remap.owned().iter().filter(|g| g.raw() < bound).count();
                assert_eq!(remap.rank_of_bound(bound) as usize, expect);
            }
        }
        let total: u32 = remaps.iter().map(IdRemap::len).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn single_shard_is_the_whole_matrix() {
        let m = sample();
        let sharded = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(1).unwrap()).unwrap();
        // With one shard the remap is the identity, so the local matrix
        // *is* the monolithic matrix. Derived `PartialEq` cannot compare
        // NaN mean slots; the relation plus the dimensions pin the
        // equality.
        assert_eq!(sharded.shard(0).to_triples(), m.to_triples());
        assert_eq!(sharded.shard(0).local().num_users(), m.num_users());
        assert_eq!(sharded.shard(0).local().num_items(), m.num_items());
        assert_eq!(sharded.num_ratings(), m.num_ratings());
    }

    #[test]
    fn an_owned_single_shard_moves_in_under_the_identity_remap() {
        let m = sample();
        let owned = ShardedRatingMatrix::from_owned(m.clone(), ShardSpec::new(1).unwrap()).unwrap();
        let copied = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(1).unwrap()).unwrap();
        assert_eq!(owned.shard(0).remap(), copied.shard(0).remap());
        assert_eq!(owned.to_triples(), m.to_triples());
        assert_eq!(owned.to_monolithic().unwrap().to_triples(), m.to_triples());
        assert_eq!(owned.num_users(), m.num_users());
        assert_eq!(owned.num_items(), m.num_items());
        let remap = owned.shard(0).remap();
        for u in 0..m.num_users() + 2 {
            let u = UserId::new(u);
            let expect = (u.raw() < m.num_users()).then_some(u);
            assert_eq!(remap.local_of(u), expect, "identity remap, user {u}");
        }
        // More than one shard still partitions.
        let four = ShardedRatingMatrix::from_owned(m.clone(), ShardSpec::new(4).unwrap()).unwrap();
        assert_eq!(four.num_shards(), 4);
        assert_eq!(four.to_triples(), m.to_triples());
    }

    #[test]
    fn rows_live_wholly_in_the_owning_shard() {
        let m = sample();
        for s in [2u32, 3, 8] {
            let sharded = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(s).unwrap()).unwrap();
            assert_eq!(sharded.num_users(), m.num_users());
            assert_eq!(sharded.num_items(), m.num_items());
            assert_eq!(sharded.num_ratings(), m.num_ratings());
            for u in m.user_ids() {
                let owner = sharded.owning_shard(u);
                assert_eq!(owner.items_of(u), m.items_of(u), "S={s}, row of {u}");
                assert_eq!(owner.scores_of(u), m.scores_of(u), "S={s}, scores of {u}");
                let local = owner.remap().local_of(u).expect("owned");
                assert_eq!(
                    owner.local().user_means()[local.index()].to_bits(),
                    m.user_means()[u.index()].to_bits(),
                    "S={s}, mean of {u}"
                );
                // Every *other* shard neither owns u nor holds a row.
                for (t, shard) in sharded.shards().iter().enumerate() {
                    if t != sharded.shard_of(u) {
                        assert!(shard.remap().local_of(u).is_none(), "S={s}, shard {t}");
                        assert!(shard.items_of(u).is_empty(), "S={s}, shard {t}, user {u}");
                    }
                }
            }
            assert_eq!(sharded.to_triples(), m.to_triples());
        }
    }

    #[test]
    fn shard_metadata_is_owned_sized_not_global_sized() {
        let m = sample();
        for s in [2u32, 3, 8] {
            let sharded = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(s).unwrap()).unwrap();
            let mut owned_total = 0u32;
            for (t, shard) in sharded.shards().iter().enumerate() {
                let owned = sharded.users_of_shard(t).len() as u32;
                assert_eq!(
                    shard.local().num_users(),
                    owned,
                    "S={s}: shard {t} user axis is owned-sized"
                );
                assert_eq!(shard.remap().len(), owned);
                owned_total += owned;
            }
            assert_eq!(
                owned_total,
                m.num_users(),
                "S={s}: shards tile the universe"
            );
        }
    }

    #[test]
    fn columns_are_the_shard_restricted_csc() {
        let m = sample();
        let sharded = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(3).unwrap()).unwrap();
        for i in m.item_ids() {
            let mut union: Vec<(UserId, f64)> = sharded
                .shards()
                .iter()
                .flat_map(|shard| shard.raters_of(i).collect::<Vec<_>>())
                .collect();
            union.sort_unstable_by_key(|&(u, _)| u);
            let full: Vec<(UserId, f64)> = m.raters_of(i).collect();
            assert_eq!(union, full, "column {i}");
            for (t, shard) in sharded.shards().iter().enumerate() {
                // Columns hold only owned users, and the translated
                // stream ascends by global id (monotone remap).
                let col: Vec<UserId> = shard.raters_of(i).map(|(u, _)| u).collect();
                assert!(
                    col.iter().all(|&u| sharded.shard_of(u) == t),
                    "column {i} of shard {t} holds only owned users"
                );
                assert!(col.windows(2).all(|w| w[0] < w[1]), "column {i} ascends");
            }
        }
    }

    #[test]
    fn mutations_route_to_the_owning_shard() {
        let m = sample();
        let mut sharded = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(4).unwrap()).unwrap();
        let user = UserId::new(3);
        let owner = sharded.shard_of(user);

        sharded.insert_rating(user, ItemId::new(5), r(2.5)).unwrap();
        assert_eq!(sharded.rating(user, ItemId::new(5)), Some(2.5));
        assert!(sharded.shard(owner).has_rated(user, ItemId::new(5)));

        let prev = sharded.update_rating(user, ItemId::new(5), r(4.0)).unwrap();
        assert_eq!(prev, 2.5);
        assert_eq!(sharded.remove_rating(user, ItemId::new(5)).unwrap(), 4.0);
        assert_eq!(sharded.to_triples(), m.to_triples());

        // Growth past the global dims is tracked at the sharded level.
        sharded
            .insert_rating(UserId::new(12), ItemId::new(9), r(1.0))
            .unwrap();
        assert_eq!(sharded.num_users(), 13);
        assert_eq!(sharded.num_items(), 10);
        assert!(sharded
            .insert_rating(UserId::new(12), ItemId::new(9), r(1.0))
            .is_err());
        // Errors speak global ids even though storage is local.
        match sharded.insert_rating(UserId::new(12), ItemId::new(9), r(1.0)) {
            Err(FairrecError::DuplicateRating { user, item }) => {
                assert_eq!(user, UserId::new(12));
                assert_eq!(item, ItemId::new(9));
            }
            other => panic!("expected DuplicateRating, got {other:?}"),
        }
    }

    #[test]
    fn growth_keeps_owned_lists_sorted_and_exact() {
        let m = sample();
        let spec = ShardSpec::new(3).unwrap();
        let mut sharded = ShardedRatingMatrix::from_matrix(&m, spec).unwrap();
        // Grow the universe in two uneven jumps; each new id must land
        // in its hash owner's remap, in order, with no rescan drift.
        sharded
            .insert_rating(UserId::new(14), ItemId::new(2), r(3.0))
            .unwrap();
        sharded
            .insert_rating(UserId::new(21), ItemId::new(0), r(4.5))
            .unwrap();
        let n = sharded.num_users();
        assert_eq!(n, 22);
        let mut total = 0usize;
        for s in 0..spec.num_shards() as usize {
            let owned = sharded.users_of_shard(s);
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "shard {s} sorted");
            assert_eq!(
                owned,
                spec.users_of_shard(s, n).as_slice(),
                "shard {s} exact vs the O(U) oracle"
            );
            // The local matrix grew in lockstep with the remap.
            assert_eq!(sharded.shard(s).local().num_users(), owned.len() as u32);
            total += owned.len();
        }
        assert_eq!(total, n as usize);
    }

    #[test]
    fn from_triples_matches_from_matrix() {
        let m = sample();
        for s in [1u32, 2, 3, 8] {
            let spec = ShardSpec::new(s).unwrap();
            let via_matrix = ShardedRatingMatrix::from_matrix(&m, spec).unwrap();
            let via_triples = ShardedRatingMatrix::from_triples(
                &m.to_triples(),
                spec,
                m.num_users(),
                m.num_items(),
            )
            .unwrap();
            assert_eq!(via_matrix.to_triples(), via_triples.to_triples());
            assert_eq!(via_matrix.num_users(), via_triples.num_users());
            assert_eq!(via_matrix.num_items(), via_triples.num_items());
        }
    }
}
