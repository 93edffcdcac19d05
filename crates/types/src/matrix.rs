//! Sparse rating matrix.
//!
//! §IV of the paper takes as input *"a set of user rating triples
//! `R = {(u, i, rating(u, i))}`"*. [`RatingMatrix`] is the in-memory form of
//! that relation, stored twice for the two access patterns the model needs:
//!
//! * **user-major (CSR)** — `I(u)`, the items rated by a user, used when
//!   computing user means, Pearson correlations, and per-user candidate
//!   filtering;
//! * **item-major (CSC)** — `U(i)`, the users who rated an item, used by the
//!   relevance prediction of Equation 1 (`P_u ∩ U(i)`) and by MapReduce
//!   Job 1, which groups the input by item.
//!
//! Both views keep entries sorted by id so that intersections (co-rated
//! items, peers-that-rated) run as linear merge-joins over contiguous
//! arrays — the hot path of the whole system.

use crate::error::{FairrecError, Result};
use crate::ids::{ItemId, UserId};
use crate::rating::Rating;

/// One `(u, i, rating(u, i))` fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingTriple {
    /// The rating user.
    pub user: UserId,
    /// The rated item.
    pub item: ItemId,
    /// The validated score.
    pub rating: Rating,
}

/// Accumulates rating triples and freezes them into a [`RatingMatrix`].
///
/// Duplicate `(user, item)` pairs are rejected at [`build`](Self::build)
/// time: silently keeping one of the two scores would make downstream
/// experiments depend on insertion order.
#[derive(Debug, Default, Clone)]
pub struct RatingMatrixBuilder {
    triples: Vec<(UserId, ItemId, f64)>,
    min_users: u32,
    min_items: u32,
}

impl RatingMatrixBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with a capacity hint for the number of triples.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            triples: Vec::with_capacity(n),
            min_users: 0,
            min_items: 0,
        }
    }

    /// Forces the id spaces to cover at least `n_users` users and
    /// `n_items` items, so entities without any rating still exist in the
    /// matrix (a patient who has not rated anything is still a patient).
    pub fn reserve_ids(mut self, n_users: u32, n_items: u32) -> Self {
        self.min_users = self.min_users.max(n_users);
        self.min_items = self.min_items.max(n_items);
        self
    }

    /// Adds one rating triple.
    pub fn add(&mut self, user: UserId, item: ItemId, rating: Rating) -> &mut Self {
        self.triples.push((user, item, rating.value()));
        self
    }

    /// Adds one triple, validating the raw score.
    ///
    /// # Errors
    /// Returns [`FairrecError::InvalidRating`] if `score ∉ [1, 5]`.
    pub fn add_raw(&mut self, user: UserId, item: ItemId, score: f64) -> Result<&mut Self> {
        let rating = Rating::new(score)?;
        Ok(self.add(user, item, rating))
    }

    /// Number of triples accumulated so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether no triples have been added.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Freezes the builder into an immutable matrix.
    ///
    /// # Errors
    /// Returns [`FairrecError::DuplicateRating`] if the same `(user, item)`
    /// pair was added twice, and [`FairrecError::InvalidParameter`] for id
    /// `u32::MAX` (the id spaces are sized `id + 1`).
    pub fn build(self) -> Result<RatingMatrix> {
        let Self {
            mut triples,
            min_users,
            min_items,
        } = self;

        let n_users = id_space(triples.iter().map(|t| t.0.raw()), min_users, "user")?;
        let n_items = id_space(triples.iter().map(|t| t.1.raw()), min_items, "item")?;

        // Sort user-major; detect duplicates on the sorted sequence.
        triples.sort_unstable_by_key(|&(u, i, _)| (u, i));
        for w in triples.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(FairrecError::DuplicateRating {
                    user: w[0].0,
                    item: w[0].1,
                });
            }
        }

        let nnz = triples.len();
        let mut user_offsets = vec![0u32; n_users as usize + 1];
        let mut user_items = Vec::with_capacity(nnz);
        let mut user_scores = Vec::with_capacity(nnz);
        for &(u, i, s) in &triples {
            user_offsets[u.index() + 1] += 1;
            user_items.push(i);
            user_scores.push(s);
        }
        for k in 1..user_offsets.len() {
            user_offsets[k] += user_offsets[k - 1];
        }

        // Item-major copy: counting sort by item, preserving user order.
        let mut item_counts = vec![0u32; n_items as usize + 1];
        for &(_, i, _) in &triples {
            item_counts[i.index() + 1] += 1;
        }
        for k in 1..item_counts.len() {
            item_counts[k] += item_counts[k - 1];
        }
        let item_offsets = item_counts.clone();
        let mut item_users = vec![UserId::new(0); nnz];
        let mut item_scores = vec![0.0f64; nnz];
        let mut cursor = item_counts;
        for &(u, i, s) in &triples {
            let pos = cursor[i.index()] as usize;
            item_users[pos] = u;
            item_scores[pos] = s;
            cursor[i.index()] += 1;
        }

        // Cached per-user means (µ_u of Equation 2) and degrees (|I(u)|).
        // Both are hot inputs of the bulk similarity kernel, so they are
        // frozen into contiguous arrays here rather than recomputed (or
        // re-derived from offsets) per pair. 0 ratings ⇒ NaN mean slot,
        // surfaced as None by `user_mean`.
        let mut user_means = vec![f64::NAN; n_users as usize];
        let mut user_degrees = vec![0u32; n_users as usize];
        for u in 0..n_users as usize {
            let (lo, hi) = (user_offsets[u] as usize, user_offsets[u + 1] as usize);
            user_degrees[u] = (hi - lo) as u32;
            if hi > lo {
                let sum: f64 = user_scores[lo..hi].iter().sum();
                user_means[u] = sum / (hi - lo) as f64;
            }
        }

        Ok(RatingMatrix {
            n_users,
            n_items,
            user_offsets,
            user_items,
            user_scores,
            item_offsets,
            item_users,
            item_scores,
            user_means,
            user_degrees,
        })
    }
}

/// The id space `0..n` covering every id in `ids` and at least `min`.
/// The id `u32::MAX` has no `id + 1` and is rejected like
/// [`RatingMatrix::insert_rating`] rejects it.
fn id_space(mut ids: impl Iterator<Item = u32>, min: u32, name: &'static str) -> Result<u32> {
    ids.try_fold(min, |n, id| {
        id.checked_add(1).map(|end| n.max(end)).ok_or_else(|| {
            FairrecError::invalid_parameter(
                name,
                format!("id u32::MAX would overflow the {name} id space"),
            )
        })
    })
}

/// Sparse rating matrix with user-major and item-major views.
///
/// Matrices are frozen by [`RatingMatrixBuilder::build`] and then served
/// read-only on the hot paths, but the rating relation itself is *live*:
/// health-record ratings arrive continuously, so the matrix supports
/// in-place point mutations — [`insert_rating`](Self::insert_rating),
/// [`update_rating`](Self::update_rating) and
/// [`remove_rating`](Self::remove_rating) — that patch **both** views,
/// the cached per-user means, and the degree array, leaving the matrix
/// bitwise identical to one rebuilt from the final triple relation
/// (pinned by proptests in this module). Each mutation costs one
/// `memmove` of the stored arrays plus an offset-bump — O(|R| + |U| +
/// |I|) worst case, microseconds at serving scale — which is the price
/// of keeping the merge-join-friendly contiguous layout the read paths
/// depend on.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingMatrix {
    n_users: u32,
    n_items: u32,
    user_offsets: Vec<u32>,
    user_items: Vec<ItemId>,
    user_scores: Vec<f64>,
    item_offsets: Vec<u32>,
    item_users: Vec<UserId>,
    item_scores: Vec<f64>,
    user_means: Vec<f64>,
    user_degrees: Vec<u32>,
}

impl RatingMatrix {
    /// Builds a matrix directly from an iterator of validated triples.
    ///
    /// # Errors
    /// Propagates [`RatingMatrixBuilder::build`] errors.
    pub fn from_triples<T: IntoIterator<Item = RatingTriple>>(triples: T) -> Result<Self> {
        let mut b = RatingMatrixBuilder::new();
        for t in triples {
            b.add(t.user, t.item, t.rating);
        }
        b.build()
    }

    /// Size of the user id space (`|U|`, including rating-less users).
    pub fn num_users(&self) -> u32 {
        self.n_users
    }

    /// Size of the item id space (`|I|`, including unrated items).
    pub fn num_items(&self) -> u32 {
        self.n_items
    }

    /// Total number of stored ratings (`|R|`).
    pub fn num_ratings(&self) -> usize {
        self.user_items.len()
    }

    /// Iterator over the full user id space.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users).map(UserId::new)
    }

    /// Iterator over the full item id space.
    pub fn item_ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.n_items).map(ItemId::new)
    }

    /// The items rated by `u` — the set `I(u)` — sorted by item id.
    pub fn items_of(&self, u: UserId) -> &[ItemId] {
        let (lo, hi) = self.user_range(u);
        &self.user_items[lo..hi]
    }

    /// Scores parallel to [`items_of`](Self::items_of).
    pub fn scores_of(&self, u: UserId) -> &[f64] {
        let (lo, hi) = self.user_range(u);
        &self.user_scores[lo..hi]
    }

    /// `(item, score)` pairs rated by `u`, sorted by item id.
    pub fn ratings_of(&self, u: UserId) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.items_of(u)
            .iter()
            .copied()
            .zip(self.scores_of(u).iter().copied())
    }

    /// The users who rated `i` — the set `U(i)` — sorted by user id.
    pub fn users_of(&self, i: ItemId) -> &[UserId] {
        let (lo, hi) = self.item_range(i);
        &self.item_users[lo..hi]
    }

    /// `(user, score)` pairs who rated `i`, sorted by user id.
    pub fn raters_of(&self, i: ItemId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        let (lo, hi) = self.item_range(i);
        self.item_users[lo..hi]
            .iter()
            .copied()
            .zip(self.item_scores[lo..hi].iter().copied())
    }

    /// Scores parallel to [`users_of`](Self::users_of) — the slice form of
    /// [`raters_of`](Self::raters_of), for kernels that need random access
    /// (e.g. starting a scan mid-column via `partition_point`).
    pub fn rater_scores_of(&self, i: ItemId) -> &[f64] {
        let (lo, hi) = self.item_range(i);
        &self.item_scores[lo..hi]
    }

    /// Looks up `rating(u, i)`, if present (binary search in `I(u)`).
    pub fn rating(&self, u: UserId, i: ItemId) -> Option<f64> {
        let (lo, hi) = self.user_range(u);
        let slot = self.user_items[lo..hi].binary_search(&i).ok()?;
        Some(self.user_scores[lo + slot])
    }

    /// Whether `u` expressed a rating for `i`.
    pub fn has_rated(&self, u: UserId, i: ItemId) -> bool {
        self.rating(u, i).is_some()
    }

    /// Number of ratings by `u`.
    pub fn degree_of(&self, u: UserId) -> usize {
        if u.raw() >= self.n_users {
            return 0;
        }
        self.user_degrees[u.index()] as usize
    }

    /// Mean rating `µ_u` of Equation 2, or `None` for rating-less users.
    pub fn user_mean(&self, u: UserId) -> Option<f64> {
        if u.raw() >= self.n_users {
            return None;
        }
        let m = self.user_means[u.index()];
        (!m.is_nan()).then_some(m)
    }

    /// The per-user mean array (µ_u), precomputed at
    /// [`build`](RatingMatrixBuilder::build) time, indexed by raw user id;
    /// rating-less users hold `NaN`. This is the raw form behind
    /// [`user_mean`](Self::user_mean), exposed so per-pair and bulk
    /// similarity kernels can read means with one bounds-free slice access
    /// instead of an `Option` round-trip per pair.
    pub fn user_means(&self) -> &[f64] {
        &self.user_means
    }

    /// The per-user degree array (`|I(u)|`), precomputed at build time and
    /// indexed by raw user id — capacity hints and work-size estimates for
    /// bulk kernels without re-deriving sizes from the offset array.
    pub fn user_degrees(&self) -> &[u32] {
        &self.user_degrees
    }

    /// Number of users who rated `i` — the column degree `|U(i)|` (an
    /// O(1) offset subtraction on the CSC view). Unknown items answer 0.
    pub fn item_degree(&self, i: ItemId) -> usize {
        if i.raw() >= self.n_items {
            return 0;
        }
        let (lo, hi) = self.item_range(i);
        hi - lo
    }

    /// Co-rating mass of `u`: `Σ_{i ∈ I(u)} |U(i)|` — the number of
    /// stored ratings sharing an item with `u`, which is exactly the
    /// work one one-vs-all similarity pass from `u` scans (the CSC walk
    /// of the bulk kernel). The ingestion cost model prices a delta
    /// replay for `u` at this figure.
    pub fn co_rating_mass(&self, u: UserId) -> u64 {
        self.items_of(u)
            .iter()
            .map(|&i| self.item_degree(i) as u64)
            .sum()
    }

    /// Total co-rating mass: `Σ_i |U(i)|²` — every item's column degree
    /// squared, i.e. the number of (ordered) co-rating pairs in the whole
    /// relation. Half of it is the pair count a symmetric warm kernel
    /// actually visits, which is what the ingestion cost model prices a
    /// blanket invalidation + rewarm at.
    pub fn total_co_rating_mass(&self) -> u64 {
        (0..self.n_items)
            .map(|raw| {
                let d = self.item_degree(ItemId::new(raw)) as u64;
                d * d
            })
            .sum()
    }

    /// Merge-join over the co-rated items of `u` and `v`, yielding
    /// `(item, rating(u, item), rating(v, item))` in item order.
    ///
    /// This is the intersection `I(u) ∩ I(v)` of Equation 2.
    pub fn co_ratings<'a>(&'a self, u: UserId, v: UserId) -> CoRatings<'a> {
        let (ulo, uhi) = self.user_range(u);
        let (vlo, vhi) = self.user_range(v);
        CoRatings {
            left_items: &self.user_items[ulo..uhi],
            left_scores: &self.user_scores[ulo..uhi],
            right_items: &self.user_items[vlo..vhi],
            right_scores: &self.user_scores[vlo..vhi],
        }
    }

    /// Items that **no** member of `group` has rated — the candidate pool
    /// produced by MapReduce Job 1 (*"the reducer checks if any user in the
    /// group has rated that item; if not, then this item will be considered
    /// as a recommendation"*).
    ///
    /// Only items with at least one rating by a non-member can ever receive
    /// a collaborative prediction, but this method returns every unrated
    /// item. The group pass of `fairrec-core` uses it as is only under the
    /// pessimistic missing policy, where every unrated item gets a group
    /// score; otherwise it keeps just the items the members' peers rated
    /// and some member can score.
    pub fn unrated_by_all(&self, group: &[UserId]) -> Vec<ItemId> {
        let mut rated = vec![false; self.n_items as usize];
        for &u in group {
            for &i in self.items_of(u) {
                rated[i.index()] = true;
            }
        }
        (0..self.n_items)
            .filter(|&raw| !rated[raw as usize])
            .map(ItemId::new)
            .collect()
    }

    /// Inserts a new rating fact, patching the CSR view, the CSC view,
    /// `user_means`, and `user_degrees` in place. Ids beyond the current
    /// dimensions grow the id spaces (like
    /// [`reserve_ids`](RatingMatrixBuilder::reserve_ids) would have).
    ///
    /// The patched matrix is **bitwise identical** to one rebuilt from
    /// scratch over the final relation: entries land at their sorted
    /// positions in both views, and the user's mean is recomputed by
    /// re-summing their score slice left-to-right — the exact summation
    /// order of [`build`](RatingMatrixBuilder::build).
    ///
    /// # Errors
    /// Returns [`FairrecError::DuplicateRating`] when `(user, item)` is
    /// already rated (use [`update_rating`](Self::update_rating) to change
    /// an existing score), and [`FairrecError::InvalidParameter`] for id
    /// `u32::MAX` (the id spaces are sized `id + 1`, so the sentinel
    /// maximum cannot be stored without overflow). The matrix is
    /// untouched on error.
    pub fn insert_rating(&mut self, user: UserId, item: ItemId, rating: Rating) -> Result<()> {
        // Guard before any mutation: `raw() + 1` sizing would wrap.
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
        if self.has_rated(user, item) {
            return Err(FairrecError::DuplicateRating { user, item });
        }
        self.grow_users(user);
        self.grow_items(item);
        let score = rating.value();

        let (lo, hi) = self.user_range(user);
        let pos = lo + self.user_items[lo..hi].partition_point(|&j| j < item);
        self.user_items.insert(pos, item);
        self.user_scores.insert(pos, score);
        for offset in &mut self.user_offsets[user.index() + 1..] {
            *offset += 1;
        }

        let (lo, hi) = self.item_range(item);
        let pos = lo + self.item_users[lo..hi].partition_point(|&v| v < user);
        self.item_users.insert(pos, user);
        self.item_scores.insert(pos, score);
        for offset in &mut self.item_offsets[item.index() + 1..] {
            *offset += 1;
        }

        self.user_degrees[user.index()] += 1;
        self.refresh_user_mean(user);
        Ok(())
    }

    /// Replaces the score of an existing rating in both views and
    /// refreshes the user's cached mean. Returns the previous score.
    ///
    /// # Errors
    /// Returns [`FairrecError::MissingRating`] when `(user, item)` holds
    /// no rating; use [`insert_rating`](Self::insert_rating) for new
    /// facts. The matrix is untouched on error.
    pub fn update_rating(&mut self, user: UserId, item: ItemId, rating: Rating) -> Result<f64> {
        let (pos, ipos) = self.locate(user, item)?;
        let previous = self.user_scores[pos];
        self.user_scores[pos] = rating.value();
        self.item_scores[ipos] = rating.value();
        self.refresh_user_mean(user);
        Ok(previous)
    }

    /// Deletes an existing rating from both views, decrementing the
    /// user's degree and refreshing their cached mean (back to the `NaN`
    /// rating-less slot when this was their last rating). The id spaces
    /// never shrink — entities keep existing, exactly as with
    /// [`reserve_ids`](RatingMatrixBuilder::reserve_ids). Returns the
    /// removed score.
    ///
    /// # Errors
    /// Returns [`FairrecError::MissingRating`] when `(user, item)` holds
    /// no rating. The matrix is untouched on error.
    pub fn remove_rating(&mut self, user: UserId, item: ItemId) -> Result<f64> {
        let (pos, ipos) = self.locate(user, item)?;
        let previous = self.user_scores[pos];
        self.user_items.remove(pos);
        self.user_scores.remove(pos);
        for offset in &mut self.user_offsets[user.index() + 1..] {
            *offset -= 1;
        }
        self.item_users.remove(ipos);
        self.item_scores.remove(ipos);
        for offset in &mut self.item_offsets[item.index() + 1..] {
            *offset -= 1;
        }
        self.user_degrees[user.index()] -= 1;
        self.refresh_user_mean(user);
        Ok(previous)
    }

    /// Positions of an existing rating in the CSR and CSC storage.
    fn locate(&self, user: UserId, item: ItemId) -> Result<(usize, usize)> {
        let (lo, hi) = self.user_range(user);
        let slot = self.user_items[lo..hi]
            .binary_search(&item)
            .map_err(|_| FairrecError::MissingRating { user, item })?;
        let (ilo, ihi) = self.item_range(item);
        let islot = self.item_users[ilo..ihi]
            .binary_search(&user)
            .expect("views agree on stored pairs");
        Ok((lo + slot, ilo + islot))
    }

    /// Recomputes `µ_user` from the (already patched) score slice, in the
    /// same left-to-right order as a from-scratch build.
    fn refresh_user_mean(&mut self, user: UserId) {
        let (lo, hi) = self.user_range(user);
        self.user_means[user.index()] = if hi > lo {
            self.user_scores[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        } else {
            f64::NAN
        };
    }

    /// Extends the user id space to at least `n_users` (empty rows).
    ///
    /// The shard layer drives this when a remap admits newly grown
    /// global ids into a shard: the compacted local matrix must add a
    /// dense row per admitted user before any of their ratings arrive.
    /// A no-op when the space is already that large; never shrinks.
    pub fn grow_user_space(&mut self, n_users: u32) {
        if n_users > self.n_users {
            self.grow_users(UserId::new(n_users - 1));
        }
    }

    /// Bytes held by the user-axis metadata arrays (CSR offsets, cached
    /// means, degrees) — the allocations that scale with the *id space*
    /// rather than with the stored ratings. The shard-memory bench
    /// ratio compares this figure per shard against the monolithic
    /// matrix.
    pub fn user_axis_bytes(&self) -> usize {
        self.user_offsets.len() * std::mem::size_of::<u32>()
            + self.user_means.len() * std::mem::size_of::<f64>()
            + self.user_degrees.len() * std::mem::size_of::<u32>()
    }

    /// Extends the user id space to cover `user` (empty rows).
    fn grow_users(&mut self, user: UserId) {
        if user.raw() < self.n_users {
            return;
        }
        let n = user.raw() + 1;
        let nnz = *self.user_offsets.last().expect("offsets are non-empty");
        self.user_offsets.resize(n as usize + 1, nnz);
        self.user_means.resize(n as usize, f64::NAN);
        self.user_degrees.resize(n as usize, 0);
        self.n_users = n;
    }

    /// Extends the item id space to cover `item` (empty columns).
    fn grow_items(&mut self, item: ItemId) {
        if item.raw() < self.n_items {
            return;
        }
        let n = item.raw() + 1;
        let nnz = *self.item_offsets.last().expect("offsets are non-empty");
        self.item_offsets.resize(n as usize + 1, nnz);
        self.n_items = n;
    }

    /// Re-materialises the triple relation, sorted `(user, item)`.
    pub fn to_triples(&self) -> Vec<RatingTriple> {
        let mut out = Vec::with_capacity(self.num_ratings());
        for u in self.user_ids() {
            for (item, score) in self.ratings_of(u) {
                out.push(RatingTriple {
                    user: u,
                    item,
                    rating: Rating::saturating(score),
                });
            }
        }
        out
    }

    /// Summary statistics for dataset reporting.
    pub fn stats(&self) -> MatrixStats {
        let nnz = self.num_ratings();
        let users_with = self.user_degrees.iter().filter(|&&d| d > 0).count();
        let items_with = (0..self.n_items as usize)
            .filter(|&i| self.item_offsets[i + 1] > self.item_offsets[i])
            .count();
        let cells = self.n_users as f64 * self.n_items as f64;
        let density = if cells > 0.0 { nnz as f64 / cells } else { 0.0 };
        let mean_rating = if nnz > 0 {
            self.user_scores.iter().sum::<f64>() / nnz as f64
        } else {
            0.0
        };
        MatrixStats {
            num_users: self.n_users,
            num_items: self.n_items,
            num_ratings: nnz,
            users_with_ratings: users_with,
            items_with_ratings: items_with,
            density,
            mean_rating,
        }
    }

    #[inline]
    fn user_range(&self, u: UserId) -> (usize, usize) {
        if u.raw() >= self.n_users {
            return (0, 0);
        }
        (
            self.user_offsets[u.index()] as usize,
            self.user_offsets[u.index() + 1] as usize,
        )
    }

    #[inline]
    fn item_range(&self, i: ItemId) -> (usize, usize) {
        if i.raw() >= self.n_items {
            return (0, 0);
        }
        (
            self.item_offsets[i.index()] as usize,
            self.item_offsets[i.index() + 1] as usize,
        )
    }
}

/// Iterator produced by [`RatingMatrix::co_ratings`].
#[derive(Debug, Clone)]
pub struct CoRatings<'a> {
    left_items: &'a [ItemId],
    left_scores: &'a [f64],
    right_items: &'a [ItemId],
    right_scores: &'a [f64],
}

impl Iterator for CoRatings<'_> {
    type Item = (ItemId, f64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (&li, &ri) = (self.left_items.first()?, self.right_items.first()?);
            match li.cmp(&ri) {
                std::cmp::Ordering::Less => {
                    self.left_items = &self.left_items[1..];
                    self.left_scores = &self.left_scores[1..];
                }
                std::cmp::Ordering::Greater => {
                    self.right_items = &self.right_items[1..];
                    self.right_scores = &self.right_scores[1..];
                }
                std::cmp::Ordering::Equal => {
                    let out = (li, self.left_scores[0], self.right_scores[0]);
                    self.left_items = &self.left_items[1..];
                    self.left_scores = &self.left_scores[1..];
                    self.right_items = &self.right_items[1..];
                    self.right_scores = &self.right_scores[1..];
                    return Some(out);
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left_items.len().min(self.right_items.len())))
    }
}

/// Summary statistics of a [`RatingMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Size of the user id space.
    pub num_users: u32,
    /// Size of the item id space.
    pub num_items: u32,
    /// Number of stored ratings.
    pub num_ratings: usize,
    /// Users with at least one rating.
    pub users_with_ratings: usize,
    /// Items with at least one rating.
    pub items_with_ratings: usize,
    /// `num_ratings / (num_users * num_items)`.
    pub density: f64,
    /// Global mean rating.
    pub mean_rating: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> Rating {
        Rating::new(v).unwrap()
    }

    fn small() -> RatingMatrix {
        // u0: i0=5, i2=3 ; u1: i0=4 ; u2: (none) ; item space padded to 4.
        let mut b = RatingMatrixBuilder::new().reserve_ids(3, 4);
        b.add(UserId::new(0), ItemId::new(0), r(5.0));
        b.add(UserId::new(0), ItemId::new(2), r(3.0));
        b.add(UserId::new(1), ItemId::new(0), r(4.0));
        b.build().unwrap()
    }

    #[test]
    fn dimensions_respect_reserved_ids() {
        let m = small();
        assert_eq!(m.num_users(), 3);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.num_ratings(), 3);
    }

    #[test]
    fn user_major_view_is_sorted() {
        let m = small();
        assert_eq!(
            m.items_of(UserId::new(0)),
            &[ItemId::new(0), ItemId::new(2)]
        );
        assert_eq!(m.scores_of(UserId::new(0)), &[5.0, 3.0]);
        assert_eq!(m.items_of(UserId::new(2)), &[] as &[ItemId]);
    }

    #[test]
    fn item_major_view_is_sorted() {
        let m = small();
        assert_eq!(
            m.users_of(ItemId::new(0)),
            &[UserId::new(0), UserId::new(1)]
        );
        let raters: Vec<_> = m.raters_of(ItemId::new(0)).collect();
        assert_eq!(raters, vec![(UserId::new(0), 5.0), (UserId::new(1), 4.0)]);
        assert!(m.users_of(ItemId::new(3)).is_empty());
    }

    #[test]
    fn point_lookup_and_degree() {
        let m = small();
        assert_eq!(m.rating(UserId::new(0), ItemId::new(2)), Some(3.0));
        assert_eq!(m.rating(UserId::new(1), ItemId::new(2)), None);
        assert!(m.has_rated(UserId::new(1), ItemId::new(0)));
        assert_eq!(m.degree_of(UserId::new(0)), 2);
        assert_eq!(m.degree_of(UserId::new(2)), 0);
    }

    #[test]
    fn out_of_range_ids_behave_as_empty() {
        let m = small();
        assert!(m.items_of(UserId::new(99)).is_empty());
        assert!(m.users_of(ItemId::new(99)).is_empty());
        assert_eq!(m.rating(UserId::new(99), ItemId::new(0)), None);
        assert_eq!(m.user_mean(UserId::new(99)), None);
    }

    #[test]
    fn user_means_match_hand_computation() {
        let m = small();
        assert_eq!(m.user_mean(UserId::new(0)), Some(4.0));
        assert_eq!(m.user_mean(UserId::new(1)), Some(4.0));
        assert_eq!(m.user_mean(UserId::new(2)), None);
    }

    #[test]
    fn precomputed_means_and_degrees_are_exposed() {
        let m = small();
        assert_eq!(m.user_degrees(), &[2, 1, 0]);
        let means = m.user_means();
        assert_eq!(means.len(), 3);
        assert_eq!(means[0], 4.0);
        assert_eq!(means[1], 4.0);
        assert!(means[2].is_nan(), "rating-less user holds a NaN slot");
        assert_eq!(m.rater_scores_of(ItemId::new(0)), &[5.0, 4.0]);
        assert!(m.rater_scores_of(ItemId::new(99)).is_empty());
    }

    #[test]
    fn co_ratings_is_the_sorted_intersection() {
        let m = small();
        let co: Vec<_> = m.co_ratings(UserId::new(0), UserId::new(1)).collect();
        assert_eq!(co, vec![(ItemId::new(0), 5.0, 4.0)]);
        let none: Vec<_> = m.co_ratings(UserId::new(1), UserId::new(2)).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn unrated_by_all_excludes_any_member_rating() {
        let m = small();
        let group = [UserId::new(0), UserId::new(1)];
        assert_eq!(
            m.unrated_by_all(&group),
            vec![ItemId::new(1), ItemId::new(3)]
        );
        // A rating-less member changes nothing.
        let group = [UserId::new(2)];
        assert_eq!(m.unrated_by_all(&group).len(), 4);
    }

    #[test]
    fn duplicate_pairs_are_rejected() {
        let mut b = RatingMatrixBuilder::new();
        b.add(UserId::new(0), ItemId::new(0), r(5.0));
        b.add(UserId::new(0), ItemId::new(0), r(1.0));
        match b.build() {
            Err(FairrecError::DuplicateRating { user, item }) => {
                assert_eq!(user, UserId::new(0));
                assert_eq!(item, ItemId::new(0));
            }
            other => panic!("expected DuplicateRating, got {other:?}"),
        }
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = RatingMatrixBuilder::new().build().unwrap();
        assert_eq!(m.num_users(), 0);
        assert_eq!(m.num_items(), 0);
        assert_eq!(m.num_ratings(), 0);
        assert!(m.unrated_by_all(&[]).is_empty());
        let s = m.stats();
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn add_raw_validates() {
        let mut b = RatingMatrixBuilder::new();
        assert!(b.add_raw(UserId::new(0), ItemId::new(0), 6.0).is_err());
        assert!(b.add_raw(UserId::new(0), ItemId::new(0), 4.0).is_ok());
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn stats_report_coverage_and_density() {
        let m = small();
        let s = m.stats();
        assert_eq!(s.users_with_ratings, 2);
        assert_eq!(s.items_with_ratings, 2);
        assert!((s.density - 3.0 / 12.0).abs() < 1e-12);
        assert!((s.mean_rating - 4.0).abs() < 1e-12);
    }

    /// Both views, the means, and the degrees of `a` and `b` hold the
    /// same bits (derived `PartialEq` cannot be used: rating-less users
    /// carry `NaN` mean slots).
    pub(super) fn assert_bitwise_equal(a: &RatingMatrix, b: &RatingMatrix) {
        assert_eq!(a.num_users(), b.num_users());
        assert_eq!(a.num_items(), b.num_items());
        assert_eq!(a.num_ratings(), b.num_ratings());
        for u in a.user_ids() {
            assert_eq!(a.items_of(u), b.items_of(u), "items of {u}");
            assert_eq!(
                a.scores_of(u)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                b.scores_of(u)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "scores of {u}"
            );
            assert_eq!(a.degree_of(u), b.degree_of(u), "degree of {u}");
            assert_eq!(
                a.user_means()[u.index()].to_bits(),
                b.user_means()[u.index()].to_bits(),
                "mean of {u}"
            );
        }
        for i in a.item_ids() {
            assert_eq!(a.users_of(i), b.users_of(i), "users of {i}");
            assert_eq!(
                a.rater_scores_of(i)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                b.rater_scores_of(i)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "rater scores of {i}"
            );
        }
    }

    #[test]
    fn insert_patches_both_views_and_mean() {
        let mut m = small();
        // Insert into the middle of u0's row and i0's column.
        m.insert_rating(UserId::new(2), ItemId::new(0), r(2.0))
            .unwrap();
        m.insert_rating(UserId::new(0), ItemId::new(1), r(4.0))
            .unwrap();
        assert_eq!(m.num_ratings(), 5);
        assert_eq!(
            m.items_of(UserId::new(0)),
            &[ItemId::new(0), ItemId::new(1), ItemId::new(2)]
        );
        assert_eq!(m.scores_of(UserId::new(0)), &[5.0, 4.0, 3.0]);
        assert_eq!(
            m.users_of(ItemId::new(0)),
            &[UserId::new(0), UserId::new(1), UserId::new(2)]
        );
        assert_eq!(m.rater_scores_of(ItemId::new(0)), &[5.0, 4.0, 2.0]);
        assert_eq!(m.user_mean(UserId::new(0)), Some(4.0));
        assert_eq!(m.user_mean(UserId::new(2)), Some(2.0));
        assert_eq!(m.degree_of(UserId::new(0)), 3);

        // The patched matrix is bitwise the rebuilt one.
        let rebuilt = {
            let mut b = RatingMatrixBuilder::new().reserve_ids(3, 4);
            for t in m.to_triples() {
                b.add(t.user, t.item, t.rating);
            }
            b.build().unwrap()
        };
        assert_bitwise_equal(&m, &rebuilt);
    }

    #[test]
    fn insert_grows_the_id_spaces() {
        let mut m = small();
        m.insert_rating(UserId::new(5), ItemId::new(7), r(1.0))
            .unwrap();
        assert_eq!(m.num_users(), 6);
        assert_eq!(m.num_items(), 8);
        assert_eq!(m.rating(UserId::new(5), ItemId::new(7)), Some(1.0));
        assert_eq!(m.degree_of(UserId::new(4)), 0);
        assert_eq!(m.user_mean(UserId::new(4)), None);
        assert!(m.users_of(ItemId::new(6)).is_empty());
    }

    #[test]
    fn insert_rejects_duplicates_without_touching_state() {
        let mut m = small();
        let before = m.clone();
        match m.insert_rating(UserId::new(0), ItemId::new(0), r(1.0)) {
            Err(FairrecError::DuplicateRating { user, item }) => {
                assert_eq!(user, UserId::new(0));
                assert_eq!(item, ItemId::new(0));
            }
            other => panic!("expected DuplicateRating, got {other:?}"),
        }
        assert_bitwise_equal(&m, &before);
    }

    #[test]
    fn sentinel_max_ids_are_rejected_without_touching_state() {
        let mut m = small();
        let before = m.clone();
        for (u, i) in [(u32::MAX, 0u32), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            assert!(m
                .insert_rating(UserId::new(u), ItemId::new(i), r(3.0))
                .is_err_and(|e| matches!(e, FairrecError::InvalidParameter { .. })));
        }
        assert_bitwise_equal(&m, &before);
        // The builder sizes its id spaces the same way and rejects the
        // sentinel with the same typed error instead of overflowing.
        for (u, i) in [(u32::MAX, 0u32), (0, u32::MAX)] {
            let mut b = RatingMatrixBuilder::new();
            b.add(UserId::new(0), ItemId::new(0), r(4.0));
            b.add(UserId::new(u), ItemId::new(i), r(3.0));
            assert!(b
                .build()
                .is_err_and(|e| matches!(e, FairrecError::InvalidParameter { .. })));
        }
    }

    #[test]
    fn update_replaces_score_in_both_views() {
        let mut m = small();
        let old = m
            .update_rating(UserId::new(0), ItemId::new(2), r(1.0))
            .unwrap();
        assert_eq!(old, 3.0);
        assert_eq!(m.rating(UserId::new(0), ItemId::new(2)), Some(1.0));
        assert_eq!(m.rater_scores_of(ItemId::new(2)), &[1.0]);
        assert_eq!(m.user_mean(UserId::new(0)), Some(3.0));
        // Missing pairs error and leave the matrix alone.
        match m.update_rating(UserId::new(1), ItemId::new(2), r(2.0)) {
            Err(FairrecError::MissingRating { user, item }) => {
                assert_eq!(user, UserId::new(1));
                assert_eq!(item, ItemId::new(2));
            }
            other => panic!("expected MissingRating, got {other:?}"),
        }
    }

    #[test]
    fn remove_deletes_from_both_views() {
        let mut m = small();
        assert_eq!(
            m.remove_rating(UserId::new(1), ItemId::new(0)).unwrap(),
            4.0
        );
        assert_eq!(m.num_ratings(), 2);
        assert!(m.items_of(UserId::new(1)).is_empty());
        assert_eq!(m.users_of(ItemId::new(0)), &[UserId::new(0)]);
        // The last rating of a user restores the rating-less NaN slot.
        assert_eq!(m.user_mean(UserId::new(1)), None);
        assert_eq!(m.degree_of(UserId::new(1)), 0);
        // Id spaces never shrink.
        assert_eq!(m.num_users(), 3);
        assert!(m
            .remove_rating(UserId::new(1), ItemId::new(0))
            .is_err_and(|e| matches!(e, FairrecError::MissingRating { .. })));
    }

    #[test]
    fn triples_round_trip() {
        let m = small();
        let again = RatingMatrix::from_triples(m.to_triples()).unwrap();
        // Dimensions shrink to the occupied prefix, so compare the relation.
        assert_eq!(m.to_triples(), again.to_triples());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::btree_map;
    use proptest::prelude::*;

    fn arb_relation() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
        // A map keyed by (u, i) guarantees uniqueness of pairs.
        btree_map((0u32..40, 0u32..60), 1.0f64..=5.0, 0..200).prop_map(|m| {
            m.into_iter()
                .map(|((u, i), s)| (u, i, (s * 2.0).round() / 2.0))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn round_trips_through_triples(rel in arb_relation()) {
            let mut b = RatingMatrixBuilder::new();
            for &(u, i, s) in &rel {
                b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
            }
            let m = b.build().unwrap();
            prop_assert_eq!(m.num_ratings(), rel.len());
            for &(u, i, s) in &rel {
                prop_assert_eq!(m.rating(UserId::new(u), ItemId::new(i)), Some(s));
            }
            let back: Vec<(u32, u32, f64)> = m
                .to_triples()
                .into_iter()
                .map(|t| (t.user.raw(), t.item.raw(), t.rating.value()))
                .collect();
            prop_assert_eq!(back, rel);
        }

        #[test]
        fn co_ratings_matches_naive_intersection(
            rel in arb_relation(), a in 0u32..40, b in 0u32..40
        ) {
            let mut bld = RatingMatrixBuilder::new();
            for &(u, i, s) in &rel {
                bld.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
            }
            let m = bld.build().unwrap();
            let (ua, ub) = (UserId::new(a), UserId::new(b));
            let fast: Vec<_> = m.co_ratings(ua, ub).collect();
            let naive: Vec<_> = m
                .ratings_of(ua)
                .filter_map(|(i, sa)| m.rating(ub, i).map(|sb| (i, sa, sb)))
                .collect();
            prop_assert_eq!(fast, naive);
        }

        /// Any interleaving of inserts, updates, and removes leaves the
        /// matrix bitwise identical to one rebuilt from scratch over the
        /// final relation — the foundation of the incremental peer-index
        /// maintenance contract.
        #[test]
        fn mutations_match_rebuild_bitwise(
            rel in arb_relation(),
            ops in proptest::collection::vec(
                (0u32..48, 0u32..70, 1.0f64..=5.0, 0u8..3), 0..40
            )
        ) {
            let mut b = RatingMatrixBuilder::new();
            for &(u, i, s) in &rel {
                b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
            }
            let mut live = b.build().unwrap();
            let mut relation: std::collections::BTreeMap<(u32, u32), f64> =
                rel.iter().map(|&(u, i, s)| ((u, i), s)).collect();
            for (u, i, s, kind) in ops {
                let (user, item) = (UserId::new(u), ItemId::new(i));
                let s = (s * 2.0).round() / 2.0;
                let rating = Rating::new(s).unwrap();
                match (relation.contains_key(&(u, i)), kind) {
                    (false, _) => {
                        live.insert_rating(user, item, rating).unwrap();
                        relation.insert((u, i), s);
                    }
                    (true, 0) => {
                        prop_assert!(live.remove_rating(user, item).is_ok());
                        relation.remove(&(u, i));
                    }
                    (true, _) => {
                        prop_assert!(live.update_rating(user, item, rating).is_ok());
                        relation.insert((u, i), s);
                    }
                }
            }
            let mut fresh = RatingMatrixBuilder::new()
                .reserve_ids(live.num_users(), live.num_items());
            for (&(u, i), &s) in &relation {
                fresh.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
            }
            super::tests::assert_bitwise_equal(&live, &fresh.build().unwrap());
        }

        #[test]
        fn item_view_agrees_with_user_view(rel in arb_relation()) {
            let mut bld = RatingMatrixBuilder::new();
            for &(u, i, s) in &rel {
                bld.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
            }
            let m = bld.build().unwrap();
            let mut from_items: Vec<(u32, u32, f64)> = m
                .item_ids()
                .flat_map(|i| m.raters_of(i).map(move |(u, s)| (u.raw(), i.raw(), s)))
                .collect();
            from_items.sort_by(|x, y| (x.0, x.1).partial_cmp(&(y.0, y.1)).unwrap());
            let from_users: Vec<(u32, u32, f64)> = m
                .to_triples()
                .into_iter()
                .map(|t| (t.user.raw(), t.item.raw(), t.rating.value()))
                .collect();
            prop_assert_eq!(from_items, from_users);
        }
    }
}
