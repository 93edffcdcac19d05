//! Single-user recommendation (§III-A).
//!
//! *"After estimating the relevance scores of all unrated user items for a
//! user `u`, the items `A_u` with the top-k relevance scores can be
//! suggested to `u`."* This is the individual-patient path of the system,
//! and also how held-out evaluation (`fairrec-engine`) scores prediction
//! quality.

use crate::relevance::RelevancePredictor;
use fairrec_similarity::{BulkUserSimilarity, PeerIndex, PeerSelector};
use fairrec_types::{FairrecError, RatingMatrix, RatingsRead, Result, ScoredItem, UserId};

/// Recommends the top-k unrated items for a single user — the one-shot
/// monolithic form: Definition 1 from a transient [`PeerIndex`], then
/// [`single_user_top_k_from_peers`]. Serving loops hold a long-lived
/// index instead.
///
/// # Errors
/// [`FairrecError::UnknownUser`] when `user` lies outside the matrix's
/// user space.
pub fn single_user_top_k<S: BulkUserSimilarity + ?Sized>(
    matrix: &RatingMatrix,
    measure: &S,
    selector: &PeerSelector,
    user: UserId,
    k: usize,
) -> Result<Vec<ScoredItem>> {
    let index = PeerIndex::new(*selector, matrix.num_users());
    single_user_top_k_from_peers(matrix, &index.peers_of(measure, user), user, k)
}

/// Recommends the top-k unrated items for a single user over a
/// **pre-resolved** Definition-1 peer list — the shared tail of the
/// monolithic and sharded serving paths (the sharded index resolves the
/// list in `fairrec-similarity` and hands it in here). Generic over
/// [`RatingsRead`], so the sharded engine's owner-routed store serves it
/// directly.
///
/// # Errors
/// [`FairrecError::UnknownUser`] when `user` lies outside the matrix's
/// user space.
pub fn single_user_top_k_from_peers<R: RatingsRead + ?Sized>(
    matrix: &R,
    peers: &fairrec_similarity::Peers,
    user: UserId,
    k: usize,
) -> Result<Vec<ScoredItem>> {
    if user.raw() >= matrix.num_users() {
        return Err(FairrecError::UnknownUser { user });
    }
    let candidates = matrix.unrated_by_all(&[user]);
    Ok(RelevancePredictor::new(matrix).top_k(peers, &candidates, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrec_similarity::RatingsSimilarity;
    use fairrec_types::{ItemId, RatingMatrixBuilder};

    /// u0 is the query user; u1 agrees with u0, u2 disagrees.
    fn matrix() -> RatingMatrix {
        let rows = [
            // co-rated history establishing correlations
            (0u32, 0u32, 5.0),
            (0, 1, 1.0),
            (0, 2, 4.0),
            (1, 0, 5.0),
            (1, 1, 1.0),
            (1, 2, 5.0),
            (2, 0, 1.0),
            (2, 1, 5.0),
            (2, 2, 2.0),
            // unrated-by-u0 items, rated by the others
            (1, 3, 5.0),
            (2, 3, 1.0),
            (1, 4, 2.0),
            (2, 4, 5.0),
        ];
        let mut b = RatingMatrixBuilder::new();
        for (u, i, s) in rows {
            b.add_raw(UserId::new(u), ItemId::new(i), s).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn recommends_what_similar_users_liked() {
        let m = matrix();
        let sim = RatingsSimilarity::new(&m);
        let sel = PeerSelector::new(0.5).unwrap();
        let top = single_user_top_k(&m, &sim, &sel, UserId::new(0), 2).unwrap();
        // Only u1 passes δ = 0.5; u1 loves i3 (5.0) and dislikes i4 (2.0).
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].item, ItemId::new(3));
        assert!((top[0].score - 5.0).abs() < 1e-12);
        assert_eq!(top[1].item, ItemId::new(4));
    }

    #[test]
    fn k_truncates() {
        let m = matrix();
        let sim = RatingsSimilarity::new(&m);
        let sel = PeerSelector::new(0.5).unwrap();
        let top = single_user_top_k(&m, &sim, &sel, UserId::new(0), 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].item, ItemId::new(3));
    }

    #[test]
    fn no_peers_means_no_recommendations() {
        let m = matrix();
        let sim = RatingsSimilarity::new(&m);
        let sel = PeerSelector::new(0.999).unwrap();
        // u2's correlation with everyone is negative; with δ≈1 nobody
        // qualifies as a peer of u2.
        let top = single_user_top_k(&m, &sim, &sel, UserId::new(2), 3).unwrap();
        assert!(top.is_empty());
    }

    #[test]
    fn unknown_user_errors() {
        let m = matrix();
        let sim = RatingsSimilarity::new(&m);
        let sel = PeerSelector::new(0.0).unwrap();
        assert!(single_user_top_k(&m, &sim, &sel, UserId::new(42), 3).is_err());
    }
}
