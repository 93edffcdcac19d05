//! Owner-routed read access to a rating relation — the trait the
//! Equation-1 tail of the pipeline is generic over.
//!
//! The relevance predictor and the recommendation tails only need a few
//! questions answered: how big are the id spaces, which items a user
//! rated (the user's **row**, ascending by item id), who rated an item
//! (the item's **column**, ascending by global user id), and which items
//! a set of users has left unrated. [`RatingsRead`] captures exactly
//! that, so the same code serves the monolithic [`RatingMatrix`] and the
//! compacted [`ShardedRatingMatrix`] — the latter answering through
//! owner routing alone, with no monolithic shadow copy anywhere.
//!
//! Rows are the hot read: Equation 1 scatters each peer's row into
//! dense per-item accumulators. A sharded row is owner-local — the
//! owning shard holds the whole CSR row with global item ids — so it is
//! the same slice pair the monolithic matrix answers, with no merge and
//! no allocation.
//!
//! Columns are the single-item read. The sharded
//! [`for_each_rater`](RatingsRead::for_each_rater) is an S-way merge of
//! the per-shard columns. Each shard's column stores *local* ids, but
//! the monotone remap means the translated per-shard streams each
//! ascend by global id; merging by smallest head therefore replays the
//! exact visiting order of the monolithic column.

use crate::ids::{ItemId, UserId};
use crate::matrix::RatingMatrix;
use crate::shard::ShardedRatingMatrix;

/// Read access to a rating relation, sufficient for Equation 1 and
/// candidate enumeration. Rows must ascend by item id and columns by
/// global user id — float summation order is part of the output
/// contract.
pub trait RatingsRead: Sync {
    /// Size of the (global) user id space.
    fn num_users(&self) -> u32;

    /// Size of the (global) item id space.
    fn num_items(&self) -> u32;

    /// `user`'s row as parallel `(items, scores)` slices, ascending by
    /// item id; both empty for a user outside the id space. Slices
    /// rather than a visitor, so a caller scoring one item range can
    /// `partition_point` to where the range starts.
    fn ratings_row(&self, user: UserId) -> (&[ItemId], &[f64]);

    /// Visits every `(rater, score)` of `item`, ascending by global
    /// user id.
    fn for_each_rater(&self, item: ItemId, visit: &mut dyn FnMut(UserId, f64));

    /// Items none of `users` has rated, ascending by item id.
    fn unrated_by_all(&self, users: &[UserId]) -> Vec<ItemId>;
}

impl RatingsRead for RatingMatrix {
    fn num_users(&self) -> u32 {
        RatingMatrix::num_users(self)
    }

    fn num_items(&self) -> u32 {
        RatingMatrix::num_items(self)
    }

    fn ratings_row(&self, user: UserId) -> (&[ItemId], &[f64]) {
        (self.items_of(user), self.scores_of(user))
    }

    fn for_each_rater(&self, item: ItemId, visit: &mut dyn FnMut(UserId, f64)) {
        for (rater, score) in self.raters_of(item) {
            visit(rater, score);
        }
    }

    fn unrated_by_all(&self, users: &[UserId]) -> Vec<ItemId> {
        RatingMatrix::unrated_by_all(self, users)
    }
}

impl RatingsRead for ShardedRatingMatrix {
    fn num_users(&self) -> u32 {
        ShardedRatingMatrix::num_users(self)
    }

    fn num_items(&self) -> u32 {
        ShardedRatingMatrix::num_items(self)
    }

    fn ratings_row(&self, user: UserId) -> (&[ItemId], &[f64]) {
        // The owning shard holds the whole row under global item ids.
        self.owning_shard(user).ratings_row(user)
    }

    fn for_each_rater(&self, item: ItemId, visit: &mut dyn FnMut(UserId, f64)) {
        // S-way merge by global id: each shard's translated column
        // already ascends (monotone remap), so repeatedly taking the
        // smallest head replays the monolithic column order exactly.
        let mut streams: Vec<_> = self
            .shards()
            .iter()
            .map(|shard| shard.raters_of(item).peekable())
            .collect();
        loop {
            let mut best: Option<(usize, UserId)> = None;
            for (idx, stream) in streams.iter_mut().enumerate() {
                if let Some(&(u, _)) = stream.peek() {
                    if best.is_none_or(|(_, bu)| u < bu) {
                        best = Some((idx, u));
                    }
                }
            }
            let Some((idx, _)) = best else { break };
            let (u, score) = streams[idx].next().expect("peeked head exists");
            visit(u, score);
        }
    }

    fn unrated_by_all(&self, users: &[UserId]) -> Vec<ItemId> {
        let mut rated = vec![false; ShardedRatingMatrix::num_items(self) as usize];
        for &u in users {
            for &i in self.owning_shard(u).items_of(u) {
                rated[i.index()] = true;
            }
        }
        (0..ShardedRatingMatrix::num_items(self))
            .filter(|&raw| !rated[raw as usize])
            .map(ItemId::new)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RatingMatrixBuilder;
    use crate::rating::Rating;
    use crate::shard::ShardSpec;

    fn sample() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new().reserve_ids(12, 7);
        for (u, i, s) in [
            (0u32, 0u32, 5.0),
            (1, 0, 4.0),
            (2, 0, 1.5),
            (5, 0, 2.0),
            (9, 0, 3.5),
            (11, 0, 4.5),
            (0, 2, 3.0),
            (3, 2, 4.5),
            (7, 5, 1.0),
        ] {
            b.add(UserId::new(u), ItemId::new(i), Rating::new(s).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn sharded_reads_replay_the_monolithic_order() {
        let m = sample();
        for s in [1u32, 2, 3, 8] {
            let part = ShardedRatingMatrix::from_matrix(&m, ShardSpec::new(s).unwrap()).unwrap();
            for i in m.item_ids() {
                let mut mono = Vec::new();
                RatingsRead::for_each_rater(&m, i, &mut |u, r| mono.push((u, r.to_bits())));
                let mut merged = Vec::new();
                RatingsRead::for_each_rater(&part, i, &mut |u, r| merged.push((u, r.to_bits())));
                assert_eq!(merged, mono, "S={s}, column {i}");
            }
            // Rows come from the owning shard alone; unknown ids are empty.
            for u in (0..14).map(UserId::new) {
                assert_eq!(
                    RatingsRead::ratings_row(&part, u),
                    RatingsRead::ratings_row(&m, u),
                    "S={s}, row {u}"
                );
            }
            for group in [
                vec![],
                vec![UserId::new(0)],
                vec![UserId::new(0), UserId::new(3), UserId::new(7)],
                vec![UserId::new(42)],
            ] {
                assert_eq!(
                    RatingsRead::unrated_by_all(&part, &group),
                    RatingsRead::unrated_by_all(&m, &group),
                    "S={s}, group {group:?}"
                );
            }
        }
    }
}
