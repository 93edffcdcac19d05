//! Group aggregation — Definition 2.
//!
//! *"We employ two different designs regarding the aggregation method,
//! each one carrying different semantics"*:
//!
//! * [`Aggregation::Min`] — *"strong user preferences act as a veto; the
//!   predicted relevance of an item for the group is equal to the minimum
//!   relevance of the item scores of the members"*,
//! * [`Aggregation::Average`] — *"we focus on satisfying the majority of
//!   the group members and return the average relevance"*.
//!
//! Per-member predictions can be undefined (Equation 1 has no covering
//! peers); Definition 2 is silent about this, so the policy is explicit:
//!
//! * [`MissingPolicy::Skip`] (default) — aggregate over the defined subset
//!   (undefined ⇒ no opinion). All-undefined ⇒ the group score is `None`.
//! * [`MissingPolicy::Pessimistic`] — treat a missing prediction as the
//!   minimum rating (1.0): "cannot show it is relevant for this member".
//!   Under `Min` this vetoes items invisible to any member.

use fairrec_types::{Relevance, RATING_MIN};

/// Definition 2 aggregation semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Veto semantics: group score = min over members.
    Min,
    /// Majority semantics: group score = mean over members.
    #[default]
    Average,
}

impl Aggregation {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Min => "min",
            Self::Average => "avg",
        }
    }
}

/// How undefined member predictions enter the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingPolicy {
    /// Aggregate over the members with defined predictions.
    #[default]
    Skip,
    /// Substitute the minimum rating (1.0) for missing predictions.
    Pessimistic,
}

impl MissingPolicy {
    /// What one member's score contributes to Definition 2: the score
    /// itself, [`RATING_MIN`] for a missing one under `Pessimistic`, and
    /// nothing for a missing one under `Skip`.
    #[inline]
    fn contribution(self, score: Option<Relevance>) -> Option<Relevance> {
        match (score, self) {
            (Some(s), _) => Some(s),
            (None, Self::Pessimistic) => Some(RATING_MIN),
            (None, Self::Skip) => None,
        }
    }
}

impl Aggregation {
    /// The accumulator before any member contributes.
    fn identity(self) -> f64 {
        match self {
            Self::Min => f64::INFINITY,
            Self::Average => 0.0,
        }
    }

    /// Folds one contributed value into the accumulator.
    #[inline]
    fn step(self, acc: f64, value: f64) -> f64 {
        match self {
            Self::Min => acc.min(value),
            Self::Average => acc + value,
        }
    }

    /// The group score from an accumulator over `count` contributions.
    fn finish(self, acc: f64, count: u32) -> Option<Relevance> {
        if count == 0 {
            return None;
        }
        Some(match self {
            Self::Min => acc,
            Self::Average => acc / f64::from(count),
        })
    }

    /// Aggregates per-member scores into `relevanceG(G, i)`.
    ///
    /// Returns `None` when, after applying `policy`, no member contributes
    /// a score (that is: all predictions missing under
    /// [`MissingPolicy::Skip`], or an empty member slice).
    pub fn aggregate(
        self,
        member_scores: &[Option<Relevance>],
        policy: MissingPolicy,
    ) -> Option<Relevance> {
        let (mut acc, mut count) = (self.identity(), 0);
        for &score in member_scores {
            if let Some(value) = policy.contribution(score) {
                acc = self.step(acc, value);
                count += 1;
            }
        }
        self.finish(acc, count)
    }
}

/// Definition 2 over many items at once, folded one member at a time:
/// one accumulator and one contribution count per item. Members added in
/// member order give each item exactly the additions (or `min`s) of
/// [`Aggregation::aggregate`] over that item's column, in the same
/// order, through the same identity, step and finish, so the bits are
/// the same.
#[derive(Debug)]
pub(crate) struct GroupFold {
    aggregation: Aggregation,
    policy: MissingPolicy,
    acc: Vec<f64>,
    count: Vec<u32>,
}

impl GroupFold {
    /// An empty fold over `len` items.
    pub(crate) fn new(aggregation: Aggregation, policy: MissingPolicy, len: usize) -> Self {
        Self {
            aggregation,
            policy,
            acc: vec![aggregation.identity(); len],
            count: vec![0; len],
        }
    }

    /// Adds the next member's score for item `j`.
    #[inline]
    pub(crate) fn add(&mut self, j: usize, score: Option<Relevance>) {
        if let Some(value) = self.policy.contribution(score) {
            self.acc[j] = self.aggregation.step(self.acc[j], value);
            self.count[j] += 1;
        }
    }

    /// `relevanceG(G, i)` per item.
    pub(crate) fn finish(self) -> Vec<Option<Relevance>> {
        let aggregation = self.aggregation;
        self.acc
            .into_iter()
            .zip(self.count)
            .map(|(acc, count)| aggregation.finish(acc, count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_takes_the_weakest_opinion() {
        let scores = [Some(4.0), Some(2.5), Some(5.0)];
        assert_eq!(
            Aggregation::Min.aggregate(&scores, MissingPolicy::Skip),
            Some(2.5)
        );
    }

    #[test]
    fn average_is_the_arithmetic_mean() {
        let scores = [Some(4.0), Some(2.0), Some(3.0)];
        assert_eq!(
            Aggregation::Average.aggregate(&scores, MissingPolicy::Skip),
            Some(3.0)
        );
    }

    #[test]
    fn skip_ignores_missing_members() {
        let scores = [Some(4.0), None, Some(2.0)];
        assert_eq!(
            Aggregation::Average.aggregate(&scores, MissingPolicy::Skip),
            Some(3.0)
        );
        assert_eq!(
            Aggregation::Min.aggregate(&scores, MissingPolicy::Skip),
            Some(2.0)
        );
    }

    #[test]
    fn pessimistic_substitutes_rating_min() {
        let scores = [Some(4.0), None];
        assert_eq!(
            Aggregation::Min.aggregate(&scores, MissingPolicy::Pessimistic),
            Some(RATING_MIN)
        );
        assert_eq!(
            Aggregation::Average.aggregate(&scores, MissingPolicy::Pessimistic),
            Some((4.0 + RATING_MIN) / 2.0)
        );
    }

    #[test]
    fn all_missing_under_skip_is_none() {
        let scores = [None, None];
        assert_eq!(
            Aggregation::Min.aggregate(&scores, MissingPolicy::Skip),
            None
        );
        assert_eq!(
            Aggregation::Average.aggregate(&scores, MissingPolicy::Skip),
            None
        );
        // Pessimistic still yields a (vetoed) score.
        assert_eq!(
            Aggregation::Min.aggregate(&scores, MissingPolicy::Pessimistic),
            Some(RATING_MIN)
        );
    }

    #[test]
    fn empty_member_slice_is_none() {
        assert_eq!(Aggregation::Min.aggregate(&[], MissingPolicy::Skip), None);
        assert_eq!(
            Aggregation::Average.aggregate(&[], MissingPolicy::Pessimistic),
            None
        );
    }

    #[test]
    fn singleton_group_returns_the_single_opinion() {
        for agg in [Aggregation::Min, Aggregation::Average] {
            assert_eq!(agg.aggregate(&[Some(3.3)], MissingPolicy::Skip), Some(3.3));
        }
    }

    #[test]
    fn names() {
        assert_eq!(Aggregation::Min.name(), "min");
        assert_eq!(Aggregation::Average.name(), "avg");
        assert_eq!(Aggregation::default(), Aggregation::Average);
        assert_eq!(MissingPolicy::default(), MissingPolicy::Skip);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_scores() -> impl Strategy<Value = Vec<Option<f64>>> {
        proptest::collection::vec(proptest::option::of(1.0f64..=5.0), 0..12)
    }

    proptest! {
        #[test]
        fn min_le_average_when_both_defined(scores in arb_scores()) {
            for policy in [MissingPolicy::Skip, MissingPolicy::Pessimistic] {
                let lo = Aggregation::Min.aggregate(&scores, policy);
                let avg = Aggregation::Average.aggregate(&scores, policy);
                match (lo, avg) {
                    (Some(l), Some(a)) => prop_assert!(l <= a + 1e-12),
                    (None, None) => {}
                    other => prop_assert!(false, "definedness must agree: {:?}", other),
                }
            }
        }

        #[test]
        fn aggregates_stay_in_rating_range(scores in arb_scores()) {
            for agg in [Aggregation::Min, Aggregation::Average] {
                for policy in [MissingPolicy::Skip, MissingPolicy::Pessimistic] {
                    if let Some(v) = agg.aggregate(&scores, policy) {
                        prop_assert!((1.0..=5.0).contains(&v), "{agg:?}/{policy:?} → {v}");
                    }
                }
            }
        }
    }
}
