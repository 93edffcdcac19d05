//! Shared error type.
//!
//! One flat error enum is enough for this system: errors are rare,
//! construction-time conditions (bad input data, malformed files,
//! ill-formed queries), not hot-path control flow. Recoverable "no value"
//! situations — a similarity that is undefined, a prediction with no
//! covering peers — are modelled as `Option` in the respective APIs, not
//! as errors.

use crate::ids::{ItemId, UserId};
use std::fmt;

/// Convenience alias used across all `fairrec` crates.
pub type Result<T, E = FairrecError> = std::result::Result<T, E>;

/// Error raised by `fairrec` operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FairrecError {
    /// A rating value outside `[1, 5]` or non-finite.
    InvalidRating {
        /// The offending value.
        value: f64,
    },
    /// The same `(user, item)` pair was rated twice.
    DuplicateRating {
        /// The rating user.
        user: UserId,
        /// The rated item.
        item: ItemId,
    },
    /// An update or removal referenced a `(user, item)` pair that holds
    /// no stored rating.
    MissingRating {
        /// The rating user.
        user: UserId,
        /// The rated item.
        item: ItemId,
    },
    /// A referenced user does not exist in the dataset.
    UnknownUser {
        /// The missing user.
        user: UserId,
    },
    /// A referenced item does not exist in the dataset.
    UnknownItem {
        /// The missing item.
        item: ItemId,
    },
    /// A group query with no members (Definition 2 requires `G ⊆ U`,
    /// `G ≠ ∅`).
    EmptyGroup,
    /// A structural parameter was invalid (e.g. `z = 0`, `δ ∉ [-1, 1]`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// A persistence-layer parse failure (TSV loaders, ontology codec).
    Parse {
        /// Line number (1-based) where the failure occurred, when known.
        line: Option<usize>,
        /// Description of the failure.
        message: String,
    },
    /// An I/O failure, carried as a string because `std::io::Error` is
    /// neither `Clone` nor `PartialEq`.
    Io {
        /// Description of the underlying I/O error.
        message: String,
    },
    /// The serving admission queue is at capacity; the request was
    /// rejected immediately instead of queuing unboundedly (backpressure).
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline lapsed before a result was produced — at
    /// admission, at dispatch, or while the caller was waiting.
    DeadlineExpired,
    /// The server is shutting down (or a computation was abandoned by a
    /// dying server) and no longer accepts work.
    ServerShutdown,
    /// An internal invariant was violated — e.g. a lock poisoned by a
    /// panic on another thread. Surfaced as a typed error so waiters
    /// degrade instead of amplifying the panic.
    Internal {
        /// Description of the violated invariant.
        message: String,
    },
}

impl FairrecError {
    /// Builds an [`FairrecError::InvalidParameter`].
    pub fn invalid_parameter(name: &'static str, message: impl Into<String>) -> Self {
        Self::InvalidParameter {
            name,
            message: message.into(),
        }
    }

    /// Builds a [`FairrecError::Internal`].
    pub fn internal(message: impl Into<String>) -> Self {
        Self::Internal {
            message: message.into(),
        }
    }

    /// Builds a [`FairrecError::Parse`] with a line number.
    pub fn parse_at(line: usize, message: impl Into<String>) -> Self {
        Self::Parse {
            line: Some(line),
            message: message.into(),
        }
    }
}

impl fmt::Display for FairrecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRating { value } => {
                write!(
                    f,
                    "invalid rating {value}: must be finite and within [1, 5]"
                )
            }
            Self::DuplicateRating { user, item } => {
                write!(f, "duplicate rating for ({user}, {item})")
            }
            Self::MissingRating { user, item } => {
                write!(f, "no stored rating for ({user}, {item})")
            }
            Self::UnknownUser { user } => write!(f, "unknown user {user}"),
            Self::UnknownItem { item } => write!(f, "unknown item {item}"),
            Self::EmptyGroup => write!(f, "group queries require at least one member"),
            Self::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Self::Parse {
                line: Some(l),
                message,
            } => write!(f, "parse error at line {l}: {message}"),
            Self::Parse {
                line: None,
                message,
            } => write!(f, "parse error: {message}"),
            Self::Io { message } => write!(f, "i/o error: {message}"),
            Self::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity}); retry later")
            }
            Self::DeadlineExpired => write!(f, "request deadline expired before completion"),
            Self::ServerShutdown => write!(f, "server is shut down and accepts no new requests"),
            Self::Internal { message } => write!(f, "internal invariant violated: {message}"),
        }
    }
}

impl std::error::Error for FairrecError {}

impl From<std::io::Error> for FairrecError {
    fn from(e: std::io::Error) -> Self {
        Self::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(FairrecError, &str)> = vec![
            (
                FairrecError::InvalidRating { value: 7.0 },
                "invalid rating 7",
            ),
            (
                FairrecError::DuplicateRating {
                    user: UserId::new(1),
                    item: ItemId::new(2),
                },
                "duplicate rating for (u1, i2)",
            ),
            (
                FairrecError::MissingRating {
                    user: UserId::new(3),
                    item: ItemId::new(4),
                },
                "no stored rating for (u3, i4)",
            ),
            (
                FairrecError::UnknownUser {
                    user: UserId::new(9),
                },
                "unknown user u9",
            ),
            (
                FairrecError::UnknownItem {
                    item: ItemId::new(9),
                },
                "unknown item i9",
            ),
            (FairrecError::EmptyGroup, "at least one member"),
            (
                FairrecError::invalid_parameter("z", "must be positive"),
                "invalid parameter `z`",
            ),
            (FairrecError::parse_at(12, "bad field"), "line 12"),
            (
                FairrecError::QueueFull { capacity: 64 },
                "queue full (capacity 64)",
            ),
            (FairrecError::DeadlineExpired, "deadline expired"),
            (FairrecError::ServerShutdown, "shut down"),
            (
                FairrecError::Internal {
                    message: "slot lock poisoned".into(),
                },
                "internal invariant violated: slot lock poisoned",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: FairrecError = io.into();
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&FairrecError::EmptyGroup);
    }
}
