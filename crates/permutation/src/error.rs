//! Error types for permutation construction and manipulation.

use std::error::Error;
use std::fmt;

/// Error returned when constructing a [`Permutation`](crate::Permutation)
/// from invalid data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PermutationError {
    /// A node identifier appeared more than once.
    DuplicateNode {
        /// The offending node index.
        node: usize,
    },
    /// A node identifier was outside the dense range `0..n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes of the permutation.
        n: usize,
    },
    /// Two permutations of different sizes were combined.
    SizeMismatch {
        /// Size of the left-hand side.
        left: usize,
        /// Size of the right-hand side.
        right: usize,
    },
    /// The requested node count exceeds the addressable capacity of the
    /// arrangement backends ([`MAX_NODES`](crate::MAX_NODES)): positions
    /// and segment ids are stored as `u32`, so constructing a larger
    /// arrangement would silently truncate instead of corrupting state.
    CapacityExceeded {
        /// The requested node count.
        n: usize,
    },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermutationError::DuplicateNode { node } => {
                write!(f, "node v{node} appears more than once")
            }
            PermutationError::NodeOutOfRange { node, n } => {
                write!(f, "node v{node} is outside the dense range 0..{n}")
            }
            PermutationError::SizeMismatch { left, right } => {
                write!(f, "permutation sizes differ: {left} vs {right}")
            }
            PermutationError::CapacityExceeded { n } => {
                write!(
                    f,
                    "node count {n} exceeds the arrangement capacity of {} nodes",
                    crate::MAX_NODES
                )
            }
        }
    }
}

impl Error for PermutationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            PermutationError::DuplicateNode { node: 3 }.to_string(),
            "node v3 appears more than once"
        );
        assert_eq!(
            PermutationError::NodeOutOfRange { node: 9, n: 4 }.to_string(),
            "node v9 is outside the dense range 0..4"
        );
        assert_eq!(
            PermutationError::SizeMismatch { left: 2, right: 5 }.to_string(),
            "permutation sizes differ: 2 vs 5"
        );
    }

    #[test]
    fn implements_error_and_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<PermutationError>();
    }
}
