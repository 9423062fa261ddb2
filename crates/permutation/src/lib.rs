//! # `mla-permutation`
//!
//! Permutation substrate for the online learning Minimum Linear Arrangement
//! (MinLA) workspace — the data structures and counting primitives shared by
//! every other crate:
//!
//! * [`Node`] — dense node identifiers, distinct from positions;
//! * [`Arrangement`] — the backend-agnostic arrangement abstraction: the
//!   lookup, contiguity and merge vocabulary every online MinLA algorithm
//!   uses, priced in adjacent transpositions, with [`MergeOrder`] naming
//!   a merge update's rearranging part;
//! * [`Permutation`] — the **dense** backend and the reference: a linear
//!   arrangement with `O(1)` bidirectional lookups, block move / reverse
//!   / swap operations that return their exact cost in adjacent
//!   transpositions, and `O(n log n)` Kendall tau distance;
//! * [`SegmentArrangement`] — the **segment** backend: one segment per
//!   component in a flat order index (positions are Fenwick prefix
//!   sums), `O(log n)` lookups and whole-segment merges with closed-form
//!   costs — the large-`n` workhorse;
//! * inversion counting ([`count_inversions`], [`FenwickTree`]);
//! * pair-set utilities mirroring the paper's `L_π` notation
//!   ([`concordant_pairs`], [`internal_concordant_pairs`],
//!   [`pair_set_difference`]).
//!
//! The cost model is the one from the paper *Learning Minimum Linear
//! Arrangement of Cliques and Lines* (ICDCS 2024): updating a permutation
//! costs the number of adjacent transpositions, i.e. the Kendall tau distance
//! between the old and new arrangements.
//!
//! # Examples
//!
//! ```
//! use mla_permutation::{Node, Permutation};
//!
//! // Arrange 6 nodes, then bring the block {3, 4} next to the block {0, 1}.
//! let mut pi = Permutation::identity(6);
//! let block = pi.contiguous_range(&[Node::new(3), Node::new(4)]).unwrap();
//! let cost = pi.move_block(block, 2);
//! assert_eq!(cost, 2); // 2 nodes crossed 1 foreign node
//! assert_eq!(pi.to_index_vec(), vec![0, 1, 3, 4, 2, 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrangement;
pub mod codec;
mod error;
mod inversions;
mod node;
mod pairs;
mod perm;
mod segment;

pub use arrangement::{Arrangement, MergeOrder};
pub use error::PermutationError;

/// The maximum node count either arrangement backend can address.
///
/// Both backends store positions (and, for the segment backend, segment
/// ids and ranks with `u32::MAX` reserved as a marker) as `u32`, so
/// arrangements are limited to `u32::MAX` nodes. Constructors enforce the
/// bound up front — [`Permutation::try_identity`] /
/// [`SegmentArrangement::try_identity`] return
/// [`PermutationError::CapacityExceeded`], the infallible constructors
/// panic — instead of silently truncating positions past `n = 2³²`.
pub const MAX_NODES: usize = u32::MAX as usize;
pub use inversions::{
    count_inversions, count_inversions_naive, count_inversions_usize, cross_inversions_sorted,
    FenwickTree,
};
pub use node::{all_nodes, Node};
pub use pairs::{concordant_pairs, internal_concordant_pairs, left_pairs, pair_set_difference};
pub use perm::Permutation;
pub use segment::SegmentArrangement;
