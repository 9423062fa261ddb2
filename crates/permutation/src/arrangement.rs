//! The backend-agnostic [`Arrangement`] abstraction.
//!
//! Every online MinLA algorithm in this workspace manipulates a linear
//! arrangement through the same small vocabulary: position/node lookups,
//! the contiguity and path-order queries behind the feasibility
//! invariant, the paper's merge update as one [`Arrangement::merge_move`]
//! (slide one component flush against the other, then reverse or swap
//! the two blocks), and jumps to a target, each priced in **adjacent
//! transpositions**. This trait captures exactly that vocabulary so the
//! algorithms, the simulation engine and the experiments are generic over
//! the storage layout:
//!
//! * [`Permutation`] — the dense backend: `O(1)` lookups, `O(n)` block
//!   splices (a memmove plus a position refresh);
//! * [`SegmentArrangement`](crate::SegmentArrangement) — the segment
//!   backend: one segment per component in a flat order index, where
//!   positions are Fenwick prefix sums, `O(log n)` lookups, and merges of
//!   whole segments with costs computed in closed form.
//!
//! The trait is object-safe: adaptive adversaries receive the online
//! algorithm's arrangement as `&dyn Arrangement`.

use std::ops::Range;

use crate::node::Node;
use crate::perm::Permutation;

/// A mutable linear arrangement of the nodes `0..n`.
///
/// All mutating operations return their exact cost in adjacent
/// transpositions — the unit of cost in the online learning MinLA model —
/// and every implementation must be **observably identical** to the dense
/// [`Permutation`] reference: same layouts, same costs, same panics on
/// invalid ranges (see the backend-equivalence property tests). That
/// holds for the calls an algorithm run makes, which keep every
/// [`merge_move`](Arrangement::merge_move) on **whole components**: each
/// of its two blocks is either one node that no merge has touched, or
/// the whole block an earlier `merge_move` produced, and an
/// [`assign`](Arrangement::assign) makes the whole arrangement one
/// component. The dense reference merges any two disjoint blocks; the
/// segment backend stores each component as one segment and panics on a
/// block that is not one.
///
/// **Cost width.** Per-operation costs fit `u64` for every supported
/// node count: each is bounded by `C(n, 2) < 2⁶³` at the
/// [`MAX_NODES`](crate::MAX_NODES) capacity limit. *Totals* accumulated
/// over a run do not — a full clique workload's cost grows like `n³/6`
/// and exceeds `u64::MAX` near `n ≈ 4.7×10⁶` — so run-level accumulators
/// (`mla-sim`'s `RunOutcome`) are `u128`.
pub trait Arrangement {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Returns `true` for the empty arrangement.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    fn node_at(&self, position: usize) -> Node;

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this arrangement.
    fn position_of(&self, node: Node) -> usize;

    /// Returns `true` if `a` occupies a position strictly left of `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn is_left_of(&self, a: Node, b: Node) -> bool {
        self.position_of(a) < self.position_of(b)
    }

    /// If the given set of (distinct) nodes occupies contiguous positions,
    /// returns that position range; otherwise `None`. This is the
    /// *feasibility* primitive: an arrangement is a MinLA of a collection
    /// of cliques iff every clique's node set is contiguous.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>>;

    /// [`contiguous_range`](Arrangement::contiguous_range) plus the
    /// block's reading direction: the second component is `true` iff
    /// `nodes[0]` sits at the range's start (the block reads in snapshot
    /// order; singletons report `true`). This is the lines locate
    /// primitive: its callers trust the feasibility invariant and need
    /// only the orientation bit, which backends can answer without a
    /// second position lookup. [`path_range`](Arrangement::path_range)
    /// is the one that verifies the order.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    fn oriented_contiguous_range(&self, nodes: &[Node]) -> Option<(Range<usize>, bool)> {
        let range = self.contiguous_range(nodes)?;
        let forward = nodes.len() <= 1 || self.position_of(nodes[0]) == range.start;
        Some((range, forward))
    }

    /// If the nodes of `path` occupy contiguous positions **and** read in
    /// exactly the given order or exactly its reverse, returns that
    /// position range; otherwise `None`. This is the lines feasibility
    /// primitive: an arrangement is a MinLA of a collection of paths iff
    /// every path passes it. A repeated node never passes.
    ///
    /// The default costs one [`position_of`](Arrangement::position_of)
    /// per node; the segment backend answers a path that is exactly one
    /// segment from its node→offset map with a single prefix sum.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    fn path_range(&self, path: &[Node]) -> Option<Range<usize>> {
        monotone_path_range(path, |v| self.position_of(v))
    }

    /// Resolves a component's block from a single member in
    /// `O(log n)`, without walking the member list: given any `anchor`
    /// node of a component known to occupy one contiguous block of
    /// exactly `len` positions, returns the block's position range and
    /// the anchor's absolute position within it.
    ///
    /// This is the lazy-`MergeInfo` locate primitive. Backends that track
    /// component blocks structurally (the segment backend keeps every
    /// component as exactly one segment) override it; the
    /// default — and any backend that cannot certify the block from its
    /// own structure — returns `None`, and the caller falls back to the
    /// member-walking [`contiguous_range`](Arrangement::contiguous_range).
    ///
    /// A `Some((range, anchor_pos))` answer guarantees `range.len() == len`
    /// and `node_at(anchor_pos) == anchor` with `anchor_pos ∈ range`; it
    /// does **not** re-verify that the caller's component is really that
    /// block — the caller owns that invariant (debug builds cross-check
    /// it against the full walk).
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range.
    fn locate_component(&self, anchor: Node, len: usize) -> Option<(Range<usize>, usize)> {
        let _ = (anchor, len);
        None
    }

    /// Returns `true` if
    /// [`locate_component`](Arrangement::locate_component) can answer for
    /// components of this backend (so the lazy merge path is worth
    /// taking).
    fn supports_component_locate(&self) -> bool {
        false
    }

    /// Kendall's tau distance to a dense target: the minimum number of
    /// adjacent transpositions transforming this arrangement into
    /// `target`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    fn kendall_to(&self, target: &Permutation) -> u64;

    /// Replaces this arrangement with `target`, returning the Kendall tau
    /// cost of the jump (exactly [`kendall_to`](Arrangement::kendall_to)).
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    fn assign(&mut self, target: &Permutation) -> u64;

    /// Materializes the arrangement as a dense [`Permutation`].
    fn to_permutation(&self) -> Permutation;

    /// Completes one full merge update in a single operation — the hot
    /// path of every online algorithm:
    ///
    /// 1. **Moving part**: the `mover` block travels over the gap to sit
    ///    flush against `stayer` on its own side; the stayer does not
    ///    move.
    /// 2. **Rearranging part** (lines, the paper's Figure 2): the block
    ///    operations `order` selects — reverse the mover's block, reverse
    ///    the stayer's block, then swap the two adjacent blocks. The
    ///    caller prices this part in closed form (see the mechanics'
    ///    rearrange choices); [`MergeOrder::KEEP`] skips it.
    ///
    /// The merged block is one component from then on. Returns the
    /// moving part's cost, `mover.len() × gap`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap or are out of bounds. A backend that
    /// tracks components (the segment backend) also panics unless each
    /// block is exactly one whole component, as the trait documentation
    /// defines it.
    fn merge_move(&mut self, mover: Range<usize>, stayer: Range<usize>, order: MergeOrder) -> u64;
}

/// The rearranging part of a merge update as the paper's Figure 2 states
/// it: three block operations on the two blocks once they are adjacent,
/// applied in field order. Every choice keeps both blocks' nodes together
/// and each block in its own or its reversed reading order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOrder {
    /// Reverse the mover's block (cost `C(|mover|, 2)`).
    pub reverse_mover: bool,
    /// Reverse the stayer's block (cost `C(|stayer|, 2)`).
    pub reverse_stayer: bool,
    /// Swap the two adjacent blocks (cost `|mover|·|stayer|`).
    pub swap: bool,
}

impl MergeOrder {
    /// No rearranging part: both blocks keep their reading orders and
    /// sides (every clique merge).
    pub const KEEP: MergeOrder = MergeOrder {
        reverse_mover: false,
        reverse_stayer: false,
        swap: false,
    };
}

/// [`Arrangement::path_range`] from per-node positions, in one pass: the
/// positions must move strictly in one direction (so they are distinct),
/// and then they cover an interval iff its end points lie `len − 1` apart.
pub(crate) fn monotone_path_range(
    path: &[Node],
    position_of: impl Fn(Node) -> usize,
) -> Option<Range<usize>> {
    let Some((&first, rest)) = path.split_first() else {
        return Some(0..0);
    };
    let start = position_of(first);
    let mut last = start;
    let mut ascending = None;
    for &v in rest {
        let p = position_of(v);
        if p == last || *ascending.get_or_insert(p > last) != (p > last) {
            return None;
        }
        last = p;
    }
    let (lo, hi) = (start.min(last), start.max(last));
    (hi - lo + 1 == path.len()).then_some(lo..hi + 1)
}

/// The start position that lands `mover` flush against `stayer` on its
/// own side: the moving part of [`Arrangement::merge_move`].
///
/// # Panics
///
/// Panics if the ranges overlap.
#[must_use]
pub fn merge_move_dest(mover: &Range<usize>, stayer: &Range<usize>) -> usize {
    if mover.start < stayer.start {
        assert!(
            mover.end <= stayer.start,
            "blocks {mover:?} and {stayer:?} overlap"
        );
        stayer.start - mover.len()
    } else {
        assert!(
            stayer.end <= mover.start,
            "blocks {stayer:?} and {mover:?} overlap"
        );
        stayer.end
    }
}

impl Arrangement for Permutation {
    fn len(&self) -> usize {
        Permutation::len(self)
    }

    fn node_at(&self, position: usize) -> Node {
        Permutation::node_at(self, position)
    }

    fn position_of(&self, node: Node) -> usize {
        Permutation::position_of(self, node)
    }

    fn is_left_of(&self, a: Node, b: Node) -> bool {
        Permutation::is_left_of(self, a, b)
    }

    fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>> {
        Permutation::contiguous_range(self, nodes)
    }

    fn kendall_to(&self, target: &Permutation) -> u64 {
        self.kendall_distance(target)
    }

    fn assign(&mut self, target: &Permutation) -> u64 {
        let cost = self.kendall_distance(target);
        target.clone_into(self);
        cost
    }

    fn to_permutation(&self) -> Permutation {
        self.clone()
    }

    /// The merge as the paper states it, one block operation at a time:
    /// any two disjoint blocks merge, whole components or not.
    fn merge_move(&mut self, mover: Range<usize>, stayer: Range<usize>, order: MergeOrder) -> u64 {
        let dest = merge_move_dest(&mover, &stayer);
        let cost = self.move_block(mover.clone(), dest);
        let moved = dest..dest + mover.len();
        if order.reverse_mover {
            self.reverse_block(moved.clone());
        }
        if order.reverse_stayer {
            self.reverse_block(stayer.clone());
        }
        if order.swap {
            let (left, right) = if mover.start < stayer.start {
                (moved, stayer)
            } else {
                (stayer, moved)
            };
            self.swap_adjacent_blocks(left, right);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_dyn(arrangement: &dyn Arrangement) -> Vec<usize> {
        (0..arrangement.len())
            .map(|p| arrangement.node_at(p).index())
            .collect()
    }

    #[test]
    fn trait_is_object_safe_and_delegates() {
        let mut pi = Permutation::identity(4);
        let cost = Arrangement::merge_move(&mut pi, 0..1, 3..4, MergeOrder::KEEP);
        assert_eq!(cost, 2);
        assert_eq!(as_dyn(&pi), vec![1, 2, 0, 3]);
        assert!(Arrangement::is_left_of(&pi, Node::new(2), Node::new(0)));
        assert!(!Arrangement::is_empty(&pi));
    }

    #[test]
    fn assign_costs_the_kendall_distance() {
        let mut pi = Permutation::identity(4);
        let target = Permutation::from_indices(&[3, 2, 1, 0]).unwrap();
        assert_eq!(Arrangement::kendall_to(&pi, &target), 6);
        assert_eq!(Arrangement::assign(&mut pi, &target), 6);
        assert_eq!(pi, target);
        assert_eq!(Arrangement::assign(&mut pi, &target), 0);
    }

    #[test]
    fn path_range_requires_path_order() {
        let pi = Permutation::from_indices(&[4, 2, 3, 0, 1]).unwrap();
        let path = |ids: &[usize]| ids.iter().map(|&i| Node::new(i)).collect::<Vec<_>>();
        assert_eq!(pi.path_range(&path(&[2, 3, 0])), Some(1..4));
        assert_eq!(pi.path_range(&path(&[0, 3, 2])), Some(1..4));
        assert_eq!(pi.path_range(&path(&[1])), Some(4..5));
        assert_eq!(pi.path_range(&[]), Some(0..0));
        // Contiguous but out of order, monotone but with a gap, repeated.
        assert_eq!(pi.path_range(&path(&[3, 2, 0])), None);
        assert_eq!(pi.path_range(&path(&[4, 3, 1])), None);
        assert_eq!(pi.path_range(&path(&[2, 2])), None);
    }

    #[test]
    fn to_permutation_round_trips() {
        let pi = Permutation::from_indices(&[2, 0, 1]).unwrap();
        assert_eq!(Arrangement::to_permutation(&pi), pi);
    }
}
