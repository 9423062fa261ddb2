//! The [`Permutation`] type: a linear arrangement of `n` nodes.
//!
//! A permutation is stored in both directions — position → node and
//! node → position — so that lookups in either direction are `O(1)` and all
//! block operations can maintain both views in one pass.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::PermutationError;
use crate::inversions::count_inversions;
use crate::node::Node;

/// A linear arrangement (permutation) of the nodes `0..n`.
///
/// Position `0` is the leftmost slot. The permutation maintains the
/// bidirectional mapping between nodes and positions, and exposes the block
/// operations used by the online MinLA algorithms (move a contiguous block,
/// reverse a block, swap adjacent blocks), each returning its exact cost in
/// **adjacent transpositions** — the unit of cost in the online learning
/// MinLA model.
///
/// # Examples
///
/// ```
/// use mla_permutation::{Node, Permutation};
///
/// let mut pi = Permutation::identity(4);
/// assert_eq!(pi.position_of(Node::new(2)), 2);
///
/// // Move the block occupying positions 0..2 so that it starts at position 2:
/// // [0 1 2 3] -> [2 3 0 1], crossing 2 foreign nodes with a block of 2.
/// let cost = pi.move_block(0..2, 2);
/// assert_eq!(cost, 4);
/// assert_eq!(pi.to_index_vec(), vec![2, 3, 0, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    pos_to_node: Vec<Node>,
    node_to_pos: Vec<u32>,
}

/// Returns [`PermutationError::CapacityExceeded`] for node counts beyond
/// [`MAX_NODES`](crate::MAX_NODES) — checked **before** any allocation so
/// an oversized request can never corrupt state.
pub(crate) fn check_capacity(n: usize) -> Result<(), PermutationError> {
    if n > crate::MAX_NODES {
        Err(PermutationError::CapacityExceeded { n })
    } else {
        Ok(())
    }
}

impl Permutation {
    /// The identity arrangement: node `i` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`](crate::MAX_NODES) (positions
    /// are stored as `u32`); use [`Permutation::try_identity`] for a
    /// non-panicking variant.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        // mla-lint: allow(panic-safety): documented panic; try_identity is the non-panicking variant
        Self::try_identity(n).expect("node count exceeds the dense backend's u32 capacity")
    }

    /// The identity arrangement, or
    /// [`PermutationError::CapacityExceeded`] if `n` exceeds
    /// [`MAX_NODES`](crate::MAX_NODES).
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::CapacityExceeded`] for `n >
    /// MAX_NODES`; the check runs before any allocation.
    pub fn try_identity(n: usize) -> Result<Self, PermutationError> {
        check_capacity(n)?;
        let pos_to_node = (0..n).map(Node::new).collect();
        let node_to_pos = (0..n).map(|p| p as u32).collect();
        Ok(Permutation {
            pos_to_node,
            node_to_pos,
        })
    }

    /// Builds a permutation from the node sequence in position order.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::NodeOutOfRange`] if a node is not in
    /// `0..n`, [`PermutationError::DuplicateNode`] if a node repeats, and
    /// [`PermutationError::CapacityExceeded`] if the sequence is longer
    /// than [`MAX_NODES`](crate::MAX_NODES).
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_permutation::{Node, Permutation};
    /// # fn main() -> Result<(), mla_permutation::PermutationError> {
    /// let pi = Permutation::from_nodes(vec![Node::new(2), Node::new(0), Node::new(1)])?;
    /// assert_eq!(pi.position_of(Node::new(2)), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, PermutationError> {
        let n = nodes.len();
        check_capacity(n)?;
        let mut node_to_pos = vec![u32::MAX; n];
        for (pos, &node) in nodes.iter().enumerate() {
            if node.index() >= n {
                return Err(PermutationError::NodeOutOfRange {
                    node: node.index(),
                    n,
                });
            }
            if node_to_pos[node.index()] != u32::MAX {
                return Err(PermutationError::DuplicateNode { node: node.index() });
            }
            node_to_pos[node.index()] = pos as u32;
        }
        Ok(Permutation {
            pos_to_node: nodes,
            node_to_pos,
        })
    }

    /// Builds a permutation from dense indices in position order.
    ///
    /// # Errors
    ///
    /// Same as [`Permutation::from_nodes`].
    pub fn from_indices(indices: &[usize]) -> Result<Self, PermutationError> {
        Self::from_nodes(indices.iter().map(|&i| Node::new(i)).collect())
    }

    /// Samples a uniformly random permutation of `n` nodes.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut nodes: Vec<Node> = (0..n).map(Node::new).collect();
        nodes.shuffle(rng);
        // mla-lint: allow(panic-safety): shuffling the identity permutes it; from_nodes cannot reject it
        Self::from_nodes(nodes).expect("shuffled identity is a valid permutation")
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pos_to_node.len()
    }

    /// Returns `true` for the empty arrangement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos_to_node.is_empty()
    }

    /// The node at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    #[inline]
    #[must_use]
    pub fn node_at(&self, position: usize) -> Node {
        self.pos_to_node[position]
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this permutation.
    #[inline]
    #[must_use]
    pub fn position_of(&self, node: Node) -> usize {
        self.node_to_pos[node.index()] as usize
    }

    /// Returns `true` if `a` occupies a position strictly left of `b`.
    ///
    /// This is the predicate behind the paper's pair set `L_π`: the set of
    /// ordered pairs `(a, b)` with `a` left of `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    #[must_use]
    pub fn is_left_of(&self, a: Node, b: Node) -> bool {
        self.position_of(a) < self.position_of(b)
    }

    /// View of the arrangement as a slice of nodes in position order.
    #[must_use]
    pub fn as_nodes(&self) -> &[Node] {
        &self.pos_to_node
    }

    /// The arrangement as a vector of dense indices in position order.
    #[must_use]
    pub fn to_index_vec(&self) -> Vec<usize> {
        self.pos_to_node.iter().map(|v| v.index()).collect()
    }

    /// Iterates over nodes in position order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.pos_to_node.iter()
    }

    /// Serializes the permutation (length, then node ids in position
    /// order) for the checkpoint stack.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        crate::codec::put_len(out, self.len());
        for v in &self.pos_to_node {
            // mla-lint: allow(cast-hygiene): node ids are bounded by MAX_NODES = u32::MAX
            crate::codec::put_u32(out, v.index() as u32);
        }
    }

    /// Decodes a permutation written by [`Permutation::encode_into`],
    /// re-validating the permutation property.
    ///
    /// # Errors
    ///
    /// [`CodecError`](crate::codec::CodecError) on truncated input or if
    /// the decoded node list is not a permutation of `0..n`.
    pub fn decode_from(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        // Each node is a 4-byte entry: bounding the count by the input
        // left makes a short body fail before the allocation.
        let n = r.count(crate::MAX_NODES.min(r.remaining() / 4), "permutation node")?;
        let mut indices = Vec::with_capacity(n);
        for _ in 0..n {
            indices.push(r.u32()? as usize);
        }
        Self::from_indices(&indices)
            .map_err(|e| crate::codec::CodecError::invalid(format!("permutation: {e}")))
    }

    /// The inverse permutation: maps position `p` to the node whose
    /// *position* is `p` in `self`… i.e. a permutation in which node `i`
    /// sits at the position that node at position `i` had. Mostly useful in
    /// tests and algebraic identities.
    #[must_use]
    pub fn inverse(&self) -> Permutation {
        let n = self.len();
        let mut nodes = vec![Node::new(0); n];
        for pos in 0..n {
            nodes[self.pos_to_node[pos].index()] = Node::new(pos);
        }
        // mla-lint: allow(panic-safety): the inverse of a valid permutation is a permutation
        Permutation::from_nodes(nodes).expect("inverse of a permutation is a permutation")
    }

    /// Returns `true` if node `i` sits at position `i` for every `i`.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.pos_to_node
            .iter()
            .enumerate()
            .all(|(pos, v)| v.index() == pos)
    }

    /// Functional composition: the arrangement obtained by relabeling
    /// `self`'s nodes through `other`, i.e. position `p` holds
    /// `other.node_at(self.node_at(p).index())`.
    ///
    /// With this convention `a.compose(&a.inverse())` is the identity, and
    /// composition is associative (see the group-law property tests).
    ///
    /// # Panics
    ///
    /// Panics if the permutations have different lengths.
    #[must_use]
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "compose: size mismatch");
        let nodes = self
            .pos_to_node
            .iter()
            .map(|&v| other.node_at(v.index()))
            .collect();
        // mla-lint: allow(panic-safety): composing two size-checked permutations yields a permutation
        Permutation::from_nodes(nodes).expect("composition of permutations is a permutation")
    }

    /// The given nodes sorted by their current position (left to right).
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn sort_by_position(&self, nodes: &[Node]) -> Vec<Node> {
        let mut sorted: Vec<Node> = nodes.to_vec();
        sorted.sort_by_key(|&v| self.position_of(v));
        sorted
    }

    /// If the given set of (distinct) nodes occupies contiguous positions,
    /// returns that position range; otherwise `None`.
    ///
    /// This is the *feasibility* primitive: a permutation is a MinLA of a
    /// collection of cliques iff every clique's node set is contiguous.
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_permutation::{Node, Permutation};
    /// let pi = Permutation::from_indices(&[3, 0, 1, 2]).unwrap();
    /// assert_eq!(pi.contiguous_range(&[Node::new(0), Node::new(1)]), Some(1..3));
    /// assert_eq!(pi.contiguous_range(&[Node::new(3), Node::new(0)]), Some(0..2));
    /// assert_eq!(pi.contiguous_range(&[Node::new(3), Node::new(1)]), None);
    /// ```
    #[must_use]
    pub fn contiguous_range(&self, nodes: &[Node]) -> Option<std::ops::Range<usize>> {
        if nodes.is_empty() {
            return Some(0..0);
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        for &v in nodes {
            let p = self.position_of(v);
            min = min.min(p);
            max = max.max(p);
        }
        if max - min + 1 == nodes.len() {
            Some(min..max + 1)
        } else {
            None
        }
    }

    /// Swaps the nodes at `position` and `position + 1`. Cost: one adjacent
    /// transposition.
    ///
    /// # Panics
    ///
    /// Panics if `position + 1 >= self.len()`.
    pub fn swap_adjacent(&mut self, position: usize) {
        assert!(
            position + 1 < self.len(),
            "adjacent swap at position {position} out of bounds for length {}",
            self.len()
        );
        let a = self.pos_to_node[position];
        let b = self.pos_to_node[position + 1];
        self.pos_to_node[position] = b;
        self.pos_to_node[position + 1] = a;
        self.node_to_pos[a.index()] = (position + 1) as u32;
        self.node_to_pos[b.index()] = position as u32;
    }

    /// Moves the contiguous block occupying `src` so that it starts at
    /// position `dest`, preserving its internal order, and shifting the
    /// crossed nodes the other way. Returns the cost in adjacent
    /// transpositions: `src.len() × |dest − src.start|`.
    ///
    /// `dest` is the final start position of the block, so it must satisfy
    /// `dest + src.len() <= self.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of bounds or `dest` would push the block past
    /// either end.
    pub fn move_block(&mut self, src: std::ops::Range<usize>, dest: usize) -> u64 {
        let n = self.len();
        assert!(src.end <= n, "block {src:?} out of bounds for length {n}");
        assert!(src.start <= src.end, "invalid block range {src:?}");
        let len = src.len();
        assert!(
            dest + len <= n,
            "destination {dest} pushes block of length {len} past length {n}"
        );
        if len == 0 || dest == src.start {
            return 0;
        }
        let shift = dest.abs_diff(src.start);
        let cost = (len as u64) * (shift as u64);
        // Rotate the affected region: moving right rotates left-wards within
        // [src.start, dest + len), moving left rotates within [dest, src.end).
        if dest > src.start {
            self.pos_to_node[src.start..dest + len].rotate_left(len);
            self.refresh_positions(src.start, dest + len);
        } else {
            self.pos_to_node[dest..src.end].rotate_right(len);
            self.refresh_positions(dest, src.end);
        }
        cost
    }

    /// Reverses the block occupying `range`. Returns the cost in adjacent
    /// transpositions: `C(len, 2) = len·(len−1)/2`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn reverse_block(&mut self, range: std::ops::Range<usize>) -> u64 {
        assert!(
            range.end <= self.len(),
            "block {range:?} out of bounds for length {}",
            self.len()
        );
        let len = range.len() as u64;
        self.pos_to_node[range.clone()].reverse();
        self.refresh_positions(range.start, range.end);
        len * len.saturating_sub(1) / 2
    }

    /// Swaps two adjacent blocks `left` and `right` (requires
    /// `left.end == right.start`), preserving internal orders. Returns the
    /// cost `left.len() × right.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks are not adjacent or out of bounds.
    pub fn swap_adjacent_blocks(
        &mut self,
        left: std::ops::Range<usize>,
        right: std::ops::Range<usize>,
    ) -> u64 {
        assert_eq!(
            left.end, right.start,
            "blocks {left:?} and {right:?} are not adjacent"
        );
        assert!(
            right.end <= self.len(),
            "block {right:?} out of bounds for length {}",
            self.len()
        );
        let cost = (left.len() as u64) * (right.len() as u64);
        self.pos_to_node[left.start..right.end].rotate_left(left.len());
        self.refresh_positions(left.start, right.end);
        cost
    }

    /// Kendall's tau distance to `other`: the number of node pairs ordered
    /// differently, which equals the minimum number of adjacent
    /// transpositions transforming one arrangement into the other.
    /// Computed in `O(n log n)`.
    ///
    /// # Panics
    ///
    /// Panics if the permutations have different lengths; see
    /// [`Permutation::try_kendall_distance`] for the fallible variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_permutation::Permutation;
    /// let a = Permutation::from_indices(&[0, 1, 2, 3]).unwrap();
    /// let b = Permutation::from_indices(&[3, 2, 1, 0]).unwrap();
    /// assert_eq!(a.kendall_distance(&b), 6);
    /// ```
    #[must_use]
    pub fn kendall_distance(&self, other: &Permutation) -> u64 {
        self.try_kendall_distance(other)
            // mla-lint: allow(panic-safety): documented panic; try_kendall_distance is the non-panicking variant
            .expect("kendall_distance: size mismatch")
    }

    /// Fallible Kendall's tau distance.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::SizeMismatch`] if lengths differ.
    pub fn try_kendall_distance(&self, other: &Permutation) -> Result<u64, PermutationError> {
        if self.len() != other.len() {
            return Err(PermutationError::SizeMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        // Express `other` in `self` coordinates and count inversions.
        let seq: Vec<u32> = other
            .pos_to_node
            .iter()
            .map(|&v| self.node_to_pos[v.index()])
            .collect();
        Ok(count_inversions(&seq))
    }

    /// Restores `node_to_pos` for the half-open position range `[from, to)`.
    fn refresh_positions(&mut self, from: usize, to: usize) {
        for pos in from..to {
            self.node_to_pos[self.pos_to_node[pos].index()] = pos as u32;
        }
    }

    /// Checks internal consistency of the two views. Used by tests and
    /// debug assertions.
    #[doc(hidden)]
    #[must_use]
    pub fn check_consistent(&self) -> bool {
        self.pos_to_node.len() == self.node_to_pos.len()
            && (0..self.len()).all(|p| self.node_to_pos[self.pos_to_node[p].index()] == p as u32)
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation[")?;
        for (i, v) in self.pos_to_node.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", v.raw())?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<'a> IntoIterator for &'a Permutation {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.pos_to_node.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn perm(indices: &[usize]) -> Permutation {
        Permutation::from_indices(indices).unwrap()
    }

    #[test]
    fn capacity_guard_rejects_oversized_requests() {
        let oversized = crate::MAX_NODES + 1;
        assert!(matches!(
            Permutation::try_identity(oversized),
            Err(PermutationError::CapacityExceeded { n }) if n == oversized
        ));
        assert_eq!(
            Permutation::try_identity(3).unwrap(),
            Permutation::identity(3)
        );
    }

    #[test]
    fn identity_round_trip() {
        let pi = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(pi.node_at(i), Node::new(i));
            assert_eq!(pi.position_of(Node::new(i)), i);
        }
        assert!(pi.check_consistent());
    }

    #[test]
    fn from_nodes_validation() {
        assert!(matches!(
            Permutation::from_indices(&[0, 0, 1]),
            Err(PermutationError::DuplicateNode { node: 0 })
        ));
        assert!(matches!(
            Permutation::from_indices(&[0, 3]),
            Err(PermutationError::NodeOutOfRange { node: 3, n: 2 })
        ));
        assert!(Permutation::from_indices(&[]).unwrap().is_empty());
    }

    #[test]
    fn is_left_of_matches_positions() {
        let pi = perm(&[2, 0, 1]);
        assert!(pi.is_left_of(Node::new(2), Node::new(0)));
        assert!(pi.is_left_of(Node::new(0), Node::new(1)));
        assert!(!pi.is_left_of(Node::new(1), Node::new(2)));
    }

    #[test]
    fn inverse_is_involutive() {
        let mut rng = SmallRng::seed_from_u64(7);
        let pi = Permutation::random(20, &mut rng);
        assert_eq!(pi.inverse().inverse(), pi);
    }

    #[test]
    fn swap_adjacent_updates_both_views() {
        let mut pi = perm(&[0, 1, 2]);
        pi.swap_adjacent(1);
        assert_eq!(pi.to_index_vec(), vec![0, 2, 1]);
        assert!(pi.check_consistent());
    }

    #[test]
    fn move_block_right_and_left() {
        let mut pi = perm(&[0, 1, 2, 3, 4]);
        // Move block [1, 2] (positions 1..3) to start at position 3.
        let cost = pi.move_block(1..3, 3);
        assert_eq!(cost, 4);
        assert_eq!(pi.to_index_vec(), vec![0, 3, 4, 1, 2]);
        assert!(pi.check_consistent());
        // Move it back.
        let cost_back = pi.move_block(3..5, 1);
        assert_eq!(cost_back, 4);
        assert_eq!(pi.to_index_vec(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn move_block_zero_cases() {
        let mut pi = perm(&[0, 1, 2]);
        assert_eq!(pi.move_block(1..1, 0), 0);
        assert_eq!(pi.move_block(0..2, 0), 0);
        assert_eq!(pi.to_index_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn move_block_cost_equals_kendall_delta() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = 12;
            let before = Permutation::random(n, &mut rng);
            let mut after = before.clone();
            let start = rng.gen_range(0..n);
            let end = rng.gen_range(start..=n);
            let len = end - start;
            let dest = rng.gen_range(0..=n - len);
            let cost = after.move_block(start..end, dest);
            assert_eq!(cost, before.kendall_distance(&after));
            assert!(after.check_consistent());
        }
    }

    #[test]
    fn reverse_block_cost_equals_kendall_delta() {
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..50 {
            let n = 12;
            let before = Permutation::random(n, &mut rng);
            let mut after = before.clone();
            let start = rng.gen_range(0..n);
            let end = rng.gen_range(start..=n);
            let cost = after.reverse_block(start..end);
            assert_eq!(cost, before.kendall_distance(&after));
            let len = (end - start) as u64;
            assert_eq!(cost, len * (len.saturating_sub(1)) / 2);
        }
    }

    #[test]
    fn swap_adjacent_blocks_cost_and_layout() {
        let mut pi = perm(&[0, 1, 2, 3, 4]);
        let cost = pi.swap_adjacent_blocks(1..3, 3..5);
        assert_eq!(cost, 4);
        assert_eq!(pi.to_index_vec(), vec![0, 3, 4, 1, 2]);
        assert!(pi.check_consistent());
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn swap_non_adjacent_blocks_panics() {
        let mut pi = perm(&[0, 1, 2, 3, 4]);
        let _ = pi.swap_adjacent_blocks(0..1, 3..5);
    }

    #[test]
    fn kendall_distance_properties() {
        let a = perm(&[0, 1, 2, 3]);
        let b = perm(&[1, 0, 3, 2]);
        assert_eq!(a.kendall_distance(&b), 2);
        assert_eq!(b.kendall_distance(&a), 2);
        assert_eq!(a.kendall_distance(&a), 0);
    }

    #[test]
    fn kendall_distance_size_mismatch() {
        let a = Permutation::identity(3);
        let b = Permutation::identity(4);
        assert_eq!(
            a.try_kendall_distance(&b),
            Err(PermutationError::SizeMismatch { left: 3, right: 4 })
        );
    }

    #[test]
    fn contiguous_range_cases() {
        let pi = perm(&[4, 2, 3, 0, 1]);
        assert_eq!(
            pi.contiguous_range(&[Node::new(2), Node::new(3)]),
            Some(1..3)
        );
        assert_eq!(
            pi.contiguous_range(&[Node::new(0), Node::new(1)]),
            Some(3..5)
        );
        assert_eq!(pi.contiguous_range(&[Node::new(4), Node::new(3)]), None);
        assert_eq!(pi.contiguous_range(&[]), Some(0..0));
        assert_eq!(pi.contiguous_range(&[Node::new(4)]), Some(0..1));
    }

    #[test]
    fn sort_by_position_orders_left_to_right() {
        let pi = perm(&[3, 1, 0, 2]);
        let sorted = pi.sort_by_position(&[Node::new(0), Node::new(2), Node::new(3)]);
        assert_eq!(sorted, vec![Node::new(3), Node::new(0), Node::new(2)]);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let mut rng1 = SmallRng::seed_from_u64(9);
        let mut rng2 = SmallRng::seed_from_u64(9);
        assert_eq!(
            Permutation::random(30, &mut rng1),
            Permutation::random(30, &mut rng2)
        );
    }

    #[test]
    fn debug_format() {
        let pi = perm(&[1, 0]);
        assert_eq!(format!("{pi:?}"), "Permutation[1 0]");
    }
}
