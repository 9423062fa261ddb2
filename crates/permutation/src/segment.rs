//! [`SegmentArrangement`]: the segment-based arrangement backend.
//!
//! Every revealed graph in the paper is a disjoint union of cliques or
//! lines, so an online algorithm's arrangement is always a sequence of
//! **component segments**. This backend stores the arrangement as an
//! ordered list of such segments over an implicit-key treap (an
//! order-statistic index on segment lengths), so that the block operations
//! of the update mechanics splice whole segments in `O(log n)` with costs
//! computed in closed form from segment lengths and offsets — instead of
//! the dense backend's `O(n)` memmove per operation.
//!
//! * Position/node lookups walk the treap: `O(log n)`.
//! * [`move_block`](SegmentArrangement::move_block) /
//!   [`swap_adjacent_blocks`](SegmentArrangement::swap_adjacent_blocks)
//!   on segment-aligned ranges are pure tree splices: `O(log n)`.
//! * [`reverse_block`](SegmentArrangement::reverse_block) of a single
//!   segment flips a lazy orientation bit: `O(log n)`.
//! * [`coalesce_range`](SegmentArrangement::coalesce_range) — the hint the
//!   update mechanics emit after each merge — folds two adjacent segments
//!   into one in `O(smaller segment + log n)`, and
//!   [`merge_move`](SegmentArrangement::merge_move) folds the mover the
//!   same way. Segment storage is double-ended, so the larger segment
//!   keeps its storage and only the smaller one's nodes get new
//!   node→segment/offset entries: as in union by size, a node is
//!   rewritten only when its segment at least doubles, at most
//!   `⌊log₂ n⌋` times over any merge order.
//! * Ranges that do **not** align with segment boundaries fall back to
//!   splitting or rebuilding the touched segments (`O(segment)`), so the
//!   backend is correct for arbitrary operation sequences, merely fastest
//!   on the component-structured ones the algorithms produce.
//!
//! The backend is observably identical to the dense [`Permutation`]:
//! same layouts, same costs, same panics (see the equivalence property
//! tests in `tests/properties.rs`).
//!
//! **Supported range:** at most [`MAX_NODES`](crate::MAX_NODES) =
//! `u32::MAX` nodes. Positions, in-segment offsets and arena slot ids are
//! stored as `u32` (with `u32::MAX` as the arena's null sentinel);
//! constructors reject larger node counts up front instead of silently
//! truncating those fields.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use crate::arrangement::{Arrangement, MergeOrder};
use crate::inversions::count_inversions;
use crate::node::Node;
use crate::perm::Permutation;

/// Arena null marker.
const NIL: u32 = u32::MAX;

/// One verified "the range `start..start + len` is exactly segment
/// `slot`" fact, recorded at arrangement `version`.
#[derive(Debug, Clone, Copy)]
struct MemoFact {
    version: u64,
    start: usize,
    len: u32,
    slot: u32,
}

/// The last two verified range→segment facts (the two blocks a merge
/// update locates), so the update itself needs no rediscovery walks.
///
/// A pure cache written through `&self` (locates are reads): a fact is
/// consulted only at the version it was recorded, and every mutation
/// bumps the version through `&mut self`.
#[derive(Debug, Clone, Default)]
struct SegMemo {
    entries: [Cell<Option<MemoFact>>; 2],
    /// Alternating write cursor: each publish overwrites the older
    /// entry, keeping the last two facts.
    cursor: Cell<usize>,
}

impl SegMemo {
    fn publish(&self, fact: MemoFact) {
        let idx = self.cursor.get();
        self.cursor.set(idx ^ 1);
        self.entries[idx].set(Some(fact));
    }

    /// The slot of a fact for `range` recorded at `version`, if any.
    fn recall(&self, version: u64, range: &Range<usize>) -> Option<u32> {
        self.entries.iter().find_map(|entry| {
            let fact = entry.get()?;
            (fact.version == version
                && fact.start == range.start
                && fact.len as usize == range.len())
            .then_some(fact.slot)
        })
    }
}

/// SplitMix64 — deterministic treap priorities from an allocation counter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hot treap-navigation fields as parallel `u32` arrays (SoA).
///
/// The old AoS layout interleaved each segment's 24-byte `Vec` header
/// with its tree links, so every descent hop dragged a 48-byte node
/// through the cache. Here one hop touches ~16 bytes of dense `u32`
/// arrays (`left`/`right` or `parent`, `subtree`, `len`), and the `len`
/// mirror keeps descents off the content arrays entirely. All counts are
/// bounded by the backend's [`MAX_NODES`](crate::MAX_NODES) capacity, so
/// `u32` everywhere; 32 priority bits keep treap collisions rare enough
/// at any supported size (ties only cost a slightly lopsided merge).
///
/// The two in-segment lookup fields, `head` and `reversed`, sit here too
/// rather than beside the content deques, which keeps the cold content
/// table at one 32-byte deque per slot.
#[derive(Debug, Clone, Default)]
struct SegTree {
    /// Treap heap priority (deterministic, from the allocation counter).
    prio: Vec<u32>,
    left: Vec<u32>,
    right: Vec<u32>,
    parent: Vec<u32>,
    /// Total node count of the subtree rooted at the slot.
    subtree: Vec<u32>,
    /// Node count of the slot's own segment — a mirror of
    /// `content[slot].len()`, kept in sync by every content mutator (`0`
    /// for free slots).
    len: Vec<u32>,
    /// Offset of the segment's storage front: the node at storage index
    /// `i` has `node_off == head + i` (wrapping), so nodes join at either
    /// end without renumbering the rest.
    head: Vec<u32>,
    /// Lazy orientation: `true` means the segment reads as the reversed
    /// storage order.
    reversed: Vec<bool>,
}

impl SegTree {
    fn with_capacity(n: usize) -> Self {
        SegTree {
            prio: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            subtree: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
            head: Vec::with_capacity(n),
            reversed: Vec::with_capacity(n),
        }
    }

    /// Appends one zeroed slot to every array.
    fn push_slot(&mut self) {
        self.prio.push(0);
        self.left.push(NIL);
        self.right.push(NIL);
        self.parent.push(NIL);
        self.subtree.push(0);
        self.len.push(0);
        self.head.push(0);
        self.reversed.push(false);
    }

    fn clear(&mut self) {
        self.prio.clear();
        self.left.clear();
        self.right.clear();
        self.parent.clear();
        self.subtree.clear();
        self.len.clear();
        self.head.clear();
        self.reversed.clear();
    }
}

/// A linear arrangement stored as an ordered list of segments over an
/// implicit-key treap — `O(log n)` block splices for the segment-aligned
/// operations the online MinLA algorithms perform.
///
/// # Examples
///
/// ```
/// use mla_permutation::{Arrangement, Node, Permutation, SegmentArrangement};
///
/// let mut arr = SegmentArrangement::identity(4);
/// let cost = arr.move_block(0..2, 2);
/// assert_eq!(cost, 4);
/// assert_eq!(arr.to_permutation().to_index_vec(), vec![2, 3, 0, 1]);
/// assert_eq!(arr.position_of(Node::new(0)), 2);
/// ```
#[derive(Clone)]
pub struct SegmentArrangement {
    /// Hot treap-navigation fields, SoA (see [`SegTree`]).
    tree: SegTree,
    /// Cold per-segment content in storage order (read right-to-left
    /// when the slot is `reversed`), indexed by the same slot ids.
    content: Vec<VecDeque<Node>>,
    free: Vec<u32>,
    root: u32,
    /// Node → arena slot of its segment.
    node_seg: Vec<u32>,
    /// Node → offset in its segment's **storage** order, shifted by the
    /// segment's `head`.
    node_off: Vec<u32>,
    /// Node-map entries written so far: one per node that a segment
    /// allocation or a fold pointed at a new slot.
    node_map_writes: u64,
    /// Allocation counter feeding the deterministic priority stream.
    prio_counter: u64,
    /// Mutation counter: bumped before every structural change so the
    /// range memo below can be trusted only between mutations.
    version: u64,
    /// The last two located range→segment facts.
    memo: SegMemo,
}

impl SegmentArrangement {
    /// The identity arrangement: node `i` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`](crate::MAX_NODES) — positions,
    /// in-segment offsets and arena slot ids are `u32` (with `u32::MAX`
    /// reserved as the null sentinel), so the backend supports at most
    /// `u32::MAX` nodes. Use [`SegmentArrangement::try_identity`] for a
    /// non-panicking variant.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        // mla-lint: allow(panic-safety): documented panic; try_identity is the non-panicking variant
        Self::try_identity(n).expect("node count exceeds the segment backend's u32 capacity")
    }

    /// The identity arrangement, or
    /// [`PermutationError`](crate::PermutationError) if `n` exceeds
    /// [`MAX_NODES`](crate::MAX_NODES).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityExceeded`](crate::PermutationError::CapacityExceeded)
    /// for `n > MAX_NODES`; the check runs before any allocation, so an
    /// oversized request can never leave truncated `u32` offsets behind.
    pub fn try_identity(n: usize) -> Result<Self, crate::PermutationError> {
        crate::perm::check_capacity(n)?;
        Ok(Self::from_order((0..n).map(Node::new), n))
    }

    /// Builds the segment arrangement matching a dense permutation (whose
    /// own constructors already enforce the shared `u32` capacity bound).
    #[must_use]
    pub fn from_permutation(perm: &Permutation) -> Self {
        Self::from_order(perm.iter().copied(), perm.len())
    }

    /// Builds from nodes in position order, one singleton segment per node
    /// (components start as singletons), in `O(n)`. Callers have already
    /// checked `n <= MAX_NODES`.
    fn from_order(nodes: impl Iterator<Item = Node>, n: usize) -> Self {
        debug_assert!(n <= crate::MAX_NODES, "capacity must be checked upstream");
        let mut arr = Self::with_slots(n, n);
        let slots: Vec<u32> = nodes
            .map(|v| arr.alloc_seg(vec![v].into(), false))
            .collect();
        debug_assert_eq!(slots.len(), n, "builder must supply exactly n nodes");
        let root = arr.build(&slots);
        arr.set_root(root);
        arr
    }

    /// An empty arena over `n` nodes with room for `slots` segments; the
    /// caller allocates the segments and builds the treap.
    fn with_slots(n: usize, slots: usize) -> Self {
        SegmentArrangement {
            tree: SegTree::with_capacity(slots),
            content: Vec::with_capacity(slots),
            free: Vec::new(),
            root: NIL,
            node_seg: vec![NIL; n],
            node_off: vec![0; n],
            node_map_writes: 0,
            prio_counter: 0,
            version: 0,
            memo: SegMemo::default(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_seg.len()
    }

    /// Returns `true` for the empty arrangement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_seg.is_empty()
    }

    /// Number of live segments (an internal structure measure: one per
    /// coalesced component in algorithm runs).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.content.len() - self.free.len()
    }

    /// The node at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    #[must_use]
    pub fn node_at(&self, position: usize) -> Node {
        assert!(
            position < self.len(),
            "position {position} out of bounds for length {}",
            self.len()
        );
        let mut t = self.root;
        let mut pos = position;
        loop {
            let i = t as usize;
            let left = self.tree.left[i];
            let left_size = self.sub(left);
            let here = self.tree.len[i] as usize;
            if pos < left_size {
                t = left;
            } else if pos < left_size + here {
                let index = pos - left_size;
                let storage = if self.tree.reversed[i] {
                    here - 1 - index
                } else {
                    index
                };
                return self.content[i][storage];
            } else {
                pos -= left_size + here;
                t = self.tree.right[i];
            }
        }
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this arrangement.
    #[must_use]
    pub fn position_of(&self, node: Node) -> usize {
        let slot = self.node_seg[node.index()];
        self.seg_start(slot) + self.in_seg_index(node)
    }

    /// Returns `true` if `a` occupies a position strictly left of `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[must_use]
    pub fn is_left_of(&self, a: Node, b: Node) -> bool {
        self.position_of(a) < self.position_of(b)
    }

    /// If the given set of (distinct) nodes occupies contiguous positions,
    /// returns that position range; otherwise `None`.
    ///
    /// Fast path: when the nodes are exactly one segment (the steady state
    /// for coalesced components) this costs `O(|nodes|)` slot comparisons
    /// plus one `O(log n)` rank query; otherwise it falls back to the
    /// dense backend's min/max scan at `O(|nodes| log n)`.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>> {
        if nodes.is_empty() {
            return Some(0..0);
        }
        let slot = self.node_seg[nodes[0].index()];
        if self.seg_len(slot) == nodes.len()
            && nodes.iter().all(|&v| self.node_seg[v.index()] == slot)
        {
            let start = self.seg_start(slot);
            self.remember_segment(start, nodes.len(), slot);
            return Some(start..start + nodes.len());
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

    /// Moves the block occupying `src` so that it starts at position
    /// `dest`. Returns the closed-form cost `src.len() × |dest − src.start|`
    /// — no node is touched when the range is segment-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of bounds or `dest` would push the block
    /// past either end.
    pub fn move_block(&mut self, src: Range<usize>, dest: usize) -> u64 {
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
        // Fast path: a segment-exact source splices as unlink + reinsert
        // (no boundary splits).
        let exact = self.exact_segment(&src);
        self.bump_version();
        if let Some(slot) = exact {
            self.unlink_seg(slot);
            self.insert_seg_at(slot, dest);
            return cost;
        }
        let (before, block, after) = self.extract(src);
        let rest = self.merge(before, after);
        let (left, right) = self.split(rest, dest);
        let joined = self.merge(left, block);
        let root = self.merge(joined, right);
        self.set_root(root);
        cost
    }

    /// Reverses the block occupying `range`. Returns the cost
    /// `C(len, 2)`. A single-segment range flips a lazy orientation bit;
    /// a multi-segment range is compacted into one reversed segment.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn reverse_block(&mut self, range: Range<usize>) -> u64 {
        assert!(
            range.end <= self.len(),
            "block {range:?} out of bounds for length {}",
            self.len()
        );
        let len = range.len() as u64;
        let cost = len * len.saturating_sub(1) / 2;
        if range.len() <= 1 {
            return cost;
        }
        // Fast path: reversing a whole segment is a lazy flag flip — no
        // tree restructuring, subtree sizes unchanged (the range memo
        // stays valid: boundaries are untouched).
        if let Some(slot) = self.exact_segment(&range) {
            self.flip_seg(slot);
            return cost;
        }
        self.bump_version();
        let (before, block, after) = self.extract(range);
        let block = self.reverse_detached(block);
        let joined = self.merge(before, block);
        let root = self.merge(joined, after);
        self.set_root(root);
        cost
    }

    /// Swaps two adjacent blocks, preserving internal orders. Returns the
    /// cost `left.len() × right.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks are not adjacent or out of bounds.
    pub fn swap_adjacent_blocks(&mut self, left: Range<usize>, right: Range<usize>) -> u64 {
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
        self.bump_version();
        let root = self.root;
        let (before, rest) = self.split(root, left.start);
        let (first, rest) = self.split(rest, left.len());
        let (second, after) = self.split(rest, right.len());
        let joined = self.merge(before, second);
        let joined = self.merge(joined, first);
        let root = self.merge(joined, after);
        self.set_root(root);
        cost
    }

    /// Kendall's tau distance to a dense target, via one `O(n)`
    /// materialization and an `O(n log n)` inversion count.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    #[must_use]
    pub fn kendall_to(&self, target: &Permutation) -> u64 {
        assert_eq!(
            self.len(),
            target.len(),
            "kendall_to: size mismatch ({} vs {})",
            self.len(),
            target.len()
        );
        let order = self.collect_all();
        let mut position = vec![0u32; self.len()];
        for (pos, v) in order.iter().enumerate() {
            position[v.index()] = pos as u32;
        }
        let seq: Vec<u32> = target.iter().map(|&v| position[v.index()]).collect();
        count_inversions(&seq)
    }

    /// Replaces the arrangement with `target`, returning the Kendall tau
    /// cost of the jump. The new state is stored as a single segment.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn assign(&mut self, target: &Permutation) -> u64 {
        let cost = self.kendall_to(target);
        self.bump_version();
        self.tree.clear();
        self.content.clear();
        self.free.clear();
        if target.is_empty() {
            self.set_root(NIL);
            return cost;
        }
        let slot = self.alloc_seg(target.iter().copied().collect(), false);
        self.set_root(slot);
        cost
    }

    /// Compacts the segments covering `range` into one (the hint emitted
    /// by the update mechanics after each component merge). Never changes
    /// the observable arrangement. Two whole adjacent segments — the shape
    /// a merge leaves — cost `O(smaller segment + log n)`: the larger one
    /// absorbs the smaller at whichever storage end faces it. Any other
    /// range costs `O(range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn coalesce_range(&mut self, range: Range<usize>) {
        assert!(
            range.end <= self.len(),
            "block {range:?} out of bounds for length {}",
            self.len()
        );
        if range.len() <= 1 {
            return;
        }
        // Already one segment? Both ends sharing a segment implies the
        // whole (contiguous) range does. Steady state for repeated hints.
        let first_node = self.node_at(range.start);
        let last_node = self.node_at(range.end - 1);
        let first_slot = self.node_seg[first_node.index()];
        let last_slot = self.node_seg[last_node.index()];
        if first_slot == last_slot {
            return;
        }
        // Fast path — the shape every merge update produces: exactly two
        // adjacent segments. The larger absorbs the smaller, whose tree
        // node is unlinked; no boundary splits, no re-merge of the range.
        if self.in_seg_index(first_node) == 0
            && self.in_seg_index(last_node) == self.seg_len(last_slot) - 1
            && self.seg_len(first_slot) + self.seg_len(last_slot) == range.len()
        {
            self.bump_version();
            let (keep, gone, gone_is_left) = self.larger_first(first_slot, last_slot);
            self.unlink_seg(gone);
            self.absorb(keep, gone, gone_is_left);
            self.recompute_sizes_upward(keep);
            return;
        }
        self.bump_version();
        let (before, block, after) = self.extract(range);
        let block = self.compact_detached(block);
        let joined = self.merge(before, block);
        let root = self.merge(joined, after);
        self.set_root(root);
    }

    /// Materializes the arrangement as a dense [`Permutation`].
    #[must_use]
    pub fn to_permutation(&self) -> Permutation {
        Permutation::from_nodes(self.collect_all())
            // mla-lint: allow(panic-safety): segments partition the node universe by construction
            .expect("segment arrangement always holds a valid permutation")
    }

    /// [`contiguous_range`](SegmentArrangement::contiguous_range) plus
    /// the block's reading direction. On the single-segment fast path the
    /// orientation bit falls out of the node→offset map for free — no
    /// extra tree walk.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn oriented_contiguous_range(&self, nodes: &[Node]) -> Option<(Range<usize>, bool)> {
        if nodes.is_empty() {
            return Some((0..0, true));
        }
        let slot = self.node_seg[nodes[0].index()];
        if self.seg_len(slot) == nodes.len()
            && nodes.iter().all(|&v| self.node_seg[v.index()] == slot)
        {
            let start = self.seg_start(slot);
            self.remember_segment(start, nodes.len(), slot);
            let forward = nodes.len() <= 1 || self.in_seg_index(nodes[0]) == 0;
            return Some((start..start + nodes.len(), forward));
        }
        let range = self.contiguous_range(nodes)?;
        let forward = nodes.len() <= 1 || self.position_of(nodes[0]) == range.start;
        Some((range, forward))
    }

    /// If the nodes of `path` occupy contiguous positions and read in the
    /// given order or its reverse, returns that position range; otherwise
    /// `None` — see [`Arrangement::path_range`].
    ///
    /// Fast path: when the path is exactly one segment (the steady state
    /// for a coalesced line component) its order is read off the
    /// node→offset map, so the check costs `O(|path|)` array reads plus
    /// one `O(log n)` rank query; otherwise it falls back to one
    /// `O(log n)` position lookup per node.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn path_range(&self, path: &[Node]) -> Option<Range<usize>> {
        let Some(&first) = path.first() else {
            return Some(0..0);
        };
        let slot = self.node_seg[first.index()];
        if self.seg_len(slot) == path.len()
            && path.iter().all(|&v| self.node_seg[v.index()] == slot)
        {
            // Inside one segment a position step is a storage-offset step
            // (negated when the segment reads reversed), so the path is in
            // order iff every offset step is the same +1 or −1.
            let off = |v: &Node| self.node_off[v.index()];
            let step = match path {
                [a, b, ..] => off(b).wrapping_sub(off(a)),
                _ => 1,
            };
            let in_order = (step == 1 || step == u32::MAX)
                && path
                    .windows(2)
                    .all(|w| off(&w[1]) == off(&w[0]).wrapping_add(step));
            if !in_order {
                return None;
            }
            let start = self.seg_start(slot);
            return Some(start..start + path.len());
        }
        crate::arrangement::monotone_path_range(path, |v| self.position_of(v))
    }

    /// Completes one merge update in a single pass — see
    /// [`Arrangement::merge_move`] for the contract. The fast path (both
    /// blocks segment-exact, the steady state under coalesce hints)
    /// unlinks the mover's tree node and folds the two segments into one
    /// at the stayer's place in the treap: ~5 tree walks per merge instead
    /// of the ~13 the primitive-op sequence costs. A reversal in `order`
    /// flips that segment's lazy orientation flag, and the swap only picks
    /// the side of the stayer the mover folds onto. The fold keeps the
    /// larger segment's storage; when that is the mover's, its slot first
    /// takes over the stayer's tree node.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap or are out of bounds.
    pub fn merge_move(
        &mut self,
        mover: Range<usize>,
        stayer: Range<usize>,
        order: MergeOrder,
    ) -> u64 {
        let dest = crate::arrangement::merge_move_dest(&mover, &stayer);
        assert!(
            mover.end.max(stayer.end) <= self.len(),
            "blocks {mover:?}/{stayer:?} out of bounds for length {}",
            self.len()
        );
        // Empty or unaligned blocks take the primitive sequence.
        let (Some(mover_slot), Some(stayer_slot)) =
            (self.exact_segment(&mover), self.exact_segment(&stayer))
        else {
            return crate::arrangement::primitive_merge_move(self, mover, stayer, order);
        };
        let gap = dest.abs_diff(mover.start);
        let cost = (mover.len() as u64) * (gap as u64);
        self.bump_version();
        self.unlink_seg(mover_slot);
        if order.reverse_mover {
            self.flip_seg(mover_slot);
        }
        if order.reverse_stayer {
            self.flip_seg(stayer_slot);
        }
        let mover_is_left = (mover.start < stayer.start) != order.swap;
        let keep = if mover.len() > stayer.len() {
            self.transplant(stayer_slot, mover_slot);
            self.absorb(mover_slot, stayer_slot, !mover_is_left);
            mover_slot
        } else {
            self.absorb(stayer_slot, mover_slot, mover_is_left);
            stayer_slot
        };
        self.recompute_sizes_upward(keep);
        cost
    }

    /// Resolves a coalesced component's block from one member in
    /// `O(log n)` — see [`Arrangement::locate_component`] for the full
    /// contract. The segment backend keeps every coalesced component as
    /// exactly one segment, so the anchor's slot *is* the block: the
    /// answer needs one array lookup plus one rank walk, never a member
    /// walk. Returns `None` when the anchor's segment length disagrees
    /// with `len` (the component is not — or not yet — one segment, e.g.
    /// mid-way through a primitive-op sequence), signalling the caller to
    /// fall back to the member-walking locate.
    ///
    /// The located range is published to the range memo, so the merge
    /// update that follows hits its segment-exact fast path without a
    /// rediscovery walk.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range.
    #[must_use]
    pub fn locate_component(&self, anchor: Node, len: usize) -> Option<(Range<usize>, usize)> {
        let slot = self.node_seg[anchor.index()];
        if self.seg_len(slot) != len {
            return None;
        }
        let start = self.seg_start(slot);
        self.remember_segment(start, len, slot);
        let anchor_pos = start + self.in_seg_index(anchor);
        Some((start..start + len, anchor_pos))
    }

    /// Checks internal consistency: in-order traversal, both lookup
    /// directions, subtree sizes, the SoA length mirror and the node maps
    /// must agree, every slot must be live or free, and free slots must be
    /// empty. Used by tests.
    #[doc(hidden)]
    #[must_use]
    pub fn check_consistent(&self) -> bool {
        let order = self.collect_all();
        if order.len() != self.len() || self.sub(self.root) != self.len() {
            return false;
        }
        if (0..self.content.len()).any(|i| self.tree.len[i] as usize != self.content[i].len()) {
            return false;
        }
        let live = self.collect_slots(self.root);
        if live.len() + self.free.len() != self.content.len()
            || self
                .free
                .iter()
                .any(|&slot| self.tree.len[slot as usize] != 0)
        {
            return false;
        }
        let maps_agree = live.iter().all(|&slot| {
            let head = self.tree.head[slot as usize];
            self.content[slot as usize]
                .iter()
                .enumerate()
                .all(|(i, v)| {
                    self.node_seg[v.index()] == slot
                        && self.node_off[v.index()] == head.wrapping_add(i as u32)
                })
        });
        maps_agree
            && order
                .iter()
                .enumerate()
                .all(|(pos, &v)| self.position_of(v) == pos && self.node_at(pos) == v)
    }

    /// Node-map entries written since construction or decode: `n` for the
    /// initial segments, then one per node moved to another segment. Used
    /// by tests to bound merge work exactly.
    #[doc(hidden)]
    #[must_use]
    pub fn node_map_writes(&self) -> u64 {
        self.node_map_writes
    }

    /// Serializes the arrangement for the checkpoint stack: node count,
    /// priority-stream counter, then the live segments in position order
    /// (storage-order node list + lazy-reversal flag each).
    ///
    /// The treap *shape* and arena slot ids are deliberately **not**
    /// encoded — they are unobservable (every cost is closed-form in
    /// positions and sizes) and a decode rebuilds a fresh balanced treap
    /// over the same segment partition. The partition itself *is*
    /// observable: `locate_component` trusts that an algorithm run keeps
    /// every component one coalesced segment, so a checkpoint must
    /// restore the exact segment boundaries, storage orders and
    /// orientation flags, not just the flat permutation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        crate::codec::put_len(out, self.len());
        crate::codec::put_u64(out, self.prio_counter);
        let slots = self.collect_slots(self.root);
        crate::codec::put_len(out, slots.len());
        for slot in slots {
            let nodes = &self.content[slot as usize];
            crate::codec::put_bool(out, self.tree.reversed[slot as usize]);
            crate::codec::put_len(out, nodes.len());
            let (front, back) = nodes.as_slices();
            for half in [front, back] {
                for v in half {
                    // mla-lint: allow(cast-hygiene): node ids are bounded by MAX_NODES = u32::MAX
                    crate::codec::put_u32(out, v.index() as u32);
                }
            }
        }
    }

    /// Decodes an arrangement written by
    /// [`SegmentArrangement::encode_into`], re-validating that the
    /// segments partition `0..n` (every node exactly once, no empty
    /// segment) before rebuilding the treap.
    ///
    /// # Errors
    ///
    /// [`CodecError`](crate::codec::CodecError) on truncated input or an
    /// inconsistent segment partition.
    pub fn decode_from(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        // Counts that size an allocation are bounded by what the rest of
        // the input can hold (a node is a 4-byte entry, a segment at
        // least 13 bytes), so a short body fails before allocating.
        let n = r.count(crate::MAX_NODES.min(r.remaining() / 4), "arrangement node")?;
        let prio_counter = r.u64()?;
        let seg_count = r.count(n.min(r.remaining() / 13), "segment")?;
        let mut arr = Self::with_slots(n, seg_count);
        let mut seen = vec![false; n];
        let mut covered = 0usize;
        let mut slots = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            let reversed = r.bool("segment reversal")?;
            let len = r.count((n - covered).min(r.remaining() / 4), "segment length")?;
            if len == 0 {
                return Err(CodecError::invalid("empty segment in arrangement"));
            }
            let mut nodes = Vec::with_capacity(len);
            for _ in 0..len {
                let raw = r.u32()? as usize;
                if raw >= n {
                    return Err(CodecError::invalid(format!(
                        "segment node {raw} out of range for n = {n}"
                    )));
                }
                if seen[raw] {
                    return Err(CodecError::invalid(format!(
                        "node {raw} appears in two segments"
                    )));
                }
                seen[raw] = true;
                nodes.push(Node::new(raw));
            }
            covered += len;
            slots.push(arr.alloc_seg(nodes.into(), reversed));
        }
        if covered != n {
            return Err(CodecError::invalid(format!(
                "segments cover {covered} of {n} nodes"
            )));
        }
        let root = arr.build(&slots);
        arr.set_root(root);
        // Rebuilding drew fresh priorities from a zeroed counter; future
        // draws must continue the checkpointed stream.
        arr.prio_counter = prio_counter;
        Ok(arr)
    }

    // ---- treap internals ----------------------------------------------

    fn sub(&self, t: u32) -> usize {
        if t == NIL {
            0
        } else {
            self.tree.subtree[t as usize] as usize
        }
    }

    /// Node count of slot `t`'s own segment (the SoA `len` mirror).
    fn seg_len(&self, t: u32) -> usize {
        self.tree.len[t as usize] as usize
    }

    /// Re-syncs the `len` mirror after a content mutation of slot `t`.
    fn sync_len(&mut self, t: u32) {
        self.tree.len[t as usize] = self.content[t as usize].len() as u32;
    }

    fn next_prio(&mut self) -> u32 {
        self.prio_counter = self.prio_counter.wrapping_add(1);
        (splitmix64(self.prio_counter) >> 32) as u32
    }

    /// Allocates a detached segment and points its nodes' lookup entries
    /// at it.
    fn alloc_seg(&mut self, nodes: VecDeque<Node>, reversed: bool) -> u32 {
        let prio = self.next_prio();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.tree.push_slot();
                self.content.push(VecDeque::new());
                (self.content.len() - 1) as u32
            }
        };
        for (off, v) in nodes.iter().enumerate() {
            self.node_seg[v.index()] = slot;
            self.node_off[v.index()] = off as u32;
        }
        self.node_map_writes += nodes.len() as u64;
        let i = slot as usize;
        self.tree.prio[i] = prio;
        self.tree.left[i] = NIL;
        self.tree.right[i] = NIL;
        self.tree.parent[i] = NIL;
        self.tree.subtree[i] = nodes.len() as u32;
        self.tree.len[i] = nodes.len() as u32;
        self.tree.head[i] = 0;
        self.tree.reversed[i] = reversed;
        self.content[i] = nodes;
        slot
    }

    /// Returns `slot` to the free list, dropping its content.
    fn free_seg(&mut self, slot: u32) {
        self.content[slot as usize] = VecDeque::new();
        self.tree.len[slot as usize] = 0;
        self.free.push(slot);
    }

    /// Recomputes `subtree` and re-parents the children of `t`.
    fn upd(&mut self, t: u32) {
        let i = t as usize;
        let (left, right) = (self.tree.left[i], self.tree.right[i]);
        let total = self.tree.len[i] as usize + self.sub(left) + self.sub(right);
        // mla-lint: allow(cast-hygiene): subtree node counts are bounded by MAX_NODES = u32::MAX
        self.tree.subtree[i] = total as u32;
        if left != NIL {
            self.tree.parent[left as usize] = t;
        }
        if right != NIL {
            self.tree.parent[right as usize] = t;
        }
    }

    fn set_root(&mut self, root: u32) {
        self.root = root;
        if root != NIL {
            self.tree.parent[root as usize] = NIL;
        }
    }

    /// Builds a treap from detached segments in position order, `O(n)`
    /// via the right-spine stack method.
    fn build(&mut self, slots: &[u32]) -> u32 {
        let mut spine: Vec<u32> = Vec::new();
        for &slot in slots {
            let mut last = NIL;
            while let Some(&top) = spine.last() {
                if self.tree.prio[top as usize] >= self.tree.prio[slot as usize] {
                    break;
                }
                spine.pop();
                self.upd(top);
                last = top;
            }
            self.tree.left[slot as usize] = last;
            if let Some(&top) = spine.last() {
                self.tree.right[top as usize] = slot;
            }
            spine.push(slot);
        }
        let mut root = NIL;
        while let Some(top) = spine.pop() {
            self.upd(top);
            root = top;
        }
        root
    }

    /// Rank of segment `slot`: total nodes strictly left of it, via parent
    /// pointers in `O(log n)` expected.
    fn seg_start(&self, slot: u32) -> usize {
        let mut acc = self.sub(self.tree.left[slot as usize]);
        let mut current = slot;
        let mut parent = self.tree.parent[slot as usize];
        while parent != NIL {
            let i = parent as usize;
            if self.tree.right[i] == current {
                acc += self.sub(self.tree.left[i]) + self.tree.len[i] as usize;
            }
            current = parent;
            parent = self.tree.parent[i];
        }
        acc
    }

    /// Splits off the first `k` nodes. Interior cuts split the containing
    /// segment's content (the only non-`O(log n)` case).
    fn split(&mut self, t: u32, k: usize) -> (u32, u32) {
        if t == NIL {
            debug_assert_eq!(k, 0, "split point beyond tree");
            return (NIL, NIL);
        }
        let i = t as usize;
        let (left_child, right_child, seg_len) = (
            self.tree.left[i],
            self.tree.right[i],
            self.tree.len[i] as usize,
        );
        let left_size = self.sub(left_child);
        if k <= left_size {
            let (a, b) = self.split(left_child, k);
            self.tree.left[i] = b;
            self.upd(t);
            (a, t)
        } else if k >= left_size + seg_len {
            let (a, b) = self.split(right_child, k - left_size - seg_len);
            self.tree.right[i] = a;
            self.upd(t);
            (t, b)
        } else {
            // Interior cut: split this segment's content in two.
            let cut = k - left_size;
            let tail = self.split_seg_content(t, cut);
            self.tree.right[i] = NIL;
            self.upd(t);
            let rest = self.merge(tail, right_child);
            (t, rest)
        }
    }

    /// Joins two treaps (every node of `l` left of every node of `r`).
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.tree.prio[l as usize] >= self.tree.prio[r as usize] {
            let lr = self.tree.right[l as usize];
            let m = self.merge(lr, r);
            self.tree.right[l as usize] = m;
            self.upd(l);
            l
        } else {
            let rl = self.tree.left[r as usize];
            let m = self.merge(l, rl);
            self.tree.left[r as usize] = m;
            self.upd(r);
            r
        }
    }

    /// Splits out `range` as a detached subtree: `(before, block, after)`.
    fn extract(&mut self, range: Range<usize>) -> (u32, u32, u32) {
        let root = self.root;
        let (before, rest) = self.split(root, range.start);
        let (block, after) = self.split(rest, range.len());
        (before, block, after)
    }

    /// Cuts the first `cut` arrangement-order nodes off segment `t`,
    /// keeping them in `t`; returns a new detached segment holding the
    /// remainder. `O(segment)`.
    fn split_seg_content(&mut self, t: u32, cut: usize) -> u32 {
        let i = t as usize;
        let reversed = self.tree.reversed[i];
        let len = self.seg_len(t);
        debug_assert!(cut > 0 && cut < len, "interior cut expected");
        // A reversed segment reads its storage back to front, so its
        // first `cut` arrangement nodes are its last `cut` storage nodes:
        // they stay in `t` under a head advanced past the cut-off front.
        let at = if reversed { len - cut } else { cut };
        let mut rest = self.content[i].split_off(at);
        if reversed {
            std::mem::swap(&mut self.content[i], &mut rest);
            self.tree.head[i] = self.tree.head[i].wrapping_add(at as u32);
        }
        self.sync_len(t);
        self.alloc_seg(rest, reversed)
    }

    /// Reverses a detached subtree: a lazy flag flip when it is a single
    /// segment, otherwise compaction into one reversed segment.
    fn reverse_detached(&mut self, block: u32) -> u32 {
        debug_assert_ne!(block, NIL);
        let i = block as usize;
        if self.tree.left[i] == NIL && self.tree.right[i] == NIL {
            self.flip_seg(block);
            return block;
        }
        let order = self.collect_subtree(block);
        self.free_subtree(block);
        self.alloc_seg(order.into(), true)
    }

    /// Compacts a detached subtree into a single segment, folding the
    /// smaller of exactly two segments into the larger (the common
    /// two-segment merge case).
    fn compact_detached(&mut self, block: u32) -> u32 {
        debug_assert_ne!(block, NIL);
        if self.tree.left[block as usize] == NIL && self.tree.right[block as usize] == NIL {
            return block;
        }
        let slots = self.collect_slots(block);
        if slots.len() == 2 {
            return self.coalesce_pair(slots[0], slots[1]);
        }
        let order = self.collect_subtree(block);
        self.free_subtree(block);
        self.alloc_seg(order.into(), false)
    }

    /// Merges two detached adjacent segments (`first` arrangement-left of
    /// `second`) into the larger one, which is returned detached.
    fn coalesce_pair(&mut self, first: u32, second: u32) -> u32 {
        let (keep, gone, gone_is_left) = self.larger_first(first, second);
        self.absorb(keep, gone, gone_is_left);
        let k = keep as usize;
        self.tree.left[k] = NIL;
        self.tree.right[k] = NIL;
        self.tree.parent[k] = NIL;
        self.tree.subtree[k] = self.tree.len[k];
        keep
    }

    /// In-order nodes of a detached subtree (arrangement order).
    fn collect_subtree(&self, t: u32) -> Vec<Node> {
        let mut out = Vec::with_capacity(self.sub(t));
        for slot in self.collect_slots(t) {
            let nodes = &self.content[slot as usize];
            if self.tree.reversed[slot as usize] {
                out.extend(nodes.iter().rev());
            } else {
                out.extend(nodes);
            }
        }
        out
    }

    /// Arena slots of a detached subtree, in arrangement order.
    fn collect_slots(&self, t: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut current = t;
        while current != NIL || !stack.is_empty() {
            while current != NIL {
                stack.push(current);
                current = self.tree.left[current as usize];
            }
            // mla-lint: allow(panic-safety): loop guard: the stack is non-empty when popped
            let slot = stack.pop().expect("loop guard ensures non-empty stack");
            out.push(slot);
            current = self.tree.right[slot as usize];
        }
        out
    }

    /// Invalidates the range memo (call before any structural change).
    fn bump_version(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Records a verified range→segment fact for the current version.
    fn remember_segment(&self, start: usize, len: usize, slot: u32) {
        let Ok(len) = u32::try_from(len) else { return };
        self.memo.publish(MemoFact {
            version: self.version,
            start,
            len,
            slot,
        });
    }

    /// Looks up a remembered, still-valid range→segment fact.
    fn recall_segment(&self, range: &Range<usize>) -> Option<u32> {
        self.memo.recall(self.version, range)
    }

    /// The arrangement-order index of `node` inside its segment.
    fn in_seg_index(&self, node: Node) -> usize {
        let slot = self.node_seg[node.index()] as usize;
        let storage = self.node_off[node.index()].wrapping_sub(self.tree.head[slot]) as usize;
        if self.tree.reversed[slot] {
            self.tree.len[slot] as usize - 1 - storage
        } else {
            storage
        }
    }

    /// Returns the segment slot iff `range` covers exactly one segment.
    fn exact_segment(&self, range: &Range<usize>) -> Option<u32> {
        if range.is_empty() {
            return None;
        }
        if let Some(slot) = self.recall_segment(range) {
            return Some(slot);
        }
        let first = self.node_at(range.start);
        let slot = self.node_seg[first.index()];
        (self.seg_len(slot) == range.len() && self.in_seg_index(first) == 0).then_some(slot)
    }

    /// Recomputes subtree sizes from `t` up to the root (child links and
    /// segment contents must already be final).
    fn recompute_sizes_upward(&mut self, t: u32) {
        let mut current = t;
        while current != NIL {
            let i = current as usize;
            let (left, right) = (self.tree.left[i], self.tree.right[i]);
            self.tree.subtree[i] =
                (self.tree.len[i] as usize + self.sub(left) + self.sub(right)) as u32;
            current = self.tree.parent[i];
        }
    }

    /// Unlinks segment `slot` from the tree in place by merging its
    /// children into its position. Heap order is preserved: both children
    /// carry lower priorities than `slot`, hence than its parent. The
    /// slot itself is left detached (content untouched, not freed).
    fn unlink_seg(&mut self, slot: u32) {
        let i = slot as usize;
        let (left, right, parent) = (self.tree.left[i], self.tree.right[i], self.tree.parent[i]);
        let replacement = self.merge(left, right);
        self.replace_child(parent, slot, replacement);
        self.recompute_sizes_upward(parent);
        self.tree.left[i] = NIL;
        self.tree.right[i] = NIL;
        self.tree.parent[i] = NIL;
        self.tree.subtree[i] = self.tree.len[i];
    }

    /// Points the link that leads to `old` — `parent`'s child link, or
    /// the root when `parent` is NIL — at `new`.
    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        if parent == NIL {
            self.set_root(new);
            return;
        }
        let p = parent as usize;
        if self.tree.left[p] == old {
            self.tree.left[p] = new;
        } else {
            self.tree.right[p] = new;
        }
        if new != NIL {
            self.tree.parent[new as usize] = parent;
        }
    }

    /// Gives detached slot `to` linked slot `from`'s place in the treap —
    /// its priority, parent and children — in `O(1)`: the tree keeps its
    /// shape, with `to` where `from` was. `from` is left for the caller
    /// to free; subtree sizes above are NOT fixed up.
    fn transplant(&mut self, from: u32, to: u32) {
        let (f, t) = (from as usize, to as usize);
        self.tree.prio[t] = self.tree.prio[f];
        self.tree.left[t] = self.tree.left[f];
        self.tree.right[t] = self.tree.right[f];
        self.upd(to);
        self.replace_child(self.tree.parent[f], from, to);
    }

    /// Reinserts a detached segment so that it starts at `position`.
    fn insert_seg_at(&mut self, slot: u32, position: usize) {
        let root = self.root;
        let (left, right) = self.split(root, position);
        let joined = self.merge(left, slot);
        let root = self.merge(joined, right);
        self.set_root(root);
    }

    /// Adjacent segments `first` (arrangement-left) and `second` as
    /// [`absorb`](Self::absorb)'s `(keep, gone, gone_is_left)`: the
    /// larger one keeps its storage, `first` on a tie.
    fn larger_first(&self, first: u32, second: u32) -> (u32, u32, bool) {
        if self.seg_len(first) >= self.seg_len(second) {
            (first, second, false)
        } else {
            (second, first, true)
        }
    }

    /// Folds segment `gone` into adjacent segment `keep`, on `keep`'s
    /// arrangement-left side when `gone_is_left`, preserving both internal
    /// orders, and frees `gone` (callers unlink it first or drop the
    /// detached tree it sits in). `keep`'s storage grows at whichever end
    /// faces `gone`, so only `gone`'s nodes get new node-map entries:
    /// callers pass the larger segment as `keep`, and a node is then
    /// rewritten only when its segment at least doubles. Subtree sizes are
    /// NOT fixed up — callers do that.
    fn absorb(&mut self, keep: u32, gone: u32, gone_is_left: bool) {
        let nodes = std::mem::take(&mut self.content[gone as usize]);
        // `gone`'s nodes go in nearest the seam first: its arrangement
        // order when it joins on the right, reversed when on the left.
        let backward = gone_is_left != self.tree.reversed[gone as usize];
        self.free_seg(gone);
        let k = keep as usize;
        let at_front = gone_is_left != self.tree.reversed[k];
        let storage = &mut self.content[k];
        storage.reserve(nodes.len());
        let head = &mut self.tree.head[k];
        let (node_seg, node_off) = (&mut self.node_seg, &mut self.node_off);
        let mut push = |v: &Node| {
            let off = if at_front {
                storage.push_front(*v);
                *head = head.wrapping_sub(1);
                *head
            } else {
                storage.push_back(*v);
                head.wrapping_add((storage.len() - 1) as u32)
            };
            node_seg[v.index()] = keep;
            node_off[v.index()] = off;
        };
        if backward {
            nodes.iter().rev().for_each(&mut push);
        } else {
            nodes.iter().for_each(&mut push);
        }
        self.node_map_writes += nodes.len() as u64;
        self.sync_len(keep);
    }

    /// Reverses segment `slot`'s reading order by flipping its lazy flag.
    /// A singleton keeps its flag: reversing it is a no-op, as in
    /// [`reverse_block`](Self::reverse_block).
    fn flip_seg(&mut self, slot: u32) {
        if self.seg_len(slot) > 1 {
            let reversed = &mut self.tree.reversed[slot as usize];
            *reversed = !*reversed;
        }
    }

    fn free_subtree(&mut self, t: u32) {
        for slot in self.collect_slots(t) {
            self.free_seg(slot);
        }
    }

    fn collect_all(&self) -> Vec<Node> {
        if self.root == NIL {
            return Vec::new();
        }
        self.collect_subtree(self.root)
    }
}

impl Arrangement for SegmentArrangement {
    fn len(&self) -> usize {
        SegmentArrangement::len(self)
    }

    fn node_at(&self, position: usize) -> Node {
        SegmentArrangement::node_at(self, position)
    }

    fn position_of(&self, node: Node) -> usize {
        SegmentArrangement::position_of(self, node)
    }

    fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>> {
        SegmentArrangement::contiguous_range(self, nodes)
    }

    fn move_block(&mut self, src: Range<usize>, dest: usize) -> u64 {
        SegmentArrangement::move_block(self, src, dest)
    }

    fn reverse_block(&mut self, range: Range<usize>) -> u64 {
        SegmentArrangement::reverse_block(self, range)
    }

    fn swap_adjacent_blocks(&mut self, left: Range<usize>, right: Range<usize>) -> u64 {
        SegmentArrangement::swap_adjacent_blocks(self, left, right)
    }

    fn kendall_to(&self, target: &Permutation) -> u64 {
        SegmentArrangement::kendall_to(self, target)
    }

    fn assign(&mut self, target: &Permutation) -> u64 {
        SegmentArrangement::assign(self, target)
    }

    fn coalesce_range(&mut self, range: Range<usize>) {
        SegmentArrangement::coalesce_range(self, range);
    }

    fn to_permutation(&self) -> Permutation {
        SegmentArrangement::to_permutation(self)
    }

    fn oriented_contiguous_range(&self, nodes: &[Node]) -> Option<(Range<usize>, bool)> {
        SegmentArrangement::oriented_contiguous_range(self, nodes)
    }

    fn path_range(&self, path: &[Node]) -> Option<Range<usize>> {
        SegmentArrangement::path_range(self, path)
    }

    fn locate_component(&self, anchor: Node, len: usize) -> Option<(Range<usize>, usize)> {
        SegmentArrangement::locate_component(self, anchor, len)
    }

    fn supports_component_locate(&self) -> bool {
        true
    }

    fn merge_move(&mut self, mover: Range<usize>, stayer: Range<usize>, order: MergeOrder) -> u64 {
        SegmentArrangement::merge_move(self, mover, stayer, order)
    }
}

impl fmt::Debug for SegmentArrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SegmentArrangement[")?;
        for (i, v) in self.collect_all().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", v.raw())?;
        }
        write!(f, "]")
    }
}

impl PartialEq for SegmentArrangement {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.collect_all() == other.collect_all()
    }
}

impl Eq for SegmentArrangement {}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(indices: &[usize]) -> SegmentArrangement {
        SegmentArrangement::from_permutation(&Permutation::from_indices(indices).unwrap())
    }

    #[test]
    fn identity_round_trip() {
        let arr = SegmentArrangement::identity(5);
        for i in 0..5 {
            assert_eq!(arr.node_at(i), Node::new(i));
            assert_eq!(arr.position_of(Node::new(i)), i);
        }
        assert!(arr.check_consistent());
        assert_eq!(arr.to_permutation(), Permutation::identity(5));
    }

    #[test]
    fn codec_roundtrip_preserves_partition_orientation_and_prio_stream() {
        // Build an arrangement whose segments are multi-node, reversed and
        // interleaved, then round-trip it through the byte codec.
        let mut arr = seg(&[3, 0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        arr.coalesce_range(0..3);
        arr.reverse_block(4..7);
        arr.coalesce_range(4..8);
        // A segment that absorbed a node at its storage front: its head
        // moved off zero and its storage wraps around the deque's buffer.
        arr.coalesce_range(9..13);
        arr.coalesce_range(8..13);
        let wrapped = arr.node_seg[8] as usize;
        assert_ne!(arr.tree.head[wrapped], 0);
        assert!(!arr.content[wrapped].as_slices().1.is_empty());
        assert!(arr.check_consistent());
        let order = arr.to_permutation();
        let segments = arr.segment_count();
        let mut bytes = Vec::new();
        arr.encode_into(&mut bytes);
        let mut r = crate::codec::ByteReader::new(&bytes);
        let mut back = SegmentArrangement::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert!(back.check_consistent());
        assert_eq!(back.to_permutation(), order);
        assert_eq!(back.segment_count(), segments);
        assert_eq!(back.prio_counter, arr.prio_counter);
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(
            again, bytes,
            "a decoded arrangement re-encodes to the same bytes"
        );
        // Coalesced components stay locatable after the round trip.
        let (range, _) = back.locate_component(Node::new(3), 3).unwrap();
        assert_eq!(range, 0..3);
        // Future priority draws continue the checkpointed stream.
        assert_eq!(back.next_prio(), arr.next_prio());
    }

    #[test]
    fn codec_rejects_inconsistent_partitions() {
        use crate::codec::{put_bool, put_len, put_u32, put_u64, ByteReader, CodecError};
        // Node out of range.
        let mut bad = Vec::new();
        put_len(&mut bad, 2);
        put_u64(&mut bad, 0);
        put_len(&mut bad, 1);
        put_bool(&mut bad, false);
        put_len(&mut bad, 2);
        put_u32(&mut bad, 0);
        put_u32(&mut bad, 9);
        assert!(matches!(
            SegmentArrangement::decode_from(&mut ByteReader::new(&bad)),
            Err(CodecError::Invalid { .. })
        ));
        // Duplicate node across segments.
        let mut dup = Vec::new();
        put_len(&mut dup, 2);
        put_u64(&mut dup, 0);
        put_len(&mut dup, 2);
        for _ in 0..2 {
            put_bool(&mut dup, false);
            put_len(&mut dup, 1);
            put_u32(&mut dup, 0);
        }
        assert!(matches!(
            SegmentArrangement::decode_from(&mut ByteReader::new(&dup)),
            Err(CodecError::Invalid { .. })
        ));
        // Truncated input.
        let mut arr = SegmentArrangement::identity(4);
        let mut bytes = Vec::new();
        arr.coalesce_range(0..2);
        arr.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                SegmentArrangement::decode_from(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn capacity_guard_rejects_oversized_requests() {
        // The guard runs before any allocation, so asking for more nodes
        // than u32 can address fails cleanly instead of truncating.
        let oversized = crate::MAX_NODES + 1;
        assert!(matches!(
            SegmentArrangement::try_identity(oversized),
            Err(crate::PermutationError::CapacityExceeded { n }) if n == oversized
        ));
        assert!(SegmentArrangement::try_identity(4).is_ok());
    }

    #[test]
    fn empty_arrangement() {
        let arr = SegmentArrangement::identity(0);
        assert!(arr.is_empty());
        assert_eq!(arr.to_permutation(), Permutation::identity(0));
        assert_eq!(arr.contiguous_range(&[]), Some(0..0));
        assert!(arr.check_consistent());
    }

    #[test]
    fn move_block_matches_dense() {
        let mut arr = SegmentArrangement::identity(5);
        let mut pi = Permutation::identity(5);
        assert_eq!(arr.move_block(1..3, 3), pi.move_block(1..3, 3));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
        assert_eq!(arr.move_block(3..5, 1), pi.move_block(3..5, 1));
        assert_eq!(arr.to_permutation(), pi);
        assert_eq!(arr.move_block(1..1, 0), 0);
        assert_eq!(arr.move_block(0..2, 0), 0);
    }

    #[test]
    fn reverse_block_lazy_flag_and_fallback() {
        let mut arr = SegmentArrangement::identity(6);
        let mut pi = Permutation::identity(6);
        // Coalesce 2..5 into one segment, then the reversal is a bit flip.
        arr.coalesce_range(2..5);
        assert_eq!(arr.reverse_block(2..5), pi.reverse_block(2..5));
        assert_eq!(arr.to_permutation(), pi);
        // Multi-segment reversal falls back to compaction.
        assert_eq!(arr.reverse_block(0..6), pi.reverse_block(0..6));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
    }

    #[test]
    fn reversed_segment_lookups() {
        let mut arr = SegmentArrangement::identity(4);
        arr.coalesce_range(0..4);
        arr.reverse_block(0..4);
        assert_eq!(arr.position_of(Node::new(0)), 3);
        assert_eq!(arr.node_at(0), Node::new(3));
        assert!(arr.check_consistent());
    }

    #[test]
    fn swap_adjacent_blocks_matches_dense() {
        let mut arr = seg(&[0, 1, 2, 3, 4]);
        let mut pi = Permutation::from_indices(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(arr.swap_adjacent_blocks(1..3, 3..5), 4);
        pi.swap_adjacent_blocks(1..3, 3..5);
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn swap_non_adjacent_panics() {
        let mut arr = SegmentArrangement::identity(5);
        let _ = arr.swap_adjacent_blocks(0..1, 3..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn move_block_out_of_bounds_panics() {
        let mut arr = SegmentArrangement::identity(3);
        let _ = arr.move_block(1..4, 0);
    }

    #[test]
    fn contiguous_range_fast_and_slow_paths() {
        let mut arr = seg(&[4, 2, 3, 0, 1]);
        // Slow path: nodes spread over singleton segments.
        assert_eq!(
            arr.contiguous_range(&[Node::new(2), Node::new(3)]),
            Some(1..3)
        );
        assert_eq!(arr.contiguous_range(&[Node::new(4), Node::new(3)]), None);
        // Fast path after coalescing.
        arr.coalesce_range(1..3);
        assert_eq!(arr.segment_count(), 4);
        assert_eq!(
            arr.contiguous_range(&[Node::new(2), Node::new(3)]),
            Some(1..3)
        );
        assert_eq!(arr.contiguous_range(&[Node::new(4)]), Some(0..1));
    }

    #[test]
    fn coalesce_orientation_cases() {
        // Every orientation pair, with the left segment smaller than,
        // equal to and larger than the right one: the larger absorbs the
        // smaller at its storage front or back.
        for cut in [2, 3, 4] {
            for (rev_left, rev_right) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let case = format!("cut {cut}, ({rev_left}, {rev_right})");
                let mut arr = SegmentArrangement::identity(6);
                let mut pi = Permutation::identity(6);
                arr.coalesce_range(0..cut);
                arr.coalesce_range(cut..6);
                if rev_left {
                    arr.reverse_block(0..cut);
                    pi.reverse_block(0..cut);
                }
                if rev_right {
                    arr.reverse_block(cut..6);
                    pi.reverse_block(cut..6);
                }
                let writes = arr.node_map_writes();
                arr.coalesce_range(0..6);
                assert_eq!(arr.segment_count(), 1, "{case}");
                assert_eq!(arr.to_permutation(), pi, "{case}");
                assert!(arr.check_consistent(), "{case}");
                let smaller = cut.min(6 - cut) as u64;
                assert_eq!(arr.node_map_writes() - writes, smaller, "{case}");
            }
        }
    }

    #[test]
    fn interior_splits_of_reversed_segments() {
        let mut arr = SegmentArrangement::identity(8);
        let mut pi = Permutation::identity(8);
        arr.coalesce_range(0..8);
        arr.reverse_block(0..8);
        pi.reverse_block(0..8);
        // Move a range that cuts the single reversed segment twice.
        assert_eq!(arr.move_block(2..5, 4), pi.move_block(2..5, 4));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
    }

    #[test]
    fn kendall_and_assign_match_dense() {
        let mut arr = seg(&[2, 0, 1, 3]);
        let target = Permutation::from_indices(&[3, 1, 0, 2]).unwrap();
        let dense = Permutation::from_indices(&[2, 0, 1, 3]).unwrap();
        assert_eq!(arr.kendall_to(&target), dense.kendall_distance(&target));
        let cost = arr.assign(&target);
        assert_eq!(cost, dense.kendall_distance(&target));
        assert_eq!(arr.to_permutation(), target);
        assert_eq!(arr.assign(&target), 0);
        assert!(arr.check_consistent());
    }

    #[test]
    fn debug_format_matches_order() {
        let arr = seg(&[1, 0]);
        assert_eq!(format!("{arr:?}"), "SegmentArrangement[1 0]");
    }

    #[test]
    fn equality_is_by_arrangement_order() {
        let mut a = SegmentArrangement::identity(4);
        let b = SegmentArrangement::identity(4);
        assert_eq!(a, b);
        a.coalesce_range(0..4); // structure differs, order identical
        assert_eq!(a, b);
        a.reverse_block(0..4);
        assert_ne!(a, b);
    }

    #[test]
    fn randomized_ops_match_dense() {
        // Deterministic pseudo-random op fuzz against the dense reference.
        let mut state = 0x1234_5678_u64;
        let mut next = move |bound: usize| {
            state = splitmix64(state);
            (state % bound.max(1) as u64) as usize
        };
        for n in [1usize, 2, 3, 7, 16, 33] {
            let mut arr = SegmentArrangement::identity(n);
            let mut pi = Permutation::identity(n);
            for _ in 0..120 {
                match next(4) {
                    0 => {
                        let start = next(n + 1);
                        let end = start + next(n - start + 1);
                        let len = end - start;
                        let dest = next(n - len + 1);
                        assert_eq!(
                            arr.move_block(start..end, dest),
                            pi.move_block(start..end, dest)
                        );
                    }
                    1 => {
                        let start = next(n + 1);
                        let end = start + next(n - start + 1);
                        assert_eq!(arr.reverse_block(start..end), pi.reverse_block(start..end));
                    }
                    2 => {
                        let start = next(n + 1);
                        let mid = start + next(n - start + 1);
                        let end = mid + next(n - mid + 1);
                        assert_eq!(
                            arr.swap_adjacent_blocks(start..mid, mid..end),
                            pi.swap_adjacent_blocks(start..mid, mid..end)
                        );
                    }
                    _ => {
                        let start = next(n + 1);
                        let end = start + next(n - start + 1);
                        arr.coalesce_range(start..end);
                    }
                }
                assert_eq!(arr.to_permutation(), pi);
                assert!(arr.check_consistent());
            }
        }
    }

    #[test]
    fn locate_component_matches_walk() {
        let mut arr = SegmentArrangement::identity(8);
        arr.coalesce_range(2..5);
        // Nodes 2..5 now live in one segment: the slot-based locate must
        // agree with the member-walk contiguous_range.
        let members = [Node::new(2), Node::new(3), Node::new(4)];
        let walked = arr.contiguous_range(&members).unwrap();
        let (range, anchor_pos) = arr.locate_component(Node::new(3), 3).unwrap();
        assert_eq!(range, walked);
        assert_eq!(arr.node_at(anchor_pos), Node::new(3));
        // A length mismatch means the component is not a single segment:
        // locate must decline rather than guess.
        assert_eq!(arr.locate_component(Node::new(3), 2), None);
        assert_eq!(arr.locate_component(Node::new(0), 3), None);
    }

    #[test]
    fn locate_component_survives_reversal() {
        let mut arr = SegmentArrangement::identity(8);
        arr.coalesce_range(2..6);
        arr.reverse_block(2..6);
        let (range, anchor_pos) = arr.locate_component(Node::new(5), 4).unwrap();
        assert_eq!(range, 2..6);
        assert_eq!(arr.node_at(anchor_pos), Node::new(5));
        assert_eq!(anchor_pos, 2);
    }
}
