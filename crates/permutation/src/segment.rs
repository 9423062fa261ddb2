//! [`SegmentArrangement`]: the segment-based arrangement backend.
//!
//! Every revealed graph in the paper is a disjoint union of cliques or
//! lines, so an online algorithm's arrangement is always a sequence of
//! **component segments**. A merge slides one segment flush against the
//! other and, for lines, reverses or swaps the two inside the merged
//! block (the paper's Figure 2), so over an algorithm run the segments
//! never change their relative order: only their lengths do. This
//! backend stores that sequence as a **flat order index**: every live
//! segment holds a rank in a fixed rank space, and a Fenwick tree over
//! the per-rank lengths (one `u32` array) turns positions into prefix
//! sums.
//!
//! * [`position_of`](SegmentArrangement::position_of) is a prefix sum and
//!   [`node_at`](SegmentArrangement::node_at) a Fenwick descent:
//!   `O(log n)` flat array reads each.
//! * [`merge_move`](SegmentArrangement::merge_move) on two whole segments
//!   — the steady state of every algorithm run — and the two-segment
//!   [`coalesce_range`](SegmentArrangement::coalesce_range) cost two
//!   Fenwick point updates plus a fold. Segment storage is double-ended,
//!   so the larger segment keeps its storage and only the smaller one's
//!   nodes get new node→segment/offset entries: as in union by size, a
//!   node is rewritten only when its segment at least doubles, at most
//!   `⌊log₂ n⌋` times over any merge order.
//! * [`reverse_block`](SegmentArrangement::reverse_block) of a single
//!   segment flips a lazy orientation bit.
//! * Every other block operation reorders or cuts segments, and costs
//!   `O(n)`: it cuts the segments at the range ends, applies the op to
//!   the list of live segments and re-ranks it. These are
//!   [`move_block`](SegmentArrangement::move_block), a multi-segment
//!   reversal, [`swap_adjacent_blocks`](SegmentArrangement::swap_adjacent_blocks),
//!   a general coalesce and the `merge_move` fallback for blocks that
//!   are not whole segments. They keep the backend correct for arbitrary
//!   operation sequences; no algorithm run reaches them, which tests
//!   check with a counter.
//!
//! **Storage.** A segment of two or more nodes keeps them in a
//! double-ended queue in a side table of storage slots. A one-node
//! segment — every segment of a fresh arrangement or of a decoded young
//! session — owns no slot: its node sits in its `SegMeta` as `head`.
//! A segment takes a slot when a fold first gives it a second node and
//! returns it when it is folded away, freed, or cut down to one node, so
//! the identity costs 36 bytes per node: a 20-byte `SegMeta` plus four
//! `u32` arrays, and no heap block per node.
//!
//! The backend is observably identical to the dense [`Permutation`]:
//! same layouts, same costs, same panics (see the equivalence property
//! tests in `tests/properties.rs`).
//!
//! **Supported range:** at most [`MAX_NODES`](crate::MAX_NODES) =
//! `u32::MAX` nodes. Positions, in-segment offsets, segment ids and ranks
//! are stored as `u32` (with `u32::MAX` marking an emptied rank);
//! constructors reject larger node counts up front instead of silently
//! truncating those fields.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use crate::arrangement::{Arrangement, MergeOrder};
use crate::inversions::count_inversions;
use crate::node::Node;
use crate::perm::Permutation;

/// Marks a rank whose segment was folded into another, and a segment
/// that owns no storage slot.
const NIL: u32 = u32::MAX;

/// The lookup fields of one segment. A locate reads all of them for the
/// same segment, so they sit together rather than in parallel arrays.
#[derive(Debug, Clone, Copy)]
struct SegMeta {
    /// Node count (`0` for free ids). For a segment with a storage slot
    /// it mirrors the slot's length, kept in sync by every content
    /// mutator.
    len: u32,
    /// Offset of the storage front: the node at storage index `i` has
    /// `node_off == head + i` (wrapping), so nodes join at either end
    /// without renumbering the rest. A one-node segment owns no slot and
    /// its `head` is its node, so `node_off == head + 0` still holds.
    head: u32,
    /// The segment's place in the rank space.
    rank: u32,
    /// The segment's slot in `stores` iff it has two or more nodes, else
    /// `NIL`.
    store: u32,
    /// Lazy orientation: `true` means the segment reads as the reversed
    /// storage order. One-node segments keep theirs too: a checkpoint
    /// records it.
    reversed: bool,
}

impl SegMeta {
    /// A free id: no nodes, no rank, no slot.
    const FREE: SegMeta = SegMeta {
        len: 0,
        head: 0,
        rank: NIL,
        store: NIL,
        reversed: false,
    };
}

/// A Fenwick tree over `lens` (one entry per rank), built in `O(len)`:
/// entry `i` holds the sum of ranks `i & (i + 1) ..= i`.
fn fenwick_over(lens: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut tree: Vec<u32> = lens.collect();
    for i in 0..tree.len() {
        let covering = i | (i + 1);
        if covering < tree.len() {
            tree[covering] += tree[i];
        }
    }
    tree
}

/// A linear arrangement stored as a sequence of segments over a flat
/// order index: `O(log n)` lookups, and merges of whole segments in two
/// Fenwick point updates plus a fold of the smaller segment.
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
    /// Per segment id: length, head, rank, storage slot and orientation.
    meta: Vec<SegMeta>,
    /// Segment ids that hold no nodes, for reuse.
    free: Vec<u32>,
    /// Storage slots: the nodes of one segment of two or more nodes each,
    /// in storage order (read back to front when the segment is
    /// reversed).
    stores: Vec<VecDeque<Node>>,
    /// Slots that belong to no segment, for reuse (each holds an empty,
    /// unallocated deque).
    free_stores: Vec<u32>,
    /// Per rank: the segment there, or `NIL` once it was folded away.
    at_rank: Vec<u32>,
    /// Fenwick tree over the per-rank segment lengths (`0` at `NIL`
    /// ranks), see [`fenwick_over`].
    fenwick: Vec<u32>,
    /// Node → id of its segment.
    node_seg: Vec<u32>,
    /// Node → offset in its segment's **storage** order, shifted by the
    /// segment's `head`.
    node_off: Vec<u32>,
    /// Node-map entries written so far: one per node that a segment
    /// allocation or a fold pointed at a new segment.
    node_map_writes: u64,
    /// `O(n)` index rebuilds caused by ops that reorder or cut segments.
    index_rebuilds: u64,
}

impl SegmentArrangement {
    /// The identity arrangement: node `i` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`](crate::MAX_NODES) — positions,
    /// in-segment offsets, segment ids and ranks are `u32` (with
    /// `u32::MAX` reserved as the empty-rank marker), so the backend
    /// supports at most `u32::MAX` nodes. Use
    /// [`SegmentArrangement::try_identity`] for a non-panicking variant.
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
        let mut arr = Self::with_segments(n, n);
        let order: Vec<u32> = nodes.map(|v| arr.alloc_one(v, false)).collect();
        debug_assert_eq!(order.len(), n, "builder must supply exactly n nodes");
        arr.rank(order);
        arr
    }

    /// An empty index over `n` nodes with room for `segments` segments;
    /// the caller allocates and ranks them.
    fn with_segments(n: usize, segments: usize) -> Self {
        SegmentArrangement {
            meta: Vec::with_capacity(segments),
            free: Vec::new(),
            stores: Vec::new(),
            free_stores: Vec::new(),
            at_rank: Vec::new(),
            fenwick: Vec::new(),
            node_seg: vec![NIL; n],
            node_off: vec![0; n],
            node_map_writes: 0,
            index_rebuilds: 0,
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
        self.meta.len() - self.free.len()
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
        let (id, index) = self.seg_at(position);
        let meta = self.meta[id as usize];
        if meta.store == NIL {
            return Node::from(meta.head);
        }
        let storage = if meta.reversed {
            meta.len as usize - 1 - index
        } else {
            index
        };
        self.stores[meta.store as usize][storage]
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this arrangement.
    #[must_use]
    pub fn position_of(&self, node: Node) -> usize {
        let id = self.node_seg[node.index()];
        self.seg_start(id) + self.in_seg_index(node)
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
    /// for coalesced components) this costs `O(|nodes|)` segment-id
    /// comparisons plus one `O(log n)` prefix sum; otherwise it falls back
    /// to the dense backend's min/max scan at `O(|nodes| log n)`.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>> {
        if nodes.is_empty() {
            return Some(0..0);
        }
        if let Some(id) = self.whole_segment(nodes) {
            let start = self.seg_start(id);
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
    /// `dest`. Returns the closed-form cost `src.len() × |dest − src.start|`.
    /// Rebuilds the index in `O(n)`.
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
        let mut order = self.live_order();
        let first = self.cut(&mut order, src.start);
        let end = self.cut(&mut order, src.end);
        let block: Vec<u32> = order.drain(first..end).collect();
        let at = self.cut(&mut order, dest);
        order.splice(at..at, block);
        self.rebuild(order);
        cost
    }

    /// Reverses the block occupying `range`. Returns the cost
    /// `C(len, 2)`. A single-segment range flips a lazy orientation bit;
    /// any other range rebuilds the index in `O(n)`, and a multi-segment
    /// one is compacted into one reversed segment.
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
        if let Some(id) = self.exact_segment(&range) {
            self.flip_seg(id);
            return cost;
        }
        let mut order = self.live_order();
        let first = self.cut(&mut order, range.start);
        let end = self.cut(&mut order, range.end);
        if end - first == 1 {
            self.flip_seg(order[first]);
        } else {
            self.compact(&mut order, first..end, true);
        }
        self.rebuild(order);
        cost
    }

    /// Swaps two adjacent blocks, preserving internal orders. Returns the
    /// cost `left.len() × right.len()`. Rebuilds the index in `O(n)`.
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
        let mut order = self.live_order();
        let first = self.cut(&mut order, left.start);
        let mid = self.cut(&mut order, left.start + left.len());
        let end = self.cut(&mut order, left.start + left.len() + right.len());
        order[first..end].rotate_left(mid - first);
        self.rebuild(order);
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
        self.meta.clear();
        self.free.clear();
        self.stores.clear();
        self.free_stores.clear();
        let order = if target.is_empty() {
            Vec::new()
        } else {
            vec![self.alloc_seg(target.iter().copied().collect(), false)]
        };
        self.rank(order);
        cost
    }

    /// Compacts the segments covering `range` into one (the hint emitted
    /// by the update mechanics after each component merge). Never changes
    /// the observable arrangement. Two whole adjacent segments — the shape
    /// a merge leaves — cost `O(smaller segment + log n)`: the larger one
    /// absorbs the smaller at whichever storage end faces it. Any other
    /// range rebuilds the index in `O(n)`.
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
        let (first, first_index) = self.seg_at(range.start);
        let (last, last_index) = self.seg_at(range.end - 1);
        if first == last {
            return;
        }
        // Fast path — the shape every merge update produces: exactly two
        // adjacent segments. The larger absorbs the smaller, whose rank
        // is emptied.
        if first_index == 0
            && last_index == self.seg_len(last) - 1
            && self.seg_len(first) + self.seg_len(last) == range.len()
        {
            let (keep, gone, gone_is_left) = self.larger_first(first, last);
            self.vacate(gone, keep);
            self.absorb(keep, gone, gone_is_left);
            return;
        }
        let mut order = self.live_order();
        let first = self.cut(&mut order, range.start);
        let end = self.cut(&mut order, range.end);
        if end - first == 2 {
            let (keep, gone, gone_is_left) = self.larger_first(order[first], order[first + 1]);
            self.absorb(keep, gone, gone_is_left);
            order.splice(first..end, [keep]);
        } else {
            self.compact(&mut order, first..end, false);
        }
        self.rebuild(order);
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
    /// second lookup.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn oriented_contiguous_range(&self, nodes: &[Node]) -> Option<(Range<usize>, bool)> {
        if nodes.is_empty() {
            return Some((0..0, true));
        }
        if let Some(id) = self.whole_segment(nodes) {
            let start = self.seg_start(id);
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
    /// one `O(log n)` prefix sum; otherwise it falls back to one
    /// `O(log n)` position lookup per node.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    #[must_use]
    pub fn path_range(&self, path: &[Node]) -> Option<Range<usize>> {
        if path.is_empty() {
            return Some(0..0);
        }
        if let Some(id) = self.whole_segment(path) {
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
            let start = self.seg_start(id);
            return Some(start..start + path.len());
        }
        crate::arrangement::monotone_path_range(path, |v| self.position_of(v))
    }

    /// Completes one merge update in a single pass — see
    /// [`Arrangement::merge_move`] for the contract. The fast path (both
    /// blocks whole segments, the steady state under coalesce hints) is
    /// two Fenwick point updates — the mover's length leaves its rank for
    /// the stayer's — plus a fold of the two segments at the stayer's
    /// rank. A reversal in `order` flips that segment's lazy orientation
    /// flag, and the swap only picks the side of the stayer the mover
    /// folds onto. The fold keeps the larger segment's storage; when that
    /// is the mover's, the mover takes over the stayer's rank.
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
        let (Some(moving), Some(staying)) =
            (self.exact_segment(&mover), self.exact_segment(&stayer))
        else {
            return crate::arrangement::primitive_merge_move(self, mover, stayer, order);
        };
        let gap = dest.abs_diff(mover.start);
        let cost = (mover.len() as u64) * (gap as u64);
        if order.reverse_mover {
            self.flip_seg(moving);
        }
        if order.reverse_stayer {
            self.flip_seg(staying);
        }
        self.vacate(moving, staying);
        let mover_is_left = (mover.start < stayer.start) != order.swap;
        if mover.len() > stayer.len() {
            // The mover keeps its storage and takes over the stayer's rank.
            let rank = self.meta[staying as usize].rank;
            self.meta[moving as usize].rank = rank;
            self.at_rank[rank as usize] = moving;
            self.absorb(moving, staying, !mover_is_left);
        } else {
            self.absorb(staying, moving, mover_is_left);
        }
        cost
    }

    /// Resolves a coalesced component's block from one member in
    /// `O(log n)` — see [`Arrangement::locate_component`] for the full
    /// contract. The segment backend keeps every coalesced component as
    /// exactly one segment, so the anchor's segment *is* the block: the
    /// answer needs one array lookup plus one prefix sum, never a member
    /// walk. Returns `None` when the anchor's segment length disagrees
    /// with `len` (the component is not — or not yet — one segment, e.g.
    /// mid-way through a primitive-op sequence), signalling the caller to
    /// fall back to the member-walking locate.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of range.
    #[must_use]
    pub fn locate_component(&self, anchor: Node, len: usize) -> Option<(Range<usize>, usize)> {
        let id = self.node_seg[anchor.index()];
        if self.seg_len(id) != len {
            return None;
        }
        let start = self.seg_start(id);
        let anchor_pos = start + self.in_seg_index(anchor);
        Some((start..start + len, anchor_pos))
    }

    /// Checks internal consistency: ranks and segment ids must point at
    /// each other, the Fenwick tree must sum the per-rank lengths, every
    /// id must be live or free (free ones empty and slotless), a live
    /// segment must own a storage slot iff it has two or more nodes, the
    /// length mirror must agree with its slot, every slot must belong to
    /// exactly one live segment or be free (free ones unallocated), the
    /// node maps must agree with the storage (a slotless segment's `head`
    /// is its node), and both lookup directions must agree with the
    /// materialized order. Used by tests.
    #[doc(hidden)]
    #[must_use]
    pub fn check_consistent(&self) -> bool {
        let order = self.collect_all();
        if order.len() != self.len() {
            return false;
        }
        let live = self.live_order();
        // Every slot is claimed exactly once: by the live segment it
        // stores, or by the free list.
        let mut claimed = vec![false; self.stores.len()];
        let mut claim = |slot: u32| match claimed.get_mut(slot as usize) {
            Some(seen) if !*seen => {
                *seen = true;
                true
            }
            _ => false,
        };
        let slots_agree = live.iter().all(|&id| {
            let meta = self.meta[id as usize];
            if meta.len < 2 {
                meta.store == NIL
            } else {
                claim(meta.store) && self.stores[meta.store as usize].len() == meta.len as usize
            }
        }) && self
            .free_stores
            .iter()
            .all(|&slot| claim(slot) && self.stores[slot as usize].capacity() == 0);
        if !slots_agree || claimed.contains(&false) {
            return false;
        }
        let ranked = self.at_rank.iter().enumerate().all(|(rank, &id)| {
            id == NIL || (self.meta[id as usize].rank as usize == rank && self.seg_len(id) > 0)
        });
        let lens = self.at_rank.iter().map(|&id| {
            if id == NIL {
                0
            } else {
                self.meta[id as usize].len
            }
        });
        if !ranked
            || fenwick_over(lens) != self.fenwick
            || live.len() + self.free.len() != self.meta.len()
            || self.free.iter().any(|&id| {
                let meta = self.meta[id as usize];
                meta.len != 0 || meta.store != NIL
            })
        {
            return false;
        }
        let maps_agree = live.iter().all(|&id| {
            let head = self.meta[id as usize].head;
            self.storage(id).enumerate().all(|(i, v)| {
                self.node_seg[v.index()] == id
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

    /// `O(n)` index rebuilds since construction or decode: one per block
    /// operation that reordered or cut segments. Construction, decode and
    /// [`assign`](SegmentArrangement::assign) do not count. Used by tests
    /// to check that algorithm runs never take these paths.
    #[doc(hidden)]
    #[must_use]
    pub fn index_rebuilds(&self) -> u64 {
        self.index_rebuilds
    }

    /// Serializes the arrangement for the checkpoint stack: node count,
    /// then the live segments in position order (storage-order node list
    /// and lazy-reversal flag each).
    ///
    /// Segment ids and ranks are deliberately **not** encoded — they are
    /// unobservable (every cost is closed-form in positions and sizes)
    /// and a decode ranks the same segments afresh. The partition itself
    /// *is* observable: `locate_component` trusts that an algorithm run
    /// keeps every component one coalesced segment, so a checkpoint must
    /// restore the exact segment boundaries, storage orders and
    /// orientation flags, not just the flat permutation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        crate::codec::put_len(out, self.len());
        crate::codec::put_len(out, self.segment_count());
        for id in self.live_order() {
            let meta = self.meta[id as usize];
            crate::codec::put_bool(out, meta.reversed);
            crate::codec::put_len(out, meta.len as usize);
            if meta.store == NIL {
                crate::codec::put_u32(out, meta.head);
                continue;
            }
            // The slot's two slices, not `storage`: that iterator made
            // this loop up to a third slower on small segments.
            let (front, back) = self.stores[meta.store as usize].as_slices();
            for v in front.iter().chain(back) {
                crate::codec::put_u32(out, v.raw());
            }
        }
    }

    /// Decodes an arrangement written by
    /// [`SegmentArrangement::encode_into`] under checkpoint format
    /// `version`, re-validating that the segments partition `0..n`
    /// (every node exactly once, no empty segment) before ranking them.
    ///
    /// # Errors
    ///
    /// [`CodecError`](crate::codec::CodecError) on truncated input or an
    /// inconsistent segment partition.
    pub fn decode_from(
        r: &mut crate::codec::ByteReader<'_>,
        version: u32,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        // Counts that size an allocation are bounded by what the rest of
        // the input can hold (a node is a 4-byte entry, a segment at
        // least 13 bytes), so a short body fails before allocating.
        let n = r.count(crate::MAX_NODES.min(r.remaining() / 4), "arrangement node")?;
        if version < 3 {
            // Formats 1 and 2 store an 8-byte counter here: the state of
            // the random stream that balanced the search tree this index
            // replaced. Nothing reads it.
            r.u64()?;
        }
        let seg_count = r.count(n.min(r.remaining() / 13), "segment")?;
        let mut arr = Self::with_segments(n, seg_count);
        let mut seen = vec![false; n];
        let mut node = |r: &mut crate::codec::ByteReader<'_>| {
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
            Ok(Node::new(raw))
        };
        let mut covered = 0usize;
        let mut order = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            let reversed = r.bool("segment reversal")?;
            let len = r.count((n - covered).min(r.remaining() / 4), "segment length")?;
            let id = match len {
                0 => return Err(CodecError::invalid("empty segment in arrangement")),
                1 => arr.alloc_one(node(r)?, reversed),
                _ => {
                    let mut nodes = VecDeque::with_capacity(len);
                    for _ in 0..len {
                        nodes.push_back(node(r)?);
                    }
                    arr.alloc_seg(nodes, reversed)
                }
            };
            covered += len;
            order.push(id);
        }
        if covered != n {
            return Err(CodecError::invalid(format!(
                "segments cover {covered} of {n} nodes"
            )));
        }
        arr.rank(order);
        Ok(arr)
    }

    // ---- the order index ----------------------------------------------

    /// Node count of segment `id` (the length mirror).
    fn seg_len(&self, id: u32) -> usize {
        self.meta[id as usize].len as usize
    }

    /// Position of segment `id`'s first node: the Fenwick prefix sum over
    /// every rank before its own.
    fn seg_start(&self, id: u32) -> usize {
        let mut end = self.meta[id as usize].rank as usize;
        let mut start = 0;
        while end > 0 {
            start += self.fenwick[end - 1] as usize;
            end &= end - 1;
        }
        start
    }

    /// The segment holding `position` and the position's index inside it
    /// (arrangement order), by one Fenwick descent. `position` must be in
    /// bounds.
    fn seg_at(&self, position: usize) -> (u32, usize) {
        let ranks = self.fenwick.len();
        let mut below = 0;
        let mut rest = position;
        let mut step = ranks.checked_ilog2().map_or(0, |bits| 1 << bits);
        while step > 0 {
            let next = below + step;
            if next <= ranks && self.fenwick[next - 1] as usize <= rest {
                below = next;
                rest -= self.fenwick[next - 1] as usize;
            }
            step >>= 1;
        }
        (self.at_rank[below], rest)
    }

    /// Moves segment `gone`'s length onto segment `onto`'s rank and
    /// empties `gone`'s rank: two Fenwick point updates. The caller then
    /// folds `gone`'s nodes into the segment at `onto`'s rank.
    fn vacate(&mut self, gone: u32, onto: u32) {
        let SegMeta { rank, len, .. } = self.meta[gone as usize];
        let from = rank as usize;
        let ranks = self.fenwick.len();
        let mut i = from;
        while i < ranks {
            self.fenwick[i] -= len;
            i |= i + 1;
        }
        let mut i = self.meta[onto as usize].rank as usize;
        while i < ranks {
            self.fenwick[i] += len;
            i |= i + 1;
        }
        self.at_rank[from] = NIL;
    }

    /// Gives the segments `order` (position order) the ranks `0..` and
    /// builds the Fenwick tree over their lengths, in `O(order)`.
    fn rank(&mut self, order: Vec<u32>) {
        for (rank, &id) in order.iter().enumerate() {
            self.meta[id as usize].rank = rank as u32;
        }
        self.fenwick = fenwick_over(order.iter().map(|&id| self.meta[id as usize].len));
        self.at_rank = order;
    }

    /// [`rank`](Self::rank) after an op that reordered or cut segments:
    /// the `O(n)` rebuild that no algorithm run reaches.
    fn rebuild(&mut self, order: Vec<u32>) {
        self.index_rebuilds += 1;
        self.rank(order);
    }

    /// The live segments in position order.
    fn live_order(&self) -> Vec<u32> {
        self.at_rank
            .iter()
            .copied()
            .filter(|&id| id != NIL)
            .collect()
    }

    /// Cuts the segments `order` (position order) at `position`: a
    /// segment that straddles it is split in two. Returns the index in
    /// `order` of the first segment at or right of `position`.
    fn cut(&mut self, order: &mut Vec<u32>, position: usize) -> usize {
        let mut start = 0;
        for i in 0..order.len() {
            if start == position {
                return i;
            }
            let len = self.seg_len(order[i]);
            if position < start + len {
                let tail = self.split_seg(order[i], position - start);
                order.insert(i + 1, tail);
                return i + 1;
            }
            start += len;
        }
        order.len()
    }

    /// Replaces the segments `order[range]` by one new segment holding
    /// their nodes in arrangement order, read reversed if `reversed`.
    fn compact(&mut self, order: &mut Vec<u32>, range: Range<usize>, reversed: bool) {
        let mut nodes = VecDeque::new();
        for &id in &order[range.clone()] {
            self.extend_arranged(&mut nodes, id);
            self.free_seg(id);
        }
        let id = self.alloc_seg(nodes, reversed);
        order.splice(range, [id]);
    }

    /// Allocates an unranked segment holding `nodes` in storage order and
    /// points their node-map entries at it. A single node takes no
    /// storage slot (see [`alloc_one`](Self::alloc_one)).
    fn alloc_seg(&mut self, nodes: VecDeque<Node>, reversed: bool) -> u32 {
        if nodes.len() == 1 {
            return self.alloc_one(nodes[0], reversed);
        }
        let id = self.alloc_id();
        for (off, v) in nodes.iter().enumerate() {
            self.node_seg[v.index()] = id;
            self.node_off[v.index()] = off as u32;
        }
        self.node_map_writes += nodes.len() as u64;
        self.meta[id as usize] = SegMeta {
            len: nodes.len() as u32,
            head: 0,
            rank: NIL,
            store: self.put_store(nodes),
            reversed,
        };
        id
    }

    /// Allocates an unranked one-node segment holding `v`: it owns no
    /// storage slot, and its `head` is `v`.
    fn alloc_one(&mut self, v: Node, reversed: bool) -> u32 {
        let id = self.alloc_id();
        self.node_seg[v.index()] = id;
        self.node_off[v.index()] = v.raw();
        self.node_map_writes += 1;
        self.meta[id as usize] = SegMeta {
            len: 1,
            head: v.raw(),
            rank: NIL,
            store: NIL,
            reversed,
        };
        id
    }

    /// A free segment id, reused or new.
    fn alloc_id(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.meta.push(SegMeta::FREE);
            (self.meta.len() - 1) as u32
        })
    }

    /// Puts `nodes` in a storage slot, reused or new, and returns it.
    fn put_store(&mut self, nodes: VecDeque<Node>) -> u32 {
        match self.free_stores.pop() {
            Some(slot) => {
                self.stores[slot as usize] = nodes;
                slot
            }
            None => {
                self.stores.push(nodes);
                (self.stores.len() - 1) as u32
            }
        }
    }

    /// Returns storage slot `slot` to the free slots, dropping its nodes.
    fn free_store(&mut self, slot: u32) {
        self.stores[slot as usize] = VecDeque::new();
        self.free_stores.push(slot);
    }

    /// Returns `id` to the free list, and its storage slot, if any, to
    /// the free slots.
    fn free_seg(&mut self, id: u32) {
        let meta = std::mem::replace(&mut self.meta[id as usize], SegMeta::FREE);
        if meta.store != NIL {
            self.free_store(meta.store);
        }
        self.free.push(id);
    }

    /// Cuts the first `cut` arrangement-order nodes off segment `id`,
    /// keeping them in `id`; returns a new unranked segment holding the
    /// remainder. A piece left with one node gives up its storage slot.
    /// `O(segment)`.
    fn split_seg(&mut self, id: u32, cut: usize) -> u32 {
        let i = id as usize;
        let SegMeta {
            len,
            store,
            reversed,
            ..
        } = self.meta[i];
        debug_assert!(cut > 0 && cut < len as usize, "interior cut expected");
        // A reversed segment reads its storage back to front, so its
        // first `cut` arrangement nodes are its last `cut` storage nodes:
        // they stay in `id` under a head advanced past the cut-off front.
        let at = if reversed { len as usize - cut } else { cut };
        let kept = &mut self.stores[store as usize];
        let mut rest = kept.split_off(at);
        if reversed {
            std::mem::swap(kept, &mut rest);
            self.meta[i].head = self.meta[i].head.wrapping_add(at as u32);
        }
        self.meta[i].len = kept.len() as u32;
        if kept.len() == 1 {
            let v = kept[0];
            self.meta[i].head = v.raw();
            self.meta[i].store = NIL;
            self.node_off[v.index()] = v.raw();
            self.free_store(store);
        }
        self.alloc_seg(rest, reversed)
    }

    /// The segment `nodes` are exactly, if they are one.
    fn whole_segment(&self, nodes: &[Node]) -> Option<u32> {
        let id = self.node_seg[nodes.first()?.index()];
        (self.seg_len(id) == nodes.len() && nodes.iter().all(|&v| self.node_seg[v.index()] == id))
            .then_some(id)
    }

    /// The arrangement-order index of `node` inside its segment.
    fn in_seg_index(&self, node: Node) -> usize {
        let meta = &self.meta[self.node_seg[node.index()] as usize];
        let storage = self.node_off[node.index()].wrapping_sub(meta.head) as usize;
        if meta.reversed {
            meta.len as usize - 1 - storage
        } else {
            storage
        }
    }

    /// Returns the segment iff `range` covers exactly one segment.
    fn exact_segment(&self, range: &Range<usize>) -> Option<u32> {
        if range.is_empty() {
            return None;
        }
        let (id, index) = self.seg_at(range.start);
        (index == 0 && self.seg_len(id) == range.len()).then_some(id)
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
    /// orders, and frees `gone`. `keep`'s storage grows at whichever end
    /// faces `gone`, so only `gone`'s nodes get new node-map entries:
    /// callers pass the larger segment as `keep`, and a node is then
    /// rewritten only when its segment at least doubles. Ranks and the
    /// Fenwick tree are NOT touched — callers do that.
    fn absorb(&mut self, keep: u32, gone: u32, gone_is_left: bool) {
        let gone_meta = self.meta[gone as usize];
        let moved = gone_meta.len;
        // A one-node `gone` holds its node as its head; a longer one
        // hands over its slot's nodes.
        let (lone, nodes) = match gone_meta.store {
            NIL => (Some(Node::from(gone_meta.head)), VecDeque::new()),
            slot => (None, std::mem::take(&mut self.stores[slot as usize])),
        };
        self.free_seg(gone);
        let k = keep as usize;
        if self.meta[k].store == NIL {
            // A fold first gives `keep` a second node: its one node moves
            // into a slot at storage index 0, where `head` already is.
            let mut storage = VecDeque::with_capacity(1 + moved as usize);
            storage.push_back(Node::from(self.meta[k].head));
            self.meta[k].store = self.put_store(storage);
        }
        // `gone`'s nodes go in nearest the seam first: its arrangement
        // order when it joins on the right, reversed when on the left.
        let backward = gone_is_left != gone_meta.reversed;
        let at_front = gone_is_left != self.meta[k].reversed;
        let storage = &mut self.stores[self.meta[k].store as usize];
        storage.reserve(moved as usize);
        let head = &mut self.meta[k].head;
        let (node_seg, node_off) = (&mut self.node_seg, &mut self.node_off);
        let push = |v: Node| {
            let off = if at_front {
                storage.push_front(v);
                *head = head.wrapping_sub(1);
                *head
            } else {
                storage.push_back(v);
                head.wrapping_add((storage.len() - 1) as u32)
            };
            node_seg[v.index()] = keep;
            node_off[v.index()] = off;
        };
        let nodes = lone.into_iter().chain(nodes);
        if backward {
            nodes.rev().for_each(push);
        } else {
            nodes.for_each(push);
        }
        self.node_map_writes += u64::from(moved);
        self.meta[k].len += moved;
    }

    /// Reverses segment `id`'s reading order by flipping its lazy flag.
    /// A singleton keeps its flag: reversing it is a no-op, as in
    /// [`reverse_block`](Self::reverse_block).
    fn flip_seg(&mut self, id: u32) {
        if self.seg_len(id) > 1 {
            let reversed = &mut self.meta[id as usize].reversed;
            *reversed = !*reversed;
        }
    }

    /// Segment `id`'s nodes in storage order.
    fn storage(&self, id: u32) -> impl DoubleEndedIterator<Item = Node> + '_ {
        static NO_SLOT: VecDeque<Node> = VecDeque::new();
        let meta = self.meta[id as usize];
        let (lone, stored) = match meta.store {
            NIL => (Some(Node::from(meta.head)), &NO_SLOT),
            slot => (None, &self.stores[slot as usize]),
        };
        lone.into_iter().chain(stored.iter().copied())
    }

    /// Appends segment `id`'s nodes in arrangement order.
    fn extend_arranged(&self, out: &mut impl Extend<Node>, id: u32) {
        if self.meta[id as usize].reversed {
            out.extend(self.storage(id).rev());
        } else {
            out.extend(self.storage(id));
        }
    }

    fn collect_all(&self) -> Vec<Node> {
        let mut out = Vec::with_capacity(self.len());
        for id in self.live_order() {
            self.extend_arranged(&mut out, id);
        }
        out
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

    /// The checkpoint format this build writes.
    const FORMAT: u32 = 3;

    /// SplitMix64, the op fuzz's random stream.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

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

    /// Segment ids of `arr` that own a storage slot.
    fn slotted(arr: &SegmentArrangement) -> Vec<u32> {
        arr.live_order()
            .into_iter()
            .filter(|&id| arr.meta[id as usize].store != NIL)
            .collect()
    }

    fn reencoded(arr: &SegmentArrangement) -> (Vec<u8>, SegmentArrangement) {
        let mut bytes = Vec::new();
        arr.encode_into(&mut bytes);
        let mut r = crate::codec::ByteReader::new(&bytes);
        let back = SegmentArrangement::decode_from(&mut r, FORMAT).unwrap();
        r.finish().unwrap();
        (bytes, back)
    }

    #[test]
    fn one_node_segments_own_no_storage() {
        assert_eq!(std::mem::size_of::<SegMeta>(), 20);
        let arr = seg(&[3, 1, 4, 0, 2]);
        assert!(arr.stores.is_empty() && slotted(&arr).is_empty());
        for v in 0..5 {
            let meta = arr.meta[arr.node_seg[v] as usize];
            assert_eq!((meta.head, arr.node_off[v]), (v as u32, v as u32));
        }
        assert!(arr.check_consistent());
        // A decoded all-singleton body takes no slot either.
        let (bytes, back) = reencoded(&arr);
        assert!(back.stores.is_empty() && back.check_consistent());
        assert_eq!(reencoded(&back).0, bytes);
    }

    #[test]
    fn folds_take_and_return_storage_slots() {
        let mut arr = SegmentArrangement::identity(8);
        // Two singletons fold into one slot.
        arr.coalesce_range(1..3);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (1, 0));
        assert_eq!(slotted(&arr), vec![arr.node_seg[1]]);
        assert!(arr.check_consistent());
        // A singleton folds into a slotted segment without a new slot.
        arr.merge_move(0..1, 1..3, MergeOrder::KEEP);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (1, 0));
        // Two slotted segments fold: the smaller one's slot is freed...
        arr.coalesce_range(3..5);
        assert_eq!(slotted(&arr).len(), 2);
        arr.coalesce_range(0..5);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (2, 1));
        assert!(arr.check_consistent());
        // ...and the next fold of two singletons reuses it.
        arr.coalesce_range(6..8);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (2, 0));
        assert!(arr.check_consistent());
        arr.merge_move(5..6, 0..5, MergeOrder::KEEP);
        arr.merge_move(0..6, 6..8, MergeOrder::KEEP);
        assert_eq!((arr.segment_count(), slotted(&arr).len()), (1, 1));
        assert!(arr.check_consistent());
    }

    #[test]
    fn cuts_leave_one_node_pieces_without_storage() {
        // Node 3 ends up as the one-node piece at the arrangement-left
        // end of a reversed segment, node 0 at its right end; both keep
        // the segment's orientation flag, which a checkpoint records.
        let mut arr = SegmentArrangement::identity(6);
        let mut pi = Permutation::identity(6);
        arr.coalesce_range(0..4);
        arr.reverse_block(0..4);
        pi.reverse_block(0..4);
        assert_eq!(arr.reverse_block(1..3), pi.reverse_block(1..3));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
        for v in [3, 0] {
            let meta = arr.meta[arr.node_seg[v] as usize];
            assert_eq!((meta.len, meta.store, meta.head), (1, NIL, v as u32));
            assert!(meta.reversed);
        }
        assert_eq!(slotted(&arr).len(), 1);
        let (bytes, back) = reencoded(&arr);
        assert!(back.check_consistent());
        assert_eq!(back.to_permutation(), pi);
        assert_eq!(reencoded(&back).0, bytes);
        // A forward segment cut down to one node at either end too.
        let mut arr = SegmentArrangement::identity(5);
        let mut pi = Permutation::identity(5);
        arr.coalesce_range(0..5);
        assert_eq!(arr.move_block(1..4, 2), pi.move_block(1..4, 2));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.check_consistent());
        let (bytes, back) = reencoded(&arr);
        assert_eq!(reencoded(&back).0, bytes);
    }

    #[test]
    fn codec_roundtrip_preserves_partition_and_orientation() {
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
        assert_ne!(arr.meta[wrapped].head, 0);
        let slot = arr.meta[wrapped].store as usize;
        assert!(!arr.stores[slot].as_slices().1.is_empty());
        assert!(arr.check_consistent());
        let order = arr.to_permutation();
        let segments = arr.segment_count();
        let mut bytes = Vec::new();
        arr.encode_into(&mut bytes);
        let mut r = crate::codec::ByteReader::new(&bytes);
        let mut back = SegmentArrangement::decode_from(&mut r, FORMAT).unwrap();
        r.finish().unwrap();
        assert!(back.check_consistent());
        assert_eq!(back.to_permutation(), order);
        assert_eq!(back.segment_count(), segments);
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(
            again, bytes,
            "a decoded arrangement re-encodes to the same bytes"
        );
        // Formats 1 and 2 carry an unread 8-byte word after the node count.
        let mut old = bytes[..8].to_vec();
        crate::codec::put_u64(&mut old, 0x0123_4567_89ab_cdef);
        old.extend_from_slice(&bytes[8..]);
        for version in [1, 2] {
            let mut r = crate::codec::ByteReader::new(&old);
            let from_old = SegmentArrangement::decode_from(&mut r, version).unwrap();
            r.finish().unwrap();
            let mut reencoded = Vec::new();
            from_old.encode_into(&mut reencoded);
            assert_eq!(reencoded, bytes, "format {version}");
        }
        // Coalesced components stay locatable after the round trip, and
        // merges keep working on the decoded index.
        let (range, _) = back.locate_component(Node::new(3), 3).unwrap();
        assert_eq!(range, 0..3);
        back.merge_move(0..3, 3..4, MergeOrder::KEEP);
        assert!(back.check_consistent());
    }

    #[test]
    fn codec_rejects_inconsistent_partitions() {
        use crate::codec::{put_bool, put_len, put_u32, ByteReader, CodecError};
        // Node out of range.
        let mut bad = Vec::new();
        put_len(&mut bad, 2);
        put_len(&mut bad, 1);
        put_bool(&mut bad, false);
        put_len(&mut bad, 2);
        put_u32(&mut bad, 0);
        put_u32(&mut bad, 9);
        assert!(matches!(
            SegmentArrangement::decode_from(&mut ByteReader::new(&bad), FORMAT),
            Err(CodecError::Invalid { .. })
        ));
        // Duplicate node across segments.
        let mut dup = Vec::new();
        put_len(&mut dup, 2);
        put_len(&mut dup, 2);
        for _ in 0..2 {
            put_bool(&mut dup, false);
            put_len(&mut dup, 1);
            put_u32(&mut dup, 0);
        }
        assert!(matches!(
            SegmentArrangement::decode_from(&mut ByteReader::new(&dup), FORMAT),
            Err(CodecError::Invalid { .. })
        ));
        // Truncated input.
        let mut arr = SegmentArrangement::identity(4);
        let mut bytes = Vec::new();
        arr.coalesce_range(0..2);
        arr.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                SegmentArrangement::decode_from(&mut ByteReader::new(&bytes[..cut]), FORMAT)
                    .is_err(),
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

    #[test]
    fn only_reorder_and_cut_ops_rebuild_the_index() {
        let mut arr = SegmentArrangement::identity(8);
        // The ops of an algorithm run: whole-segment merges, two-segment
        // coalesces, single-segment reversals and jumps.
        arr.coalesce_range(0..2);
        arr.merge_move(5..6, 0..2, MergeOrder::KEEP);
        arr.merge_move(
            0..3,
            6..7,
            MergeOrder {
                reverse_mover: true,
                reverse_stayer: false,
                swap: true,
            },
        );
        arr.reverse_block(3..7);
        arr.assign(&Permutation::from_indices(&[7, 6, 5, 4, 3, 2, 1, 0]).unwrap());
        assert_eq!(arr.index_rebuilds(), 0);
        assert!(arr.check_consistent());
        // A move reorders segments and cuts the one it lands in.
        let mut pi = arr.to_permutation();
        assert_eq!(arr.move_block(0..2, 3), pi.move_block(0..2, 3));
        assert_eq!(arr.to_permutation(), pi);
        assert!(arr.index_rebuilds() >= 1);
        assert!(arr.check_consistent());
    }
}
