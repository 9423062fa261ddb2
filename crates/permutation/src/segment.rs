//! [`SegmentArrangement`]: the segment-based arrangement backend.
//!
//! Every revealed graph in the paper is a disjoint union of cliques or
//! lines, so an online algorithm's arrangement is always a sequence of
//! **component blocks**, and this backend stores each component as one
//! segment. A merge slides one segment flush against the other and, for
//! lines, reverses or swaps the two inside the merged block (the paper's
//! Figure 2), so over an algorithm run the segments never change their
//! relative order and are never split: only their lengths change. The
//! sequence is a **flat order index**: every live segment holds a rank
//! in a fixed rank space, and a Fenwick tree over the per-rank lengths
//! (one `u32` array) turns positions into prefix sums.
//!
//! * [`position_of`](SegmentArrangement::position_of) is a prefix sum and
//!   [`node_at`](SegmentArrangement::node_at) a Fenwick descent:
//!   `O(log n)` flat array reads each.
//! * [`merge_move`](SegmentArrangement::merge_move) of two whole segments
//!   costs two Fenwick point updates plus a fold. Segment storage is
//!   double-ended, so the larger segment keeps its storage and only the
//!   smaller one's nodes get new node→segment/offset entries: as in union
//!   by size, a node is rewritten only when its segment at least
//!   doubles, at most `⌊log₂ n⌋` times over any merge order. A reversal
//!   in the merge flips a lazy orientation bit.
//! * [`assign`](SegmentArrangement::assign) jumps to a target and keeps
//!   the whole arrangement as one segment.
//!
//! A block that is not exactly one segment has no operation here: an
//! algorithm run never asks for one, and
//! [`merge_move`](SegmentArrangement::merge_move) panics on it.
//!
//! **Storage.** A segment of two or more nodes keeps them in a
//! double-ended queue in a side table of storage slots. A one-node
//! segment — every segment of a fresh arrangement or of a decoded young
//! session — owns no slot: its node sits in its `SegMeta` as `head`.
//! A segment takes a slot when a fold first gives it a second node and
//! returns it when it is folded away, so the identity costs 36 bytes per
//! node: a 20-byte `SegMeta` plus four `u32` arrays, and no heap block
//! per node.
//!
//! On those calls the backend is observably identical to the dense
//! [`Permutation`]: same layouts, same costs, same panics on invalid
//! ranges (see the equivalence property tests in `tests/properties.rs`).
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
/// use mla_permutation::{MergeOrder, Node, SegmentArrangement};
///
/// let mut arr = SegmentArrangement::identity(4);
/// // Node 0 slides over nodes 1 and 2 to sit left of node 3.
/// let cost = arr.merge_move(0..1, 3..4, MergeOrder::KEEP);
/// assert_eq!(cost, 2);
/// assert_eq!(arr.to_permutation().to_index_vec(), vec![1, 2, 0, 3]);
/// assert_eq!(arr.position_of(Node::new(0)), 2);
/// // The merged block {0, 3} moves as one segment, and reversing it
/// // flips a lazy bit.
/// let flip = MergeOrder { reverse_mover: true, ..MergeOrder::KEEP };
/// assert_eq!(arr.merge_move(2..4, 0..1, flip), 2);
/// assert_eq!(arr.to_permutation().to_index_vec(), vec![1, 3, 0, 2]);
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
    /// component in algorithm runs).
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
    /// [`Arrangement::merge_move`] for the contract: two Fenwick point
    /// updates — the mover's length leaves its rank for the stayer's —
    /// plus a fold of the two segments at the stayer's rank. A reversal
    /// in `order` flips that segment's lazy orientation flag, and the
    /// swap only picks the side of the stayer the mover folds onto. The
    /// fold keeps the larger segment's storage; when that is the mover's,
    /// the mover takes over the stayer's rank.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap or are out of bounds, or unless each
    /// block is exactly one segment. Every merge of an algorithm run
    /// passes: each component is one segment, an initial one-node
    /// segment or the one a merge left.
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
        let (moving, staying) = (self.exact_segment(&mover), self.exact_segment(&stayer));
        assert!(
            moving != NIL && staying != NIL,
            "blocks {mover:?} and {stayer:?} are not one segment each"
        );
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

    /// Resolves a component's block from one member in `O(log n)` — see
    /// [`Arrangement::locate_component`] for the full contract. The
    /// segment backend keeps every component as exactly one segment, so
    /// the anchor's segment *is* the block: the answer needs one array
    /// lookup plus one prefix sum, never a member walk. Returns `None`
    /// when the anchor's segment length disagrees with `len` (the
    /// component is not one segment, e.g. after an
    /// [`assign`](SegmentArrangement::assign) made the whole arrangement
    /// one), signalling the caller to fall back to the member-walking
    /// locate.
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

    /// Where `node` sits among the segments: its segment's id, the
    /// segment's length, and `node`'s index inside it in arrangement
    /// order. `O(1)`, with no prefix sum; an id names its segment until
    /// the next merge or jump.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    // Inlined across crates: a checkpoint restore's consistency check
    // calls it up to twice per node, and as a call it made that check
    // about twice as slow.
    #[must_use]
    #[inline]
    pub fn segment_of(&self, node: Node) -> (u32, usize, usize) {
        let id = self.node_seg[node.index()];
        (id, self.seg_len(id), self.in_seg_index(node))
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

    /// Serializes the arrangement for the checkpoint stack: node count,
    /// then the live segments in position order (storage-order node list
    /// and lazy-reversal flag each).
    ///
    /// Segment ids and ranks are deliberately **not** encoded — they are
    /// unobservable (every cost is closed-form in positions and sizes)
    /// and a decode ranks the same segments afresh. The partition itself
    /// *is* observable: `locate_component` trusts that an algorithm run
    /// keeps every component one segment, so a checkpoint must
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

    /// The live segments in position order.
    fn live_order(&self) -> Vec<u32> {
        self.at_rank
            .iter()
            .copied()
            .filter(|&id| id != NIL)
            .collect()
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

    /// The segment that in-bounds `range` covers exactly, or `NIL` if
    /// `range` is not one segment.
    fn exact_segment(&self, range: &Range<usize>) -> u32 {
        if range.is_empty() {
            return NIL;
        }
        let (id, index) = self.seg_at(range.start);
        if index == 0 && self.seg_len(id) == range.len() {
            id
        } else {
            NIL
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
    /// A singleton keeps its flag: reversing it changes nothing.
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

    fn kendall_to(&self, target: &Permutation) -> u64 {
        SegmentArrangement::kendall_to(self, target)
    }

    fn assign(&mut self, target: &Permutation) -> u64 {
        SegmentArrangement::assign(self, target)
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

    /// Folds the one-node segments in `range` into one segment by
    /// zero-gap merges, right to left: each node in turn joins the
    /// segment to its right, as a run of adjacent reveals would.
    fn fold(arr: &mut SegmentArrangement, range: Range<usize>) {
        for i in (range.start..range.end - 1).rev() {
            assert_eq!(
                arr.merge_move(i..i + 1, i + 1..range.end, MergeOrder::KEEP),
                0
            );
        }
    }

    /// The merge order whose three bits are the low bits of `bits`.
    fn order_of(bits: usize) -> MergeOrder {
        MergeOrder {
            reverse_mover: bits & 1 != 0,
            reverse_stayer: bits & 2 != 0,
            swap: bits & 4 != 0,
        }
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
        use crate::codec::{put_bool, put_len, put_u32};
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
        // A checkpoint records a one-node segment's orientation flag, set
        // or not, and a decode keeps it: the body re-encodes byte for
        // byte, and the flag changes no lookup.
        let mut body = Vec::new();
        put_len(&mut body, 3);
        put_len(&mut body, 2);
        put_bool(&mut body, true);
        put_len(&mut body, 1);
        put_u32(&mut body, 2);
        put_bool(&mut body, false);
        put_len(&mut body, 2);
        put_u32(&mut body, 0);
        put_u32(&mut body, 1);
        let mut r = crate::codec::ByteReader::new(&body);
        let flagged = SegmentArrangement::decode_from(&mut r, FORMAT).unwrap();
        let meta = flagged.meta[flagged.node_seg[2] as usize];
        assert_eq!((meta.len, meta.store, meta.head), (1, NIL, 2));
        assert!(meta.reversed && flagged.check_consistent());
        assert_eq!(flagged.to_permutation().to_index_vec(), vec![2, 0, 1]);
        assert_eq!(reencoded(&flagged).0, body);
    }

    #[test]
    fn folds_take_and_return_storage_slots() {
        let mut arr = SegmentArrangement::identity(8);
        // Two singletons fold into one slot.
        fold(&mut arr, 1..3);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (1, 0));
        assert_eq!(slotted(&arr), vec![arr.node_seg[1]]);
        assert!(arr.check_consistent());
        // A singleton folds into a slotted segment without a new slot.
        arr.merge_move(0..1, 1..3, MergeOrder::KEEP);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (1, 0));
        // Two slotted segments fold: the smaller one's slot is freed...
        fold(&mut arr, 3..5);
        assert_eq!(slotted(&arr).len(), 2);
        arr.merge_move(3..5, 0..3, MergeOrder::KEEP);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (2, 1));
        assert!(arr.check_consistent());
        // ...and the next fold of two singletons reuses it.
        fold(&mut arr, 6..8);
        assert_eq!((arr.stores.len(), arr.free_stores.len()), (2, 0));
        assert!(arr.check_consistent());
        arr.merge_move(5..6, 0..5, MergeOrder::KEEP);
        arr.merge_move(0..6, 6..8, MergeOrder::KEEP);
        assert_eq!((arr.segment_count(), slotted(&arr).len()), (1, 1));
        assert!(arr.check_consistent());
    }

    #[test]
    fn codec_roundtrip_preserves_partition_and_orientation() {
        // Build an arrangement whose segments are multi-node, reversed and
        // interleaved, then round-trip it through the byte codec.
        let mut arr = seg(&[3, 0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        fold(&mut arr, 0..3);
        fold(&mut arr, 4..7);
        let reverse_mover = MergeOrder {
            reverse_mover: true,
            ..MergeOrder::KEEP
        };
        arr.merge_move(7..8, 4..7, reverse_mover);
        // A segment that absorbed a node at its storage front: its head
        // moved down by one and its storage wraps around the deque's
        // buffer.
        arr.merge_move(11..12, 12..13, MergeOrder::KEEP);
        let wrapped = arr.node_seg[11] as usize;
        assert_eq!(arr.meta[wrapped].head, 11);
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
        // Components stay locatable after the round trip, and merges keep
        // working on the decoded index.
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
        fold(&mut arr, 0..2);
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
    #[should_panic(expected = "not one segment each")]
    fn merge_move_panics_unless_blocks_are_whole_segments() {
        // Nodes 1 and 2 are one segment; a block holding only node 2 is
        // part of it.
        let mut arr = SegmentArrangement::identity(4);
        fold(&mut arr, 1..3);
        let _ = arr.merge_move(2..3, 3..4, MergeOrder::KEEP);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn merge_move_out_of_bounds_panics() {
        let mut arr = SegmentArrangement::identity(3);
        let _ = arr.merge_move(1..4, 0..1, MergeOrder::KEEP);
    }

    #[test]
    fn reversed_segment_lookups() {
        // The larger mover keeps its storage, reversed, and takes over
        // the stayer's rank.
        let mut arr = SegmentArrangement::identity(5);
        let mut pi = Permutation::identity(5);
        fold(&mut arr, 0..4);
        let reverse_mover = MergeOrder {
            reverse_mover: true,
            ..MergeOrder::KEEP
        };
        assert_eq!(
            arr.merge_move(0..4, 4..5, reverse_mover),
            Arrangement::merge_move(&mut pi, 0..4, 4..5, reverse_mover)
        );
        assert_eq!(arr.to_permutation(), pi);
        assert_eq!(arr.position_of(Node::new(0)), 3);
        assert_eq!(arr.node_at(0), Node::new(3));
        assert!(arr.meta[arr.node_seg[0] as usize].reversed);
        assert!(arr.check_consistent());
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
        // Fast path after a fold.
        fold(&mut arr, 1..3);
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
        // equal to and larger than the right one, either one moving and
        // with or without the swap: the larger absorbs the smaller at its
        // storage front or back, and the merge matches the dense one.
        for cut in [2, 3, 4] {
            for bits in 0..8 {
                for left_moves in [true, false] {
                    let order = order_of(bits);
                    let case = format!("cut {cut}, {order:?}, left moves: {left_moves}");
                    let mut arr = SegmentArrangement::identity(6);
                    let mut pi = Permutation::identity(6);
                    fold(&mut arr, 0..cut);
                    fold(&mut arr, cut..6);
                    let (mover, stayer) = if left_moves {
                        (0..cut, cut..6)
                    } else {
                        (cut..6, 0..cut)
                    };
                    let writes = arr.node_map_writes();
                    assert_eq!(
                        arr.merge_move(mover.clone(), stayer.clone(), order),
                        Arrangement::merge_move(&mut pi, mover, stayer, order),
                        "{case}"
                    );
                    assert_eq!(arr.segment_count(), 1, "{case}");
                    assert_eq!(arr.to_permutation(), pi, "{case}");
                    assert!(arr.check_consistent(), "{case}");
                    let smaller = cut.min(6 - cut) as u64;
                    assert_eq!(arr.node_map_writes() - writes, smaller, "{case}");
                }
            }
        }
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
        fold(&mut a, 0..4); // structure differs, order identical
        assert_eq!(a, b);
        let mut c = SegmentArrangement::identity(4);
        c.merge_move(0..1, 1..2, order_of(4));
        assert_ne!(c, b);
    }

    #[test]
    fn randomized_ops_match_dense() {
        // Deterministic pseudo-random fuzz of whole-component merges (all
        // eight merge orders, either side moving, any gap) and jumps
        // against the dense reference.
        let mut state = 0x1234_5678_u64;
        let mut next = move |bound: usize| {
            state = splitmix64(state);
            (state % bound.max(1) as u64) as usize
        };
        for n in [1usize, 2, 3, 7, 16, 33] {
            let mut arr = SegmentArrangement::identity(n);
            let mut pi = Permutation::identity(n);
            // Components as member lists; every node starts alone.
            let mut comps: Vec<Vec<Node>> = (0..n).map(|v| vec![Node::new(v)]).collect();
            for _ in 0..120 {
                if comps.len() < 2 || next(16) == 0 {
                    let mut target: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        target.swap(i, next(i + 1));
                    }
                    let target = Permutation::from_indices(&target).unwrap();
                    assert_eq!(arr.assign(&target), Arrangement::assign(&mut pi, &target));
                    // The jump leaves the whole arrangement one segment.
                    comps = vec![pi.iter().copied().collect()];
                } else {
                    let a = next(comps.len());
                    let b = (a + 1 + next(comps.len() - 1)) % comps.len();
                    let mover = pi.contiguous_range(&comps[a]).unwrap();
                    let stayer = pi.contiguous_range(&comps[b]).unwrap();
                    let order = order_of(next(8));
                    assert_eq!(
                        arr.merge_move(mover.clone(), stayer.clone(), order),
                        Arrangement::merge_move(&mut pi, mover, stayer, order)
                    );
                    let absorbed = comps.swap_remove(a);
                    let b = if b == comps.len() { a } else { b };
                    comps[b].extend(absorbed);
                }
                assert_eq!(arr.to_permutation(), pi);
                assert!(arr.check_consistent());
                for members in &comps {
                    let walked = pi.contiguous_range(members).unwrap();
                    let (range, at) = arr.locate_component(members[0], members.len()).unwrap();
                    assert_eq!((range, arr.node_at(at)), (walked, members[0]));
                }
            }
        }
    }

    #[test]
    fn locate_component_matches_walk() {
        let mut arr = SegmentArrangement::identity(8);
        fold(&mut arr, 2..5);
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
        fold(&mut arr, 2..5);
        let reverse_stayer = MergeOrder {
            reverse_stayer: true,
            ..MergeOrder::KEEP
        };
        arr.merge_move(5..6, 2..5, reverse_stayer);
        let (range, anchor_pos) = arr.locate_component(Node::new(5), 4).unwrap();
        assert_eq!(range, 2..6);
        assert_eq!(arr.node_at(anchor_pos), Node::new(5));
        assert_eq!(anchor_pos, 5);
        let (_, anchor_pos) = arr.locate_component(Node::new(4), 4).unwrap();
        assert_eq!(anchor_pos, 2);
    }
}
