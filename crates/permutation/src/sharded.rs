//! [`ShardedArrangement`]: a partitioned arrangement backend — one
//! independent [`SegmentArrangement`] per fixed contiguous region.
//!
//! Multi-tenant (sharded) workloads never merge components across
//! tenants, so an arrangement serving them decomposes into fixed position
//! regions that evolve independently. This backend stores exactly that: a
//! forest of per-region segment treaps over a fixed region partition of
//! both the **position space** and the **node-id space** (region `r`
//! permutes node ids `bounds[r]..bounds[r+1]` within positions
//! `bounds[r]..bounds[r+1]`). Two wins over one global treap:
//!
//! * **shallower walks** — every tree walk costs `O(log (region size))`
//!   instead of `O(log n)`;
//! * **partitioned writes** — ops touching different regions are
//!   mutations of *disjoint Rust objects*, so a batch of span-disjoint
//!   merges executes on worker threads with plain `&mut` distribution
//!   (`iter_mut`), no locks, no `unsafe`
//!   ([`Arrangement::apply_merge_batch`]).
//!
//! The price is a **region-locality restriction**: every block operation
//! must stay inside one region (a cross-region merge would migrate nodes
//! between sub-arrangements). Region-local operations are observably
//! identical to the dense backend; a region-crossing operation panics
//! with a clear message — construct the partition to match the workload's
//! tenancy, or use [`ShardedArrangement::identity`] (a single region,
//! fully general, equivalent to a plain [`SegmentArrangement`]).

use std::fmt;
use std::ops::Range;
use std::sync::Mutex;

use crate::arrangement::{monotone_path_range, Arrangement, MergeOp};
use crate::node::Node;
use crate::perm::Permutation;
use crate::segment::SegmentArrangement;

/// A linear arrangement partitioned into independently evolving regions,
/// each backed by its own [`SegmentArrangement`].
///
/// # Examples
///
/// ```
/// use mla_permutation::{Arrangement, Node, ShardedArrangement};
///
/// // Two regions of 4 nodes each; all ops must stay within a region.
/// let mut arr = ShardedArrangement::with_regions(&[4, 4]);
/// let cost = arr.move_block(0..2, 2);       // region 0
/// assert_eq!(cost, 4);
/// let cost = arr.move_block(4..5, 7);       // region 1
/// assert_eq!(cost, 3);
/// assert_eq!(
///     arr.to_permutation().to_index_vec(),
///     vec![2, 3, 0, 1, 5, 6, 7, 4],
/// );
/// assert_eq!(arr.position_of(Node::new(4)), 7);
/// ```
#[derive(Clone)]
pub struct ShardedArrangement {
    regions: Vec<SegmentArrangement>,
    /// Region boundaries over both positions and node ids:
    /// `bounds[r]..bounds[r + 1]` is region `r`; `bounds[0] = 0`,
    /// `bounds[len] = n`, strictly increasing.
    bounds: Vec<usize>,
}

impl ShardedArrangement {
    /// The identity arrangement as a **single** region — fully general
    /// (no region-locality restriction can ever trip), observably a
    /// [`SegmentArrangement`].
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`](crate::MAX_NODES).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        if n == 0 {
            return ShardedArrangement {
                regions: Vec::new(),
                bounds: vec![0],
            };
        }
        Self::with_regions(&[n])
    }

    /// The identity arrangement partitioned into the given non-empty
    /// region sizes: region `r` owns node ids (and positions)
    /// `offset..offset + sizes[r]`.
    ///
    /// # Panics
    ///
    /// Panics if any region size is zero, or any region exceeds
    /// [`MAX_NODES`](crate::MAX_NODES).
    #[must_use]
    pub fn with_regions(sizes: &[usize]) -> Self {
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        bounds.push(0usize);
        let mut regions = Vec::with_capacity(sizes.len());
        let mut end = 0usize;
        for &size in sizes {
            assert!(size > 0, "region sizes must be positive");
            regions.push(SegmentArrangement::identity(size));
            end += size;
            bounds.push(end);
        }
        ShardedArrangement { regions, bounds }
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The position/node-id range of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn region_range(&self, r: usize) -> Range<usize> {
        self.bounds[r]..self.bounds[r + 1]
    }

    /// The region containing position (= node id) `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.len()`.
    #[must_use]
    pub fn region_of(&self, p: usize) -> usize {
        assert!(
            p < self.len(),
            "position {p} out of bounds for length {}",
            self.len()
        );
        self.bounds.partition_point(|&b| b <= p) - 1
    }

    /// The region wholly containing `range`, or a panic describing the
    /// region-locality violation.
    fn region_of_range(&self, range: &Range<usize>, what: &str) -> usize {
        let r = self.region_of(range.start);
        assert!(
            range.end <= self.bounds[r + 1],
            "{what} {range:?} crosses the region boundary at {} — \
             sharded arrangements only support region-local operations",
            self.bounds[r + 1],
        );
        r
    }

    /// Translates global node ids to a region's local ids.
    fn to_local(&self, r: usize, nodes: &[Node]) -> Vec<Node> {
        let base = self.bounds[r];
        nodes.iter().map(|v| Node::new(v.index() - base)).collect()
    }

    /// Returns `true` if every node id lies in region `r`.
    fn all_in_region(&self, r: usize, nodes: &[Node]) -> bool {
        let range = self.region_range(r);
        nodes.iter().all(|v| range.contains(&v.index()))
    }
}

impl Arrangement for ShardedArrangement {
    fn len(&self) -> usize {
        // mla-lint: allow(panic-safety): bounds always holds at least the origin 0
        *self.bounds.last().expect("bounds always holds the origin")
    }

    fn node_at(&self, position: usize) -> Node {
        let r = self.region_of(position);
        let base = self.bounds[r];
        Node::new(self.regions[r].node_at(position - base).index() + base)
    }

    fn position_of(&self, node: Node) -> usize {
        let r = self.region_of(node.index());
        let base = self.bounds[r];
        base + self.regions[r].position_of(Node::new(node.index() - base))
    }

    fn contiguous_range(&self, nodes: &[Node]) -> Option<Range<usize>> {
        if nodes.is_empty() {
            return Some(0..0);
        }
        let r = self.region_of(nodes[0].index());
        if self.all_in_region(r, nodes) {
            let base = self.bounds[r];
            let local = self.to_local(r, nodes);
            return self.regions[r]
                .contiguous_range(&local)
                .map(|range| range.start + base..range.end + base);
        }
        // Nodes from several regions: fall back to the generic min/max
        // scan (such a set can still be contiguous across a boundary).
        let mut min = usize::MAX;
        let mut max = 0usize;
        for &v in nodes {
            let p = self.position_of(v);
            min = min.min(p);
            max = max.max(p);
        }
        (max - min + 1 == nodes.len()).then_some(min..max + 1)
    }

    fn oriented_contiguous_range(&self, nodes: &[Node]) -> Option<(Range<usize>, bool)> {
        if nodes.is_empty() {
            return Some((0..0, true));
        }
        let r = self.region_of(nodes[0].index());
        if self.all_in_region(r, nodes) {
            let base = self.bounds[r];
            let local = self.to_local(r, nodes);
            return self.regions[r]
                .oriented_contiguous_range(&local)
                .map(|(range, forward)| (range.start + base..range.end + base, forward));
        }
        let range = self.contiguous_range(nodes)?;
        let forward = nodes.len() <= 1 || self.position_of(nodes[0]) == range.start;
        Some((range, forward))
    }

    fn path_range(&self, path: &[Node]) -> Option<Range<usize>> {
        if path.is_empty() {
            return Some(0..0);
        }
        let r = self.region_of(path[0].index());
        if self.all_in_region(r, path) {
            let base = self.bounds[r];
            let local = self.to_local(r, path);
            return self.regions[r]
                .path_range(&local)
                .map(|range| range.start + base..range.end + base);
        }
        // A path may run across a region boundary, as in contiguous_range.
        monotone_path_range(path, |v| self.position_of(v))
    }

    fn locate_component(&self, anchor: Node, len: usize) -> Option<(Range<usize>, usize)> {
        // Merges are region-local, so a component is always wholly inside
        // the anchor's region; a `len` that cannot fit simply misses in
        // the region-local locate.
        let r = self.region_of(anchor.index());
        let base = self.bounds[r];
        self.regions[r]
            .locate_component(Node::new(anchor.index() - base), len)
            .map(|(range, anchor_pos)| (range.start + base..range.end + base, anchor_pos + base))
    }

    fn supports_component_locate(&self) -> bool {
        true
    }

    fn move_block(&mut self, src: Range<usize>, dest: usize) -> u64 {
        if src.is_empty() && src.start <= self.len() && dest <= self.len() {
            return 0;
        }
        let r = self.region_of_range(&src, "block");
        let base = self.bounds[r];
        assert!(
            (base..=self.bounds[r + 1] - src.len()).contains(&dest),
            "destination {dest} would move block {src:?} across the \
             boundary of region {r} — sharded arrangements only support \
             region-local operations"
        );
        self.regions[r].move_block(src.start - base..src.end - base, dest - base)
    }

    fn reverse_block(&mut self, range: Range<usize>) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let r = self.region_of_range(&range, "block");
        let base = self.bounds[r];
        self.regions[r].reverse_block(range.start - base..range.end - base)
    }

    fn swap_adjacent_blocks(&mut self, left: Range<usize>, right: Range<usize>) -> u64 {
        assert_eq!(
            left.end, right.start,
            "blocks {left:?} and {right:?} are not adjacent"
        );
        if left.is_empty() && right.is_empty() {
            return 0;
        }
        let hull = left.start..right.end;
        let r = self.region_of_range(&hull, "block pair");
        let base = self.bounds[r];
        self.regions[r].swap_adjacent_blocks(
            left.start - base..left.end - base,
            right.start - base..right.end - base,
        )
    }

    fn kendall_to(&self, target: &Permutation) -> u64 {
        self.to_permutation().kendall_distance(target)
    }

    fn assign(&mut self, target: &Permutation) -> u64 {
        assert_eq!(
            self.len(),
            target.len(),
            "assign: size mismatch ({} vs {})",
            self.len(),
            target.len()
        );
        // Node ids may never leave their regions; a region-preserving
        // target decomposes into per-region assignments, and because
        // cross-region pair orders are unchanged, the total Kendall cost
        // is the sum of the local ones.
        let mut cost = 0u64;
        for r in 0..self.regions.len() {
            let range = self.region_range(r);
            let base = range.start;
            let slice: Vec<Node> = (range.clone())
                .map(|p| {
                    let v = target.node_at(p);
                    assert!(
                        range.contains(&v.index()),
                        "assign target moves node {v:?} out of region {r} \
                         ({range:?}) — sharded arrangements only support \
                         region-preserving targets"
                    );
                    Node::new(v.index() - base)
                })
                .collect();
            let local = Permutation::from_nodes(slice)
                // mla-lint: allow(panic-safety): a region-preserving slice of a permutation is itself a permutation (checked just above)
                .expect("a region-preserving slice of a permutation is a permutation");
            cost += self.regions[r].assign(&local);
        }
        cost
    }

    fn coalesce_range(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let r = self.region_of_range(&range, "block");
        let base = self.bounds[r];
        self.regions[r].coalesce_range(range.start - base..range.end - base);
    }

    fn to_permutation(&self) -> Permutation {
        let mut nodes = Vec::with_capacity(self.len());
        for (r, region) in self.regions.iter().enumerate() {
            let base = self.bounds[r];
            nodes.extend(
                region
                    .to_permutation()
                    .iter()
                    .map(|v| Node::new(v.index() + base)),
            );
        }
        // mla-lint: allow(panic-safety): regions partition the node universe
        Permutation::from_nodes(nodes).expect("regions partition the node universe")
    }

    fn merge_move(
        &mut self,
        mover: Range<usize>,
        stayer: Range<usize>,
        target: Option<&[Node]>,
    ) -> u64 {
        let hull = mover.start.min(stayer.start)..mover.end.max(stayer.end);
        let r = self.region_of_range(&hull, "merge");
        let base = self.bounds[r];
        let local_target = target.map(|content| self.to_local(r, content));
        self.regions[r].merge_move(
            mover.start - base..mover.end - base,
            stayer.start - base..stayer.end - base,
            local_target.as_deref(),
        )
    }

    fn write_merged_block(&mut self, range: Range<usize>, content: &[Node]) {
        if range.is_empty() && content.is_empty() {
            return;
        }
        let r = self.region_of_range(&range, "block");
        let base = self.bounds[r];
        let local = self.to_local(r, content);
        self.regions[r].write_merged_block(range.start - base..range.end - base, &local);
    }

    /// Partitioned-parallel batch execution: ops are grouped by region,
    /// and regions are distributed over `threads` scoped workers — each
    /// worker holds `&mut` to *its* regions only (plain `iter_mut`
    /// distribution, no locks, no `unsafe`). Within a region ops run in
    /// op order, so every region's sub-arrangement (treap shape, arena
    /// free lists, priority streams included) evolves identically for
    /// every thread count.
    fn apply_merge_batch(&mut self, ops: Vec<MergeOp>, threads: usize) -> Vec<u64> {
        // Small batches, single region or no parallelism: sequential.
        if threads <= 1 || ops.len() < 2 || self.regions.len() < 2 {
            return ops
                .into_iter()
                .map(|op| self.merge_move(op.mover, op.stayer, op.target.as_deref()))
                .collect();
        }
        let count = ops.len();
        // Group ops by region, keeping (original index, localized op).
        let mut groups: Vec<Vec<(usize, MergeOp)>> = vec![Vec::new(); self.regions.len()];
        for (index, op) in ops.into_iter().enumerate() {
            let hull = op.span();
            let r = self.region_of_range(&hull, "merge");
            let base = self.bounds[r];
            let localized = MergeOp {
                mover: op.mover.start - base..op.mover.end - base,
                stayer: op.stayer.start - base..op.stayer.end - base,
                target: op.target.map(|content| self.to_local(r, &content)),
            };
            groups[r].push((index, localized));
        }
        // Each busy region pairs with exclusive `&mut` access to its
        // sub-arrangement; distributing those pairs over workers is safe
        // by construction. The shadow log (debug builds only) records
        // every write claim and re-checks the planner's disjointness
        // promise at commit — see [`crate::shadow`].
        let shadow = crate::shadow::ShadowLog::new();
        let bounds = &self.bounds;
        let mut work: Vec<RegionWork<'_>> = self
            .regions
            .iter_mut()
            .enumerate()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .map(|((r, region), group)| (r, bounds[r], region, group))
            .collect();
        let mut costs = vec![0u64; count];
        if work.len() <= 1 {
            for (r, base, region, group) in work {
                for (index, op) in group {
                    let hull = op.span();
                    shadow.claim(0, r, base + hull.start..base + hull.end);
                    costs[index] = region.merge_move(op.mover, op.stayer, op.target.as_deref());
                }
            }
            shadow.assert_disjoint("apply_merge_batch");
            return costs;
        }
        let workers = threads.min(work.len());
        let queue = Mutex::new(std::mem::take(&mut work));
        let harvested: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let queue = &queue;
                    let shadow = &shadow;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let Some((r, base, region, group)) =
                                // mla-lint: allow(panic-safety): a poisoned queue means a worker already panicked; propagating is the only sound response
                                queue.lock().expect("queue poisoned").pop()
                            else {
                                return local;
                            };
                            for (index, op) in group {
                                let hull = op.span();
                                shadow.claim(worker, r, base + hull.start..base + hull.end);
                                local.push((
                                    index,
                                    region.merge_move(op.mover, op.stayer, op.target.as_deref()),
                                ));
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                // mla-lint: allow(panic-safety): worker panics are re-raised on the coordinating thread by design
                .map(|handle| handle.join().expect("batch worker panicked"))
                .collect()
        });
        shadow.assert_disjoint("apply_merge_batch");
        for (index, cost) in harvested.into_iter().flatten() {
            costs[index] = cost;
        }
        costs
    }
}

/// One unit of partitioned batch work: `(region index, region base
/// offset, exclusive region access, localized ops with original index)`.
type RegionWork<'a> = (
    usize,
    usize,
    &'a mut SegmentArrangement,
    Vec<(usize, MergeOp)>,
);

impl fmt::Debug for ShardedArrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedArrangement")
            .field("n", &self.len())
            .field("regions", &self.region_count())
            .finish_non_exhaustive()
    }
}

impl PartialEq for ShardedArrangement {
    fn eq(&self, other: &Self) -> bool {
        self.bounds == other.bounds && self.regions.iter().zip(&other.regions).all(|(a, b)| a == b)
    }
}

impl Eq for ShardedArrangement {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_lookups_across_regions() {
        let arr = ShardedArrangement::with_regions(&[3, 5, 2]);
        assert_eq!(arr.len(), 10);
        assert_eq!(arr.region_count(), 3);
        assert_eq!(arr.region_range(1), 3..8);
        assert_eq!(arr.region_of(7), 1);
        for p in 0..10 {
            assert_eq!(arr.node_at(p), Node::new(p));
            assert_eq!(arr.position_of(Node::new(p)), p);
        }
        assert_eq!(arr.to_permutation(), Permutation::identity(10));
    }

    #[test]
    fn region_local_ops_match_dense() {
        let mut sharded = ShardedArrangement::with_regions(&[4, 6]);
        let mut dense = Permutation::identity(10);
        for (src, dest) in [(0..2usize, 2usize), (4..7, 6), (8..10, 4)] {
            assert_eq!(
                sharded.move_block(src.clone(), dest),
                dense.move_block(src, dest)
            );
        }
        assert_eq!(sharded.reverse_block(5..9), dense.reverse_block(5..9));
        assert_eq!(
            sharded.swap_adjacent_blocks(0..2, 2..4),
            Arrangement::swap_adjacent_blocks(&mut dense, 0..2, 2..4)
        );
        assert_eq!(sharded.to_permutation(), dense);
        let nodes = [Node::new(4), Node::new(5)];
        assert_eq!(
            sharded.contiguous_range(&nodes),
            Arrangement::contiguous_range(&dense, &nodes)
        );
    }

    #[test]
    fn merge_move_and_kendall() {
        let mut arr = ShardedArrangement::with_regions(&[6, 4]);
        // Merge {0,1} (mover) into {4,5} within region 0.
        let cost = arr.merge_move(0..2, 4..6, None);
        assert_eq!(cost, 4);
        assert_eq!(
            arr.to_permutation().to_index_vec(),
            vec![2, 3, 0, 1, 4, 5, 6, 7, 8, 9]
        );
        let target = arr.to_permutation();
        assert_eq!(arr.kendall_to(&target), 0);
        assert_eq!(arr.kendall_to(&Permutation::identity(10)), 4);
    }

    #[test]
    fn assign_region_preserving() {
        let mut arr = ShardedArrangement::with_regions(&[3, 3]);
        let target = Permutation::from_indices(&[2, 1, 0, 3, 5, 4]).unwrap();
        let cost = arr.assign(&target);
        assert_eq!(cost, 4); // 3 inversions in region 0 + 1 in region 1
        assert_eq!(arr.to_permutation(), target);
    }

    #[test]
    #[should_panic(expected = "region-preserving")]
    fn assign_rejects_region_crossing_targets() {
        let mut arr = ShardedArrangement::with_regions(&[3, 3]);
        let target = Permutation::from_indices(&[3, 1, 2, 0, 4, 5]).unwrap();
        let _ = arr.assign(&target);
    }

    #[test]
    #[should_panic(expected = "region-local")]
    fn cross_region_move_panics() {
        let mut arr = ShardedArrangement::with_regions(&[4, 4]);
        let _ = arr.move_block(2..6, 0);
    }

    #[test]
    #[should_panic(expected = "region-local")]
    fn cross_region_destination_panics() {
        let mut arr = ShardedArrangement::with_regions(&[4, 4]);
        let _ = arr.move_block(0..2, 5);
    }

    #[test]
    fn batch_apply_is_thread_count_invariant() {
        let sizes = [5usize, 7, 6, 4];
        let ops = || {
            vec![
                MergeOp {
                    mover: 0..2,
                    stayer: 3..5,
                    target: None,
                },
                MergeOp {
                    mover: 9..12,
                    stayer: 5..7,
                    target: None,
                },
                MergeOp {
                    mover: 12..13,
                    stayer: 16..18,
                    target: None,
                },
                MergeOp {
                    mover: 20..21,
                    stayer: 21..22,
                    target: Some(vec![Node::new(21), Node::new(20)]),
                },
            ]
        };
        let mut reference = ShardedArrangement::with_regions(&sizes);
        let sequential: Vec<u64> = ops()
            .into_iter()
            .map(|op| reference.merge_move(op.mover, op.stayer, op.target.as_deref()))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let mut arr = ShardedArrangement::with_regions(&sizes);
            let costs = arr.apply_merge_batch(ops(), threads);
            assert_eq!(costs, sequential, "costs diverged at T={threads}");
            assert_eq!(arr, reference, "arrangement diverged at T={threads}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn shadow_checker_catches_overlapping_batch() {
        // Two overlapping merges in region 0 (spans 0..4 and 2..6) plus
        // one in region 1 so the partitioned path engages. The planner's
        // ConflictGraph would never seal this batch; feeding it directly
        // must trip the debug-build shadow checker at commit.
        let ops = vec![
            MergeOp {
                mover: 0..2,
                stayer: 2..4,
                target: None,
            },
            MergeOp {
                mover: 2..4,
                stayer: 4..6,
                target: None,
            },
            MergeOp {
                mover: 8..9,
                stayer: 9..10,
                target: None,
            },
        ];
        let err = std::panic::catch_unwind(move || {
            let mut arr = ShardedArrangement::with_regions(&[8, 4]);
            arr.apply_merge_batch(ops, 2)
        })
        .expect_err("overlapping batch must trip the shadow checker");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("overlapping write claims"), "{message}");
    }

    #[test]
    fn single_region_is_fully_general() {
        let mut sharded = ShardedArrangement::identity(8);
        let mut segment = SegmentArrangement::identity(8);
        assert_eq!(sharded.move_block(1..3, 5), segment.move_block(1..3, 5));
        assert_eq!(sharded.to_permutation(), segment.to_permutation());
        assert_eq!(ShardedArrangement::identity(0).len(), 0);
    }
}
