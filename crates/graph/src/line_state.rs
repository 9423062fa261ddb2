//! Dynamic state of a collection of disjoint lines (simple paths).

use mla_permutation::Node;

use crate::error::GraphError;
use crate::event::RevealEvent;
use crate::state::{ComponentSnapshot, MergeInfo, SnapshotMode};
use crate::union_find::UnionFind;

/// A collection of disjoint simple paths, growing one edge at a time.
///
/// Initially every node is a singleton path. A [`RevealEvent`] `a — b`
/// requires `a` and `b` to be endpoints of two *distinct* paths and joins
/// them into one longer path.
///
/// # Examples
///
/// ```
/// use mla_graph::{LineState, RevealEvent};
/// use mla_permutation::Node;
///
/// let mut state = LineState::new(4);
/// state.apply(RevealEvent::new(Node::new(0), Node::new(1))).unwrap();
/// let info = state.apply(RevealEvent::new(Node::new(1), Node::new(2))).unwrap();
/// // X snapshot ends at the joined endpoint, Z snapshot starts at it:
/// assert_eq!(info.x.nodes(), vec![Node::new(0), Node::new(1)]);
/// assert_eq!(info.z.nodes(), vec![Node::new(2)]);
/// assert_eq!(state.path_of(Node::new(0)), vec![Node::new(0), Node::new(1), Node::new(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct LineState {
    /// Per-node adjacency, sentinel-coded: `Option<Node>` has no niche
    /// (`Node` wraps a plain `u32`), so `[u32; 2]` slots with
    /// [`NO_NEIGHBOR`] halve the array (8 instead of 16 bytes per node;
    /// 80 MB saved at `n = 10⁷`).
    neighbors: Vec<[u32; 2]>,
    dsu: UnionFind,
}

/// Adjacency null sentinel (`u32::MAX` is never a node id: arrangement
/// capacity is bounded by `MAX_NODES`).
const NO_NEIGHBOR: u32 = u32::MAX;

impl LineState {
    /// Creates `n` singleton paths.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LineState {
            neighbors: vec![[NO_NEIGHBOR, NO_NEIGHBOR]; n],
            dsu: UnionFind::new(n),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of paths (components).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.dsu.component_count()
    }

    /// Returns `true` if `a` and `b` belong to the same path.
    #[must_use]
    pub fn same_component(&self, a: Node, b: Node) -> bool {
        self.dsu.same_set(a, b)
    }

    /// Degree of `v` in the current graph (0, 1 or 2).
    #[must_use]
    pub fn degree(&self, v: Node) -> usize {
        self.neighbors[v.index()]
            .iter()
            .filter(|&&u| u != NO_NEIGHBOR)
            .count()
    }

    /// Returns `true` if `v` is an endpoint of its path (degree ≤ 1;
    /// singletons count as endpoints).
    #[must_use]
    pub fn is_endpoint(&self, v: Node) -> bool {
        self.degree(v) <= 1
    }

    /// Nodes of the path containing `v` (unordered; use
    /// [`LineState::path_of`] for path order).
    #[must_use]
    pub fn component_nodes(&self, v: Node) -> Vec<Node> {
        self.dsu.members_of(v)
    }

    /// The path containing `v` in path order, starting from its
    /// lowest-indexed endpoint (a canonical orientation).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn path_of(&self, v: Node) -> Vec<Node> {
        let (e1, e2) = self.endpoints_of(v);
        let start = if e1 <= e2 { e1 } else { e2 };
        self.walk_from(start)
    }

    /// The two endpoints of the path containing `v`. For a singleton both
    /// are `v` itself.
    #[must_use]
    pub fn endpoints_of(&self, v: Node) -> (Node, Node) {
        let mut ends = Vec::with_capacity(2);
        for u in self.dsu.members_iter(v) {
            if self.degree(u) <= 1 {
                ends.push(u);
            }
        }
        match ends.len() {
            1 => (ends[0], ends[0]), // singleton
            2 => (ends[0], ends[1]),
            k => unreachable!("path component with {k} endpoints"),
        }
    }

    /// One step of a path walk: the neighbor of `current` other than
    /// `prev`, if any. With `prev = None` this is the first neighbor —
    /// use it to start a walk from a degree-1 endpoint.
    fn next_along(&self, current: Node, prev: Option<Node>) -> Option<Node> {
        self.neighbors[current.index()]
            .iter()
            .filter(|&&u| u != NO_NEIGHBOR)
            .map(|&u| Node::from(u))
            .find(|&u| Some(u) != prev)
    }

    /// Walks the path starting at endpoint `start` (must have degree ≤ 1),
    /// returning nodes in path order.
    fn walk_from(&self, start: Node) -> Vec<Node> {
        let mut order = vec![start];
        self.extend_walk(start, None, &mut order);
        order
    }

    /// Pushes the nodes after `start` on the walk that leaves `start`
    /// away from `prev`, in walk order.
    fn extend_walk(&self, start: Node, mut prev: Option<Node>, out: &mut Vec<Node>) {
        let mut current = start;
        while let Some(u) = self.next_along(current, prev) {
            out.push(u);
            prev = Some(current);
            current = u;
        }
    }

    /// Replaces `out` with the path through the just-joined edge
    /// `(a, b)`, read from `a`'s far end to `b`'s far end: exactly the
    /// merge's snapshot order `x.nodes ++ z.nodes` (see
    /// [`LineState::apply`]). One two-sided walk outward from the edge,
    /// `O(path length)`, with no member scan or endpoint search.
    pub fn path_across(&self, a: Node, b: Node, out: &mut Vec<Node>) {
        out.clear();
        out.push(a);
        self.extend_walk(a, Some(b), out);
        out.reverse();
        out.push(b);
        self.extend_walk(b, Some(a), out);
    }

    /// All paths, each in path order (canonical orientation), in ascending
    /// order of their first node.
    #[must_use]
    pub fn components_ordered(&self) -> Vec<Vec<Node>> {
        let mut roots = self.dsu.roots();
        roots.sort_unstable();
        roots.into_iter().map(|r| self.path_of(r)).collect()
    }

    /// All paths as unordered node lists.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<Node>> {
        self.dsu.components()
    }

    /// Applies an edge reveal `a — b`, returning snapshots of the two paths
    /// as they were **before** the merge. The snapshot orders are chosen so
    /// that the merged path reads `x.nodes ++ z.nodes`:
    ///
    /// * `x.nodes` is the path of `a` ordered to **end** at `a`;
    /// * `z.nodes` is the path of `b` ordered to **start** at `b`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is not in `0..n`;
    /// * [`GraphError::SelfLoop`] if both endpoints are the same node;
    /// * [`GraphError::SameComponent`] if the endpoints already share a
    ///   path (the reveal would close a cycle);
    /// * [`GraphError::NotAnEndpoint`] if either node has degree 2.
    pub fn apply(&mut self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        let info = self.peek(event)?;
        self.commit(event);
        Ok(info)
    }

    /// Validates an edge reveal and snapshots the two paths it would join,
    /// **without** mutating the state — the read-only half of
    /// [`LineState::apply`].
    ///
    /// # Errors
    ///
    /// Same as [`LineState::apply`].
    pub fn peek(&self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        self.peek_with(event, SnapshotMode::Eager)
    }

    /// [`LineState::peek`] with an explicit [`SnapshotMode`]: `Lazy` runs
    /// the same validation (including the endpoint checks, which are
    /// `O(1)` degree lookups) but returns size-only snapshots built from
    /// [`UnionFind::size_of`], skipping both `O(size)` path walks. The
    /// lazy `X` snapshot records its joined endpoint as **last** and the
    /// lazy `Z` snapshot as **first**, mirroring the eager orders.
    ///
    /// # Errors
    ///
    /// Same as [`LineState::apply`].
    pub fn peek_with(
        &self,
        event: RevealEvent,
        mode: SnapshotMode,
    ) -> Result<MergeInfo, GraphError> {
        let (a, b) = (event.a(), event.b());
        let n = self.n();
        for node in [a, b] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        if self.dsu.same_set(a, b) {
            return Err(GraphError::SameComponent { a, b });
        }
        for node in [a, b] {
            if !self.is_endpoint(node) {
                return Err(GraphError::NotAnEndpoint { node });
            }
        }
        Ok(match mode {
            SnapshotMode::Eager => {
                let mut x_nodes = self.walk_from(a);
                x_nodes.reverse(); // ends at a
                let z_nodes = self.walk_from(b); // starts at b
                MergeInfo {
                    x: ComponentSnapshot::eager(x_nodes, a),
                    z: ComponentSnapshot::eager(z_nodes, b),
                }
            }
            SnapshotMode::Lazy => MergeInfo {
                x: self.lazy_snapshot(a, true),
                z: self.lazy_snapshot(b, false),
            },
        })
    }

    /// Size-only snapshot of `joined`'s path, with `joined` recorded at
    /// the end (`X` side) or the start (`Z` side) of snapshot order.
    /// Debug builds attach the ordered path as a shadow so lazy-locate
    /// cross-checks can run; the snapshot reports itself lazy either way.
    fn lazy_snapshot(&self, joined: Node, joined_at_end: bool) -> ComponentSnapshot {
        #[cfg(debug_assertions)]
        {
            let mut nodes = self.walk_from(joined);
            if joined_at_end {
                nodes.reverse();
            }
            ComponentSnapshot::lazy_with_shadow(nodes, joined)
        }
        #[cfg(not(debug_assertions))]
        {
            ComponentSnapshot::lazy(self.dsu.size_of(joined), joined, joined_at_end)
        }
    }

    /// The mutating half of [`LineState::apply`]: links the two endpoints
    /// and merges their components in `O(α(n))`, building no snapshots.
    /// Must follow a successful [`LineState::peek`] of the same event with
    /// no intervening mutation.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint has no free adjacency slot or the endpoints
    /// already share a path (i.e. the peek contract was violated).
    pub fn commit(&mut self, event: RevealEvent) {
        let (a, b) = (event.a(), event.b());
        let slot_a = self.neighbors[a.index()]
            .iter()
            .position(|&u| u == NO_NEIGHBOR)
            // mla-lint: allow(panic-safety): peeked line endpoints have degree <= 1, so a free neighbor slot exists
            .expect("commit requires a successfully peeked event (endpoint a)");
        self.neighbors[a.index()][slot_a] = b.raw();
        let slot_b = self.neighbors[b.index()]
            .iter()
            .position(|&u| u == NO_NEIGHBOR)
            // mla-lint: allow(panic-safety): peeked line endpoints have degree <= 1, so a free neighbor slot exists
            .expect("commit requires a successfully peeked event (endpoint b)");
        self.neighbors[b.index()][slot_b] = a.raw();
        self.dsu
            .union(a, b)
            // mla-lint: allow(panic-safety): peek/commit contract: commit only runs after a successful peek of the same event
            .expect("commit requires a successfully peeked event");
    }

    /// Returns `true` iff every path is exactly one block of the
    /// partition `block_of` describes and reads in block order. Checks
    /// that every edge joins two neighbours in one block and that every
    /// union-find root's block is as long as its component. That is
    /// enough: such edges form no cycle, so a component's `m − 1` edges
    /// (as [`decode_from`](Self::decode_from) checks) connect its `m`
    /// nodes, all in its root's block, which then holds nothing else,
    /// and they are the block's `m − 1` neighbouring pairs. One pass, with
    /// no `find`.
    pub(crate) fn paths_are_blocks(&self, block_of: &impl Fn(Node) -> (u32, usize, usize)) -> bool {
        self.neighbors.iter().enumerate().all(|(v, slots)| {
            let (block, len, at) = block_of(Node::new(v));
            self.dsu
                .root_size(Node::new(v))
                .is_none_or(|size| len == size)
                && slots.iter().all(|&u| {
                    u == NO_NEIGHBOR || (u as usize) < v || {
                        let (u_block, _, u_at) = block_of(Node::from(u));
                        u_block == block && u_at.abs_diff(at) == 1
                    }
                })
        })
    }

    /// Serializes the state (adjacency slots **verbatim** — slot order is
    /// determinism-sensitive because `commit` fills the first free slot —
    /// then the union-find) for the checkpoint stack.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        mla_permutation::codec::put_len(out, self.n());
        for slots in &self.neighbors {
            mla_permutation::codec::put_u32(out, slots[0]);
            mla_permutation::codec::put_u32(out, slots[1]);
        }
        self.dsu.encode_into(out);
    }

    /// Decodes a state written by [`LineState::encode_into`],
    /// re-validating that the adjacency is a symmetric, self-loop-free
    /// union of simple paths that agrees with the union-find partition.
    ///
    /// # Errors
    ///
    /// [`CodecError`](mla_permutation::codec::CodecError) on truncated or
    /// inconsistent input.
    pub fn decode_from(
        r: &mut mla_permutation::codec::ByteReader<'_>,
    ) -> Result<Self, mla_permutation::codec::CodecError> {
        use mla_permutation::codec::CodecError;
        // Two 4-byte neighbor slots per node: bounding the count by the
        // input left makes a short body fail before the allocation.
        let n = r.count(
            (u32::MAX as usize).min(r.remaining() / 8),
            "line-state node",
        )?;
        let mut neighbors = Vec::with_capacity(n);
        for v in 0..n {
            let mut slots = [NO_NEIGHBOR, NO_NEIGHBOR];
            for slot in &mut slots {
                let u = r.u32()?;
                if u != NO_NEIGHBOR && u as usize >= n {
                    return Err(CodecError::invalid(format!(
                        "line-state neighbor {u} of node {v} out of range for n = {n}"
                    )));
                }
                if u as usize == v {
                    return Err(CodecError::invalid(format!(
                        "line-state node {v} is its own neighbor"
                    )));
                }
                *slot = u;
            }
            if slots[0] != NO_NEIGHBOR && slots[0] == slots[1] {
                return Err(CodecError::invalid(format!(
                    "line-state node {v} lists neighbor {} twice",
                    slots[0]
                )));
            }
            neighbors.push(slots);
        }
        let dsu = UnionFind::decode_from(r)?;
        if dsu.len() != n {
            return Err(CodecError::invalid(format!(
                "line-state adjacency covers {n} nodes, union-find {}",
                dsu.len()
            )));
        }
        // Symmetry, component agreement, and per-component edge counts.
        let mut edges_at_root = vec![0u64; n];
        for v in 0..n {
            for &u in &neighbors[v] {
                if u == NO_NEIGHBOR {
                    continue;
                }
                let u = u as usize;
                if !neighbors[u].contains(&(v as u32)) {
                    return Err(CodecError::invalid(format!(
                        "line-state edge {v} — {u} is not symmetric"
                    )));
                }
                // Symmetric, so each edge is judged once, from its lower end.
                if v < u {
                    let root = dsu.find_immutable(Node::new(v));
                    if root != dsu.find_immutable(Node::new(u)) {
                        return Err(CodecError::invalid(format!(
                            "line-state edge {v} — {u} crosses union-find components"
                        )));
                    }
                    edges_at_root[root.index()] += 1;
                }
            }
        }
        for root in dsu.roots() {
            let size = dsu.size_of(root) as u64;
            if edges_at_root[root.index()] != size - 1 {
                return Err(CodecError::invalid(format!(
                    "line-state component of {} has {} edges for {size} nodes",
                    root.index(),
                    edges_at_root[root.index()]
                )));
            }
        }
        // Size − 1 edges do not make a component one path: a triangle
        // beside a lone node has 3 edges for 4 nodes. Given the counts
        // above, every component is one path iff no node lies on a cycle.
        // The walks from all nodes of degree ≤ 1 visit each node of a
        // longer path twice, once from each end, and each lone node once,
        // so that holds iff they make 2n − lone visits in all.
        let (mut visits, mut lone) = (0, 0);
        for v in 0..n {
            if !neighbors[v].contains(&NO_NEIGHBOR) {
                continue;
            }
            lone += usize::from(neighbors[v] == [NO_NEIGHBOR; 2]);
            let (mut prev, mut at) = (NO_NEIGHBOR, v as u32);
            loop {
                visits += 1;
                let [first, second] = neighbors[at as usize];
                let next = if first == prev { second } else { first };
                if next == NO_NEIGHBOR {
                    break;
                }
                (prev, at) = (at, next);
            }
        }
        if visits != 2 * n - lone {
            return Err(CodecError::invalid(format!(
                "line-state graph has {} nodes on cycles",
                (2 * n - lone - visits) / 2
            )));
        }
        Ok(LineState { neighbors, dsu })
    }

    /// All edges of the current graph.
    #[must_use]
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut edges = Vec::new();
        for i in 0..self.n() {
            for &u in &self.neighbors[i] {
                if u != NO_NEIGHBOR && i < u as usize {
                    edges.push((Node::new(i), Node::from(u)));
                }
            }
        }
        edges
    }
}

/// The optimum MinLA value of a path on `m` nodes embedded contiguously in
/// path order: `m − 1` (each of the `m − 1` edges has stretch exactly 1).
///
/// # Examples
///
/// ```
/// use mla_graph::path_minla_value;
/// assert_eq!(path_minla_value(1), 0);
/// assert_eq!(path_minla_value(5), 4);
/// ```
#[must_use]
pub fn path_minla_value(m: usize) -> u128 {
    m.saturating_sub(1) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    #[test]
    fn codec_roundtrip_is_byte_exact() {
        let mut state = LineState::new(8);
        for (a, b) in [(0, 1), (2, 3), (1, 2), (5, 6)] {
            state.apply(ev(a, b)).unwrap();
        }
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        let mut r = mla_permutation::codec::ByteReader::new(&bytes);
        let back = LineState::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        // Re-encoding the decoded state byte-identically proves every
        // field (adjacency slot order included) survived.
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(bytes, again);
        assert_eq!(back.path_of(Node::new(0)), state.path_of(Node::new(0)));
        assert_eq!(back.component_count(), state.component_count());
    }

    #[test]
    fn codec_rejects_broken_paths() {
        use mla_permutation::codec::{ByteReader, CodecError};
        // Tamper: make 0 claim neighbor 1 without reciprocity by
        // encoding a valid state and flipping one adjacency slot.
        let mut state = LineState::new(3);
        state.apply(ev(0, 1)).unwrap();
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        // Adjacency starts after the 8-byte length prefix; node 2's first
        // slot sits at offset 8 + 2 * 8 = 24. Point it at node 0.
        bytes[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            LineState::decode_from(&mut ByteReader::new(&bytes)),
            Err(CodecError::Invalid { .. })
        ));
        // A triangle 0-1-2 and node 3 in one component of size 4 (node 4
        // alone): size − 1 edges, but not a path.
        let mut dsu = UnionFind::new(5);
        for v in 1..4 {
            dsu.union(Node::new(0), Node::new(v));
        }
        let cyclic = LineState {
            neighbors: vec![[1, 2], [0, 2], [0, 1], [NO_NEIGHBOR; 2], [NO_NEIGHBOR; 2]],
            dsu,
        };
        let mut bytes = Vec::new();
        cyclic.encode_into(&mut bytes);
        assert!(matches!(
            LineState::decode_from(&mut ByteReader::new(&bytes)),
            Err(CodecError::Invalid { .. })
        ));
        // Truncations error out too.
        let mut ok = Vec::new();
        state.encode_into(&mut ok);
        for cut in 0..ok.len() {
            assert!(LineState::decode_from(&mut ByteReader::new(&ok[..cut])).is_err());
        }
    }

    #[test]
    fn build_path_in_order() {
        let mut state = LineState::new(5);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(1, 2)).unwrap();
        state.apply(ev(2, 3)).unwrap();
        assert_eq!(
            state.path_of(Node::new(2)),
            vec![Node::new(0), Node::new(1), Node::new(2), Node::new(3)]
        );
        assert_eq!(state.component_count(), 2);
        assert_eq!(state.degree(Node::new(1)), 2);
        assert!(state.is_endpoint(Node::new(3)));
        assert!(!state.is_endpoint(Node::new(2)));
    }

    #[test]
    fn merge_snapshots_concatenate() {
        let mut state = LineState::new(6);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(3, 4)).unwrap();
        // Join endpoint 1 (path [0,1]) with endpoint 4 (path [3,4]).
        let info = state.apply(ev(1, 4)).unwrap();
        assert_eq!(info.x.nodes(), vec![Node::new(0), Node::new(1)]);
        assert_eq!(info.z.nodes(), vec![Node::new(4), Node::new(3)]);
        // Merged path is x ++ z.
        let merged: Vec<Node> = info
            .x
            .nodes()
            .iter()
            .chain(info.z.nodes().iter())
            .copied()
            .collect();
        let actual = state.path_of(Node::new(0));
        // path_of canonicalizes from the lowest endpoint; both orders valid.
        let reversed: Vec<Node> = merged.iter().rev().copied().collect();
        assert!(actual == merged || actual == reversed);
        // The walk across the joined edge rebuilds exactly x ++ z.
        let mut across = vec![Node::new(5)];
        state.path_across(Node::new(1), Node::new(4), &mut across);
        assert_eq!(across, merged);
    }

    #[test]
    fn apply_rejects_interior_nodes() {
        let mut state = LineState::new(4);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(1, 2)).unwrap();
        assert_eq!(
            state.apply(ev(1, 3)),
            Err(GraphError::NotAnEndpoint { node: Node::new(1) })
        );
    }

    #[test]
    fn apply_rejects_cycles_self_loops_and_range() {
        let mut state = LineState::new(3);
        state.apply(ev(0, 1)).unwrap();
        assert_eq!(
            state.apply(ev(0, 1)),
            Err(GraphError::SameComponent {
                a: Node::new(0),
                b: Node::new(1)
            })
        );
        assert_eq!(
            state.apply(ev(2, 2)),
            Err(GraphError::SelfLoop { node: Node::new(2) })
        );
        assert_eq!(
            state.apply(ev(0, 5)),
            Err(GraphError::NodeOutOfRange {
                node: Node::new(5),
                n: 3
            })
        );
    }

    #[test]
    fn endpoints_of_singleton_and_path() {
        let mut state = LineState::new(3);
        assert_eq!(
            state.endpoints_of(Node::new(2)),
            (Node::new(2), Node::new(2))
        );
        state.apply(ev(0, 1)).unwrap();
        let (e1, e2) = state.endpoints_of(Node::new(0));
        let mut ends = [e1.index(), e2.index()];
        ends.sort_unstable();
        assert_eq!(ends, [0, 1]);
    }

    #[test]
    fn components_ordered_gives_path_orders() {
        let mut state = LineState::new(5);
        state.apply(ev(2, 1)).unwrap();
        state.apply(ev(1, 4)).unwrap();
        let components = state.components_ordered();
        assert_eq!(components.len(), 3);
        // Path {2,1,4} canonicalized from node 1? Lowest endpoint is 2 or 4;
        // endpoints are 2 and 4, so it starts at 2.
        assert!(components
            .iter()
            .any(|p| p == &vec![Node::new(2), Node::new(1), Node::new(4)]));
    }

    #[test]
    fn edges_enumeration() {
        let mut state = LineState::new(4);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(2, 1)).unwrap();
        let mut edges: Vec<(usize, usize)> = state
            .edges()
            .iter()
            .map(|&(u, v)| (u.index(), v.index()))
            .collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn path_value_formula() {
        assert_eq!(path_minla_value(0), 0);
        assert_eq!(path_minla_value(1), 0);
        assert_eq!(path_minla_value(10), 9);
    }
}
