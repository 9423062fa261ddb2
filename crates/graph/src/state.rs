//! Unified dynamic graph state over both topologies, plus MinLA
//! feasibility checking.

use mla_permutation::{Arrangement, Node};

use crate::clique_state::{clique_minla_value, CliqueState};
use crate::error::GraphError;
use crate::event::{RevealEvent, Topology};
use crate::line_state::{path_minla_value, LineState};

/// How much of a merging component a peek should snapshot.
///
/// The paper's randomized policies place a merge from component **sizes**
/// and block **ranges** alone, so walking both member lists on every peek
/// (`O(|X| + |Z|)`) is wasted work on the merge hot path. A
/// [`Lazy`](SnapshotMode::Lazy) peek skips the walks and produces
/// size-only snapshots in `O(α(n))`; callers that still need the lists
/// (jump algorithms, feasibility cross-checks, tests) use
/// [`Eager`](SnapshotMode::Eager) — the default and the historical
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Snapshot the full member lists (`O(|X| + |Z|)` walks).
    Eager,
    /// Snapshot only sizes and joined endpoints (`O(α(n))`).
    Lazy,
}

/// Snapshot of one merging component, taken just before the merge.
///
/// Comes in two flavors (see [`SnapshotMode`]): **eager** snapshots carry
/// the full member list behind [`nodes`](ComponentSnapshot::nodes);
/// **lazy** ones carry only the size and the joined endpoint — enough for
/// the size-biased policies and for an `O(log n)` block locate via
/// [`Arrangement::locate_component`] — and panic if the list is asked
/// for. In debug builds a lazy snapshot additionally carries a shadow
/// member list so the lazy locate path can be cross-checked against the
/// full walk ([`ComponentSnapshot::shadow_nodes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSnapshot {
    /// Members; empty for (release-build) lazy snapshots.
    nodes: Vec<Node>,
    /// Component size (always populated, lazy or not).
    len: usize,
    /// The node named in the reveal event on this side.
    joined: Node,
    /// Where the joined endpoint sits in snapshot order: `true` for the
    /// lines `X` side (the walk ends at `a`), `false` for the lines `Z`
    /// side and for cliques (the walk starts at the joined node). Lets
    /// the lazy locate derive the block's reading direction from the
    /// anchor position alone.
    joined_at_end: bool,
    lazy: bool,
}

impl ComponentSnapshot {
    /// An eager snapshot carrying the full member list. For lines the
    /// list is in **path order**, oriented so that the joined endpoint is
    /// last for the `X` side and first for the `Z` side (the merged path
    /// reads `x.nodes() ++ z.nodes()`); for cliques the order is
    /// arbitrary with the joined node first.
    #[must_use]
    pub fn eager(nodes: Vec<Node>, joined: Node) -> Self {
        let len = nodes.len();
        let joined_at_end = len > 1 && nodes[len - 1] == joined;
        ComponentSnapshot {
            nodes,
            len,
            joined,
            joined_at_end,
            lazy: false,
        }
    }

    /// A lazy snapshot: size and joined endpoint only.
    #[must_use]
    pub fn lazy(len: usize, joined: Node, joined_at_end: bool) -> Self {
        ComponentSnapshot {
            nodes: Vec::new(),
            len,
            joined,
            joined_at_end,
            lazy: true,
        }
    }

    /// A lazy snapshot that also carries the member list, so debug builds
    /// can cross-check the lazy locate path against the full walk.
    #[must_use]
    pub fn lazy_with_shadow(nodes: Vec<Node>, joined: Node) -> Self {
        let mut snapshot = Self::eager(nodes, joined);
        snapshot.lazy = true;
        snapshot
    }

    /// Component size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the snapshot is empty (never produced by a valid
    /// merge, but useful for default values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node named in the reveal event on this side.
    #[must_use]
    pub fn joined(&self) -> Node {
        self.joined
    }

    /// Whether the joined endpoint is last (`true`) or first (`false`) in
    /// snapshot order — see the field docs.
    #[must_use]
    pub fn joined_at_end(&self) -> bool {
        self.joined_at_end
    }

    /// Returns `true` for a size-only (lazy) snapshot.
    #[must_use]
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// The member list of an eager snapshot.
    ///
    /// # Panics
    ///
    /// Panics on a lazy snapshot — callers on the lazy path must place
    /// the merge from sizes and block ranges (or rebuild the list from
    /// the graph state) instead.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        assert!(
            !self.lazy,
            "lazy component snapshots carry no member list; \
             peek eagerly or rebuild the list from the graph state"
        );
        &self.nodes
    }

    /// The member list when one was materialized — eager snapshots
    /// always, lazy ones only in debug builds (the cross-check shadow).
    #[must_use]
    pub fn shadow_nodes(&self) -> Option<&[Node]> {
        (self.nodes.len() == self.len).then_some(&self.nodes[..])
    }
}

/// The result of applying one reveal: the two components that merged, in
/// the paper's notation `X_i` (containing the event's `a`) and `Z_i`
/// (containing the event's `b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeInfo {
    /// Component `X_i`.
    pub x: ComponentSnapshot,
    /// Component `Z_i`.
    pub z: ComponentSnapshot,
}

impl MergeInfo {
    /// Total size of the merged component.
    #[must_use]
    pub fn merged_len(&self) -> usize {
        self.x.len() + self.z.len()
    }
}

/// Dynamic state of the revealed graph, for either topology.
///
/// This is the single entry point the simulation engine and the online
/// algorithms use: apply reveals, query components, and check the MinLA
/// feasibility invariant.
///
/// # Examples
///
/// ```
/// use mla_graph::{GraphState, RevealEvent, Topology};
/// use mla_permutation::{Node, Permutation};
///
/// let mut state = GraphState::new(Topology::Cliques, 4);
/// state.apply(RevealEvent::new(Node::new(1), Node::new(3))).unwrap();
///
/// // {1,3} must be contiguous for a permutation to be a MinLA.
/// let good = Permutation::from_indices(&[0, 1, 3, 2]).unwrap();
/// let bad = Permutation::from_indices(&[1, 0, 3, 2]).unwrap();
/// assert!(state.is_minla(&good));
/// assert!(!state.is_minla(&bad));
/// ```
#[derive(Debug, Clone)]
pub enum GraphState {
    /// Collection of disjoint cliques.
    Cliques(CliqueState),
    /// Collection of disjoint lines.
    Lines(LineState),
}

impl GraphState {
    /// Creates the empty graph `G_0` on `n` nodes under the given topology.
    #[must_use]
    pub fn new(topology: Topology, n: usize) -> Self {
        match topology {
            Topology::Cliques => GraphState::Cliques(CliqueState::new(n)),
            Topology::Lines => GraphState::Lines(LineState::new(n)),
        }
    }

    /// The topology of this state.
    #[must_use]
    pub fn topology(&self) -> Topology {
        match self {
            GraphState::Cliques(_) => Topology::Cliques,
            GraphState::Lines(_) => Topology::Lines,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            GraphState::Cliques(s) => s.n(),
            GraphState::Lines(s) => s.n(),
        }
    }

    /// Number of components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        match self {
            GraphState::Cliques(s) => s.component_count(),
            GraphState::Lines(s) => s.component_count(),
        }
    }

    /// Returns `true` if `a` and `b` are in the same component.
    #[must_use]
    pub fn same_component(&self, a: Node, b: Node) -> bool {
        match self {
            GraphState::Cliques(s) => s.same_component(a, b),
            GraphState::Lines(s) => s.same_component(a, b),
        }
    }

    /// Nodes of the component containing `v`. For lines, in path order
    /// (canonical orientation); for cliques, arbitrary order.
    #[must_use]
    pub fn component_nodes(&self, v: Node) -> Vec<Node> {
        match self {
            GraphState::Cliques(s) => s.component_nodes(v),
            GraphState::Lines(s) => s.path_of(v),
        }
    }

    /// All components as node lists. For lines, each in path order.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<Node>> {
        match self {
            GraphState::Cliques(s) => s.components(),
            GraphState::Lines(s) => s.components_ordered(),
        }
    }

    /// Applies one reveal. Equivalent to [`GraphState::peek`] followed by
    /// [`GraphState::commit`].
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of the underlying state; see
    /// [`CliqueState::apply`] and [`LineState::apply`].
    pub fn apply(&mut self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        self.apply_with(event, SnapshotMode::Eager)
    }

    /// [`GraphState::apply`] with an explicit [`SnapshotMode`]: `Lazy`
    /// performs the same validation and merge but returns size-only
    /// snapshots, making the whole call `O(α(n))` instead of
    /// `O(|X| + |Z|)`.
    ///
    /// # Errors
    ///
    /// Same as [`GraphState::apply`].
    pub fn apply_with(
        &mut self,
        event: RevealEvent,
        mode: SnapshotMode,
    ) -> Result<MergeInfo, GraphError> {
        let info = self.peek_with(event, mode)?;
        self.commit(event);
        Ok(info)
    }

    /// Validates one reveal and snapshots the two components it would
    /// merge, without mutating the state. This is the read-only half of
    /// [`GraphState::apply`]; [`GraphState::commit`] is the other.
    ///
    /// # Errors
    ///
    /// Same as [`GraphState::apply`].
    pub fn peek(&self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        self.peek_with(event, SnapshotMode::Eager)
    }

    /// [`GraphState::peek`] with an explicit [`SnapshotMode`]: `Lazy`
    /// runs the same validation but snapshots only sizes and joined
    /// endpoints, in `O(α(n))`. In debug builds lazy snapshots still
    /// carry shadow member lists so downstream lazy-locate cross-checks
    /// can run.
    ///
    /// # Errors
    ///
    /// Same as [`GraphState::apply`].
    pub fn peek_with(
        &self,
        event: RevealEvent,
        mode: SnapshotMode,
    ) -> Result<MergeInfo, GraphError> {
        match self {
            GraphState::Cliques(s) => s.peek_with(event, mode),
            GraphState::Lines(s) => s.peek_with(event, mode),
        }
    }

    /// The mutating half of [`GraphState::apply`]: merges the two
    /// components in `O(α(n))` without rebuilding the snapshots. Must
    /// follow a successful [`GraphState::peek`] of the same event with no
    /// intervening mutation.
    ///
    /// # Panics
    ///
    /// Panics if the peek contract is violated (the event is not
    /// currently a valid merge).
    pub fn commit(&mut self, event: RevealEvent) {
        match self {
            GraphState::Cliques(s) => s.commit(event),
            GraphState::Lines(s) => s.commit(event),
        }
    }

    /// Serializes the state (a topology tag, then the topology-specific
    /// payload) for the checkpoint stack.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            GraphState::Cliques(s) => {
                mla_permutation::codec::put_u8(out, 0);
                s.encode_into(out);
            }
            GraphState::Lines(s) => {
                mla_permutation::codec::put_u8(out, 1);
                s.encode_into(out);
            }
        }
    }

    /// Decodes a state written by [`GraphState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`](mla_permutation::codec::CodecError) on truncated or
    /// inconsistent input.
    pub fn decode_from(
        r: &mut mla_permutation::codec::ByteReader<'_>,
    ) -> Result<Self, mla_permutation::codec::CodecError> {
        match r.u8()? {
            0 => Ok(GraphState::Cliques(CliqueState::decode_from(r)?)),
            1 => Ok(GraphState::Lines(LineState::decode_from(r)?)),
            other => Err(mla_permutation::codec::CodecError::invalid(format!(
                "unknown graph-state topology tag {other}"
            ))),
        }
    }

    /// All edges of the revealed graph so far.
    #[must_use]
    pub fn edges(&self) -> Vec<(Node, Node)> {
        match self {
            GraphState::Cliques(s) => s.edges(),
            GraphState::Lines(s) => s.edges(),
        }
    }

    /// Total stretch `Σ_{(u,v)∈E} |π(u) − π(v)|` of the arrangement `pi`
    /// over the revealed edges.
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not cover all nodes of the graph.
    #[must_use]
    pub fn arrangement_cost<P: Arrangement + ?Sized>(&self, pi: &P) -> u128 {
        // u128 totals: a single clique's stretch sum exceeds u64 past
        // m ≈ 4.7×10⁶ (it equals (m³−m)/6 at the optimum).
        self.edges()
            .iter()
            .map(|&(u, v)| pi.position_of(u).abs_diff(pi.position_of(v)) as u128)
            .sum()
    }

    /// The optimum MinLA value of the revealed graph: the sum of the
    /// closed-form optima of its components (`(m³−m)/6` per clique, `m−1`
    /// per path). Returned as `u128`: the clique optimum alone exceeds
    /// `u64::MAX` near `m ≈ 4.7×10⁶`.
    #[must_use]
    pub fn minla_value(&self) -> u128 {
        match self {
            GraphState::Cliques(s) => s
                .components()
                .iter()
                .map(|c| clique_minla_value(c.len()))
                .sum(),
            GraphState::Lines(s) => s
                .components()
                .iter()
                .map(|c| path_minla_value(c.len()))
                .sum(),
        }
    }

    /// Checks the paper's feasibility invariant: is `pi` a minimum linear
    /// arrangement of the revealed graph?
    ///
    /// * Cliques: every clique occupies contiguous positions.
    /// * Lines: every path occupies contiguous positions **and** its
    ///   internal order is path order, forward or reversed.
    ///
    /// Runs in `O(n)` (amortized over components). For the per-reveal
    /// check inside the simulation engine, prefer the incremental
    /// [`GraphState::merge_keeps_minla`].
    ///
    /// # Panics
    ///
    /// Panics if `pi` has a different node count than the graph.
    #[must_use]
    pub fn is_minla<P: Arrangement + ?Sized>(&self, pi: &P) -> bool {
        assert_eq!(
            pi.len(),
            self.n(),
            "permutation covers {} nodes, graph has {}",
            pi.len(),
            self.n()
        );
        match self {
            GraphState::Cliques(s) => s
                .components()
                .iter()
                .all(|c| pi.contiguous_range(c).is_some()),
            GraphState::Lines(s) => s
                .components_ordered()
                .iter()
                .all(|path| pi.path_range(path).is_some()),
        }
    }

    /// Returns `true` iff every component is exactly one block of a
    /// partition of the nodes into blocks and, for lines, reads in path
    /// order inside it. `block_of(v)` gives `v`'s block as any id shared
    /// by exactly its members, the block's length, and `v`'s index in the
    /// block. On the segment backend's segments this is the layout every
    /// randomized policy keeps; a checkpoint restore checks it before it
    /// trusts a decoded arrangement.
    ///
    /// One flat pass over the nodes — their union-find parents for
    /// cliques, their path neighbours for lines — with no `find` and no
    /// allocation.
    #[must_use]
    pub fn components_are_blocks(&self, block_of: impl Fn(Node) -> (u32, usize, usize)) -> bool {
        match self {
            GraphState::Cliques(s) => s.dsu.sets_are_blocks(&block_of),
            GraphState::Lines(s) => s.paths_are_blocks(&block_of),
        }
    }

    /// Incremental per-reveal feasibility: assuming `pi` was a MinLA of
    /// the graph *before* the merge recorded in `info`, is it still one
    /// now? Only the merged component can have broken the invariant —
    /// block moves shift foreign components without reordering them — so
    /// this validates just the two merging segments, in `O(|X| + |Z|)`
    /// instead of the full `O(n)` scan of [`GraphState::is_minla`].
    ///
    /// * Cliques: the merged node set must be contiguous
    ///   ([`Arrangement::contiguous_range`]).
    /// * Lines: the merged path `x.nodes ++ z.nodes` must additionally
    ///   read in path order, forward or reversed
    ///   ([`Arrangement::path_range`]).
    ///
    /// With **lazy** snapshots the member lists are rebuilt from the
    /// graph state instead, so the call must happen *after* the merge was
    /// committed (the engine always checks post-commit); the cost is
    /// still `O(|X| + |Z|)`, paid only when feasibility checking is on.
    ///
    /// # Panics
    ///
    /// Panics if `info` names nodes outside `pi`.
    #[must_use]
    pub fn merge_keeps_minla<P: Arrangement + ?Sized>(&self, pi: &P, info: &MergeInfo) -> bool {
        if info.x.is_lazy() || info.z.is_lazy() {
            // Lazy snapshots carry no member lists, so the check rebuilds
            // the merged component from the graph state with one walk and
            // feeds it to the backend's range query, whose coalesced-block
            // fast path costs O(len) slot reads plus a single tree descent
            // — per-member `position_of` lookups would pay O(log n) each on
            // the segment backend.
            let expected = info.merged_len();
            return match self {
                GraphState::Cliques(s) => {
                    let merged = s.component_nodes(info.x.joined());
                    merged.len() == expected && pi.contiguous_range(&merged).is_some()
                }
                GraphState::Lines(s) => {
                    let mut merged = Vec::with_capacity(expected);
                    s.path_across(info.x.joined(), info.z.joined(), &mut merged);
                    merged.len() == expected && pi.path_range(&merged).is_some()
                }
            };
        }
        let merged: Vec<Node> = info
            .x
            .nodes()
            .iter()
            .chain(info.z.nodes().iter())
            .copied()
            .collect();
        match self {
            GraphState::Cliques(_) => pi.contiguous_range(&merged).is_some(),
            GraphState::Lines(_) => pi.path_range(&merged).is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::Permutation;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    #[test]
    fn clique_feasibility_requires_contiguity_only() {
        let mut state = GraphState::new(Topology::Cliques, 5);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(1, 2)).unwrap();
        // {0,1,2} contiguous in any internal order is feasible.
        for arrangement in [[2usize, 0, 1, 3, 4], [1, 2, 0, 4, 3], [0, 1, 2, 3, 4]] {
            let pi = Permutation::from_indices(&arrangement).unwrap();
            assert!(state.is_minla(&pi), "{arrangement:?} should be feasible");
        }
        let bad = Permutation::from_indices(&[0, 3, 1, 2, 4]).unwrap();
        assert!(!state.is_minla(&bad));
    }

    #[test]
    fn line_feasibility_requires_path_order() {
        let mut state = GraphState::new(Topology::Lines, 5);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(1, 2)).unwrap();
        // Path 0-1-2: contiguous in path order or reversed.
        let fwd = Permutation::from_indices(&[0, 1, 2, 3, 4]).unwrap();
        let rev = Permutation::from_indices(&[3, 2, 1, 0, 4]).unwrap();
        let scrambled = Permutation::from_indices(&[1, 0, 2, 3, 4]).unwrap();
        assert!(state.is_minla(&fwd));
        assert!(state.is_minla(&rev));
        assert!(!state.is_minla(&scrambled));
    }

    #[test]
    fn arrangement_cost_matches_minla_value_when_feasible() {
        let mut state = GraphState::new(Topology::Cliques, 6);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(0, 2)).unwrap();
        state.apply(ev(4, 5)).unwrap();
        let pi = Permutation::from_indices(&[2, 0, 1, 3, 5, 4]).unwrap();
        assert!(state.is_minla(&pi));
        assert_eq!(state.arrangement_cost(&pi), state.minla_value());
        // Infeasible arrangements cost strictly more.
        let bad = Permutation::from_indices(&[2, 3, 0, 1, 5, 4]).unwrap();
        assert!(!state.is_minla(&bad));
        assert!(state.arrangement_cost(&bad) > state.minla_value());
    }

    #[test]
    fn line_arrangement_cost_matches_value() {
        let mut state = GraphState::new(Topology::Lines, 4);
        state.apply(ev(0, 1)).unwrap();
        state.apply(ev(1, 2)).unwrap();
        state.apply(ev(2, 3)).unwrap();
        let rev = Permutation::from_indices(&[3, 2, 1, 0]).unwrap();
        assert!(state.is_minla(&rev));
        assert_eq!(state.arrangement_cost(&rev), 3);
        assert_eq!(state.minla_value(), 3);
    }

    #[test]
    fn merge_info_lengths() {
        let mut state = GraphState::new(Topology::Cliques, 4);
        state.apply(ev(0, 1)).unwrap();
        let info = state.apply(ev(0, 2)).unwrap();
        assert_eq!(info.x.len(), 2);
        assert_eq!(info.z.len(), 1);
        assert_eq!(info.merged_len(), 3);
        assert!(!info.x.is_empty());
    }

    #[test]
    fn unified_accessors() {
        let mut state = GraphState::new(Topology::Lines, 3);
        assert_eq!(state.topology(), Topology::Lines);
        assert_eq!(state.n(), 3);
        assert_eq!(state.component_count(), 3);
        state.apply(ev(0, 2)).unwrap();
        assert!(state.same_component(Node::new(0), Node::new(2)));
        assert_eq!(state.component_nodes(Node::new(0)).len(), 2);
        assert_eq!(state.components().len(), 2);
        assert_eq!(state.edges().len(), 1);
    }

    #[test]
    fn incremental_check_agrees_with_full_scan() {
        // Cliques: after merging {0,1} with {2}, contiguity of {0,1,2}
        // decides feasibility.
        let mut state = GraphState::new(Topology::Cliques, 5);
        state.apply(ev(0, 1)).unwrap();
        let info = state.apply(ev(1, 2)).unwrap();
        let good = Permutation::from_indices(&[2, 0, 1, 3, 4]).unwrap();
        let bad = Permutation::from_indices(&[0, 3, 1, 2, 4]).unwrap();
        assert!(state.merge_keeps_minla(&good, &info));
        assert!(state.is_minla(&good));
        assert!(!state.merge_keeps_minla(&bad, &info));
        assert!(!state.is_minla(&bad));

        // Lines: the merged path must additionally be monotone.
        let mut lines = GraphState::new(Topology::Lines, 5);
        lines.apply(ev(0, 1)).unwrap();
        let info = lines.apply(ev(1, 2)).unwrap();
        let forward = Permutation::from_indices(&[0, 1, 2, 3, 4]).unwrap();
        let reversed = Permutation::from_indices(&[3, 2, 1, 0, 4]).unwrap();
        let scrambled = Permutation::from_indices(&[1, 0, 2, 3, 4]).unwrap();
        assert!(lines.merge_keeps_minla(&forward, &info));
        assert!(lines.merge_keeps_minla(&reversed, &info));
        assert!(!lines.merge_keeps_minla(&scrambled, &info));
        assert!(!lines.is_minla(&scrambled));

        // Lines, lazy snapshots: the path 0-1-2 folded into one segment
        // must still read in path order, not merely be contiguous.
        use mla_permutation::{MergeOrder, SegmentArrangement};
        let mut lines = GraphState::new(Topology::Lines, 4);
        lines.apply_with(ev(0, 1), SnapshotMode::Lazy).unwrap();
        let info = lines.apply_with(ev(1, 2), SnapshotMode::Lazy).unwrap();
        assert!(info.x.is_lazy() && info.z.is_lazy());
        for (order, feasible) in [([1, 0, 2, 3], false), ([2, 1, 0, 3], true)] {
            let mut arr =
                SegmentArrangement::from_permutation(&Permutation::from_indices(&order).unwrap());
            // Zero-gap merges fold positions 0..3 into one segment and
            // leave the layout as it is.
            arr.merge_move(1..2, 2..3, MergeOrder::KEEP);
            arr.merge_move(0..1, 1..3, MergeOrder::KEEP);
            assert_eq!(arr.segment_count(), 2);
            assert_eq!(lines.merge_keeps_minla(&arr, &info), feasible, "{order:?}");
            assert_eq!(lines.is_minla(&arr), feasible, "{order:?}");
        }
    }

    #[test]
    fn generic_checks_accept_the_segment_backend() {
        use mla_permutation::SegmentArrangement;
        let mut state = GraphState::new(Topology::Cliques, 4);
        let info = state.apply(ev(1, 3)).unwrap();
        let arr = SegmentArrangement::from_permutation(
            &Permutation::from_indices(&[0, 1, 3, 2]).unwrap(),
        );
        assert!(state.is_minla(&arr));
        assert!(state.merge_keeps_minla(&arr, &info));
        assert_eq!(state.arrangement_cost(&arr), 1);
        let dynamic: &dyn mla_permutation::Arrangement = &arr;
        assert!(state.is_minla(dynamic));
    }

    #[test]
    #[should_panic(expected = "permutation covers")]
    fn is_minla_size_mismatch_panics() {
        let state = GraphState::new(Topology::Cliques, 3);
        let pi = Permutation::identity(4);
        let _ = state.is_minla(&pi);
    }
}
