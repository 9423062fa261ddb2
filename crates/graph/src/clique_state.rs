//! Dynamic state of a collection of disjoint cliques.

use mla_permutation::Node;

use crate::error::GraphError;
use crate::event::RevealEvent;
use crate::state::{ComponentSnapshot, MergeInfo, SnapshotMode};
use crate::union_find::UnionFind;

/// A collection of disjoint cliques, growing by merge reveals.
///
/// Initially every node is a singleton clique. A [`RevealEvent`] merges the
/// two cliques containing its endpoints: all edges between them appear at
/// once, so the result is again a clique.
///
/// # Examples
///
/// ```
/// use mla_graph::{CliqueState, RevealEvent};
/// use mla_permutation::Node;
///
/// let mut state = CliqueState::new(4);
/// let info = state.apply(RevealEvent::new(Node::new(0), Node::new(2))).unwrap();
/// assert_eq!(info.x.nodes(), vec![Node::new(0)]);
/// assert_eq!(info.z.nodes(), vec![Node::new(2)]);
/// assert_eq!(state.component_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CliqueState {
    pub(crate) dsu: UnionFind,
}

impl CliqueState {
    /// Creates `n` singleton cliques.
    #[must_use]
    pub fn new(n: usize) -> Self {
        CliqueState {
            dsu: UnionFind::new(n),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.dsu.len()
    }

    /// Number of cliques (components).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.dsu.component_count()
    }

    /// Returns `true` if `a` and `b` belong to the same clique.
    #[must_use]
    pub fn same_component(&self, a: Node, b: Node) -> bool {
        self.dsu.same_set(a, b)
    }

    /// Nodes of the clique containing `v` (arbitrary order).
    #[must_use]
    pub fn component_nodes(&self, v: Node) -> Vec<Node> {
        self.dsu.members_of(v)
    }

    /// Iterates the clique containing `v` (arbitrary order) without
    /// materializing a member list — the streaming counterpart of
    /// [`CliqueState::component_nodes`] for `O(1)`-memory passes.
    pub fn members_iter(&self, v: Node) -> impl Iterator<Item = Node> + '_ {
        self.dsu.members_iter(v)
    }

    /// All cliques as node lists.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<Node>> {
        self.dsu.components()
    }

    /// Applies a merge reveal, returning snapshots of the two cliques as
    /// they were **before** the merge (`x` contains `event.a()`, `z`
    /// contains `event.b()`). Equivalent to [`CliqueState::peek`] followed
    /// by [`CliqueState::commit`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is not in `0..n`;
    /// * [`GraphError::SelfLoop`] if both endpoints are the same node;
    /// * [`GraphError::SameComponent`] if the endpoints already share a
    ///   clique.
    pub fn apply(&mut self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        let info = self.peek(event)?;
        self.commit(event);
        Ok(info)
    }

    /// Validates a merge reveal and snapshots the two cliques it would
    /// merge, **without** mutating the state. This is the read-only half
    /// of [`CliqueState::apply`].
    ///
    /// # Errors
    ///
    /// Same as [`CliqueState::apply`].
    pub fn peek(&self, event: RevealEvent) -> Result<MergeInfo, GraphError> {
        self.peek_with(event, SnapshotMode::Eager)
    }

    /// [`CliqueState::peek`] with an explicit [`SnapshotMode`]: `Lazy`
    /// runs the same validation but returns size-only snapshots built
    /// from [`UnionFind::size_of`], making the whole peek `O(α(n))`
    /// instead of two `O(size)` member walks.
    ///
    /// # Errors
    ///
    /// Same as [`CliqueState::apply`].
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
        Ok(match mode {
            SnapshotMode::Eager => MergeInfo {
                x: ComponentSnapshot::eager(self.dsu.members_of(a), a),
                z: ComponentSnapshot::eager(self.dsu.members_of(b), b),
            },
            SnapshotMode::Lazy => MergeInfo {
                x: self.lazy_snapshot(a),
                z: self.lazy_snapshot(b),
            },
        })
    }

    /// Size-only snapshot of `joined`'s clique. Debug builds attach the
    /// member list as a shadow so lazy-locate cross-checks can run; the
    /// snapshot still reports itself as lazy either way.
    fn lazy_snapshot(&self, joined: Node) -> ComponentSnapshot {
        #[cfg(debug_assertions)]
        {
            ComponentSnapshot::lazy_with_shadow(self.dsu.members_of(joined), joined)
        }
        #[cfg(not(debug_assertions))]
        {
            ComponentSnapshot::lazy(self.dsu.size_of(joined), joined, false)
        }
    }

    /// The mutating half of [`CliqueState::apply`]: merges the two cliques
    /// in `O(α(n))`, building no snapshots. Must follow a successful
    /// [`CliqueState::peek`] of the same event with no intervening
    /// mutation.
    ///
    /// # Panics
    ///
    /// Panics if the event's endpoints already share a clique (i.e. the
    /// peek contract was violated).
    pub fn commit(&mut self, event: RevealEvent) {
        self.dsu
            .union(event.a(), event.b())
            // mla-lint: allow(panic-safety): peek/commit contract: commit only runs after a successful peek of the same event
            .expect("commit requires a successfully peeked event");
    }

    /// Serializes the state for the checkpoint stack.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.dsu.encode_into(out);
    }

    /// Decodes a state written by [`CliqueState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`](mla_permutation::codec::CodecError) on truncated or
    /// inconsistent input.
    pub fn decode_from(
        r: &mut mla_permutation::codec::ByteReader<'_>,
    ) -> Result<Self, mla_permutation::codec::CodecError> {
        Ok(CliqueState {
            dsu: UnionFind::decode_from(r)?,
        })
    }

    /// All edges of the current graph: every intra-clique pair. Quadratic
    /// in component sizes; intended for verification and small instances.
    #[must_use]
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut edges = Vec::new();
        for component in self.components() {
            for i in 0..component.len() {
                for j in (i + 1)..component.len() {
                    edges.push((component[i], component[j]));
                }
            }
        }
        edges
    }
}

/// The optimum MinLA value of a clique on `m` nodes embedded contiguously:
/// `(m³ − m) / 6`.
///
/// Placing the clique on positions `p+1..p+m` gives total stretch
/// `Σ_{d=1}^{m−1} d·(m−d) = (m³ − m)/6`, and any non-contiguous placement is
/// strictly worse (verified against the exact solver in `mla-offline`
/// tests).
///
/// # Examples
///
/// ```
/// use mla_graph::clique_minla_value;
/// assert_eq!(clique_minla_value(1), 0);
/// assert_eq!(clique_minla_value(2), 1);
/// assert_eq!(clique_minla_value(3), 4);
/// assert_eq!(clique_minla_value(4), 10);
/// ```
#[must_use]
pub fn clique_minla_value(m: usize) -> u128 {
    // u128 arithmetic: m³ overflows u64 past m ≈ 2.6×10⁶ and the value
    // itself past m ≈ 4.7×10⁶, well inside the supported node range.
    let m = m as u128;
    (m * m * m - m) / 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sequence_tracks_components() {
        let mut state = CliqueState::new(6);
        state
            .apply(RevealEvent::new(Node::new(0), Node::new(1)))
            .unwrap();
        state
            .apply(RevealEvent::new(Node::new(2), Node::new(3)))
            .unwrap();
        let info = state
            .apply(RevealEvent::new(Node::new(1), Node::new(3)))
            .unwrap();
        let mut x: Vec<usize> = info.x.nodes().iter().map(|v| v.index()).collect();
        let mut z: Vec<usize> = info.z.nodes().iter().map(|v| v.index()).collect();
        x.sort_unstable();
        z.sort_unstable();
        assert_eq!(x, vec![0, 1]);
        assert_eq!(z, vec![2, 3]);
        assert_eq!(state.component_count(), 3);
        assert!(state.same_component(Node::new(0), Node::new(3)));
    }

    #[test]
    fn apply_rejects_invalid_events() {
        let mut state = CliqueState::new(3);
        assert_eq!(
            state.apply(RevealEvent::new(Node::new(0), Node::new(7))),
            Err(GraphError::NodeOutOfRange {
                node: Node::new(7),
                n: 3
            })
        );
        assert_eq!(
            state.apply(RevealEvent::new(Node::new(1), Node::new(1))),
            Err(GraphError::SelfLoop { node: Node::new(1) })
        );
        state
            .apply(RevealEvent::new(Node::new(0), Node::new(1)))
            .unwrap();
        assert_eq!(
            state.apply(RevealEvent::new(Node::new(1), Node::new(0))),
            Err(GraphError::SameComponent {
                a: Node::new(1),
                b: Node::new(0)
            })
        );
    }

    #[test]
    fn edges_enumerates_intra_clique_pairs() {
        let mut state = CliqueState::new(4);
        state
            .apply(RevealEvent::new(Node::new(0), Node::new(1)))
            .unwrap();
        state
            .apply(RevealEvent::new(Node::new(1), Node::new(2)))
            .unwrap();
        let edges = state.edges();
        assert_eq!(edges.len(), 3); // triangle on {0,1,2}, node 3 isolated
    }

    #[test]
    fn clique_value_formula() {
        // Cross-check the closed form against direct summation.
        for m in 1..=20u128 {
            let direct: u128 = (1..m).map(|d| d * (m - d)).sum();
            assert_eq!(clique_minla_value(m as usize), direct);
        }
        assert_eq!(clique_minla_value(0), 0);
    }

    #[test]
    fn clique_value_survives_the_u64_boundary() {
        // (m³ − m)/6 crosses u64::MAX between m = 4 805 843 and the next
        // step; the old u64 arithmetic overflowed m³ already at
        // m ≈ 2.6×10⁶. Pin both regimes against u128 reference sums.
        let value = |m: u128| (m * m * m - m) / 6;
        // Largest m whose m³ still overflows a u64 multiply chain but
        // whose value fits u64 — the silent-wrap regime of the old code.
        assert_eq!(clique_minla_value(3_000_000), value(3_000_000));
        assert!(clique_minla_value(3_000_000) < u128::from(u64::MAX));
        // Past the boundary the optimum itself no longer fits u64.
        assert!(clique_minla_value(4_900_000) > u128::from(u64::MAX));
        assert_eq!(clique_minla_value(4_900_000), value(4_900_000));
        // Exact boundary bracket — confirms the ≈ 4.7×10⁶ crossover.
        let boundary = (4_000_000u128..5_000_000)
            .rev()
            .find(|&m| value(m) <= u128::from(u64::MAX))
            .expect("boundary lies in the scanned range");
        assert!((4_600_000..4_900_000).contains(&boundary));
        assert!(value(boundary + 1) > u128::from(u64::MAX));
    }
}
