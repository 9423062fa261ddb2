//! The Theorem 16 lower-bound construction: an **adaptive** adversary that
//! forces any closest-to-`π0` deterministic algorithm to pay `Ω(n²)`.
//!
//! Take the middle node `x` of `π0`. First request the edge between `x`'s
//! two `π0`-neighbors, then repeatedly extend the growing component with
//! the next unused `π0`-node **on the side of `x`'s current position**.
//! Because the algorithm always returns to a feasible permutation closest
//! to `π0`, the majority side of the component alternates and the
//! algorithm keeps flipping `x` across the whole component — `Ω(n)` swaps
//! per flip, `Ω(n)` flips. The offline optimum simply moves `x` to one end
//! (`≤ n` swaps) and never moves again.

use mla_graph::{GraphState, RevealEvent, Topology};
use mla_permutation::{Arrangement, Node, Permutation};

use crate::traits::Adversary;

/// The adaptive middle-node line adversary of Theorem 16.
///
/// Works for [`Topology::Lines`] (the paper's setting); a clique-merge
/// variant is allowed as an extension (the same requests are valid clique
/// merges).
///
/// # Examples
///
/// ```
/// use mla_adversary::{Adversary, DetLineAdversary};
/// use mla_graph::{GraphState, Topology};
/// use mla_permutation::Permutation;
///
/// let pi0 = Permutation::identity(5);
/// let mut adversary = DetLineAdversary::new(pi0.clone(), Topology::Lines);
/// let state = GraphState::new(Topology::Lines, 5);
/// // First request joins the middle node's two π0-neighbors: v1—v3.
/// let first = adversary.next(&pi0, &state).unwrap();
/// assert_eq!((first.a().index(), first.b().index()), (1, 3));
/// ```
#[derive(Debug, Clone)]
pub struct DetLineAdversary {
    pi0: Permutation,
    topology: Topology,
    x: Node,
    /// π0 position of the next unused node on the left of `x` (usize::MAX
    /// when exhausted).
    left_ptr: usize,
    /// π0 position of the next unused node on the right of `x` (n when
    /// exhausted).
    right_ptr: usize,
    /// Component endpoints in π0 terms: lowest/highest π0-position nodes.
    left_end: Option<Node>,
    right_end: Option<Node>,
    started: bool,
}

impl DetLineAdversary {
    /// Creates the adversary for initial permutation `pi0`; the pivot `x`
    /// is the node at `π0`'s middle position `⌊(n−1)/2⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `pi0` has fewer than 3 nodes.
    #[must_use]
    pub fn new(pi0: Permutation, topology: Topology) -> Self {
        let n = pi0.len();
        assert!(n >= 3, "theorem 16 construction needs n >= 3, got {n}");
        let mid = (n - 1) / 2;
        let x = pi0.node_at(mid);
        DetLineAdversary {
            x,
            left_ptr: mid - 1,
            right_ptr: mid + 1,
            left_end: None,
            right_end: None,
            started: false,
            pi0,
            topology,
        }
    }

    /// The pivot node `x` (never requested; ends up alone).
    #[must_use]
    pub fn pivot(&self) -> Node {
        self.x
    }

    fn take_left(&mut self) -> Option<Node> {
        if self.left_ptr == usize::MAX {
            return None;
        }
        let node = self.pi0.node_at(self.left_ptr);
        self.left_ptr = self.left_ptr.checked_sub(1).unwrap_or(usize::MAX);
        Some(node)
    }

    fn take_right(&mut self) -> Option<Node> {
        if self.right_ptr >= self.pi0.len() {
            return None;
        }
        let node = self.pi0.node_at(self.right_ptr);
        self.right_ptr += 1;
        Some(node)
    }
}

impl Adversary for DetLineAdversary {
    fn n(&self) -> usize {
        self.pi0.len()
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next(&mut self, current: &dyn Arrangement, _state: &GraphState) -> Option<RevealEvent> {
        if !self.started {
            self.started = true;
            let y1 = self.take_left().expect("n >= 3 has a left neighbor");
            let y2 = self.take_right().expect("n >= 3 has a right neighbor");
            self.left_end = Some(y1);
            self.right_end = Some(y2);
            return Some(RevealEvent::new(y1, y2));
        }
        let left_end = self.left_end.expect("started");
        let right_end = self.right_end.expect("started");
        // Which side of the (contiguous) component does x sit on right now?
        let x_pos = current.position_of(self.x);
        let component_left = current
            .position_of(left_end)
            .min(current.position_of(right_end));
        let x_is_left = x_pos < component_left;
        // Extend on x's side; fall back to the other side when exhausted.
        let (node, attach, went_left) = if x_is_left {
            match self.take_left() {
                Some(v) => (v, left_end, true),
                None => match self.take_right() {
                    Some(v) => (v, right_end, false),
                    None => return None,
                },
            }
        } else {
            match self.take_right() {
                Some(v) => (v, right_end, false),
                None => match self.take_left() {
                    Some(v) => (v, left_end, true),
                    None => return None,
                },
            }
        };
        if went_left {
            self.left_end = Some(node);
        } else {
            self.right_end = Some(node);
        }
        Some(RevealEvent::new(node, attach))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the adversary against a fake "algorithm" that always keeps
    /// the permutation equal to π0 with x pushed just left of the
    /// component (a crude stand-in; real runs live in mla-sim tests).
    #[test]
    fn generates_a_full_line_instance() {
        let pi0 = Permutation::identity(7);
        let mut adversary = DetLineAdversary::new(pi0.clone(), Topology::Lines);
        let mut state = GraphState::new(Topology::Lines, 7);
        let mut current = pi0.clone();
        let mut count = 0;
        while let Some(event) = adversary.next(&current, &state) {
            state.apply(event).unwrap();
            // Fake algorithm: keep a feasible permutation by placing the
            // component in π0 ascending order, then x, then the rest.
            let component = state.component_nodes(adversary.pivot());
            // x never joins the component.
            assert!(!component.contains(&adversary.pivot()) || component.len() == 1);
            let used = state.component_nodes(event.a());
            let mut order: Vec<Node> = used.clone();
            order.sort_by_key(|&v| pi0.position_of(v));
            let mut rest: Vec<Node> = (0..7)
                .map(Node::new)
                .filter(|v| !order.contains(v))
                .collect();
            rest.sort_by_key(|&v| pi0.position_of(v));
            order.extend(rest);
            current = Permutation::from_nodes(order).unwrap();
            assert!(state.is_minla(&current));
            count += 1;
        }
        // All nodes except x end up in one component: n - 2 = 5 requests.
        assert_eq!(count, 5);
        let component = state.component_nodes(Node::new(1));
        assert_eq!(component.len(), 6);
        assert!(!component.contains(&adversary.pivot()));
    }

    #[test]
    fn alternates_sides_when_x_flips() {
        let pi0 = Permutation::identity(9);
        let mut adversary = DetLineAdversary::new(pi0.clone(), Topology::Lines);
        let mut state = GraphState::new(Topology::Lines, 9);
        // First request: neighbors of x = node 4.
        let first = adversary.next(&pi0, &state).unwrap();
        state.apply(first).unwrap();
        assert_eq!((first.a().index(), first.b().index()), (3, 5));
        // Pretend the algorithm put x on the LEFT of the component.
        let x_left = Permutation::from_indices(&[0, 1, 2, 4, 3, 5, 6, 7, 8]).unwrap();
        assert!(state.is_minla(&x_left));
        let second = adversary.next(&x_left, &state).unwrap();
        // Extending on the left: node 2 attaches to left end 3.
        assert_eq!((second.a().index(), second.b().index()), (2, 3));
        state.apply(second).unwrap();
        // Now pretend x flipped to the RIGHT.
        let x_right = Permutation::from_indices(&[0, 1, 2, 3, 5, 4, 6, 7, 8]).unwrap();
        assert!(state.is_minla(&x_right));
        let third = adversary.next(&x_right, &state).unwrap();
        // Extending on the right: node 6 attaches to right end 5.
        assert_eq!((third.a().index(), third.b().index()), (6, 5));
    }

    #[test]
    #[should_panic(expected = "needs n >= 3")]
    fn tiny_instances_rejected() {
        let _ = DetLineAdversary::new(Permutation::identity(2), Topology::Lines);
    }
}
