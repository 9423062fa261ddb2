//! The adversary interface: oblivious and adaptive request generators.

use mla_graph::{GraphState, Instance, RevealEvent, RevealSource, Topology};
use mla_permutation::Arrangement;

/// A request generator driven by the simulation engine.
///
/// Oblivious adversaries ignore the `current` arrangement (the paper's
/// randomized guarantees hold against these); adaptive adversaries — like
/// the Theorem 16 construction — inspect the online algorithm's current
/// arrangement before emitting the next reveal. The arrangement arrives
/// as `&dyn Arrangement`, so adaptive adversaries work against any
/// backend without forcing an `O(n)` materialization per reveal.
pub trait Adversary {
    /// Number of nodes of the instance being generated.
    fn n(&self) -> usize;

    /// Topology of the generated reveals.
    fn topology(&self) -> Topology;

    /// Produces the next reveal, or `None` when the sequence is over.
    /// `current` is the online algorithm's arrangement *after* serving the
    /// previous reveal; `state` is the revealed graph so far.
    fn next(&mut self, current: &dyn Arrangement, state: &GraphState) -> Option<RevealEvent>;
}

/// An oblivious adversary replaying a fixed [`Instance`].
///
/// # Examples
///
/// ```
/// use mla_adversary::{Adversary, Oblivious};
/// use mla_graph::{GraphState, Instance, RevealEvent, Topology};
/// use mla_permutation::{Node, Permutation};
///
/// let instance = Instance::new(
///     Topology::Cliques,
///     3,
///     vec![RevealEvent::new(Node::new(0), Node::new(2))],
/// )
/// .unwrap();
/// let mut adversary = Oblivious::new(instance);
/// let perm = Permutation::identity(3);
/// let state = GraphState::new(Topology::Cliques, 3);
/// assert!(adversary.next(&perm, &state).is_some());
/// assert!(adversary.next(&perm, &state).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Oblivious {
    instance: Instance,
    cursor: usize,
}

impl Oblivious {
    /// Wraps a validated instance.
    #[must_use]
    pub fn new(instance: Instance) -> Self {
        Oblivious {
            instance,
            cursor: 0,
        }
    }

    /// The wrapped instance.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

impl Adversary for Oblivious {
    fn n(&self) -> usize {
        self.instance.n()
    }

    fn topology(&self) -> Topology {
        self.instance.topology()
    }

    fn next(&mut self, _current: &dyn Arrangement, _state: &GraphState) -> Option<RevealEvent> {
        let event = self.instance.events().get(self.cursor).copied();
        self.cursor += event.is_some() as usize;
        event
    }
}

/// Bridges any streaming [`RevealSource`] into the engine's
/// [`Adversary`] interface. Like [`Oblivious`], it ignores the online
/// algorithm's arrangement — a streamed sequence is fixed by its seed —
/// but unlike it, events are produced lazily, so the engine can drive
/// `n = 10⁷+` runs without an `Instance` (or its event vector) ever
/// existing. Events are **not** pre-validated; the engine validates each
/// one as it is applied and reports malformed reveals as errors.
///
/// # Examples
///
/// ```
/// use mla_adversary::{Adversary, MergeShape, SourceAdversary, StreamingWorkload};
/// use mla_graph::{GraphState, Topology};
/// use mla_permutation::Permutation;
///
/// let source = StreamingWorkload::new(Topology::Cliques, 4, MergeShape::Uniform, 1);
/// let mut adversary = SourceAdversary::new(source);
/// let state = GraphState::new(Topology::Cliques, 4);
/// assert!(adversary.next(&Permutation::identity(4), &state).is_some());
/// ```
#[derive(Debug)]
pub struct SourceAdversary<S> {
    source: S,
}

impl<S: RevealSource> SourceAdversary<S> {
    /// Wraps a streaming source.
    #[must_use]
    pub fn new(source: S) -> Self {
        SourceAdversary { source }
    }

    /// The wrapped source.
    #[must_use]
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<S: RevealSource> Adversary for SourceAdversary<S> {
    fn n(&self) -> usize {
        self.source.n()
    }

    fn topology(&self) -> Topology {
        self.source.topology()
    }

    fn next(&mut self, _current: &dyn Arrangement, _state: &GraphState) -> Option<RevealEvent> {
        self.source.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::{Node, Permutation};

    #[test]
    fn oblivious_replays_in_order() {
        let events = vec![
            RevealEvent::new(Node::new(0), Node::new(1)),
            RevealEvent::new(Node::new(2), Node::new(0)),
        ];
        let instance = Instance::new(Topology::Cliques, 3, events.clone()).unwrap();
        let mut adversary = Oblivious::new(instance);
        assert_eq!(adversary.n(), 3);
        assert_eq!(adversary.topology(), Topology::Cliques);
        let perm = Permutation::identity(3);
        let state = GraphState::new(Topology::Cliques, 3);
        assert_eq!(adversary.next(&perm, &state), Some(events[0]));
        assert_eq!(adversary.next(&perm, &state), Some(events[1]));
        assert_eq!(adversary.next(&perm, &state), None);
        assert_eq!(adversary.next(&perm, &state), None);
    }
}
