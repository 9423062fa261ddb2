//! [`RevealSource`]: streaming reveal sequences.
//!
//! The paper's online model delivers the graph one merge at a time, so
//! nothing about a run requires the whole request sequence in memory. A
//! `RevealSource` is the streaming counterpart of [`Instance`]: an
//! iterator-style producer of [`RevealEvent`]s with **exact** size hints
//! and a seedable [`restart`](RevealSource::restart), so large-`n`
//! workloads (`n = 10⁷+`) can be generated lazily — `O(n)` generator
//! state instead of a materialized `Vec<RevealEvent>` — and replayed
//! bit-identically (e.g. to drive a second backend over the same
//! sequence without cloning anything).
//!
//! Two implementations ship with the workspace:
//!
//! * [`InstanceSource`] (here) — the trivial adapter over a validated
//!   [`Instance`], for code that already holds one;
//! * `StreamingWorkload` (in `mla-adversary`) — the lazy random-workload
//!   generator, which advances its Fenwick/component state one merge per
//!   pull.
//!
//! Streamed events are **not** pre-validated the way `Instance::new`
//! validates: consumers (the `mla-sim` engine) validate each event as it
//! is applied and surface malformed reveals as typed errors.

use crate::error::GraphError;
use crate::event::{RevealEvent, Topology};
use crate::instance::Instance;
use crate::state::GraphState;

/// A streaming producer of reveal events.
///
/// Implementations must be **deterministic**: after
/// [`restart`](RevealSource::restart), the exact same event sequence
/// replays. Size hints are exact, not lower bounds — campaign code sizes
/// buffers and progress accounting from them.
///
/// The trait is object-safe; the simulation engine consumes
/// `Box<dyn RevealSource>`.
///
/// # Examples
///
/// ```
/// use mla_graph::{Instance, InstanceSource, RevealEvent, RevealSource, Topology};
/// use mla_permutation::Node;
///
/// let instance = Instance::new(
///     Topology::Cliques,
///     3,
///     vec![RevealEvent::new(Node::new(0), Node::new(2))],
/// )
/// .unwrap();
/// let mut source = InstanceSource::new(instance);
/// assert_eq!(source.remaining(), 1);
/// assert!(source.next_event().is_some());
/// assert_eq!(source.remaining(), 0);
/// source.restart();
/// assert_eq!(source.remaining(), 1);
/// ```
pub trait RevealSource {
    /// Topology of the produced reveals.
    fn topology(&self) -> Topology;

    /// Number of nodes of the generated instance.
    fn n(&self) -> usize;

    /// Total number of events the full sequence contains (exact; does not
    /// change as events are pulled).
    fn len(&self) -> usize;

    /// Returns `true` if the full sequence contains no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events not yet emitted (exact size hint).
    fn remaining(&self) -> usize;

    /// Produces the next reveal, or `None` once the sequence is over.
    fn next_event(&mut self) -> Option<RevealEvent>;

    /// Rewinds to the start of the sequence. Deterministic sources replay
    /// the identical event sequence afterwards (seeded generators re-seed
    /// from their stored seed).
    fn restart(&mut self);
}

/// Materializes and validates the **rest** of a source as an
/// [`Instance`] — the bridge back to offline post-analysis (solvers,
/// merge trees) for sequences that fit in memory. Call
/// [`restart`](RevealSource::restart) first to capture the full
/// sequence.
///
/// # Errors
///
/// Returns the first [`GraphError`] if the streamed events do not replay
/// cleanly under the source's topology and node count.
pub fn collect_instance<S: RevealSource + ?Sized>(source: &mut S) -> Result<Instance, GraphError> {
    let mut events = Vec::with_capacity(source.remaining());
    while let Some(event) = source.next_event() {
        events.push(event);
    }
    Instance::new(source.topology(), source.n(), events)
}

/// The trivial [`RevealSource`] over a validated [`Instance`]: replays
/// its events in order; `restart` rewinds the cursor.
#[derive(Debug, Clone)]
pub struct InstanceSource {
    instance: Instance,
    cursor: usize,
}

impl InstanceSource {
    /// Wraps a validated instance.
    #[must_use]
    pub fn new(instance: Instance) -> Self {
        InstanceSource {
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

impl From<Instance> for InstanceSource {
    fn from(instance: Instance) -> Self {
        InstanceSource::new(instance)
    }
}

impl RevealSource for InstanceSource {
    fn topology(&self) -> Topology {
        self.instance.topology()
    }

    fn n(&self) -> usize {
        self.instance.n()
    }

    fn len(&self) -> usize {
        self.instance.len()
    }

    fn remaining(&self) -> usize {
        self.instance.len() - self.cursor
    }

    fn next_event(&mut self) -> Option<RevealEvent> {
        let event = self.instance.events().get(self.cursor).copied();
        self.cursor += usize::from(event.is_some());
        event
    }

    fn restart(&mut self) {
        self.cursor = 0;
    }
}

/// Replays a whole source against a fresh [`GraphState`], returning the
/// final state. Streaming counterpart of [`Instance::final_state`];
/// unlike it, the events are validated on the fly.
///
/// # Errors
///
/// Returns the first [`GraphError`] produced by an invalid reveal.
pub fn final_state_of<S: RevealSource + ?Sized>(source: &mut S) -> Result<GraphState, GraphError> {
    let mut state = GraphState::new(source.topology(), source.n());
    while let Some(event) = source.next_event() {
        state.apply(event)?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::Node;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    fn sample_instance() -> Instance {
        Instance::new(Topology::Lines, 4, vec![ev(0, 1), ev(1, 2), ev(2, 3)]).unwrap()
    }

    #[test]
    fn instance_source_round_trip() {
        let instance = sample_instance();
        let mut source = InstanceSource::new(instance.clone());
        assert_eq!(source.topology(), Topology::Lines);
        assert_eq!(source.n(), 4);
        assert_eq!(RevealSource::len(&source), 3);
        assert!(!RevealSource::is_empty(&source));
        let streamed: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(streamed, instance.events());
        assert_eq!(source.remaining(), 0);
        assert_eq!(source.next_event(), None);
    }

    #[test]
    fn restart_replays_identically() {
        let mut source = InstanceSource::new(sample_instance());
        let first: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
        source.restart();
        let second: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn collect_round_trips_through_instance() {
        let instance = sample_instance();
        let mut source = InstanceSource::new(instance.clone());
        let collected = collect_instance(&mut source).unwrap();
        assert_eq!(collected, instance);
        // A drained source collects to the empty instance.
        let empty = collect_instance(&mut source).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn final_state_matches_instance_replay() {
        let instance = sample_instance();
        let mut source = InstanceSource::new(instance.clone());
        let state = final_state_of(&mut source).unwrap();
        assert_eq!(state.components(), instance.final_state().components());
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn RevealSource> = Box::new(InstanceSource::new(sample_instance()));
        assert_eq!(boxed.remaining(), 3);
        assert!(boxed.next_event().is_some());
        boxed.restart();
        assert_eq!(boxed.remaining(), 3);
    }
}
