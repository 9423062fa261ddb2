//! Streaming random workloads: the lazy counterpart of
//! [`random_clique_instance`](crate::random_clique_instance) /
//! [`random_line_instance`](crate::random_line_instance).
//!
//! The whole generator is a pull-based state machine, [`WorkloadCore`]:
//! component slots, a table of deques for the merged components (lines
//! keep path order) plus, for the size-biased shape, a Fenwick weight
//! index — advanced **one merge per pull**. The materialized generators
//! in `random.rs` simply drain the same core, so a [`StreamingWorkload`]
//! and a materialized instance built from the same seed produce
//! *identical* event sequences by construction (and the property tests
//! in `tests/streaming.rs` pin this down).
//!
//! Memory: the core never holds a `Vec<RevealEvent>` — its footprint is
//! the `O(n)` component state, which is what makes `n = 10⁷` runs fit in
//! bounded memory (the ROADMAP's "streaming instances" item).

use std::collections::VecDeque;

use mla_graph::{RevealEvent, RevealSource, Topology};
use mla_permutation::Node;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::random::MergeShape;

/// The pull-based generator state machine, generic over its RNG so the
/// materialized path can borrow a caller's generator (`&mut R`) while
/// the streaming path owns a re-seedable one.
pub(crate) struct WorkloadCore<R> {
    topology: Topology,
    n: usize,
    emitted: usize,
    rng: R,
    shape: ShapeState,
    deques: Deques,
}

/// One component, in path order for lines (arbitrary order for
/// cliques), as an 8-byte slot. The initial state is `n` singletons, and
/// a deque per singleton would cost ten million one-element heap
/// allocations at `n = 10⁷`, so a singleton holds its node inline; a
/// component takes a deque in the core's [`Deques`] table on its first
/// merge.
#[derive(Clone, Copy)]
enum Comp {
    /// A singleton component.
    One(Node),
    /// A merged component: the slot of its deque in [`Deques`], in
    /// logical (path) order.
    Many(u32),
}

/// The deques of the merged components, by slot. A component's slot is
/// freed when a merge absorbs it and reused by the next promotion.
#[derive(Default)]
struct Deques {
    slots: Vec<VecDeque<Node>>,
    free: Vec<u32>,
}

impl Deques {
    fn len(&self, comp: Comp) -> usize {
        match comp {
            Comp::One(_) => 1,
            Comp::Many(slot) => self.slots[slot as usize].len(),
        }
    }

    fn get(&self, comp: Comp, index: usize) -> Node {
        match comp {
            Comp::One(v) => {
                debug_assert_eq!(index, 0);
                v
            }
            Comp::Many(slot) => self.slots[slot as usize][index],
        }
    }

    fn front(&self, comp: Comp) -> Node {
        self.get(comp, 0)
    }

    fn back(&self, comp: Comp) -> Node {
        self.get(comp, self.len(comp) - 1)
    }

    /// The slot of `comp`'s deque; a singleton takes a free or new slot,
    /// pre-reserving room for `extra` absorbed nodes.
    fn promote(&mut self, comp: Comp, extra: usize) -> u32 {
        let v = match comp {
            Comp::Many(slot) => return slot,
            Comp::One(v) => v,
        };
        let mut nodes = VecDeque::with_capacity(1 + extra);
        nodes.push_back(v);
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = nodes;
                slot
            }
            None => {
                self.slots.push(nodes);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retires `comp`, returning its nodes in logical order and freeing
    /// its slot.
    fn take(&mut self, comp: Comp) -> impl DoubleEndedIterator<Item = Node> {
        let (lone, nodes) = match comp {
            Comp::One(v) => (Some(v), VecDeque::new()),
            Comp::Many(slot) => {
                self.free.push(slot);
                (None, std::mem::take(&mut self.slots[slot as usize]))
            }
        };
        lone.into_iter().chain(nodes)
    }
}

/// Per-shape generator state, absorbed smaller-into-larger so the whole
/// n−1 merge schedule costs `O(n log n)` moves.
enum ShapeState {
    /// Merge two uniformly random components.
    Uniform { comps: Vec<Comp> },
    /// Merge two size-biased components via the Fenwick index (emptied
    /// slots keep weight 0 so indices stay stable).
    SizeBiased {
        comps: Vec<Comp>,
        weights: WeightIndex,
    },
    /// Node 0's component absorbs the other nodes in a pre-shuffled
    /// order (the shuffle runs at construction, exactly where the
    /// materialized loop ran it).
    Sequential {
        anchor: Comp,
        order: Vec<Node>,
        cursor: usize,
    },
    /// Round-based pairing; each round shuffles, sets one odd component
    /// aside and merges the rest in pop order.
    Balanced {
        round: Vec<Comp>,
        next: Vec<Comp>,
        odd: Option<Comp>,
    },
}

impl<R: Rng> WorkloadCore<R> {
    /// A full-merge workload on `n` nodes (`n − 1` events total).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new(topology: Topology, n: usize, shape: MergeShape, mut rng: R) -> Self {
        assert!(n > 0, "instance needs at least one node");
        let shape = match shape {
            MergeShape::Uniform => ShapeState::Uniform {
                comps: singleton_components(n),
            },
            MergeShape::SizeBiased => ShapeState::SizeBiased {
                comps: singleton_components(n),
                weights: WeightIndex::with_unit_weights(n),
            },
            MergeShape::Sequential => {
                // The component of node 0 absorbs the others in random order.
                let mut order: Vec<Node> = (1..n).map(Node::new).collect();
                shuffle(&mut order, &mut rng);
                ShapeState::Sequential {
                    anchor: Comp::One(Node::new(0)),
                    order,
                    cursor: 0,
                }
            }
            MergeShape::Balanced => ShapeState::Balanced {
                round: Vec::new(),
                next: singleton_components(n),
                odd: None,
            },
        };
        WorkloadCore {
            topology,
            n,
            emitted: 0,
            rng,
            shape,
            deques: Deques::default(),
        }
    }

    pub(crate) fn topology(&self) -> Topology {
        self.topology
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Total events of the full sequence: a complete merge schedule.
    pub(crate) fn len(&self) -> usize {
        self.n - 1
    }

    pub(crate) fn remaining(&self) -> usize {
        self.len() - self.emitted
    }

    /// Advances one merge and returns its event.
    pub(crate) fn next_event(&mut self) -> Option<RevealEvent> {
        if self.remaining() == 0 {
            return None;
        }
        let topology = self.topology;
        let rng = &mut self.rng;
        let deques = &mut self.deques;
        let event = match &mut self.shape {
            ShapeState::Uniform { comps } => {
                debug_assert!(comps.len() > 1);
                let i = rng.gen_range(0..comps.len());
                let mut j = rng.gen_range(0..comps.len());
                while j == i {
                    j = rng.gen_range(0..comps.len());
                }
                let (event, merged) = join(topology, comps[i], comps[j], deques, rng);
                comps[i] = merged;
                comps.swap_remove(j);
                event
            }
            ShapeState::SizeBiased { comps, weights } => {
                // The total weight is always n; collisions with the first
                // pick are rejected — exactly the renormalized excluded
                // distribution.
                let n = comps.len() as u64;
                let i = weights.select(rng.gen_range(0..n));
                let mut j = weights.select(rng.gen_range(0..n));
                while j == i {
                    j = weights.select(rng.gen_range(0..n));
                }
                // Slot `j` keeps a stale component, never read again: its
                // weight drops to 0, so `select` never returns it.
                let absorbed = deques.len(comps[j]) as u64;
                let (event, merged) = join(topology, comps[i], comps[j], deques, rng);
                comps[i] = merged;
                weights.add(i, absorbed);
                weights.sub(j, absorbed);
                event
            }
            ShapeState::Sequential {
                anchor,
                order,
                cursor,
            } => {
                let v = order[*cursor];
                *cursor += 1;
                let (event, merged) = join(topology, *anchor, Comp::One(v), deques, rng);
                *anchor = merged;
                event
            }
            ShapeState::Balanced { round, next, odd } => {
                if round.len() < 2 {
                    // Assemble the next round exactly as the batch loop
                    // did: leftover pairs' results, then the odd one out,
                    // then shuffle and set the new odd aside.
                    debug_assert!(round.is_empty());
                    let mut comps = std::mem::take(next);
                    comps.extend(odd.take());
                    shuffle(&mut comps, rng);
                    *odd = (comps.len() % 2 == 1).then(|| comps.pop().expect("non-empty"));
                    *round = comps;
                }
                let second = round.pop().expect("round holds a pair");
                let first = round.pop().expect("round holds a pair");
                let (event, merged) = join(topology, first, second, deques, rng);
                next.push(merged);
                event
            }
        };
        self.emitted += 1;
        Some(event)
    }
}

/// One singleton component per node — inline, zero heap allocations.
fn singleton_components(n: usize) -> Vec<Comp> {
    (0..n).map(|v| Comp::One(Node::new(v))).collect()
}

/// Emits a valid join event between the two components (random members
/// for cliques, random endpoints for lines) and returns the merged
/// component, absorbing the smaller side into the larger — for lines, in
/// path order with the junction nodes adjacent.
fn join<R: Rng + ?Sized>(
    topology: Topology,
    a_comp: Comp,
    b_comp: Comp,
    deques: &mut Deques,
    rng: &mut R,
) -> (RevealEvent, Comp) {
    let pick = |comp: Comp, rng: &mut R| match topology {
        Topology::Cliques => deques.get(comp, rng.gen_range(0..deques.len(comp))),
        Topology::Lines => {
            if rng.gen_bool(0.5) {
                deques.front(comp)
            } else {
                deques.back(comp)
            }
        }
    };
    let a = pick(a_comp, rng);
    let b = pick(b_comp, rng);
    let event = RevealEvent::new(a, b);
    let (into, other, junction_into, junction_other) = if deques.len(a_comp) >= deques.len(b_comp) {
        (a_comp, b_comp, a, b)
    } else {
        (b_comp, a_comp, b, a)
    };
    let junction_at_back = deques.back(into) == junction_into;
    let other_junction_first = deques.front(other) == junction_other;
    let slot = deques.promote(into, deques.len(other));
    let other = deques.take(other);
    let into = &mut deques.slots[slot as usize];
    match topology {
        Topology::Cliques => into.extend(other),
        Topology::Lines => {
            // Attach `other` at `into`'s junction end, oriented so the two
            // junction nodes become path neighbors.
            match (junction_at_back, other_junction_first) {
                (true, true) => other.for_each(|v| into.push_back(v)),
                (true, false) => other.rev().for_each(|v| into.push_back(v)),
                (false, true) => other.for_each(|v| into.push_front(v)),
                (false, false) => other.rev().for_each(|v| into.push_front(v)),
            }
        }
    }
    (event, Comp::Many(slot))
}

/// A Fenwick-indexed weight table with O(log n) weighted sampling — the
/// size-biased shape's component picker.
struct WeightIndex {
    tree: Vec<u64>,
}

impl WeightIndex {
    /// All `n` slots start with weight 1.
    fn with_unit_weights(n: usize) -> Self {
        let mut tree = vec![0u64; n + 1];
        for (slot, weight) in tree.iter_mut().enumerate().skip(1) {
            *weight = (slot & slot.wrapping_neg()) as u64;
        }
        WeightIndex { tree }
    }

    fn add(&mut self, slot: usize, delta: u64) {
        let mut index = slot + 1;
        while index < self.tree.len() {
            self.tree[index] += delta;
            index += index & index.wrapping_neg();
        }
    }

    fn sub(&mut self, slot: usize, delta: u64) {
        let mut index = slot + 1;
        while index < self.tree.len() {
            self.tree[index] -= delta;
            index += index & index.wrapping_neg();
        }
    }

    /// The slot containing the `target`-th unit of cumulative weight.
    fn select(&self, mut target: u64) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A seedable streaming random workload: the [`RevealSource`] face of
/// the random generators. Construct one per campaign job straight from a
/// derived seed — no `Instance` (and no `Vec<RevealEvent>`) is ever
/// materialized, and [`restart`](RevealSource::restart) replays the
/// identical sequence for backend-replay comparisons.
///
/// # Examples
///
/// ```
/// use mla_adversary::{random_clique_instance, MergeShape, StreamingWorkload};
/// use mla_graph::{RevealSource, Topology};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut source = StreamingWorkload::new(Topology::Cliques, 16, MergeShape::Uniform, 7);
/// let streamed: Vec<_> = std::iter::from_fn(|| source.next_event()).collect();
///
/// // Identical to the materialized generator at the same seed.
/// let mut rng = SmallRng::seed_from_u64(7);
/// let instance = random_clique_instance(16, MergeShape::Uniform, &mut rng);
/// assert_eq!(streamed, instance.events());
/// ```
pub struct StreamingWorkload {
    core: WorkloadCore<SmallRng>,
    shape: MergeShape,
    seed: u64,
}

impl StreamingWorkload {
    /// A streaming full-merge workload on `n` nodes, seeded like
    /// `SmallRng::seed_from_u64(seed)` — the same seed handed to the
    /// materialized generators yields the identical event sequence.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(topology: Topology, n: usize, shape: MergeShape, seed: u64) -> Self {
        StreamingWorkload {
            core: WorkloadCore::new(topology, n, shape, SmallRng::seed_from_u64(seed)),
            shape,
            seed,
        }
    }

    /// The merge schedule shape.
    #[must_use]
    pub fn shape(&self) -> MergeShape {
        self.shape
    }

    /// The seed the generator restarts from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl std::fmt::Debug for StreamingWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingWorkload")
            .field("topology", &self.core.topology())
            .field("n", &self.core.n())
            .field("shape", &self.shape)
            .field("remaining", &self.core.remaining())
            .field("seed", &self.seed)
            .finish()
    }
}

impl RevealSource for StreamingWorkload {
    fn topology(&self) -> Topology {
        self.core.topology()
    }

    fn n(&self) -> usize {
        self.core.n()
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn remaining(&self) -> usize {
        self.core.remaining()
    }

    fn next_event(&mut self) -> Option<RevealEvent> {
        self.core.next_event()
    }

    fn restart(&mut self) {
        self.core = WorkloadCore::new(
            self.core.topology(),
            self.core.n(),
            self.shape,
            SmallRng::seed_from_u64(self.seed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_clique_instance, random_line_instance};

    #[test]
    fn streaming_matches_materialized_for_every_shape() {
        for topology in [Topology::Cliques, Topology::Lines] {
            for shape in MergeShape::all() {
                for seed in [0u64, 1, 0xD1CE] {
                    let mut source = StreamingWorkload::new(topology, 24, shape, seed);
                    let streamed: Vec<RevealEvent> =
                        std::iter::from_fn(|| source.next_event()).collect();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let instance = match topology {
                        Topology::Cliques => random_clique_instance(24, shape, &mut rng),
                        Topology::Lines => random_line_instance(24, shape, &mut rng),
                    };
                    assert_eq!(
                        streamed,
                        instance.events(),
                        "{topology:?}/{shape:?}/seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_components_share_one_deque_table() {
        assert_eq!(std::mem::size_of::<Comp>(), 8);
        for shape in MergeShape::all() {
            let mut core =
                WorkloadCore::new(Topology::Lines, 40, shape, SmallRng::seed_from_u64(5));
            while core.next_event().is_some() {}
            // One component is left: every other slot went back to the
            // free list, emptied.
            let Deques { slots, free } = &core.deques;
            assert_eq!(free.len() + 1, slots.len(), "{shape:?}");
            assert_eq!(slots.iter().map(VecDeque::len).sum::<usize>(), 40);
            assert!(free.iter().all(|&slot| slots[slot as usize].is_empty()));
        }
    }

    #[test]
    fn restart_replays_the_identical_sequence() {
        let mut source =
            StreamingWorkload::new(Topology::Lines, 20, MergeShape::SizeBiased, 0xBEEF);
        let first: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(source.remaining(), 0);
        source.restart();
        assert_eq!(source.remaining(), 19);
        let second: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn partial_consumption_then_restart() {
        let mut source = StreamingWorkload::new(Topology::Cliques, 12, MergeShape::Balanced, 3);
        let head: Vec<RevealEvent> = (0..5).filter_map(|_| source.next_event()).collect();
        assert_eq!(source.remaining(), 6);
        source.restart();
        let replayed: Vec<RevealEvent> = (0..5).filter_map(|_| source.next_event()).collect();
        assert_eq!(head, replayed);
    }

    #[test]
    fn size_hints_are_exact() {
        let mut source = StreamingWorkload::new(Topology::Cliques, 8, MergeShape::Uniform, 1);
        assert_eq!(RevealSource::len(&source), 7);
        for left in (0..7).rev() {
            assert!(source.next_event().is_some());
            assert_eq!(source.remaining(), left);
        }
        assert!(source.next_event().is_none());
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn single_node_workload_is_empty() {
        let mut source = StreamingWorkload::new(Topology::Lines, 1, MergeShape::Uniform, 9);
        assert!(RevealSource::is_empty(&source));
        assert_eq!(source.next_event(), None);
    }

    #[test]
    fn streamed_events_validate_as_an_instance() {
        for topology in [Topology::Cliques, Topology::Lines] {
            for shape in MergeShape::all() {
                let mut source = StreamingWorkload::new(topology, 32, shape, 11);
                let instance =
                    mla_graph::collect_instance(&mut source).expect("streamed events are valid");
                assert_eq!(instance.len(), 31);
                assert_eq!(instance.final_state().component_count(), 1);
            }
        }
    }
}
