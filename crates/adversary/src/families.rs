//! Oracle-aligned topology families.
//!
//! The certifying oracles in `mla-offline` are exact on specific guest
//! classes; these generators produce full-merge and partial-merge
//! workloads that land *inside* those classes while staying within the
//! engine's feasibility contract, so every online run can be
//! ratio-measured against certified `Opt`:
//!
//! * [`TopologyFamily::Interval`] — `Topology::Cliques` guests grown
//!   into disjoint cliques of bounded size: exactly the disjoint-union
//!   unit-interval models `interval_minla` (and `maxla_cliques`) solve;
//! * [`TopologyFamily::SeriesParallel`] — `Topology::Lines` guests
//!   grown into disjoint paths by random front/back extension: a
//!   series-parallel edge-gadget forest for `series_parallel_minla`;
//! * [`TopologyFamily::TreeMerge`] — the full balanced merge schedule
//!   on `Topology::Lines` (one spanning path at the end), for both the
//!   series-parallel oracle and the `maxla_path` closed form.
//!
//! Every byte of randomness is drawn from RNGs seeded through
//! [`SeedSequence`] label paths (`<family>/sizes`, `<family>/attach`,
//! `<family>/merge`) — no ad-hoc xor derivation anywhere — so distinct
//! families under one campaign seed consume provably disjoint streams,
//! which a regression test checks on the derived seed nodes.
//!
//! [`FamilyWorkload`] is a lazy [`RevealSource`]: `O(n)` state, one
//! merge per pull, with [`restart`](RevealSource::restart) replaying the
//! identical sequence from the stored seed path.

use mla_graph::{RevealEvent, RevealSource, Topology};
use mla_permutation::Node;
use mla_runner::SeedSequence;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::random::MergeShape;
use crate::streaming::WorkloadCore;

/// The largest clique or path a grouped family grows. Components stay
/// small so the interval and series-parallel oracles' per-component
/// work is `O(1)` and the instance is dominated by component count.
pub const FAMILY_MAX_COMPONENT: usize = 8;

/// A workload family matched to one certifying-oracle guest class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyFamily {
    /// Disjoint bounded-size cliques (`Topology::Cliques`): proper
    /// interval guests.
    Interval,
    /// Disjoint bounded-size paths (`Topology::Lines`): series-parallel
    /// edge-gadget forests.
    SeriesParallel,
    /// A full balanced merge into one spanning path
    /// (`Topology::Lines`): the tree merge-sequence family.
    TreeMerge,
}

impl TopologyFamily {
    /// All families, in reporting order.
    #[must_use]
    pub fn all() -> [TopologyFamily; 3] {
        [
            TopologyFamily::Interval,
            TopologyFamily::SeriesParallel,
            TopologyFamily::TreeMerge,
        ]
    }

    /// Kebab-case label; also the family's [`SeedSequence`] namespace.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TopologyFamily::Interval => "interval",
            TopologyFamily::SeriesParallel => "series-parallel",
            TopologyFamily::TreeMerge => "tree-merge",
        }
    }

    /// The engine topology the family's events are valid for.
    #[must_use]
    pub fn topology(self) -> Topology {
        match self {
            TopologyFamily::Interval => Topology::Cliques,
            TopologyFamily::SeriesParallel | TopologyFamily::TreeMerge => Topology::Lines,
        }
    }
}

/// Generator state: grouped families grow fixed node ranges; the tree
/// family delegates to the balanced full-merge core.
enum FamilyState {
    Grouped(GroupedState),
    Tree(WorkloadCore<SmallRng>),
}

/// Partial-merge growth of disjoint components. Group `g` owns the
/// contiguous node range `starts[g] .. starts[g] + sizes[g]` and absorbs
/// its members one merge at a time, round-robin across unfinished
/// groups, so reveals interleave like independent tenants arriving
/// concurrently.
struct GroupedState {
    topology: Topology,
    sizes: Vec<usize>,
    starts: Vec<usize>,
    /// Nodes already merged into group `g` (the first `attached[g]` of
    /// its range).
    attached: Vec<usize>,
    /// Current path endpoints per group (lines only; mirrors the range
    /// bounds for cliques).
    fronts: Vec<usize>,
    backs: Vec<usize>,
    cursor: usize,
    emitted: usize,
    total: usize,
    rng: SmallRng,
}

impl GroupedState {
    fn new(topology: Topology, n: usize, seq: &SeedSequence) -> Self {
        let mut size_rng = SmallRng::seed_from_u64(seq.child_str("sizes").seed(0));
        let mut sizes = Vec::new();
        let mut starts = Vec::new();
        let mut covered = 0usize;
        while covered < n {
            let size = (n - covered).min(size_rng.gen_range(1..=FAMILY_MAX_COMPONENT));
            starts.push(covered);
            sizes.push(size);
            covered += size;
        }
        let groups = sizes.len();
        GroupedState {
            topology,
            attached: vec![1; groups],
            fronts: starts.clone(),
            backs: starts.clone(),
            cursor: 0,
            emitted: 0,
            total: n - groups,
            sizes,
            starts,
            rng: SmallRng::seed_from_u64(seq.child_str("attach").seed(0)),
        }
    }

    fn next_event(&mut self) -> Option<RevealEvent> {
        if self.emitted == self.total {
            return None;
        }
        let groups = self.sizes.len();
        let g = loop {
            let g = self.cursor;
            self.cursor = (self.cursor + 1) % groups;
            if self.attached[g] < self.sizes[g] {
                break g;
            }
        };
        let newcomer = Node::new(self.starts[g] + self.attached[g]);
        let event = match self.topology {
            Topology::Cliques => {
                // Any already-attached member is a valid clique-merge
                // partner for the singleton newcomer.
                let member = self.starts[g] + self.rng.gen_range(0..self.attached[g]);
                RevealEvent::new(Node::new(member), newcomer)
            }
            Topology::Lines => {
                // Extend the group's path at a random end; both parties
                // are path endpoints, as the lines contract requires.
                if self.rng.gen_bool(0.5) {
                    let endpoint = self.fronts[g];
                    self.fronts[g] = newcomer.index();
                    RevealEvent::new(Node::new(endpoint), newcomer)
                } else {
                    let endpoint = self.backs[g];
                    self.backs[g] = newcomer.index();
                    RevealEvent::new(Node::new(endpoint), newcomer)
                }
            }
        };
        self.attached[g] += 1;
        self.emitted += 1;
        Some(event)
    }
}

/// A lazy, restartable workload of one [`TopologyFamily`] — the
/// [`RevealSource`] the `E-RATIO` experiment feeds to the engine before
/// handing the final state to the matching certifying oracle.
///
/// # Examples
///
/// ```
/// use mla_adversary::{FamilyWorkload, TopologyFamily, FAMILY_MAX_COMPONENT};
/// use mla_graph::collect_instance;
/// use mla_runner::SeedSequence;
///
/// let root = SeedSequence::new(42);
/// let mut source = FamilyWorkload::new(TopologyFamily::Interval, 64, &root);
/// let instance = collect_instance(&mut source).unwrap();
/// // Disjoint cliques of bounded size — a proper-interval guest.
/// for clique in instance.final_components() {
///     assert!(clique.len() <= FAMILY_MAX_COMPONENT);
/// }
/// ```
pub struct FamilyWorkload {
    family: TopologyFamily,
    n: usize,
    seq: SeedSequence,
    state: FamilyState,
}

impl FamilyWorkload {
    /// A workload on `n` nodes drawing all randomness from
    /// `root.child_str(family.label())`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(family: TopologyFamily, n: usize, root: &SeedSequence) -> Self {
        assert!(n > 0, "instance needs at least one node");
        let seq = root.child_str(family.label());
        FamilyWorkload {
            family,
            n,
            seq,
            state: Self::build_state(family, n, &seq),
        }
    }

    fn build_state(family: TopologyFamily, n: usize, seq: &SeedSequence) -> FamilyState {
        match family {
            TopologyFamily::Interval | TopologyFamily::SeriesParallel => {
                FamilyState::Grouped(GroupedState::new(family.topology(), n, seq))
            }
            TopologyFamily::TreeMerge => FamilyState::Tree(WorkloadCore::new(
                Topology::Lines,
                n,
                MergeShape::Balanced,
                SmallRng::seed_from_u64(seq.child_str("merge").seed(0)),
            )),
        }
    }

    /// The workload's family.
    #[must_use]
    pub fn family(&self) -> TopologyFamily {
        self.family
    }

    /// The [`SeedSequence::key`] of the family's derived seed node —
    /// what the disjoint-streams regression test compares across
    /// families.
    #[cfg(test)]
    fn stream_key(&self) -> u64 {
        self.seq.key()
    }
}

impl std::fmt::Debug for FamilyWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyWorkload")
            .field("family", &self.family)
            .field("n", &self.n)
            .field("remaining", &self.remaining())
            .finish()
    }
}

impl RevealSource for FamilyWorkload {
    fn topology(&self) -> Topology {
        self.family.topology()
    }

    fn n(&self) -> usize {
        self.n
    }

    fn len(&self) -> usize {
        match &self.state {
            FamilyState::Grouped(grouped) => grouped.total,
            FamilyState::Tree(core) => core.len(),
        }
    }

    fn remaining(&self) -> usize {
        match &self.state {
            FamilyState::Grouped(grouped) => grouped.total - grouped.emitted,
            FamilyState::Tree(core) => core.remaining(),
        }
    }

    fn next_event(&mut self) -> Option<RevealEvent> {
        match &mut self.state {
            FamilyState::Grouped(grouped) => grouped.next_event(),
            FamilyState::Tree(core) => core.next_event(),
        }
    }

    fn restart(&mut self) {
        self.state = Self::build_state(self.family, self.n, &self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_graph::{collect_instance, final_state_of};

    #[test]
    fn interval_family_grows_bounded_disjoint_cliques() {
        let root = SeedSequence::new(7);
        let mut source = FamilyWorkload::new(TopologyFamily::Interval, 100, &root);
        let instance = collect_instance(&mut source).expect("valid clique merges");
        let components = instance.final_components();
        assert!(components.len() > 1);
        let covered: usize = components.iter().map(Vec::len).sum();
        assert_eq!(covered, 100);
        assert!(components
            .iter()
            .all(|c| (1..=FAMILY_MAX_COMPONENT).contains(&c.len())));
    }

    #[test]
    fn series_parallel_family_grows_bounded_disjoint_paths() {
        let root = SeedSequence::new(7);
        let mut source = FamilyWorkload::new(TopologyFamily::SeriesParallel, 100, &root);
        let state = final_state_of(&mut source).expect("valid line merges");
        assert_eq!(state.topology(), Topology::Lines);
        // m = n − components: every component is a simple path.
        assert_eq!(
            state.edges().len(),
            100 - state.component_count(),
            "paths have exactly len − 1 edges"
        );
        assert!(state
            .components()
            .iter()
            .all(|p| p.len() <= FAMILY_MAX_COMPONENT));
    }

    #[test]
    fn tree_merge_family_is_a_full_merge() {
        let root = SeedSequence::new(9);
        let mut source = FamilyWorkload::new(TopologyFamily::TreeMerge, 64, &root);
        assert_eq!(RevealSource::len(&source), 63);
        let state = final_state_of(&mut source).expect("valid merges");
        assert_eq!(state.component_count(), 1);
    }

    #[test]
    fn restart_replays_identically() {
        let root = SeedSequence::new(0xC0FFEE);
        for family in TopologyFamily::all() {
            let mut source = FamilyWorkload::new(family, 48, &root);
            let first: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
            source.restart();
            let second: Vec<RevealEvent> = std::iter::from_fn(|| source.next_event()).collect();
            assert_eq!(first, second, "{family:?}");
        }
    }

    #[test]
    fn families_share_no_stream_under_one_campaign_seed() {
        let root = SeedSequence::new(1234);
        let keys: Vec<u64> = TopologyFamily::all()
            .iter()
            .map(|&family| FamilyWorkload::new(family, 32, &root).stream_key())
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "family seed nodes must be disjoint");
            }
        }
    }
}
