//! The paper's randomized algorithm for collections of cliques
//! (Section 3) and its policy ablations.

use mla_graph::{GraphState, MergeInfo, RevealEvent, Topology};
use mla_permutation::{Arrangement, Permutation};
use rand::Rng;

use crate::batch::{BatchServe, MergeDecision, MergeLayout, MergePlan};
use crate::policies::MovePolicy;
use crate::report::UpdateReport;
use crate::traits::OnlineMinla;

/// `Rand` for cliques: when cliques `X` and `Z` merge, move `X` toward `Z`
/// with probability `|Z| / (|X| + |Z|)`, else move `Z` toward `X`
/// (Figure 1). The permutation keeps every clique contiguous, so it remains
/// a MinLA of every revealed graph.
///
/// Theorem 2 of the paper: this algorithm is `4 ln n`-competitive against
/// the oblivious adversary. [`MovePolicy`] ablations (fair coin,
/// deterministic smaller-moves) are provided for the ablation experiments.
///
/// Generic over the [`Arrangement`] backend: construct with a dense
/// [`Permutation`] for small `n`, or a
/// [`SegmentArrangement`](mla_permutation::SegmentArrangement) to serve
/// each merge in `O(log n)` splices at large `n`.
///
/// # Examples
///
/// ```
/// use mla_core::{OnlineMinla, RandCliques};
/// use mla_graph::{GraphState, RevealEvent, Topology};
/// use mla_permutation::{Node, Permutation};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut alg = RandCliques::new(Permutation::identity(4), SmallRng::seed_from_u64(1));
/// let mut graph = GraphState::new(Topology::Cliques, 4);
/// let event = RevealEvent::new(Node::new(0), Node::new(3));
/// let info = graph.apply(event).unwrap();
/// let report = alg.serve(event, &info, &graph);
/// assert_eq!(report.total(), 2); // a singleton crossed the gap {1, 2}
/// assert!(graph.is_minla(alg.arrangement()));
/// ```
#[derive(Debug)]
pub struct RandCliques<R, P = Permutation> {
    perm: P,
    rng: R,
    policy: MovePolicy,
    name: &'static str,
}

impl<R: Rng, P: Arrangement> RandCliques<R, P> {
    /// The paper's algorithm: size-biased coin.
    #[must_use]
    pub fn new(initial: P, rng: R) -> Self {
        Self::with_policy(initial, rng, MovePolicy::SizeBiased)
    }

    /// An ablation variant with an explicit move policy.
    #[must_use]
    pub fn with_policy(initial: P, rng: R, policy: MovePolicy) -> Self {
        let name = match policy {
            MovePolicy::SizeBiased => "rand-cliques",
            MovePolicy::Fair => "fair-cliques",
            MovePolicy::SmallerMoves => "smaller-moves-cliques",
        };
        RandCliques {
            perm: initial,
            rng,
            policy,
            name,
        }
    }

    /// The configured move policy.
    #[must_use]
    pub fn policy(&self) -> MovePolicy {
        self.policy
    }
}

/// Decides whether `X` moves under the given policy.
pub(crate) fn x_moves<R: Rng>(
    rng: &mut R,
    policy: MovePolicy,
    x_size: usize,
    z_size: usize,
) -> bool {
    match policy {
        MovePolicy::SizeBiased => {
            // P[X moves] = |Z| / (|X| + |Z|).
            rng.gen_range(0..x_size + z_size) < z_size
        }
        MovePolicy::Fair => rng.gen_bool(0.5),
        MovePolicy::SmallerMoves => x_size <= z_size,
    }
}

impl<R: Rng, P: Arrangement> OnlineMinla for RandCliques<R, P> {
    type Arr = P;

    fn name(&self) -> &str {
        self.name
    }

    fn arrangement(&self) -> &P {
        &self.perm
    }

    fn serve(&mut self, _event: RevealEvent, info: &MergeInfo, state: &GraphState) -> UpdateReport {
        debug_assert_eq!(state.topology(), Topology::Cliques);
        // One locate, then the whole update as a single backend
        // operation, via the decide / plan / apply decomposition.
        let layout = MergeLayout::locate(&self.perm, info);
        let decision = self.decide(info, &layout);
        let plan = Self::build_plan(info, &layout, decision);
        self.apply_plan(plan)
    }

    fn wants_lazy_info(&self) -> bool {
        // Every policy decides from component sizes alone and the update
        // is a pure block move: member lists are never read, so lazy
        // snapshots plus the slot-based locate serve each merge in
        // `O(log n)` with no `O(len)` materialization.
        true
    }
}

impl<P: Arrangement> crate::snapshot::PolicyState for RandCliques<rand::rngs::SmallRng, P> {
    fn encode_state_into(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_rng_state(out, self.rng.to_state());
    }

    fn restore_state(
        &mut self,
        r: &mut mla_permutation::codec::ByteReader<'_>,
    ) -> Result<(), mla_permutation::codec::CodecError> {
        self.rng = rand::rngs::SmallRng::from_state(crate::snapshot::read_rng_state(r)?);
        Ok(())
    }
}

impl<R: Rng, P: Arrangement> BatchServe for RandCliques<R, P> {
    fn decide(&mut self, info: &MergeInfo, _layout: &MergeLayout) -> MergeDecision {
        MergeDecision {
            x_moves: x_moves(&mut self.rng, self.policy, info.x.len(), info.z.len()),
            forward: true,
        }
    }

    fn build_plan(_info: &MergeInfo, layout: &MergeLayout, decision: MergeDecision) -> MergePlan {
        // Cliques have no rearranging part: any contiguous layout of a
        // clique is a MinLA, so the update is the moving part alone,
        // priced `|mover| × gap`.
        let (mover, stayer) = if decision.x_moves {
            (layout.layout.x_range.clone(), layout.layout.z_range.clone())
        } else {
            (layout.layout.z_range.clone(), layout.layout.x_range.clone())
        };
        let report = UpdateReport {
            moving_cost: mover.len() as u64 * layout.layout.gap() as u64,
            rearranging_cost: 0,
        };
        MergePlan {
            mover,
            stayer,
            report,
        }
    }

    fn arrangement_mut(&mut self) -> &mut P {
        &mut self.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::Node;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_one_merge(policy: MovePolicy, seed: u64) -> (Permutation, u64) {
        // X = {0,1} at positions 0..2, Z = {5} at position 5, gap 3.
        let pi0 = Permutation::identity(6);
        let mut graph = GraphState::new(Topology::Cliques, 6);
        graph
            .apply(RevealEvent::new(Node::new(0), Node::new(1)))
            .unwrap();
        let mut alg = RandCliques::with_policy(pi0, SmallRng::seed_from_u64(seed), policy);
        // First serve the {0,1} merge (gap 0, free).
        let mut replay = GraphState::new(Topology::Cliques, 6);
        let info = replay
            .apply(RevealEvent::new(Node::new(0), Node::new(1)))
            .unwrap();
        let report = alg.serve(RevealEvent::new(Node::new(0), Node::new(1)), &info, &replay);
        assert_eq!(report.total(), 0);
        // Now merge {0,1} with {5}.
        let event = RevealEvent::new(Node::new(0), Node::new(5));
        let info = replay.apply(event).unwrap();
        let report = alg.serve(event, &info, &replay);
        (alg.arrangement().clone(), report.total())
    }

    #[test]
    fn smaller_moves_is_deterministic() {
        // |X| = 2 > |Z| = 1 → Z moves: cost |Z| * gap = 1 * 3 = 3.
        for seed in 0..5 {
            let (perm, cost) = run_one_merge(MovePolicy::SmallerMoves, seed);
            assert_eq!(cost, 3);
            assert_eq!(perm.to_index_vec(), vec![0, 1, 5, 2, 3, 4]);
        }
    }

    #[test]
    fn size_biased_move_costs_match_choice() {
        // Either X moves (cost 2*3=6) or Z moves (cost 1*3=3).
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            let (_, cost) = run_one_merge(MovePolicy::SizeBiased, seed);
            assert!(cost == 6 || cost == 3, "unexpected cost {cost}");
            seen.insert(cost);
        }
        assert_eq!(seen.len(), 2, "both outcomes should occur over 50 seeds");
    }

    #[test]
    fn size_biased_frequency_is_correct() {
        // P[X moves] = |Z|/(|X|+|Z|) = 1/3 here. Count over many seeds.
        let trials = 3000;
        let mut x_moved = 0u32;
        for seed in 0..trials {
            let (_, cost) = run_one_merge(MovePolicy::SizeBiased, seed as u64);
            if cost == 6 {
                x_moved += 1;
            }
        }
        let frequency = f64::from(x_moved) / f64::from(trials);
        assert!(
            (frequency - 1.0 / 3.0).abs() < 0.04,
            "P[X moves] ≈ 1/3, measured {frequency}"
        );
    }

    #[test]
    fn cost_equals_kendall_delta_across_random_runs() {
        let mut rng = SmallRng::seed_from_u64(77);
        use rand::Rng as _;
        for _ in 0..20 {
            let n = 12;
            let pi0 = Permutation::random(n, &mut rng);
            let mut graph = GraphState::new(Topology::Cliques, n);
            let mut alg = RandCliques::new(pi0, SmallRng::seed_from_u64(rng.gen()));
            while graph.component_count() > 1 {
                let components = graph.components();
                let i = rng.gen_range(0..components.len());
                let mut j = rng.gen_range(0..components.len());
                while j == i {
                    j = rng.gen_range(0..components.len());
                }
                let event = RevealEvent::new(components[i][0], components[j][0]);
                let before = alg.arrangement().clone();
                let info = graph.apply(event).unwrap();
                let report = alg.serve(event, &info, &graph);
                assert_eq!(
                    report.total(),
                    before.kendall_distance(alg.arrangement()),
                    "reported cost must equal distance traveled"
                );
                assert!(graph.is_minla(alg.arrangement()), "feasibility invariant");
            }
        }
    }

    #[test]
    fn names_reflect_policy() {
        let pi0 = Permutation::identity(2);
        let rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            RandCliques::new(pi0.clone(), rng.clone()).name(),
            "rand-cliques"
        );
        assert_eq!(
            RandCliques::with_policy(pi0.clone(), rng.clone(), MovePolicy::Fair).name(),
            "fair-cliques"
        );
        assert_eq!(
            RandCliques::with_policy(pi0, rng, MovePolicy::SmallerMoves).name(),
            "smaller-moves-cliques"
        );
    }
}
