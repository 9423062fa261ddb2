//! The paper's randomized algorithm for collections of lines (Section 4)
//! and its policy ablations.

use mla_graph::{GraphState, MergeInfo, RevealEvent, Topology};
use mla_permutation::{Arrangement, Permutation};
use rand::Rng;

use crate::batch::{MergeDecision, MergeLayout};
use crate::mechanics::RearrangeChoices;
use crate::policies::{MovePolicy, RearrangePolicy};
use crate::rand_cliques::x_moves;
use crate::report::UpdateReport;
use crate::traits::OnlineMinla;

/// `Rand` for lines: each update has two parts (Section 4.1).
///
/// * **Moving** — exactly as in the clique case: `X` moves with
///   probability `|Z| / (|X| + |Z|)` (Figure 1).
/// * **Rearranging** — the merged path must read in path order; of the two
///   reachable orientations, each is chosen with probability proportional
///   to the *other* option's cost (Figure 2), so the expected cost is
///   `2·cost_F·cost_R / (cost_F + cost_R)`.
///
/// Theorem 8: this algorithm is `8 ln n`-competitive against the oblivious
/// adversary.
///
/// Generic over the [`Arrangement`] backend, like
/// [`RandCliques`](crate::RandCliques).
///
/// # Examples
///
/// ```
/// use mla_core::{OnlineMinla, RandLines};
/// use mla_graph::{GraphState, RevealEvent, Topology};
/// use mla_permutation::{Node, Permutation};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut alg = RandLines::new(Permutation::identity(4), SmallRng::seed_from_u64(1));
/// let mut graph = GraphState::new(Topology::Lines, 4);
/// let event = RevealEvent::new(Node::new(1), Node::new(2));
/// let info = graph.apply(event).unwrap();
/// alg.serve(event, &info, &graph);
/// assert!(graph.is_minla(alg.arrangement()));
/// ```
#[derive(Debug)]
pub struct RandLines<R, P = Permutation> {
    perm: P,
    rng: R,
    move_policy: MovePolicy,
    rearrange_policy: RearrangePolicy,
    name: &'static str,
}

impl<R: Rng, P: Arrangement> RandLines<R, P> {
    /// The paper's algorithm: size-biased move, cost-biased rearrange.
    #[must_use]
    pub fn new(initial: P, rng: R) -> Self {
        Self::with_policies(
            initial,
            rng,
            MovePolicy::SizeBiased,
            RearrangePolicy::CostBiased,
        )
    }

    /// An ablation variant with explicit policies.
    #[must_use]
    pub fn with_policies(
        initial: P,
        rng: R,
        move_policy: MovePolicy,
        rearrange_policy: RearrangePolicy,
    ) -> Self {
        let name = match (move_policy, rearrange_policy) {
            (MovePolicy::SizeBiased, RearrangePolicy::CostBiased) => "rand-lines",
            (MovePolicy::Fair, RearrangePolicy::Fair) => "fair-lines",
            (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest) => "smaller-moves-lines",
            _ => "custom-lines",
        };
        RandLines {
            perm: initial,
            rng,
            move_policy,
            rearrange_policy,
            name,
        }
    }

    /// The configured policies.
    #[must_use]
    pub fn policies(&self) -> (MovePolicy, RearrangePolicy) {
        (self.move_policy, self.rearrange_policy)
    }

    /// Draws this merge's random choices. Draw order matters for seed
    /// reproducibility: the move coin first, then (total cost
    /// permitting) the rearrange coin.
    fn decide(&mut self, info: &MergeInfo, layout: &MergeLayout) -> MergeDecision {
        let x_moves = x_moves(&mut self.rng, self.move_policy, info.x.len(), info.z.len());
        let forward = self.pick_forward(&layout.choices(info));
        MergeDecision { x_moves, forward }
    }

    /// Chooses between the two rearranging options under the configured
    /// policy. Returns `true` for the forward target.
    fn pick_forward(&mut self, choices: &RearrangeChoices) -> bool {
        let total = choices.forward.cost + choices.reversed.cost;
        if total == 0 {
            return true;
        }
        match self.rearrange_policy {
            RearrangePolicy::CostBiased => {
                // P[forward] = cost(reversed) / total — the probability of
                // a choice equals the normalized cost of the *other* one.
                (self.rng.gen_range(0..total)) < choices.reversed.cost
            }
            RearrangePolicy::Fair => self.rng.gen_bool(0.5),
            RearrangePolicy::Cheapest => choices.forward.cost <= choices.reversed.cost,
        }
    }
}

impl<R: Rng, P: Arrangement> OnlineMinla for RandLines<R, P> {
    type Arr = P;

    fn name(&self) -> &str {
        self.name
    }

    fn arrangement(&self) -> &P {
        &self.perm
    }

    fn serve(&mut self, _event: RevealEvent, info: &MergeInfo, state: &GraphState) -> UpdateReport {
        debug_assert_eq!(state.topology(), Topology::Lines);
        // One locate per merge. The rearranging choices depend only on
        // sizes, orientations and sides — none changed by the moving
        // part — so both parts are decided up front and the whole update
        // executes as a single backend operation, the chosen option's
        // reverse/swap bits riding along with the move.
        let layout = MergeLayout::locate(&self.perm, info);
        let decision = self.decide(info, &layout);
        let option = {
            let choices = layout.choices(info);
            if decision.forward {
                choices.forward
            } else {
                choices.reversed
            }
        };
        let (mover, stayer) = if decision.x_moves {
            (layout.layout.x_range, layout.layout.z_range)
        } else {
            (layout.layout.z_range, layout.layout.x_range)
        };
        let order = option.merge_order(decision.x_moves);
        let moving_cost = self.perm.merge_move(mover, stayer, order);
        UpdateReport {
            moving_cost,
            rearranging_cost: option.cost,
        }
    }

    fn wants_lazy_info(&self) -> bool {
        // Decisions need only sizes and orientations, both available
        // lazily, and the update only the reverse/swap bits: member lists
        // are never read.
        true
    }
}

impl<P: Arrangement> crate::snapshot::PolicyState for RandLines<rand::rngs::SmallRng, P> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::Node;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    /// Grows a random line workload and checks invariants per update.
    fn random_run(seed: u64, n: usize, move_policy: MovePolicy, rearrange: RearrangePolicy) {
        use rand::Rng as _;
        let mut rng = SmallRng::seed_from_u64(seed);
        let pi0 = Permutation::random(n, &mut rng);
        let mut graph = GraphState::new(Topology::Lines, n);
        let mut alg = RandLines::with_policies(
            pi0,
            SmallRng::seed_from_u64(seed ^ 0xdead),
            move_policy,
            rearrange,
        );
        while graph.component_count() > 1 {
            // Choose two endpoints of distinct components.
            let components = graph.components();
            let i = rng.gen_range(0..components.len());
            let mut j = rng.gen_range(0..components.len());
            while j == i {
                j = rng.gen_range(0..components.len());
            }
            let pick = |path: &Vec<Node>, r: &mut SmallRng| {
                if r.gen_bool(0.5) {
                    path[0]
                } else {
                    path[path.len() - 1]
                }
            };
            let event = RevealEvent::new(
                pick(&components[i], &mut rng),
                pick(&components[j], &mut rng),
            );
            let before = alg.arrangement().clone();
            let info = graph.apply(event).unwrap();
            let report = alg.serve(event, &info, &graph);
            assert_eq!(
                report.total(),
                before.kendall_distance(alg.arrangement()),
                "cost must equal distance traveled (seed {seed})"
            );
            assert!(
                graph.is_minla(alg.arrangement()),
                "feasibility invariant (seed {seed})"
            );
        }
    }

    #[test]
    fn paper_policy_maintains_invariants() {
        for seed in 0..15 {
            random_run(
                seed,
                10,
                MovePolicy::SizeBiased,
                RearrangePolicy::CostBiased,
            );
        }
    }

    #[test]
    fn ablation_policies_maintain_invariants() {
        for seed in 0..8 {
            random_run(seed, 9, MovePolicy::Fair, RearrangePolicy::Fair);
            random_run(seed, 9, MovePolicy::SmallerMoves, RearrangePolicy::Cheapest);
        }
    }

    #[test]
    fn merged_path_reads_in_path_order() {
        let pi0 = Permutation::identity(6);
        let mut alg = RandLines::new(pi0, SmallRng::seed_from_u64(5));
        let mut graph = GraphState::new(Topology::Lines, 6);
        for event in [ev(0, 1), ev(1, 2), ev(4, 5), ev(2, 4)] {
            let info = graph.apply(event).unwrap();
            alg.serve(event, &info, &graph);
        }
        // Path 0-1-2-4-5 must be contiguous and monotone in the permutation.
        let path: Vec<Node> = [0usize, 1, 2, 4, 5].iter().map(|&i| Node::new(i)).collect();
        let range = alg.arrangement().contiguous_range(&path).unwrap();
        assert_eq!(range.len(), 5);
        let positions: Vec<usize> = path
            .iter()
            .map(|&v| alg.arrangement().position_of(v))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]) || positions.windows(2).all(|w| w[0] > w[1])
        );
    }

    #[test]
    fn cheapest_policy_is_deterministic() {
        // Two seeds, same sequence → identical permutations.
        let pi0 = Permutation::from_indices(&[3, 0, 2, 1, 4]).unwrap();
        let events = [ev(0, 1), ev(1, 2), ev(2, 3)];
        let mut results = Vec::new();
        for seed in [1u64, 99u64] {
            let mut graph = GraphState::new(Topology::Lines, 5);
            let mut alg = RandLines::with_policies(
                pi0.clone(),
                SmallRng::seed_from_u64(seed),
                MovePolicy::SmallerMoves,
                RearrangePolicy::Cheapest,
            );
            for event in events {
                let info = graph.apply(event).unwrap();
                alg.serve(event, &info, &graph);
            }
            results.push(alg.arrangement().clone());
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn rearrange_probability_is_cost_biased() {
        // Configuration where forward costs 1 and reversed costs 5 (see
        // mechanics::figure2 test): P[forward] = 5/6.
        let trials = 6000u32;
        let mut forward_count = 0u32;
        for seed in 0..trials {
            let pi0 = Permutation::from_indices(&[1, 0, 2, 3]).unwrap();
            let mut graph = GraphState::new(Topology::Lines, 4);
            // Build paths 0-1 and 2-3 without moving anything: reveal in a
            // way consistent with pi0 = [1,0,2,3]: path 0-1 reads reversed.
            let mut alg = RandLines::new(pi0, SmallRng::seed_from_u64(u64::from(seed)));
            for event in [ev(0, 1), ev(2, 3)] {
                let info = graph.apply(event).unwrap();
                let report = alg.serve(event, &info, &graph);
                assert_eq!(report.total(), 0, "setup merges must be free");
            }
            // Now join x_i = 1 with z_i = 2.
            let event = ev(1, 2);
            let info = graph.apply(event).unwrap();
            alg.serve(event, &info, &graph);
            if alg.arrangement().to_index_vec() == vec![0, 1, 2, 3] {
                forward_count += 1;
            } else {
                assert_eq!(alg.arrangement().to_index_vec(), vec![3, 2, 1, 0]);
            }
        }
        let frequency = f64::from(forward_count) / f64::from(trials);
        assert!(
            (frequency - 5.0 / 6.0).abs() < 0.03,
            "P[forward] ≈ 5/6, measured {frequency}"
        );
    }
}
