//! The locate / decide / plan / apply decomposition of a merge update.
//!
//! An [`OnlineMinla::serve`] call interleaves four concerns, which this
//! module names apart:
//!
//! 1. **locate** ([`MergeLayout::locate`]) — pure `&Arrangement` reads:
//!    where the two merging blocks sit and how they read;
//! 2. **decide** ([`BatchServe::decide`]) — draws the merge's random
//!    choices from the algorithm's RNG, in reveal order;
//! 3. **plan** ([`BatchServe::build_plan`]) — a pure function from
//!    snapshot + layout + decision to a priced [`MergePlan`];
//! 4. **apply** ([`BatchServe::apply_plan`]) — executes the plan as one
//!    [`merge_move`](mla_permutation::Arrangement::merge_move).
//!
//! [`RandCliques`](crate::RandCliques) implements its `serve` *through*
//! [`BatchServe`], so the steps can also be called (and timed) one at a
//! time with the same result. [`RandLines`](crate::RandLines) locates
//! and decides the same way inside `serve`, then hands the chosen
//! rearranging option's reverse/swap bits to the same single
//! `merge_move`.

use std::ops::Range;

use mla_graph::MergeInfo;
use mla_permutation::{Arrangement, MergeOrder};

use crate::mechanics::{rearrange_choices_pure, BlockLayout, Orientation, RearrangeChoices};
use crate::report::UpdateReport;
use crate::traits::OnlineMinla;

/// Where the two merging components sit in the arrangement, plus their
/// reading orientations — everything one oriented locate produces,
/// captured so later phases never re-read the arrangement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeLayout {
    /// Positions of the `X` and `Z` blocks.
    pub layout: BlockLayout,
    /// Orientation of the `X` block relative to its snapshot order.
    pub x_orientation: Orientation,
    /// Orientation of the `Z` block relative to its snapshot order.
    pub z_orientation: Orientation,
}

impl MergeLayout {
    /// Locates both components of `info` in `arr` (one oriented locate).
    ///
    /// # Panics
    ///
    /// Panics if a component is not contiguous (a feasibility violation
    /// predating this merge).
    #[must_use]
    pub fn locate<P: Arrangement + ?Sized>(arr: &P, info: &MergeInfo) -> Self {
        if info.x.is_lazy() || info.z.is_lazy() {
            return Self::locate_lazy(arr, info);
        }
        let (layout, x_orientation, z_orientation) =
            BlockLayout::locate_oriented(arr, &info.x, &info.z);
        MergeLayout {
            layout,
            x_orientation,
            z_orientation,
        }
    }

    /// The `O(log n)` locate for lazy snapshots: each component resolves
    /// through the backend's slot-based
    /// [`locate_component`](Arrangement::locate_component) — no member
    /// walk — and its orientation falls out of where the anchor (the
    /// joined endpoint) landed inside the block.
    ///
    /// Sound because the engine only enables lazy snapshots for algorithm
    /// runs, where every component is kept a single block, so
    /// the slot lookup is exact. Debug builds cross-check against the
    /// full member walk via the snapshots' shadow lists.
    ///
    /// # Panics
    ///
    /// Panics if a component fails to resolve as a single block — the
    /// lazy-mode equivalent of the feasibility-invariant panic in
    /// [`BlockLayout::locate_oriented`].
    fn locate_lazy<P: Arrangement + ?Sized>(arr: &P, info: &MergeInfo) -> Self {
        let resolve = |snapshot: &mla_graph::ComponentSnapshot| {
            let (range, anchor_pos) = arr
                .locate_component(snapshot.joined(), snapshot.len())
                // mla-lint: allow(panic-safety): trusted O(log n) locate; a miss means the feasibility/one-segment contract is already broken, and the debug shadow walk below cross-checks every hit
                .expect(
                    "lazy locate missed: component is not a single block \
                     (feasibility invariant or one-segment contract broken)",
                );
            let forward = snapshot.len() <= 1
                || if snapshot.joined_at_end() {
                    anchor_pos == range.end - 1
                } else {
                    anchor_pos == range.start
                };
            #[cfg(debug_assertions)]
            if let Some(nodes) = snapshot.shadow_nodes() {
                let (walked_range, walked_forward) = arr
                    .oriented_contiguous_range(nodes)
                    // mla-lint: allow(panic-safety): debug-only shadow walk; a non-contiguous component here is the cross-check itself failing
                    .expect("shadow member walk must agree that the component is contiguous");
                debug_assert_eq!(
                    range, walked_range,
                    "slot locate disagrees with member walk"
                );
                debug_assert_eq!(
                    forward, walked_forward,
                    "anchor orientation disagrees with member walk"
                );
            }
            let orientation = if forward {
                Orientation::Forward
            } else {
                Orientation::Reversed
            };
            (range, orientation)
        };
        let (x_range, x_orientation) = resolve(&info.x);
        let (z_range, z_orientation) = resolve(&info.z);
        MergeLayout {
            layout: BlockLayout { x_range, z_range },
            x_orientation,
            z_orientation,
        }
    }

    /// The two rearranging options for this layout (lines), in closed
    /// form from sizes, sides and orientations.
    #[must_use]
    pub fn choices(&self, info: &MergeInfo) -> RearrangeChoices {
        rearrange_choices_pure(
            info.x.len(),
            info.z.len(),
            self.layout.x_is_left(),
            self.x_orientation,
            self.z_orientation,
        )
    }
}

/// The random choices of one merge update, drawn in reveal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeDecision {
    /// Whether `X` is the moving block.
    pub x_moves: bool,
    /// Lines only: whether the merged path should read forward
    /// (`x.nodes ++ z.nodes`). Always `true` for cliques, which have no
    /// rearranging part.
    pub forward: bool,
}

/// A fully decided and priced order-preserving merge update, ready to
/// execute as one [`merge_move`](mla_permutation::Arrangement::merge_move).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    /// The block that travels over the gap.
    pub mover: Range<usize>,
    /// The block that stays put.
    pub stayer: Range<usize>,
    /// The exact update cost, priced in closed form at planning time.
    pub report: UpdateReport,
}

/// Online algorithms whose `serve` decomposes into decide / plan / apply.
///
/// The contract: for every reveal,
/// `apply_plan(build_plan(info, locate(arr, info), decide(info, layout)))`
/// must be observably identical to `serve(event, info, state)` — same RNG
/// draws in the same order, same arrangement mutation, same reported
/// cost. `RandCliques` implements `serve` through exactly this pipeline.
pub trait BatchServe: OnlineMinla {
    /// Draws this merge's random choices, in reveal order — the RNG
    /// stream is part of the determinism contract.
    fn decide(&mut self, info: &MergeInfo, layout: &MergeLayout) -> MergeDecision;

    /// Pure plan construction: no `self`, no arrangement access.
    fn build_plan(info: &MergeInfo, layout: &MergeLayout, decision: MergeDecision) -> MergePlan;

    /// Mutable access to the arrangement, for [`BatchServe::apply_plan`].
    fn arrangement_mut(&mut self) -> &mut Self::Arr;

    /// Executes a plan as a single backend `merge_move`. The returned
    /// report is the plan's closed-form price; debug builds verify the
    /// backend charged exactly that.
    fn apply_plan(&mut self, plan: MergePlan) -> UpdateReport {
        let moving_cost =
            self.arrangement_mut()
                .merge_move(plan.mover, plan.stayer, MergeOrder::KEEP);
        debug_assert_eq!(moving_cost, plan.report.moving_cost);
        plan.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandCliques;
    use mla_graph::{GraphState, RevealEvent, Topology};
    use mla_permutation::{Node, Permutation, SegmentArrangement};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    /// Drives one algorithm with `serve` and an identically seeded twin
    /// through the decide / plan / apply pipeline; both must agree on
    /// every report and on the final arrangement.
    fn check_decomposition<A, F>(n: usize, make: F)
    where
        A: BatchServe,
        F: Fn() -> A,
    {
        let topology = Topology::Cliques;
        let mut served_state = GraphState::new(topology, n);
        let mut planned_state = GraphState::new(topology, n);
        let mut serve_alg = make();
        let mut plan_alg = make();
        // A chain exercises non-trivial gaps.
        for i in 1..n {
            let event = ev(i - 1, i);
            let info = served_state.apply(event).unwrap();
            let a = serve_alg.serve(event, &info, &served_state);
            let info = planned_state.apply(event).unwrap();
            let layout = MergeLayout::locate(plan_alg.arrangement(), &info);
            let decision = plan_alg.decide(&info, &layout);
            let plan = A::build_plan(&info, &layout, decision);
            let b = plan_alg.apply_plan(plan);
            assert_eq!(a, b, "step {i}");
            assert!(planned_state.is_minla(plan_alg.arrangement()));
        }
        assert_eq!(
            serve_alg.arrangement().to_permutation(),
            plan_alg.arrangement().to_permutation()
        );
    }

    /// The decomposed pipeline must reproduce `serve` exactly, RNG stream
    /// included, on both backends. Random starting arrangements make the
    /// gaps non-trivial.
    #[test]
    fn decomposition_matches_serve() {
        for seed in 0..5 {
            let pi0 = Permutation::random(16, &mut SmallRng::seed_from_u64(seed));
            check_decomposition(16, || {
                RandCliques::new(
                    SegmentArrangement::from_permutation(&pi0),
                    SmallRng::seed_from_u64(11 + seed),
                )
            });
            check_decomposition(16, || {
                RandCliques::new(pi0.clone(), SmallRng::seed_from_u64(11 + seed))
            });
        }
    }
}
