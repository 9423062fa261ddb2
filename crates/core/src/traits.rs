//! The online algorithm interface.
//!
//! [`OnlineMinla`] is the engine-facing contract: one [`serve`] call per
//! reveal, exact costs in adjacent transpositions, arrangement feasible
//! afterwards. Two opt-in refinements ride on top:
//!
//! * [`wants_lazy_info`] — size-only [`MergeInfo`] snapshots for
//!   policies that decide without member lists (the merge hot path);
//! * [`BatchServe`](crate::BatchServe) — the decide / plan / apply
//!   split of a clique merge update, callable one step at a time.
//!
//! [`serve`]: OnlineMinla::serve
//! [`wants_lazy_info`]: OnlineMinla::wants_lazy_info

use mla_graph::{GraphState, MergeInfo, RevealEvent};
use mla_permutation::Arrangement;

use crate::report::UpdateReport;

/// An online algorithm for the learning MinLA problem.
///
/// The simulation engine owns the graph state: it applies each reveal,
/// obtains the [`MergeInfo`] (pre-merge component snapshots), and hands
/// both to the algorithm. The algorithm owns only its arrangement — any
/// [`Arrangement`] backend, chosen at construction — and must return the
/// exact cost (in adjacent transpositions) of its update.
///
/// After [`OnlineMinla::serve`] returns, the algorithm's arrangement must
/// be a MinLA of `state` — the engine can verify this invariant.
///
/// The trait is object-safe per backend: the engine can store
/// `Box<dyn OnlineMinla<Arr = Permutation>>`.
pub trait OnlineMinla {
    /// The arrangement backend this algorithm runs on.
    type Arr: Arrangement;

    /// Short machine-readable name (e.g. `"rand-cliques"`).
    fn name(&self) -> &str;

    /// The algorithm's current arrangement.
    fn arrangement(&self) -> &Self::Arr;

    /// Serves one reveal. `info` snapshots the merging components as they
    /// were *before* the merge; `state` is the graph *after* it.
    ///
    /// When the algorithm opted into lazy snapshots (see
    /// [`wants_lazy_info`](OnlineMinla::wants_lazy_info)), `info` may
    /// carry no member lists — implementations must then resolve block
    /// ranges through
    /// [`Arrangement::locate_component`] and reconstruct members from
    /// `state` only where genuinely needed.
    ///
    /// Returns the exact update cost.
    fn serve(&mut self, event: RevealEvent, info: &MergeInfo, state: &GraphState) -> UpdateReport;

    /// Returns `true` if this algorithm can serve reveals from **lazy**
    /// [`MergeInfo`] snapshots — sizes, joined endpoints and orientation
    /// bits only, no member lists
    /// ([`SnapshotMode::Lazy`](mla_graph::SnapshotMode)).
    ///
    /// Size-based policies (the paper's size-biased move and cost-biased
    /// rearrange) only need component *sizes* to decide and an `O(log n)`
    /// block locate to act, so materializing an `O(len)` member list per
    /// reveal is pure overhead. The engine asks this once at start-up and
    /// switches the graph state to lazy snapshots when both the algorithm
    /// (here) and its arrangement backend
    /// ([`Arrangement::supports_component_locate`]) agree.
    ///
    /// Default `false`: eager member lists, always correct.
    fn wants_lazy_info(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::{Permutation, SegmentArrangement};

    struct Stub<P>(P);

    impl<P: Arrangement> OnlineMinla for Stub<P> {
        type Arr = P;
        fn name(&self) -> &str {
            "stub"
        }
        fn arrangement(&self) -> &P {
            &self.0
        }
        fn serve(&mut self, _: RevealEvent, _: &MergeInfo, _: &GraphState) -> UpdateReport {
            UpdateReport::default()
        }
    }

    #[test]
    fn trait_is_object_safe_per_backend() {
        let dense: Box<dyn OnlineMinla<Arr = Permutation>> =
            Box::new(Stub(Permutation::identity(3)));
        assert_eq!(dense.name(), "stub");
        assert_eq!(dense.arrangement().len(), 3);
        let segment: Box<dyn OnlineMinla<Arr = SegmentArrangement>> =
            Box::new(Stub(SegmentArrangement::identity(3)));
        assert_eq!(segment.arrangement().len(), 3);
    }
}
