//! The simulation engine: drives an adversary against an online algorithm
//! through the sequential reveal loop. One [`RevealStep`] serves each
//! reveal, for [`Simulation::run`] and the serving session layer
//! ([`crate::session`]) alike.

use std::collections::VecDeque;

use mla_adversary::{Adversary, Oblivious, SourceAdversary};
use mla_core::{OnlineMinla, UpdateReport};
use mla_graph::{GraphState, Instance, RevealEvent, RevealSource, SnapshotMode};
use mla_permutation::{Arrangement, Permutation};

use crate::error::SimError;

/// Outcome of one complete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Sum of all update costs. Accumulated in `u128`: per-event costs
    /// are bounded by `n²` and fit `u64`, but a full clique workload's
    /// total grows like `n³/6` and exceeds `u64::MAX` near `n ≈ 4.7×10⁶`.
    pub total_cost: u128,
    /// Sum of the moving parts.
    pub moving_cost: u128,
    /// Sum of the rearranging parts.
    pub rearranging_cost: u128,
    /// Per-reveal cost reports, in reveal order. Empty when recording was
    /// disabled (see [`Simulation::record_events`]); holds only the final
    /// `k` reports when a recording window was set
    /// ([`Simulation::record_window`]).
    pub per_event: Vec<UpdateReport>,
    /// The reveals served (useful for adaptive adversaries, whose sequence
    /// is only known after the run). Empty when recording was disabled;
    /// only the final `k` reveals under a recording window.
    pub events: Vec<RevealEvent>,
    /// Whether `per_event`/`events` were recorded **in full**. Large-`n`
    /// streaming runs turn recording off (or window it) so memory stays
    /// bounded by the `O(n)` engine state instead of growing two `Θ(k)`
    /// vectors.
    pub events_recorded: bool,
    /// The recording window, if one was set: `per_event`/`events` hold at
    /// most this many trailing entries (`O(k)` memory however long the
    /// run).
    pub recorded_window: Option<usize>,
    /// The algorithm's final permutation (materialized from whichever
    /// arrangement backend the algorithm ran on).
    pub final_perm: Permutation,
}

impl RunOutcome {
    /// The served reveals as a validated [`Instance`] (for offline
    /// post-analysis of adaptive runs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventsNotRecorded`] if the run was executed
    /// with [`Simulation::record_events`]`(false)`, and
    /// [`SimError::Graph`] if the recorded events do not replay cleanly
    /// under `topology`/`n` — for outcomes produced by
    /// [`Simulation::run`] that means the caller passed a different
    /// topology or node count than the run used.
    pub fn to_instance(
        &self,
        topology: mla_graph::Topology,
        n: usize,
    ) -> Result<Instance, SimError> {
        if !self.events_recorded {
            return Err(SimError::EventsNotRecorded);
        }
        Instance::new(topology, n, self.events.clone()).map_err(SimError::Graph)
    }
}

/// Drives one online algorithm through one request sequence.
///
/// Feasibility checking (opt-in) validates the algorithm's arrangement
/// after every reveal. The per-reveal check is **incremental**: only the
/// two merging segments are validated
/// ([`GraphState::merge_keeps_minla`]), `O(|X| + |Z|)` instead of `O(n)`.
/// The full `O(n)` scan still runs in debug builds — and on demand via
/// [`Simulation::check_feasibility_full`] — as a cross-check.
///
/// # Examples
///
/// ```
/// use mla_adversary::{random_clique_instance, MergeShape};
/// use mla_core::RandCliques;
/// use mla_permutation::Permutation;
/// use mla_sim::Simulation;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let instance = random_clique_instance(8, MergeShape::Uniform, &mut rng);
/// let alg = RandCliques::new(Permutation::identity(8), SmallRng::seed_from_u64(2));
/// let outcome = Simulation::new(instance, alg)
///     .check_feasibility(true)
///     .run()
///     .expect("valid run");
/// assert_eq!(outcome.per_event.len(), 7);
/// ```
pub struct Simulation<A> {
    adversary: Box<dyn Adversary>,
    algorithm: A,
    check_feasibility: bool,
    full_scan: bool,
    record_events: bool,
    record_window: Option<usize>,
    eager_snapshots: bool,
}

impl<A> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.adversary.n())
            .field("topology", &self.adversary.topology())
            .field("check_feasibility", &self.check_feasibility)
            .field("full_scan", &self.full_scan)
            .finish_non_exhaustive()
    }
}

impl<A: OnlineMinla> Simulation<A> {
    /// A simulation of an oblivious (pre-validated) instance.
    #[must_use]
    pub fn new(instance: Instance, algorithm: A) -> Self {
        Self::with_adversary(Box::new(Oblivious::new(instance)), algorithm)
    }

    /// A simulation fed by a streaming [`RevealSource`] — events are
    /// generated one merge per reveal, so no event vector ever
    /// materializes on the adversary side. Streamed events are validated
    /// as they are applied; a malformed event surfaces as
    /// [`SimError::Graph`], not a panic. For large `n`, combine with
    /// [`Simulation::record_events`]`(false)` to keep the outcome side
    /// `O(n)` too.
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_adversary::{MergeShape, StreamingWorkload};
    /// use mla_core::RandCliques;
    /// use mla_graph::Topology;
    /// use mla_permutation::SegmentArrangement;
    /// use mla_sim::Simulation;
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    ///
    /// let source = StreamingWorkload::new(Topology::Cliques, 64, MergeShape::Uniform, 1);
    /// let alg = RandCliques::new(SegmentArrangement::identity(64), SmallRng::seed_from_u64(2));
    /// let outcome = Simulation::from_source(source, alg)
    ///     .record_events(false)
    ///     .run()
    ///     .expect("streamed events are valid");
    /// assert!(outcome.per_event.is_empty() && !outcome.events_recorded);
    /// ```
    #[must_use]
    pub fn from_source(source: impl RevealSource + 'static, algorithm: A) -> Self {
        Self::with_adversary(Box::new(SourceAdversary::new(source)), algorithm)
    }

    /// A simulation driven by an arbitrary (possibly adaptive) adversary.
    #[must_use]
    pub fn with_adversary(adversary: Box<dyn Adversary>, algorithm: A) -> Self {
        Simulation {
            adversary,
            algorithm,
            check_feasibility: false,
            full_scan: cfg!(debug_assertions),
            record_events: true,
            record_window: None,
            eager_snapshots: false,
        }
    }

    /// Forces **eager** component snapshots even when the algorithm and
    /// its backend would agree on lazy ones (see
    /// [`OnlineMinla::wants_lazy_info`]). The engine picks lazily by
    /// default because size-only policies never read member lists; this
    /// switch pins the eager path — useful for A/B comparisons and as the
    /// reference of the lazy ≡ eager property tests.
    #[must_use]
    pub fn eager_snapshots(mut self, on: bool) -> Self {
        self.eager_snapshots = on;
        self
    }

    /// Controls whether per-event reports and served events are recorded
    /// into the [`RunOutcome`] (default: `true`). Turn off for large-`n`
    /// streaming runs: cost totals are still accumulated exactly, but the
    /// two `Θ(k)` vectors are never grown, keeping the run's memory
    /// bounded by the `O(n)` engine state. Clears any recording window
    /// set by [`Simulation::record_window`].
    #[must_use]
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self.record_window = None;
        self
    }

    /// Keeps only the **last `k`** per-event reports and reveals — the
    /// middle ground between full recording (`Θ(reveals)` memory) and
    /// [`Simulation::record_events`]`(false)` (nothing at all): cost
    /// totals stay exact, the trailing window supports end-game
    /// diagnostics of streamed large-`n` runs, and memory stays `O(k)`.
    /// [`RunOutcome::recorded_window`] reports the window; replaying a
    /// windowed outcome through [`RunOutcome::to_instance`] fails with
    /// [`SimError::EventsNotRecorded`] like a fully unrecorded one.
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_adversary::{MergeShape, StreamingWorkload};
    /// use mla_core::RandCliques;
    /// use mla_graph::Topology;
    /// use mla_permutation::SegmentArrangement;
    /// use mla_sim::Simulation;
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    ///
    /// let source = StreamingWorkload::new(Topology::Cliques, 64, MergeShape::Uniform, 1);
    /// let alg = RandCliques::new(SegmentArrangement::identity(64), SmallRng::seed_from_u64(2));
    /// let outcome = Simulation::from_source(source, alg)
    ///     .record_window(8)
    ///     .run()
    ///     .expect("streamed events are valid");
    /// assert_eq!(outcome.per_event.len(), 8);
    /// assert_eq!(outcome.recorded_window, Some(8));
    /// assert!(!outcome.events_recorded); // not the *full* sequence
    /// ```
    #[must_use]
    pub fn record_window(mut self, k: usize) -> Self {
        self.record_events = false;
        self.record_window = Some(k);
        self
    }

    /// Enables verification that the algorithm's arrangement is a MinLA of
    /// the revealed graph after every reveal. Incremental — `O(|X| + |Z|)`
    /// per reveal, validating only the merged component through
    /// [`Arrangement::contiguous_range`] (cliques) or
    /// [`Arrangement::path_range`] (lines), whose one-segment fast paths
    /// on the segment backend skip the per-member position lookups.
    #[must_use]
    pub fn check_feasibility(mut self, on: bool) -> Self {
        self.check_feasibility = on;
        self
    }

    /// Also runs the full `O(n)` feasibility scan per reveal (implied by
    /// debug builds; opt-in for release). Has no effect unless
    /// [`Simulation::check_feasibility`] is enabled.
    ///
    /// The incremental check's soundness rests on the update being a
    /// block move of the merging components — true for `RandCliques` /
    /// `RandLines`. Jump algorithms (`DetClosest`, `OptReplay`) replace
    /// the whole arrangement, so a buggy solver could scramble a foreign
    /// component that only this full scan notices; enable it when
    /// validating those in release builds.
    #[must_use]
    pub fn check_feasibility_full(mut self, on: bool) -> Self {
        self.full_scan = on;
        self
    }

    /// Runs the sequence to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::SizeMismatch`] if the algorithm's arrangement does not
    ///   cover the adversary's node count;
    /// * [`SimError::Graph`] if the adversary emits an invalid reveal;
    /// * [`SimError::FeasibilityViolation`] if checking is enabled and the
    ///   algorithm breaks the MinLA invariant.
    pub fn run(mut self) -> Result<RunOutcome, SimError> {
        let n = self.adversary.n();
        if self.algorithm.arrangement().len() != n {
            return Err(SimError::SizeMismatch {
                expected: n,
                actual: self.algorithm.arrangement().len(),
            });
        }
        let mut step = RevealStep::new(
            GraphState::new(self.adversary.topology(), n),
            self.algorithm,
            Recorder::new(self.record_events, self.record_window),
            self.eager_snapshots,
        )
        .check_feasibility(self.check_feasibility, self.full_scan);
        while let Some(event) = self
            .adversary
            .next(step.algorithm.arrangement(), &step.state)
        {
            step.apply(event)?;
        }
        Ok(step
            .recorder
            .finish(step.algorithm.arrangement().to_permutation()))
    }
}

/// One reveal at a time: the graph state, the algorithm and the outcome
/// accumulator, plus the snapshot mode and feasibility checks they are
/// served under. [`Simulation::run`] drives one to completion; a serving
/// [`Session`](crate::Session) keeps one alive between frames.
#[derive(Debug)]
pub(crate) struct RevealStep<A> {
    pub(crate) state: GraphState,
    pub(crate) algorithm: A,
    pub(crate) recorder: Recorder,
    mode: SnapshotMode,
    check_feasibility: bool,
    full_scan: bool,
}

impl<A: OnlineMinla> RevealStep<A> {
    /// A step with feasibility checks off. Snapshots are lazy iff the
    /// algorithm and its backend both support it and `eager_snapshots`
    /// is off.
    pub(crate) fn new(
        state: GraphState,
        algorithm: A,
        recorder: Recorder,
        eager_snapshots: bool,
    ) -> Self {
        let mode = if !eager_snapshots
            && algorithm.wants_lazy_info()
            && algorithm.arrangement().supports_component_locate()
        {
            SnapshotMode::Lazy
        } else {
            SnapshotMode::Eager
        };
        RevealStep {
            state,
            algorithm,
            recorder,
            mode,
            check_feasibility: false,
            full_scan: false,
        }
    }

    /// Validates the MinLA invariant after every reveal when `on`:
    /// incrementally, plus the full `O(n)` scan when `full_scan`.
    pub(crate) fn check_feasibility(mut self, on: bool, full_scan: bool) -> Self {
        self.check_feasibility = on;
        self.full_scan = full_scan;
        self
    }

    /// Serves one reveal: apply it to the graph, let the algorithm
    /// update its arrangement, check feasibility, record the cost.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] for an invalid reveal,
    /// [`SimError::FeasibilityViolation`] if checking is enabled and the
    /// algorithm breaks the invariant.
    pub(crate) fn apply(&mut self, event: RevealEvent) -> Result<UpdateReport, SimError> {
        let info = self.state.apply_with(event, self.mode)?;
        let report = self.algorithm.serve(event, &info, &self.state);
        if self.check_feasibility {
            let arr = self.algorithm.arrangement();
            let feasible = self.state.merge_keeps_minla(arr, &info)
                && (!self.full_scan || self.state.is_minla(arr));
            if !feasible {
                return Err(SimError::FeasibilityViolation {
                    step: self.recorder.step() + 1,
                    algorithm: self.algorithm.name().to_owned(),
                });
            }
        }
        self.recorder.record(event, report);
        Ok(report)
    }
}

/// The outcome accumulator of a [`RevealStep`]: exact `u128` cost
/// totals, plus full, windowed or no per-event recording. The serving
/// session layer ([`crate::session`]) checkpoints and restores its state
/// exactly.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    full: bool,
    window: Option<usize>,
    per_event: VecDeque<UpdateReport>,
    events: VecDeque<RevealEvent>,
    moving_cost: u128,
    rearranging_cost: u128,
    step: usize,
}

impl Recorder {
    pub(crate) fn new(full: bool, window: Option<usize>) -> Self {
        Recorder {
            full,
            window,
            per_event: VecDeque::new(),
            events: VecDeque::new(),
            moving_cost: 0,
            rearranging_cost: 0,
            step: 0,
        }
    }

    /// Reveals recorded so far (independent of what is retained).
    pub(crate) fn step(&self) -> usize {
        self.step
    }

    /// Exact accumulated moving cost.
    pub(crate) fn moving_cost(&self) -> u128 {
        self.moving_cost
    }

    /// Exact accumulated rearranging cost.
    pub(crate) fn rearranging_cost(&self) -> u128 {
        self.rearranging_cost
    }

    /// The record mode `(full, window)` this recorder was built with.
    pub(crate) fn mode(&self) -> (bool, Option<usize>) {
        (self.full, self.window)
    }

    /// Non-consuming [`Recorder::finish`]: snapshots the accumulator into
    /// a [`RunOutcome`] without ending the run — the session layer
    /// answers outcome queries mid-stream.
    pub(crate) fn outcome_snapshot(&self, final_perm: Permutation) -> RunOutcome {
        self.clone().finish(final_perm)
    }

    /// Serializes the accumulator exactly: totals, step counter, record
    /// mode, and every retained (event, report) pair in retention order.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use mla_permutation::codec::{put_bool, put_len, put_u128, put_u64};
        put_bool(out, self.full);
        match self.window {
            None => put_bool(out, false),
            Some(k) => {
                put_bool(out, true);
                put_len(out, k);
            }
        }
        put_u128(out, self.moving_cost);
        put_u128(out, self.rearranging_cost);
        put_len(out, self.step);
        put_len(out, self.per_event.len());
        for (report, event) in self.per_event.iter().zip(&self.events) {
            put_u64(out, report.moving_cost);
            put_u64(out, report.rearranging_cost);
            // mla-lint: allow(cast-hygiene): node indices are < n <= MAX_NODES < 2^32
            out.extend_from_slice(&(event.a().index() as u32).to_le_bytes());
            // mla-lint: allow(cast-hygiene): node indices are < n <= MAX_NODES < 2^32
            out.extend_from_slice(&(event.b().index() as u32).to_le_bytes());
        }
    }

    /// Inverse of [`Recorder::encode_into`], validating internal
    /// consistency (retention never exceeds the step count or the
    /// window; node indices stay below `n`).
    pub(crate) fn decode_from(
        r: &mut mla_permutation::codec::ByteReader<'_>,
        n: usize,
    ) -> Result<Self, mla_permutation::codec::CodecError> {
        use mla_permutation::codec::CodecError;
        let full = r.bool("recorder full flag")?;
        let window = if r.bool("recorder window flag")? {
            Some(r.count(usize::MAX, "recorder window")?)
        } else {
            None
        };
        let moving_cost = r.u128()?;
        let rearranging_cost = r.u128()?;
        let step = r.count(usize::MAX, "recorder step")?;
        // Each retained entry is 24 bytes: bounding the count by the input
        // left makes a short body fail before the allocations.
        let retained = r.count(step.min(r.remaining() / 24), "recorder retained entries")?;
        if !full {
            let cap = window.unwrap_or(0);
            if retained > cap {
                return Err(CodecError::invalid(format!(
                    "recorder retains {retained} entries but the window is {cap}"
                )));
            }
        }
        let mut per_event = VecDeque::with_capacity(retained);
        let mut events = VecDeque::with_capacity(retained);
        for _ in 0..retained {
            let moving = r.u64()?;
            let rearranging = r.u64()?;
            let a = r.u32()? as usize;
            let b = r.u32()? as usize;
            if a >= n || b >= n {
                return Err(CodecError::invalid(format!(
                    "recorded event ({a}, {b}) out of range for n = {n}"
                )));
            }
            per_event.push_back(UpdateReport {
                moving_cost: moving,
                rearranging_cost: rearranging,
            });
            events.push_back(RevealEvent::new(
                mla_permutation::Node::new(a),
                mla_permutation::Node::new(b),
            ));
        }
        Ok(Recorder {
            full,
            window,
            per_event,
            events,
            moving_cost,
            rearranging_cost,
            step,
        })
    }

    pub(crate) fn record(&mut self, event: RevealEvent, report: UpdateReport) {
        self.step += 1;
        self.moving_cost += u128::from(report.moving_cost);
        self.rearranging_cost += u128::from(report.rearranging_cost);
        let retain = if self.full {
            usize::MAX
        } else {
            self.window.unwrap_or(0)
        };
        if retain == 0 {
            return;
        }
        if self.per_event.len() == retain {
            self.per_event.pop_front();
            self.events.pop_front();
        }
        self.per_event.push_back(report);
        self.events.push_back(event);
    }

    pub(crate) fn finish(self, final_perm: Permutation) -> RunOutcome {
        RunOutcome {
            total_cost: self.moving_cost + self.rearranging_cost,
            moving_cost: self.moving_cost,
            rearranging_cost: self.rearranging_cost,
            per_event: self.per_event.into(),
            events: self.events.into(),
            events_recorded: self.full,
            recorded_window: self.window,
            final_perm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_adversary::{random_line_instance, DetLineAdversary, MergeShape};
    use mla_core::{DetClosest, RandCliques, RandLines};
    use mla_graph::Topology;
    use mla_offline::LopConfig;
    use mla_permutation::SegmentArrangement;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn oblivious_run_accumulates_costs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let instance = random_line_instance(10, MergeShape::Uniform, &mut rng);
        let alg = RandLines::new(Permutation::identity(10), SmallRng::seed_from_u64(4));
        let outcome = Simulation::new(instance, alg)
            .check_feasibility(true)
            .run()
            .unwrap();
        assert_eq!(outcome.per_event.len(), 9);
        assert_eq!(
            outcome.total_cost,
            outcome.moving_cost + outcome.rearranging_cost
        );
        let per_event_total: u128 = outcome
            .per_event
            .iter()
            .map(|r| u128::from(r.total()))
            .sum();
        assert_eq!(outcome.total_cost, per_event_total);
    }

    #[test]
    fn segment_backend_run_matches_dense() {
        let mut rng = SmallRng::seed_from_u64(3);
        let instance = random_line_instance(12, MergeShape::Uniform, &mut rng);
        let dense = RandLines::new(Permutation::identity(12), SmallRng::seed_from_u64(4));
        let segment = RandLines::new(SegmentArrangement::identity(12), SmallRng::seed_from_u64(4));
        let dense_outcome = Simulation::new(instance.clone(), dense)
            .check_feasibility(true)
            .run()
            .unwrap();
        let segment_outcome = Simulation::new(instance, segment)
            .check_feasibility(true)
            .check_feasibility_full(true)
            .run()
            .unwrap();
        assert_eq!(dense_outcome, segment_outcome);
    }

    #[test]
    fn total_cost_bounds_distance_from_start() {
        // The sum of per-update distances upper-bounds the end-to-end
        // Kendall distance (triangle inequality).
        let mut rng = SmallRng::seed_from_u64(5);
        let pi0 = Permutation::random(12, &mut rng);
        let instance = random_line_instance(12, MergeShape::Sequential, &mut rng);
        let alg = RandLines::new(pi0.clone(), SmallRng::seed_from_u64(6));
        let outcome = Simulation::new(instance, alg).run().unwrap();
        assert!(u128::from(pi0.kendall_distance(&outcome.final_perm)) <= outcome.total_cost);
    }

    #[test]
    fn adaptive_adversary_records_events() {
        let pi0 = Permutation::identity(9);
        let adversary = DetLineAdversary::new(pi0.clone(), Topology::Lines);
        let alg = DetClosest::new(pi0, LopConfig::default());
        let outcome = Simulation::with_adversary(Box::new(adversary), alg)
            .check_feasibility(true)
            .run()
            .unwrap();
        // n - 2 = 7 reveals (everything except the pivot merges).
        assert_eq!(outcome.events.len(), 7);
        let instance = outcome.to_instance(Topology::Lines, 9).unwrap();
        assert_eq!(instance.len(), 7);
    }

    #[test]
    fn to_instance_reports_replay_errors() {
        let pi0 = Permutation::identity(9);
        let adversary = DetLineAdversary::new(pi0.clone(), Topology::Lines);
        let alg = DetClosest::new(pi0, LopConfig::default());
        let outcome = Simulation::with_adversary(Box::new(adversary), alg)
            .run()
            .unwrap();
        // Replaying line reveals as a 3-node instance must fail, not panic.
        assert!(matches!(
            outcome.to_instance(Topology::Lines, 3),
            Err(SimError::Graph(_))
        ));
    }

    #[test]
    fn size_mismatch_is_reported() {
        let mut rng = SmallRng::seed_from_u64(7);
        let instance = random_line_instance(5, MergeShape::Uniform, &mut rng);
        let alg = RandCliques::new(Permutation::identity(6), SmallRng::seed_from_u64(8));
        assert_eq!(
            Simulation::new(instance, alg).run().unwrap_err(),
            SimError::SizeMismatch {
                expected: 5,
                actual: 6
            }
        );
    }

    #[test]
    fn feasibility_violation_is_caught() {
        // A deliberately broken "algorithm" that never moves.
        struct Lazy(Permutation);
        impl OnlineMinla for Lazy {
            type Arr = Permutation;
            fn name(&self) -> &str {
                "lazy"
            }
            fn arrangement(&self) -> &Permutation {
                &self.0
            }
            fn serve(
                &mut self,
                _: RevealEvent,
                _: &mla_graph::MergeInfo,
                _: &GraphState,
            ) -> UpdateReport {
                UpdateReport::default()
            }
        }
        let instance = Instance::new(
            Topology::Cliques,
            4,
            vec![RevealEvent::new(
                mla_permutation::Node::new(0),
                mla_permutation::Node::new(2),
            )],
        )
        .unwrap();
        // The incremental check alone must catch the violation.
        let outcome = Simulation::new(instance, Lazy(Permutation::identity(4)))
            .check_feasibility(true)
            .check_feasibility_full(false)
            .run();
        assert!(matches!(
            outcome,
            Err(SimError::FeasibilityViolation { step: 1, .. })
        ));

        // The reported step must stay correct when event recording is off
        // (the streaming large-n mode): violation at reveal 2, not 1.
        let instance = Instance::new(
            Topology::Cliques,
            4,
            vec![
                RevealEvent::new(mla_permutation::Node::new(0), mla_permutation::Node::new(1)),
                RevealEvent::new(mla_permutation::Node::new(0), mla_permutation::Node::new(3)),
            ],
        )
        .unwrap();
        let outcome = Simulation::new(instance, Lazy(Permutation::identity(4)))
            .check_feasibility(true)
            .check_feasibility_full(false)
            .record_events(false)
            .run();
        assert!(matches!(
            outcome,
            Err(SimError::FeasibilityViolation { step: 2, .. })
        ));
    }
}
