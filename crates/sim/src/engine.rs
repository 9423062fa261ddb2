//! The simulation engine: drives an adversary against an online algorithm,
//! either through the classic sequential reveal loop or — for batchable
//! algorithms against oblivious adversaries — through the batched
//! parallel executor built on the conflict-detection layer in
//! [`crate::batch`].

use std::collections::VecDeque;

use mla_adversary::{Adversary, Oblivious, SourceAdversary};
use mla_core::{BatchServe, MergeDecision, MergePlan, OnlineMinla, UpdateReport};
use mla_graph::{GraphState, Instance, RevealEvent, RevealSource, SnapshotMode, Topology};
use mla_permutation::{Arrangement, MergeOp, Permutation};

use crate::batch::{BatchPlanner, PARALLEL_DISPATCH_MIN};
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
    /// switch pins the pre-PR behaviour — useful for A/B comparisons and
    /// the lazy ≡ eager property tests.
    #[must_use]
    pub fn eager_snapshots(mut self, on: bool) -> Self {
        self.eager_snapshots = on;
        self
    }

    /// The snapshot mode this simulation's reveal loop will use.
    fn snapshot_mode(&self) -> SnapshotMode {
        if !self.eager_snapshots
            && self.algorithm.wants_lazy_info()
            && self.algorithm.arrangement().supports_component_locate()
        {
            SnapshotMode::Lazy
        } else {
            SnapshotMode::Eager
        }
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
        let mode = self.snapshot_mode();
        let mut state = GraphState::new(self.adversary.topology(), n);
        let mut recorder = Recorder::new(self.record_events, self.record_window);
        while let Some(event) = self.adversary.next(self.algorithm.arrangement(), &state) {
            let info = state.apply_with(event, mode)?;
            let report = self.algorithm.serve(event, &info, &state);
            if self.check_feasibility {
                let feasible = state.merge_keeps_minla(self.algorithm.arrangement(), &info)
                    && (!self.full_scan || state.is_minla(self.algorithm.arrangement()));
                if !feasible {
                    return Err(SimError::FeasibilityViolation {
                        step: recorder.step() + 1,
                        algorithm: self.algorithm.name().to_owned(),
                    });
                }
            }
            recorder.record(event, report);
        }
        Ok(recorder.finish(self.algorithm.arrangement().to_permutation()))
    }

    /// Upgrades this simulation to the **batched parallel executor**: the
    /// engine pulls reveals ahead of the serving frontier, groups
    /// consecutive reveals into maximal batches whose component spans are
    /// pairwise disjoint (see [`BatchPlanner`](crate::BatchPlanner)), and
    /// runs each batch's merge mechanics on `threads` workers — while
    /// RNG draws and arrangement mutations stay strictly in reveal order,
    /// so the outcome is **bit-identical to the sequential loop for every
    /// thread count**.
    ///
    /// `threads = 0` means available parallelism; `threads = 1` exercises
    /// the batching pipeline without worker threads (useful for tests).
    /// Only oblivious adversaries are actually batched; adaptive ones
    /// force a window of 1, which degenerates to the sequential loop.
    ///
    /// Requires a [`BatchServe`] algorithm (whose `serve` decomposes into
    /// decide / plan / apply) over a `Sync` arrangement backend.
    ///
    /// # Examples
    ///
    /// ```
    /// use mla_adversary::{random_clique_instance, MergeShape};
    /// use mla_core::RandCliques;
    /// use mla_permutation::SegmentArrangement;
    /// use mla_sim::Simulation;
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = SmallRng::seed_from_u64(1);
    /// let instance = random_clique_instance(64, MergeShape::Uniform, &mut rng);
    /// let alg = || RandCliques::new(SegmentArrangement::identity(64), SmallRng::seed_from_u64(2));
    /// let sequential = Simulation::new(instance.clone(), alg()).run().unwrap();
    /// let parallel = Simulation::new(instance, alg()).parallel(4).run().unwrap();
    /// assert_eq!(sequential, parallel); // bit-identical, any thread count
    /// ```
    #[must_use]
    pub fn parallel(self, threads: usize) -> ParallelSimulation<A> {
        ParallelSimulation {
            sim: self,
            threads,
            window: DEFAULT_BATCH_WINDOW,
            unchecked_sealing: false,
        }
    }
}

/// Default maximal look-ahead window of the batched executor (shared
/// with the session layer's internal planner).
pub(crate) const DEFAULT_BATCH_WINDOW: usize = 4096;

/// Debug-build re-check of the planner's sealing contract: every span in
/// a sealed batch must be pairwise disjoint, or the partitioned-write
/// executor's `&mut`-distribution argument does not hold. Uses sort +
/// adjacent comparison — deliberately a different algorithm than the
/// planner's [`crate::batch::ConflictGraph`] — so a sealing bug cannot
/// hide itself in the checker.
#[cfg(debug_assertions)]
fn assert_batch_spans_disjoint(batch: &[crate::batch::PlannedReveal]) {
    let mut spans: Vec<(std::ops::Range<usize>, usize)> = batch
        .iter()
        .enumerate()
        .map(|(index, planned)| (planned.span(), index))
        .collect();
    spans.sort_by_key(|(span, _)| (span.start, span.end));
    for pair in spans.windows(2) {
        let ((a, a_at), (b, b_at)) = (&pair[0], &pair[1]);
        if a.end > b.start {
            // mla-lint: allow(panic-safety): the shadow checker exists to abort on a detected sealing violation (debug builds only)
            panic!(
                "shadow checker: sealed batch contains overlapping spans: \
                 reveal {a_at} span {a:?} vs reveal {b_at} span {b:?}"
            );
        }
    }
}

/// Incremental feasibility check shared by the batch execution paths:
/// validates the merged component's block (and, under `full_scan`, the
/// whole arrangement) against the post-merge state.
fn batch_step_feasible<P: Arrangement>(
    state: &GraphState,
    arr: &P,
    info: &mla_graph::MergeInfo,
    full_scan: bool,
) -> bool {
    state.merge_keeps_minla(arr, info) && (!full_scan || state.is_minla(arr))
}

/// Executes one **sealed** batch of span-disjoint planned reveals through
/// the decide / plan / apply pipeline — phases 2–4 of the batched
/// executor (see [`Simulation::parallel`]), with per-reveal feasibility
/// checks and recording.
///
/// This is the single execution path shared by [`ParallelSimulation::run`]
/// and the serving session layer ([`crate::session`]): both therefore
/// apply merges through byte-identical code, which is what makes a
/// checkpoint taken mid-stream resumable into either driver.
///
/// The caller owns the planning half of the contract: `batch` must come
/// from [`BatchPlanner::plan_batch_into`] against the *current* `state`
/// and arrangement, and [`BatchPlanner::retire_batch`] must be called
/// after this returns `Ok`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_planned_batch<A: BatchServe>(
    algorithm: &mut A,
    state: &mut GraphState,
    recorder: &mut Recorder,
    batch: &[crate::batch::PlannedReveal],
    decisions: &mut Vec<MergeDecision>,
    threads: usize,
    check_feasibility: bool,
    full_scan: bool,
) -> Result<(), SimError>
where
    A::Arr: Sync,
{
    // Batch of one — the parked degraded mode, and the tail of every
    // run: skip the whole phase machinery (decision/plan/op staging
    // vectors, the backend's batch dispatch) and run the exact
    // sequential pipeline inline. Identical semantics — decide, build,
    // commit, one `merge_move` — just without the bookkeeping, so a
    // conflict-dense parallel run is never slower than the sequential
    // loop.
    if batch.len() == 1 {
        let planned = &batch[0];
        let decision = algorithm.decide(&planned.info, &planned.layout);
        let plan = A::build_plan(&planned.info, &planned.layout, decision);
        state.commit(planned.event);
        let report = algorithm.apply_plan(plan);
        if check_feasibility
            && !batch_step_feasible(state, algorithm.arrangement(), &planned.info, full_scan)
        {
            return Err(SimError::FeasibilityViolation {
                step: recorder.step() + 1,
                algorithm: algorithm.name().to_owned(),
            });
        }
        recorder.record(planned.event, report);
        return Ok(());
    }
    // Phase 2: RNG draws, strictly in reveal order.
    decisions.clear();
    decisions.extend(batch.iter().map(|p| algorithm.decide(&p.info, &p.layout)));
    // Phase 3: pure plan construction. Only line merges carry per-plan
    // staging buffers (the merged path's target content), so only they
    // are worth a parallel dispatch.
    let plans: Vec<MergePlan> = if threads > 1
        && batch.len() >= PARALLEL_DISPATCH_MIN
        && state.topology() == Topology::Lines
    {
        let decisions = &*decisions;
        mla_runner::run_indexed(threads, batch.len(), |i| {
            A::build_plan(&batch[i].info, &batch[i].layout, decisions[i])
        })
    } else {
        batch
            .iter()
            .zip(decisions.iter())
            .map(|(p, &decision)| A::build_plan(&p.info, &p.layout, decision))
            .collect()
    };
    // Phase 4: commit the graph mutations (reveal order, `O(α)` each),
    // then execute the whole batch of span-disjoint merges through the
    // backend — partitioned backends
    // ([`mla_permutation::ShardedArrangement`]) run ops of different
    // regions on worker threads. Disjoint spans commute, so the
    // arrangement is bit-identical to the sequential per-reveal loop.
    // Debug-build shadow check: re-verify the planner's sealing promise
    // with an independent algorithm (sort + adjacent comparison, vs the
    // planner's ordered-map probes) before any state mutation. Compiled
    // out of release builds.
    #[cfg(debug_assertions)]
    assert_batch_spans_disjoint(batch);
    let mut reports = Vec::with_capacity(batch.len());
    let mut ops = Vec::with_capacity(batch.len());
    for (planned, plan) in batch.iter().zip(plans) {
        state.commit(planned.event);
        reports.push(plan.report);
        ops.push(MergeOp {
            mover: plan.mover,
            stayer: plan.stayer,
            target: plan.target,
        });
    }
    let costs = algorithm.arrangement_mut().apply_merge_batch(ops, threads);
    debug_assert!(
        costs
            .iter()
            .zip(&reports)
            .all(|(&cost, report)| cost == report.moving_cost),
        "backend charged a different moving cost than the plan"
    );
    // Checks and recording, in reveal order. Feasibility is validated
    // against the post-batch state; because batch spans are disjoint,
    // each merged component's block is exactly what the per-reveal
    // check would have seen.
    for (planned, report) in batch.iter().zip(reports) {
        if check_feasibility
            && !batch_step_feasible(state, algorithm.arrangement(), &planned.info, full_scan)
        {
            return Err(SimError::FeasibilityViolation {
                step: recorder.step() + 1,
                algorithm: algorithm.name().to_owned(),
            });
        }
        recorder.record(planned.event, report);
    }
    Ok(())
}

/// The batched parallel executor returned by [`Simulation::parallel`].
///
/// Runs the same simulation as the sequential loop, in batches of
/// span-disjoint merges planned concurrently. See
/// [`Simulation::parallel`] for the contract and an example.
pub struct ParallelSimulation<A> {
    sim: Simulation<A>,
    threads: usize,
    window: usize,
    /// Test hook, forwarded to [`BatchPlanner::unchecked_sealing`].
    unchecked_sealing: bool,
}

impl<A> std::fmt::Debug for ParallelSimulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSimulation")
            .field("threads", &self.threads)
            .field("window", &self.window)
            .field("sim", &"Simulation { .. }")
            .finish()
    }
}

impl<A: BatchServe> ParallelSimulation<A>
where
    A::Arr: Sync,
{
    /// Sets the maximal look-ahead window: how many reveals the engine
    /// may pull from an oblivious adversary (or streaming source) ahead
    /// of the serving frontier. Larger windows admit larger batches at
    /// the price of buffering more pending snapshots; the planner adapts
    /// the effective window downward when conflicts are dense. Default:
    /// 4096. Clamped to at least 1.
    #[must_use]
    pub fn batch_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Test hook: disables the planner's `ConflictGraph` disjointness
    /// check, letting overlapping spans reach the executor so regression
    /// tests can prove the debug-build shadow checker trips. Never
    /// enable outside tests.
    #[doc(hidden)]
    #[must_use]
    pub fn unchecked_sealing(mut self, on: bool) -> Self {
        self.unchecked_sealing = on;
        self
    }

    /// Runs the sequence to completion through the batch pipeline. Same
    /// error contract as [`Simulation::run`], same outcome bit-for-bit.
    ///
    /// Each batch executes in four phases:
    ///
    /// 1. **plan window** (parallel) — peek + locate candidate reveals
    ///    against the frozen state, seal the span-disjoint prefix;
    /// 2. **decide** (reveal order) — the algorithm draws each merge's
    ///    random choices, keeping the RNG stream identical to sequential;
    /// 3. **build plans** (parallel) — pure snapshot → plan construction,
    ///    including staged target contents for rearranged merges;
    /// 4. **apply** (reveal order) — commit the merge to the graph state
    ///    and execute the plan as one backend `merge_move`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Simulation::run`], at the same steps.
    pub fn run(mut self) -> Result<RunOutcome, SimError> {
        let threads = mla_runner::resolve_threads(self.threads);
        let n = self.sim.adversary.n();
        if self.sim.algorithm.arrangement().len() != n {
            return Err(SimError::SizeMismatch {
                expected: n,
                actual: self.sim.algorithm.arrangement().len(),
            });
        }
        let mut state = GraphState::new(self.sim.adversary.topology(), n);
        let mut recorder = Recorder::new(self.sim.record_events, self.sim.record_window);
        // Adaptive adversaries must observe the arrangement after every
        // reveal: window 1 makes the pipeline equivalent to the
        // sequential loop.
        let window_max = if self.sim.adversary.is_oblivious() {
            self.window
        } else {
            1
        };
        // Lazy snapshots additionally require the cliques topology here:
        // the batched lines pipeline builds rearranged target contents in
        // `build_plan`, which needs member lists.
        let mode = if self.sim.snapshot_mode() == SnapshotMode::Lazy
            && state.topology() == Topology::Cliques
        {
            SnapshotMode::Lazy
        } else {
            SnapshotMode::Eager
        };
        let mut planner = BatchPlanner::new(window_max)
            .snapshot_mode(mode)
            .unchecked_sealing(self.unchecked_sealing);
        let mut exhausted = false;
        let mut decisions: Vec<MergeDecision> = Vec::new();
        // Reused across rounds: the parked (window-1) degraded mode must
        // not pay a heap allocation per reveal.
        let mut batch: Vec<crate::batch::PlannedReveal> = Vec::new();
        loop {
            while !exhausted && planner.queued() < planner.refill_target() {
                match self
                    .sim
                    .adversary
                    .next(self.sim.algorithm.arrangement(), &state)
                {
                    Some(event) => planner.push(event),
                    None => exhausted = true,
                }
            }
            if planner.is_empty() {
                break;
            }
            // Phase 1: peek + locate the window, seal the disjoint prefix.
            planner
                .plan_batch_into(
                    &state,
                    self.sim.algorithm.arrangement(),
                    threads,
                    &mut batch,
                )
                .map_err(SimError::Graph)?;
            // Phases 2–4 (decide / build / apply), shared with the
            // serving session layer.
            execute_planned_batch(
                &mut self.sim.algorithm,
                &mut state,
                &mut recorder,
                &batch,
                &mut decisions,
                threads,
                self.sim.check_feasibility,
                self.sim.full_scan,
            )?;
            planner.retire_batch(&state, &batch);
        }
        Ok(recorder.finish(self.sim.algorithm.arrangement().to_permutation()))
    }
}

/// Shared outcome accumulator of the sequential and batched run loops:
/// exact `u128` cost totals, plus full, windowed or no per-event
/// recording. `pub(crate)` so the serving session layer
/// ([`crate::session`]) accumulates through the identical code path and
/// can checkpoint/restore the accumulator state exactly.
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
        let retained = r.count(step, "recorder retained entries")?;
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
    #[cfg(debug_assertions)]
    fn unchecked_sealing_trips_shadow_checker() {
        // Events (0,1) and (1,2) both validate against the frozen state
        // but their spans overlap (0..2 vs 1..3) — the planner would
        // seal only the first. The test hook seals both, and the
        // debug-build shadow check must refuse the batch before any
        // state mutation.
        let instance = Instance::new(
            Topology::Cliques,
            4,
            vec![
                RevealEvent::new(mla_permutation::Node::new(0), mla_permutation::Node::new(1)),
                RevealEvent::new(mla_permutation::Node::new(1), mla_permutation::Node::new(2)),
            ],
        )
        .unwrap();
        let alg = RandCliques::new(Permutation::identity(4), SmallRng::seed_from_u64(9));
        let run = Simulation::new(instance, alg)
            .parallel(2)
            .unchecked_sealing(true);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || run.run()))
            .expect_err("overlapping batch must trip the shadow checker");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("shadow checker"), "{message}");
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
