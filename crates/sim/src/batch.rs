//! The conflict-detection layer behind parallel per-component serving.
//!
//! Between two merges the revealed graph is a disjoint union of
//! components, and a feasible arrangement keeps every component in its
//! own contiguous block. One merge update only ever mutates positions
//! inside its **span** — the hull of the two merging blocks and the gap
//! between them ([`MergeLayout::span`]) — so two merges with disjoint
//! spans commute: they touch disjoint components *and* disjoint position
//! ranges. That observation is the entire concurrency model:
//!
//! * [`ConflictGraph`] — the pairwise overlap relation over a window of
//!   merge spans, and the maximal conflict-free prefix under it;
//! * [`BatchPlanner`] — pulls reveals into a look-ahead window, peeks and
//!   locates them **in parallel** against the frozen pre-batch state
//!   (pure `&self` reads: [`GraphState::peek`] snapshots,
//!   [`MergeLayout::locate`] block lookups), then seals the maximal
//!   prefix of consecutive reveals whose spans are pairwise disjoint.
//!
//! The engine executes a sealed batch in three strictly ordered phases —
//! decide (RNG draws, reveal order), plan (pure, parallel), apply
//! (mutations, reveal order) — which is why a batched run is
//! bit-identical to the sequential loop for every thread count; see
//! [`Simulation::parallel`](crate::Simulation::parallel).
//!
//! Work planned for reveals *beyond* the sealed prefix is not thrown
//! away: a prepared candidate stays cached across rounds until some
//! applied span overlaps its own (the only way it can go stale), so the
//! tail of a run — few, large components, batches of one — degrades to
//! roughly the sequential cost instead of re-peeking the window every
//! round.

use std::collections::VecDeque;
use std::ops::Range;

use mla_core::MergeLayout;
use mla_graph::{GraphError, GraphState, MergeInfo, RevealEvent, SnapshotMode};
use mla_permutation::Arrangement;

thread_local! {
    /// Monotone count of [`ConflictGraph`] constructions on this thread —
    /// a test hook proving the parked (window-1) degraded mode performs
    /// no conflict bookkeeping at all.
    static CONFLICT_GRAPH_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Returns how many [`ConflictGraph`]s this thread has built so far.
///
/// Test hook: regression tests snapshot it around a parallel run to
/// assert the window-1 degraded mode allocates zero conflict structures.
#[doc(hidden)]
#[must_use]
pub fn conflict_graph_allocations() -> u64 {
    CONFLICT_GRAPH_ALLOCATIONS.with(std::cell::Cell::get)
}

/// Below this many uncached candidates the planner prepares inline on
/// the engine thread: scoped-spawn overhead would exceed the work.
pub(crate) const PARALLEL_DISPATCH_MIN: usize = 64;

/// Consecutive fully-sealed windows required before the window grows —
/// hysteresis so a conflict-dense workload parked at window 1 only
/// occasionally probes for newly available parallelism.
const GROW_AFTER_FULL_SEALS: u32 = 3;

/// Cap on the probe-backoff exponent: after this many consecutive
/// failed probes the quiet period stops doubling (at
/// `GROW_AFTER_FULL_SEALS << MAX_COLLAPSE_STREAK` = 3072 rounds), so a
/// workload that *becomes* parallel mid-run is still discovered within a
/// bounded number of reveals.
const MAX_COLLAPSE_STREAK: u32 = 10;

/// The pairwise span-overlap relation over one window of candidate
/// merges, in reveal order.
///
/// Spans are half-open position ranges. Two merges conflict iff their
/// spans overlap — they might share a component, or one's block move
/// would shift positions the other's plan was computed against.
///
/// # Examples
///
/// ```
/// use mla_sim::ConflictGraph;
///
/// let graph = ConflictGraph::new(vec![0..4, 6..9, 3..5, 7..8]);
/// assert!(!graph.conflicts(0, 1));
/// assert!(graph.conflicts(0, 2)); // 0..4 overlaps 3..5
/// assert!(graph.conflicts(1, 3));
/// // 0..4 and 6..9 are disjoint; 3..5 hits 0..4, closing the prefix.
/// assert_eq!(graph.disjoint_prefix(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    spans: Vec<Range<usize>>,
}

impl ConflictGraph {
    /// Builds the relation over the given spans (reveal order).
    #[must_use]
    pub fn new(spans: Vec<Range<usize>>) -> Self {
        CONFLICT_GRAPH_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        ConflictGraph { spans }
    }

    /// Number of candidate merges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` when the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span of candidate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn span(&self, i: usize) -> Range<usize> {
        self.spans[i].clone()
    }

    /// Returns `true` iff the spans of candidates `i` and `j` overlap.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        spans_overlap(&self.spans[i], &self.spans[j])
    }

    /// Length of the maximal prefix whose spans are pairwise disjoint —
    /// the largest batch of *consecutive* reveals that can be served
    /// concurrently while preserving sequential semantics. `O(k log k)`
    /// over the prefix via an ordered interval set.
    #[must_use]
    pub fn disjoint_prefix(&self) -> usize {
        let mut accepted: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.is_empty() {
                return i;
            }
            // The accepted neighbour starting left of us must end at or
            // before our start; the one starting at/after us must start
            // at/after our end.
            if let Some((_, &end)) = accepted.range(..=span.start).next_back() {
                if end > span.start {
                    return i;
                }
            }
            if let Some((&start, _)) = accepted.range(span.start..).next() {
                if start < span.end {
                    return i;
                }
            }
            accepted.insert(span.start, span.end);
        }
        self.spans.len()
    }

    /// Returns `true` iff *all* spans are pairwise disjoint.
    #[must_use]
    pub fn is_pairwise_disjoint(&self) -> bool {
        self.disjoint_prefix() == self.len()
    }
}

/// Returns `true` iff two half-open ranges overlap.
fn spans_overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// One reveal with everything the pre-apply pipeline produced for it:
/// the pre-merge component snapshots and the located block layout.
#[derive(Debug, Clone)]
pub struct PlannedReveal {
    /// The reveal itself.
    pub event: RevealEvent,
    /// Pre-merge snapshots of the two merging components.
    pub info: MergeInfo,
    /// Where the two blocks sit, with orientations.
    pub layout: MergeLayout,
}

impl PlannedReveal {
    /// The update's span (position hull), the conflict-detection key.
    #[must_use]
    pub fn span(&self) -> Range<usize> {
        self.layout.span()
    }
}

/// A candidate with two independently cached preparation levels.
///
/// * `info` — validation + component snapshots. Goes stale only when one
///   of the candidate's components actually merges (an applied reveal
///   whose merged component contains one of this candidate's endpoints).
/// * `layout` — the located block positions. Additionally goes stale
///   whenever an applied span overlaps this candidate's span: the
///   applied block move shifted positions inside the overlap (even for
///   components it did not touch — foreign blocks in its gap shift by
///   the mover's length).
///
/// Invariant: `layout.is_some()` implies `info.is_some()`.
#[derive(Debug)]
struct Candidate {
    event: RevealEvent,
    info: Option<MergeInfo>,
    layout: Option<MergeLayout>,
}

/// Groups consecutive reveals into maximal batches of span-disjoint
/// merges, preparing candidates in parallel.
///
/// The planner owns the look-ahead queue: the engine [`push`]es reveals
/// pulled from the adversary and calls [`plan_batch`] in a loop. The
/// look-ahead window adapts between 1 and the configured maximum: it
/// grows (gently, with hysteresis) while whole windows seal
/// conflict-free — the steady state of a sharded workload — and
/// collapses toward the sealed size when conflicts are dense, down to
/// exactly 1 (no speculative look-ahead at all) when batches degenerate,
/// bounding wasted speculative peeks.
///
/// [`push`]: BatchPlanner::push
/// [`plan_batch`]: BatchPlanner::plan_batch
#[derive(Debug)]
pub struct BatchPlanner {
    queue: VecDeque<Candidate>,
    window: usize,
    window_max: usize,
    /// Consecutive rounds in which the whole examined window sealed.
    full_seals: u32,
    /// Consecutive probes that collapsed straight back to a batch of
    /// one. Each failure doubles the quiet period before the next probe
    /// (capped by [`MAX_COLLAPSE_STREAK`]), so a permanently
    /// conflict-dense workload pays a vanishing probe tax instead of
    /// re-peeking a doomed speculative candidate every few reveals.
    collapse_streak: u32,
    /// How candidate peeks snapshot the merging components.
    mode: SnapshotMode,
    /// Test hook: seal the whole validated window *without* the
    /// `ConflictGraph` disjointness check. Exists solely so regression
    /// tests can drive an overlapping-span batch into the executor and
    /// prove the debug-build shadow checker catches it downstream.
    unchecked_sealing: bool,
}

impl BatchPlanner {
    /// A planner with the given maximal look-ahead window (clamped to at
    /// least 1). The engine uses 1 for adaptive adversaries — every
    /// reveal may depend on the arrangement after the previous one — and
    /// the configured window for oblivious ones.
    #[must_use]
    pub fn new(window_max: usize) -> Self {
        let window_max = window_max.max(1);
        BatchPlanner {
            queue: VecDeque::new(),
            window: window_max.min(64),
            window_max,
            full_seals: 0,
            collapse_streak: 0,
            mode: SnapshotMode::Eager,
            unchecked_sealing: false,
        }
    }

    /// Test hook: disables the `ConflictGraph` disjointness check so the
    /// whole validated window seals even when spans overlap. Only for
    /// regression tests of the downstream shadow checker — never enable
    /// this in serving code.
    #[doc(hidden)]
    #[must_use]
    pub fn unchecked_sealing(mut self, on: bool) -> Self {
        self.unchecked_sealing = on;
        self
    }

    /// Sets how candidate peeks snapshot the merging components
    /// (default [`SnapshotMode::Eager`]). The engine selects
    /// [`SnapshotMode::Lazy`] when the algorithm, the backend and the
    /// topology all support serving from size-only snapshots.
    #[must_use]
    pub fn snapshot_mode(mut self, mode: SnapshotMode) -> Self {
        self.mode = mode;
        self
    }

    /// Snapshot of the adaptive-window tuning state `(window, full_seals,
    /// collapse_streak)`. Session checkpoints (format version 1) carry a
    /// fresh planner's value as an opaque field; nothing restores it,
    /// since sessions serve on the sequential loop.
    #[must_use]
    pub fn tuning(&self) -> (usize, u32, u32) {
        (self.window, self.full_seals, self.collapse_streak)
    }

    /// Appends a reveal to the look-ahead queue.
    pub fn push(&mut self, event: RevealEvent) {
        self.queue.push_back(Candidate {
            event,
            info: None,
            layout: None,
        });
    }

    /// Number of queued (not yet served) reveals.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no reveals are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// How many reveals the engine should buffer ahead right now.
    #[must_use]
    pub fn refill_target(&self) -> usize {
        self.window
    }

    /// Prepares up to one window of queued reveals against the frozen
    /// `state`/`arr` (in parallel across `threads` workers when enough
    /// candidates lack cached preparation), seals the maximal prefix
    /// with pairwise-disjoint spans, and pops it off the queue.
    ///
    /// Guarantees at least one sealed reveal on success while the queue
    /// is non-empty, so the engine always makes progress.
    ///
    /// # Errors
    ///
    /// Returns the head reveal's validation error — by construction this
    /// is exactly the error the sequential loop would hit at this step.
    /// Validation errors of *later* candidates merely close the batch
    /// early (they surface, deterministically, once every reveal before
    /// them has been served).
    pub fn plan_batch<P>(
        &mut self,
        state: &GraphState,
        arr: &P,
        threads: usize,
    ) -> Result<Vec<PlannedReveal>, GraphError>
    where
        P: Arrangement + Sync,
    {
        let mut batch = Vec::new();
        self.plan_batch_into(state, arr, threads, &mut batch)?;
        Ok(batch)
    }

    /// [`plan_batch`](BatchPlanner::plan_batch) into a caller-owned
    /// buffer (cleared first). The engine reuses one buffer across
    /// rounds, so the parked (window-1) degraded mode performs **zero**
    /// heap allocations per reveal.
    ///
    /// # Errors
    ///
    /// Exactly those of [`plan_batch`](BatchPlanner::plan_batch).
    pub fn plan_batch_into<P>(
        &mut self,
        state: &GraphState,
        arr: &P,
        threads: usize,
        out: &mut Vec<PlannedReveal>,
    ) -> Result<(), GraphError>
    where
        P: Arrangement + Sync,
    {
        out.clear();
        let examined = self.queue.len().min(self.window);
        // Parked (window-1) degraded mode must be genuinely free: one
        // candidate can never conflict with itself, so skip ALL conflict
        // bookkeeping — no todo list, no span vector, no `ConflictGraph`.
        // This keeps the batched executor's per-reveal cost on
        // conflict-dense workloads at the sequential loop's plus a few
        // branches.
        if examined == 1 {
            if self.queue[0].layout.is_none() {
                match prepare(&self.queue[0], state, arr, self.mode)? {
                    Prepared::Fresh(info, layout) => {
                        self.queue[0].info = Some(info);
                        self.queue[0].layout = Some(layout);
                    }
                    Prepared::Relocated(layout) => self.queue[0].layout = Some(layout),
                }
            }
            // Still counts as a clean full seal, so the parked window
            // periodically probes for newly available parallelism.
            self.adapt_window(1, 1);
            // mla-lint: allow(panic-safety): examined == 1 implies the queue is non-empty
            let candidate = self.queue.pop_front().expect("examined == 1");
            out.push(PlannedReveal {
                event: candidate.event,
                // mla-lint: allow(panic-safety): the head candidate was prepared unconditionally above
                info: candidate.info.expect("prepared above"),
                // mla-lint: allow(panic-safety): the head candidate was prepared unconditionally above
                layout: candidate.layout.expect("prepared above"),
            });
            return Ok(());
        }
        // Bring every candidate in the window to full preparation. Two
        // job kinds: `peek` (validation + snapshots + locate, for empty
        // caches) and `locate` (re-locate only — the snapshots survived
        // the last batch, just the positions moved). Both are pure reads
        // of `state` and `arr`, so they run on worker threads.
        let todo: Vec<usize> = (0..examined)
            .filter(|&i| self.queue[i].layout.is_none())
            .collect();
        let prepared: Vec<Result<Prepared, GraphError>> =
            if threads > 1 && todo.len() >= PARALLEL_DISPATCH_MIN {
                let queue = &self.queue;
                let mode = self.mode;
                mla_runner::run_indexed(threads, todo.len(), |k| {
                    prepare(&queue[todo[k]], state, arr, mode)
                })
            } else {
                todo.iter()
                    .map(|&i| prepare(&self.queue[i], state, arr, self.mode))
                    .collect()
            };
        let mut blocked = examined; // first candidate that failed validation
        for (&i, result) in todo.iter().zip(prepared) {
            match result {
                Ok(Prepared::Fresh(info, layout)) => {
                    self.queue[i].info = Some(info);
                    self.queue[i].layout = Some(layout);
                }
                Ok(Prepared::Relocated(layout)) => self.queue[i].layout = Some(layout),
                Err(error) => {
                    if i == 0 {
                        return Err(error);
                    }
                    blocked = blocked.min(i);
                    break;
                }
            }
        }
        // Seal the maximal span-disjoint prefix of validated candidates.
        let spans: Vec<Range<usize>> = self
            .queue
            .iter()
            .take(blocked)
            .map_while(|c| c.layout.as_ref().map(MergeLayout::span))
            .collect();
        // `disjoint_prefix` cannot return 0 for a non-empty window: the
        // head candidate is validated (or its error was returned above)
        // and a merge span is never empty.
        let sealed = if self.unchecked_sealing {
            // Test hook: seal everything validated, overlaps included.
            spans.len().max(usize::from(examined > 0))
        } else {
            ConflictGraph::new(spans)
                .disjoint_prefix()
                .max(usize::from(examined > 0))
        };
        self.adapt_window(sealed, examined);
        out.extend(
            self.queue
                .drain(..sealed.min(self.queue.len()))
                .map(|candidate| PlannedReveal {
                    event: candidate.event,
                    // mla-lint: allow(panic-safety): sealed candidates were fully prepared before sealing
                    info: candidate.info.expect("sealed candidates are prepared"),
                    // mla-lint: allow(panic-safety): sealed candidates were fully prepared before sealing
                    layout: candidate.layout.expect("sealed candidates are prepared"),
                }),
        );
        Ok(())
    }

    /// Invalidates cached preparations made stale by the just-applied
    /// (and committed) batch, precisely:
    ///
    /// * a cached **layout** dies when an applied span overlaps it — the
    ///   applied block move shifted positions inside the overlap;
    /// * the cached **snapshots** additionally die only when one of the
    ///   candidate's endpoints now belongs to a component merged by the
    ///   batch — everything else kept its component untouched and only
    ///   needs the cheap re-locate.
    ///
    /// `state` must already reflect the batch's commits.
    pub fn retire_batch(&mut self, state: &GraphState, applied: &[PlannedReveal]) {
        if applied.is_empty() || self.queue.is_empty() {
            // Nothing cached to invalidate — in particular the parked
            // (window-1) mode, whose queue drains every round, pays
            // nothing here.
            return;
        }
        let mut sorted: Vec<(usize, usize)> = applied
            .iter()
            .map(|p| {
                let span = p.span();
                (span.start, span.end)
            })
            .collect();
        sorted.sort_unstable();
        // Post-commit representatives of the components the batch merged.
        let mut merged_roots: Vec<mla_permutation::Node> = applied
            .iter()
            .map(|p| state.component_id(p.event.a()))
            .collect();
        merged_roots.sort_unstable();
        for candidate in &mut self.queue {
            if let Some(layout) = &candidate.layout {
                let span = layout.span();
                let at = sorted.partition_point(|&(start, _)| start < span.start);
                let left_hit = at > 0 && sorted[at - 1].1 > span.start;
                let right_hit = at < sorted.len() && sorted[at].0 < span.end;
                if left_hit || right_hit {
                    candidate.layout = None;
                }
            }
            // The snapshot check runs for every cached candidate — also
            // those whose layout an *earlier* batch already invalidated:
            // their components may merge in any later batch.
            if candidate.info.is_some() {
                let touched = [candidate.event.a(), candidate.event.b()]
                    .into_iter()
                    .any(|v| merged_roots.binary_search(&state.component_id(v)).is_ok());
                if touched {
                    candidate.info = None;
                    candidate.layout = None;
                }
            }
        }
    }

    /// Full seals required before the window grows: the base hysteresis,
    /// doubled per consecutive failed probe (exponential backoff).
    fn required_seals(&self) -> u32 {
        GROW_AFTER_FULL_SEALS << self.collapse_streak.min(MAX_COLLAPSE_STREAK)
    }

    /// Tracks the sealable batch size: gentle multiplicative growth
    /// (×1.25) while whole windows seal cleanly, and a collapse to just
    /// above the sealed size on conflicts. Keeping the window close to
    /// the conflict-free capacity bounds the speculative look-ahead that
    /// the next batch will invalidate: a conflict-dense workload — e.g.
    /// uniform random merging, whose spans hull most of the arrangement —
    /// parks at a window of 1, where the pipeline degrades to the
    /// sequential loop plus a few branches. Each probe that collapses
    /// straight back doubles the quiet period before the next one
    /// ([`MAX_COLLAPSE_STREAK`] caps the exponent), so the steady-state
    /// probe tax on a permanently conflict-dense run is `O(1/3072)` per
    /// reveal instead of a fixed fraction.
    fn adapt_window(&mut self, sealed: usize, examined: usize) {
        if examined == 0 {
            return;
        }
        if sealed >= 2 {
            // Real parallelism sealed — probing is paying off again.
            self.collapse_streak = 0;
        }
        if sealed >= examined {
            self.full_seals += 1;
            if self.full_seals >= self.required_seals() && examined == self.window {
                self.window = (self.window + (self.window / 4).max(1)).min(self.window_max);
                self.full_seals = 0;
            }
        } else {
            self.full_seals = 0;
            // Parking at exactly 1 when batches collapse matters: at
            // window 1 the pipeline carries no speculative look-ahead at
            // all, so the degraded mode costs only the batch bookkeeping.
            self.window = if sealed <= 1 {
                self.collapse_streak = (self.collapse_streak + 1).min(MAX_COLLAPSE_STREAK);
                1
            } else {
                (sealed + sealed / 8 + 1).min(self.window)
            };
        }
    }
}

/// Result of one preparation job.
enum Prepared {
    /// Fresh validation + snapshots + locate.
    Fresh(MergeInfo, MergeLayout),
    /// Cached snapshots were still valid; only the locate was redone.
    Relocated(MergeLayout),
}

/// The pure per-candidate preparation job: validate + snapshot + locate,
/// or — when the candidate's snapshots survived the last batch — just
/// re-locate. (A candidate with surviving snapshots is still a valid
/// merge: its components were untouched, and components only ever grow
/// together, never apart.)
fn prepare<P>(
    candidate: &Candidate,
    state: &GraphState,
    arr: &P,
    mode: SnapshotMode,
) -> Result<Prepared, GraphError>
where
    P: Arrangement + Sync,
{
    match &candidate.info {
        Some(info) => Ok(Prepared::Relocated(MergeLayout::locate(arr, info))),
        None => {
            let info = state.peek_with(candidate.event, mode)?;
            let layout = MergeLayout::locate(arr, &info);
            Ok(Prepared::Fresh(info, layout))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_graph::Topology;
    use mla_permutation::{Node, Permutation};

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    #[test]
    fn conflict_graph_prefix_and_pairs() {
        let graph = ConflictGraph::new(vec![2..4, 8..10, 0..2, 3..6]);
        assert_eq!(graph.len(), 4);
        assert!(!graph.is_empty());
        assert!(!graph.conflicts(0, 1));
        assert!(!graph.conflicts(0, 2)); // 2..4 and 0..2 touch, no overlap
        assert!(graph.conflicts(0, 3));
        assert_eq!(graph.disjoint_prefix(), 3);
        assert!(!graph.is_pairwise_disjoint());
        assert!(ConflictGraph::new(vec![]).is_empty());
        assert_eq!(ConflictGraph::new(vec![]).disjoint_prefix(), 0);
        assert!(ConflictGraph::new(vec![0..1, 5..9, 2..5]).is_pairwise_disjoint());
    }

    #[test]
    fn planner_seals_disjoint_prefix_in_order() {
        // Identity arrangement over 12 singleton cliques. Merges (0,1),
        // (4,5), (8,9) have disjoint spans; (1,4) overlaps the first two.
        let state = GraphState::new(Topology::Cliques, 12);
        let arr = Permutation::identity(12);
        let mut planner = BatchPlanner::new(8);
        for event in [ev(0, 1), ev(4, 5), ev(8, 9), ev(1, 4), ev(10, 11)] {
            planner.push(event);
        }
        let batch = planner.plan_batch(&state, &arr, 1).unwrap();
        let events: Vec<RevealEvent> = batch.iter().map(|p| p.event).collect();
        assert_eq!(events, vec![ev(0, 1), ev(4, 5), ev(8, 9)]);
        assert!(
            ConflictGraph::new(batch.iter().map(PlannedReveal::span).collect())
                .is_pairwise_disjoint()
        );
        assert_eq!(planner.queued(), 2);
    }

    #[test]
    fn planner_reports_head_validation_error() {
        let state = GraphState::new(Topology::Cliques, 4);
        let arr = Permutation::identity(4);
        let mut planner = BatchPlanner::new(4);
        planner.push(ev(1, 1));
        let error = planner.plan_batch(&state, &arr, 1).unwrap_err();
        assert_eq!(error, GraphError::SelfLoop { node: Node::new(1) });
    }

    #[test]
    fn later_validation_errors_only_close_the_batch() {
        let state = GraphState::new(Topology::Cliques, 8);
        let arr = Permutation::identity(8);
        let mut planner = BatchPlanner::new(8);
        for event in [ev(0, 1), ev(2, 2), ev(4, 5)] {
            planner.push(event);
        }
        let batch = planner.plan_batch(&state, &arr, 1).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].event, ev(0, 1));
        // The invalid reveal is now at the head; the next round reports it.
        let error = planner.plan_batch(&state, &arr, 1).unwrap_err();
        assert_eq!(error, GraphError::SelfLoop { node: Node::new(2) });
    }

    #[test]
    fn retire_batch_invalidates_precisely() {
        let mut state = GraphState::new(Topology::Cliques, 12);
        let arr = Permutation::identity(12);
        let mut planner = BatchPlanner::new(8);
        // (0,5) spans 0..6; (6,7) is disjoint; (0,1) and (2,3) overlap
        // the applied span, but only (0,1) shares a merged component.
        for event in [ev(0, 5), ev(6, 7), ev(0, 1), ev(2, 3)] {
            planner.push(event);
        }
        let batch = planner.plan_batch(&state, &arr, 1).unwrap();
        assert_eq!(batch.len(), 2);
        for planned in &batch {
            state.commit(planned.event);
        }
        planner.retire_batch(&state, &batch);
        // (0,1): span overlapped AND endpoint 0 is in the merged {0,5}
        // component → both cache levels dropped.
        assert!(planner.queue[0].layout.is_none());
        assert!(planner.queue[0].info.is_none());
        // (2,3): span overlapped (it sits inside 0..6) but neither
        // endpoint merged → snapshots survive, layout does not.
        assert!(planner.queue[1].layout.is_none());
        assert!(planner.queue[1].info.is_some());
    }

    #[test]
    fn window_adapts_up_and_down() {
        let mut planner = BatchPlanner::new(4096);
        let start = planner.refill_target();
        // Growth needs consecutive fully sealed windows (hysteresis)…
        for _ in 0..GROW_AFTER_FULL_SEALS - 1 {
            planner.adapt_window(start, start);
            assert_eq!(planner.refill_target(), start);
        }
        planner.adapt_window(start, start);
        let grown = planner.refill_target();
        assert_eq!(grown, start + (start / 4).max(1));
        // …a partial seal collapses it to just above the sealed size…
        planner.adapt_window(24, grown);
        assert_eq!(planner.refill_target(), 24 + 3 + 1);
        // …and a collapsed batch parks it at exactly 1 (no speculative
        // look-ahead at all in degraded mode).
        planner.adapt_window(1, planner.refill_target());
        assert_eq!(planner.refill_target(), 1);
        // Parked at 1 after one collapse, the quiet period before the
        // next probe doubles once: 2 × GROW_AFTER_FULL_SEALS clean
        // rounds, not GROW_AFTER_FULL_SEALS.
        for _ in 0..GROW_AFTER_FULL_SEALS {
            planner.adapt_window(1, 1);
        }
        assert_eq!(planner.refill_target(), 1);
        for _ in 0..GROW_AFTER_FULL_SEALS {
            planner.adapt_window(1, 1);
        }
        assert_eq!(planner.refill_target(), 2);
        // A failed probe doubles the backoff again (collapse streak 2 →
        // 4 × GROW_AFTER_FULL_SEALS clean rounds before the next)…
        planner.adapt_window(1, 2);
        assert_eq!(planner.refill_target(), 1);
        for _ in 0..4 * GROW_AFTER_FULL_SEALS - 1 {
            planner.adapt_window(1, 1);
            assert_eq!(planner.refill_target(), 1);
        }
        planner.adapt_window(1, 1);
        assert_eq!(planner.refill_target(), 2);
        // …while a probe that seals real parallelism resets the backoff
        // entirely.
        planner.adapt_window(2, 2);
        planner.adapt_window(1, planner.refill_target());
        for _ in 0..2 * GROW_AFTER_FULL_SEALS {
            planner.adapt_window(1, 1);
        }
        assert_eq!(planner.refill_target(), 2);
        let mut capped = BatchPlanner::new(32);
        for _ in 0..20 {
            let w = capped.refill_target();
            capped.adapt_window(w, w);
        }
        assert_eq!(capped.refill_target(), 32);
    }
}
