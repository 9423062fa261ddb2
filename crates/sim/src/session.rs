//! Long-lived, resumable serving sessions.
//!
//! A [`Session`] is the serving-daemon counterpart of a [`Simulation`]
//! run: the same graph state, algorithm, feasibility checks and outcome
//! accumulator, but driven **incrementally** — reveals arrive in frames
//! over a wire protocol, position/cost queries interleave with them, and
//! at any drained point the entire live state can be serialized into a
//! checkpoint and restored **in a different process** such that replaying
//! the remaining reveals is bit-identical to the uninterrupted run.
//!
//! Three layers:
//!
//! * [`Session<A>`] — the typed engine. Every policy serves a frame one
//!   reveal at a time through [`Session::apply`], the same reveal step
//!   [`Simulation::run`] loops over, so a daemon's outcome is
//!   bit-identical to an engine run however the reveals are split into
//!   frames.
//! * [`TenantSession`] — the object-safe facade a multi-tenant server
//!   stores: apply / query / checkpoint without knowing the concrete
//!   policy × backend type.
//! * [`SessionSpec`] + [`encode_session`] / [`decode_session`] — the
//!   versioned checkpoint codec. Everything that can influence future
//!   serves is captured: arrangement (including the segment partition
//!   and orientation flags), graph state (union-find arrays and
//!   neighbor slots verbatim), RNG streams, per-policy algorithm state
//!   and the outcome accumulator.
//!
//! [`Simulation`]: crate::Simulation
//! [`Simulation::run`]: crate::Simulation::run

use mla_core::{
    DetClosest, MovePolicy, OnlineMinla, OptReplay, PolicyState, RandCliques, RandLines,
    RearrangePolicy, UpdateReport,
};
use mla_graph::{GraphState, RevealEvent, Topology};
use mla_offline::LopConfig;
use mla_permutation::codec::{put_bool, put_len, put_u64, put_u8, ByteReader, CodecError};
use mla_permutation::{Arrangement, Node, Permutation, SegmentArrangement, MAX_NODES};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::checkpoint::{self, CheckpointError};
use crate::engine::{Recorder, RevealStep, RunOutcome};
use crate::error::SimError;

// ---- spec ----

/// Which arrangement backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dense [`Permutation`] (`O(n)` block splices).
    Dense,
    /// The [`SegmentArrangement`] (`O(log n)` splices).
    Segment,
}

/// Which online algorithm a session runs. The topology in the
/// [`SessionSpec`] selects the clique or line variant of the randomized
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's randomized algorithm (size-biased / cost-biased).
    Rand,
    /// Fair-coin ablation.
    Fair,
    /// Deterministic smaller-moves / cheapest-move ablation.
    SmallerMoves,
    /// The deterministic `Det` algorithm (closest feasible to `π0`).
    Det,
    /// Offline-trajectory replay; requires [`SessionSpec::target`].
    Opt,
}

/// How much per-event history a session retains (mirrors
/// [`Simulation::record_events`](crate::Simulation::record_events) /
/// [`Simulation::record_window`](crate::Simulation::record_window)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Record every (event, report) pair.
    Full,
    /// Record nothing; cost totals stay exact.
    Off,
    /// Retain only the trailing `k` pairs.
    Window(usize),
}

/// Construction-time description of a session: everything needed to
/// build it fresh, and (together with the serialized state) to rebuild
/// it from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Cliques or lines.
    pub topology: Topology,
    /// Node count.
    pub n: usize,
    /// Arrangement backend.
    pub backend: BackendKind,
    /// Algorithm family.
    pub policy: PolicyKind,
    /// Replay target — required iff `policy` is [`PolicyKind::Opt`].
    pub target: Option<Permutation>,
    /// Seed of the session's RNG stream (derive per-tenant seeds with
    /// [`SeedSequence`](mla_runner::SeedSequence)). Only consulted at
    /// fresh construction; a restore overwrites the RNG with the exact
    /// serialized state.
    pub seed: u64,
    /// Per-event history retention.
    pub record: RecordMode,
    /// Validate the MinLA invariant after every reveal.
    pub check_feasibility: bool,
}

impl SessionSpec {
    /// A spec with full recording, feasibility checking off, and no
    /// replay target.
    #[must_use]
    pub fn new(
        topology: Topology,
        n: usize,
        policy: PolicyKind,
        backend: BackendKind,
        seed: u64,
    ) -> Self {
        SessionSpec {
            topology,
            n,
            backend,
            policy,
            target: None,
            seed,
            record: RecordMode::Full,
            check_feasibility: false,
        }
    }

    /// Sets the [`PolicyKind::Opt`] replay target.
    #[must_use]
    pub fn target(mut self, target: Permutation) -> Self {
        self.target = Some(target);
        self
    }

    /// Sets the history retention mode.
    #[must_use]
    pub fn record(mut self, mode: RecordMode) -> Self {
        self.record = mode;
        self
    }

    /// Enables per-reveal feasibility validation.
    #[must_use]
    pub fn check_feasibility(mut self, on: bool) -> Self {
        self.check_feasibility = on;
        self
    }

    /// Checks internal consistency: `n` within backend capacity, replay
    /// target present exactly for [`PolicyKind::Opt`] and of matching
    /// length.
    ///
    /// # Errors
    ///
    /// [`SimError::Other`] describing the inconsistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n > MAX_NODES {
            return Err(SimError::Other(format!(
                "session n = {} exceeds the backend capacity {MAX_NODES}",
                self.n
            )));
        }
        match (self.policy, &self.target) {
            (PolicyKind::Opt, None) => Err(SimError::Other(
                "policy opt requires a replay target".into(),
            )),
            (PolicyKind::Opt, Some(t)) if t.len() != self.n => Err(SimError::Other(format!(
                "replay target covers {} nodes but the session has {}",
                t.len(),
                self.n
            ))),
            (PolicyKind::Opt, Some(_)) => Ok(()),
            (_, Some(_)) => Err(SimError::Other(
                "only policy opt takes a replay target".into(),
            )),
            (_, None) => Ok(()),
        }
    }

    /// Serializes the spec (the prefix of every session checkpoint body).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self.topology {
                Topology::Cliques => 0,
                Topology::Lines => 1,
            },
        );
        put_len(out, self.n);
        put_u8(
            out,
            match self.backend {
                BackendKind::Dense => 0,
                BackendKind::Segment => 1,
            },
        );
        put_u8(
            out,
            match self.policy {
                PolicyKind::Rand => 0,
                PolicyKind::Fair => 1,
                PolicyKind::SmallerMoves => 2,
                PolicyKind::Det => 3,
                PolicyKind::Opt => 4,
            },
        );
        match &self.target {
            None => put_bool(out, false),
            Some(target) => {
                put_bool(out, true);
                target.encode_into(out);
            }
        }
        put_u64(out, self.seed);
        match self.record {
            RecordMode::Full => put_u8(out, 0),
            RecordMode::Off => put_u8(out, 1),
            RecordMode::Window(k) => {
                put_u8(out, 2);
                put_len(out, k);
            }
        }
        put_bool(out, self.check_feasibility);
    }

    /// Inverse of [`SessionSpec::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or unknown tags.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let topology = match r.u8()? {
            0 => Topology::Cliques,
            1 => Topology::Lines,
            other => return Err(CodecError::invalid(format!("unknown topology tag {other}"))),
        };
        let n = r.count(MAX_NODES, "session node")?;
        let backend = match r.u8()? {
            0 => BackendKind::Dense,
            1 => BackendKind::Segment,
            other => return Err(CodecError::invalid(format!("unknown backend tag {other}"))),
        };
        let policy = match r.u8()? {
            0 => PolicyKind::Rand,
            1 => PolicyKind::Fair,
            2 => PolicyKind::SmallerMoves,
            3 => PolicyKind::Det,
            4 => PolicyKind::Opt,
            other => return Err(CodecError::invalid(format!("unknown policy tag {other}"))),
        };
        let target = if r.bool("replay target flag")? {
            Some(Permutation::decode_from(r)?)
        } else {
            None
        };
        let seed = r.u64()?;
        let record = match r.u8()? {
            0 => RecordMode::Full,
            1 => RecordMode::Off,
            2 => RecordMode::Window(r.count(usize::MAX, "record window")?),
            other => {
                return Err(CodecError::invalid(format!(
                    "unknown record-mode tag {other}"
                )))
            }
        };
        let check_feasibility = r.bool("check-feasibility flag")?;
        Ok(SessionSpec {
            topology,
            n,
            backend,
            policy,
            target,
            seed,
            record,
            check_feasibility,
        })
    }
}

// ---- arrangement codec dispatch ----

/// Arrangement backends a session can checkpoint: fresh construction,
/// exact serialization, and the [`BackendKind`] tag the spec records.
pub trait ArrCodec: Arrangement + Sized {
    /// The tag [`SessionSpec::backend`] uses for this type.
    const KIND: BackendKind;

    /// The identity arrangement on `n` nodes (the fresh-session start).
    fn fresh(n: usize) -> Self;

    /// Serializes the arrangement exactly (for the segment backend that
    /// includes the observable segment partition, not just the flat
    /// permutation).
    fn encode_arr(&self, out: &mut Vec<u8>);

    /// Inverse of [`ArrCodec::encode_arr`], for a body written in
    /// checkpoint format `version`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or inconsistent input.
    fn decode_arr(r: &mut ByteReader<'_>, version: u32) -> Result<Self, CodecError>;

    /// Whether every component of `state` sits as the randomized policies
    /// locate it: one contiguous block, in path order for lines, and on
    /// the segment backend exactly one segment.
    fn holds_components(&self, state: &GraphState) -> bool;
}

impl ArrCodec for Permutation {
    const KIND: BackendKind = BackendKind::Dense;

    fn fresh(n: usize) -> Self {
        Permutation::identity(n)
    }

    fn encode_arr(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn decode_arr(r: &mut ByteReader<'_>, _version: u32) -> Result<Self, CodecError> {
        Permutation::decode_from(r)
    }

    fn holds_components(&self, state: &GraphState) -> bool {
        state.is_minla(self)
    }
}

impl ArrCodec for SegmentArrangement {
    const KIND: BackendKind = BackendKind::Segment;

    fn fresh(n: usize) -> Self {
        SegmentArrangement::identity(n)
    }

    fn encode_arr(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn decode_arr(r: &mut ByteReader<'_>, version: u32) -> Result<Self, CodecError> {
        SegmentArrangement::decode_from(r, version)
    }

    fn holds_components(&self, state: &GraphState) -> bool {
        state.components_are_blocks(|v| self.segment_of(v))
    }
}

// ---- the typed session engine ----

/// A long-lived serving session: a [`Simulation`](crate::Simulation) run
/// broken out of its closed loop. Reveals are applied one at a time as
/// they arrive, queries are answered mid-stream, and the whole live
/// state can be checkpointed at any point between calls.
pub struct Session<A: OnlineMinla> {
    spec: SessionSpec,
    step: RevealStep<A>,
}

/// The [`Recorder`] mode `(full, window)` of a [`RecordMode`].
fn recorder_mode(record: RecordMode) -> (bool, Option<usize>) {
    match record {
        RecordMode::Full => (true, None),
        RecordMode::Off => (false, None),
        RecordMode::Window(k) => (false, Some(k)),
    }
}

impl<A: OnlineMinla> std::fmt::Debug for Session<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("steps", &self.step.recorder.step())
            .finish_non_exhaustive()
    }
}

impl<A: OnlineMinla> Session<A> {
    /// Builds a session around an already-constructed algorithm. The
    /// algorithm's arrangement must cover `spec.n` nodes — use
    /// [`open_session`] for the spec-driven construction that guarantees
    /// it.
    fn build(spec: SessionSpec, algorithm: A) -> Self {
        let (full, window) = recorder_mode(spec.record);
        let step = RevealStep::new(
            GraphState::new(spec.topology, spec.n),
            algorithm,
            Recorder::new(full, window),
            false,
        )
        .check_feasibility(spec.check_feasibility, cfg!(debug_assertions));
        Session { spec, step }
    }

    /// Serves one reveal — the step
    /// [`Simulation::run`](crate::Simulation::run) loops over.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] for an invalid reveal,
    /// [`SimError::FeasibilityViolation`] if checking is enabled and the
    /// algorithm breaks the invariant.
    pub fn apply(&mut self, event: RevealEvent) -> Result<UpdateReport, SimError> {
        self.step.apply(event)
    }
}

impl<A> Session<A>
where
    A: OnlineMinla + PolicyState,
    A::Arr: ArrCodec,
{
    /// Restores the serialized state into a freshly built session whose
    /// spec already matched. The arrangement was decoded *before* the
    /// algorithm was constructed; this consumes the rest of the body.
    fn restore_body(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let state = GraphState::decode_from(r)?;
        if state.topology() != self.spec.topology || state.n() != self.spec.n {
            return Err(CheckpointError::malformed(format!(
                "graph state is {:?}/{} but the spec says {:?}/{}",
                state.topology(),
                state.n(),
                self.spec.topology,
                self.spec.n
            )));
        }
        // The randomized policies locate each merging component as one
        // block and panic when it is not; `det` and `opt` locate none,
        // and an `opt` session may hold a non-MinLA arrangement.
        let locates = matches!(
            self.spec.policy,
            PolicyKind::Rand | PolicyKind::Fair | PolicyKind::SmallerMoves
        );
        if locates && !self.step.algorithm.arrangement().holds_components(&state) {
            return Err(CheckpointError::malformed(
                "the arrangement does not hold every component as one block".to_string(),
            ));
        }
        self.step.state = state;
        self.step.algorithm.restore_state(r)?;
        let recorder = Recorder::decode_from(r, self.spec.n)?;
        if recorder.mode() != recorder_mode(self.spec.record) {
            return Err(CheckpointError::malformed(
                "recorder mode disagrees with the session spec".to_string(),
            ));
        }
        self.step.recorder = recorder;
        Ok(())
    }
}

// ---- the object-safe tenant facade ----

/// The object-safe session interface a multi-tenant server stores —
/// apply reveals, answer queries, checkpoint — independent of the
/// concrete policy × backend type. Obtain one from [`open_session`] or
/// [`decode_session`].
pub trait TenantSession: Send {
    /// The spec this session was opened with.
    fn spec(&self) -> &SessionSpec;

    /// The algorithm's machine-readable name (e.g. `"rand-cliques"`).
    fn algorithm_name(&self) -> String;

    /// Reveals served so far.
    fn steps(&self) -> usize;

    /// Exact accumulated moving cost.
    fn moving_cost(&self) -> u128;

    /// Exact accumulated rearranging cost.
    fn rearranging_cost(&self) -> u128;

    /// Kept for API compatibility; it has no effect on serving. Sessions
    /// serve every frame on the sequential loop, one reveal at a time.
    fn set_threads(&mut self, _threads: usize) {}

    /// Serves a frame of reveals in order, one [`Session::apply`] each.
    /// Returns the number of reveals applied (the whole frame on
    /// success).
    ///
    /// # Errors
    ///
    /// As [`Session::apply`]. Reveals after the failing one are not
    /// applied; totals and the arrangement stay consistent, so the
    /// session remains usable for queries and checkpoints.
    fn apply_events(&mut self, events: &[RevealEvent]) -> Result<usize, SimError>;

    /// Current position of the node with index `node`. The index comes
    /// off the wire unchecked, so it may exceed any node id.
    ///
    /// # Errors
    ///
    /// [`SimError::Other`] for an index `>= n`.
    fn position_of(&self, node: usize) -> Result<usize, SimError>;

    /// Mid-stream outcome snapshot.
    fn outcome(&self) -> RunOutcome;

    /// The sealed checkpoint of the full live state.
    fn encode(&self) -> Vec<u8>;
}

impl std::fmt::Debug for dyn TenantSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("spec", self.spec())
            .field("steps", &self.steps())
            .finish_non_exhaustive()
    }
}

impl<A> TenantSession for Session<A>
where
    A: OnlineMinla + PolicyState + Send,
    A::Arr: ArrCodec + Send,
{
    fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    fn algorithm_name(&self) -> String {
        self.step.algorithm.name().to_owned()
    }

    fn steps(&self) -> usize {
        self.step.recorder.step()
    }

    fn moving_cost(&self) -> u128 {
        self.step.recorder.moving_cost()
    }

    fn rearranging_cost(&self) -> u128 {
        self.step.recorder.rearranging_cost()
    }

    fn apply_events(&mut self, events: &[RevealEvent]) -> Result<usize, SimError> {
        for &event in events {
            self.apply(event)?;
        }
        Ok(events.len())
    }

    fn position_of(&self, node: usize) -> Result<usize, SimError> {
        // Queries come off the wire; they must not panic the server.
        if node >= self.spec.n {
            return Err(SimError::Other(format!(
                "node {node} out of range for n = {}",
                self.spec.n
            )));
        }
        Ok(self
            .step
            .algorithm
            .arrangement()
            .position_of(Node::new(node)))
    }

    fn outcome(&self) -> RunOutcome {
        self.step
            .recorder
            .outcome_snapshot(self.step.algorithm.arrangement().to_permutation())
    }

    fn encode(&self) -> Vec<u8> {
        let step = &self.step;
        let mut body = Vec::new();
        self.spec.encode_into(&mut body);
        // The arrangement precedes the graph state: the decoder needs it
        // first to construct the algorithm it then restores into.
        step.algorithm.arrangement().encode_arr(&mut body);
        step.state.encode_into(&mut body);
        step.algorithm.encode_state_into(&mut body);
        step.recorder.encode_into(&mut body);
        checkpoint::seal(&body)
    }
}

// ---- construction and the checkpoint codec ----

/// Opens a fresh session for `spec` (identity arrangement, seed-derived
/// RNG stream, zeroed accumulators).
///
/// # Errors
///
/// [`SimError::Other`] if the spec is inconsistent (see
/// [`SessionSpec::validate`]).
pub fn open_session(spec: SessionSpec) -> Result<Box<dyn TenantSession>, SimError> {
    spec.validate()?;
    build_session(spec, None).map_err(|err| SimError::Other(err.to_string()))
}

/// Serializes a session into its sealed checkpoint: the
/// [`SessionSpec`], graph state, arrangement, policy/RNG state and
/// outcome accumulator, wrapped in the magic / version / CRC-64 envelope
/// of [`crate::checkpoint`].
///
/// Contract: [`decode_session`] of these bytes — in this process or
/// another — yields a session whose replay of the remaining reveals is
/// **bit-identical** to the uninterrupted run, including its RNG draws,
/// retained history and final permutation.
#[must_use]
pub fn encode_session(session: &dyn TenantSession) -> Vec<u8> {
    session.encode()
}

/// Rebuilds a session from checkpoint bytes produced by
/// [`encode_session`].
///
/// # Errors
///
/// A structured [`CheckpointError`] for **any** malformed input —
/// truncation, foreign files, bit flips, future versions, or internally
/// inconsistent state. Never panics, never restores silently-wrong
/// state.
pub fn decode_session(bytes: &[u8]) -> Result<Box<dyn TenantSession>, CheckpointError> {
    let (version, body) = checkpoint::open(bytes)?;
    let mut r = ByteReader::new(body);
    let spec = SessionSpec::decode_from(&mut r)?;
    spec.validate()
        .map_err(|err| CheckpointError::malformed(err.to_string()))?;
    let session = build_session(spec, Some((&mut r, version)))?;
    if version == 1 {
        // Version 1 ends with the tuning triple `(window, full_seals,
        // collapse_streak)` of a since-removed batch planner; nothing
        // reads it.
        r.u64()?;
        r.u32()?;
        r.u32()?;
    }
    r.finish().map_err(CheckpointError::from)?;
    Ok(session)
}

/// Builds the concrete policy × backend × topology session; with a
/// reader and the checkpoint format it reads, decodes the arrangement and
/// restores the serialized state.
fn build_session(
    spec: SessionSpec,
    restore: Option<(&mut ByteReader<'_>, u32)>,
) -> Result<Box<dyn TenantSession>, CheckpointError> {
    match spec.backend {
        BackendKind::Dense => build_with_backend::<Permutation>(spec, restore),
        BackendKind::Segment => build_with_backend::<SegmentArrangement>(spec, restore),
    }
}

fn build_with_backend<Arr>(
    spec: SessionSpec,
    restore: Option<(&mut ByteReader<'_>, u32)>,
) -> Result<Box<dyn TenantSession>, CheckpointError>
where
    Arr: ArrCodec + Send + 'static,
{
    // The arrangement comes before the algorithm: constructors consume
    // it (and `DetClosest::with_backend` snapshots it, which is why the
    // anchor π0 lives in the policy state, restored afterwards).
    let (arr, restore): (Arr, _) = match restore {
        None => (Arr::fresh(spec.n), None),
        Some((r, version)) => {
            let arr = Arr::decode_arr(r, version)?;
            if arr.len() != spec.n {
                return Err(CheckpointError::malformed(format!(
                    "arrangement covers {} nodes but the spec says {}",
                    arr.len(),
                    spec.n
                )));
            }
            (arr, Some(r))
        }
    };
    let rng = SmallRng::seed_from_u64(spec.seed);
    match (spec.policy, spec.topology) {
        (PolicyKind::Rand, Topology::Cliques) => finish_tenant(
            spec,
            RandCliques::with_policy(arr, rng, MovePolicy::SizeBiased),
            restore,
        ),
        (PolicyKind::Fair, Topology::Cliques) => finish_tenant(
            spec,
            RandCliques::with_policy(arr, rng, MovePolicy::Fair),
            restore,
        ),
        (PolicyKind::SmallerMoves, Topology::Cliques) => finish_tenant(
            spec,
            RandCliques::with_policy(arr, rng, MovePolicy::SmallerMoves),
            restore,
        ),
        (PolicyKind::Rand, Topology::Lines) => finish_tenant(
            spec,
            RandLines::with_policies(
                arr,
                rng,
                MovePolicy::SizeBiased,
                RearrangePolicy::CostBiased,
            ),
            restore,
        ),
        (PolicyKind::Fair, Topology::Lines) => finish_tenant(
            spec,
            RandLines::with_policies(arr, rng, MovePolicy::Fair, RearrangePolicy::Fair),
            restore,
        ),
        (PolicyKind::SmallerMoves, Topology::Lines) => finish_tenant(
            spec,
            RandLines::with_policies(
                arr,
                rng,
                MovePolicy::SmallerMoves,
                RearrangePolicy::Cheapest,
            ),
            restore,
        ),
        (PolicyKind::Det, _) => finish_tenant(
            spec,
            DetClosest::with_backend(arr, LopConfig::default()),
            restore,
        ),
        (PolicyKind::Opt, _) => {
            let Some(target) = spec.target.clone() else {
                // `validate` already rejected this; keep the decode path
                // panic-free regardless.
                return Err(CheckpointError::malformed(
                    "policy opt without a replay target".to_string(),
                ));
            };
            finish_tenant(spec, OptReplay::new(arr, target), restore)
        }
    }
}

/// Wraps `algorithm` in a session and, with a reader, restores the rest
/// of the serialized state into it.
fn finish_tenant<A>(
    spec: SessionSpec,
    algorithm: A,
    restore: Option<&mut ByteReader<'_>>,
) -> Result<Box<dyn TenantSession>, CheckpointError>
where
    A: OnlineMinla + PolicyState + Send + 'static,
    A::Arr: ArrCodec + Send,
{
    let mut session = Session::build(spec, algorithm);
    if let Some(r) = restore {
        session.restore_body(r)?;
    }
    Ok(Box::new(session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};

    fn instance_events(topology: Topology, n: usize, seed: u64) -> Vec<RevealEvent> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let instance = match topology {
            Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng),
            Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng),
        };
        instance.events().to_vec()
    }

    #[test]
    fn session_outcome_is_bit_identical_to_engine_run() {
        for topology in [Topology::Cliques, Topology::Lines] {
            let n = 24;
            let events = instance_events(topology, n, 11);
            let instance = mla_graph::Instance::new(topology, n, events.clone()).unwrap();
            let reference = match topology {
                Topology::Cliques => Simulation::new(
                    instance,
                    RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
                )
                .run()
                .unwrap(),
                Topology::Lines => Simulation::new(
                    instance,
                    RandLines::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(7)),
                )
                .run()
                .unwrap(),
            };
            let mut session = open_session(SessionSpec::new(
                topology,
                n,
                PolicyKind::Rand,
                BackendKind::Segment,
                7,
            ))
            .unwrap();
            for frame in events.chunks(5) {
                session.apply_events(frame).unwrap();
            }
            assert_eq!(session.outcome(), reference, "{topology:?}");
        }
    }

    #[test]
    fn checkpoint_roundtrips_mid_stream_and_replays_identically() {
        let n = 20;
        let events = instance_events(Topology::Cliques, n, 3);
        let spec = SessionSpec::new(
            Topology::Cliques,
            n,
            PolicyKind::Rand,
            BackendKind::Dense,
            5,
        );
        let mut uninterrupted = open_session(spec.clone()).unwrap();
        uninterrupted.apply_events(&events).unwrap();
        let want = uninterrupted.outcome();

        for cut in [0, 1, events.len() / 2, events.len() - 1, events.len()] {
            let mut first = open_session(spec.clone()).unwrap();
            first.apply_events(&events[..cut]).unwrap();
            let bytes = encode_session(first.as_ref());
            let mut resumed = decode_session(&bytes).unwrap();
            resumed.apply_events(&events[cut..]).unwrap();
            assert_eq!(resumed.outcome(), want, "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_queries_error_instead_of_panicking() {
        let spec = SessionSpec::new(
            Topology::Cliques,
            4,
            PolicyKind::Rand,
            BackendKind::Dense,
            1,
        );
        let session = open_session(spec).unwrap();
        assert!(session.position_of(4).is_err());
        assert_eq!(session.position_of(3).unwrap(), 3);
    }

    #[test]
    fn spec_validation_rejects_inconsistencies() {
        let missing_target =
            SessionSpec::new(Topology::Cliques, 4, PolicyKind::Opt, BackendKind::Dense, 1);
        assert!(open_session(missing_target).is_err());
        let stray_target = SessionSpec::new(
            Topology::Cliques,
            4,
            PolicyKind::Rand,
            BackendKind::Dense,
            1,
        )
        .target(Permutation::identity(4));
        assert!(open_session(stray_target).is_err());
        let short_target =
            SessionSpec::new(Topology::Cliques, 4, PolicyKind::Opt, BackendKind::Dense, 1)
                .target(Permutation::identity(3));
        assert!(open_session(short_target).is_err());
    }

    #[test]
    fn decode_rejects_spec_state_mismatches() {
        // Hand-craft a body whose spec says cliques but whose graph
        // state is lines: the cross-check must fire.
        let spec = SessionSpec::new(Topology::Cliques, 4, PolicyKind::Det, BackendKind::Dense, 1);
        let session = open_session(spec).unwrap();
        let good = encode_session(session.as_ref());
        let (_, body) = checkpoint::open(&good).unwrap();
        // The topology tag is byte 0 of the spec *and* the graph-state
        // tag right after it; flipping only the graph-state tag breaks
        // the cross-check (the offset is spec-length dependent, so
        // locate it by decoding the spec first).
        let mut r = ByteReader::new(body);
        let _ = SessionSpec::decode_from(&mut r).unwrap();
        let _ = Permutation::decode_from(&mut r).unwrap();
        let state_tag_offset = body.len() - r.remaining();
        let mut tampered = body.to_vec();
        tampered[state_tag_offset] = 1; // cliques -> lines
        let resealed = checkpoint::seal(&tampered);
        let err = decode_session(&resealed).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err:?}");
    }
}
