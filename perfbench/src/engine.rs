//! The streamed engine: one untraced `Simulation::run` per child process,
//! the traced layer-by-layer re-drive of the same reveals, and the
//! mid-stream session checkpoint of the same stream.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mla_core::{BatchServe, MergeLayout, OnlineMinla, RandCliques, RandLines, UpdateReport};
use mla_graph::{
    final_state_of, GraphState, MergeInfo, RevealEvent, RevealSource, SnapshotMode, Topology,
};
use mla_permutation::{Arrangement, Permutation, SegmentArrangement};
use mla_runner::Json;
use mla_sim::{
    decode_session, encode_session, open_session, BackendKind, PolicyKind, RecordMode, RunOutcome,
    SessionSpec, Simulation, TenantSession,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::sys;
use crate::trace::Laps;
use crate::workloads::StreamSpec;

/// Layers of one engine reveal, in the order the traced pass laps them.
pub const LAYERS: [&str; 8] = [
    "adversary.next_event",
    "graph.peek",
    "graph.commit",
    "permutation.locate",
    "core.decide",
    "permutation.merge_move",
    "core.serve",
    "graph.merge_keeps_minla",
];
const NEXT: usize = 0;
const PEEK: usize = 1;
const COMMIT: usize = 2;
const LOCATE: usize = 3;
const DECIDE: usize = 4;
const MERGE_MOVE: usize = 5;
const SERVE: usize = 6;
const CHECK: usize = 7;

/// What must match between runs of the same reveals: the cost totals and
/// the final permutation (as a hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub moving: u128,
    pub rearranging: u128,
    pub perm_hash: u64,
}

impl Digest {
    fn new(moving: u128, rearranging: u128, perm: &Permutation) -> Self {
        // FNV-1a over the node order.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for node in perm.iter() {
            for byte in (node.index() as u32).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Digest {
            moving,
            rearranging,
            perm_hash: hash,
        }
    }

    fn to_json(self) -> Json {
        Json::object()
            .field("moving", self.moving)
            .field("rearranging", self.rearranging)
            .field("perm_hash", self.perm_hash)
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(Digest {
            moving: json.get("moving")?.as_u128()?,
            rearranging: json.get("rearranging")?.as_u128()?,
            perm_hash: json.get("perm_hash")?.as_u64()?,
        })
    }
}

/// One untraced engine run, as a child process reports it.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub serve_s: f64,
    pub usage: sys::Usage,
    pub digest: Digest,
    pub minla: bool,
}

impl Rep {
    pub fn to_json(self) -> Json {
        Json::object()
            .field("setup_s", self.setup_s)
            .field("serve_s", self.serve_s)
            .field("peak_rss_mib", self.usage.peak_rss_mib)
            .field("user_s", self.usage.user_s)
            .field("sys_s", self.usage.sys_s)
            .field("digest", self.digest.to_json())
            .field("minla", self.minla)
    }

    pub fn from_json(json: &Json) -> Option<Self> {
        let f = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(Rep {
            setup_s: f("setup_s")?,
            serve_s: f("serve_s")?,
            usage: sys::Usage {
                peak_rss_mib: f("peak_rss_mib")?,
                user_s: f("user_s")?,
                sys_s: f("sys_s")?,
            },
            digest: Digest::from_json(json.get("digest")?)?,
            minla: json.get("minla")?.as_bool()?,
        })
    }
}

/// The untraced run: set-up (source, identity arrangement, algorithm) and
/// `Simulation::run`, timed apart. Peak memory is read right after the
/// run, before the checks allocate anything.
pub fn untraced_rep(spec: &StreamSpec) -> Result<Rep, String> {
    let start = Instant::now();
    let source = spec.source();
    let arrangement = SegmentArrangement::identity(spec.n);
    let coins = SmallRng::seed_from_u64(spec.alg_seed);
    let (setup, serve, outcome) = match spec.topology {
        Topology::Cliques => {
            let sim = Simulation::from_source(source, RandCliques::new(arrangement, coins))
                .record_events(false)
                .check_feasibility(spec.check);
            let setup = start.elapsed();
            let serving = Instant::now();
            let outcome = sim.run();
            (setup, serving.elapsed(), outcome)
        }
        Topology::Lines => {
            let sim = Simulation::from_source(source, RandLines::new(arrangement, coins))
                .record_events(false)
                .check_feasibility(spec.check);
            let setup = start.elapsed();
            let serving = Instant::now();
            let outcome = sim.run();
            (setup, serving.elapsed(), outcome)
        }
    };
    let usage = sys::self_usage().map_err(|err| format!("getrusage: {err}"))?;
    let outcome = outcome.map_err(|err| format!("engine run failed: {err}"))?;
    let state = final_state_of(&mut spec.source()).map_err(|err| err.to_string())?;
    Ok(Rep {
        setup_s: setup.as_secs_f64(),
        serve_s: serve.as_secs_f64(),
        usage,
        digest: Digest::new(
            outcome.moving_cost,
            outcome.rearranging_cost,
            &outcome.final_perm,
        ),
        minla: state.is_minla(&outcome.final_perm),
    })
}

/// One reveal's serve step, split at the public calls the traced pass
/// times.
pub trait Stepper: OnlineMinla {
    fn step(
        &mut self,
        event: RevealEvent,
        info: &MergeInfo,
        state: &GraphState,
        laps: &mut Laps<true>,
    ) -> UpdateReport;
}

impl Stepper for RandCliques<SmallRng, SegmentArrangement> {
    fn step(
        &mut self,
        _: RevealEvent,
        info: &MergeInfo,
        _: &GraphState,
        laps: &mut Laps<true>,
    ) -> UpdateReport {
        let layout = MergeLayout::locate(self.arrangement(), info);
        laps.lap(LOCATE);
        let decision = self.decide(info, &layout);
        let plan = Self::build_plan(info, &layout, decision);
        laps.lap(DECIDE);
        let report = self.apply_plan(plan);
        laps.lap(MERGE_MOVE);
        report
    }
}

impl Stepper for RandLines<SmallRng, SegmentArrangement> {
    /// Lines stage their target from the post-commit state inside
    /// `serve`, so only a read-only locate probe is split out.
    fn step(
        &mut self,
        event: RevealEvent,
        info: &MergeInfo,
        state: &GraphState,
        laps: &mut Laps<true>,
    ) -> UpdateReport {
        black_box(MergeLayout::locate(self.arrangement(), info));
        laps.lap(LOCATE);
        let report = self.serve(event, info, state);
        laps.lap(SERVE);
        report
    }
}

/// Result of a traced re-drive.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    pub digest: Digest,
    pub minla: bool,
    pub reveals: u64,
    pub elapsed: Duration,
}

/// Drives `source` through `alg` one public call at a time — source →
/// `peek_with` → `commit` → serve step → `merge_keeps_minla` — the same
/// sequence of state changes as `Simulation::run`.
pub fn traced_drive<S, A>(
    source: &mut S,
    mut alg: A,
    check: bool,
    laps: &mut Laps<true>,
) -> Result<Traced, String>
where
    S: RevealSource + ?Sized,
    A: Stepper,
{
    let mut state = GraphState::new(source.topology(), source.n());
    let mode = if alg.wants_lazy_info() && alg.arrangement().supports_component_locate() {
        SnapshotMode::Lazy
    } else {
        SnapshotMode::Eager
    };
    let (mut moving, mut rearranging, mut reveals) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    laps.start();
    while let Some(event) = source.next_event() {
        laps.lap(NEXT);
        let info = state
            .peek_with(event, mode)
            .map_err(|err| err.to_string())?;
        laps.lap(PEEK);
        state.commit(event);
        laps.lap(COMMIT);
        let report = alg.step(event, &info, &state, laps);
        if check {
            let feasible = state.merge_keeps_minla(alg.arrangement(), &info);
            laps.lap(CHECK);
            if !feasible {
                return Err(format!("feasibility violated at reveal {}", reveals + 1));
            }
        }
        moving += u128::from(report.moving_cost);
        rearranging += u128::from(report.rearranging_cost);
        reveals += 1;
    }
    let elapsed = start.elapsed();
    let perm = alg.arrangement().to_permutation();
    Ok(Traced {
        digest: Digest::new(moving, rearranging, &perm),
        minla: state.is_minla(&perm),
        reveals,
        elapsed,
    })
}

/// [`traced_drive`] with the `rand` algorithm of `topology` on a fresh
/// segment arrangement.
pub fn traced_rand<S: RevealSource + ?Sized>(
    source: &mut S,
    seed: u64,
    check: bool,
    laps: &mut Laps<true>,
) -> Result<Traced, String> {
    let arrangement = SegmentArrangement::identity(source.n());
    let coins = SmallRng::seed_from_u64(seed);
    match source.topology() {
        Topology::Cliques => {
            traced_drive(source, RandCliques::new(arrangement, coins), check, laps)
        }
        Topology::Lines => traced_drive(source, RandLines::new(arrangement, coins), check, laps),
    }
}

/// Encode / decode times of a checkpoint.
#[derive(Debug, Default)]
pub struct Codec {
    pub encode_s: Vec<f64>,
    pub decode_s: Vec<f64>,
    pub bytes: usize,
}

/// A session that served the first half of the stream: the state a
/// stream workload checkpoints.
pub struct Midpoint {
    session: Box<dyn TenantSession>,
    want: RunOutcome,
}

impl Midpoint {
    pub fn open(spec: &StreamSpec) -> Result<Self, String> {
        let session_spec = SessionSpec::new(
            spec.topology,
            spec.n,
            PolicyKind::Rand,
            BackendKind::Segment,
            spec.alg_seed,
        )
        .record(RecordMode::Off)
        .check_feasibility(spec.check);
        let mut session = open_session(session_spec).map_err(|err| err.to_string())?;
        let mut source = spec.source();
        let mut frame = Vec::with_capacity(4096);
        for _ in 0..spec.reveals() / 2 {
            frame.extend(source.next_event());
            if frame.len() == frame.capacity() {
                session
                    .apply_events(&frame)
                    .map_err(|err| err.to_string())?;
                frame.clear();
            }
        }
        session
            .apply_events(&frame)
            .map_err(|err| err.to_string())?;
        let want = session.outcome();
        Ok(Midpoint { session, want })
    }

    /// Times one `encode_session` / `decode_session` round trip into
    /// `codec`; the restored session must report the original's outcome.
    pub fn round_trip(&self, codec: &mut Codec) -> Result<(), String> {
        let start = Instant::now();
        let bytes = encode_session(self.session.as_ref());
        codec.encode_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let restored = decode_session(&bytes).map_err(|err| err.to_string())?;
        codec.decode_s.push(start.elapsed().as_secs_f64());
        codec.bytes = bytes.len();
        if restored.outcome() == self.want {
            Ok(())
        } else {
            Err("restored session disagrees with the checkpointed one".into())
        }
    }
}
