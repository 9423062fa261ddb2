//! The daemon workloads: the real `mla-serve` binary driven over pipes,
//! the same frames re-driven in-process (untraced and traced), and the
//! per-tenant session and engine passes that give the references.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mla_core::{RandCliques, RandLines};
use mla_graph::{Instance, InstanceSource, Topology};
use mla_permutation::SegmentArrangement;
use mla_runner::{read_frame, write_frame, Json};
use mla_serve::{Reply, Server};
use mla_sim::{open_session, BackendKind, PolicyKind, RecordMode, SessionSpec, Simulation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::{self, Codec};
use crate::sys;
use crate::trace::{Laps, Layer};
use crate::workloads::{restore_frame, ServeInputs, Tenant};

/// Ops whose `Server::handle` latency is reported separately.
pub const OPS: [&str; 5] = ["open", "reveal", "reveals", "checkpoint", "restore"];

/// Layers of one in-process frame, in lap order.
pub const LAYERS: [&str; 3] = ["runner.read_frame", "serve.handle", "runner.write_frame"];
const READ: usize = 0;
const HANDLE: usize = 1;
const WRITE: usize = 2;

/// A tenant's exact totals, as the `cost` op reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Costs {
    pub steps: u128,
    pub moving: u128,
    pub rearranging: u128,
}

impl Costs {
    fn from_response(response: &Json) -> Option<Self> {
        Some(Costs {
            steps: response.get("steps")?.as_u128()?,
            moving: response.get("moving_cost")?.as_u128()?,
            rearranging: response.get("rearranging_cost")?.as_u128()?,
        })
    }
}

fn session_spec(tenant: &Tenant) -> SessionSpec {
    SessionSpec::new(
        tenant.topology,
        tenant.n,
        PolicyKind::Rand,
        BackendKind::Segment,
        tenant.seed,
    )
    .record(RecordMode::Off)
}

/// `open_session` + `apply_events` per tenant. With `per_frame` the
/// events go in the frames' round-robin order and frame sizes, and each
/// call is timed; otherwise each tenant takes its whole sequence at once.
pub fn session_pass(inputs: &ServeInputs, per_frame: bool) -> Result<(Vec<Costs>, Layer), String> {
    let mut sessions = Vec::with_capacity(inputs.tenants.len());
    for tenant in &inputs.tenants {
        let mut session = open_session(session_spec(tenant)).map_err(|err| err.to_string())?;
        // The daemon's default `--threads 0`.
        session.set_threads(0);
        sessions.push(session);
    }
    let mut calls = Layer::default();
    if per_frame {
        for (index, range) in &inputs.schedule {
            let events = &inputs.tenants[*index].events[range.clone()];
            let start = Instant::now();
            sessions[*index]
                .apply_events(events)
                .map_err(|err| err.to_string())?;
            calls.push(start.elapsed());
        }
    } else {
        for (session, tenant) in sessions.iter_mut().zip(&inputs.tenants) {
            session
                .apply_events(&tenant.events)
                .map_err(|err| err.to_string())?;
        }
    }
    let costs = sessions
        .iter()
        .map(|s| Costs {
            steps: s.steps() as u128,
            moving: s.moving_cost(),
            rearranging: s.rearranging_cost(),
        })
        .collect();
    Ok((costs, calls))
}

/// Plain `Simulation::run` per tenant: the sequential-loop baseline.
pub fn sim_run_pass(inputs: &ServeInputs) -> Result<(Vec<Costs>, Layer), String> {
    let mut runs = Layer::default();
    let mut costs = Vec::with_capacity(inputs.tenants.len());
    for tenant in &inputs.tenants {
        let instance = Instance::new(tenant.topology, tenant.n, tenant.events.clone())
            .map_err(|err| err.to_string())?;
        let arrangement = SegmentArrangement::identity(tenant.n);
        let coins = SmallRng::seed_from_u64(tenant.seed);
        let start = Instant::now();
        let outcome = match tenant.topology {
            Topology::Cliques => Simulation::new(instance, RandCliques::new(arrangement, coins))
                .record_events(false)
                .run(),
            Topology::Lines => Simulation::new(instance, RandLines::new(arrangement, coins))
                .record_events(false)
                .run(),
        };
        runs.push(start.elapsed());
        let outcome = outcome.map_err(|err| err.to_string())?;
        costs.push(Costs {
            steps: tenant.events.len() as u128,
            moving: outcome.moving_cost,
            rearranging: outcome.rearranging_cost,
        });
    }
    Ok((costs, runs))
}

/// The engine layers on the per-tenant streams (no wire, no planner).
pub fn engine_layers_pass(
    inputs: &ServeInputs,
    laps: &mut Laps<true>,
) -> Result<(Vec<Costs>, Duration), String> {
    let mut costs = Vec::with_capacity(inputs.tenants.len());
    let mut elapsed = Duration::ZERO;
    for tenant in &inputs.tenants {
        let instance = Instance::new(tenant.topology, tenant.n, tenant.events.clone())
            .map_err(|err| err.to_string())?;
        let traced =
            engine::traced_rand(&mut InstanceSource::new(instance), tenant.seed, false, laps)?;
        elapsed += traced.elapsed;
        costs.push(Costs {
            steps: u128::from(traced.reveals),
            moving: traced.digest.moving,
            rearranging: traced.digest.rearranging,
        });
    }
    Ok((costs, elapsed))
}

fn expect_ok(response: &Json, what: &str) -> Result<(), String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("{what} failed: {}", response.render_compact()))
    }
}

fn check_costs(tenant: &Tenant, response: &Json, want: &Costs) -> Result<(), String> {
    match Costs::from_response(response) {
        Some(got) if got == *want => Ok(()),
        got => Err(format!(
            "tenant {} cost {got:?} differs from the reference {want:?}",
            tenant.name
        )),
    }
}

/// FNV-1a of a checkpoint's hex text: equal checkpoints, equal hashes.
fn hash_text(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run of the real daemon, as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct DaemonRep {
    pub setup_s: f64,
    pub serve_s: f64,
    pub checkpoint_s: f64,
    pub restore_s: f64,
    pub usage: sys::Usage,
    pub checkpoint_hash: u64,
}

/// Client-side receipt times of the responses that bound the phases.
struct Timeline {
    last_open: Instant,
    before_checkpoint: Instant,
    checkpoint: Instant,
    restore_sent: Instant,
    restore: Instant,
    last_reveal: Instant,
    checkpoint_hash: u64,
}

/// Spawns `mla-serve` on default flags, streams the frames into its
/// stdin from a writer thread and reads and checks every response on
/// this one. The `restore` frame carries the bytes the checkpoint
/// response returned.
pub fn client_rep(
    bin: &Path,
    inputs: &ServeInputs,
    reference: &[Costs],
) -> Result<DaemonRep, String> {
    let spawned = Instant::now();
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|err| format!("spawning {}: {err}", bin.display()))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    let (restore_tx, restore_rx) = mpsc::channel::<Vec<u8>>();
    let (read, written) = thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<()> {
            stdin.write_all(&inputs.part_a)?;
            // A closed channel means the reader gave up: stop writing.
            let Ok(restore) = restore_rx.recv() else {
                return Ok(());
            };
            stdin.write_all(&restore)?;
            stdin.write_all(&inputs.part_b)
        });
        let read = sys::PollingReader::new(stdout)
            .map_err(|err| format!("polling stdout: {err}"))
            .and_then(|stdout| {
                let stdout = BufReader::with_capacity(1 << 16, stdout);
                read_responses(stdout, inputs, reference, restore_tx)
            });
        if read.is_err() {
            // Unblocks the writer if the daemon stopped reading.
            let _ = child.kill();
        }
        (read, writer.join())
    });
    let (code, usage) = sys::wait_with_usage(child).map_err(|err| format!("wait4: {err}"))?;
    let timeline = read?;
    match written {
        Ok(Ok(())) => {}
        Ok(Err(err)) => return Err(format!("writing frames: {err}")),
        Err(_) => return Err("frame writer panicked".into()),
    }
    if code != Some(0) {
        return Err(format!("mla-serve exited with {code:?}"));
    }
    let secs = |later: Instant, earlier: Instant| later.duration_since(earlier).as_secs_f64();
    Ok(DaemonRep {
        setup_s: secs(timeline.last_open, spawned),
        serve_s: secs(timeline.last_reveal, timeline.last_open)
            - secs(timeline.restore, timeline.before_checkpoint),
        checkpoint_s: secs(timeline.checkpoint, timeline.before_checkpoint),
        restore_s: secs(timeline.restore, timeline.restore_sent),
        usage,
        checkpoint_hash: timeline.checkpoint_hash,
    })
}

fn read_responses(
    mut r: impl BufRead,
    inputs: &ServeInputs,
    reference: &[Costs],
    restore_tx: mpsc::Sender<Vec<u8>>,
) -> Result<Timeline, String> {
    let mut next = |what: &str| -> Result<Json, String> {
        let response = read_frame(&mut r)
            .map_err(|err| format!("reading the {what} response: {err}"))?
            .ok_or_else(|| format!("daemon closed its output before the {what} response"))?;
        expect_ok(&response, what)?;
        Ok(response)
    };
    for _ in &inputs.tenants {
        next("open")?;
    }
    let last_open = Instant::now();
    for _ in 0..inputs.before_checkpoint {
        next("reveal")?;
    }
    let before_checkpoint = Instant::now();
    let checkpoint = next("checkpoint")?;
    let checkpoint_at = Instant::now();
    let hex = checkpoint
        .get("bytes")
        .and_then(Json::as_str)
        .ok_or("checkpoint response carries no bytes")?;
    let checkpoint_hash = hash_text(hex);
    let frame = restore_frame(hex);
    let restore_sent = Instant::now();
    restore_tx
        .send(frame)
        .map_err(|_| "frame writer stopped before the restore frame")?;
    next("restore")?;
    let restore = Instant::now();
    for _ in inputs.before_checkpoint..inputs.schedule.len() {
        next("reveal")?;
    }
    let last_reveal = Instant::now();
    for (tenant, want) in inputs.tenants.iter().zip(reference) {
        check_costs(tenant, &next("cost")?, want)?;
    }
    let bye = next("shutdown")?;
    if bye.get("shutdown").and_then(Json::as_bool) != Some(true) {
        return Err("shutdown was not acknowledged".into());
    }
    if read_frame(&mut r).map_err(|err| err.to_string())?.is_some() {
        return Err("daemon sent a response after shutdown".into());
    }
    Ok(Timeline {
        last_open,
        before_checkpoint,
        checkpoint: checkpoint_at,
        restore_sent,
        restore,
        last_reveal,
        checkpoint_hash,
    })
}

/// Discards output, counting bytes and flushes.
#[derive(Debug, Default)]
struct CountingSink {
    bytes: u64,
    flushes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// One in-process pass over the frames: `read_frame` → `Server::handle`
/// → `write_frame`, with the daemon's default server settings.
pub struct InProcess<const ON: bool> {
    /// Time inside the frame loops (the codec timings are excluded).
    pub elapsed: Duration,
    pub laps: Laps<ON>,
    /// `Server::handle` spans per op of [`OPS`].
    pub ops: Vec<Layer>,
    pub frames: u64,
    pub flushes: u64,
    pub bytes: u64,
    pub codec: Codec,
    pub checkpoint_hash: u64,
}

impl<const ON: bool> InProcess<ON> {
    pub fn run(
        inputs: &ServeInputs,
        reference: &[Costs],
        codec_reps: usize,
    ) -> Result<Self, String> {
        let mut pass = InProcess {
            elapsed: Duration::ZERO,
            laps: Laps::new(LAYERS.len()),
            ops: vec![Layer::default(); OPS.len()],
            frames: 0,
            flushes: 0,
            bytes: 0,
            codec: Codec::default(),
            checkpoint_hash: 0,
        };
        let mut server = Server::new(1, 0);
        let mut sink = CountingSink::default();
        let mut checkpoint = None;
        pass.drive(&mut server, &inputs.part_a, &mut sink, |_, response| {
            if let Some(hex) = response.get("bytes").and_then(Json::as_str) {
                checkpoint = Some(hex.to_owned());
            }
            Ok(())
        })?;
        let hex = checkpoint.ok_or("no checkpoint response")?;
        pass.checkpoint_hash = hash_text(&hex);
        for _ in 0..codec_reps {
            let start = Instant::now();
            let bytes = server.checkpoint_bytes();
            pass.codec.encode_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let restored = Server::new(1, 0).restore_bytes(&bytes);
            pass.codec.decode_s.push(start.elapsed().as_secs_f64());
            if restored != Ok(inputs.tenants.len()) {
                return Err(format!("in-process restore: {restored:?}"));
            }
            pass.codec.bytes = bytes.len();
        }
        pass.drive(&mut server, &restore_frame(&hex), &mut sink, |_, _| Ok(()))?;
        let mut costs = reference.iter().zip(&inputs.tenants);
        pass.drive(
            &mut server,
            &inputs.part_b,
            &mut sink,
            |request, response| {
                if request.get("op").and_then(Json::as_str) == Some("cost") {
                    let (want, tenant) = costs.next().ok_or("more cost responses than tenants")?;
                    check_costs(tenant, response, want)?;
                }
                Ok(())
            },
        )?;
        if pass.frames != inputs.frames() as u64 {
            return Err(format!(
                "served {} frames, sent {}",
                pass.frames,
                inputs.frames()
            ));
        }
        pass.flushes = sink.flushes;
        pass.bytes = sink.bytes;
        Ok(pass)
    }

    fn drive(
        &mut self,
        server: &mut Server,
        mut frames: &[u8],
        sink: &mut CountingSink,
        mut on_response: impl FnMut(&Json, &Json) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        self.laps.start();
        while let Some(request) = read_frame(&mut frames).map_err(|err| err.to_string())? {
            self.laps.lap(READ);
            let response = match server.handle(&request) {
                Reply::Continue(response) | Reply::Shutdown(response) => response,
            };
            self.laps.lap(HANDLE);
            write_frame(sink, &response).map_err(|err| err.to_string())?;
            self.laps.lap(WRITE);
            if ON {
                let op = request.get("op").and_then(Json::as_str);
                if let Some(k) = OPS.iter().position(|&name| Some(name) == op) {
                    let span = self.laps.layers[HANDLE].last().expect("just lapped");
                    self.ops[k].push(span);
                }
            }
            self.frames += 1;
            expect_ok(&response, "in-process frame")?;
            on_response(&request, &response)?;
            self.laps.start();
        }
        self.elapsed += start.elapsed();
        Ok(())
    }
}
