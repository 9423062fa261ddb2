//! The repository benchmark: reveal throughput on the streamed engine and
//! on the `mla-serve` daemon, with a traced per-layer pass.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir DIR [--tags JSON] [--smoke]
//! perfbench engine-rep --workload W --seed N [--smoke]
//! ```
//!
//! `perfbench/run.py` builds this package and `mla-serve`, then runs the
//! first form; the second is the child process of one untraced engine
//! run. See `perfbench/README.md` for the workloads and metrics.

mod daemon;
mod engine;
mod report;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mla_runner::Json;

use crate::daemon::{Costs, DaemonRep, InProcess};
use crate::engine::Codec;
use crate::report::{median, min, ratio, Checks};
use crate::trace::{Laps, Layer};
use crate::workloads::{ServeInputs, Size, StreamSpec, Workload, FULL, SMOKE};

/// Upper bound on untraced repetitions in one run.
const MAX_REPS: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    serve_bin: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    tags: String,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::StreamCliques,
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
            serve_bin: None,
            work_dir: None,
            tags: "{}".into(),
        };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => args.seed = value.parse().map_err(|err| format!("--seed: {err}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|err| format!("--seconds: {err}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    };
                }
                "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
                "--work-dir" => args.work_dir = Some(PathBuf::from(value)),
                "--tags" => args.tags = value.clone(),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }

    fn size(&self) -> Size {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }

    /// Untraced repetitions run until this much time has passed (half the
    /// run when the traced pass follows).
    fn untraced_budget(&self) -> Duration {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(seconds.max(0.0))
    }

    fn min_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            3
        }
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
struct Run {
    checks: Checks,
    attempted: u64,
    failed: u64,
    reps: usize,
    values: BTreeMap<String, f64>,
    /// Per-layer span summaries for the trace file.
    spans: Vec<(String, Layer)>,
}

impl Run {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Records a check over `ops` operations; a failure fails them all.
    fn check(&mut self, name: &'static str, ops: u64, result: Result<(), String>) -> bool {
        let ok = self.checks.record(name, result);
        if !ok {
            self.failed += ops;
        }
        ok
    }

    /// `.ns` (mean per call), `.calls` and `.share` of `pass` for a layer.
    fn layer(&mut self, name: &str, layer: &Layer, pass: Duration) {
        self.set(&format!("{name}.ns"), layer.mean_ns());
        self.set(&format!("{name}.calls"), layer.calls() as f64);
        self.set(
            &format!("{name}.share"),
            ratio(layer.total_ns(), pass.as_nanos() as f64),
        );
        self.spans.push((name.to_owned(), layer.clone()));
    }

    fn codec(&mut self, codec: &Codec) {
        self.set("sim.encode_session.ms", min(&codec.encode_s) * 1e3);
        self.set("sim.decode_session.ms", min(&codec.decode_s) * 1e3);
        self.set("sim.checkpoint.bytes", codec.bytes as f64);
    }
}

fn repeat_until(args: &Args, mut rep: impl FnMut() -> bool) {
    let deadline = Instant::now() + args.untraced_budget();
    let mut reps = 0;
    while reps < args.min_reps() || (Instant::now() < deadline && reps < MAX_REPS) {
        reps += 1;
        if !rep() {
            break;
        }
    }
}

fn stream_run(args: &Args) -> Run {
    let size = args.size();
    let spec = StreamSpec::new(args.workload, &size, args.seed);
    let reveals = spec.reveals() as u64;
    let mut run = Run::default();

    // Untimed: a session that served the first half of the stream, whose
    // checkpoint round trip is timed once per repetition.
    run.attempted += reveals / 2;
    let midpoint = match engine::Midpoint::open(&spec) {
        Ok(midpoint) => midpoint,
        Err(err) => {
            run.check("midpoint_session", reveals / 2, Err(err));
            return run;
        }
    };
    let mut codec = Codec::default();
    let mut reps: Vec<engine::Rep> = Vec::new();
    repeat_until(args, || {
        run.attempted += reveals;
        let rep = match engine_child(args) {
            Ok(rep) => rep,
            Err(err) => return run.check("engine_run", reveals, Err(err)),
        };
        let mut ok = run.check(
            "final_arrangement_is_minla",
            0,
            holds(rep.minla, "is_minla"),
        );
        if let Some(first) = reps.first() {
            ok &= run.check("outcome_repeats", 0, same(&first.digest, &rep.digest));
        }
        ok &= run.check("checkpoint_roundtrip", 0, midpoint.round_trip(&mut codec));
        if !ok {
            run.failed += reveals;
        }
        eprintln!(
            "perfbench: rep {}: {}",
            reps.len(),
            rep.to_json().render_compact()
        );
        reps.push(rep);
        ok
    });
    run.reps = reps.len();
    let pick = |f: fn(&engine::Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let serve_s = min(&pick(|r| r.serve_s));

    if !args.trace {
        run.set("reveals_per_s", ratio(reveals as f64, serve_s));
        run.set("setup_s", median(&pick(|r| r.setup_s)));
        run.set("peak_rss_mb", median(&pick(|r| r.usage.peak_rss_mib)));
        run.set("checkpoint_s", min(&codec.encode_s));
        run.set("restore_s", min(&codec.decode_s));
        return run;
    }

    // The traced passes; the fastest one is reported.
    let mut fastest: Option<(engine::Traced, Laps<true>)> = None;
    for _ in 0..size.traced_passes {
        run.attempted += reveals;
        let mut laps = Laps::<true>::new(engine::LAYERS.len());
        let traced =
            match engine::traced_rand(&mut spec.source(), spec.alg_seed, spec.check, &mut laps) {
                Ok(traced) => traced,
                Err(err) => {
                    run.check("traced_run", reveals, Err(err));
                    break;
                }
            };
        if let Some(first) = reps.first() {
            run.check(
                "traced_outcome_matches",
                reveals,
                same(&first.digest, &traced.digest),
            );
        }
        run.check(
            "final_arrangement_is_minla",
            reveals,
            holds(traced.minla, "traced is_minla"),
        );
        if fastest
            .as_ref()
            .is_none_or(|(best, _)| traced.elapsed < best.elapsed)
        {
            fastest = Some((traced, laps));
        }
    }
    if let Some((traced, laps)) = fastest {
        for (name, layer) in engine::LAYERS.iter().zip(&laps.layers) {
            run.layer(name, layer, traced.elapsed);
        }
        let covered: f64 = laps.layers.iter().map(Layer::total_ns).sum();
        run.set(
            "trace.coverage",
            ratio(covered, traced.elapsed.as_nanos() as f64),
        );
        run.set(
            "trace.overhead",
            ratio(traced.elapsed.as_secs_f64(), serve_s),
        );
    }
    run.set("sim.run.ns", ratio(serve_s * 1e9, reveals as f64));
    run.set("sim.run.calls", 1.0);
    run.codec(&codec);
    run.set("process.user_s", median(&pick(|r| r.usage.user_s)));
    run.set("process.sys_s", median(&pick(|r| r.usage.sys_s)));
    run
}

fn holds(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("{what} is false"))
    }
}

fn same<T: PartialEq + std::fmt::Debug>(want: &T, got: &T) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{got:?} differs from {want:?}"))
    }
}

/// One untraced engine run in a fresh child process, so its peak memory
/// is the run's own.
fn engine_child(args: &Args) -> Result<engine::Rep, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["engine-rep", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|err| format!("engine child: {err}"))?;
    if !output.status.success() {
        return Err(format!("engine child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Json::parse(text.trim())
        .ok()
        .as_ref()
        .and_then(engine::Rep::from_json)
        .ok_or_else(|| format!("engine child printed {text:?}"))
}

fn serve_run(args: &Args) -> Run {
    let size = args.size();
    let mut run = Run::default();
    let Some(bin) = args.serve_bin.clone() else {
        run.check("daemon_binary", 1, Err("--serve-bin is required".into()));
        return run;
    };
    let inputs = ServeInputs::new(args.workload, &size, args.seed);
    let frames = inputs.frames() as u64;
    let reveals = inputs.reveals() as u64;

    // The reference: open_session + apply_events per tenant.
    run.attempted += reveals;
    let reference = match daemon::session_pass(&inputs, false) {
        Ok((costs, _)) => costs,
        Err(err) => {
            run.check("reference_sessions", reveals, Err(err));
            return run;
        }
    };

    let mut reps: Vec<DaemonRep> = Vec::new();
    repeat_until(args, || {
        run.attempted += frames;
        let rep = match daemon::client_rep(&bin, &inputs, &reference) {
            Ok(rep) => rep,
            Err(err) => return run.check("daemon_responses", frames, Err(err)),
        };
        run.check("daemon_responses", 0, Ok(()));
        if let Some(first) = reps.first() {
            if !run.check(
                "checkpoint_repeats",
                frames,
                same(&first.checkpoint_hash, &rep.checkpoint_hash),
            ) {
                return false;
            }
        }
        eprintln!("perfbench: rep {}: {rep:?}", reps.len());
        reps.push(rep);
        true
    });
    run.reps = reps.len();
    let pick = |f: fn(&DaemonRep) -> f64| reps.iter().map(f).collect::<Vec<_>>();

    if !args.trace {
        run.set(
            "reveals_per_s",
            ratio(reveals as f64, min(&pick(|r| r.serve_s))),
        );
        run.set("setup_s", median(&pick(|r| r.setup_s)));
        run.set("peak_rss_mb", median(&pick(|r| r.usage.peak_rss_mib)));
        run.set("checkpoint_s", min(&pick(|r| r.checkpoint_s)));
        run.set("restore_s", min(&pick(|r| r.restore_s)));
        return run;
    }

    run.set("process.user_s", median(&pick(|r| r.usage.user_s)));
    run.set("process.sys_s", median(&pick(|r| r.usage.sys_s)));
    traced_daemon(args, &inputs, &reference, reps.first(), &mut run);
    traced_references(args, &inputs, &reference, &mut run);
    run
}

/// The in-process daemon passes over the same frames, untraced and
/// traced in turn; the fastest of each is reported.
fn traced_daemon(
    args: &Args,
    inputs: &ServeInputs,
    reference: &[Costs],
    daemon_rep: Option<&DaemonRep>,
    run: &mut Run,
) {
    let frames = inputs.frames() as u64;
    let mut untraced_s = f64::INFINITY;
    let mut fastest: Option<InProcess<true>> = None;
    let mut codec = Codec::default();
    for _ in 0..args.size().traced_passes {
        run.attempted += 2 * frames;
        let untraced = InProcess::<false>::run(inputs, reference, 0);
        let traced = InProcess::<true>::run(inputs, reference, 1);
        let (untraced, traced) = match (untraced, traced) {
            (Ok(untraced), Ok(traced)) => (untraced, traced),
            (Err(err), _) | (_, Err(err)) => {
                run.check("inprocess_responses", 2 * frames, Err(err));
                return;
            }
        };
        run.check("inprocess_responses", 0, Ok(()));
        if let Some(rep) = daemon_rep {
            run.check(
                "checkpoint_matches_daemon",
                frames,
                same(&rep.checkpoint_hash, &traced.checkpoint_hash),
            );
        }
        untraced_s = untraced_s.min(untraced.elapsed.as_secs_f64());
        codec.encode_s.extend(&traced.codec.encode_s);
        codec.decode_s.extend(&traced.codec.decode_s);
        codec.bytes = traced.codec.bytes;
        if fastest
            .as_ref()
            .is_none_or(|best| traced.elapsed < best.elapsed)
        {
            fastest = Some(traced);
        }
    }
    let Some(traced) = fastest else {
        return;
    };
    let pass = traced.elapsed;
    run.layer(daemon::LAYERS[0], &traced.laps.layers[0], pass);
    run.layer(daemon::LAYERS[2], &traced.laps.layers[2], pass);
    let handle = &traced.laps.layers[1];
    run.set(
        "serve.handle.share",
        ratio(handle.total_ns(), pass.as_nanos() as f64),
    );
    run.spans.push(("serve.handle".into(), handle.clone()));
    for (op, layer) in daemon::OPS.iter().zip(&traced.ops) {
        run.set(
            &format!("serve.handle.{op}.p50_us"),
            layer.quantile_ns(0.5) / 1e3,
        );
        run.set(
            &format!("serve.handle.{op}.p99_us"),
            layer.quantile_ns(0.99) / 1e3,
        );
        run.set(&format!("serve.handle.{op}.calls"), layer.calls() as f64);
        run.spans
            .push((format!("serve.handle.{op}"), layer.clone()));
    }
    run.set("runner.flush.calls", traced.flushes as f64);
    run.set(
        "runner.flush.per_reveal",
        ratio(traced.flushes as f64, inputs.reveals() as f64),
    );
    run.set("runner.write.bytes", traced.bytes as f64);
    let covered: f64 = traced.laps.layers.iter().map(Layer::total_ns).sum();
    run.set("trace.coverage", ratio(covered, pass.as_nanos() as f64));
    run.set("trace.overhead", ratio(pass.as_secs_f64(), untraced_s));
    run.codec(&codec);
}

/// The session path without the wire, the sequential-loop baseline and
/// the engine layers, on the per-tenant streams; each must reproduce the
/// reference costs. The fastest of the repeated passes is reported.
fn traced_references(args: &Args, inputs: &ServeInputs, reference: &[Costs], run: &mut Run) {
    let reveals = inputs.reveals() as u64;
    let (mut apply_events, mut sim_run) = (None::<Layer>, None::<Layer>);
    let mut engine_layers: Option<(Laps<true>, Duration)> = None;
    for _ in 0..args.size().traced_passes {
        run.attempted += 3 * reveals;
        let passes = daemon::session_pass(inputs, true).and_then(|(costs, calls)| {
            same(&reference.to_vec(), &costs)?;
            let (costs, runs) = daemon::sim_run_pass(inputs)?;
            same(&reference.to_vec(), &costs)?;
            let mut laps = Laps::<true>::new(engine::LAYERS.len());
            let (costs, elapsed) = daemon::engine_layers_pass(inputs, &mut laps)?;
            same(&reference.to_vec(), &costs)?;
            Ok((calls, runs, laps, elapsed))
        });
        let (calls, runs, laps, elapsed) = match passes {
            Ok(passes) => passes,
            Err(err) => {
                run.check("passes_match_reference", 3 * reveals, Err(err));
                return;
            }
        };
        run.check("passes_match_reference", 0, Ok(()));
        if apply_events
            .as_ref()
            .is_none_or(|best| calls.total_ns() < best.total_ns())
        {
            apply_events = Some(calls);
        }
        if sim_run
            .as_ref()
            .is_none_or(|best| runs.total_ns() < best.total_ns())
        {
            sim_run = Some(runs);
        }
        if engine_layers
            .as_ref()
            .is_none_or(|(_, best)| elapsed < *best)
        {
            engine_layers = Some((laps, elapsed));
        }
    }
    if let (Some(calls), Some(runs), Some((laps, elapsed))) = (apply_events, sim_run, engine_layers)
    {
        run.set(
            "sim.apply_events.ns",
            ratio(calls.total_ns(), reveals as f64),
        );
        run.set("sim.apply_events.calls", calls.calls() as f64);
        run.set("sim.run.ns", ratio(runs.total_ns(), reveals as f64));
        run.set("sim.run.calls", runs.calls() as f64);
        for (name, layer) in engine::LAYERS.iter().zip(&laps.layers) {
            run.layer(name, layer, elapsed);
        }
    }
}

/// Writes the span summaries and tags of a traced run, returning the
/// file written.
fn write_trace_file(args: &Args, run: &Run) -> Result<Option<PathBuf>, String> {
    let Some(dir) = &args.work_dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|err| format!("creating {}: {err}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"tags\":{},\"layers\":{{",
        args.workload.name(),
        args.seed,
        args.tags
    );
    for (k, (name, layer)) in run.spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            layer.calls(),
            report::number(layer.total_ns()),
            report::number(layer.mean_ns()),
            report::number(layer.quantile_ns(0.5)),
            report::number(layer.quantile_ns(0.99)),
        );
    }
    out.push_str("}}\n");
    std::fs::write(&path, out).map_err(|err| format!("writing {}: {err}", path.display()))?;
    Ok(Some(path))
}

fn bench(args: &Args) -> ExitCode {
    let tags = if Json::parse(&args.tags).is_ok() {
        args.tags.as_str()
    } else {
        "{}"
    };
    let mut run = if args.workload.is_stream() {
        stream_run(args)
    } else {
        serve_run(args)
    };
    let trace_file = if args.trace {
        match write_trace_file(args, &run) {
            Ok(path) => path,
            Err(err) => {
                eprintln!("perfbench: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let spec: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    };
    if !args.trace {
        for (name, _) in &spec {
            let measured = run.values.get(name).copied().unwrap_or(0.0);
            if !measured.is_finite() || measured <= 0.0 {
                run.checks
                    .record("metrics_measured", Err(format!("{name} was not measured")));
            }
        }
    }
    let correct = run.checks.passed() && run.failed == 0;
    let failed = if correct { 0 } else { run.failed.max(1) };
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"reps\": {}, \"trace_file\": {}, \"checks\": {}, \"tags\": {tags}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        run.reps,
        trace_file.map_or("null".into(), |p| format!("{:?}", p.display().to_string())),
        run.checks.to_json(),
    );
    println!(
        "{}",
        report::result_line(correct, run.attempted.max(1), failed, &spec, &run.values)
    );
    ExitCode::SUCCESS
}

fn engine_rep_main(argv: &[String]) -> ExitCode {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench engine-rep: {err}");
            return ExitCode::from(2);
        }
    };
    let spec = StreamSpec::new(args.workload, &args.size(), args.seed);
    match engine::untraced_rep(&spec) {
        Ok(rep) => {
            println!("{}", rep.to_json().render_compact());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench engine-rep: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("engine-rep") {
        return engine_rep_main(&argv[1..]);
    }
    match Args::parse(&argv) {
        Ok(args) => bench(&args),
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
