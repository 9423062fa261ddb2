//! `mla-experiments`: run the experiment suite reproducing every theorem,
//! lemma and figure of *Learning Minimum Linear Arrangement of Cliques and
//! Lines* (ICDCS 2024).
//!
//! ```text
//! mla-experiments [--full | --tiny] [--seed N] [--threads N] [--csv DIR] [--json DIR] [ID...]
//! mla-experiments --scale N
//!
//!   --full       minutes-scale runs (the EXPERIMENTS.md numbers)
//!   --tiny       sub-second smoke runs
//!   --scale N    large-n smoke: one RandCliques + one RandLines run on the
//!                segment arrangement backend at n = N, then exit (CI uses
//!                this in release mode at n = 100000)
//!   --seed N     base seed (default 42)
//!   --threads N  campaign worker threads (default: available parallelism;
//!                never changes results, only wall-clock time)
//!   --csv DIR    also write each table as CSV into DIR
//!   --json DIR   also write per-experiment JSON campaign artifacts
//!                (runs + tables + metadata) and an index.json into DIR
//!   ID...        experiment ids to run (default: all); see --list
//!   --list       print the experiment index and exit
//! ```

use std::io::Write as _;
use std::sync::Arc;

use mla_runner::{
    git_describe, resolve_threads, write_bench_artifact, ArtifactStore, CampaignReport, ReportMeta,
    RunSink,
};
use mla_sim::{all_experiments, find_experiment, Experiment, ExperimentContext, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut threads = 0usize;
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut scale_n: Option<usize> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--tiny" => scale = Scale::Tiny,
            "--quick" => scale = Scale::Quick,
            "--list" => list = true,
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed requires an integer"));
            }
            "--scale" => {
                scale_n = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--scale requires a node count")),
                );
            }
            "--threads" => {
                threads = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--threads requires an integer"));
            }
            "--csv" => {
                csv_dir = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--csv requires a directory")),
                );
            }
            "--json" => {
                json_dir = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--json requires a directory")),
                );
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            id => ids.push(id.to_owned()),
        }
    }

    if let Some(n) = scale_n {
        run_scale_smoke(n, seed);
        return;
    }

    if list {
        println!("{:<7} {:<28} title", "id", "reproduces");
        for experiment in all_experiments() {
            println!(
                "{:<7} {:<28} {}",
                experiment.id(),
                experiment.paper_ref(),
                experiment.title()
            );
        }
        return;
    }

    let experiments: Vec<Box<dyn Experiment>> = if ids.is_empty() {
        all_experiments()
    } else {
        ids.iter()
            .map(|id| {
                find_experiment(id).unwrap_or_else(|| die(&format!("unknown experiment {id}")))
            })
            .collect()
    };

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
    }
    let mut store = json_dir.as_ref().map(|dir| {
        ArtifactStore::create(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")))
    });
    let git = store.as_ref().and_then(|_| git_describe());

    println!(
        "running {} experiment(s) at scale {:?}, seed {}, {} thread(s)",
        experiments.len(),
        scale,
        seed,
        resolve_threads(threads),
    );
    for experiment in experiments {
        println!();
        println!(
            "### {} — {} (reproduces {})",
            experiment.id(),
            experiment.title(),
            experiment.paper_ref()
        );
        // Only pay for per-run record collection when artifacts are on.
        let sink = store.as_ref().map(|_| Arc::new(RunSink::new()));
        let mut ctx = ExperimentContext::new(scale, seed).with_threads(threads);
        if let Some(sink) = &sink {
            ctx = ctx.with_sink(Arc::clone(sink));
        }
        let start = std::time::Instant::now();
        let tables = experiment
            .run(&ctx)
            .unwrap_or_else(|e| die(&format!("{} failed: {e}", experiment.id())));
        let elapsed = start.elapsed();
        for (index, table) in tables.iter().enumerate() {
            println!();
            print!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let path = format!(
                    "{dir}/{}-{index}.csv",
                    experiment.id().to_lowercase().replace(' ', "-")
                );
                let mut file = std::fs::File::create(&path)
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                file.write_all(table.to_csv().as_bytes())
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            }
        }
        if let Some(store) = &mut store {
            let report = CampaignReport {
                id: experiment.id().to_owned(),
                title: experiment.title().to_owned(),
                paper_ref: experiment.paper_ref().to_owned(),
                meta: ReportMeta {
                    base_seed: seed,
                    scale: scale.label().to_owned(),
                    threads: resolve_threads(threads),
                    git: git.clone(),
                    elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
                },
                tables: tables.iter().map(mla_sim::Table::to_artifact).collect(),
                runs: sink.as_ref().expect("sink exists when store does").drain(),
            };
            let path = store
                .write(&report)
                .unwrap_or_else(|e| die(&format!("cannot write artifact: {e}")));
            println!("[artifact: {}]", path.display());
        }
        println!("[{} finished in {elapsed:.2?}]", experiment.id());
    }
    if let Some(store) = &store {
        let index = store
            .finish()
            .unwrap_or_else(|e| die(&format!("cannot write index: {e}")));
        println!();
        println!("[campaign index: {}]", index.display());
    }
}

/// Peak resident set size (`VmHWM`) in mebibytes, from `/proc/self/status`
/// (Linux only; `None` elsewhere).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `--scale N` path: a large-n smoke run with **streamed** reveals on
/// the segment backend — one merge generated per pull, no `Instance`, no
/// event vector, no per-event recording — with per-reveal feasibility
/// checking on (incremental, so it stays cheap). Emits a
/// `BENCH_scale.json` artifact (timings + peak RSS) next to the
/// arrangement bench artifact, and honors `MLA_SCALE_MAX_RSS_MB` as a
/// hard peak-RSS ceiling (CI sets it).
fn run_scale_smoke(n: usize, seed: u64) {
    use mla_adversary::{MergeShape, StreamingWorkload};
    use mla_core::{RandCliques, RandLines};
    use mla_graph::Topology;
    use mla_permutation::SegmentArrangement;
    use mla_runner::{Json, SeedSequence};
    use mla_sim::Simulation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    if n < 2 {
        die("--scale needs n >= 2");
    }
    let seeds = SeedSequence::new(seed).child_str("scale-smoke");
    println!("scale smoke: streaming reveals, segment backend, n = {n}, seed {seed}");
    let mut cells: Vec<Json> = Vec::new();
    for topology in [Topology::Cliques, Topology::Lines] {
        let label = topology.to_string();
        let source = StreamingWorkload::new(
            topology,
            n,
            MergeShape::Uniform,
            seeds.child_str(&label).seed(0),
        );
        let coin = SmallRng::seed_from_u64(seeds.child_str(&label).seed(1));
        let start = std::time::Instant::now();
        let outcome = match topology {
            Topology::Cliques => Simulation::from_source(
                source,
                RandCliques::new(SegmentArrangement::identity(n), coin),
            )
            .check_feasibility(true)
            .record_events(false)
            .run(),
            Topology::Lines => Simulation::from_source(
                source,
                RandLines::new(SegmentArrangement::identity(n), coin),
            )
            .check_feasibility(true)
            .record_events(false)
            .run(),
        };
        let served = start.elapsed();
        let outcome = outcome.unwrap_or_else(|e| die(&format!("scale smoke failed: {e}")));
        let reveals = n - 1;
        let per_second = reveals as f64 / served.as_secs_f64().max(1e-9);
        println!(
            "  {label:<8} {reveals} reveals streamed, total cost {}, served in {served:.2?} \
             ({per_second:.0} reveals/s)",
            outcome.total_cost,
        );
        cells.push(
            Json::object()
                .field("n", n)
                .field("topology", label)
                .field("reveals", reveals)
                .field("total_cost", outcome.total_cost)
                .field("serve_seconds", Json::Number(served.as_secs_f64()))
                .field("reveals_per_second", Json::Number(per_second)),
        );
    }
    let peak = peak_rss_mb();
    match peak {
        Some(mb) => println!("  peak RSS {mb:.0} MiB"),
        None => println!("  peak RSS unavailable on this platform"),
    }

    // BENCH_scale.json next to BENCH_arrangement.json, so CI tracks the
    // E-SCALE regime's timing trajectory across PRs.
    let report = Json::object()
        .field("id", "BENCH_scale")
        .field(
            "description",
            "streaming --scale smoke: segment backend, streamed reveals, no event recording",
        )
        .field("seed", seed)
        .field("peak_rss_mb", peak.map_or(Json::Null, Json::Number))
        .field("cells", Json::Array(cells));
    let path = write_bench_artifact("BENCH_scale", &report)
        .unwrap_or_else(|e| die(&format!("cannot write BENCH_scale.json: {e}")));
    println!("[scale artifact: {}]", path.display());

    // Hard memory ceiling (CI): fail loudly instead of silently swapping.
    if let Ok(limit) = std::env::var("MLA_SCALE_MAX_RSS_MB") {
        let limit: f64 = limit
            .parse()
            .unwrap_or_else(|_| die("MLA_SCALE_MAX_RSS_MB must be a number"));
        match peak {
            Some(mb) if mb > limit => die(&format!(
                "peak RSS {mb:.0} MiB exceeds the {limit} MiB ceiling"
            )),
            Some(mb) => println!("  peak RSS {mb:.0} MiB within the {limit} MiB ceiling"),
            None => die("MLA_SCALE_MAX_RSS_MB set but peak RSS is unavailable"),
        }
    }
}

fn print_help() {
    println!(
        "mla-experiments [--full | --tiny] [--seed N] [--threads N] [--csv DIR] [--json DIR] [--list] [ID...]\n\
         Runs the experiment suite; default scale is --quick. See DESIGN.md for the index.\n\
         --scale N    large-n smoke run on the segment arrangement backend, then exit.\n\
         --threads N  campaign worker threads (default 0 = available parallelism).\n\
         \x20            Results are bit-identical for every thread count.\n\
         --json DIR   write per-experiment campaign artifacts (per-run costs, tables,\n\
         \x20            seed/scale/threads/git metadata) plus index.json into DIR."
    );
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}
