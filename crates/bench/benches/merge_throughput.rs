//! Merge hot-path throughput: eager member-walking snapshots (the old
//! `O(component size)` per reveal) vs lazy size-only [`MergeInfo`] with
//! slot-based `O(log n)` component location — the same policy, the same
//! coins, the same segment backend, on streamed reveals at
//! n ∈ {10⁵, 10⁷} for both topologies.
//!
//! Every cell first serves one full run per mode and asserts **full**
//! [`RunOutcome`] equality (costs *and* final arrangements) before any
//! number is reported — the lazy path must be a pure speedup, never a
//! behavior change. Reveals are streamed (no materialized `Instance`), so
//! the n = 10⁷ cells fit in the same bounded memory as the `--scale`
//! smoke run.
//!
//! The artifact `BENCH_merge.json` lands next to the other `BENCH_*`
//! files (`MLA_BENCH_ARTIFACT_DIR`, default `target/bench-artifacts`).
//! Set `MLA_BENCH_REQUIRE_SPEEDUP=<factor>` (CI does, with `1.25`) to fail
//! the run unless the lazy path beats the eager path by at least that
//! factor on the largest clique cell.

use std::time::Instant;

use mla_adversary::{MergeShape, StreamingWorkload};
use mla_core::{RandCliques, RandLines};
use mla_graph::Topology;
use mla_permutation::SegmentArrangement;
use mla_runner::{format_number, write_bench_artifact, Json, SeedSequence};
use mla_sim::{RunOutcome, Simulation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Measured sizes; the CI gate applies at the largest.
const NS: &[usize] = &[100_000, 10_000_000];
/// At or above this size a single timing pass per mode is used (the runs
/// are minutes long and the eager/lazy gap dwarfs scheduler noise);
/// below it, best of three.
const LARGE: usize = 1_000_000;

/// One full streamed run. The workload and coin seeds derive from the
/// cell, so every mode replays the identical reveal/coin sequence.
fn run_once(topology: Topology, n: usize, eager: bool) -> RunOutcome {
    let seeds = SeedSequence::new(0x4E0_CACE).child_str(&topology.to_string());
    let source = StreamingWorkload::new(topology, n, MergeShape::Uniform, seeds.seed(0));
    let coin = SmallRng::seed_from_u64(seeds.seed(1));
    let outcome = match topology {
        Topology::Cliques => Simulation::from_source(
            source,
            RandCliques::new(SegmentArrangement::identity(n), coin),
        )
        .record_events(false)
        .eager_snapshots(eager)
        .run(),
        Topology::Lines => Simulation::from_source(
            source,
            RandLines::new(SegmentArrangement::identity(n), coin),
        )
        .record_events(false)
        .eager_snapshots(eager)
        .run(),
    };
    outcome.expect("valid streamed workload")
}

struct Cell {
    n: usize,
    topology: Topology,
    eager_seconds: f64,
    lazy_seconds: f64,
    total_cost: u128,
}

impl Cell {
    fn reveals(&self) -> u64 {
        (self.n - 1) as u64
    }

    fn eager_reveals_per_second(&self) -> f64 {
        self.reveals() as f64 / self.eager_seconds.max(1e-12)
    }

    fn lazy_reveals_per_second(&self) -> f64 {
        self.reveals() as f64 / self.lazy_seconds.max(1e-12)
    }

    fn speedup(&self) -> f64 {
        self.eager_seconds / self.lazy_seconds.max(1e-12)
    }
}

fn measure_cell(topology: Topology, n: usize) -> Cell {
    let rounds = if n >= LARGE { 1 } else { 3 };
    let timed = |eager: bool| {
        let mut best = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..rounds {
            let start = Instant::now();
            let run = run_once(topology, n, eager);
            best = best.min(start.elapsed().as_secs_f64());
            outcome = Some(run);
        }
        (best, outcome.expect("at least one round"))
    };
    // Like-for-like: identical outcomes (costs and final arrangements)
    // are asserted before any throughput number leaves this function.
    let (eager_seconds, eager_outcome) = timed(true);
    let (lazy_seconds, lazy_outcome) = timed(false);
    assert_eq!(
        eager_outcome, lazy_outcome,
        "lazy merge info diverged from eager snapshots (n = {n}, {topology})"
    );
    Cell {
        n,
        topology,
        eager_seconds,
        lazy_seconds,
        total_cost: lazy_outcome.total_cost,
    }
}

fn write_artifact(cells: &[Cell]) -> std::path::PathBuf {
    let rows = cells
        .iter()
        .map(|cell| {
            Json::object()
                .field("n", cell.n)
                .field("topology", cell.topology.to_string())
                .field("reveals", cell.reveals())
                .field("total_cost", cell.total_cost)
                .field("eager_seconds", Json::Number(cell.eager_seconds))
                .field("lazy_seconds", Json::Number(cell.lazy_seconds))
                .field(
                    "eager_reveals_per_second",
                    Json::Number(cell.eager_reveals_per_second()),
                )
                .field(
                    "lazy_reveals_per_second",
                    Json::Number(cell.lazy_reveals_per_second()),
                )
                .field("speedup", Json::Number(cell.speedup()))
        })
        .collect::<Vec<_>>();
    let report = Json::object()
        .field("id", "BENCH_merge")
        .field(
            "description",
            "merge hot path: eager member-walk snapshots vs lazy O(log n) locate, streamed reveals",
        )
        .field("cells", Json::Array(rows));
    write_bench_artifact("BENCH_merge", &report).expect("write artifact")
}

fn main() {
    let mut cells = Vec::new();
    for &n in NS {
        for topology in [Topology::Cliques, Topology::Lines] {
            cells.push(measure_cell(topology, n));
        }
    }
    let path = write_artifact(&cells);
    let mut clique_speedup_at_max_n = f64::INFINITY;
    for cell in &cells {
        println!(
            "merge n={:<9} {:<8} eager {:>9}s ({:>9} rev/s)  lazy {:>9}s ({:>9} rev/s)  \
             speedup {:>5.2}x",
            cell.n,
            cell.topology.to_string(),
            format_number(cell.eager_seconds),
            format_number(cell.eager_reveals_per_second()),
            format_number(cell.lazy_seconds),
            format_number(cell.lazy_reveals_per_second()),
            cell.speedup(),
        );
        if cell.n == *NS.last().expect("non-empty") && cell.topology == Topology::Cliques {
            clique_speedup_at_max_n = cell.speedup();
        }
    }
    println!("[merge artifact: {}]", path.display());
    if let Ok(required) = std::env::var("MLA_BENCH_REQUIRE_SPEEDUP") {
        let required: f64 = required.parse().expect("numeric MLA_BENCH_REQUIRE_SPEEDUP");
        assert!(
            clique_speedup_at_max_n >= required,
            "lazy merge-info speedup {clique_speedup_at_max_n:.2}x at n = {} (cliques) is \
             below the required {required}x",
            NS.last().expect("non-empty"),
        );
    }
}
