//! Arrangement backend comparison: dense [`Permutation`] vs
//! [`SegmentArrangement`] across full online runs at n ∈ {10³, 10⁴, 10⁵}.
//!
//! The measurement cells run through an `mla-runner` [`Campaign`] (single
//! worker, so wall-clock numbers are not polluted by contention; the
//! campaign still owns seed derivation and spec ordering), assert that
//! both backends report identical total costs, and persist a
//! `BENCH_arrangement.json` artifact so the perf trajectory is tracked
//! across PRs. Artifact directory: `MLA_BENCH_ARTIFACT_DIR` (default
//! `target/bench-artifacts`).
//!
//! Set `MLA_BENCH_REQUIRE_SPEEDUP=<factor>` (CI does, with `10`) to fail
//! the run unless the segment backend beats dense by at least that factor
//! at the largest measured n.

use std::time::Instant;

use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};
use mla_core::{RandCliques, RandLines};
use mla_graph::{Instance, Topology};
use mla_permutation::{Permutation, SegmentArrangement};
use mla_runner::{format_number, write_bench_artifact, Campaign, Json, SeedSequence};
use mla_sim::Simulation;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NS: &[usize] = &[1_000, 10_000, 100_000];

fn run_dense(instance: &Instance, coin: u64) -> u128 {
    let n = instance.n();
    match instance.topology() {
        Topology::Cliques => {
            Simulation::new(
                instance.clone(),
                RandCliques::new(Permutation::identity(n), SmallRng::seed_from_u64(coin)),
            )
            .run()
            .expect("valid instance")
            .total_cost
        }
        Topology::Lines => {
            Simulation::new(
                instance.clone(),
                RandLines::new(Permutation::identity(n), SmallRng::seed_from_u64(coin)),
            )
            .run()
            .expect("valid instance")
            .total_cost
        }
    }
}

fn run_segment(instance: &Instance, coin: u64) -> u128 {
    let n = instance.n();
    match instance.topology() {
        Topology::Cliques => {
            Simulation::new(
                instance.clone(),
                RandCliques::new(
                    SegmentArrangement::identity(n),
                    SmallRng::seed_from_u64(coin),
                ),
            )
            .run()
            .expect("valid instance")
            .total_cost
        }
        Topology::Lines => {
            Simulation::new(
                instance.clone(),
                RandLines::new(
                    SegmentArrangement::identity(n),
                    SmallRng::seed_from_u64(coin),
                ),
            )
            .run()
            .expect("valid instance")
            .total_cost
        }
    }
}

/// One measured cell: per-backend wall clock (seconds) and the common
/// total cost.
struct Cell {
    n: usize,
    topology: Topology,
    dense_seconds: f64,
    segment_seconds: f64,
    total_cost: u128,
}

fn measure_cells() -> Vec<Cell> {
    let specs: Vec<(usize, Topology)> = NS
        .iter()
        .flat_map(|&n| [(n, Topology::Cliques), (n, Topology::Lines)])
        .collect();
    let campaign = Campaign::new(SeedSequence::new(0xBE9C_4A44)).threads(1);
    let results = campaign.run(&specs, |&(n, topology), seeds| {
        let mut rng = SmallRng::seed_from_u64(seeds.child_str("workload").seed(0));
        let instance = match topology {
            Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng),
            Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng),
        };
        let coin = seeds.child_str("coins").seed(0);
        // Best of 3 per backend: the CI speedup gate must not flake on a
        // single noisy sample from a shared runner.
        let best_of = |run: &dyn Fn() -> u128| {
            let mut best = f64::INFINITY;
            let mut cost = 0;
            for _ in 0..3 {
                let start = Instant::now();
                cost = run();
                best = best.min(start.elapsed().as_secs_f64());
            }
            (best, cost)
        };
        let (segment_seconds, segment_cost) = best_of(&|| run_segment(&instance, coin));
        let (dense_seconds, dense_cost) = best_of(&|| run_dense(&instance, coin));
        assert_eq!(
            dense_cost, segment_cost,
            "backends must report identical total costs (n = {n}, {topology})"
        );
        (dense_seconds, segment_seconds, segment_cost)
    });
    specs
        .iter()
        .zip(results)
        .map(
            |(&(n, topology), (dense_seconds, segment_seconds, total_cost))| Cell {
                n,
                topology,
                dense_seconds,
                segment_seconds,
                total_cost,
            },
        )
        .collect()
}

fn write_artifact(cells: &[Cell]) -> std::path::PathBuf {
    let rows = cells
        .iter()
        .map(|cell| {
            Json::object()
                .field("n", cell.n)
                .field("topology", cell.topology.to_string())
                .field("total_cost", cell.total_cost)
                .field("dense_seconds", Json::Number(cell.dense_seconds))
                .field("segment_seconds", Json::Number(cell.segment_seconds))
                .field(
                    "speedup",
                    Json::Number(cell.dense_seconds / cell.segment_seconds.max(1e-12)),
                )
        })
        .collect::<Vec<_>>();
    let report = Json::object()
        .field("id", "BENCH_arrangement")
        .field(
            "description",
            "dense vs segment arrangement backend, full online runs",
        )
        .field("cells", Json::Array(rows));
    write_bench_artifact("BENCH_arrangement", &report).expect("write artifact")
}

fn main() {
    let cells = measure_cells();
    let path = write_artifact(&cells);
    let mut worst_speedup_at_max_n = f64::INFINITY;
    for cell in &cells {
        let speedup = cell.dense_seconds / cell.segment_seconds.max(1e-12);
        println!(
            "arrangement n={:<7} {:<8} dense {:>9}s  segment {:>9}s  speedup {:>7.1}x",
            cell.n,
            cell.topology.to_string(),
            format_number(cell.dense_seconds),
            format_number(cell.segment_seconds),
            speedup,
        );
        if cell.n == *NS.last().expect("non-empty") {
            worst_speedup_at_max_n = worst_speedup_at_max_n.min(speedup);
        }
    }
    println!("[arrangement artifact: {}]", path.display());
    if let Ok(required) = std::env::var("MLA_BENCH_REQUIRE_SPEEDUP") {
        let required: f64 = required.parse().expect("numeric MLA_BENCH_REQUIRE_SPEEDUP");
        assert!(
            worst_speedup_at_max_n >= required,
            "segment backend speedup {worst_speedup_at_max_n:.1}x at n = {} is below the \
             required {required}x",
            NS.last().expect("non-empty"),
        );
    }
}
