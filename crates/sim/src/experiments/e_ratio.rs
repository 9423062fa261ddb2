//! `E-RATIO`: online-vs-`Opt` ratios against **certified** optima at
//! scale.
//!
//! Every other experiment certifies `Opt` by brute force (`n ≤ 8`) or
//! closed forms. This one runs the full policy matrix on the
//! oracle-tractable [`TopologyFamily`] workloads and measures each
//! final arrangement against the certifying oracles in `mla-offline`:
//! interval MinLA for the clique family, series-parallel chain MinLA
//! for the path families, plus the MaxLA duals (clique spread, path
//! closed form) riding the same machinery. Every oracle answer is
//! re-validated by the independent `verify_certificate` checker before
//! a ratio is computed — an unverifiable certificate fails the
//! experiment, not just the row.
//!
//! Because the engine enforces MinLA-feasibility after every reveal
//! (checked here with `check_feasibility(true)`), each policy's final
//! arrangement is itself optimal for the revealed graph, so the proven
//! arrangement-ratio bound is exactly [`PROVEN_RATIO_BOUND`] `= 1.0`.
//! The experiment *gates* on it: any measured ratio above the bound by
//! more than 5% ([`RATIO_GATE`]) returns an error, which fails the CI
//! smoke step. The per-policy ratios are also written to
//! `BENCH_ratio.json` (under `MLA_BENCH_ARTIFACT_DIR`, default
//! `target/bench-artifacts`) so CI can archive the trajectory.

use mla_adversary::{FamilyWorkload, TopologyFamily};
use mla_core::{MovePolicy, OnlineMinla, RandCliques, RandLines, RearrangePolicy};
use mla_graph::{final_state_of, GraphState, Topology};
use mla_offline::{
    interval_minla, maxla_cliques, maxla_path, series_parallel_minla, verify_certificate,
    IntervalModel, OracleResult, SpForest,
};
use mla_permutation::Permutation;
use mla_runner::{write_bench_artifact, Json, RunRecord};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::Simulation;
use crate::error::SimError;
use crate::experiment::{Experiment, ExperimentContext};
use crate::experiments::{check, run_label, try_results, zip_seeds};
use crate::table::Table;

/// The proven bound on the final-arrangement ratio: feasibility is
/// enforced after every reveal, so the final arrangement of every
/// policy is optimal for the revealed graph.
pub const PROVEN_RATIO_BOUND: f64 = 1.0;

/// The CI gate: a measured ratio exceeding the proven bound by more
/// than 5% fails the experiment (and with it the release smoke step).
pub const RATIO_GATE: f64 = PROVEN_RATIO_BOUND * 1.05;

/// The certified-ratio measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct CertifiedRatio;

/// One measured cell of the ratio matrix.
struct RatioCell {
    algorithm: String,
    online: u128,
    opt_minla: u128,
    opt_maxla: Option<u128>,
    ratio: f64,
}

/// The three policy variants per topology, in reporting order.
const VARIANTS: usize = 3;

fn cliques_policy(variant: usize) -> MovePolicy {
    [
        MovePolicy::SizeBiased,
        MovePolicy::Fair,
        MovePolicy::SmallerMoves,
    ][variant]
}

fn lines_policies(variant: usize) -> (MovePolicy, RearrangePolicy) {
    [
        (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
        (MovePolicy::Fair, RearrangePolicy::Fair),
        (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
    ][variant]
}

/// Solves, certifies and cross-checks the MinLA optimum of a final
/// family state. The oracle answer is accepted only after the
/// independent checker validates its certificate against the state's
/// raw edge list *and* it matches the engine's closed-form
/// `minla_value`.
fn certified_minla(
    family: TopologyFamily,
    n: usize,
    state: &GraphState,
) -> Result<OracleResult, SimError> {
    let components = state.components();
    let result = match family {
        TopologyFamily::Interval => interval_minla(&IntervalModel::for_cliques(n, &components))?,
        TopologyFamily::SeriesParallel | TopologyFamily::TreeMerge => {
            series_parallel_minla(&SpForest::from_paths(n, &components)?)?
        }
    };
    verify_certificate(n, &state.edges(), &result).map_err(|e| {
        SimError::Other(format!(
            "E-RATIO: {} MinLA certificate rejected: {e}",
            family.label()
        ))
    })?;
    if result.value != state.minla_value() {
        return Err(SimError::Other(format!(
            "E-RATIO: {} certified optimum {} disagrees with the closed form {}",
            family.label(),
            result.value,
            state.minla_value()
        )));
    }
    Ok(result)
}

/// Solves and certifies the MaxLA dual where the family admits one
/// (clique spread for the interval family, the path closed form for the
/// full tree merge; bounded disjoint paths have no single dual solver).
fn certified_maxla(
    family: TopologyFamily,
    n: usize,
    state: &GraphState,
) -> Result<Option<OracleResult>, SimError> {
    let components = state.components();
    let result = match family {
        TopologyFamily::Interval => maxla_cliques(n, &components)?,
        TopologyFamily::TreeMerge => maxla_path(n, &components[0])?,
        TopologyFamily::SeriesParallel => return Ok(None),
    };
    verify_certificate(n, &state.edges(), &result).map_err(|e| {
        SimError::Other(format!(
            "E-RATIO: {} MaxLA certificate rejected: {e}",
            family.label()
        ))
    })?;
    Ok(Some(result))
}

impl Experiment for CertifiedRatio {
    fn id(&self) -> &'static str {
        "E-RATIO"
    }

    fn title(&self) -> &'static str {
        "Online vs certified Opt on oracle-tractable families"
    }

    fn paper_ref(&self) -> &'static str {
        "beyond the paper (ROADMAP: oracles that scale)"
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<Vec<Table>, SimError> {
        let n = ctx.pick(256, 4_096, 100_000);
        let campaign = ctx.campaign("E-RATIO");

        let specs: Vec<(TopologyFamily, usize)> = TopologyFamily::all()
            .iter()
            .flat_map(|&family| (0..VARIANTS).map(move |variant| (family, variant)))
            .collect();
        let results = campaign.run(&specs, |&(family, variant), seeds| {
            let root = seeds.child_str("workload");
            let coin = seeds.child_str("coins").seed(0);
            let source = FamilyWorkload::new(family, n, &root);
            let (algorithm, outcome) = match family.topology() {
                Topology::Cliques => {
                    let algorithm = RandCliques::with_policy(
                        Permutation::identity(n),
                        SmallRng::seed_from_u64(coin),
                        cliques_policy(variant),
                    );
                    let name = algorithm.name().to_owned();
                    (
                        name,
                        Simulation::from_source(source, algorithm)
                            .check_feasibility(true)
                            .record_events(false)
                            .run()?,
                    )
                }
                Topology::Lines => {
                    let (movement, rearrange) = lines_policies(variant);
                    let algorithm = RandLines::with_policies(
                        Permutation::identity(n),
                        SmallRng::seed_from_u64(coin),
                        movement,
                        rearrange,
                    );
                    let name = algorithm.name().to_owned();
                    (
                        name,
                        Simulation::from_source(source, algorithm)
                            .check_feasibility(true)
                            .record_events(false)
                            .run()?,
                    )
                }
            };
            // Replay the identical workload to rebuild the final revealed
            // graph, then certify its optimum independently.
            let mut replay = FamilyWorkload::new(family, n, &root);
            let state = final_state_of(&mut replay)?;
            let minla = certified_minla(family, n, &state)?;
            let maxla = certified_maxla(family, n, &state)?;
            let online = state.arrangement_cost(&outcome.final_perm);
            let ratio = if minla.value == 0 {
                if online == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                online as f64 / minla.value as f64
            };
            if ratio > RATIO_GATE {
                return Err(SimError::Other(format!(
                    "E-RATIO gate: {algorithm} on {} reached ratio {ratio:.4} > {RATIO_GATE} \
                     (online {online} vs certified Opt {})",
                    family.label(),
                    minla.value
                )));
            }
            Ok(RatioCell {
                algorithm,
                online,
                opt_minla: minla.value,
                opt_maxla: maxla.map(|result| result.value),
                ratio,
            })
        });
        let results = try_results(results)?;

        let mut artifact_cells = Vec::with_capacity(results.len());
        for (&(family, _), seeds, cell) in zip_seeds(&specs, &campaign, &results) {
            ctx.record(
                RunRecord::new(
                    run_label(
                        format!("ratio-{}", family.label()),
                        cell.algorithm.clone(),
                        n,
                        0,
                    ),
                    seeds.key(),
                )
                .metric("online_cost", cell.online as f64)
                .metric("opt_minla", cell.opt_minla as f64)
                .metric("ratio", cell.ratio),
            );
            let mut entry = Json::object()
                .field("family", family.label())
                .field("algorithm", cell.algorithm.as_str())
                .field("n", n)
                .field("online_cost", cell.online)
                .field("opt_minla", cell.opt_minla)
                .field("ratio", cell.ratio)
                .field("certified", true);
            if let Some(maxla) = cell.opt_maxla {
                entry = entry.field("opt_maxla", maxla);
            }
            artifact_cells.push(entry);
        }
        write_ratio_artifact(ctx, n, artifact_cells)?;

        let mut table = Table::new(
            "E-RATIO: final arrangement vs certified Opt (both oracles checker-validated)",
            &[
                "family",
                "algorithm",
                "n",
                "online",
                "opt(minla)",
                "ratio",
                "opt(maxla)",
                "gate",
            ],
        );
        for (&(family, _), cell) in specs.iter().zip(&results) {
            table.row(&[
                family.label(),
                &cell.algorithm,
                &n.to_string(),
                &cell.online.to_string(),
                &cell.opt_minla.to_string(),
                &format!("{:.4}", cell.ratio),
                &cell
                    .opt_maxla
                    .map_or_else(|| "-".to_owned(), |v| v.to_string()),
                check(cell.ratio <= RATIO_GATE),
            ]);
        }
        table.note("Opt certified by mla-offline oracles; every certificate re-validated by verify_certificate");
        table.note(&format!(
            "gate: ratio must stay within 5% of the proven bound {PROVEN_RATIO_BOUND} (feasibility forces optimal final arrangements)"
        ));
        table.note("artifact: BENCH_ratio.json under MLA_BENCH_ARTIFACT_DIR (default target/bench-artifacts)");
        Ok(vec![table])
    }
}

/// Writes `BENCH_ratio.json` — the per-policy certified-ratio artifact
/// CI archives and gates on.
fn write_ratio_artifact(
    ctx: &ExperimentContext,
    n: usize,
    cells: Vec<Json>,
) -> Result<(), SimError> {
    let report = Json::object()
        .field("id", "BENCH_ratio")
        .field(
            "description",
            "E-RATIO: per-policy online-vs-certified-Opt arrangement ratios",
        )
        .field("n", n)
        .field("proven_bound", PROVEN_RATIO_BOUND)
        .field("gate", RATIO_GATE)
        .field("seeds_key", ctx.seeds().key())
        .field("cells", Json::Array(cells));
    write_bench_artifact("BENCH_ratio", &report)
        .map_err(|e| SimError::Other(format!("cannot write BENCH_ratio.json: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    /// Both tests run `CertifiedRatio`, which writes `BENCH_ratio.json`
    /// into the directory the process-wide `MLA_BENCH_ARTIFACT_DIR`
    /// names. Holding this lock keeps one test's write from truncating
    /// the file while the other reads it.
    static ARTIFACT_WRITES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn tiny_run_is_certified_and_within_the_gate() {
        let _writes = ARTIFACT_WRITES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ctx = ExperimentContext::new(Scale::Tiny, 23);
        let tables = CertifiedRatio.run(&ctx).unwrap();
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        assert!(!csv.contains(",NO\n"), "gate violation:\n{csv}");
        // Feasibility makes every final arrangement optimal: ratio 1.
        assert!(csv.contains(",1.0000,"), "expected unit ratios:\n{csv}");
        // All three families and all six policy names appear.
        for label in ["interval", "series-parallel", "tree-merge"] {
            assert!(csv.contains(label), "missing family {label}:\n{csv}");
        }
        for name in ["rand-cliques", "fair-cliques", "smaller-moves-cliques"] {
            assert!(csv.contains(name), "missing policy {name}:\n{csv}");
        }
        for name in ["rand-lines", "fair-lines", "smaller-moves-lines"] {
            assert!(csv.contains(name), "missing policy {name}:\n{csv}");
        }
    }

    #[test]
    fn artifact_is_emitted() {
        let _writes = ARTIFACT_WRITES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join("mla-eratio-artifact-test");
        std::env::set_var("MLA_BENCH_ARTIFACT_DIR", &dir);
        let ctx = ExperimentContext::new(Scale::Tiny, 5);
        CertifiedRatio.run(&ctx).unwrap();
        std::env::remove_var("MLA_BENCH_ARTIFACT_DIR");
        let artifact = std::fs::read_to_string(dir.join("BENCH_ratio.json")).unwrap();
        assert!(artifact.contains("\"id\": \"BENCH_ratio\""));
        assert!(artifact.contains("\"certified\": true"));
        assert!(artifact.contains("opt_maxla"));
    }
}
