//! Seeded-determinism regression tests: the same RNG seeds must produce
//! identical [`RunOutcome`]s — total cost, per-event cost reports, events
//! and final permutation — for every algorithm, on fixed instances of both
//! topologies. This is what makes every experiment in `mla-sim` (and every
//! failure reported by the property tests) reproducible from its seeds.
//!
//! The second half enforces `mla-runner`'s campaign guarantee: worker
//! thread count is pure scheduling — run outcomes, experiment tables,
//! artifact records and serialized artifact bodies are bit-identical for
//! `T = 1`, `4` and `8`.

use std::sync::Arc;

use mla::prelude::*;
use mla::runner::{strip_meta_lines, ReportMeta, RunRecord, TableData};
use mla::sim::{find_experiment, ExperimentContext, Scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const WORKLOAD_SEED: u64 = 0xD1CE;
const COIN_SEED: u64 = 0xC01;

fn fixed_instance(topology: Topology, n: usize) -> Instance {
    shaped_instance(topology, n, MergeShape::Uniform)
}

fn shaped_instance(topology: Topology, n: usize, shape: MergeShape) -> Instance {
    let mut rng = SmallRng::seed_from_u64(WORKLOAD_SEED);
    match topology {
        Topology::Cliques => random_clique_instance(n, shape, &mut rng),
        Topology::Lines => random_line_instance(n, shape, &mut rng),
    }
}

fn run_once<A: OnlineMinla + 'static>(instance: &Instance, alg: A) -> RunOutcome {
    Simulation::new(instance.clone(), alg)
        .check_feasibility(true)
        .run()
        .expect("fixed instance is valid")
}

#[test]
fn rand_cliques_is_seed_deterministic() {
    let n = 24;
    let instance = fixed_instance(Topology::Cliques, n);
    let pi0 = Permutation::identity(n);
    let run = || {
        run_once(
            &instance,
            RandCliques::new(pi0.clone(), SmallRng::seed_from_u64(COIN_SEED)),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same coins must reproduce the identical RunOutcome");
    assert_eq!(a.total_cost, a.moving_cost + a.rearranging_cost);
    assert_eq!(a.per_event.len(), instance.len());
}

#[test]
fn rand_lines_is_seed_deterministic() {
    let n = 24;
    let instance = fixed_instance(Topology::Lines, n);
    let pi0 = Permutation::identity(n);
    let run = || {
        run_once(
            &instance,
            RandLines::new(pi0.clone(), SmallRng::seed_from_u64(COIN_SEED)),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same coins must reproduce the identical RunOutcome");
    assert_eq!(a.total_cost, a.moving_cost + a.rearranging_cost);
    assert_eq!(a.per_event.len(), instance.len());
}

#[test]
fn det_closest_is_deterministic() {
    // DetClosest takes no RNG at all: two runs must agree outcome-for-outcome.
    let n = 16;
    for topology in [Topology::Cliques, Topology::Lines] {
        let instance = fixed_instance(topology, n);
        let pi0 = Permutation::identity(n);
        let run = || {
            run_once(
                &instance,
                DetClosest::new(pi0.clone(), LopConfig::default()),
            )
        };
        assert_eq!(
            run(),
            run(),
            "deterministic algorithm diverged ({topology:?})"
        );
    }
}

#[test]
fn different_coin_seeds_change_randomized_trajectories() {
    // Sanity check on the other direction: with n = 48 the probability that
    // two independent coin streams produce identical trajectories is
    // negligible. Guards against an RNG that silently ignores its seed.
    let n = 48;
    let instance = fixed_instance(Topology::Cliques, n);
    let pi0 = Permutation::identity(n);
    let a = run_once(
        &instance,
        RandCliques::new(pi0.clone(), SmallRng::seed_from_u64(1)),
    );
    let b = run_once(&instance, RandCliques::new(pi0, SmallRng::seed_from_u64(2)));
    assert_ne!(
        a.final_perm, b.final_perm,
        "independent coin seeds produced byte-identical trajectories"
    );
}

/// A campaign job covering both topologies: fresh workload, fresh coins,
/// one full simulation — everything derived from the handed sequence.
fn campaign_job(&(topology, n): &(Topology, usize), seeds: SeedSequence) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seeds.child_str("workload").seed(0));
    let coins = SmallRng::seed_from_u64(seeds.child_str("coins").seed(0));
    let pi0 = Permutation::random(n, &mut rng);
    match topology {
        Topology::Cliques => {
            let instance = random_clique_instance(n, MergeShape::Uniform, &mut rng);
            Simulation::new(instance, RandCliques::new(pi0, coins))
                .run()
                .expect("valid instance")
        }
        Topology::Lines => {
            let instance = random_line_instance(n, MergeShape::Uniform, &mut rng);
            Simulation::new(instance, RandLines::new(pi0, coins))
                .run()
                .expect("valid instance")
        }
    }
}

#[test]
fn campaign_outcomes_are_thread_count_invariant() {
    let specs: Vec<(Topology, usize)> = (0..24)
        .map(|i| {
            let topology = if i % 2 == 0 {
                Topology::Cliques
            } else {
                Topology::Lines
            };
            (topology, 8 + i % 5)
        })
        .collect();
    let reference = Campaign::new(SeedSequence::new(0xD1CE))
        .threads(1)
        .run(&specs, campaign_job);
    assert_eq!(reference.len(), specs.len());
    for threads in [4, 8] {
        let outcomes = Campaign::new(SeedSequence::new(0xD1CE))
            .threads(threads)
            .run(&specs, campaign_job);
        assert_eq!(
            outcomes, reference,
            "campaign outcomes diverged at {threads} threads"
        );
    }
}

/// Runs one experiment at the given thread count, returning its tables
/// and drained artifact records.
fn run_experiment_with_sink(id: &str, threads: usize) -> (Vec<TableData>, Vec<RunRecord>) {
    let sink = Arc::new(RunSink::new());
    let ctx = ExperimentContext::new(Scale::Tiny, 42)
        .with_threads(threads)
        .with_sink(Arc::clone(&sink));
    let tables = find_experiment(id)
        .expect("known experiment id")
        .run(&ctx)
        .expect("experiment runs cleanly")
        .iter()
        .map(mla::sim::Table::to_artifact)
        .collect();
    (tables, sink.drain())
}

#[test]
fn experiment_tables_and_artifacts_are_thread_count_invariant() {
    // One trial-chunked experiment (E-L3) and one cell-parallel
    // experiment (E-T2) — the two campaign shapes the suite uses.
    for id in ["E-T2", "E-L3"] {
        let reference = run_experiment_with_sink(id, 1);
        assert!(!reference.1.is_empty(), "{id} recorded no runs");
        for threads in [4, 8] {
            assert_eq!(
                run_experiment_with_sink(id, threads),
                reference,
                "{id} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn artifact_files_are_byte_identical_modulo_meta() {
    // Serialize the same campaign body under different thread counts and
    // timings: the files must agree byte-for-byte once the single-line
    // "meta" field is dropped.
    let write = |threads: usize, elapsed_ms: f64| {
        let (tables, runs) = run_experiment_with_sink("E-T2", threads);
        let report = CampaignReport {
            id: "E-T2".to_owned(),
            title: "determinism probe".to_owned(),
            paper_ref: "Theorem 2".to_owned(),
            meta: ReportMeta {
                base_seed: 42,
                scale: "tiny".to_owned(),
                threads,
                git: None,
                elapsed_ms,
            },
            tables,
            runs,
        };
        let dir =
            std::env::temp_dir().join(format!("mla-determinism-{}-t{threads}", std::process::id()));
        let mut store = ArtifactStore::create(&dir).expect("create store");
        let path = store.write(&report).expect("write artifact");
        store.finish().expect("write index");
        let text = std::fs::read_to_string(path).expect("read artifact");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        text
    };
    let a = write(1, 1.0);
    let b = write(8, 999.0);
    assert_ne!(a, b, "meta must record the differing environment");
    assert_eq!(
        strip_meta_lines(&a),
        strip_meta_lines(&b),
        "artifact bodies must not depend on thread count"
    );
}

#[test]
fn workload_generation_is_seed_deterministic() {
    // The adversary side: the same workload seed must regenerate the exact
    // event sequence for both topologies and every merge shape.
    for topology in [Topology::Cliques, Topology::Lines] {
        for shape in [
            MergeShape::Uniform,
            MergeShape::Balanced,
            MergeShape::SizeBiased,
            MergeShape::Sequential,
        ] {
            let gen = || {
                let mut rng = SmallRng::seed_from_u64(WORKLOAD_SEED);
                match topology {
                    Topology::Cliques => random_clique_instance(20, shape, &mut rng),
                    Topology::Lines => random_line_instance(20, shape, &mut rng),
                }
            };
            assert_eq!(gen(), gen(), "workload diverged ({topology:?}, {shape:?})");
        }
    }
}

// ---- backend equivalence: dense vs segment arrangement -----------------
//
// The acceptance bar for the segment backend: for every algorithm ×
// topology, the dense and segment backends must produce the identical
// `RunOutcome` — total/moving/rearranging costs, per-event reports,
// events and final permutation — for the same instance and coin seeds.
// CI runs these under `cargo test --release` as well, where the engine's
// full-scan feasibility cross-check is off and the incremental check
// stands alone.

fn assert_backend_equivalence<D, S>(instance: &Instance, dense: D, segment: S)
where
    D: OnlineMinla<Arr = Permutation> + 'static,
    S: OnlineMinla<Arr = SegmentArrangement> + 'static,
{
    let dense_outcome = run_once(instance, dense);
    // Full-scan cross-check even in release: jump algorithms replace the
    // whole arrangement, which the incremental check alone cannot vet.
    let segment_outcome = Simulation::new(instance.clone(), segment)
        .check_feasibility(true)
        .check_feasibility_full(true)
        .run()
        .expect("instance is valid");
    assert_eq!(
        dense_outcome,
        segment_outcome,
        "backends diverged ({:?}, n = {})",
        instance.topology(),
        instance.n()
    );
}

/// A random start arrangement, so merges cross gaps from the first reveal
/// on.
fn random_start(n: usize) -> Permutation {
    Permutation::random(n, &mut SmallRng::seed_from_u64(WORKLOAD_SEED ^ COIN_SEED))
}

#[test]
fn rand_cliques_backends_agree() {
    let n = 32;
    let pi0 = random_start(n);
    let coins = || SmallRng::seed_from_u64(COIN_SEED);
    for shape in MergeShape::all() {
        let instance = shaped_instance(Topology::Cliques, n, shape);
        for policy in [
            MovePolicy::SizeBiased,
            MovePolicy::Fair,
            MovePolicy::SmallerMoves,
        ] {
            assert_backend_equivalence(
                &instance,
                RandCliques::with_policy(pi0.clone(), coins(), policy),
                RandCliques::with_policy(
                    SegmentArrangement::from_permutation(&pi0),
                    coins(),
                    policy,
                ),
            );
        }
    }
}

#[test]
fn rand_lines_backends_agree() {
    let n = 32;
    let pi0 = random_start(n);
    let coins = || SmallRng::seed_from_u64(COIN_SEED);
    for shape in MergeShape::all() {
        let instance = shaped_instance(Topology::Lines, n, shape);
        for (move_policy, rearrange_policy) in [
            (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
            (MovePolicy::Fair, RearrangePolicy::Fair),
            (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
        ] {
            assert_backend_equivalence(
                &instance,
                RandLines::with_policies(pi0.clone(), coins(), move_policy, rearrange_policy),
                RandLines::with_policies(
                    SegmentArrangement::from_permutation(&pi0),
                    coins(),
                    move_policy,
                    rearrange_policy,
                ),
            );
        }
    }
}

#[test]
fn det_closest_backends_agree() {
    let n = 12;
    for topology in [Topology::Cliques, Topology::Lines] {
        assert_backend_equivalence(
            &fixed_instance(topology, n),
            DetClosest::new(Permutation::identity(n), LopConfig::default()),
            DetClosest::with_backend(SegmentArrangement::identity(n), LopConfig::default()),
        );
    }
}

#[test]
fn opt_replay_backends_agree() {
    let n = 20;
    for topology in [Topology::Cliques, Topology::Lines] {
        // Replay the merge-tree-consistent offline optimum so the target
        // is feasible at every step.
        let instance = fixed_instance(topology, n);
        let pi0 = Permutation::identity(n);
        let target = offline_optimum(&instance, &pi0, &LopConfig::default())
            .expect("sizes match")
            .upper_perm;
        assert_backend_equivalence(
            &instance,
            OptReplay::new(pi0, target.clone()),
            OptReplay::new(SegmentArrangement::identity(n), target),
        );
    }
}

#[test]
fn segment_backend_campaigns_are_thread_count_invariant() {
    // The campaign guarantee must hold regardless of arrangement backend.
    let job = |&(topology, n): &(Topology, usize), seeds: SeedSequence| {
        let mut rng = SmallRng::seed_from_u64(seeds.child_str("workload").seed(0));
        let coins = SmallRng::seed_from_u64(seeds.child_str("coins").seed(0));
        match topology {
            Topology::Cliques => {
                let instance = random_clique_instance(n, MergeShape::Uniform, &mut rng);
                Simulation::new(
                    instance,
                    RandCliques::new(SegmentArrangement::identity(n), coins),
                )
                .run()
                .expect("valid instance")
            }
            Topology::Lines => {
                let instance = random_line_instance(n, MergeShape::Uniform, &mut rng);
                Simulation::new(
                    instance,
                    RandLines::new(SegmentArrangement::identity(n), coins),
                )
                .run()
                .expect("valid instance")
            }
        }
    };
    let specs: Vec<(Topology, usize)> = (0..12)
        .map(|i| {
            let topology = if i % 2 == 0 {
                Topology::Cliques
            } else {
                Topology::Lines
            };
            (topology, 8 + i % 5)
        })
        .collect();
    let reference = Campaign::new(SeedSequence::new(0xD1CE))
        .threads(1)
        .run(&specs, job);
    for threads in [4, 8] {
        let outcomes = Campaign::new(SeedSequence::new(0xD1CE))
            .threads(threads)
            .run(&specs, job);
        assert_eq!(
            outcomes, reference,
            "segment campaign diverged at {threads} threads"
        );
    }
}

/// The backends also agree on the oracle-tractable workload families
/// (interval, series-parallel, tree merge-sequences).
#[test]
fn family_workloads_agree_across_backends() {
    let n = 64;
    let root = SeedSequence::new(WORKLOAD_SEED);
    for family in TopologyFamily::all() {
        let mut source = FamilyWorkload::new(family, n, &root);
        let instance = mla::graph::collect_instance(&mut source).expect("valid family stream");
        let coins = || SmallRng::seed_from_u64(COIN_SEED);
        match family.topology() {
            Topology::Cliques => assert_backend_equivalence(
                &instance,
                RandCliques::new(Permutation::identity(n), coins()),
                RandCliques::new(SegmentArrangement::identity(n), coins()),
            ),
            Topology::Lines => assert_backend_equivalence(
                &instance,
                RandLines::new(Permutation::identity(n), coins()),
                RandLines::new(SegmentArrangement::identity(n), coins()),
            ),
        }
    }
}

/// A recording window keeps exactly the trailing `k` reports and events
/// of the fully recorded run; totals and the final permutation do not
/// change.
#[test]
fn record_window_keeps_the_trailing_reports() {
    let n = 64;
    let instance = fixed_instance(Topology::Cliques, n);
    let run = |window: Option<usize>| {
        let mut sim = Simulation::new(
            instance.clone(),
            RandCliques::new(SegmentArrangement::identity(n), SmallRng::seed_from_u64(2)),
        );
        if let Some(k) = window {
            sim = sim.record_window(k);
        }
        sim.run().expect("valid instance")
    };
    let full = run(None);
    assert!(full.events_recorded && full.recorded_window.is_none());
    for k in [0usize, 1, 7, 1000] {
        let windowed = run(Some(k));
        let kept = k.min(full.per_event.len());
        assert!(!windowed.events_recorded);
        assert_eq!(windowed.recorded_window, Some(k));
        assert_eq!(windowed.total_cost, full.total_cost);
        assert_eq!(windowed.final_perm, full.final_perm);
        assert_eq!(
            windowed.per_event,
            full.per_event[full.per_event.len() - kept..],
            "window {k} kept the wrong reports"
        );
        assert_eq!(
            windowed.events,
            full.events[full.events.len() - kept..],
            "window {k} kept the wrong events"
        );
        // Partial event logs cannot replay as an instance.
        assert!(matches!(
            windowed.to_instance(Topology::Cliques, n),
            Err(SimError::EventsNotRecorded)
        ));
    }
}
