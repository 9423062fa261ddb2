//! Cross-crate invariant matrix: every algorithm × topology × workload
//! shape maintains the MinLA invariant and reports exact costs.

use mla::graph::SnapshotMode;
use mla::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds an instance for the given topology and shape.
fn build_instance(topology: Topology, n: usize, shape: MergeShape, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    match topology {
        Topology::Cliques => random_clique_instance(n, shape, &mut rng),
        Topology::Lines => random_line_instance(n, shape, &mut rng),
    }
}

/// Runs with feasibility checking on and checks that the run's total cost
/// is the sum of its per-reveal reports. (The per-reveal cost = Kendall
/// distance oracle is `drive` in `crates/core/tests/properties.rs`.)
fn assert_clean_run<A: OnlineMinla>(instance: Instance, algorithm: A) {
    let outcome = Simulation::new(instance, algorithm)
        .check_feasibility(true)
        .run()
        .expect("run must maintain the MinLA invariant");
    let per_event_total: u128 = outcome
        .per_event
        .iter()
        .map(|r| u128::from(r.total()))
        .sum();
    assert_eq!(outcome.total_cost, per_event_total);
}

#[test]
fn all_randomized_policies_maintain_invariants_cliques() {
    for shape in MergeShape::all() {
        for seed in 0..4u64 {
            let n = 16;
            let instance = build_instance(Topology::Cliques, n, shape, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x1);
            let pi0 = Permutation::random(n, &mut rng);
            for policy in [
                MovePolicy::SizeBiased,
                MovePolicy::Fair,
                MovePolicy::SmallerMoves,
            ] {
                assert_clean_run(
                    instance.clone(),
                    RandCliques::with_policy(
                        pi0.clone(),
                        SmallRng::seed_from_u64(seed ^ 0x2),
                        policy,
                    ),
                );
            }
        }
    }
}

#[test]
fn all_randomized_policies_maintain_invariants_lines() {
    for shape in MergeShape::all() {
        for seed in 0..4u64 {
            let n = 16;
            let instance = build_instance(Topology::Lines, n, shape, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x3);
            let pi0 = Permutation::random(n, &mut rng);
            for (move_policy, rearrange_policy) in [
                (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
                (MovePolicy::Fair, RearrangePolicy::Fair),
                (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
                (MovePolicy::SizeBiased, RearrangePolicy::Fair),
                (MovePolicy::Fair, RearrangePolicy::CostBiased),
            ] {
                assert_clean_run(
                    instance.clone(),
                    RandLines::with_policies(
                        pi0.clone(),
                        SmallRng::seed_from_u64(seed ^ 0x4),
                        move_policy,
                        rearrange_policy,
                    ),
                );
            }
        }
    }
}

/// Lazy size-only merge info must be a pure execution-strategy change:
/// for every policy × topology × merge shape, a run on the segment
/// backend (where the `O(log n)` slot-based locate engages) is
/// bit-identical — costs, per-event records and final arrangement — to
/// the same run forced onto eager member-walking snapshots.
#[test]
fn lazy_merge_info_is_bit_identical_to_eager_for_every_policy() {
    let n = 32;
    for shape in MergeShape::all() {
        for seed in 0..3u64 {
            let cliques = build_instance(Topology::Cliques, n, shape, seed);
            for policy in [
                MovePolicy::SizeBiased,
                MovePolicy::Fair,
                MovePolicy::SmallerMoves,
            ] {
                let run = |eager: bool| {
                    Simulation::new(
                        cliques.clone(),
                        RandCliques::with_policy(
                            SegmentArrangement::identity(n),
                            SmallRng::seed_from_u64(seed ^ 0xA),
                            policy,
                        ),
                    )
                    .check_feasibility(true)
                    .eager_snapshots(eager)
                    .run()
                    .expect("clique run stays feasible")
                };
                assert_eq!(
                    run(true),
                    run(false),
                    "lazy diverged from eager (cliques, {policy:?}, {shape:?}, seed {seed})"
                );
            }
            let lines = build_instance(Topology::Lines, n, shape, seed);
            for (move_policy, rearrange_policy) in [
                (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
                (MovePolicy::Fair, RearrangePolicy::Fair),
                (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
            ] {
                let run = |eager: bool| {
                    Simulation::new(
                        lines.clone(),
                        RandLines::with_policies(
                            SegmentArrangement::identity(n),
                            SmallRng::seed_from_u64(seed ^ 0xB),
                            move_policy,
                            rearrange_policy,
                        ),
                    )
                    .check_feasibility(true)
                    .eager_snapshots(eager)
                    .run()
                    .expect("line run stays feasible")
                };
                assert_eq!(
                    run(true),
                    run(false),
                    "lazy diverged from eager (lines, {move_policy:?}/{rearrange_policy:?}, \
                     {shape:?}, seed {seed})"
                );
            }
        }
    }
}

/// Serves every streamed reveal with the snapshots the engine would pick
/// (lazy: these algorithms and the segment backend both support them) and
/// returns the final arrangement.
fn serve_streamed<A: OnlineMinla<Arr = SegmentArrangement>>(
    topology: Topology,
    n: usize,
    shape: MergeShape,
    mut algorithm: A,
) -> SegmentArrangement {
    assert!(algorithm.wants_lazy_info() && algorithm.arrangement().supports_component_locate());
    let mut source = StreamingWorkload::new(topology, n, shape, 1);
    let mut state = GraphState::new(topology, n);
    while let Some(event) = source.next_event() {
        let info = state
            .apply_with(event, SnapshotMode::Lazy)
            .expect("streamed reveals are valid");
        algorithm.serve(event, &info, &state);
    }
    algorithm.arrangement().clone()
}

/// The segment backend's merge work, counted rather than timed: building
/// the arrangement writes each node's node-map entries once, and a merge
/// rewrites only the smaller segment's nodes, so a node is rewritten at
/// most ⌊log₂ n⌋ times whatever the merge order — and whichever block
/// the move policy picks to move (the fair coin often moves the larger).
/// Every merge is a whole-segment `merge_move`, the only merge the
/// backend has: it panics on any other block.
#[test]
fn segment_node_map_writes_stay_within_n_log_n_on_every_shape() {
    let n: usize = 3000;
    let bound = (n * (n.ilog2() as usize + 1)) as u64;
    for shape in MergeShape::all() {
        for (move_policy, rearrange_policy) in [
            (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
            (MovePolicy::Fair, RearrangePolicy::Fair),
            (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
        ] {
            for topology in [Topology::Cliques, Topology::Lines] {
                let arr = SegmentArrangement::identity(n);
                let coins = SmallRng::seed_from_u64(42);
                let after = match topology {
                    Topology::Cliques => serve_streamed(
                        topology,
                        n,
                        shape,
                        RandCliques::with_policy(arr, coins, move_policy),
                    ),
                    Topology::Lines => serve_streamed(
                        topology,
                        n,
                        shape,
                        RandLines::with_policies(arr, coins, move_policy, rearrange_policy),
                    ),
                };
                let case = format!("{topology:?}, {shape:?}, {move_policy:?}");
                assert_eq!(after.segment_count(), 1, "{case}");
                let writes = after.node_map_writes();
                assert!(
                    writes <= bound,
                    "{writes} node-map writes for n = {n} ({case}); bound {bound}"
                );
            }
        }
    }
}

#[test]
fn det_maintains_invariants_and_anchors_to_pi0() {
    for topology in [Topology::Cliques, Topology::Lines] {
        for seed in 0..4u64 {
            let n = 14;
            let instance = build_instance(topology, n, MergeShape::Uniform, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5);
            let pi0 = Permutation::random(n, &mut rng);
            let alg = DetClosest::new(pi0.clone(), LopConfig::default());
            let outcome = Simulation::new(instance.clone(), alg)
                .check_feasibility(true)
                .run()
                .expect("Det maintains the invariant");
            // Det's final permutation is the closest feasible to pi0 for the
            // final graph.
            let placement =
                closest_feasible(&instance.final_state(), &pi0, &LopConfig::default()).unwrap();
            assert_eq!(
                pi0.kendall_distance(&outcome.final_perm),
                placement.distance,
                "Det must end at distance Δ* from pi0 ({topology}, seed {seed})"
            );
        }
    }
}

#[test]
fn datacenter_workload_runs_all_algorithms() {
    let mut rng = SmallRng::seed_from_u64(77);
    let (instance, _) = datacenter_instance(40, &DatacenterConfig::default(), &mut rng);
    let pi0 = Permutation::random(40, &mut rng);
    assert_clean_run(
        instance.clone(),
        RandCliques::new(pi0.clone(), SmallRng::seed_from_u64(1)),
    );
    assert_clean_run(instance, DetClosest::new(pi0, LopConfig::default()));
}

#[test]
fn binary_tree_workload_runs_both_topologies() {
    let mut rng = SmallRng::seed_from_u64(31);
    for topology in [Topology::Cliques, Topology::Lines] {
        let adversary = BinaryTreeAdversary::sample(4, topology, &mut rng);
        let pi0 = Permutation::identity(16);
        match topology {
            Topology::Cliques => assert_clean_run(
                adversary.instance().clone(),
                RandCliques::new(pi0, SmallRng::seed_from_u64(2)),
            ),
            Topology::Lines => assert_clean_run(
                adversary.instance().clone(),
                RandLines::new(pi0, SmallRng::seed_from_u64(3)),
            ),
        }
    }
}

#[test]
fn engine_determinism_same_seeds_same_outcome() {
    let instance = build_instance(Topology::Lines, 20, MergeShape::Uniform, 5);
    let pi0 = Permutation::identity(20);
    let run = |alg_seed: u64| {
        Simulation::new(
            instance.clone(),
            RandLines::new(pi0.clone(), SmallRng::seed_from_u64(alg_seed)),
        )
        .run()
        .unwrap()
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.final_perm, b.final_perm);
    // Different coins almost surely diverge on this workload.
    let c = run(10);
    assert!(a.final_perm != c.final_perm || a.total_cost != c.total_cost);
}

#[test]
fn costs_split_into_moving_and_rearranging_for_lines() {
    let instance = build_instance(Topology::Lines, 18, MergeShape::Uniform, 8);
    let pi0 = Permutation::identity(18);
    let outcome = Simulation::new(instance, RandLines::new(pi0, SmallRng::seed_from_u64(12)))
        .run()
        .unwrap();
    assert!(outcome.moving_cost > 0);
    assert!(outcome.rearranging_cost > 0);
    assert_eq!(
        outcome.total_cost,
        outcome.moving_cost + outcome.rearranging_cost
    );
}

#[test]
fn cliques_have_no_rearranging_cost() {
    let instance = build_instance(Topology::Cliques, 18, MergeShape::Uniform, 9);
    let pi0 = Permutation::identity(18);
    let outcome = Simulation::new(instance, RandCliques::new(pi0, SmallRng::seed_from_u64(13)))
        .run()
        .unwrap();
    assert_eq!(outcome.rearranging_cost, 0);
}
