//! Pinned outcomes: the exact costs and final permutation of a fixed set
//! of streamed runs, committed as a digest table, so a change that must
//! not move outcomes is checked by this test rather than by hand.
//!
//! One row per topology × merge shape × move policy (`rand`, `fair`,
//! `smaller-moves`) at [`N`], plus `det` and `opt` rows at [`JUMP_N`],
//! which exercise `assign`. Every row runs streamed with the feasibility
//! check on and must give the same digest on both arrangement backends:
//! the moving and rearranging totals plus an FNV-1a hash of the final
//! permutation. Each final permutation's cost, re-derived from scratch
//! as Σ|pos(u) − pos(v)| over the revealed edges, must equal the MinLA
//! value, so the pins are minimum linear arrangements and not just stable
//! bytes.
//!
//! A change that moves an outcome on purpose regenerates the table and
//! says why:
//!
//! ```text
//! cargo test --release --test pinned_outcomes -- --ignored --nocapture
//! ```

use mla::graph::{collect_instance, final_state_of};
use mla::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Node count of the `rand`, `fair` and `smaller-moves` rows.
const N: usize = 400;
/// Node count of the `det` and `opt` rows, which run an offline solve.
const JUMP_N: usize = 48;
const WORKLOAD_SEED: u64 = 0x5EED;
const COIN_SEED: u64 = 42;

/// A run's pinned result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    moving: u128,
    rearranging: u128,
    perm_hash: u64,
}

/// FNV-1a over the node order, each node as its little-endian `u32` id.
fn perm_hash(perm: &Permutation) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for node in perm.iter() {
        for byte in (node.index() as u32).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn source(topology: Topology, n: usize, shape: MergeShape) -> StreamingWorkload {
    StreamingWorkload::new(topology, n, shape, WORKLOAD_SEED)
}

/// Streams the run with the check on, checks that the final permutation
/// is a MinLA of the final graph, and digests the outcome.
fn digest<A: OnlineMinla>(topology: Topology, n: usize, shape: MergeShape, algorithm: A) -> Digest {
    let outcome = Simulation::from_source(source(topology, n, shape), algorithm)
        .check_feasibility(true)
        .record_events(false)
        .run()
        .expect("streamed runs keep the MinLA invariant");
    let state = final_state_of(&mut source(topology, n, shape)).expect("valid stream");
    assert_eq!(
        state.arrangement_cost(&outcome.final_perm),
        state.minla_value(),
        "final permutation is not a MinLA ({topology:?}, {shape:?})"
    );
    Digest {
        moving: outcome.moving_cost,
        rearranging: outcome.rearranging_cost,
        perm_hash: perm_hash(&outcome.final_perm),
    }
}

/// The move and rearrange policies a policy name stands for, as
/// `mla-serve` maps them.
fn policies(name: &str) -> (MovePolicy, RearrangePolicy) {
    match name {
        "rand" => (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
        "fair" => (MovePolicy::Fair, RearrangePolicy::Fair),
        "smaller-moves" => (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
        other => panic!("no randomized policy {other:?}"),
    }
}

/// Runs one row's configuration on the arrangement backend `A`.
fn run_on<A: Arrangement>(
    topology: Topology,
    shape: MergeShape,
    policy: &str,
    identity: impl Fn(usize) -> A,
) -> Digest {
    let coins = || SmallRng::seed_from_u64(COIN_SEED);
    match policy {
        "det" => digest(
            topology,
            JUMP_N,
            shape,
            DetClosest::with_backend(identity(JUMP_N), LopConfig::default()),
        ),
        "opt" => {
            let instance = collect_instance(&mut source(topology, JUMP_N, shape)).unwrap();
            let target = offline_optimum(
                &instance,
                &Permutation::identity(JUMP_N),
                &LopConfig::default(),
            )
            .expect("sizes match")
            .upper_perm;
            digest(
                topology,
                JUMP_N,
                shape,
                OptReplay::new(identity(JUMP_N), target),
            )
        }
        _ => {
            let (move_policy, rearrange_policy) = policies(policy);
            match topology {
                Topology::Cliques => digest(
                    topology,
                    N,
                    shape,
                    RandCliques::with_policy(identity(N), coins(), move_policy),
                ),
                Topology::Lines => digest(
                    topology,
                    N,
                    shape,
                    RandLines::with_policies(identity(N), coins(), move_policy, rearrange_policy),
                ),
            }
        }
    }
}

/// Every pinned configuration, in table order.
fn configurations() -> Vec<(Topology, MergeShape, &'static str)> {
    let mut out = Vec::new();
    for topology in [Topology::Cliques, Topology::Lines] {
        for shape in MergeShape::all() {
            for policy in ["rand", "fair", "smaller-moves"] {
                out.push((topology, shape, policy));
            }
        }
        for policy in ["det", "opt"] {
            out.push((topology, MergeShape::Uniform, policy));
        }
    }
    out
}

#[test]
fn every_pinned_row_reproduces_on_both_backends() {
    assert_eq!(
        PINNED
            .map(|(topology, shape, policy, ..)| (topology, shape, policy))
            .to_vec(),
        configurations(),
        "the table must hold exactly one row per configuration"
    );
    for (topology, shape, policy, moving, rearranging, perm_hash) in PINNED {
        let want = Digest {
            moving,
            rearranging,
            perm_hash,
        };
        let case = format!("{topology:?}, {shape:?}, {policy}");
        let dense = run_on(topology, shape, policy, Permutation::identity);
        assert_eq!(dense, want, "dense backend moved: {case}");
        let segment = run_on(topology, shape, policy, SegmentArrangement::identity);
        assert_eq!(segment, want, "segment backend moved: {case}");
    }
}

#[test]
#[ignore = "prints the pinned table; run only after an intentional outcome change"]
fn regenerate() {
    for (topology, shape, policy) in configurations() {
        let Digest {
            moving,
            rearranging,
            perm_hash,
        } = run_on(topology, shape, policy, Permutation::identity);
        println!(
            "    (Topology::{topology:?}, MergeShape::{shape:?}, {policy:?}, \
             {moving}, {rearranging}, {perm_hash:#018x}),"
        );
    }
}

/// The table as `regenerate` prints it: topology, shape, policy, moving
/// total, rearranging total, permutation hash.
#[rustfmt::skip]
const PINNED: [(Topology, MergeShape, &str, u128, u128, u64); 28] = [
    (Topology::Cliques, MergeShape::Uniform, "rand", 150530, 0, 0xd086270bd82c1cd5),
    (Topology::Cliques, MergeShape::Uniform, "fair", 208193, 0, 0xbc9cc413ae4b7d8d),
    (Topology::Cliques, MergeShape::Uniform, "smaller-moves", 107175, 0, 0x2abecf5e374d01bd),
    (Topology::Cliques, MergeShape::SizeBiased, "rand", 103899, 0, 0x9d9382a3088aa1f5),
    (Topology::Cliques, MergeShape::SizeBiased, "fair", 987498, 0, 0xc18301e1a432f2ed),
    (Topology::Cliques, MergeShape::SizeBiased, "smaller-moves", 64251, 0, 0x970e3f9a6d77fce9),
    (Topology::Cliques, MergeShape::Sequential, "rand", 38889, 0, 0x06606ec0e61d98b9),
    (Topology::Cliques, MergeShape::Sequential, "fair", 1525775, 0, 0x431cb87847a846a5),
    (Topology::Cliques, MergeShape::Sequential, "smaller-moves", 30051, 0, 0x3918416a784fe7d9),
    (Topology::Cliques, MergeShape::Balanced, "rand", 215035, 0, 0x981458c6410a855d),
    (Topology::Cliques, MergeShape::Balanced, "fair", 217621, 0, 0x09f9171e8020a52d),
    (Topology::Cliques, MergeShape::Balanced, "smaller-moves", 167587, 0, 0xb01ba8f9f7f7be99),
    (Topology::Cliques, MergeShape::Uniform, "det", 2032, 0, 0xddfe81ec81ef08a5),
    (Topology::Cliques, MergeShape::Uniform, "opt", 465, 0, 0xab42a4ac034342a5),
    (Topology::Lines, MergeShape::Uniform, "rand", 163132, 53021, 0xb828475c4ad9f8b1),
    (Topology::Lines, MergeShape::Uniform, "fair", 188845, 106700, 0xb828475c4ad9f8b1),
    (Topology::Lines, MergeShape::Uniform, "smaller-moves", 107175, 41252, 0xc54f5961c34a89e1),
    (Topology::Lines, MergeShape::SizeBiased, "rand", 92445, 80849, 0x2919fd93bc485da1),
    (Topology::Lines, MergeShape::SizeBiased, "fair", 787328, 3766318, 0x2919fd93bc485da1),
    (Topology::Lines, MergeShape::SizeBiased, "smaller-moves", 64251, 40541, 0xfbb69066bd7109f9),
    (Topology::Lines, MergeShape::Sequential, "rand", 50231, 243708, 0x6b1e2d08d2a1fa65),
    (Topology::Lines, MergeShape::Sequential, "fair", 1627276, 5384183, 0xf6fde65ef8141275),
    (Topology::Lines, MergeShape::Sequential, "smaller-moves", 30051, 37286, 0x6b1e2d08d2a1fa65),
    (Topology::Lines, MergeShape::Balanced, "rand", 174283, 18738, 0x5502b9ab7e1e47e1),
    (Topology::Lines, MergeShape::Balanced, "fair", 159401, 69832, 0x5502b9ab7e1e47e1),
    (Topology::Lines, MergeShape::Balanced, "smaller-moves", 167587, 50976, 0x051efe3dd97cc881),
    (Topology::Lines, MergeShape::Uniform, "det", 2430, 0, 0x70e545d80fd25815),
    (Topology::Lines, MergeShape::Uniform, "opt", 536, 0, 0x70e545d80fd25815),
];
