//! Checkpoint/restore property suite: the crash-recovery contract of
//! the session layer.
//!
//! **Contract.** For every policy × topology × backend, a session
//! checkpointed after any prefix of its reveal stream and restored —
//! even in another process — replays the remaining reveals
//! **bit-identically** to the uninterrupted run: same RNG draws, same
//! retained history, same final permutation, same exact cost totals.
//! The uninterrupted run itself equals plain [`Simulation::run`] of the
//! same algorithm and seed, however the reveals are split into frames.
//! (The cross-process half lives in `crates/serve/tests/`, where the
//! `mla-serve` binary is reachable; this suite proves the codec and the
//! in-process half.)
//!
//! **Corruption.** Any damaged checkpoint — truncated, bit-flipped,
//! wrong version, wrong magic, trailing garbage, or re-sealed with an
//! arrangement that disagrees with its graph state — yields a structured
//! [`CheckpointError`], never a panic and never a silently-wrong
//! restore.

use mla_adversary::{random_clique_instance, random_line_instance, MergeShape};
use mla_core::{
    DetClosest, MovePolicy, OnlineMinla, OptReplay, RandCliques, RandLines, RearrangePolicy,
};
use mla_graph::{GraphState, Instance, RevealEvent, Topology, UnionFind};
use mla_offline::LopConfig;
use mla_permutation::codec::{put_len, put_u32, put_u8, ByteReader};
use mla_permutation::{Arrangement, MergeOrder, Node, Permutation, SegmentArrangement};
use mla_sim::{
    checkpoint, decode_session, encode_session, open_session, BackendKind, CheckpointError,
    PolicyKind, RecordMode, RunOutcome, SessionSpec, Simulation, TenantSession,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every policy the session layer serves.
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Rand,
    PolicyKind::Fair,
    PolicyKind::SmallerMoves,
    PolicyKind::Det,
    PolicyKind::Opt,
];

const BACKENDS: [BackendKind; 2] = [BackendKind::Dense, BackendKind::Segment];

fn instance_events(topology: Topology, n: usize, seed: u64) -> Vec<RevealEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match topology {
        Topology::Cliques => random_clique_instance(n, MergeShape::Uniform, &mut rng)
            .events()
            .to_vec(),
        Topology::Lines => random_line_instance(n, MergeShape::Uniform, &mut rng)
            .events()
            .to_vec(),
    }
}

/// A spec for one cell of the policy × topology × backend grid. `Opt`
/// gets a random (seed-fixed) replay target.
fn grid_spec(
    topology: Topology,
    n: usize,
    policy: PolicyKind,
    backend: BackendKind,
    seed: u64,
) -> SessionSpec {
    let spec = SessionSpec::new(topology, n, policy, backend, seed);
    match policy {
        PolicyKind::Opt => spec.target(Permutation::random(
            n,
            &mut SmallRng::seed_from_u64(seed ^ 0xa5),
        )),
        _ => spec,
    }
}

/// Plain [`Simulation::run`] of the algorithm `open_session(spec)` serves
/// with, on the same seed: the reference engine a session must equal.
fn reference_outcome(spec: &SessionSpec, events: &[RevealEvent]) -> RunOutcome {
    match spec.backend {
        BackendKind::Dense => reference_run(spec, events, Permutation::identity(spec.n)),
        BackendKind::Segment => reference_run(spec, events, SegmentArrangement::identity(spec.n)),
    }
}

fn reference_run<P: Arrangement>(spec: &SessionSpec, events: &[RevealEvent], arr: P) -> RunOutcome {
    fn run(instance: Instance, algorithm: impl OnlineMinla) -> RunOutcome {
        Simulation::new(instance, algorithm).run().unwrap()
    }
    let instance = Instance::new(spec.topology, spec.n, events.to_vec()).unwrap();
    let rng = SmallRng::seed_from_u64(spec.seed);
    let (moves, rearranges) = match spec.policy {
        PolicyKind::Fair => (MovePolicy::Fair, RearrangePolicy::Fair),
        PolicyKind::SmallerMoves => (MovePolicy::SmallerMoves, RearrangePolicy::Cheapest),
        _ => (MovePolicy::SizeBiased, RearrangePolicy::CostBiased),
    };
    match (spec.policy, spec.topology) {
        (PolicyKind::Det, _) => run(
            instance,
            DetClosest::with_backend(arr, LopConfig::default()),
        ),
        (PolicyKind::Opt, _) => run(instance, OptReplay::new(arr, spec.target.clone().unwrap())),
        (_, Topology::Cliques) => run(instance, RandCliques::with_policy(arr, rng, moves)),
        (_, Topology::Lines) => run(
            instance,
            RandLines::with_policies(arr, rng, moves, rearranges),
        ),
    }
}

/// Splits `events` into frames whose sizes cycle through 1, 4, 2, 7, 3.
fn mixed_frames(events: &[RevealEvent]) -> Vec<&[RevealEvent]> {
    let mut frames = Vec::new();
    let mut rest = events;
    for size in [1, 4, 2, 7, 3].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (frame, tail) = rest.split_at(size.min(rest.len()));
        frames.push(frame);
        rest = tail;
    }
    frames
}

/// Checkpoint after `events[..cut]`, restore from bytes, replay the
/// remainder in ragged frames; the outcome must equal `want`.
fn assert_prefix_replays(
    spec: &SessionSpec,
    events: &[RevealEvent],
    cut: usize,
    want: &mla_sim::RunOutcome,
) {
    let mut first = open_session(spec.clone()).unwrap();
    first.apply_events(&events[..cut]).unwrap();
    let bytes = encode_session(first.as_ref());
    drop(first);
    let mut resumed = decode_session(&bytes).unwrap();
    for frame in events[cut..].chunks(3) {
        resumed.apply_events(frame).unwrap();
    }
    assert_eq!(
        &resumed.outcome(),
        want,
        "{:?}/{:?}/{:?} diverged after restore at prefix {cut}",
        spec.policy,
        spec.topology,
        spec.backend,
    );
}

/// The tentpole property over the whole grid: a session fed 1-reveal or
/// mixed-size frames equals the reference engine, and checkpoints at
/// prefix 0, a few random interior prefixes, and n−1 all replay
/// bit-identically.
#[test]
fn every_policy_topology_backend_restores_bit_identically_at_any_prefix() {
    let n = 18;
    let mut cut_rng = SmallRng::seed_from_u64(0xc0de);
    for topology in [Topology::Cliques, Topology::Lines] {
        let events = instance_events(topology, n, 17);
        for policy in POLICIES {
            for backend in BACKENDS {
                let spec = grid_spec(topology, n, policy, backend, 23);
                let want = reference_outcome(&spec, &events);
                let single: Vec<&[RevealEvent]> = events.chunks(1).collect();
                for frames in [single, mixed_frames(&events)] {
                    let mut uninterrupted = open_session(spec.clone()).unwrap();
                    for frame in &frames {
                        uninterrupted.apply_events(frame).unwrap();
                    }
                    assert_eq!(
                        uninterrupted.outcome(),
                        want,
                        "{policy:?}/{topology:?}/{backend:?} session differs from \
                         Simulation::run with {} frames",
                        frames.len()
                    );
                }

                let mut cuts = vec![0, events.len() - 1];
                for _ in 0..3 {
                    cuts.push(cut_rng.gen_range(1..events.len()));
                }
                for cut in cuts {
                    assert_prefix_replays(&spec, &events, cut, &want);
                }
            }
        }
    }
}

/// Restoring is stable under recording modes: windowed and disabled
/// history checkpoints replay to the same totals as full recording.
#[test]
fn record_modes_checkpoint_and_replay_consistently() {
    let n = 16;
    let events = instance_events(Topology::Cliques, n, 5);
    let cut = events.len() / 2;
    let mut totals = Vec::new();
    for record in [RecordMode::Full, RecordMode::Off, RecordMode::Window(4)] {
        let spec = SessionSpec::new(
            Topology::Cliques,
            n,
            PolicyKind::Rand,
            BackendKind::Segment,
            9,
        )
        .record(record);
        let mut uninterrupted = open_session(spec.clone()).unwrap();
        uninterrupted.apply_events(&events).unwrap();
        let want = uninterrupted.outcome();
        assert_prefix_replays(&spec, &events, cut, &want);
        totals.push((want.total_cost, want.final_perm.clone()));
    }
    // History retention must not change what happened — only what is
    // remembered about it.
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[0], totals[2]);
}

/// A mid-stream golden checkpoint for the corruption fuzz below.
fn golden_checkpoint() -> Vec<u8> {
    let n = 12;
    let events = instance_events(Topology::Cliques, n, 2);
    let spec = SessionSpec::new(
        Topology::Cliques,
        n,
        PolicyKind::Rand,
        BackendKind::Segment,
        3,
    );
    let mut session = open_session(spec).unwrap();
    session.apply_events(&events[..events.len() / 2]).unwrap();
    encode_session(session.as_ref())
}

#[test]
fn canonical_corruptions_yield_their_specific_errors() {
    let good = golden_checkpoint();
    assert!(decode_session(&good).is_ok());

    assert!(matches!(
        decode_session(&[]),
        Err(CheckpointError::Truncated)
    ));

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        decode_session(&bad_magic),
        Err(CheckpointError::BadMagic)
    ));

    let mut future = good.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        decode_session(&future),
        Err(CheckpointError::UnsupportedVersion { found: 99 })
    ));

    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    assert!(matches!(
        decode_session(&flipped),
        Err(CheckpointError::ChecksumMismatch)
    ));

    let mut trailing = good;
    trailing.push(0);
    assert!(matches!(
        decode_session(&trailing),
        Err(CheckpointError::Malformed { .. })
    ));
}

#[test]
fn every_truncation_prefix_is_a_structured_error() {
    let good = golden_checkpoint();
    for cut in 0..good.len() {
        assert!(decode_session(&good[..cut]).is_err(), "prefix {cut}");
    }
}

/// Validly sealed bodies whose node counts promise far more entries than
/// the bytes that follow: each must fail with a structured error before
/// anything is allocated for the promised count.
#[test]
fn counts_beyond_the_remaining_bytes_are_rejected_before_allocating() {
    let huge = u32::MAX as usize;
    let spec = |n: usize, backend: BackendKind| {
        let mut body = Vec::new();
        SessionSpec::new(Topology::Cliques, n, PolicyKind::Rand, backend, 1).encode_into(&mut body);
        body
    };
    // A dense arrangement declaring `u32::MAX` nodes, then nothing; a
    // segment one declaring `u32::MAX` nodes in zero segments.
    let mut dense = spec(huge, BackendKind::Dense);
    put_len(&mut dense, huge);
    let mut segment = spec(huge, BackendKind::Segment);
    put_len(&mut segment, huge);
    put_len(&mut segment, 0);
    // A valid one-node session whose union-find declares `u32::MAX`
    // nodes.
    let mut union_find = spec(1, BackendKind::Dense);
    put_len(&mut union_find, 1);
    put_u32(&mut union_find, 0);
    put_u8(&mut union_find, 0); // cliques graph state
    put_len(&mut union_find, huge);
    for (label, body) in [
        ("dense", dense),
        ("segment", segment),
        ("union-find", union_find),
    ] {
        let err = decode_session(&checkpoint::seal(&body)).expect_err(label);
        assert!(
            matches!(err, CheckpointError::Malformed { .. }),
            "{label}: {err:?}"
        );
    }
}

/// `session`'s checkpoint with one section of its body, the
/// arrangement (`section` 0) or the graph state (1), swapped for what
/// `encode` writes, re-sealed: the checksum holds, so only the decoder's
/// own checks can refuse the body.
fn resealed(
    session: &dyn TenantSession,
    section: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let sealed = encode_session(session);
    let (version, body) = checkpoint::open(&sealed).unwrap();
    let mut r = ByteReader::new(body);
    let backend = SessionSpec::decode_from(&mut r).unwrap().backend;
    let mut bounds = vec![body.len() - r.remaining()];
    match backend {
        BackendKind::Dense => drop(Permutation::decode_from(&mut r).unwrap()),
        BackendKind::Segment => drop(SegmentArrangement::decode_from(&mut r, version).unwrap()),
    }
    bounds.push(body.len() - r.remaining());
    drop(GraphState::decode_from(&mut r).unwrap());
    bounds.push(body.len() - r.remaining());
    let mut crafted = body[..bounds[section]].to_vec();
    encode(&mut crafted);
    crafted.extend_from_slice(&body[bounds[section + 1]..]);
    checkpoint::seal(&crafted)
}

/// A segment arrangement of `order` with each block `start..end` of
/// `blocks` folded into one segment by zero-gap merges, which leave the
/// layout as it is.
fn segments(order: &[usize], blocks: &[(usize, usize)]) -> SegmentArrangement {
    let mut arr = SegmentArrangement::from_permutation(&Permutation::from_indices(order).unwrap());
    for &(start, end) in blocks {
        for i in (start..end - 1).rev() {
            arr.merge_move(i..i + 1, i + 1..end, MergeOrder::KEEP);
        }
    }
    arr
}

/// Re-sealed bodies whose arrangement splits a component, or holds a
/// path out of order, are refused for the policies that locate
/// components: on restore, their next reveal would panic the serving
/// thread ("lazy locate missed", or the dense locate's contiguity check)
/// or silently leave a component scattered. `det` and `opt` locate
/// nothing and restore such bodies as before.
#[test]
fn resealed_arrangements_that_split_a_component_are_refused() {
    type Encode = Box<dyn Fn(&mut Vec<u8>)>;
    type Case<'a> = (&'a str, Topology, BackendKind, &'a [(usize, usize)], Encode);
    let segment = |arr: SegmentArrangement| -> Encode { Box::new(move |out| arr.encode_into(out)) };
    let dense = |order: &[usize]| -> Encode {
        let pi = Permutation::from_indices(order).unwrap();
        Box::new(move |out| pi.encode_into(out))
    };
    let clique = [(0, 1)];
    let cliques = [(0, 1), (2, 3)];
    let path = [(0, 1), (1, 2)];
    let paths = [(0, 1), (2, 3)];
    let cases: [Case; 9] = [
        (
            "cliques, segments {0} {1} {2} {3}",
            Topology::Cliques,
            BackendKind::Segment,
            &clique,
            segment(SegmentArrangement::identity(4)),
        ),
        (
            "cliques, segments {0} {1 2} {3}",
            Topology::Cliques,
            BackendKind::Segment,
            &clique,
            segment(segments(&[0, 1, 2, 3], &[(1, 3)])),
        ),
        // Each segment as long as the component of its first node, but
        // {0, 1} and {2, 3} split across them.
        (
            "cliques, segments {0 2} {1 3}",
            Topology::Cliques,
            BackendKind::Segment,
            &cliques,
            segment(segments(&[0, 2, 1, 3], &[(0, 2), (2, 4)])),
        ),
        // {0, 1} whole inside a segment that also holds node 2.
        (
            "cliques, segments {0 1 2} {3}",
            Topology::Cliques,
            BackendKind::Segment,
            &clique,
            segment(segments(&[0, 1, 2, 3], &[(0, 3)])),
        ),
        (
            "cliques, dense [0 2 1 3]",
            Topology::Cliques,
            BackendKind::Dense,
            &clique,
            dense(&[0, 2, 1, 3]),
        ),
        (
            "lines, one segment [1 0 2]",
            Topology::Lines,
            BackendKind::Segment,
            &path,
            segment(segments(&[1, 0, 2, 3], &[(0, 3)])),
        ),
        // Each edge joins nodes one apart, but in two segments.
        (
            "lines, segments [0 2] [3 1]",
            Topology::Lines,
            BackendKind::Segment,
            &paths,
            segment(segments(&[0, 2, 3, 1], &[(0, 2), (2, 4)])),
        ),
        // The path 0-1-2 in order inside a segment that also holds 3.
        (
            "lines, one segment [0 1 2 3]",
            Topology::Lines,
            BackendKind::Segment,
            &path,
            segment(segments(&[0, 1, 2, 3], &[(0, 4)])),
        ),
        (
            "lines, dense [1 0 2 3]",
            Topology::Lines,
            BackendKind::Dense,
            &path,
            dense(&[1, 0, 2, 3]),
        ),
    ];
    for (label, topology, backend, reveals, encode) in &cases {
        let events: Vec<RevealEvent> = reveals
            .iter()
            .map(|&(a, b)| RevealEvent::new(Node::new(a), Node::new(b)))
            .collect();
        for policy in POLICIES {
            let mut session = open_session(grid_spec(*topology, 4, policy, *backend, 1)).unwrap();
            session.apply_events(&events).unwrap();
            let case = format!("{label}, {policy:?}");
            assert!(
                decode_session(&encode_session(session.as_ref())).is_ok(),
                "{case}"
            );
            let crafted = resealed(session.as_ref(), 0, encode);
            match (policy, decode_session(&crafted)) {
                (PolicyKind::Det | PolicyKind::Opt, restored) => {
                    assert!(restored.is_ok(), "{case}: {restored:?}");
                }
                (_, Err(CheckpointError::Malformed { .. })) => {}
                (_, other) => panic!("{case}: {other:?}"),
            }
        }
    }
}

/// A re-sealed lines body whose graph state holds the triangle 0-1-2
/// beside node 3 in one union-find component of size 4 (size − 1 edges,
/// but no path) is refused for every policy on both backends. Restored,
/// a `det` session's next reveal (3, 4) would panic the serving thread.
#[test]
fn resealed_lines_state_with_a_cycle_is_refused() {
    let mut dsu = UnionFind::new(5);
    for v in 1..4 {
        dsu.union(Node::new(0), Node::new(v));
    }
    let cyclic = |out: &mut Vec<u8>| {
        put_u8(out, 1);
        put_len(out, 5);
        let none = [u32::MAX; 2];
        for slots in [[1, 2], [0, 2], [0, 1], none, none] {
            slots.into_iter().for_each(|u| put_u32(out, u));
        }
        dsu.encode_into(out);
    };
    let events =
        [(0, 1), (1, 2), (2, 3)].map(|(a, b)| RevealEvent::new(Node::new(a), Node::new(b)));
    for backend in BACKENDS {
        for policy in POLICIES {
            let spec = grid_spec(Topology::Lines, 5, policy, backend, 1);
            let mut session = open_session(spec).unwrap();
            session.apply_events(&events).unwrap();
            let crafted = resealed(session.as_ref(), 1, cyclic);
            let restored = decode_session(&crafted);
            assert!(
                matches!(restored, Err(CheckpointError::Malformed { .. })),
                "{policy:?} on {backend:?}: {restored:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any single bit flip is caught — by a header check or by the
    /// CRC-64 over the body — never a panic, never an `Ok`.
    #[test]
    fn any_single_bit_flip_is_rejected((position, bit) in (any::<usize>(), 0usize..8)) {
        let mut bytes = golden_checkpoint();
        let at = position % bytes.len();
        bytes[at] ^= 1u8 << bit;
        prop_assert!(decode_session(&bytes).is_err(), "flip at {at}.{bit}");
    }

    /// Arbitrary byte-splice mutations (overwrite a random window with
    /// random bytes) are rejected as well.
    #[test]
    fn random_splice_mutations_are_rejected(
        (start, replacement) in (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..24))
    ) {
        let mut bytes = golden_checkpoint();
        let at = start % bytes.len();
        let end = (at + replacement.len()).min(bytes.len());
        let changed = bytes[at..end] != replacement[..end - at];
        bytes[at..end].copy_from_slice(&replacement[..end - at]);
        if changed {
            prop_assert!(decode_session(&bytes).is_err(), "splice at {at}");
        }
    }

    /// Foreign bytes (arbitrary garbage, any length) never panic the
    /// decoder.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_session(&bytes);
    }
}
