//! Property-based tests for the permutation substrate.
//!
//! These pin down the algebraic facts the rest of the workspace (and the
//! paper's analysis) relies on: Kendall tau is a metric, block operations
//! cost exactly their Kendall delta, and the fast counters agree with
//! quadratic reference implementations.

use mla_permutation::{
    concordant_pairs, count_inversions, count_inversions_naive, internal_concordant_pairs,
    left_pairs, Node, Permutation,
};
use proptest::prelude::*;

/// Strategy: a permutation of `n` nodes encoded as a shuffled index vector.
fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |(), mut rng| {
        let mut indices: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            indices.swap(i, j);
        }
        Permutation::from_indices(&indices).expect("shuffle produces a valid permutation")
    })
}

fn sized_permutation() -> impl Strategy<Value = Permutation> {
    (1usize..40).prop_flat_map(permutation)
}

proptest! {
    #[test]
    fn inversion_counter_matches_naive(seq in proptest::collection::vec(0u32..64, 0..128)) {
        prop_assert_eq!(count_inversions(&seq), count_inversions_naive(&seq));
    }

    #[test]
    fn kendall_is_a_metric((a, b, c) in (1usize..24).prop_flat_map(|n| {
        (permutation(n), permutation(n), permutation(n))
    })) {
        let dab = a.kendall_distance(&b);
        let dba = b.kendall_distance(&a);
        let dac = a.kendall_distance(&c);
        let dcb = c.kendall_distance(&b);
        // Identity of indiscernibles.
        prop_assert_eq!(a.kendall_distance(&a), 0);
        prop_assert_eq!(dab == 0, a == b);
        // Symmetry.
        prop_assert_eq!(dab, dba);
        // Triangle inequality.
        prop_assert!(dab <= dac + dcb);
    }

    #[test]
    fn kendall_equals_pairwise_disagreements((a, b) in (1usize..16).prop_flat_map(|n| {
        (permutation(n), permutation(n))
    })) {
        let mut disagreements = 0u64;
        for (x, y) in left_pairs(&a) {
            if !b.is_left_of(x, y) {
                disagreements += 1;
            }
        }
        prop_assert_eq!(disagreements, a.kendall_distance(&b));
    }

    #[test]
    fn move_block_cost_is_kendall_delta(
        (before, start, len_frac, dest_frac) in sized_permutation()
            .prop_flat_map(|p| {
                let n = p.len();
                (Just(p), 0..n, any::<f64>(), any::<f64>())
            })
    ) {
        let n = before.len();
        let max_len = n - start;
        let len = ((len_frac.abs() % 1.0) * (max_len as f64 + 1.0)) as usize;
        let len = len.min(max_len);
        let dest = ((dest_frac.abs() % 1.0) * ((n - len) as f64 + 1.0)) as usize;
        let dest = dest.min(n - len);
        let mut after = before.clone();
        let cost = after.move_block(start..start + len, dest);
        prop_assert_eq!(cost, before.kendall_distance(&after));
        prop_assert!(after.check_consistent());
    }

    #[test]
    fn reverse_block_cost_is_kendall_delta(
        (before, start, end) in sized_permutation().prop_flat_map(|p| {
            let n = p.len();
            (Just(p), 0..=n, 0..=n)
        })
    ) {
        let (lo, hi) = if start <= end { (start, end) } else { (end, start) };
        let mut after = before.clone();
        let cost = after.reverse_block(lo..hi);
        prop_assert_eq!(cost, before.kendall_distance(&after));
        prop_assert!(after.check_consistent());
    }

    #[test]
    fn block_ops_preserve_permutation_property(p in sized_permutation()) {
        let n = p.len();
        let mut q = p.clone();
        let mid = n / 2;
        q.reverse_block(0..mid);
        let _ = q.move_block(0..mid, n - mid);
        prop_assert!(q.check_consistent());
        // Every node appears exactly once.
        let mut seen = vec![false; n];
        for &v in q.as_nodes() {
            prop_assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
    }

    #[test]
    fn concordant_pairs_partition(p in permutation(12)) {
        // For disjoint X, Y: concordant(X, Y) + concordant(Y, X) = |X||Y|.
        let x: Vec<Node> = (0..5).map(Node::new).collect();
        let y: Vec<Node> = (5..12).map(Node::new).collect();
        let fwd = concordant_pairs(&p, &x, &y);
        let bwd = concordant_pairs(&p, &y, &x);
        prop_assert_eq!(fwd + bwd, (x.len() * y.len()) as u64);
    }

    #[test]
    fn internal_concordant_partition(p in permutation(10)) {
        let fwd: Vec<Node> = (0..10).map(Node::new).collect();
        let rev: Vec<Node> = fwd.iter().rev().copied().collect();
        let m = fwd.len() as u64;
        prop_assert_eq!(
            internal_concordant_pairs(&p, &fwd) + internal_concordant_pairs(&p, &rev),
            m * (m - 1) / 2
        );
    }

    #[test]
    fn inverse_composition_identity(p in sized_permutation()) {
        let inv = p.inverse();
        // node i sits at position p_pos(i); in the inverse, the node at
        // position i is the node whose position in p is i.
        for pos in 0..p.len() {
            let node = p.node_at(pos);
            prop_assert_eq!(inv.node_at(node.index()).index(), pos);
        }
    }

    #[test]
    fn swap_adjacent_changes_distance_by_one(p in (2usize..30).prop_flat_map(permutation)) {
        let mut q = p.clone();
        let pos = p.len() / 2 - 1;
        q.swap_adjacent(pos);
        prop_assert_eq!(p.kendall_distance(&q), 1);
    }
}

proptest! {
    #[test]
    fn composition_group_laws((a, b, c) in (1usize..20).prop_flat_map(|n| {
        (permutation(n), permutation(n), permutation(n))
    })) {
        let n = a.len();
        let identity = Permutation::identity(n);
        // Identity element.
        prop_assert_eq!(a.compose(&identity), a.clone());
        prop_assert_eq!(identity.compose(&a), a.clone());
        prop_assert!(identity.is_identity());
        // Inverses.
        prop_assert!(a.compose(&a.inverse()).is_identity());
        prop_assert!(a.inverse().compose(&a).is_identity());
        // Associativity.
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn kendall_is_right_invariant((a, b, g) in (1usize..20).prop_flat_map(|n| {
        (permutation(n), permutation(n), permutation(n))
    })) {
        // Kendall tau is invariant under relabeling both arrangements by
        // the same permutation.
        let da = a.kendall_distance(&b);
        let db = a.compose(&g).kendall_distance(&b.compose(&g));
        prop_assert_eq!(da, db);
    }
}

// ---- backend equivalence: SegmentArrangement vs dense Permutation ------

use mla_permutation::{Arrangement, MergeOrder, SegmentArrangement};

/// One randomly generated arrangement operation.
#[derive(Debug, Clone)]
enum Op {
    Move {
        src: std::ops::Range<usize>,
        dest: usize,
    },
    Reverse(std::ops::Range<usize>),
    SwapBlocks {
        mid: usize,
        start: usize,
        end: usize,
    },
    Coalesce(std::ops::Range<usize>),
    Assign(Vec<usize>),
    /// The composite merge update.
    MergeMove {
        mover: std::ops::Range<usize>,
        stayer: std::ops::Range<usize>,
        order: MergeOrder,
    },
}

/// The merge order whose three bits are the low bits of `bits`.
fn merge_order_of(bits: usize) -> MergeOrder {
    MergeOrder {
        reverse_mover: bits & 1 != 0,
        reverse_stayer: bits & 2 != 0,
        swap: bits & 4 != 0,
    }
}

/// A random permutation of `0..len` drawn from the strategy RNG.
fn pattern_of(
    len: usize,
    next: impl Fn(usize, &mut TestRng) -> usize,
    rng: &mut TestRng,
) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = next(i + 1, rng);
        indices.swap(i, j);
    }
    indices
}

/// Strategy: a random op sequence for an arrangement of `n` nodes,
/// including the empty/full/boundary-adjacent edge cases the dense
/// asserts allow. (The vendored proptest has no `prop_oneof`, so the ops
/// are drawn from the perturbation RNG.)
fn op_sequence() -> impl Strategy<Value = (Permutation, Vec<Op>)> {
    (1usize..24).prop_flat_map(|n| {
        permutation(n).prop_perturb(move |start, mut rng| {
            let next =
                |bound: usize, rng: &mut TestRng| (rng.next_u64() % bound.max(1) as u64) as usize;
            let count = next(40, &mut rng);
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(match next(15, &mut rng) {
                    0..=3 => {
                        let start = next(n + 1, &mut rng);
                        let end = start + next(n - start + 1, &mut rng);
                        let dest = next(n - (end - start) + 1, &mut rng);
                        Op::Move {
                            src: start..end,
                            dest,
                        }
                    }
                    4..=6 => {
                        let start = next(n + 1, &mut rng);
                        let end = start + next(n - start + 1, &mut rng);
                        Op::Reverse(start..end)
                    }
                    7..=9 => {
                        let start = next(n + 1, &mut rng);
                        let mid = start + next(n - start + 1, &mut rng);
                        let end = mid + next(n - mid + 1, &mut rng);
                        Op::SwapBlocks { start, mid, end }
                    }
                    10 | 11 => {
                        let start = next(n + 1, &mut rng);
                        let end = start + next(n - start + 1, &mut rng);
                        Op::Coalesce(start..end)
                    }
                    12 => Op::Assign(pattern_of(n, next, &mut rng)),
                    13 | 14 if n >= 2 => {
                        // Two disjoint non-empty blocks; mover on a random
                        // side; each rearranging bit on a coin flip.
                        let mut cuts = [
                            next(n + 1, &mut rng),
                            next(n + 1, &mut rng),
                            next(n + 1, &mut rng),
                            next(n + 1, &mut rng),
                        ];
                        cuts.sort_unstable();
                        let [a, mut b, mut c, mut d] = cuts;
                        if b == a {
                            b = a + 1;
                        }
                        c = c.max(b);
                        if d <= c {
                            d = c + 1;
                        }
                        if d > n {
                            Op::Coalesce(0..n)
                        } else {
                            let (first, second) = (a..b, c..d);
                            let (mover, stayer) = if next(2, &mut rng) == 0 {
                                (first, second)
                            } else {
                                (second, first)
                            };
                            Op::MergeMove {
                                mover,
                                stayer,
                                order: merge_order_of(next(8, &mut rng)),
                            }
                        }
                    }
                    _ => Op::Coalesce(0..n),
                });
            }
            (start, ops)
        })
    })
}

proptest! {
    #[test]
    fn segment_backend_is_bit_identical_to_dense((start, ops) in op_sequence()) {
        let mut dense = start.clone();
        let mut segment = SegmentArrangement::from_permutation(&start);
        for operation in &ops {
            let (dense_cost, segment_cost) = match operation.clone() {
                Op::Move { src, dest } => (
                    dense.move_block(src.clone(), dest),
                    segment.move_block(src, dest),
                ),
                Op::Reverse(range) => (
                    dense.reverse_block(range.clone()),
                    segment.reverse_block(range),
                ),
                Op::SwapBlocks { start, mid, end } => (
                    dense.swap_adjacent_blocks(start..mid, mid..end),
                    segment.swap_adjacent_blocks(start..mid, mid..end),
                ),
                Op::Coalesce(range) => {
                    Arrangement::coalesce_range(&mut dense, range.clone());
                    segment.coalesce_range(range);
                    (0, 0)
                }
                Op::Assign(indices) => {
                    let target = Permutation::from_indices(&indices).expect("valid shuffle");
                    (Arrangement::assign(&mut dense, &target), segment.assign(&target))
                }
                Op::MergeMove { mover, stayer, order } => (
                    Arrangement::merge_move(&mut dense, mover.clone(), stayer.clone(), order),
                    segment.merge_move(mover, stayer, order),
                ),
            };
            prop_assert_eq!(dense_cost, segment_cost, "cost diverged on {:?}", operation);
            prop_assert_eq!(&segment.to_permutation(), &dense, "layout diverged on {:?}", operation);
            prop_assert!(segment.check_consistent());
        }
        // Lookups agree in both directions after the full sequence.
        for pos in 0..dense.len() {
            prop_assert_eq!(segment.node_at(pos), dense.node_at(pos));
            prop_assert_eq!(
                segment.position_of(dense.node_at(pos)),
                pos
            );
        }
    }

    #[test]
    fn contiguous_range_agrees_across_backends((p, raw) in (1usize..20).prop_flat_map(|n| {
        (permutation(n), proptest::collection::vec(0usize..n, 0..8))
    })) {
        // Distinct node subsets, including empty and full sets. `path_range`
        // reads order, so it sees the subset in drawn (unsorted) order.
        let mut seen = vec![false; p.len()];
        let path: Vec<Node> = raw
            .into_iter()
            .filter(|&i| !std::mem::replace(&mut seen[i], true))
            .map(Node::new)
            .collect();
        let mut nodes = path.clone();
        nodes.sort_unstable();
        let mut segment = SegmentArrangement::from_permutation(&p);
        let all: Vec<Node> = p.iter().copied().collect();
        let all_reversed: Vec<Node> = all.iter().rev().copied().collect();
        prop_assert_eq!(segment.contiguous_range(&all), Some(0..p.len()));
        prop_assert_eq!(segment.contiguous_range(&[]), Some(0..0));
        // Coalescing must never change an answer.
        for coalesced in [false, true] {
            if coalesced {
                segment.coalesce_range(0..p.len());
            }
            prop_assert_eq!(
                segment.contiguous_range(&nodes),
                p.contiguous_range(&nodes)
            );
            prop_assert_eq!(
                Arrangement::path_range(&segment, &path),
                Arrangement::path_range(&p, &path)
            );
            prop_assert_eq!(segment.path_range(&all), Some(0..p.len()));
            prop_assert_eq!(segment.path_range(&all_reversed), Some(0..p.len()));
        }
    }

    #[test]
    fn kendall_to_agrees_across_backends((a, b) in (1usize..20).prop_flat_map(|n| {
        (permutation(n), permutation(n))
    })) {
        let segment = SegmentArrangement::from_permutation(&a);
        prop_assert_eq!(segment.kendall_to(&b), a.kendall_distance(&b));
    }
}

// ---- lazy locate: slot-based locate vs the full member walk ------------

/// Raw schedule picks, resolved against the live component list at
/// execution time: `(first_pick, second_pick, merge_order,
/// shuffle_pick)`. Between merges, `shuffle_pick` optionally moves a
/// whole component elsewhere or reverses it in place — the other two
/// block operations an algorithm run interleaves with merges.
type MergePick = (usize, usize, MergeOrder, usize);

/// Strategy: an initial permutation plus a raw merge schedule. The picks
/// are drawn as plain integers (the component list shrinks as merges
/// execute, so the actual pair is resolved modulo the live count).
fn merge_schedule() -> impl Strategy<Value = (Permutation, Vec<MergePick>)> {
    (2usize..28).prop_flat_map(|n| {
        permutation(n).prop_perturb(move |start, mut rng| {
            let next =
                |bound: usize, rng: &mut TestRng| (rng.next_u64() % bound.max(1) as u64) as usize;
            let count = next(n, &mut rng);
            let picks = (0..count)
                .map(|_| {
                    (
                        next(1 << 16, &mut rng),
                        next(1 << 16, &mut rng),
                        merge_order_of(next(8, &mut rng)),
                        next(1 << 16, &mut rng),
                    )
                })
                .collect();
            (start, picks)
        })
    })
}

/// Replays a merge schedule on `arr` and after **every** merge, move and
/// reverse checks the slot-based `locate_component` against the full
/// member walk, for every component and every possible anchor, and
/// `path_range` on each component read in position order, reversed, and
/// with two adjacent interior nodes swapped.
fn check_locate_under_merges<A: Arrangement>(arr: &mut A, picks: &[MergePick]) {
    // Each component is a member list in arbitrary order.
    let mut comps: Vec<Vec<Node>> = (0..arr.len()).map(|pos| vec![arr.node_at(pos)]).collect();
    let check_all = |arr: &A, comps: &[Vec<Node>]| {
        for members in comps {
            let walked = arr
                .contiguous_range(members)
                .expect("merged components stay contiguous");
            let mut path = members.clone();
            path.sort_by_key(|&v| arr.position_of(v));
            assert_eq!(arr.path_range(&path), Some(walked.clone()));
            path.reverse();
            assert_eq!(arr.path_range(&path), Some(walked.clone()));
            if path.len() >= 4 {
                let mid = path.len() / 2;
                path.swap(mid - 1, mid);
                assert_eq!(arr.path_range(&path), None, "swapped interior pair");
            }
            if !arr.supports_component_locate() {
                continue;
            }
            for &anchor in members {
                let (range, anchor_pos) = arr
                    .locate_component(anchor, members.len())
                    .expect("locate must answer for a coalesced component");
                assert_eq!(range, walked, "locate range diverged from the member walk");
                assert!(range.contains(&anchor_pos));
                assert_eq!(arr.node_at(anchor_pos), anchor);
                // A wrong component size must miss, never alias a block.
                assert_eq!(arr.locate_component(anchor, members.len() + 1), None);
            }
        }
    };
    check_all(arr, &comps);
    for &(first_pick, second_pick, order, shuffle_pick) in picks {
        // Interleave the other two whole-block operations a run uses:
        // move a component to a random spot, or reverse it in place.
        // Neither may break a later locate.
        let c = shuffle_pick % comps.len();
        let range = arr
            .contiguous_range(&comps[c])
            .expect("component is contiguous");
        match shuffle_pick % 3 {
            0 => {
                // Valid destinations land flush against another
                // component (or the start) — anything else would split a
                // block and break the contiguity invariant the locate
                // contract rests on.
                let mut dests = vec![0];
                for (j, other) in comps.iter().enumerate() {
                    if j == c {
                        continue;
                    }
                    let rc = arr
                        .contiguous_range(other)
                        .expect("component is contiguous");
                    dests.push(if rc.start > range.start {
                        rc.end - range.len()
                    } else {
                        rc.end
                    });
                }
                let dest = dests[first_pick % dests.len()];
                arr.move_block(range, dest);
            }
            1 => {
                arr.reverse_block(range);
            }
            _ => {}
        }
        check_all(arr, &comps);
        if comps.len() < 2 {
            continue;
        }
        let a = first_pick % comps.len();
        let mut b = second_pick % comps.len();
        if b == a {
            b = (b + 1) % comps.len();
        }
        let mover = arr
            .contiguous_range(&comps[a])
            .expect("component is contiguous");
        let stayer = arr
            .contiguous_range(&comps[b])
            .expect("component is contiguous");
        // Random reverse/swap bits, so reversed segments (and
        // reversed-orientation locates) are exercised too.
        arr.merge_move(mover, stayer, order);
        let absorbed = std::mem::take(&mut comps[a]);
        comps[b].extend(absorbed);
        comps.swap_remove(a);
        check_all(arr, &comps);
    }
}

proptest! {
    #[test]
    fn segment_locate_matches_full_walk_under_merge_fuzz((start, picks) in merge_schedule()) {
        let mut segment = SegmentArrangement::from_permutation(&start);
        prop_assert!(segment.supports_component_locate());
        check_locate_under_merges(&mut segment, &picks);
        prop_assert!(segment.check_consistent());
    }

    #[test]
    fn dense_backend_reports_no_locate_support((start, picks) in merge_schedule()) {
        // The dense backend has no structural block tracking: it must
        // advertise that (so callers fall back to the member walk), and
        // the default locate must answer `None` — which
        // `check_locate_under_merges` skips over while still replaying
        // the identical merge schedule.
        let mut dense = start.clone();
        prop_assert!(!Arrangement::supports_component_locate(&dense));
        prop_assert_eq!(Arrangement::locate_component(&dense, dense.node_at(0), 1), None);
        check_locate_under_merges(&mut dense, &picks);
    }
}

#[test]
fn swap_adjacent_blocks_boundary_cases_match() {
    // Empty blocks at either side and blocks meeting at the array ends.
    for (left, right) in [(0..0, 0..4), (0..4, 4..4), (0..2, 2..4), (4..4, 4..4)] {
        let mut dense = Permutation::identity(4);
        let mut segment = SegmentArrangement::identity(4);
        assert_eq!(
            dense.swap_adjacent_blocks(left.clone(), right.clone()),
            segment.swap_adjacent_blocks(left.clone(), right.clone()),
            "({left:?}, {right:?})"
        );
        assert_eq!(segment.to_permutation(), dense, "({left:?}, {right:?})");
    }
}
