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

/// One step of a whole-component op sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Merge two live components. The picks are raw draws, resolved
    /// modulo the live component count when the step runs.
    Merge {
        mover: usize,
        stayer: usize,
        order: MergeOrder,
    },
    /// Jump to a target; the whole arrangement is one component after.
    Assign(Vec<usize>),
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

/// Strategy: a start permutation and a random whole-component op
/// sequence for it: merges in all eight orders, with a jump about one
/// step in twelve. (The vendored proptest has no `prop_oneof`, so the
/// ops are drawn from the perturbation RNG.)
fn op_sequence() -> impl Strategy<Value = (Permutation, Vec<Op>)> {
    (1usize..24).prop_flat_map(|n| {
        permutation(n).prop_perturb(move |start, mut rng| {
            let next =
                |bound: usize, rng: &mut TestRng| (rng.next_u64() % bound.max(1) as u64) as usize;
            let count = next(40, &mut rng);
            let ops = (0..count)
                .map(|_| {
                    if next(12, &mut rng) == 0 {
                        Op::Assign(pattern_of(n, next, &mut rng))
                    } else {
                        Op::Merge {
                            mover: next(1 << 16, &mut rng),
                            stayer: next(1 << 16, &mut rng),
                            order: merge_order_of(next(8, &mut rng)),
                        }
                    }
                })
                .collect();
            (start, ops)
        })
    })
}

/// The two distinct component indices that raw picks `first` and
/// `second` resolve to among `live` components (`live >= 2`).
fn pick_pair(first: usize, second: usize, live: usize) -> (usize, usize) {
    let a = first % live;
    (a, (a + 1 + second % (live - 1)) % live)
}

/// Merges component `a` into component `b` in the member-list model.
fn merge_members(comps: &mut Vec<Vec<Node>>, a: usize, b: usize) {
    let absorbed = std::mem::take(&mut comps[a]);
    comps[b].extend(absorbed);
    comps.swap_remove(a);
}

proptest! {
    #[test]
    fn segment_backend_is_bit_identical_to_dense((start, ops) in op_sequence()) {
        let mut dense = start.clone();
        let mut segment = SegmentArrangement::from_permutation(&start);
        let mut comps: Vec<Vec<Node>> = start.iter().map(|&v| vec![v]).collect();
        for operation in &ops {
            let (dense_cost, segment_cost) = match operation {
                Op::Merge { .. } if comps.len() < 2 => continue,
                &Op::Merge { mover, stayer, order } => {
                    let (a, b) = pick_pair(mover, stayer, comps.len());
                    let mover = dense.contiguous_range(&comps[a]).expect("component is contiguous");
                    let stayer = dense.contiguous_range(&comps[b]).expect("component is contiguous");
                    let costs = (
                        Arrangement::merge_move(&mut dense, mover.clone(), stayer.clone(), order),
                        segment.merge_move(mover, stayer, order),
                    );
                    merge_members(&mut comps, a, b);
                    costs
                }
                Op::Assign(indices) => {
                    let target = Permutation::from_indices(indices).expect("valid shuffle");
                    comps = vec![target.iter().copied().collect()];
                    (Arrangement::assign(&mut dense, &target), segment.assign(&target))
                }
            };
            prop_assert_eq!(dense_cost, segment_cost, "cost diverged on {:?}", operation);
            prop_assert_eq!(&segment.to_permutation(), &dense, "layout diverged on {:?}", operation);
            prop_assert!(segment.check_consistent());
            // Every component is one segment: the slot-based locate finds
            // the block the dense member walk finds.
            for members in &comps {
                let walked = dense.contiguous_range(members).expect("component is contiguous");
                let anchor = members[members.len() / 2];
                let (range, anchor_pos) = segment
                    .locate_component(anchor, members.len())
                    .expect("every component is one segment");
                prop_assert_eq!(range, walked, "locate diverged on {:?}", operation);
                prop_assert_eq!(segment.node_at(anchor_pos), anchor);
            }
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
        // Folding every node into one segment must never change an answer.
        for folded in [false, true] {
            if folded {
                let n = p.len();
                for i in (0..n - 1).rev() {
                    segment.merge_move(i..i + 1, i + 1..n, MergeOrder::KEEP);
                }
                prop_assert_eq!(segment.segment_count(), 1);
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
/// execution time: `(mover_pick, stayer_pick, merge_order)`.
type MergePick = (usize, usize, MergeOrder);

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
                    )
                })
                .collect();
            (start, picks)
        })
    })
}

/// Replays a merge schedule on `arr` and after **every** merge checks
/// the slot-based `locate_component` against the full member walk, for
/// every component and every possible anchor, and `path_range` on each
/// component read in position order, reversed, and with two adjacent
/// interior nodes swapped.
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
                    .expect("locate must answer for a merged component");
                assert_eq!(range, walked, "locate range diverged from the member walk");
                assert!(range.contains(&anchor_pos));
                assert_eq!(arr.node_at(anchor_pos), anchor);
                // A wrong component size must miss, never alias a block.
                assert_eq!(arr.locate_component(anchor, members.len() + 1), None);
            }
        }
    };
    check_all(arr, &comps);
    for &(mover_pick, stayer_pick, order) in picks {
        if comps.len() < 2 {
            break;
        }
        let (a, b) = pick_pair(mover_pick, stayer_pick, comps.len());
        let mover = arr
            .contiguous_range(&comps[a])
            .expect("component is contiguous");
        let stayer = arr
            .contiguous_range(&comps[b])
            .expect("component is contiguous");
        // Random reverse/swap bits, so reversed segments (and
        // reversed-orientation locates) are exercised too.
        arr.merge_move(mover, stayer, order);
        merge_members(&mut comps, a, b);
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
    // Empty blocks at either side and blocks meeting at the array ends:
    // the cost is the Kendall delta of the swap.
    let start = Permutation::from_indices(&[2, 0, 3, 1]).unwrap();
    for (left, right) in [(0..0, 0..4), (0..4, 4..4), (0..2, 2..4), (4..4, 4..4)] {
        let mut dense = start.clone();
        let cost = dense.swap_adjacent_blocks(left.clone(), right.clone());
        assert_eq!(
            cost,
            (left.len() * right.len()) as u64,
            "({left:?}, {right:?})"
        );
        assert_eq!(
            cost,
            start.kendall_distance(&dense),
            "({left:?}, {right:?})"
        );
        assert!(dense.check_consistent());
    }
}
