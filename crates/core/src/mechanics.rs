//! Shared update mechanics: where the two merging component blocks sit,
//! how they read, and the rearranging part of a lines update (Figure 2)
//! priced in closed form. [`MergeLayout::locate`] and
//! [`MergeLayout::choices`] are the entry points.
//!
//! The update itself — the moving part (Figure 1) and the rearranging
//! part — runs as one [`Arrangement::merge_move`], which takes the chosen
//! [`RearrangeOption`]'s reverse/swap bits as a
//! [`MergeOrder`].
//!
//! [`MergeLayout::locate`]: crate::MergeLayout::locate
//! [`MergeLayout::choices`]: crate::MergeLayout::choices

use mla_graph::ComponentSnapshot;
use mla_permutation::{Arrangement, MergeOrder};

/// Positions of the two merging components in the current permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    /// Range of the `X` component.
    pub x_range: std::ops::Range<usize>,
    /// Range of the `Z` component.
    pub z_range: std::ops::Range<usize>,
}

impl BlockLayout {
    /// Locates the components from their member lists, with each block's
    /// [`Orientation`] from the same lookups; panics if either is not
    /// contiguous — that would mean the feasibility invariant was already
    /// broken before this update.
    ///
    /// # Panics
    ///
    /// Panics if a component does not occupy contiguous positions.
    #[must_use]
    pub fn locate_oriented<P: Arrangement + ?Sized>(
        perm: &P,
        x: &ComponentSnapshot,
        z: &ComponentSnapshot,
    ) -> (Self, Orientation, Orientation) {
        let (x_range, x_forward) = perm
            .oriented_contiguous_range(x.nodes())
            // mla-lint: allow(panic-safety): feasibility invariant: every revealed component occupies one contiguous block
            .expect("X component must be contiguous (feasibility invariant)");
        let (z_range, z_forward) = perm
            .oriented_contiguous_range(z.nodes())
            // mla-lint: allow(panic-safety): feasibility invariant: every revealed component occupies one contiguous block
            .expect("Z component must be contiguous (feasibility invariant)");
        let orientation = |forward| {
            if forward {
                Orientation::Forward
            } else {
                Orientation::Reversed
            }
        };
        (
            BlockLayout { x_range, z_range },
            orientation(x_forward),
            orientation(z_forward),
        )
    }

    /// Returns `true` if `X` lies left of `Z`.
    #[must_use]
    pub fn x_is_left(&self) -> bool {
        self.x_range.start < self.z_range.start
    }

    /// Number of foreign nodes strictly between the two components.
    #[must_use]
    pub fn gap(&self) -> usize {
        if self.x_is_left() {
            self.z_range.start - self.x_range.end
        } else {
            self.x_range.start - self.z_range.end
        }
    }
}

/// The current orientation of a component block relative to its snapshot
/// path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The block reads exactly as the snapshot's node order.
    Forward,
    /// The block reads as the reversed snapshot order.
    Reversed,
}

/// One of the two rearranging options of Figure 2: which blocks to reverse
/// and whether to swap them, with the total cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RearrangeOption {
    /// Reverse the `X` block (cost `C(|X|, 2)`).
    pub reverse_x: bool,
    /// Reverse the `Z` block (cost `C(|Z|, 2)`).
    pub reverse_z: bool,
    /// Swap the two adjacent blocks (cost `|X|·|Z|`).
    pub swap: bool,
    /// Total cost of this option in adjacent transpositions.
    pub cost: u64,
}

impl RearrangeOption {
    /// This option's block operations for
    /// [`merge_move`](Arrangement::merge_move), whose blocks are the mover
    /// and the stayer: `X` is the mover iff `x_moves`. The swap needs no
    /// mapping, because the moving part keeps both blocks on their sides.
    #[must_use]
    pub(crate) fn merge_order(&self, x_moves: bool) -> MergeOrder {
        let (reverse_mover, reverse_stayer) = if x_moves {
            (self.reverse_x, self.reverse_z)
        } else {
            (self.reverse_z, self.reverse_x)
        };
        MergeOrder {
            reverse_mover,
            reverse_stayer,
            swap: self.swap,
        }
    }
}

/// The two rearranging options for the merged line: reach the forward
/// target (`x.nodes ++ z.nodes` reading left to right) or the reversed
/// target. Their costs always sum to `C(|X|+|Z|, 2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RearrangeChoices {
    /// Ops to make the merged block read `x.nodes ++ z.nodes`.
    pub forward: RearrangeOption,
    /// Ops to make it read `reverse(z.nodes) ++ reverse(x.nodes)`.
    pub reversed: RearrangeOption,
}

fn binomial2(m: usize) -> u64 {
    let m = m as u64;
    m * m.saturating_sub(1) / 2
}

/// The closed-form core of the rearranging options: no arrangement
/// access at all — sizes, sides and orientations fully determine both
/// options and their costs.
#[must_use]
pub fn rearrange_choices_pure(
    x_len: usize,
    z_len: usize,
    x_left: bool,
    x_orientation: Orientation,
    z_orientation: Orientation,
) -> RearrangeChoices {
    // Forward target: X block left (order = snapshot), Z block right
    // (order = snapshot). Required ops relative to the current state:
    let forward = RearrangeOption {
        reverse_x: x_orientation == Orientation::Reversed,
        reverse_z: z_orientation == Orientation::Reversed,
        swap: !x_left,
        cost: 0,
    };
    // Reversed target: Z block left reading reverse(z.nodes), X block
    // right reading reverse(x.nodes) — the mirror image of the forward
    // target, so the op set is exactly complemented.
    let reversed = RearrangeOption {
        reverse_x: !forward.reverse_x,
        reverse_z: !forward.reverse_z,
        swap: !forward.swap,
        cost: 0,
    };
    let price = |option: RearrangeOption| -> u64 {
        let mut cost = 0u64;
        if option.reverse_x {
            cost += binomial2(x_len);
        }
        if option.reverse_z {
            cost += binomial2(z_len);
        }
        if option.swap {
            cost += (x_len * z_len) as u64;
        }
        cost
    };
    let choices = RearrangeChoices {
        forward: RearrangeOption {
            cost: price(forward),
            ..forward
        },
        reversed: RearrangeOption {
            cost: price(reversed),
            ..reversed
        },
    };
    debug_assert_eq!(
        choices.forward.cost + choices.reversed.cost,
        binomial2(x_len + z_len),
        "option costs must sum to C(|X|+|Z|, 2)"
    );
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeLayout;
    use mla_graph::MergeInfo;
    use mla_permutation::{Node, Permutation, SegmentArrangement};
    use std::ops::Range;

    fn snapshot(indices: &[usize]) -> ComponentSnapshot {
        let nodes: Vec<Node> = indices.iter().map(|&i| Node::new(i)).collect();
        let joined = nodes[nodes.len() - 1];
        ComponentSnapshot::eager(nodes, joined)
    }

    /// The merge of `x` and `z`, located in `perm`, and its rearranging
    /// options.
    fn locate<P: Arrangement + ?Sized>(
        perm: &P,
        x: &ComponentSnapshot,
        z: &ComponentSnapshot,
    ) -> (MergeLayout, RearrangeChoices) {
        let info = MergeInfo {
            x: x.clone(),
            z: z.clone(),
        };
        let layout = MergeLayout::locate(perm, &info);
        let choices = layout.choices(&info);
        (layout, choices)
    }

    #[test]
    fn layout_and_gap() {
        let perm = Permutation::from_indices(&[0, 1, 5, 2, 3, 4]).unwrap();
        let x = snapshot(&[0, 1]);
        let z = snapshot(&[2, 3]);
        let (located, _) = locate(&perm, &x, &z);
        assert!(located.layout.x_is_left());
        assert_eq!(located.layout.gap(), 1);
    }

    #[test]
    #[should_panic(expected = "must be contiguous")]
    fn locate_panics_on_scattered_block() {
        let perm = Permutation::from_indices(&[0, 2, 1, 3]).unwrap();
        let x = snapshot(&[0, 1]);
        let z = snapshot(&[3]);
        let _ = locate(&perm, &x, &z);
    }

    /// Folds the one-node segments of `block` into one segment by
    /// zero-gap merges, which leave the layout as it is.
    fn fold(segment: &mut SegmentArrangement, block: Range<usize>) {
        for i in (block.start..block.end - 1).rev() {
            segment.merge_move(i..i + 1, i + 1..block.end, MergeOrder::KEEP);
        }
    }

    /// Runs one `merge_move` from `start` on the dense backend and on the
    /// segment backend, with each block first folded into one segment as
    /// an algorithm run keeps it. Both must agree on the cost and the
    /// layout, and the segment backend must end with the merged block as
    /// one segment. Returns the cost and the layout.
    fn merge_on_both(
        start: &[usize],
        mover: Range<usize>,
        stayer: Range<usize>,
        order: MergeOrder,
    ) -> (u64, Vec<usize>) {
        let base = Permutation::from_indices(start).unwrap();
        let mut dense = base.clone();
        let cost = Arrangement::merge_move(&mut dense, mover.clone(), stayer.clone(), order);
        let mut segment = SegmentArrangement::from_permutation(&base);
        fold(&mut segment, mover.clone());
        fold(&mut segment, stayer.clone());
        assert_eq!(
            segment.merge_move(mover.clone(), stayer.clone(), order),
            cost
        );
        assert_eq!(segment.to_permutation(), dense);
        let merged_len = mover.len() + stayer.len();
        let (range, _) = segment
            .locate_component(base.node_at(stayer.start), merged_len)
            .expect("the merged block is one segment");
        assert_eq!(range.len(), merged_len);
        (cost, dense.to_index_vec())
    }

    #[test]
    fn merge_move_brings_adjacent_both_directions() {
        // X = {0,1} at left, Z = {4,5} at right, gap {2,3}; |X| = 2
        // crosses a gap of 2 either way.
        let start = [0, 1, 2, 3, 4, 5];
        assert_eq!(
            merge_on_both(&start, 0..2, 4..6, MergeOrder::KEEP),
            (4, vec![2, 3, 0, 1, 4, 5])
        );
        assert_eq!(
            merge_on_both(&start, 4..6, 0..2, MergeOrder::KEEP),
            (4, vec![0, 1, 4, 5, 2, 3])
        );
        // Unequal blocks across the same gap: the mover larger and
        // smaller than the stayer, from either side. The segment fast
        // path keeps the larger block's storage, so a larger mover takes
        // over the stayer's rank in the order index.
        let start = [0, 1, 2, 3, 4, 5, 6];
        assert_eq!(
            merge_on_both(&start, 0..3, 5..7, MergeOrder::KEEP),
            (6, vec![3, 4, 0, 1, 2, 5, 6])
        );
        assert_eq!(
            merge_on_both(&start, 5..7, 0..3, MergeOrder::KEEP),
            (4, vec![0, 1, 2, 5, 6, 3, 4])
        );
        assert_eq!(
            merge_on_both(&start, 0..2, 4..7, MergeOrder::KEEP),
            (4, vec![2, 3, 0, 1, 4, 5, 6])
        );
        assert_eq!(
            merge_on_both(&start, 4..7, 0..2, MergeOrder::KEEP),
            (6, vec![0, 1, 4, 5, 6, 2, 3])
        );
    }

    #[test]
    fn merge_move_zero_gap_is_free() {
        assert_eq!(
            merge_on_both(&[0, 1, 2, 3], 0..2, 2..4, MergeOrder::KEEP),
            (0, vec![0, 1, 2, 3])
        );
    }

    #[test]
    fn orientation_detection() {
        let perm = Permutation::from_indices(&[2, 1, 0, 3]).unwrap();
        let single = snapshot(&[3]);
        let (located, _) = locate(&perm, &snapshot(&[2, 1, 0]), &single);
        assert_eq!(located.x_orientation, Orientation::Forward);
        let (located, _) = locate(&perm, &snapshot(&[0, 1, 2]), &single);
        assert_eq!(located.x_orientation, Orientation::Reversed);
        assert_eq!(located.z_orientation, Orientation::Forward);
    }

    #[test]
    fn figure2_case_outward_endpoints() {
        // The exact configuration of Figure 2: X left (x_i at the inner
        // side? no — x_i at the LEFT end, i.e. snapshot reversed), Z right
        // with z_i at its left end (snapshot forward).
        //
        // Snapshots: x.nodes ends at x_i; z.nodes starts at z_i.
        // Current permutation: [x_i, a, | z_i, b] where X path is a-x_i
        // (so block reads reversed) and Z path is z_i-b (forward).
        // x_i = 1, a = 0, z_i = 2, b = 3.
        let perm = Permutation::from_indices(&[1, 0, 2, 3]).unwrap();
        let x = ComponentSnapshot::eager(vec![Node::new(0), Node::new(1)], Node::new(1));
        let z = ComponentSnapshot::eager(vec![Node::new(2), Node::new(3)], Node::new(2));
        let (_, choices) = locate(&perm, &x, &z);
        // Forward target [0,1,2,3]: reverse X only → cost C(2,2)=1.
        assert!(choices.forward.reverse_x);
        assert!(!choices.forward.reverse_z);
        assert!(!choices.forward.swap);
        assert_eq!(choices.forward.cost, 1);
        // Reversed target [3,2,1,0]: reverse Z and swap → 1 + 4 = 5.
        assert_eq!(choices.reversed.cost, 5);
        // Paper invariant: costs sum to C(4,2) = 6.
        assert_eq!(choices.forward.cost + choices.reversed.cost, 6);
    }

    #[test]
    fn merge_order_reaches_both_figure2_targets() {
        // Two adjacent paths, X = 0..a joined at its last node and
        // Z = a..a+b joined at its first, in every layout (either side,
        // either reading direction) and either block moving, with X
        // smaller than, equal to and larger than Z: each option's bits
        // reach its target at exactly its price. Over the layouts and
        // both targets the bits take all eight `MergeOrder` values.
        for (a, b) in [(2, 2), (1, 3), (3, 1), (2, 3), (3, 2)] {
            let x_nodes: Vec<usize> = (0..a).collect();
            let z_nodes: Vec<usize> = (a..a + b).collect();
            let x = snapshot(&x_nodes);
            let z = ComponentSnapshot::eager(
                z_nodes.iter().map(|&i| Node::new(i)).collect(),
                Node::new(a),
            );
            let forward: Vec<usize> = (0..a + b).collect();
            let reversed: Vec<usize> = forward.iter().rev().copied().collect();
            let read = |nodes: &[usize], backward: bool| -> Vec<usize> {
                if backward {
                    nodes.iter().rev().copied().collect()
                } else {
                    nodes.to_vec()
                }
            };
            for bits in 0..8 {
                let (xs, zs) = (read(&x_nodes, bits & 1 != 0), read(&z_nodes, bits & 2 != 0));
                let start = if bits & 4 == 0 {
                    [xs, zs].concat()
                } else {
                    [zs, xs].concat()
                };
                let base = Permutation::from_indices(&start).unwrap();
                let (located, choices) = locate(&base, &x, &z);
                let layout = located.layout;
                for (option, target) in [
                    (choices.forward, forward.clone()),
                    (choices.reversed, reversed.clone()),
                ] {
                    for x_moves in [true, false] {
                        let (mover, stayer) = if x_moves {
                            (layout.x_range.clone(), layout.z_range.clone())
                        } else {
                            (layout.z_range.clone(), layout.x_range.clone())
                        };
                        let order = option.merge_order(x_moves);
                        let (cost, after) = merge_on_both(&start, mover, stayer, order);
                        assert_eq!(cost, 0, "the blocks are adjacent");
                        assert_eq!(after, target, "start {start:?}, X moves: {x_moves}");
                        let after = Permutation::from_indices(&after).unwrap();
                        assert_eq!(
                            base.kendall_distance(&after),
                            option.cost,
                            "start {start:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merge_update_is_backend_agnostic() {
        // A whole lines update — move over a gap, then rearrange —
        // priced the same on both backends and landing on the same layout
        // (`merge_on_both` compares the backends).
        let x = ComponentSnapshot::eager(vec![Node::new(0), Node::new(1)], Node::new(1));
        let z = ComponentSnapshot::eager(vec![Node::new(4), Node::new(5)], Node::new(4));
        let start = [1, 0, 2, 3, 4, 5];
        let dense = Permutation::from_indices(&start).unwrap();
        let segment = SegmentArrangement::from_permutation(&dense);
        let (located, choices) = locate(&dense, &x, &z);
        assert_eq!(locate(&segment, &x, &z), (located.clone(), choices));
        let order = choices.forward.merge_order(true);
        let layout = located.layout;
        let (cost, after) = merge_on_both(&start, layout.x_range, layout.z_range, order);
        assert_eq!(cost, 4);
        assert_eq!(after, vec![2, 3, 0, 1, 4, 5]);
        let after = Permutation::from_indices(&after).unwrap();
        assert_eq!(dense.kendall_distance(&after), cost + choices.forward.cost);
    }

    #[test]
    fn rearrange_with_singletons() {
        let x = ComponentSnapshot::eager(vec![Node::new(0)], Node::new(0));
        let z = ComponentSnapshot::eager(vec![Node::new(1)], Node::new(1));
        let perm = Permutation::from_indices(&[1, 0, 2]).unwrap();
        let (_, choices) = locate(&perm, &x, &z);
        // Forward target [0,1]: needs the swap (cost 1); reversed is free.
        assert_eq!(choices.forward.cost, 1);
        assert_eq!(choices.reversed.cost, 0);
        assert_eq!(choices.forward.cost + choices.reversed.cost, 1);
    }
}
