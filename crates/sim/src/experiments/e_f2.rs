//! `E-F2`: Figure 2 — the line algorithm's rearranging options, costs and
//! probabilities, enumerated for **all eight** configurations of the two
//! merging blocks (which side `X` is on × each block's orientation).
//!
//! The paper's figure shows one configuration; this table generalizes it
//! and verifies two structural facts from Section 4: the two option costs
//! always sum to `C(|X|+|Z|, 2)`, and the probability of an option equals
//! the other option's normalized cost.

use mla_core::{mechanics::RearrangeChoices, MergeLayout};
use mla_graph::{ComponentSnapshot, MergeInfo};
use mla_permutation::{Node, Permutation};
use mla_runner::RunRecord;

use crate::error::SimError;
use crate::experiment::{Experiment, ExperimentContext};
use crate::experiments::{check, f3, run_label, zip_seeds};
use crate::table::Table;

/// The Figure 2 action-table reproduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct FigureTwo;

/// Builds the permutation for one configuration of `X` (nodes `0..x`) and
/// `Z` (nodes `x..x+z`), adjacent, and returns the rearranging choices.
fn configuration(
    x: usize,
    z: usize,
    x_left: bool,
    x_reversed: bool,
    z_reversed: bool,
) -> RearrangeChoices {
    let x_nodes: Vec<Node> = (0..x).map(Node::new).collect();
    let z_nodes: Vec<Node> = (x..x + z).map(Node::new).collect();
    let mut x_block = x_nodes.clone();
    if x_reversed {
        x_block.reverse();
    }
    let mut z_block = z_nodes.clone();
    if z_reversed {
        z_block.reverse();
    }
    let order: Vec<Node> = if x_left {
        x_block.into_iter().chain(z_block).collect()
    } else {
        z_block.into_iter().chain(x_block).collect()
    };
    // mla-lint: allow(panic-safety): the constructed layout lists each node exactly once
    let perm = Permutation::from_nodes(order).expect("valid layout");
    // mla-lint: allow(panic-safety): Figure 2 cells have non-empty X blocks
    let x_joined = *x_nodes.last().expect("non-empty");
    let z_joined = z_nodes[0];
    let info = MergeInfo {
        x: ComponentSnapshot::eager(x_nodes, x_joined),
        z: ComponentSnapshot::eager(z_nodes, z_joined),
    };
    MergeLayout::locate(&perm, &info).choices(&info)
}

impl Experiment for FigureTwo {
    fn id(&self) -> &'static str {
        "E-F2"
    }

    fn title(&self) -> &'static str {
        "Figure 2: rearranging costs and probabilities, all 8 configurations"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 2 (Section 4.1)"
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<Vec<Table>, SimError> {
        let (x, z) = (3usize, 2usize);
        let pairs_total = {
            let m = (x + z) as u64;
            m * (m - 1) / 2
        };
        let campaign = ctx.campaign("E-F2");
        let mut table = Table::new(
            "E-F2: |X| = 3, |Z| = 2 — both options per configuration",
            &[
                "config",
                "cost(fwd)",
                "cost(rev)",
                "sum",
                "P[fwd]",
                "P[rev]",
                "sum=C(5,2)",
            ],
        );
        // The eight configurations are pure enumeration (no coins), but
        // they still go through the campaign runner so every experiment's
        // work — and its artifacts — flows through one substrate.
        let mut specs: Vec<(bool, bool, bool)> = Vec::new();
        for x_left in [true, false] {
            for x_reversed in [false, true] {
                for z_reversed in [false, true] {
                    specs.push((x_left, x_reversed, z_reversed));
                }
            }
        }
        let results = campaign.run(&specs, |&(x_left, x_reversed, z_reversed), _seeds| {
            let choices = configuration(x, z, x_left, x_reversed, z_reversed);
            (choices.forward.cost, choices.reversed.cost)
        });
        for (&(x_left, x_reversed, z_reversed), seeds, &(fwd, rev)) in
            zip_seeds(&specs, &campaign, &results)
        {
            let total = fwd + rev;
            let p_fwd = rev as f64 / total as f64;
            let label = format!(
                "{}{}{}",
                if x_left { "XZ" } else { "ZX" },
                if x_reversed { ",X rev" } else { ",X fwd" },
                if z_reversed { ",Z rev" } else { ",Z fwd" },
            );
            ctx.record(
                RunRecord::new(run_label("figure2", &label, x + z, 0), seeds.key())
                    .metric("cost_forward", fwd as f64)
                    .metric("cost_reversed", rev as f64),
            );
            table.row(&[
                &label,
                &fwd.to_string(),
                &rev.to_string(),
                &total.to_string(),
                &f3(p_fwd),
                &f3(1.0 - p_fwd),
                check(total == pairs_total),
            ]);
        }
        table.note("P[option] = cost(other option) / C(|X|+|Z|, 2) — the paper's biased coin");
        table.note("the paper's drawn case is row 'XZ,X rev,Z fwd': reverse X w.p. (|X||Z|+C(|Z|,2))/C(|X|+|Z|,2)");

        // The figure's specific formula check: for the drawn configuration,
        // P[reverse X] = (|X||Z| + C(|Z|,2)) / C(|X|+|Z|,2).
        let drawn = configuration(x, z, true, true, false);
        let expected_p_fwd = ((x * z) as f64 + (z * (z - 1) / 2) as f64) / pairs_total as f64;
        let measured_p_fwd =
            drawn.reversed.cost as f64 / (drawn.forward.cost + drawn.reversed.cost) as f64;
        let mut formula = Table::new(
            "E-F2: the exact Figure 2 formula",
            &["quantity", "paper formula", "implementation"],
        );
        formula.row(&[
            "P[reverse X] (forward option)",
            &f3(expected_p_fwd),
            &f3(measured_p_fwd),
        ]);
        formula.row(&[
            "cost forward (reverse X)",
            &((x * (x - 1)) / 2).to_string(),
            &drawn.forward.cost.to_string(),
        ]);
        formula.row(&[
            "cost reversed (swap + reverse Z)",
            &((x * z + z * (z - 1) / 2).to_string()),
            &drawn.reversed.cost.to_string(),
        ]);
        Ok(vec![table, formula])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentContext, Scale};

    #[test]
    fn all_configurations_sum_to_total_pairs() {
        let ctx = ExperimentContext::new(Scale::Tiny, 0);
        let tables = FigureTwo.run(&ctx).unwrap();
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].to_csv().contains(",NO\n"));
    }

    #[test]
    fn figure_formula_matches() {
        // Drawn configuration: X left reading reversed, Z right forward.
        let choices = configuration(3, 2, true, true, false);
        // Forward option: reverse X only → C(3,2) = 3.
        assert_eq!(choices.forward.cost, 3);
        // Reversed option: swap + reverse Z → 6 + 1 = 7.
        assert_eq!(choices.reversed.cost, 7);
        // P[forward] = 7/10 = (|X||Z| + C(|Z|,2)) / C(5,2).
        assert_eq!((3 * 2 + 1) as u64, choices.reversed.cost);
    }
}
