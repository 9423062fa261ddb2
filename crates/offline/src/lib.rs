//! # `mla-offline`
//!
//! Offline optimum solvers for the online learning MinLA workspace.
//!
//! The paper's competitive analysis compares online algorithms against the
//! offline optimum `Opt` and its lower bound `Δ* = min { d(π0, π) : π
//! feasible for G_k }` (Observation 7). Computing `Δ*` is a linear ordering
//! problem over component blocks — NP-hard in general (*grouping by
//! swapping*) — so this crate provides a ladder of solvers:
//!
//! * [`closest_feasible`] / [`place_blocks`] — the central primitive: a
//!   feasible permutation closest to `π0`, exact (subset DP over blocks ×
//!   free prefix) or heuristic (Borda + local search + interleave DP);
//! * [`offline_optimum`] — `Opt` bounds for a full instance: exact for
//!   lines, a `[Δ*, hierarchical]` sandwich for cliques;
//! * [`solve_exact_dp`] / [`solve_branch_bound`] / [`solve_local_search`] /
//!   [`brute_force`] — pure LOP solvers over a [`BlockWeights`] matrix;
//! * [`minla_exact`] — exact general MinLA (`O(2ⁿ·n)`, `n ≤ 20`), used to
//!   validate the model's structural facts;
//! * the [`oracle`] subsystem — **certifying polynomial-time oracles**
//!   for the tractable guest classes: linear-time proper-interval MinLA
//!   ([`interval_minla`]), polynomial series-parallel chain MinLA
//!   ([`series_parallel_minla`]) and the exact MaxLA duals
//!   ([`maxla_cliques`], [`maxla_path`], [`maxla_cycle`]), each
//!   returning an [`OracleResult`] whose [`Certificate`] the
//!   independent [`verify_certificate`] checker re-validates in
//!   `O(n log n + m)`.
//!
//! # Examples
//!
//! ```
//! use mla_graph::{Instance, RevealEvent, Topology};
//! use mla_offline::{offline_optimum, LopConfig};
//! use mla_permutation::{Node, Permutation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two cliques {0,2} and {1,3} must become contiguous.
//! let instance = Instance::new(
//!     Topology::Cliques,
//!     4,
//!     vec![
//!         RevealEvent::new(Node::new(0), Node::new(2)),
//!         RevealEvent::new(Node::new(1), Node::new(3)),
//!     ],
//! )?;
//! let pi0 = Permutation::identity(4);
//! let bounds = offline_optimum(&instance, &pi0, &LopConfig::default())?;
//! assert_eq!(bounds.lower, 1); // swap 1 and 2 once: [0,2,1,3]
//! assert!(bounds.is_tight());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocks;
mod closest;
mod config;
mod error;
mod exact;
mod lop;
mod opt;
pub mod oracle;
mod placement;
mod weights;

pub use blocks::{free_order_block, hierarchical_block, oriented_block, BlockDescriptor};
pub use closest::{closest_feasible, feasible_distance_lower_bound, state_blocks};
pub use config::{LopConfig, LopStrategy};
pub use error::OfflineError;
pub use exact::{arrangement_value, minla_exact, minla_exact_closest, EXACT_MINLA_MAX_NODES};
pub use lop::{
    borda_seed, brute_force, solve_branch_bound, solve_exact_dp, solve_local_search, LopSolution,
};
pub use opt::{offline_optimum, OptBounds};
pub use oracle::{
    gadget_profile, interval_minla, maxla_cliques, maxla_cycle, maxla_path,
    oracle_arrangement_value, paths_from_edges, series_parallel_minla, spread_weights,
    verify_certificate, Certificate, CertificateError, CliqueSpreadCertificate,
    ClosedFormCertificate, GadgetShape, GuestClass, IntervalCertificate, IntervalModel, Objective,
    OracleResult, ProfileTable, SpCertificate, SpChain, SpChainWitness, SpForest, SpGadget,
};
pub use placement::{
    place_blocks, place_blocks_exact, place_blocks_heuristic, placement_lower_bound, Placement,
};
pub use weights::BlockWeights;
