//! # `mla` — Learning Minimum Linear Arrangement of Cliques and Lines
//!
//! Facade crate for the workspace reproducing the ICDCS 2024 paper
//! *Learning Minimum Linear Arrangement of Cliques and Lines* (Dallot,
//! Pacut, Bienkowski, Melnyk, Schmid; arXiv:2405.15963).
//!
//! The workspace implements the paper's online learning MinLA model — a
//! graph revealed piece-by-piece, a permutation that must be a minimum
//! linear arrangement of everything revealed so far, and costs counted in
//! adjacent transpositions — together with every algorithm, bound and
//! adversary the paper analyses:
//!
//! * [`permutation`] — arrangements, Kendall tau, block operations;
//! * [`graph`] — dynamic clique/line collection states and reveal events;
//! * [`offline`] — offline optimum solvers (exact and heuristic), plus
//!   certifying polynomial-time oracles for interval and series-parallel
//!   guests with an independent certificate checker;
//! * [`core`] — the online algorithms: `Det`, `Rand` for cliques
//!   (`4 ln n`-competitive) and `Rand` for lines (`8 ln n`-competitive);
//! * [`adversary`] — lower-bound constructions and workload generators;
//! * [`runner`] — deterministic parallel campaigns and JSON artifacts;
//! * [`sim`] — the simulation engine and the experiment suite.
//!
//! # Quickstart
//!
//! ```
//! use mla::prelude::*;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // 16 nodes, a random sequence of clique merges, the paper's randomized
//! // algorithm, and the exact offline lower bound.
//! let mut rng = SmallRng::seed_from_u64(7);
//! let instance = random_clique_instance(16, MergeShape::Uniform, &mut rng);
//! let pi0 = Permutation::identity(16);
//!
//! let mut run = Simulation::new(
//!     instance.clone(),
//!     RandCliques::new(pi0.clone(), SmallRng::seed_from_u64(8)),
//! )
//! .check_feasibility(true);
//! let outcome = run.run().expect("valid instance");
//!
//! let opt = offline_optimum(&instance, &pi0, &LopConfig::default()).expect("solvable");
//! assert!(outcome.total_cost <= 1000); // small instance, tiny cost
//! assert!(u128::from(opt.lower) <= outcome.total_cost.max(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use mla_adversary as adversary;
pub use mla_core as core;
pub use mla_general as general;
pub use mla_graph as graph;
pub use mla_offline as offline;
pub use mla_permutation as permutation;
pub use mla_runner as runner;
pub use mla_sim as sim;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use mla_adversary::{
        datacenter_instance, random_clique_instance, random_line_instance, sharded_instance,
        Adversary, BinaryTreeAdversary, DatacenterConfig, DetLineAdversary, FamilyWorkload,
        MergeShape, Oblivious, SourceAdversary, StreamingWorkload, TopologyFamily,
    };
    pub use mla_core::{
        BatchServe, DetClosest, MovePolicy, OnlineMinla, OptReplay, RandCliques, RandLines,
        RearrangePolicy, UpdateReport,
    };
    pub use mla_graph::{
        GraphState, Instance, InstanceSource, MergeInfo, RevealEvent, RevealSource, Topology,
    };
    pub use mla_offline::{
        closest_feasible, interval_minla, maxla_cliques, maxla_path, offline_optimum,
        series_parallel_minla, verify_certificate, Certificate, CertificateError, IntervalModel,
        LopConfig, LopStrategy, OptBounds, OracleResult, SpForest,
    };
    pub use mla_permutation::{Arrangement, Node, Permutation, SegmentArrangement};
    pub use mla_runner::{ArtifactStore, Campaign, CampaignReport, RunSink, SeedSequence};
    pub use mla_sim::{harmonic, OnlineStats, RunOutcome, SimError, Simulation, Table};
}
