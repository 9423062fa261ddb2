//! # `mla-sim`
//!
//! Simulation engine, statistics and the experiment suite for the online
//! learning MinLA reproduction.
//!
//! * [`Simulation`] — drives an adversary against an [`OnlineMinla`]
//!   algorithm, verifying the MinLA feasibility invariant after every
//!   reveal and accounting exact costs; per-event recording is full,
//!   windowed ([`Simulation::record_window`]) or off;
//! * [`Session`] / [`TenantSession`] — long-lived serving sessions on
//!   the same reveal step as [`Simulation::run`], checkpointable at any
//!   point ([`encode_session`] / [`decode_session`]);
//! * [`OnlineStats`] / [`harmonic`] — measurement utilities;
//! * [`Table`] — plain-text/CSV experiment output;
//! * [`all_experiments`] — the registry reproducing every theorem, lemma
//!   and figure of the paper (see `DESIGN.md` for the index, and the
//!   `mla-experiments` binary to run them).
//!
//! Every experiment submits its repetition loops through `mla-runner`'s
//! deterministic [`Campaign`](mla_runner::Campaign) executor: results are
//! bit-identical for every `--threads` count, and when an artifact sink
//! is installed on the [`ExperimentContext`], per-run records and tables
//! are persisted as JSON campaign artifacts.
//!
//! [`OnlineMinla`]: mla_core::OnlineMinla
//!
//! # Examples
//!
//! ```
//! use mla_adversary::{random_line_instance, MergeShape};
//! use mla_core::RandLines;
//! use mla_permutation::Permutation;
//! use mla_sim::Simulation;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let instance = random_line_instance(16, MergeShape::Uniform, &mut rng);
//! let outcome = Simulation::new(
//!     instance,
//!     RandLines::new(Permutation::identity(16), SmallRng::seed_from_u64(2)),
//! )
//! .check_feasibility(true)
//! .run()
//! .expect("feasible run");
//! assert_eq!(outcome.per_event.len(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
mod engine;
mod error;
mod experiment;
pub mod experiments;
pub mod session;
mod stats;
mod table;

pub use checkpoint::CheckpointError;
pub use engine::{RunOutcome, Simulation};
pub use error::SimError;
pub use experiment::{all_experiments, find_experiment, Experiment, ExperimentContext, Scale};
pub use session::{
    decode_session, encode_session, open_session, ArrCodec, BackendKind, PolicyKind, RecordMode,
    Session, SessionSpec, TenantSession,
};
pub use stats::{harmonic, percentile_sorted, OnlineStats, Summary};
pub use table::Table;
