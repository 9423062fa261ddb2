//! # `mla-runner`
//!
//! Deterministic parallel run-campaign subsystem for the workspace: a
//! std-only work-stealing thread pool behind a [`Campaign`] API (and the
//! raw scoped-batch primitive [`run_indexed`] it runs on), the
//! [`SeedSequence`] splitter that gives every run an independent,
//! reproducible seed stream, and a JSON artifact store
//! ([`RunSink`] / [`CampaignReport`] / [`ArtifactStore`]) that persists
//! per-run costs, per-experiment tables and environment metadata.
//!
//! ## The determinism guarantee
//!
//! A campaign executes a batch of run specs across `T` worker threads and
//! returns the outputs **in spec order**. Each job receives a
//! [`SeedSequence`] derived purely from the campaign's seed root and the
//! spec's index; as long as the job draws all randomness from that
//! sequence, the result vector is **bit-identical for every `T`** and
//! every work-stealing interleaving. The experiment suite in `mla-sim`
//! submits all of its repetition loops through this API, which is why
//! `mla-experiments --threads 8` reproduces `--threads 1` exactly.
//!
//! # Examples
//!
//! ```
//! use mla_runner::{Campaign, SeedSequence};
//!
//! // 16 independent "runs": hash a few derived seeds per spec.
//! let specs: Vec<usize> = (0..16).collect();
//! let job = |&n: &usize, seeds: SeedSequence| {
//!     let coins = seeds.child_str("coins");
//!     (0..n as u64).fold(0u64, |acc, trial| acc.wrapping_add(coins.seed(trial)))
//! };
//! let one = Campaign::new(SeedSequence::new(7)).threads(1).run(&specs, job);
//! let many = Campaign::new(SeedSequence::new(7)).threads(8).run(&specs, job);
//! assert_eq!(one, many);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifact;
mod campaign;
mod json;
mod pool;
mod seed;
pub mod wire;

pub use artifact::{
    git_describe, strip_meta_lines, write_bench_artifact, ArtifactStore, CampaignReport,
    ReportMeta, RunRecord, RunSink, TableData,
};
pub use campaign::{resolve_threads, Campaign, RunSpec};
pub use json::{format_number, Json, JsonError};
pub use pool::run_indexed;
pub use seed::SeedSequence;
pub use wire::{buffered_frame, fill_payload, put_frame, read_frame, write_frame, WireError};
