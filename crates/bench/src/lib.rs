//! # `mla-bench`
//!
//! Criterion benchmark harness for the online MinLA reproduction. This
//! crate has no library API — all content lives in `benches/`, and CI
//! runs both targets as speed gates:
//!
//! * `arrangement` — dense vs segment backend over full online runs
//!   (`BENCH_arrangement.json`);
//! * `merge_throughput` — lazy vs eager merge snapshots on streamed runs
//!   (`BENCH_merge.json`).
//!
//! Run `cargo bench -p mla-bench`; the artifacts land in
//! `target/bench-artifacts/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
