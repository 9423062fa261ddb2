//! # `mla-bench`
//!
//! Criterion benchmark harness for the online MinLA reproduction. This
//! crate has no library API — all content lives in `benches/`:
//!
//! * `kendall` — Kendall tau distance, inversion counting, block moves;
//! * `online_update` — full runs of each online algorithm per topology;
//! * `offline_lop` — the LOP solver ladder and the placement DP;
//! * `adversary_gen` — workload generation throughput;
//! * `experiments` — one target per experiment (`Scale::Tiny`), so
//!   `cargo bench` exercises every table-producing code path;
//! * `campaign` — sequential vs parallel campaign throughput
//!   (`BENCH`-artifact-free);
//! * `arrangement` — dense vs segment backend over full online runs
//!   (`BENCH_arrangement.json`, CI speedup gate);
//! * `merge_throughput` — lazy vs eager merge snapshots on streamed runs
//!   (`BENCH_merge.json`, CI speedup gate).
//!
//! Run `cargo bench --workspace`; results land in `target/criterion/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
