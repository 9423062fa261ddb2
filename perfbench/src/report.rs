//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{daemon, engine};

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("reveals_per_s", "reveals/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("checkpoint_s", "s"),
    ("restore_s", "s"),
];

/// Per-layer metrics, printed by the traced pass (0 where a layer is
/// bypassed on the workload).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut spec = Vec::new();
    for layer in engine::LAYERS
        .iter()
        .chain([daemon::LAYERS[0], daemon::LAYERS[2]].iter())
    {
        spec.push((format!("{layer}.ns"), "ns"));
        spec.push((format!("{layer}.calls"), "count"));
        spec.push((format!("{layer}.share"), "ratio"));
    }
    spec.push(("runner.flush.calls".into(), "count"));
    spec.push(("runner.flush.per_reveal".into(), "ratio"));
    spec.push(("runner.write.bytes".into(), "bytes"));
    for op in daemon::OPS {
        spec.push((format!("serve.handle.{op}.p50_us"), "us"));
        spec.push((format!("serve.handle.{op}.p99_us"), "us"));
        spec.push((format!("serve.handle.{op}.calls"), "count"));
    }
    for (name, unit) in [
        ("serve.handle.share", "ratio"),
        ("sim.apply_events.ns", "ns"),
        ("sim.apply_events.calls", "count"),
        ("sim.run.ns", "ns"),
        ("sim.run.calls", "count"),
        ("sim.encode_session.ms", "ms"),
        ("sim.decode_session.ms", "ms"),
        ("sim.checkpoint.bytes", "bytes"),
        ("trace.overhead", "ratio"),
        ("trace.coverage", "ratio"),
        ("process.user_s", "s"),
        ("process.sys_s", "s"),
    ] {
        spec.push((name.into(), unit));
    }
    spec
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest value; 0 when empty. Interference on a shared host only ever
/// slows a repetition down, so the fastest one is the steadiest estimate
/// of the program's own time.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Correctness checks of one run: how often each passed and the first
/// failure.
#[derive(Debug, Default)]
pub struct Checks {
    counts: BTreeMap<&'static str, (u64, u64)>,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `Err` carries what went wrong.
    pub fn record(&mut self, name: &'static str, result: Result<(), String>) -> bool {
        let entry = self.counts.entry(name).or_default();
        match result {
            Ok(()) => {
                entry.0 += 1;
                true
            }
            Err(detail) => {
                entry.1 += 1;
                eprintln!("perfbench: check {name} failed: {detail}");
                self.failures.push(format!("{name}: {detail}"));
                false
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty() && !self.counts.is_empty()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (k, (name, (ok, failed))) in self.counts.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"passed\":{ok},\"failed\":{failed}}}"
            );
        }
        out.push('}');
        out
    }
}

/// Renders a measured number with all its digits (integers exactly).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `spec`, in order. Metrics never set print as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit)) in spec.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}
