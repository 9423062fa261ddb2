//! The campaign artifact store: per-run records, per-experiment reports,
//! and a directory of JSON files.
//!
//! Artifact files are split into a **deterministic body** (run records
//! and tables — bit-identical for every thread count, see
//! [`Campaign`](crate::Campaign)) and a single-line **`"meta"` field**
//! carrying everything environmental: base seed, scale, worker count,
//! `git describe`, wall-clock timings. Keeping `meta` on one line lets
//! reproducibility checks compare artifacts byte-for-byte after dropping
//! the lines that start with `"meta":`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::Json;

/// One recorded run (or aggregated cell) of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Run key, e.g. `"cliques-uniform/RandCliques/n=64/rep=3"`.
    pub label: String,
    /// Root seed of the run's [`SeedSequence`](crate::SeedSequence).
    pub seed: u64,
    /// Named measurements (costs, ratios, counts) in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// A record with no metrics yet.
    #[must_use]
    pub fn new(label: impl Into<String>, seed: u64) -> Self {
        RunRecord {
            label: label.into(),
            seed,
            metrics: Vec::new(),
        }
    }

    /// Appends one measurement.
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_owned(), value));
        self
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::object(), |acc, (name, value)| acc.field(name, *value));
        // Seeds are full 64-bit values; a JSON number (f64) would round
        // them, so they are recorded as hex strings.
        Json::object()
            .field("label", self.label.as_str())
            .field("seed", format!("{:#018x}", self.seed))
            .field("metrics", metrics)
    }
}

/// A thread-safe collector of [`RunRecord`]s.
///
/// Experiments push records *after* their campaign returns (results come
/// back in spec order), so the sink's order — and therefore the artifact
/// body — is deterministic.
#[derive(Debug, Default)]
pub struct RunSink {
    records: Mutex<Vec<RunRecord>>,
}

impl RunSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        RunSink::default()
    }

    /// Appends one record.
    pub fn push(&self, record: RunRecord) {
        self.records.lock().expect("sink poisoned").push(record);
    }

    /// Number of records collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink poisoned").len()
    }

    /// Returns `true` if no records were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes all records out, leaving the sink empty.
    #[must_use]
    pub fn drain(&self) -> Vec<RunRecord> {
        std::mem::take(&mut *self.records.lock().expect("sink poisoned"))
    }
}

/// One experiment table in structured (JSON-ready) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableData {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (cells as rendered strings, like the CSV output).
    pub rows: Vec<Vec<String>>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl TableData {
    fn to_json(&self) -> Json {
        Json::object()
            .field("title", self.title.as_str())
            .field("headers", self.headers.clone())
            .field(
                "rows",
                Json::Array(self.rows.iter().map(|row| row.clone().into()).collect()),
            )
            .field("notes", self.notes.clone())
    }
}

/// Environmental metadata recorded alongside (but separated from) the
/// deterministic artifact body.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportMeta {
    /// The campaign base seed.
    pub base_seed: u64,
    /// Scale label (`"tiny"` / `"quick"` / `"full"`).
    pub scale: String,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// `git describe --always --dirty` of the producing tree, if available.
    pub git: Option<String>,
    /// Wall-clock milliseconds for the experiment.
    pub elapsed_ms: f64,
}

impl ReportMeta {
    fn to_json(&self) -> Json {
        Json::object()
            .field("base_seed", self.base_seed.to_string())
            .field("scale", self.scale.as_str())
            .field("threads", self.threads)
            .field("git", self.git.clone())
            .field("elapsed_ms", self.elapsed_ms)
    }
}

/// The complete JSON artifact of one experiment's campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Experiment id, e.g. `"E-T2"` (also the artifact file stem).
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// Paper result reproduced.
    pub paper_ref: String,
    /// Environmental metadata (excluded from determinism comparisons).
    pub meta: ReportMeta,
    /// The experiment's output tables.
    pub tables: Vec<TableData>,
    /// Per-run records.
    pub runs: Vec<RunRecord>,
}

impl CampaignReport {
    /// Serializes the report.
    ///
    /// The body is pretty-printed; the `"meta"` object is rendered
    /// compactly on its own single line so determinism checks can filter
    /// it with a line-based comparison.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let body = Json::object()
            .field("id", self.id.as_str())
            .field("title", self.title.as_str())
            .field("paper_ref", self.paper_ref.as_str())
            .field(
                "tables",
                Json::Array(self.tables.iter().map(TableData::to_json).collect()),
            )
            .field(
                "runs",
                Json::Array(self.runs.iter().map(RunRecord::to_json).collect()),
            );
        let pretty = body.render_pretty();
        // Splice the compact meta line in after the opening brace.
        let meta_line = format!("  \"meta\": {},", self.meta.to_json().render_compact());
        let mut lines: Vec<&str> = pretty.lines().collect();
        debug_assert_eq!(lines.first(), Some(&"{"));
        lines.insert(1, &meta_line);
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// A directory of campaign artifacts plus an `index.json` manifest.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    written: Vec<(String, String)>,
}

impl ArtifactStore {
    /// Opens (creating if needed) an artifact directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            written: Vec::new(),
        })
    }

    /// The artifact directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one report as `<id>.json` (lower-cased id) and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write(&mut self, report: &CampaignReport) -> io::Result<PathBuf> {
        let file = format!("{}.json", report.id.to_lowercase().replace(' ', "-"));
        let path = self.dir.join(&file);
        std::fs::write(&path, report.to_json_string())?;
        self.written.push((report.id.clone(), file));
        Ok(path)
    }

    /// Writes the `index.json` manifest listing every artifact written so
    /// far and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn finish(&self) -> io::Result<PathBuf> {
        let entries = self
            .written
            .iter()
            .map(|(id, file)| {
                Json::object()
                    .field("id", id.as_str())
                    .field("file", file.as_str())
            })
            .collect();
        let index = Json::object()
            .field("kind", "mla-campaign-index")
            .field("artifacts", Json::Array(entries));
        let path = self.dir.join("index.json");
        std::fs::write(&path, index.render_pretty())?;
        Ok(path)
    }
}

/// Writes a benchmark baseline as `<id>.json`, pretty-printed, into the
/// benchmark-artifact directory — `MLA_BENCH_ARTIFACT_DIR` if set, else
/// the workspace's `target/bench-artifacts` wherever the process runs
/// from — creating the directory first. Returns the written path.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures, with the
/// failing path in the message.
pub fn write_bench_artifact(id: &str, report: &Json) -> io::Result<PathBuf> {
    let dir = std::env::var_os("MLA_BENCH_ARTIFACT_DIR").map_or_else(
        || {
            // This crate sits at `<workspace>/crates/runner`.
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
            let workspace = manifest.ancestors().nth(2).unwrap_or(manifest);
            workspace.join("target/bench-artifacts")
        },
        PathBuf::from,
    );
    let path = dir.join(format!("{id}.json"));
    let located =
        |at: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", at.display()));
    std::fs::create_dir_all(&dir).map_err(|e| located(&dir, e))?;
    std::fs::write(&path, report.render_pretty()).map_err(|e| located(&path, e))?;
    Ok(path)
}

/// `git describe --always --dirty` of the repository containing the
/// process's working directory, if git and a repository are available.
///
/// This is provenance for the common case of launching from the source
/// tree (as CI and the README commands do); launched from elsewhere it
/// describes *that* directory's repository, or yields `None` outside any
/// repository — callers wanting exact binary provenance should prefer a
/// build-time stamp.
#[must_use]
pub fn git_describe() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_owned())
    }
}

/// Strips the single-line `"meta"` field from a serialized report, for
/// byte-comparing the deterministic body across runs.
#[must_use]
pub fn strip_meta_lines(artifact: &str) -> String {
    artifact
        .lines()
        .filter(|line| !line.trim_start().starts_with("\"meta\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(threads: usize, elapsed_ms: f64) -> CampaignReport {
        CampaignReport {
            id: "E-XX".to_owned(),
            title: "sample".to_owned(),
            paper_ref: "none".to_owned(),
            meta: ReportMeta {
                base_seed: 42,
                scale: "tiny".to_owned(),
                threads,
                git: Some("abc1234".to_owned()),
                elapsed_ms,
            },
            tables: vec![TableData {
                title: "t".to_owned(),
                headers: vec!["n".to_owned(), "ratio".to_owned()],
                rows: vec![vec!["8".to_owned(), "1.25".to_owned()]],
                notes: vec!["a note".to_owned()],
            }],
            runs: vec![RunRecord::new("cell/alg/n=8/rep=0", 77)
                .metric("total_cost", 12.0)
                .metric("ratio", 1.25)],
        }
    }

    #[test]
    fn meta_is_a_single_strippable_line() {
        let a = sample_report(1, 10.0).to_json_string();
        let b = sample_report(8, 99.9).to_json_string();
        assert_ne!(a, b);
        assert_eq!(strip_meta_lines(&a), strip_meta_lines(&b));
        assert_eq!(a.lines().filter(|l| l.contains("\"meta\"")).count(), 1);
    }

    #[test]
    fn report_json_contains_runs_and_tables() {
        let text = sample_report(4, 1.0).to_json_string();
        assert!(text.contains("\"total_cost\": 12"));
        assert!(text.contains("\"headers\""));
        assert!(text.contains("\"E-XX\""));
        assert!(text.contains("\"threads\":4"));
    }

    #[test]
    fn sink_collects_and_drains() {
        let sink = RunSink::new();
        assert!(sink.is_empty());
        sink.push(RunRecord::new("a", 1));
        sink.push(RunRecord::new("b", 2).metric("x", 3.0));
        assert_eq!(sink.len(), 2);
        let records = sink.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "a");
        assert!(sink.is_empty());
    }

    #[test]
    fn store_writes_artifacts_and_index() {
        let dir = std::env::temp_dir().join(format!("mla-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ArtifactStore::create(&dir).expect("create store");
        let path = store.write(&sample_report(2, 5.0)).expect("write");
        assert!(path.ends_with("e-xx.json"));
        let index = store.finish().expect("index");
        let manifest = std::fs::read_to_string(index).expect("read index");
        assert!(manifest.contains("e-xx.json"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
