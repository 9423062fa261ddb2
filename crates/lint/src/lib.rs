//! # `mla-lint`
//!
//! The workspace's determinism / panic-safety lint pass — a certifying
//! companion to the contracts no compiler checks:
//!
//! * **determinism** — `RunOutcome`s must be bit-identical for every
//!   thread count (docs/ARCHITECTURE.md), so outcome-affecting crates
//!   may not iterate `HashMap`/`HashSet`, read wall clocks
//!   (`Instant`/`SystemTime`), inspect `thread::current`, or read the
//!   environment;
//! * **panic-safety** — serving-path library code propagates errors
//!   instead of calling `unwrap`/`expect`/`panic!`/`todo!`;
//! * **headers** — every crate root keeps `#![forbid(unsafe_code)]` and
//!   the workspace lint header;
//! * **cast-hygiene** — cost/position arithmetic never narrows below the
//!   `u128` contract with a bare `as`.
//!
//! Deliberate exceptions are declared **per site** with a pragma that
//! must carry a justification:
//!
//! ```text
//! // mla-lint: allow(panic-safety): bounds always holds the origin 0.
//! ```
//!
//! An unjustified or unknown-rule pragma is itself a violation. The CLI
//! (`cargo run -p mla-lint -- --workspace`) walks every non-test,
//! non-bench source file of the workspace and exits nonzero on any
//! finding — it runs as a hard CI gate.
//!
//! Like the vendored `rand`/`proptest` stand-ins, the crate
//! is std-only (the build environment has no registry access): the
//! scanner is a hand-rolled lexer (see [`mod@scan`]), not a full parser, and
//! the rules are scoped so that lexical matching is sound in practice —
//! string literals, comments and `#[cfg(test)]` items are excluded.
//!
//! # Examples
//!
//! ```
//! use mla_lint::{lint_source, Rule};
//!
//! let diags = lint_source(
//!     "crates/core/src/bad.rs",
//!     "use std::collections::HashMap;\n",
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, Rule::Determinism);
//! assert_eq!(diags[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, Rule, DETERMINISM_CRATES, REQUIRED_HEADERS, SERVING_CRATES};
pub use scan::{scan, ScannedFile, ScannedLine};

/// A parsed `mla-lint:` pragma.
#[derive(Debug, Clone)]
struct Pragma {
    /// Rules this pragma suppresses (empty when the pragma is invalid).
    rules: Vec<Rule>,
    /// Whether the pragma's own line carries code (then it suppresses
    /// only that line) or is comment-only (then it covers the next line).
    own_line_has_code: bool,
}

/// Parses the pragma on one comment, reporting pragma-rule violations.
fn parse_pragma(
    path: &str,
    line: &ScannedLine,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<Pragma> {
    // A pragma is a whole comment of the form `// mla-lint: …` (doc
    // comments add `/` or `!` before the text); prose merely *mentioning*
    // `mla-lint:` mid-sentence is not a pragma.
    let comment = line.comment.trim_start_matches(['/', '!', ' ']).trim_end();
    let rest = comment.strip_prefix("mla-lint:")?.trim();
    let mut invalid = |message: String| {
        diagnostics.push(Diagnostic {
            path: path.to_owned(),
            line: line.number,
            rule: Rule::Pragma,
            message,
        });
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        invalid(format!(
            "malformed pragma `{comment}`; expected `mla-lint: allow(<rule>): <justification>`"
        ));
        return None;
    };
    let Some((names, tail)) = args.split_once(')') else {
        invalid("pragma is missing the closing `)`".to_owned());
        return None;
    };
    let mut rules = Vec::new();
    for name in names.split(',') {
        let name = name.trim();
        match Rule::from_name(name) {
            Some(rule) => rules.push(rule),
            None => {
                invalid(format!("pragma names unknown rule `{name}`"));
                return None;
            }
        }
    }
    let justification = tail.trim_start_matches([':', '—', '-', ' ']).trim();
    if justification.is_empty() {
        invalid(
            "pragma has no justification; write `mla-lint: allow(<rule>): <why this is sound>`"
                .to_owned(),
        );
        return None;
    }
    Some(Pragma {
        rules,
        own_line_has_code: !line.code.trim().is_empty(),
    })
}

/// Lints one file's source text under its workspace-relative `path`
/// (the path decides which rules apply — see [`rules::applies`]).
#[must_use]
pub fn lint_source(path: &str, text: &str) -> Vec<Diagnostic> {
    let scanned = scan(text);
    let mut diagnostics = Vec::new();

    // Pass 1: pragmas. `allowed[i]` holds the rules suppressed on line
    // index `i` (0-based).
    let mut allowed: Vec<Vec<Rule>> = vec![Vec::new(); scanned.lines.len()];
    for (index, line) in scanned.lines.iter().enumerate() {
        if let Some(pragma) = parse_pragma(path, line, &mut diagnostics) {
            allowed[index].extend_from_slice(&pragma.rules);
            if !pragma.own_line_has_code {
                if let Some(next) = allowed.get_mut(index + 1) {
                    next.extend_from_slice(&pragma.rules);
                }
            }
        }
    }

    // Pass 2: the whole-file header rule (suppressible from line 1).
    let mut header_diags = Vec::new();
    rules::check_headers(path, &scanned.lines, &mut header_diags);
    for diag in header_diags {
        let suppressed = allowed
            .get(diag.line - 1)
            .is_some_and(|rules| rules.contains(&Rule::Headers));
        if !suppressed {
            diagnostics.push(diag);
        }
    }

    // Pass 3: the per-line content rules, skipping test-gated code.
    let mut findings = Vec::new();
    for (index, line) in scanned.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        findings.clear();
        rules::check_line(path, line, &mut findings);
        for (rule, _, message) in findings.drain(..) {
            if allowed[index].contains(&rule) {
                continue;
            }
            diagnostics.push(Diagnostic {
                path: path.to_owned(),
                line: line.number,
                rule,
                message,
            });
        }
    }

    diagnostics.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    diagnostics
}

/// Lints one file on disk, using `rel` as its workspace-relative path.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be read.
pub fn lint_file(root: &Path, rel: &str) -> io::Result<Vec<Diagnostic>> {
    let text = fs::read_to_string(root.join(rel))?;
    Ok(lint_source(rel, &text))
}

/// Directory names whose contents are never scanned: tests and benches
/// are allowed to panic and to use whatever collections they like, and
/// fixtures are deliberately bad.
const SKIPPED_DIRS: &[&str] = &["tests", "benches", "fixtures", "target", "vendor"];

/// Collects every lintable source file under the workspace root, in
/// sorted order: the root facade's `src/` plus each `crates/*/src/`.
///
/// # Errors
///
/// Returns the underlying I/O error when a directory cannot be read.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_sources(root, &root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    members.sort();
    for member in members {
        let src = member.join("src");
        if src.is_dir() {
            collect_sources(root, &src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (workspace-relative),
/// skipping [`SKIPPED_DIRS`].
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIPPED_DIRS.contains(&name) {
                collect_sources(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns the underlying I/O error when a source file cannot be read.
pub fn lint_workspace(root: &Path) -> io::Result<(Vec<Diagnostic>, usize)> {
    let files = workspace_files(root)?;
    let scanned = files.len();
    let mut diagnostics = Vec::new();
    for rel in &files {
        diagnostics.extend(lint_file(root, rel)?);
    }
    Ok((diagnostics, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_suppresses_same_line() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "let v = q.pop().expect(\"q\"); // mla-lint: allow(panic-safety): queue is non-empty\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pragma_on_preceding_comment_line_covers_next() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "// mla-lint: allow(panic-safety): queue is non-empty by the loop guard\nlet v = q.pop().expect(\"q\");\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unjustified_pragma_is_an_error() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "let v = q.pop().expect(\"q\"); // mla-lint: allow(panic-safety)\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}"); // pragma error + unsuppressed finding
        assert!(diags.iter().any(|d| d.rule == Rule::Pragma));
        assert!(diags.iter().any(|d| d.rule == Rule::PanicSafety));
    }

    #[test]
    fn unknown_rule_pragma_is_an_error() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "fn f() {} // mla-lint: allow(speed): because\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::Pragma);
    }

    #[test]
    fn pragma_does_not_leak_past_its_scope() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "// mla-lint: allow(panic-safety): only the next line\nlet a = x.expect(\"a\");\nlet b = y.expect(\"b\");\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn test_modules_are_exempt() {
        let diags = lint_source(
            "crates/sim/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_render_file_and_line() {
        let diags = lint_source(
            "crates/core/src/x.rs",
            "fn f() {}\nlet m = HashMap::new();\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(
            format!("{}", diags[0])
                .split(':')
                .take(2)
                .collect::<Vec<_>>(),
            vec!["crates/core/src/x.rs", "2"]
        );
    }
}
