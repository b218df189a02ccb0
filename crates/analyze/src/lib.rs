//! `soctam-analyze` — a std-only, dependency-free static analysis
//! engine over the soctam workspace.
//!
//! The reproduction's headline guarantee — bit-identical
//! `T_soc = T_soc_in + T_soc_si` for any `--jobs`, any cache state and
//! any failpoint-inactive run — is enforced dynamically by golden and
//! property tests. This crate enforces it *statically*, at CI time. A
//! hand-rolled lexer (`lexer`) and recursive-descent parser (`ast`)
//! turn every `.rs` file into per-file facts (`facts`); an
//! over-approximate call graph (`graph`) links them; interprocedural
//! passes (`passes`) and local lints over each parse (`lints::LINTS`)
//! flag determinism and arithmetic hazards before they can reach an
//! evaluator run:
//!
//! | lint | hazard |
//! |------|--------|
//! | DET-01 | `HashMap`/`HashSet` in deterministic crates |
//! | DET-02 | wall-clock / thread identity in pure compute code |
//! | DET-03 | floats in cost/time math |
//! | DET-10 | nondeterministic source reaches a fingerprint/reduction/golden/journal sink through the call graph |
//! | ARITH-01 | truncating casts / unchecked `+`,`*` on test times |
//! | ARITH-02 | unchecked arithmetic on a quantity-returning call, interprocedurally |
//! | UNSAFE-01 | `unsafe` outside `exec::pool` or missing `SAFETY:` |
//! | LOCK-01 | lock-order cycle inside functions in `exec`/`serve` |
//! | LOCK-02 | lock-order cycle through calls made while a lock is held |
//! | HEADER-01 | crate root missing the unified lint header |
//! | WAIVER-01 | stale/malformed waiver comments |
//!
//! A genuine exception carries a written waiver:
//!
//! ```text
//! // soctam-analyze: allow(DET-02) -- deadline checks are opt-in degradation
//! ```
//!
//! Per-file parses run in parallel on the `soctam-exec` pool with an
//! ordered reduction, and parse results are cached on disk keyed by
//! content fingerprint (`cache`), so warm re-runs are incremental. Run
//! `cargo run -p soctam-analyze -- check` (exit 0 only on a clean
//! tree), or `-- check --format json` for the `soctam-analyze/2`
//! machine-readable report. See DESIGN.md §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
pub mod ast;
pub mod cache;
pub mod engine;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod passes;
pub mod report;
pub mod workspace;

use std::io;
use std::path::Path;

pub use engine::Options;
pub use lints::{analyze, Analysis, Finding, LintInfo, PathStep, Severity, SourceFile, LINTS};
pub use report::{render, Format};

/// Result of a full workspace check.
#[derive(Debug)]
pub struct CheckReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Files whose facts were served from the on-disk parse cache.
    pub cache_hits: usize,
    /// Files that had to be lexed and parsed this run.
    pub cache_misses: usize,
    /// The findings, waivers and stale-waiver list.
    pub analysis: Analysis,
}

/// Runs the full pass over the workspace rooted at `root` with default
/// options: the process-global pool and the on-disk cache under
/// `target/analyze-cache`.
///
/// # Errors
///
/// Propagates I/O failures from the workspace walk.
pub fn run_check(root: &Path) -> io::Result<CheckReport> {
    engine::run(
        root,
        &Options {
            jobs: 0,
            cache_dir: Some(root.join("target/analyze-cache")),
        },
    )
}

/// Removes the stale waiver comments listed in `report` from the files
/// on disk. Returns the number of waivers removed.
///
/// Cut points come from the lexer's comment-token spans, not from text
/// search, so a string literal that *contains* the waiver tag is never
/// truncated. A waiver that is the only content of its line removes
/// the whole line; a trailing waiver is trimmed back to the code
/// before it. Files are rewritten only when something changed, so a
/// second run over an already-fixed tree is a byte-level no-op.
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting a file.
pub fn fix_stale_waivers(root: &Path, report: &CheckReport) -> io::Result<usize> {
    use std::collections::BTreeMap;
    let mut by_file: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for stale in &report.analysis.stale {
        by_file.entry(&stale.file).or_default().push(stale.line);
    }
    let mut removed = 0usize;
    for (file, lines) in by_file {
        let path = root.join(file);
        let source = std::fs::read_to_string(&path)?;
        // Byte offset where the waiver comment token starts, per line.
        let mut cut_at: BTreeMap<usize, usize> = BTreeMap::new();
        for tok in lexer::lex(&source) {
            if tok.kind == lexer::TokKind::LineComment
                && tok
                    .text
                    .trim_start_matches('/')
                    .trim_start()
                    .starts_with(lints::WAIVER_TAG)
            {
                cut_at.insert(tok.line, tok.lo);
            }
        }
        let mut text = String::with_capacity(source.len());
        let mut line_start = 0usize;
        for (idx, raw) in source.split_inclusive('\n').enumerate() {
            match cut_at.get(&(idx + 1)) {
                Some(&lo) if lines.contains(&(idx + 1)) => {
                    let kept = raw[..lo - line_start].trim_end();
                    removed += 1;
                    if !kept.is_empty() {
                        text.push_str(kept);
                        if raw.ends_with('\n') {
                            text.push('\n');
                        }
                    }
                }
                _ => text.push_str(raw),
            }
            line_start += raw.len();
        }
        if text != source {
            std::fs::write(&path, text)?;
        }
    }
    Ok(removed)
}
