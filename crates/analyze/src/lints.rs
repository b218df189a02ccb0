//! The lint registry and the analysis engine.
//!
//! Every lint has a stable ID, a severity and a crate scope tuned to
//! this workspace's real hazards (see `LINTS`). Findings are produced
//! per file and then matched against *waivers* — structured comments of
//! the form
//!
//! ```text
//! // soctam-analyze: allow(DET-01) -- <written justification>
//! // soctam-analyze: allow-file(DET-03) -- <written justification>
//! ```
//!
//! A line waiver silences findings on its own line or the line directly
//! below (comment-above-code style); a file waiver silences one lint
//! for the whole file. A waiver that silences nothing is itself a
//! finding (**WAIVER-01**), so the waiver list cannot rot.

use std::collections::BTreeMap;

use crate::ast::{Ast, NARROW_CASTS};
use crate::facts::FindingRec;
use crate::lexer::{Tok, TokKind};

/// Finding severity. Both fail the run; `Warning` marks hygiene lints
/// (stale waivers) as opposed to determinism/soundness hazards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Determinism / soundness hazard.
    Error,
    /// Hygiene problem (e.g. a stale waiver).
    Warning,
}

impl Severity {
    /// Lower-case name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A registered lint.
#[derive(Clone, Copy, Debug)]
pub struct LintInfo {
    /// Stable ID (`DET-01`, ...). Never renumbered.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line summary for `soctam-analyze lints` and the docs.
    pub summary: &'static str,
    /// Human description of where it applies.
    pub scope: &'static str,
}

/// The lint registry. Adding a lint means adding a row here plus a
/// pass wired into [`analyze`] — see DESIGN.md §13.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "DET-01",
        severity: Severity::Error,
        summary: "HashMap/HashSet in non-test code of a deterministic crate \
                  (iteration order is a nondeterminism hazard)",
        scope: "src/ of tam, compaction, patterns, wrapper, hypergraph, model",
    },
    LintInfo {
        id: "DET-02",
        severity: Severity::Error,
        summary: "Instant/SystemTime/thread::current() reachable from pure \
                  compute code",
        scope: "src/ of deterministic crates + core, tester, exec (metrics.rs waived)",
    },
    LintInfo {
        id: "DET-03",
        severity: Severity::Error,
        summary: "float types or literals in cost/time math (paper arithmetic \
                  is integral u64)",
        scope: "src/ of tam, wrapper, tester",
    },
    LintInfo {
        id: "ARITH-01",
        severity: Severity::Error,
        summary: "bare narrowing `as` cast, or unchecked +/* on a test-time \
                  quantity (use the saturating helpers)",
        scope: "src/ of tam, wrapper",
    },
    LintInfo {
        id: "UNSAFE-01",
        severity: Severity::Error,
        summary: "unsafe outside exec::pool, or an unsafe block/fn/impl \
                  without a SAFETY: comment",
        scope: "whole workspace (corpus fixtures excluded)",
    },
    LintInfo {
        id: "LOCK-01",
        severity: Severity::Error,
        summary: "Mutex/RwLock lock-order cycle whose every edge lies inside \
                  one function (no acquisition held across a call)",
        scope: "src/ of exec, serve",
    },
    LintInfo {
        id: "DET-10",
        severity: Severity::Error,
        summary: "determinism taint: a wall-clock/thread/env/hash-iteration \
                  source reaches a fingerprint, ordered-reduction, golden or \
                  journal sink through the call graph (path reported)",
        scope: "src/ of every crate except bench (exec/src/metrics.rs is the \
                sanctioned wall-clock module); waivable at sink or source site",
    },
    LintInfo {
        id: "LOCK-02",
        severity: Severity::Error,
        summary: "lock-order cycle with at least one acquisition held across \
                  a call into another function",
        scope: "src/ of exec, serve",
    },
    LintInfo {
        id: "ARITH-02",
        severity: Severity::Error,
        summary: "unchecked +/*/narrowing-as on the result of a call that \
                  resolves to a pattern-count/width/test-time function",
        scope: "src/ of tam, wrapper, patterns",
    },
    LintInfo {
        id: "HEADER-01",
        severity: Severity::Error,
        summary: "crate root missing the unified lint header \
                  (forbid(unsafe_code) / deny(unsafe_op_in_unsafe_fn) for exec, \
                  warn(missing_docs), test panic-lint exemption)",
        scope: "every crate's src/lib.rs",
    },
    LintInfo {
        id: "WAIVER-01",
        severity: Severity::Warning,
        summary: "stale, malformed or unknown-lint waiver comment",
        scope: "every scanned file",
    },
];

/// Looks up a lint by ID.
#[must_use]
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == id)
}

/// One hop of an interprocedural finding's call-path evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// `Type::name`-qualified function at this hop.
    pub func: String,
    /// Workspace-relative path of the function's file.
    pub file: String,
    /// 1-based line: the call site to the next hop, or (last step) the
    /// source/acquisition expression itself.
    pub line: usize,
}

/// One analysis finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Registry ID of the lint that fired.
    pub lint: &'static str,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
    /// For waived findings: the waiver's written justification.
    pub waiver_reason: Option<String>,
    /// Call-path evidence for interprocedural lints (DET-10, LOCK-02,
    /// ARITH-02); empty for local lints and LOCK-01.
    pub path: Vec<PathStep>,
}

/// A source file handed to the engine.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Directory name of the owning crate (`tam`, `exec`, ...; the
    /// workspace root package is `repro`).
    pub crate_dir: String,
    /// Path relative to the crate directory (`src/lib.rs`, `tests/x.rs`).
    pub rel_path: String,
    /// Path relative to the workspace root, used in reports.
    pub display_path: String,
    /// File contents.
    pub source: String,
}

/// A stale or malformed waiver, reported as WAIVER-01 and removable by
/// `--fix-stale-waivers`.
#[derive(Clone, Debug)]
pub struct StaleWaiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Why it is stale ("never fired", "malformed", "unknown lint").
    pub why: String,
}

/// The result of one engine run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Unwaived findings (includes WAIVER-01 entries for stale waivers).
    pub findings: Vec<Finding>,
    /// Findings silenced by a waiver, with the justification attached.
    pub waived: Vec<Finding>,
    /// Stale waivers, for `--fix-stale-waivers`.
    pub stale: Vec<StaleWaiver>,
}

/// Crates whose outputs must be bit-identical: DET-01 scope.
const DET_CRATES: &[&str] = &[
    "tam",
    "compaction",
    "patterns",
    "wrapper",
    "hypergraph",
    "model",
];

/// DET-02 scope: pure compute crates (reachable from the deterministic
/// pipeline). `exec/src/metrics.rs` and the whole `bench` crate are
/// waived by construction — wall-clock timing is their job.
const CLOCK_FREE_CRATES: &[&str] = &[
    "tam",
    "compaction",
    "patterns",
    "wrapper",
    "hypergraph",
    "model",
    "core",
    "tester",
    "exec",
];

/// DET-03 / ARITH-01 scope: the crates holding the paper's cost/time
/// arithmetic.
const TIME_MATH_CRATES: &[&str] = &["tam", "wrapper", "tester"];
pub(crate) const CAST_CRATES: &[&str] = &["tam", "wrapper"];

/// Identifiers treated as test-time quantities by ARITH-01's
/// unchecked-operator heuristic (ARITH-02 extends this to function
/// names — see `facts::is_quantity_fn`).
pub(crate) fn is_time_quantity(ident: &str) -> bool {
    matches!(
        ident,
        "t_in" | "t_si" | "t_total" | "t_soc" | "time" | "cycles" | "makespan"
    ) || ident.ends_with("_time")
        || ident.ends_with("_cycles")
        || ident.starts_with("time_")
}

/// The waiver-comment tag (parsing lives in `facts::parse_waivers`).
pub(crate) const WAIVER_TAG: &str = "soctam-analyze:";

/// What the local (single-file) lints read: the tokens and the one
/// parse of the file.
struct LocalCtx<'a> {
    file: &'a SourceFile,
    toks: &'a [Tok],
    ast: &'a Ast,
    /// `toks[i]` lies outside every test item and `use` declaration.
    lintable: Vec<bool>,
    is_src: bool,
}

/// Runs every local lint over one parsed file. The result is
/// owned-string [`FindingRec`]s so it can live in the parse cache.
pub(crate) fn local_findings(file: &SourceFile, toks: &[Tok], ast: &Ast) -> Vec<FindingRec> {
    let mut lintable = vec![true; toks.len()];
    for &(lo, hi) in ast.test_ranges.iter().chain(&ast.use_ranges) {
        lintable[lo..=hi].fill(false);
    }
    let ctx = LocalCtx {
        file,
        toks,
        ast,
        lintable,
        is_src: file.rel_path.starts_with("src/"),
    };
    let mut out = Vec::new();
    det01(&ctx, &mut out);
    det02(&ctx, &mut out);
    det03(&ctx, &mut out);
    arith01(&ctx, &mut out);
    unsafe01(&ctx, &mut out);
    header01(&ctx, &mut out);
    out
}

/// Runs every applicable lint over `files` and resolves waivers.
///
/// This is the sequential, cache-free entry point (corpus tests, small
/// trees); the parallel incremental engine (`engine::run`) builds the
/// same per-file facts on the `soctam-exec` pool and calls
/// `analyze_facts` — one code path for both.
#[must_use]
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let facts: Vec<crate::facts::FileFacts> = files.iter().map(crate::facts::build).collect();
    analyze_facts(&facts)
}

/// The engine core: local findings from the facts, the global
/// (interprocedural) passes over the call graph, deduplication, waiver
/// resolution and waiver-staleness accounting.
pub(crate) fn analyze_facts(facts: &[crate::facts::FileFacts]) -> Analysis {
    let mut out = Analysis::default();

    let mut raw: Vec<Finding> = Vec::new();
    for file in facts {
        for rec in &file.findings {
            // Cached facts may name a lint that was since retired;
            // skipping it beats inventing an unregistered ID.
            if let Some(info) = lint_info(&rec.lint) {
                raw.push(Finding {
                    lint: info.id,
                    file: file.display_path.clone(),
                    line: rec.line,
                    message: rec.message.clone(),
                    waiver_reason: None,
                    path: Vec::new(),
                });
            }
        }
    }

    // Interprocedural passes over the call graph.
    let graph = crate::graph::build(facts);
    raw.extend(crate::passes::det10(facts, &graph));
    raw.extend(crate::passes::lock_order(facts, &graph));
    raw.extend(crate::passes::arith02(facts, &graph));

    // Dedupe to one finding per (lint, file, line). DET-10 additionally
    // keeps one finding per distinct *source file*, so a source-site
    // waiver for one source cannot shadow an unwaived source elsewhere.
    fn src_file(f: &Finding) -> &str {
        f.path.last().map(|s| s.file.as_str()).unwrap_or("")
    }
    raw.sort_by(|a, b| {
        (a.lint, &a.file, a.line)
            .cmp(&(b.lint, &b.file, b.line))
            .then_with(|| src_file(a).cmp(src_file(b)))
            .then_with(|| a.message.cmp(&b.message))
    });
    raw.dedup_by(|a, b| {
        a.lint == b.lint
            && a.file == b.file
            && a.line == b.line
            && (a.lint != "DET-10" || src_file(a) == src_file(b))
    });

    // ARITH-02 defers to an ARITH-01 finding on the same line (one
    // waiver, one hazard).
    let arith01_sites: std::collections::BTreeSet<(String, usize)> = raw
        .iter()
        .filter(|f| f.lint == "ARITH-01")
        .map(|f| (f.file.clone(), f.line))
        .collect();
    raw.retain(|f| f.lint != "ARITH-02" || !arith01_sites.contains(&(f.file.clone(), f.line)));

    // Waiver matching. DET-10 findings may be waived at the sink site
    // *or* at the source site (the last call-path step): one reasoned
    // waiver next to a sanctioned nondeterminism source covers every
    // sink it taints.
    let file_idx: BTreeMap<&str, usize> = facts
        .iter()
        .enumerate()
        .map(|(i, f)| (f.display_path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = facts.iter().map(|f| vec![false; f.waivers.len()]).collect();
    let match_in = |fi: usize, lint: &str, line: usize| -> Option<usize> {
        facts[fi].waivers.iter().position(|w| {
            w.reason.is_some()
                && w.lint == lint
                && (w.file_scope || w.line == line || w.line + 1 == line)
        })
    };
    for mut finding in raw {
        let mut hit = file_idx
            .get(finding.file.as_str())
            .and_then(|&fi| match_in(fi, finding.lint, finding.line).map(|w| (fi, w)));
        if hit.is_none() && finding.lint == "DET-10" {
            if let Some(last) = finding.path.last() {
                hit = file_idx
                    .get(last.file.as_str())
                    .and_then(|&fi| match_in(fi, finding.lint, last.line).map(|w| (fi, w)));
            }
        }
        match hit {
            Some((fi, w)) => {
                used[fi][w] = true;
                finding
                    .waiver_reason
                    .clone_from(&facts[fi].waivers[w].reason);
                out.waived.push(finding);
            }
            None => out.findings.push(finding),
        }
    }

    // WAIVER-01: stale / malformed / unknown-lint waivers.
    for (fi, file) in facts.iter().enumerate() {
        for (wi, w) in file.waivers.iter().enumerate() {
            let why = if w.lint.is_empty() || w.reason.is_none() {
                Some(format!(
                    "malformed waiver: expected `// {WAIVER_TAG} allow(LINT-ID) -- reason`"
                ))
            } else if lint_info(&w.lint).is_none() {
                Some(format!("waiver names unknown lint `{}`", w.lint))
            } else if !used[fi][wi] {
                Some(format!(
                    "stale waiver: {} no longer fires here (remove it or run --fix-stale-waivers)",
                    w.lint
                ))
            } else {
                None
            };
            if let Some(why) = why {
                out.findings.push(Finding {
                    lint: "WAIVER-01",
                    file: file.display_path.clone(),
                    line: w.line,
                    message: why.clone(),
                    waiver_reason: None,
                    path: Vec::new(),
                });
                out.stale.push(StaleWaiver {
                    file: file.display_path.clone(),
                    line: w.line,
                    why,
                });
            }
        }
    }

    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out.waived
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

fn det01(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    if !ctx.is_src || !DET_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    for (i, tok) in ctx.toks.iter().enumerate() {
        if tok.kind == TokKind::Ident
            && (tok.text == "HashMap" || tok.text == "HashSet")
            && ctx.lintable[i]
        {
            out.push(FindingRec::new(
                "DET-01",
                tok.line,
                format!(
                    "`{}` in deterministic crate `{}`: iteration order is \
                     nondeterministic — iterate sorted, use BTreeMap/BTreeSet, \
                     or waive with an order-safety argument",
                    tok.text, ctx.file.crate_dir
                ),
            ));
        }
    }
}

fn det02(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    if !ctx.is_src || !CLOCK_FREE_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    // The metrics module is the sanctioned wall-clock sink.
    if ctx.file.crate_dir == "exec" && ctx.file.rel_path == "src/metrics.rs" {
        return;
    }
    for (i, tok) in ctx.toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || !ctx.lintable[i] {
            continue;
        }
        let hazard = match tok.text.as_str() {
            "Instant" | "SystemTime" => Some(tok.text.as_str()),
            "thread" => {
                let nxt = |off: usize| ctx.toks.get(i + off).map(|t| t.text.as_str()).unwrap_or("");
                (nxt(1) == ":" && nxt(2) == ":" && nxt(3) == "current").then_some("thread::current")
            }
            _ => None,
        };
        if let Some(what) = hazard {
            out.push(FindingRec::new(
                "DET-02",
                tok.line,
                format!(
                    "wall-clock/thread-identity source `{what}` in pure compute \
                     crate `{}` — results must not depend on time or scheduling",
                    ctx.file.crate_dir
                ),
            ));
        }
    }
}

fn det03(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    if !ctx.is_src || !TIME_MATH_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    for (i, tok) in ctx.toks.iter().enumerate() {
        if !ctx.lintable[i] {
            continue;
        }
        let hit = match tok.kind {
            TokKind::Ident => tok.text == "f32" || tok.text == "f64",
            TokKind::Float => true,
            _ => false,
        };
        if hit {
            out.push(FindingRec::new(
                "DET-03",
                tok.line,
                format!(
                    "float `{}` in cost/time-math crate `{}`: all paper \
                     arithmetic is integral u64",
                    tok.text, ctx.file.crate_dir
                ),
            ));
        }
    }
}

fn arith01(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    if !ctx.is_src || !CAST_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    let code = &ctx.ast.code;
    for (p, &i) in code.iter().enumerate() {
        if !ctx.lintable[i] {
            continue;
        }
        let tok = &ctx.toks[i];
        // (a) bare truncating casts.
        if tok.kind == TokKind::Ident && tok.text == "as" {
            if let Some(&j) = code.get(p + 1) {
                let target = &ctx.toks[j];
                if target.kind == TokKind::Ident && NARROW_CASTS.contains(&target.text.as_str()) {
                    out.push(FindingRec::new(
                        "ARITH-01",
                        tok.line,
                        format!(
                            "bare `as {}` cast silently truncates — use \
                             try_from or waive with a range argument",
                            target.text
                        ),
                    ));
                }
            }
        }
        // (b) unchecked +/* on test-time quantities.
        if tok.kind == TokKind::Punct && (tok.text == "+" || tok.text == "*") {
            // Binary position: the previous code token must terminate an
            // operand (rules out unary deref/reference and `&*`).
            let prev_ok = p > 0
                && matches!(
                    (
                        ctx.toks[code[p - 1]].kind,
                        ctx.toks[code[p - 1]].text.as_str()
                    ),
                    (TokKind::Ident, _) | (TokKind::Int, _) | (_, ")") | (_, "]")
                );
            // `+=`-style compound assignment also counts; `+` followed by
            // `=` is the compound form (`==` can't follow a complete
            // operand + `+`).
            if !prev_ok {
                continue;
            }
            let prev_ident = (ctx.toks[code[p - 1]].kind == TokKind::Ident)
                .then(|| ctx.toks[code[p - 1]].text.as_str());
            // Right operand: skip a compound `=` and any `&`/`(`.
            let mut q = p + 1;
            while code.get(q).is_some_and(|&j| {
                matches!(ctx.toks[j].text.as_str(), "=" | "&" | "(" | "*" | "mut")
            }) {
                q += 1;
            }
            let next_ident = code.get(q).and_then(|&j| {
                (ctx.toks[j].kind == TokKind::Ident).then(|| ctx.toks[j].text.as_str())
            });
            let operand = [prev_ident, next_ident]
                .into_iter()
                .flatten()
                .find(|id| is_time_quantity(id));
            if let Some(id) = operand {
                out.push(FindingRec::new(
                    "ARITH-01",
                    tok.line,
                    format!(
                        "unchecked `{}` on test-time quantity `{id}` — use \
                         saturating_add/saturating_mul (PR 3 convention)",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// The single file where `unsafe` is tolerated, given a SAFETY comment.
const UNSAFE_SANCTUARY: (&str, &str) = ("exec", "src/pool.rs");

fn unsafe01(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    let sanctioned =
        ctx.file.crate_dir == UNSAFE_SANCTUARY.0 && ctx.file.rel_path == UNSAFE_SANCTUARY.1;
    let code = &ctx.ast.code;
    for (p, &i) in code.iter().enumerate() {
        let tok = &ctx.toks[i];
        if tok.kind != TokKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let next = code.get(p + 1).map(|&j| ctx.toks[j].text.as_str());
        // `unsafe fn(` in type position is a fn-pointer type, not a
        // declaration — no body, nothing to justify at this site.
        if next == Some("fn") && code.get(p + 2).map(|&j| ctx.toks[j].text.as_str()) == Some("(") {
            continue;
        }
        if !sanctioned {
            out.push(FindingRec::new(
                "UNSAFE-01",
                tok.line,
                "`unsafe` outside `exec::pool` — the pool is the workspace's \
                 only sanctioned unsafe module"
                    .to_string(),
            ));
            continue;
        }
        if !has_safety_comment(ctx.toks, i, tok.line) {
            out.push(FindingRec::new(
                "UNSAFE-01",
                tok.line,
                "`unsafe` without a `SAFETY:` comment on the preceding lines".to_string(),
            ));
        }
    }
}

/// Looks for a `SAFETY:` comment in the contiguous comment block ending
/// directly above `line` (or on `line` itself).
fn has_safety_comment(toks: &[Tok], unsafe_idx: usize, line: usize) -> bool {
    let mut expected = line;
    for tok in toks[..unsafe_idx].iter().rev() {
        if tok.line + 1 < expected {
            break;
        }
        if tok.is_comment() {
            if tok.text.contains("SAFETY:") || tok.text.contains("# Safety") {
                return true;
            }
            expected = tok.line;
        } else if tok.line == line {
            // Code earlier on the same line: keep scanning upward.
            continue;
        } else {
            break;
        }
    }
    false
}

fn header01(ctx: &LocalCtx<'_>, out: &mut Vec<FindingRec>) {
    if ctx.file.rel_path != "src/lib.rs" {
        return;
    }
    let attrs = &ctx.ast.inner_attrs;
    let have = |needle: &str| attrs.iter().any(|a| a.contains(needle));
    let mut missing = Vec::new();
    if ctx.file.crate_dir == "exec" {
        // The sole sanctioned unsafe crate trades forbid(unsafe_code)
        // for a strict unsafe-block hygiene lint.
        if !have("deny(unsafe_op_in_unsafe_fn)") {
            missing.push("#![deny(unsafe_op_in_unsafe_fn)]");
        }
    } else if !have("forbid(unsafe_code)") {
        missing.push("#![forbid(unsafe_code)]");
    }
    if !have("warn(missing_docs)") {
        missing.push("#![warn(missing_docs)]");
    }
    if !have("cfg_attr(test,allow(clippy::unwrap_used,clippy::expect_used))")
        && !have("allow(clippy::unwrap_used,clippy::expect_used)")
    {
        missing.push("#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]");
    }
    for attr in missing {
        out.push(FindingRec::new(
            "HEADER-01",
            1,
            format!("crate root is missing the unified lint header attribute `{attr}`"),
        ));
    }
}
