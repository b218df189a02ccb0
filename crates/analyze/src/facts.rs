//! Per-file analysis facts: the cacheable unit of the engine.
//!
//! [`build`] runs the lexer, the parser and every *local* (single-file)
//! lint over one source file and distills the result into a
//! [`FileFacts`] value — local-lint findings, waiver comments, `use`
//! resolution hints and one [`FnFact`] per function with its
//! nondeterminism sources, fingerprint/golden sinks and the ordered
//! lock-acquisition/call event stream. Everything the *global* passes
//! (call graph, DET-10, the LOCK-01/LOCK-02 lock-order search,
//! ARITH-02) need is in here, so a warm engine run can skip lexing and
//! parsing entirely by reloading facts from the on-disk cache (`cache`
//! module), keyed by the file's content fingerprint.

use soctam_exec::fx_fingerprint128;

use crate::ast::{self, CallKind};
use crate::lexer::{lex, Tok, TokKind};
use crate::lints::{self, SourceFile};

/// A parsed waiver comment (`// soctam-analyze: allow(ID) -- reason`).
#[derive(Clone, Debug)]
pub struct WaiverRec {
    /// The waived lint ID; empty when the comment is malformed.
    pub lint: String,
    /// `allow-file` (whole file) vs `allow` (line / line+1).
    pub file_scope: bool,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The written justification after `--`, if present.
    pub reason: Option<String>,
}

/// One local-lint finding, in cacheable (owned-string) form.
#[derive(Clone, Debug)]
pub struct FindingRec {
    /// Registry lint ID.
    pub lint: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

impl FindingRec {
    pub(crate) fn new(lint: &str, line: usize, message: String) -> Self {
        FindingRec {
            lint: lint.to_string(),
            line,
            message,
        }
    }
}

/// One entry of a function's ordered event stream: lock acquisitions
/// and call expressions, interleaved in source (token) order so the
/// lock-order search can tell which locks are held at each call site.
#[derive(Clone, Debug)]
pub enum Event {
    /// A `Mutex`/`RwLock` acquisition with its normalized label
    /// (`self.`-prefixed labels are qualified by impl type in the
    /// lock-order search).
    Acq {
        /// Normalized lock label.
        label: String,
        /// 1-based line.
        line: usize,
    },
    /// A call expression (see [`ast::Call`]).
    Call {
        /// Resolution shape.
        kind: CallKind,
        /// Path qualifier, or `"self"` for a bare-`self` method call.
        qualifier: String,
        /// Callee name.
        name: String,
        /// 1-based line.
        line: usize,
        /// Arithmetic context (`"+"`, `"*"`, `"as u32"`, or empty).
        arith: String,
    },
}

/// Facts about one function.
#[derive(Clone, Debug)]
pub struct FnFact {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl` type, or empty for free functions.
    pub impl_type: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside a `#[test]` / `#[cfg(test)]` item.
    pub is_test: bool,
    /// Name matches the test-time/pattern-count quantity heuristic
    /// (ARITH-02 callee candidate).
    pub quantity: bool,
    /// Direct nondeterminism sources: `(kind, line)`.
    pub sources: Vec<(String, usize)>,
    /// Direct determinism-critical sinks: `(kind, line)`.
    pub sinks: Vec<(String, usize)>,
    /// Lock acquisitions and calls in source order.
    pub events: Vec<Event>,
}

impl FnFact {
    /// `Type::name` for methods, `name` for free functions.
    #[must_use]
    pub fn qual_name(&self) -> String {
        if self.impl_type.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.impl_type, self.name)
        }
    }
}

/// Everything the global passes need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path used in reports.
    pub display_path: String,
    /// Owning crate directory name.
    pub crate_dir: String,
    /// Path relative to the crate directory.
    pub rel_path: String,
    /// `fx_fingerprint128` of the file contents (cache key).
    pub fp: u128,
    /// Lives under `src/`.
    pub is_src: bool,
    /// Local-lint findings.
    pub findings: Vec<FindingRec>,
    /// Waiver comments, in source order.
    pub waivers: Vec<WaiverRec>,
    /// Flattened `use` declarations: `(leaf, root segment)`.
    pub uses: Vec<(String, String)>,
    /// Per-function facts, in source order (tests included, flagged).
    pub fns: Vec<FnFact>,
}

/// Method names whose result iterates a collection; combined with a
/// `HashMap`/`HashSet` mention in the same body they form a DET-10
/// iteration-order source.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Function names treated as deriving pattern counts, widths or test
/// times (ARITH-02 callee heuristic; superset of ARITH-01's identifier
/// heuristic).
#[must_use]
pub fn is_quantity_fn(name: &str) -> bool {
    lints::is_time_quantity(name)
        || name.contains("makespan")
        || name.contains("width")
        || name.ends_with("_count")
        || name.starts_with("num_")
        || name.starts_with("count_")
}

/// Builds the facts for one source file. Total: any `.rs` content
/// produces *some* facts (the parser is over-approximate, never
/// failing).
#[must_use]
pub fn build(file: &SourceFile) -> FileFacts {
    let toks = lex(&file.source);
    let parsed = ast::parse(&toks);
    let test_ranges = &parsed.test_ranges;
    let in_test = |tok: usize| test_ranges.iter().any(|&(s, e)| s <= tok && tok <= e);

    let mut fns = Vec::with_capacity(parsed.fns.len());
    for def in &parsed.fns {
        // A bare `self.lock()` is a helper-method call, not a mutex
        // field acquisition — the call edge into the helper carries it.
        let mut events: Vec<(usize, Event)> = def
            .acqs
            .iter()
            .filter(|a| a.label != "self")
            .map(|a| {
                let (label, line) = (a.label.clone(), a.line);
                (a.tok, Event::Acq { label, line })
            })
            .collect();
        let mut sources: Vec<(String, usize)> = Vec::new();
        let mut sinks: Vec<(String, usize)> = Vec::new();
        let mut iter_call: Option<usize> = None;
        for call in &def.calls {
            classify_call(file, call, &mut sources, &mut sinks);
            if call.kind == CallKind::Method && ITER_METHODS.contains(&call.name.as_str()) {
                iter_call.get_or_insert(call.line);
            }
            if let Some(event) = call_event(call) {
                events.push((call.tok, event));
            }
        }
        // Hash-iteration source: the body both mentions a hashed
        // collection and iterates something. Over-approximate (the
        // iterated value might be a Vec) but body-scoped, so files that
        // merely *store* a HashMap elsewhere don't light up.
        if let (Some(line), true) = (iter_call, body_mentions_hash(&toks, def)) {
            sources.push(("HashMap/HashSet iteration".to_string(), line));
        }
        if def.impl_type == "RandomState" || body_mentions(&toks, def, "RandomState") {
            if let Some(line) = body_mention_line(&toks, def, "RandomState") {
                sources.push(("RandomState".to_string(), line));
            }
        }
        events.sort_by_key(|&(tok, _)| tok);
        sources.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        sources.dedup();
        sinks.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        sinks.dedup();
        fns.push(FnFact {
            name: def.name.clone(),
            impl_type: def.impl_type.clone(),
            line: def.line,
            is_test: in_test(def.tok),
            quantity: is_quantity_fn(&def.name),
            sources,
            sinks,
            events: events.into_iter().map(|(_, e)| e).collect(),
        });
    }

    FileFacts {
        display_path: file.display_path.clone(),
        crate_dir: file.crate_dir.clone(),
        rel_path: file.rel_path.clone(),
        fp: fx_fingerprint128(&file.source),
        is_src: file.rel_path.starts_with("src/"),
        findings: lints::local_findings(file, &toks, &parsed),
        waivers: parse_waivers(&toks),
        uses: parsed
            .uses
            .iter()
            .map(|u| (u.leaf.clone(), u.root.clone()))
            .collect(),
        fns,
    }
}

/// Classifies one call as a DET-10 source and/or sink.
fn classify_call(
    file: &SourceFile,
    call: &ast::Call,
    sources: &mut Vec<(String, usize)>,
    sinks: &mut Vec<(String, usize)>,
) {
    let q = call.qualifier.as_str();
    let n = call.name.as_str();
    match (call.kind, q, n) {
        (CallKind::Path, "Instant", "now") => {
            sources.push(("Instant::now".to_string(), call.line));
        }
        (CallKind::Path, "SystemTime", "now") => {
            sources.push(("SystemTime::now".to_string(), call.line));
        }
        (CallKind::Path, "thread", "current") => {
            sources.push(("thread::current".to_string(), call.line));
        }
        (CallKind::Path, "env", "var" | "var_os" | "vars") => {
            sources.push(("env read".to_string(), call.line));
        }
        _ => {}
    }
    if call.kind == CallKind::Path && q == "FpKey" && n == "new" {
        sinks.push(("FpKey::new".to_string(), call.line));
    }
    if n == "fx_fingerprint128" || n == "fx_hash_one" {
        sinks.push(("fingerprint".to_string(), call.line));
    }
    if call.kind == CallKind::Path && q == "Fingerprinter" {
        sinks.push(("fingerprint".to_string(), call.line));
    }
    if call.kind == CallKind::Method && (n == "par_map" || n == "par_map_index") {
        sinks.push(("ordered reduction".to_string(), call.line));
    }
    if n == "write_soc" || n.starts_with("render_") {
        sinks.push(("golden output".to_string(), call.line));
    }
    if call.kind != CallKind::Plain && n == "append" && file.crate_dir == "serve" {
        sinks.push(("journal record".to_string(), call.line));
    }
}

/// Converts a parsed call into a graph event, dropping primitive lock
/// acquisitions (handled by [`Event::Acq`]). A bare-`self` method call
/// keeps its `self` qualifier so resolution can prefer the same impl
/// block.
fn call_event(call: &ast::Call) -> Option<Event> {
    if call.kind == CallKind::Method
        && matches!(call.name.as_str(), "lock" | "read" | "write")
        && call.qualifier != "self"
    {
        // `mutex.lock()` / `guard.read()`: the Acq event carries it.
        return None;
    }
    Some(Event::Call {
        kind: call.kind,
        qualifier: call.qualifier.clone(),
        name: call.name.clone(),
        line: call.line,
        arith: call.arith.clone(),
    })
}

/// Does the function (signature included — a `HashMap`-typed parameter
/// counts) mention a `HashMap`/`HashSet` identifier?
fn body_mentions_hash(toks: &[Tok], def: &ast::FnDef) -> bool {
    body_mentions(toks, def, "HashMap") || body_mentions(toks, def, "HashSet")
}

fn body_mentions(toks: &[Tok], def: &ast::FnDef, ident: &str) -> bool {
    body_mention_line(toks, def, ident).is_some()
}

fn body_mention_line(toks: &[Tok], def: &ast::FnDef, ident: &str) -> Option<usize> {
    let (_, hi) = def.body?;
    toks.get(def.tok..=hi)?
        .iter()
        .find(|t| t.kind == TokKind::Ident && t.text == ident)
        .map(|t| t.line)
}

use crate::lints::WAIVER_TAG;

/// Parses waiver comments out of a token stream.
#[must_use]
pub fn parse_waivers(toks: &[Tok]) -> Vec<WaiverRec> {
    let mut waivers = Vec::new();
    for tok in toks {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix(WAIVER_TAG) else {
            continue;
        };
        let rest = rest.trim();
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            // `soctam-analyze:` tag with an unrecognized verb.
            waivers.push(WaiverRec {
                lint: String::new(),
                file_scope: false,
                line: tok.line,
                reason: None,
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            waivers.push(WaiverRec {
                lint: String::new(),
                file_scope,
                line: tok.line,
                reason: None,
            });
            continue;
        };
        let lint = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim();
        let reason = after
            .strip_prefix("--")
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .map(ToString::to_string);
        waivers.push(WaiverRec {
            lint,
            file_scope,
            line: tok.line,
            reason,
        });
    }
    waivers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_dir: &str, source: &str) -> SourceFile {
        SourceFile {
            crate_dir: crate_dir.to_string(),
            rel_path: "src/x.rs".to_string(),
            display_path: format!("crates/{crate_dir}/src/x.rs"),
            source: source.to_string(),
        }
    }

    #[test]
    fn sources_and_sinks_are_extracted() {
        let f = file(
            "serve",
            "fn stamp() -> u64 { Instant::now(); 0 }\n\
             fn digest(x: u64) -> u128 { fx_fingerprint128(&x) }\n\
             fn tally(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n",
        );
        let facts = build(&f);
        assert_eq!(facts.fns.len(), 3);
        assert_eq!(facts.fns[0].sources, vec![("Instant::now".to_string(), 1)]);
        assert_eq!(facts.fns[1].sinks, vec![("fingerprint".to_string(), 2)]);
        assert_eq!(
            facts.fns[2].sources,
            vec![("HashMap/HashSet iteration".to_string(), 3)]
        );
    }

    #[test]
    fn lock_events_interleave_with_calls() {
        let f = file(
            "exec",
            "fn f(a: &Mutex<u32>) {\n\
                 let _g = a.lock();\n\
                 helper();\n\
             }\n",
        );
        let facts = build(&f);
        let kinds: Vec<&str> = facts.fns[0]
            .events
            .iter()
            .map(|e| match e {
                Event::Acq { .. } => "acq",
                Event::Call { .. } => "call",
            })
            .collect();
        assert_eq!(kinds, vec!["acq", "call"]);
    }

    #[test]
    fn bare_self_lock_is_a_call_not_an_acq() {
        let f = file(
            "serve",
            "impl T { fn go(&self) { let _g = self.lock(); } \
                      fn lock(&self) -> u32 { self.table.lock(); 0 } }",
        );
        let facts = build(&f);
        let go = &facts.fns[0];
        assert!(go
            .events
            .iter()
            .all(|e| matches!(e, Event::Call { name, qualifier, .. } if name == "lock" && qualifier == "self")));
        let lock = &facts.fns[1];
        assert!(lock
            .events
            .iter()
            .any(|e| matches!(e, Event::Acq { label, .. } if label == "self.table")));
    }

    #[test]
    fn test_fns_are_flagged() {
        let f = file(
            "tam",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\
             #[cfg(not(test))]\nfn shipped() {}\n",
        );
        let facts = build(&f);
        assert!(!facts.fns[0].is_test);
        assert!(facts.fns[1].is_test);
        assert!(!facts.fns[2].is_test, "`not(test)` code ships");
    }
}
