//! On-disk parse cache: one escaped-text facts file per source file,
//! keyed by a fingerprint of the *path* (file name) and validated
//! against a fingerprint of the *contents* (staleness). A warm engine
//! run reloads [`FileFacts`] without lexing or parsing anything; any
//! read/parse anomaly — truncated file, version bump, hash collision on
//! the name, concurrent writer — degrades to a cache miss, never to a
//! wrong answer.
//!
//! The format is line-oriented (`record<TAB>fields...`) with `\t`,
//! `\n` and `\\` escaped inside string fields, so it stays std-only and
//! diffable. `VERSION` must be bumped whenever the facts schema or any
//! extraction heuristic changes — a stale hit would silently freeze old
//! findings.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use soctam_exec::fx_fingerprint128;

use crate::ast::CallKind;
use crate::facts::{Event, FileFacts, FindingRec, FnFact, WaiverRec};

/// Format version tag; first line of every cache file.
const VERSION: &str = "soctam-analyze-facts/2";

/// Cache file path for a workspace-relative display path.
fn entry_path(dir: &Path, display_path: &str) -> PathBuf {
    dir.join(format!("{:032x}.facts", fx_fingerprint128(&display_path)))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

fn flag(s: &str) -> Option<bool> {
    match s {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
}

fn kind_tag(kind: CallKind) -> &'static str {
    match kind {
        CallKind::Plain => "P",
        CallKind::Path => "Q",
        CallKind::Method => "M",
    }
}

fn kind_from(tag: &str) -> Option<CallKind> {
    match tag {
        "P" => Some(CallKind::Plain),
        "Q" => Some(CallKind::Path),
        "M" => Some(CallKind::Method),
        _ => None,
    }
}

/// Serializes facts to the cache format.
#[must_use]
pub fn serialize(facts: &FileFacts) -> String {
    let mut out = String::new();
    out.push_str(VERSION);
    out.push('\n');
    out.push_str(&format!("fp\t{:032x}\n", facts.fp));
    out.push_str(&format!(
        "path\t{}\t{}\t{}\t{}\n",
        esc(&facts.display_path),
        esc(&facts.crate_dir),
        esc(&facts.rel_path),
        u8::from(facts.is_src),
    ));
    for (leaf, root) in &facts.uses {
        out.push_str(&format!("use\t{}\t{}\n", esc(leaf), esc(root)));
    }
    for f in &facts.findings {
        out.push_str(&format!(
            "finding\t{}\t{}\t{}\n",
            esc(&f.lint),
            f.line,
            esc(&f.message)
        ));
    }
    for w in &facts.waivers {
        out.push_str(&format!(
            "waiver\t{}\t{}\t{}\t{}\n",
            esc(&w.lint),
            u8::from(w.file_scope),
            w.line,
            w.reason.as_deref().map(esc).unwrap_or_default(),
        ));
    }
    for f in &facts.fns {
        out.push_str(&format!(
            "fn\t{}\t{}\t{}\t{}\t{}\n",
            esc(&f.name),
            esc(&f.impl_type),
            f.line,
            u8::from(f.is_test),
            u8::from(f.quantity),
        ));
        for (kind, line) in &f.sources {
            out.push_str(&format!("src\t{}\t{line}\n", esc(kind)));
        }
        for (kind, line) in &f.sinks {
            out.push_str(&format!("sink\t{}\t{line}\n", esc(kind)));
        }
        for event in &f.events {
            match event {
                Event::Acq { label, line } => {
                    out.push_str(&format!("acq\t{}\t{line}\n", esc(label)));
                }
                Event::Call {
                    kind,
                    qualifier,
                    name,
                    line,
                    arith,
                } => {
                    out.push_str(&format!(
                        "call\t{}\t{}\t{}\t{line}\t{}\n",
                        kind_tag(*kind),
                        esc(qualifier),
                        esc(name),
                        esc(arith),
                    ));
                }
            }
        }
    }
    out
}

/// Parses the cache format back into facts. `None` on any anomaly.
#[must_use]
pub fn deserialize(text: &str) -> Option<FileFacts> {
    let mut lines = text.lines();
    if lines.next()? != VERSION {
        return None;
    }
    let mut facts = FileFacts::default();
    let mut have_path = false;
    for line in lines {
        let mut f = line.split('\t');
        let tag = f.next()?;
        let mut field = || f.next();
        match tag {
            "fp" => facts.fp = u128::from_str_radix(field()?, 16).ok()?,
            "path" => {
                facts.display_path = unesc(field()?)?;
                facts.crate_dir = unesc(field()?)?;
                facts.rel_path = unesc(field()?)?;
                facts.is_src = flag(field()?)?;
                have_path = true;
            }
            "use" => {
                let leaf = unesc(field()?)?;
                let root = unesc(field()?)?;
                facts.uses.push((leaf, root));
            }
            "finding" => {
                let lint = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                let message = unesc(field()?)?;
                facts.findings.push(FindingRec {
                    lint,
                    line,
                    message,
                });
            }
            "waiver" => {
                let lint = unesc(field()?)?;
                let file_scope = flag(field()?)?;
                let line = field()?.parse().ok()?;
                let reason = field()?;
                facts.waivers.push(WaiverRec {
                    lint,
                    file_scope,
                    line,
                    reason: if reason.is_empty() {
                        None
                    } else {
                        Some(unesc(reason)?)
                    },
                });
            }
            "fn" => {
                let name = unesc(field()?)?;
                let impl_type = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                let is_test = flag(field()?)?;
                let quantity = flag(field()?)?;
                facts.fns.push(FnFact {
                    name,
                    impl_type,
                    line,
                    is_test,
                    quantity,
                    sources: Vec::new(),
                    sinks: Vec::new(),
                    events: Vec::new(),
                });
            }
            "src" => {
                let kind = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                facts.fns.last_mut()?.sources.push((kind, line));
            }
            "sink" => {
                let kind = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                facts.fns.last_mut()?.sinks.push((kind, line));
            }
            "acq" => {
                let label = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                facts
                    .fns
                    .last_mut()?
                    .events
                    .push(Event::Acq { label, line });
            }
            "call" => {
                let kind = kind_from(field()?)?;
                let qualifier = unesc(field()?)?;
                let name = unesc(field()?)?;
                let line = field()?.parse().ok()?;
                let arith = unesc(field()?)?;
                facts.fns.last_mut()?.events.push(Event::Call {
                    kind,
                    qualifier,
                    name,
                    line,
                    arith,
                });
            }
            _ => return None,
        }
    }
    have_path.then_some(facts)
}

/// Loads cached facts for `display_path` when the stored content
/// fingerprint matches `fp`. Any I/O or parse anomaly is a miss.
#[must_use]
pub fn load(dir: &Path, display_path: &str, fp: u128) -> Option<FileFacts> {
    let text = fs::read_to_string(entry_path(dir, display_path)).ok()?;
    let facts = deserialize(&text)?;
    (facts.fp == fp && facts.display_path == display_path).then_some(facts)
}

/// Writes facts to the cache (atomic via a temp file + rename, so a
/// concurrent reader sees either the old or the new entry).
///
/// # Errors
///
/// Propagates I/O failures; callers treat them as cache-off.
pub fn store(dir: &Path, facts: &FileFacts) -> io::Result<()> {
    let path = entry_path(dir, &facts.display_path);
    let tmp = path.with_extension("facts.tmp");
    fs::write(&tmp, serialize(facts))?;
    fs::rename(&tmp, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::build;
    use crate::lints::SourceFile;

    #[test]
    fn roundtrip_preserves_facts() {
        let file = SourceFile {
            crate_dir: "serve".into(),
            rel_path: "src/x.rs".into(),
            display_path: "crates/serve/src/x.rs".into(),
            source: "//! doc\nuse std::collections::BTreeMap;\n\
                     // soctam-analyze: allow(DET-01) -- has a\ttab reason\n\
                     fn f(m: &Mutex<u32>) { let _g = m.lock(); g(1 + 2); }\n"
                .into(),
        };
        let facts = build(&file);
        let round = deserialize(&serialize(&facts)).expect("roundtrip");
        assert_eq!(format!("{facts:?}"), format!("{round:?}"));
    }

    #[test]
    fn version_and_fp_mismatches_miss() {
        let dir = std::env::temp_dir().join("soctam-analyze-cache-test");
        let _ = std::fs::create_dir_all(&dir);
        let file = SourceFile {
            crate_dir: "tam".into(),
            rel_path: "src/y.rs".into(),
            display_path: "crates/tam/src/y.rs".into(),
            source: "fn f() {}\n".into(),
        };
        let facts = build(&file);
        store(&dir, &facts).expect("store");
        assert!(load(&dir, &facts.display_path, facts.fp).is_some());
        assert!(load(&dir, &facts.display_path, facts.fp ^ 1).is_none());
        assert!(load(&dir, "crates/tam/src/other.rs", facts.fp).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
