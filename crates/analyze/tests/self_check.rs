//! Meta-test: the analyzer must come back clean on the live workspace
//! it ships in, and must catch a determinism bug seeded into it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = soctam_analyze::run_check(&root).expect("workspace walk");
    assert!(
        report.analysis.findings.is_empty(),
        "soctam-analyze found unwaived findings on the live tree:\n{:#?}",
        report.analysis.findings
    );
    assert!(
        report.files_scanned > 100,
        "workspace walk looks truncated: {} files",
        report.files_scanned
    );
    // Every waiver in the tree carries a written justification.
    assert!(report
        .analysis
        .waived
        .iter()
        .all(|w| w.waiver_reason.is_some()));
}

/// Seeds a determinism bug into `crates/tam` — in memory only, the
/// tree is never touched — and asserts the interprocedural taint pass
/// catches it with a call path crossing a function boundary.
#[test]
fn injected_hash_iteration_reaching_a_fingerprint_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = soctam_analyze::workspace::collect_workspace(&root).expect("workspace walk");
    files.push(soctam_analyze::SourceFile {
        crate_dir: "tam".to_string(),
        rel_path: "src/injected.rs".to_string(),
        display_path: "crates/tam/src/injected.rs".to_string(),
        source: "use soctam_exec::FpKey;\n\
                 use std::collections::HashMap;\n\
                 // soctam-analyze: allow-file(DET-01) -- injected fixture isolates the DET-10 signal\n\
                 fn hash_order(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
                     m.keys().copied().collect()\n\
                 }\n\
                 pub fn group_key(m: &HashMap<u64, u64>) -> FpKey {\n\
                     FpKey::new(&hash_order(m))\n\
                 }\n"
            .to_string(),
    });
    files.sort_by(|a, b| a.display_path.cmp(&b.display_path));
    let analysis = soctam_analyze::analyze(&files);
    let det10 = analysis
        .findings
        .iter()
        .find(|f| f.lint == "DET-10" && f.file == "crates/tam/src/injected.rs")
        .expect("the injected taint must be reported");
    assert!(
        det10.path.len() >= 2,
        "evidence must cross the group_key → hash_order boundary: {det10:#?}"
    );
    assert_eq!(det10.path[0].func, "group_key");
    assert_eq!(det10.path.last().expect("steps").func, "hash_order");
    assert!(det10.message.contains("HashMap/HashSet iteration"));
}
