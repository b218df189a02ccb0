//! A panicking failpoint fails the `soctam` process cleanly: exit code
//! 1 and a structured `error:` line naming the site on stderr, never an
//! uncaught panic (exit 101). Each case runs the real binary, so the
//! process-global failpoint registry is armed through
//! `SOCTAM_FAILPOINTS` exactly as a user arms it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// Every tool that draws random patterns, with small parameters.
const RUNS: &[&[&str]] = &[
    &[
        "optimize",
        "d695",
        "--patterns",
        "500",
        "--width",
        "8",
        "--partitions",
        "2",
    ],
    &["compact", "d695", "--patterns", "500", "--partitions", "2"],
    &["bounds", "d695", "--patterns", "500", "--widths", "8"],
    &[
        "table",
        "d695",
        "--patterns",
        "500",
        "--widths",
        "8",
        "--parts",
        "1,2",
    ],
    &[
        "simulate",
        "d695",
        "--patterns",
        "500",
        "--width",
        "8",
        "--partitions",
        "2",
    ],
];

#[test]
fn pool_and_bucket_panics_fail_every_tool_cleanly() {
    for site in ["exec.pool.task", "compaction.bucket"] {
        for args in RUNS {
            let output = Command::new(env!("CARGO_BIN_EXE_soctam"))
                .args(*args)
                .env("SOCTAM_FAILPOINTS", format!("{site}=panic"))
                .output()
                .expect("the binary runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let what = format!("{site} on `{}`", args[0]);
            assert_eq!(output.status.code(), Some(1), "{what}: {stderr}");
            let error = stderr
                .lines()
                .find(|line| line.starts_with("error:"))
                .unwrap_or_else(|| panic!("{what}: no error line in {stderr}"));
            assert!(error.contains(site), "{what}: {error}");
            assert!(
                output.stdout.is_empty(),
                "{what}: a failed run prints no report"
            );
        }
    }
}
