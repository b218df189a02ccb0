#!/usr/bin/env bash
# Builds the release `soctam` CLI, the `soctam-serve` daemon and the e2e
# benchmark from source, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/e2e/run.sh --workload cli-large --seed 2007 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); the
# benchmark finds both programs next to its own executable there.
set -euo pipefail

here="crates/bench/src/bin/e2e"
if [[ ! -f Cargo.toml || ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run from the root of a soctam source tree" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p soctam-cli -p soctam-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
