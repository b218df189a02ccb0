#!/usr/bin/env bash
# Fault-injection smoke test: arm each shipped failpoint against the
# release CLI and assert the process fails *cleanly* — a structured
# error on stderr naming the site, exit code 1 (a contained, reported
# failure), and never 101 (an uncaught panic abort).
#
# Usage: ci/fault_smoke.sh [path/to/soctam]
# A binary given by path (the CLI as the argument, the daemon and its
# client as SERVE and CTL) is used as is. One that is not given is
# brought up to date by cargo first (a no-op when it is fresh), so a
# local run never drives a binary from an older tree.
#
# Exit-code convention (shared with `soctam-analyze check`): 0 = clean,
# 1 = a reported, structured failure (findings / contained fault),
# 2 = usage or I/O error. 101 always means an uncaught panic and fails
# the smoke test.

set -u

if [ $# -lt 1 ]; then
    echo "building release CLI..."
    cargo build --release --offline -p soctam-cli || exit 1
fi
BIN="${1:-target/release/soctam}"
if [ ! -x "$BIN" ]; then
    echo "FAIL: $BIN is not an executable"
    exit 1
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

# model.parse needs a real .soc file on disk; export one first (with the
# registry inactive, so the export itself cannot trip).
"$BIN" export d695 > "$WORK/d695.soc" || { echo "FAIL: export d695"; exit 1; }

failures=0

# run_tool <failpoint-spec> <tool> <target> [flags...] — the tool
# invocation must exit 1 with the failing site named on stderr.
run_tool() {
    local spec="$1" tool="$2" target="$3"
    shift 3
    local site="${spec%%=*}"
    local stderr_file="$WORK/stderr"

    SOCTAM_FAILPOINTS="$spec" "$BIN" "$tool" "$target" "$@" \
        >"$WORK/stdout" 2>"$stderr_file"
    local code=$?

    if [ "$code" -eq 101 ]; then
        echo "FAIL [$spec $tool]: process panicked (exit 101) instead of failing cleanly"
        failures=$((failures + 1))
        return
    fi
    if [ "$code" -ne 1 ]; then
        echo "FAIL [$spec $tool]: expected exit 1, got $code"
        failures=$((failures + 1))
        return
    fi
    if ! grep -q "error:" "$stderr_file"; then
        echo "FAIL [$spec $tool]: stderr carries no structured error line"
        sed 's/^/    /' "$stderr_file"
        failures=$((failures + 1))
        return
    fi
    if ! grep -q "$site" "$stderr_file"; then
        echo "FAIL [$spec $tool]: stderr does not name the failing site '$site'"
        sed 's/^/    /' "$stderr_file"
        failures=$((failures + 1))
        return
    fi
    echo "ok   [$spec $tool] -> $(grep -m1 'error:' "$stderr_file")"
}

# run <failpoint-spec> <target> [extra flags...] — run_tool on the
# optimize invocation.
run() {
    local spec="$1" target="$2"
    shift 2
    run_tool "$spec" optimize "$target" --patterns 500 --width 8 --partitions 2 "$@"
}

# One spec per shipped failpoint reachable from `soctam optimize`:
# `error` for the fallible (check) sites, `panic` for the infallible
# (hit) sites — the latter prove the pipeline's panic containment.
run "model.parse=error"              "$WORK/d695.soc"
run "patterns.generate.random=error" d695
run "compaction.partition=error"     d695
run "compaction.bucket=panic"        d695
run "tam.merge=panic"                d695
run "tam.rail_eval=panic"            d695
run "tam.schedule=panic"             d695
run "exec.cache.lookup=panic"        d695
run "exec.pool.task=panic"           d695

# The other tools that draw random patterns fan generation out on the
# pool and compaction over the buckets, so both panicking sites must
# fail them cleanly too.
for spec in "compaction.bucket=panic" "exec.pool.task=panic"; do
    run_tool "$spec" table    d695 --patterns 500 --widths 8 --parts 1,2
    run_tool "$spec" compact  d695 --patterns 500 --partitions 2
    run_tool "$spec" bounds   d695 --patterns 500 --widths 8
    run_tool "$spec" simulate d695 --patterns 500 --width 8 --partitions 2
done

# A malformed spec must be rejected up front as a usage error (exit 2),
# not silently ignored.
SOCTAM_FAILPOINTS="tam.merge=explode" "$BIN" optimize d695 --patterns 100 \
    >/dev/null 2>"$WORK/stderr"
code=$?
if [ "$code" -ne 2 ] || ! grep -q "SOCTAM_FAILPOINTS" "$WORK/stderr"; then
    echo "FAIL [bad spec]: expected usage error (exit 2) naming SOCTAM_FAILPOINTS, got $code"
    failures=$((failures + 1))
else
    echo "ok   [bad spec] -> rejected as usage error"
fi

# --- speculative probe failpoint ---------------------------------------
# tam.probe is the one shipped failpoint that must NOT fail the run: a
# faulted speculative probe is discarded (counted as wasted) and the
# step falls back to the surviving candidates — deterministically at
# every --jobs value, so the faulted outputs must be identical.
probe_run() {
    local spec="$1" jobs="$2" out="$3"
    SOCTAM_FAILPOINTS="$spec" "$BIN" optimize d695 \
        --patterns 500 --width 8 --partitions 2 --jobs "$jobs" \
        >"$out" 2>"$WORK/probe.stderr"
}
for spec in "tam.probe=error@5" "tam.probe=panic@3"; do
    probe_run "$spec" 1 "$WORK/probe.serial"
    code_serial=$?
    probe_run "$spec" 4 "$WORK/probe.par"
    code_par=$?
    if [ "$code_serial" -ne 0 ] || [ "$code_par" -ne 0 ]; then
        echo "FAIL [$spec]: faulted probes must degrade, not fail" \
            "(exit $code_serial at --jobs 1, $code_par at --jobs 4)"
        sed 's/^/    /' "$WORK/probe.stderr"
        failures=$((failures + 1))
    elif ! cmp -s "$WORK/probe.serial" "$WORK/probe.par"; then
        echo "FAIL [$spec]: output diverges between --jobs 1 and 4"
        failures=$((failures + 1))
    else
        echo "ok   [$spec] -> contained at every --jobs, identical output"
    fi
done

# Probes run on the thread that enumerates them: there is no probe pool
# to size, so the flag is unknown (usage error, exit 2).
"$BIN" optimize d695 --patterns 100 --probe-jobs 2 >/dev/null 2>"$WORK/stderr"
code=$?
if [ "$code" -ne 2 ]; then
    echo "FAIL [--probe-jobs]: expected usage error (exit 2), got $code"
    failures=$((failures + 1))
else
    echo "ok   [--probe-jobs] -> rejected as usage error"
fi

# With the variable unset the same invocation must succeed.
"$BIN" optimize d695 --patterns 500 --width 8 --partitions 2 >/dev/null 2>&1
code=$?
if [ "$code" -ne 0 ]; then
    echo "FAIL [clean run]: expected exit 0 without failpoints, got $code"
    failures=$((failures + 1))
else
    echo "ok   [clean run] -> exit 0 with no failpoints"
fi

# --- daemon failpoints -------------------------------------------------
# An armed serve.dispatch fault must surface as a structured HTTP error
# on the open connection — never a hung socket or a dead daemon — and
# the daemon must still shut down cleanly afterwards.
if [ -z "${SERVE:-}" ] || [ -z "${CTL:-}" ]; then
    echo "building release daemon..."
    cargo build --release --offline -p soctam-serve || exit 1
fi
SERVE="${SERVE:-target/release/soctam-serve}"
CTL="${CTL:-target/release/soctam-servectl}"
for bin in "$SERVE" "$CTL"; do
    if [ ! -x "$bin" ]; then
        echo "FAIL: $bin is not an executable"
        exit 1
    fi
done

SOCTAM_FAILPOINTS="serve.dispatch=error" \
    "$SERVE" --listen 127.0.0.1:0 >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^soctam-serve listening on //p' "$WORK/serve.log")"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL [serve.dispatch=error]: daemon never reported its address"
    sed 's/^/    /' "$WORK/serve.log"
    failures=$((failures + 1))
else
    "$CTL" "$ADDR" post /v1/tools/info '{"soc":"d695"}' \
        >"$WORK/body" 2>"$WORK/status"
    status="$(sed -n 's/^HTTP //p' "$WORK/status")"
    if [ "$status" != "500" ] || ! grep -q "serve.dispatch" "$WORK/body"; then
        echo "FAIL [serve.dispatch=error]: expected a structured HTTP 500" \
            "naming the site, got '${status:-no response}'"
        sed 's/^/    /' "$WORK/body"
        failures=$((failures + 1))
    else
        echo "ok   [serve.dispatch=error] -> structured HTTP 500 on the open socket"
    fi
    "$CTL" "$ADDR" post /admin/shutdown >/dev/null 2>&1
    wait "$SERVER_PID"
    code=$?
    SERVER_PID=""
    if [ "$code" -ne 0 ]; then
        echo "FAIL [serve shutdown]: daemon exited $code after the fault"
        failures=$((failures + 1))
    else
        echo "ok   [serve shutdown] -> daemon survived the fault, exited 0"
    fi
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures fault-injection smoke check(s) failed"
    exit 1
fi
echo "all fault-injection smoke checks passed"
