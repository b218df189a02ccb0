#!/usr/bin/env bash
# Daemon smoke test: build the release daemon, start it on an ephemeral
# port, drive good and malformed jobs through the std-only client
# (`soctam-servectl`), assert the structured status codes, and shut it
# down cleanly.
#
# Usage: ci/serve_smoke.sh [path/to/soctam-serve [path/to/soctam-servectl]]
# A binary given by path is used as is. When either path is missing,
# cargo brings the release binaries up to date first (a no-op when they
# are fresh), so a local run never drives a daemon from an older tree.

set -u

if [ $# -lt 2 ]; then
    echo "building release daemon..."
    cargo build --release --offline -p soctam-serve || exit 1
fi
SERVE="${1:-target/release/soctam-serve}"
CTL="${2:-target/release/soctam-servectl}"
for bin in "$SERVE" "$CTL"; do
    if [ ! -x "$bin" ]; then
        echo "FAIL: $bin is not an executable"
        exit 1
    fi
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

"$SERVE" --listen 127.0.0.1:0 --max-inflight 4 >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# The daemon prints `soctam-serve listening on <addr>` once bound; with
# `--listen 127.0.0.1:0` that line is the only way to learn the port.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^soctam-serve listening on //p' "$WORK/serve.log")"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: daemon never reported its listen address"
    sed 's/^/    /' "$WORK/serve.log"
    exit 1
fi
echo "daemon up at $ADDR (pid $SERVER_PID)"

failures=0

# expect <status> <desc> <get|post> <path> [json-body] — drive one
# request and assert the HTTP status servectl reports on stderr.
expect() {
    local want="$1" desc="$2" verb="$3" path="$4" body="${5:-}"
    if [ "$verb" = get ]; then
        "$CTL" "$ADDR" get "$path" >"$WORK/body" 2>"$WORK/status"
    else
        "$CTL" "$ADDR" post "$path" "$body" >"$WORK/body" 2>"$WORK/status"
    fi
    local got
    got="$(sed -n 's/^HTTP //p' "$WORK/status")"
    if [ "$got" != "$want" ]; then
        echo "FAIL [$desc]: expected HTTP $want, got '${got:-no response}'"
        sed 's/^/    /' "$WORK/status" "$WORK/body"
        failures=$((failures + 1))
        return 1
    fi
    echo "ok   [$desc] -> HTTP $got"
}

# body_has <desc> <needle> — assert on the last response body.
body_has() {
    local desc="$1" needle="$2"
    if ! grep -q "$needle" "$WORK/body"; then
        echo "FAIL [$desc]: response body lacks '$needle'"
        sed 's/^/    /' "$WORK/body"
        failures=$((failures + 1))
        return 1
    fi
}

expect 200 "tool schema" get /v1/tools && body_has "tool schema" '"optimize"'
expect 200 "healthz" get /healthz

GOOD='{"soc":"d695","params":{"patterns":300,"width":16,"partitions":2}}'
expect 200 "good optimize" post /v1/tools/optimize "$GOOD" &&
    body_has "good optimize" '"request_id"'
# The request ID is the envelope's first field; the rest must repeat.
sed 's/^{"request_id":"[^"]*",//' "$WORK/body" >"$WORK/first"

# The same body again is served from the compaction memo: identical
# output, and /metrics counts the hit.
expect 200 "repeated optimize" post /v1/tools/optimize "$GOOD" &&
    sed 's/^{"request_id":"[^"]*",//' "$WORK/body" >"$WORK/second"
if ! grep -q '"output":"' "$WORK/first" || ! cmp -s "$WORK/first" "$WORK/second"; then
    echo "FAIL [repeated optimize]: output differs from the first answer"
    diff "$WORK/first" "$WORK/second" | sed 's/^/    /'
    failures=$((failures + 1))
else
    echo "ok   [repeated optimize] -> byte-identical output"
fi
expect 200 "memo metrics" get /metrics
memo_hits="$(grep -o '"memo_hits":[0-9]*' "$WORK/body" | cut -d: -f2)"
if [ "${memo_hits:-0}" -lt 1 ]; then
    echo "FAIL [memo metrics]: expected >= 1 memo hit, got '${memo_hits:-none}'"
    failures=$((failures + 1))
else
    echo "ok   [memo metrics] -> $memo_hits memo hit(s)"
fi

expect 400 "broken JSON" post /v1/tools/optimize '{nope' &&
    body_has "broken JSON" '"usage"'
expect 404 "unknown tool" post /v1/tools/frobnicate '{"soc":"d695"}' &&
    body_has "unknown tool" '"not-found"'
expect 400 "unknown param" post /v1/tools/optimize \
    '{"soc":"d695","params":{"patern":7}}' &&
    body_has "unknown param" 'patern'
expect 422 "unresolvable SOC" post /v1/tools/info '{"soc":"/nonexistent/x.soc"}' &&
    body_has "unresolvable SOC" '"invalid"'

expect 200 "metrics" get /metrics && body_has "metrics" '"requests"'

# Connection handlers are reused: 50 sequential requests, each on a
# connection of its own, leave a handful of handler threads spawned.
not_ok=0
for _ in $(seq 1 50); do
    "$CTL" "$ADDR" get /healthz >/dev/null 2>&1 || not_ok=$((not_ok + 1))
done
expect 200 "handler metrics" get /metrics
spawned="$(grep -o '"handlers_spawned":[0-9]*' "$WORK/body" | cut -d: -f2)"
if [ "$not_ok" -ne 0 ] || [ -z "$spawned" ] || [ "$spawned" -gt 4 ]; then
    echo "FAIL [handler reuse]: $not_ok of 50 healthz failed;" \
        "expected <= 4 handlers spawned, got '${spawned:-none}'"
    failures=$((failures + 1))
else
    echo "ok   [handler reuse] -> 50 sequential healthz, $spawned handler(s) spawned"
fi

# The shared cache keeps only what a later request can read: a fresh
# optimize without a budget adds its compacted groups, its legs' rails
# and their evaluations (a handful of entries), never its working set
# (about 500 rail components, staircases, costs and incumbents on d695).
cache_entries() {
    expect 200 "cache metrics" get /metrics >&2 &&
        grep -o '"entries":[0-9]*' "$WORK/body" | cut -d: -f2
}
entries_before="$(cache_entries)"
for seed in $(seq 101 110); do
    expect 200 "optimize seed $seed" post /v1/tools/optimize \
        "{\"soc\":\"d695\",\"params\":{\"patterns\":300,\"width\":16,\"partitions\":2,\"seed\":$seed}}" \
        >/dev/null
done
entries_after="$(cache_entries)"
case "$entries_before$entries_after" in
*[!0-9]* | "") entries_before="" ;;
esac
if [ -z "$entries_before" ] || [ -z "$entries_after" ] ||
    [ "$entries_after" -gt $((entries_before + 50)) ]; then
    echo "FAIL [cache growth]: 10 fresh optimize requests grew cache.entries" \
        "from '${entries_before:-none}' to '${entries_after:-none}' (limit +50)"
    failures=$((failures + 1))
else
    echo "ok   [cache growth] -> 10 fresh optimize requests," \
        "cache.entries $entries_before -> $entries_after"
fi

expect 200 "shutdown" post /admin/shutdown
wait "$SERVER_PID"
code=$?
SERVER_PID=""
if [ "$code" -ne 0 ]; then
    echo "FAIL [shutdown]: daemon exited $code instead of 0"
    sed 's/^/    /' "$WORK/serve.log"
    failures=$((failures + 1))
else
    echo "ok   [shutdown] -> daemon exited 0"
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures daemon smoke check(s) failed"
    exit 1
fi
echo "all daemon smoke checks passed"
