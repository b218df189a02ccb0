#!/usr/bin/env bash
# Search-memo share: starts the release daemon, sends it request
# streams shaped like the e2e serve workloads one request at a time,
# and reads `search_hits`/`search_misses` from `/metrics` around each
# request. Prints, per stream, the share of requests whose every
# optimizer leg was recalled from the search memo (DESIGN.md section 12)
# and the number of distinct searches the stream needed.
#
# Streams:
#   serve-optimizer  the 12 request shapes of that workload (N_r = 2 000,
#                    i = 1, a quarter of them --baseline), cycled, with a
#                    fresh seed per request: REQUESTS requests
#   serve-jobs       that workload's 40 repeated requests (N_r = 10 000,
#                    i = 4), sent twice; the second pass is what its
#                    timed pass sees
#
# Usage: ci/search_memo_share.sh [REQUESTS [SEED]]   (defaults 1200, 1)
# Builds the release daemon and client first when they are missing.

set -u

REQUESTS="${1:-1200}"
SEED="${2:-1}"
SERVE=target/release/soctam-serve
CTL=target/release/soctam-servectl
if [ ! -x "$SERVE" ] || [ ! -x "$CTL" ]; then
    cargo build --release --offline -p soctam-serve || exit 1
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

start() {
    "$SERVE" --listen 127.0.0.1:0 --jobs 2 >"$WORK/serve.log" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^soctam-serve listening on //p' "$WORK/serve.log")"
        [ -n "$ADDR" ] && return 0
        sleep 0.1
    done
    echo "daemon never reported its listen address" >&2
    exit 1
}

stop() {
    "$CTL" "$ADDR" post /admin/shutdown >/dev/null 2>&1
    wait "$SERVER_PID"
    SERVER_PID=""
}

# counter <name>: the daemon's pool counter <name>.
counter() {
    "$CTL" "$ADDR" get /metrics 2>/dev/null | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

# send <soc> <patterns> <width> <partitions> <seed> <baseline>: one
# optimize call; counts it in RECALLED when no leg missed the memo.
send() {
    local misses hits
    misses="$(counter search_misses)"
    hits="$(counter search_hits)"
    "$CTL" "$ADDR" post /v1/tools/optimize \
        "{\"soc\":\"$1\",\"params\":{\"patterns\":$2,\"width\":$3,\"partitions\":$4,\"seed\":$5,\"baseline\":$6}}" \
        >/dev/null 2>&1 || { echo "request failed: $*" >&2; exit 1; }
    if [ "$(counter search_misses)" = "$misses" ] && [ "$(counter search_hits)" != "$hits" ]; then
        RECALLED=$((RECALLED + 1))
    fi
    SENT=$((SENT + 1))
}

report() {
    echo "$1: $RECALLED of $SENT requests had every leg recalled ($(awk "BEGIN { printf \"%.1f\", 100 * $RECALLED / $SENT }") %); the daemon has searched $(counter search_misses) legs"
}

SHAPES=(
    "p34392 48 true" "p34392 64 true" "p93791 56 true" "p34392 64 false"
    "p93791 48 false" "p93791 56 false" "p93791 56 false" "p93791 56 false"
    "p93791 64 false" "p93791 64 false" "p93791 64 false" "p93791 64 false"
)
start
RECALLED=0
SENT=0
state="$SEED"
for i in $(seq 0 $((REQUESTS - 1))); do
    # A fresh request seed per request, from a 31-bit LCG.
    state=$(((state * 1103515245 + 12345) % 2147483648))
    read -r soc width baseline <<<"${SHAPES[$((i % 12))]}"
    send "$soc" 2000 "$width" 1 $((state % 1000000000)) "$baseline"
done
report "serve-optimizer"
stop

start
for pass in 1 2; do
    RECALLED=0
    SENT=0
    for soc_seeds in "d695 2" "p34392 16" "p93791 2"; do
        read -r soc seeds <<<"$soc_seeds"
        for width in 32 64; do
            for s in $(seq 1 "$seeds"); do
                send "$soc" 10000 "$width" 4 $((SEED * 1000 + s)) false
            done
        done
    done
    report "serve-jobs pass $pass"
done
stop
