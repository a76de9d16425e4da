#!/usr/bin/env bash
# End-to-end daemon smoke: start locapd on an ephemeral port, replay
# the recorded request script (scripts/smoke_requests.jsonl) with
# --expect-ok, verify every successful request produced an artifact
# with a provenance sidecar, replay it again to check that the warm
# answers (store hits, answered on the connection thread) match the
# cold ones byte for byte apart from elapsed_ms and write the same
# artifacts, then shut the daemon down over the wire.
#
# Usage: scripts/locapd_smoke.sh [artifact-dir]
#
# Runs from the repo root so the sidecars' git_rev resolves from .git
# (set LOCAP_GIT_REV to override in detached checkouts). CI uploads the
# artifact dir, sidecars included.
set -euo pipefail
cd "$(dirname "$0")/.."

ARTIFACTS=${1:-target/locapd-smoke}
rm -rf "$ARTIFACTS"
mkdir -p "$ARTIFACTS"

cargo build --release -q -p locap-serve --bin locap --bin locapd

DAEMON_LOG=$ARTIFACTS/locapd.stderr.log
target/release/locapd \
    --addr 127.0.0.1:0 --workers 2 --queue-depth 16 \
    --artifact-dir "$ARTIFACTS" --store-dir "$ARTIFACTS/store" \
    --max-deadline-ms 60000 \
    2> "$DAEMON_LOG" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true' EXIT

# The daemon announces its ephemeral port on stderr:
#   locapd listening on 127.0.0.1:NNNNN
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^locapd listening on //p' "$DAEMON_LOG" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "locapd_smoke: daemon never announced an address" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
echo "locapd_smoke: daemon up on $ADDR"

# Replay the recorded script; --expect-ok fails the exit code on any
# error response. Responses are archived next to the artifacts.
target/release/locap replay scripts/smoke_requests.jsonl \
    --addr "$ADDR" --expect-ok > "$ARTIFACTS/responses.jsonl"

# Every request in the script succeeded, so every one must have written
# an artifact plus a *.provenance.json sidecar.
requests=$(grep -cv -e '^#' -e '^[[:space:]]*$' scripts/smoke_requests.jsonl)
sidecars=$(find "$ARTIFACTS" -name '*.provenance.json' | wc -l)
if [ "$sidecars" -ne "$requests" ]; then
    echo "locapd_smoke: expected $requests provenance sidecars, found $sidecars" >&2
    ls -l "$ARTIFACTS" >&2
    exit 1
fi
echo "locapd_smoke: $requests requests ok, $sidecars provenance sidecars"

# Replay the same script a second time: every pipeline result is now in
# the --store-dir, so the daemon must answer warm. The cold run's
# artifacts move to cold/ first, so that the warm run has to write its
# own: a hit writes its artifact and sidecar like a computed result.
mkdir -p "$ARTIFACTS/cold"
mv "$ARTIFACTS"/*.json "$ARTIFACTS/cold/"
target/release/locap replay scripts/smoke_requests.jsonl \
    --addr "$ADDR" --expect-ok > "$ARTIFACTS/responses-warm.jsonl"

# A warm line splices the stored result into the response, and must be
# the cold line byte for byte once elapsed_ms is masked. Responses
# arrive in completion order, so both sides are sorted.
masked() { sed -E 's/"elapsed_ms":[0-9]+/"elapsed_ms":0/' "$1" | sort; }
if ! diff <(masked "$ARTIFACTS/responses.jsonl") <(masked "$ARTIFACTS/responses-warm.jsonl"); then
    echo "locapd_smoke: warm responses differ from cold ones beyond elapsed_ms" >&2
    exit 1
fi
sidecars=$(find "$ARTIFACTS" -maxdepth 1 -name '*.provenance.json' | wc -l)
if [ "$sidecars" -ne "$requests" ]; then
    echo "locapd_smoke: warm replay wrote $sidecars provenance sidecars, expected $requests" >&2
    ls -l "$ARTIFACTS" >&2
    exit 1
fi
for cold in "$ARTIFACTS"/cold/*.json; do
    case "$cold" in *.provenance.json) continue ;; esac
    if ! cmp -s "$cold" "$ARTIFACTS/$(basename "$cold")"; then
        echo "locapd_smoke: warm artifact $(basename "$cold") differs from the cold one" >&2
        exit 1
    fi
done
echo "locapd_smoke: warm replay matches the cold one ($sidecars sidecars, same artifacts)"

# The stats op's registry carries the store counters; a zero (absent)
# warm-hit count means the store path is broken end to end.
STATS_SCRIPT=$ARTIFACTS/.stats.jsonl
printf '{"op":"stats","id":"smoke-stats"}\n' > "$STATS_SCRIPT"
target/release/locap replay "$STATS_SCRIPT" --addr "$ADDR" --expect-ok \
    > "$ARTIFACTS/stats.jsonl"
rm -f "$STATS_SCRIPT"
warm_hits=$(sed -n 's|.*"store/warm_hit":\([0-9]*\).*|\1|p' "$ARTIFACTS/stats.jsonl" | head -n 1)
if [ -z "$warm_hits" ] || [ "$warm_hits" -eq 0 ]; then
    echo "locapd_smoke: second replay never hit the result store (warm_hit=${warm_hits:-missing})" >&2
    cat "$ARTIFACTS/stats.jsonl" >&2
    exit 1
fi
echo "locapd_smoke: second replay served warm ($warm_hits store hits)"

# Clean shutdown over the wire (separate from the --expect-ok replay:
# a drain answers still-queued jobs as truncated/cancelled).
SHUTDOWN_SCRIPT=$ARTIFACTS/.shutdown.jsonl
printf '{"op":"shutdown","id":"smoke-bye"}\n' > "$SHUTDOWN_SCRIPT"
target/release/locap replay "$SHUTDOWN_SCRIPT" --addr "$ADDR" --expect-ok \
    >> "$ARTIFACTS/responses.jsonl"
rm -f "$SHUTDOWN_SCRIPT"
wait "$DAEMON_PID"
trap - EXIT

echo "locapd_smoke: passed"
