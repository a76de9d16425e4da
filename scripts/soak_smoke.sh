#!/usr/bin/env bash
# Telemetry smoke: start locapd on an ephemeral port, watch two polls of
# its stats op over the wire, run a ~10s sustained-QPS soak with
# --expect-ok, and read the soak's OBS_JSON artifact with trace_report.
#
# Usage: scripts/soak_smoke.sh [artifact-dir] [qps] [duration-ms]
#
# CI uploads the artifact dir: the daemon log, the watched telemetry
# rows, and the soak's metrics line.
set -euo pipefail
cd "$(dirname "$0")/.."

ARTIFACTS=${1:-target/soak-smoke}
QPS=${2:-40}
DURATION_MS=${3:-10000}
rm -rf "$ARTIFACTS"
mkdir -p "$ARTIFACTS"

cargo build --release -q -p locap-serve --bin locap --bin locapd
cargo build --release -q -p locap-bench --bin soak --bin trace_report

DAEMON_LOG=$ARTIFACTS/locapd.stderr.log
target/release/locapd \
    --addr 127.0.0.1:0 --workers 2 --queue-depth 64 --max-deadline-ms 60000 \
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
    echo "soak_smoke: daemon never announced an address" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
echo "soak_smoke: daemon up on $ADDR"

# Poll stats through the CLI and render two polls, one interval (1 s)
# apart: the first without rates, the second with them.
target/release/locap watch --addr "$ADDR" --frames 2 --tsv \
    > "$ARTIFACTS/watch.tsv"
if ! grep -q "	counter	serve/requests	" "$ARTIFACTS/watch.tsv"; then
    echo "soak_smoke: watch output carries no serve/requests counter row" >&2
    cat "$ARTIFACTS/watch.tsv" >&2
    exit 1
fi
echo "soak_smoke: watched $(wc -l < "$ARTIFACTS/watch.tsv") telemetry rows"

# The sustained-QPS soak: open-loop schedule, every response must be
# ok (--expect-ok), metrics emitted as one OBS_JSON registry line.
OBS_JSON=1 target/release/soak \
    --addr "$ADDR" --qps "$QPS" --duration-ms "$DURATION_MS" \
    --connections 4 --expect-ok \
    > "$ARTIFACTS/soak.json"
echo "soak_smoke: soak completed at target $QPS QPS for ${DURATION_MS}ms"

# trace_report prints the line's span tree (the soak/request span among
# it) and exits non-zero on a malformed line.
target/release/trace_report "$ARTIFACTS/soak.json"

# Clean shutdown over the wire.
SHUTDOWN_SCRIPT=$ARTIFACTS/.shutdown.jsonl
printf '{"op":"shutdown","id":"soak-bye"}\n' > "$SHUTDOWN_SCRIPT"
target/release/locap replay "$SHUTDOWN_SCRIPT" --addr "$ADDR" --expect-ok \
    > "$ARTIFACTS/shutdown.jsonl"
rm -f "$SHUTDOWN_SCRIPT"
wait "$DAEMON_PID"
trap - EXIT

echo "soak_smoke: passed"
