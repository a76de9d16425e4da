#!/usr/bin/env bash
# The full local CI gate: format check first (cheapest), then release
# build, tests, locap-lint, strict clippy and rustdoc. Run before every
# push; CI runs exactly this. Each step reports its wall-clock time so
# regressions in the gate itself are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

# On GitHub Actions, per-step timings also land in the job summary as a
# markdown table, so gate-time regressions show up without log spelunking.
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo "### CI gate timings"
        echo ""
        echo "| step | seconds |"
        echo "| --- | ---: |"
    } >> "$GITHUB_STEP_SUMMARY"
fi

step() {
    local name=$1
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    local dt=$((SECONDS - t0))
    echo "    [$name: ${dt}s]"
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "| $name | $dt |" >> "$GITHUB_STEP_SUMMARY"
    fi
}

step "cargo fmt --check" cargo fmt --all -- --check
step "cargo build --release" cargo build --release --workspace
# debug-profile test pass: keeps debug_assert! checks and overflow
# checks in play, which the release pass below would skip
step "cargo test -q (debug)" cargo test -q --workspace
# the fault-injection harness re-runs in release: the panic-free
# guarantees must not depend on debug-only checks
step "failure injection (release)" \
    cargo test -q --release -p locap-core --test failure_injection
# serving-layer suites re-run in release: the protocol conformance,
# wire fuzzing, CLI goldens, daemon fault injection, and the
# concurrent load test (lost/duplicated responses would be a
# release-profile race, invisible to the debug pass above)
step "serve conformance (release)" cargo test -q --release -p locap-serve
# the benchmark client is its own cargo workspace and calls the core
# entry points directly: compile and test it so an API change that
# breaks the benchmark fails here, not in a later benchmark run
step "loadbench tests" cargo test -q --manifest-path loadbench/Cargo.toml
# the repo-specific contracts clippy cannot express: const metric names
# registered once (L3), declared lock ranks acquired in increasing order
# with no blocking under a held guard (L6), and no allocation past a hot
# fn's setup prefix (L8); fails on any diagnostic
step "locap-lint" cargo run --release -q -p locap-lint -- check
# clippy enforces the panic, unsafe, clock and poison contracts: the
# workspace lints forbid unsafe code; the execution core's scope roots
# deny unwrap/expect/panic/indexing; clippy.toml's disallowed-methods
# list refuses wall-clock reads and raw Mutex/RwLock locking. Each
# sanctioned site carries #[expect(…, reason)] on its fn, and an
# unfulfilled expect fails here too
step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings
# rustdoc: a broken or ambiguous intra-doc link, such as one left behind
# by a deleted type, fails here instead of rotting in the docs
step "cargo doc -D warnings" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "CI gate passed."
