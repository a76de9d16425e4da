#!/usr/bin/env bash
# The full local CI gate: format check first (cheapest), then release
# build, tests, locap-lint, strict clippy. Run before every push; CI
# runs exactly this. Each step reports its wall-clock time so
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
# the baseline document first: schema-valid, and no entry may point at
# a file that no longer exists (exit 2)
step "locap-lint validate" cargo run --release -q -p locap-lint -- validate lint_baseline.json
# workspace static analysis in ratchet mode: fails on any violation not
# grandfathered (with a reason) by lint_baseline.json
step "locap-lint" cargo run --release -q -p locap-lint -- check
# clippy also enforces the panic and unsafe contracts: the workspace
# lints forbid unsafe code, and the execution core's scope roots deny
# unwrap/expect/panic/indexing, with #[expect(…, reason)] on the fns
# whose indexing is bounded by construction (an unfulfilled expect
# fails here too)
step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
