//! The gate's counter workload must reproduce the `counters` object of
//! `BENCH_views.json` exactly: the work counters carry no timing noise,
//! so any drift is a change in what the engines do. This test is the one
//! check of that snapshot; `bench_gate record` writes it and `bench_gate
//! counters` prints it.
//!
//! The registry is process-global and `counter_workload` reads it whole,
//! so this file holds a single `#[test]` in its own binary.

use locap_bench::gate;

#[test]
fn counter_workload_matches_the_checked_in_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json");
    let text = std::fs::read_to_string(path).expect("BENCH_views.json is readable");
    let baseline = gate::parse_baseline(&text).expect("BENCH_views.json parses");
    assert_eq!(gate::counter_workload(), baseline.counters);
}
