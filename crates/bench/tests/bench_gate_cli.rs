//! `bench_gate`'s exit-2 contract: a baseline row without its partner,
//! and an argument it does not know, stop `check` and `record` before
//! any bench runs. The child gets an empty `PATH`, so a gate that got
//! past its config would fail to spawn `cargo bench` rather than run it,
//! and the stderr assertions tell that failure apart.

use std::process::{Command, Output};

/// `bench_gate` with `args`, and no `cargo` on its `PATH`.
fn bench_gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .env("PATH", "")
        .output()
        .expect("spawn bench_gate")
}

/// Asserts that `out` exited 2 with `want` in its stderr.
fn assert_config_error(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(want), "want {want:?} in {stderr}");
}

#[test]
fn check_and_record_refuse_an_unpaired_baseline_row() {
    let dir = std::env::temp_dir().join(format!("locap_bench_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let row = |name: &str| {
        format!(r#"{{"bench":"view_engine","name":"{name}","median_ns":1,"min_ns":1,"samples":1}}"#)
    };
    let cases = [
        (vec![row("g/engine/1")], "row g/engine/1 has no partner g/naive/1"),
        (vec![row("tree/build/L1_r4")], "row tree/build/L1_r4 matches no ratio pair"),
    ];
    for (rows, want) in cases {
        let baseline = dir.join("baseline.json");
        let out_path = dir.join("recorded.json");
        let doc = format!(r#"{{"schema":2,"results":[{}]}}"#, rows.join(","));
        std::fs::write(&baseline, doc).expect("write baseline");
        let (baseline, out) = (baseline.to_str().unwrap(), out_path.to_str().unwrap());
        assert_config_error(&bench_gate(&["check", "--baseline", baseline]), want);
        assert_config_error(&bench_gate(&["record", "--baseline", baseline, "--out", out]), want);
        assert!(!out_path.exists(), "record wrote a baseline it refused");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_and_misplaced_arguments_exit_2() {
    assert_config_error(&bench_gate(&["--tolerance", "3.0"]), r#"unknown argument "--tolerance""#);
    assert_config_error(
        &bench_gate(&["check", "--with-bench", "view_engine"]),
        "--with-bench only applies to record mode",
    );
    assert_config_error(&bench_gate(&["check", "--baseline"]), "--baseline needs a path");
}
