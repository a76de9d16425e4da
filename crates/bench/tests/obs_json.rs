//! Every experiment binary must, under `OBS_JSON=1`, print exactly one
//! line of schema-valid JSON (and nothing else) on stdout — that is the
//! contract the CI smoke job's metrics artifact depends on, and what
//! `bench_gate validate` checks there.

use locap_bench::gate;
use locap_obs::json::Json;

fn check_binary(name: &str, exe: &str) {
    let out = std::process::Command::new(exe)
        .env("OBS_JSON", "1")
        .output()
        .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
    assert!(out.status.success(), "{name}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: utf8: {e}"));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{name}: expected exactly one stdout line, got {}", lines.len());
    let line =
        gate::parse_baseline(lines[0]).unwrap_or_else(|e| panic!("{name}: schema validation: {e}"));
    let doc = Json::parse(lines[0]).unwrap_or_else(|e| panic!("{name}: JSON parse: {e}"));
    assert_eq!(doc.get("source").and_then(Json::as_str), Some(name), "{name}: source tag mismatch");
    // each binary times its body: a `total` span row must be present
    assert!(line.rows.contains_key("total"), "{name}: missing the total span row");
}

macro_rules! obs_json_test {
    ($test:ident, $bin:literal, $exe:expr) => {
        #[test]
        fn $test() {
            check_binary($bin, $exe);
        }
    };
}

obs_json_test!(e01, "e01_models", env!("CARGO_BIN_EXE_e01_models"));
obs_json_test!(e02, "e02_separation", env!("CARGO_BIN_EXE_e02_separation"));
obs_json_test!(e03, "e03_lifts", env!("CARGO_BIN_EXE_e03_lifts"));
obs_json_test!(e04, "e04_views", env!("CARGO_BIN_EXE_e04_views"));
obs_json_test!(e05, "e05_complete_tree", env!("CARGO_BIN_EXE_e05_complete_tree"));
obs_json_test!(e06, "e06_toroidal", env!("CARGO_BIN_EXE_e06_toroidal"));
obs_json_test!(e07, "e07_homogeneous", env!("CARGO_BIN_EXE_e07_homogeneous"));
obs_json_test!(e08, "e08_homlift", env!("CARGO_BIN_EXE_e08_homlift"));
obs_json_test!(e09, "e09_oi_to_po", env!("CARGO_BIN_EXE_e09_oi_to_po"));
obs_json_test!(e10, "e10_ramsey", env!("CARGO_BIN_EXE_e10_ramsey"));
obs_json_test!(e11, "e11_eds", env!("CARGO_BIN_EXE_e11_eds"));
obs_json_test!(e12, "e12_claims_table", env!("CARGO_BIN_EXE_e12_claims_table"));
obs_json_test!(e13, "e13_growth", env!("CARGO_BIN_EXE_e13_growth"));
obs_json_test!(e14, "e14_po_vs_pn", env!("CARGO_BIN_EXE_e14_po_vs_pn"));

/// `trace_report` over the `OBS_JSON=1` line of e09 prints its span tree:
/// one row per span row, whose count and total are that row's `samples`
/// and `total_ns`; a malformed line makes it exit non-zero.
#[test]
fn trace_report_prints_one_tree_row_per_span_row() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_e09_oi_to_po"))
        .env("OBS_JSON", "1")
        .output()
        .expect("spawn e09_oi_to_po");
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let line = gate::parse_baseline(stdout.trim()).expect("one schema-valid line");
    assert!(line.rows.len() > 1, "e09 records nested spans: {:?}", line.rows.keys());

    // the library view: one path per span row, with its count and total
    let stats = locap_bench::trace_report::parse(&stdout).expect("the line parses");
    assert!(stats.keys().eq(line.rows.keys()), "one tree row per span row");
    for (name, row) in &line.rows {
        assert_eq!(stats[name].count, row.samples, "{name}: span count");
        assert_eq!(Some(stats[name].total_ns), row.total_ns, "{name}: span total");
    }

    // the binary prints a header and then those rows, in path order
    let dir = std::env::temp_dir().join(format!("locap_trace_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |text: &str| {
        let path = dir.join("metrics.json");
        std::fs::write(&path, text).expect("write metrics file");
        std::process::Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .arg(&path)
            .output()
            .expect("spawn trace_report")
    };
    let out = report(&stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let tree = String::from_utf8(out.stdout).expect("utf8");
    let rows: Vec<&str> = tree.lines().skip(1).collect();
    assert_eq!(rows.len(), line.rows.len(), "one tree row per span row:\n{tree}");
    for (text, (name, row)) in rows.iter().zip(&line.rows) {
        let cells: Vec<&str> = text.split_whitespace().collect();
        let total_ms = format!("{:.3}", row.total_ns.expect("a total") as f64 / 1e6);
        assert_eq!(cells[0], row.samples.to_string(), "{name}: {text}");
        assert_eq!(cells[1], total_ms, "{name}: {text}");
        assert!(name.ends_with(cells[4]), "{name}: {text}");
    }

    let out = report(&format!("{}\n{{\"schema\": 2}}\n", stdout.trim()));
    assert_eq!(out.status.code(), Some(1), "a malformed line fails the report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: missing results array"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench_gate validate` reads the pretty-printed baseline and a file of
/// `OBS_JSON` lines through the one schema reader, and fails on a line
/// that the gate itself could not read back.
#[test]
fn bench_gate_validate_reads_the_baseline_and_metrics_lines() {
    let dir = std::env::temp_dir().join(format!("locap_validate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json");
    let validate = |text: &str| {
        let path = dir.join("metrics.json");
        std::fs::write(&path, text).expect("write metrics file");
        std::process::Command::new(env!("CARGO_BIN_EXE_bench_gate"))
            .args(["validate", baseline])
            .arg(&path)
            .output()
            .expect("spawn bench_gate")
    };
    let mut state = locap_obs::telemetry::TelemetryState::default();
    state.counters.insert("engine/po/evals".into(), 3);
    let line = gate::render_line("e00", &state);

    let out = validate(&format!("{line}\n\n{line}\n"));
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validate OK (3 schema-valid documents)"), "{stdout}");

    let out = validate(&format!("{line}\n{}\n", line.replace(":3", ":-3")));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("metrics.json:2: counters/engine/po/evals is not a u64"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
