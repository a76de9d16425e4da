//! Every experiment binary must, under `OBS_JSON=1`, print exactly one
//! line on stdout (and nothing else): `{"source": <binary>, "registry":
//! …}`, whose `registry` [`TelemetryState::from_json`] reads. That is the
//! contract the CI smoke job's metrics artifact depends on, and
//! `trace_report` reads every such line there.

use locap_bench::trace_report;
use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// The `OBS_JSON=1` stdout of `exe`.
fn obs_json_stdout(name: &str, exe: &str) -> String {
    let out = std::process::Command::new(exe)
        .env("OBS_JSON", "1")
        .output()
        .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
    assert!(out.status.success(), "{name}: exit {}", out.status);
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: utf8: {e}"))
}

/// The source tag and the registry of one `OBS_JSON=1` line.
fn read_line(line: &str) -> (String, TelemetryState) {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("JSON parse: {e}: {line}"));
    let source = doc.get("source").and_then(Json::as_str).expect("a source tag");
    let registry = doc.get("registry").expect("a registry object");
    let state = TelemetryState::from_json(registry).unwrap_or_else(|e| panic!("registry: {e}"));
    (source.to_string(), state)
}

fn check_binary(name: &str, exe: &str) {
    let stdout = obs_json_stdout(name, exe);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{name}: expected exactly one stdout line, got {}", lines.len());
    let (source, registry) = read_line(lines[0]);
    assert_eq!(source, name, "{name}: source tag mismatch");
    // each binary times its body: a `total` span must be present, and
    // `trace_report` reads the line into one tree row per span
    assert!(registry.spans.contains_key("total"), "{name}: missing the total span");
    let stats = trace_report::parse(&stdout).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(stats.keys().eq(registry.spans.keys()), "{name}: one tree row per span");
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
/// one row per span, whose count and total are that span's `count` and
/// `sum`; a line without a `registry` object makes it exit 1.
#[test]
fn trace_report_prints_one_tree_row_per_span_row() {
    let stdout = obs_json_stdout("e09_oi_to_po", env!("CARGO_BIN_EXE_e09_oi_to_po"));
    let (_, registry) = read_line(stdout.trim());
    assert!(registry.spans.len() > 1, "e09 records nested spans: {:?}", registry.spans.keys());

    // the library view: one path per span, with its count and total
    let stats = trace_report::parse(&stdout).expect("the line parses");
    assert!(stats.keys().eq(registry.spans.keys()), "one tree row per span");
    for (name, h) in &registry.spans {
        assert_eq!((stats[name].count, stats[name].total_ns), (h.count, h.sum), "{name}");
        assert_eq!(stats[name].max_ns, h.max, "{name}: span max");
    }

    // the binary prints a header and then those rows, in path order
    let dir = std::env::temp_dir().join(format!("locap_trace_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = trace_report_on(&dir, &stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let tree = String::from_utf8(out.stdout).expect("utf8");
    let rows: Vec<&str> = tree.lines().skip(1).collect();
    assert_eq!(rows.len(), registry.spans.len(), "one tree row per span:\n{tree}");
    for (text, (name, h)) in rows.iter().zip(&registry.spans) {
        let cells: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(cells[0], h.count.to_string(), "{name}: {text}");
        assert_eq!(cells[1], format!("{:.3}", h.sum as f64 / 1e6), "{name}: {text}");
        assert!(name.ends_with(cells[4]), "{name}: {text}");
    }

    let out = trace_report_on(&dir, &format!("{}\n{{\"source\": \"e09\"}}\n", stdout.trim()));
    assert_eq!(out.status.code(), Some(1), "a line without a registry fails the report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: no registry object"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace_report` skips a blank line between two lines and adds their
/// spans up, so a file of lines from several binaries reads as one run;
/// a negative counter in the second line fails the file.
#[test]
fn trace_report_reads_lines_around_a_blank_one() {
    let dir = std::env::temp_dir().join(format!("locap_trace_blank_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reg = locap_obs::Registry::new();
    reg.record_span_ns("total", 2_000_000);
    reg.counter("engine/po/evals").add(3);
    let line = Json::Obj(vec![
        ("source".into(), Json::Str("e00".into())),
        ("registry".into(), reg.snapshot().to_json()),
    ]);

    let out = trace_report_on(&dir, &format!("{line}\n\n{line}\n"));
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let tree = String::from_utf8(out.stdout).expect("utf8");
    let rows: Vec<Vec<&str>> =
        tree.lines().skip(1).map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows, [["2", "4.000", "4.000", "2.000", "total"]], "{tree}");

    let out =
        trace_report_on(&dir, &format!("{line}\n{}\n", line.to_string().replace(":3", ":-3")));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: counter engine/po/evals"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the `trace_report` binary on `text`, written to a file in `dir`.
fn trace_report_on(dir: &std::path::Path, text: &str) -> std::process::Output {
    let path = dir.join("metrics.json");
    std::fs::write(&path, text).expect("write metrics file");
    std::process::Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(&path)
        .output()
        .expect("spawn trace_report")
}
