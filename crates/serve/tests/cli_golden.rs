//! Golden-output tests for the `locap` CLI.
//!
//! Every pipeline subcommand is locked two ways:
//!
//! * **human output** — byte-for-byte against
//!   `tests/golden/<name>.txt` (the CLI prints no timings, so the
//!   output is fully deterministic);
//! * **`OBS_JSON=1` output** — exactly one stdout line whose `registry`
//!   `TelemetryState::from_json` reads (the same contract as
//!   `crates/bench/tests/obs_json.rs`), with the *span-name set* locked
//!   against `tests/golden/<name>.metrics.txt` (values are timings and
//!   may vary).
//!
//! Regenerate snapshots with `UPDATE_GOLDEN=1 cargo test -p locap-serve
//! --test cli_golden` and review the diff like any other code change.

use std::path::PathBuf;
use std::process::Command;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// The locked subcommand matrix: (snapshot name, CLI args).
const CASES: &[(&str, &[&str])] = &[
    ("pipelines", &["pipelines"]),
    ("eds_lower", &["eds-lower", "--n", "9", "--delta-prime", "2"]),
    ("homogeneous", &["homogeneous", "--k", "1", "--r", "1", "--m", "6"]),
    ("hom_lift", &["hom-lift", "--cycle", "3", "--m", "6"]),
    ("oi_to_po", &["oi-to-po", "--algo", "vc-non-min", "--cycle", "9", "--m", "6"]),
    ("ramsey", &["ramsey", "--algo", "local-max", "--universe", "20", "--r", "1", "--m", "5"]),
    ("transfer", &["transfer", "--algo", "vc-non-min", "--cycle", "9", "--m", "6"]),
    ("census", &["census", "--family", "directed-cycle", "--n", "12", "--radius", "2"]),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn locap(args: &[&str], obs_json: bool) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_locap"));
    cmd.args(args).env_remove("OBS_JSON");
    if obs_json {
        cmd.env("OBS_JSON", "1");
    }
    cmd.output().unwrap_or_else(|e| panic!("spawn locap {args:?}: {e}"))
}

#[track_caller]
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name}: output drifted from its snapshot; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The `registry` object of `doc`, an `OBS_JSON=1` line or a sidecar.
#[track_caller]
fn registry(doc: &Json) -> TelemetryState {
    let registry = doc.get("registry").unwrap_or_else(|| panic!("no registry object: {doc}"));
    TelemetryState::from_json(registry).unwrap_or_else(|e| panic!("registry: {e}: {doc}"))
}

#[test]
fn human_output_matches_golden_snapshots() {
    for (name, args) in CASES {
        let out = locap(args, false);
        assert!(
            out.status.success(),
            "{name}: exit {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: utf8: {e}"));
        check_golden(&format!("{name}.txt"), &stdout);
    }
}

#[test]
fn obs_json_output_is_schema_valid_with_locked_metric_names() {
    for (name, args) in CASES {
        if *name == "pipelines" {
            continue; // a listing, not a pipeline run — no metrics line
        }
        let out = locap(args, true);
        assert!(
            out.status.success(),
            "{name}: exit {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: utf8: {e}"));
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(
            lines.len(),
            1,
            "{name}: OBS_JSON=1 must print exactly one line, got {stdout:?}"
        );
        let doc = Json::parse(lines[0]).unwrap_or_else(|e| panic!("{name}: JSON parse: {e}"));
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("locap"), "{name}: source tag");
        let spans = registry(&doc).spans;
        let metric_names: Vec<&str> = spans.keys().map(String::as_str).collect();
        assert!(metric_names.contains(&"total"), "{name}: missing the total span");
        let mut listing: String = metric_names.join("\n");
        listing.push('\n');
        check_golden(&format!("{name}.metrics.txt"), &listing);
    }
}

#[test]
fn usage_errors_exit_2_without_polluting_stdout() {
    for args in [&["warp-drive"][..], &[][..], &["census", "--family"][..]] {
        let out = locap(args, false);
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2 for {args:?}");
        assert!(out.stdout.is_empty(), "usage errors keep stdout clean for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "stderr shows usage for {args:?}: {stderr}");
    }
}

#[test]
fn pipeline_failures_exit_1_with_a_typed_kind_on_stderr() {
    // delta_prime=2 needs n divisible by 3: a clean in-pipeline failure.
    let out = locap(&["eds-lower", "--n", "10"], false);
    assert_eq!(out.status.code(), Some(1), "pipeline errors exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("core/") || stderr.contains("run/") || stderr.contains("truncated/"),
        "stderr names the error kind: {stderr}"
    );
}

#[test]
fn oversized_solver_inputs_exit_1_with_bad_param() {
    for args in [
        &["eds-lower", "--delta_prime", "2", "--n", "132"][..],
        &["oi-to-po", "--algo", "vc-non-min", "--cycle", "130"][..],
        &["transfer", "--algo", "is-local-min", "--cycle", "130"][..],
    ] {
        let out = locap(args, false);
        assert_eq!(out.status.code(), Some(1), "typed rejection exits 1 for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("request/bad_param"), "{args:?}: {stderr}");
    }
}

/// A lift over the 3,000,000-node cap is one typed `core/too_large`
/// line, found before the lift is allocated: 216 × 1,048,576 nodes used to
/// abort the process on a 5.4 GB allocation, and 216 × 20,000 to report
/// its 100 ms deadline only seconds later.
#[test]
fn oversized_lifts_exit_1_with_too_large() {
    for args in [
        &["hom-lift", "--cycle", "1048576", "--m", "6"][..],
        &["hom-lift", "--cycle", "20000", "--m", "6", "--deadline-ms", "100"][..],
    ] {
        let out = locap(args, false);
        assert_eq!(out.status.code(), Some(1), "typed rejection exits 1 for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("core/too_large"), "{args:?}: {stderr}");
    }
}

/// `--out` writes the artifact and its provenance sidecar, and the
/// sidecar accounts for the same run as the `OBS_JSON=1` line: its
/// `registry` equals the line's, counter for counter and histogram for
/// histogram, but for the `total` span that times the whole command.
#[test]
fn out_flag_writes_artifact_and_sidecar() {
    let dir = std::env::temp_dir().join(format!("locap-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let artifact = dir.join("census.json");
    let args = [
        "census",
        "--family",
        "directed-cycle",
        "--n",
        "12",
        "--out",
        artifact.to_str().expect("utf8 temp path"),
    ];
    let read_sidecar = || {
        let text = std::fs::read_to_string(dir.join("census.json.provenance.json"));
        Json::parse(text.expect("sidecar written").trim()).expect("sidecar is JSON")
    };

    let out = locap(&args, false);
    assert!(out.status.success(), "exit {}", out.status);
    let doc = Json::parse(std::fs::read_to_string(&artifact).expect("artifact written").trim())
        .expect("artifact is JSON");
    assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(12));
    let sidecar = read_sidecar();
    assert_eq!(sidecar.get("tool").and_then(Json::as_str), Some("locap"));
    assert_eq!(sidecar.get("pipeline").and_then(Json::as_str), Some("census"));

    let out = locap(&args, true);
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mut line = registry(&Json::parse(stdout.trim()).expect("one JSON line"));
    assert!(line.spans.remove("total").is_some(), "the line times the command");
    assert_eq!(registry(&read_sidecar()), line);
    let _ = std::fs::remove_dir_all(&dir);
}
