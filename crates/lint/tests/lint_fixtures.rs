//! Fixture tests for the rule engine: one known-bad snippet per rule
//! (asserting it triggers exactly that rule), clean counterparts for the
//! exemption machinery, and the lock-down assertions on the real
//! workspace — the committed baseline must pass ratchet mode and must
//! contain no L2/L4 entries (those contracts hold outright).

use std::path::Path;

use locap_lint::{analyze_files, validate_lint_schema, Baseline, Config, Summary};
use locap_obs::json::Json;

/// Runs the analyzer over one in-memory file under the locap config.
fn lint_one(path: &str, src: &str) -> Vec<locap_lint::Diagnostic> {
    analyze_files(&[(path.to_string(), src.to_string())], &Config::locap())
}

/// Asserts every diagnostic of `diags` is from `rule` and there is at
/// least one — the fixture must trigger exactly the rule it targets.
fn assert_only(rule: &str, diags: &[locap_lint::Diagnostic]) {
    assert!(!diags.is_empty(), "fixture for {rule} triggered nothing");
    for d in diags {
        assert_eq!(d.rule, rule, "fixture for {rule} also triggered: {}", d.render());
    }
}

#[test]
fn l1_fires_on_unwrap_expect_macros_and_indexing() {
    let bad = r#"
pub fn f(v: &[u32], i: usize) -> u32 {
    let a = v.first().unwrap();
    let b = v.last().expect("nonempty");
    if i > v.len() { panic!("oob"); }
    *a + *b + v[i]
}
"#;
    let diags = lint_one("crates/core/src/fixture.rs", bad);
    assert_only("L1", &diags);
    assert_eq!(diags.len(), 4, "{diags:#?}");
}

#[test]
fn l1_exempts_tests_and_documented_panics() {
    let clean = r#"
/// Doubles the head.
///
/// # Panics
///
/// Panics when `v` is empty — callers check first.
pub fn head2(v: &[u32]) -> u32 {
    2 * v[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1u32];
        assert_eq!(super::head2(&v), v.first().copied().unwrap() * 2);
    }
}
"#;
    assert!(lint_one("crates/core/src/fixture.rs", clean).is_empty());
    // out of scope entirely: same bad code outside the execution core
    let bad = "pub fn f(v: &[u32]) -> u32 { v[0] }\n";
    assert!(lint_one("crates/algos/src/fixture.rs", bad).is_empty());
}

#[test]
fn l2_fires_on_unallowlisted_clock_reads() {
    let bad = r#"
use std::time::Instant;
pub fn how_long() -> std::time::Duration {
    let t0 = Instant::now();
    t0.elapsed()
}
"#;
    let diags = lint_one("crates/algos/src/fixture.rs", bad);
    assert_only("L2", &diags);
    // ... and on exceeding a file's allowance (budget.rs allows one)
    let two = "pub fn f() { let _ = Instant::now(); let _ = Instant::now(); }\n";
    let diags = lint_one("crates/graph/src/budget.rs", two);
    assert_only("L2", &diags);
    assert_eq!(diags.len(), 1, "only the read beyond the allowance fires");
}

#[test]
fn l2_exempts_tests_and_allowlisted_sites() {
    let clean = r#"
pub fn f() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::time::Instant::now();
    }
}
"#;
    assert!(lint_one("crates/algos/src/fixture.rs", clean).is_empty());
    let allowed = "pub fn today() { let _ = SystemTime::now(); }\n";
    assert!(lint_one("crates/bench/src/gate.rs", allowed).is_empty());
}

#[test]
fn l3_fires_on_inline_and_unresolved_metric_names() {
    let bad = r#"
pub fn f() {
    obs::counter("hot/loop").inc();
    obs::gauge(IMPORTED_ELSEWHERE).set(1);
}
"#;
    let diags = lint_one("crates/graph/src/fixture.rs", bad);
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 2, "{diags:#?}");
}

#[test]
fn l3_accepts_consts_and_catches_duplicate_construction() {
    let clean = r#"
const HOT_LOOP: &str = "hot/loop";
pub fn f(i: u32) {
    obs::counter(HOT_LOOP).inc();
    obs::counter(&format!("hot/worker/{i}")).inc();
}
"#;
    assert!(lint_one("crates/graph/src/fixture.rs", clean).is_empty());

    // the publish-twice bug class: same name constructed in two files
    let a = "const N: &str = \"dup/name\";\npub fn f() { obs::counter(N).inc(); }\n";
    let b = "const M: &str = \"dup/name\";\npub fn g() { obs::counter(M).inc(); }\n";
    let diags = analyze_files(
        &[
            ("crates/graph/src/a.rs".to_string(), a.to_string()),
            ("crates/lifts/src/b.rs".to_string(), b.to_string()),
        ],
        &Config::locap(),
    );
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("2 site(s)"), "{}", diags[0].message);
    assert_eq!(diags[0].file, "crates/lifts/src/b.rs", "the second site is the violation");
}

#[test]
fn l3_covers_latency_and_the_telemetry_families() {
    // the serve telemetry surface rides the same discipline: lifecycle
    // counters are consts, the per-request phase latency family is one
    // format! template
    let clean = r#"
const DROPPED: &str = "telemetry/dropped";
pub fn f(pipeline: &str, phase: &str, ns: u64) {
    obs::counter(DROPPED).inc();
    obs::latency(&format!("serve/request/{pipeline}/{phase}")).record_ns(ns);
}
"#;
    assert!(lint_one("crates/serve/src/fixture.rs", clean).is_empty());

    // an inline latency name is as much a violation as an inline counter
    let bad = r#"
pub fn f(ns: u64) {
    obs::latency("serve/request/census/run").record_ns(ns);
}
"#;
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");

    // two files claiming the same format! family collide like consts do
    let a = r#"pub fn f(p: &str) { obs::latency(&format!("serve/request/{p}")).record_ns(1); }"#;
    let b = r#"pub fn g(p: &str) { obs::latency(&format!("serve/request/{p}")).record_ns(1); }"#;
    let diags = analyze_files(
        &[
            ("crates/serve/src/a.rs".to_string(), a.to_string()),
            ("crates/serve/src/b.rs".to_string(), b.to_string()),
        ],
        &Config::locap(),
    );
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].file, "crates/serve/src/b.rs", "the second site is the violation");
}

#[test]
fn l3_covers_the_store_counter_family() {
    // the result store's hit/miss/corruption counters follow the same
    // const-name discipline as every other metric family
    let clean = r#"
pub const STORE_WARM_HIT: &str = "store/warm_hit";
pub const STORE_CORRUPT: &str = "store/corrupt";
pub fn f() {
    obs::counter(STORE_WARM_HIT).inc();
    obs::counter(STORE_CORRUPT).inc();
}
"#;
    assert!(lint_one("crates/store/src/fixture.rs", clean).is_empty());

    // inlining a store counter name is a violation like any other
    let bad = r#"
pub fn f() {
    obs::counter("store/warm_hit").inc();
}
"#;
    let diags = lint_one("crates/store/src/fixture.rs", bad);
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
}

#[test]
fn l1_covers_the_store_crate() {
    // the store sits on the serving hot path: panic discipline applies
    let fixture = "#![forbid(unsafe_code)]\npub fn f(v: &[u8]) -> u8 { v[0] }\n";
    let diags = lint_one("crates/store/src/lib.rs", fixture);
    assert_only("L1", &diags);
    assert!(!diags.is_empty(), "indexing in crates/store/src is a violation");
}

#[test]
fn l4_fires_on_crate_roots_without_forbid() {
    let bad = "//! A crate.\n\npub fn f() {}\n";
    assert_only("L4", &lint_one("crates/fixture/src/lib.rs", bad));
    assert_only("L4", &lint_one("crates/fixture/src/bin/tool.rs", bad));
    // non-root module files are not crate roots
    assert!(lint_one("crates/fixture/src/inner.rs", bad).is_empty());
    let clean = "//! A crate.\n\n#![forbid(unsafe_code)]\n\npub fn f() {}\n";
    assert!(lint_one("crates/fixture/src/lib.rs", clean).is_empty());
}

#[test]
fn l6_fires_on_missing_rank_and_todo_placeholder() {
    // an unannotated lock declaration fires, and proposes the TODO
    // scaffolding as a mechanical fix
    let bad = "static QUEUE: Mutex<u8> = Mutex::new(0);\n";
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L6", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("lock-rank=N"), "{}", diags[0].message);
    assert_eq!(diags[0].fixes.len(), 1);
    assert!(diags[0].fixes[0].text.contains("lock-rank=TODO"));

    // the scaffolding itself is rejected until a human picks the rank
    let todo = "static QUEUE: Mutex<u8> = Mutex::new(0); // lint: lock-rank=TODO\n";
    let diags = lint_one("crates/serve/src/fixture.rs", todo);
    assert_only("L6", &diags);
    assert!(diags[0].message.contains("placeholder"), "{}", diags[0].message);
    assert!(diags[0].fixes.is_empty(), "the TODO placeholder has no mechanical fix");

    // a declared rank is clean; a conflicting redeclaration is not
    let clean = "static QUEUE: Mutex<u8> = Mutex::new(0); // lint: lock-rank=10\n";
    assert!(lint_one("crates/serve/src/fixture.rs", clean).is_empty());
    let conflict = "static QUEUE: Mutex<u8> = Mutex::new(0); // lint: lock-rank=10\n\
                    struct S {\n    queue: Mutex<u8>, // lint: lock-rank=20\n}\n";
    let diags = lint_one("crates/serve/src/fixture.rs", conflict);
    assert_only("L6", &diags);
    assert!(diags[0].message.contains("conflicting"), "{}", diags[0].message);
}

#[test]
fn l6_fires_on_inverted_acquisition_order() {
    let bad = r#"
struct S {
    low: Mutex<u8>, // lint: lock-rank=10
    high: Mutex<u8>, // lint: lock-rank=20
}
impl S {
    fn bad(&self) {
        let g2 = self.high.lock();
        let g1 = self.low.lock();
        drop(g1);
        drop(g2);
    }
}
"#;
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L6", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("lock order violation"), "{}", diags[0].message);

    // the same pair taken in increasing rank order is clean …
    let clean = r#"
struct S {
    low: Mutex<u8>, // lint: lock-rank=10
    high: Mutex<u8>, // lint: lock-rank=20
}
impl S {
    fn good(&self) {
        let g1 = self.low.lock();
        let g2 = self.high.lock();
        drop(g2);
        drop(g1);
    }
}
"#;
    assert!(lint_one("crates/serve/src/fixture.rs", clean).is_empty());

    // … and so is re-acquiring after an explicit drop (no overlap)
    let sequential = r#"
struct S {
    low: Mutex<u8>, // lint: lock-rank=10
    high: Mutex<u8>, // lint: lock-rank=20
}
impl S {
    fn good(&self) {
        let g2 = self.high.lock();
        drop(g2);
        let g1 = self.low.lock();
        drop(g1);
    }
}
"#;
    assert!(lint_one("crates/serve/src/fixture.rs", sequential).is_empty());
}

#[test]
fn l6_fires_on_blocking_calls_under_a_held_guard() {
    let bad = r#"
struct S {
    state: Mutex<u8>, // lint: lock-rank=10
}
impl S {
    fn bad(&self, tx: &Sender<u8>) {
        let g = self.state.lock();
        tx.send(1);
        drop(g);
    }
}
"#;
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L6", &diags);
    assert!(diags[0].message.contains("blocking"), "{}", diags[0].message);

    // blocking through the guarded resource itself is the point of
    // holding the guard; dropping first is the other sanctioned shape
    let clean = r#"
struct S {
    state: Mutex<u8>, // lint: lock-rank=10
    writer: Mutex<W>, // lint: lock-rank=20
}
impl S {
    fn through_guard(&self) {
        let w = self.writer.lock();
        w.write_all(b"x");
    }
    fn drop_first(&self, tx: &Sender<u8>) {
        let g = self.state.lock();
        drop(g);
        tx.send(1);
    }
    fn scope_first(&self, tx: &Sender<u8>) {
        {
            let g = self.state.lock();
            g.checked_add(1);
        }
        tx.send(1);
    }
}
"#;
    assert!(lint_one("crates/serve/src/fixture.rs", clean).is_empty());
}

#[test]
fn l6_sees_one_level_callee_acquisitions() {
    // f holds rank 20 and calls g, which acquires rank 10 — invisible
    // to a per-fn scan, caught by the one-level call expansion
    let bad = r#"
static LOW: Mutex<u8> = Mutex::new(0); // lint: lock-rank=10
static HIGH: Mutex<u8> = Mutex::new(0); // lint: lock-rank=20
fn g() {
    let l = low.lock();
    drop(l);
}
fn f() {
    let h = high.lock();
    g();
    drop(h);
}
"#;
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L6", &diags);
    assert!(diags[0].message.contains("call to `g`"), "{}", diags[0].message);
}

#[test]
fn l7_fires_outside_the_poison_helper_and_exempts_it() {
    let bad = r#"
struct S {
    m: Mutex<u8>, // lint: lock-rank=10
}
impl S {
    fn bad(&self) -> u8 {
        *self.m.lock().unwrap()
    }
}
"#;
    let diags = lint_one("crates/obs/src/fixture.rs", bad);
    assert_only("L7", &diags);
    assert!(diags[0].message.contains("lock_unpoisoned"), "{}", diags[0].message);

    // the crate's allowlisted helper is the one audited recovery site;
    // tests keep unwrap freedom
    let clean = r#"
struct S {
    m: Mutex<u8>, // lint: lock-rank=10
}
fn lock_unpoisoned(m: &Mutex<u8>) -> MutexGuard<'_, u8> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = M.lock().unwrap();
    }
}
"#;
    assert!(lint_one("crates/obs/src/fixture.rs", clean).is_empty());

    // a different crate's helper name does not transfer
    let wrong_helper = "fn lock_or_recover(m: &Mutex<u8>) -> u8 {\n    *m.lock().unwrap()\n}\n";
    let diags = lint_one("crates/obs/src/fixture.rs", wrong_helper);
    assert_only("L7", &diags);
}

#[test]
fn l8_fires_past_the_setup_prefix_and_honors_hot_allow() {
    let bad = r#"
// lint: hot
fn step(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    // lint: hot-setup-end
    let label = format!("n={n}");
    out.push(label.len() as u8);
    out
}
"#;
    let diags = lint_one("crates/graph/src/fixture.rs", bad);
    assert_only("L8", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("format!"), "{}", diags[0].message);

    // allocations in the setup prefix are the sanctioned shape, the
    // justified escape hatch silences one line, and un-annotated fns
    // are out of scope entirely
    let clean = r#"
// lint: hot
fn step(n: usize, scratch: &mut Vec<u8>) {
    let mut tmp = Vec::with_capacity(n);
    // lint: hot-setup-end
    scratch.extend_from_slice(&tmp);
    let label = format!("n={n}"); // lint: hot-allow(cold error path, taken once per run)
    scratch.push(label.len() as u8);
}
fn cold(n: usize) -> String {
    format!("n={n}")
}
"#;
    assert!(lint_one("crates/graph/src/fixture.rs", clean).is_empty());

    // an empty hot-allow reason is its own violation
    let empty = r#"
// lint: hot
fn step(n: usize) -> u8 {
    // lint: hot-setup-end
    let label = format!("n={n}"); // lint: hot-allow()
    label.len() as u8
}
"#;
    let diags = lint_one("crates/graph/src/fixture.rs", empty);
    assert_only("L8", &diags);
    assert!(diags[0].message.contains("without a reason"), "{}", diags[0].message);
}

#[test]
fn l3_fixes_hoist_the_literal_to_a_const() {
    let src = "pub fn f() {\n    obs::counter(\"lint_fixture/hot\").inc();\n}\n";
    let diags = lint_one("crates/graph/src/fixture.rs", src);
    assert_only("L3", &diags);
    let mut edits: Vec<&locap_lint::FixEdit> = diags.iter().flat_map(|d| &d.fixes).collect();
    assert!(!edits.is_empty(), "the inline-name diagnostic proposes a hoist");
    edits.sort_by_key(|e| e.start);
    let mut fixed = src.to_string();
    for e in edits.iter().rev() {
        fixed.replace_range(e.start..e.end, &e.text);
    }
    assert!(fixed.contains("const LINT_FIXTURE_HOT: &str = \"lint_fixture/hot\";"), "{fixed}");
    assert!(fixed.contains("obs::counter(LINT_FIXTURE_HOT)"), "{fixed}");
    assert!(
        lint_one("crates/graph/src/fixture.rs", &fixed).is_empty(),
        "the fixed tree re-lints clean:\n{fixed}"
    );
}

#[test]
fn diagnostics_json_round_trips_through_the_obs_parser() {
    let diags = lint_one("crates/core/src/fixture.rs", "pub fn f(v: &[u8]) -> u8 { v[0] }\n");
    let summary = Summary {
        files: 1,
        diagnostics: diags.len() as u64,
        baselined: 0,
        new: diags.len() as u64,
        stale: 0,
    };
    let text = locap_lint::diag::to_json(&summary, &diags);
    let doc = Json::parse(&text).expect("document parses with the in-repo parser");
    validate_lint_schema(&doc).expect("document is schema-valid");
    let rows = doc.get("diagnostics").and_then(Json::as_array).expect("rows");
    assert_eq!(rows.len(), diags.len());
    assert_eq!(rows[0].get("rule").and_then(Json::as_str), Some("L1"));
}

/// A throwaway one-crate workspace for driving the real binary.
struct TempWorkspace {
    root: std::path::PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str, files: &[(&str, &str)]) -> TempWorkspace {
        let root = std::env::temp_dir().join(format!("locap-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(&path, text).expect("write fixture");
        }
        TempWorkspace { root }
    }

    fn read(&self, rel: &str) -> String {
        std::fs::read_to_string(self.root.join(rel)).expect("read fixture")
    }

    fn write(&self, rel: &str, text: &str) {
        std::fs::write(self.root.join(rel), text).expect("write fixture");
    }

    /// Runs the locap-lint binary with `args` against this workspace.
    fn lint(&self, args: &[&str]) -> std::process::Output {
        std::process::Command::new(env!("CARGO_BIN_EXE_locap-lint"))
            .args(args)
            .args(["--root", self.root.to_str().expect("utf8 root")])
            .env_remove("GITHUB_STEP_SUMMARY")
            .output()
            .expect("binary runs")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn fix_is_idempotent_and_the_todo_scaffolding_is_rejected() {
    let ws = TempWorkspace::new(
        "fix",
        &[
            ("crates/demo/src/lib.rs", "//! Demo.\n\npub fn f() {}\n"),
            ("crates/demo/src/locks.rs", "static QUEUE: Mutex<u8> = Mutex::new(0);\n"),
        ],
    );
    let baseline = ws.root.join("lint_baseline.json");
    let b = baseline.to_str().expect("utf8");

    // first --fix run: inserts the missing forbid and the lock-rank=TODO
    // scaffolding — which the check then rejects until a human ranks it
    let out = ws.lint(&["check", "--fix", "--baseline", b]);
    assert!(!out.status.success(), "the TODO placeholder must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied 2 fix edit(s) across 2 file(s)"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("L6"), "{stderr}");
    assert!(ws.read("crates/demo/src/lib.rs").contains("#![forbid(unsafe_code)]"));
    let locks = ws.read("crates/demo/src/locks.rs");
    assert!(locks.contains("// lint: lock-rank=TODO"), "{locks}");

    // a second --fix run proposes nothing: the fix is idempotent
    let before = (ws.read("crates/demo/src/lib.rs"), ws.read("crates/demo/src/locks.rs"));
    let out = ws.lint(&["check", "--fix", "--baseline", b]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied 0 fix edit(s) across 0 file(s)"), "{stdout}");
    assert_eq!(before.0, ws.read("crates/demo/src/lib.rs"));
    assert_eq!(before.1, ws.read("crates/demo/src/locks.rs"));

    // a human picks the rank; the fixed tree re-lints clean
    ws.write("crates/demo/src/locks.rs", &before.1.replace("lock-rank=TODO", "lock-rank=10"));
    let out = ws.lint(&["check", "--baseline", b]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ratchet gate passed"));
}

#[test]
fn validate_exits_2_on_baseline_entries_whose_file_is_gone() {
    let ws = TempWorkspace::new(
        "validate",
        &[("crates/demo/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n")],
    );
    let stale = "{\n  \"schema\": 2,\n  \"entries\": [\n    {\"rule\":\"L1\",\"file\":\"crates/demo/src/gone.rs\",\"count\":1,\"reason\":\"r\"}\n  ],\n  \"test_entries\": []\n}\n";
    ws.write("stale.json", stale);
    let out = ws.lint(&["validate", ws.root.join("stale.json").to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2), "stale entries are a distinct failure class");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gone.rs") && stderr.contains("no longer exists"), "{stderr}");

    // with the file present the same document validates
    let ok = stale.replace("gone.rs", "lib.rs");
    ws.write("ok.json", &ok);
    let out = ws.lint(&["validate", ws.root.join("ok.json").to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn check_appends_the_baseline_delta_to_the_step_summary() {
    let ws = TempWorkspace::new(
        "summary",
        &[("crates/demo/src/lib.rs", "//! Demo.\n\npub fn f() {}\n")],
    );
    let summary_path = ws.root.join("step_summary.md");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_locap-lint"))
        .args(["check", "--baseline", ws.root.join("none.json").to_str().expect("utf8")])
        .args(["--root", ws.root.to_str().expect("utf8 root")])
        .env("GITHUB_STEP_SUMMARY", &summary_path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "the missing forbid is a new violation");
    let md = std::fs::read_to_string(&summary_path).expect("summary written");
    assert!(md.contains("## locap-lint"), "{md}");
    assert!(md.contains("| L4 | forbid-unsafe | 1 |"), "{md}");
    assert!(md.contains("### Baseline delta"), "{md}");
    assert!(md.contains("new file — fix it"), "{md}");
    assert!(md.contains("gate **FAILED**"), "{md}");
}

/// The real workspace, under the committed baseline, passes ratchet mode
/// — this is the same gate CI runs, locked down as a plain test.
#[test]
fn workspace_is_clean_under_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = Baseline::load(&root.join("lint_baseline.json")).expect("baseline loads");
    assert!(!baseline.entries.is_empty(), "the committed baseline records the L1 debt");
    let run = locap_lint::run_check(&root, &Config::locap(), &baseline).expect("scan");
    assert!(run.passed(), "ratchet failures: {:#?}", run.failures);

    // the clock and unsafe contracts hold outright: no grandfathered debt
    for e in &baseline.entries {
        assert!(
            e.rule != "L2" && e.rule != "L4",
            "{} must pass with zero baseline entries, found one for {}",
            e.rule,
            e.file
        );
        assert!(
            !e.reason.trim().is_empty() && !e.reason.starts_with("TODO"),
            "baseline entry {} {} lacks a real reason",
            e.rule,
            e.file
        );
    }
}
