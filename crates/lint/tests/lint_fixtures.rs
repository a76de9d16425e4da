//! Fixture tests for the rule engine: one known-bad snippet per rule
//! (asserting it triggers exactly that rule), clean counterparts for the
//! exemption machinery, and the lock-down assertions on the real
//! workspace — it must lint clean, `clippy.toml` must keep its clock and
//! poison `disallowed-methods` list, and every panic-scope root must
//! deny the clippy restriction lints.

use std::path::Path;

use locap_lint::{analyze_files, validate_lint_schema, Config, Summary};
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
    // test and bench trees name metrics freely
    assert!(lint_one("crates/graph/tests/fixture.rs", bad).is_empty());
    assert!(lint_one("crates/graph/benches/fixture.rs", bad).is_empty());
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
    obs::latency(&format!("serve/request/{pipeline}/{phase}")).record(ns);
}
"#;
    assert!(lint_one("crates/serve/src/fixture.rs", clean).is_empty());

    // an inline latency name is as much a violation as an inline counter
    let bad = r#"
pub fn f(ns: u64) {
    obs::latency("serve/request/census/run").record(ns);
}
"#;
    let diags = lint_one("crates/serve/src/fixture.rs", bad);
    assert_only("L3", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");

    // two files claiming the same format! family collide like consts do
    let a = r#"pub fn f(p: &str) { obs::latency(&format!("serve/request/{p}")).record(1); }"#;
    let b = r#"pub fn g(p: &str) { obs::latency(&format!("serve/request/{p}")).record(1); }"#;
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

    // L6 is the one rule that also runs on test and bench trees
    assert_only("L6", &lint_one("crates/serve/tests/fixture.rs", bad));
    assert_only("L6", &lint_one("crates/serve/benches/fixture.rs", bad));

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

    // an attribute next to the marker, above or below it, keeps the fn hot
    let attr = "#[expect(clippy::indexing_slicing, reason = \"r\")]\n";
    for (above, below) in [("", attr), (attr, "")] {
        let src = format!(
            r#"/// Doc.
{above}// lint: hot
{below}fn step(xs: &[u8], n: usize) -> u8 {{
    let x = xs[0];
    // lint: hot-setup-end
    let label = format!("n={{n}}");
    x + label.len() as u8
}}
"#
        );
        let diags = lint_one("crates/graph/src/fixture.rs", &src);
        assert_only("L8", &diags);
        assert_eq!(diags.len(), 1, "{src}\n{diags:#?}");
        assert!(diags[0].message.contains("format!"), "{}", diags[0].message);
    }

    // a marker that annotates no fn is reported, not silently dropped
    let stray = "// lint: hot\n\nfn step(n: usize) -> String {\n    format!(\"n={n}\")\n}\n";
    let diags = lint_one("crates/graph/src/fixture.rs", stray);
    assert_only("L8", &diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("annotates no fn"), "{}", diags[0].message);
}

/// The engine loop every run goes through is under L8: an allocation
/// added past its setup prefix fails the check.
#[test]
fn l8_covers_the_engine_memo_broadcast_loop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = "crates/models/src/engine.rs";
    let text = std::fs::read_to_string(root.join(path)).expect("engine source exists");
    let l8 = |src: &str| -> Vec<locap_lint::Diagnostic> {
        lint_one(path, src).into_iter().filter(|d| d.rule == "L8").collect()
    };
    assert!(l8(&text).is_empty(), "{:#?}", l8(&text));
    let marker = "    // lint: hot-setup-end\n";
    let at = text.find(marker).expect("memo_broadcast has a setup prefix") + marker.len();
    let probed = format!("{}    let _probe: Vec<u8> = Vec::new();\n{}", &text[..at], &text[at..]);
    let diags = l8(&probed);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("`memo_broadcast`"), "{}", diags[0].message);
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
    let diags =
        lint_one("crates/graph/src/fixture.rs", "pub fn f() { obs::counter(\"a/b\").inc(); }\n");
    let summary = Summary { files: 1, diagnostics: diags.len() as u64 };
    let text = locap_lint::diag::to_json(&summary, &diags);
    let doc = Json::parse(&text).expect("document parses with the in-repo parser");
    validate_lint_schema(&doc).expect("document is schema-valid");
    let rows = doc.get("diagnostics").and_then(Json::as_array).expect("rows");
    assert_eq!(rows.len(), diags.len());
    assert_eq!(rows[0].get("rule").and_then(Json::as_str), Some("L3"));
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

    // first --fix run: inserts the lock-rank=TODO scaffolding — which
    // the check then rejects until a human ranks it — and leaves the
    // crate root alone (unsafe is forbidden by the workspace lints)
    let out = ws.lint(&["check", "--fix"]);
    assert_eq!(out.status.code(), Some(1), "the TODO placeholder must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied 1 fix edit(s) across 1 file(s)"), "{stdout}");
    assert!(stdout.contains("[L6 lock-order] placeholder"), "{stdout}");
    assert_eq!(ws.read("crates/demo/src/lib.rs"), "//! Demo.\n\npub fn f() {}\n");
    let locks = ws.read("crates/demo/src/locks.rs");
    assert!(locks.contains("// lint: lock-rank=TODO"), "{locks}");

    // a second --fix run proposes nothing: the fix is idempotent
    let before = (ws.read("crates/demo/src/lib.rs"), ws.read("crates/demo/src/locks.rs"));
    let out = ws.lint(&["check", "--fix"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied 0 fix edit(s) across 0 file(s)"), "{stdout}");
    assert_eq!(before.0, ws.read("crates/demo/src/lib.rs"));
    assert_eq!(before.1, ws.read("crates/demo/src/locks.rs"));

    // a human picks the rank; the fixed tree re-lints clean
    ws.write("crates/demo/src/locks.rs", &before.1.replace("lock-rank=TODO", "lock-rank=10"));
    let out = ws.lint(&["check"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("gate passed"));
}

#[test]
fn check_appends_the_rule_table_to_the_step_summary() {
    let ws = TempWorkspace::new(
        "summary",
        &[("crates/demo/src/lib.rs", "static QUEUE: Mutex<u8> = Mutex::new(0);\n")],
    );
    let summary_path = ws.root.join("step_summary.md");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_locap-lint"))
        .args(["check", "--root", ws.root.to_str().expect("utf8 root")])
        .env("GITHUB_STEP_SUMMARY", &summary_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "the unranked mutex fails the gate");
    let md = std::fs::read_to_string(&summary_path).expect("summary written");
    assert_eq!(
        md,
        "## locap-lint\n\n| rule | name | diagnostics |\n|---|---|---|\n\
         | L3 | counter-discipline | 0 |\n| L6 | lock-order | 1 |\n| L8 | hot-path-allocation | 0 |\n"
    );
}

/// The clock and poison contracts: every path clippy must refuse
/// outside a fn that expects `clippy::disallowed_methods`.
const DISALLOWED_METHODS: [&str; 5] = [
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::sync::Mutex::lock",
    "std::sync::RwLock::read",
    "std::sync::RwLock::write",
];

/// The real workspace passes the same gate CI runs, and `clippy.toml`
/// still lists every disallowed method with a reason — without this,
/// only the clippy step would notice a dropped entry.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = locap_lint::run_check(&root, &Config::locap()).expect("scan");
    let rendered: Vec<String> = run.diagnostics.iter().map(|d| d.render()).collect();
    assert!(run.passed(), "diagnostics: {rendered:#?}");

    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml exists");
    let (_, list) = toml.split_once("disallowed-methods = [").expect("disallowed-methods list");
    let list = &list[..list.find("\n]").expect("closed list")];
    // one `{ path = "…", reason = "…" }` entry per line
    let entries: Vec<(&str, &str)> = list
        .lines()
        .filter_map(|l| Some((toml_str(l, "path")?, toml_str(l, "reason")?)))
        .collect();
    for path in DISALLOWED_METHODS {
        let reason = entries.iter().find(|(p, _)| *p == path).map(|(_, r)| r.trim());
        assert!(
            reason.is_some_and(|r| !r.is_empty()),
            "clippy.toml must disallow {path} with a reason: {entries:?}"
        );
    }
}

/// The value of a `key = "…"` pair on one line of TOML.
fn toml_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (_, rest) = line.split_once(&format!("{key} = \""))?;
    rest.split_once('"').map(|(v, _)| v)
}

/// The clippy restriction lints that hold the panic-free execution core.
const PANIC_LINTS: [&str; 8] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
    "clippy::string_slice",
];

/// Every root of the panic scope — the `serve`/`store`/`core`/`num`
/// crates, the two `locap-serve` binaries, and the engine, run and
/// simulator modules plus the budget module — denies the full lint
/// list. `serve`, `store` and `num` carry no `#[expect]`, so nothing
/// else would notice a dropped attribute there.
#[test]
fn panic_scope_roots_deny_the_clippy_restriction_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in [
        "crates/core/src/lib.rs",
        "crates/serve/src/lib.rs",
        "crates/store/src/lib.rs",
        "crates/num/src/lib.rs",
        "crates/serve/src/bin/locap.rs",
        "crates/serve/src/bin/locapd.rs",
        "crates/models/src/sim.rs",
        "crates/models/src/run.rs",
        "crates/models/src/engine.rs",
        "crates/graph/src/budget.rs",
        "crates/graph/src/par.rs",
    ] {
        let text = std::fs::read_to_string(root.join(file)).expect("scope root exists");
        let start = text.find("#![deny(").unwrap_or_else(|| panic!("{file} lacks #![deny(…)]"));
        let body = &text[start + "#![deny(".len()..];
        let list = &body[..body.find(")]").expect("closed attribute")];
        let denied: Vec<&str> = list.split(',').map(str::trim).filter(|l| !l.is_empty()).collect();
        for lint in PANIC_LINTS {
            assert!(denied.contains(&lint), "{file} does not deny {lint}: {denied:?}");
        }
    }
}
