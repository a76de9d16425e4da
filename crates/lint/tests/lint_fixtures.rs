//! Fixture tests for the rule engine: known-bad snippets that must
//! trigger L8, clean counterparts for its setup prefix and escape hatch,
//! and the lock-down assertions on the real workspace — it must lint
//! clean, `clippy.toml` must keep its clock and poison
//! `disallowed-methods` list, and every panic-scope root must deny the
//! clippy restriction lints.

use std::path::Path;

use locap_lint::analyze_files;

/// Runs the analyzer over one in-memory file.
fn lint_one(path: &str, src: &str) -> Vec<locap_lint::Diagnostic> {
    analyze_files(&[(path.to_string(), src.to_string())])
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

/// The clock and poison contracts: every path clippy must refuse
/// outside a fn that expects `clippy::disallowed_methods`.
const DISALLOWED_METHODS: [&str; 5] = [
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::sync::Mutex::lock",
    "std::sync::RwLock::read",
    "std::sync::RwLock::write",
];

/// The real workspace passes L8, and `clippy.toml` still lists every
/// disallowed method with a reason — without this, only the clippy step
/// would notice a dropped entry.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diagnostics = locap_lint::run_check(&root).expect("scan");
    let rendered: Vec<String> = diagnostics.iter().map(|d| d.render()).collect();
    assert!(diagnostics.is_empty(), "diagnostics: {rendered:#?}");

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
