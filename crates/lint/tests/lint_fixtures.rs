//! Lock-down assertions on the real workspace: every fn of the hot set
//! carries `#[hot]`, `clippy.toml` keeps its clock and poison
//! `disallowed-methods` list, and every panic-scope root denies the
//! clippy restriction lints.

use std::path::Path;

/// The hot set, by file: the fns whose loops must not allocate.
const HOT_FNS: [(&str, &[&str]); 4] = [
    (
        "crates/graph/src/canon.rs",
        &[
            "start_key",
            "ordered_key_into",
            "id_key_into",
            "push_undirected_edges",
            "ordered_lkey_into",
        ],
    ),
    ("crates/models/src/engine.rs", &["memo_broadcast"]),
    ("crates/lifts/src/view.rs", &["signature_append", "walk_signatures", "intern_roots"]),
    ("crates/groups/src/iter.rs", &["order_digits"]),
];

/// Every fn of the hot set carries `#[hot]` among the attribute and
/// comment lines directly above it. The attribute fails the build at an
/// allocation, but nothing else would notice the attribute itself going.
#[test]
fn every_hot_fn_carries_the_attribute() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (file, fns) in HOT_FNS {
        let text = std::fs::read_to_string(root.join(file)).expect("hot fn source exists");
        let lines: Vec<&str> = text.lines().collect();
        for name in fns {
            let declares =
                |l: &&str| l.contains(&format!("fn {name}(")) || l.contains(&format!("fn {name}<"));
            let at = lines
                .iter()
                .position(declares)
                .unwrap_or_else(|| panic!("{file} has no fn {name}"));
            let hot = lines[..at]
                .iter()
                .rev()
                .map(|l| l.trim())
                .take_while(|l| l.starts_with("#[") || l.starts_with("//"))
                .any(|l| l == "#[hot]");
            assert!(hot, "{file}: fn {name} is not #[hot]");
        }
    }
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

/// `clippy.toml` still lists every disallowed method with a reason —
/// without this, only the clippy step would notice a dropped entry.
#[test]
fn clippy_toml_disallows_the_clock_and_poison_methods() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
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
