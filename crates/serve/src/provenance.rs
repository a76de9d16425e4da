//! Provenance sidecars: every artifact the serving layer writes is
//! accompanied by `<artifact>.provenance.json` recording how it was
//! produced.
//!
//! # Sidecar schema (version 1)
//!
//! ```json
//! {"schema": 1,
//!  "tool": "locapd",
//!  "git_rev": "abc123… or null",
//!  "pipeline": "eds-lower",
//!  "params": {"n": 9, "delta_prime": 2},
//!  "elapsed_ms": 41,
//!  "created_unix_ms": 1765432100000,
//!  "counters": {"census/classes": 1, "…": 0},
//!  "spans": {"total": 1, "…": 0}}
//! ```
//!
//! * `git_rev` — the commit the serving binary ran from: the
//!   `LOCAP_GIT_REV` environment variable when set, else resolved from
//!   the repository's `.git` (walking up from the working directory);
//!   `null` when neither is available.
//! * `counters` — the obs-counter *delta* attributable to this run
//!   ([`TelemetryState::delta_since`] between two [`locap_obs::snapshot`]s
//!   around it): exact for the CLI and single-worker daemons, a window
//!   over concurrent work otherwise.
//! * `spans` — span hit counts from the same delta.

use std::path::{Path, PathBuf};

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// The sidecar schema version this module writes.
pub const SCHEMA: u64 = 1;

/// The commit the running binary was built from, best-effort:
/// `LOCAP_GIT_REV` when set, else the repository HEAD found by walking
/// up from the current directory. `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    if let Ok(rev) = std::env::var("LOCAP_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return Some(rev);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_head(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
            return Some(rev.trim().to_string());
        }
        // fall back to packed-refs
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            let line = line.trim();
            if line.starts_with('#') || line.starts_with('^') {
                continue;
            }
            if let Some((rev, name)) = line.split_once(' ') {
                if name.trim() == refname {
                    return Some(rev.trim().to_string());
                }
            }
        }
        return None;
    }
    (!head.is_empty()).then(|| head.to_string())
}

/// Milliseconds since the Unix epoch. The one sanctioned wall-clock
/// read in the serving layer: provenance records *when* an artifact was
/// made; nothing downstream computes with the value.
#[expect(
    clippy::disallowed_methods,
    reason = "stamps provenance sidecars; nothing downstream computes with the value"
)]
fn created_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Assembles a version-1 sidecar document.
pub fn sidecar(
    tool: &str,
    pipeline: &str,
    params: Json,
    elapsed_ms: u64,
    obs_delta: &TelemetryState,
) -> Json {
    let counters = obs_delta
        .counters
        .iter()
        .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
        .collect();
    let spans = obs_delta
        .spans
        .iter()
        .map(|(k, s)| (k.clone(), Json::Num(s.count as f64)))
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Num(SCHEMA as f64)),
        ("tool".into(), Json::Str(tool.into())),
        ("git_rev".into(), git_rev().map(Json::Str).unwrap_or(Json::Null)),
        ("pipeline".into(), Json::Str(pipeline.into())),
        ("params".into(), params),
        ("elapsed_ms".into(), Json::Num(elapsed_ms as f64)),
        ("created_unix_ms".into(), Json::Num(created_unix_ms() as f64)),
        ("counters".into(), Json::Obj(counters)),
        ("spans".into(), Json::Obj(spans)),
    ])
}

/// Writes `artifact`, an encoded result document, as one line, and its
/// sidecar `<artifact>.provenance.json` next to it.
///
/// # Errors
///
/// Propagates filesystem failures (missing directory, permissions).
pub fn write_artifact(path: &Path, artifact: &str, sidecar_doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::write(path, format!("{artifact}\n"))?;
    let sidecar_path = sidecar_path_for(path);
    std::fs::write(&sidecar_path, format!("{sidecar_doc}\n"))?;
    Ok(sidecar_path)
}

/// The sidecar path for an artifact: `<artifact>.provenance.json`.
pub fn sidecar_path_for(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".provenance.json");
    artifact.with_file_name(name)
}

/// A filesystem-safe artifact stem for a request id (alphanumerics,
/// `-`, `_` and `.` kept; everything else mapped to `-`).
///
/// Sanitization is lossy — `"a/b"` and `"a-b"` map to the same safe
/// text — so whenever it changes the id, a short content hash of the
/// *original* id is appended: distinct ids always get distinct stems
/// and never overwrite each other's artifacts. Ids that are already
/// safe keep their plain stem.
pub fn artifact_stem(pipeline: &str, id: &Json) -> String {
    let raw = match id {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    };
    let safe: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect();
    if safe == raw {
        format!("{pipeline}-{safe}")
    } else {
        let tag = locap_store::StoreKey::of_bytes(raw.as_bytes()).short_hex();
        format!("{pipeline}-{safe}-{tag}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_has_the_documented_fields() {
        let reg = locap_obs::Registry::new();
        reg.counter("x/hits").add(3);
        reg.record_span_ns("total", 100);
        let delta = reg.snapshot().delta_since(&TelemetryState::default());
        let doc = sidecar("locap", "census", Json::Obj(vec![]), 7, &delta);
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("locap"));
        assert_eq!(doc.get("elapsed_ms").and_then(Json::as_u64), Some(7));
        let counters = doc.get("counters").expect("counters present");
        assert_eq!(counters.get("x/hits").and_then(Json::as_u64), Some(3));
        let spans = doc.get("spans").expect("spans present");
        assert_eq!(spans.get("total").and_then(Json::as_u64), Some(1));
        assert!(doc.get("created_unix_ms").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn artifact_stems_are_filesystem_safe() {
        assert_eq!(artifact_stem("census", &Json::Num(7.0)), "census-7");
        assert_eq!(artifact_stem("ramsey", &Json::Bool(true)), "ramsey-true");
        // a sanitized id carries a disambiguating hash of the original
        let sanitized = artifact_stem("census", &Json::Str("a/b c".into()));
        assert!(sanitized.starts_with("census-a-b-c-"), "got {sanitized}");
        assert!(sanitized.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)));
    }

    #[test]
    fn distinct_ids_never_collide_on_one_stem() {
        // "a/b" sanitizes onto the already-safe "a-b": the hash suffix
        // keeps them apart (the pre-fix behaviour overwrote artifacts)
        let slashed = artifact_stem("census", &Json::Str("a/b".into()));
        let dashed = artifact_stem("census", &Json::Str("a-b".into()));
        assert_ne!(slashed, dashed);
        assert_eq!(dashed, "census-a-b", "safe ids keep their plain stem");
        // two distinct ids that sanitize identically also stay apart
        let spaced = artifact_stem("census", &Json::Str("a b".into()));
        assert_ne!(slashed, spaced);
        // equal ids still map to equal stems (artifact overwrite on
        // re-request is intentional)
        assert_eq!(slashed, artifact_stem("census", &Json::Str("a/b".into())));
    }

    #[test]
    fn sidecar_path_appends_suffix() {
        let p = sidecar_path_for(Path::new("/tmp/out/census-7.json"));
        assert_eq!(p, Path::new("/tmp/out/census-7.json.provenance.json"));
    }

    #[test]
    fn git_rev_resolves_in_this_checkout() {
        // The repo under test is a git checkout; LOCAP_GIT_REV also works.
        std::env::set_var("LOCAP_GIT_REV", "deadbeef");
        assert_eq!(git_rev().as_deref(), Some("deadbeef"));
        std::env::remove_var("LOCAP_GIT_REV");
    }
}
