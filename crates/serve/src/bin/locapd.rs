//! `locapd` — the locap batch job daemon.
//!
//! ```text
//! locapd [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!        [--max-frame-bytes N] [--artifact-dir DIR] [--store-dir DIR]
//!        [--default-deadline-ms N] [--max-deadline-ms N] [--no-shutdown]
//! ```
//!
//! Binds a TCP listener (default `127.0.0.1:7878`; `:0` picks an
//! ephemeral port), announces `locapd listening on <addr>` on stderr,
//! and serves newline-delimited JSON requests until a `shutdown` op
//! arrives. With `--artifact-dir` every successful pipeline result is
//! written there as `<pipeline>-<id>.json` plus a provenance sidecar.
//! With `--store-dir` results are served from (and written back to) the
//! content-addressed result store rooted there, so the connection
//! thread answers repeat requests from disk (`store/warm_hit` in
//! `stats`), without queueing or recomputing them. The `stats` op answers
//! with the whole metrics registry; `locap watch` polls it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use std::path::PathBuf;
use std::time::Duration;

use locap_serve::daemon::{Daemon, DaemonConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("locapd: {msg}");
            eprintln!(
                "usage: locapd [--addr HOST:PORT] [--workers N] [--queue-depth N] \
                 [--max-frame-bytes N] [--artifact-dir DIR] [--store-dir DIR] \
                 [--default-deadline-ms N] [--max-deadline-ms N] [--no-shutdown]"
            );
            std::process::exit(2);
        }
    }
}

fn cli(args: &[String]) -> Result<i32, String> {
    let mut addr = String::from("127.0.0.1:7878");
    let mut config = DaemonConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--no-shutdown" {
            config.allow_shutdown = false;
            continue;
        }
        let mut value = || it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"));
        let parse_usize = |key: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("--{key} expects a non-negative integer"))
        };
        match flag.as_str() {
            "--addr" => addr = value()?,
            "--workers" => {
                config.workers = parse_usize("workers", value()?)?.max(1);
            }
            "--queue-depth" => {
                config.queue_depth = parse_usize("queue-depth", value()?)?.max(1);
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes = parse_usize("max-frame-bytes", value()?)?.max(2);
            }
            "--artifact-dir" => config.artifact_dir = Some(PathBuf::from(value()?)),
            "--store-dir" => config.store_dir = Some(PathBuf::from(value()?)),
            "--default-deadline-ms" => {
                let ms = parse_usize("default-deadline-ms", value()?)? as u64;
                config.default_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-deadline-ms" => {
                let ms = parse_usize("max-deadline-ms", value()?)? as u64;
                config.max_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    if let Some(dir) = &config.artifact_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create artifact dir {}: {e}", dir.display()))?;
    }

    let mut exit = 0;
    locap_bench::run("locapd", "LOCAPD", "batch job daemon", || {
        match Daemon::bind(addr.as_str(), config.clone()) {
            Ok(daemon) => {
                // Stderr, not stdout: keeps the OBS_JSON single-line
                // stdout contract while letting harnesses learn the
                // bound (possibly ephemeral) port.
                eprintln!("locapd listening on {}", daemon.local_addr());
                if let Err(e) = daemon.run() {
                    eprintln!("locapd: serve loop failed: {e}");
                    exit = 1;
                }
            }
            Err(e) => {
                eprintln!("locapd: cannot bind {addr}: {e}");
                exit = 1;
            }
        }
    });
    Ok(exit)
}
