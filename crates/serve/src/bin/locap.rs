//! `locap` — one CLI over every core pipeline.
//!
//! ```text
//! locap <pipeline> [--<param> <value>]… [--deadline-ms N] [--max-rounds N]
//!                  [--cache-cap N] [--out PATH]
//! locap pipelines
//! locap replay <script.jsonl> --addr HOST:PORT [--expect-ok]
//! locap watch --addr HOST:PORT [--frames N] [--tsv] [--filter PREFIX]
//! ```
//!
//! Pipeline subcommands print the result as deterministic `key: value`
//! lines (locked by golden snapshots) or, under `OBS_JSON=1`, the
//! standard single-line metrics snapshot. `--out` writes the result as
//! a JSON artifact plus its `*.provenance.json` sidecar. `replay` is a
//! thin client for a running `locapd`: it sends a recorded
//! newline-delimited request script and prints one response line per
//! request. `watch` polls a daemon's `stats` op once a second and
//! renders each poll as a human table (or TSV rows with `--tsv`).

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

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use locap_bench::hprintln;
use locap_core::request::{PipelineRequest, PIPELINES};
use locap_graph::budget::{MonotonicClock, StdClock};
use locap_obs as obs;
use locap_obs::json::Json;
use locap_serve::protocol::{core_error_kind, BudgetSpec, ProtocolError};
use locap_serve::provenance;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("locap: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> String {
    format!(
        "usage: locap <pipeline> [--<param> <value>]... [--deadline-ms N] [--max-rounds N] [--cache-cap N] [--out PATH]\n\
         \x20      locap pipelines\n\
         \x20      locap replay <script.jsonl> --addr HOST:PORT [--expect-ok]\n\
         \x20      locap watch --addr HOST:PORT [--frames N] [--tsv] [--filter PREFIX]\n\
         pipelines: {}",
        PIPELINES.join(", ")
    )
}

fn cli(args: &[String]) -> Result<i32, String> {
    let Some(command) = args.first() else {
        return Err("a command is required".into());
    };
    let rest = args.get(1..).unwrap_or_default();
    match command.as_str() {
        "pipelines" => {
            for p in PIPELINES {
                println!("{p}");
            }
            Ok(0)
        }
        "replay" => replay(rest),
        "watch" => watch(rest),
        name if PIPELINES.contains(&name) => run_pipeline(name, rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Splits `--flag value` pairs into pipeline params, budget fields and
/// the output path.
fn parse_flags(args: &[String]) -> Result<(Json, BudgetSpec, Option<PathBuf>), String> {
    let mut params: Vec<(String, Json)> = Vec::new();
    let mut budget = BudgetSpec::default();
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?} (flags are --key value)"))?;
        let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
        let parse_u64 = |v: &str| {
            v.parse::<u64>().map_err(|_| format!("--{key} expects a non-negative integer"))
        };
        match key {
            "deadline-ms" => budget.deadline_ms = Some(parse_u64(value)?),
            "max-rounds" => budget.max_rounds = Some(parse_u64(value)?),
            "cache-cap" => budget.cache_cap = Some(parse_u64(value)?),
            "out" => out = Some(PathBuf::from(value)),
            other => {
                let name = other.replace('-', "_");
                let json = match value.parse::<u64>() {
                    Ok(n) => Json::Num(n as f64),
                    Err(_) => Json::Str(value.clone()),
                };
                params.push((name, json));
            }
        }
    }
    Ok((Json::Obj(params), budget, out))
}

fn run_pipeline(name: &str, args: &[String]) -> Result<i32, String> {
    let (params, budget, out) = parse_flags(args)?;
    // a well-formed command line whose parameters the pipeline rejects is
    // a typed failure (as `locapd` answers it), not a usage error
    let request = match PipelineRequest::parse(name, &params) {
        Ok(request) => request,
        Err(e) => {
            let e = ProtocolError::Request(e);
            eprintln!("locap: {name} rejected [{}]: {e}", e.kind());
            return Ok(1);
        }
    };
    let clock: Arc<dyn MonotonicClock> = Arc::new(StdClock::new());
    let mut exit = 0;
    locap_bench::run("locap", "LOCAP", name, || {
        let run_budget = budget.realize(&clock, None, None);
        let before = out.as_ref().map(|_| obs::snapshot());
        let (outcome, elapsed) = locap_bench::timed(|| request.run(&run_budget));
        match outcome {
            Ok(result) => {
                print_result(&result);
                if let (Some(path), Some(before)) = (&out, &before) {
                    let delta = obs::snapshot().delta_since(before);
                    let sidecar = provenance::sidecar(
                        "locap",
                        name,
                        request.params_json(),
                        elapsed.as_millis() as u64,
                        &delta,
                    );
                    match provenance::write_artifact(path, &result.to_string(), &sidecar) {
                        Ok(sidecar_path) => hprintln!(
                            "artifact written to {} (+ {})",
                            path.display(),
                            sidecar_path.display()
                        ),
                        Err(e) => {
                            eprintln!("locap: failed to write {}: {e}", path.display());
                            exit = 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("locap: {name} failed [{}]: {e}", core_error_kind(&e));
                exit = 1;
            }
        }
    });
    Ok(exit)
}

/// Renders a result object as deterministic `key: value` lines (nested
/// values in their compact JSON form). No timings: the output is locked
/// byte-for-byte by the golden tests.
fn print_result(result: &Json) {
    match result {
        Json::Obj(fields) => {
            for (k, v) in fields {
                hprintln!("{k}: {v}");
            }
        }
        other => hprintln!("{other}"),
    }
}

fn watch(args: &[String]) -> Result<i32, String> {
    let mut opts = locap_serve::watch::WatchOptions {
        addr: String::new(),
        frames: None,
        tsv: false,
        filter: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tsv" {
            opts.tsv = true;
            continue;
        }
        let mut value = || it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = value()?,
            "--frames" => {
                let n = value()?
                    .parse::<u64>()
                    .map_err(|_| "--frames expects a non-negative integer".to_string())?;
                opts.frames = Some(n);
            }
            "--filter" => opts.filter = Some(value()?),
            other => return Err(format!("unexpected watch flag {other:?}")),
        }
    }
    if opts.addr.is_empty() {
        return Err("watch needs --addr HOST:PORT".into());
    }
    let mut stdout = std::io::stdout().lock();
    locap_serve::watch::run(&opts, &mut stdout).map_err(|e| format!("watch: {e}"))?;
    Ok(0)
}

fn replay(args: &[String]) -> Result<i32, String> {
    let Some(script) = args.first() else {
        return Err("replay needs a script path".into());
    };
    let mut addr = None;
    let mut expect_ok = false;
    let mut it = args.get(1..).unwrap_or_default().iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                addr = Some(it.next().ok_or_else(|| "--addr needs a value".to_string())?.clone())
            }
            "--expect-ok" => expect_ok = true,
            other => return Err(format!("unexpected replay flag {other:?}")),
        }
    }
    let addr = addr.ok_or_else(|| "replay needs --addr HOST:PORT".to_string())?;
    let body = std::fs::read_to_string(script)
        .map_err(|e| format!("cannot read script {script:?}: {e}"))?;
    let requests: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if requests.is_empty() {
        return Err(format!("script {script:?} holds no requests"));
    }

    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone connection: {e}"))?);
    let mut stream = stream;
    for line in &requests {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
    }
    let mut ok = 0usize;
    let mut err = 0usize;
    for _ in 0..requests.len() {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err(format!(
                "connection closed after {} of {} responses",
                ok + err,
                requests.len()
            ));
        }
        // a response can be "ok" yet carry an artifact_error (the run
        // succeeded but its artifact/sidecar was not written) — clients
        // replaying for artifacts must see that as a failure
        if line.contains("\"ok\":true") && !line.contains("\"artifact_error\":") {
            ok += 1;
        } else {
            err += 1;
        }
        print!("{line}");
    }
    eprintln!("locap replay: {} requests, {ok} ok, {err} err", requests.len());
    Ok(if expect_ok && err > 0 { 1 } else { 0 })
}
