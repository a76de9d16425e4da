//! `loadbench` — a closed-loop benchmark of `locapd`.
//!
//! ```text
//! loadbench --workload <census-cold|paper-sweep|warm-replay> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Each run starts a fresh `locapd` (default flags plus `--addr
//! 127.0.0.1:0` and, for the store workloads, `--store-dir`), opens its
//! connections during set-up and replays a request sequence generated
//! from the seed in a closed loop, checking every result against an
//! in-process replay of the same frames. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced in-process replay plus the daemon's
//! counter deltas. See `loadbench/README.md`.

mod daemon;
mod replay;
mod seq;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use locap_obs::json::Json;
use locap_store::StoreHandle;

use crate::daemon::{counter_delta, fresh_dir, latency_delta, Conn, Daemon};
use crate::replay::{replay, result_hash, self_times, Layer, Tracer};
use crate::seq::{ratio, Sequence, Workload};

/// End-to-end metrics printed with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics printed with `--trace 1`: (name, unit). Times are
/// self time per request sent; ratios are 0 where the workload never
/// reaches the layer.
const PER_LAYER: [(&str, &str); 26] = [
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.wire_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.writes_per_req", "count"),
    ("lifts.census_ms", "ms"),
    ("lifts.states_per_req", "count"),
    ("lifts.tree_hit_ratio", "ratio"),
    ("lifts.parallel_share", "ratio"),
    ("graph.build_us", "us"),
    ("graph.intern_hit_ratio", "ratio"),
    ("core.homogeneous_ms", "ms"),
    ("core.generator_attempts_per_req", "count"),
    ("core.transfer_ms", "ms"),
    ("core.hom_lift_ms", "ms"),
    ("core.eds_lower_ms", "ms"),
    ("core.ramsey_ms", "ms"),
    ("core.oi_to_po_ms", "ms"),
    ("models.run_ms", "ms"),
    ("models.evals_per_req", "count"),
    ("models.memo_hit_ratio", "ratio"),
    ("problems.opt_ms", "ms"),
    ("unaccounted_ms", "ms"),
];

/// Layer spans behind each traced time metric, with the unit scale.
const TRACED: [(Layer, &str, f64); 15] = [
    (Layer::ServeParse, "serve.parse_us", 1e-3),
    (Layer::ServeEncode, "serve.encode_us", 1e-3),
    (Layer::StoreGet, "store.get_us", 1e-3),
    (Layer::StorePut, "store.put_us", 1e-3),
    (Layer::LiftsCensus, "lifts.census_ms", 1e-6),
    (Layer::GraphBuild, "graph.build_us", 1e-3),
    (Layer::CoreHomogeneous, "core.homogeneous_ms", 1e-6),
    (Layer::CoreTransfer, "core.transfer_ms", 1e-6),
    (Layer::CoreHomLift, "core.hom_lift_ms", 1e-6),
    (Layer::CoreEdsLower, "core.eds_lower_ms", 1e-6),
    (Layer::CoreRamsey, "core.ramsey_ms", 1e-6),
    (Layer::CoreOiToPo, "core.oi_to_po_ms", 1e-6),
    (Layer::ModelsRun, "models.run_ms", 1e-6),
    (Layer::ProblemsOpt, "problems.opt_ms", 1e-6),
    (Layer::Request, "unaccounted_ms", 1e-6),
];

/// Counter families whose window deltas must repeat exactly for a seed.
const EXACT_COUNTERS: [&str; 7] = [
    "store/",
    "view_cache/",
    "intern/",
    "engine/",
    "homogeneous/generator_attempts",
    "budget/truncated/",
    "serve/errors/",
];

/// Daemon starts per run; `setup_s` is their median (the last one is
/// the measured daemon).
const SETUP_STARTS: usize = 9;

/// A start counts as slow when its first ping waited out the accept
/// loop's 25-ms poll sleep.
const SLOW_START: Duration = Duration::from_millis(20);

/// No request is sent after this much run time, so a run always ends
/// within the 180 s a benchmark run may take.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|_| format!("{k} expects an integer"));
    for k in map.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(k) {
            return Err(format!("unknown flag {k}"));
        }
    }
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!("unknown workload {name:?}; expected one of {:?}", Workload::NAMES)
    })?;
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds: num("--seconds")?.max(1), trace })
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!(
                "usage: loadbench --workload <{}> --seed N --seconds S --trace <0|1>",
                Workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, started) {
        eprintln!("loadbench: {e}");
        std::process::exit(1);
    }
}

/// Where the binaries live and where work files go: both inside the
/// cargo target directory the run script built into.
struct Paths {
    locapd: PathBuf,
    work: PathBuf,
}

fn paths() -> Result<Paths, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.parent().ok_or("no executable directory")?;
    let locapd = bin.join("locapd");
    if !locapd.is_file() {
        return Err(format!("{} not found; run through loadbench/run.sh", locapd.display()));
    }
    let work = bin.parent().ok_or("no target directory")?.join("loadbench-work");
    Ok(Paths { locapd, work })
}

/// Outcome tallies of one phase.
#[derive(Default)]
struct Tally {
    ok: usize,
    failed: BTreeMap<String, usize>,
    /// `(completion time since the window opened, latency)` in ns, one
    /// per `ok` response that matched the reference.
    done: Vec<(u64, u64)>,
}

impl Tally {
    fn fail(&mut self, kind: impl Into<String>) {
        *self.failed.entry(kind.into()).or_insert(0) += 1;
    }

    fn failures(&self) -> usize {
        self.failed.values().sum()
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        for (k, v) in other.failed {
            *self.failed.entry(k).or_insert(0) += v;
        }
        self.done.extend(other.done);
    }
}

/// What the measured daemon reported over its window.
struct Window {
    tally: Tally,
    wall: Duration,
    cpu_s: f64,
    rss_mb: f64,
    counters: BTreeMap<String, u64>,
    queue_wait: (u64, u64),
    lived: Duration,
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let paths = paths()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let seq = Sequence::generate(args.workload, args.seed, args.seconds);
    let frames: Vec<String> = seq.requests.iter().enumerate().map(|(i, r)| r.frame(i)).collect();
    let conns = args.workload.connections(nproc);

    // work stores: leftovers of an interrupted run are removed first
    // (not timed), this run's are removed at the end
    let run_dir = fresh_dir(&paths.work, "stores")?;

    println!(
        "loadbench: workload={} seed={} seconds={} requests={} distinct={} connections={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        seq.len(),
        seq.requests.len(),
        conns,
        nproc
    );

    // reference results: every distinct frame once, in-process, no store
    let all: Vec<u32> = (0..frames.len() as u32).collect();
    let reference = replay(&frames, &all, None, &Tracer::new());
    let mut ref_failed = 0;
    for (i, r) in reference.iter().enumerate() {
        if let Err(kind) = r {
            ref_failed += 1;
            println!("reference failed: {kind}: {}", frames[i]);
        }
    }
    let expected: Vec<Option<u64>> = reference.iter().map(|r| r.as_ref().ok().copied()).collect();

    // Only warm-replay runs with a store, primed in a daemon of its own.
    // Store files must stay inside the checkout; on a disk-backed one,
    // census-cold's store writes made back-to-back runs drift (README).
    let mut priming = Duration::ZERO;
    let mut priming_failed = Tally::default();
    let primed = if args.workload == Workload::WarmReplay {
        let dir = fresh_dir(&run_dir, "primed")?;
        let t = Instant::now();
        let d = Daemon::spawn(&paths.locapd, Some(&dir))?;
        let (mut c, _) = d.connect(1)?;
        let mut conn = c.pop().ok_or("no priming connection")?;
        for (i, f) in frames.iter().enumerate() {
            send_one(&mut conn, i, &format!("{f}\n"), &expected, &mut priming_failed, d.addr, t);
        }
        d.shutdown(conn)?;
        priming = t.elapsed();
        if priming_failed.failures() > 0 {
            println!("priming failures: {:?}", priming_failed.failed);
        }
        Some(dir)
    } else {
        None
    };

    // set-up: SETUP_STARTS daemon starts, the last one measured
    let mut ready = Vec::with_capacity(SETUP_STARTS);
    for _ in 0..SETUP_STARTS - 1 {
        let d = Daemon::spawn(&paths.locapd, primed.as_deref())?;
        let (mut c, t) = d.connect(conns)?;
        ready.push(t);
        d.shutdown(c.swap_remove(0))?;
    }
    let d = Daemon::spawn(&paths.locapd, primed.as_deref())?;
    let (conn_list, t) = d.connect(conns)?;
    ready.push(t);
    let window = measure(d, conn_list, &seq, &frames, &expected, started)?;

    let mut tally = window.tally;
    let attempted = seq.len();
    let failed = tally.failures();
    let wall_s = window.wall.as_secs_f64();
    tally.done.sort_unstable();
    let mut sorted: Vec<u64> = tally.done.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    let sliced = slices(&tally.done);
    let mut ready_sorted = ready.clone();
    ready_sorted.sort();
    let setup_s = priming.as_secs_f64() + ready_sorted[ready_sorted.len() / 2].as_secs_f64();
    let p50 = quantile(&sorted, 0.50, 10);
    let p99 = sliced.iter().map(|s| s.1).collect::<Option<Vec<u64>>>().and_then(lower_third);
    let mean_latency_ms = ratio(sorted.iter().sum::<u64>() as f64, sorted.len() as f64) * 1e-6;
    let mut correct =
        failed == 0 && ref_failed == 0 && priming_failed.failures() == 0 && p99.is_some();

    let slow = ready.iter().filter(|t| **t >= SLOW_START).count();
    println!(
        "setup: {} starts, ready after [{}] ms ({} fast, {} waited out the accept poll); priming {:.3} s",
        ready.len(),
        ready.iter().map(|t| format!("{:.2}", t.as_secs_f64() * 1e3)).collect::<Vec<_>>().join(", "),
        ready.len() - slow,
        slow,
        priming.as_secs_f64()
    );
    println!(
        "window: {:.3} s; the measured daemon lived {:.2} s (its default 30-s deadline counts from daemon start)",
        wall_s,
        window.lived.as_secs_f64()
    );

    let mut e2e: Vec<(&str, f64)> = vec![
        ("setup_s", setup_s),
        ("throughput_rps", median(sliced.iter().map(|s| s.0).collect()).unwrap_or(0.0)),
        ("cpu_ms_per_req", ratio(window.cpu_s * 1e3, tally.ok as f64)),
        ("rss_peak_mb", window.rss_mb),
    ];
    if let Some(v) = p50 {
        e2e.insert(2, ("latency_p50_ms", v as f64 * 1e-6));
    }
    if let Some(v) = p99 {
        e2e.insert(3, ("latency_p99_ms", v as f64 * 1e-6));
    }
    for (name, v) in &e2e {
        println!("{name:<24} {v:>14.6} {}", unit_of(name));
    }
    println!(
        "latency samples: {} ok requests in {} slices of {}; whole window: {:.3} req/s, p99 {}",
        sorted.len(),
        sliced.len(),
        sorted.len() / sliced.len().max(1),
        tally.ok as f64 / wall_s,
        quantile(&sorted, 0.99, 10).map_or("not reported (fewer than 10 beyond it)".into(), |v| {
            format!(
                "{:.6} ms with {} beyond",
                v as f64 * 1e-6,
                sorted.iter().filter(|&&x| x > v).count()
            )
        })
    );
    println!(
        "slices (req/s, p99 ms): {}",
        sliced
            .iter()
            .map(|(r, p)| format!(
                "({r:.1}, {})",
                p.map_or("-".into(), |v| format!("{:.4}", v as f64 * 1e-6))
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{:<24} {:>14.6} ratio", "error_frac", ratio(failed as f64, attempted as f64));
    if tally.failed.is_empty() {
        println!("failures: none of {attempted}");
    } else {
        let list: Vec<String> = tally.failed.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("failures: {} of {attempted}: {}", failed, list.join(" "));
    }

    let counts: BTreeMap<String, u64> = window
        .counters
        .iter()
        .filter(|(k, _)| EXACT_COUNTERS.iter().any(|p| k.starts_with(p)))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    check_counts(&paths.work, args, &counts)?;

    let metrics: Vec<(&str, f64)> = if args.trace {
        let handle = match &primed {
            Some(dir) => Some(StoreHandle::open(dir).map_err(|e| e.to_string())?),
            None => None,
        };
        let tracer = Tracer::new();
        let traced = replay(&frames, &seq.order, handle.as_ref(), &tracer);
        let mismatched = traced
            .iter()
            .zip(&seq.order)
            .filter(|(got, &i)| got.as_ref().ok() != expected[i as usize].as_ref())
            .count();
        if mismatched > 0 {
            println!("traced replay: {mismatched} results differ from the reference");
            correct = false;
        }
        let spans = tracer.into_spans();
        write_spans(&paths.work.join(format!("spans-{}.tsv", args.workload.name())), &spans)?;
        per_layer(&seq, &spans, &window.counters, window.queue_wait, mean_latency_ms)
    } else {
        e2e
    };

    std::fs::remove_dir_all(&run_dir).ok();

    let fields = metrics
        .iter()
        .map(|(name, v)| {
            if !v.is_finite() {
                correct = false;
            }
            let value = if v.is_finite() { *v } else { 0.0 };
            let unit = unit_of(name);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{line}");
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Sends frame `idx` and classifies the response against the reference;
/// only `ok` responses that match it record a latency.
fn send_one(
    conn: &mut Conn,
    idx: usize,
    frame: &str,
    expected: &[Option<u64>],
    tally: &mut Tally,
    addr: std::net::SocketAddr,
    window: Instant,
) {
    let t = Instant::now();
    if let Err(e) = conn.call(frame.as_bytes()) {
        let kind = match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => "timeout",
            _ => "transport",
        };
        tally.fail(kind);
        // a timed-out connection may still deliver the late response:
        // continue on a new one
        if let Ok(mut c) = Conn::open(addr) {
            if c.op("ping").is_ok() {
                *conn = c;
            }
        }
        return;
    }
    let ns = t.elapsed().as_nanos() as u64;
    let done = window.elapsed().as_nanos() as u64;
    let line = &conn.line;
    let prefix = format!("{{\"id\":{idx},\"ok\":");
    if !line.starts_with(prefix.as_bytes()) {
        tally.fail("mismatch/id");
        return;
    }
    if line[prefix.len()..].starts_with(b"true,") {
        match (result_hash(line), expected[idx]) {
            (Some(h), Some(want)) if h == want => {
                tally.ok += 1;
                tally.done.push((done, ns));
            }
            _ => tally.fail("mismatch/result"),
        }
    } else {
        let kind = std::str::from_utf8(line)
            .ok()
            .and_then(|text| Json::parse(text.trim_end()).ok())
            .and_then(|doc| doc.get("error")?.get("kind")?.as_str().map(str::to_string))
            .unwrap_or_else(|| "malformed".into());
        tally.fail(kind);
    }
}

/// The measured window: `stats` before, the closed loop on every
/// connection, CPU and `stats` after, peak RSS, then shutdown.
fn measure(
    d: Daemon,
    mut conns: Vec<Conn>,
    seq: &Sequence,
    frames: &[String],
    expected: &[Option<u64>],
    started: Instant,
) -> Result<Window, String> {
    let wire: Vec<String> = frames.iter().map(|f| format!("{f}\n")).collect();
    let before = conns[0].stats()?;
    let cpu0 = d.cpu_seconds()?;
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Tally::default());
    let t0 = Instant::now();
    let addr = d.addr;
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, merged, wire) = (&next, &merged, &wire);
            s.spawn(move || {
                let mut tally = Tally { done: Vec::with_capacity(seq.len()), ..Tally::default() };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= seq.len() {
                        break;
                    }
                    if started.elapsed() > RUN_DEADLINE {
                        tally.fail("aborted");
                        continue;
                    }
                    let idx = seq.order[i] as usize;
                    send_one(conn, idx, &wire[idx], expected, &mut tally, addr, t0);
                }
                merged.lock().expect("a client thread panicked").merge(tally);
            });
        }
    });
    let wall = t0.elapsed();
    let cpu1 = d.cpu_seconds()?;
    let after = conns[0].stats()?;
    let rss_mb = d.rss_peak_mb()?;
    let lived = d.spawned.elapsed();
    let first = conns.swap_remove(0);
    drop(conns);
    d.shutdown(first)?;
    let tally = merged.into_inner().map_err(|_| "a client thread panicked")?;
    let queue_wait = latency_delta(&before, &after, |k| {
        k.starts_with("serve/request/") && k.ends_with("/queue_wait")
    });
    Ok(Window {
        tally,
        wall,
        cpu_s: cpu1 - cpu0,
        rss_mb,
        counters: counter_delta(&before, &after),
        queue_wait,
        lived,
    })
}

/// Largest number of window slices. Throughput is the median over
/// equal-count slices of at least 1,000 ok responses and p99 the lower
/// third of the slices' p99s (each has ten samples beyond it): slow
/// stretches of a shared host last seconds and triple the tail of
/// sub-millisecond requests while they last, whereas a tail regression
/// of the program shows in every slice.
const MAX_SLICES: usize = 9;

/// Splits ok completions (sorted by completion time) into an odd number
/// of consecutive equal-count slices; returns each slice's throughput and
/// p99 latency.
fn slices(done: &[(u64, u64)]) -> Vec<(f64, Option<u64>)> {
    let k = (done.len() / 1000).clamp(1, MAX_SLICES);
    let k = if k % 2 == 0 { k - 1 } else { k };
    let mut start = 0u64;
    (0..k)
        .map(|i| {
            let part = &done[i * done.len() / k..(i + 1) * done.len() / k];
            let end = part.last().map_or(start, |&(t, _)| t);
            let rate = ratio(part.len() as f64, (end - start) as f64 * 1e-9);
            start = end;
            let mut lat: Vec<u64> = part.iter().map(|&(_, ns)| ns).collect();
            lat.sort_unstable();
            (rate, quantile(&lat, 0.99, 10))
        })
        .collect()
}

/// The middle value of an odd-length list (upper middle otherwise).
fn median<T: PartialOrd + Copy>(mut xs: Vec<T>) -> Option<T> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs.get(xs.len() / 2).copied()
}

/// The value a third of the way up a list: the 3rd smallest of nine, the
/// 2nd of five, the smallest of three or one.
fn lower_third(mut xs: Vec<u64>) -> Option<u64> {
    xs.sort_unstable();
    xs.get(xs.len().saturating_sub(1) / 3).copied()
}

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than `min_beyond` samples lie above its rank.
fn quantile(sorted: &[u64], q: f64, min_beyond: usize) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// The per-layer metrics: traced self times per request sent, the
/// daemon's counter ratios over the window, and the sequence's parallel
/// share.
fn per_layer(
    seq: &Sequence,
    spans: &[replay::Span],
    counters: &BTreeMap<String, u64>,
    queue_wait: (u64, u64),
    mean_latency_ms: f64,
) -> Vec<(&'static str, f64)> {
    let n = seq.len() as f64;
    let mut self_ns: BTreeMap<Layer, u64> = BTreeMap::new();
    for (layer, ns) in self_times(spans) {
        *self_ns.entry(layer).or_insert(0) += ns;
    }
    let total_ns: u64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Request)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let traced_ms = total_ns as f64 * 1e-6 / n;
    println!(
        "traced replay: {:.6} ms per request in-process vs {:.6} ms mean client latency; {} spans",
        traced_ms,
        mean_latency_ms,
        spans.len()
    );
    let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let sum = |suffix: &str| {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with("engine/") && k.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum::<f64>()
    };
    let census = seq.sent().filter(|r| r.pipeline == "census").count() as f64;
    let constructions = seq.sent().filter(|r| r.constructs()).count() as f64;
    let mut out: BTreeMap<&str, f64> = TRACED
        .iter()
        .map(|&(layer, name, scale)| {
            (name, self_ns.get(&layer).copied().unwrap_or(0) as f64 * scale / n)
        })
        .collect();
    out.insert("serve.queue_wait_us", ratio(queue_wait.1 as f64 * 1e-3, queue_wait.0 as f64));
    out.insert("serve.wire_ms", mean_latency_ms - traced_ms);
    out.insert(
        "store.hit_ratio",
        ratio(c("store/warm_hit"), c("store/warm_hit") + c("store/cold_miss") + c("store/corrupt")),
    );
    out.insert("store.writes_per_req", c("store/write") / n);
    out.insert("lifts.states_per_req", ratio(c("view_cache/states"), census));
    out.insert(
        "lifts.tree_hit_ratio",
        ratio(c("view_cache/tree_hits"), c("view_cache/tree_hits") + c("view_cache/tree_misses")),
    );
    out.insert("lifts.parallel_share", seq.parallel_share());
    out.insert(
        "graph.intern_hit_ratio",
        ratio(c("intern/hits"), c("intern/hits") + c("intern/misses")),
    );
    out.insert(
        "core.generator_attempts_per_req",
        ratio(c("homogeneous/generator_attempts"), constructions),
    );
    out.insert("models.evals_per_req", sum("/evals") / n);
    out.insert("models.memo_hit_ratio", ratio(sum("/hits"), sum("/hits") + sum("/evals")));
    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, out.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Writes the traced run's spans, one per line: request, layer, parent
/// span index (-1 for a request's root), start and end in ns.
fn write_spans(path: &Path, spans: &[replay::Span]) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "req\tlayer\tparent\tstart_ns\tend_ns")?;
        for s in spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(out, "{}\t{:?}\t{parent}\t{}\t{}", s.req, s.layer, s.start_ns, s.end_ns)?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

/// Records the first run's exact counter deltas for this (workload, seed,
/// seconds) and reports any later run whose deltas differ.
fn check_counts(work: &Path, args: &Args, counts: &BTreeMap<String, u64>) -> Result<(), String> {
    let dir = work.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-{}-{}.json", args.workload.name(), args.seed, args.seconds));
    let now = Json::Obj(counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect());
    let Ok(text) = std::fs::read_to_string(&path) else {
        std::fs::write(&path, now.to_string()).map_err(|e| e.to_string())?;
        println!("counts: {} exact counters recorded as this seed's first run", counts.len());
        return Ok(());
    };
    let first = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let first: BTreeMap<String, u64> = first
        .as_object()
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
        .collect();
    let keys: std::collections::BTreeSet<&String> = first.keys().chain(counts.keys()).collect();
    let drift: Vec<String> = keys
        .into_iter()
        .filter(|k| first.get(*k) != counts.get(*k))
        .map(|k| {
            format!(
                "{k}: first {} now {}",
                first.get(k).copied().unwrap_or(0),
                counts.get(k).copied().unwrap_or(0)
            )
        })
        .collect();
    if drift.is_empty() {
        println!("counts: {} exact counters repeat the first run of this seed", counts.len());
    } else {
        println!("counts: DRIFT from the first run of this seed: {}", drift.join("; "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_refuses_a_percentile_without_ten_samples_beyond() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&xs, 0.99, 10), Some(990));
        assert_eq!(quantile(&xs, 0.50, 10), Some(500));
        assert_eq!(quantile(&xs[..999], 0.99, 10), None, "9 beyond");
        assert_eq!(quantile(&[], 0.5, 0), None);
    }

    #[test]
    fn slices_are_odd_and_each_has_a_p99() {
        let done: Vec<(u64, u64)> = (0..4500u64).map(|i| (i * 1_000_000, 1000 + i % 100)).collect();
        let s = slices(&done);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|(rate, p99)| (*rate - 1000.0).abs() < 1.0 && p99.is_some()));
        assert_eq!(slices(&done[..999]).len(), 1);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(lower_third(vec![9, 1, 8, 2, 7, 3, 6, 4, 5]), Some(3));
        assert_eq!(lower_third(vec![5, 1, 4]), Some(1));
        assert_eq!(lower_third(vec![]), None);
    }

    #[test]
    fn metric_names_are_well_formed_and_declared_in_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let declared = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        for (section, printed) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = declared(section);
            let printed: Vec<(String, String)> =
                printed.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(printed, declared, "{section} in BENCHMARK.json");
            for (name, _) in &printed {
                assert!(
                    !name.is_empty()
                        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                    "{name}"
                );
            }
        }
        for w in doc.get("workloads").and_then(Json::as_array).expect("workloads") {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            assert!(Workload::parse(name).is_some(), "{name} is a workload");
        }
    }

    #[test]
    fn every_traced_metric_is_a_per_layer_metric() {
        for (_, name, _) in TRACED {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
