//! `locap watch` — poll a running `locapd`'s `stats` op and render its
//! metrics registry as a human table or TSV rows.
//!
//! The client sends `{"op": "stats"}` once every [`POLL_INTERVAL`] and
//! takes the response's `result.registry` as the daemon's state. It
//! renders one block per poll: counters, gauges, and span/latency
//! histograms with p50/p90/p99 quantiles (within 1/16 of the true
//! value). The first poll shows absolute values only; every later poll
//! adds per-second counter rates over the interval, from
//! [`TelemetryState::delta_since`] of the previous poll. The counters
//! include the watcher's own `stats` requests, one per poll. Rendering
//! is pure ([`render_poll`]) so the formats are unit-testable.
//!
//! The `serve/request/<pipeline>/<phase>` latencies count differently
//! per phase: `parse`, `run` and `serialize` sample every pipeline
//! request, `queue_wait` only those queued for a worker. A warm store
//! hit is answered on the connection thread, so its `run` is the store
//! read and it never waits in the queue.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// Time between two polls; counter rates are per second over it.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1000);

/// Options for a watch session.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Stop after this many polls (`None`: until disconnect).
    pub frames: Option<u64>,
    /// Emit TSV rows instead of the human table.
    pub tsv: bool,
    /// Only show metrics whose name starts with this prefix.
    pub filter: Option<String>,
}

/// Formats nanoseconds with a human unit (ns/µs/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn keep(filter: &Option<String>, name: &str) -> bool {
    match filter {
        Some(prefix) => name.starts_with(prefix.as_str()),
        None => true,
    }
}

/// Renders poll number `seq` of `state`. `delta` is the change since the
/// previous poll and gives each counter that moved its rate; the first
/// poll has none and shows absolute values only.
pub fn render_poll(
    seq: u64,
    state: &TelemetryState,
    delta: Option<&TelemetryState>,
    tsv: bool,
    filter: &Option<String>,
) -> String {
    let mut out = String::new();
    let interval_s = POLL_INTERVAL.as_secs_f64();
    let rate = |name: &str| -> Option<f64> {
        let moved = delta?.counters.get(name).copied()?;
        Some(moved as f64 / interval_s)
    };
    if tsv {
        for (name, v) in &state.counters {
            if !keep(filter, name) {
                continue;
            }
            let rate = rate(name).map_or("-".into(), |r| format!("{r:.1}"));
            out.push_str(&format!("{seq}\tcounter\t{name}\t{v}\t{rate}\n"));
        }
        for (name, v) in &state.gauges {
            if keep(filter, name) {
                out.push_str(&format!("{seq}\tgauge\t{name}\t{v}\t-\n"));
            }
        }
        for (label, section) in [("span", &state.spans), ("latency", &state.latencies)] {
            for (name, h) in section {
                if !keep(filter, name) {
                    continue;
                }
                let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| h.quantile(q));
                out.push_str(&format!(
                    "{seq}\t{label}\t{name}\t{}\t{p50}\t{p90}\t{p99}\n",
                    h.count
                ));
            }
        }
        return out;
    }
    let kind = if delta.is_some() { "delta" } else { "snapshot" };
    out.push_str(&format!("== seq {seq} ({kind}, interval {}ms) ==\n", POLL_INTERVAL.as_millis()));
    for (name, v) in &state.counters {
        if !keep(filter, name) {
            continue;
        }
        match rate(name) {
            Some(r) => out.push_str(&format!("  counter  {name:<44} {v:>12}  {r:>8.1}/s\n")),
            None => out.push_str(&format!("  counter  {name:<44} {v:>12}\n")),
        }
    }
    for (name, v) in &state.gauges {
        if keep(filter, name) {
            out.push_str(&format!("  gauge    {name:<44} {v:>12}\n"));
        }
    }
    for (label, section) in [("span", &state.spans), ("latency", &state.latencies)] {
        for (name, h) in section {
            if !keep(filter, name) {
                continue;
            }
            let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| h.quantile(q));
            out.push_str(&format!(
                "  {label:<8} {name:<44} {:>12}  p50 {} p90 {} p99 {}\n",
                h.count,
                fmt_ns(p50),
                fmt_ns(p90),
                fmt_ns(p99)
            ));
        }
    }
    out
}

/// Sends one `stats` request on `stream` and returns the registry it
/// answers with, or `None` when the daemon closed the connection.
fn poll(
    stream: &mut TcpStream,
    reader: &mut impl BufRead,
) -> Result<Option<TelemetryState>, String> {
    stream
        .write_all(b"{\"op\": \"stats\", \"id\": \"watch\"}\n")
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send stats: {e}"))?;
    let mut line = String::new();
    if reader.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
        return Ok(None);
    }
    let doc = Json::parse(&line).map_err(|e| e.to_string())?;
    let registry = doc
        .get("result")
        .and_then(|r| r.get("registry"))
        .ok_or_else(|| format!("stats rejected: {}", line.trim_end()))?;
    TelemetryState::from_json(registry).map(Some)
}

/// Connects and renders one poll into `out` every [`POLL_INTERVAL`]
/// until `opts.frames` polls were rendered (or the daemon disconnects).
///
/// # Errors
///
/// Connection/read/write failures, or a `stats` response without a
/// well-formed registry, as a displayable message.
pub fn run(opts: &WatchOptions, out: &mut impl Write) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("connect to {}: {e}", opts.addr))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
    let mut prev: Option<TelemetryState> = None;
    for seq in 0u64.. {
        if opts.frames.is_some_and(|n| seq >= n) {
            break;
        }
        if seq > 0 {
            std::thread::sleep(POLL_INTERVAL);
        }
        let Some(state) = poll(&mut stream, &mut reader)? else { break };
        let delta = prev.as_ref().map(|prev| state.delta_since(prev));
        out.write_all(render_poll(seq, &state, delta.as_ref(), opts.tsv, &opts.filter).as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write: {e}"))?;
        prev = Some(state);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_obs::Registry;

    #[test]
    fn tsv_rows_carry_rates_and_quantiles() {
        let reg = Registry::new();
        let before = reg.snapshot();
        reg.counter("serve/requests").add(10);
        reg.gauge("serve/queue_depth").set(2);
        reg.latency("serve/request/census/run").record(2000);
        let state = reg.snapshot();
        // serve/requests moved by 10 over the 1 s interval = 10/s
        let delta = state.delta_since(&before);
        let text = render_poll(3, &state, Some(&delta), true, &None);
        assert!(text.contains("3\tcounter\tserve/requests\t10\t10.0"), "{text}");
        assert!(text.contains("3\tgauge\tserve/queue_depth\t2\t-"), "{text}");
        assert!(text.contains("3\tlatency\tserve/request/census/run\t1\t"), "{text}");
    }

    #[test]
    fn snapshot_frames_render_without_rates() {
        let reg = Registry::new();
        reg.counter("serve/requests").add(4);
        let state = reg.snapshot();
        let tsv = render_poll(0, &state, None, true, &None);
        assert!(tsv.contains("0\tcounter\tserve/requests\t4\t-"), "{tsv}");
        let human = render_poll(0, &state, None, false, &None);
        assert!(human.starts_with("== seq 0 (snapshot, interval 1000ms) =="), "{human}");
        assert!(human.contains("serve/requests"), "{human}");
        assert!(!human.contains("/s\n"), "{human}");
    }

    #[test]
    fn filter_restricts_all_sections() {
        let reg = Registry::new();
        reg.counter("serve/requests").inc();
        reg.counter("store/warm_hit").inc();
        reg.latency("soak/latency_ns").record(1);
        let state = reg.snapshot();
        let text = render_poll(1, &state, None, true, &Some("store/".into()));
        assert!(text.contains("store/warm_hit"), "{text}");
        assert!(!text.contains("serve/requests"), "{text}");
        assert!(!text.contains("soak/"), "{text}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
