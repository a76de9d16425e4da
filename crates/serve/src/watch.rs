//! `locap watch` — subscribe to a running `locapd` and render its live
//! telemetry stream as a human table or TSV rows.
//!
//! The client sends `{"op": "subscribe"}`, applies the resulting
//! snapshot/delta frames to a local [`TelemetryState`] replica, and
//! renders one block per frame: counters with per-interval rates,
//! gauges, and span/latency histograms with p50/p90/p99 quantiles
//! (within 1/16 of the true value). Rendering is pure
//! ([`render_frame`]) so the formats are unit-testable.
//!
//! The `serve/request/<pipeline>/<phase>` latencies count differently
//! per phase: `parse`, `run` and `serialize` sample every pipeline
//! request, `queue_wait` only those queued for a worker. A warm store
//! hit is answered on the connection thread, so its `run` is the store
//! read and it never waits in the queue.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use locap_obs::telemetry::TelemetryState;

use crate::protocol::TelemetryFrame;

/// Options for a watch session.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Stop after this many telemetry frames (`None`: until disconnect).
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

/// Renders one received frame against the reconstructed `state` (the
/// frame's delta already applied). `delta` is the frame's own payload
/// for `"delta"` frames (drives the rate column); snapshot frames show
/// absolute values only.
pub fn render_frame(
    state: &TelemetryState,
    frame: &TelemetryFrame,
    tsv: bool,
    filter: &Option<String>,
) -> String {
    let mut out = String::new();
    let delta = (frame.kind == "delta").then_some(&frame.data);
    let interval_s = (frame.interval_ms.max(1) as f64) / 1000.0;
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
            out.push_str(&format!("{}\tcounter\t{name}\t{v}\t{rate}\n", frame.seq));
        }
        for (name, v) in &state.gauges {
            if keep(filter, name) {
                out.push_str(&format!("{}\tgauge\t{name}\t{v}\t-\n", frame.seq));
            }
        }
        for (label, section) in [("span", &state.spans), ("latency", &state.latencies)] {
            for (name, h) in section {
                if !keep(filter, name) {
                    continue;
                }
                let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| h.quantile(q));
                out.push_str(&format!(
                    "{}\t{label}\t{name}\t{}\t{p50}\t{p90}\t{p99}\n",
                    frame.seq, h.count
                ));
            }
        }
        return out;
    }
    out.push_str(&format!(
        "== seq {} ({}, interval {}ms, dropped {}) ==\n",
        frame.seq, frame.kind, frame.interval_ms, frame.dropped
    ));
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

/// Connects, subscribes, and streams rendered frames into `out` until
/// `opts.frames` frames arrived (or the daemon disconnects).
///
/// # Errors
///
/// Connection/read/write failures, a rejected subscribe, or a malformed
/// telemetry frame, as a displayable message.
pub fn run(opts: &WatchOptions, out: &mut impl Write) -> Result<(), String> {
    let stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("connect to {}: {e}", opts.addr))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    writer
        .write_all(b"{\"op\": \"subscribe\", \"id\": \"watch\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send subscribe: {e}"))?;
    let reader = BufReader::new(stream);
    let mut state = TelemetryState::default();
    let mut anchored = false;
    let mut seen = 0u64;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let Some(frame) = TelemetryFrame::parse(&line)? else {
            // the subscribe ack (or an interleaved response): reject a
            // refused subscription, pass anything else through
            let doc = locap_obs::json::Json::parse(&line).map_err(|e| e.to_string())?;
            if doc.get("ok") == Some(&locap_obs::json::Json::Bool(false)) {
                return Err(format!("subscribe rejected: {line}"));
            }
            continue;
        };
        match frame.kind.as_str() {
            "snapshot" => {
                state = frame.data.clone();
                anchored = true;
            }
            _ => {
                if !anchored {
                    // never apply a delta before the first snapshot
                    continue;
                }
                state.apply(&frame.data);
            }
        }
        out.write_all(render_frame(&state, &frame, opts.tsv, &opts.filter).as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write: {e}"))?;
        seen += 1;
        if opts.frames.is_some_and(|n| seen >= n) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_obs::Registry;

    fn frame_of(kind: &str, reg: &Registry, seq: u64) -> TelemetryFrame {
        TelemetryFrame {
            kind: kind.into(),
            seq,
            interval_ms: 500,
            dropped: 0,
            data: reg.snapshot(),
        }
    }

    #[test]
    fn tsv_rows_carry_rates_and_quantiles() {
        let reg = Registry::new();
        reg.counter("serve/requests").add(10);
        reg.gauge("serve/queue_depth").set(2);
        reg.latency("serve/request/census/run").record(2000);
        let state = reg.snapshot();
        // a delta frame moving serve/requests by 10 over 500ms = 20/s
        let frame = frame_of("delta", &reg, 3);
        let text = render_frame(&state, &frame, true, &None);
        assert!(text.contains("3\tcounter\tserve/requests\t10\t20.0"), "{text}");
        assert!(text.contains("3\tgauge\tserve/queue_depth\t2\t-"), "{text}");
        assert!(text.contains("3\tlatency\tserve/request/census/run\t1\t"), "{text}");
    }

    #[test]
    fn snapshot_frames_render_without_rates() {
        let reg = Registry::new();
        reg.counter("serve/requests").add(4);
        let state = reg.snapshot();
        let frame = frame_of("snapshot", &reg, 0);
        let tsv = render_frame(&state, &frame, true, &None);
        assert!(tsv.contains("0\tcounter\tserve/requests\t4\t-"), "{tsv}");
        let human = render_frame(&state, &frame, false, &None);
        assert!(human.starts_with("== seq 0 (snapshot, interval 500ms, dropped 0) =="), "{human}");
        assert!(human.contains("serve/requests"), "{human}");
    }

    #[test]
    fn filter_restricts_all_sections() {
        let reg = Registry::new();
        reg.counter("serve/requests").inc();
        reg.counter("telemetry/dropped").inc();
        reg.latency("soak/latency_ns").record(1);
        let state = reg.snapshot();
        let frame = frame_of("snapshot", &reg, 1);
        let text = render_frame(&state, &frame, true, &Some("telemetry/".into()));
        assert!(text.contains("telemetry/dropped"), "{text}");
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
