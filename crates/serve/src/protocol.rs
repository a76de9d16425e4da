//! The `locapd` wire protocol: newline-delimited JSON over a byte
//! stream.
//!
//! # Requests
//!
//! One JSON object per line. A **pipeline request** is
//!
//! ```json
//! {"id": 7, "pipeline": "eds-lower", "params": {"n": 9},
//!  "budget": {"deadline_ms": 5000, "max_rounds": 100000, "cache_cap": 100000}}
//! ```
//!
//! * `id` — required; any JSON scalar, echoed verbatim in the response.
//! * `pipeline` — one of [`locap_core::request::PIPELINES`].
//! * `params` — optional object; pipeline-specific (see
//!   [`locap_core::request::PipelineRequest::parse`]).
//! * `budget` — optional object; every field optional, unknown fields
//!   rejected. `deadline_ms` bounds wall-clock execution (measured from
//!   the moment the daemon starts answering the request — a worker
//!   starting the job, or the reader resolving a store hit — not from
//!   enqueue), `max_rounds` bounds engine rounds/search steps,
//!   `cache_cap` bounds view-cache entries.
//!
//! An **operation request** is `{"op": "ping"}`, `{"op": "stats"}`,
//! `{"op": "subscribe"}` or `{"op": "shutdown"}`, with an optional `id`.
//!
//! # Responses
//!
//! Exactly one line per well-formed frame, in request order per
//! connection for operations and protocol errors. Pipeline responses
//! arrive as they are answered, so match them by `id`: a daemon with a
//! result store answers a warm hit on the connection's reader thread,
//! where it can overtake an earlier request still queued for or running
//! on a worker, and only misses wait for a worker. Success:
//! `{"id": …, "ok": true, "pipeline": …, "elapsed_ms": …, "result": {…}}`.
//! Failure: `{"id": …, "ok": false, "error": {"kind": …, "message": …}}`
//! — the daemon never closes a connection on a bad frame, it answers it.
//! Frames that are empty or whitespace-only are ignored (keep-alive).
//!
//! Error kinds are namespaced: `protocol/<kind>` (this module),
//! `request/<kind>` ([`locap_core::request::RequestError`]),
//! `run/<kind>` ([`locap_models` run errors]), `truncated/<reason>`
//! (budget truncation) and `core/<kind>` (remaining
//! [`CoreError`] variants).
//!
//! Clients must keep the connection open until every response arrived:
//! closing the read half cancels the connection's in-flight jobs and
//! undeliverable responses are dropped (counted under
//! `serve/responses/undeliverable`).
//!
//! # Telemetry frames
//!
//! After an acknowledged `{"op": "subscribe"}`, the daemon interleaves
//! unsolicited **telemetry frames** onto the connection (one per
//! configured interval, whole lines — they never split a response):
//!
//! ```json
//! {"telemetry": "delta", "seq": 3, "interval_ms": 1000, "dropped": 0,
//!  "data": {"counters": {…}, "gauges": {…}, "spans": {…}, "latencies": {…}}}
//! ```
//!
//! `telemetry` is `"snapshot"` (full registry state — the first frame,
//! and the resync frame after any drop) or `"delta"` (only what changed
//! since the previous frame, in `locap_obs::telemetry` delta encoding).
//! `seq` increments per publisher tick (shared by all subscribers);
//! `dropped` counts frames this subscriber lost to slow-consumer
//! shedding. A frame is sent every tick even when nothing changed
//! (`"data"` all-empty), so subscribers can detect quiescence. Clients
//! distinguish telemetry frames by the `telemetry` key, which response
//! lines never carry.

use std::fmt::Write as _;
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

use locap_core::request::{PipelineRequest, RequestError};
use locap_core::CoreError;
use locap_graph::budget::{MonotonicClock, RunBudget};
use locap_obs::json::Json;

/// Default cap on a single frame, in bytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// One frame from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// Clean end of stream at a frame boundary.
    Eof,
}

/// A framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// The frame exceeded the configured cap. The reader has already
    /// resynchronised to the next newline; the connection can continue.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The stream ended in the middle of a frame.
    Unterminated,
    /// The underlying read timed out (`WouldBlock`/`TimedOut`); the
    /// partial frame is retained — call again to continue.
    Idle,
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { limit } => write!(f, "frame exceeds the {limit}-byte cap"),
            FrameError::Unterminated => write!(f, "stream ended mid-frame"),
            FrameError::Idle => write!(f, "read timed out; frame still open"),
            FrameError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental newline framing over a raw reader with a hard size cap.
///
/// Partial frames survive [`FrameError::Idle`] returns, so the reader
/// composes with socket read timeouts (the daemon polls its stop flag
/// between timeouts).
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: R,
    max_len: usize,
    carry: Vec<u8>,
    oversize: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `reader` with a per-frame byte cap.
    pub fn new(reader: R, max_len: usize) -> FrameReader<R> {
        FrameReader { reader, max_len, carry: Vec::new(), oversize: false }
    }

    /// Reads the next frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] for an oversized frame (stream already
    /// resynchronised), [`FrameError::Unterminated`] at EOF mid-frame,
    /// [`FrameError::Idle`] on a read timeout, [`FrameError::Io`]
    /// otherwise.
    pub fn next_frame(&mut self) -> Result<Frame, FrameError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(i) = self.carry.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.carry.drain(..=i).collect();
                line.pop();
                if self.oversize || line.len() > self.max_len {
                    self.oversize = false;
                    return Err(FrameError::TooLarge { limit: self.max_len });
                }
                return Ok(Frame::Line(line));
            }
            if self.carry.len() > self.max_len {
                // stop buffering; keep scanning for the resync newline
                self.oversize = true;
                self.carry.clear();
            }
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    return if self.carry.is_empty() && !self.oversize {
                        Ok(Frame::Eof)
                    } else {
                        Err(FrameError::Unterminated)
                    };
                }
                Ok(n) => self.carry.extend_from_slice(chunk.get(..n).unwrap_or_default()),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::Interrupted => continue,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return Err(FrameError::Idle)
                    }
                    _ => return Err(FrameError::Io(e)),
                },
            }
        }
    }
}

/// A typed rejection of a frame before it reaches a pipeline.
#[derive(Debug)]
pub enum ProtocolError {
    /// The frame is not valid JSON.
    BadJson {
        /// Parser diagnostic (with byte offset).
        message: String,
    },
    /// The frame is valid JSON but not an object.
    NotAnObject,
    /// A pipeline request without an `id`.
    MissingId,
    /// An `id` that is not a JSON scalar.
    BadId,
    /// Neither `pipeline` (a string) nor `op` present.
    MissingPipeline,
    /// An unrecognised `op` value.
    UnknownOp {
        /// The op the caller sent.
        op: String,
    },
    /// A malformed `budget` object.
    BadBudget {
        /// What was wrong with it.
        reason: String,
    },
    /// The frame exceeded the size cap.
    FrameTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The job queue is full; retry later.
    Overloaded {
        /// The configured queue depth.
        queue_depth: usize,
    },
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The `shutdown` op is disabled in this daemon's configuration.
    ShutdownDisabled,
    /// The `subscribe` op is disabled (`--telemetry-interval-ms 0`).
    TelemetryDisabled,
    /// The request parsed but its pipeline/params were rejected.
    Request(RequestError),
}

impl ProtocolError {
    /// The namespaced machine-readable kind (`protocol/...` or
    /// `request/...`).
    pub fn kind(&self) -> String {
        let k = match self {
            ProtocolError::BadJson { .. } => "bad_json",
            ProtocolError::NotAnObject => "not_an_object",
            ProtocolError::MissingId => "missing_id",
            ProtocolError::BadId => "bad_id",
            ProtocolError::MissingPipeline => "missing_pipeline",
            ProtocolError::UnknownOp { .. } => "unknown_op",
            ProtocolError::BadBudget { .. } => "bad_budget",
            ProtocolError::FrameTooLarge { .. } => "frame_too_large",
            ProtocolError::Overloaded { .. } => "overloaded",
            ProtocolError::ShuttingDown => "shutting_down",
            ProtocolError::ShutdownDisabled => "shutdown_disabled",
            ProtocolError::TelemetryDisabled => "telemetry_disabled",
            ProtocolError::Request(e) => return format!("request/{}", e.kind()),
        };
        format!("protocol/{k}")
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadJson { message } => write!(f, "invalid JSON: {message}"),
            ProtocolError::NotAnObject => write!(f, "a request must be a JSON object"),
            ProtocolError::MissingId => write!(f, "a pipeline request requires an \"id\""),
            ProtocolError::BadId => write!(f, "\"id\" must be a JSON scalar"),
            ProtocolError::MissingPipeline => {
                write!(f, "a request needs a string \"pipeline\" or \"op\" field")
            }
            ProtocolError::UnknownOp { op } => {
                write!(
                    f,
                    "unknown op {op:?}; expected \"ping\", \"stats\", \"subscribe\" or \
                     \"shutdown\""
                )
            }
            ProtocolError::BadBudget { reason } => write!(f, "bad budget: {reason}"),
            ProtocolError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte cap")
            }
            ProtocolError::Overloaded { queue_depth } => {
                write!(f, "job queue full ({queue_depth} slots); retry later")
            }
            ProtocolError::ShuttingDown => write!(f, "daemon is shutting down"),
            ProtocolError::ShutdownDisabled => {
                write!(f, "the shutdown op is disabled for this daemon")
            }
            ProtocolError::TelemetryDisabled => {
                write!(f, "telemetry streaming is disabled for this daemon")
            }
            ProtocolError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The per-request budget fields of the wire protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock execution bound, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Engine round / search-step bound.
    pub max_rounds: Option<u64>,
    /// View-cache entry bound.
    pub cache_cap: Option<u64>,
}

impl BudgetSpec {
    /// Materialises the spec as a [`RunBudget`]. `default_deadline`
    /// applies when the request named none; `max_deadline` clamps
    /// whatever was requested. The deadline is measured from `clock`'s
    /// epoch, so callers pass a clock started when execution starts —
    /// not at parse time, and not a long-lived process clock.
    pub fn realize(
        &self,
        clock: &Arc<dyn MonotonicClock>,
        default_deadline: Option<Duration>,
        max_deadline: Option<Duration>,
    ) -> RunBudget {
        let mut budget = RunBudget::unlimited();
        let mut deadline = self.deadline_ms.map(Duration::from_millis).or(default_deadline);
        if let Some(cap) = max_deadline {
            deadline = deadline.map(|d| d.min(cap)).or(Some(cap));
        }
        if let Some(d) = deadline {
            budget = budget.with_deadline(d, Arc::clone(clock));
        }
        if let Some(r) = self.max_rounds {
            budget = budget.with_max_rounds(r as usize);
        }
        if let Some(c) = self.cache_cap {
            budget = budget.with_cache_cap(c as usize);
        }
        budget
    }
}

/// A parsed frame.
#[derive(Debug)]
pub enum Request {
    /// A pipeline invocation.
    Pipeline {
        /// Caller-chosen correlation id, echoed in the response.
        id: Json,
        /// The parsed pipeline request.
        request: PipelineRequest,
        /// The requested budget.
        budget: BudgetSpec,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id (JSON `null` when absent).
        id: Json,
    },
    /// Serving-counter snapshot.
    Stats {
        /// Correlation id (JSON `null` when absent).
        id: Json,
    },
    /// Attach this connection to the live telemetry stream.
    Subscribe {
        /// Correlation id (JSON `null` when absent).
        id: Json,
    },
    /// Orderly drain-and-exit.
    Shutdown {
        /// Correlation id (JSON `null` when absent).
        id: Json,
    },
}

fn scalar_id(v: &Json) -> Result<Json, ProtocolError> {
    match v {
        Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => Ok(v.clone()),
        Json::Arr(_) | Json::Obj(_) => Err(ProtocolError::BadId),
    }
}

fn parse_budget(v: Option<&Json>) -> Result<BudgetSpec, ProtocolError> {
    let Some(v) = v else { return Ok(BudgetSpec::default()) };
    let Json::Obj(fields) = v else {
        return Err(ProtocolError::BadBudget { reason: "budget must be a JSON object".into() });
    };
    let mut spec = BudgetSpec::default();
    for (k, val) in fields {
        let slot = match k.as_str() {
            "deadline_ms" => &mut spec.deadline_ms,
            "max_rounds" => &mut spec.max_rounds,
            "cache_cap" => &mut spec.cache_cap,
            other => {
                return Err(ProtocolError::BadBudget {
                    reason: format!("unknown budget field {other:?}"),
                })
            }
        };
        *slot = Some(val.as_u64().ok_or_else(|| ProtocolError::BadBudget {
            reason: format!("budget field {k:?} must be a non-negative integer, got {val}"),
        })?);
    }
    Ok(spec)
}

/// Parses one frame into a [`Request`].
///
/// # Errors
///
/// A [`ProtocolError`] describing the first defect; never panics, for
/// any byte content (the conformance and property suites drive this
/// with adversarial frames).
pub fn parse_request(line: &[u8]) -> Result<Request, ProtocolError> {
    let text = std::str::from_utf8(line)
        .map_err(|e| ProtocolError::BadJson { message: format!("invalid UTF-8: {e}") })?;
    let doc = Json::parse(text).map_err(|e| ProtocolError::BadJson { message: e.to_string() })?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProtocolError::NotAnObject);
    }
    if let Some(op) = doc.get("op") {
        let op = op.as_str().ok_or(ProtocolError::MissingPipeline)?;
        let id = match doc.get("id") {
            Some(v) => scalar_id(v)?,
            None => Json::Null,
        };
        return match op {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "subscribe" => Ok(Request::Subscribe { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(ProtocolError::UnknownOp { op: other.into() }),
        };
    }
    let id = scalar_id(doc.get("id").ok_or(ProtocolError::MissingId)?)?;
    if matches!(id, Json::Null) {
        return Err(ProtocolError::MissingId);
    }
    let pipeline = doc
        .get("pipeline")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::MissingPipeline)?;
    // Frame-level (protocol) defects before request-level (domain) ones:
    // a bad budget is reported even when the params are also wrong.
    let budget = parse_budget(doc.get("budget"))?;
    let empty = Json::Obj(Vec::new());
    let params = doc.get("params").unwrap_or(&empty);
    let request = PipelineRequest::parse(pipeline, params).map_err(ProtocolError::Request)?;
    Ok(Request::Pipeline { id, request, budget })
}

/// Renders `response` as its line (newline included), with `result`, an
/// already-encoded document, as the value of the `result` field that
/// `response` holds as a [`Json::Null`] placeholder. When `result` is
/// `doc.to_string()`, the line is byte-identical to `response` built with
/// `doc` and rendered, so a stored or computed result is encoded once and
/// never decoded to be encoded again.
pub fn splice_result(response: &Json, result: &str) -> String {
    let Json::Obj(fields) = response else { return format!("{response}\n") };
    let mut line = String::with_capacity(result.len() + 128);
    line.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        // writing to a String cannot fail
        let _ = write!(line, "{}:", Json::Str(key.clone()));
        if key == "result" {
            line.push_str(result);
        } else {
            let _ = write!(line, "{value}");
        }
    }
    line.push_str("}\n");
    line
}

/// Builds a success response line.
pub fn ok_response(id: &Json, pipeline: &str, elapsed_ms: u64, result: Json) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("pipeline".into(), Json::Str(pipeline.into())),
        ("elapsed_ms".into(), Json::Num(elapsed_ms as f64)),
        ("result".into(), result),
    ])
}

/// Builds one telemetry frame (see the module docs). `kind` is
/// `"snapshot"` or `"delta"`, `dropped` the subscriber's cumulative
/// shed-frame count, `data` a `locap_obs::telemetry` state object.
pub fn telemetry_frame(kind: &str, seq: u64, interval_ms: u64, dropped: u64, data: Json) -> Json {
    Json::Obj(vec![
        ("telemetry".into(), Json::Str(kind.into())),
        ("seq".into(), Json::Num(seq as f64)),
        ("interval_ms".into(), Json::Num(interval_ms as f64)),
        ("dropped".into(), Json::Num(dropped as f64)),
        ("data".into(), data),
    ])
}

/// A parsed telemetry frame, as seen by subscribers (`locap watch`, the
/// conformance suite).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// `"snapshot"` or `"delta"`.
    pub kind: String,
    /// Publisher tick number.
    pub seq: u64,
    /// Publisher interval in milliseconds.
    pub interval_ms: u64,
    /// Frames this subscriber lost to slow-consumer shedding so far.
    pub dropped: u64,
    /// The state or delta payload.
    pub data: locap_obs::telemetry::TelemetryState,
}

impl TelemetryFrame {
    /// Parses a frame line; `Ok(None)` when the line is not a telemetry
    /// frame (no `telemetry` key — e.g. an interleaved response).
    ///
    /// # Errors
    ///
    /// A diagnostic when the line is not JSON or carries a malformed
    /// telemetry payload.
    pub fn parse(line: &str) -> Result<Option<TelemetryFrame>, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let Some(kind) = doc.get("telemetry") else { return Ok(None) };
        let kind = kind.as_str().ok_or("telemetry kind is not a string")?.to_string();
        if kind != "snapshot" && kind != "delta" {
            return Err(format!("unknown telemetry kind {kind:?}"));
        }
        let field = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or(format!("missing {k}"));
        let data = doc.get("data").ok_or("missing data")?;
        Ok(Some(TelemetryFrame {
            kind,
            seq: field("seq")?,
            interval_ms: field("interval_ms")?,
            dropped: field("dropped")?,
            data: locap_obs::telemetry::TelemetryState::from_json(data)?,
        }))
    }
}

/// Builds an error response line.
pub fn err_response(id: &Json, kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

/// The namespaced error kind for a pipeline failure: `run/<kind>` for
/// model-run rejections, `truncated/<reason>` for budget truncation,
/// `core/<kind>` otherwise.
pub fn core_error_kind(e: &CoreError) -> String {
    match e {
        CoreError::Run(r) => format!("run/{}", r.kind()),
        CoreError::Truncated { reason, .. } => format!("truncated/{}", reason.kind()),
        other => format!("core/{}", other.kind()),
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;

    fn frames(data: &[u8], max: usize) -> Vec<Result<Frame, String>> {
        let mut r = FrameReader::new(Cursor::new(data.to_vec()), max);
        let mut out = Vec::new();
        loop {
            match r.next_frame() {
                Ok(Frame::Eof) => {
                    out.push(Ok(Frame::Eof));
                    return out;
                }
                Ok(f) => out.push(Ok(f)),
                Err(e) => {
                    let stop = matches!(e, FrameError::Unterminated | FrameError::Io(_));
                    out.push(Err(e.to_string()));
                    if stop {
                        return out;
                    }
                }
            }
        }
    }

    #[test]
    fn frames_split_on_newlines() {
        let out = frames(b"abc\nde\n\nf\n", 100);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Ok(Frame::Line(b"abc".to_vec())));
        assert_eq!(out[1], Ok(Frame::Line(b"de".to_vec())));
        assert_eq!(out[2], Ok(Frame::Line(Vec::new())));
        assert_eq!(out[3], Ok(Frame::Line(b"f".to_vec())));
        assert_eq!(out[4], Ok(Frame::Eof));
    }

    #[test]
    fn oversized_frame_resyncs() {
        let mut data = vec![b'x'; 50];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let out = frames(&data, 10);
        assert!(out[0].as_ref().is_err_and(|e| e.contains("cap")), "{:?}", out[0]);
        assert_eq!(out[1], Ok(Frame::Line(b"ok".to_vec())));
        assert_eq!(out[2], Ok(Frame::Eof));
    }

    #[test]
    fn eof_mid_frame_is_unterminated() {
        let out = frames(b"partial", 100);
        assert!(out[0].as_ref().is_err_and(|e| e.contains("mid-frame")), "{:?}", out[0]);
    }

    #[test]
    fn parse_rejects_each_defect_with_its_kind() {
        let cases: &[(&[u8], &str)] = &[
            (b"not json", "protocol/bad_json"),
            (b"\xff\xfe", "protocol/bad_json"),
            (b"[1, 2]", "protocol/not_an_object"),
            (b"{\"pipeline\": \"census\"}", "protocol/missing_id"),
            (b"{\"id\": null, \"pipeline\": \"census\"}", "protocol/missing_id"),
            (b"{\"id\": [1], \"pipeline\": \"census\"}", "protocol/bad_id"),
            (b"{\"id\": 1}", "protocol/missing_pipeline"),
            (b"{\"id\": 1, \"pipeline\": 3}", "protocol/missing_pipeline"),
            (b"{\"op\": \"reboot\"}", "protocol/unknown_op"),
            (
                b"{\"id\": 1, \"pipeline\": \"census\", \"params\": {\"family\": \"directed-cycle\", \"n\": 12}, \"budget\": 5}",
                "protocol/bad_budget",
            ),
            (
                b"{\"id\": 1, \"pipeline\": \"census\", \"params\": {\"family\": \"directed-cycle\", \"n\": 12}, \"budget\": {\"deadlines\": 5}}",
                "protocol/bad_budget",
            ),
            (b"{\"id\": 1, \"pipeline\": \"nope\"}", "request/unknown_pipeline"),
            (b"{\"id\": 1, \"pipeline\": \"eds-lower\"}", "request/missing_param"),
        ];
        for (line, kind) in cases {
            let err = parse_request(line).expect_err("defective frame must be rejected");
            assert_eq!(&err.kind(), kind, "frame {:?}", String::from_utf8_lossy(line));
        }
    }

    #[test]
    fn parse_accepts_ops_and_pipelines() {
        assert!(matches!(parse_request(b"{\"op\": \"ping\"}"), Ok(Request::Ping { .. })));
        assert!(matches!(
            parse_request(b"{\"op\": \"stats\", \"id\": \"s1\"}"),
            Ok(Request::Stats { .. })
        ));
        assert!(matches!(parse_request(b"{\"op\": \"shutdown\"}"), Ok(Request::Shutdown { .. })));
        assert!(matches!(
            parse_request(b"{\"op\": \"subscribe\", \"id\": 9}"),
            Ok(Request::Subscribe { .. })
        ));
        let req = parse_request(
            b"{\"id\": 42, \"pipeline\": \"eds-lower\", \"params\": {\"n\": 9}, \"budget\": {\"deadline_ms\": 100}}",
        )
        .expect("well-formed request");
        let Request::Pipeline { id, request, budget } = req else {
            panic!("expected a pipeline request");
        };
        assert_eq!(id.as_u64(), Some(42));
        assert_eq!(request.pipeline(), "eds-lower");
        assert_eq!(budget.deadline_ms, Some(100));
        assert_eq!(budget.max_rounds, None);
    }

    #[test]
    fn telemetry_frames_round_trip_and_responses_pass_through() {
        let reg = locap_obs::Registry::new();
        reg.counter("serve/requests").add(3);
        reg.latency("serve/request/census/run").record(1234);
        let data = reg.snapshot();
        let line = telemetry_frame("snapshot", 7, 250, 1, data.to_json()).to_string();
        let frame = TelemetryFrame::parse(&line).expect("parse").expect("is telemetry");
        assert_eq!(frame.kind, "snapshot");
        assert_eq!((frame.seq, frame.interval_ms, frame.dropped), (7, 250, 1));
        assert_eq!(frame.data, data);

        let response = ok_response(&Json::Num(1.0), "census", 3, Json::Obj(vec![])).to_string();
        assert_eq!(TelemetryFrame::parse(&response).expect("parse"), None);
        assert!(TelemetryFrame::parse("{\"telemetry\": \"weird\", \"seq\": 0}").is_err());
        assert!(TelemetryFrame::parse("{\"telemetry\": \"delta\"}").is_err());
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let ok = ok_response(&Json::Num(7.0), "census", 12, Json::Obj(vec![]));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(ok.get("pipeline").and_then(Json::as_str), Some("census"));
        let err = err_response(&Json::Str("a".into()), "protocol/bad_json", "nope");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let kind = err.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        assert_eq!(kind, Some("protocol/bad_json"));
    }
}
