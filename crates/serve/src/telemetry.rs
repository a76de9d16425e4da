//! The live-telemetry hub: periodic registry snapshots delta-encoded and
//! fanned out to `subscribe`d connections.
//!
//! # Design
//!
//! One publisher thread ticks every `--telemetry-interval-ms`. Each tick
//! captures the global registry ([`TelemetryState::capture_global`]),
//! delta-encodes it against the previous tick's state, and offers one
//! frame to every subscriber. A frame goes out **every** tick, even when
//! the delta is empty — subscribers use that as a heartbeat and to
//! detect quiescence. All subscribers see the same `seq` numbering and
//! the same captured states, so a snapshot frame at tick *n* plus the
//! deltas of ticks *n+1..k* reconstructs tick *k*'s state exactly.
//!
//! # Slow consumers
//!
//! Publishing must never block on a slow client, and a slow client must
//! never see a *wrong* state. Each subscriber gets a bounded frame
//! queue drained by a dedicated forwarder thread (which serialises with
//! response writes through the connection's shared writer mutex). When
//! the queue is full the tick's frame is **dropped** for that subscriber
//! — counted in the global `telemetry/dropped` counter and the frame's
//! per-subscriber `dropped` field — and the subscriber is flagged for
//! resync: its next delivered frame is a full snapshot, so the stream
//! re-anchors and no increment is ever applied twice or lost.
//!
//! Disconnected subscribers (write failure, or the connection loop
//! unsubscribing on EOF) are dropped at the next tick; their forwarder
//! threads exit when the queue channel disconnects.
//!
//! # Metric hygiene
//!
//! The hub publishes only *lifecycle* metrics (`telemetry/subscribed`,
//! `telemetry/dropped` counters and the `telemetry/subscribers` gauge) —
//! deliberately nothing per-frame, so an otherwise idle daemon reaches a
//! fixed point and streams empty deltas instead of self-exciting.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use locap_obs as obs;
use locap_obs::telemetry::TelemetryState;

use crate::daemon::lock_or_recover;

/// Counter: `subscribe` ops accepted over the daemon's lifetime.
pub const SUBSCRIBED: &str = "telemetry/subscribed";
/// Counter: telemetry frames shed because a subscriber's queue was full.
pub const DROPPED: &str = "telemetry/dropped";
/// Gauge: currently attached subscribers.
pub const SUBSCRIBERS: &str = "telemetry/subscribers";

/// Default publisher interval.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1000);
/// Default per-subscriber frame-queue depth.
pub const DEFAULT_QUEUE: usize = 8;

/// How often the publisher loop re-checks the stop flag while sleeping.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// One attached subscriber.
struct Subscriber {
    id: u64,
    tx: SyncSender<String>,
    /// The next delivered frame must be a full snapshot: set on join and
    /// after any shed frame.
    needs_snapshot: bool,
    /// Cumulative shed frames, echoed in every frame to this subscriber.
    dropped: u64,
    /// Set by the forwarder when a write fails (client gone).
    dead: Arc<AtomicBool>,
}

/// The publisher's tick state: the previously captured registry state
/// (delta baseline) and the tick counter.
#[derive(Default)]
struct PublisherState {
    prev: Option<TelemetryState>,
    seq: u64,
}

/// The shared fan-out point between the publisher thread, connection
/// threads (subscribe/unsubscribe) and forwarder threads.
pub struct TelemetryHub {
    interval: Duration,
    queue: usize,
    subs: Mutex<Vec<Subscriber>>, // lint: lock-rank=21
    state: Mutex<PublisherState>, // lint: lock-rank=20
    next_id: AtomicU64,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("interval", &self.interval)
            .field("queue", &self.queue)
            .finish_non_exhaustive()
    }
}

/// The one construction site of the subscriber-count gauge.
fn set_subscriber_gauge(n: usize) {
    obs::gauge(SUBSCRIBERS).set(n as i64);
}

impl TelemetryHub {
    /// Creates a hub publishing every `interval` with per-subscriber
    /// queues of `queue` frames (clamped to ≥ 1).
    pub fn new(interval: Duration, queue: usize) -> TelemetryHub {
        TelemetryHub {
            interval,
            queue: queue.max(1),
            subs: Mutex::new(Vec::new()),
            state: Mutex::new(PublisherState::default()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The publisher interval in milliseconds (echoed in every frame).
    pub fn interval_ms(&self) -> u64 {
        self.interval.as_millis().min(u64::MAX as u128) as u64
    }

    /// The per-subscriber queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue
    }

    /// Attaches `writer` as a subscriber and returns its id (pass to
    /// [`TelemetryHub::unsubscribe`] on disconnect). The first frame the
    /// subscriber receives — at the next tick — is a full snapshot.
    /// Frames are written through the given mutex, serialising with the
    /// connection's response writes.
    pub fn subscribe(&self, writer: Arc<Mutex<TcpStream>>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::sync_channel::<String>(self.queue);
        let dead = Arc::new(AtomicBool::new(false));
        let forwarder_dead = Arc::clone(&dead);
        // The forwarder is detached on purpose: joining it could block on
        // a wedged socket write. It exits when the channel disconnects
        // (subscriber removed / hub cleared) or a write fails.
        let spawned = std::thread::Builder::new()
            .name(format!("locapd-telemetry-fwd-{id}"))
            .spawn(move || forward_frames(&rx, &writer, &forwarder_dead));
        if spawned.is_err() {
            // cannot spawn a forwarder: report a dead subscription; the
            // publisher removes it at the next tick
            dead.store(true, Ordering::SeqCst);
        }
        obs::counter(SUBSCRIBED).inc();
        let mut subs = lock_or_recover(&self.subs);
        subs.push(Subscriber { id, tx, needs_snapshot: true, dropped: 0, dead });
        set_subscriber_gauge(subs.len());
        id
    }

    /// Detaches subscribers by id (connection teardown). Their forwarder
    /// threads wind down as soon as they drain.
    pub fn unsubscribe(&self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        let mut subs = lock_or_recover(&self.subs);
        subs.retain(|s| !ids.contains(&s.id));
        set_subscriber_gauge(subs.len());
    }

    /// Detaches every subscriber (publisher shutdown).
    fn clear(&self) {
        let mut subs = lock_or_recover(&self.subs);
        subs.clear();
        set_subscriber_gauge(0);
    }

    /// One publisher tick: capture, delta-encode, fan out. Public so the
    /// slow-consumer unit tests can drive ticks deterministically; the
    /// daemon calls it from [`TelemetryHub::run`].
    pub fn publish_once(&self) {
        let mut state = lock_or_recover(&self.state);
        let current = TelemetryState::capture_global();
        let seq = state.seq;
        let interval_ms = self.interval_ms();
        let delta = state.prev.as_ref().map(|prev| current.delta_since(prev));
        // rendered payloads, built at most once per tick
        let mut snapshot_payload: Option<String> = None;
        let mut delta_payload: Option<String> = None;

        let mut subs = lock_or_recover(&self.subs);
        subs.retain(|s| !s.dead.load(Ordering::SeqCst));
        for sub in subs.iter_mut() {
            let (kind, payload) = match (&delta, sub.needs_snapshot) {
                (Some(d), false) => {
                    let payload =
                        delta_payload.get_or_insert_with(|| d.to_json().to_string()).clone();
                    ("delta", payload)
                }
                _ => {
                    let payload = snapshot_payload
                        .get_or_insert_with(|| current.to_json().to_string())
                        .clone();
                    ("snapshot", payload)
                }
            };
            let line = render_frame(kind, seq, interval_ms, sub.dropped, &payload);
            match sub.tx.try_send(line) {
                Ok(()) => sub.needs_snapshot = false,
                Err(TrySendError::Full(_)) => {
                    sub.dropped += 1;
                    sub.needs_snapshot = true;
                    obs::counter(DROPPED).inc();
                }
                Err(TrySendError::Disconnected(_)) => {
                    sub.dead.store(true, Ordering::SeqCst);
                }
            }
        }
        subs.retain(|s| !s.dead.load(Ordering::SeqCst));
        set_subscriber_gauge(subs.len());
        drop(subs);
        state.prev = Some(current);
        state.seq = seq + 1;
    }

    /// The publisher loop: ticks every interval until `stop` is set,
    /// then detaches all subscribers. Run on a dedicated thread.
    pub fn run(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) {
            self.publish_once();
            let mut slept = Duration::ZERO;
            while slept < self.interval && !stop.load(Ordering::SeqCst) {
                let step = POLL_INTERVAL.min(self.interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
        self.clear();
    }
}

/// Renders one frame line, shape-identical to
/// [`crate::protocol::telemetry_frame`] but splicing in a pre-rendered
/// `payload` so one tick serialises each captured state at most once.
fn render_frame(kind: &str, seq: u64, interval_ms: u64, dropped: u64, payload: &str) -> String {
    format!(
        "{{\"telemetry\":\"{kind}\",\"seq\":{seq},\"interval_ms\":{interval_ms},\
         \"dropped\":{dropped},\"data\":{payload}}}"
    )
}

/// The forwarder thread body: drains queued frames onto the connection.
fn forward_frames(rx: &Receiver<String>, writer: &Arc<Mutex<TcpStream>>, dead: &AtomicBool) {
    while let Ok(line) = rx.recv() {
        let mut guard = lock_or_recover(writer);
        let result = guard.write_all(line.as_bytes()).and_then(|()| {
            guard.write_all(b"\n")?;
            guard.flush()
        });
        drop(guard);
        if result.is_err() {
            dead.store(true, Ordering::SeqCst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::telemetry_frame;
    use locap_obs::json::Json;

    #[test]
    fn rendered_frames_match_the_protocol_builder() {
        let reg = obs::Registry::new();
        reg.counter("serve/requests").add(5);
        reg.latency("serve/request/census/run").record(321);
        let data = TelemetryState::capture(&reg).to_json();
        let want = telemetry_frame("delta", 12, 250, 3, data.clone()).to_string();
        let got = render_frame("delta", 12, 250, 3, &data.to_string());
        assert_eq!(got, want);
        assert!(Json::parse(&got).is_ok());
    }
}
