//! The serving layer over the locap core pipelines.
//!
//! Two front-ends share one dispatch surface
//! ([`locap_core::request::PipelineRequest`]):
//!
//! * **`locap`** — a CLI with one subcommand per pipeline, emitting
//!   deterministic human output (or the standard `OBS_JSON=1` metrics
//!   line) and optional result artifacts with provenance sidecars;
//! * **`locapd`** — a long-running TCP daemon speaking newline-delimited
//!   JSON ([`protocol`]), answering warm result-store hits on the
//!   connection thread and dispatching the rest onto a bounded worker pool
//!   ([`daemon`]) with per-request [`locap_graph::budget::RunBudget`]s,
//!   answering every failure with a typed error response, and writing a
//!   `*.provenance.json` sidecar ([`provenance`]) for every artifact.
//!
//! The daemon's one telemetry read is the `stats` op: it answers with
//! the whole metrics registry, including the per-request phase
//! latencies (queue-wait / parse / run / serialize) recorded into one
//! `locap_obs::Histogram` per pipeline and phase. `locap watch`
//! ([`watch`]) polls it and renders each poll as a live table.
//!
//! The wire protocol is hand-rolled on the `locap-obs` JSON machinery —
//! no new dependencies, per the workspace's offline-shim policy.

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
#![warn(missing_docs)]

pub mod daemon;
pub mod protocol;
pub mod provenance;
pub mod watch;
