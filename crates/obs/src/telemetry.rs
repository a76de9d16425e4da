//! Point-in-time registry snapshots with delta-encoding, for streaming
//! metrics over the wire.
//!
//! A [`TelemetryState`] captures *every* metric in a [`Registry`] at full
//! resolution — counter totals, gauge levels, and the complete (sparse)
//! bucket vectors of the span and latency histograms, both read through
//! [`Histogram::state`]. Unlike the bench-schema [`crate::Snapshot`], which
//! collapses histograms into summary rows, a telemetry state is lossless:
//! applying a stream of deltas to a base state reconstructs the later
//! state **exactly**, field for field.
//!
//! # Delta semantics
//!
//! [`TelemetryState::delta_since`] returns a state-shaped delta holding
//! only what changed:
//!
//! * **counters** — the increment (counters are monotone; unchanged ones
//!   are dropped);
//! * **gauges** — the new absolute level, present only when it changed
//!   (a level has no meaningful difference);
//! * **histograms** — per-bucket count increments plus count/sum
//!   increments, with min/max carried as the new *absolute* values
//!   (min only ever decreases and max only ever increases, so the
//!   current value is both compact and exact). Histograms whose count
//!   did not change are dropped.
//!
//! [`TelemetryState::apply`] inverts this: add counter/histogram
//! increments, overwrite gauges and histogram min/max. `apply ∘
//! delta_since` is the identity on reachable states — this is proptested
//! in `tests/telemetry_props.rs` and is what lets a `locapd` subscriber
//! reconcile a stream of delta frames against a final `stats` snapshot
//! with no lost or double-counted metrics.
//!
//! The one operation outside the model is [`Registry::reset`] (and
//! counter handles held across one): deltas assume metrics are append-
//! only, which holds for the daemon (it never resets its registry).
//!
//! # Wire format
//!
//! [`TelemetryState::to_json`] serializes through the in-crate [`Json`]
//! writer as an object `{counters, gauges, spans, latencies}`; histogram
//! buckets are sparse `[index, count]` pairs. Values are exact up to
//! 2^53 (the `f64` integer range of the JSON number type), far beyond
//! any realistic counter or nanosecond total.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::{bucket_upper_bound, lock_unpoisoned, quantile_rank, Histogram, Registry};

/// Lossless histogram state: exact aggregates plus sparse bucket counts,
/// as [`Histogram::state`] reads them.
///
/// In a delta (see [`TelemetryState::delta_since`]) `count`, `sum` and
/// the bucket counts are increments while `min`/`max` are the new
/// absolute values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramState {
    /// Number of observations (empty histograms report 0/0 min/max).
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Sparse non-zero bucket counts as `(index, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramState {
    /// The changes from `base` to `self`: count/sum/bucket increments,
    /// absolute min/max. Assumes `self` extends `base` (append-only).
    fn delta_since(&self, base: &HistogramState) -> HistogramState {
        let old: BTreeMap<u32, u64> = base.buckets.iter().copied().collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(i, c)| {
                let d = c.saturating_sub(old.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistogramState {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }

    /// Applies a delta produced by [`HistogramState::delta_since`].
    fn apply(&mut self, delta: &HistogramState) {
        self.count += delta.count;
        self.sum += delta.sum;
        self.min = delta.min;
        self.max = delta.max;
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &delta.buckets {
            *merged.entry(i).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().filter(|&(_, c)| c > 0).collect();
    }

    /// The nearest-rank `q`-quantile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` observation, kept within
    /// `[min, max]` so that extremes and single observations are exact.
    /// That is what a sorted vector of the observations yields after
    /// mapping each value to its bucket's upper bound, so the result
    /// overshoots the true rank value by at most 1/16 of it.
    ///
    /// Total on any state: 0 when empty, `max` when the buckets hold
    /// fewer than the rank (a capture racing a record), and never a
    /// panic on `min > max`.
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = quantile_rank(self.count, q);
        if rank == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_bound(i as usize).max(self.min).min(self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|&(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("min".into(), Json::Num(self.min as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    fn from_json(v: &Json) -> Result<HistogramState, String> {
        let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("histogram {k}"));
        let mut buckets = Vec::new();
        for pair in v.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
            let arr = pair.as_array().ok_or("bucket pair not an array")?;
            match arr {
                [i, c] => {
                    let i = i.as_u64().ok_or("bucket index not a u64")?;
                    let c = c.as_u64().ok_or("bucket count not a u64")?;
                    if i as usize >= crate::BUCKETS {
                        return Err(format!("bucket index {i} out of range"));
                    }
                    buckets.push((i as u32, c));
                }
                _ => return Err("bucket pair is not [index, count]".into()),
            }
        }
        let (count, min, max) = (field("count")?, field("min")?, field("max")?);
        if count > 0 && min > max {
            return Err(format!("histogram min {min} exceeds max {max}"));
        }
        Ok(HistogramState { count, sum: field("sum")?, min, max, buckets })
    }
}

/// A lossless point-in-time copy of a registry (or, with the same shape,
/// a delta between two of them — see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryState {
    /// Counter totals (increments, in a delta) by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name (only changed ones, in a delta).
    pub gauges: BTreeMap<String, i64>,
    /// Span histograms by name.
    pub spans: BTreeMap<String, HistogramState>,
    /// Latency histograms by name.
    pub latencies: BTreeMap<String, HistogramState>,
}

impl TelemetryState {
    /// Captures every metric in `reg` at full resolution.
    ///
    /// The capture is **canonical**: counters at 0 and histograms with
    /// no observations are omitted, because the delta encoding (counter
    /// increments, count-gated histograms) cannot distinguish "present
    /// at zero" from "absent" — keeping them would break the exact
    /// snapshot-plus-deltas reconciliation guarantee. Gauges at 0 are
    /// kept: their deltas carry absolute values.
    pub fn capture(reg: &Registry) -> TelemetryState {
        let counters = lock_unpoisoned(&reg.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(std::sync::atomic::Ordering::Relaxed)))
            .filter(|&(_, v)| v > 0)
            .collect();
        let gauges = lock_unpoisoned(&reg.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        TelemetryState {
            counters,
            gauges,
            spans: capture_section(&reg.spans),
            latencies: capture_section(&reg.latencies),
        }
    }

    /// Captures the process-global registry.
    pub fn capture_global() -> TelemetryState {
        TelemetryState::capture(crate::global())
    }

    /// True when a delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.latencies.is_empty()
    }

    /// The delta from `base` to `self`: only changed metrics, with the
    /// per-field semantics described in the module docs. Assumes `self`
    /// was captured after `base` from the same append-only registry.
    pub fn delta_since(&self, base: &TelemetryState) -> TelemetryState {
        let mut out = TelemetryState::default();
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(base.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, &v) in &self.gauges {
            if base.gauges.get(k) != Some(&v) {
                out.gauges.insert(k.clone(), v);
            }
        }
        for (section, base_section, out_section) in [
            (&self.spans, &base.spans, &mut out.spans),
            (&self.latencies, &base.latencies, &mut out.latencies),
        ] {
            for (k, h) in section {
                match base_section.get(k) {
                    Some(old) if old.count == h.count => {}
                    Some(old) => {
                        out_section.insert(k.clone(), h.delta_since(old));
                    }
                    None => {
                        out_section.insert(k.clone(), h.clone());
                    }
                }
            }
        }
        out
    }

    /// Applies a delta produced by [`TelemetryState::delta_since`],
    /// advancing `self` to the later state exactly.
    pub fn apply(&mut self, delta: &TelemetryState) {
        for (k, &d) in &delta.counters {
            *self.counters.entry(k.clone()).or_insert(0) += d;
        }
        for (k, &v) in &delta.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, d) in &delta.spans {
            self.spans.entry(k.clone()).or_default().apply(d);
        }
        for (k, d) in &delta.latencies {
            self.latencies.entry(k.clone()).or_default().apply(d);
        }
    }

    /// Serializes as a `{counters, gauges, spans, latencies}` object.
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let gauges = self.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let spans = self.spans.iter().map(|(k, h)| (k.clone(), h.to_json())).collect();
        let latencies = self.latencies.iter().map(|(k, h)| (k.clone(), h.to_json())).collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("spans".into(), Json::Obj(spans)),
            ("latencies".into(), Json::Obj(latencies)),
        ])
    }

    /// Parses an object produced by [`TelemetryState::to_json`].
    pub fn from_json(doc: &Json) -> Result<TelemetryState, String> {
        let mut out = TelemetryState::default();
        if let Some(fields) = doc.get("counters").and_then(Json::as_object) {
            for (k, v) in fields {
                out.counters.insert(k.clone(), v.as_u64().ok_or(format!("counter {k}"))?);
            }
        }
        if let Some(fields) = doc.get("gauges").and_then(Json::as_object) {
            for (k, v) in fields {
                out.gauges.insert(k.clone(), v.as_i64().ok_or(format!("gauge {k}"))?);
            }
        }
        if let Some(fields) = doc.get("spans").and_then(Json::as_object) {
            for (k, v) in fields {
                out.spans.insert(k.clone(), HistogramState::from_json(v)?);
            }
        }
        if let Some(fields) = doc.get("latencies").and_then(Json::as_object) {
            for (k, v) in fields {
                out.latencies.insert(k.clone(), HistogramState::from_json(v)?);
            }
        }
        Ok(out)
    }

    /// The p50/p90/p99 of span `name` (None if absent).
    pub fn span_quantiles(&self, name: &str) -> Option<[u64; 3]> {
        let h = self.spans.get(name)?;
        Some([0.5, 0.9, 0.99].map(|q| h.quantile(q)))
    }

    /// The p50/p90/p99 of latency `name` (None if absent).
    pub fn latency_quantiles(&self, name: &str) -> Option<[u64; 3]> {
        let h = self.latencies.get(name)?;
        Some([0.5, 0.9, 0.99].map(|q| h.quantile(q)))
    }
}

/// The non-empty histograms of one registry section, read through
/// [`Histogram::state`].
fn capture_section(
    section: &Mutex<BTreeMap<String, Arc<Histogram>>>,
) -> BTreeMap<String, HistogramState> {
    lock_unpoisoned(section)
        .iter()
        .map(|(k, h)| (k.clone(), h.state()))
        .filter(|(_, state)| state.count > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_delta_apply_round_trip() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        reg.record_span_ns("s", 100);
        reg.latency("l").record(7);
        let base = TelemetryState::capture(&reg);

        reg.counter("c").add(4);
        reg.counter("c2").inc();
        reg.gauge("g").set(9);
        reg.record_span_ns("s", 5);
        reg.record_span_ns("s2", 1 << 40);
        reg.latency("l").record(900);
        let current = TelemetryState::capture(&reg);

        let delta = current.delta_since(&base);
        assert_eq!(delta.counters.get("c"), Some(&4));
        assert_eq!(delta.counters.get("c2"), Some(&1));
        assert_eq!(delta.gauges.get("g"), Some(&9));
        assert!(delta.spans.contains_key("s"));
        let mut rebuilt = base.clone();
        rebuilt.apply(&delta);
        assert_eq!(rebuilt, current);
    }

    #[test]
    fn empty_delta_between_identical_states() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.latency("l").record(5);
        let a = TelemetryState::capture(&reg);
        let b = TelemetryState::capture(&reg);
        assert!(b.delta_since(&a).is_empty());
    }

    #[test]
    fn json_round_trip() {
        let reg = Registry::new();
        reg.counter("c").add(41);
        reg.gauge("g").set(-17);
        reg.record_span_ns("s", 12345);
        reg.latency("l").record(77);
        reg.latency("l").record(1 << 30);
        let state = TelemetryState::capture(&reg);
        let text = state.to_json().to_string();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(TelemetryState::from_json(&parsed).expect("from_json"), state);
    }

    #[test]
    fn quantiles_from_state_match_live_histograms() {
        let reg = Registry::new();
        for v in [10u64, 20, 30, 40, 5000] {
            reg.record_span_ns("s", v);
            reg.latency("l").record(v);
        }
        let state = TelemetryState::capture(&reg);
        let span_q = state.span_quantiles("s").expect("span");
        let lat_q = state.latency_quantiles("l").expect("latency");
        assert_eq!(span_q[0], reg.span_histogram("s").quantile_ns(0.5));
        assert_eq!(lat_q[0], reg.latency("l").quantile_ns(0.5));
        assert_eq!(lat_q[2], reg.latency("l").quantile_ns(0.99));
        assert_eq!(span_q, lat_q, "one bucket scheme for both sections");
    }

    #[test]
    fn from_json_rejects_min_above_max() {
        let doc = Json::parse(
            r#"{"latencies":{"x":{"count":1,"sum":0,"min":5,"max":1,"buckets":[[0,1]]}}}"#,
        )
        .expect("parse");
        let err = TelemetryState::from_json(&doc).expect_err("min > max is rejected");
        assert!(err.contains("min 5 exceeds max 1"), "{err}");
    }

    #[test]
    fn quantile_is_total_on_min_above_max() {
        let h = HistogramState { count: 1, sum: 0, min: 5, max: 1, buckets: vec![(0, 1)] };
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 1, "q = {q}");
        }
    }
}
