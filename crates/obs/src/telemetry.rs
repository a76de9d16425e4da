//! Point-in-time registry snapshots with delta-encoding, for scoping a
//! window and sending metrics over the wire.
//!
//! A [`TelemetryState`], as
//! [`Registry::snapshot`](crate::Registry::snapshot) returns it, holds
//! *every* metric of a registry at full resolution — counter totals,
//! gauge levels, and the complete (sparse) bucket vectors of the span and
//! latency histograms, both read through
//! [`Histogram::state`](crate::Histogram::state). It is lossless:
//! applying a stream of deltas to a base state reconstructs the later
//! state **exactly**, field for field, and a summary such as a p50 is
//! computed from it on demand ([`HistogramState::quantile`]).
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
//! increments (saturating, since a delta read off the wire may carry any
//! `u64`), overwrite gauges and histogram min/max. `apply ∘
//! delta_since` is the identity on reachable states — this is proptested
//! in `tests/telemetry_props.rs` — so a delta between two snapshots
//! loses and double-counts no metric. `delta_since` scopes a window: the
//! `locap` CLI and `locapd` bracket a pipeline with two snapshots and
//! write the delta into the provenance sidecar, and `locap watch` takes
//! its counter rates from the delta between two polls of `locapd`'s
//! `stats` op.
//!
//! The one operation outside the model is
//! [`Registry::reset`](crate::Registry::reset) (and counter handles held
//! across one): deltas assume metrics are append-only, which holds for
//! the daemon (it never resets its registry).
//!
//! # Wire format
//!
//! [`TelemetryState::to_json`] serializes through the in-crate [`Json`]
//! writer as an object `{counters, gauges, spans, latencies}`; histogram
//! buckets are sparse `[index, count]` pairs. Values are exact up to
//! 2^53 (the `f64` integer range of the JSON number type), far beyond
//! any realistic counter or nanosecond total. It is the one registry
//! document: the `registry` of `locapd`'s `stats` result, of every
//! `OBS_JSON=1` line and of every provenance sidecar, and
//! [`TelemetryState::from_json`] is its one reader.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{bucket_upper_bound, quantile_rank};

/// Lossless histogram state: exact aggregates plus sparse bucket counts,
/// as [`Histogram::state`](crate::Histogram::state) reads them.
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
        self.count = self.count.saturating_add(delta.count);
        self.sum = self.sum.saturating_add(delta.sum);
        self.min = delta.min;
        self.max = delta.max;
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &delta.buckets {
            let bucket = merged.entry(i).or_insert(0);
            *bucket = bucket.saturating_add(c);
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
    /// advancing `self` to the later state exactly. Sums that would pass
    /// `u64::MAX` stop there.
    pub fn apply(&mut self, delta: &TelemetryState) {
        for (k, &d) in &delta.counters {
            let total = self.counters.entry(k.clone()).or_insert(0);
            *total = total.saturating_add(d);
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

    /// Parses an object produced by [`TelemetryState::to_json`]; an
    /// absent section reads as empty.
    pub fn from_json(doc: &Json) -> Result<TelemetryState, String> {
        if doc.as_object().is_none() {
            return Err("registry is not an object".into());
        }
        let section = |key: &str| match doc.get(key) {
            None => Ok(&[][..]),
            Some(v) => v.as_object().ok_or(format!("{key} is not an object")),
        };
        let mut out = TelemetryState::default();
        for (k, v) in section("counters")? {
            out.counters.insert(k.clone(), v.as_u64().ok_or(format!("counter {k}"))?);
        }
        for (k, v) in section("gauges")? {
            out.gauges.insert(k.clone(), v.as_i64().ok_or(format!("gauge {k}"))?);
        }
        for (k, v) in section("spans")? {
            out.spans.insert(k.clone(), HistogramState::from_json(v)?);
        }
        for (k, v) in section("latencies")? {
            out.latencies.insert(k.clone(), HistogramState::from_json(v)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn capture_delta_apply_round_trip() {
        let reg = Registry::new();
        let (c, c2, g, l) = (reg.counter("c"), reg.counter("c2"), reg.gauge("g"), reg.latency("l"));
        c.add(3);
        g.set(-2);
        reg.record_span_ns("s", 100);
        l.record(7);
        let base = reg.snapshot();

        c.add(4);
        c2.inc();
        g.set(9);
        reg.record_span_ns("s", 5);
        reg.record_span_ns("s2", 1 << 40);
        l.record(900);
        let current = reg.snapshot();

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
        let a = reg.snapshot();
        let b = reg.snapshot();
        assert!(b.delta_since(&a).is_empty());
    }

    #[test]
    fn json_round_trip() {
        let reg = Registry::new();
        reg.counter("c").add(41);
        reg.gauge("g").set(-17);
        reg.record_span_ns("s", 12345);
        let l = reg.latency("l");
        l.record(77);
        l.record(1 << 30);
        let state = reg.snapshot();
        let text = state.to_json().to_string();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(TelemetryState::from_json(&parsed).expect("from_json"), state);
    }

    #[test]
    fn quantiles_from_state_match_live_histograms() {
        let reg = Registry::new();
        let l = reg.latency("l");
        for v in [10u64, 20, 30, 40, 5000] {
            reg.record_span_ns("s", v);
            l.record(v);
        }
        let state = reg.snapshot();
        let quantiles = |h: &HistogramState| [0.5, 0.9, 0.99].map(|q| h.quantile(q));
        let lat_q = quantiles(&state.latencies["l"]);
        assert_eq!(lat_q, quantiles(&l.state()));
        assert_eq!(quantiles(&state.spans["s"]), lat_q, "one bucket scheme for both sections");
    }

    #[test]
    fn from_json_rejects_what_is_not_an_object() {
        let cases = [
            ("[]", "registry is not an object"),
            (r#"{"counters":[]}"#, "counters is not an object"),
            (r#"{"gauges":3}"#, "gauges is not an object"),
            (r#"{"spans":"s"}"#, "spans is not an object"),
            (r#"{"latencies":null}"#, "latencies is not an object"),
        ];
        for (text, want) in cases {
            let doc = Json::parse(text).expect("parse");
            let err = TelemetryState::from_json(&doc).expect_err(text);
            assert_eq!(err, want, "{text}");
        }
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

    /// A delta parsed off the wire may carry any count up to
    /// `u64::MAX`: two such deltas saturate instead of overflowing.
    #[test]
    fn applying_wire_deltas_saturates() {
        let doc = Json::parse(
            r#"{"counters":{"c":1.8e19},"latencies":{"l":
                {"count":1.8e19,"sum":1.8e19,"min":1,"max":2,"buckets":[[1,1.8e19]]}}}"#,
        )
        .expect("parse");
        let delta = TelemetryState::from_json(&doc).expect("a well-formed delta");
        let mut state = TelemetryState::default();
        state.apply(&delta);
        state.apply(&delta);
        assert_eq!(state.counters["c"], u64::MAX);
        let l = &state.latencies["l"];
        assert_eq!(
            (l.count, l.sum, l.buckets.as_slice()),
            (u64::MAX, u64::MAX, &[(1, u64::MAX)][..])
        );
    }

    #[test]
    fn quantile_is_total_on_min_above_max() {
        let h = HistogramState { count: 1, sum: 0, min: 5, max: 1, buckets: vec![(0, 1)] };
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 1, "q = {q}");
        }
    }
}
