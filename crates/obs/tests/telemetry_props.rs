//! Property tests for the live-telemetry primitives:
//!
//! * **snapshot → delta → apply round-trip** — arbitrary interleaved
//!   registry mutations (counter adds, gauge sets, span records, latency
//!   records) reconstruct exactly: for consecutive captures `S0, S1, S2`,
//!   `S0 + Δ(S0→S1) == S1` and `(S0 + Δ₁) + Δ₂ == S2`, field for field
//!   including every histogram bucket.
//! * **quantile correctness vs a sorted-vector oracle** — for arbitrary
//!   observation sets and arbitrary `q`, a live histogram, the registry's
//!   span and latency sections and their captured states all report
//!   exactly the bucket upper bound of the oracle's nearest-rank value
//!   (clamped to `[min, max]`), and the documented `1/16` relative error
//!   bound holds.
//! * **wire round-trip** — `to_json → parse → from_json` is the identity
//!   on states and deltas (values kept in the f64-exact 53-bit range).

use locap_obs::telemetry::TelemetryState;
use locap_obs::{bucket_index, bucket_upper_bound, quantile_rank, Histogram, Registry, BUCKETS};
use proptest::prelude::*;

/// Metric names exercising path separators and escaping.
const NAMES: &[&str] = &["alpha", "beta/gamma", "telemetry/dropped", "é∆"];

/// One registry mutation: `kind` picks the metric family, `name` the
/// metric, `value` the operand (pre-masked to a sum-overflow-safe range).
type Mutation = (u8, usize, u64);

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..4, 0usize..NAMES.len(), any::<u64>()).prop_map(|(kind, name, raw)| {
        // 40-bit values: sums of hundreds of them stay far below both
        // u64 overflow and the 2^53 f64-exact JSON range.
        (kind, name, raw & ((1u64 << 40) - 1))
    })
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(mutation(), 0usize..24)
}

fn apply_mutations(reg: &Registry, muts: &[Mutation]) {
    for &(kind, name, value) in muts {
        let name = NAMES[name % NAMES.len()];
        match kind {
            0 => reg.counter(name).add(value),
            1 => reg.gauge(name).set(value as i64),
            2 => reg.record_span_ns(name, value),
            _ => reg.latency(name).record(value),
        }
    }
}

/// Observation values for the quantile oracle: a mix of zeros, tiny
/// values (exact buckets), mid-range and huge.
fn observation() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u8..8).prop_map(|(v, pick)| match pick {
        0 => 0,
        1 => v % 16,
        2 => v & 0xffff,
        _ => v & ((1u64 << 53) - 1),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_delta_apply_reconstructs_exactly(
        m1 in mutations(), m2 in mutations(), m3 in mutations()
    ) {
        let reg = Registry::new();
        apply_mutations(&reg, &m1);
        let s0 = TelemetryState::capture(&reg);
        apply_mutations(&reg, &m2);
        let s1 = TelemetryState::capture(&reg);
        apply_mutations(&reg, &m3);
        let s2 = TelemetryState::capture(&reg);

        let d1 = s1.delta_since(&s0);
        let d2 = s2.delta_since(&s1);
        // no mutations ⇒ empty delta (the converse can fail: a gauge
        // re-set to its current level or a counter add of 0 is invisible)
        prop_assert!(!m2.is_empty() || d1.is_empty(), "no mutations must yield an empty delta");

        let mut rebuilt = s0.clone();
        rebuilt.apply(&d1);
        prop_assert_eq!(&rebuilt, &s1);
        rebuilt.apply(&d2);
        prop_assert_eq!(&rebuilt, &s2);

        // a self-delta is always empty
        prop_assert!(s2.delta_since(&s2).is_empty());
    }

    #[test]
    fn state_and_delta_json_round_trip(m1 in mutations(), m2 in mutations()) {
        let reg = Registry::new();
        apply_mutations(&reg, &m1);
        let s0 = TelemetryState::capture(&reg);
        apply_mutations(&reg, &m2);
        let s1 = TelemetryState::capture(&reg);
        for state in [&s0, &s1, &s1.delta_since(&s0)] {
            let text = state.to_json().to_string();
            let doc = locap_obs::json::Json::parse(&text)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back = TelemetryState::from_json(&doc).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&back, state);
        }
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle(
        values in prop::collection::vec(observation(), 1usize..64),
        qs in prop::collection::vec(0u32..=100, 1usize..8),
    ) {
        let hist = Histogram::default();
        let reg = Registry::new();
        for &v in &values {
            hist.record(v);
            reg.record_span_ns("s", v);
            reg.latency("l").record(v);
        }
        let state = TelemetryState::capture(&reg);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let count = sorted.len() as u64;
        let oracle = |q: f64| {
            let rank = quantile_rank(count, q);
            let v = sorted[(rank - 1) as usize];
            (v, bucket_upper_bound(bucket_index(v)).clamp(min, max))
        };

        for &q100 in &qs {
            let q = q100 as f64 / 100.0;
            let rank = quantile_rank(count, q);
            prop_assert!(rank >= 1 && rank <= count);
            let (v, want) = oracle(q);
            prop_assert_eq!(hist.quantile_ns(q), want, "live q={}", q);
            prop_assert_eq!(reg.span_histogram("s").quantile_ns(q), want, "span q={}", q);
            prop_assert_eq!(state.spans["s"].quantile(q), want, "span state q={}", q);
            prop_assert_eq!(state.latencies["l"].quantile(q), want, "latency state q={}", q);
            // documented error bound: <= 1/16 relative, exact below 16
            prop_assert!(want >= v && want - v <= v / 16,
                "quantile {} for rank value {}", want, v);
        }
        let want = [0.5, 0.9, 0.99].map(|q| oracle(q).1);
        prop_assert_eq!(state.span_quantiles("s"), Some(want));
        prop_assert_eq!(state.latency_quantiles("l"), Some(want));
        prop_assert_eq!(reg.span_histogram("s").snapshot().p50_ns, want[0]);
    }

    #[test]
    fn fine_buckets_partition_the_domain(v in observation()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(bucket_upper_bound(i - 1) < v,
                "value {} below bucket {}'s lower edge", v, i);
        }
    }
}

#[test]
fn fine_bucket_extremes() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(15), 15);
    assert_eq!(bucket_index(16), 16);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    for v in [0u64, 1, 15, 16, 17, 31, 32, 1 << 20, u64::MAX - 1, u64::MAX] {
        let h = Histogram::default();
        h.record(v);
        assert_eq!(h.quantile_ns(0.5), v, "single observation is exact via clamp");
    }
}

#[test]
fn quantile_empty_and_single() {
    let h = Histogram::default();
    assert_eq!(h.quantile_ns(0.5), 0);
    h.record(1000);
    assert_eq!(h.quantile_ns(0.0), 1000);
    assert_eq!(h.quantile_ns(1.0), 1000);
}
