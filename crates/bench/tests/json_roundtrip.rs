//! Property tests for the `OBS_JSON` line: [`gate::render_line`] over a
//! registry snapshot, read back by [`gate::parse_baseline`], must
//! reproduce every counter and gauge exactly and give each span a row
//! with its sample count, minimum and p50, including metric names that
//! need string escaping, extreme values, and empty registries.
//!
//! Precision note: the JSON transport carries numbers as `f64`, so
//! integers round-trip exactly up to 2^53. The generators therefore mask
//! bulk values to 53 bits and cover the extremes (`u64::MAX`,
//! `i64::MIN`, `i64::MAX`) explicitly — those survive because the f64
//! conversion lands exactly on a representable power of two and the
//! narrowing cast saturates back to the original.

use locap_bench::gate::{self, SCHEMA_VERSION};
use locap_obs::telemetry::{HistogramState, TelemetryState};
use locap_obs::{Histogram, BUCKETS};
use proptest::prelude::*;

/// Characters metric names are built from — ASCII plus everything the
/// escaper must handle: quotes, backslashes, control chars, non-ASCII,
/// and the path separator.
const NAME_PALETTE: &[char] =
    &['a', 'Z', '9', '_', '/', ' ', '"', '\\', '\n', '\t', '\u{7f}', 'é', '∆', '🔥'];

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..NAME_PALETTE.len(), 1usize..12)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_PALETTE[i]).collect())
}

/// Counter values: mostly 53-bit-exact, with `u64::MAX` and 0 forced in.
fn counter_value() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u8..8).prop_map(|(v, pick)| match pick {
        0 => u64::MAX,
        1 => 0,
        _ => v & ((1u64 << 53) - 1),
    })
}

/// Gauge values: mostly 53-bit-exact magnitudes, extremes forced in.
fn gauge_value() -> impl Strategy<Value = i64> {
    (any::<i64>(), 0u8..8).prop_map(|(v, pick)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        _ => v % (1i64 << 53),
    })
}

/// A span histogram as a registry records it; observations stay below
/// 2^40 so that sums of a dozen stay within the f64-exact range.
fn span_state() -> impl Strategy<Value = HistogramState> {
    prop::collection::vec(any::<u64>(), 1usize..12).prop_map(|values| {
        let h = Histogram::default();
        for v in values {
            h.record(v & ((1u64 << 40) - 1));
        }
        h.state()
    })
}

fn state_strategy() -> impl Strategy<Value = TelemetryState> {
    (
        prop::collection::vec((name_strategy(), counter_value()), 0usize..6),
        prop::collection::vec((name_strategy(), gauge_value()), 0usize..6),
        prop::collection::vec((name_strategy(), span_state()), 0usize..6),
    )
        .prop_map(|(counters, gauges, spans)| TelemetryState {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            spans: spans.into_iter().collect(),
            latencies: Default::default(),
        })
}

/// Renders `state`, reads the line back and checks it field by field.
fn assert_round_trip(source: &str, state: &TelemetryState) -> Result<(), TestCaseError> {
    let text = gate::render_line(source, state);
    prop_assert_eq!(text.lines().count(), 1, "single-line export");
    let back = gate::parse_baseline(&text).map_err(TestCaseError::fail)?;
    prop_assert_eq!(back.schema, SCHEMA_VERSION);
    prop_assert_eq!(&back.counters, &state.counters);
    prop_assert_eq!(&back.gauges, &state.gauges);
    prop_assert!(back.rows.keys().eq(state.spans.keys()), "one row per span");
    for (name, h) in &state.spans {
        let row = &back.rows[name];
        prop_assert_eq!(row.bench.as_str(), source);
        prop_assert_eq!((row.samples, row.min_ns), (h.count, h.min), "{:?}", name);
        prop_assert_eq!(row.median_ns, h.quantile(0.5), "{:?}", name);
        prop_assert_eq!((row.total_ns, row.max_ns), (Some(h.sum), Some(h.max)), "{:?}", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_json_round_trips_exactly(state in state_strategy()) {
        assert_round_trip("roundtrip_prop", &state)?;
    }

    #[test]
    fn escaped_names_survive_reparse(name in name_strategy(), v in counter_value()) {
        let mut state = TelemetryState::default();
        state.counters.insert(name.clone(), v);
        let span = HistogramState { count: 1, sum: 5, min: 5, max: 5, buckets: vec![(5, 1)] };
        state.spans.insert(name, span);
        assert_round_trip("esc", &state)?;
    }
}

#[test]
fn empty_snapshot_round_trips() {
    assert_round_trip("empty", &TelemetryState::default()).expect("empty round-trip");
}

#[test]
fn u64_max_counter_round_trips() {
    let mut state = TelemetryState::default();
    state.counters.insert("max".into(), u64::MAX);
    state.gauges.insert("min".into(), i64::MIN);
    state.gauges.insert("max".into(), i64::MAX);
    state.spans.insert(
        "saturated".into(),
        HistogramState {
            count: u64::MAX,
            sum: u64::MAX,
            min: u64::MAX,
            max: u64::MAX,
            buckets: vec![(BUCKETS as u32 - 1, u64::MAX)],
        },
    );
    assert_round_trip("extremes", &state).expect("extremes round-trip");
}
