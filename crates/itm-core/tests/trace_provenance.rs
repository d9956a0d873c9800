//! Tracing must record the map build without perturbing it.
//!
//! One test body (not several) because the trace log is global: parallel
//! test threads toggling it would race. Two properties are checked on a
//! single traced small-substrate run:
//!
//! 1. byte-identical map summary with tracing on vs off (tracing is an
//!    observer, not a participant);
//! 2. the Chrome-trace export round-trips as JSON with the schema
//!    Perfetto needs (`traceEvents` with `ph`/`ts`/`pid`/`tid`/`name`,
//!    balanced B/E pairs per thread).

use itm_core::{MapConfig, MapSummary, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use serde_json::Value;

fn build_summary(seed: u64) -> String {
    let s = Substrate::build(SubstrateConfig::small(), seed).unwrap();
    let m = TrafficMap::build(&s, &MapConfig::default()).expect("map build");
    MapSummary::extract(&s, &m).to_json().expect("serializable")
}

#[test]
fn tracing_is_deterministic_and_exports_a_valid_chrome_trace() {
    // Baseline: everything off (the default state).
    itm_obs::set_enabled(false);
    itm_obs::trace::set_enabled(false);
    let off = build_summary(42);

    // Same seed, trace ring and metrics registry live.
    itm_obs::set_enabled(true);
    itm_obs::reset();
    itm_obs::trace::set_seed(42);
    itm_obs::trace::reset();
    itm_obs::trace::set_enabled(true);
    let on = build_summary(42);
    let snap = itm_obs::trace::snapshot();
    itm_obs::trace::set_enabled(false);
    itm_obs::set_enabled(false);

    // 1. Tracing never perturbs the map.
    assert_eq!(off, on, "tracing changed the map summary");
    assert!(!snap.records.is_empty(), "traced run recorded nothing");

    // 2. The Chrome-trace export is schema-valid JSON.
    let exported = serde_json::to_string(&itm_obs::chrome_trace(&snap)).unwrap();
    let v: Value = serde_json::from_str(&exported).expect("trace.json is not valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let other = v.get("otherData").expect("otherData object");
    assert!(other
        .get("dropped_events")
        .and_then(Value::as_u64)
        .is_some());
    assert!(other.get("capacity").and_then(Value::as_u64).is_some());

    let mut open_per_tid: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        for key in ["ts", "pid", "tid"] {
            assert!(
                ev.get(key).and_then(Value::as_u64).is_some(),
                "missing {key}"
            );
        }
        assert!(
            ev.get("name").and_then(Value::as_str).is_some(),
            "missing name"
        );
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap();
        match ph {
            "B" => *open_per_tid.entry(tid).or_default() += 1,
            "E" => {
                let open = open_per_tid.entry(tid).or_default();
                *open -= 1;
                assert!(*open >= 0, "E without matching B on tid {tid}");
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, open) in open_per_tid {
        assert_eq!(open, 0, "unbalanced B/E on tid {tid}");
    }
}
