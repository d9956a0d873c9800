//! Every workload, at `--size small` for half a second, untraced and
//! traced: each metric `BENCHMARK.json` names comes out finite, no
//! operation fails, and bad invocations are refused before any work.

use serde_json::Value;
use std::process::{Command, Output};

const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

fn contract() -> Value {
    serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn itm_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_itm-perf"))
        .args(args)
        .output()
        .expect("itm-perf runs")
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    let doc = contract();
    for workload in names(&doc, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = itm_perf(&[
                "--workload",
                &workload,
                "--size",
                "small",
                "--seconds",
                "0.5",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result is JSON");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            for name in names(&doc, section) {
                let value = metrics
                    .get(&name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} --trace {trace}: {name} missing or not finite"
                );
            }
        }
    }
}

#[test]
fn bad_invocations_exit_2_without_a_result() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "nope"],
        &["--workload", "build", "--trace", "2"],
        &["--workload", "build", "--seconds", "0"],
        &["--workload", "build", "--size", "huge"],
        &["--workload", "build", "--calibrate", "1"],
        &["--workload", "build", "--bogus"],
    ] {
        let out = itm_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
