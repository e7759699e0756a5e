//! `BENCHMARK.json` and `bf_perf`'s output agree, and the command line
//! follows the repository's CLI contract.

use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_bf_perf");

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
}

fn str_field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has a string {key}"))
}

/// name -> unit of one metric list.
fn declared(doc: &Value, key: &str) -> BTreeMap<String, String> {
    list(doc, key)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_owned(),
                str_field(m, "unit").to_owned(),
            )
        })
        .collect()
}

/// name -> unit of one result line's metrics.
fn emitted(result: &Value) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("result has metrics")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), str_field(m, "unit").to_owned())
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("bf_perf runs")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("bf_perf printed a result");
    serde_json::from_str(line).expect("the last line is JSON")
}

/// Every declared metric is emitted with its unit, and nothing else.
/// With telemetry compiled out the counter-derived metrics are absent,
/// so only inclusion is checked.
fn assert_metrics(result: &Value, expected: &BTreeMap<String, String>, what: &str) {
    let got = emitted(result);
    if bf_telemetry::enabled() {
        assert_eq!(&got, expected, "{what}");
    } else {
        for (name, unit) in &got {
            assert_eq!(expected.get(name), Some(unit), "{what}: {name}");
        }
    }
}

fn assert_clean(result: &Value, what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
}

#[test]
fn benchmark_json_is_within_limits() {
    let doc = benchmark();
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = list(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    let per_layer = list(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for entry in workloads.iter().chain(end_to_end).chain(per_layer) {
        let name = str_field(entry, "name");
        assert!(name_ok(name), "bad name {name}");
        assert!(seen.insert(name.to_owned()), "{name} used twice");
    }
    for metric in end_to_end {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let known: Vec<&str> = bf_perf::BenchWorkload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(names, known, "BENCHMARK.json lists the binary's workloads");
}

#[test]
fn quick_run_emits_every_declared_metric() {
    let doc = benchmark();
    let mut expected = declared(&doc, "end_to_end");
    expected.extend(declared(&doc, "per_layer"));
    let output = run(&["--quick"]);
    assert!(output.status.success(), "{output:?}");
    let summary = last_line(&output);
    let results = summary
        .get("workloads")
        .and_then(Value::as_object)
        .expect("summary lists the workloads");
    assert_eq!(results.len(), bf_perf::BenchWorkload::ALL.len());
    for (workload, result) in results {
        assert_clean(result, workload);
        assert_metrics(result, &expected, workload);
    }
}

#[test]
fn trace_flag_selects_the_metric_set() {
    let doc = benchmark();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = run(&["--quick", "--workload", "faas-sparse", "--trace", trace]);
        assert!(output.status.success(), "{output:?}");
        let result = last_line(&output);
        assert_clean(&result, key);
        assert_metrics(&result, &declared(&doc, key), key);
    }
}

#[test]
fn cli_contract() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));
    for bad in [
        &["--quikc"][..],
        &["--workload", "nope"],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--seed"],
    ] {
        let output = run(bad);
        assert_eq!(output.status.code(), Some(2), "{bad:?}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
    }
}
