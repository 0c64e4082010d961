//! Runs `cp-bench --smoke` (all four workloads, both kinds of run, 1/100
//! population) and holds its output against `BENCHMARK.json`: every workload
//! and metric name appears, is well-formed and finite, every per-layer
//! metric is measured by at least one workload, and every self-check passed.

use serde::Value;
use std::collections::BTreeSet;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_obj()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    field(spec, key)
        .as_arr()
        .expect("an array")
        .iter()
        .map(|entry| field(entry, "name").as_str().expect("a name").to_string())
        .collect()
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn smoke_output_matches_benchmark_json() {
    let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert_eq!(workloads.len(), 4);
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "malformed name {name:?}"
        );
    }
    assert!(end_to_end.iter().any(|m| m == "setup_s"));

    // Run where the temp and trace directories may land.
    let output = Command::new(env!("CARGO_BIN_EXE_cp-bench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run cp-bench --smoke");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "cp-bench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!stdout.contains("FAILED CHECK"), "{stdout}");

    // One section per (workload, kind of run): a `# name …` header, metric
    // lines, then the JSON result line.
    let mut measured_layers = BTreeSet::new();
    let mut sections = 0;
    let mut lines = stdout.lines();
    while let Some(header) = lines.next() {
        let Some(rest) = header.strip_prefix("# ") else {
            panic!("expected a section header, got {header:?}");
        };
        let workload = rest.split_whitespace().next().expect("a workload name");
        assert!(
            workloads.iter().any(|w| w == workload),
            "unknown workload {workload}"
        );
        let traced = rest.contains("trace 1");
        let expected = if traced { &per_layer } else { &end_to_end };
        let mut printed = BTreeSet::new();
        let result = loop {
            let line = lines.next().expect("a section ends with its result line");
            if line.starts_with('{') {
                break line;
            }
            if line.starts_with('#') {
                continue;
            }
            let name = line.split_whitespace().next().expect("a metric name");
            assert!(
                expected.iter().any(|m| m == name),
                "{workload}: undeclared metric {name}"
            );
            printed.insert(name.to_string());
            if traced && !line.contains("(layer not run)") {
                measured_layers.insert(name.to_string());
            }
        };
        let result: Value = serde_json::from_str(result).expect("the result line parses");
        assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
        assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
        assert!(number(field(&result, "attempted")) >= 1.0, "{workload}");
        let metrics = field(&result, "metrics");
        for name in expected {
            assert!(printed.contains(name), "{workload}: {name} was not printed");
            let value = number(field(field(metrics, name), "value"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            if !traced {
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end metric {name} = {value}"
                );
            }
        }
        assert_eq!(metrics.as_obj().expect("an object").len(), expected.len());
        sections += 1;
    }
    assert_eq!(
        sections,
        2 * workloads.len(),
        "every workload, both kinds of run"
    );
    for name in &per_layer {
        assert!(
            measured_layers.contains(name),
            "no workload measures {name}"
        );
    }
}
