//! The benchmark's own test: every workload at tiny size, untraced and
//! traced, through the same code paths as the gated runs. It checks
//! that each run is correct (the replay identities included), that each
//! emits exactly the metrics of its kind with non-zero end-to-end
//! values, and that `BENCHMARK.json` declares the same metrics with the
//! same units and directions as the metric table.

use crate::instances::Scale;
use crate::metrics::{Kind, TABLE};
use crate::workloads::{self, RunSpec};
use serde_json::Value;

/// Run the self-test, printing each problem; true when there is none.
pub fn run() -> bool {
    let mut problems = Vec::new();
    for &name in workloads::WORKLOADS {
        for trace in [false, true] {
            let spec = RunSpec {
                scale: Scale::Tiny,
                seed: 3,
                seconds: 0.5,
                trace,
            };
            let rep = workloads::run(name, &spec).expect("listed workloads exist");
            let what = format!("{name} trace={}", trace as u8);
            for e in &rep.errors {
                problems.push(format!("{what}: {e}"));
            }
            if !rep.correct() {
                problems.push(format!("{what}: run is not correct"));
            }
            let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
            let expected: Vec<&str> = TABLE
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| m.name)
                .collect();
            let mut emitted = rep.names();
            emitted.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            if emitted != want {
                problems.push(format!("{what}: emitted {emitted:?}, expected {want:?}"));
            }
            if !trace {
                for m in &expected {
                    if rep.get(m).is_none_or(|v| v <= 0.0 || !v.is_finite()) {
                        problems.push(format!("{what}: {m} is {:?}", rep.get(m)));
                    }
                }
            }
            let json = rep.json();
            if serde_json::from_str::<Value>(&json).is_err() {
                problems.push(format!("{what}: result line is not JSON: {json}"));
            }
        }
    }
    problems.extend(check_declaration());
    for p in &problems {
        println!("selftest: {p}");
    }
    println!(
        "selftest: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    problems.is_empty()
}

/// `BENCHMARK.json` (at the repository root, run from there or from the
/// benchmark's directory) must list the table's metrics of each kind.
fn check_declaration() -> Vec<String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok());
    let Some(text) = text else {
        return vec!["BENCHMARK.json not found".to_string()];
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("BENCHMARK.json: {e:?}")],
    };
    let mut problems = Vec::new();
    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
        let declared: Vec<(String, String, String)> = doc
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let table: Vec<(String, String, String)> = TABLE
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        if declared != table {
            problems.push(format!(
                "BENCHMARK.json {key} {declared:?} differs from the table {table:?}"
            ));
        }
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if names != workloads::WORKLOADS {
        problems.push(format!("BENCHMARK.json workloads {names:?}"));
    }
    problems
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        assert!(super::run());
    }
}
