//! Smoke test: every workload runs in smoke mode, untraced and traced, ends
//! with a correct result line, and prints every metric `BENCHMARK.json`
//! declares for its mode, with the declared unit.

use std::process::Command;

/// The entries of one array section of `BENCHMARK.json`, as raw text (the
/// file is flat: no braces or brackets inside its strings).
fn entries(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.split('{').skip(1).map(str::to_owned).collect()
}

/// The string value of `key` in one entry.
fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
    let value = &entry[at..];
    let open = value.find('"').expect("string value") + 1;
    let close = open + value[open..].find('"').expect("closing quote");
    value[open..close].to_owned()
}

fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let workloads: Vec<String> = entries("workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    assert_eq!(workloads.len(), 3);
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let metrics: Vec<(String, String)> = entries(section)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        assert!(!metrics.is_empty());
        for workload in &workloads {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + key.len()..];
                let value_end = rest.find(',').expect("value is followed by its unit");
                assert!(rest[..value_end].parse::<f64>().is_ok(), "{name}: {rest}");
                let unit_field = format!(", \"unit\": \"{unit}\"}}");
                assert!(
                    rest[value_end..].starts_with(&unit_field),
                    "{workload}: {name} is not in {unit}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
