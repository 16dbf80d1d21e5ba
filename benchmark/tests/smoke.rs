//! `--quick` smoke of the benchmark binary: ≈ 5 jobs per workload, every
//! result verified, and the exact-count metrics identical across two runs
//! of one seed and across two seeds.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use max_telemetry::report::JsonValue;

const WORKLOADS: [&str; 4] = [
    "cold_inline",
    "concurrent_inline",
    "warm_prepared",
    "warm_journaled",
];

/// Runs the binary the way the driver does (plus `--quick`) and returns
/// the JSON object on its last line.
fn quick(workload: &str, seed: u64, trace: bool) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_max-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "20", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = json::as_object(&doc)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    doc
}

fn metric(doc: &JsonValue, name: &str) -> f64 {
    json::get(doc, "metrics")
        .and_then(|m| json::get(m, name))
        .and_then(|m| json::get(m, "value"))
        .and_then(json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_all_verified(doc: &JsonValue, workload: &str) {
    assert_eq!(
        json::get(doc, "correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        json::get(doc, "failed"),
        Some(&JsonValue::UInt(0)),
        "{workload}"
    );
    let attempted = json::get(doc, "attempted").and_then(json::as_f64).unwrap();
    assert!(
        attempted >= 5.0,
        "{workload} attempted only {attempted} jobs"
    );
}

#[test]
fn end_to_end_counts_repeat_across_runs_and_seeds() {
    for workload in WORKLOADS {
        let runs = [
            quick(workload, 1, false),
            quick(workload, 1, false),
            quick(workload, 2, false),
        ];
        for doc in &runs {
            assert_all_verified(doc, workload);
            assert!(metric(doc, "job_ms_p50") > 0.0);
            assert!(metric(doc, "setup_s") > 0.0);
        }
        for name in ["wire_bytes_per_mac", "fabric_cycles_per_mac"] {
            let first = metric(&runs[0], name);
            assert!(first > 0.0, "{workload}.{name}");
            for doc in &runs[1..] {
                assert_eq!(
                    metric(doc, name),
                    first,
                    "{workload}.{name} must repeat exactly"
                );
            }
        }
    }
}

#[test]
fn layer_counts_repeat_across_runs_and_seeds() {
    for workload in WORKLOADS {
        let runs = [
            quick(workload, 1, true),
            quick(workload, 1, true),
            quick(workload, 2, true),
        ];
        for doc in &runs {
            assert_all_verified(doc, workload);
        }
        for name in [
            "netlist.and_gates_per_mac",
            "rng.labels_per_mac",
            "registry.stored_bytes_per_mac",
            "serve.journal.appends_per_job",
        ] {
            let first = metric(&runs[0], name);
            for doc in &runs[1..] {
                assert_eq!(
                    metric(doc, name),
                    first,
                    "{workload}.{name} must repeat exactly"
                );
            }
        }
        assert_eq!(metric(&runs[0], "netlist.and_gates_per_mac"), 182.0);
        // Only the journaled workload appends: one checkpoint before READY,
        // one per element boundary, one tombstone.
        let appends = metric(&runs[0], "serve.journal.appends_per_job");
        assert_eq!(
            appends > 0.0,
            workload == "warm_journaled",
            "{workload}: {appends}"
        );
        // Garbling shows on the request path exactly where it should.
        let garble_ms = metric(&runs[0], "serve.garble_ms");
        assert_eq!(
            garble_ms > 0.0,
            workload.ends_with("inline"),
            "{workload}: {garble_ms}"
        );
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_max-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("spawn the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
