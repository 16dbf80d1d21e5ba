//! The metric dictionary, the result envelope, the run-file format and
//! `compare`.
//!
//! `BENCHMARK.json` at the repo root lists the same names, units and bounds;
//! a unit test keeps the two in step.

use std::process::Command;

use max_crypto::AesBackend;
use max_telemetry::report::JsonValue;

use crate::json::{as_array, as_f64, as_object, as_str, get};
use crate::stats::{median, spread};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the dictionary.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median the metric may worsen by before it
    /// counts as a regression. `None` on per-layer metrics.
    pub bound: Option<f64>,
    /// A count that must repeat exactly between runs of one commit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(def: MetricDef) -> MetricDef {
    MetricDef { exact: true, ..def }
}

use Better::{Higher, Lower};

/// What a client of the service sees, per workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("job_ms_p50", "ms", Lower, 0.25),
    e2e("ready_ms_p50", "ms", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("macs_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_job", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    exact(e2e("wire_bytes_per_mac", "B", Lower, 0.01)),
    exact(e2e("fabric_cycles_per_mac", "cycles", Lower, 0.01)),
];

/// Single-layer costs, named `<crate>.<module>.<what>`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("netlist.mac_build_us", "us", Lower),
    exact(layer("netlist.and_gates_per_mac", "count", Lower)),
    layer("core.schedule.compile_us", "us", Lower),
    layer("rng.label_us", "us", Lower),
    layer("rng.gated_clock_us", "us", Lower),
    layer("rng.generator_new_us", "us", Lower),
    exact(layer("rng.labels_per_mac", "count", Lower)),
    layer("crypto.hash_ns_per_block", "ns", Lower),
    layer("crypto.prg_ns_per_block", "ns", Lower),
    layer("crypto.digest_mb_per_s", "MB/s", Higher),
    layer("gc.garble_us_per_mac", "us", Lower),
    layer("gc.evaluate_us_per_mac", "us", Lower),
    layer("gc.channel.seal_open_mb_per_s", "MB/s", Higher),
    layer("gc.channel.tables_codec_mb_per_s", "MB/s", Higher),
    layer("gc.transport.tcp_rtt_us", "us", Lower),
    layer("gc.transport.tcp_mb_per_s", "MB/s", Higher),
    layer("ot.setup_ms", "ms", Lower),
    layer("ot.extend_us_per_transfer", "us", Lower),
    layer("core.accelerator.garble_us_per_mac", "us", Lower),
    layer("core.accelerator.evaluate_us_per_mac", "us", Lower),
    layer("core.accelerator.self_us_per_mac", "us", Lower),
    layer("core.accelerator.overhead_x", "x", Lower),
    layer("core.remote.garble_job_ms", "ms", Lower),
    layer("core.remote.materialize_us", "us", Lower),
    layer("core.remote.stream_digest_us", "us", Lower),
    layer("core.remote.burst_codec_us", "us", Lower),
    layer("core.remote.handshake_ms", "ms", Lower),
    layer("registry.fill_ms_per_stream", "ms", Lower),
    layer("registry.acquire_us", "us", Lower),
    exact(layer("registry.stored_bytes_per_mac", "B", Lower)),
    layer("serve.resume.checkpoint_codec_us", "us", Lower),
    layer("serve.journal.append_us", "us", Lower),
    layer("serve.journal.append_nofsync_us", "us", Lower),
    exact(layer("serve.journal.appends_per_job", "count", Lower)),
    layer("serve.queue_wait_ms", "ms", Lower),
    layer("serve.garble_ms", "ms", Lower),
    layer("serve.stream_ms", "ms", Lower),
    layer("serve.job_ms_p90", "ms", Lower),
    layer("serve.scheduler.admission_overhead_ms", "ms", Lower),
    layer("serve.scheduler.parallel_efficiency", "ratio", Higher),
    layer("telemetry.trace_overhead_pct", "%", Lower),
    layer("trace.model_coverage", "ratio", Higher),
];

/// Looks a metric up in either list.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `{"name": {"value": v, "unit": u}, ...}` in dictionary order, refusing a
/// value the dictionary does not know or a dictionary entry left unset.
pub fn metrics_json(defs: &[MetricDef], values: &[(&str, f64)]) -> Result<JsonValue, String> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {stray} is not in the dictionary"));
    }
    let mut out = JsonValue::object();
    for def in defs {
        let (_, value) = values
            .iter()
            .find(|(n, _)| *n == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        let mut entry = JsonValue::object();
        entry
            .push("value", JsonValue::Float(*value))
            .push("unit", JsonValue::Str(def.unit.to_string()));
        out.push(def.name, entry);
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
pub fn envelope(seed: u64, wall_s: f64) -> JsonValue {
    let mut env = JsonValue::object();
    env.push(
        "git_rev",
        JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
    )
    .push(
        "nproc",
        JsonValue::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    )
    .push(
        "aes_backend",
        JsonValue::Str(AesBackend::active().label().to_string()),
    )
    .push(
        "rustc",
        JsonValue::Str(command_line("rustc", &["--version"])),
    )
    .push(
        "profile",
        JsonValue::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    )
    .push("seed", JsonValue::UInt(seed))
    .push("wall_s", JsonValue::Float(wall_s));
    env
}

/// `(workload, metric) -> values` read back from a run file.
pub type RunValues = Vec<(String, Vec<(String, Vec<f64>)>)>;

pub fn run_values(doc: &JsonValue) -> Result<RunValues, String> {
    let workloads = get(doc, "workloads")
        .and_then(as_object)
        .ok_or("run file has no \"workloads\" object")?;
    workloads
        .iter()
        .map(|(workload, body)| {
            let metrics = get(body, "metrics")
                .and_then(as_object)
                .ok_or_else(|| format!("{workload}: no \"metrics\" object"))?;
            let metrics = metrics
                .iter()
                .map(|(name, entry)| {
                    let values = get(entry, "values")
                        .and_then(as_array)
                        .ok_or_else(|| format!("{workload}.{name}: no \"values\" array"))?
                        .iter()
                        .map(|v| as_f64(v).ok_or_else(|| format!("{workload}.{name}: non-number")))
                        .collect::<Result<Vec<f64>, String>>()?;
                    Ok((name.clone(), values))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((workload.clone(), metrics))
        })
        .collect()
}

/// One row of `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed so that positive is *worse*.
    pub worse_by: f64,
    pub bound: Option<f64>,
    pub verdict: &'static str,
}

/// Verdict for one metric: `a` is the baseline, `b` the candidate.
fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, f64, &'static str) {
    let (ma, mb) = (median(a).unwrap_or(f64::NAN), median(b).unwrap_or(f64::NAN));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if def.exact {
        if a.iter().chain(b).all(|v| *v == ma) {
            "equal"
        } else {
            "worse"
        }
    } else {
        match def.bound {
            None => "info",
            // Wider own spread than the bound: the files cannot resolve a
            // change of that size, unless the two sets do not even overlap.
            Some(bound) if spread(a).max(spread(b)) > bound && overlaps(a, b) => "unresolved",
            Some(bound) if worse_by > bound => "worse",
            Some(bound) if worse_by < -bound => "better",
            Some(_) => "within",
        }
    };
    (ma, mb, worse_by, verdict)
}

/// Whether the two sets of runs overlap at all (neither side wins every
/// pairing).
fn overlaps(a: &[f64], b: &[f64]) -> bool {
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    a_lo <= b_hi && b_lo <= a_hi
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        })
}

/// Compares two run files, one row per (workload, metric) present in both.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<Vec<CompareRow>, String> {
    let (a, b) = (run_values(a)?, run_values(b)?);
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a {
        let Some((_, metrics_b)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for (name, values_a) in metrics_a {
            let Some((_, values_b)) = metrics_b.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let def = metric_def(name).ok_or_else(|| format!("unknown metric {name}"))?;
            let (ma, mb, worse_by, verdict) = judge(def, values_a, values_b);
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: name.clone(),
                unit: def.unit,
                a: ma,
                b: mb,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    Ok(rows)
}

/// Schema tag of the files `run` and `trace` write.
pub const RUN_SCHEMA: &str = "max-benchmark-run-v1";

/// Checks a parsed file is one of ours.
pub fn check_schema(doc: &JsonValue) -> Result<(), String> {
    match get(doc, "schema").and_then(as_str) {
        Some(RUN_SCHEMA) => Ok(()),
        other => Err(format!("expected schema {RUN_SCHEMA}, found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::workload::SPECS;

    fn run_file(values: &[(&str, &str, &[f64])]) -> JsonValue {
        let mut workloads: Vec<(String, JsonValue)> = Vec::new();
        for (workload, metric, vals) in values {
            let mut entry = JsonValue::object();
            entry.push(
                "values",
                JsonValue::Array(vals.iter().map(|v| JsonValue::Float(*v)).collect()),
            );
            let pos = workloads
                .iter()
                .position(|(w, _)| w == workload)
                .unwrap_or_else(|| {
                    let mut body = JsonValue::object();
                    body.push("metrics", JsonValue::object());
                    workloads.push((workload.to_string(), body));
                    workloads.len() - 1
                });
            let JsonValue::Object(body) = &mut workloads[pos].1 else {
                unreachable!()
            };
            body[0].1.push(metric, entry);
        }
        let mut doc = JsonValue::object();
        doc.push("schema", JsonValue::Str(RUN_SCHEMA.to_string()))
            .push("workloads", JsonValue::Object(workloads));
        doc
    }

    fn verdict_of(rows: &[CompareRow], metric: &str) -> &'static str {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn judge_gives_each_verdict() {
        let lower = e2e("t_ms", "ms", Lower, 0.10);
        let higher = e2e("rate", "1/s", Higher, 0.10);
        let tight = [10.0, 10.1, 9.9, 10.0];
        let verdict = |def: &MetricDef, a: &[f64], b: &[f64]| judge(def, a, b).3;

        assert_eq!(verdict(&lower, &tight, &[12.0, 12.1, 11.9, 12.0]), "worse");
        assert_eq!(
            verdict(&higher, &tight, &[12.0, 12.1, 11.9, 12.0]),
            "better"
        );
        assert_eq!(verdict(&lower, &tight, &[10.2, 10.3, 10.1, 10.2]), "within");
        // Own spread (40 %) wider than the bound, and the runs overlap.
        let wide = [10.0, 14.0, 6.0, 10.0];
        assert_eq!(
            verdict(&lower, &wide, &[11.0, 15.0, 7.0, 11.0]),
            "unresolved"
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(verdict(&lower, &wide, &[3.0, 4.0, 2.0, 3.0]), "better");
        assert_eq!(
            verdict(&exact(lower), &[6000.0, 6000.0], &[6000.0]),
            "equal"
        );
        assert_eq!(verdict(&exact(lower), &[30.0], &[31.0]), "worse");
        assert_eq!(verdict(&layer("x", "us", Lower), &[80.0], &[40.0]), "info");

        let (a, b, worse_by, _) = judge(&lower, &tight, &[12.0, 12.1, 11.9, 12.0]);
        assert_eq!((a, b), (10.0, 12.0));
        assert!((worse_by - 0.2).abs() < 1e-9);
        // Higher-is-better: a rise reads as negative "worse by".
        let (_, _, worse_by, _) = judge(&higher, &tight, &[12.0, 12.1, 11.9, 12.0]);
        assert!((worse_by + 0.2).abs() < 1e-9);
    }

    #[test]
    fn compare_pairs_rows_by_workload_and_metric() {
        let a = run_file(&[
            ("w", "wire_bytes_per_mac", &[6000.0, 6000.0]),
            ("w", "rng.label_us", &[80.0]),
            ("only_a", "setup_s", &[1.0]),
        ]);
        let b = run_file(&[
            ("w", "wire_bytes_per_mac", &[6000.0]),
            ("w", "rng.label_us", &[40.0]),
            ("w", "setup_s", &[1.0]),
        ]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(verdict_of(&rows, "wire_bytes_per_mac"), "equal");
        assert_eq!(verdict_of(&rows, "rng.label_us"), "info");
        assert_eq!(rows[1].unit, "us");
    }

    #[test]
    fn compare_refuses_foreign_files() {
        let empty = JsonValue::object();
        assert!(compare(&empty, &empty).is_err());
        assert!(check_schema(&empty).is_err());
        let a = run_file(&[("w", "job_ms_p50", &[1.0])]);
        let b = run_file(&[("v", "job_ms_p50", &[1.0])]);
        assert!(compare(&a, &b).is_err());
        assert!(check_schema(&a).is_ok());
    }

    #[test]
    fn metrics_json_refuses_strays_gaps_and_nan() {
        let defs = &END_TO_END[..2];
        assert!(metrics_json(defs, &[("setup_s", 1.0), ("job_ms_p50", 2.0)]).is_ok());
        assert!(metrics_json(defs, &[("setup_s", 1.0)]).is_err());
        assert!(metrics_json(defs, &[("setup_s", 1.0), ("job_ms_p50", f64::NAN)]).is_err());
        assert!(metrics_json(defs, &[("setup_s", 1.0), ("job_ms_p50", 2.0), ("x", 0.0)]).is_err());
    }

    /// `BENCHMARK.json` is the contract the driver reads; this dictionary is
    /// what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed =
            |key: &str| -> Vec<JsonValue> { as_array(get(&doc, key).unwrap()).unwrap().to_vec() };
        let field = |v: &JsonValue, key: &str| as_str(get(v, key).unwrap()).unwrap().to_string();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (entry, spec) in workloads.iter().zip(SPECS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
            assert!(spec.why.len() <= 200);
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(key);
            assert_eq!(entries.len(), defs.len(), "{key} length");
            for (entry, def) in entries.iter().zip(defs) {
                assert_eq!(field(entry, "name"), def.name);
                assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field(entry, "better"), better, "{}", def.name);
                assert_eq!(
                    get(entry, "bound").and_then(as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert_eq!(
            as_array(get(&doc, "paths").unwrap()).unwrap(),
            [JsonValue::Str("benchmark".to_string())]
        );
    }
}
