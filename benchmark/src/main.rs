//! The repo's benchmark. See `benchmark/README.md` for the metric
//! dictionary and the reasoning behind each workload.
//!
//! ```text
//! max-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! max-benchmark run     [--seed n] [--seconds s] [--repeats r] [--quick]
//! max-benchmark trace   [--seed n] [--seconds s] [--repeats r] [--quick]
//! max-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload in this process and prints one JSON
//! object as its last line. `run` and `trace` re-exec it once per workload,
//! so peak RSS and CPU belong to that workload alone.

mod json;
mod layers;
mod report;
mod stats;
mod workload;

use std::fmt;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use max_telemetry::report::JsonValue;

use layers::{layer_table, row, Reps};
use report::{MetricDef, END_TO_END, PER_LAYER, RUN_SCHEMA};
use stats::{median, tail_percentile, StatsError};
use workload::{
    results_dir, run_cycles, Inputs, Measured, RunPlan, Spec, Tracing, COLS, ROWS, SPECS, WIDTH,
};

/// Why the benchmark refused to produce a number.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// Filesystem, socket or `/proc` trouble.
    Io(std::io::Error),
    /// The program under test returned a typed error.
    Accelerator(maxelerator::AcceleratorError),
    /// Host-side set-up failed (model registration, journal, child process).
    Setup(String),
    /// A served result differed from the plaintext matvec.
    Mismatch { got: Vec<i64>, expected: Vec<i64> },
    /// The queue answered BUSY more often than a job may retry.
    BusyExhausted,
    /// The prefilled stock never reached the size the run needs (the
    /// `prefill_models` / idle-fill hand-off stalled).
    StockTimeout { wanted: usize, ready: usize },
    /// A warm run touched the cold path, so its numbers are not warm numbers.
    InvalidWarm {
        served_fallback: u64,
        integrity_dropped: u64,
    },
    /// Too few samples for a statistic the contract requires.
    Stats(StatsError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(what) => write!(f, "usage: {what}"),
            BenchError::Io(err) => write!(f, "io: {err}"),
            BenchError::Accelerator(err) => write!(f, "program error: {err}"),
            BenchError::Setup(what) => write!(f, "set-up failed: {what}"),
            BenchError::Mismatch { got, expected } => {
                write!(f, "served {got:?}, plaintext says {expected:?}")
            }
            BenchError::BusyExhausted => write!(f, "job still BUSY after every retry"),
            BenchError::StockTimeout { wanted, ready } => {
                write!(f, "stock stalled at {ready} of {wanted} streams")
            }
            BenchError::InvalidWarm {
                served_fallback,
                integrity_dropped,
            } => write!(
                f,
                "warm run invalid: {served_fallback} jobs fell back to inline garbling, \
                 {integrity_dropped} streams dropped on integrity"
            ),
            BenchError::Stats(err) => write!(f, "statistics refused: {err}"),
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(err: std::io::Error) -> Self {
        BenchError::Io(err)
    }
}

impl From<maxelerator::AcceleratorError> for BenchError {
    fn from(err: maxelerator::AcceleratorError) -> Self {
        BenchError::Accelerator(err)
    }
}

impl From<max_gc::channel::TransportError> for BenchError {
    fn from(err: max_gc::channel::TransportError) -> Self {
        BenchError::Accelerator(err.into())
    }
}

impl From<StatsError> for BenchError {
    fn from(err: StatsError) -> Self {
        BenchError::Stats(err)
    }
}

/// Parsed `--key value` options.
#[derive(Clone, Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: u64,
    quick: bool,
}

/// The `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;
/// Time budget of a `--quick` cycle set (the job counts are what is small).
const QUICK_SECONDS: f64 = 1.0;

fn parse_options(args: &[String]) -> Result<Options, BenchError> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeats: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))?;
        let bad = || BenchError::Usage(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => {
                opts.repeats = value.parse().map_err(|_| bad())?;
                if opts.repeats == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(BenchError::Usage(format!("unknown option {flag}"))),
        }
    }
    if opts.quick {
        opts.seconds = QUICK_SECONDS;
    }
    Ok(opts)
}

/// One workload's printed result.
struct Outcome {
    attempted: u64,
    failed: u64,
    defs: Vec<MetricDef>,
    values: Vec<(&'static str, f64)>,
}

const MACS_PER_JOB: f64 = (ROWS * COLS) as f64;

/// Verified jobs per second, all sessions: the median per-session window
/// rate times the sessions running side by side.
fn jobs_per_s(m: &Measured, spec: Spec) -> Result<f64, StatsError> {
    Ok(median(&m.window_jobs_per_s)? * spec.sessions as f64)
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(m: &Measured, spec: Spec) -> Result<Vec<(&'static str, f64)>, BenchError> {
    if m.succeeded() == 0 {
        return Err(BenchError::Stats(StatsError::Empty));
    }
    let jobs = m.succeeded() as f64;
    let jobs_per_s = jobs_per_s(m, spec)?;
    Ok(vec![
        ("setup_s", median(&m.setup_s)?),
        ("job_ms_p50", median(&m.job_ms)?),
        ("ready_ms_p50", median(&m.ready_ms)?),
        ("jobs_per_s", jobs_per_s),
        ("macs_per_s", jobs_per_s * MACS_PER_JOB),
        ("cpu_ms_per_job", m.timed_cpu_s * 1e3 / jobs),
        (
            "peak_rss_mb",
            m.first_cycle_peak_rss_mib.ok_or(StatsError::Empty)?,
        ),
        (
            "wire_bytes_per_mac",
            m.wire_bytes as f64 / (jobs * MACS_PER_JOB),
        ),
        (
            "fabric_cycles_per_mac",
            m.fabric_cycles as f64 / (jobs * MACS_PER_JOB),
        ),
    ])
}

/// Median duration of the server's `server/<what>` trace spans; 0 when the
/// workload never emits one (no garbling on a warm request path). A median,
/// so each cycle's slow first job does not stand for the rest.
fn server_span_ms(m: &Measured, what: &str) -> f64 {
    let durations: Vec<f64> = m
        .server_events
        .iter()
        .filter(|e| e.name == what)
        .map(|e| e.duration_ns() as f64 / 1e6)
        .collect();
    median(&durations).unwrap_or(0.0)
}

/// What admission costs, job by job: from JOB sent (`client.start_job`
/// opens) until the `server/garble` span inside it opens — request transit,
/// session dispatch and queue wait. A warm job has no garble span and READY
/// *is* its admission, so the whole `client.start_job` span counts.
fn admission_overhead_ms(traced: &Measured) -> Result<f64, StatsError> {
    let overheads: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "client.start_job")
        .map(|s| {
            let garble_start = traced
                .server_events
                .iter()
                .find(|e| {
                    e.name == "server/garble"
                        && e.trace_id == s.trace_id
                        && (s.start_ns..=s.end_ns).contains(&e.start_ns)
                })
                .map_or(s.end_ns, |e| e.start_ns);
            (garble_start - s.start_ns) as f64 / 1e6
        })
        .collect();
    median(&overheads)
}

/// Σ (layer unit cost × that layer's operations per job), in ms: what the
/// layer table predicts a job of this workload costs end to end. The two
/// parties run in lock-step, so client and server costs add.
fn modelled_job_ms(
    spec: Spec,
    layers: &[(&'static str, f64)],
    wire_bytes_per_job: f64,
    appends_per_job: f64,
) -> f64 {
    let l = |name: &str| row(layers, name);
    let rows = ROWS as f64;
    let per_mb = |mb_per_s: f64| wire_bytes_per_job / 1e6 / mb_per_s * 1e3;
    // Material: garbled on the request path, or taken from stock and
    // re-digested behind READY.
    let material_ms = if spec.warm {
        (l("registry.acquire_us") + l("core.remote.stream_digest_us")) / 1e3
    } else {
        MACS_PER_JOB * l("core.accelerator.garble_us_per_mac") / 1e3
            + (l("netlist.mac_build_us")
                + l("rng.generator_new_us")
                + l("core.remote.materialize_us"))
                / 1e3
    };
    // The exchange, identical on every workload: per element one OT
    // extension, one sealed CIPHER + ROUNDS pair, one burst decode and
    // COLS evaluated MACs; per job every wire byte is sealed, opened,
    // digested on both sides and carried over loopback; one round trip
    // per element plus JOB→READY and STATS.
    let exchange_ms = rows * (COLS * WIDTH) as f64 * l("ot.extend_us_per_transfer") / 1e3
        + rows * l("core.remote.burst_codec_us") / 1e3
        + MACS_PER_JOB * l("core.accelerator.evaluate_us_per_mac") / 1e3
        + per_mb(l("gc.channel.seal_open_mb_per_s"))
        + 2.0 * per_mb(l("crypto.digest_mb_per_s"))
        + per_mb(l("gc.transport.tcp_mb_per_s"))
        + (rows + 1.5) * l("gc.transport.tcp_rtt_us") / 1e3;
    let journal_ms = appends_per_job * l("serve.journal.append_us") / 1e3;
    material_ms + exchange_ms + journal_ms
}

/// The per-layer metrics of one traced run.
fn per_layer(
    spec: Spec,
    inputs: &Inputs,
    plan: RunPlan,
) -> Result<(Outcome, Measured), BenchError> {
    let mut rows = layer_table(inputs, if plan.quick { Reps::QUICK } else { Reps::FULL })?;
    // The layer table spent part of the run's time; the cycles get the
    // rest (at least half), and a multi-session workload sets a fifth of
    // that aside for the one-session run its efficiency is measured against.
    let remaining = (plan.seconds - plan.epoch.elapsed().as_secs_f64()).max(plan.seconds / 2.0);
    let solo_seconds = if spec.sessions > 1 {
        remaining / 5.0
    } else {
        0.0
    };
    let cycles_plan = RunPlan {
        seconds: remaining - solo_seconds,
        ..plan
    };
    let (untraced, traced) = run_cycles(spec, inputs, cycles_plan, Tracing::Alternate)?;
    let all_jobs = (untraced.attempted + traced.attempted) as f64;
    if untraced.succeeded() == 0 || traced.succeeded() == 0 {
        return Err(BenchError::Stats(StatsError::Empty));
    }

    let appends_per_job = (untraced.journal_appends + traced.journal_appends) as f64 / all_jobs;
    rows.push(("serve.journal.appends_per_job", appends_per_job));
    rows.push((
        "serve.queue_wait_ms",
        server_span_ms(&traced, "server/queue_wait"),
    ));
    rows.push(("serve.garble_ms", server_span_ms(&traced, "server/garble")));
    rows.push(("serve.stream_ms", server_span_ms(&traced, "server/stream")));

    rows.push((
        "serve.scheduler.admission_overhead_ms",
        admission_overhead_ms(&traced)?,
    ));

    let efficiency = if spec.sessions == 1 {
        1.0
    } else {
        // The same service shape driven by one session: what perfect
        // scaling would multiply.
        let solo = Spec {
            sessions: 1,
            ..spec
        };
        let solo_plan = RunPlan {
            seconds: solo_seconds,
            ..plan
        };
        let (solo_run, _) = run_cycles(solo, inputs, solo_plan, Tracing::Off)?;
        jobs_per_s(&untraced, spec)? / (spec.sessions as f64 * jobs_per_s(&solo_run, solo)?)
    };
    rows.push(("serve.scheduler.parallel_efficiency", efficiency));

    // The tail, over every cycle of the run (tracing costs it nothing
    // measurable, and half the samples would be too few).
    let all_job_ms: Vec<f64> = untraced
        .job_ms
        .iter()
        .chain(&traced.job_ms)
        .copied()
        .collect();
    match tail_percentile(&all_job_ms, 90.0) {
        Ok(p90) => rows.push(("serve.job_ms_p90", p90)),
        // A smoke run is too short for a tail; it prints the rest.
        Err(err) if plan.quick => println!("serve.job_ms_p90 not printed: {err}"),
        Err(err) => return Err(err.into()),
    }

    let job_p50 = median(&untraced.job_ms)?;
    rows.push((
        "telemetry.trace_overhead_pct",
        (median(&traced.job_ms)? / job_p50 - 1.0) * 100.0,
    ));
    let wire_bytes_per_job = untraced.wire_bytes as f64 / untraced.succeeded() as f64;
    rows.push((
        "trace.model_coverage",
        modelled_job_ms(spec, &rows, wire_bytes_per_job, appends_per_job) / job_p50,
    ));

    let outcome = Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        defs: PER_LAYER
            .iter()
            .filter(|d| rows.iter().any(|(n, _)| *n == d.name))
            .copied()
            .collect(),
        values: rows,
    };
    Ok((outcome, traced))
}

/// Writes the traced run's spans, the server's events and the layer table
/// to `benchmark/results/trace-<workload>.json`.
fn write_trace_file(
    spec: Spec,
    seed: u64,
    outcome: &Outcome,
    traced: &Measured,
    wall_s: f64,
) -> Result<(), BenchError> {
    let span_json = |name: &str, trace_id: u128, start: u64, end: u64, parent: JsonValue| {
        let mut s = JsonValue::object();
        s.push("name", JsonValue::Str(name.to_string()))
            .push("trace_id", JsonValue::Str(format!("{trace_id:032x}")))
            .push("start_ns", JsonValue::UInt(start))
            .push("end_ns", JsonValue::UInt(end))
            .push("parent", parent);
        s
    };
    let spans = traced
        .spans
        .iter()
        .map(|s| {
            let parent = s
                .parent
                .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64));
            span_json(s.name, s.trace_id, s.start_ns, s.end_ns, parent)
        })
        .collect();
    // The server's events carry the session's trace id; their parent is
    // that session's `client.job` span in flight when they started (none
    // for the handshake, which precedes every job).
    let server = traced
        .server_events
        .iter()
        .map(|e| {
            let parent = traced.spans.iter().position(|s| {
                s.name == "client.job"
                    && s.trace_id == e.trace_id
                    && (s.start_ns..=s.end_ns).contains(&e.start_ns)
            });
            let parent = parent.map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64));
            span_json(&e.name, e.trace_id, e.start_ns, e.end_ns, parent)
        })
        .collect();
    let mut doc = JsonValue::object();
    doc.push(
        "schema",
        JsonValue::Str("max-benchmark-trace-v1".to_string()),
    )
    .push("workload", JsonValue::Str(spec.name.to_string()))
    .push("envelope", report::envelope(seed, wall_s))
    .push(
        "layers",
        report::metrics_json(&outcome.defs, &outcome.values).map_err(BenchError::Setup)?,
    )
    .push("client_spans", JsonValue::Array(spans))
    .push("server_spans", JsonValue::Array(server));
    std::fs::create_dir_all(results_dir())?;
    let path = results_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, doc.render_pretty())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Measures one workload in this process and prints its result; the JSON
/// object is the last line of standard output.
fn measure(opts: &Options) -> Result<(), BenchError> {
    let started = Instant::now();
    let name = opts.workload.as_deref().unwrap_or_default();
    let spec = workload::spec(name)
        .ok_or_else(|| BenchError::Usage(format!("unknown workload {name:?}")))?;
    let inputs = Inputs::from_seed(opts.seed);
    let plan = RunPlan {
        seconds: opts.seconds,
        quick: opts.quick,
        epoch: started,
    };

    let outcome = if opts.trace {
        let (outcome, traced) = per_layer(spec, &inputs, plan)?;
        write_trace_file(
            spec,
            opts.seed,
            &outcome,
            &traced,
            started.elapsed().as_secs_f64(),
        )?;
        outcome
    } else {
        let (m, _) = run_cycles(spec, &inputs, plan, Tracing::Off)?;
        println!("{}: {}", spec.name, spec.why);
        println!(
            "{}: {} cycles, {} jobs attempted, {} verified, {} failed, {} sessions x {} workers, closed loop",
            spec.name,
            m.setup_s.len(),
            m.attempted,
            m.succeeded(),
            m.failed,
            spec.sessions,
            spec.workers
        );
        Outcome {
            attempted: m.attempted,
            failed: m.failed,
            defs: END_TO_END.to_vec(),
            values: end_to_end(&m, spec)?,
        }
    };

    let metrics =
        report::metrics_json(&outcome.defs, &outcome.values).map_err(BenchError::Setup)?;
    println!(
        "envelope {}",
        report::envelope(opts.seed, started.elapsed().as_secs_f64()).render()
    );
    for def in &outcome.defs {
        println!(
            "  {:<42} {:>16.4} {}",
            def.name,
            row(&outcome.values, def.name),
            def.unit
        );
    }
    println!(
        "  {:<42} {:>16.4} ratio ({} failed of {} attempted)",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let mut last = JsonValue::object();
    last.push("correct", JsonValue::Bool(outcome.failed == 0))
        .push("attempted", JsonValue::UInt(outcome.attempted))
        .push("failed", JsonValue::UInt(outcome.failed))
        .push("metrics", metrics);
    println!("{}", last.render());
    Ok(())
}

/// `run` / `trace`: every workload in its own child process, `repeats`
/// seeds each, gathered into one run file.
fn run_all(opts: &Options, trace: bool) -> Result<bool, BenchError> {
    let started = Instant::now();
    let exe = std::env::current_exe()?;
    let mut workloads = JsonValue::object();
    let mut all_correct = true;
    for spec in SPECS {
        let mut attempted = Vec::new();
        let mut failed = Vec::new();
        let mut values: Vec<(String, String, Vec<JsonValue>)> = Vec::new();
        for seed in opts.seed..opts.seed + opts.repeats {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if opts.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                return Err(BenchError::Setup(format!(
                    "{} (seed {seed}) exited with {}",
                    spec.name, output.status
                )));
            }
            let last = stdout.lines().last().unwrap_or_default();
            let doc = json::parse(last).map_err(BenchError::Setup)?;
            let count = |key: &str| json::get(&doc, key).cloned().unwrap_or(JsonValue::Null);
            attempted.push(count("attempted"));
            failed.push(count("failed"));
            all_correct &= json::get(&doc, "correct") == Some(&JsonValue::Bool(true));
            for (name, entry) in json::get(&doc, "metrics")
                .and_then(json::as_object)
                .unwrap_or(&[])
            {
                let unit = json::get(entry, "unit")
                    .and_then(json::as_str)
                    .unwrap_or_default();
                let value = json::get(entry, "value")
                    .cloned()
                    .unwrap_or(JsonValue::Null);
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, seen)) => seen.push(value),
                    None => values.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        let mut metrics = JsonValue::object();
        for (name, unit, seen) in values {
            let mut entry = JsonValue::object();
            entry
                .push("unit", JsonValue::Str(unit))
                .push("values", JsonValue::Array(seen));
            metrics.push(&name, entry);
        }
        let mut body = JsonValue::object();
        body.push("attempted", JsonValue::Array(attempted))
            .push("failed", JsonValue::Array(failed))
            .push("metrics", metrics);
        workloads.push(spec.name, body);
    }

    let mut doc = JsonValue::object();
    doc.push("schema", JsonValue::Str(RUN_SCHEMA.to_string()))
        .push("trace", JsonValue::Bool(trace))
        .push("repeats", JsonValue::UInt(opts.repeats))
        .push(
            "envelope",
            report::envelope(opts.seed, started.elapsed().as_secs_f64()),
        )
        .push("workloads", workloads);
    std::fs::create_dir_all(results_dir())?;
    let kind = if trace { "trace" } else { "run" };
    let path = results_dir().join(format!("{kind}-seed{}.json", opts.seed));
    std::fs::write(&path, doc.render_pretty())?;
    print_spreads(&doc);
    println!(
        "wrote {} in {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}

/// The spread the acceptance rule looks at, per bounded metric: the
/// interquartile range of the repeats as a share of their median.
fn print_spreads(doc: &JsonValue) {
    let Ok(workloads) = report::run_values(doc) else {
        return;
    };
    println!(
        "{:<18} {:<26} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for (workload, metrics) in &workloads {
        for (name, values) in metrics {
            let Some(bound) = report::metric_def(name).and_then(|d| d.bound) else {
                continue;
            };
            println!(
                "{:<18} {:<26} {:>14.4} {:>8.2}% {:>6.0}%",
                workload,
                name,
                median(values).unwrap_or(f64::NAN),
                stats::spread(values) * 100.0,
                bound * 100.0
            );
        }
    }
}

fn compare_files(paths: &[String]) -> Result<bool, BenchError> {
    let [a, b] = paths else {
        return Err(BenchError::Usage("compare <a.json> <b.json>".to_string()));
    };
    let load = |path: &String| -> Result<JsonValue, BenchError> {
        let doc = json::parse(&std::fs::read_to_string(path)?).map_err(BenchError::Setup)?;
        report::check_schema(&doc).map_err(BenchError::Setup)?;
        Ok(doc)
    };
    let rows = report::compare(&load(a)?, &load(b)?).map_err(BenchError::Setup)?;
    println!(
        "{:<18} {:<40} {:>14} {:>14} {:<7} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "unit", "worse by", "bound"
    );
    for row in &rows {
        println!(
            "{:<18} {:<40} {:>14.4} {:>14.4} {:<7} {:>8.2}% {:>7}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.unit,
            row.worse_by * 100.0,
            row.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            row.verdict
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, "worse" | "unresolved"))
        .count();
    println!("{} rows, {bad} worse or unresolved", rows.len());
    Ok(bad == 0)
}

fn dispatch(args: &[String]) -> Result<bool, BenchError> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&parse_options(&args[1..])?, false),
        Some("trace") => run_all(&parse_options(&args[1..])?, true),
        Some("compare") => compare_files(&args[1..]),
        _ => {
            let opts = parse_options(args)?;
            if opts.workload.is_none() {
                return Err(BenchError::Usage(
                    "--workload <name> --seed <n> --seconds <s> --trace <0|1>, \
                     or run | trace | compare <a.json> <b.json>"
                        .to_string(),
                ));
            }
            // The printed object carries `correct`; the exit code only
            // says whether a result was printed.
            measure(&opts).map(|()| true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // Printed, but some job failed or a comparison regressed.
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("max-benchmark: {err}");
            ExitCode::from(2)
        }
    }
}
