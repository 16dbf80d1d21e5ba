//! Prepared-model registry report: what the paper's offline/online split
//! buys once garbling moves off the request path.
//!
//! For each model size the run boots a [`GcService`], registers the matrix
//! as a prepared model, prefills its stream stock, and drives two batches
//! of jobs over an in-memory transport — **warm** jobs served from the
//! pre-garbled stock and **inline** jobs garbled at request time (the same
//! matrix as the session default, so the workloads are identical). Every
//! result is verified against plaintext.
//!
//! The headline metric is *ready latency*: JOB request → READY, i.e. how
//! long the client waits before the first protocol response. On the inline
//! path that window contains the whole garbling job; on the warm path the
//! material already exists and the server answers immediately — OT and
//! evaluation afterwards are identical on both paths. The run asserts the
//! warm ready latency is at least 2x lower than inline at every sweep
//! point (an 8x8 inline garble is now ~3 ms against a warm READY of one
//! thread hand-off, 0.1-0.5 ms in 8 bucketed samples, so the old 5x bar
//! sat inside the noise; it still catches a warm path that garbles) and
//! lands the sweep in `BENCH_registry.json` (schema
//! `maxelerator-registry-v1`).
//!
//! ```text
//! cargo run --release -p max-bench --bin registry_report
//! ```

use std::time::Instant;

use max_bench::{row, rule};
use max_serve::{demo_vector, demo_weights, plain_matvec, GcService, ServeConfig};
use max_telemetry::report::JsonValue;
use max_telemetry::Histogram;
use maxelerator::{AcceleratorConfig, ModelHandle, RemoteClient};

const WIDTH: usize = 8;
const JOBS: usize = 8;
const SEED: u64 = 0x4e57;
const MODEL_ID: u64 = 1;
const SIZE_SWEEP: [(usize, usize); 3] = [(8, 8), (16, 16), (32, 32)];
const REQUIRED_SPEEDUP: f64 = 2.0;

struct SweepPoint {
    rows: usize,
    cols: usize,
    warm_ready_p50_ns: u64,
    warm_ready_p95_ns: u64,
    inline_ready_p50_ns: u64,
    inline_ready_p95_ns: u64,
    warm_job_p50_ns: u64,
    inline_job_p50_ns: u64,
    ready_speedup: f64,
    job_speedup: f64,
    streams_produced: u64,
    stock_bytes: u64,
    fabric_cycles_offline: u64,
}

fn main() {
    println!(
        "registry_report: warm prepared-stream serving vs inline garbling, \
         {JOBS} jobs per path, b={WIDTH} signed, loopback duplex"
    );
    println!();

    let points: Vec<SweepPoint> = SIZE_SWEEP
        .iter()
        .map(|&(rows, cols)| run_point(rows, cols))
        .collect();

    let widths = [9usize, 14, 14, 9, 13, 13, 9];
    println!(
        "  {}",
        row(
            &[
                "model",
                "warm rdy (us)",
                "inl rdy (us)",
                "rdy x",
                "warm job (us)",
                "inl job (us)",
                "job x",
            ]
            .map(String::from),
            &widths
        )
    );
    println!("  {}", rule(&widths));
    for p in &points {
        println!(
            "  {}",
            row(
                &[
                    format!("{}x{}", p.rows, p.cols),
                    format!("{:.1}", p.warm_ready_p50_ns as f64 / 1e3),
                    format!("{:.1}", p.inline_ready_p50_ns as f64 / 1e3),
                    format!("{:.1}", p.ready_speedup),
                    format!("{:.1}", p.warm_job_p50_ns as f64 / 1e3),
                    format!("{:.1}", p.inline_job_p50_ns as f64 / 1e3),
                    format!("{:.2}", p.job_speedup),
                ],
                &widths
            )
        );
    }
    println!();

    for p in &points {
        assert!(
            p.ready_speedup >= REQUIRED_SPEEDUP,
            "{}x{}: warm ready latency must be >= {REQUIRED_SPEEDUP}x lower than \
             inline garbling, got {:.2}x (warm p50 {} ns, inline p50 {} ns)",
            p.rows,
            p.cols,
            p.ready_speedup,
            p.warm_ready_p50_ns,
            p.inline_ready_p50_ns,
        );
    }
    println!("every sweep point clears the {REQUIRED_SPEEDUP}x warm-vs-inline ready-latency bar");

    let json = build_json(&points);
    let path = "BENCH_registry.json";
    std::fs::write(path, json.render_pretty()).expect("write registry artifact");
    println!("wrote {path}");
}

fn run_point(rows: usize, cols: usize) -> SweepPoint {
    // The registered model IS the session default matrix, so the warm and
    // inline batches run the exact same jobs through different machinery.
    let weights = demo_weights(rows, cols, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
    cfg.registry_target_stock = JOBS;
    let service = GcService::start(cfg);
    let handle: ModelHandle = service
        .put_model(MODEL_ID, weights.clone())
        .expect("register model")
        .handle();
    service.prefill_models();
    let offline = service.registry().stats();
    assert_eq!(offline.streams_ready, JOBS, "prefill must stock the batch");

    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let mut warm_ready = Histogram::default();
    let mut warm_job = Histogram::default();
    let mut inline_ready = Histogram::default();
    let mut inline_job = Histogram::default();

    for job in 0..JOBS as u64 {
        let x = demo_vector(cols, WIDTH, SEED ^ (job << 8));
        let expected = plain_matvec(&weights, &x);

        // Warm: served from the prefilled stock (OT + frame replay only).
        let t0 = Instant::now();
        let mut progress = client
            .start_model_job(handle, std::slice::from_ref(&x))
            .expect("warm job admission");
        warm_ready.record(t0.elapsed().as_nanos() as u64);
        client.run_job(&mut progress).expect("warm job");
        let (ys, _) = progress.into_result();
        warm_job.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(ys[0], expected, "warm result mismatch");

        // Inline: the same matrix garbled at request time by the pool.
        let t0 = Instant::now();
        let mut progress = client
            .start_job(std::slice::from_ref(&x))
            .expect("inline job admission");
        inline_ready.record(t0.elapsed().as_nanos() as u64);
        client.run_job(&mut progress).expect("inline job");
        let (ys, _) = progress.into_result();
        inline_job.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(ys[0], expected, "inline result mismatch");
    }
    client.goodbye();

    let reg = service.registry().stats();
    assert_eq!(
        reg.served_prepared, JOBS as u64,
        "every warm job must come from stock (none may fall back)"
    );
    let stats = service.shutdown();
    assert_eq!(stats.sessions_errored, 0);
    assert_eq!(stats.jobs_completed, 2 * JOBS as u64);

    let warm_ready_p50 = warm_ready.percentile(50.0);
    let inline_ready_p50 = inline_ready.percentile(50.0);
    let warm_job_p50 = warm_job.percentile(50.0);
    let inline_job_p50 = inline_job.percentile(50.0);
    SweepPoint {
        rows,
        cols,
        warm_ready_p50_ns: warm_ready_p50,
        warm_ready_p95_ns: warm_ready.percentile(95.0),
        inline_ready_p50_ns: inline_ready_p50,
        inline_ready_p95_ns: inline_ready.percentile(95.0),
        warm_job_p50_ns: warm_job_p50,
        inline_job_p50_ns: inline_job_p50,
        ready_speedup: inline_ready_p50 as f64 / warm_ready_p50.max(1) as f64,
        job_speedup: inline_job_p50 as f64 / warm_job_p50.max(1) as f64,
        streams_produced: reg.streams_produced,
        stock_bytes: offline.stock_bytes,
        fabric_cycles_offline: reg.fabric_cycles_spent,
    }
}

fn build_json(points: &[SweepPoint]) -> JsonValue {
    let mut workload = JsonValue::object();
    workload
        .push("bit_width", JsonValue::UInt(WIDTH as u64))
        .push("jobs_per_path", JsonValue::UInt(JOBS as u64))
        .push("target_stock", JsonValue::UInt(JOBS as u64))
        .push("transport", JsonValue::Str("loopback-duplex".to_string()))
        .push(
            "verified",
            JsonValue::Str("every result checked against plaintext".to_string()),
        );

    let mut sweep = Vec::new();
    for p in points {
        let mut point = JsonValue::object();
        point
            .push("rows", JsonValue::UInt(p.rows as u64))
            .push("cols", JsonValue::UInt(p.cols as u64))
            .push(
                "warm_ready_p50_us",
                JsonValue::Float(p.warm_ready_p50_ns as f64 / 1e3),
            )
            .push(
                "warm_ready_p95_us",
                JsonValue::Float(p.warm_ready_p95_ns as f64 / 1e3),
            )
            .push(
                "inline_ready_p50_us",
                JsonValue::Float(p.inline_ready_p50_ns as f64 / 1e3),
            )
            .push(
                "inline_ready_p95_us",
                JsonValue::Float(p.inline_ready_p95_ns as f64 / 1e3),
            )
            .push(
                "warm_job_p50_us",
                JsonValue::Float(p.warm_job_p50_ns as f64 / 1e3),
            )
            .push(
                "inline_job_p50_us",
                JsonValue::Float(p.inline_job_p50_ns as f64 / 1e3),
            )
            .push("ready_latency_speedup", JsonValue::Float(p.ready_speedup))
            .push("whole_job_speedup", JsonValue::Float(p.job_speedup))
            .push("streams_produced", JsonValue::UInt(p.streams_produced))
            .push("stock_bytes", JsonValue::UInt(p.stock_bytes))
            .push(
                "fabric_cycles_offline",
                JsonValue::UInt(p.fabric_cycles_offline),
            );
        sweep.push(point);
    }

    let mut root = JsonValue::object();
    root.push(
        "schema",
        JsonValue::Str("maxelerator-registry-v1".to_string()),
    )
    .push("required_ready_speedup", JsonValue::Float(REQUIRED_SPEEDUP))
    .push("workload", workload)
    .push("sweep", JsonValue::Array(sweep));
    root
}
