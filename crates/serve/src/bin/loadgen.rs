//! Load generator: genuine two-party GC-MAC traffic against a running
//! `serve` instance, with every result verified against plaintext.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7700] [--width 8] [--rows 4] [--cols 4]
//!         [--seed 42] [--sessions 4] [--jobs 3] [--attempts 8]
//!         [--step-ms 0] [--metrics] [--model ID]
//! ```
//!
//! `--width/--rows/--cols/--seed` must match the server so the demo model
//! can be regenerated locally for verification.
//!
//! `--model ID` exercises the prepared-model path (protocol v5): the demo
//! matrix is registered under that id over `MODEL_PUT` before the sessions
//! start, every job targets the model instead of the session default, and
//! the run ends with the model's registry counters (stock, prepared vs
//! fallback serves) pulled over `MODEL_INFO`. Verification is unchanged —
//! the model is the same demo matrix.
//!
//! Each session drives its jobs through a [`ResilientClient`]: BUSY
//! replies are honored with the server's `retry_after_ms` hint plus
//! decorrelated jitter (never a fixed sleep), dropped connections redial
//! and RESUME, and the summary line reports every recovery event.
//!
//! Latency is aggregated into log-linear [`Histogram`]s (within 6.25 % of
//! the exact value) and reported as p50/p95/p99 — whole-job latency plus
//! the per-round breakdown. With
//! `--metrics` the run ends by pulling the server's live `METRICS` frame
//! over a fresh connection and printing the JSON body, so a load run and
//! the server's own view of it land side by side. Each session closes with
//! a PING/PONG before BYE, so the poll counts every job of the run.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use max_gc::FramedTcp;
use max_serve::{demo_vector, demo_weights, plain_matvec};
use max_telemetry::Histogram;
use maxelerator::{
    remote, AcceleratorError, ModelHandle, RemoteClient, ResilientClient, RetryPolicy,
};

struct Args {
    addr: String,
    width: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    sessions: usize,
    jobs: usize,
    attempts: u32,
    step_ms: u64,
    metrics: bool,
    model: Option<u64>,
}

fn fatal(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2)
}

fn parsed<T: std::str::FromStr>(what: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fatal(&format!("{what} got an unparseable value: {raw}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7700".to_string(),
        width: 8,
        rows: 4,
        cols: 4,
        seed: 42,
        sessions: 4,
        jobs: 3,
        attempts: 8,
        step_ms: 0,
        metrics: false,
        model: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| fatal(&format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--width" => args.width = parsed("--width", &value("--width")),
            "--rows" => args.rows = parsed("--rows", &value("--rows")),
            "--cols" => args.cols = parsed("--cols", &value("--cols")),
            "--seed" => args.seed = parsed("--seed", &value("--seed")),
            "--sessions" => args.sessions = parsed("--sessions", &value("--sessions")),
            "--jobs" => args.jobs = parsed("--jobs", &value("--jobs")),
            "--attempts" => args.attempts = parsed("--attempts", &value("--attempts")),
            "--step-ms" => args.step_ms = parsed("--step-ms", &value("--step-ms")),
            "--metrics" => args.metrics = true,
            "--model" => args.model = Some(parsed("--model", &value("--model"))),
            other => fatal(&format!("unknown flag: {other}")),
        }
    }
    args
}

struct SessionOutcome {
    jobs_ok: usize,
    busy_retries: u64,
    redials: u64,
    resumes: u64,
    restarts: u64,
    backoff_ms: u64,
    job_latencies_ns: Vec<u64>,
    round_latencies_ns: Vec<u64>,
    bytes_down: u64,
    bytes_up: u64,
}

fn run_session(
    args: &Args,
    session_idx: usize,
    model: Option<ModelHandle>,
) -> Result<SessionOutcome, AcceleratorError> {
    let weights = demo_weights(args.rows, args.cols, args.width, args.seed);
    let addr = args.addr.clone();
    let policy = RetryPolicy {
        max_attempts: args.attempts.max(1),
        step_timeout: (args.step_ms > 0).then(|| std::time::Duration::from_millis(args.step_ms)),
        // Per-session seed: concurrent sessions must not back off in
        // lockstep after a shared BUSY burst.
        jitter_seed: args.seed ^ ((session_idx as u64) << 32) ^ 0x010a_d0e4,
        ..RetryPolicy::default()
    };
    let mut client = ResilientClient::new(
        move || FramedTcp::connect(&addr).map_err(AcceleratorError::from),
        args.width,
        policy,
    );
    if let Some(handle) = model {
        client = client.with_model(handle);
    }
    let mut outcome = SessionOutcome {
        jobs_ok: 0,
        busy_retries: 0,
        redials: 0,
        resumes: 0,
        restarts: 0,
        backoff_ms: 0,
        job_latencies_ns: Vec::new(),
        round_latencies_ns: Vec::new(),
        bytes_down: 0,
        bytes_up: 0,
    };
    for job in 0..args.jobs {
        let x = demo_vector(
            args.cols,
            args.width,
            args.seed ^ ((session_idx as u64) << 20) ^ job as u64,
        );
        let expected = plain_matvec(&weights, &x);
        let started = Instant::now();
        let (y, transcript) = client.secure_matvec(&x)?;
        assert_eq!(y, expected, "session {session_idx} job {job} wrong result");
        if job == 0 {
            if let Some(session) = client.session() {
                assert_eq!(session.rows(), args.rows, "server model mismatch");
                assert_eq!(session.cols(), args.cols, "server model mismatch");
            }
        }
        outcome.jobs_ok += 1;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        outcome.job_latencies_ns.push(elapsed_ns);
        outcome
            .round_latencies_ns
            .push(elapsed_ns / transcript.rounds.max(1));
    }
    let stats = client.stats().clone();
    outcome.busy_retries = stats.busy_backoffs;
    // `reconnects` counts the initial dial too; redials are the recoveries.
    outcome.redials = stats.reconnects.saturating_sub(1);
    outcome.resumes = stats.resumes;
    outcome.restarts = stats.restarts;
    outcome.backoff_ms = stats.backoff_ms_total;
    // PONG comes back only after the session thread has counted the last
    // job, so a `--metrics` poll after the run sees every job.
    if let Err(e) = client.ping(session_idx as u64) {
        eprintln!("session {session_idx}: closing ping failed: {e}");
    }
    if let Some(transport) = client.goodbye() {
        outcome.bytes_down = transport.received().bytes();
        outcome.bytes_up = transport.sent().bytes();
    }
    Ok(outcome)
}

fn main() {
    let args = parse_args();
    let model = args.model.map(|model_id| {
        put_demo_model(&args, model_id)
            .unwrap_or_else(|e| fatal(&format!("MODEL_PUT for model {model_id} failed: {e}")))
    });
    let started = Instant::now();
    let outcomes: Vec<Result<SessionOutcome, AcceleratorError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|s| {
                scope.spawn({
                    let args = &args;
                    move || run_session(args, s, model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| fatal("session thread panicked"))
            })
            .collect()
    });
    let wall = started.elapsed();

    let mut jobs_ok = 0usize;
    let mut busy_retries = 0u64;
    let mut redials = 0u64;
    let mut resumes = 0u64;
    let mut restarts = 0u64;
    let mut backoff_ms = 0u64;
    let mut job_hist = Histogram::default();
    let mut round_hist = Histogram::default();
    let mut bytes_down = 0u64;
    let mut bytes_up = 0u64;
    let mut failures = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                jobs_ok += o.jobs_ok;
                busy_retries += o.busy_retries;
                redials += o.redials;
                resumes += o.resumes;
                restarts += o.restarts;
                backoff_ms += o.backoff_ms;
                for ns in o.job_latencies_ns {
                    job_hist.record(ns);
                }
                for ns in o.round_latencies_ns {
                    round_hist.record(ns);
                }
                bytes_down += o.bytes_down;
                bytes_up += o.bytes_up;
            }
            Err(e) => {
                eprintln!("session failed: {e}");
                failures += 1;
            }
        }
    }
    let sessions_per_sec = (args.sessions - failures) as f64 / wall.as_secs_f64();
    let jobs_per_sec = jobs_ok as f64 / wall.as_secs_f64();
    println!(
        "sessions={} ok_jobs={} busy_retries={} redials={} resumes={} restarts={} \
         backoff_ms={} wall_ms={:.1} sessions/s={:.2} jobs/s={:.2} \
         job_p50_us={:.1} job_p95_us={:.1} job_p99_us={:.1} \
         round_p50_us={:.1} round_p95_us={:.1} round_p99_us={:.1} \
         down_bytes={} up_bytes={}",
        args.sessions - failures,
        jobs_ok,
        busy_retries,
        redials,
        resumes,
        restarts,
        backoff_ms,
        wall.as_secs_f64() * 1e3,
        sessions_per_sec,
        jobs_per_sec,
        job_hist.percentile(50.0) as f64 / 1e3,
        job_hist.percentile(95.0) as f64 / 1e3,
        job_hist.percentile(99.0) as f64 / 1e3,
        round_hist.percentile(50.0) as f64 / 1e3,
        round_hist.percentile(95.0) as f64 / 1e3,
        round_hist.percentile(99.0) as f64 / 1e3,
        bytes_down,
        bytes_up,
    );
    if let Some(handle) = model {
        match fetch_model_status(&args, handle.model_id) {
            Ok(status) => println!(
                "model {} ({}x{}): stock={} stock_bytes={} served_prepared={} \
                 served_fallback={} generation={}",
                status.model_id,
                status.rows,
                status.cols,
                status.stock,
                status.stock_bytes,
                status.served_prepared,
                status.served_fallback,
                status.generation,
            ),
            Err(e) => eprintln!("MODEL_INFO fetch failed: {e}"),
        }
    }
    if args.metrics {
        match fetch_server_metrics(&args.addr) {
            Ok(body) => println!("{body}"),
            Err(e) => eprintln!("metrics fetch failed: {e}"),
        }
    }
    assert_eq!(failures, 0, "{failures} sessions failed");
}

/// Registers the demo matrix under `model_id` over a dedicated session and
/// returns the handle every load session will target.
fn put_demo_model(args: &Args, model_id: u64) -> Result<ModelHandle, AcceleratorError> {
    let weights = demo_weights(args.rows, args.cols, args.width, args.seed);
    let mut client = RemoteClient::connect(FramedTcp::connect(&args.addr)?, args.width)?;
    let status = client.put_model(model_id, &weights)?;
    client.goodbye();
    Ok(status.handle())
}

/// Pulls the model's final registry counters over a fresh session.
fn fetch_model_status(args: &Args, model_id: u64) -> Result<remote::ModelStatus, AcceleratorError> {
    let mut client = RemoteClient::connect(FramedTcp::connect(&args.addr)?, args.width)?;
    let status = client.model_info(model_id)?;
    client.goodbye();
    Ok(status)
}

/// Pulls the server's live `METRICS` JSON over a fresh connection; the
/// control frame is answered before any handshake, so no session state is
/// disturbed.
fn fetch_server_metrics(addr: &str) -> Result<String, AcceleratorError> {
    let mut tcp = FramedTcp::connect(addr)?;
    remote::fetch_metrics(&mut tcp)
}
