//! The serving daemon: bind a TCP address and serve GC-MAC sessions.
//!
//! ```text
//! serve [--addr 127.0.0.1:7700] [--width 8] [--rows 4] [--cols 4]
//!       [--seed 42] [--workers 2] [--queue 16] [--idle-ms 30000]
//!       [--step-ms 0] [--resume-cap 64] [--breaker-fulls 0]
//!       [--breaker-open-ms 100] [--breaker-retry-ms 50]
//!       [--flight-cap 64] [--no-recorder]
//!       [--journal-dir DIR] [--no-fsync] [--deterministic-tokens]
//!       [--crash-after-appends N]
//!       [--registry-budget-bytes N] [--target-stock N] [--prefill]
//! ```
//!
//! The model is the deterministic demo matrix; `loadgen` regenerates it
//! from the same `(rows, cols, width, seed)` to verify every result.
//!
//! Resilience knobs: `--step-ms` bounds each protocol step mid-job (a
//! wedged peer is reaped and its job checkpointed for RESUME),
//! `--resume-cap` sizes the checkpoint registry, and the `--breaker-*`
//! flags tune the load-shedding breaker (`--breaker-fulls 0` disables
//! pressure tripping).
//!
//! Durability: `--journal-dir` persists every round checkpoint to a
//! CRC-checksummed write-ahead journal, replayed on the next start — a
//! `kill -9` mid-job becomes a RESUME, not a restart. `--no-fsync` trades
//! the last few appends' durability for latency. The daemon also handles
//! SIGTERM/SIGINT with a graceful drain: stop accepting, flush the
//! journal, let sessions wind down, exit 0. `--crash-after-appends N`
//! (test/bench harnesses only) aborts the process after the Nth journal
//! append, simulating kill -9 at a deterministic crash point;
//! `--deterministic-tokens` (test-only, forgeable) derives resume tokens
//! from the seed chain so restarted servers mint identical ACCEPT frames.
//!
//! Observability: the daemon installs a [`Recorder`] by default, so the
//! admin `METRICS` control frame (e.g. `loadgen --metrics`) answers with
//! live counters, gauges, and p50/p95/p99 percentiles of every job's
//! `server/queue_wait`, `server/garble` and `server/stream` time (the
//! recorder keeps only a bounded number of the newest trace events, so it
//! does not grow however long the daemon runs); pass
//! `--no-recorder` to serve without one (the frame still answers, with
//! `percentiles: null`). `--flight-cap` sizes the per-session flight
//! recorder ring whose last events are dumped as JSON when a session dies
//! (`0` disables it).
//!
//! Prepared models: clients register matrices over `MODEL_PUT` and the
//! daemon pre-garbles single-use streams for them during pool idle time.
//! `--registry-budget-bytes` caps the stream cache (0 = unbounded; LRU
//! whole-model eviction beyond it), `--target-stock` sets the warm streams
//! kept per model, and `--prefill` fills every stock synchronously at
//! startup.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use max_serve::{demo_weights, listen_tcp, GcService, JournalConfig, ServeConfig};
use max_telemetry::Recorder;
use maxelerator::AcceleratorConfig;

struct Args {
    addr: String,
    width: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    workers: usize,
    queue: usize,
    idle_ms: u64,
    step_ms: u64,
    resume_cap: usize,
    breaker_fulls: u32,
    breaker_open_ms: u64,
    breaker_retry_ms: u32,
    flight_cap: usize,
    recorder: bool,
    journal_dir: Option<String>,
    fsync: bool,
    deterministic_tokens: bool,
    crash_after_appends: Option<u64>,
    registry_budget_bytes: u64,
    target_stock: usize,
    prefill: bool,
}

fn fatal(msg: &str) -> ! {
    eprintln!("serve: {msg}");
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
        workers: 2,
        queue: 16,
        idle_ms: 30_000,
        step_ms: 0,
        resume_cap: 64,
        breaker_fulls: 0,
        breaker_open_ms: 100,
        breaker_retry_ms: 50,
        flight_cap: 64,
        recorder: true,
        journal_dir: None,
        fsync: true,
        deterministic_tokens: false,
        crash_after_appends: None,
        registry_budget_bytes: 0,
        target_stock: 2,
        prefill: false,
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
            "--workers" => args.workers = parsed("--workers", &value("--workers")),
            "--queue" => args.queue = parsed("--queue", &value("--queue")),
            "--idle-ms" => args.idle_ms = parsed("--idle-ms", &value("--idle-ms")),
            "--step-ms" => args.step_ms = parsed("--step-ms", &value("--step-ms")),
            "--resume-cap" => args.resume_cap = parsed("--resume-cap", &value("--resume-cap")),
            "--breaker-fulls" => {
                args.breaker_fulls = parsed("--breaker-fulls", &value("--breaker-fulls"))
            }
            "--breaker-open-ms" => {
                args.breaker_open_ms = parsed("--breaker-open-ms", &value("--breaker-open-ms"))
            }
            "--breaker-retry-ms" => {
                args.breaker_retry_ms = parsed("--breaker-retry-ms", &value("--breaker-retry-ms"))
            }
            "--flight-cap" => args.flight_cap = parsed("--flight-cap", &value("--flight-cap")),
            "--no-recorder" => args.recorder = false,
            "--journal-dir" => args.journal_dir = Some(value("--journal-dir")),
            "--no-fsync" => args.fsync = false,
            "--deterministic-tokens" => args.deterministic_tokens = true,
            "--crash-after-appends" => {
                args.crash_after_appends = Some(parsed(
                    "--crash-after-appends",
                    &value("--crash-after-appends"),
                ))
            }
            "--registry-budget-bytes" => {
                args.registry_budget_bytes =
                    parsed("--registry-budget-bytes", &value("--registry-budget-bytes"))
            }
            "--target-stock" => {
                args.target_stock = parsed("--target-stock", &value("--target-stock"))
            }
            "--prefill" => args.prefill = true,
            other => fatal(&format!("unknown flag: {other}")),
        }
    }
    args
}

/// SIGTERM/SIGINT flag, set by the (async-signal-safe) handler and polled
/// by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: a relaxed store.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGTERM and SIGINT via the raw libc `signal`
/// symbol, so the daemon needs no signal-handling crate. The library stays
/// `forbid(unsafe_code)`; this binary is its own crate root and confines
/// the unsafety to this one registration.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

fn main() {
    let args = parse_args();
    let config = AcceleratorConfig::new(args.width);
    let weights = demo_weights(args.rows, args.cols, args.width, args.seed);
    let mut serve_config = ServeConfig::new(config, weights, args.seed);
    serve_config.workers = args.workers;
    serve_config.queue_capacity = args.queue;
    serve_config.idle_timeout = (args.idle_ms > 0).then(|| Duration::from_millis(args.idle_ms));
    serve_config.step_timeout = (args.step_ms > 0).then(|| Duration::from_millis(args.step_ms));
    serve_config.resume_capacity = args.resume_cap;
    serve_config.breaker.queue_full_trip = args.breaker_fulls;
    serve_config.breaker.open_for = Duration::from_millis(args.breaker_open_ms.max(1));
    serve_config.breaker.retry_after_ms = args.breaker_retry_ms;
    serve_config.flight_capacity = args.flight_cap;
    serve_config.deterministic_resume_tokens = args.deterministic_tokens;
    serve_config.registry_budget_bytes =
        (args.registry_budget_bytes > 0).then_some(args.registry_budget_bytes);
    serve_config.registry_target_stock = args.target_stock;
    serve_config.prefill = args.prefill;
    if args.recorder {
        serve_config.recorder = Some(Arc::new(Recorder::new()));
    }
    if let Some(dir) = &args.journal_dir {
        let mut journal = JournalConfig::new(dir);
        journal.fsync = args.fsync;
        journal.max_live = args.resume_cap;
        journal.abort_after_appends = args.crash_after_appends;
        serve_config.journal = Some(journal);
    }
    install_signal_handlers();
    let service = GcService::start(serve_config);
    let replay = service.journal_replay().clone();
    let handle = match listen_tcp(service, &args.addr) {
        Ok(handle) => handle,
        Err(e) => fatal(&format!("cannot bind {}: {e}", args.addr)),
    };
    println!(
        "serving b={} model {}x{} seed={} on {} ({} workers, queue {}, \
         flight-cap {}, recorder {})",
        args.width,
        args.rows,
        args.cols,
        args.seed,
        handle.addr(),
        args.workers,
        args.queue,
        args.flight_cap,
        if args.recorder { "on" } else { "off" },
    );
    if args.journal_dir.is_some() {
        println!(
            "journal replayed {} records into {} session checkpoints and \
             {} prepared models (quarantined {}, torn tail {})",
            replay.records_applied,
            replay.sessions,
            replay.models,
            replay.quarantined.len(),
            replay.truncated_tail,
        );
    }
    println!(
        "registry: budget {} target-stock {} prefill {}",
        if args.registry_budget_bytes > 0 {
            format!("{} bytes", args.registry_budget_bytes)
        } else {
            "unbounded".to_string()
        },
        args.target_stock,
        if args.prefill { "on" } else { "off" },
    );
    loop {
        if SHUTDOWN.load(Ordering::Relaxed) {
            // Graceful drain: stop accepting, reject new handshakes, let
            // in-flight sessions finish or checkpoint, flush the journal.
            println!("signal received, draining");
            let stats = handle.shutdown();
            println!(
                "drained: {} sessions served, {} jobs completed, {} checkpoints",
                stats.sessions_started, stats.jobs_completed, stats.checkpoints_saved,
            );
            std::process::exit(0);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
