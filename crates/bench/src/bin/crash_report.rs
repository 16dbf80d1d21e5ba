//! Crash-durability report: recovery cost of the write-ahead checkpoint
//! journal across deterministic crash points, with fsync on and off.
//!
//! Each sweep point drives one job against a journaled [`GcService`] whose
//! server-side transport is cut at a fixed protocol event — pre-job (before
//! the first element), mid-element, or pre-STATS (all data delivered, the
//! summary frame lost) — then *abandons the service without any shutdown*.
//! That is the in-process equivalent of `kill -9`: no flush, no drain, the
//! in-memory checkpoint store is gone; what survives is every record the
//! journal wrote, synced or not, since the page cache outlives a killed
//! process. A second service incarnation boots on the same journal
//! directory (replay + compaction timed as `boot_ms`), the client
//! reattaches, and the job finishes over RESUME (`recovery_ms`), verified
//! against the plaintext `W·x`.
//!
//! The fsync baseline rows time an uninterrupted job with the journal off,
//! on without fsync, and on with fsync — the durability tax in one column.
//! The full sweep lands in `BENCH_crash.json` (schema
//! `maxelerator-crash-v1`).
//!
//! ```text
//! cargo run --release -p max-bench --bin crash_report
//! ```

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use max_bench::{row, rule};
use max_gc::channel::Duplex;
use max_gc::{FaultSpec, FaultTransport};
use max_serve::{demo_vector, demo_weights, plain_matvec, GcService, JournalConfig, ServeConfig};
use max_telemetry::report::JsonValue;
use maxelerator::{AcceleratorConfig, RemoteClient};

const ROWS: usize = 4;
const COLS: usize = 4;
const WIDTH: usize = 8;
const SEED: u64 = 0xC4A5;

/// Server-side frame events: recv HELLO, send ACCEPT, recv JOB, send READY.
const HANDSHAKE_EVENTS: u64 = 4;
/// Per element: send CIPHER, send ROUNDS, after the batch's one recv EXT
/// (the job's 8 elements of 32 OT transfers are one batch).
const EVENTS_PER_ELEMENT: u64 = 2;

#[derive(Clone, Copy)]
enum CrashPoint {
    /// Dies before the first element's data leaves the server.
    PreJob,
    /// Dies partway through the middle element.
    MidElement,
    /// Dies after every element's data, before STATS.
    PreStats,
}

impl CrashPoint {
    fn name(self) -> &'static str {
        match self {
            CrashPoint::PreJob => "pre-job",
            CrashPoint::MidElement => "mid-element",
            CrashPoint::PreStats => "pre-stats",
        }
    }

    /// The server-side event index after which the wire dies.
    fn cut_after(self, elements: u64) -> u64 {
        match self {
            CrashPoint::PreJob => HANDSHAKE_EVENTS,
            CrashPoint::MidElement => {
                HANDSHAKE_EVENTS + 1 + (elements / 2) * EVENTS_PER_ELEMENT + 1
            }
            CrashPoint::PreStats => HANDSHAKE_EVENTS + 1 + elements * EVENTS_PER_ELEMENT,
        }
    }
}

struct SweepPoint {
    crash_point: &'static str,
    fsync: bool,
    elements_at_crash: usize,
    appends_at_crash: u64,
    journal_bytes_at_crash: u64,
    records_replayed: u64,
    boot_ms: f64,
    recovery_ms: f64,
    wall_ms: f64,
    verified: bool,
}

struct BaselinePoint {
    mode: &'static str,
    wall_ms: f64,
    appends: u64,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(journal: Option<JournalConfig>) -> GcService {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, SEED);
    cfg.journal = journal;
    GcService::start(cfg)
}

fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One uninterrupted job; returns wall time and journal appends.
fn run_baseline(mode: &'static str, journal: Option<JournalConfig>) -> BaselinePoint {
    let dir = journal.as_ref().map(|cfg| cfg.dir.clone());
    let svc = service(journal);
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let xs: Vec<Vec<i64>> = (0..8)
        .map(|i| demo_vector(COLS, WIDTH, SEED ^ (i + 1)))
        .collect();
    let started = Instant::now();
    let mut client = RemoteClient::connect(svc.connect(), WIDTH).expect("baseline handshake");
    let (ys, _) = client.secure_matmul(&xs).expect("baseline job");
    let wall = started.elapsed();
    for (x, y) in xs.iter().zip(&ys) {
        assert_eq!(y, &plain_matvec(&weights, x), "baseline must verify");
    }
    client.goodbye();
    let appends = svc.journal().map_or(0, |j| j.appends());
    svc.shutdown();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    BaselinePoint {
        mode,
        wall_ms: wall.as_secs_f64() * 1e3,
        appends,
    }
}

/// One crash-and-recover cycle at the given crash point.
fn run_crash(point: CrashPoint, fsync: bool) -> SweepPoint {
    let tag = format!(
        "{}-{}",
        point.name(),
        if fsync { "fsync" } else { "nofsync" }
    );
    let dir = temp_dir(&tag);
    let journal = |fsync: bool| {
        let mut cfg = JournalConfig::new(&dir);
        cfg.fsync = fsync;
        cfg
    };
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let xs: Vec<Vec<i64>> = (0..2)
        .map(|i| demo_vector(COLS, WIDTH, SEED ^ (i + 1)))
        .collect();
    let elements = (xs.len() * ROWS) as u64;

    let started = Instant::now();
    let first = service(Some(journal(fsync)));
    let (server_end, client_end) = Duplex::pair();
    first.serve_transport(FaultTransport::new(
        server_end,
        FaultSpec::none(SEED).with_cut_after(point.cut_after(elements)),
    ));
    let mut client = RemoteClient::connect(client_end, WIDTH).expect("handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut must kill the first run");
    let elements_at_crash = progress.elements_done();
    let (dead, state) = client.into_parts();
    drop(dead);
    // The dead session deposits its in-memory checkpoint on its way out;
    // once that lands, the session thread is done and the journal is quiet
    // — safe to hand the directory to the next incarnation.
    wait_until("crashed session to wind down", || {
        first.stats().checkpoints_saved >= 1
    });
    let appends_at_crash = first.journal().map_or(0, |j| j.appends());
    let journal_bytes_at_crash = journal_bytes(&dir);
    // kill -9: no shutdown, no flush — the registry dies with the process.
    drop(first);

    let boot_started = Instant::now();
    let second = service(Some(journal(fsync)));
    let boot_ms = boot_started.elapsed().as_secs_f64() * 1e3;
    let records_replayed = second.journal_replay().records_applied;

    let recovery_started = Instant::now();
    let mut client = RemoteClient::reattach(second.connect(), state);
    client
        .resume_job(&mut progress)
        .expect("RESUME after replay");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, _) = progress.into_result();
    let recovery_ms = recovery_started.elapsed().as_secs_f64() * 1e3;
    let verified = xs
        .iter()
        .zip(&ys)
        .all(|(x, y)| y == &plain_matvec(&weights, x));
    client.goodbye();
    second.shutdown();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);

    SweepPoint {
        crash_point: point.name(),
        fsync,
        elements_at_crash,
        appends_at_crash,
        journal_bytes_at_crash,
        records_replayed,
        boot_ms,
        recovery_ms,
        wall_ms,
        verified,
    }
}

fn main() {
    println!(
        "crash_report: model {ROWS}x{COLS}, b={WIDTH} signed, in-process kill-9 at three \
         crash points x fsync on/off, seed {SEED:#x}"
    );
    println!();

    let baselines = [
        run_baseline("no-journal", None),
        run_baseline("journal", {
            let mut cfg = JournalConfig::new(temp_dir("base-nofsync"));
            cfg.fsync = false;
            Some(cfg)
        }),
        run_baseline(
            "journal+fsync",
            Some(JournalConfig::new(temp_dir("base-fsync"))),
        ),
    ];
    let bwidths = [14usize, 12, 8];
    println!(
        "  {}",
        row(
            &["durability", "wall (ms)", "appends"].map(String::from),
            &bwidths
        )
    );
    println!("  {}", rule(&bwidths));
    for b in &baselines {
        println!(
            "  {}",
            row(
                &[
                    b.mode.to_string(),
                    format!("{:.1}", b.wall_ms),
                    format!("{}", b.appends),
                ],
                &bwidths
            )
        );
    }
    println!();

    let points: Vec<SweepPoint> = [
        CrashPoint::PreJob,
        CrashPoint::MidElement,
        CrashPoint::PreStats,
    ]
    .into_iter()
    .flat_map(|p| [true, false].map(|fsync| run_crash(p, fsync)))
    .collect();

    let widths = [12usize, 6, 9, 8, 10, 9, 9, 12, 9];
    println!(
        "  {}",
        row(
            &[
                "crash point",
                "fsync",
                "elements",
                "appends",
                "journal B",
                "replayed",
                "boot ms",
                "recovery ms",
                "verified",
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
                    p.crash_point.to_string(),
                    if p.fsync { "on" } else { "off" }.to_string(),
                    format!("{}", p.elements_at_crash),
                    format!("{}", p.appends_at_crash),
                    format!("{}", p.journal_bytes_at_crash),
                    format!("{}", p.records_replayed),
                    format!("{:.2}", p.boot_ms),
                    format!("{:.2}", p.recovery_ms),
                    if p.verified { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        assert!(
            p.verified,
            "crash point {} produced a wrong result",
            p.crash_point
        );
    }

    let json = build_json(&baselines, &points);
    let path = "BENCH_crash.json";
    std::fs::write(path, json.render_pretty()).expect("write crash artifact");
    println!();
    println!("wrote {path}");
}

fn build_json(baselines: &[BaselinePoint], points: &[SweepPoint]) -> JsonValue {
    let mut workload = JsonValue::object();
    workload
        .push("rows", JsonValue::UInt(ROWS as u64))
        .push("cols", JsonValue::UInt(COLS as u64))
        .push("bit_width", JsonValue::UInt(WIDTH as u64))
        .push("seed", JsonValue::UInt(SEED))
        .push("transport", JsonValue::Str("in-memory duplex".to_string()));

    let mut base = Vec::new();
    for b in baselines {
        let mut point = JsonValue::object();
        point
            .push("mode", JsonValue::Str(b.mode.to_string()))
            .push("wall_ms", JsonValue::Float(b.wall_ms))
            .push("journal_appends", JsonValue::UInt(b.appends));
        base.push(point);
    }

    let mut sweep = Vec::new();
    for p in points {
        let mut point = JsonValue::object();
        point
            .push("crash_point", JsonValue::Str(p.crash_point.to_string()))
            .push("fsync", JsonValue::Bool(p.fsync))
            .push(
                "elements_at_crash",
                JsonValue::UInt(p.elements_at_crash as u64),
            )
            .push(
                "journal_appends_at_crash",
                JsonValue::UInt(p.appends_at_crash),
            )
            .push(
                "journal_bytes_at_crash",
                JsonValue::UInt(p.journal_bytes_at_crash),
            )
            .push("records_replayed", JsonValue::UInt(p.records_replayed))
            .push("boot_ms", JsonValue::Float(p.boot_ms))
            .push("recovery_ms", JsonValue::Float(p.recovery_ms))
            .push("wall_ms", JsonValue::Float(p.wall_ms))
            .push("verified", JsonValue::Bool(p.verified));
        sweep.push(point);
    }

    let mut root = JsonValue::object();
    root.push("schema", JsonValue::Str("maxelerator-crash-v1".to_string()))
        .push("workload", workload)
        .push("baseline", JsonValue::Array(base))
        .push("sweep", JsonValue::Array(sweep));
    root
}
