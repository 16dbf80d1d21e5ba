//! Chaos-resilience report: goodput and recovery latency of the serving
//! stack under seeded transport fault mixes.
//!
//! Each sweep point boots a fresh [`GcService`] on a loopback TCP listener
//! (short step deadline so checkpoints land fast) and drives it with a
//! [`ResilientClient`] whose every dial is wrapped in a deterministic
//! [`FaultTransport`]. Detectable faults — drops, truncation, cuts — are
//! recovered transparently by the client (backoff, redial, RESUME).
//! Bit flips, duplicates, and reorders used to be *silent* faults that
//! yielded garbage results; since protocol v6 every frame is CRC-sealed
//! and both sides keep rolling transcript digests, so they surface as
//! typed checksum/integrity errors and are healed under the client's
//! integrity budget. Every job is still verified against the plaintext
//! `W·x` as the final arbiter, and the report *asserts* that no mix
//! produces a silently wrong result. The full sweep lands in
//! `BENCH_chaos.json` (schema `maxelerator-chaos-v1`).
//!
//! ```text
//! cargo run --release -p max-bench --bin chaos_report [jobs_per_mix]
//! ```

use std::time::{Duration, Instant};

use max_bench::{row, rule};
use max_gc::{FaultSpec, FaultStats, FaultTransport, FramedTcp};
use max_serve::{demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, ServeConfig};
use max_telemetry::report::JsonValue;
use maxelerator::{AcceleratorConfig, AcceleratorError, ResilientClient, RetryPolicy};

const ROWS: usize = 4;
const COLS: usize = 4;
const WIDTH: usize = 8;
const SEED: u64 = 0xC405;
/// Re-run budget for jobs whose result fails plaintext verification. With
/// v6 seals and digests this loop should never need a second try — the
/// report asserts `wrong_results == 0` — but the budget stays as the
/// harness's own belt-and-braces.
const VERIFY_TRIES: u32 = 6;

/// One entry of the fault sweep: a named mix of per-mille fault rates.
struct FaultMix {
    name: &'static str,
    spec: fn(u64) -> FaultSpec,
}

const MIXES: [FaultMix; 5] = [
    FaultMix {
        name: "none",
        spec: FaultSpec::none,
    },
    FaultMix {
        name: "drops",
        spec: |seed| FaultSpec::none(seed).with_drops(60),
    },
    FaultMix {
        name: "corrupt",
        spec: |seed| FaultSpec::none(seed).with_corruption(25),
    },
    FaultMix {
        name: "dup+reorder",
        spec: |seed| {
            FaultSpec::none(seed)
                .with_duplicates(15)
                .with_reordering(15)
        },
    },
    FaultMix {
        name: "mixed",
        spec: |seed| {
            FaultSpec::none(seed)
                .with_drops(12)
                .with_corruption(8)
                .with_duplicates(8)
                .with_reordering(8)
                .with_truncation(6)
                .with_delays(25, 2)
        },
    },
];

struct MixPoint {
    name: &'static str,
    jobs: u64,
    verified_ok: u64,
    wrong_results: u64,
    attempts: u64,
    reconnects: u64,
    resumes: u64,
    restarts: u64,
    busy_backoffs: u64,
    backoff_ms: u64,
    recovery_p50_ms: u64,
    recovery_p95_ms: u64,
    faults_injected: u64,
    corrupt_detected: u64,
    corrupt_delivered: u64,
    integrity_detected: u64,
    integrity_healed: u64,
    wall: Duration,
    goodput_jobs_per_sec: f64,
    server_checkpoints: u64,
    server_resumed: u64,
    server_integrity_rejects: u64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs_per_mix: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    if jobs_per_mix == 0 {
        eprintln!("chaos_report needs at least one job per mix");
        std::process::exit(2);
    }

    println!(
        "chaos_report: {jobs_per_mix} jobs per fault mix, model {ROWS}x{COLS}, b={WIDTH} signed, \
         loopback TCP, seed {SEED:#x}"
    );
    println!();

    let points: Vec<MixPoint> = MIXES
        .iter()
        .enumerate()
        .map(|(i, mix)| run_mix(mix, SEED ^ ((i as u64) << 40), jobs_per_mix))
        .collect();

    let widths = [12usize, 6, 6, 6, 9, 8, 8, 9, 7, 12, 12, 10];
    println!(
        "  {}",
        row(
            &[
                "mix",
                "jobs",
                "ok",
                "wrong",
                "attempts",
                "redials",
                "resumes",
                "restarts",
                "integ",
                "rec p50 (ms)",
                "rec p95 (ms)",
                "goodput/s",
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
                    p.name.to_string(),
                    format!("{}", p.jobs),
                    format!("{}", p.verified_ok),
                    format!("{}", p.wrong_results),
                    format!("{}", p.attempts),
                    format!("{}", p.reconnects.saturating_sub(1)),
                    format!("{}", p.resumes),
                    format!("{}", p.restarts),
                    format!("{}", p.integrity_detected),
                    format!("{}", p.recovery_p50_ms),
                    format!("{}", p.recovery_p95_ms),
                    format!("{:.2}", p.goodput_jobs_per_sec),
                ],
                &widths
            )
        );
    }

    let json = build_json(jobs_per_mix, &points);
    let path = "BENCH_chaos.json";
    std::fs::write(path, json.render_pretty()).expect("write chaos artifact");
    println!();
    println!("wrote {path}");
}

fn run_mix(mix: &FaultMix, mix_seed: u64, jobs: u64) -> MixPoint {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
    // Short server step deadline: a cut session is reaped (and its round
    // checkpoint deposited) well before the client's RESUME arrives.
    cfg.step_timeout = Some(Duration::from_millis(100));
    cfg.idle_timeout = Some(Duration::from_secs(5));
    let service = GcService::start(cfg);
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();

    // Every dial gets its own deterministic fault schedule: same binary,
    // same seed, same faults.
    let mut dials = 0u64;
    let mut fault_totals: Vec<FaultStats> = Vec::new();
    let spec = mix.spec;
    let policy = RetryPolicy {
        max_attempts: 30,
        base_backoff_ms: 5,
        max_backoff_ms: 120,
        step_timeout: Some(Duration::from_millis(400)),
        jitter_seed: mix_seed,
        // Generous: at the sweep's corruption rates a job can eat several
        // detected flips back to back without the run counting as a
        // failure — what matters is that every heal lands on a verified
        // plaintext.
        integrity_retries: 12,
    };
    let started = Instant::now();
    let mut client = ResilientClient::new(
        move || {
            dials += 1;
            let tcp = FramedTcp::connect(addr).map_err(AcceleratorError::from)?;
            Ok(FaultTransport::new(tcp, spec(mix_seed ^ dials)))
        },
        WIDTH,
        policy,
    );

    let mut verified_ok = 0u64;
    let mut wrong_results = 0u64;
    for job in 0..jobs {
        let x = demo_vector(COLS, WIDTH, mix_seed ^ (0x0b << 56) ^ job);
        let expected = plain_matvec(&weights, &x);
        // Silent OT corruption produces a *wrong* answer, not an error;
        // the only defense is plaintext verification and a re-run.
        let mut verified = false;
        for _ in 0..VERIFY_TRIES {
            let (y, _) = match client.secure_matvec(&x) {
                Ok(out) => out,
                Err(e) => panic!("mix {}: job {job} exhausted retries: {e}", mix.name),
            };
            if y == expected {
                verified = true;
                break;
            }
            wrong_results += 1;
        }
        assert!(
            verified,
            "mix {}: job {job} never verified in {VERIFY_TRIES} tries",
            mix.name
        );
        verified_ok += 1;
    }
    // The tentpole claim, asserted where the goodput is measured: with
    // every frame sealed and both transcripts digested, injected corruption
    // ends in a *detected* retry, never a silently wrong plaintext.
    assert_eq!(
        wrong_results, 0,
        "mix {}: {wrong_results} silently wrong results slipped past the integrity ladder",
        mix.name
    );
    let stats = client.stats().clone();
    if let Some(transport) = client.goodbye() {
        fault_totals.push(transport.stats());
    }
    let wall = started.elapsed();
    let server = handle.shutdown();

    let mut recovery = stats.recovery_ms.clone();
    recovery.sort_unstable();
    let recovery_p50_ms = recovery.get(recovery.len() / 2).copied().unwrap_or(0);
    let recovery_p95_ms = recovery
        .get(recovery.len().saturating_mul(95) / 100)
        .copied()
        .unwrap_or(0);
    // Only the last live transport survives to be inspected; torn-down
    // dials take their tallies with them, so this undercounts — it is a
    // lower bound, not the injected total.
    let faults_injected = fault_totals
        .iter()
        .map(|f| f.drops + f.corruptions + f.duplicates + f.reorders + f.truncations + f.cut as u64)
        .sum();
    let corrupt_detected = fault_totals.iter().map(|f| f.corrupt_detected).sum();
    let corrupt_delivered: u64 = fault_totals.iter().map(|f| f.corrupt_delivered).sum();
    // Every protocol frame is sealed, so corruption of protocol traffic is
    // always in the detected bucket; a delivered flip would mean an
    // unsealed frame leaked onto the wire.
    assert_eq!(
        corrupt_delivered, 0,
        "mix {}: {corrupt_delivered} flips landed on unsealed frames",
        mix.name
    );

    MixPoint {
        name: mix.name,
        jobs,
        verified_ok,
        wrong_results,
        attempts: stats.attempts,
        reconnects: stats.reconnects,
        resumes: stats.resumes,
        restarts: stats.restarts,
        busy_backoffs: stats.busy_backoffs,
        backoff_ms: stats.backoff_ms_total,
        recovery_p50_ms,
        recovery_p95_ms,
        faults_injected,
        corrupt_detected,
        corrupt_delivered,
        integrity_detected: stats.integrity_detected,
        integrity_healed: stats.integrity_healed,
        wall,
        goodput_jobs_per_sec: verified_ok as f64 / wall.as_secs_f64(),
        server_checkpoints: server.checkpoints_saved,
        server_resumed: server.jobs_resumed,
        server_integrity_rejects: server.integrity_rejects,
    }
}

fn build_json(jobs_per_mix: u64, points: &[MixPoint]) -> JsonValue {
    let mut workload = JsonValue::object();
    workload
        .push("rows", JsonValue::UInt(ROWS as u64))
        .push("cols", JsonValue::UInt(COLS as u64))
        .push("bit_width", JsonValue::UInt(WIDTH as u64))
        .push("jobs_per_mix", JsonValue::UInt(jobs_per_mix))
        .push("verify_tries", JsonValue::UInt(u64::from(VERIFY_TRIES)))
        .push("seed", JsonValue::UInt(SEED))
        .push("transport", JsonValue::Str("loopback-tcp".to_string()));

    let mut sweep = Vec::new();
    for p in points {
        let mut point = JsonValue::object();
        point
            .push("mix", JsonValue::Str(p.name.to_string()))
            .push("jobs", JsonValue::UInt(p.jobs))
            .push("verified_ok", JsonValue::UInt(p.verified_ok))
            .push("wrong_results", JsonValue::UInt(p.wrong_results))
            .push("attempts", JsonValue::UInt(p.attempts))
            .push("reconnects", JsonValue::UInt(p.reconnects))
            .push("resumes", JsonValue::UInt(p.resumes))
            .push("restarts", JsonValue::UInt(p.restarts))
            .push("busy_backoffs", JsonValue::UInt(p.busy_backoffs))
            .push("backoff_ms_total", JsonValue::UInt(p.backoff_ms))
            .push("recovery_p50_ms", JsonValue::UInt(p.recovery_p50_ms))
            .push("recovery_p95_ms", JsonValue::UInt(p.recovery_p95_ms))
            .push(
                "faults_injected_low_bound",
                JsonValue::UInt(p.faults_injected),
            )
            .push(
                "corrupt_detected_low_bound",
                JsonValue::UInt(p.corrupt_detected),
            )
            .push("corrupt_delivered", JsonValue::UInt(p.corrupt_delivered))
            .push("integrity_detected", JsonValue::UInt(p.integrity_detected))
            .push("integrity_healed", JsonValue::UInt(p.integrity_healed))
            .push("wall_ms", JsonValue::Float(p.wall.as_secs_f64() * 1e3))
            .push(
                "goodput_jobs_per_sec",
                JsonValue::Float(p.goodput_jobs_per_sec),
            )
            .push("server_checkpoints", JsonValue::UInt(p.server_checkpoints))
            .push("server_jobs_resumed", JsonValue::UInt(p.server_resumed))
            .push(
                "server_integrity_rejects",
                JsonValue::UInt(p.server_integrity_rejects),
            );
        sweep.push(point);
    }

    let mut root = JsonValue::object();
    root.push("schema", JsonValue::Str("maxelerator-chaos-v1".to_string()))
        .push("workload", workload)
        .push("sweep", JsonValue::Array(sweep));
    root
}
