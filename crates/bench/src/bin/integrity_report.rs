//! Transcript-integrity report: what the v6 ladder (frame CRC seals →
//! rolling transcript digests → bounded heal retries) costs and what it
//! catches.
//!
//! Three measurements land in `BENCH_integrity.json` (schema
//! `maxelerator-integrity-v1`):
//!
//! 1. **Digest overhead on the warm path** — prepared-stream digest
//!    re-verification is *pipelined*: the server sends READY first and
//!    re-hashes the stream while the client computes its first OT
//!    extension, so the only integrity work left inside the JOB → READY
//!    admission window is the CRC seal/open of the two control frames.
//!    The report times that in-window cost against the measured warm
//!    ready latency and the full [`stream_digest`] re-hash against the
//!    whole-job latency, asserting the first stays ≤ 10% and the second
//!    ≤ 20%. Wire overhead
//!    (4-byte CRC per frame, 16-byte digest marks per element + STATS)
//!    is reported as a fraction of total transcript bytes.
//! 2. **Detection rate per fault mix** — targeted single-bit flips on
//!    handshake, outbound data, inbound data, and STATS frames. Every
//!    trial must end in the correct plaintext; a wrong result is a report
//!    failure, so the detected-or-harmless rate is asserted at 100%.
//! 3. **Heal latency per fault mix** — wall time of a flipped job
//!    (detection + rewind + retry included) next to the clean baseline.
//!
//! ```text
//! cargo run --release -p max-bench --bin integrity_report
//! ```

use std::time::{Duration, Instant};

use bytes::Bytes;
use max_bench::{row, rule};
use max_gc::channel::{ChannelStats, FrameKind, TransportError};
use max_gc::Transport;
use max_serve::{
    demo_vector, demo_weights, garble_stream, plain_matvec, stream_digest, GcService, ServeConfig,
};
use max_telemetry::report::JsonValue;
use max_telemetry::Histogram;
use maxelerator::{AcceleratorConfig, ModelHandle, RemoteClient, ResilientClient, RetryPolicy};

const WIDTH: usize = 8;
const SEED: u64 = 0x16E7;
const MODEL_ID: u64 = 1;
/// Warm-path sizing (matches `registry_report`'s middle sweep point).
const WARM_ROWS: usize = 8;
const WARM_COLS: usize = 8;
const WARM_JOBS: usize = 8;
/// Fault-mix sizing: small jobs keep the flip trials brisk.
const MIX_ROWS: usize = 3;
const MIX_COLS: usize = 3;
const TRIALS_PER_MIX: usize = 8;
const MAX_OVERHEAD_PCT: f64 = 10.0;
/// Bar for the pipelined stream re-hash as a share of the whole warm job:
/// a serial ~0.45 ms MMO chain over the 411 kB stream, overlapped with the
/// client's first OT extension, against a ≈ 4 ms job (EXPERIMENTS.md).
const MAX_VERIFY_PCT_OF_JOB: f64 = 20.0;

/// One targeted flip coordinate per trial: direction + frame index,
/// swept over offsets and bits by the trial counter.
struct FaultMix {
    name: &'static str,
    outbound: bool,
    target: u64,
}

const MIXES: [FaultMix; 4] = [
    // HELLO: the first client frame — dies at the server's CRC check.
    FaultMix {
        name: "handshake",
        outbound: true,
        target: 0,
    },
    // First EXT: outbound OT data — CRC at the server, digest behind it.
    FaultMix {
        name: "data-out",
        outbound: true,
        target: 2,
    },
    // First CIPHER: inbound OT data — CRC at the client.
    FaultMix {
        name: "data-in",
        outbound: false,
        target: 2,
    },
    // STATS: the final frame, carrying the server's transcript digest.
    // Inbound frames: ACCEPT, READY, then CIPHER + ROUNDS per element.
    FaultMix {
        name: "stats",
        outbound: false,
        target: (2 + MIX_ROWS * 2) as u64,
    },
];

/// Same targeted-flip transport as the `integrity_e2e` keystone test:
/// one bit of one frame in one direction, everything else untouched.
struct FlipOneBit<T> {
    inner: T,
    outbound: bool,
    target: u64,
    offset_draw: u64,
    bit: u8,
    seen: u64,
    armed: bool,
}

impl<T> FlipOneBit<T> {
    fn flip(&mut self, frame: Bytes) -> Bytes {
        let idx = self.seen;
        self.seen += 1;
        if !self.armed || idx != self.target || frame.is_empty() {
            return frame;
        }
        self.armed = false;
        let mut bytes = frame.to_vec();
        let offset = (self.offset_draw % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << (self.bit % 8);
        Bytes::from(bytes)
    }
}

impl<T: Transport> Transport for FlipOneBit<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        let frame = if self.outbound {
            self.flip(frame)
        } else {
            frame
        };
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        Ok(if self.outbound {
            frame
        } else {
            self.flip(frame)
        })
    }

    fn sent_stats(&self) -> ChannelStats {
        self.inner.sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.inner.received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

struct Overhead {
    warm_ready_p50_ns: u64,
    warm_ready_p95_ns: u64,
    warm_job_p50_ns: u64,
    in_window_crc_ns: u64,
    in_window_pct_of_ready: f64,
    verify_p50_ns: u64,
    verify_pct_of_job: f64,
    digest_wire_bytes_per_job: u64,
    crc_wire_bytes_per_job: u64,
    transcript_bytes_per_job: u64,
    wire_overhead_pct: f64,
}

struct MixPoint {
    name: &'static str,
    trials: u64,
    wrong_results: u64,
    integrity_detected: u64,
    integrity_healed: u64,
    retries: u64,
    resumes: u64,
    restarts: u64,
    flipped_p50_ns: u64,
    clean_p50_ns: u64,
}

fn main() {
    println!(
        "integrity_report: v6 ladder cost and coverage — warm-path digest \
         overhead, single-bit detection rate, heal latency; b={WIDTH} signed"
    );
    println!();

    let overhead = measure_overhead();
    println!(
        "  warm ready p50 {:.1} us | in-window CRC {:.2} us ({:.3}% of ready) | \
         pipelined stream verify p50 {:.1} us ({:.3}% of whole job; bar {MAX_VERIFY_PCT_OF_JOB}%)",
        overhead.warm_ready_p50_ns as f64 / 1e3,
        overhead.in_window_crc_ns as f64 / 1e3,
        overhead.in_window_pct_of_ready,
        overhead.verify_p50_ns as f64 / 1e3,
        overhead.verify_pct_of_job,
    );
    println!(
        "  wire: {} digest B + {} CRC B on {} transcript B per job ({:.3}% overhead)",
        overhead.digest_wire_bytes_per_job,
        overhead.crc_wire_bytes_per_job,
        overhead.transcript_bytes_per_job,
        overhead.wire_overhead_pct,
    );
    println!();
    assert!(
        overhead.in_window_pct_of_ready <= MAX_OVERHEAD_PCT,
        "in-window integrity work (control-frame CRC) costs {:.3}% of warm \
         ready latency, bar is {MAX_OVERHEAD_PCT}%",
        overhead.in_window_pct_of_ready,
    );
    assert!(
        overhead.verify_pct_of_job <= MAX_VERIFY_PCT_OF_JOB,
        "pipelined stream-digest verification costs {:.3}% of the whole warm \
         job, bar is {MAX_VERIFY_PCT_OF_JOB}%",
        overhead.verify_pct_of_job,
    );

    let clean_p50 = measure_clean_mix_baseline();
    let points: Vec<MixPoint> = MIXES.iter().map(|mix| run_mix(mix, clean_p50)).collect();

    let widths = [10usize, 7, 6, 9, 7, 8, 8, 8, 12, 11];
    println!(
        "  {}",
        row(
            &[
                "mix",
                "trials",
                "wrong",
                "detected",
                "healed",
                "retries",
                "resumes",
                "restarts",
                "flip p50 ms",
                "clean (ms)",
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
                    p.trials.to_string(),
                    p.wrong_results.to_string(),
                    p.integrity_detected.to_string(),
                    p.integrity_healed.to_string(),
                    p.retries.to_string(),
                    p.resumes.to_string(),
                    p.restarts.to_string(),
                    format!("{:.2}", p.flipped_p50_ns as f64 / 1e6),
                    format!("{:.2}", p.clean_p50_ns as f64 / 1e6),
                ],
                &widths
            )
        );
    }
    println!();

    for p in &points {
        assert_eq!(
            p.wrong_results, 0,
            "mix {}: {} flips decoded to silently wrong plaintext",
            p.name, p.wrong_results
        );
        // A flip that landed must leave a trace somewhere on the ladder:
        // a typed integrity detection, a RESUME/restart, or at minimum a
        // retried attempt (e.g. a CRC-killed handshake surfaces to the
        // client as a dead dial, detected at the server's seal).
        assert!(
            p.integrity_detected + p.retries + p.resumes + p.restarts > 0,
            "mix {}: no flip was ever detected — the targeting went soft",
            p.name
        );
    }
    println!(
        "all {} targeted flips detected or harmless; zero silently wrong results",
        points.iter().map(|p| p.trials).sum::<u64>()
    );

    let json = build_json(&overhead, &points);
    let path = "BENCH_integrity.json";
    std::fs::write(path, json.render_pretty()).expect("write integrity artifact");
    println!("wrote {path}");
}

/// Warm-path latencies plus the digest ladder's compute and wire costs.
fn measure_overhead() -> Overhead {
    let weights = demo_weights(WARM_ROWS, WARM_COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
    cfg.registry_target_stock = WARM_JOBS;
    let service = GcService::start(cfg);
    let handle: ModelHandle = service
        .put_model(MODEL_ID, weights.clone())
        .expect("register model")
        .handle();
    service.prefill_models();
    assert_eq!(service.registry().stats().streams_ready, WARM_JOBS);

    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let mut ready = Histogram::default();
    let mut whole = Histogram::default();
    let mut elements_per_job = 0u64;
    for job in 0..WARM_JOBS as u64 {
        let x = demo_vector(WARM_COLS, WIDTH, SEED ^ (job << 8));
        let expected = plain_matvec(&weights, &x);
        let t0 = Instant::now();
        let mut progress = client
            .start_model_job(handle, std::slice::from_ref(&x))
            .expect("warm admission");
        ready.record(t0.elapsed().as_nanos() as u64);
        client.run_job(&mut progress).expect("warm job");
        let (ys, transcript) = progress.into_result();
        whole.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(ys[0], expected, "warm result mismatch");
        elements_per_job = transcript.elements as u64;
    }
    let wire = client.goodbye();
    let transcript_bytes =
        (wire.sent_stats().bytes + wire.received_stats().bytes) / WARM_JOBS as u64;
    let frames_per_job =
        (wire.sent_stats().messages + wire.received_stats().messages) / WARM_JOBS as u64;
    service.shutdown();

    // The pipelined re-verification, timed in isolation over a stream of
    // the same shape the warm path just served. It runs *after* READY
    // (overlapping the client's first OT extension), so it is charged
    // against the whole job, not the admission window.
    let config = AcceleratorConfig::new(WIDTH);
    let (job, _) = garble_stream(&config, &weights, SEED ^ 0xD16, 16).expect("garble stream");
    let mut verify = Histogram::default();
    for _ in 0..32 {
        let t0 = Instant::now();
        let digest = stream_digest(&job);
        verify.record(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(digest);
    }

    // What *does* sit inside the JOB → READY window: sealing and opening
    // the two control frames (JOB out, READY back), four CRC passes over
    // ~tens of bytes. Batched because a single pass is below timer
    // resolution.
    let control = Bytes::from(vec![0xA5u8; 64]);
    let mut crc_batch = Histogram::default();
    const CRC_BATCH: u32 = 256;
    for _ in 0..32 {
        let t0 = Instant::now();
        for _ in 0..CRC_BATCH {
            let sealed = max_gc::channel::seal_frame(control.clone());
            let opened = max_gc::channel::open_frame(sealed).expect("seal roundtrip");
            std::hint::black_box(opened);
        }
        crc_batch.record(t0.elapsed().as_nanos() as u64);
    }
    // Two seal/open pairs per admission window.
    let in_window_crc = crc_batch.percentile(50.0) * 2 / u64::from(CRC_BATCH);

    let warm_ready_p50 = ready.percentile(50.0);
    let warm_job_p50 = whole.percentile(50.0);
    let verify_p50 = verify.percentile(50.0);
    // 16-byte digest mark per EXT element + 16 in STATS; 4-byte CRC seal
    // per frame in both directions.
    let digest_wire = 16 * elements_per_job + 16;
    let crc_wire = 4 * frames_per_job;
    Overhead {
        warm_ready_p50_ns: warm_ready_p50,
        warm_ready_p95_ns: ready.percentile(95.0),
        warm_job_p50_ns: warm_job_p50,
        in_window_crc_ns: in_window_crc,
        in_window_pct_of_ready: in_window_crc as f64 / warm_ready_p50.max(1) as f64 * 100.0,
        verify_p50_ns: verify_p50,
        verify_pct_of_job: verify_p50 as f64 / warm_job_p50.max(1) as f64 * 100.0,
        digest_wire_bytes_per_job: digest_wire,
        crc_wire_bytes_per_job: crc_wire,
        transcript_bytes_per_job: transcript_bytes,
        wire_overhead_pct: (digest_wire + crc_wire) as f64 / transcript_bytes.max(1) as f64 * 100.0,
    }
}

/// Clean (no-flip) job latency on the fault-mix workload, for the heal
/// comparison column.
fn measure_clean_mix_baseline() -> u64 {
    let weights = demo_weights(MIX_ROWS, MIX_COLS, WIDTH, SEED);
    let service = GcService::start(ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        weights.clone(),
        SEED,
    ));
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let mut clean = Histogram::default();
    for job in 0..TRIALS_PER_MIX as u64 {
        let x = demo_vector(MIX_COLS, WIDTH, SEED ^ job);
        let t0 = Instant::now();
        let (y, _) = client.secure_matvec(&x).expect("clean job");
        clean.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(y, plain_matvec(&weights, &x));
    }
    client.goodbye();
    service.shutdown();
    clean.percentile(50.0)
}

fn run_mix(mix: &FaultMix, clean_p50_ns: u64) -> MixPoint {
    let weights = demo_weights(MIX_ROWS, MIX_COLS, WIDTH, SEED);
    let mut latencies = Histogram::default();
    let mut wrong_results = 0u64;
    let mut detected = 0u64;
    let mut healed = 0u64;
    let mut retries = 0u64;
    let mut resumes = 0u64;
    let mut restarts = 0u64;

    for trial in 0..TRIALS_PER_MIX as u64 {
        let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
        cfg.step_timeout = Some(Duration::from_millis(80));
        let service = GcService::start(cfg);
        let svc = service.clone();
        let (outbound, target) = (mix.outbound, mix.target);
        // Sweep offsets and bits deterministically across trials.
        let offset_draw = SEED
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(trial * 0x9E37_79B9);
        let bit = (trial % 8) as u8;
        let mut dials = 0u64;
        let mut client = ResilientClient::new(
            move || {
                dials += 1;
                Ok(FlipOneBit {
                    inner: svc.connect(),
                    outbound,
                    target,
                    offset_draw,
                    bit,
                    seen: 0,
                    armed: dials == 1,
                })
            },
            WIDTH,
            RetryPolicy {
                max_attempts: 12,
                base_backoff_ms: 15,
                max_backoff_ms: 120,
                step_timeout: Some(Duration::from_millis(400)),
                jitter_seed: SEED ^ trial,
                integrity_retries: 8,
            },
        );
        let x = demo_vector(MIX_COLS, WIDTH, SEED ^ trial);
        let expected = plain_matvec(&weights, &x);
        let t0 = Instant::now();
        let (y, _) = client.secure_matvec(&x).expect("flip must heal, not kill");
        latencies.record(t0.elapsed().as_nanos() as u64);
        if y != expected {
            wrong_results += 1;
        }
        let stats = client.stats().clone();
        detected += stats.integrity_detected;
        healed += stats.integrity_healed;
        retries += stats.attempts.saturating_sub(1);
        resumes += stats.resumes;
        restarts += stats.restarts;
        drop(client);
        service.shutdown();
    }

    MixPoint {
        name: mix.name,
        trials: TRIALS_PER_MIX as u64,
        wrong_results,
        integrity_detected: detected,
        integrity_healed: healed,
        retries,
        resumes,
        restarts,
        flipped_p50_ns: latencies.percentile(50.0),
        clean_p50_ns,
    }
}

fn build_json(overhead: &Overhead, points: &[MixPoint]) -> JsonValue {
    let mut oh = JsonValue::object();
    oh.push(
        "warm_ready_p50_us",
        JsonValue::Float(overhead.warm_ready_p50_ns as f64 / 1e3),
    )
    .push(
        "warm_ready_p95_us",
        JsonValue::Float(overhead.warm_ready_p95_ns as f64 / 1e3),
    )
    .push(
        "warm_job_p50_us",
        JsonValue::Float(overhead.warm_job_p50_ns as f64 / 1e3),
    )
    .push(
        "in_window_crc_ns",
        JsonValue::UInt(overhead.in_window_crc_ns),
    )
    .push(
        "in_window_pct_of_ready",
        JsonValue::Float(overhead.in_window_pct_of_ready),
    )
    .push(
        "stream_verify_p50_us",
        JsonValue::Float(overhead.verify_p50_ns as f64 / 1e3),
    )
    .push(
        "verify_pct_of_job",
        JsonValue::Float(overhead.verify_pct_of_job),
    )
    .push("max_overhead_pct", JsonValue::Float(MAX_OVERHEAD_PCT))
    .push(
        "max_verify_pct_of_job",
        JsonValue::Float(MAX_VERIFY_PCT_OF_JOB),
    )
    .push(
        "digest_wire_bytes_per_job",
        JsonValue::UInt(overhead.digest_wire_bytes_per_job),
    )
    .push(
        "crc_wire_bytes_per_job",
        JsonValue::UInt(overhead.crc_wire_bytes_per_job),
    )
    .push(
        "transcript_bytes_per_job",
        JsonValue::UInt(overhead.transcript_bytes_per_job),
    )
    .push(
        "wire_overhead_pct",
        JsonValue::Float(overhead.wire_overhead_pct),
    );

    let mut mixes = Vec::new();
    for p in points {
        let mut point = JsonValue::object();
        point
            .push("mix", JsonValue::Str(p.name.to_string()))
            .push("trials", JsonValue::UInt(p.trials))
            .push("wrong_results", JsonValue::UInt(p.wrong_results))
            .push(
                "detection_rate",
                JsonValue::Float((p.trials - p.wrong_results) as f64 / p.trials as f64),
            )
            .push("integrity_detected", JsonValue::UInt(p.integrity_detected))
            .push("integrity_healed", JsonValue::UInt(p.integrity_healed))
            .push("retries", JsonValue::UInt(p.retries))
            .push("resumes", JsonValue::UInt(p.resumes))
            .push("restarts", JsonValue::UInt(p.restarts))
            .push(
                "flipped_job_p50_ms",
                JsonValue::Float(p.flipped_p50_ns as f64 / 1e6),
            )
            .push(
                "clean_job_p50_ms",
                JsonValue::Float(p.clean_p50_ns as f64 / 1e6),
            )
            .push(
                "heal_latency_p50_ms",
                JsonValue::Float((p.flipped_p50_ns as f64 - p.clean_p50_ns as f64).max(0.0) / 1e6),
            );
        mixes.push(point);
    }

    let mut root = JsonValue::object();
    root.push(
        "schema",
        JsonValue::Str("maxelerator-integrity-v1".to_string()),
    )
    .push("bit_width", JsonValue::UInt(WIDTH as u64))
    .push("overhead", oh)
    .push("fault_mixes", JsonValue::Array(mixes));
    root
}
