//! The four served-job workloads and the closed-loop driver that runs them.
//!
//! A workload runs as a series of **cycles**. One cycle boots a fresh
//! in-process `GcService` behind `listen_tcp` on loopback, sets it up
//! (model PUT and stream prefill on the warm workloads), connects the
//! sessions, runs one untimed warm-up job per session, and then drives the
//! timed phase: each session sends its next JOB only after the previous
//! result is decoded and verified against a plaintext matvec. Cycles
//! repeat until the run's time is spent, so one run yields several set-up
//! samples and a few hundred job samples.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use max_gc::{FramedTcp, Transport};
use max_serve::{listen_tcp, GcService, JournalConfig, ServeConfig};
use max_telemetry::{Recorder, TraceContext, TraceEvent};
use maxelerator::{AcceleratorConfig, AcceleratorError, ModelHandle, RemoteClient};

use crate::stats::{process_cpu_seconds, process_peak_rss_mib};
use crate::BenchError;

/// Operand width `b` (signed), the paper's smallest implementation point.
pub const WIDTH: usize = 8;
/// Model rows: output elements of one job.
pub const ROWS: usize = 4;
/// Model columns: MAC rounds per output element.
pub const COLS: usize = 8;
/// The prepared model the warm workloads register.
const MODEL_ID: u64 = 1;

/// Longest a single client step (one frame exchange) may block. A stalled
/// peer ends the run as a typed transport error, never a hang.
pub const STEP_DEADLINE: Duration = Duration::from_secs(20);
/// Longest the warm workloads wait for the prefilled stock to land.
const STOCK_DEADLINE: Duration = Duration::from_secs(60);
/// BUSY retries before a job counts as failed.
const BUSY_ATTEMPTS: usize = 50;

/// One workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Normative workload name.
    pub name: &'static str,
    /// Why the workload exists, in one line (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Concurrent client sessions (closed loop each).
    pub sessions: usize,
    /// Garbling workers, pinned so numbers compare across hosts.
    pub workers: usize,
    /// Serve from a prefilled prepared-model stock instead of garbling inline.
    pub warm: bool,
    /// Journal every element boundary with fsync.
    pub journaled: bool,
}

/// Timed jobs per session per cycle; on the warm workloads also the stock
/// each cycle prefills (plus one stream for the warm-up job).
const JOBS_PER_CYCLE: usize = 40;
/// The same under `--quick`.
const QUICK_JOBS: usize = 5;
/// Consecutive jobs of one session whose rate makes one throughput sample.
const WINDOW_JOBS: usize = 10;

/// The workloads, in the order `run` executes them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "cold_inline",
        why: "One session, garbling on the request path: rng, core.schedule, core.accelerator and gc do nearly all the work.",
        sessions: 1,
        workers: 2,
        warm: false,
        journaled: false,
    },
    Spec {
        name: "concurrent_inline",
        why: "Two sessions contend for two garbling workers: adds serve.scheduler queueing and shared-core effects to the inline path.",
        sessions: 2,
        workers: 2,
        warm: false,
        journaled: false,
    },
    Spec {
        name: "warm_prepared",
        why: "Prefilled stream stock, garbling bypassed on the request path: ot, evaluation, gc.channel, crypto digest, transport and registry do the work.",
        sessions: 1,
        workers: 1,
        warm: true,
        journaled: false,
    },
    Spec {
        name: "warm_journaled",
        why: "The warm path with an fsync'd checkpoint journal at every element boundary: serve.journal and serve.resume beside the same reads.",
        sessions: 1,
        workers: 1,
        warm: true,
        journaled: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: the harness's only randomness, keyed by `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn signed_operand(word: u64) -> i64 {
    let span = 1u64 << WIDTH;
    (word % span) as i64 - (span / 2) as i64
}

/// Everything the program is fed, generated from `--seed` alone.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The model matrix, `ROWS × COLS`, full signed `WIDTH`-bit range.
    pub weights: Vec<Vec<i64>>,
    /// `ServeConfig::base_seed` (and the layer table's seed).
    pub base_seed: u64,
    vector_seed: u64,
}

impl Inputs {
    /// Same seed, same inputs.
    pub fn from_seed(seed: u64) -> Inputs {
        let weight_seed = mix(seed ^ 0x77);
        Inputs {
            weights: (0..ROWS)
                .map(|r| {
                    (0..COLS)
                        .map(|c| signed_operand(mix(weight_seed ^ (r * COLS + c) as u64)))
                        .collect()
                })
                .collect(),
            base_seed: mix(seed ^ 0x5eed),
            vector_seed: mix(seed ^ 0x1234),
        }
    }

    /// The `index`-th client vector.
    pub fn vector(&self, index: u64) -> Vec<i64> {
        let key = mix(self.vector_seed ^ index);
        (0..COLS as u64)
            .map(|c| signed_operand(mix(key ^ c)))
            .collect()
    }

    /// Plaintext `W·x`, the reference every served result is checked against.
    pub fn expected(&self, x: &[i64]) -> Vec<i64> {
        self.weights
            .iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// A directory under `benchmark/results/` owned by this process and removed
/// when dropped (journal segments, nothing else).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `benchmark/results/tmp-<pid>-<label>`, empty.
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let path = results_dir().join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/results/`, beside this package's manifest (inside the
/// checkout wherever the benchmark was built).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A harness span around one client call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    pub trace_id: u128,
    /// Nanoseconds since the process epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one session measured in one cycle's timed phase.
#[derive(Debug, Default)]
struct SessionTally {
    ready_ms: Vec<f64>,
    job_ms: Vec<f64>,
    window_jobs_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    wire_bytes: u64,
    fabric_cycles: u64,
    spans: Vec<Span>,
}

/// Everything one run of one workload measured, summed over its cycles.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub ready_ms: Vec<f64>,
    pub job_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One session's rate over each window of `WINDOW_JOBS` consecutive
    /// jobs (jobs ÷ the sum of their latencies; a closed loop leaves only
    /// microseconds between them). Many short windows, so one fsync or
    /// scheduler stall spoils one sample, not a cycle's rate.
    pub window_jobs_per_s: Vec<f64>,
    /// Process CPU (server + clients) over the timed phases.
    pub timed_cpu_s: f64,
    pub wire_bytes: u64,
    pub fabric_cycles: u64,
    /// Journal records appended during the timed phases.
    pub journal_appends: u64,
    /// `VmHWM` at the end of the first cycle: the peak of one set-up plus
    /// one timed phase, whatever number of cycles the run's time allows.
    pub first_cycle_peak_rss_mib: Option<f64>,
    /// Harness spans (traced cycles only).
    pub spans: Vec<Span>,
    /// Server trace events, shifted into the process epoch's timebase.
    pub server_events: Vec<TraceEvent>,
}

impl Measured {
    /// Jobs that came back verified.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Appends one session's (or cycle's) spans, keeping each `parent`
    /// pointing at the same span in the merged list.
    fn absorb_spans(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn absorb(&mut self, cycle: Measured) {
        self.setup_s.extend(cycle.setup_s);
        self.ready_ms.extend(cycle.ready_ms);
        self.job_ms.extend(cycle.job_ms);
        self.attempted += cycle.attempted;
        self.failed += cycle.failed;
        self.window_jobs_per_s.extend(cycle.window_jobs_per_s);
        self.timed_cpu_s += cycle.timed_cpu_s;
        self.wire_bytes += cycle.wire_bytes;
        self.fabric_cycles += cycle.fabric_cycles;
        self.journal_appends += cycle.journal_appends;
        self.first_cycle_peak_rss_mib = self
            .first_cycle_peak_rss_mib
            .or(cycle.first_cycle_peak_rss_mib);
        self.absorb_spans(cycle.spans);
        self.server_events.extend(cycle.server_events);
    }
}

/// How long to run and how.
#[derive(Clone, Copy, Debug)]
pub struct RunPlan {
    /// The run's time budget, set-up included.
    pub seconds: f64,
    /// Smoke sizing: one cycle of a few jobs.
    pub quick: bool,
    /// Process epoch: the timebase of every span.
    pub epoch: Instant,
}

/// Which cycles carry a server recorder, a pinned trace context and
/// harness spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// None: the run end-to-end metrics come from.
    Off,
    /// Every other cycle, starting with the first, so one run yields both
    /// the traced numbers and the untraced ones tracing overhead is
    /// measured against.
    Alternate,
}

/// Runs cycles of `spec` until the plan's time is spent; traced and
/// untraced cycles are returned apart as `(untraced, traced)`.
pub fn run_cycles(
    spec: Spec,
    inputs: &Inputs,
    plan: RunPlan,
    tracing: Tracing,
) -> Result<(Measured, Measured), BenchError> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(plan.seconds);
    let jobs = if plan.quick {
        QUICK_JOBS
    } else {
        JOBS_PER_CYCLE
    };
    let mut untraced = Measured::default();
    let mut with_trace = Measured::default();
    let mut longest_cycle = Duration::ZERO;
    for cycle in 0.. {
        let cycle_started = Instant::now();
        // Inline cycles stop at the deadline mid-phase; a warm cycle is
        // bounded by its stock, so it only starts if it should also fit.
        let stop_at = (!spec.warm && !plan.quick).then_some(deadline);
        let is_traced = tracing == Tracing::Alternate && cycle % 2 == 0;
        let measured = run_cycle(spec, inputs, cycle, jobs, stop_at, is_traced, plan.epoch)?;
        if is_traced {
            with_trace.absorb(measured);
        } else {
            untraced.absorb(measured);
        }
        longest_cycle = longest_cycle.max(cycle_started.elapsed());
        let done = if plan.quick {
            // One cycle of each kind the caller asked for.
            cycle + 1 >= if tracing == Tracing::Off { 1 } else { 2 }
        } else if spec.warm {
            Instant::now() + longest_cycle >= deadline
        } else {
            Instant::now() >= deadline
        };
        if done {
            break;
        }
    }
    Ok((untraced, with_trace))
}

/// One cycle: boot, set up, warm up, timed phase, tear down.
fn run_cycle(
    spec: Spec,
    inputs: &Inputs,
    cycle: usize,
    jobs: usize,
    stop_at: Option<Instant>,
    traced: bool,
    epoch: Instant,
) -> Result<Measured, BenchError> {
    let setup_started = Instant::now();
    let journal_dir = spec
        .journaled
        .then(|| TempDir::new(&format!("journal-{cycle}")))
        .transpose()?;
    let mut cfg = ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        inputs.weights.clone(),
        inputs.base_seed,
    );
    cfg.workers = spec.workers;
    // Warm-up job plus the timed jobs, per session.
    let stock = spec.sessions * (jobs + 1);
    if spec.warm {
        cfg.registry_target_stock = stock;
    }
    if let Some(dir) = &journal_dir {
        // `JournalConfig::new` is the production default: fsync on.
        cfg.journal = Some(JournalConfig::new(dir.path()));
    }
    let recorder = traced.then(|| Arc::new(Recorder::new()));
    // Server events are stamped relative to the recorder's creation.
    let recorder_offset_ns = epoch.elapsed().as_nanos() as u64;
    cfg.recorder = recorder.clone();
    let handle = listen_tcp(GcService::start(cfg), "127.0.0.1:0")?;
    let service = handle.service().clone();

    let measured = (|| -> Result<Measured, BenchError> {
        let model = if spec.warm {
            let status = service
                .put_model(MODEL_ID, inputs.weights.clone())
                .map_err(|e| BenchError::Setup(format!("put_model: {e:?}")))?;
            service.prefill_models();
            // `prefill_models` returns once every fill is claimed; idle
            // workers may still be garbling theirs.
            let stock_deadline = Instant::now() + STOCK_DEADLINE;
            while service.registry().stats().streams_ready < stock {
                if Instant::now() >= stock_deadline {
                    return Err(BenchError::StockTimeout {
                        wanted: stock,
                        ready: service.registry().stats().streams_ready,
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(status.handle())
        } else {
            None
        };

        let addr = handle.addr();
        // Every barrier includes this thread. Each edge of the timed window
        // takes two waits: the sessions arrive, this thread reads the
        // process counters while they stand still, then all go on.
        let barrier = Barrier::new(spec.sessions + 1);
        let journal_appends = || service.journal().map_or(0, |j| j.appends());
        let (tallies, setup_s, cpu_s, appends) = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..spec.sessions)
                .map(|s| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let trace = if traced {
                            TraceContext::from_ids(
                                u128::from(inputs.base_seed) << 32
                                    | (cycle as u128) << 8
                                    | s as u128
                                    | 1 << 127,
                                s as u64 + 1,
                            )
                        } else {
                            TraceContext::none()
                        };
                        let mut session = Session {
                            inputs,
                            model,
                            trace,
                            epoch,
                            next_vector: (cycle as u64) << 32 | (s as u64) << 24,
                            tally: SessionTally::default(),
                        };
                        let client = session.connect_and_warm_up(addr);
                        barrier.wait();
                        barrier.wait();
                        let client = client.map(|mut client| {
                            session.timed_phase(&mut client, jobs, stop_at);
                            client
                        });
                        barrier.wait();
                        barrier.wait();
                        // BYE stays outside the timed window.
                        client.map(|client| {
                            client.goodbye();
                            session.tally
                        })
                    })
                })
                .collect();
            barrier.wait();
            let setup_s = setup_started.elapsed().as_secs_f64();
            let cpu_before = process_cpu_seconds();
            let appends_before = journal_appends();
            barrier.wait();
            barrier.wait();
            let cpu_after = process_cpu_seconds();
            let appends = journal_appends() - appends_before;
            barrier.wait();
            let tallies: Vec<_> = sessions
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            let cpu_s = cpu_before.and_then(|before| Ok(cpu_after? - before));
            (tallies, setup_s, cpu_s, appends)
        });

        let mut measured = Measured {
            setup_s: vec![setup_s],
            timed_cpu_s: cpu_s?,
            journal_appends: appends,
            ..Measured::default()
        };
        for tally in tallies {
            let tally = tally?;
            measured.ready_ms.extend(tally.ready_ms);
            measured.job_ms.extend(tally.job_ms);
            measured.window_jobs_per_s.extend(tally.window_jobs_per_s);
            measured.attempted += tally.attempted;
            measured.failed += tally.failed;
            measured.wire_bytes += tally.wire_bytes;
            measured.fabric_cycles += tally.fabric_cycles;
            measured.absorb_spans(tally.spans);
        }
        if spec.warm {
            // A warm run that fell back or dropped a stream measured the
            // cold path: refuse it.
            let reg = service.registry().stats();
            if reg.served_fallback > 0 || reg.streams_integrity_dropped > 0 {
                return Err(BenchError::InvalidWarm {
                    served_fallback: reg.served_fallback,
                    integrity_dropped: reg.streams_integrity_dropped,
                });
            }
        }
        Ok(measured)
    })();

    let stats = handle.shutdown();
    let mut measured = measured?;
    measured.first_cycle_peak_rss_mib = Some(process_peak_rss_mib()?);
    if stats.sessions_errored > 0 && measured.failed == 0 {
        return Err(BenchError::Setup(format!(
            "{} server sessions ended in an error",
            stats.sessions_errored
        )));
    }
    if let Some(recorder) = recorder {
        measured.server_events = recorder
            .snapshot()
            .traces
            .into_iter()
            .map(|mut e| {
                e.start_ns += recorder_offset_ns;
                e.end_ns += recorder_offset_ns;
                e
            })
            .collect();
    }
    Ok(measured)
}

/// One client session's state across set-up and the timed phase.
struct Session<'a> {
    inputs: &'a Inputs,
    model: Option<ModelHandle>,
    trace: TraceContext,
    epoch: Instant,
    next_vector: u64,
    tally: SessionTally,
}

/// Client-side timing of one verified job.
struct JobTiming {
    ready_ms: f64,
    job_ms: f64,
    fabric_cycles: u64,
}

impl Session<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span when this session is traced.
    fn span(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        if self.trace.is_traced() {
            self.tally.spans.push(Span {
                name,
                parent,
                trace_id: self.trace.trace_id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Dials, shakes hands, and runs the untimed warm-up job (lazy set-up
    /// and cache fill happen here, not in the first timed sample).
    fn connect_and_warm_up(
        &mut self,
        addr: std::net::SocketAddr,
    ) -> Result<RemoteClient<FramedTcp>, BenchError> {
        let t0 = self.now_ns();
        let mut tcp = FramedTcp::connect(addr)?;
        tcp.set_idle_timeout(Some(STEP_DEADLINE));
        let mut client = RemoteClient::connect_with_trace(tcp, WIDTH, self.trace)?;
        self.span("client.connect", None, t0, self.now_ns());
        self.job(&mut client)?;
        // PONG comes back only once the session has finished everything the
        // warm-up job left behind (its journal tombstone), so the timed
        // window opens on a quiet server.
        client.ping(self.next_vector)?;
        Ok(client)
    }

    /// The closed loop: the next JOB goes out only after the previous
    /// result is decoded and verified.
    fn timed_phase(
        &mut self,
        client: &mut RemoteClient<FramedTcp>,
        jobs: usize,
        stop_at: Option<Instant>,
    ) {
        let wire = |c: &RemoteClient<FramedTcp>| {
            c.transport().sent().bytes() + c.transport().received().bytes()
        };
        let wire_before = wire(client);
        for _ in 0..jobs {
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            self.tally.attempted += 1;
            match self.job(client) {
                Ok(timing) => {
                    self.tally.ready_ms.push(timing.ready_ms);
                    self.tally.job_ms.push(timing.job_ms);
                    self.tally.fabric_cycles += timing.fabric_cycles;
                }
                Err(err) => {
                    // The session's protocol state is unknown after a
                    // failed job: count it and stop this session.
                    eprintln!("job failed: {err}");
                    self.tally.failed += 1;
                    break;
                }
            }
        }
        self.tally.wire_bytes = wire(client) - wire_before;
        self.tally.window_jobs_per_s = self
            .tally
            .job_ms
            .chunks(WINDOW_JOBS)
            .map(|window| window.len() as f64 * 1e3 / window.iter().sum::<f64>())
            .collect();
        // Close the window on a quiet server too (see the warm-up's ping).
        if self.tally.failed == 0 {
            if let Err(err) = client.ping(self.next_vector) {
                eprintln!("closing ping failed: {err}");
                self.tally.failed += 1;
            }
        }
    }

    /// One job: JOB → READY → exchange → decode → verify.
    fn job(&mut self, client: &mut RemoteClient<FramedTcp>) -> Result<JobTiming, BenchError> {
        let x = self.inputs.vector(self.next_vector);
        self.next_vector += 1;
        let expected = self.inputs.expected(&x);
        let columns = std::slice::from_ref(&x);

        let job_start_ns = self.now_ns();
        let t0 = Instant::now();
        let mut attempts = 0;
        let mut progress = loop {
            let admitted = match self.model {
                Some(model) => client.start_model_job(model, columns),
                None => client.start_job(columns),
            };
            match admitted {
                Ok(progress) => break progress,
                Err(AcceleratorError::Busy { retry_after_ms }) if attempts < BUSY_ATTEMPTS => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                Err(AcceleratorError::Busy { .. }) => return Err(BenchError::BusyExhausted),
                Err(err) => return Err(err.into()),
            }
        };
        let ready_ms = t0.elapsed().as_secs_f64() * 1e3;
        let run_start_ns = self.now_ns();
        client.run_job(&mut progress)?;
        let verify_start_ns = self.now_ns();
        let (ys, transcript) = progress.into_result();
        if ys.len() != 1 || ys[0] != expected {
            return Err(BenchError::Mismatch {
                got: ys.into_iter().next().unwrap_or_default(),
                expected,
            });
        }
        let job_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Children first, then the parent they point at.
        let done_ns = self.now_ns();
        let parent = Some(self.tally.spans.len() + 3);
        self.span("client.start_job", parent, job_start_ns, run_start_ns);
        self.span("client.run_job", parent, run_start_ns, verify_start_ns);
        self.span("client.verify", parent, verify_start_ns, done_ns);
        self.span("client.job", None, job_start_ns, done_ns);
        Ok(JobTiming {
            ready_ms,
            job_ms,
            fabric_cycles: transcript.fabric_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_stay_in_range() {
        let a = Inputs::from_seed(7);
        let b = Inputs::from_seed(7);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.base_seed, b.base_seed);
        assert_eq!(a.vector(3), b.vector(3));
        let c = Inputs::from_seed(8);
        assert_ne!(a.weights, c.weights);
        assert_ne!(a.vector(3), a.vector(4));
        assert_eq!((a.weights.len(), a.weights[0].len()), (ROWS, COLS));
        for v in a.weights.iter().flatten().chain(&a.vector(0)) {
            assert!(
                (-128..=127).contains(v),
                "{v} outside the signed 8-bit range"
            );
        }
        assert_eq!(a.expected(&[0; COLS]), vec![0; ROWS]);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let dir = TempDir::new("unit").unwrap();
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn every_workload_is_findable_by_its_normative_name() {
        for name in [
            "cold_inline",
            "concurrent_inline",
            "warm_prepared",
            "warm_journaled",
        ] {
            assert_eq!(spec(name).map(|s| s.name), Some(name));
        }
        assert!(spec("nope").is_none());
    }
}
