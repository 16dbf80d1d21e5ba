//! The service: session manager + unit pool + transport listeners.
//!
//! [`GcService`] owns the model, the worker pool, every session thread,
//! the [`Journal`] that stores round checkpoints, and the load-shedding
//! [`Breaker`]. Clients reach it two ways — [`GcService::connect`] returns
//! the client half of an in-memory [`Duplex`] wire, and [`listen_tcp`]
//! accepts real sockets — and both run the exact same session protocol.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use max_gc::channel::Duplex;
use max_gc::{FramedTcp, Transport};
use max_registry::{
    check_model, FillReport, ModelRegistry, RegisterError, RegistryConfig, RegistryStats,
};
use max_telemetry::report::JsonValue;
use max_telemetry::{FlightRecorder, Recorder};
use maxelerator::remote::ModelStatus;
use maxelerator::AcceleratorConfig;

use crate::breaker::{Breaker, BreakerConfig};
use crate::journal::{Journal, JournalConfig, ReplayReport, DEFAULT_CAPACITY};
use crate::scheduler::{IdleFill, UnitPool};
use crate::session::run_session;
use crate::FlightTransport;

/// Error-session flight dumps retained by the service (oldest evicted).
const MAX_FLIGHT_DUMPS: usize = 16;

/// Everything needed to start a [`GcService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Fabric configuration every session negotiates against.
    pub config: AcceleratorConfig,
    /// Model matrix, row-major (must be non-empty and rectangular).
    pub weights: Vec<Vec<i64>>,
    /// Base seed; per-session and per-job seeds derive from it.
    pub base_seed: u64,
    /// Garbling units (worker threads).
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it, jobs get BUSY.
    pub queue_capacity: usize,
    /// Retry hint attached to BUSY rejections.
    pub retry_after_ms: u32,
    /// Reap sessions idle longer than this (transports that support
    /// timeouts — TCP — only; the in-memory wire is always attended).
    pub idle_timeout: Option<Duration>,
    /// Per-protocol-step deadline during a job's per-element exchange: a
    /// client that stalls mid-job longer than this gets its connection
    /// reaped (and a checkpoint saved for RESUME). Falls back to
    /// `idle_timeout` when unset.
    pub step_timeout: Option<Duration>,
    /// Round checkpoints held, one window per session, least recently
    /// saved evicted first. The one capacity of the checkpoint store: it
    /// bounds the journal's live set too, and 0 disables RESUME and writes
    /// no checkpoint. A session mid-job holds a slot as well, so size it
    /// above the sessions expected in flight at once.
    pub resume_capacity: usize,
    /// Load-shedding breaker tuning.
    pub breaker: BreakerConfig,
    /// **Test-only.** Start with the unit pool paused, so backpressure
    /// tests can fill the queue deterministically; production leaves this
    /// off and no `serve` flag sets it.
    #[doc(hidden)]
    pub start_paused: bool,
    /// **Test-only.** Derive resume tokens from the seed chain instead of
    /// OS entropy. Deterministic tokens make ACCEPT reproducible across
    /// service instances (what the transcript-parity tests compare), but
    /// they are forgeable: `derive_seed` is an invertible bijection and
    /// `ot_seed` (also seed-derived) is published in ACCEPT, so any client
    /// could walk back to `base_seed` and mint every other session's
    /// token. Production services must leave this off, and no `serve`
    /// flag sets it. Leaving it off keeps tokens secret, not inputs: both
    /// base-OT halves are dealt from the published `ot_seed` and no
    /// base-OT message crosses the wire, so the server, or anyone who sees
    /// ACCEPT, can rebuild a client's OT receiver and read its x out of
    /// EXT (the ROADMAP's v8 privacy item fixes this).
    #[doc(hidden)]
    pub deterministic_resume_tokens: bool,
    /// Server-side [`Recorder`]: every job's `server/queue_wait`,
    /// `server/garble` and `server/stream` durations go into histograms of
    /// those names (the METRICS percentiles), and traced sessions also
    /// leave trace spans and checkpoint/handshake events. `None` records
    /// nothing; the METRICS endpoint still serves counters.
    pub recorder: Option<Arc<Recorder>>,
    /// Events each per-session flight recorder retains (0 disables flight
    /// recording entirely).
    pub flight_capacity: usize,
    /// Durable checkpoint journal configuration. `None` (the default)
    /// serves memory-only: checkpoints survive dropped connections but not
    /// a dead process. With a journal, startup replays the directory into
    /// the checkpoint store — see the [`crate::journal`] module docs.
    pub journal: Option<JournalConfig>,
    /// Byte budget for the prepared-model registry's stocked streams
    /// (`None` = unbounded). Enforced with LRU whole-model eviction.
    pub registry_budget_bytes: Option<u64>,
    /// Warm single-use streams to keep per registered model.
    pub registry_target_stock: usize,
    /// Fill every model's stock to target at startup (and after journal
    /// replay) before serving, instead of as pool idle time allows.
    pub prefill: bool,
}

impl ServeConfig {
    /// Sensible defaults: 2 units, queue of 16, 10 ms retry hint, no
    /// timeouts, 64 resume checkpoints, breaker tripping only through
    /// [`GcService::trip_breaker`].
    pub fn new(config: AcceleratorConfig, weights: Vec<Vec<i64>>, base_seed: u64) -> ServeConfig {
        ServeConfig {
            config,
            weights,
            base_seed,
            workers: 2,
            queue_capacity: 16,
            retry_after_ms: 10,
            idle_timeout: None,
            step_timeout: None,
            resume_capacity: DEFAULT_CAPACITY,
            breaker: BreakerConfig::default(),
            start_paused: false,
            deterministic_resume_tokens: false,
            recorder: None,
            flight_capacity: 64,
            journal: None,
            registry_budget_bytes: None,
            registry_target_stock: RegistryConfig::default().target_stock,
            prefill: false,
        }
    }
}

/// Aggregate service counters, snapshotted by [`GcService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions accepted (threads spawned).
    pub sessions_started: u64,
    /// Sessions that ended in a protocol/transport error.
    pub sessions_errored: u64,
    /// Jobs garbled and streamed to completion.
    pub jobs_completed: u64,
    /// Jobs turned away with BUSY.
    pub busy_rejections: u64,
    /// Jobs continued from a round checkpoint after a reconnect.
    pub jobs_resumed: u64,
    /// Model jobs served from a warm pre-garbled stream (OT-only online
    /// path — no garbling on the critical path).
    pub jobs_prepared: u64,
    /// Jobs that sessions left mid-job with a checkpoint to resume from.
    pub checkpoints_saved: u64,
    /// Jobs ended by a transcript-digest mismatch (the v6 integrity
    /// check): the stream was refused rather than risk a silently wrong
    /// plaintext, and the client restarts under its integrity budget.
    pub integrity_rejects: u64,
    /// Times the load-shedding breaker tripped open.
    pub breaker_trips: u64,
    /// Sessions/jobs turned away by an open breaker.
    pub shed: u64,
}

/// Shared state behind a [`GcService`] (one per service, `Arc`-shared with
/// every session thread).
pub(crate) struct ServiceShared {
    pub(crate) config: AcceleratorConfig,
    pub(crate) weights: Arc<Vec<Vec<i64>>>,
    pub(crate) base_seed: u64,
    pub(crate) pool: UnitPool,
    pub(crate) retry_after_ms: u32,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) step_timeout: Option<Duration>,
    pub(crate) registry: Arc<ModelRegistry>,
    /// The checkpoint store, writing segments only with a journal
    /// directory.
    pub(crate) journal: Arc<Journal>,
    /// What journal replay salvaged at boot (empty default when no journal).
    replay: ReplayReport,
    pub(crate) breaker: Breaker,
    pub(crate) deterministic_resume_tokens: bool,
    pub(crate) recorder: Option<Arc<Recorder>>,
    flight_capacity: usize,
    flight_dumps: Mutex<Vec<String>>,
    draining: AtomicBool,
    next_session: AtomicU64,
    sessions_started: AtomicU64,
    sessions_errored: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) jobs_resumed: AtomicU64,
    pub(crate) jobs_prepared: AtomicU64,
    pub(crate) checkpoints_saved: AtomicU64,
    pub(crate) resume_evicted: AtomicU64,
    pub(crate) integrity_rejects: AtomicU64,
}

impl ServiceShared {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// The checkpoint store when it writes a journal directory.
    fn journal_file(&self) -> Option<&Arc<Journal>> {
        self.journal.has_file().then_some(&self.journal)
    }

    /// Registers (or replaces) a prepared model and journals it so a
    /// restart re-registers it before any client reconnects. Journal IO
    /// failures degrade durability, not serving.
    pub(crate) fn put_model(
        &self,
        model_id: u64,
        weights: Vec<Vec<i64>>,
    ) -> Result<ModelStatus, RegisterError> {
        let (status, _replaced) = self.registry.register(model_id, weights)?;
        if let Some((weights, _)) = self.registry.registration(model_id) {
            let _ = self.journal.append_model_put(model_id, &weights);
        }
        Ok(status)
    }

    /// Explicitly evicts a model, journaling the tombstone. `None` if the
    /// id is unknown.
    pub(crate) fn evict_model(&self, model_id: u64) -> Option<ModelStatus> {
        let (status, _eviction) = self.registry.evict(model_id)?;
        let _ = self.journal.append_model_remove(model_id);
        Some(status)
    }

    /// Renders the live METRICS body: schema, serving counters, queue and
    /// breaker gauges, and p50/p95/p99 over every recorder histogram.
    /// Bounded by construction — trace events are neither included nor
    /// copied, so the reply stays far under the protocol's 1 MiB cap and
    /// never waits on a copy of the trace buffer.
    pub(crate) fn metrics_json(&self) -> String {
        let mut stats = JsonValue::object();
        stats
            .push(
                "sessions_started",
                JsonValue::UInt(self.sessions_started.load(Ordering::Relaxed)),
            )
            .push(
                "sessions_errored",
                JsonValue::UInt(self.sessions_errored.load(Ordering::Relaxed)),
            )
            .push(
                "jobs_completed",
                JsonValue::UInt(self.jobs_completed.load(Ordering::Relaxed)),
            )
            .push(
                "busy_rejections",
                JsonValue::UInt(self.busy_rejections.load(Ordering::Relaxed)),
            )
            .push(
                "jobs_resumed",
                JsonValue::UInt(self.jobs_resumed.load(Ordering::Relaxed)),
            )
            .push(
                "jobs_prepared",
                JsonValue::UInt(self.jobs_prepared.load(Ordering::Relaxed)),
            )
            .push(
                "checkpoints_saved",
                JsonValue::UInt(self.checkpoints_saved.load(Ordering::Relaxed)),
            )
            .push(
                "resume_evicted",
                JsonValue::UInt(self.resume_evicted.load(Ordering::Relaxed)),
            )
            .push(
                "integrity_rejects",
                JsonValue::UInt(self.integrity_rejects.load(Ordering::Relaxed)),
            )
            .push("breaker_trips", JsonValue::UInt(self.breaker.trips()))
            .push("shed", JsonValue::UInt(self.breaker.sheds()));

        let mut gauges = JsonValue::object();
        gauges
            .push("queue_depth", JsonValue::UInt(self.pool.depth() as u64))
            .push("workers", JsonValue::UInt(self.pool.workers() as u64))
            .push(
                "resume_checkpoints",
                JsonValue::UInt(self.journal.live_sessions() as u64),
            )
            .push("breaker_open", JsonValue::Bool(self.breaker.is_open()))
            .push("draining", JsonValue::Bool(self.is_draining()));

        let journal = match self.journal_file() {
            Some(journal) => {
                let mut entry = JsonValue::object();
                entry
                    .push("appends", JsonValue::UInt(journal.appends()))
                    .push("barriers", JsonValue::UInt(journal.barriers()))
                    .push("live", JsonValue::UInt(journal.live_sessions() as u64))
                    .push("replayed", JsonValue::UInt(self.replay.records_applied))
                    .push(
                        "quarantined",
                        JsonValue::UInt(self.replay.quarantined.len() as u64),
                    )
                    .push(
                        "truncated_tail",
                        JsonValue::Bool(self.replay.truncated_tail),
                    );
                entry
            }
            None => JsonValue::Null,
        };

        let registry = {
            let snap: RegistryStats = self.registry.stats();
            let mut entry = JsonValue::object();
            entry
                .push("models", JsonValue::UInt(snap.models as u64))
                .push("streams_ready", JsonValue::UInt(snap.streams_ready as u64))
                .push("stock_bytes", JsonValue::UInt(snap.stock_bytes))
                .push(
                    "budget_bytes",
                    snap.budget_bytes.map_or(JsonValue::Null, JsonValue::UInt),
                )
                .push("served_prepared", JsonValue::UInt(snap.served_prepared))
                .push("served_fallback", JsonValue::UInt(snap.served_fallback))
                .push("streams_produced", JsonValue::UInt(snap.streams_produced))
                .push("streams_discarded", JsonValue::UInt(snap.streams_discarded))
                .push(
                    "streams_integrity_dropped",
                    JsonValue::UInt(snap.streams_integrity_dropped),
                )
                .push("streams_trimmed", JsonValue::UInt(snap.streams_trimmed))
                .push(
                    "evicted_budget",
                    JsonValue::UInt(snap.models_evicted_budget),
                )
                .push(
                    "evicted_explicit",
                    JsonValue::UInt(snap.models_evicted_explicit),
                )
                .push("replaced", JsonValue::UInt(snap.models_replaced))
                .push(
                    "fabric_cycles_offline",
                    JsonValue::UInt(snap.fabric_cycles_spent),
                );
            entry
        };

        let percentiles = match &self.recorder {
            Some(rec) => {
                let mut out = JsonValue::object();
                for hist in &rec.histograms() {
                    let mut entry = JsonValue::object();
                    entry
                        .push("count", JsonValue::UInt(hist.count))
                        .push("p50", JsonValue::UInt(hist.percentile(50.0)))
                        .push("p95", JsonValue::UInt(hist.percentile(95.0)))
                        .push("p99", JsonValue::UInt(hist.percentile(99.0)))
                        .push("max", JsonValue::UInt(hist.max));
                    out.push(&hist.name, entry);
                }
                out
            }
            None => JsonValue::Null,
        };

        let mut root = JsonValue::object();
        root.push(
            "schema",
            JsonValue::Str("maxelerator-metrics-v1".to_string()),
        )
        .push("stats", stats)
        .push("gauges", gauges)
        .push("journal", journal)
        .push("registry", registry)
        .push("percentiles", percentiles);
        root.render()
    }

    fn keep_flight_dump(&self, dump: String) {
        let mut dumps = self
            .flight_dumps
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if dumps.len() >= MAX_FLIGHT_DUMPS {
            dumps.remove(0);
        }
        dumps.push(dump);
    }
}

/// Journals the tombstones of the models a fill step's deposit evicted.
fn journal_evictions(journal: &Journal, report: &FillReport) {
    for eviction in &report.evicted {
        let _ = journal.append_model_remove(eviction.model_id);
    }
}

/// One idle-time precompute step: advance the registry's most starved
/// model by one stream. Returns whether the unit should immediately poll
/// again (`false` = nothing to do, or the cache is saturated at its budget
/// and more production would just ping-pong evictions).
fn fill_once(registry: &ModelRegistry, journal: &Journal) -> bool {
    // A fill step's `Result` is never `Err`: garbling cannot fail.
    match registry.fill_step() {
        Some(Ok(report)) => {
            journal_evictions(journal, &report);
            report.clean()
        }
        _ => false,
    }
}

/// The offline phase run eagerly, on the garbling units: wakes them and
/// waits for the stock they deposit (their idle-fill steps journal any
/// budget evictions). The caller garbles nothing: stock made on a thread
/// that never garbles again would be freed, once served, into memory the
/// units' refills cannot reuse.
fn prefill(pool: &UnitPool, registry: &ModelRegistry) -> usize {
    pool.wake_idle();
    registry.await_stock()
}

/// The multi-session GC-MAC service. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct GcService {
    shared: Arc<ServiceShared>,
    session_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for GcService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcService")
            .field("rows", &self.shared.weights.len())
            .field("workers", &self.shared.pool.workers())
            .field("queue_depth", &self.shared.pool.depth())
            .finish_non_exhaustive()
    }
}

impl GcService {
    /// Builds the unit pool and starts serving.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty or ragged, too wide for one element to
    /// fit a frame, or values exceed the configured bit-width (host
    /// configuration errors, not peer input), by the same [`check_model`] a
    /// registered model passes.
    pub fn start(cfg: ServeConfig) -> GcService {
        if let Err(err) = check_model(&cfg.config, &cfg.weights) {
            panic!("invalid default model: {err}");
        }
        let weights = Arc::new(cfg.weights);

        // Replay the durable journal (if configured) into the checkpoint
        // store before the first connection can race a RESUME against it.
        // A journal that cannot be *opened* is a host configuration error
        // (like a bad model) and fails loudly; damaged journal *content*
        // never does — it is quarantined inside `Journal::with_capacity`.
        let (journal, replay) = match Journal::with_capacity(cfg.journal, cfg.resume_capacity) {
            Ok(opened) => opened,
            Err(err) => panic!("journal unusable: {err}"),
        };
        let journal = Arc::new(journal);
        // Restart must hand out session ids above every replayed one, or a
        // fresh session could silently displace a recovering session's
        // checkpoint.
        let first_session = journal.highest_live_session().map_or(0, |id| id + 1);

        let registry = Arc::new(ModelRegistry::new(
            cfg.config.clone(),
            RegistryConfig {
                budget_bytes: cfg.registry_budget_bytes,
                target_stock: cfg.registry_target_stock,
            },
            cfg.base_seed,
        ));
        for (model_id, model_weights) in journal.live_models() {
            // A replayed model that no longer validates (operand width
            // shrank across restarts) is dropped with a tombstone rather
            // than wedging boot.
            if registry.register(model_id, model_weights).is_err() {
                let _ = journal.append_model_remove(model_id);
            }
        }

        let idle_fill: IdleFill = {
            let registry = Arc::clone(&registry);
            let journal = Arc::clone(&journal);
            Arc::new(move || fill_once(&registry, &journal))
        };
        let pool = UnitPool::new(
            cfg.config.clone(),
            cfg.workers,
            cfg.queue_capacity,
            cfg.start_paused,
            cfg.recorder.clone(),
            idle_fill,
        );
        if cfg.prefill {
            // Run the offline phase eagerly so the very first model job is
            // a warm serve. Stops at saturation — the idle-fill hook keeps
            // the stocks topped up.
            prefill(&pool, &registry);
        }

        GcService {
            shared: Arc::new(ServiceShared {
                config: cfg.config,
                weights,
                base_seed: cfg.base_seed,
                pool,
                retry_after_ms: cfg.retry_after_ms,
                idle_timeout: cfg.idle_timeout,
                step_timeout: cfg.step_timeout,
                registry,
                journal,
                replay,
                breaker: Breaker::new(cfg.breaker),
                deterministic_resume_tokens: cfg.deterministic_resume_tokens,
                recorder: cfg.recorder,
                flight_capacity: cfg.flight_capacity,
                flight_dumps: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                next_session: AtomicU64::new(first_session),
                sessions_started: AtomicU64::new(0),
                sessions_errored: AtomicU64::new(0),
                jobs_completed: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                jobs_resumed: AtomicU64::new(0),
                jobs_prepared: AtomicU64::new(0),
                checkpoints_saved: AtomicU64::new(0),
                resume_evicted: AtomicU64::new(0),
                integrity_rejects: AtomicU64::new(0),
            }),
            session_threads: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Spawns a session over any transport (the generic core of
    /// [`GcService::connect`] and the TCP accept loop). When the config's
    /// `flight_capacity` is nonzero the session gets a fresh per-session
    /// [`FlightRecorder`] wrapped around its transport.
    pub fn serve_transport<T: Transport + 'static>(&self, transport: T) {
        let flight = (self.shared.flight_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(self.shared.flight_capacity)));
        self.spawn_session(transport, flight);
    }

    /// Like [`GcService::serve_transport`], but attaches the given
    /// [`FlightRecorder`] instead of minting one — so a chaos harness can
    /// share one recorder between a fault-injecting transport wrapper and
    /// the session, and the error dump interleaves `fault.*` events with
    /// the frames around them.
    pub fn serve_transport_with_flight<T: Transport + 'static>(
        &self,
        transport: T,
        flight: Arc<FlightRecorder>,
    ) {
        self.spawn_session(transport, Some(flight));
    }

    fn spawn_session<T: Transport + 'static>(
        &self,
        transport: T,
        flight: Option<Arc<FlightRecorder>>,
    ) {
        let shared = Arc::clone(&self.shared);
        let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.sessions_started.fetch_add(1, Ordering::Relaxed);
        let spawned = std::thread::Builder::new()
            .name(format!("gc-session-{session_id}"))
            .spawn(move || {
                let (trace_id, outcome) = match &flight {
                    Some(fl) => run_session(
                        &shared,
                        FlightTransport::new(transport, Arc::clone(fl)),
                        session_id,
                        Some(fl),
                    ),
                    None => run_session(&shared, transport, session_id, None),
                };
                // Job/checkpoint tallies land on the shared counters at
                // event time inside the session loop, so the METRICS frame
                // is live even for long-lived sessions; only the error
                // accounting happens here at teardown.
                if let Err(err) = &outcome {
                    // Hostile/broken peers are the session's problem, never
                    // the process's: account and move on.
                    shared.sessions_errored.fetch_add(1, Ordering::Relaxed);
                    if let Some(fl) = &flight {
                        // The dump's last events name what killed the
                        // session — injected fault, reaped deadline, or the
                        // protocol error itself.
                        fl.log("session.error", format!("{err:?}"), 0);
                        shared.keep_flight_dump(fl.dump_json(trace_id).render());
                    }
                }
            });
        match spawned {
            Ok(handle) => self
                .session_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle),
            Err(_) => {
                // Thread exhaustion: drop the transport (the peer sees a
                // disconnect) rather than taking the process down.
                self.shared.sessions_errored.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Opens an in-memory session and returns the client endpoint, ready
    /// for [`maxelerator::RemoteClient::connect`].
    pub fn connect(&self) -> Duplex {
        let (server_end, client_end) = Duplex::pair();
        self.serve_transport(server_end);
        client_end
    }

    /// Accepts one TCP stream as a session.
    pub fn serve_stream(&self, stream: TcpStream) {
        self.serve_transport(FramedTcp::from_stream(stream));
    }

    /// Jobs currently queued on the unit pool.
    pub fn queue_depth(&self) -> usize {
        self.shared.pool.depth()
    }

    /// Rendered flight-recorder dumps of sessions that ended in an error
    /// (most recent last; at most 16 retained).
    pub fn flight_dumps(&self) -> Vec<String> {
        self.shared
            .flight_dumps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The server-side recorder, when one was configured.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.shared.recorder.as_ref()
    }

    /// The live METRICS JSON body (same rendering the METRICS control
    /// frame serves).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// Round checkpoints currently held: the newest window of every
    /// session that may still RESUME.
    pub fn resume_checkpoints(&self) -> usize {
        self.shared.journal.live_sessions()
    }

    /// The durable checkpoint journal, when a directory is configured.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.shared.journal_file()
    }

    /// The prepared-model registry behind `MODEL_PUT`/`MODEL_INFO` frames.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Registers (or replaces) a prepared model locally — same path the
    /// wire's `MODEL_PUT` takes, including the journal record.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] when the matrix is empty, ragged, oversized, too
    /// wide to frame, or a weight exceeds the operand width.
    pub fn put_model(
        &self,
        model_id: u64,
        weights: Vec<Vec<i64>>,
    ) -> Result<ModelStatus, RegisterError> {
        self.shared.put_model(model_id, weights)
    }

    /// Evicts a prepared model (journaling the tombstone); `None` if the
    /// id is unknown.
    pub fn evict_model(&self, model_id: u64) -> Option<ModelStatus> {
        self.shared.evict_model(model_id)
    }

    /// Fills every model's stock to target (the offline phase run eagerly,
    /// on the garbling units), journaling tombstones for any budget
    /// evictions, and returns the streams deposited once no fill is in
    /// flight anywhere; stops early at saturation (observable via
    /// counters/stats). Blocks while every unit is busy with jobs.
    pub fn prefill_models(&self) -> usize {
        prefill(&self.shared.pool, &self.shared.registry)
    }

    /// What journal replay found at boot (all-zero when no journal).
    pub fn journal_replay(&self) -> &ReplayReport {
        &self.shared.replay
    }

    /// Releases a pool started with `start_paused`.
    pub fn resume_workers(&self) {
        self.shared.pool.resume();
    }

    /// Stops accepting new sessions (handshakes get REJECT: draining);
    /// existing sessions keep running, and RESUME is still honored.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Whether [`GcService::drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Opens the load-shedding breaker for its configured window: new
    /// sessions get `REJECT(overload)`, job requests get `BUSY`.
    pub fn trip_breaker(&self) {
        self.shared.breaker.trip();
    }

    /// Force-closes the breaker (operator override).
    pub fn reset_breaker(&self) {
        self.shared.breaker.reset();
    }

    /// Whether the breaker is currently shedding load.
    pub fn breaker_open(&self) -> bool {
        self.shared.breaker.is_open()
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            sessions_started: self.shared.sessions_started.load(Ordering::Relaxed),
            sessions_errored: self.shared.sessions_errored.load(Ordering::Relaxed),
            jobs_completed: self.shared.jobs_completed.load(Ordering::Relaxed),
            busy_rejections: self.shared.busy_rejections.load(Ordering::Relaxed),
            jobs_resumed: self.shared.jobs_resumed.load(Ordering::Relaxed),
            jobs_prepared: self.shared.jobs_prepared.load(Ordering::Relaxed),
            checkpoints_saved: self.shared.checkpoints_saved.load(Ordering::Relaxed),
            integrity_rejects: self.shared.integrity_rejects.load(Ordering::Relaxed),
            breaker_trips: self.shared.breaker.trips(),
            shed: self.shared.breaker.sheds(),
        }
    }

    /// Graceful shutdown: drain, join every session thread, then drain and
    /// join the unit pool. Returns the final counters.
    pub fn shutdown(&self) -> ServeStats {
        self.drain();
        let handles = std::mem::take(
            &mut *self
                .session_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
        // Sessions are joined: no appends can race this final flush.
        let _ = self.shared.journal.sync();
        self.stats()
    }
}

/// A running TCP listener bound to a [`GcService`].
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    service: GcService,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener.
    pub fn service(&self) -> &GcService {
        &self.service
    }

    /// Stops accepting, drains the service, joins everything.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.service.shutdown()
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves every accepted stream as
/// a session of `service`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn listen_tcp<A: ToSocketAddrs>(service: GcService, addr: A) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_service = service.clone();
    let accept_thread = std::thread::Builder::new()
        .name("gc-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                match stream {
                    Ok(stream) => accept_service.serve_stream(stream),
                    Err(_) => continue,
                }
            }
        })?;
    Ok(ServeHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        service,
    })
}
