//! Prepared-model registry: the paper's §3 offline/online split as a
//! serving subsystem.
//!
//! MAXelerator's central claim is that garbling belongs *off* the online
//! path: "the accelerator keeps generating garbled tables independently …
//! and when requested by the client simply performs the garbling with one
//! of the stored garbled circuits." Trace attribution of the serve stack
//! shows inline garbling at ~98.5% of job wall time, so a registry that
//! pre-garbles during idle time converts nearly the whole job latency into
//! OT + frame replay.
//!
//! A [`ModelRegistry`] holds any number of tenant matrices, each under a
//! caller-chosen id. Background fill steps ([`ModelRegistry::fill_step`],
//! driven from pool idle time) garble one stream per step with
//! [`fill_stream`] — the function every served stream comes from, one
//! element of working memory at a time — and deposit the materialized
//! frames into the model's stock. Serving a matvec
//! against a stocked model ([`ModelRegistry::acquire`]) pops one stream —
//! **single use** — and the online exchange is OT plus replay of
//! already-rendered bytes.
//!
//! ## Security invariant: labels are never reused
//!
//! Every stream production *and* every inline fallback consumes a distinct
//! generation counter; the stream seed is `derive_seed(model_seed,
//! generation)` and the model seed itself rotates on re-registration
//! (epoch counter). Serving the same garbled material twice would let an
//! evaluator combine label pairs across executions and decode the
//! garbler's inputs, so a stream leaves the stock exactly once and is
//! dropped after its serve — the registry never clones a stocked stream.
//!
//! ## Eviction taxonomy
//!
//! * **explicit** — [`ModelRegistry::evict`] (the wire's `MODEL_EVICT`):
//!   the tenant is done; model and stock are dropped.
//! * **replaced** — re-registering an existing id: the old matrix, stock,
//!   and seed epoch are dropped atomically (stale streams must never serve
//!   the new matrix).
//! * **budget** — the stock cache exceeds
//!   [`RegistryConfig::budget_bytes`]: whole least-recently-acquired
//!   models are evicted first; the model currently depositing trims its
//!   own oldest streams instead of evicting itself.
//!
//! A budget smaller than the combined target stock of all tenants
//! degenerates to round-robin recycling during idle fill — observable via
//! [`RegistryStats::models_evicted_budget`]; size the budget accordingly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The registry sits on the serving path; panics are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use maxelerator::remote::{
    derive_seed, fill_stream, MaterializedJob, ModelStatus, MAX_MODEL_ELEMENTS,
};
use maxelerator::{AcceleratorConfig, AcceleratorError};

// The digest the stocks are verified against lives beside
// `MaterializedJob` in the core crate; re-exported so registry users keep
// one import surface.
pub use maxelerator::remote::stream_digest;

/// Knobs of the registry's precompute and cache behavior.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Byte budget for stocked streams across all models (`None` =
    /// unbounded). Enforced at deposit time with LRU whole-model eviction.
    pub budget_bytes: Option<u64>,
    /// Single-use streams to keep in stock per model.
    pub target_stock: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            budget_bytes: None,
            target_stock: 2,
        }
    }
}

/// Why a model was refused at registration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// The matrix has no rows or no columns.
    EmptyModel,
    /// A row's length differs from the first row's.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        got: usize,
        /// The expected length (row 0's).
        want: usize,
    },
    /// The matrix exceeds [`MAX_MODEL_ELEMENTS`].
    TooLarge {
        /// Declared element count.
        elements: usize,
        /// The cap.
        max: usize,
    },
    /// A weight does not fit the negotiated operand width.
    ValueOutOfRange {
        /// Row of the offending weight.
        row: usize,
        /// Column of the offending weight.
        col: usize,
        /// The weight itself.
        value: i64,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::EmptyModel => write!(f, "model matrix is empty"),
            RegisterError::RaggedRow { row, got, want } => {
                write!(f, "row {row} has {got} columns, expected {want}")
            }
            RegisterError::TooLarge { elements, max } => {
                write!(f, "model has {elements} elements, cap is {max}")
            }
            RegisterError::ValueOutOfRange { row, col, value } => {
                write!(
                    f,
                    "weight [{row}][{col}] = {value} exceeds the operand width"
                )
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// How a model (or part of its stock) left the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionKind {
    /// [`ModelRegistry::evict`] / the wire's `MODEL_EVICT`.
    Explicit,
    /// Re-registration of the same id replaced the matrix.
    Replaced,
    /// LRU victim of the byte budget.
    Budget,
}

/// Record of one model leaving the registry — the serving layer turns
/// these into journal tombstones and flight-recorder events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted model.
    pub model_id: u64,
    /// Why it left.
    pub kind: EvictionKind,
    /// Stocked streams destroyed with it.
    pub streams_lost: usize,
    /// Cache bytes freed.
    pub bytes_freed: u64,
}

/// A single-use pre-garbled stream, popped from stock by
/// [`ModelRegistry::acquire`]. Stream it with
/// [`maxelerator::remote::stream_materialized_job_from`] and drop it — the
/// registry never hands out the same generation twice.
#[derive(Debug)]
pub struct PreparedStream {
    /// The model this stream serves.
    pub model_id: u64,
    /// The stream's unique generation (never reused).
    pub generation: u64,
    /// The job seed the stream was garbled from
    /// (`derive_seed(model_seed, generation)`) — what a resume checkpoint
    /// records to re-garble deterministically.
    pub seed: u64,
    /// The materialized frames.
    pub job: MaterializedJob,
    /// The stream's [`stream_digest`], verified at acquire — the material
    /// handed out matches what the fill step garbled, bit for bit.
    pub digest: [u8; 16],
}

/// Typed fallback when no warm stream can serve the request: the caller
/// garbles inline with this ticket's seed (a fresh generation — the
/// single-use invariant holds on the fallback path too). Falling back is
/// never an error; it is counted once the job is admitted
/// ([`ModelRegistry::note_fallback_served`]), since a ticket whose job is
/// turned away with BUSY served nothing.
#[derive(Clone, Debug)]
pub struct FallbackTicket {
    /// The model to garble.
    pub model_id: u64,
    /// The consumed generation.
    pub generation: u64,
    /// Job seed for the inline garble.
    pub seed: u64,
    /// The model's weights (shared, immutable).
    pub weights: Arc<Vec<Vec<i64>>>,
}

/// What [`ModelRegistry::acquire`] hands back for a known model.
#[derive(Debug)]
pub enum Acquired {
    /// A warm stream: the online phase is OT + frame replay.
    Prepared(Box<PreparedStream>),
    /// Stock empty (or the request shape has no precomputed form): garble
    /// inline from the ticket.
    Starved(FallbackTicket),
}

/// Outcome of one background fill step.
#[derive(Clone, Debug)]
pub struct FillReport {
    /// The model the step garbled for.
    pub model_id: u64,
    /// The generation the produced stream consumed.
    pub generation: u64,
    /// Whether the stream entered the stock (false: the model vanished
    /// mid-fill or the stream alone exceeded the budget).
    pub deposited: bool,
    /// Bytes the produced stream occupies.
    pub stored_bytes: u64,
    /// Fabric cycles the offline garbling cost.
    pub fabric_cycles: u64,
    /// Own streams trimmed to fit the budget (oldest first).
    pub streams_trimmed: usize,
    /// Whole models evicted by the budget during this deposit.
    pub evicted: Vec<Eviction>,
}

impl FillReport {
    /// Whether the step stocked its stream without the budget pushing back
    /// (no eviction, no trim): filling on would add stock, not recycle it.
    pub fn clean(&self) -> bool {
        self.deposited && self.evicted.is_empty() && self.streams_trimmed == 0
    }
}

/// Aggregated registry counters for `metrics_json` and loadgen summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Models currently registered.
    pub models: usize,
    /// Warm streams across all stocks.
    pub streams_ready: usize,
    /// Bytes those streams occupy.
    pub stock_bytes: u64,
    /// The configured budget (`None` = unbounded).
    pub budget_bytes: Option<u64>,
    /// Jobs served from warm stock.
    pub served_prepared: u64,
    /// Jobs that fell back to inline garbling.
    pub served_fallback: u64,
    /// Streams produced by fill steps.
    pub streams_produced: u64,
    /// Produced streams discarded (model vanished mid-fill, or a single
    /// stream exceeded the whole budget).
    pub streams_discarded: u64,
    /// Stocked streams dropped at acquire because their material no
    /// longer matched the digest recorded at fill (cache bit rot). Each
    /// drop fell through to the inline-garble fallback — counted, never
    /// served wrong.
    pub streams_integrity_dropped: u64,
    /// Own-stock streams trimmed by the budget.
    pub streams_trimmed: u64,
    /// Whole models evicted by the budget.
    pub models_evicted_budget: u64,
    /// Models dropped via [`ModelRegistry::evict`].
    pub models_evicted_explicit: u64,
    /// Models replaced by re-registration.
    pub models_replaced: u64,
    /// Fabric cycles spent garbling offline (the cost the online path no
    /// longer pays — the accounting the retired `PrecomputeStore` kept).
    pub fabric_cycles_spent: u64,
}

struct StockedStream {
    generation: u64,
    seed: u64,
    bytes: u64,
    job: MaterializedJob,
    /// [`stream_digest`] of `job` at deposit time, re-checked at acquire.
    digest: [u8; 16],
}

struct ModelEntry {
    weights: Arc<Vec<Vec<i64>>>,
    epoch: u64,
    model_seed: u64,
    /// Next unused generation of the seed schedule.
    generation: u64,
    /// Fill steps currently garbling for this model (claimed, not yet
    /// deposited) — keeps concurrent idle workers from overshooting.
    filling: usize,
    stock: VecDeque<StockedStream>,
    stock_bytes: u64,
    served_prepared: u64,
    served_fallback: u64,
}

impl ModelEntry {
    fn status(&self, model_id: u64) -> ModelStatus {
        ModelStatus {
            model_id,
            rows: self.weights.len() as u32,
            cols: self.weights.first().map_or(0, Vec::len) as u32,
            stock: self.stock.len() as u32,
            stock_bytes: self.stock_bytes,
            served_prepared: self.served_prepared,
            served_fallback: self.served_fallback,
            generation: self.generation,
        }
    }
}

#[derive(Default)]
struct Counters {
    served_prepared: u64,
    served_fallback: u64,
    streams_produced: u64,
    streams_discarded: u64,
    streams_integrity_dropped: u64,
    streams_trimmed: u64,
    models_evicted_budget: u64,
    models_evicted_explicit: u64,
    models_replaced: u64,
    fabric_cycles_spent: u64,
}

struct Inner {
    models: BTreeMap<u64, ModelEntry>,
    /// Model ids, least-recently-acquired first.
    lru: VecDeque<u64>,
    /// Global registration epoch — every (re-)registration gets a fresh
    /// one, so model seeds never collide across a model's lifetimes.
    epoch: u64,
    stock_bytes: u64,
    /// Fill steps claimed and not yet deposited (their models may be gone).
    fills_in_flight: usize,
    counters: Counters,
}

struct FillTicket {
    model_id: u64,
    epoch: u64,
    generation: u64,
    seed: u64,
    weights: Arc<Vec<Vec<i64>>>,
}

/// Multi-tenant prepared-model registry; all methods are `&self` and
/// thread-safe (serving sessions acquire while idle workers fill).
pub struct ModelRegistry {
    config: AcceleratorConfig,
    reg: RegistryConfig,
    registry_seed: u64,
    inner: Mutex<Inner>,
    /// Signalled whenever a fill step deposits.
    fill_done: Condvar,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ModelRegistry")
            .field("models", &stats.models)
            .field("streams_ready", &stats.streams_ready)
            .field("stock_bytes", &stats.stock_bytes)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// Builds an empty registry. `base_seed` anchors every model's seed
    /// schedule (the serving layer passes its session base seed, so
    /// prepared streams and inline session jobs share one derivation
    /// root without colliding: model seeds hang off a dedicated tweak).
    pub fn new(config: AcceleratorConfig, reg: RegistryConfig, base_seed: u64) -> Self {
        ModelRegistry {
            config,
            reg,
            registry_seed: derive_seed(base_seed, 0x4d0d_e15e_ed00_0001),
            inner: Mutex::new(Inner {
                models: BTreeMap::new(),
                lru: VecDeque::new(),
                epoch: 0,
                stock_bytes: 0,
                fills_in_flight: 0,
                counters: Counters::default(),
            }),
            fill_done: Condvar::new(),
        }
    }

    /// The accelerator configuration streams are garbled under.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The registry's cache/precompute knobs.
    pub fn registry_config(&self) -> RegistryConfig {
        self.reg
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) `weights` under `model_id`. Validation is
    /// total — a hostile matrix is a typed error, never a panic. On
    /// replacement the old stock and seed epoch are dropped atomically and
    /// the eviction record is returned for journaling.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] when the matrix is empty, ragged, oversized, or
    /// holds a weight outside the operand width.
    pub fn register(
        &self,
        model_id: u64,
        weights: Vec<Vec<i64>>,
    ) -> Result<(ModelStatus, Option<Eviction>), RegisterError> {
        let rows = weights.len();
        let cols = weights.first().map_or(0, Vec::len);
        if rows == 0 || cols == 0 {
            return Err(RegisterError::EmptyModel);
        }
        if rows.saturating_mul(cols) > MAX_MODEL_ELEMENTS {
            return Err(RegisterError::TooLarge {
                elements: rows * cols,
                max: MAX_MODEL_ELEMENTS,
            });
        }
        let b = self.config.bit_width as u32;
        let (lo, hi) = if self.config.signed {
            (-(1i64 << (b - 1)), (1i64 << (b - 1)) - 1)
        } else {
            (0, (1i64 << b) - 1)
        };
        for (r, row) in weights.iter().enumerate() {
            if row.len() != cols {
                return Err(RegisterError::RaggedRow {
                    row: r,
                    got: row.len(),
                    want: cols,
                });
            }
            for (c, &w) in row.iter().enumerate() {
                if w < lo || w > hi {
                    return Err(RegisterError::ValueOutOfRange {
                        row: r,
                        col: c,
                        value: w,
                    });
                }
            }
        }
        let mut inner = self.lock();
        let epoch = inner.epoch;
        inner.epoch += 1;
        let entry = ModelEntry {
            weights: Arc::new(weights),
            epoch,
            model_seed: derive_seed(self.registry_seed, epoch),
            generation: 0,
            filling: 0,
            stock: VecDeque::new(),
            stock_bytes: 0,
            served_prepared: 0,
            served_fallback: 0,
        };
        let status = entry.status(model_id);
        let replaced = inner.models.insert(model_id, entry).map(|old| {
            inner.stock_bytes -= old.stock_bytes;
            inner.counters.models_replaced += 1;
            Eviction {
                model_id,
                kind: EvictionKind::Replaced,
                streams_lost: old.stock.len(),
                bytes_freed: old.stock_bytes,
            }
        });
        inner.lru.retain(|&id| id != model_id);
        inner.lru.push_back(model_id);
        Ok((status, replaced))
    }

    /// Whether `model_id` is registered.
    pub fn contains(&self, model_id: u64) -> bool {
        self.lock().models.contains_key(&model_id)
    }

    /// The model's weights (for inline fallback garbling and resume
    /// re-garbles), if registered.
    pub fn weights(&self, model_id: u64) -> Option<Arc<Vec<Vec<i64>>>> {
        self.lock().models.get(&model_id).map(|e| e.weights.clone())
    }

    /// The model's registry snapshot, if registered.
    pub fn status(&self, model_id: u64) -> Option<ModelStatus> {
        self.lock()
            .models
            .get(&model_id)
            .map(|e| e.status(model_id))
    }

    /// Ids of all registered models, ascending.
    pub fn model_ids(&self) -> Vec<u64> {
        self.lock().models.keys().copied().collect()
    }

    /// Drops `model_id` and its stock, returning the final snapshot and
    /// the eviction record for journaling. `None` if unknown.
    pub fn evict(&self, model_id: u64) -> Option<(ModelStatus, Eviction)> {
        let mut inner = self.lock();
        let entry = inner.models.remove(&model_id)?;
        inner.stock_bytes -= entry.stock_bytes;
        inner.lru.retain(|&id| id != model_id);
        inner.counters.models_evicted_explicit += 1;
        let status = entry.status(model_id);
        Some((
            status,
            Eviction {
                model_id,
                kind: EvictionKind::Explicit,
                streams_lost: entry.stock.len(),
                bytes_freed: entry.stock_bytes,
            },
        ))
    }

    /// Claims the serve material for one job against `model_id`
    /// (refreshing the model's LRU position): a warm [`PreparedStream`]
    /// when `columns == 1` and stock is available, otherwise a
    /// [`FallbackTicket`] for inline garbling. Matmul jobs (`columns >
    /// 1`) always fall back — a stocked stream is one matvec's element
    /// schedule, and a multi-pass job needs one contiguous seed. `None`
    /// means the model is unknown (the wire's `REJECT(MODEL)`).
    pub fn acquire(&self, model_id: u64, columns: u32) -> Option<Acquired> {
        let mut inner = self.lock();
        let Inner {
            models,
            lru,
            counters,
            stock_bytes,
            ..
        } = &mut *inner;
        let entry = models.get_mut(&model_id)?;
        lru.retain(|&id| id != model_id);
        lru.push_back(model_id);
        if columns == 1 {
            if let Some(stream) = entry.stock.pop_front() {
                entry.stock_bytes -= stream.bytes;
                *stock_bytes -= stream.bytes;
                entry.served_prepared += 1;
                counters.served_prepared += 1;
                // The fill-time digest rides along for the serving layer
                // to re-verify before the first material frame leaves —
                // the rehash scales with the stream, so it is pipelined
                // past the admission window rather than paid under the
                // registry lock. A mismatch is routed back through
                // [`ModelRegistry::note_integrity_drop`].
                return Some(Acquired::Prepared(Box::new(PreparedStream {
                    model_id,
                    generation: stream.generation,
                    seed: stream.seed,
                    job: stream.job,
                    digest: stream.digest,
                })));
            }
        }
        let generation = entry.generation;
        entry.generation += 1;
        Some(Acquired::Starved(FallbackTicket {
            model_id,
            generation,
            seed: derive_seed(entry.model_seed, generation),
            weights: entry.weights.clone(),
        }))
    }

    /// Records that the job a [`FallbackTicket`] was cut for was admitted
    /// for inline garbling. The serving layer calls this when its pool
    /// takes the job — not at [`acquire`](ModelRegistry::acquire), because
    /// an acquired ticket can still be answered with BUSY.
    pub fn note_fallback_served(&self, model_id: u64) {
        let mut inner = self.lock();
        if let Some(entry) = inner.models.get_mut(&model_id) {
            entry.served_fallback += 1;
        }
        inner.counters.served_fallback += 1;
    }

    /// Runs one background precompute step: picks the most-starved model
    /// (stock plus in-flight fills furthest below
    /// [`RegistryConfig::target_stock`]), garbles one stream for it
    /// *outside* the registry lock, and deposits it under the byte
    /// budget. Returns `None` when every model is at target — the
    /// idle caller should sleep.
    ///
    /// # Errors
    ///
    /// Propagates [`AcceleratorError`] from the garbling schedule (an
    /// internal invariant violation, not peer input).
    pub fn fill_step(&self) -> Option<Result<FillReport, AcceleratorError>> {
        let ticket = self.claim_fill()?;
        let garbled = fill_stream(&self.config, &ticket.weights, ticket.seed, 1);
        Some(self.deposit(ticket, garbled))
    }

    fn claim_fill(&self) -> Option<FillTicket> {
        let mut inner = self.lock();
        let target = self.reg.target_stock;
        let model_id = inner
            .models
            .iter()
            .filter(|(_, e)| e.stock.len() + e.filling < target)
            .min_by_key(|(_, e)| e.stock.len() + e.filling)
            .map(|(&id, _)| id)?;
        let entry = inner.models.get_mut(&model_id)?;
        entry.filling += 1;
        let generation = entry.generation;
        entry.generation += 1;
        let ticket = FillTicket {
            model_id,
            epoch: entry.epoch,
            generation,
            seed: derive_seed(entry.model_seed, generation),
            weights: entry.weights.clone(),
        };
        inner.fills_in_flight += 1;
        Some(ticket)
    }

    fn deposit(
        &self,
        ticket: FillTicket,
        garbled: Result<MaterializedJob, AcceleratorError>,
    ) -> Result<FillReport, AcceleratorError> {
        // Digest the fresh material before taking the lock: it is the
        // reference the acquire-time check verifies against.
        let digest = match &garbled {
            Ok(job) => stream_digest(job),
            Err(_) => [0u8; 16],
        };
        let mut inner = self.lock();
        inner.fills_in_flight -= 1;
        self.fill_done.notify_all();
        if let Some(entry) = inner.models.get_mut(&ticket.model_id) {
            entry.filling = entry.filling.saturating_sub(1);
        }
        let job = garbled?;
        let cycles = job.fabric_cycles;
        inner.counters.streams_produced += 1;
        inner.counters.fabric_cycles_spent += cycles;
        let bytes = job.stored_bytes();
        let mut report = FillReport {
            model_id: ticket.model_id,
            generation: ticket.generation,
            deposited: false,
            stored_bytes: bytes,
            fabric_cycles: cycles,
            streams_trimmed: 0,
            evicted: Vec::new(),
        };
        // The model may have been replaced or evicted while we garbled:
        // its epoch rotated, so this stream's seed schedule is orphaned
        // and the material must be discarded, never served.
        let valid = inner
            .models
            .get(&ticket.model_id)
            .is_some_and(|e| e.epoch == ticket.epoch);
        let oversized = self.reg.budget_bytes.is_some_and(|budget| bytes > budget);
        if !valid || oversized {
            inner.counters.streams_discarded += 1;
            return Ok(report);
        }
        if let Some(entry) = inner.models.get_mut(&ticket.model_id) {
            entry.stock.push_back(StockedStream {
                generation: ticket.generation,
                seed: ticket.seed,
                bytes,
                job,
                digest,
            });
            entry.stock_bytes += bytes;
        }
        inner.stock_bytes += bytes;
        report.deposited = true;
        let (evicted, trimmed) = self.enforce_budget(&mut inner, ticket.model_id);
        report.evicted = evicted;
        report.streams_trimmed = trimmed;
        Ok(report)
    }

    /// Evicts least-recently-acquired models (never `keep`, the one
    /// depositing) until the stock fits the budget; once only `keep`
    /// remains over budget, trims its own oldest streams.
    fn enforce_budget(&self, inner: &mut Inner, keep: u64) -> (Vec<Eviction>, usize) {
        let Some(budget) = self.reg.budget_bytes else {
            return (Vec::new(), 0);
        };
        let mut evicted = Vec::new();
        let mut trimmed = 0usize;
        while inner.stock_bytes > budget {
            let victim =
                inner.lru.iter().copied().find(|&id| {
                    id != keep && inner.models.get(&id).is_some_and(|e| e.stock_bytes > 0)
                });
            if let Some(id) = victim {
                if let Some(entry) = inner.models.remove(&id) {
                    inner.stock_bytes -= entry.stock_bytes;
                    inner.lru.retain(|&m| m != id);
                    inner.counters.models_evicted_budget += 1;
                    evicted.push(Eviction {
                        model_id: id,
                        kind: EvictionKind::Budget,
                        streams_lost: entry.stock.len(),
                        bytes_freed: entry.stock_bytes,
                    });
                }
                continue;
            }
            // Only the depositing model holds stock: trim its oldest.
            let Some(entry) = inner.models.get_mut(&keep) else {
                break;
            };
            let Some(old) = entry.stock.pop_front() else {
                break;
            };
            entry.stock_bytes -= old.bytes;
            inner.stock_bytes -= old.bytes;
            inner.counters.streams_trimmed += 1;
            trimmed += 1;
        }
        (evicted, trimmed)
    }

    /// Fills synchronously, handing every step's report to `on_fill`, until
    /// each model is at target stock *and that stock has arrived*, or the
    /// byte budget pushes back (the first non-deposit, trim, or eviction
    /// stops the loop — continuing would just recycle streams). Returns
    /// the number of streams deposited.
    ///
    /// # Errors
    ///
    /// See [`ModelRegistry::fill_step`].
    pub fn prefill(&self, mut on_fill: impl FnMut(&FillReport)) -> Result<usize, AcceleratorError> {
        let mut deposited = 0usize;
        loop {
            let budget_bound = match self.fill_step() {
                Some(step) => {
                    let report = step?;
                    on_fill(&report);
                    if report.clean() {
                        deposited += 1;
                        continue;
                    }
                    true
                }
                None => false,
            };
            // Fills other threads have in flight count toward the targets
            // before they deposit (and evict); with nothing to claim, look
            // again once they are done — one may yet be discarded (its
            // model re-PUT meanwhile).
            if !self.wait_for_fills() || budget_bound {
                return Ok(deposited);
            }
        }
    }

    /// Blocks until no fill step is in flight: every claimed stream has
    /// been deposited (or discarded) and its budget evictions applied.
    /// Returns whether it had to wait.
    fn wait_for_fills(&self) -> bool {
        let inner = self.lock();
        let waited = inner.fills_in_flight > 0;
        let _settled = self
            .fill_done
            .wait_while(inner, |inner| inner.fills_in_flight > 0);
        waited
    }

    /// Records that an acquired prepared stream failed its at-serve digest
    /// re-verification and was dropped (the serving layer detected cache
    /// bit rot before any material frame left the wire). The caller falls
    /// through to inline garbling on retry; this keeps the rot visible in
    /// [`RegistryStats::streams_integrity_dropped`].
    pub fn note_integrity_drop(&self) {
        self.lock().counters.streams_integrity_dropped += 1;
    }

    /// Test hook: flips one bit in the first stocked stream of `model_id`
    /// *without* touching its recorded digest, simulating at-rest bit rot.
    /// Returns `false` if the model has no stock.
    #[doc(hidden)]
    pub fn rot_first_stream_for_tests(&self, model_id: u64) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.models.get_mut(&model_id) else {
            return false;
        };
        let Some(stream) = entry.stock.front_mut() else {
            return false;
        };
        let Some(elem) = stream.job.elements.first_mut() else {
            return false;
        };
        let Some(pair) = elem.pairs.first_mut() else {
            return false;
        };
        pair.0 = max_crypto::Block::new(pair.0.bits() ^ (1 << 40));
        true
    }

    /// Aggregated counters and gauges.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        RegistryStats {
            models: inner.models.len(),
            streams_ready: inner.models.values().map(|e| e.stock.len()).sum(),
            stock_bytes: inner.stock_bytes,
            budget_bytes: self.reg.budget_bytes,
            served_prepared: inner.counters.served_prepared,
            served_fallback: inner.counters.served_fallback,
            streams_produced: inner.counters.streams_produced,
            streams_discarded: inner.counters.streams_discarded,
            streams_integrity_dropped: inner.counters.streams_integrity_dropped,
            streams_trimmed: inner.counters.streams_trimmed,
            models_evicted_budget: inner.counters.models_evicted_budget,
            models_evicted_explicit: inner.counters.models_evicted_explicit,
            models_replaced: inner.counters.models_replaced,
            fabric_cycles_spent: inner.counters.fabric_cycles_spent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_crypto::Block;
    use maxelerator::remote::decode_round_burst;
    use maxelerator::ScheduledEvaluator;

    fn demo_weights() -> Vec<Vec<i64>> {
        vec![
            vec![3i64, -1, 4],
            vec![1, 5, -9],
            vec![2, 6, -5],
            vec![-3, 5, 8],
            vec![9, -7, 9],
        ]
    }

    fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Evaluates a prepared stream locally: OT is bypassed by selecting
    /// labels straight from the stored pairs (the test stands in for both
    /// parties, like the retired `PrecomputeStore` tests did).
    fn evaluate_stream(config: &AcceleratorConfig, job: &MaterializedJob, x: &[i64]) -> Vec<i64> {
        let b = config.bit_width;
        let mut evaluator = ScheduledEvaluator::new(config);
        let mut y = Vec::with_capacity(job.elements.len());
        for (r, elem) in job.elements.iter().enumerate() {
            evaluator.begin_element(r as u32);
            let msgs = decode_round_burst(elem.rounds_frame.clone(), x.len()).unwrap();
            let mut decoded = None;
            for (i, msg) in msgs.iter().enumerate() {
                let bits = config.encode_x(x[i]);
                let labels: Vec<Block> = bits
                    .iter()
                    .enumerate()
                    .map(|(j, &bit)| {
                        let pair = elem.pairs[i * b + j];
                        if bit {
                            pair.1
                        } else {
                            pair.0
                        }
                    })
                    .collect();
                decoded = evaluator.evaluate_round(msg, &labels).unwrap();
            }
            y.push(decoded.unwrap());
        }
        y
    }

    #[test]
    fn prepared_streams_decode_correctly() {
        let config = AcceleratorConfig::new(8);
        let reg = ModelRegistry::new(config.clone(), RegistryConfig::default(), 42);
        reg.register(7, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        let x = [2i64, 6, -1];
        for _ in 0..2 {
            match reg.acquire(7, 1).unwrap() {
                Acquired::Prepared(stream) => {
                    assert_eq!(
                        evaluate_stream(&config, &stream.job, &x),
                        plain_matvec(&demo_weights(), &x)
                    );
                }
                Acquired::Starved(_) => panic!("stock was prefilled"),
            }
        }
    }

    #[test]
    fn streams_are_single_use_with_fresh_labels() {
        let config = AcceleratorConfig::new(8);
        let reg = ModelRegistry::new(config.clone(), RegistryConfig::default(), 42);
        reg.register(1, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        let first = match reg.acquire(1, 1).unwrap() {
            Acquired::Prepared(s) => s,
            Acquired::Starved(_) => panic!("stock was prefilled"),
        };
        let second = match reg.acquire(1, 1).unwrap() {
            Acquired::Prepared(s) => s,
            Acquired::Starved(_) => panic!("target_stock is 2"),
        };
        // Distinct generations, seeds, garbled tables, and OT pairs: no
        // label material is ever served twice.
        assert_ne!(first.generation, second.generation);
        assert_ne!(first.seed, second.seed);
        for (a, b) in first.job.elements.iter().zip(&second.job.elements) {
            assert_ne!(a.rounds_frame, b.rounds_frame);
            assert_ne!(a.pairs, b.pairs);
        }
    }

    #[test]
    fn serving_costs_no_fabric_cycles() {
        // The retired PrecomputeStore pinned this: the online path is OT +
        // evaluation only; fabric cycles are spent at fill time.
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 1);
        reg.register(9, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        let spent = reg.stats().fabric_cycles_spent;
        assert!(spent > 0, "fill must account its garbling cost");
        let _ = reg.acquire(9, 1).unwrap();
        assert_eq!(reg.stats().fabric_cycles_spent, spent);
    }

    #[test]
    fn starved_stock_falls_back_typed_and_counted() {
        let config = AcceleratorConfig::new(8);
        let reg = ModelRegistry::new(config.clone(), RegistryConfig::default(), 5);
        reg.register(3, demo_weights()).unwrap();
        // No prefill: the stock is empty, so acquire falls back.
        let ticket = match reg.acquire(3, 1).unwrap() {
            Acquired::Starved(t) => t,
            Acquired::Prepared(_) => panic!("nothing was prefilled"),
        };
        assert_eq!(ticket.generation, 0);
        // A ticket alone serves nothing: the count waits for admission.
        assert_eq!(reg.stats().served_fallback, 0);
        reg.note_fallback_served(ticket.model_id);
        // The fallback garble is the fill function at the ticket's seed.
        let job = fill_stream(&config, &ticket.weights, ticket.seed, 1).unwrap();
        let x = [1i64, -2, 3];
        assert_eq!(
            evaluate_stream(&config, &job, &x),
            plain_matvec(&demo_weights(), &x)
        );
        // Matmul requests fall back even with stock.
        reg.prefill(|_| {}).unwrap();
        assert!(matches!(reg.acquire(3, 2).unwrap(), Acquired::Starved(_)));
        reg.note_fallback_served(3);
        let stats = reg.stats();
        assert_eq!(stats.served_fallback, 2);
        assert_eq!(reg.status(3).unwrap().served_fallback, 2);
        // Generations never repeat across fallback and fill.
        let status = reg.status(3).unwrap();
        assert!(status.generation >= stats.streams_produced + 2);
    }

    #[test]
    fn stream_digest_is_stable_and_sensitive() {
        let config = AcceleratorConfig::new(8);
        let job = fill_stream(&config, &demo_weights(), 7, 1).unwrap();
        let d = stream_digest(&job);
        assert_eq!(d, stream_digest(&job), "digest must be deterministic");
        let mut rotted = job.clone();
        let pair = &mut rotted.elements[1].pairs[3];
        pair.1 = Block::new(pair.1.bits() ^ 1);
        assert_ne!(stream_digest(&rotted), d, "one flipped label bit must show");
    }

    #[test]
    fn rotted_stock_fails_its_digest_and_is_counted() {
        let config = AcceleratorConfig::new(8);
        let reg = ModelRegistry::new(config.clone(), RegistryConfig::default(), 42);
        reg.register(5, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        assert_eq!(reg.stats().streams_ready, 2);
        // Rot the first stocked stream in place: one flipped label bit,
        // the kind of damage a DRAM fault or disk rot would inflict.
        assert!(reg.rot_first_stream_for_tests(5));
        // Acquire hands the stream out with its fill-time digest; the
        // serving layer's re-verification (mirrored here) catches the rot
        // before any material frame leaves, and routes it back into the
        // registry's counters.
        let rotted = match reg.acquire(5, 1).unwrap() {
            Acquired::Prepared(s) => s,
            Acquired::Starved(_) => panic!("stock was prefilled"),
        };
        assert_ne!(
            stream_digest(&rotted.job),
            rotted.digest,
            "rot must break the fill-time digest"
        );
        reg.note_integrity_drop();
        let stats = reg.stats();
        assert_eq!(stats.streams_integrity_dropped, 1);
        // The second (healthy) stream still verifies and serves.
        let healthy = match reg.acquire(5, 1).unwrap() {
            Acquired::Prepared(s) => s,
            Acquired::Starved(_) => panic!("target_stock is 2"),
        };
        assert_eq!(stream_digest(&healthy.job), healthy.digest);
        // Stock drained: the next job falls back to inline garbling.
        assert!(matches!(reg.acquire(5, 1).unwrap(), Acquired::Starved(_)));
    }

    #[test]
    fn unknown_model_is_none() {
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 5);
        assert!(reg.acquire(99, 1).is_none());
        assert!(reg.status(99).is_none());
        assert!(reg.evict(99).is_none());
        assert!(!reg.contains(99));
    }

    #[test]
    fn registration_validates_shape_and_range() {
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 5);
        assert_eq!(
            reg.register(1, vec![]).unwrap_err(),
            RegisterError::EmptyModel
        );
        assert_eq!(
            reg.register(1, vec![vec![]]).unwrap_err(),
            RegisterError::EmptyModel
        );
        assert_eq!(
            reg.register(1, vec![vec![1, 2], vec![3]]).unwrap_err(),
            RegisterError::RaggedRow {
                row: 1,
                got: 1,
                want: 2
            }
        );
        // b = 8 signed: the operand range is [-128, 127].
        assert_eq!(
            reg.register(1, vec![vec![128]]).unwrap_err(),
            RegisterError::ValueOutOfRange {
                row: 0,
                col: 0,
                value: 128
            }
        );
        assert!(reg.register(1, vec![vec![-128, 127]]).is_ok());
    }

    #[test]
    fn reregistration_rotates_the_seed_epoch_and_drops_stock() {
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 5);
        reg.register(4, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        assert!(reg.status(4).unwrap().stock > 0);
        let first_ticket = match reg.acquire(4, 2).unwrap() {
            Acquired::Starved(t) => t,
            Acquired::Prepared(_) => panic!("matmul always falls back"),
        };
        let (_, replaced) = reg.register(4, demo_weights()).unwrap();
        let replaced = replaced.unwrap();
        assert_eq!(replaced.kind, EvictionKind::Replaced);
        assert!(replaced.streams_lost > 0);
        assert_eq!(reg.status(4).unwrap().stock, 0);
        // Same generation index, different epoch → different seed: stale
        // material can never serve the replacement matrix.
        let second_ticket = match reg.acquire(4, 2).unwrap() {
            Acquired::Starved(t) => t,
            Acquired::Prepared(_) => panic!("stock was dropped"),
        };
        assert_eq!(second_ticket.generation, 0);
        assert_ne!(first_ticket.seed, second_ticket.seed);
        assert_eq!(reg.stats().models_replaced, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_acquired_models() {
        let config = AcceleratorConfig::new(8);
        // Size the budget from a real stream so exactly ~2 streams fit.
        let probe = fill_stream(&config, &demo_weights(), 1, 1).unwrap();
        let budget = probe.stored_bytes() * 2 + probe.stored_bytes() / 2;
        let reg = ModelRegistry::new(
            config.clone(),
            RegistryConfig {
                budget_bytes: Some(budget),
                target_stock: 2,
            },
            5,
        );
        reg.register(1, demo_weights()).unwrap();
        reg.register(2, demo_weights()).unwrap();
        // Touch model 2 so model 1 is the LRU victim.
        let _ = reg.acquire(2, 1);
        let mut evictions = Vec::new();
        for _ in 0..8 {
            match reg.fill_step() {
                Some(Ok(report)) => evictions.extend(report.evicted),
                Some(Err(e)) => panic!("fill failed: {e:?}"),
                None => break,
            }
        }
        assert!(
            evictions.iter().any(|e| e.kind == EvictionKind::Budget),
            "tight budget must evict"
        );
        let stats = reg.stats();
        assert!(stats.stock_bytes <= budget);
        assert!(stats.models_evicted_budget >= 1);
        // The registry stays serviceable: whichever model survives still
        // acquires, the evicted one reports unknown.
        let survivors: Vec<u64> = reg.model_ids();
        assert!(!survivors.is_empty());
        for id in [1u64, 2] {
            if survivors.contains(&id) {
                assert!(reg.acquire(id, 1).is_some());
            } else {
                assert!(reg.acquire(id, 1).is_none());
            }
        }
    }

    #[test]
    fn single_model_over_budget_trims_its_own_oldest_streams() {
        let config = AcceleratorConfig::new(8);
        let probe = fill_stream(&config, &demo_weights(), 1, 1).unwrap();
        let budget = probe.stored_bytes() + probe.stored_bytes() / 2;
        let reg = ModelRegistry::new(
            config,
            RegistryConfig {
                budget_bytes: Some(budget),
                target_stock: 3,
            },
            5,
        );
        reg.register(1, demo_weights()).unwrap();
        let mut trimmed = 0usize;
        for _ in 0..6 {
            match reg.fill_step() {
                Some(Ok(report)) => trimmed += report.streams_trimmed,
                Some(Err(e)) => panic!("fill failed: {e:?}"),
                None => break,
            }
        }
        assert!(trimmed > 0, "over-budget stock must trim oldest streams");
        let stats = reg.stats();
        assert!(stats.stock_bytes <= budget);
        assert_eq!(stats.models, 1, "the lone model is never self-evicted");
    }

    #[test]
    fn explicit_eviction_returns_final_status_and_record() {
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 5);
        reg.register(6, demo_weights()).unwrap();
        reg.prefill(|_| {}).unwrap();
        let _ = reg.acquire(6, 1);
        let (status, eviction) = reg.evict(6).unwrap();
        assert_eq!(status.served_prepared, 1);
        assert_eq!(eviction.kind, EvictionKind::Explicit);
        assert!(!reg.contains(6));
        assert_eq!(reg.stats().models_evicted_explicit, 1);
    }

    #[test]
    fn stats_track_stock_and_serves() {
        let reg = ModelRegistry::new(AcceleratorConfig::new(8), RegistryConfig::default(), 5);
        reg.register(1, demo_weights()).unwrap();
        reg.register(2, vec![vec![1i64, 2], vec![3, 4]]).unwrap();
        let deposited = reg.prefill(|_| {}).unwrap();
        assert_eq!(deposited, 4, "two models × target stock 2");
        let stats = reg.stats();
        assert_eq!(stats.models, 2);
        assert_eq!(stats.streams_ready, 4);
        assert_eq!(stats.streams_produced, 4);
        assert!(stats.stock_bytes > 0);
        assert_eq!(stats.budget_bytes, None);
        // Fill is idempotent at target.
        assert!(reg.fill_step().is_none());
        let status = reg.status(2).unwrap();
        assert_eq!(status.rows, 2);
        assert_eq!(status.cols, 2);
        assert_eq!(status.stock, 2);
    }
}
