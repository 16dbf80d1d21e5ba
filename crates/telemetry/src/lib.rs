//! Workspace-wide telemetry: the measurement substrate the paper's own
//! evaluation (Tables 1–3, §4.3) is an exercise in — cycles per garbled
//! table, communication volume, per-segment utilization — generalized into
//! four primitives every crate in the workspace can feed:
//!
//! * **Counters** — monotonic `u64` tallies (gates garbled, bytes moved,
//!   AES invocations, OT rounds).
//! * **Histograms** — fixed power-of-two buckets for value distributions
//!   (per-unit busy time, frame sizes).
//! * **Spans** — hierarchical wall-clock sections with optional modeled
//!   fabric cycles attached, so measured host time and modeled hardware
//!   time travel together (`secure_matvec/garble` holds both).
//! * **Timelines** — per-lane busy intervals (one lane per accelerator
//!   unit), from which busy/idle attribution falls out.
//!
//! # Two ways in
//!
//! 1. **The facade** ([`install`], [`counter_add`], [`span`], …) is the
//!    instrumentation layer threaded through the hot paths of `max-gc`,
//!    `max-ot`, `max-rng` and `maxelerator`. It is a **compile-time no-op**
//!    unless this crate's `enabled` feature is on (downstream crates expose
//!    it as their `telemetry` feature), so default builds pay nothing.
//! 2. **Direct [`Recorder`] use** is always compiled: benches and tests
//!    construct a local recorder, feed it explicitly, and snapshot it —
//!    no feature flag required.
//!
//! A [`Snapshot`] is plain data: deterministic ordering, value-equality,
//! and a canonical JSON rendering (see [`report`]) for machine-readable
//! perf artifacts like `BENCH_matvec.json`.
//!
//! # Example
//!
//! ```
//! use max_telemetry::Recorder;
//!
//! let rec = Recorder::new();
//! rec.add("gc.tables", 3);
//! rec.record("frame_bytes", 96);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("gc.tables"), 3);
//! assert!(snap.to_json().render().contains("\"gc.tables\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flight;
pub mod report;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use trace::{os_entropy, TraceContext, TraceEvent};

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram with count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of `value`: 0 for 0, otherwise `floor(log2(value)) + 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimated `p`-th percentile (0–100) of the recorded values.
    ///
    /// Power-of-two buckets only retain magnitudes, so the estimate is the
    /// inclusive upper bound of the bucket holding the requested rank,
    /// clamped to the exact observed `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_from_buckets(
            self.counts.iter().enumerate().map(|(i, &c)| (i as u32, c)),
            self.count,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            p,
        )
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// Inclusive upper bound of histogram bucket `i` (see [`bucket_index`]).
fn bucket_upper_bound(i: u32) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

fn percentile_from_buckets(
    buckets: impl IntoIterator<Item = (u32, u64)>,
    count: u64,
    min: u64,
    max: u64,
    p: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank definition: the smallest value v such that at least
    // ceil(p/100 * count) observations are <= v.
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, c) in buckets {
        cumulative = cumulative.saturating_add(c);
        if cumulative >= rank {
            return bucket_upper_bound(i).clamp(min, max);
        }
    }
    max
}

/// Aggregated statistics of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SpanStat {
    count: u64,
    wall_ns: u64,
    cycles: u64,
}

/// One busy interval on a timeline lane, in nanoseconds since the
/// recorder's epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Lane id (e.g. accelerator unit index).
    pub lane: u32,
    /// Interval start, ns since recorder creation.
    pub start_ns: u64,
    /// Interval end, ns since recorder creation.
    pub end_ns: u64,
}

impl TimelineEntry {
    /// Busy duration of this interval.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    timelines: BTreeMap<&'static str, Vec<TimelineEntry>>,
    traces: Vec<TraceEvent>,
}

/// The telemetry sink: thread-safe, append-only, snapshot-on-demand.
///
/// All mutation goes through `&self`; a single mutex guards the maps (the
/// facade is the hot path only when the `enabled` feature is on, and the
/// workloads this repository measures are simulation-bound, not
/// telemetry-bound).
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates an empty recorder; its creation instant is the timeline
    /// epoch.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Telemetry must never poison the protocol: a panicking holder
        // cannot corrupt append-only maps, so recover the guard.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `value` to counter `name`.
    pub fn add(&self, name: &'static str, value: u64) {
        *self.lock().counters.entry(name).or_insert(0) += value;
    }

    /// Records one observation into histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Records one completion of span `path` (`/`-separated hierarchy).
    pub fn record_span(&self, path: &str, wall: Duration, cycles: u64) {
        let mut inner = self.lock();
        let stat = inner.spans.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.wall_ns = stat.wall_ns.saturating_add(wall.as_nanos() as u64);
        stat.cycles += cycles;
    }

    /// Appends a busy interval to timeline `name`.
    pub fn record_timeline(&self, name: &'static str, entry: TimelineEntry) {
        self.lock().timelines.entry(name).or_default().push(entry);
    }

    /// Appends one distributed-trace event (timestamps in this recorder's
    /// `now_ns` timebase).
    pub fn record_trace_event(&self, ctx: TraceContext, name: &str, start_ns: u64, end_ns: u64) {
        self.lock().traces.push(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Appends a zero-duration trace event stamped `now_ns`.
    pub fn record_trace_instant(&self, ctx: TraceContext, name: &str) {
        let now = self.now_ns();
        self.record_trace_event(ctx, name, now, now);
    }

    /// Opens a trace span under `ctx`; the event is recorded when the
    /// returned guard drops.
    pub fn trace_span(&self, ctx: TraceContext, name: &'static str) -> TraceSpanGuard<'_> {
        TraceSpanGuard {
            rec: self,
            ctx,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Nanoseconds since this recorder was created (timeline timebase).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Point-in-time copy of everything recorded so far, deterministically
    /// ordered (counters/histograms/spans by name, timeline entries by
    /// insertion then lane-sorted).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&name, &value)| CounterSnapshot {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(path, stat)| SpanSnapshot {
                    path: path.clone(),
                    count: stat.count,
                    wall_ns: stat.wall_ns,
                    cycles: stat.cycles,
                })
                .collect(),
            timelines: inner
                .timelines
                .iter()
                .map(|(&name, entries)| {
                    let mut entries = entries.clone();
                    entries.sort_by_key(|e| (e.lane, e.start_ns, e.end_ns));
                    TimelineSnapshot {
                        name: name.to_string(),
                        entries,
                    }
                })
                .collect(),
            traces: {
                let mut traces = inner.traces.clone();
                traces.sort_by(|a, b| {
                    (a.trace_id, a.start_ns, a.end_ns, &a.name)
                        .cmp(&(b.trace_id, b.start_ns, b.end_ns, &b.name))
                });
                traces
            },
        }
    }
}

/// RAII guard recording a [`TraceEvent`] into a [`Recorder`] on drop.
#[must_use = "a trace span records when dropped"]
pub struct TraceSpanGuard<'r> {
    rec: &'r Recorder,
    ctx: TraceContext,
    name: &'static str,
    start_ns: u64,
}

impl Drop for TraceSpanGuard<'_> {
    fn drop(&mut self) {
        self.rec
            .record_trace_event(self.ctx, self.name, self.start_ns, self.rec.now_ns());
    }
}

/// One counter in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`; see [`bucket_index`].
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `p`-th percentile (0–100); see [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_from_buckets(
            self.buckets.iter().copied(),
            self.count,
            self.min,
            self.max,
            p,
        )
    }
}

/// One span path in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `/`-separated span path, e.g. `secure_matvec/garble`.
    pub path: String,
    /// Completions recorded.
    pub count: u64,
    /// Total wall-clock across completions, nanoseconds.
    pub wall_ns: u64,
    /// Total modeled fabric cycles attached via [`SpanGuard::add_cycles`].
    pub cycles: u64,
}

/// One timeline in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineSnapshot {
    /// Timeline name.
    pub name: String,
    /// Busy intervals, sorted by `(lane, start, end)`.
    pub entries: Vec<TimelineEntry>,
}

impl TimelineSnapshot {
    /// Total busy time of `lane` in nanoseconds.
    pub fn lane_busy_ns(&self, lane: u32) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.lane == lane)
            .map(TimelineEntry::busy_ns)
            .sum()
    }

    /// Distinct lanes present.
    pub fn lanes(&self) -> Vec<u32> {
        let mut lanes: Vec<u32> = self.entries.iter().map(|e| e.lane).collect();
        lanes.dedup();
        lanes
    }

    /// Makespan: latest end minus earliest start across all lanes.
    pub fn makespan_ns(&self) -> u64 {
        let start = self.entries.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let end = self.entries.iter().map(|e| e.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }
}

/// Deterministic, value-comparable copy of a [`Recorder`]'s contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All span paths, sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// All timelines, sorted by name.
    pub timelines: Vec<TimelineSnapshot>,
    /// All distributed-trace events, sorted by `(trace id, start, end,
    /// name)`.
    pub traces: Vec<TraceEvent>,
}

impl Snapshot {
    /// Value of counter `name`, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Span statistics at `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Timeline `name`, if recorded.
    pub fn timeline(&self, name: &str) -> Option<&TimelineSnapshot> {
        self.timelines.iter().find(|t| t.name == name)
    }

    /// All trace events belonging to `trace_id`, in start order.
    pub fn trace_events(&self, trace_id: u128) -> Vec<&TraceEvent> {
        self.traces
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .collect()
    }
}

/// True when the facade records (the `enabled` feature is on).
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

// ---------------------------------------------------------------------------
// The global facade: real when `enabled`, inlined-away otherwise.
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod facade {
    use super::{Recorder, TimelineEntry};
    use std::cell::RefCell;
    use std::sync::{Arc, RwLock};
    use std::time::Instant;

    static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

    thread_local! {
        static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    fn read_global() -> Option<Arc<Recorder>> {
        GLOBAL
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .cloned()
    }

    /// Installs `recorder` as the global sink, replacing any previous one.
    pub fn install(recorder: Arc<Recorder>) {
        *GLOBAL.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    }

    /// Removes the global sink; subsequent facade calls are dropped.
    pub fn uninstall() {
        *GLOBAL.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Adds `value` to global counter `name`.
    #[inline]
    pub fn counter_add(name: &'static str, value: u64) {
        if let Some(rec) = read_global() {
            rec.add(name, value);
        }
    }

    /// Records `value` into global histogram `name`.
    #[inline]
    pub fn histogram_record(name: &'static str, value: u64) {
        if let Some(rec) = read_global() {
            rec.record(name, value);
        }
    }

    /// RAII wall-clock span; nested spans form `/`-separated paths per
    /// thread.
    #[must_use = "a span records when dropped"]
    pub struct SpanGuard {
        state: Option<(String, Instant, u64)>,
    }

    /// Opens a span named `name` under the current thread's span stack.
    pub fn span(name: &'static str) -> SpanGuard {
        if read_global().is_none() {
            return SpanGuard { state: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        SpanGuard {
            state: Some((path, Instant::now(), 0)),
        }
    }

    impl SpanGuard {
        /// Attaches modeled fabric cycles to this span completion.
        pub fn add_cycles(&mut self, cycles: u64) {
            if let Some((_, _, total)) = &mut self.state {
                *total += cycles;
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if let Some((path, started, cycles)) = self.state.take() {
                SPAN_STACK.with(|stack| {
                    stack.borrow_mut().pop();
                });
                if let Some(rec) = read_global() {
                    rec.record_span(&path, started.elapsed(), cycles);
                }
            }
        }
    }

    /// RAII busy interval on timeline `name`, lane `lane`.
    #[must_use = "a timeline interval records when dropped"]
    pub struct TimelineGuard {
        state: Option<(Arc<Recorder>, &'static str, u32, u64)>,
    }

    /// Opens a busy interval on `name`/`lane`, closed when the guard drops.
    pub fn timeline(name: &'static str, lane: u32) -> TimelineGuard {
        match read_global() {
            Some(rec) => {
                let start = rec.now_ns();
                TimelineGuard {
                    state: Some((rec, name, lane, start)),
                }
            }
            None => TimelineGuard { state: None },
        }
    }

    impl Drop for TimelineGuard {
        fn drop(&mut self) {
            if let Some((rec, name, lane, start_ns)) = self.state.take() {
                let end_ns = rec.now_ns();
                rec.record_timeline(
                    name,
                    TimelineEntry {
                        lane,
                        start_ns,
                        end_ns,
                    },
                );
            }
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod facade {
    //! Disabled facade: every entry point is an empty inline function, so
    //! instrumented call sites compile to nothing.
    use super::Recorder;
    use std::sync::Arc;

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn install(_recorder: Arc<Recorder>) {}

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn uninstall() {}

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _value: u64) {}

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn histogram_record(_name: &'static str, _value: u64) {}

    /// Zero-sized stand-in for the enabled span guard.
    #[must_use = "a span records when dropped"]
    pub struct SpanGuard;

    impl SpanGuard {
        /// No-op (telemetry disabled at compile time).
        #[inline(always)]
        pub fn add_cycles(&mut self, _cycles: u64) {}
    }

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// Zero-sized stand-in for the enabled timeline guard.
    #[must_use = "a timeline interval records when dropped"]
    pub struct TimelineGuard;

    /// No-op (telemetry disabled at compile time).
    #[inline(always)]
    pub fn timeline(_name: &'static str, _lane: u32) -> TimelineGuard {
        TimelineGuard
    }
}

pub use facade::{
    counter_add, histogram_record, install, span, timeline, uninstall, SpanGuard, TimelineGuard,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::new();
        rec.add("a", 2);
        rec.add("a", 3);
        rec.add("b", 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let rec = Recorder::new();
        for v in [0u64, 1, 1, 7, 100] {
            rec.record("h", v);
        }
        let snap = rec.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 109);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        // zeros → bucket 0; 1,1 → bucket 1; 7 → bucket 3; 100 → bucket 7.
        assert_eq!(h.buckets, vec![(0, 1), (1, 2), (3, 1), (7, 1)]);
    }

    #[test]
    fn percentiles_estimate_from_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Estimates are bucket upper bounds clamped to [min, max]: the
        // p50 rank (50th of 100) lands in bucket [32, 64) -> 63; p95 and
        // p99 land in the top bucket [64, 128) which clamps to max=100.
        assert_eq!(h.percentile(50.0), 63);
        assert_eq!(h.percentile(95.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to min");
        assert_eq!(h.percentile(100.0), 100);
        // Estimate never undershoots the exact percentile's bucket.
        assert!(h.percentile(50.0) >= 50);

        // Snapshot agrees with the live histogram.
        let snap = h.snapshot("lat");
        for p in [0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(snap.percentile(p), h.percentile(p), "p{p}");
        }
    }

    #[test]
    fn percentile_of_constant_distribution_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.record(42);
        }
        for p in [1.0, 50.0, 99.0] {
            assert_eq!(h.percentile(p), 42);
        }
    }

    #[test]
    fn percentile_handles_out_of_range_p() {
        let mut h = Histogram::default();
        h.record(5);
        h.record(500);
        assert_eq!(h.percentile(-3.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
        assert_eq!(h.percentile(100.0), 500);
    }

    #[test]
    fn trace_events_snapshot_sorted_and_filterable() {
        let rec = Recorder::new();
        let a = TraceContext::from_ids(7, 1);
        let b = TraceContext::from_ids(3, 2);
        rec.record_trace_event(a, "client/redial", 200, 300);
        rec.record_trace_event(b, "other", 0, 1);
        rec.record_trace_event(a, "client/connect", 0, 100);
        {
            let _g = rec.trace_span(a, "client/job");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.traces.len(), 4);
        // Sorted by (trace_id, start): trace 3 first, then trace 7 events
        // in start order.
        assert_eq!(snap.traces[0].trace_id, 3);
        assert_eq!(snap.traces[1].name, "client/connect");
        assert_eq!(snap.traces[2].name, "client/redial");
        let mine = snap.trace_events(7);
        assert_eq!(mine.len(), 3);
        assert!(mine.iter().all(|e| e.trace_id == 7 && e.span_id == 1));
        assert_eq!(snap.trace_events(99).len(), 0);
        // The guard-recorded span has end >= start.
        assert!(mine[2].end_ns >= mine[2].start_ns);
    }

    #[test]
    fn trace_event_end_is_clamped_to_start() {
        let rec = Recorder::new();
        rec.record_trace_event(TraceContext::from_ids(1, 1), "x", 50, 10);
        assert_eq!(rec.snapshot().traces[0].end_ns, 50);
    }

    #[test]
    fn spans_aggregate_by_path() {
        let rec = Recorder::new();
        rec.record_span("a/b", Duration::from_nanos(10), 5);
        rec.record_span("a/b", Duration::from_nanos(30), 7);
        rec.record_span("a", Duration::from_nanos(100), 0);
        let snap = rec.snapshot();
        let ab = snap.span("a/b").unwrap();
        assert_eq!(ab.count, 2);
        assert_eq!(ab.wall_ns, 40);
        assert_eq!(ab.cycles, 12);
        assert_eq!(snap.span("a").unwrap().count, 1);
        assert!(snap.span("a/missing").is_none());
    }

    #[test]
    fn timeline_busy_and_makespan() {
        let rec = Recorder::new();
        for (lane, s, e) in [(1u32, 50u64, 90u64), (0, 0, 100), (1, 10, 30)] {
            rec.record_timeline(
                "units",
                TimelineEntry {
                    lane,
                    start_ns: s,
                    end_ns: e,
                },
            );
        }
        let snap = rec.snapshot();
        let tl = snap.timeline("units").unwrap();
        assert_eq!(tl.lane_busy_ns(0), 100);
        assert_eq!(tl.lane_busy_ns(1), 60);
        assert_eq!(tl.makespan_ns(), 100);
        assert_eq!(tl.lanes(), vec![0, 1]);
        // Entries are sorted deterministically.
        assert_eq!(tl.entries[0].lane, 0);
        assert_eq!(tl.entries[1], {
            TimelineEntry {
                lane: 1,
                start_ns: 10,
                end_ns: 30,
            }
        });
    }

    #[test]
    fn snapshot_is_deterministic_across_threads() {
        // 8 threads hammer the same counters and histograms; the final
        // snapshot must be the exact deterministic aggregate regardless of
        // interleaving.
        let rec = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        rec.add("thread.adds", 1);
                        rec.add("thread.sum", i);
                        rec.record("thread.hist", i % 16);
                        rec.record_span("thread/work", Duration::from_nanos(i), t);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("thread.adds"), 8 * 500);
        assert_eq!(snap.counter("thread.sum"), 8 * (499 * 500 / 2));
        let h = snap.histogram("thread.hist").unwrap();
        assert_eq!(h.count, 8 * 500);
        let expected_sum: u64 = (0..500u64).map(|i| i % 16).sum::<u64>() * 8;
        assert_eq!(h.sum, expected_sum);
        // Every thread saw the same value distribution, so buckets are a
        // fixed function of the inputs (bucket 1 holds exactly value 1).
        let ones = h.buckets.iter().find(|(b, _)| *b == 1).unwrap().1;
        let expected_ones = (0..500u64).filter(|i| i % 16 == 1).count() as u64 * 8;
        assert_eq!(ones, expected_ones);
        let span = snap.span("thread/work").unwrap();
        assert_eq!(span.count, 8 * 500);
        assert_eq!(span.cycles, 500 * (0..8u64).sum::<u64>());

        // Two snapshots of the same recorder are value-identical.
        assert_eq!(snap, rec.snapshot());
    }

    #[test]
    fn facade_is_safe_with_no_recorder_installed() {
        uninstall();
        counter_add("nobody.listens", 1);
        histogram_record("nobody.listens", 2);
        let mut guard = span("nobody");
        guard.add_cycles(3);
        drop(guard);
        drop(timeline("nobody", 0));
    }

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "enabled"));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn facade_records_into_installed_recorder() {
        let rec = Arc::new(Recorder::new());
        install(Arc::clone(&rec));
        counter_add("facade.count", 4);
        histogram_record("facade.hist", 9);
        {
            let mut outer = span("outer");
            outer.add_cycles(11);
            let _inner = span("inner");
            drop(timeline("facade.units", 2));
        }
        uninstall();
        counter_add("facade.count", 100); // dropped: nothing installed
        let snap = rec.snapshot();
        assert_eq!(snap.counter("facade.count"), 4);
        assert_eq!(snap.histogram("facade.hist").unwrap().count, 1);
        assert_eq!(snap.span("outer").unwrap().cycles, 11);
        assert!(snap.span("outer/inner").is_some());
        let tl = snap.timeline("facade.units").unwrap();
        assert_eq!(tl.entries.len(), 1);
        assert_eq!(tl.entries[0].lane, 2);
    }
}
