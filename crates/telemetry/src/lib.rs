//! Workspace-wide telemetry: the measurement substrate the paper's own
//! evaluation (Tables 1–3, §4.3) is an exercise in — cycles per garbled
//! table, communication volume, per-segment utilization — as one explicit
//! [`Recorder`] with three primitives:
//!
//! * **Counters** — monotonic `u64` tallies (gates garbled, bytes moved).
//! * **Histograms** — fixed log-linear buckets for value distributions
//!   (per-job phase durations, frame sizes), read back as percentiles
//!   within 6.25 % of the exact value.
//! * **Trace events** — the newest [`TRACE_EVENT_CAP`] spans of
//!   distributed traces ([`TraceContext`]), stitched across the wire by
//!   trace id.
//!
//! There is no global sink and no feature flag: whoever wants numbers
//! constructs a recorder and hands it to the code that should feed it (a
//! `serve` daemon's `ServeConfig::recorder`, a `ResilientClient`, a bench
//! binary), then snapshots it.
//!
//! A [`Snapshot`] is plain data: deterministic ordering and
//! value-equality; [`report`] renders machine-readable JSON.
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
//! assert_eq!(snap.histogram("frame_bytes").unwrap().percentile(50.0), 96);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flight;
pub mod report;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use trace::{os_entropy, TraceContext, TraceEvent};

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Values below this are bucketed exactly; above it, every octave
/// `[2^e, 2^(e+1))` is split into this many equal-width sub-buckets.
const SUB_BUCKETS: u64 = 16;

/// Number of histogram buckets: 16 exact buckets for `0..16`, then 16
/// sub-buckets for each of the 60 octaves `2^4 ..= 2^63`.
pub const HISTOGRAM_BUCKETS: usize = 16 + 60 * 16;

/// Trace events a [`Recorder`] retains; beyond it the oldest are dropped,
/// so a long-running daemon's recorder stays bounded.
pub const TRACE_EVENT_CAP: usize = 4096;

/// A fixed-bucket (log-linear) histogram with count/sum/min/max.
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

/// Bucket index of `value`: the value itself below 16; above, 16 buckets
/// per octave, so a bucket spans at most 1/16 of its lower bound.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let octave = 63 - u64::from(value.leading_zeros()); // >= 4
    let sub = (value >> (octave - 4)) & (SUB_BUCKETS - 1);
    ((octave - 3) * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of histogram bucket `i` (see [`bucket_index`]).
fn bucket_upper_bound(i: u32) -> u64 {
    let i = u64::from(i);
    if i < SUB_BUCKETS {
        return i;
    }
    if i >= HISTOGRAM_BUCKETS as u64 {
        return u64::MAX;
    }
    let shift = i / SUB_BUCKETS - 1; // octave - 4
    let lower = (SUB_BUCKETS + i % SUB_BUCKETS) << shift;
    lower + ((1u64 << shift) - 1)
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
    /// The estimate is the inclusive upper bound of the bucket holding the
    /// requested nearest rank, clamped to the exact observed `[min, max]`:
    /// never below the exact value, and at most 6.25 % above it. Returns 0
    /// when empty.
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

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// The newest [`TRACE_EVENT_CAP`] trace events, oldest first.
    traces: VecDeque<TraceEvent>,
}

impl Inner {
    fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.histograms
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect()
    }

    fn push_trace(&mut self, ctx: TraceContext, name: &str, start_ns: u64, end_ns: u64) {
        if self.traces.len() == TRACE_EVENT_CAP {
            self.traces.pop_front();
        }
        self.traces.push_back(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }
}

/// The telemetry sink: thread-safe, append-only, snapshot-on-demand.
///
/// All mutation goes through `&self`; a single mutex guards the maps (the
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
    /// Creates an empty recorder; its creation instant is the trace-event
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
        self.lock().record(name, value);
    }

    /// Appends one distributed-trace event (timestamps in this recorder's
    /// `now_ns` timebase), dropping the oldest beyond [`TRACE_EVENT_CAP`].
    pub fn record_trace_event(&self, ctx: TraceContext, name: &str, start_ns: u64, end_ns: u64) {
        self.lock().push_trace(ctx, name, start_ns, end_ns);
    }

    /// Appends a zero-duration trace event stamped `now_ns`.
    pub fn record_trace_instant(&self, ctx: TraceContext, name: &str) {
        let now = self.now_ns();
        self.record_trace_event(ctx, name, now, now);
    }

    /// Records one phase of a served job (`server/queue_wait`,
    /// `server/garble`, `server/stream`): its duration always goes into
    /// the histogram `name` — what METRICS reports percentiles over — and,
    /// when `ctx` is traced, a trace event of the same name.
    pub fn record_phase(&self, ctx: TraceContext, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut inner = self.lock();
        inner.record(name, end_ns.saturating_sub(start_ns));
        if ctx.is_traced() {
            inner.push_trace(ctx, name, start_ns, end_ns);
        }
    }

    /// Opens a trace span under `ctx`; the event is recorded when the
    /// returned guard drops.
    pub fn trace_span(&self, ctx: TraceContext, name: &'static str) -> TraceSpanGuard<'_> {
        self.guard(ctx, name, false)
    }

    /// Opens a served-job phase; [`Recorder::record_phase`] runs when the
    /// returned guard drops.
    pub fn phase_span(&self, ctx: TraceContext, name: &'static str) -> TraceSpanGuard<'_> {
        self.guard(ctx, name, true)
    }

    fn guard(&self, ctx: TraceContext, name: &'static str, phase: bool) -> TraceSpanGuard<'_> {
        TraceSpanGuard {
            rec: self,
            ctx,
            name,
            start_ns: self.now_ns(),
            phase,
        }
    }

    /// Nanoseconds since this recorder was created (trace timebase).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every histogram, sorted by name — what METRICS reads, without
    /// copying the trace events.
    pub fn histograms(&self) -> Vec<HistogramSnapshot> {
        self.lock().histogram_snapshots()
    }

    /// Point-in-time copy of everything recorded so far, deterministically
    /// ordered (counters and histograms by name, trace events by trace id
    /// then time).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut traces: Vec<TraceEvent> = inner.traces.iter().cloned().collect();
        let counters = inner
            .counters
            .iter()
            .map(|(&name, &value)| CounterSnapshot {
                name: name.to_string(),
                value,
            })
            .collect();
        let histograms = inner.histogram_snapshots();
        drop(inner);
        traces.sort_by(|a, b| {
            (a.trace_id, a.start_ns, a.end_ns, &a.name)
                .cmp(&(b.trace_id, b.start_ns, b.end_ns, &b.name))
        });
        Snapshot {
            counters,
            histograms,
            traces,
        }
    }
}

/// RAII guard recording a [`TraceEvent`] (or, for a phase, a histogram
/// observation too) into a [`Recorder`] on drop.
#[must_use = "a trace span records when dropped"]
pub struct TraceSpanGuard<'r> {
    rec: &'r Recorder,
    ctx: TraceContext,
    name: &'static str,
    start_ns: u64,
    phase: bool,
}

impl Drop for TraceSpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        if self.phase {
            self.rec
                .record_phase(self.ctx, self.name, self.start_ns, end_ns);
        } else {
            self.rec
                .record_trace_event(self.ctx, self.name, self.start_ns, end_ns);
        }
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

/// Deterministic, value-comparable copy of a [`Recorder`]'s contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The retained distributed-trace events, sorted by `(trace id, start,
    /// end, name)`.
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

    /// Histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All trace events belonging to `trace_id`, in start order.
    pub fn trace_events(&self, trace_id: u128) -> Vec<&TraceEvent> {
        self.traces
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn histogram_buckets_are_log_linear() {
        // Exact below 16 (and through the first octave, whose sub-buckets
        // are one wide).
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as u32), v);
        }
        // [32, 64): 16 sub-buckets of width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(50), 41);
        assert_eq!(bucket_upper_bound(41), 51);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_index(64), 48);
        // 1024 opens an octave; its first sub-bucket is [1024, 1088).
        assert_eq!(bucket_upper_bound(bucket_index(1024) as u32), 1087);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound((HISTOGRAM_BUCKETS - 1) as u32), u64::MAX);
        // Every bucket's upper bound maps back into it, and the next value
        // opens the next bucket.
        for i in 0..HISTOGRAM_BUCKETS as u32 - 1 {
            let upper = bucket_upper_bound(i);
            assert_eq!(bucket_index(upper), i as usize);
            assert_eq!(bucket_index(upper + 1), i as usize + 1);
        }
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
        // 0, 1 and 7 are exact buckets; 100 lands in [100, 104) of the
        // [64, 128) octave.
        assert_eq!(
            h.buckets,
            vec![(0, 1), (1, 2), (7, 1), (bucket_index(100) as u32, 1)]
        );
        assert_eq!(bucket_upper_bound(bucket_index(100) as u32), 103);
    }

    #[test]
    fn percentiles_estimate_from_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Estimates are bucket upper bounds clamped to [min, max]: the
        // p50 rank (50th of 100) lands in bucket [50, 52) -> 51; p95 in
        // [92, 96) -> 95; p99 in [96, 100) -> 99.
        assert_eq!(h.percentile(50.0), 51);
        assert_eq!(h.percentile(95.0), 95);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to min");
        assert_eq!(h.percentile(100.0), 100);

        // Snapshot agrees with the live histogram.
        let snap = h.snapshot("lat");
        for p in [0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(snap.percentile(p), h.percentile(p), "p{p}");
        }
    }

    #[test]
    fn millisecond_jobs_report_distinct_percentiles() {
        // A 1.1 ms and a 2.0 ms job once both read 2 097 151 ns (the top
        // of the [2^20, 2^21) bucket).
        let mut h = Histogram::default();
        for ns in [1_100_000u64, 2_000_000, 3_000_000] {
            h.record(ns);
        }
        assert_eq!(h.percentile(1.0), 1_114_111);
        assert_eq!(h.percentile(50.0), 2_031_615);
    }

    proptest! {
        #[test]
        fn percentile_is_within_a_sixteenth_above_nearest_rank(
            samples in prop::collection::vec((0u32..64, any::<u64>()), 1..200),
            p in 0.0f64..100.0,
        ) {
            // Log-uniform magnitudes: shift a full-width draw right by 0..64.
            let mut values: Vec<u64> = samples.iter().map(|&(s, v)| v >> s).collect();
            let mut h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
            let exact = values[rank - 1];
            let estimate = h.percentile(p);
            prop_assert!(estimate >= exact, "p{p}: {estimate} < {exact}");
            prop_assert!(
                (estimate - exact) as f64 <= exact as f64 * 0.0625,
                "p{p}: {estimate} vs {exact}"
            );
            prop_assert_eq!(h.snapshot("h").percentile(p), estimate);
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
        // A plain trace span feeds no histogram.
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn trace_event_end_is_clamped_to_start() {
        let rec = Recorder::new();
        rec.record_trace_event(TraceContext::from_ids(1, 1), "x", 50, 10);
        assert_eq!(rec.snapshot().traces[0].end_ns, 50);
    }

    #[test]
    fn trace_events_are_bounded_keeping_the_newest() {
        let rec = Recorder::new();
        let ctx = TraceContext::from_ids(1, 1);
        let total = TRACE_EVENT_CAP as u64 + 100;
        for i in 0..total {
            rec.record_trace_event(ctx, "e", i, i);
        }
        let traces = rec.snapshot().traces;
        assert_eq!(traces.len(), TRACE_EVENT_CAP);
        assert_eq!(traces[0].start_ns, 100, "the oldest 100 were dropped");
        assert_eq!(traces.last().unwrap().start_ns, total - 1);
    }

    #[test]
    fn phases_feed_histograms_always_and_traces_only_when_traced() {
        let rec = Recorder::new();
        let traced = TraceContext::from_ids(9, 1);
        rec.record_phase(traced, "server/garble", 10, 40);
        rec.record_phase(TraceContext::none(), "server/garble", 0, 50);
        drop(rec.phase_span(TraceContext::none(), "server/stream"));
        let snap = rec.snapshot();
        let garble = snap.histogram("server/garble").unwrap();
        assert_eq!((garble.count, garble.sum), (2, 80));
        assert_eq!(snap.histogram("server/stream").unwrap().count, 1);
        assert_eq!(
            snap.traces.len(),
            1,
            "only the traced phase leaves an event"
        );
        assert_eq!(snap.traces[0].duration_ns(), 30);
        assert_eq!(rec.histograms(), snap.histograms);
    }

    #[test]
    fn snapshot_is_deterministic_across_threads() {
        // 8 threads hammer the same counters and histograms; the final
        // snapshot must be the exact deterministic aggregate regardless of
        // interleaving.
        let rec = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for _ in 0..8u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        rec.add("thread.adds", 1);
                        rec.add("thread.sum", i);
                        rec.record("thread.hist", i % 16);
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

        // Two snapshots of the same recorder are value-identical.
        assert_eq!(snap, rec.snapshot());
    }
}
