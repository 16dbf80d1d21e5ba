//! The unit-pool scheduler: a bounded FIFO job queue feeding a fixed pool
//! of garbling worker threads.
//!
//! This mirrors the FSM's one-gate-per-core-per-cycle discipline one level
//! up: at any instant each *unit* (worker thread wrapping a modeled
//! MAXelerator fabric) garbles exactly one job. Jobs are taken in arrival
//! order. A session holds at most one job in flight — it reads its next
//! JOB only after the current job's STATS, as the paper's host relays one
//! client request at a time — so arrival order is already fair across
//! sessions. (A dead connection's job can sit beside its own RESUME; it
//! stops at its first element whichever runs first.) The queue is bounded;
//! when it is full, submission fails with a typed [`QueueFull`] that the
//! session layer turns into a BUSY (reject-with-retry-hint) frame —
//! backpressure instead of unbounded memory growth.
//!
//! When the queue is *empty*, units do not just sleep: the
//! [`IdleFill`] hook lets the service layer spend the idle capacity on
//! registry precompute (pre-garbling model streams), turning the paper's
//! offline phase into background work that automatically yields the moment
//! a real job arrives.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use max_telemetry::{Recorder, TraceContext};
use maxelerator::remote::{produce_elements, JobPiece};
use maxelerator::AcceleratorConfig;

/// One queued unit of work: garble a matvec/matmul job into the stream its
/// session is serving.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Matvec passes (1 = matvec, n = matmul of n columns).
    pub columns: u32,
    /// Accelerator seed for this job.
    pub seed: u64,
    /// The matrix to garble: the session's default model, or a registry
    /// model's (a stock-exhausted fallback, a model RESUME).
    pub weights: Arc<Vec<Vec<i64>>>,
    /// First element the session streams: a RESUME's rollback point, 0 for
    /// a fresh job. Elements before it are garbled but not sent.
    pub start_element: usize,
    /// Trace the submitting session carries. With a recorder attached, the
    /// worker records the job's `server/queue_wait` and `server/garble`
    /// durations as histograms, and as trace spans too when the context is
    /// traced.
    pub trace: TraceContext,
}

/// Typed rejection when the bounded queue cannot admit another job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// Depth observed at rejection time (== capacity).
    pub queue_depth: usize,
}

/// Background work a unit runs when the queue is empty. Returns `true` if
/// it made progress (the unit re-checks the queue immediately), `false` if
/// there is nothing to precompute (the unit parks until woken or a short
/// poll interval elapses). Implementations must keep each step short — a
/// real job enqueued mid-step waits for the step to finish.
pub type IdleFill = Arc<dyn Fn() -> bool + Send + Sync>;

/// Outcome of a non-blocking queue poll; `Empty` carries the
/// [`QueueState::idle_wakes`] it saw.
enum Polled {
    Job(Box<QueuedJob>),
    Empty(u64),
    Closed,
}

struct QueuedJob {
    request: JobRequest,
    reply: mpsc::Sender<JobPiece>,
    enqueued: Instant,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    paused: bool,
    closed: bool,
    /// Bumped by [`JobQueue::wake_idle`]: a unit that saw an older value
    /// before its idle step goes straight back to idle work.
    idle_wakes: u64,
}

/// Bounded FIFO of jobs waiting for a unit.
struct JobQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl JobQueue {
    fn new(capacity: usize, paused: bool) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                paused,
                closed: false,
                idle_wakes: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job at the back of the queue, or reports the queue full.
    fn push(&self, job: QueuedJob) -> Result<(), QueueFull> {
        let mut state = self.lock();
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(QueueFull {
                queue_depth: state.jobs.len(),
            });
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the oldest job if one is ready (queued and not paused);
    /// otherwise says whether the queue is closed or empty.
    fn try_pop(&self) -> Polled {
        let mut state = self.lock();
        let job = if state.paused {
            None
        } else {
            state.jobs.pop_front()
        };
        match job {
            Some(job) => Polled::Job(Box::new(job)),
            None if state.closed => Polled::Closed,
            None => Polled::Empty(state.idle_wakes),
        }
    }

    /// Parks until a push/resume/close/idle-wake notification or `timeout`
    /// elapses; returns at once if [`JobQueue::wake_idle`] ran since the
    /// poll that saw `idle_wakes`. The timeout bounds how stale an idle
    /// unit's "nothing to precompute" view can get (new models can arrive
    /// without a queue notification).
    fn wait_for_work(&self, idle_wakes: u64, timeout: Duration) {
        let state = self.lock();
        if (!state.jobs.is_empty() && !state.paused)
            || state.closed
            || state.idle_wakes != idle_wakes
        {
            return;
        }
        let _ = self
            .ready
            .wait_timeout(state, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Sends every idle unit back to its idle work now.
    fn wake_idle(&self) {
        self.lock().idle_wakes += 1;
        self.ready.notify_all();
    }

    fn resume(&self) {
        self.lock().paused = false;
        self.ready.notify_all();
    }

    /// Stops admissions; workers drain what is already queued, then exit.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// A fixed pool of garbling units draining one bounded FIFO job queue.
///
/// Each worker owns nothing but its thread: jobs carry their own seed, and
/// [`produce_elements`] — the producer a registry fill step runs too —
/// builds a fresh deterministic accelerator per job, so results are
/// independent of which unit ran what (the property the transcript-parity
/// tests rely on).
///
/// A unit sends each element down the job's reply channel the moment it is
/// produced, then the job's fabric cycles, so the session streams element
/// `k` while the unit garbles element `k + 1` — the paper's Figure 1
/// pipeline. The hand-off is an unbounded `mpsc` channel on purpose: a
/// client that stalls mid-job can never block a unit, so a slow client
/// holds at most one job's elements in memory, never a garbling unit. A unit whose session is gone (the receiver dropped)
/// stops garbling at that element.
///
/// After each hand-off the unit yields its time slice. The session thread
/// it just woke consumes that element; when the host has no spare core, the
/// unit would otherwise run on to the end of its slice first, and READY
/// would wait out most of the job's garbling instead of one element's.
pub struct UnitPool {
    queue: Arc<JobQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl std::fmt::Debug for UnitPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitPool")
            .field("workers", &self.worker_count)
            .field("depth", &self.queue.depth())
            .finish()
    }
}

impl UnitPool {
    /// Spawns `workers` garbling units over a queue of `queue_capacity`
    /// jobs. With `start_paused`, units wait until [`UnitPool::resume`] —
    /// the deterministic way to observe backpressure in tests. A
    /// `recorder`, when given, receives every job's `server/queue_wait`
    /// and `server/garble` phases (see [`Recorder::record_phase`]). The
    /// `idle_fill` hook runs whenever a unit finds the queue empty —
    /// registry precompute during pool idle time; a hook with nothing to do
    /// returns `false`, and the unit parks until work arrives or 25 ms pass.
    ///
    /// # Panics
    ///
    /// Panics if no worker thread at all could be spawned — a zero-unit
    /// pool would accept jobs that can never run.
    pub fn new(
        config: AcceleratorConfig,
        workers: usize,
        queue_capacity: usize,
        start_paused: bool,
        recorder: Option<Arc<Recorder>>,
        idle_fill: IdleFill,
    ) -> UnitPool {
        let queue = Arc::new(JobQueue::new(queue_capacity, start_paused));
        let worker_count = workers.max(1);
        let handles: Vec<JoinHandle<()>> = (0..worker_count)
            .filter_map(|w| {
                let queue = Arc::clone(&queue);
                let config = config.clone();
                let recorder = recorder.clone();
                let idle_fill = Arc::clone(&idle_fill);
                // A unit that fails to spawn (thread exhaustion) just
                // shrinks the pool; the queue still drains through the
                // rest. Losing *every* unit is fatal — checked below.
                std::thread::Builder::new()
                    .name(format!("gc-unit-{w}"))
                    .spawn(move || loop {
                        // Real jobs always preempt precompute: the hook only
                        // runs when the queue is observed empty, one short
                        // step at a time.
                        let job = loop {
                            match queue.try_pop() {
                                Polled::Job(job) => break *job,
                                Polled::Closed => return,
                                Polled::Empty(idle_wakes) => {
                                    if !idle_fill() {
                                        queue.wait_for_work(idle_wakes, Duration::from_millis(25));
                                    }
                                }
                            }
                        };
                        let trace = job.request.trace;
                        if let Some(rec) = &recorder {
                            let now = rec.now_ns();
                            let wait_ns = job.enqueued.elapsed().as_nanos() as u64;
                            rec.record_phase(
                                trace,
                                "server/queue_wait",
                                now.saturating_sub(wait_ns),
                                now,
                            );
                        }
                        let request = &job.request;
                        let produced = {
                            let _garble_phase = recorder
                                .as_ref()
                                .map(|rec| rec.phase_span(trace, "server/garble"));
                            produce_elements(
                                &config,
                                &request.weights,
                                request.seed,
                                request.columns,
                                request.start_element,
                                |elem| match job.reply.send(JobPiece::Element(elem)) {
                                    Ok(()) => {
                                        // Let the woken session stream it
                                        // now (see the type's docs).
                                        std::thread::yield_now();
                                        ControlFlow::Continue(())
                                    }
                                    Err(_) => ControlFlow::Break(()),
                                },
                            )
                        };
                        // The garble phase closes before the final piece, so
                        // a METRICS read after the job already counts it.
                        let _ = job.reply.send(JobPiece::Done(produced));
                    })
                    .ok()
            })
            .collect();
        // A pool with zero units would accept jobs that can never run:
        // sessions would block forever on the reply channel. Fail loudly
        // at construction instead (host resource exhaustion, not peer
        // input), and report the *true* worker count.
        assert!(
            !handles.is_empty(),
            "failed to spawn any garbling unit thread"
        );
        let worker_count = handles.len();
        UnitPool {
            queue,
            workers: Mutex::new(handles),
            worker_count,
        }
    }

    /// Submits a job; the returned receiver yields its elements as they are
    /// garbled, then [`JobPiece::Done`].
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the bounded queue cannot admit the job — the
    /// caller should reply BUSY with a retry hint, never block or buffer.
    pub fn submit(&self, request: JobRequest) -> Result<mpsc::Receiver<JobPiece>, QueueFull> {
        let (tx, rx) = mpsc::channel();
        self.queue.push(QueuedJob {
            request,
            reply: tx,
            enqueued: Instant::now(),
        })?;
        Ok(rx)
    }

    /// Number of garbling units.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs currently queued (not yet picked up by a unit).
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Releases a pool constructed with `start_paused`.
    pub fn resume(&self) {
        self.queue.resume();
    }

    /// Sends every idle unit to its `idle_fill` hook now, instead of when
    /// its poll interval runs out — for work the hook has just gained.
    pub fn wake_idle(&self) {
        self.queue.wake_idle();
    }

    /// Graceful drain: stop admissions, let units finish everything queued,
    /// and join them.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxelerator::remote::{fill_stream, MaterializedElement};

    fn request_for(weights: Vec<Vec<i64>>, seed: u64) -> JobRequest {
        JobRequest {
            columns: 1,
            seed,
            weights: Arc::new(weights),
            start_element: 0,
            trace: TraceContext::none(),
        }
    }

    /// Drains a job's hand-off: its elements, then the final piece.
    fn collect(pieces: mpsc::Receiver<JobPiece>) -> (Vec<MaterializedElement>, u64) {
        let mut elements = Vec::new();
        for piece in pieces {
            match piece {
                JobPiece::Element(elem) => elements.push(elem),
                JobPiece::Done(cycles) => return (elements, cycles),
            }
        }
        panic!("the unit dropped its hand-off without a final piece");
    }

    /// A hook with no idle work.
    fn no_fill() -> IdleFill {
        Arc::new(|| false)
    }

    fn pop(queue: &JobQueue) -> Option<QueuedJob> {
        match queue.try_pop() {
            Polled::Job(job) => Some(*job),
            Polled::Empty(_) | Polled::Closed => None,
        }
    }

    fn request(seed: u64) -> JobRequest {
        request_for(vec![vec![1i64]], seed)
    }

    /// Queues a job tagged by its seed; nothing reads its hand-off.
    fn push(queue: &JobQueue, seed: u64) -> Result<(), QueueFull> {
        let (tx, _rx) = mpsc::channel();
        queue.push(QueuedJob {
            request: request(seed),
            reply: tx,
            enqueued: Instant::now(),
        })
    }

    #[test]
    fn pops_in_arrival_order_across_sessions() {
        let queue = JobQueue::new(8, true);
        // Tag `session * 10 + job`: session 1 arrives first with three
        // jobs, session 2 later with two.
        for tag in [10, 11, 12, 20, 21] {
            push(&queue, tag).unwrap();
        }
        queue.resume();
        let order: Vec<u64> = (0..5).map(|_| pop(&queue).unwrap().request.seed).collect();
        // Arrival order: session 2 waits behind all of session 1's jobs.
        assert_eq!(order, [10, 11, 12, 20, 21]);
        assert!(pop(&queue).is_none());
    }

    #[test]
    fn bounded_queue_rejects_with_depth() {
        let queue = JobQueue::new(2, true);
        push(&queue, 10).unwrap();
        push(&queue, 20).unwrap();
        assert_eq!(push(&queue, 30), Err(QueueFull { queue_depth: 2 }));
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = JobQueue::new(4, false);
        push(&queue, 10).unwrap();
        push(&queue, 11).unwrap();
        queue.close();
        assert!(pop(&queue).is_some());
        assert!(pop(&queue).is_some());
        assert!(matches!(queue.try_pop(), Polled::Closed));
        // Closed queues admit nothing.
        assert!(push(&queue, 12).is_err());
    }

    #[test]
    fn pool_executes_real_jobs() {
        let config = AcceleratorConfig::new(8);
        let weights = vec![vec![2i64, -3], vec![4, 5]];
        let pool = UnitPool::new(config, 2, 4, false, None, no_fill());
        let rx_a = pool.submit(request_for(weights.clone(), 1)).unwrap();
        let rx_b = pool.submit(request_for(weights, 1)).unwrap();
        let (elements_a, cycles_a) = collect(rx_a);
        let (elements_b, _) = collect(rx_b);
        assert_eq!(elements_a.len(), 2);
        assert!(cycles_a > 0);
        // Same seed => bit-identical garbling regardless of which unit ran it.
        assert_eq!(elements_a, elements_b);
        pool.shutdown();
    }

    #[test]
    fn weights_override_garbles_against_request_matrix() {
        let config = AcceleratorConfig::new(8);
        let pool = UnitPool::new(config.clone(), 1, 4, false, None, no_fill());
        let model = vec![vec![7i64, -2], vec![3, 4]];
        let req = request_for(model.clone(), 1);
        let (elements, cycles) = collect(pool.submit(req).unwrap());
        let filled = fill_stream(&config, &model, 1, 1);
        assert_eq!(elements, filled.elements);
        assert_eq!(cycles, filled.fabric_cycles);
        pool.shutdown();
    }

    #[test]
    fn idle_fill_runs_only_while_queue_is_empty() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let config = AcceleratorConfig::new(8);
        let fills = Arc::new(AtomicU64::new(0));
        let hook_fills = Arc::clone(&fills);
        let hook: IdleFill = Arc::new(move || {
            hook_fills.fetch_add(1, Ordering::SeqCst);
            // Claim saturation every other step so the unit also exercises
            // its timed-wait path.
            hook_fills.load(Ordering::SeqCst).is_multiple_of(2)
        });
        let pool = UnitPool::new(config, 1, 2, false, None, hook);
        // Idle pool precomputes...
        let deadline = Instant::now() + Duration::from_secs(5);
        while fills.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(fills.load(Ordering::SeqCst) >= 3, "idle hook never ran");
        // ...and still serves real jobs promptly.
        let rx = pool.submit(request(1)).unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(JobPiece::Element(_))
        ));
        let (_, cycles) = collect(rx);
        assert!(cycles > 0);
        pool.shutdown();
    }

    #[test]
    fn paused_pool_holds_jobs_until_resume() {
        let config = AcceleratorConfig::new(8);
        let pool = UnitPool::new(config, 1, 2, true, None, no_fill());
        let rx = pool.submit(request(1)).unwrap();
        assert_eq!(pool.depth(), 1);
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        pool.resume();
        assert!(matches!(rx.recv().unwrap(), JobPiece::Element(_)));
        pool.shutdown();
    }
}
