//! The unit-pool scheduler: a bounded, session-fair job queue feeding a
//! fixed pool of garbling worker threads.
//!
//! This mirrors the FSM's one-gate-per-core-per-cycle discipline one level
//! up: at any instant each *unit* (worker thread wrapping a modeled
//! MAXelerator fabric) garbles exactly one job, and queued jobs from many
//! sessions are admitted round-robin so a chatty session cannot starve the
//! others. The queue is bounded; when it is full, submission fails with a
//! typed [`QueueFull`] that the session layer turns into a BUSY
//! (reject-with-retry-hint) frame — backpressure instead of unbounded
//! memory growth.
//!
//! When the queue is *empty*, units do not just sleep: an optional
//! [`IdleFill`] hook lets the service layer spend the idle capacity on
//! registry precompute (pre-garbling model streams), turning the paper's
//! offline phase into background work that automatically yields the moment
//! a real job arrives.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use max_telemetry::{Recorder, TraceContext};
use maxelerator::remote::{fill_stream, MaterializedJob};
use maxelerator::{AcceleratorConfig, AcceleratorError};

/// One queued unit of work: garble a whole matvec/matmul job into the
/// stream its session will serve.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Session that submitted the job (fairness key).
    pub session_id: u64,
    /// Job id within the session.
    pub job_id: u64,
    /// Matvec passes (1 = matvec, n = matmul of n columns).
    pub columns: u32,
    /// Accelerator seed for this job.
    pub seed: u64,
    /// The matrix to garble: the session's default model, or a registry
    /// model's (a stock-exhausted fallback, a model RESUME).
    pub weights: Arc<Vec<Vec<i64>>>,
    /// Trace the submitting session carries. With a recorder attached, the
    /// worker records the job's `server/queue_wait` and `server/garble`
    /// durations as histograms, and as trace spans too when the context is
    /// traced.
    pub trace: TraceContext,
}

/// What a worker hands back for one job: the materialized stream, ready
/// for the session thread to put on the wire.
pub type JobResult = Result<MaterializedJob, AcceleratorError>;

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

/// Outcome of a non-blocking queue poll.
enum Polled {
    Job(Box<QueuedJob>),
    Empty,
    Closed,
}

struct QueuedJob {
    request: JobRequest,
    reply: mpsc::Sender<JobResult>,
    enqueued: Instant,
}

struct QueueState {
    /// Per-session FIFO queues.
    per_session: BTreeMap<u64, VecDeque<QueuedJob>>,
    /// Round-robin rotation of sessions that have pending jobs.
    rotation: VecDeque<u64>,
    len: usize,
    paused: bool,
    closed: bool,
}

/// Bounded multi-session queue with round-robin fairness across sessions.
struct FairQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl FairQueue {
    fn new(capacity: usize, paused: bool) -> FairQueue {
        FairQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                per_session: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                paused,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits a job or reports the queue full. Returns the depth after the
    /// push.
    fn push(&self, job: QueuedJob) -> Result<usize, QueueFull> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed || state.len >= self.capacity {
            return Err(QueueFull {
                queue_depth: state.len,
            });
        }
        let session = job.request.session_id;
        let queue = state.per_session.entry(session).or_default();
        let newly_pending = queue.is_empty();
        queue.push_back(job);
        if newly_pending {
            state.rotation.push_back(session);
        }
        state.len += 1;
        let depth = state.len;
        drop(state);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Pops the next job in round-robin session order if one is available
    /// right now (queue non-empty and not paused).
    fn pop_locked(state: &mut QueueState) -> Option<QueuedJob> {
        loop {
            if state.len == 0 || state.paused {
                return None;
            }
            let mut popped = None;
            if let Some(session) = state.rotation.pop_front() {
                if let Some(queue) = state.per_session.get_mut(&session) {
                    popped = queue.pop_front();
                    if queue.is_empty() {
                        state.per_session.remove(&session);
                    } else {
                        state.rotation.push_back(session);
                    }
                }
            }
            if let Some(job) = popped {
                state.len -= 1;
                return Some(job);
            }
            // Bookkeeping skew is impossible by construction, but a
            // worker must never panic while holding the queue: rebuild
            // the rotation/len from the ground truth and retry.
            state.len = state.per_session.values().map(VecDeque::len).sum();
            state.rotation = state.per_session.keys().copied().collect();
        }
    }

    /// Takes the next job in round-robin session order; blocks while the
    /// queue is empty or paused. Returns `None` once closed and drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = Self::pop_locked(&mut state) {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking variant of [`FairQueue::pop`] for units that have idle
    /// work to fall back to.
    fn try_pop(&self) -> Polled {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match Self::pop_locked(&mut state) {
            Some(job) => Polled::Job(Box::new(job)),
            None if state.closed => Polled::Closed,
            None => Polled::Empty,
        }
    }

    /// Parks until a push/resume/close notification or `timeout` elapses.
    /// The timeout bounds how stale an idle unit's "nothing to precompute"
    /// view can get (new models can arrive without a queue notification).
    fn wait_for_work(&self, timeout: Duration) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if (state.len > 0 && !state.paused) || state.closed {
            return;
        }
        let _ = self
            .ready
            .wait_timeout(state, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    fn resume(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .paused = false;
        self.ready.notify_all();
    }

    /// Stops admissions; workers drain what is already queued, then exit.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }
}

/// A fixed pool of garbling units draining a [`FairQueue`].
///
/// Each worker owns nothing but its thread: jobs carry their own seed, and
/// [`fill_stream`] — the same function a registry fill step runs — builds
/// a fresh deterministic accelerator per job, so results are independent
/// of which unit ran what (the property the transcript-parity tests rely
/// on) and an inline job is exactly "fill one stream, serve it".
pub struct UnitPool {
    queue: Arc<FairQueue>,
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
    /// and `server/garble` phases (see [`Recorder::record_phase`]). An
    /// `idle_fill`
    /// hook, when given, is run whenever a unit finds the queue empty —
    /// registry precompute during pool idle time.
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
        idle_fill: Option<IdleFill>,
    ) -> UnitPool {
        let queue = Arc::new(FairQueue::new(queue_capacity, start_paused));
        let worker_count = workers.max(1);
        let handles: Vec<JoinHandle<()>> = (0..worker_count)
            .filter_map(|w| {
                let queue = Arc::clone(&queue);
                let config = config.clone();
                let recorder = recorder.clone();
                let idle_fill = idle_fill.clone();
                // A unit that fails to spawn (thread exhaustion) just
                // shrinks the pool; the queue still drains through the
                // rest. Losing *every* unit is fatal — checked below.
                std::thread::Builder::new()
                    .name(format!("gc-unit-{w}"))
                    .spawn(move || loop {
                        // Real jobs always preempt precompute: the hook only
                        // runs when the queue is observed empty, one short
                        // step at a time.
                        let job = match idle_fill {
                            None => queue.pop(),
                            Some(ref fill) => loop {
                                match queue.try_pop() {
                                    Polled::Job(job) => break Some(*job),
                                    Polled::Closed => break None,
                                    Polled::Empty => {
                                        if !fill() {
                                            queue.wait_for_work(Duration::from_millis(25));
                                        }
                                    }
                                }
                            },
                        };
                        let Some(job) = job else { break };
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
                        // The garble phase closes before the reply, so a
                        // METRICS read after the job already counts it.
                        let result = {
                            let _garble_phase = recorder
                                .as_ref()
                                .map(|rec| rec.phase_span(trace, "server/garble"));
                            let request = &job.request;
                            fill_stream(&config, &request.weights, request.seed, request.columns)
                        };
                        // A session that died while queued is fine.
                        let _ = job.reply.send(result);
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

    /// Submits a job; the returned receiver yields the garbled stream.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the bounded queue cannot admit the job — the
    /// caller should reply BUSY with a retry hint, never block or buffer.
    pub fn submit(&self, request: JobRequest) -> Result<mpsc::Receiver<JobResult>, QueueFull> {
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

    fn request_for(weights: Vec<Vec<i64>>, session_id: u64, job_id: u64) -> JobRequest {
        JobRequest {
            session_id,
            job_id,
            columns: 1,
            seed: 1,
            weights: Arc::new(weights),
            trace: TraceContext::none(),
        }
    }

    fn request(session_id: u64, job_id: u64) -> JobRequest {
        request_for(vec![vec![1i64]], session_id, job_id)
    }

    fn push(queue: &FairQueue, session_id: u64, job_id: u64) -> Result<usize, QueueFull> {
        let (tx, _rx) = mpsc::channel();
        // Keep the receiver alive via leak-free drop: send() failing is fine
        // for these scheduling-order tests.
        queue.push(QueuedJob {
            request: request(session_id, job_id),
            reply: tx,
            enqueued: Instant::now(),
        })
    }

    #[test]
    fn round_robin_across_sessions() {
        let queue = FairQueue::new(8, true);
        // Session 1 floods first; session 2 arrives later with fewer jobs.
        push(&queue, 1, 0).unwrap();
        push(&queue, 1, 1).unwrap();
        push(&queue, 1, 2).unwrap();
        push(&queue, 2, 0).unwrap();
        push(&queue, 2, 1).unwrap();
        queue.resume();
        let order: Vec<(u64, u64)> = (0..5)
            .map(|_| {
                let job = queue.pop().unwrap();
                (job.request.session_id, job.request.job_id)
            })
            .collect();
        // Interleaved, not FIFO: the late session is served every other slot.
        assert_eq!(order, vec![(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]);
    }

    #[test]
    fn bounded_queue_rejects_with_depth() {
        let queue = FairQueue::new(2, true);
        push(&queue, 1, 0).unwrap();
        push(&queue, 2, 0).unwrap();
        assert_eq!(push(&queue, 3, 0), Err(QueueFull { queue_depth: 2 }));
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = FairQueue::new(4, false);
        push(&queue, 1, 0).unwrap();
        push(&queue, 1, 1).unwrap();
        queue.close();
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
        // Closed queues admit nothing.
        assert!(push(&queue, 1, 2).is_err());
    }

    #[test]
    fn pool_executes_real_jobs() {
        let config = AcceleratorConfig::new(8);
        let weights = vec![vec![2i64, -3], vec![4, 5]];
        let pool = UnitPool::new(config, 2, 4, false, None, None);
        let rx_a = pool.submit(request_for(weights.clone(), 1, 0)).unwrap();
        let rx_b = pool.submit(request_for(weights, 2, 0)).unwrap();
        let job_a = rx_a.recv().unwrap().unwrap();
        let job_b = rx_b.recv().unwrap().unwrap();
        assert_eq!(job_a.elements.len(), 2);
        assert_eq!(job_a.rows_per_pass, 2);
        assert!(job_a.fabric_cycles > 0);
        // Same seed => bit-identical garbling regardless of which unit ran it.
        assert_eq!(
            job_a.elements[0].rounds_frame,
            job_b.elements[0].rounds_frame
        );
        pool.shutdown();
    }

    #[test]
    fn weights_override_garbles_against_request_matrix() {
        let config = AcceleratorConfig::new(8);
        let pool = UnitPool::new(config.clone(), 1, 4, false, None, None);
        let model = vec![vec![7i64, -2], vec![3, 4]];
        let req = request_for(model.clone(), 1, 0);
        let got = pool.submit(req).unwrap().recv().unwrap().unwrap();
        assert_eq!(got, fill_stream(&config, &model, 1, 1).unwrap());
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
        let pool = UnitPool::new(config, 1, 2, false, None, Some(hook));
        // Idle pool precomputes...
        let deadline = Instant::now() + Duration::from_secs(5);
        while fills.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(fills.load(Ordering::SeqCst) >= 3, "idle hook never ran");
        // ...and still serves real jobs promptly.
        let rx = pool.submit(request(1, 0)).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        pool.shutdown();
    }

    #[test]
    fn paused_pool_holds_jobs_until_resume() {
        let config = AcceleratorConfig::new(8);
        let pool = UnitPool::new(config, 1, 2, true, None, None);
        let rx = pool.submit(request(1, 0)).unwrap();
        assert_eq!(pool.depth(), 1);
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        pool.resume();
        assert!(rx.recv().unwrap().is_ok());
        pool.shutdown();
    }
}
