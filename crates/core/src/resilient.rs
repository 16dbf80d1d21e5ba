//! Self-healing client: retries, backoff, reconnect, resume.
//!
//! [`ResilientClient`] wraps [`RemoteClient`] with the recovery policy a
//! real deployment needs against a lossy network and a busy server:
//!
//! * `Busy{retry_after_ms}` → sleep the hinted backoff (plus jitter) and
//!   retry on the *same* session — the server explicitly kept it open.
//! * Transport failures / disconnects / corrupted frames → tear the
//!   connection down, dial a fresh one via the connect factory, and either
//!   RESUME the in-flight job from the last completed element (when one
//!   exists) or re-handshake a fresh session.
//! * `REJECT(resume)` — the server lost its checkpoint — → restart the job
//!   from scratch on a fresh session rather than failing the caller.
//! * `REJECT(overload)` — the load-shedding breaker is open — → backoff
//!   and retry like Busy.
//! * Integrity failures (v6) → detect-and-heal under a separate bounded
//!   `integrity_retries` budget: a per-frame CRC failure
//!   (`TransportError::Checksum`) keeps the session state and heals via
//!   reconnect + RESUME from the last verified element boundary; a
//!   transcript-digest divergence ([`AcceleratorError::Integrity`] or
//!   `REJECT(integrity)`) invalidates the job's checkpoints and restarts it
//!   from scratch on a fresh session. Both are counted in
//!   [`ResilienceStats`] (`integrity_detected` / `integrity_healed`), so a
//!   corrupt link shows up in the stats instead of in wrong plaintexts.
//!
//! Backoff is exponential with decorrelated jitter (`sleep = base +
//! rand(0, prev*3 - base)`, capped), seeded deterministically so chaos
//! tests replay. Every operation carries a bounded attempt budget; when it
//! runs out the caller gets [`AcceleratorError::RetriesExhausted`] wrapping
//! the terminal failure. All recovery events are counted in
//! [`ResilienceStats`].
//!
//! **Tracing.** Every `ResilientClient` mints one [`TraceContext`] at
//! construction and puts it on the wire with *every* dial — so the first
//! connect, each post-failure redial, and the RESUME all belong to one
//! trace the server can echo back. Attach a [`Recorder`] via
//! [`ResilientClient::with_recorder`] to capture the client-side spans
//! (`client/connect`, `client/redial`, `client/backoff`, `client/resume`,
//! `client/job`); override the context via
//! [`ResilientClient::with_trace`] when a chaos test needs deterministic
//! wire bytes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;
use std::time::{Duration, Instant};

use max_gc::channel::TransportError;
use max_gc::Transport;
use max_telemetry::{Recorder, TraceContext};

use crate::error::AcceleratorError;
use crate::remote::{
    reject_reason, JobProgress, ModelHandle, RemoteClient, SessionState, REJECT_INTEGRITY,
    REJECT_OVERLOAD, REJECT_RESUME,
};
use crate::server::MatvecTranscript;

/// Knobs of the retry/backoff loop.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempt budget per operation (initial try plus retries).
    pub max_attempts: u32,
    /// Floor of the decorrelated-jitter backoff, in milliseconds.
    pub base_backoff_ms: u64,
    /// Cap of the backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Per-protocol-step deadline pushed into the transport's idle timeout
    /// (ignored by transports that cannot time out, e.g. the in-memory
    /// duplex).
    pub step_timeout: Option<Duration>,
    /// Seed of the jitter PRNG — fix it to make a chaos run replayable.
    pub jitter_seed: u64,
    /// Separate budget for integrity failures (CRC or transcript-digest
    /// mismatches, v6) within one operation. A corrupt link heals by
    /// retrying; a *persistently* corrupting link should fail loudly
    /// instead of looping — once more than this many integrity faults hit
    /// one operation, it fails with
    /// [`AcceleratorError::RetriesExhausted`].
    pub integrity_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 5,
            max_backoff_ms: 1_000,
            step_timeout: None,
            jitter_seed: 0x5eed,
            integrity_retries: 4,
        }
    }
}

/// Recovery accounting of one [`ResilientClient`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Operation attempts, including first tries.
    pub attempts: u64,
    /// Fresh sessions dialed (initial connect and post-failure redials).
    pub reconnects: u64,
    /// Jobs re-entered mid-flight via RESUME.
    pub resumes: u64,
    /// Backoffs taken on `Busy` or an open breaker.
    pub busy_backoffs: u64,
    /// Jobs restarted from scratch after the server lost its checkpoint.
    pub restarts: u64,
    /// Milliseconds slept across all backoffs.
    pub backoff_ms_total: u64,
    /// Integrity faults detected (frame CRC failures and transcript-digest
    /// divergences, v6) instead of reaching a plaintext.
    pub integrity_detected: u64,
    /// Operations that hit at least one integrity fault and still
    /// completed with a verified transcript.
    pub integrity_healed: u64,
    /// Wall-clock of each operation that needed at least one retry, ms.
    pub recovery_ms: Vec<u64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`RemoteClient`] that survives disconnects, busy queues, and lost
/// checkpoints, reconnecting through a user-supplied transport factory.
pub struct ResilientClient<T, F>
where
    T: Transport,
    F: FnMut() -> Result<T, AcceleratorError>,
{
    connect: F,
    bit_width: usize,
    policy: RetryPolicy,
    client: Option<RemoteClient<T>>,
    saved_state: Option<SessionState>,
    model: Option<ModelHandle>,
    stats: ResilienceStats,
    jitter_state: u64,
    prev_backoff_ms: u64,
    trace: TraceContext,
    recorder: Option<Arc<Recorder>>,
}

impl<T, F> std::fmt::Debug for ResilientClient<T, F>
where
    T: Transport,
    F: FnMut() -> Result<T, AcceleratorError>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("connected", &self.client.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<T, F> ResilientClient<T, F>
where
    T: Transport,
    F: FnMut() -> Result<T, AcceleratorError>,
{
    /// Builds a resilient client. `connect` dials one fresh transport per
    /// call; nothing is dialed until the first operation needs it.
    pub fn new(connect: F, bit_width: usize, policy: RetryPolicy) -> Self {
        ResilientClient {
            connect,
            bit_width,
            jitter_state: policy.jitter_seed,
            prev_backoff_ms: policy.base_backoff_ms,
            policy,
            client: None,
            saved_state: None,
            model: None,
            stats: ResilienceStats::default(),
            trace: TraceContext::mint(),
            recorder: None,
        }
    }

    /// Replaces the minted [`TraceContext`] with an explicit one. Use
    /// [`TraceContext::none`] (or any fixed context) in tests that compare
    /// wire transcripts byte-for-byte across runs.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a [`Recorder`] that captures client-side trace spans
    /// (`client/connect`, `client/redial`, `client/backoff`,
    /// `client/resume`, `client/job`) under this client's trace id.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Targets every subsequent job at a prepared model (v5) instead of
    /// the session default: jobs are submitted via
    /// [`RemoteClient::start_model_job`] with this handle, including
    /// restart-from-scratch after a lost server checkpoint.
    #[must_use]
    pub fn with_model(mut self, model: ModelHandle) -> Self {
        self.model = Some(model);
        self
    }

    /// The trace context every dial of this client carries.
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// Recovery accounting so far.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// The live session, if one is currently attached.
    pub fn session(&self) -> Option<&RemoteClient<T>> {
        self.client.as_ref()
    }

    /// Runs `y = W·x` with the full recovery policy.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::RetriesExhausted`] when the attempt budget runs
    /// out; the original error immediately for non-recoverable rejections.
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from the server's column count (caller
    /// error, as in [`RemoteClient::secure_matvec`]).
    pub fn secure_matvec(
        &mut self,
        x: &[i64],
    ) -> Result<(Vec<i64>, MatvecTranscript), AcceleratorError> {
        let (mut columns, transcript) = self.secure_matmul(std::slice::from_ref(&x.to_vec()))?;
        let y = columns.pop().ok_or(AcceleratorError::Protocol {
            what: "job returned no columns",
        })?;
        Ok((y, transcript))
    }

    /// Runs `Y = W·X` with the full recovery policy: bounded retries,
    /// backoff on Busy/overload, reconnect + RESUME on connection loss,
    /// restart on a lost server checkpoint.
    ///
    /// # Errors
    ///
    /// See [`ResilientClient::secure_matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `x_columns` is empty or any column length differs from
    /// the server's column count once a session exists.
    pub fn secure_matmul(
        &mut self,
        x_columns: &[Vec<i64>],
    ) -> Result<(Vec<Vec<i64>>, MatvecTranscript), AcceleratorError> {
        let rec = self.recorder.clone();
        let _job_span = rec.as_ref().map(|r| r.trace_span(self.trace, "client/job"));
        let started = Instant::now();
        let mut progress: Option<JobProgress> = None;
        let mut attempts = 0u32;
        let mut integrity_hits = 0u32;
        loop {
            attempts += 1;
            self.stats.attempts += 1;
            match self.try_once(x_columns, &mut progress) {
                Ok(result) => {
                    self.prev_backoff_ms = self.policy.base_backoff_ms;
                    if attempts > 1 {
                        self.stats
                            .recovery_ms
                            .push(started.elapsed().as_millis() as u64);
                    }
                    if integrity_hits > 0 {
                        self.stats.integrity_healed += 1;
                    }
                    return Ok(result);
                }
                Err(err) => {
                    if Self::is_fatal(&err) {
                        return Err(err);
                    }
                    if Self::is_integrity(&err) {
                        integrity_hits += 1;
                        if integrity_hits > self.policy.integrity_retries {
                            return Err(AcceleratorError::RetriesExhausted {
                                attempts,
                                last: Box::new(err),
                            });
                        }
                    }
                    if attempts >= self.policy.max_attempts {
                        return Err(AcceleratorError::RetriesExhausted {
                            attempts,
                            last: Box::new(err),
                        });
                    }
                    self.recover(&err, &mut progress);
                }
            }
        }
    }

    /// Gracefully closes any live session (best effort) and returns its
    /// transport for inspection.
    pub fn goodbye(mut self) -> Option<T> {
        self.client.take().map(RemoteClient::goodbye)
    }

    /// One attempt: ensure a session (resuming if both client-side job
    /// progress and session state survive), then drive the job.
    fn try_once(
        &mut self,
        x_columns: &[Vec<i64>],
        progress_slot: &mut Option<JobProgress>,
    ) -> Result<(Vec<Vec<i64>>, MatvecTranscript), AcceleratorError> {
        if self.client.is_none() {
            let rec = self.recorder.clone();
            let redial = self.stats.reconnects + self.stats.resumes > 0;
            let _dial_span = rec.as_ref().map(|r| {
                r.trace_span(
                    self.trace,
                    if redial {
                        "client/redial"
                    } else {
                        "client/connect"
                    },
                )
            });
            let mut transport = (self.connect)()?;
            if self.policy.step_timeout.is_some() {
                transport.set_idle_timeout(self.policy.step_timeout);
            }
            match (self.saved_state.take(), progress_slot.as_mut()) {
                (Some(state), Some(progress)) => {
                    let _resume_span = rec
                        .as_ref()
                        .map(|r| r.trace_span(self.trace, "client/resume"));
                    let mut client = RemoteClient::reattach(transport, state);
                    match client.resume_job(progress) {
                        Ok(()) => {
                            self.stats.resumes += 1;
                            self.client = Some(client);
                        }
                        Err(err) => {
                            // Keep the session state: a transport error here
                            // just means "try resuming again"; a REJECT is
                            // handled by `recover`, which clears it.
                            let (_, state) = client.into_parts();
                            self.saved_state = Some(state);
                            return Err(err);
                        }
                    }
                }
                _ => {
                    *progress_slot = None;
                    self.client = Some(RemoteClient::connect_with_trace(
                        transport,
                        self.bit_width,
                        self.trace,
                    )?);
                    self.stats.reconnects += 1;
                }
            }
        }
        let Some(client) = self.client.as_mut() else {
            return Err(AcceleratorError::Protocol {
                what: "resilient client lost its session",
            });
        };
        let mut progress = match progress_slot.take() {
            Some(progress) => progress,
            None => match self.model {
                Some(model) => client.start_model_job(model, x_columns)?,
                None => client.start_job(x_columns)?,
            },
        };
        match client.run_job(&mut progress) {
            Ok(()) => Ok(progress.into_result()),
            Err(err) => {
                // Progress (with its element-boundary checkpoints) survives
                // for the resume attempt.
                *progress_slot = Some(progress);
                Err(err)
            }
        }
    }

    /// Applies the per-error recovery action between attempts.
    fn recover(&mut self, err: &AcceleratorError, progress: &mut Option<JobProgress>) {
        match err {
            AcceleratorError::Busy { retry_after_ms } => {
                // The server kept the session; honor its hint plus jitter —
                // but clamped to the policy's backoff cap. The hint is peer
                // data: a hostile or buggy server can send u32::MAX (~49
                // days) and would otherwise wedge this thread.
                let cap = self.policy.max_backoff_ms.max(1);
                let hint = u64::from(*retry_after_ms).clamp(1, cap);
                let jitter = splitmix(&mut self.jitter_state) % (hint / 2 + 1);
                self.sleep_ms((hint + jitter).min(cap));
                self.stats.busy_backoffs += 1;
            }
            AcceleratorError::Rejected { reason } if *reason == reject_reason(REJECT_OVERLOAD) => {
                // Breaker open: the connection was refused, nothing to keep.
                self.drop_session();
                self.saved_state = None;
                let backoff = self.next_backoff_ms();
                self.sleep_ms(backoff);
                self.stats.busy_backoffs += 1;
            }
            AcceleratorError::Rejected { reason } if *reason == reject_reason(REJECT_RESUME) => {
                // Server lost the checkpoint: restart the job from scratch
                // on a fresh session.
                self.drop_session();
                self.saved_state = None;
                *progress = None;
                self.stats.restarts += 1;
            }
            AcceleratorError::Integrity { .. } => {
                // Transcript digests diverged: every checkpoint past the
                // last verified boundary is suspect, so heal by restarting
                // the job from scratch on a fresh session.
                self.stats.integrity_detected += 1;
                self.drop_session();
                self.saved_state = None;
                *progress = None;
                self.stats.restarts += 1;
            }
            AcceleratorError::Rejected { reason } if *reason == reject_reason(REJECT_INTEGRITY) => {
                // The server's view of an integrity divergence (delivered
                // as a REJECT, e.g. on a RESUME attempt): same healing as a
                // locally detected digest mismatch.
                self.stats.integrity_detected += 1;
                self.drop_session();
                self.saved_state = None;
                *progress = None;
                self.stats.restarts += 1;
            }
            AcceleratorError::Transport(TransportError::Checksum { .. }) => {
                // A single frame died at the CRC — the transcript digests
                // still agree at the last element boundary, so keep the
                // session state and heal via reconnect + RESUME, exactly
                // like a disconnect.
                self.stats.integrity_detected += 1;
                if let Some(client) = self.client.take() {
                    let (_, state) = client.into_parts();
                    self.saved_state = Some(state);
                }
                let backoff = self.next_backoff_ms();
                self.sleep_ms(backoff);
            }
            _ => {
                // Connection-level failure: keep the portable session state
                // for a RESUME, drop the dead transport, back off, redial.
                if let Some(client) = self.client.take() {
                    let (_, state) = client.into_parts();
                    self.saved_state = Some(state);
                }
                let backoff = self.next_backoff_ms();
                self.sleep_ms(backoff);
            }
        }
    }

    fn drop_session(&mut self) {
        self.client = None;
    }

    /// Exponential backoff with decorrelated jitter, deterministic under a
    /// fixed `jitter_seed`.
    fn next_backoff_ms(&mut self) -> u64 {
        let base = self.policy.base_backoff_ms.max(1);
        let cap = self.policy.max_backoff_ms.max(base);
        let upper = self.prev_backoff_ms.max(base).saturating_mul(3);
        let span = upper.saturating_sub(base).max(1);
        let ms = (base + splitmix(&mut self.jitter_state) % span).min(cap);
        self.prev_backoff_ms = ms;
        ms
    }

    fn sleep_ms(&mut self, ms: u64) {
        self.stats.backoff_ms_total += ms;
        let rec = self.recorder.clone();
        let _span = rec
            .as_ref()
            .map(|r| r.trace_span(self.trace, "client/backoff"));
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// Errors no amount of retrying can fix.
    fn is_fatal(err: &AcceleratorError) -> bool {
        match err {
            AcceleratorError::Rejected { reason } => {
                *reason != reject_reason(REJECT_RESUME)
                    && *reason != reject_reason(REJECT_OVERLOAD)
                    && *reason != reject_reason(REJECT_INTEGRITY)
            }
            AcceleratorError::RetriesExhausted { .. } => true,
            _ => false,
        }
    }

    /// Detected-corruption errors, budgeted by
    /// [`RetryPolicy::integrity_retries`].
    fn is_integrity(err: &AcceleratorError) -> bool {
        match err {
            AcceleratorError::Integrity { .. }
            | AcceleratorError::Transport(TransportError::Checksum { .. }) => true,
            AcceleratorError::Rejected { reason } => *reason == reject_reason(REJECT_INTEGRITY),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::remote::tests::serve_one_session;
    use max_gc::channel::Duplex;

    #[test]
    fn busy_hints_are_honored_with_backoff() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, -3], vec![4, 5]];
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            let w = w.clone();
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 11, 0, 2, 1))
        };
        let mut ends = vec![client_end];
        let mut client = ResilientClient::new(
            move || {
                ends.pop().ok_or(AcceleratorError::Protocol {
                    what: "no more transports",
                })
            },
            8,
            RetryPolicy::default(),
        );
        let (y, _) = client.secure_matvec(&[7, -1]).unwrap();
        assert_eq!(y, vec![2 * 7 + 3, 4 * 7 - 5]);
        let stats = client.stats().clone();
        assert_eq!(stats.busy_backoffs, 2);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.attempts, 3);
        assert!(stats.backoff_ms_total >= 2);
        assert_eq!(stats.recovery_ms.len(), 1);
        client.goodbye();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn hostile_busy_hint_is_clamped_to_the_backoff_cap() {
        // A malicious or buggy server can send retry_after_ms = u32::MAX
        // (~49 days). Before the clamp this wedged the client thread; now
        // the honored hint is capped by the policy's max_backoff_ms and the
        // job still completes promptly.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, -3], vec![4, 5]];
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            let w = w.clone();
            std::thread::spawn(move || {
                serve_one_session(server_end, &config, &w, 11, 0, 2, u32::MAX)
            })
        };
        let policy = RetryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 20,
            ..RetryPolicy::default()
        };
        let mut ends = vec![client_end];
        let mut client = ResilientClient::new(
            move || {
                ends.pop().ok_or(AcceleratorError::Protocol {
                    what: "no more transports",
                })
            },
            8,
            policy,
        );
        let (y, _) = client.secure_matvec(&[7, -1]).unwrap();
        assert_eq!(y, vec![2 * 7 + 3, 4 * 7 - 5]);
        let stats = client.stats().clone();
        assert_eq!(stats.busy_backoffs, 2);
        // Two busy backoffs, each capped at max_backoff_ms — not 49 days.
        assert!(
            stats.backoff_ms_total <= 2 * 20,
            "backoff {} ms exceeds the clamp",
            stats.backoff_ms_total
        );
        client.goodbye();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn connect_failures_exhaust_the_budget_with_a_typed_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            ..RetryPolicy::default()
        };
        let mut client: ResilientClient<Duplex, _> =
            ResilientClient::new(|| Err(AcceleratorError::Disconnected), 8, policy);
        let err = client.secure_matvec(&[1]).unwrap_err();
        match err {
            AcceleratorError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, AcceleratorError::Disconnected);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(client.stats().attempts, 3);
    }

    #[test]
    fn fatal_rejections_surface_unwrapped_after_one_attempt() {
        let mut calls = 0u32;
        let err = {
            let mut client: ResilientClient<Duplex, _> = ResilientClient::new(
                || {
                    calls += 1;
                    Err(AcceleratorError::Rejected {
                        reason: "unsupported bit width",
                    })
                },
                8,
                RetryPolicy::default(),
            );
            client.secure_matvec(&[1]).unwrap_err()
        };
        assert_eq!(
            err,
            AcceleratorError::Rejected {
                reason: "unsupported bit width"
            }
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn recorder_captures_client_spans_under_the_fixed_trace() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, -3], vec![4, 5]];
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            let w = w.clone();
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 11, 0, 1, 1))
        };
        let recorder = std::sync::Arc::new(max_telemetry::Recorder::new());
        let ctx = max_telemetry::TraceContext::from_ids(0xfeed_beef, 0x1dea);
        let mut ends = vec![client_end];
        let mut client = ResilientClient::new(
            move || {
                ends.pop().ok_or(AcceleratorError::Protocol {
                    what: "no more transports",
                })
            },
            8,
            RetryPolicy::default(),
        )
        .with_trace(ctx)
        .with_recorder(recorder.clone());
        assert_eq!(client.trace(), ctx);
        let (y, _) = client.secure_matvec(&[7, -1]).unwrap();
        assert_eq!(y, vec![2 * 7 + 3, 4 * 7 - 5]);
        client.goodbye();
        server.join().unwrap().unwrap();

        let snap = recorder.snapshot();
        let events = snap.trace_events(ctx.trace_id);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"client/connect"), "names: {names:?}");
        assert!(names.contains(&"client/backoff"), "names: {names:?}");
        assert!(names.contains(&"client/job"), "names: {names:?}");
        assert!(!names.contains(&"client/redial"), "no redial happened");
        assert!(events.iter().all(|e| e.span_id == ctx.span_id));
    }

    fn never_connect() -> Result<Duplex, AcceleratorError> {
        Err(AcceleratorError::Disconnected)
    }

    #[test]
    fn backoff_is_deterministic_for_a_fixed_seed() {
        let policy = RetryPolicy {
            jitter_seed: 99,
            base_backoff_ms: 2,
            max_backoff_ms: 50,
            ..RetryPolicy::default()
        };
        type Factory = fn() -> Result<Duplex, AcceleratorError>;
        let drain = |mut c: ResilientClient<Duplex, Factory>| {
            (0..6).map(|_| c.next_backoff_ms()).collect::<Vec<_>>()
        };
        let a = drain(ResilientClient::new(never_connect as Factory, 8, policy));
        let b = drain(ResilientClient::new(never_connect as Factory, 8, policy));
        assert_eq!(a, b);
        assert!(a.iter().all(|&ms| (2..=50).contains(&ms)));
        // Not constant: the jitter actually spreads the schedule.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }
}
