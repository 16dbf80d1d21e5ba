//! Per-session protocol loop: the server's legal frame orderings, job
//! dispatch, job checkpoints, idle reaping. One session = one client
//! connection = one thread; garbling runs on the unit pool, which hands each
//! element over as it is produced through an unbounded channel, so a slow
//! client never occupies a garbling unit.
//!
//! | phase | admits |
//! |---|---|
//! | greeting (no session yet) | METRICS; HELLO, then live; RESUME: its job, then live |
//! | live (between jobs) | JOB: its job; MODEL_PUT/INFO/EVICT; PING; METRICS; BYE: close |
//!
//! Any other frame ends the connection with the phase's one
//! [`AcceleratorError::Protocol`], before any reply. A refused HELLO
//! (REJECT: draining, version, width) or RESUME (REJECT(resume), or BUSY,
//! which keeps the checkpoint) closes it cleanly; a refused JOB
//! (REJECT(model), BUSY) or model frame keeps the session live. RESUME is
//! validated against the checkpoint store ([`Journal`](crate::journal::Journal))
//! and honoured while draining. A job's exchange runs under the per-step
//! deadline; in either phase the idle timeout reaps, flight-logged as
//! `handshake` or `idle`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use max_crypto::TranscriptDigest;
use max_gc::channel::TransportError;
use max_gc::Transport;
use max_ot::iknp::{OtCursor, OtExtSender};
use max_registry::{Acquired, RegisterError};
use max_telemetry::{FlightRecorder, TraceContext};
use maxelerator::remote::{
    accept_hello, derive_job_seed, derive_seed, deterministic_resume_token, recv_control,
    send_control, stream_materialized_job_from, ControlMsg, JobShape, JobSource, REJECT_DRAINING,
    REJECT_MODEL, REJECT_RESUME, STREAM_DIGEST_MISMATCH,
};
use maxelerator::AcceleratorError;

use crate::resume::{resumable, SessionCheckpoint};
use crate::scheduler::JobRequest;
use crate::service::ServiceShared;

/// Largest matmul a single job request may ask for (columns).
pub const MAX_JOB_COLUMNS: u32 = 64;

/// Retry hint, in milliseconds, of every BUSY: a JOB (its session stays
/// open) or RESUME (its checkpoint stays) that finds the unit queue full.
pub const BUSY_RETRY_AFTER_MS: u32 = 10;

/// The error ending a connection that opens with any other frame.
const GREETING: &str = "a greeting admits METRICS, HELLO or RESUME";

/// The error ending a live session on any other frame between jobs.
const LIVE: &str = "a live session admits JOB, MODEL_PUT/INFO/EVICT, PING, METRICS or BYE";

/// The resume token of a new session, drawn from OS entropy.
///
/// Deliberately *not* derived from the seed chain: [`derive_seed`] is an
/// invertible bijection and `ot_seed` (also seed-derived) is published in
/// ACCEPT, so a seed-derived token would let any client invert its own
/// `ot_seed` back to `base_seed` and forge every other session's token —
/// which is what the test-only `ServeConfig::deterministic_resume_tokens`
/// does, for reproducibility.
fn resume_token(shared: &ServiceShared, session_seed: u64) -> u64 {
    if shared.deterministic_resume_tokens {
        return deterministic_resume_token(session_seed);
    }
    let mut buf = [0u8; 8];
    max_telemetry::os_entropy(&mut buf);
    u64::from_le_bytes(buf)
}

/// A live session's identity and seed material, common to the fresh and
/// resumed entry paths, plus its flight ring (shared with the transport
/// wrapper).
struct SessionCtx<'a> {
    session_id: u64,
    session_seed: u64,
    resume_token: u64,
    next_job: u64,
    trace: TraceContext,
    flight: Option<&'a FlightRecorder>,
}

impl SessionCtx<'_> {
    /// Logs a flight event when the session has a flight ring.
    fn log(&self, kind: &'static str, detail: impl Into<String>, value: u64) {
        if let Some(flight) = self.flight {
            flight.log(kind, detail, value);
        }
    }
}

/// Records an instantaneous server-side trace event when the service has a
/// recorder attached and the session is traced.
fn trace_instant(shared: &ServiceShared, trace: TraceContext, name: &str) {
    if trace.is_traced() {
        if let Some(rec) = &shared.recorder {
            rec.record_trace_instant(trace, name);
        }
    }
}

/// A JOB or RESUME resolved to what will be served. Every way a job can
/// arrive — warm stock, a starved fallback ticket, the session default, a
/// checkpoint — is built by [`ResolvedJob::new`] and served through the
/// session loop's single [`stream_job_checkpointed`] call.
struct ResolvedJob {
    /// The record that rebuilds the job after a disconnect: the session's
    /// identity and the job's, with no snapshot yet.
    record: SessionCheckpoint<OtCursor>,
    /// Warm stock with its fill-time digest, or the hand-off of the pool
    /// unit garbling the job right now.
    source: JobSource,
    /// Where a resumed exchange picks up: the element boundary and the
    /// transcript digest there (`None`: element zero, a fresh digest).
    resume_at: Option<(usize, TranscriptDigest)>,
}

impl ResolvedJob {
    /// Job `job_id` of `ctx`'s session. `model` is the prepared model it
    /// runs against and its registration's weights digest (`None`: the
    /// session default matrix); the record keeps the id, so a RESUME
    /// re-garbles from the registry's weights, and binds the digest into
    /// its token.
    fn new(
        ctx: &SessionCtx<'_>,
        job_id: u64,
        columns: u32,
        job_seed: u64,
        model: Option<(u64, [u8; 16])>,
        source: JobSource,
        resume_at: Option<(usize, TranscriptDigest)>,
    ) -> ResolvedJob {
        let registration = model.as_ref().map(|(_, digest)| digest);
        ResolvedJob {
            record: SessionCheckpoint {
                session_id: ctx.session_id,
                resume_token: checkpoint_token(ctx.resume_token, registration),
                session_seed: ctx.session_seed,
                next_job: job_id + 1,
                job_id,
                columns,
                job_seed,
                model_id: model.map(|(model_id, _)| model_id),
                snapshots: Vec::with_capacity(1),
            },
            source,
            resume_at,
        }
    }
}

/// The resume token a checkpoint stores: the session's own for a
/// session-default job, and for a model job the token bound to the
/// registration the job ran against (XOR of both halves of its weights
/// digest). A RESUME after the model was re-PUT with other weights then
/// fails the token check exactly as a wrong token does, so a job is never
/// re-garbled from weights it did not start with; the same weights give
/// the same digest, across a restart too.
fn checkpoint_token(resume_token: u64, registration: Option<&[u8; 16]>) -> u64 {
    registration.map_or(resume_token, |digest| {
        let digest = u128::from_le_bytes(*digest);
        resume_token ^ digest as u64 ^ (digest >> 64) as u64
    })
}

/// Puts a job on the unit queue, or turns it away with BUSY (counted) when
/// the queue is full: `None`, and the connection stays usable.
fn submit_or_busy<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    request: JobRequest,
) -> Result<Option<JobSource>, AcceleratorError> {
    let shape = JobShape::of(&request.weights, request.columns, shared.config.bit_width);
    match shared.pool.submit(request) {
        Ok(pieces) => Ok(Some(JobSource::Garbling { pieces, shape })),
        Err(full) => {
            shared.tallies.busy_rejections.fetch_add(1, Relaxed);
            let busy = ControlMsg::Busy {
                retry_after_ms: BUSY_RETRY_AFTER_MS,
                queue_depth: full.queue_depth as u32,
            };
            send_control(transport, &busy)?;
            Ok(None)
        }
    }
}

/// Streams one job under the per-step deadline. A fresh job saves its one
/// record, the OT sender's cursor at element 0, once READY has gone out
/// (see [`crate::journal`]); later batch starts only move its high-water
/// mark. A failed append is flight-logged and the job streams on; an
/// eviction is counted and logged. The record outlives the job: STATS may
/// still be lost in flight, and a client that lost it resumes the last
/// batch. The session removes it when the client's next frame shows STATS
/// arrived; when that frame is this JOB (`retire`), the tombstone goes out
/// after READY, just before this job's record, so the READY path writes
/// nothing. A failure leaves the job's record for RESUME; a source that
/// fails before READY leaves no checkpoint.
fn stream_job_checkpointed<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    ctx: &SessionCtx<'_>,
    ot_sender: &mut OtExtSender,
    job: ResolvedJob,
    retire: bool,
) -> Result<(), AcceleratorError> {
    let _stream_phase = shared
        .recorder
        .as_ref()
        .map(|rec| rec.phase_span(ctx.trace, "server/stream"));
    let job_id = job.record.job_id;
    // A resumed job's record already exists.
    let record = job.resume_at.is_none().then(|| {
        let mut record = job.record;
        let start = (0, ot_sender.export_state(), TranscriptDigest::new());
        record.snapshots.push(start);
        record
    });
    let (start_element, mut digest) = job.resume_at.unwrap_or_default();
    if shared.step_timeout.is_some() {
        transport.set_idle_timeout(shared.step_timeout);
    }
    let mut reached = None;
    let result = stream_materialized_job_from(
        transport,
        &job.source,
        ot_sender,
        &mut digest,
        job_id,
        ctx.trace,
        start_element,
        // The first call comes right after READY, so the record's sync
        // overlaps the client's first EXT.
        |boundary| {
            match (&record, reached) {
                (Some(record), None) => {
                    if retire {
                        let _ = shared.journal.remove(ctx.session_id);
                    }
                    let (evicted, written) = shared.journal.save(record);
                    if let Some(victim) = evicted {
                        shared.tallies.resume_evicted.fetch_add(1, Relaxed);
                        ctx.log("resume.evicted", format!("session {victim}"), victim);
                    }
                    if let Err(err) = written {
                        ctx.log("journal.error", format!("{err}"), 0);
                    }
                }
                _ => shared.journal.advance(ctx.session_id, boundary),
            }
            reached = Some(boundary);
        },
    );
    transport.set_idle_timeout(shared.idle_timeout);
    match result {
        Ok(()) => Ok(()),
        // READY never went out: nothing to resume.
        Err(err) if reached.is_none() => Err(err),
        Err(err) => {
            if matches!(err, AcceleratorError::Integrity { .. }) {
                shared.tallies.integrity_rejects.fetch_add(1, Relaxed);
                ctx.log("integrity.reject", format!("{err}"), job_id);
                // A prepared stream that no longer matches its fill-time
                // digest is cache/disk rot, not a wire fault: count the
                // drop so operators can see material decaying in stock.
                if matches!(err, AcceleratorError::Integrity { what } if what == STREAM_DIGEST_MISMATCH)
                {
                    shared.registry.note_integrity_drop();
                }
            }
            // The job's record stays in the store.
            let elements_kept = reached.unwrap_or(0) as u64;
            shared.tallies.checkpoints_saved.fetch_add(1, Relaxed);
            trace_instant(shared, ctx.trace, "server/checkpoint");
            ctx.log("checkpoint.saved", format!("job {job_id}"), elements_kept);
            Err(err)
        }
    }
}

/// Refuses a handshake or a model request with a typed REJECT.
fn reject<T: Transport>(transport: &mut T, code: u8, detail: u32) -> Result<(), AcceleratorError> {
    send_control(transport, &ControlMsg::Reject { code, detail })
}

/// Validates a RESUME and resolves its job on the session it continues, or
/// refuses it (`None`): REJECT(resume), or BUSY, which keeps the
/// checkpoint. The checkpoint must hold the quoted token, job and columns,
/// and the boundary be a [`resumable`] batch start; the sender is derived
/// there and the client's digest adopted (see [`crate::resume`]). A model job resumes only
/// against the registration it ran on: an evicted model has none, and a
/// re-PUT one fails the token check ([`checkpoint_token`]).
fn resume<'a, T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    resume: &ControlMsg,
    flight: Option<&'a FlightRecorder>,
) -> Result<Option<(SessionCtx<'a>, OtExtSender, ResolvedJob)>, AcceleratorError> {
    let &ControlMsg::Resume {
        session_id,
        resume_token,
        job_id,
        columns,
        boundary,
        digest: (state, len),
        trace,
    } = resume
    else {
        return Err(AcceleratorError::Protocol { what: GREETING });
    };
    let start = boundary as usize;
    let checkpoint = shared
        .journal
        .lookup(session_id)
        .and_then(|(cp, high_water)| {
            let (weights, registration) = match cp.model_id {
                None => (Arc::clone(&shared.weights), None),
                Some(id) => shared
                    .registry
                    .registration(id)
                    .map(|(weights, digest)| (weights, Some(digest)))?,
            };
            let shape = JobShape::of(&weights, columns, shared.config.bit_width);
            let valid = cp.resume_token == checkpoint_token(resume_token, registration.as_ref())
                && (cp.job_id, cp.columns) == (job_id, columns)
                && resumable(start, shape, high_water);
            if !valid {
                return None;
            }
            Some((cp.sender_at(start, shape)?, cp, weights, registration))
        });
    let Some((ot_sender, cp, weights, registration)) = checkpoint else {
        reject(transport, REJECT_RESUME, 0)?;
        return Ok(None);
    };
    let request = JobRequest {
        columns,
        seed: cp.job_seed,
        weights,
        start_element: start,
        trace,
    };
    let Some(source) = submit_or_busy(shared, transport, request)? else {
        return Ok(None);
    };
    let ctx = SessionCtx {
        session_id,
        session_seed: cp.session_seed,
        resume_token,
        next_job: cp.next_job,
        trace,
        flight,
    };
    trace_instant(shared, trace, "server/resume_restore");
    ctx.log("resume.restored", format!("job {job_id}"), start as u64);
    let model = cp.model_id.zip(registration);
    let resume_at = Some((start, TranscriptDigest::import(state, len)));
    let job = ResolvedJob::new(&ctx, job_id, columns, cp.job_seed, model, source, resume_at);
    Ok(Some((ctx, ot_sender, job)))
}

/// Resolves a JOB to what will be served: warm stock when the model has
/// some, else a job on the unit queue — a starved model's fresh generation
/// or the session default. `None` when the job was refused with
/// `REJECT(model)` or BUSY: per-job refusals, and the session stays live.
fn resolve_job<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    ctx: &mut SessionCtx<'_>,
    columns: u32,
    model_id: Option<u64>,
) -> Result<Option<ResolvedJob>, AcceleratorError> {
    if columns == 0 || columns > MAX_JOB_COLUMNS {
        return Err(AcceleratorError::Protocol {
            what: "JOB column count out of range",
        });
    }
    let job_id = ctx.next_job;
    let acquired = model_id.map(|id| (id, shared.registry.acquire(id, columns)));
    let (job_seed, model, weights) = match acquired {
        None => (
            derive_job_seed(ctx.session_seed, job_id),
            None,
            Arc::clone(&shared.weights),
        ),
        Some((id, None)) => {
            // Unknown model is a per-job refusal, not a session error: the
            // client may PUT and retry.
            ctx.log("model.unknown", format!("model {id}"), id);
            reject(transport, REJECT_MODEL, 0)?;
            return Ok(None);
        }
        Some((_, Some(Acquired::Prepared(stream)))) => {
            // The warm path never touches the pool: the online phase is OT
            // plus frame replay, so a full queue cannot turn it away.
            let stream = *stream;
            ctx.next_job += 1;
            shared.tallies.jobs_prepared.fetch_add(1, Relaxed);
            trace_instant(shared, ctx.trace, "server/prepared_serve");
            let (model_id, generation) = (stream.model_id, stream.generation);
            ctx.log("model.prepared", format!("model {model_id}"), generation);
            let source = JobSource::Materialized {
                job: stream.job,
                expected_digest: stream.digest,
            };
            let model = Some((model_id, stream.registration));
            let job = ResolvedJob::new(ctx, job_id, columns, stream.seed, model, source, None);
            return Ok(Some(job));
        }
        Some((id, Some(Acquired::Starved(ticket)))) => {
            // Stock exhausted (or a shape with no prepared form): fill one
            // stream on the pool from the ticket's fresh generation.
            ctx.log("model.starved", format!("model {id}"), ticket.generation);
            (ticket.seed, Some((id, ticket.registration)), ticket.weights)
        }
    };
    let request = JobRequest {
        columns,
        seed: job_seed,
        weights,
        start_element: 0,
        trace: ctx.trace,
    };
    let Some(source) = submit_or_busy(shared, transport, request)? else {
        return Ok(None);
    };
    ctx.next_job += 1;
    if let Some((id, _)) = model {
        // Only now has the fallback served anything: a ticket the full
        // queue turned away got BUSY.
        shared.registry.note_fallback_served(id);
    }
    let job = ResolvedJob::new(ctx, job_id, columns, job_seed, model, source, None);
    Ok(Some(job))
}

/// Runs one session over `transport` until BYE, disconnect, idle timeout or
/// a protocol violation: one receive loop matching each frame once on the
/// phase, greeting (`live` is `None`) or live. `Ok` for clean closes, the
/// killing error otherwise; `trace_id` gets the trace id of the HELLO or
/// RESUME (0 = untraced), which tags the flight dump of an error-ending
/// session.
pub(crate) fn run_session<T: Transport>(
    shared: &ServiceShared,
    mut transport: T,
    session_id: u64,
    flight: Option<&FlightRecorder>,
    trace_id: &mut u128,
) -> Result<(), AcceleratorError> {
    let transport = &mut transport;
    transport.set_idle_timeout(shared.idle_timeout);
    let mut live: Option<(SessionCtx<'_>, OtExtSender)> = None;
    // A job finished on this connection whose record still stands.
    let mut finished = false;
    loop {
        let msg = match recv_control(transport) {
            Ok(msg) => msg,
            Err(AcceleratorError::Disconnected) => return Ok(()),
            Err(AcceleratorError::Transport(TransportError::TimedOut)) => {
                if let Some(flight) = flight {
                    let phase = if live.is_some() { "idle" } else { "handshake" };
                    flight.log("deadline.reap", phase, 0);
                }
                return Ok(());
            }
            Err(err) => return Err(err),
        };
        // Any frame after a job's STATS shows the client holds it: a
        // restart must not resurrect (and a reconnect must not replay) the
        // job, so its record goes — at once, or for a JOB that streams,
        // beside that job's own record after its READY, so the READY path
        // writes nothing.
        if finished && !matches!(msg, ControlMsg::JobRequest { .. }) {
            finished = false;
            if let Some((ctx, _)) = &live {
                let _ = shared.journal.remove(ctx.session_id);
            }
        }
        let job = match (&mut live, msg) {
            // Operators poll METRICS without becoming a session.
            (_, ControlMsg::MetricsRequest) => {
                let body = shared.metrics_json();
                send_control(transport, &ControlMsg::MetricsReply { body })?;
                None
            }
            (None, hello @ ControlMsg::Hello { trace, .. }) => {
                *trace_id = trace.trace_id;
                if shared.is_draining() {
                    reject(transport, REJECT_DRAINING, 0)?;
                    return Ok(());
                }
                let session_seed = derive_seed(shared.base_seed, session_id);
                let resume_token = resume_token(shared, session_seed);
                let accepted = accept_hello(
                    transport,
                    &hello,
                    &shared.config,
                    &shared.weights,
                    session_id,
                    session_seed,
                    resume_token,
                )?;
                let Some(ot_sender) = accepted else {
                    return Ok(());
                };
                trace_instant(shared, trace, "server/handshake");
                let ctx = SessionCtx {
                    session_id,
                    session_seed,
                    resume_token,
                    next_job: 0,
                    trace,
                    flight,
                };
                live = Some((ctx, ot_sender));
                None
            }
            (None, msg @ ControlMsg::Resume { trace, .. }) => {
                *trace_id = trace.trace_id;
                // Honoured while draining: it finishes admitted work.
                let Some((ctx, ot_sender, job)) = resume(shared, transport, &msg, flight)? else {
                    return Ok(());
                };
                live = Some((ctx, ot_sender));
                Some(job)
            }
            (Some((ctx, _)), ControlMsg::JobRequest { columns, model_id }) => {
                resolve_job(shared, transport, ctx, columns, model_id)?
            }
            (
                Some((ctx, _)),
                ControlMsg::ModelPut {
                    model_id,
                    cols,
                    weights,
                    ..
                },
            ) => {
                // Reshape row-major; the decoder already enforced a nonzero
                // shape, `weights.len() == rows * cols` and the element cap.
                let matrix = weights.chunks(cols.max(1) as usize).map(<[i64]>::to_vec);
                match shared.put_model(model_id, matrix.collect()) {
                    Ok(status) => {
                        ctx.log("model.put", format!("model {model_id}"), model_id);
                        send_control(transport, &ControlMsg::ModelStat { status })?;
                    }
                    Err(err) => {
                        // A refused registration keeps the session live:
                        // the detail tells the client what to fix.
                        let detail = match err {
                            RegisterError::EmptyModel => 1,
                            RegisterError::RaggedRow { .. } => 2,
                            RegisterError::TooLarge { .. } => 3,
                            RegisterError::ValueOutOfRange { .. } => 4,
                            RegisterError::FrameTooLarge { .. } => 5,
                        };
                        ctx.log("model.put_rejected", format!("{err}"), detail);
                        reject(transport, REJECT_MODEL, detail as u32)?;
                    }
                }
                None
            }
            (Some(_), ControlMsg::ModelInfo { model_id }) => {
                match shared.registry.status(model_id) {
                    Some(status) => send_control(transport, &ControlMsg::ModelStat { status })?,
                    None => reject(transport, REJECT_MODEL, 0)?,
                }
                None
            }
            (Some((ctx, _)), ControlMsg::ModelEvict { model_id }) => {
                match shared.evict_model(model_id) {
                    Some(status) => {
                        ctx.log("model.evicted", format!("model {model_id}"), model_id);
                        send_control(transport, &ControlMsg::ModelStat { status })?;
                    }
                    None => reject(transport, REJECT_MODEL, 0)?,
                }
                None
            }
            (Some(_), ControlMsg::Ping { nonce }) => {
                send_control(transport, &ControlMsg::Pong { nonce })?;
                None
            }
            (Some((ctx, _)), ControlMsg::Bye) => {
                // A clean goodbye retires any stale checkpoint this session
                // id left behind on an earlier connection.
                let _ = shared.journal.remove(ctx.session_id);
                return Ok(());
            }
            (None, _) => return Err(AcceleratorError::Protocol { what: GREETING }),
            (Some(_), _) => return Err(AcceleratorError::Protocol { what: LIVE }),
        };
        // The one serve site: whatever a JOB or RESUME resolved to goes out
        // through the same checkpointed streamer and the same counters.
        if let (Some(job), Some((ctx, ot_sender))) = (job, live.as_mut()) {
            let resumed = job.resume_at.is_some();
            let retire = std::mem::take(&mut finished);
            stream_job_checkpointed(shared, transport, ctx, ot_sender, job, retire)?;
            finished = true;
            if resumed {
                shared.tallies.jobs_resumed.fetch_add(1, Relaxed);
            }
            shared.tallies.jobs_completed.fetch_add(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::mpsc;
    use std::time::Duration;

    use bytes::Bytes;
    use max_gc::channel::{seal_frame, Duplex, FrameKind};
    use maxelerator::remote::{ModelStatus, PROTOCOL_VERSION};
    use maxelerator::AcceleratorConfig;
    use proptest::prelude::*;

    use super::*;
    use crate::{demo_weights, FlightTransport, GcService, ServeConfig};

    const WIDTH: usize = 8;
    /// The checkpoint every case's store holds: session, token, job and
    /// columns of a two-element job, one batch (2 × 8 transfers per
    /// element), whose high-water boundary is 2, its batch's end.
    const CHECKPOINT: (u64, u64, u64, u32) = (41, 0xF00D, 3, 1);

    /// One frame of a case as the client puts it on the wire.
    #[derive(Clone, Debug)]
    enum Frame {
        Control(ControlMsg),
        /// Bytes no control decoder accepts: an EXT-tagged or unknown-tag
        /// frame, a cut message, a flipped checksum, a frame too short to
        /// hold one.
        Junk(Bytes),
    }

    /// How a case ended.
    #[derive(Clone, Debug, PartialEq)]
    enum End {
        /// `Ok` without a reap: BYE, a refused HELLO or RESUME, a hang-up.
        Clean,
        /// `Ok` after an idle reap, flight-logged with this phase label.
        Reaped(String),
        /// The phase's one protocol error.
        Refused(&'static str),
        /// Any other typed error.
        Failed,
    }

    #[derive(Debug)]
    struct Case {
        frames: Vec<Frame>,
        /// The unit queue is full: every JOB and RESUME that reaches it
        /// gets BUSY.
        busy: bool,
        draining: bool,
        /// The hang-up after the last frame reads as an idle timeout.
        timed_out: bool,
    }

    /// The legal orderings, written apart from the session loop: the frame
    /// that ends a case (`None`: the hang-up after the last) and how. A
    /// served job streams, so the next frame is read as its EXT and fails.
    #[rustfmt::skip]
    fn reference(case: &Case) -> (Option<usize>, End) {
        let (mut live, mut models, n) = (false, BTreeSet::new(), case.frames.len());
        for (i, frame) in case.frames.iter().enumerate() {
            let (ends, streams) = (|end| (Some(i), end), (Some(i + 1).filter(|&k| k < n), End::Failed));
            let Frame::Control(msg) = frame else { return ends(End::Failed) };
            let known = |id: &Option<u64>| id.is_none_or(|id| models.contains(&id));
            match (live, msg) {
                (_, ControlMsg::MetricsRequest) => {}
                (false, ControlMsg::Hello { version, bit_width, .. }) => {
                    live = !case.draining && *version == PROTOCOL_VERSION && *bit_width == WIDTH as u32;
                    if !live { return ends(End::Clean) }
                }
                (false, ControlMsg::Resume { .. }) if resumable(msg) && !case.busy => return streams,
                (false, ControlMsg::Resume { .. }) => return ends(End::Clean),
                (true, ControlMsg::JobRequest { columns, .. })
                    if !(1..=MAX_JOB_COLUMNS).contains(columns) => return ends(End::Failed),
                (true, ControlMsg::JobRequest { model_id, .. }) if !case.busy && known(model_id) => return streams,
                (true, ControlMsg::JobRequest { .. } | ControlMsg::ModelInfo { .. } | ControlMsg::Ping { .. }) => {}
                (true, ControlMsg::ModelPut { model_id, weights, .. }) => {
                    if weights.iter().all(|w| w.abs() < 128) { models.insert(*model_id); }
                }
                (true, ControlMsg::ModelEvict { model_id }) => { models.remove(model_id); }
                (true, ControlMsg::Bye) => return ends(End::Clean),
                (false, _) => return ends(End::Refused(GREETING)),
                (true, _) => return ends(End::Refused(LIVE)),
            }
        }
        let reap = |phase: &str| if case.timed_out { End::Reaped(phase.into()) } else { End::Clean };
        (None, reap(if live { "idle" } else { "handshake" }))
    }

    /// Whether a RESUME matches the stored checkpoint, at a batch start
    /// whose high-water mark is in reach: the one batch's start, 0.
    fn resumable(msg: &ControlMsg) -> bool {
        let (session, token, job, columns) = CHECKPOINT;
        matches!(*msg, ControlMsg::Resume { session_id, resume_token, job_id, columns: c, boundary, .. }
            if (session_id, resume_token, job_id, c) == (session, token, job, columns) && boundary == 0)
    }

    /// Frame `kind` (mod 58) of the case, with its good and bad field
    /// values drawn from `r`: every [`ControlMsg`] variant, the client's
    /// weighted toward the live phase, and six kinds of junk.
    fn frame(kind: u8, r: u64) -> Frame {
        let pick = |shift: u32, of: &[u64]| of[(r >> shift) as usize % of.len()];
        let (session, token, job, columns) = CHECKPOINT;
        let trace = TraceContext::from_ids(u128::from(r), r);
        let msg = match kind % 58 {
            0..=2 => ControlMsg::Hello {
                version: pick(0, &[u64::from(PROTOCOL_VERSION), 6, r % 9]) as u16,
                bit_width: pick(4, &[WIDTH as u64, WIDTH as u64, 16]) as u32,
                trace,
            },
            3..=6 => ControlMsg::Resume {
                session_id: pick(0, &[session, session, session, 40]),
                resume_token: pick(2, &[token, token, token, token ^ 1]),
                job_id: pick(4, &[job, job, job, 4]),
                columns: pick(6, &[u64::from(columns), u64::from(columns), 2]) as u32,
                boundary: pick(8, &[0, 0, 1, 2, 5]) as u32,
                digest: ([r as u8; 16], r >> 8),
                trace,
            },
            7..=16 => ControlMsg::JobRequest {
                columns: pick(0, &[0, 1, 1, 1, 2, 65]) as u32,
                model_id: [None, Some(1), Some(2), Some(9)][(r >> 4) as usize % 4],
            },
            17..=22 => {
                let (rows, cols) = (1 + r % 2, 1 + (r >> 1) % 2);
                let weight = pick(2, &[3, 3, 1 << 20]) as i64;
                ControlMsg::ModelPut {
                    model_id: pick(4, &[1, 2]),
                    rows: rows as u32,
                    cols: cols as u32,
                    weights: vec![weight; (rows * cols) as usize],
                }
            }
            23..=26 => ControlMsg::ModelInfo {
                model_id: pick(0, &[1, 2, 9]),
            },
            27..=30 => ControlMsg::ModelEvict {
                model_id: pick(0, &[1, 2, 9]),
            },
            31..=35 => ControlMsg::Ping { nonce: r },
            36..=40 => ControlMsg::MetricsRequest,
            41 | 42 => ControlMsg::Bye,
            43 => ControlMsg::Accept {
                session_id: r,
                ot_seed: r,
                resume_token: r,
                rows: 2,
                cols: 2,
                bit_width: WIDTH as u32,
                acc_width: 32,
                signed: true,
                freq_mhz_bits: r,
            },
            44 => ControlMsg::Reject {
                code: r as u8,
                detail: r as u32,
            },
            45 => ControlMsg::Busy {
                retry_after_ms: r as u32,
                queue_depth: 0,
            },
            46 => ControlMsg::Ready { job_id: r },
            47 => ControlMsg::Stats {
                fabric_cycles: r,
                trace_id: u128::from(r),
                digest: [r as u8; 16],
            },
            48 => ControlMsg::Pong { nonce: r },
            49 => ControlMsg::MetricsReply { body: "{}".into() },
            50 => ControlMsg::ModelStat {
                status: ModelStatus {
                    model_id: r,
                    rows: 2,
                    cols: 2,
                    stock: 0,
                    stock_bytes: 0,
                    served_prepared: 0,
                    served_fallback: 0,
                    generation: r,
                },
            },
            51 => return Frame::Junk(seal_frame(Bytes::from(vec![9, r as u8, 0, 0, 0, 1]))),
            52 => return Frame::Junk(seal_frame(Bytes::from(vec![21 + r as u8 % 200, 0]))),
            53 => {
                let hello = ControlMsg::Hello {
                    version: PROTOCOL_VERSION,
                    bit_width: WIDTH as u32,
                    trace,
                };
                let mut cut = hello.encode().to_vec();
                cut.truncate(r as usize % cut.len());
                return Frame::Junk(seal_frame(Bytes::from(cut)));
            }
            54 => {
                let mut flipped = seal_frame(ControlMsg::Ping { nonce: r }.encode()).to_vec();
                flipped[r as usize % 4] ^= 1 << ((r >> 8) % 8);
                return Frame::Junk(Bytes::from(flipped));
            }
            55 => return Frame::Junk(Bytes::from(vec![r as u8; r as usize % 4])),
            _ => {
                let put = ControlMsg::ModelPut {
                    model_id: 1,
                    rows: 0,
                    cols: 2,
                    weights: Vec::new(),
                };
                return Frame::Junk(seal_frame(put.encode()));
            }
        };
        Frame::Control(msg)
    }

    /// The server's end of a case: its hang-up reads as an idle timeout
    /// when `timed_out`.
    struct Hangup {
        wire: Duplex,
        timed_out: bool,
    }

    impl Transport for Hangup {
        fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
            self.wire.send_frame(kind, frame)
        }

        fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
            self.wire.recv_frame().map_err(|err| match err {
                TransportError::Disconnected if self.timed_out => TransportError::TimedOut,
                err => err,
            })
        }
    }

    /// Runs `case` through [`run_session`] on its own thread, the way a
    /// service session runs (flight ring around the transport), against a
    /// service whose store holds [`CHECKPOINT`]. Returns where and how the
    /// session ended, and whether it replied after the last frame it read.
    fn run(case: &Case) -> (Option<usize>, End, bool) {
        let mut cfg = ServeConfig::new(
            AcceleratorConfig::new(WIDTH),
            demo_weights(2, 2, WIDTH, 7),
            7,
        );
        cfg.workers = 1;
        // No stock: a model JOB always takes the queue, so BUSY is decided
        // by `busy` alone.
        cfg.registry_target_stock = 0;
        if case.busy {
            (cfg.start_paused, cfg.queue_capacity) = (true, 1);
        }
        let service = GcService::start(cfg);
        let shared = Arc::clone(&service.shared);
        if case.busy {
            let request = JobRequest {
                columns: 1,
                seed: 1,
                weights: Arc::clone(&shared.weights),
                start_element: 0,
                trace: TraceContext::none(),
            };
            assert!(shared.pool.submit(request).is_ok(), "fill the queue");
        }
        if case.draining {
            service.drain();
        }
        let (session, token, job, columns) = CHECKPOINT;
        let start = OtCursor {
            session: job,
            counter: 0,
        };
        let record = SessionCheckpoint {
            session_id: session,
            resume_token: token,
            session_seed: derive_seed(7, session),
            next_job: job + 1,
            job_id: job,
            columns,
            job_seed: 9,
            model_id: None,
            snapshots: vec![(0, start, TranscriptDigest::new())],
        };
        assert!(shared.journal.save(&record).1.is_ok());
        shared.journal.advance(session, 2);

        let (server_end, mut client_end) = Duplex::pair();
        for frame in &case.frames {
            let bytes = match frame {
                Frame::Control(msg) => seal_frame(msg.encode()),
                Frame::Junk(bytes) => bytes.clone(),
            };
            client_end
                .send_frame(FrameKind::Raw, bytes)
                .expect("queue a frame");
        }
        drop(client_end);
        let flight = Arc::new(FlightRecorder::new(1024));
        let (done, finished) = mpsc::channel();
        let (ring, timed_out) = (Arc::clone(&flight), case.timed_out);
        let session = std::thread::spawn(move || {
            let wire = FlightTransport::new(
                Hangup {
                    wire: server_end,
                    timed_out,
                },
                Arc::clone(&ring),
            );
            let outcome = run_session(&shared, wire, 0, Some(&ring), &mut 0);
            let _ = done.send(());
            outcome
        });
        // A panic drops `done` at once; a hang runs into the deadline.
        let deadline = finished.recv_timeout(Duration::from_secs(20));
        assert!(
            deadline != Err(mpsc::RecvTimeoutError::Timeout),
            "session hung on {case:?}"
        );
        let outcome = session.join().expect("the session panicked");
        service.shutdown();

        let events = flight.events();
        let reads: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind == "frame.recv")
            .collect();
        let hung_up = events.iter().any(|e| e.kind == "frame.recv.error");
        let after_last = reads.last().map_or(0, |&i| i + 1);
        let replied = events[after_last..].iter().any(|e| e.kind == "frame.send");
        let end = match outcome {
            Ok(()) => match events.iter().find(|e| e.kind == "deadline.reap") {
                Some(reap) => End::Reaped(reap.detail.clone()),
                None => End::Clean,
            },
            Err(AcceleratorError::Protocol { what }) if what == GREETING || what == LIVE => {
                End::Refused(what)
            }
            Err(_) => End::Failed,
        };
        let ended_at = if hung_up {
            None
        } else {
            reads.len().checked_sub(1)
        };
        (ended_at, end, replied)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The keystone: any frame sequence ends in `Ok` or a typed error
        /// within its deadline, never a panic, at the frame and in the way
        /// the reference grammar says; an out-of-phase frame gets the
        /// phase's one protocol error and no reply.
        #[test]
        fn any_frame_sequence_ends_where_the_grammar_says(
            opening in 0u8..3,
            draws in prop::collection::vec((any::<u8>(), any::<u64>()), 0..10),
            flags in 0u8..16,
        ) {
            // One case in four drains: a draining service ends at HELLO.
            let (busy, timed_out, draining) = (flags & 1 != 0, flags & 2 != 0, flags >= 12);
            // Two cases in three open with a good HELLO, so most reach the
            // live phase.
            let hello = Frame::Control(ControlMsg::Hello {
                version: PROTOCOL_VERSION,
                bit_width: WIDTH as u32,
                trace: TraceContext::none(),
            });
            let frames = std::iter::repeat_n(hello, usize::from(opening > 0))
                .chain(draws.iter().map(|&(kind, r)| frame(kind, r)))
                .collect();
            let case = Case { frames, busy, draining, timed_out };
            let (ended_at, end, replied) = run(&case);
            prop_assert_eq!((ended_at, end.clone()), reference(&case), "{:?}", case);
            if let End::Refused(_) = end {
                prop_assert!(!replied, "replied to an out-of-phase frame: {:?}", case);
            }
        }
    }
}
