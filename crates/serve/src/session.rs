//! Per-session protocol loop: handshake or resume, job dispatch,
//! heartbeats, round checkpoints, idle reaping.
//!
//! One session = one client connection = one thread (blocking transports).
//! The loop owns the transport and the session's OT sender state; garbling
//! happens elsewhere, on the unit pool, which hands each element over as it
//! is produced through an unbounded channel — so a slow client streaming
//! rounds never occupies a garbling unit.
//!
//! A connection opens with either HELLO (fresh session) or RESUME
//! (reconnect into an interrupted job, validated against the checkpoint
//! store, [`Journal`](crate::journal::Journal)). During the job's
//! per-element EXT/CIPHER/ROUNDS exchange (the client sends each EXT one
//! element ahead of its evaluation) the transport runs under the per-step
//! deadline; between jobs it falls back to the idle timeout, and PING/PONG
//! heartbeats keep an intentionally quiet session alive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use max_crypto::TranscriptDigest;
use max_gc::Transport;
use max_ot::iknp::{OtExtSender, OtSenderState};
use max_registry::{Acquired, PreparedStream, RegisterError};
use max_telemetry::{FlightRecorder, TraceContext};
use maxelerator::remote::{
    accept_hello, derive_job_seed, derive_seed, deterministic_resume_token, recv_control,
    send_control, stream_materialized_job_from, ControlMsg, JobSource, REJECT_DRAINING,
    REJECT_MODEL, REJECT_OVERLOAD, REJECT_RESUME, STREAM_DIGEST_MISMATCH,
};
use maxelerator::AcceleratorError;

use crate::journal::Durability;
use crate::resume::SessionCheckpoint;
use crate::scheduler::JobRequest;
use crate::service::ServiceShared;

/// Largest matmul a single job request may ask for (columns).
pub const MAX_JOB_COLUMNS: u32 = 64;

/// Draws an unguessable per-session resume token from OS entropy.
///
/// Deliberately *not* derived from the seed chain: [`derive_seed`] is an
/// invertible bijection and `ot_seed` (also seed-derived) is published in
/// ACCEPT, so a seed-derived token would let any client invert its own
/// `ot_seed` back to `base_seed` and forge every other session's token.
fn fresh_resume_token() -> u64 {
    let mut buf = [0u8; 8];
    max_telemetry::os_entropy(&mut buf);
    u64::from_le_bytes(buf)
}

/// Identity and seed material of a live session, common to the fresh and
/// resumed entry paths, plus the session's flight ring (shared with the
/// transport wrapper).
struct SessionCtx<'a> {
    session_id: u64,
    session_seed: u64,
    resume_token: u64,
    next_job: u64,
    trace: TraceContext,
    flight: Option<&'a FlightRecorder>,
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

/// A JOB or RESUME resolved to what will be served: the element source,
/// and the identity a [`SessionCheckpoint`] must record to rebuild it after
/// a disconnect. Every way a job can arrive — warm stock, a starved fallback
/// ticket, the session default, a checkpoint — ends in one of these, and
/// `session_loop` serves it through its single [`stream_job_checkpointed`]
/// call.
struct ResolvedJob {
    job_id: u64,
    columns: u32,
    job_seed: u64,
    /// Prepared model the job ran against (`None` = session default
    /// matrix); recorded in checkpoints so a RESUME re-garbles from the
    /// registry's weights.
    model_id: Option<u64>,
    /// The model registration's weights digest, bound into the checkpoint
    /// (see [`checkpoint_token`]).
    registration: Option<[u8; 16]>,
    /// Warm stock with its fill-time digest, or the hand-off of the pool
    /// unit garbling the job right now.
    source: JobSource,
    /// Where the exchange starts, and the transcript digest at that
    /// boundary: element zero and a fresh digest unless `resumed`.
    start_element: usize,
    digest: TranscriptDigest,
    /// Continues a checkpointed job instead of starting one.
    resumed: bool,
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

/// Turns a job away with BUSY, counted; the session stays usable.
fn send_busy<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    retry_after_ms: u32,
    queue_depth: usize,
) -> Result<(), AcceleratorError> {
    shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
    send_control(
        transport,
        &ControlMsg::Busy {
            retry_after_ms,
            queue_depth: queue_depth as u32,
        },
    )
}

/// The empty checkpoint window of `job`: the session's identity and the
/// job's, with no snapshot yet.
fn job_window(ctx: &SessionCtx<'_>, job: &ResolvedJob) -> SessionCheckpoint<OtSenderState> {
    SessionCheckpoint {
        session_id: ctx.session_id,
        resume_token: checkpoint_token(ctx.resume_token, job.registration.as_ref()),
        session_seed: ctx.session_seed,
        next_job: job.job_id + 1,
        job_id: job.job_id,
        columns: job.columns,
        job_seed: job.job_seed,
        model_id: job.model_id,
        snapshots: Vec::with_capacity(3),
    }
}

/// Saves the window in the checkpoint store. The pre-READY floor (the
/// window's newest boundary is the job's first) is an ordered record; every
/// later boundary is a barrier, durable before the element's frames go out
/// (see the [`crate::journal`] module docs). A failed append degrades
/// durability, not availability: it is flight-logged, and the session
/// keeps streaming. A session the save evicted is counted and logged.
fn save_window(
    shared: &ServiceShared,
    ctx: &SessionCtx<'_>,
    window: &SessionCheckpoint<OtSenderState>,
    durability: Durability,
) {
    let (evicted, written) = shared.journal.save(window, durability);
    if let Some(victim) = evicted {
        shared.resume_evicted.fetch_add(1, Ordering::Relaxed);
        if let Some(flight) = ctx.flight {
            flight.log("resume.evicted", format!("session {victim}"), victim);
        }
    }
    if let Err(err) = written {
        if let Some(flight) = ctx.flight {
            flight.log("journal.error", format!("{err}"), 0);
        }
    }
}

/// Streams one job under the per-step deadline, saving the OT sender's
/// cursor window — its last two element boundaries, covering the client's
/// two possible rollback points — in the checkpoint store at each one. The
/// job's completion removes the window; a failure leaves it for RESUME. A
/// job whose source fails before READY passed no boundary: it fails with no
/// checkpoint.
fn stream_job_checkpointed<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    ctx: &SessionCtx<'_>,
    ot_sender: &mut OtExtSender,
    job: &ResolvedJob,
) -> Result<(), AcceleratorError> {
    let _stream_phase = shared
        .recorder
        .as_ref()
        .map(|rec| rec.phase_span(ctx.trace, "server/stream"));
    let mut window = job_window(ctx, job);
    let mut digest = job.digest.clone();
    if shared.step_timeout.is_some() {
        transport.set_idle_timeout(shared.step_timeout);
    }
    let result = stream_materialized_job_from(
        transport,
        &job.source,
        ot_sender,
        &mut digest,
        job.job_id,
        ctx.trace,
        job.start_element,
        // The first call is the pre-job boundary, before READY: a process
        // crash anywhere in the exchange then has a floor to resume from.
        // It is an ordered record, durable with the first element's barrier.
        |next, sender, boundary_digest| {
            let durability = if next == job.start_element {
                Durability::Ordered
            } else {
                Durability::Barrier
            };
            window
                .snapshots
                .push((next, sender.export_state(), boundary_digest.clone()));
            if window.snapshots.len() > 2 {
                window.snapshots.remove(0);
            }
            save_window(shared, ctx, &window, durability);
        },
    );
    transport.set_idle_timeout(shared.idle_timeout);
    match result {
        Ok(()) => {
            // The job finished on this connection: a restart must not
            // resurrect (and a reconnect must not replay) it.
            let _ = shared.journal.remove(ctx.session_id);
            Ok(())
        }
        // READY never went out: nothing to resume.
        Err(err) if window.snapshots.is_empty() => Err(err),
        Err(err) => {
            if matches!(err, AcceleratorError::Integrity { .. }) {
                shared.integrity_rejects.fetch_add(1, Ordering::Relaxed);
                if let Some(flight) = ctx.flight {
                    flight.log("integrity.reject", format!("{err}"), job.job_id);
                }
                // A prepared stream that no longer matches its fill-time
                // digest is cache/disk rot, not a wire fault: count the
                // drop so operators can see material decaying in stock.
                if matches!(err, AcceleratorError::Integrity { what } if what == STREAM_DIGEST_MISMATCH)
                {
                    shared.registry.note_integrity_drop();
                }
            }
            // The window saved at the last boundary stays in the store.
            let elements_kept = window
                .snapshots
                .last()
                .map_or(0, |(next, _, _)| *next as u64);
            shared.checkpoints_saved.fetch_add(1, Ordering::Relaxed);
            trace_instant(shared, ctx.trace, "server/checkpoint");
            if let Some(flight) = ctx.flight {
                flight.log(
                    "checkpoint.saved",
                    format!("job {}", job.job_id),
                    elements_kept,
                );
            }
            Err(err)
        }
    }
}

/// Refuses a handshake or a model request with a typed REJECT.
fn reject<T: Transport>(transport: &mut T, code: u8, detail: u32) -> Result<(), AcceleratorError> {
    send_control(transport, &ControlMsg::Reject { code, detail })
}

/// Runs one session over `transport` until BYE, disconnect, idle timeout,
/// or a protocol violation.
///
/// Returns the trace id the client put in its HELLO/RESUME (0 = untraced),
/// which tags the flight-recorder dump of an error-ending session, and how
/// the session ended: `Ok` for clean closes (BYE, disconnect between jobs,
/// idle timeout, handshake rejection), the killing error otherwise. Every
/// tally lands on the service's shared counters as it happens.
pub(crate) fn run_session<T: Transport>(
    shared: &ServiceShared,
    mut transport: T,
    session_id: u64,
    flight: Option<&FlightRecorder>,
) -> (u128, Result<(), AcceleratorError>) {
    let mut trace_id = 0;
    let outcome = session_loop(shared, &mut transport, session_id, &mut trace_id, flight);
    (trace_id, outcome)
}

fn session_loop<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    session_id: u64,
    trace_id: &mut u128,
    flight: Option<&FlightRecorder>,
) -> Result<(), AcceleratorError> {
    transport.set_idle_timeout(shared.idle_timeout);

    // METRICS is valid before the handshake (operators poll without
    // becoming a session), so keep answering until a real first frame.
    let first = loop {
        match recv_control(transport) {
            Ok(ControlMsg::MetricsRequest) => {
                send_control(
                    transport,
                    &ControlMsg::MetricsReply {
                        body: shared.metrics_json(),
                    },
                )?;
            }
            Ok(msg) => break msg,
            Err(AcceleratorError::Disconnected) => return Ok(()),
            Err(AcceleratorError::Transport(max_gc::channel::TransportError::TimedOut)) => {
                if let Some(flight) = flight {
                    flight.log("deadline.reap", "handshake", 0);
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    };

    let (mut ctx, mut ot_sender, mut pending) = match first {
        ControlMsg::Hello { trace, .. } => {
            *trace_id = trace.trace_id;
            if shared.is_draining() {
                reject(transport, REJECT_DRAINING, 0)?;
                return Ok(());
            }
            if shared.breaker.should_shed() {
                if let Some(flight) = flight {
                    flight.log(
                        "breaker.shed",
                        "handshake",
                        u64::from(shared.breaker.config().retry_after_ms),
                    );
                }
                reject(
                    transport,
                    REJECT_OVERLOAD,
                    shared.breaker.config().retry_after_ms,
                )?;
                return Ok(());
            }
            let session_seed = derive_seed(shared.base_seed, session_id);
            let resume_token = if shared.deterministic_resume_tokens {
                // Test-only reproducibility escape hatch — forgeable; see
                // `ServeConfig::deterministic_resume_tokens`.
                deterministic_resume_token(session_seed)
            } else {
                fresh_resume_token()
            };
            let Some(ot_sender) = accept_hello(
                transport,
                &first,
                &shared.config,
                &shared.weights,
                session_id,
                session_seed,
                resume_token,
            )?
            else {
                return Ok(());
            };
            trace_instant(shared, trace, "server/handshake");
            (
                SessionCtx {
                    session_id,
                    session_seed,
                    resume_token,
                    next_job: 0,
                    trace,
                    flight,
                },
                ot_sender,
                None,
            )
        }
        ControlMsg::Resume {
            session_id: resumed_id,
            resume_token,
            job_id,
            columns,
            elements_done,
            trace,
        } => {
            *trace_id = trace.trace_id;
            // Resumes finish work already admitted: allowed while draining
            // and while the breaker sheds new load. A model job re-garbles
            // from the registry's weights with the checkpoint's seed, so it
            // resumes only against the registration it ran on: an evicted
            // model has none, and a re-PUT one fails the token check (see
            // `checkpoint_token`) — the same refusal as unknown state.
            let start_element = elements_done as usize;
            let checkpoint = shared.journal.lookup(resumed_id);
            let registration = checkpoint.as_ref().and_then(|cp| match cp.model_id {
                None => Some((Arc::clone(&shared.weights), None)),
                Some(model_id) => shared
                    .registry
                    .registration(model_id)
                    .map(|(weights, digest)| (weights, Some(digest))),
            });
            let resumable =
                checkpoint
                    .zip(registration)
                    .and_then(|(cp, (weights, registration))| {
                        let valid = cp.resume_token
                            == checkpoint_token(resume_token, registration.as_ref())
                            && cp.job_id == job_id
                            && cp.columns == columns;
                        let (sender, digest) = cp.snapshot_at(start_element).filter(|_| valid)?;
                        Some((sender.clone(), digest.clone(), weights, registration, cp))
                    });
            let Some((sender, digest, weights, registration, checkpoint)) = resumable else {
                reject(transport, REJECT_RESUME, 0)?;
                return Ok(());
            };
            let request = JobRequest {
                columns,
                seed: checkpoint.job_seed,
                weights,
                start_element,
                trace,
            };
            let pieces = match shared.pool.submit(request) {
                Ok(pieces) => pieces,
                Err(full) => {
                    // The checkpoint stays put; the client backs off and
                    // re-sends RESUME on its next connection.
                    send_busy(shared, transport, shared.retry_after_ms, full.queue_depth)?;
                    return Ok(());
                }
            };
            let ctx = SessionCtx {
                session_id: resumed_id,
                session_seed: checkpoint.session_seed,
                resume_token,
                next_job: checkpoint.next_job,
                trace,
                flight,
            };
            trace_instant(shared, trace, "server/resume_restore");
            if let Some(flight) = flight {
                flight.log(
                    "resume.restored",
                    format!("job {job_id}"),
                    u64::from(elements_done),
                );
            }
            let resumed = ResolvedJob {
                job_id,
                columns,
                job_seed: checkpoint.job_seed,
                model_id: checkpoint.model_id,
                registration,
                source: JobSource::Garbling(pieces),
                start_element,
                digest,
                resumed: true,
            };
            (ctx, sender, Some(resumed))
        }
        _ => {
            return Err(AcceleratorError::Protocol {
                what: "expected HELLO or RESUME",
            })
        }
    };

    // The one serve site: whatever a JOB or RESUME resolved to goes out
    // through the same checkpointed streamer and the same counters.
    loop {
        let job = match pending.take() {
            Some(job) => job,
            None => match next_job(shared, transport, &mut ctx)? {
                Some(job) => job,
                None => break,
            },
        };
        stream_job_checkpointed(shared, transport, &ctx, &mut ot_sender, &job)?;
        if job.resumed {
            shared.jobs_resumed.fetch_add(1, Ordering::Relaxed);
        }
        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Answers control frames between jobs until a JOB resolves to a stream
/// (`Some`) or the session ends cleanly — BYE, disconnect, idle reap
/// (`None`). A JOB answered with `REJECT(MODEL)` or BUSY keeps the loop
/// going: those are per-job refusals, not session errors.
fn next_job<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    ctx: &mut SessionCtx<'_>,
) -> Result<Option<ResolvedJob>, AcceleratorError> {
    let flight = ctx.flight;
    loop {
        match recv_control(transport) {
            Ok(ControlMsg::JobRequest { columns, model_id }) => {
                if columns == 0 || columns > MAX_JOB_COLUMNS {
                    return Err(AcceleratorError::Protocol {
                        what: "JOB column count out of range",
                    });
                }
                let ticket = match model_id {
                    None => None,
                    Some(id) => match shared.registry.acquire(id, columns) {
                        None => {
                            // Unknown model is a per-job refusal, not a
                            // session error: the client may PUT and retry.
                            if let Some(flight) = flight {
                                flight.log("model.unknown", format!("model {id}"), id);
                            }
                            reject(transport, REJECT_MODEL, 0)?;
                            continue;
                        }
                        Some(Acquired::Prepared(stream)) => {
                            // The warm path never touches the breaker or the
                            // pool: the online phase is OT plus frame replay,
                            // which is exactly the capacity the breaker is NOT
                            // guarding.
                            let PreparedStream {
                                model_id,
                                generation,
                                seed,
                                job,
                                digest,
                                registration,
                            } = *stream;
                            let job_id = ctx.next_job;
                            ctx.next_job += 1;
                            shared.jobs_prepared.fetch_add(1, Ordering::Relaxed);
                            trace_instant(shared, ctx.trace, "server/prepared_serve");
                            if let Some(flight) = flight {
                                flight.log(
                                    "model.prepared",
                                    format!("model {model_id}"),
                                    generation,
                                );
                            }
                            return Ok(Some(ResolvedJob {
                                job_id,
                                columns,
                                job_seed: seed,
                                model_id: Some(model_id),
                                registration: Some(registration),
                                source: JobSource::Materialized {
                                    job,
                                    expected_digest: digest,
                                },
                                start_element: 0,
                                digest: TranscriptDigest::new(),
                                resumed: false,
                            }));
                        }
                        Some(Acquired::Starved(ticket)) => {
                            // Stock exhausted (or a shape with no prepared
                            // form): fill one stream on the pool from the
                            // ticket's fresh generation. Never an error.
                            if let Some(flight) = flight {
                                flight.log(
                                    "model.starved",
                                    format!("model {id}"),
                                    ticket.generation,
                                );
                            }
                            Some(ticket)
                        }
                    },
                };
                if shared.breaker.should_shed() {
                    let retry_after_ms = shared.breaker.config().retry_after_ms;
                    if let Some(flight) = flight {
                        flight.log("breaker.shed", "job", u64::from(retry_after_ms));
                    }
                    send_busy(shared, transport, retry_after_ms, shared.pool.depth())?;
                    continue;
                }
                let job_id = ctx.next_job;
                let job_seed = ticket.as_ref().map_or_else(
                    || derive_job_seed(ctx.session_seed, job_id),
                    |ticket| ticket.seed,
                );
                let registration = ticket.as_ref().map(|ticket| ticket.registration);
                let request = JobRequest {
                    columns,
                    seed: job_seed,
                    weights: ticket.map_or_else(|| Arc::clone(&shared.weights), |t| t.weights),
                    start_element: 0,
                    trace: ctx.trace,
                };
                match shared.pool.submit(request) {
                    Ok(pieces) => {
                        shared.breaker.note_ok();
                        ctx.next_job += 1;
                        if let Some(id) = model_id {
                            // Only now has the fallback served anything: a
                            // ticket shed or queued out above got BUSY.
                            shared.registry.note_fallback_served(id);
                        }
                        return Ok(Some(ResolvedJob {
                            job_id,
                            columns,
                            job_seed,
                            model_id,
                            registration,
                            source: JobSource::Garbling(pieces),
                            start_element: 0,
                            digest: TranscriptDigest::new(),
                            resumed: false,
                        }));
                    }
                    Err(full) => {
                        shared.breaker.note_queue_full();
                        send_busy(shared, transport, shared.retry_after_ms, full.queue_depth)?;
                    }
                }
            }
            Ok(ControlMsg::ModelPut {
                model_id,
                rows: _,
                cols,
                weights,
            }) => {
                // Reshape row-major; the decoder already enforced
                // `weights.len() == rows * cols` and the element cap.
                let matrix: Vec<Vec<i64>> = if cols == 0 {
                    Vec::new()
                } else {
                    weights.chunks(cols as usize).map(<[i64]>::to_vec).collect()
                };
                match shared.put_model(model_id, matrix) {
                    Ok(status) => {
                        if let Some(flight) = flight {
                            flight.log("model.put", format!("model {model_id}"), model_id);
                        }
                        send_control(transport, &ControlMsg::ModelStat { status })?;
                    }
                    Err(err) => {
                        // A refused registration keeps the session alive:
                        // the detail tells the client what to fix.
                        let detail: u8 = match err {
                            RegisterError::EmptyModel => 1,
                            RegisterError::RaggedRow { .. } => 2,
                            RegisterError::TooLarge { .. } => 3,
                            RegisterError::ValueOutOfRange { .. } => 4,
                            RegisterError::FrameTooLarge { .. } => 5,
                        };
                        if let Some(flight) = flight {
                            flight.log("model.put_rejected", format!("{err}"), u64::from(detail));
                        }
                        reject(transport, REJECT_MODEL, u32::from(detail))?;
                    }
                }
            }
            Ok(ControlMsg::ModelInfo { model_id }) => match shared.registry.status(model_id) {
                Some(status) => send_control(transport, &ControlMsg::ModelStat { status })?,
                None => reject(transport, REJECT_MODEL, 0)?,
            },
            Ok(ControlMsg::ModelEvict { model_id }) => match shared.evict_model(model_id) {
                Some(status) => {
                    if let Some(flight) = flight {
                        flight.log("model.evicted", format!("model {model_id}"), model_id);
                    }
                    send_control(transport, &ControlMsg::ModelStat { status })?;
                }
                None => reject(transport, REJECT_MODEL, 0)?,
            },
            Ok(ControlMsg::Ping { nonce }) => {
                send_control(transport, &ControlMsg::Pong { nonce })?;
            }
            Ok(ControlMsg::MetricsRequest) => {
                send_control(
                    transport,
                    &ControlMsg::MetricsReply {
                        body: shared.metrics_json(),
                    },
                )?;
            }
            Ok(ControlMsg::Bye) => {
                // A clean goodbye retires any stale checkpoint this session
                // id left behind on an earlier connection.
                let _ = shared.journal.remove(ctx.session_id);
                return Ok(None);
            }
            Err(AcceleratorError::Disconnected) => return Ok(None),
            Err(AcceleratorError::Transport(max_gc::channel::TransportError::TimedOut)) => {
                if let Some(flight) = flight {
                    flight.log("deadline.reap", "idle", 0);
                }
                return Ok(None);
            }
            Ok(_) => {
                return Err(AcceleratorError::Protocol {
                    what: "expected JOB, MODEL, PING, or BYE",
                })
            }
            Err(e) => return Err(e),
        }
    }
}
