//! Per-session protocol loop: handshake or resume, job dispatch,
//! heartbeats, round checkpoints, idle reaping.
//!
//! One session = one client connection = one thread (blocking transports).
//! The loop owns the transport and the session's OT sender state; garbling
//! happens elsewhere, on the unit pool, so a slow client streaming rounds
//! never occupies a garbling unit.
//!
//! A connection opens with either HELLO (fresh session) or RESUME
//! (reconnect into an interrupted job, validated against the
//! [`ResumeRegistry`](crate::resume::ResumeRegistry)). During the
//! lock-step job exchange the transport runs under the per-step deadline;
//! between jobs it falls back to the idle timeout, and PING/PONG
//! heartbeats keep an intentionally quiet session alive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;

use max_crypto::TranscriptDigest;
use max_gc::Transport;
use max_ot::iknp::{self, OtExtSender};
use max_registry::{Acquired, PreparedStream, RegisterError};
use max_telemetry::{FlightRecorder, TraceContext};
use maxelerator::remote::{
    derive_seed, recv_control, send_control, stream_materialized_job_from, ControlMsg,
    MaterializedJob, PROTOCOL_VERSION, REJECT_DRAINING, REJECT_MODEL, REJECT_OVERLOAD,
    REJECT_RESUME, REJECT_VERSION, REJECT_WIDTH, STREAM_DIGEST_MISMATCH,
};
use maxelerator::AcceleratorError;

use crate::resume::SessionCheckpoint;
use crate::scheduler::{JobRequest, JobResult};
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

/// How one session ended, with its tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Server-assigned session id (the *resumed* id for reconnects).
    pub session_id: u64,
    /// Jobs garbled and streamed to completion.
    pub jobs_completed: u64,
    /// Jobs turned away with BUSY.
    pub busy_rejections: u64,
    /// Jobs continued from a round checkpoint on this connection.
    pub jobs_resumed: u64,
    /// Model jobs served from a warm pre-garbled stream on this connection
    /// (no garbling on the online path).
    pub jobs_prepared: u64,
    /// Round checkpoints deposited when this connection died mid-job.
    pub checkpoints_saved: u64,
    /// The session ended because the idle timeout fired.
    pub idle_reaped: bool,
    /// The handshake was refused (draining / version / width / overload /
    /// unknown resume).
    pub rejected: bool,
    /// Trace id the client put in its HELLO/RESUME (0 = untraced); tags
    /// the flight-recorder dump of an error-ending session.
    pub trace_id: u128,
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

/// A JOB or RESUME resolved to what will be served: the stream, and the
/// identity a [`SessionCheckpoint`] must record to rebuild it after a
/// disconnect. Every way a job can arrive — warm stock, a starved fallback
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
    stream: MaterializedJob,
    /// Fill-time digest of a prepared stream, re-verified (pipelined
    /// behind READY) before any material frame leaves; `None` for
    /// pool-garbled and resumed jobs, whose material was never cached.
    expected_digest: Option<[u8; 16]>,
    /// Where the exchange starts, and the transcript digest at that
    /// boundary: element zero and a fresh digest unless `resumed`.
    start_element: usize,
    digest: TranscriptDigest,
    /// Continues a checkpointed job instead of starting one.
    resumed: bool,
}

/// Waits for the unit pool's stream for an admitted job.
fn await_stream(
    result_rx: &mpsc::Receiver<JobResult>,
) -> Result<MaterializedJob, AcceleratorError> {
    result_rx.recv().map_err(|_| AcceleratorError::Protocol {
        what: "unit pool shut down mid-job",
    })?
}

/// Turns a job away with BUSY, counted; the session stays usable.
fn send_busy<T: Transport>(
    shared: &ServiceShared,
    summary: &mut SessionSummary,
    transport: &mut T,
    retry_after_ms: u32,
    queue_depth: usize,
) -> Result<(), AcceleratorError> {
    summary.busy_rejections += 1;
    shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
    send_control(
        transport,
        &ControlMsg::Busy {
            retry_after_ms,
            queue_depth: queue_depth as u32,
        },
    )
}

/// Builds the checkpoint covering the current snapshot window — the value
/// both the in-memory registry (on error) and the durable journal (every
/// boundary) persist.
fn window_checkpoint(
    ctx: &SessionCtx<'_>,
    job: &ResolvedJob,
    snapshots: &VecDeque<(usize, OtExtSender, TranscriptDigest)>,
) -> SessionCheckpoint {
    SessionCheckpoint {
        session_id: ctx.session_id,
        resume_token: ctx.resume_token,
        session_seed: ctx.session_seed,
        next_job: job.job_id + 1,
        job_id: job.job_id,
        columns: job.columns,
        job_seed: job.job_seed,
        model_id: job.model_id,
        snapshots: snapshots.iter().cloned().collect(),
    }
}

/// Journals the current window, if a journal is configured. A failed
/// append degrades durability, not availability: it is counted and flight-
/// logged, and the session keeps streaming from memory.
fn journal_window(
    shared: &ServiceShared,
    ctx: &SessionCtx<'_>,
    job: &ResolvedJob,
    snapshots: &VecDeque<(usize, OtExtSender, TranscriptDigest)>,
) {
    let Some(journal) = &shared.journal else {
        return;
    };
    if let Err(err) = journal.append_checkpoint(&window_checkpoint(ctx, job, snapshots)) {
        if let Some(flight) = ctx.flight {
            flight.log("journal.error", format!("{err}"), 0);
        }
    }
}

/// Appends a journal tombstone for `session_id` after its in-flight work
/// stopped needing recovery (job done, clean BYE, or checkpoint evicted).
fn journal_remove(shared: &ServiceShared, session_id: u64) {
    if let Some(journal) = &shared.journal {
        let _ = journal.append_remove(session_id);
    }
}

/// Streams one job under the per-step deadline, snapshotting the OT sender
/// at each element boundary; every boundary is journaled (durable) and on
/// failure the final window is deposited in the in-memory registry,
/// covering the client's two possible rollback points.
fn stream_job_checkpointed<T: Transport>(
    shared: &ServiceShared,
    summary: &mut SessionSummary,
    transport: &mut T,
    ctx: &SessionCtx<'_>,
    ot_sender: &mut OtExtSender,
    job: &ResolvedJob,
) -> Result<(), AcceleratorError> {
    let _stream_phase = shared
        .recorder
        .as_ref()
        .map(|rec| rec.phase_span(ctx.trace, "server/stream"));
    let mut snapshots: VecDeque<(usize, OtExtSender, TranscriptDigest)> =
        VecDeque::with_capacity(3);
    let mut digest = job.digest.clone();
    snapshots.push_back((job.start_element, ot_sender.clone(), digest.clone()));
    // The pre-job boundary goes to disk before READY: a crash anywhere in
    // the exchange now has a durable floor to resume from.
    journal_window(shared, ctx, job, &snapshots);
    if shared.step_timeout.is_some() {
        transport.set_idle_timeout(shared.step_timeout);
    }
    let result = stream_materialized_job_from(
        transport,
        &job.stream,
        ot_sender,
        &mut digest,
        job.job_id,
        ctx.trace,
        job.start_element,
        job.expected_digest,
        |next, sender, boundary_digest| {
            snapshots.push_back((next, sender.clone(), boundary_digest.clone()));
            if snapshots.len() > 2 {
                snapshots.pop_front();
            }
            journal_window(shared, ctx, job, &snapshots);
        },
    );
    transport.set_idle_timeout(shared.idle_timeout);
    match result {
        Ok(_) => {
            // The job finished on this connection: a restart must not
            // resurrect (and a reconnect must not replay) it.
            journal_remove(shared, ctx.session_id);
            Ok(())
        }
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
            let elements_kept = snapshots.back().map_or(0, |(next, _, _)| *next as u64);
            let evicted = shared.resume.save(window_checkpoint(ctx, job, &snapshots));
            summary.checkpoints_saved += 1;
            shared.checkpoints_saved.fetch_add(1, Ordering::Relaxed);
            trace_instant(shared, ctx.trace, "server/checkpoint");
            if let Some(flight) = ctx.flight {
                flight.log(
                    "checkpoint.saved",
                    format!("job {}", job.job_id),
                    elements_kept,
                );
                if let Some(victim) = evicted {
                    flight.log("resume.evicted", format!("session {victim}"), victim);
                }
            }
            if let Some(victim) = evicted {
                // Keep disk and memory telling the same story: the evicted
                // session can no longer resume, live or after a restart.
                journal_remove(shared, victim);
            }
            Err(err)
        }
    }
}

/// Runs one session over `transport` until BYE, disconnect, idle timeout,
/// or a protocol violation.
///
/// Always returns the session's tallies — a session that dies mid-job is
/// exactly the one whose checkpoint/jobs counters matter — alongside how it
/// ended: `Ok` for clean closes (BYE, disconnect between jobs, idle
/// timeout, handshake rejection), the killing error otherwise.
pub(crate) fn run_session<T: Transport>(
    shared: &ServiceShared,
    mut transport: T,
    session_id: u64,
    flight: Option<Arc<FlightRecorder>>,
) -> (SessionSummary, Result<(), AcceleratorError>) {
    let mut summary = SessionSummary {
        session_id,
        ..SessionSummary::default()
    };
    let outcome = session_loop(
        shared,
        &mut transport,
        session_id,
        &mut summary,
        flight.as_deref(),
    );
    (summary, outcome)
}

fn session_loop<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    session_id: u64,
    summary: &mut SessionSummary,
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
                summary.idle_reaped = true;
                if let Some(flight) = flight {
                    flight.log("deadline.reap", "handshake", 0);
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    };

    let reject = |transport: &mut T,
                  summary: &mut SessionSummary,
                  code: u8,
                  detail: u32|
     -> Result<(), AcceleratorError> {
        summary.rejected = true;
        send_control(transport, &ControlMsg::Reject { code, detail })
    };

    let (mut ctx, mut ot_sender, mut pending) = match first {
        ControlMsg::Hello {
            version,
            bit_width,
            trace,
        } => {
            summary.trace_id = trace.trace_id;
            if shared.is_draining() {
                reject(transport, summary, REJECT_DRAINING, 0)?;
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
                    summary,
                    REJECT_OVERLOAD,
                    shared.breaker.config().retry_after_ms,
                )?;
                return Ok(());
            }
            if version != PROTOCOL_VERSION {
                reject(
                    transport,
                    summary,
                    REJECT_VERSION,
                    u32::from(PROTOCOL_VERSION),
                )?;
                return Ok(());
            }
            if bit_width as usize != shared.config.bit_width {
                reject(
                    transport,
                    summary,
                    REJECT_WIDTH,
                    shared.config.bit_width as u32,
                )?;
                return Ok(());
            }
            let session_seed = derive_seed(shared.base_seed, session_id);
            let ot_seed = derive_seed(session_seed, 0x07);
            let resume_token = if shared.deterministic_resume_tokens {
                // Test-only reproducibility escape hatch — forgeable; see
                // `ServeConfig::deterministic_resume_tokens`.
                derive_seed(session_seed, 0x7e57)
            } else {
                fresh_resume_token()
            };
            send_control(
                transport,
                &ControlMsg::Accept {
                    session_id,
                    ot_seed,
                    resume_token,
                    rows: shared.weights.len() as u32,
                    cols: shared.weights.first().map_or(0, Vec::len) as u32,
                    bit_width: shared.config.bit_width as u32,
                    acc_width: shared.config.acc_width as u32,
                    signed: shared.config.signed,
                    freq_mhz_bits: shared.config.freq_mhz.to_bits(),
                },
            )?;
            let (ot_sender, _client_half) = iknp::setup_pair(ot_seed);
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
            summary.trace_id = trace.trace_id;
            // Resumes finish work already admitted: allowed while draining
            // and while the breaker sheds new load.
            let checkpoint = shared.resume.lookup(resumed_id);
            let valid = checkpoint.as_ref().is_some_and(|cp| {
                cp.resume_token == resume_token
                    && cp.job_id == job_id
                    && cp.columns == columns
                    && cp.snapshot_at(elements_done as usize).is_some()
            });
            let Some(checkpoint) = checkpoint.filter(|_| valid) else {
                reject(transport, summary, REJECT_RESUME, 0)?;
                return Ok(());
            };
            summary.session_id = resumed_id;
            // A model job resumes by re-garbling from the registry's
            // weights with the checkpoint's seed (bit-identical to the
            // consumed stream). If the model was evicted since, the
            // checkpoint is unservable — same refusal as unknown state.
            let weights = match checkpoint.model_id {
                None => Arc::clone(&shared.weights),
                Some(model_id) => match shared.registry.weights(model_id) {
                    Some(weights) => weights,
                    None => {
                        reject(transport, summary, REJECT_RESUME, 0)?;
                        return Ok(());
                    }
                },
            };
            let request = JobRequest {
                session_id: resumed_id,
                job_id,
                columns,
                seed: checkpoint.job_seed,
                weights,
                trace,
            };
            let result_rx = match shared.pool.submit(request) {
                Ok(rx) => rx,
                Err(full) => {
                    // The checkpoint stays put; the client backs off and
                    // re-sends RESUME on its next connection.
                    send_busy(
                        shared,
                        summary,
                        transport,
                        shared.retry_after_ms,
                        full.queue_depth,
                    )?;
                    return Ok(());
                }
            };
            let start_element = elements_done as usize;
            let Some((sender, digest)) = checkpoint
                .snapshot_at(start_element)
                .map(|(sender, digest)| (sender.clone(), digest.clone()))
            else {
                // Unreachable given `valid`, but never panic on peer input.
                reject(transport, summary, REJECT_RESUME, 0)?;
                return Ok(());
            };
            let stream = await_stream(&result_rx)?;
            let ctx = SessionCtx {
                session_id: resumed_id,
                session_seed: checkpoint.session_seed,
                resume_token: checkpoint.resume_token,
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
                stream,
                expected_digest: None,
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
            None => match next_job(shared, summary, transport, &mut ctx)? {
                Some(job) => job,
                None => break,
            },
        };
        stream_job_checkpointed(shared, summary, transport, &ctx, &mut ot_sender, &job)?;
        if job.resumed {
            shared.resume.remove(ctx.session_id);
            summary.jobs_resumed += 1;
            shared.jobs_resumed.fetch_add(1, Ordering::Relaxed);
        }
        summary.jobs_completed += 1;
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
    summary: &mut SessionSummary,
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
                            send_control(
                                transport,
                                &ControlMsg::Reject {
                                    code: REJECT_MODEL,
                                    detail: 0,
                                },
                            )?;
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
                            } = *stream;
                            let job_id = ctx.next_job;
                            ctx.next_job += 1;
                            summary.jobs_prepared += 1;
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
                                stream: job,
                                expected_digest: Some(digest),
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
                    send_busy(
                        shared,
                        summary,
                        transport,
                        retry_after_ms,
                        shared.pool.depth(),
                    )?;
                    continue;
                }
                let job_id = ctx.next_job;
                let job_seed = ticket.as_ref().map_or_else(
                    || derive_seed(ctx.session_seed, 0x100 + job_id),
                    |ticket| ticket.seed,
                );
                let request = JobRequest {
                    session_id: ctx.session_id,
                    job_id,
                    columns,
                    seed: job_seed,
                    weights: ticket.map_or_else(|| Arc::clone(&shared.weights), |t| t.weights),
                    trace: ctx.trace,
                };
                match shared.pool.submit(request) {
                    Ok(result_rx) => {
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
                            stream: await_stream(&result_rx)?,
                            expected_digest: None,
                            start_element: 0,
                            digest: TranscriptDigest::new(),
                            resumed: false,
                        }));
                    }
                    Err(full) => {
                        shared.breaker.note_queue_full();
                        send_busy(
                            shared,
                            summary,
                            transport,
                            shared.retry_after_ms,
                            full.queue_depth,
                        )?;
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
                        };
                        if let Some(flight) = flight {
                            flight.log("model.put_rejected", format!("{err}"), u64::from(detail));
                        }
                        send_control(
                            transport,
                            &ControlMsg::Reject {
                                code: REJECT_MODEL,
                                detail: u32::from(detail),
                            },
                        )?;
                    }
                }
            }
            Ok(ControlMsg::ModelInfo { model_id }) => match shared.registry.status(model_id) {
                Some(status) => send_control(transport, &ControlMsg::ModelStat { status })?,
                None => send_control(
                    transport,
                    &ControlMsg::Reject {
                        code: REJECT_MODEL,
                        detail: 0,
                    },
                )?,
            },
            Ok(ControlMsg::ModelEvict { model_id }) => match shared.evict_model(model_id) {
                Some(status) => {
                    if let Some(flight) = flight {
                        flight.log("model.evicted", format!("model {model_id}"), model_id);
                    }
                    send_control(transport, &ControlMsg::ModelStat { status })?;
                }
                None => send_control(
                    transport,
                    &ControlMsg::Reject {
                        code: REJECT_MODEL,
                        detail: 0,
                    },
                )?,
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
                // id left behind on an earlier connection — in memory and
                // on disk.
                shared.resume.remove(ctx.session_id);
                journal_remove(shared, ctx.session_id);
                return Ok(None);
            }
            Err(AcceleratorError::Disconnected) => return Ok(None),
            Err(AcceleratorError::Transport(max_gc::channel::TransportError::TimedOut)) => {
                summary.idle_reaped = true;
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
