//! The evaluator's side of a served session: the portable session state,
//! resumable per-job progress, and the [`RemoteClient`] that drives both.

use bytes::Bytes;
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::{decode_blocks, FrameKind};
use max_gc::Transport;
use max_ot::iknp::{self, ExtensionKeys, OtCursor, OtExtReceiver, KAPPA};
use max_telemetry::TraceContext;

use super::codec::{
    lend_round_burst, recv_control, recv_marked, reject_reason, seal_ext, send_control, ControlMsg,
    JobShape, ModelHandle, ModelStatus, MAX_MODEL_ELEMENTS, PROTOCOL_VERSION, REJECT_DETAIL_STOCK,
    REJECT_INTEGRITY,
};
use super::job::STREAM_DIGEST_MISMATCH;
use crate::accelerator::ScheduledEvaluator;
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::server::MatvecTranscript;

/// Fetches the server's live metrics snapshot over a bare transport — no
/// handshake required, so it works even while the server is draining.
///
/// # Errors
///
/// Transport failures, or [`AcceleratorError::Protocol`] if the peer
/// answers with anything but a METRICS reply.
pub fn fetch_metrics<T: Transport + ?Sized>(transport: &mut T) -> Result<String, AcceleratorError> {
    send_control(transport, &ControlMsg::MetricsRequest)?;
    match recv_control(transport)? {
        ControlMsg::MetricsReply { body } => Ok(body),
        _ => Err(AcceleratorError::Protocol {
            what: "expected METRICS reply",
        }),
    }
}

/// Evaluates output element `elem` from its opened ROUNDS burst where it
/// arrived: [`lend_round_burst`] lends each of the `rounds` rounds from
/// `burst` (no table byte is copied), the evaluator reads them in place
/// under `labels` (the element's OT labels, `b` per round), and each
/// round's material is counted into `transcript`. Returns the decoded MAC.
///
/// # Errors
///
/// Any malformed burst or round is a typed [`AcceleratorError`]; peer
/// bytes never panic it.
pub(crate) fn evaluate_burst(
    evaluator: &mut ScheduledEvaluator,
    elem: u32,
    burst: &[u8],
    rounds: usize,
    labels: &[Block],
    transcript: &mut MatvecTranscript,
) -> Result<i64, AcceleratorError> {
    let views = lend_round_burst(burst, rounds)?;
    evaluator.begin_element(elem);
    let mut decoded = None;
    for (view, x_labels) in views.iter().zip(labels.chunks(evaluator.bit_width())) {
        transcript.material_bytes += view.wire_bytes() as u64;
        transcript.tables += view.tables.len() as u64;
        transcript.rounds += 1;
        decoded = evaluator.evaluate(view, x_labels)?;
    }
    decoded.ok_or(AcceleratorError::Protocol {
        what: "final round carried no decode bits",
    })
}

/// What a server's reply stands for when it is not the one a request
/// waits for: a REJECT is [`AcceleratorError::Rejected`], a BUSY
/// [`AcceleratorError::Busy`] (retry after the hint), and anything else a
/// protocol violation naming the reply that was `expected`.
fn refusal(reply: ControlMsg, expected: &'static str) -> AcceleratorError {
    match reply {
        ControlMsg::Reject { code, .. } => AcceleratorError::Rejected {
            reason: reject_reason(code),
        },
        ControlMsg::Busy { retry_after_ms, .. } => AcceleratorError::Busy { retry_after_ms },
        _ => AcceleratorError::Protocol { what: expected },
    }
}

/// Everything a client must keep to re-enter its session on a brand-new
/// connection: identity, the resume secret, the negotiated config, and the
/// live OT-receiver state.
///
/// `Clone` is cheap relative to a job and deliberate: a retry loop clones
/// the state per reconnect attempt so a failed attempt does not poison the
/// next one ([`OtExtReceiver`]'s `Clone` is an exact state snapshot). The
/// evaluator's MAC circuit is the configuration's shared one, so a clone
/// copies a pointer to it, not the netlist.
#[derive(Clone)]
pub struct SessionState {
    session_id: u64,
    resume_token: u64,
    trace: TraceContext,
    config: AcceleratorConfig,
    rows: usize,
    cols: usize,
    ot_receiver: OtExtReceiver,
    /// Built once from `config`; every job's elements reset it with
    /// `begin_element`.
    evaluator: ScheduledEvaluator,
}

impl std::fmt::Debug for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The resume token is a bearer secret — keep it out of logs.
        f.debug_struct("SessionState")
            .field("session_id", &self.session_id)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl SessionState {
    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The negotiated configuration (authoritative, from ACCEPT).
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Model rows (length of a matvec result).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Model columns (required length of the client vector).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The trace context this session put on the wire at HELLO.
    pub fn trace(&self) -> TraceContext {
        self.trace
    }
}

/// The client's state at batch start `at`, as it stood before the batch's
/// EXT was prepared: what [`RemoteClient::run_job`] commits once an
/// element of the batch has evaluated, and [`RemoteClient::resume_job`]
/// rolls back to.
///
/// The OT receiver is kept as its [`OtCursor`]: the session's receiver
/// already holds the keys (a pure function of the ACCEPT seed), so two
/// words place it back where the boundary stood.
#[derive(Clone)]
struct Boundary {
    at: usize,
    receiver: OtCursor,
    transcript: MatvecTranscript,
    digest: TranscriptDigest,
}

/// An in-flight (possibly interrupted) job on the client side.
///
/// Progress advances one output element at a time, one OT extension per
/// batch of elements ([`JobShape`]); the embedded checkpoint sits on the
/// start of the batch holding the last evaluated element (a batch whose
/// EXT digest the server has verified), so after a failure
/// [`RemoteClient::resume_job`] can roll the session back and replay from
/// there bit-identically on a fresh connection.
pub struct JobProgress {
    job_id: u64,
    x_columns: Vec<Vec<i64>>,
    pub(super) y: Vec<Vec<i64>>,
    /// Output rows per pass — the session default's rows, or the prepared
    /// model's for a model-backed job (their shapes are independent).
    rows: usize,
    shape: JobShape,
    elements_done: usize,
    transcript: MatvecTranscript,
    digest: TranscriptDigest,
    /// The rollback point: the start of the batch holding the last
    /// evaluated element, or `elements_done` itself right after a start or
    /// a resume.
    checkpoint: Boundary,
    /// The start of the newest batch whose EXT went out, the rollback
    /// point once one of its elements has evaluated.
    newest: Boundary,
    /// Batch 0's sealed EXT, prepared while the JOB was in flight and not
    /// sent yet.
    prepared: Option<(Bytes, PendingBatch)>,
    done: bool,
}

impl std::fmt::Debug for JobProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `x_columns` is the client's private input — keep it out of logs.
        f.debug_struct("JobProgress")
            .field("job_id", &self.job_id)
            .field("elements_done", &self.elements_done)
            .field("total_elements", &self.shape.elements())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl JobProgress {
    /// Server-assigned job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Output elements fully evaluated so far.
    pub fn elements_done(&self) -> usize {
        self.elements_done
    }

    /// Total output elements of the job (`columns * rows`).
    pub fn total_elements(&self) -> usize {
        self.shape.elements()
    }

    /// Consumes a finished job into its per-column results and merged
    /// transcript.
    ///
    /// # Panics
    ///
    /// Panics if the job has not run to completion (STATS received) — an
    /// interrupted job must be driven to completion via
    /// [`RemoteClient::resume_job`] + [`RemoteClient::run_job`] first.
    pub fn into_result(self) -> (Vec<Vec<i64>>, MatvecTranscript) {
        assert!(self.done, "job not finished; resume it first");
        (self.y, self.transcript)
    }
}

/// A batch whose EXT is on the wire: what its elements' CIPHER replies are
/// opened with.
struct PendingBatch {
    /// The batch's first element and its element count.
    start: usize,
    len: usize,
    /// The choice bits of every element of the batch, in order.
    choices: Vec<bool>,
    keys: ExtensionKeys,
    /// The EXT's correction bytes, charged to the transcript when the
    /// batch's first reply arrives, so a checkpoint committed while this
    /// EXT is out excludes them.
    upload_bytes: u64,
}

/// The evaluator side of a served session: handshake once, then run any
/// number of secure matvec/matmul jobs over the transport.
pub struct RemoteClient<T: Transport> {
    pub(super) transport: T,
    state: SessionState,
}

impl<T: Transport> std::fmt::Debug for RemoteClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<T: Transport> RemoteClient<T> {
    /// Opens a session: HELLO with the desired bit-width, then builds the
    /// evaluator from the server's authoritative ACCEPT config and runs the
    /// (modeled) base-OT phase from the published seed.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] if the server refuses the handshake;
    /// transport/protocol errors otherwise.
    pub fn connect(transport: T, bit_width: usize) -> Result<RemoteClient<T>, AcceleratorError> {
        Self::connect_with_trace(transport, bit_width, TraceContext::mint())
    }

    /// [`connect`](RemoteClient::connect) with an explicit trace context
    /// instead of a freshly minted one.
    ///
    /// Pass [`TraceContext::none`] (or any fixed context) when HELLO
    /// frames must be bit-comparable across runs — the transcript-parity
    /// and chaos bit-identity tests do; pass a shared minted context when
    /// several dial attempts should join one trace — `ResilientClient`
    /// does.
    ///
    /// # Errors
    ///
    /// See [`RemoteClient::connect`].
    pub fn connect_with_trace(
        mut transport: T,
        bit_width: usize,
        trace: TraceContext,
    ) -> Result<RemoteClient<T>, AcceleratorError> {
        send_control(
            &mut transport,
            &ControlMsg::Hello {
                version: PROTOCOL_VERSION,
                bit_width: bit_width as u32,
                trace,
            },
        )?;
        match recv_control(&mut transport)? {
            ControlMsg::Accept {
                session_id,
                ot_seed,
                resume_token,
                rows,
                cols,
                bit_width,
                acc_width,
                signed,
                freq_mhz_bits,
            } => {
                if bit_width < 4 || !(bit_width as usize).is_multiple_of(2) {
                    return Err(AcceleratorError::Protocol {
                        what: "ACCEPT bit width",
                    });
                }
                let mut config = AcceleratorConfig::new(bit_width as usize);
                if (acc_width as usize) < 2 * config.bit_width || acc_width > 64 {
                    return Err(AcceleratorError::Protocol {
                        what: "ACCEPT acc width",
                    });
                }
                config = config.with_acc_width(acc_width as usize);
                let freq = f64::from_bits(freq_mhz_bits);
                if !(freq.is_finite() && freq > 0.0) {
                    return Err(AcceleratorError::Protocol {
                        what: "ACCEPT frequency",
                    });
                }
                config = config.with_freq_mhz(freq);
                if !signed {
                    config = config.unsigned();
                }
                let (_sender, ot_receiver) = iknp::setup_pair(ot_seed);
                Ok(RemoteClient {
                    transport,
                    state: SessionState {
                        session_id,
                        resume_token,
                        trace,
                        evaluator: ScheduledEvaluator::new(&config),
                        config,
                        rows: rows as usize,
                        cols: cols as usize,
                        ot_receiver,
                    },
                })
            }
            reply => Err(refusal(reply, "expected ACCEPT or REJECT")),
        }
    }

    /// Re-binds a saved [`SessionState`] to a fresh connection, without any
    /// handshake traffic. Follow with [`RemoteClient::resume_job`] to
    /// continue an interrupted job, or [`RemoteClient::start_job`] is
    /// invalid here — a reattached session must resume first (the server
    /// only honors RESUME as the first frame of a reconnect).
    pub fn reattach(transport: T, state: SessionState) -> RemoteClient<T> {
        RemoteClient { transport, state }
    }

    /// Splits the client back into its transport and portable session
    /// state (e.g. to persist the state across a planned reconnect).
    pub fn into_parts(self) -> (T, SessionState) {
        (self.transport, self.state)
    }

    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.state.session_id
    }

    /// The negotiated configuration (authoritative, from ACCEPT).
    pub fn config(&self) -> &AcceleratorConfig {
        &self.state.config
    }

    /// Model rows (length of a matvec result).
    pub fn rows(&self) -> usize {
        self.state.rows
    }

    /// Model columns (required length of the client vector).
    pub fn cols(&self) -> usize {
        self.state.cols
    }

    /// Borrow of the underlying transport (e.g. for channel statistics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The trace context this session carries (from HELLO).
    pub fn trace(&self) -> TraceContext {
        self.state.trace
    }

    /// Fetches the server's live metrics snapshot (admin METRICS frame).
    ///
    /// Valid between jobs only, like [`ping`](RemoteClient::ping).
    ///
    /// # Errors
    ///
    /// See [`fetch_metrics`].
    pub fn metrics(&mut self) -> Result<String, AcceleratorError> {
        fetch_metrics(&mut self.transport)
    }

    /// Registers `weights` as a prepared model under `model_id` (v5): the
    /// server pre-garbles single-use streams for it during idle time, so later
    /// [`start_model_job`](RemoteClient::start_model_job)s serve from warm
    /// stock. Re-registering an id replaces the matrix and rotates its
    /// seed epoch. Valid between jobs only.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] if the server refuses the matrix
    /// (e.g. weights outside the negotiated bit-width) — the session
    /// stays usable; transport/protocol errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, ragged, or larger than
    /// [`MAX_MODEL_ELEMENTS`] (caller errors, mirroring
    /// [`crate::secure_matvec`]'s input contract).
    pub fn put_model(
        &mut self,
        model_id: u64,
        weights: &[Vec<i64>],
    ) -> Result<ModelStatus, AcceleratorError> {
        assert!(!weights.is_empty(), "model needs at least one row");
        let cols = weights[0].len();
        assert!(cols > 0, "model needs at least one column");
        for row in weights {
            assert_eq!(row.len(), cols, "model rows must be rectangular");
        }
        assert!(
            weights.len() * cols <= MAX_MODEL_ELEMENTS,
            "model exceeds MAX_MODEL_ELEMENTS"
        );
        let flat: Vec<i64> = weights.iter().flatten().copied().collect();
        send_control(
            &mut self.transport,
            &ControlMsg::ModelPut {
                model_id,
                rows: weights.len() as u32,
                cols: cols as u32,
                weights: flat,
            },
        )?;
        self.recv_model_stat()
    }

    /// Queries a prepared model's stock and serve counters (v5). Valid
    /// between jobs only.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] (`unknown prepared model`) if the id
    /// is not registered; transport/protocol errors otherwise.
    pub fn model_info(&mut self, model_id: u64) -> Result<ModelStatus, AcceleratorError> {
        send_control(&mut self.transport, &ControlMsg::ModelInfo { model_id })?;
        self.recv_model_stat()
    }

    /// Drops a prepared model and its stock (v5), returning its final
    /// counters. Valid between jobs only.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] (`unknown prepared model`) if the id
    /// is not registered; transport/protocol errors otherwise.
    pub fn evict_model(&mut self, model_id: u64) -> Result<ModelStatus, AcceleratorError> {
        send_control(&mut self.transport, &ControlMsg::ModelEvict { model_id })?;
        self.recv_model_stat()
    }

    fn recv_model_stat(&mut self) -> Result<ModelStatus, AcceleratorError> {
        match recv_control(&mut self.transport)? {
            ControlMsg::ModelStat { status } => Ok(status),
            reply => Err(refusal(reply, "expected MODEL_STAT or REJECT")),
        }
    }

    /// Runs a matmul `Y = W·X` against a prepared model, like
    /// [`secure_matmul`](RemoteClient::secure_matmul) but shaped by the
    /// model's handle instead of the session default.
    ///
    /// # Errors
    ///
    /// See [`start_model_job`](RemoteClient::start_model_job).
    ///
    /// # Panics
    ///
    /// Panics if `x_columns` is empty or any column length differs from
    /// the handle's `cols`.
    pub fn secure_matmul_model(
        &mut self,
        model: ModelHandle,
        x_columns: &[Vec<i64>],
    ) -> Result<(Vec<Vec<i64>>, MatvecTranscript), AcceleratorError> {
        let mut progress = self.start_model_job(model, x_columns)?;
        self.run_job(&mut progress)?;
        Ok(progress.into_result())
    }

    /// Runs one privacy-preserving matvec `y = W·x` against the server.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Busy`] if the server's queue rejected the job
    /// (the session stays usable — retry after the hint); any other error
    /// means the session is dead (or resumable, see
    /// [`RemoteClient::resume_job`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from [`RemoteClient::cols`] (caller
    /// error, matching [`crate::secure_matvec`]).
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

    /// Runs a matmul `Y = W·X`, column by column in one job.
    ///
    /// Returns the per-column results (`x_columns.len()` vectors of
    /// [`RemoteClient::rows`] elements each) and the merged transcript.
    /// Equivalent to [`start_job`](RemoteClient::start_job) +
    /// [`run_job`](RemoteClient::run_job) for callers that do not track
    /// resumable progress themselves.
    ///
    /// # Errors
    ///
    /// See [`RemoteClient::secure_matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `x_columns` is empty or any column length differs from
    /// [`RemoteClient::cols`].
    pub fn secure_matmul(
        &mut self,
        x_columns: &[Vec<i64>],
    ) -> Result<(Vec<Vec<i64>>, MatvecTranscript), AcceleratorError> {
        let mut progress = self.start_job(x_columns)?;
        self.run_job(&mut progress)?;
        Ok(progress.into_result())
    }

    /// Submits a job and waits for the server to schedule it, preparing the
    /// job's first OT extension (its first batch's EXT) while the JOB is in
    /// flight.
    ///
    /// On READY, returns a [`JobProgress`] whose checkpoints sit at element
    /// zero; drive it with [`RemoteClient::run_job`], which sends that EXT
    /// first. A refusal rolls the OT receiver back, so the session's next
    /// job extends from where this one started.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Busy`] if the queue rejected the job — the
    /// session stays usable, retry after the hint. Transport/protocol
    /// errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `x_columns` is empty or any column length differs from
    /// [`RemoteClient::cols`].
    pub fn start_job(&mut self, x_columns: &[Vec<i64>]) -> Result<JobProgress, AcceleratorError> {
        let rows = self.state.rows;
        let cols = self.state.cols;
        self.start_job_inner(x_columns, rows, cols, None)
    }

    /// [`start_job`](RemoteClient::start_job) against a prepared model
    /// (v5): the job's shape comes from the model's [`ModelHandle`] (from
    /// [`put_model`](RemoteClient::put_model) or
    /// [`model_info`](RemoteClient::model_info)), not the session default.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] (`unknown prepared model`) if the
    /// server no longer holds the model — the session stays usable;
    /// otherwise see [`start_job`](RemoteClient::start_job).
    ///
    /// # Panics
    ///
    /// Panics if `x_columns` is empty or any column length differs from
    /// the handle's `cols`.
    pub fn start_model_job(
        &mut self,
        model: ModelHandle,
        x_columns: &[Vec<i64>],
    ) -> Result<JobProgress, AcceleratorError> {
        self.start_job_inner(
            x_columns,
            model.rows as usize,
            model.cols as usize,
            Some(model.model_id),
        )
    }

    fn start_job_inner(
        &mut self,
        x_columns: &[Vec<i64>],
        rows: usize,
        cols: usize,
        model_id: Option<u64>,
    ) -> Result<JobProgress, AcceleratorError> {
        assert!(!x_columns.is_empty(), "need at least one column");
        for column in x_columns {
            assert_eq!(column.len(), cols, "vector length mismatch");
        }
        // The wire format carries column and element counts as u32; reject
        // oversized jobs here so RESUME can never silently truncate.
        let columns = u32::try_from(x_columns.len()).map_err(|_| AcceleratorError::Protocol {
            what: "column count exceeds the wire format's u32 range",
        })?;
        if u32::try_from(x_columns.len() * rows).is_err() {
            return Err(AcceleratorError::Protocol {
                what: "job element count exceeds the wire format's u32 range",
            });
        }
        send_control(
            &mut self.transport,
            &ControlMsg::JobRequest { columns, model_id },
        )?;
        let start = Boundary {
            at: 0,
            receiver: self.state.ot_receiver.export_state(),
            transcript: MatvecTranscript::default(),
            digest: TranscriptDigest::new(),
        };
        let transfers = cols * self.state.config.bit_width;
        let mut progress = JobProgress {
            job_id: 0,
            x_columns: x_columns.to_vec(),
            y: vec![Vec::with_capacity(rows); x_columns.len()],
            rows,
            shape: JobShape::new(x_columns.len() * rows, transfers),
            elements_done: 0,
            transcript: MatvecTranscript::default(),
            digest: TranscriptDigest::new(),
            checkpoint: start.clone(),
            newest: start,
            prepared: None,
            done: false,
        };
        // READY only names the job: batch 0's extension is prepared while
        // the JOB is in flight, and a refusal rolls the receiver back.
        progress.prepared = self.prepare_ext(&mut progress, 0);
        match recv_control(&mut self.transport) {
            Ok(ControlMsg::Ready { job_id }) => {
                progress.job_id = job_id;
                Ok(progress)
            }
            reply => {
                self.state
                    .ot_receiver
                    .import_state(&progress.newest.receiver);
                Err(reply.map_or_else(|err| err, |reply| refusal(reply, "expected READY or BUSY")))
            }
        }
    }

    /// Re-enters an interrupted job on a freshly
    /// [`reattach`](RemoteClient::reattach)ed connection.
    ///
    /// Rolls the local OT receiver, digest, transcript and results back to
    /// the start of the batch holding the last evaluated element — the
    /// batch is evaluated again from its start — sends RESUME with that
    /// boundary and its digest, and waits for the server's READY. On success, continue with
    /// [`RemoteClient::run_job`] — the remaining exchange is bit-identical
    /// to what the uninterrupted run would have produced.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] if the server holds no matching
    /// checkpoint (restart the job from scratch on a fresh session);
    /// [`AcceleratorError::Busy`] if the queue cannot re-admit the job yet;
    /// transport/protocol errors otherwise.
    pub fn resume_job(&mut self, progress: &mut JobProgress) -> Result<(), AcceleratorError> {
        // The start of the batch holding the last evaluated element, whose
        // digest the server verified: never the newest (see `run_job`).
        let rollback = progress.checkpoint.clone();
        // Both fit u32 — start_job refuses oversized jobs — but never
        // truncate silently: a wrapped count would name the wrong boundary.
        let columns =
            u32::try_from(progress.x_columns.len()).map_err(|_| AcceleratorError::Protocol {
                what: "column count exceeds the wire format's u32 range",
            })?;
        let boundary = u32::try_from(rollback.at).map_err(|_| AcceleratorError::Protocol {
            what: "job element count exceeds the wire format's u32 range",
        })?;
        self.state.ot_receiver.import_state(&rollback.receiver);
        progress.transcript = rollback.transcript;
        progress.digest = rollback.digest.clone();
        progress.elements_done = rollback.at;
        progress.prepared = None;
        let rows = progress.rows;
        for (pass, column) in progress.y.iter_mut().enumerate() {
            column.truncate(rollback.at.saturating_sub(pass * rows).min(rows));
        }
        progress.newest = rollback;
        send_control(
            &mut self.transport,
            &ControlMsg::Resume {
                session_id: self.state.session_id,
                resume_token: self.state.resume_token,
                job_id: progress.job_id,
                columns,
                boundary,
                digest: progress.digest.export(),
                trace: self.state.trace,
            },
        )?;
        match recv_control(&mut self.transport)? {
            ControlMsg::Ready { job_id } if job_id == progress.job_id => Ok(()),
            ControlMsg::Ready { .. } => Err(AcceleratorError::Protocol {
                what: "READY for a different job",
            }),
            reply => Err(refusal(reply, "expected READY, BUSY, or REJECT")),
        }
    }

    /// Drives a READY job to completion, batch by batch, from wherever its
    /// progress currently stands (a batch start).
    ///
    /// Each batch is one EXT, answered by the batch's CIPHER/ROUNDS pairs,
    /// which the server streams without waiting; the client opens and
    /// evaluates each element as its frames arrive. It looks one batch
    /// ahead: as soon as the batch's last ROUNDS frame has passed its CRC
    /// and its seal mark is folded into the digest, the next batch's EXT
    /// goes out, and only then is that last element decoded and evaluated
    /// — so the server's OT, sealing and sending for the next batch overlap
    /// the client's evaluation. Each direction carries the same frames, in
    /// the same order, with the same bytes as an exchange that waited for
    /// the element to evaluate.
    ///
    /// A batch's boundary state is the OT receiver's cursor, the digest and
    /// the transcript as they stand *before* its EXT is prepared. Once an
    /// element of batch `k` has evaluated, the rollback point is batch
    /// `k`'s start, not batch `k + 1`'s: the digest at `k`'s start is one
    /// the server checked (it answered EXT(`k`)'s mark), while the one at
    /// `k + 1`'s start has folded batch `k`'s CIPHER and ROUNDS frames,
    /// which nobody has checked yet. A failed EXT(`k + 1`) send still
    /// finishes batch `k`'s last element (its ROUNDS is in hand) before the
    /// error returns. So on any error the rollback point is the start of
    /// the batch holding the last evaluated element, which (unless
    /// evaluating an element failed) is at most two batches behind the
    /// server's newest, and the caller can reconnect,
    /// [`resume_job`](RemoteClient::resume_job), and call `run_job` again,
    /// evaluating that batch a second time.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; `progress` stays consistent for a resume.
    pub fn run_job(&mut self, progress: &mut JobProgress) -> Result<(), AcceleratorError> {
        let mut next = match progress.prepared.take() {
            Some((frame, batch)) => {
                self.transport.send_frame(FrameKind::Bits, frame)?;
                Some(batch)
            }
            None => self.send_ext(progress, progress.elements_done)?,
        };
        while let Some(batch) = next {
            // The batch's start as it stood before its EXT: the rollback
            // point once one of its elements has evaluated.
            let start = progress.newest.clone();
            let last = batch.start + batch.len - 1;
            for e in batch.start..last {
                let (labels, rounds_frame) =
                    self.recv_element(progress, &batch, e - batch.start)?;
                self.evaluate_element(progress, e, rounds_frame, &labels)?;
                progress.checkpoint = start.clone();
                progress.elements_done = e + 1;
            }
            let (labels, rounds_frame) = self.recv_element(progress, &batch, last - batch.start)?;
            // The next batch's start as it stands before its EXT is
            // prepared; the newest boundary once `last` has evaluated.
            let receiver = self.state.ot_receiver.export_state();
            let digest = progress.digest.clone();
            let ahead = self.send_ext(progress, last + 1);
            self.evaluate_element(progress, last, rounds_frame, &labels)?;
            progress.checkpoint = start;
            progress.elements_done = last + 1;
            progress.newest = Boundary {
                at: last + 1,
                receiver,
                transcript: progress.transcript,
                digest,
            };
            next = ahead?;
        }
        match recv_control(&mut self.transport)? {
            ControlMsg::Stats {
                fabric_cycles,
                trace_id,
                digest,
            } => {
                // A traced session insists on its own id back: a nonzero
                // mismatch means the server attributed this job's spans to
                // some other trace, which would silently corrupt stitched
                // timelines. An untraced echo (0) is always acceptable.
                if trace_id != 0 && trace_id != self.state.trace.trace_id {
                    return Err(AcceleratorError::Protocol {
                        what: "STATS trace id does not match the session",
                    });
                }
                // The server's digest over the whole job must equal ours:
                // this is the client's end-to-end proof that every
                // GC-critical byte it evaluated is the byte the server
                // garbled (against accidental corruption — see module docs).
                if digest != progress.digest.value() {
                    return Err(AcceleratorError::Integrity {
                        what: "server transcript digest mismatch at STATS",
                    });
                }
                progress.transcript.fabric_cycles = fabric_cycles;
                progress.transcript.fabric_seconds =
                    fabric_cycles as f64 / (self.state.config.freq_mhz * 1e6);
            }
            _ => {
                return Err(AcceleratorError::Protocol {
                    what: "expected STATS",
                })
            }
        }
        progress.done = true;
        Ok(())
    }

    /// [`prepare_ext`](RemoteClient::prepare_ext) and sends the EXT.
    fn send_ext(
        &mut self,
        progress: &mut JobProgress,
        start: usize,
    ) -> Result<Option<PendingBatch>, AcceleratorError> {
        let Some((frame, batch)) = self.prepare_ext(progress, start) else {
            return Ok(None);
        };
        self.transport.send_frame(FrameKind::Bits, frame)?;
        Ok(Some(batch))
    }

    /// Prepares the OT extension of the batch starting at `start` as one
    /// sealed EXT, written in place behind its seal with the running digest
    /// as its trailer; `None` once `start` is past the job.
    fn prepare_ext(
        &mut self,
        progress: &mut JobProgress,
        start: usize,
    ) -> Option<(Bytes, PendingBatch)> {
        let len = progress.shape.batch_len(start);
        if len == 0 {
            return None;
        }
        let config = &self.state.config;
        let choices: Vec<bool> = (start..start + len)
            .flat_map(|e| config.encode_choices(&progress.x_columns[e / progress.rows]))
            .collect();
        let mut keys = None;
        // The receiver writes its correction columns straight into the
        // frame; the body is folded into the running digest and its value
        // trails it — the server verifies it before advancing its OT state
        // (v6).
        let frame = seal_ext(
            choices.len(),
            |columns| keys = Some(self.state.ot_receiver.prepare_into(&choices, columns)),
            |body| {
                progress.digest.fold(body);
                progress.digest.value()
            },
        );
        let upload_bytes = (KAPPA * choices.len().div_ceil(64) * 8) as u64;
        keys.map(|keys| {
            let batch = PendingBatch {
                start,
                len,
                choices,
                keys,
                upload_bytes,
            };
            (frame, batch)
        })
    }

    /// Receives the CIPHER and ROUNDS frames of element `i` of `batch`,
    /// folds both seal marks into the digest and opens the element's OT
    /// labels from its range of the batch's extension. Returns the labels
    /// and the still-encoded ROUNDS burst.
    fn recv_element(
        &mut self,
        progress: &mut JobProgress,
        batch: &PendingBatch,
        i: usize,
    ) -> Result<(Vec<Block>, Bytes), AcceleratorError> {
        let (cipher_frame, cipher_mark) = recv_marked(&mut self.transport)?;
        // A server that spotted a digest divergence answers the EXT with a
        // sealed REJECT instead of CIPHER blocks. An honest CIPHER frame
        // never decodes as one: it starts with its pair count's zero high
        // byte, which is no control tag.
        if let Ok(ControlMsg::Reject { code, detail }) = ControlMsg::decode(cipher_frame.clone()) {
            if code == REJECT_INTEGRITY {
                // The detail says whose bytes failed: the server's stock,
                // or the client's transcript digest.
                let what = if detail == REJECT_DETAIL_STOCK {
                    STREAM_DIGEST_MISMATCH
                } else {
                    "server rejected the client transcript digest"
                };
                return Err(AcceleratorError::Integrity { what });
            }
            return Err(AcceleratorError::Rejected {
                reason: reject_reason(code),
            });
        }
        progress.digest.fold(&cipher_mark);
        let transfers = progress.shape.transfers();
        let flat = decode_blocks(cipher_frame)?;
        if flat.len() != transfers * 2 {
            return Err(AcceleratorError::Protocol {
                what: "CIPHER pair count",
            });
        }
        if i == 0 {
            progress.transcript.ot_upload_bytes += batch.upload_bytes;
        }
        progress.transcript.ot_bytes += (flat.len() * 16) as u64;
        let pairs: Vec<(Block, Block)> = flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        let range = i * transfers..(i + 1) * transfers;
        let labels =
            self.state
                .ot_receiver
                .open(&batch.keys, range.start, &pairs, &batch.choices[range]);
        let (rounds_frame, rounds_mark) = recv_marked(&mut self.transport)?;
        progress.digest.fold(&rounds_mark);
        Ok((labels, rounds_frame))
    }

    /// Evaluates element `e`'s opened ROUNDS burst under `labels`
    /// ([`evaluate_burst`]) and appends the decoded MAC to the element's
    /// column.
    fn evaluate_element(
        &mut self,
        progress: &mut JobProgress,
        e: usize,
        rounds_frame: Bytes,
        labels: &[Block],
    ) -> Result<(), AcceleratorError> {
        let pass = e / progress.rows;
        let y = evaluate_burst(
            &mut self.state.evaluator,
            e as u32,
            &rounds_frame,
            progress.x_columns[pass].len(),
            labels,
            &mut progress.transcript,
        )?;
        progress.y[pass].push(y);
        progress.transcript.elements += 1;
        Ok(())
    }

    /// Sends a keep-alive PING and waits for the matching PONG.
    ///
    /// Valid between jobs only (never mid-exchange); the server answers
    /// without touching the job state machine.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`AcceleratorError::Protocol`] on a missing or
    /// mismatched PONG.
    pub fn ping(&mut self, nonce: u64) -> Result<(), AcceleratorError> {
        send_control(&mut self.transport, &ControlMsg::Ping { nonce })?;
        match recv_control(&mut self.transport)? {
            ControlMsg::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            ControlMsg::Pong { .. } => Err(AcceleratorError::Protocol {
                what: "PONG nonce mismatch",
            }),
            _ => Err(AcceleratorError::Protocol {
                what: "expected PONG",
            }),
        }
    }

    /// Gracefully closes the session (best effort) and returns the
    /// transport for inspection.
    pub fn goodbye(mut self) -> T {
        let _ = send_control(&mut self.transport, &ControlMsg::Bye);
        self.transport
    }
}
