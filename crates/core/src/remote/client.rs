//! The evaluator's side of a served session: the portable session state,
//! resumable per-job progress, and the [`RemoteClient`] that drives both.

use bytes::{BufMut, BytesMut};
use max_crypto::TranscriptDigest;
use max_gc::channel::{decode_blocks, seal_frame, FrameKind};
use max_gc::Transport;
use max_ot::iknp::{self, CipherMsg, OtExtReceiver};
use max_telemetry::TraceContext;

use super::codec::{
    decode_round_burst, encode_ext, recv_control, recv_marked, reject_reason, send_control,
    ControlMsg, ModelHandle, ModelStatus, MAX_MODEL_ELEMENTS, PROTOCOL_VERSION, REJECT_INTEGRITY,
    TAG_REJECT,
};
use crate::accelerator::ScheduledEvaluator;
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::server::MatvecTranscript;

/// Fetches the server's live metrics snapshot over a bare transport — no
/// handshake required, so it works even while the server is draining or
/// shedding load.
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

/// Everything a client must keep to re-enter its session on a brand-new
/// connection: identity, the resume secret, the negotiated config, and the
/// live OT-receiver state.
///
/// `Clone` is cheap relative to a job and deliberate: a retry loop clones
/// the state per reconnect attempt so a failed attempt does not poison the
/// next one ([`OtExtReceiver`]'s `Clone` is an exact state snapshot).
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

/// An in-flight (possibly interrupted) job on the client side.
///
/// Progress advances one output element at a time; the embedded
/// OT-receiver/transcript checkpoints always sit on the last completed
/// element boundary, so after a mid-element failure
/// [`RemoteClient::resume_job`] can roll the session back and replay the
/// element bit-identically on a fresh connection.
pub struct JobProgress {
    job_id: u64,
    x_columns: Vec<Vec<i64>>,
    y: Vec<Vec<i64>>,
    /// Output rows per pass — the session default's rows, or the prepared
    /// model's for a model-backed job (their shapes are independent).
    rows: usize,
    total_elements: usize,
    elements_done: usize,
    receiver_checkpoint: OtExtReceiver,
    transcript: MatvecTranscript,
    transcript_checkpoint: MatvecTranscript,
    digest: TranscriptDigest,
    digest_checkpoint: TranscriptDigest,
    done: bool,
}

impl std::fmt::Debug for JobProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `x_columns` is the client's private input — keep it out of logs.
        f.debug_struct("JobProgress")
            .field("job_id", &self.job_id)
            .field("elements_done", &self.elements_done)
            .field("total_elements", &self.total_elements)
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
        self.total_elements
    }

    /// Whether the job ran to completion (STATS received).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consumes a finished job into its per-column results and merged
    /// transcript.
    ///
    /// # Panics
    ///
    /// Panics if the job is not [`done`](JobProgress::is_done) — an
    /// interrupted job must be driven to completion via
    /// [`RemoteClient::resume_job`] + [`RemoteClient::run_job`] first.
    pub fn into_result(self) -> (Vec<Vec<i64>>, MatvecTranscript) {
        assert!(self.done, "job not finished; resume it first");
        (self.y, self.transcript)
    }
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
            ControlMsg::Reject { code, .. } => Err(AcceleratorError::Rejected {
                reason: reject_reason(code),
            }),
            _ => Err(AcceleratorError::Protocol {
                what: "expected ACCEPT or REJECT",
            }),
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
            ControlMsg::Reject { code, .. } => Err(AcceleratorError::Rejected {
                reason: reject_reason(code),
            }),
            _ => Err(AcceleratorError::Protocol {
                what: "expected MODEL_STAT or REJECT",
            }),
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

    /// Submits a job and waits for the server to schedule it.
    ///
    /// On READY, returns a [`JobProgress`] whose checkpoints sit at element
    /// zero; drive it with [`RemoteClient::run_job`].
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
        match recv_control(&mut self.transport)? {
            ControlMsg::Ready { job_id } => Ok(JobProgress {
                job_id,
                x_columns: x_columns.to_vec(),
                y: vec![Vec::with_capacity(rows); x_columns.len()],
                rows,
                total_elements: x_columns.len() * rows,
                elements_done: 0,
                receiver_checkpoint: self.state.ot_receiver.clone(),
                transcript: MatvecTranscript::default(),
                transcript_checkpoint: MatvecTranscript::default(),
                digest: TranscriptDigest::new(),
                digest_checkpoint: TranscriptDigest::new(),
                done: false,
            }),
            ControlMsg::Busy { retry_after_ms, .. } => {
                Err(AcceleratorError::Busy { retry_after_ms })
            }
            ControlMsg::Reject { code, .. } => Err(AcceleratorError::Rejected {
                reason: reject_reason(code),
            }),
            _ => Err(AcceleratorError::Protocol {
                what: "expected READY or BUSY",
            }),
        }
    }

    /// Re-enters an interrupted job on a freshly
    /// [`reattach`](RemoteClient::reattach)ed connection.
    ///
    /// Rolls the local OT receiver and transcript back to the last
    /// completed element boundary, sends RESUME, and waits for the server's
    /// READY. On success, continue with [`RemoteClient::run_job`] — the
    /// remaining exchange is bit-identical to what the uninterrupted run
    /// would have produced.
    ///
    /// # Errors
    ///
    /// [`AcceleratorError::Rejected`] if the server holds no matching
    /// checkpoint (restart the job from scratch on a fresh session);
    /// [`AcceleratorError::Busy`] if the queue cannot re-admit the job yet;
    /// transport/protocol errors otherwise.
    pub fn resume_job(&mut self, progress: &mut JobProgress) -> Result<(), AcceleratorError> {
        // Both fit u32 — start_job refuses oversized jobs — but never
        // truncate silently: a wrapped count would probe the wrong snapshot.
        let columns =
            u32::try_from(progress.x_columns.len()).map_err(|_| AcceleratorError::Protocol {
                what: "column count exceeds the wire format's u32 range",
            })?;
        let elements_done =
            u32::try_from(progress.elements_done).map_err(|_| AcceleratorError::Protocol {
                what: "job element count exceeds the wire format's u32 range",
            })?;
        self.state.ot_receiver = progress.receiver_checkpoint.clone();
        progress.transcript = progress.transcript_checkpoint;
        progress.digest = progress.digest_checkpoint.clone();
        send_control(
            &mut self.transport,
            &ControlMsg::Resume {
                session_id: self.state.session_id,
                resume_token: self.state.resume_token,
                job_id: progress.job_id,
                columns,
                elements_done,
                trace: self.state.trace,
            },
        )?;
        match recv_control(&mut self.transport)? {
            ControlMsg::Ready { job_id } if job_id == progress.job_id => Ok(()),
            ControlMsg::Ready { .. } => Err(AcceleratorError::Protocol {
                what: "READY for a different job",
            }),
            ControlMsg::Busy { retry_after_ms, .. } => {
                Err(AcceleratorError::Busy { retry_after_ms })
            }
            ControlMsg::Reject { code, .. } => Err(AcceleratorError::Rejected {
                reason: reject_reason(code),
            }),
            _ => Err(AcceleratorError::Protocol {
                what: "expected READY, BUSY, or REJECT",
            }),
        }
    }

    /// Drives a READY job to completion, element by element, from wherever
    /// its progress currently stands.
    ///
    /// Before each element — and once more after the last element, before
    /// waiting for STATS — the OT receiver and transcript are checkpointed
    /// into `progress`, so on any error the caller can reconnect,
    /// [`resume_job`](RemoteClient::resume_job), and call `run_job` again
    /// without losing completed elements.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; `progress` stays consistent for a resume.
    pub fn run_job(&mut self, progress: &mut JobProgress) -> Result<(), AcceleratorError> {
        let b = self.state.config.bit_width;
        let rows = progress.rows;
        for e in progress.elements_done..progress.total_elements {
            progress.receiver_checkpoint = self.state.ot_receiver.clone();
            progress.transcript_checkpoint = progress.transcript;
            progress.digest_checkpoint = progress.digest.clone();
            let pass = e / rows;
            let column = &progress.x_columns[pass];
            self.state.evaluator.begin_element(e as u32);
            let choices = self.state.config.encode_choices(column);
            let (ext, keys) = self.state.ot_receiver.prepare(&choices);
            progress.transcript.ot_upload_bytes +=
                ext.columns.iter().map(|c| c.len() as u64 * 8).sum::<u64>();
            // Fold the EXT body into the running digest and append its
            // value as the frame's trailer — the server verifies it before
            // advancing its OT state (v6).
            let ext_body = encode_ext(&ext);
            progress.digest.fold(&ext_body);
            let mut ext_frame = BytesMut::with_capacity(ext_body.len() + 16);
            ext_frame.put_slice(&ext_body);
            ext_frame.put_slice(&progress.digest.value());
            self.transport
                .send_frame(FrameKind::Bits, seal_frame(ext_frame.freeze()))?;
            let (cipher_frame, cipher_mark) = recv_marked(&mut self.transport)?;
            // A server that spotted a digest divergence answers the EXT
            // with a sealed REJECT instead of CIPHER blocks. The shapes
            // cannot collide: an honest CIPHER frame is 4 + 32·pairs bytes
            // and starts with the count's zero high byte, never with
            // TAG_REJECT at 6 bytes total.
            if cipher_frame.len() == 6 && cipher_frame[0] == TAG_REJECT {
                if let Ok(ControlMsg::Reject { code, .. }) =
                    ControlMsg::decode(cipher_frame.clone())
                {
                    if code == REJECT_INTEGRITY {
                        return Err(AcceleratorError::Integrity {
                            what: "server rejected the client transcript digest",
                        });
                    }
                    return Err(AcceleratorError::Rejected {
                        reason: reject_reason(code),
                    });
                }
            }
            progress.digest.fold(&cipher_mark);
            let flat = decode_blocks(cipher_frame)?;
            if flat.len() != choices.len() * 2 {
                return Err(AcceleratorError::Protocol {
                    what: "CIPHER pair count",
                });
            }
            progress.transcript.ot_bytes += (flat.len() * 16) as u64;
            let cipher = CipherMsg {
                pairs: flat.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
            };
            let labels = self.state.ot_receiver.receive(&cipher, &keys, &choices);
            let (rounds_frame, rounds_mark) = recv_marked(&mut self.transport)?;
            progress.digest.fold(&rounds_mark);
            let msgs = decode_round_burst(rounds_frame, column.len())?;
            let mut decoded = None;
            for (i, msg) in msgs.iter().enumerate() {
                progress.transcript.material_bytes += msg.wire_bytes() as u64;
                progress.transcript.tables += msg.tables.len() as u64;
                progress.transcript.rounds += 1;
                decoded = self
                    .state
                    .evaluator
                    .evaluate_round(msg, &labels[i * b..(i + 1) * b])?;
            }
            progress.y[pass].push(decoded.ok_or(AcceleratorError::Protocol {
                what: "final round carried no decode bits",
            })?);
            progress.transcript.elements += 1;
            progress.elements_done += 1;
        }
        // Refresh the checkpoints at the final element boundary before
        // waiting for STATS: a cut here resumes with
        // `elements_done == total_elements`, and a stale checkpoint would
        // silently desync the session's OT state by one element (the
        // server's snapshot window does include the final boundary).
        progress.receiver_checkpoint = self.state.ot_receiver.clone();
        progress.transcript_checkpoint = progress.transcript;
        progress.digest_checkpoint = progress.digest.clone();
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
