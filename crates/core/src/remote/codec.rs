//! The wire codec: protocol constants, the tagged control frames, and the
//! EXT / ROUNDS data-frame codecs. Everything here is bytes in, typed
//! value or typed error out — peer input never panics a decoder.

use bytes::{BufMut, Bytes, BytesMut};
use max_crypto::Block;
use max_gc::channel::{
    crc32, lend_bits, lend_blocks, lend_tables, open_frame, put_bits, put_blocks, put_tables,
    seal_frame, seal_mark, seal_with, FrameKind, PackedBits, ReadError, Reader, SEAL_BYTES,
};
use max_gc::{GarbledTable, Transport};
use max_ot::iknp::{ExtendMsg, KAPPA};
use max_telemetry::TraceContext;

use crate::accelerator::{EvalRound, RoundMessage};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;

/// Version of the handshake + job protocol in this module.
///
/// v2 added RESUME/PING/PONG and the `resume_token` field of ACCEPT.
/// v3 coalesced the per-round ROUND frames of each output element into a
/// single ROUNDS burst frame (count + length-prefixed round bodies), so an
/// element's exchange is a fixed three frames regardless of model width.
/// v4 extended HELLO/RESUME with a client-minted [`TraceContext`] (echoed
/// in STATS) and added the admin METRICS request/reply pair — frame
/// *counts* are unchanged, only payloads grew, so resume offsets and
/// fault-injection cut arithmetic carry over from v3.
/// v5 added the prepared-model frames (MODEL_PUT / MODEL_STAT /
/// MODEL_INFO / MODEL_EVICT), a `REJECT(MODEL)` code, and an optional
/// model id on JOB. Job/element frame *counts* are again unchanged — a
/// model-backed job streams the same EXT → CIPHER → ROUNDS exchange — so
/// resume offsets and fault-injection cut arithmetic still carry over.
/// v6 added end-to-end integrity: every frame is sealed with a CRC32
/// prefix ([`max_gc::channel::seal_frame`]), both sides fold the GC-critical
/// bytes (EXT bodies, CIPHER frames, ROUNDS frames) into a rolling
/// [`TranscriptDigest`](max_crypto::TranscriptDigest), each EXT carries
/// the client's running digest as a 16-byte trailer, STATS carries the
/// server's, and a mismatch is answered
/// with `REJECT(INTEGRITY)`. Frame *counts* are once more unchanged (the
/// seal and the trailer ride inside existing frames), so resume offsets and
/// fault-injection cut arithmetic carry over from v3.
/// v7 changed what the digest folds, not a byte of any frame's layout: a
/// CIPHER or ROUNDS frame enters it as its 8-byte
/// [`seal_mark`](max_gc::channel::seal_mark) instead of its payload bytes
/// (EXT bodies are still folded by bytes). The digest values riding in EXT
/// trailers and STATS differ from v6's, so the version moved and a v6 peer
/// is refused at HELLO.
/// v8 made a job's durable state one record: RESUME names the boundary of
/// the client's last evaluated element (the one before its newest) and
/// carries the client's transcript digest state there (24 bytes), which
/// the server adopts instead of keeping a snapshot per element.
/// v9 runs one OT extension per *batch* of elements
/// ([`elements_per_extension`]): the client sends one EXT per batch, and
/// the server answers it with the batch's CIPHER/ROUNDS pairs in element
/// order without waiting for another frame. No frame's layout changed; an
/// EXT now covers `n·cols·b` transfers, so its bytes, every CIPHER pad and
/// the digests in EXT trailers and STATS differ from v8's, and a RESUME
/// names a batch start.
pub const PROTOCOL_VERSION: u16 = 9;

/// Largest EXT correction body, in bytes, a batch is sized to fit
/// ([`elements_per_extension`]): 128 columns of 64 words, 4096 transfers.
pub const EXT_BUDGET_BYTES: usize = 64 * 1024;

/// Output elements one OT extension covers for a model `cols` wide at
/// operand width `bit_width` (v9): the largest `n ≥ 1` whose EXT body,
/// `KAPPA × ⌈n·cols·b/64⌉ × 8` bytes, fits [`EXT_BUDGET_BYTES`]. A pure
/// function of the shape both sides already hold (ACCEPT or the model
/// handle), so it is never negotiated. An element wider than the budget
/// gets an extension of its own.
pub fn elements_per_extension(cols: usize, bit_width: usize) -> usize {
    per_extension(cols * bit_width)
}

/// [`elements_per_extension`] of elements of `transfers` OTs each.
fn per_extension(transfers: usize) -> usize {
    let budget = EXT_BUDGET_BYTES / (KAPPA * 8) * 64;
    (budget / transfers.max(1)).max(1)
}

/// A job's exchange shape (v9): its output elements, the OT transfers
/// each one takes (`cols × b`, one per client input bit of its row), and
/// so how they batch. Batches start at multiples of
/// [`per_extension`](JobShape::per_extension); the last holds whatever is
/// left. Client and server build the same shape from the same facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobShape {
    elements: usize,
    transfers: usize,
    per_extension: usize,
}

impl JobShape {
    /// `elements` output elements of `transfers` OTs each: `cols × b` for
    /// a model `cols` wide at operand width `b`.
    pub fn new(elements: usize, transfers: usize) -> JobShape {
        JobShape {
            elements,
            transfers,
            per_extension: per_extension(transfers),
        }
    }

    /// Output elements of the job.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// OT transfers per element.
    pub fn transfers(&self) -> usize {
        self.transfers
    }

    /// Elements per full batch.
    pub fn per_extension(&self) -> usize {
        self.per_extension
    }

    /// A `columns`-pass job on the weight matrix `weights` at operand
    /// width `bit_width`: one element per row and pass, `cols × b`
    /// transfers each.
    pub fn of(weights: &[Vec<i64>], columns: u32, bit_width: usize) -> JobShape {
        let cols = weights.first().map_or(0, Vec::len);
        JobShape::new(columns as usize * weights.len(), cols * bit_width)
    }

    /// Elements of the batch that starts at `start` (0 at or past the end).
    pub fn batch_len(&self, start: usize) -> usize {
        self.per_extension.min(self.elements.saturating_sub(start))
    }

    /// Whether `boundary` is a batch start of the job (the job's end
    /// included when it falls on one).
    pub fn is_batch_start(&self, boundary: usize) -> bool {
        boundary <= self.elements && boundary.is_multiple_of(self.per_extension)
    }
}

/// Largest METRICS reply body the decoder will allocate (1 MiB of JSON is
/// far beyond any honest snapshot; a hostile length dies here, not in the
/// allocator).
pub const MAX_METRICS_BYTES: usize = 1 << 20;

/// Largest OT batch (choice bits) a single EXT frame may declare.
///
/// An honest batch is at most 4096 transfers, or one element's
/// `cols * bit_width` when that is more (≤ 8192 for the paper's largest
/// configuration); the cap leaves headroom for big models while keeping a
/// hostile count from driving allocation.
pub const MAX_OT_BATCH: usize = 1 << 20;

/// REJECT code: the client spoke an unsupported protocol version.
pub const REJECT_VERSION: u8 = 1;
/// REJECT code: the client asked for a bit-width this server is not running.
pub const REJECT_WIDTH: u8 = 2;
/// REJECT code: the server is draining and takes no new sessions.
pub const REJECT_DRAINING: u8 = 3;
/// REJECT code: the server holds no checkpoint matching a RESUME.
pub const REJECT_RESUME: u8 = 4;
/// Reserved REJECT code, kept so code 5 is never reused: servers of this
/// version answer overload only with BUSY and never send it. A peer's
/// REJECT(5) still decodes, and surfaces as a typed, fatal
/// [`Rejected`](crate::AcceleratorError::Rejected).
pub const REJECT_OVERLOAD: u8 = 5;
/// REJECT code: the named prepared model is unknown (never registered,
/// already evicted, or refused at registration).
pub const REJECT_MODEL: u8 = 6;
/// REJECT code: the peers' rolling transcript digests diverged (v6) — a
/// GC-critical byte was corrupted after framing. The job's checkpoints
/// past the last verified boundary are invalid.
pub const REJECT_INTEGRITY: u8 = 7;
/// `REJECT(integrity)` detail naming the server's own stock as the fault:
/// a prepared stream failed its re-verify behind READY, so the client's
/// digest is not in question. Any other detail is the element index at
/// which the client's transcript digest diverged from the server's.
pub const REJECT_DETAIL_STOCK: u32 = u32::MAX;

/// Largest element count (`rows * cols`) a MODEL_PUT frame may declare.
///
/// 2^16 i64 weights is a 512 KiB payload — far above the paper's largest
/// tile-decomposed layers, far below [`max_gc::channel::MAX_FRAME_BYTES`];
/// a hostile count dies here, not in the allocator.
pub const MAX_MODEL_ELEMENTS: usize = 1 << 16;

/// Human-readable reason for a REJECT code.
pub fn reject_reason(code: u8) -> &'static str {
    match code {
        REJECT_VERSION => "protocol version mismatch",
        REJECT_WIDTH => "unsupported bit width",
        REJECT_DRAINING => "server draining",
        REJECT_RESUME => "resume state not found",
        REJECT_OVERLOAD => "server shedding load",
        REJECT_MODEL => "unknown prepared model",
        REJECT_INTEGRITY => "transcript integrity mismatch",
        _ => "unknown reason",
    }
}

pub(super) const TAG_HELLO: u8 = 1;
const TAG_ACCEPT: u8 = 2;
pub(super) const TAG_REJECT: u8 = 3;
pub(super) const TAG_JOB: u8 = 4;
const TAG_BUSY: u8 = 5;
const TAG_READY: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_BYE: u8 = 8;
pub(super) const TAG_EXT: u8 = 9;
// TAG 10 was the v2 per-round ROUND frame; v3 replaced it with ROUNDS.
const TAG_RESUME: u8 = 11;
const TAG_PING: u8 = 12;
const TAG_PONG: u8 = 13;
const TAG_ROUNDS: u8 = 14;
const TAG_METRICS: u8 = 15;
pub(super) const TAG_METRICS_REPLY: u8 = 16;
pub(super) const TAG_MODEL_PUT: u8 = 17;
const TAG_MODEL_STAT: u8 = 18;
const TAG_MODEL_INFO: u8 = 19;
const TAG_MODEL_EVICT: u8 = 20;

/// A prepared model's registry snapshot, as carried by `MODEL_STAT` (the
/// server's answer to every model frame).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelStatus {
    /// The model's caller-chosen id.
    pub model_id: u64,
    /// Matrix rows (output elements per matvec).
    pub rows: u32,
    /// Matrix columns (client vector length).
    pub cols: u32,
    /// Pre-garbled single-use streams currently in stock.
    pub stock: u32,
    /// Bytes the stocked streams occupy in the registry cache.
    pub stock_bytes: u64,
    /// Jobs served from a warm prepared stream so far.
    pub served_prepared: u64,
    /// Jobs that fell back to inline garbling (stock empty).
    pub served_fallback: u64,
    /// Next unused generation of the model's seed schedule (each stream
    /// production or fallback consumes one — never reused).
    pub generation: u64,
}

impl ModelStatus {
    /// The shape handle a client needs to drive jobs against this model.
    pub fn handle(&self) -> ModelHandle {
        ModelHandle {
            model_id: self.model_id,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

/// Everything a client must know to run a job against a prepared model:
/// its id and its shape (the session's default model shape from ACCEPT
/// does not apply to model-backed jobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelHandle {
    /// The model's registry id.
    pub model_id: u64,
    /// Matrix rows (output elements per matvec).
    pub rows: u32,
    /// Matrix columns (required client vector length).
    pub cols: u32,
}

/// A control frame of the session protocol (everything except the
/// per-element EXT/CIPHER/ROUNDS data frames).
#[derive(Clone, Debug, PartialEq)]
pub enum ControlMsg {
    /// Client → server: open a session.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Requested operand bit-width.
        bit_width: u32,
        /// Client-minted trace context ([`TraceContext::none`] when
        /// untraced); the server tags its own spans with it and echoes the
        /// trace id in STATS.
        trace: TraceContext,
    },
    /// Server → client: session open, here is everything the evaluator
    /// needs (negotiated config is authoritative).
    Accept {
        /// Server-assigned session id.
        session_id: u64,
        /// Seed for the modeled base-OT phase
        /// ([`iknp::setup_pair`](max_ot::iknp::setup_pair)).
        ot_seed: u64,
        /// Per-session secret; quoting it back in RESUME proves the
        /// resumer is the original client.
        resume_token: u64,
        /// Model rows (output elements per matvec).
        rows: u32,
        /// Model columns (client vector length).
        cols: u32,
        /// Negotiated operand bit-width.
        bit_width: u32,
        /// Negotiated accumulator width.
        acc_width: u32,
        /// Whether operands are signed.
        signed: bool,
        /// Fabric clock in MHz, as [`f64::to_bits`].
        freq_mhz_bits: u64,
    },
    /// Server → client: handshake refused.
    Reject {
        /// One of the `REJECT_*` codes.
        code: u8,
        /// Code-specific detail (e.g. the server's version or width).
        detail: u32,
    },
    /// Client → server: run a matvec/matmul job (`columns` passes).
    JobRequest {
        /// Number of client vectors (1 = matvec, n = matmul of n columns).
        columns: u32,
        /// Prepared model to run against (v5). `None` targets the
        /// session's default model from ACCEPT; `Some(id)` asks for the
        /// registered model — served from warm pre-garbled stock when
        /// available, inline-garbled otherwise, rejected with
        /// [`REJECT_MODEL`] when unknown.
        model_id: Option<u64>,
    },
    /// Server → client: queue full, try again after the hinted backoff.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
        /// Queue depth observed at rejection time (for loadgen telemetry).
        queue_depth: u32,
    },
    /// Server → client: job dequeued onto a garbling unit; data frames
    /// follow.
    Ready {
        /// Server-assigned job id (unique within the session).
        job_id: u64,
    },
    /// Server → client: job finished; server-side accounting the client
    /// cannot measure itself.
    Stats {
        /// Fabric cycles the garbling units spent on this job.
        fabric_cycles: u64,
        /// Echo of the session's trace id (0 when the session is
        /// untraced) — the client's proof that server-side spans tagged
        /// with this id belong to its job.
        trace_id: u128,
        /// The server's rolling
        /// [`TranscriptDigest`](max_crypto::TranscriptDigest) value over
        /// the job's GC-critical bytes (v6); the client compares it against
        /// its own before accepting the results.
        digest: [u8; 16],
    },
    /// Client → server: reconnect into an interrupted session and continue
    /// the in-flight job from the client's rollback boundary.
    Resume {
        /// The session being resumed (from ACCEPT).
        session_id: u64,
        /// The session's resume secret (from ACCEPT).
        resume_token: u64,
        /// The interrupted job.
        job_id: u64,
        /// Column count of the interrupted job (consistency check).
        columns: u32,
        /// The element the exchange restarts at: the client's last
        /// evaluated element (0 when it evaluated none), which it
        /// evaluates again.
        boundary: u32,
        /// The client's transcript digest state at `boundary`, before it
        /// prepared that element's EXT (as
        /// [`TranscriptDigest::export`](max_crypto::TranscriptDigest::export)
        /// gives it): a state the server verified, since it answered that
        /// EXT's mark (v8).
        digest: ([u8; 16], u64),
        /// The session's trace context, re-sent so the replacement
        /// connection's server spans join the same trace.
        trace: TraceContext,
    },
    /// Client → server: keep-alive between jobs; the server answers PONG
    /// without touching the job state machine.
    Ping {
        /// Echoed back verbatim in PONG.
        nonce: u64,
    },
    /// Server → client: answer to PING.
    Pong {
        /// The PING's nonce.
        nonce: u64,
    },
    /// Client → server (admin): request a live metrics snapshot. Valid as
    /// the first frame of a connection (no handshake needed) or between
    /// jobs; never touches the job state machine.
    MetricsRequest,
    /// Server → client: the metrics snapshot as a JSON document (schema
    /// `maxelerator-metrics-v1`).
    MetricsReply {
        /// UTF-8 JSON body, at most [`MAX_METRICS_BYTES`].
        body: String,
    },
    /// Client → server (v5): register `weights` (row-major, `rows * cols`
    /// elements) as a prepared model under `model_id`. Re-registering an
    /// existing id replaces it and rotates the model's seed epoch, so
    /// streams prepared for the old matrix can never serve the new one.
    ModelPut {
        /// Caller-chosen model id.
        model_id: u64,
        /// Matrix rows.
        rows: u32,
        /// Matrix columns.
        cols: u32,
        /// Row-major weights, `rows * cols` elements
        /// (≤ [`MAX_MODEL_ELEMENTS`]).
        weights: Vec<i64>,
    },
    /// Server → client (v5): registry snapshot for one model — the answer
    /// to MODEL_PUT, MODEL_INFO, and MODEL_EVICT (final stats).
    ModelStat {
        /// The snapshot.
        status: ModelStatus,
    },
    /// Client → server (v5): query a prepared model's stock and counters.
    ModelInfo {
        /// The model to query.
        model_id: u64,
    },
    /// Client → server (v5): drop a prepared model and its stock.
    ModelEvict {
        /// The model to evict.
        model_id: u64,
    },
    /// Client → server: done, close the session gracefully.
    Bye,
}

fn put_trace(buf: &mut BytesMut, trace: TraceContext) {
    buf.put_slice(&trace.trace_id.to_be_bytes());
    buf.put_u64(trace.span_id);
}

fn get_trace(reader: &mut Reader<'_>, what: &'static str) -> Result<TraceContext, ReadError> {
    Ok(TraceContext::from_ids(
        reader.u128(what)?,
        reader.u64(what)?,
    ))
}

impl ControlMsg {
    /// Encodes this control message as a raw frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(40);
        match *self {
            ControlMsg::Hello {
                version,
                bit_width,
                trace,
            } => {
                buf.put_u8(TAG_HELLO);
                buf.put_u16(version);
                buf.put_u32(bit_width);
                put_trace(&mut buf, trace);
            }
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
                buf.put_u8(TAG_ACCEPT);
                buf.put_u64(session_id);
                buf.put_u64(ot_seed);
                buf.put_u64(resume_token);
                buf.put_u32(rows);
                buf.put_u32(cols);
                buf.put_u32(bit_width);
                buf.put_u32(acc_width);
                buf.put_u8(u8::from(signed));
                buf.put_u64(freq_mhz_bits);
            }
            ControlMsg::Reject { code, detail } => {
                buf.put_u8(TAG_REJECT);
                buf.put_u8(code);
                buf.put_u32(detail);
            }
            ControlMsg::JobRequest { columns, model_id } => {
                buf.put_u8(TAG_JOB);
                buf.put_u32(columns);
                match model_id {
                    Some(id) => {
                        buf.put_u8(1);
                        buf.put_u64(id);
                    }
                    None => buf.put_u8(0),
                }
            }
            ControlMsg::Busy {
                retry_after_ms,
                queue_depth,
            } => {
                buf.put_u8(TAG_BUSY);
                buf.put_u32(retry_after_ms);
                buf.put_u32(queue_depth);
            }
            ControlMsg::Ready { job_id } => {
                buf.put_u8(TAG_READY);
                buf.put_u64(job_id);
            }
            ControlMsg::Stats {
                fabric_cycles,
                trace_id,
                digest,
            } => {
                buf.put_u8(TAG_STATS);
                buf.put_u64(fabric_cycles);
                buf.put_slice(&trace_id.to_be_bytes());
                buf.put_slice(&digest);
            }
            ControlMsg::Resume {
                session_id,
                resume_token,
                job_id,
                columns,
                boundary,
                digest: (state, len),
                trace,
            } => {
                buf.put_u8(TAG_RESUME);
                buf.put_u64(session_id);
                buf.put_u64(resume_token);
                buf.put_u64(job_id);
                buf.put_u32(columns);
                buf.put_u32(boundary);
                buf.put_slice(&state);
                buf.put_u64(len);
                put_trace(&mut buf, trace);
            }
            ControlMsg::Ping { nonce } => {
                buf.put_u8(TAG_PING);
                buf.put_u64(nonce);
            }
            ControlMsg::Pong { nonce } => {
                buf.put_u8(TAG_PONG);
                buf.put_u64(nonce);
            }
            ControlMsg::MetricsRequest => buf.put_u8(TAG_METRICS),
            ControlMsg::MetricsReply { ref body } => {
                buf.put_u8(TAG_METRICS_REPLY);
                buf.put_u32(body.len() as u32);
                buf.put_slice(body.as_bytes());
            }
            ControlMsg::ModelPut {
                model_id,
                rows,
                cols,
                ref weights,
            } => {
                buf.put_u8(TAG_MODEL_PUT);
                buf.put_u64(model_id);
                buf.put_u32(rows);
                buf.put_u32(cols);
                for &w in weights {
                    // i64 in two's complement; the decoder mirrors the cast.
                    buf.put_u64(w as u64);
                }
            }
            ControlMsg::ModelStat { status } => {
                buf.put_u8(TAG_MODEL_STAT);
                buf.put_u64(status.model_id);
                buf.put_u32(status.rows);
                buf.put_u32(status.cols);
                buf.put_u32(status.stock);
                buf.put_u64(status.stock_bytes);
                buf.put_u64(status.served_prepared);
                buf.put_u64(status.served_fallback);
                buf.put_u64(status.generation);
            }
            ControlMsg::ModelInfo { model_id } => {
                buf.put_u8(TAG_MODEL_INFO);
                buf.put_u64(model_id);
            }
            ControlMsg::ModelEvict { model_id } => {
                buf.put_u8(TAG_MODEL_EVICT);
                buf.put_u64(model_id);
            }
            ControlMsg::Bye => buf.put_u8(TAG_BYE),
        }
        buf.freeze()
    }

    /// Decodes a control frame.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::Protocol`] for unknown tags, truncated
    /// payloads, flag bytes other than 0 or 1 and trailing bytes — peer
    /// bytes never panic the decoder.
    pub fn decode(frame: Bytes) -> Result<ControlMsg, AcceleratorError> {
        let mut r = Reader::new(&frame);
        let msg = match r.u8("empty control frame")? {
            TAG_HELLO => {
                let what = "HELLO payload";
                ControlMsg::Hello {
                    version: r.u16(what)?,
                    bit_width: r.u32(what)?,
                    trace: get_trace(&mut r, what)?,
                }
            }
            TAG_ACCEPT => {
                let what = "ACCEPT payload";
                ControlMsg::Accept {
                    session_id: r.u64(what)?,
                    ot_seed: r.u64(what)?,
                    resume_token: r.u64(what)?,
                    rows: r.u32(what)?,
                    cols: r.u32(what)?,
                    bit_width: r.u32(what)?,
                    acc_width: r.u32(what)?,
                    signed: r.flag("ACCEPT signed flag")?,
                    freq_mhz_bits: r.u64(what)?,
                }
            }
            TAG_REJECT => ControlMsg::Reject {
                code: r.u8("REJECT payload")?,
                detail: r.u32("REJECT payload")?,
            },
            TAG_JOB => ControlMsg::JobRequest {
                columns: r.u32("JOB payload")?,
                model_id: if r.flag("JOB model flag")? {
                    Some(r.u64("JOB model id")?)
                } else {
                    None
                },
            },
            TAG_BUSY => ControlMsg::Busy {
                retry_after_ms: r.u32("BUSY payload")?,
                queue_depth: r.u32("BUSY payload")?,
            },
            TAG_READY => ControlMsg::Ready {
                job_id: r.u64("READY payload")?,
            },
            TAG_STATS => {
                let what = "STATS payload";
                ControlMsg::Stats {
                    fabric_cycles: r.u64(what)?,
                    trace_id: r.u128(what)?,
                    digest: r.array(what)?,
                }
            }
            TAG_RESUME => {
                let what = "RESUME payload";
                ControlMsg::Resume {
                    session_id: r.u64(what)?,
                    resume_token: r.u64(what)?,
                    job_id: r.u64(what)?,
                    columns: r.u32(what)?,
                    boundary: r.u32(what)?,
                    digest: (r.array(what)?, r.u64(what)?),
                    trace: get_trace(&mut r, what)?,
                }
            }
            TAG_PING => ControlMsg::Ping {
                nonce: r.u64("PING payload")?,
            },
            TAG_PONG => ControlMsg::Pong {
                nonce: r.u64("PONG payload")?,
            },
            TAG_METRICS => ControlMsg::MetricsRequest,
            TAG_METRICS_REPLY => {
                let len = r.u32("METRICS reply header")? as usize;
                if len > MAX_METRICS_BYTES {
                    return Err(AcceleratorError::Protocol {
                        what: "METRICS reply too large",
                    });
                }
                let body = r.bytes(len, "METRICS reply body")?;
                let body =
                    String::from_utf8(body.to_vec()).map_err(|_| AcceleratorError::Protocol {
                        what: "METRICS reply is not UTF-8",
                    })?;
                ControlMsg::MetricsReply { body }
            }
            TAG_MODEL_PUT => {
                let what = "MODEL_PUT header";
                let model_id = r.u64(what)?;
                let rows = r.u32(what)?;
                let cols = r.u32(what)?;
                let elements = (rows as usize).saturating_mul(cols as usize);
                if rows == 0 || cols == 0 || elements > MAX_MODEL_ELEMENTS {
                    return Err(AcceleratorError::Protocol {
                        what: "MODEL_PUT shape",
                    });
                }
                // i64 in two's complement; the encoder casts the same way.
                let weights = (0..elements)
                    .map(|_| r.u64("MODEL_PUT weights").map(|w| w as i64))
                    .collect::<Result<_, _>>()?;
                ControlMsg::ModelPut {
                    model_id,
                    rows,
                    cols,
                    weights,
                }
            }
            TAG_MODEL_STAT => {
                let what = "MODEL_STAT payload";
                ControlMsg::ModelStat {
                    status: ModelStatus {
                        model_id: r.u64(what)?,
                        rows: r.u32(what)?,
                        cols: r.u32(what)?,
                        stock: r.u32(what)?,
                        stock_bytes: r.u64(what)?,
                        served_prepared: r.u64(what)?,
                        served_fallback: r.u64(what)?,
                        generation: r.u64(what)?,
                    },
                }
            }
            TAG_MODEL_INFO => ControlMsg::ModelInfo {
                model_id: r.u64("MODEL_INFO payload")?,
            },
            TAG_MODEL_EVICT => ControlMsg::ModelEvict {
                model_id: r.u64("MODEL_EVICT payload")?,
            },
            TAG_BYE => ControlMsg::Bye,
            _ => {
                return Err(AcceleratorError::Protocol {
                    what: "unknown control tag",
                })
            }
        };
        r.end("control frame trailing bytes")?;
        Ok(msg)
    }
}

/// Sends one control message, sealed with the v6 CRC32 frame prefix.
///
/// # Errors
///
/// Propagates transport failures.
pub fn send_control<T: Transport + ?Sized>(
    transport: &mut T,
    msg: &ControlMsg,
) -> Result<(), AcceleratorError> {
    transport.send_frame(FrameKind::Raw, seal_frame(msg.encode()))?;
    Ok(())
}

/// Receives, checksum-verifies, and decodes one control message.
///
/// # Errors
///
/// Propagates transport failures and malformed frames; a flipped bit
/// surfaces as [`max_gc::channel::TransportError::Checksum`].
pub fn recv_control<T: Transport + ?Sized>(
    transport: &mut T,
) -> Result<ControlMsg, AcceleratorError> {
    ControlMsg::decode(open_frame(transport.recv_frame()?)?)
}

/// Receives and checksum-verifies one bulk data frame (CIPHER, ROUNDS),
/// returning its payload and the [`seal_mark`] the transcript digest folds
/// in place of the payload's bytes (v7).
pub(super) fn recv_marked<T: Transport + ?Sized>(
    transport: &mut T,
) -> Result<(Bytes, [u8; 8]), AcceleratorError> {
    let sealed = transport.recv_frame()?;
    let mark = seal_mark(&sealed);
    Ok((open_frame(sealed)?, mark))
}

/// Builds a sealed EXT frame for `count` transfers in one buffer, with no
/// copy: the header, the `KAPPA` correction columns `put_columns` writes
/// in place (each `⌈count/64⌉` big-endian words), then the 16-byte
/// trailer `trailer` computes from the body before it (the client's
/// running digest, v6), all behind the CRC seal filled in last.
pub(super) fn seal_ext(
    count: usize,
    put_columns: impl FnOnce(&mut [u8]),
    trailer: impl FnOnce(&[u8]) -> [u8; 16],
) -> Bytes {
    let columns = KAPPA * count.div_ceil(64) * 8;
    let mut frame = Vec::with_capacity(SEAL_BYTES + 9 + columns + 16);
    frame.extend_from_slice(&[0; SEAL_BYTES]);
    frame.push(TAG_EXT);
    frame.extend_from_slice(&(count as u32).to_be_bytes());
    frame.extend_from_slice(&(count.div_ceil(64) as u32).to_be_bytes());
    let body = frame.len();
    frame.resize(body + columns, 0);
    put_columns(&mut frame[body..]);
    let mark = trailer(&frame[SEAL_BYTES..]);
    frame.extend_from_slice(&mark);
    let crc = crc32(&frame[SEAL_BYTES..]);
    frame[..SEAL_BYTES].copy_from_slice(&crc.to_be_bytes());
    Bytes::from(frame)
}

/// Decodes an EXT frame into the extension message and the client's
/// 16-byte transcript-digest trailer (v6). The columns land in one flat
/// buffer, allocated once.
pub(super) fn decode_ext(frame: Bytes) -> Result<(ExtendMsg, [u8; 16]), AcceleratorError> {
    let mut r = Reader::new(&frame);
    match r.u8("EXT header")? {
        TAG_EXT => {}
        // A well-behaved client may close instead of sending a job's data.
        TAG_BYE => return Err(AcceleratorError::Disconnected),
        _ => {
            return Err(AcceleratorError::Protocol {
                what: "expected EXT frame",
            })
        }
    }
    let count = r.u32("EXT header")? as usize;
    let words = r.u32("EXT header")? as usize;
    if count > MAX_OT_BATCH || words != count.div_ceil(64) {
        return Err(AcceleratorError::Protocol {
            what: "EXT batch size",
        });
    }
    let what = "EXT payload length";
    // KAPPA columns of `words` big-endian words each, column after column.
    let words = r
        .bytes(KAPPA * words * 8, what)?
        .as_chunks()
        .0
        .iter()
        .map(|&word| u64::from_be_bytes(word))
        .collect();
    let mark = r.array(what)?;
    r.end(what)?;
    Ok((ExtendMsg { words, count }, mark))
}

// ---------------------------------------------------------------------------
// ROUNDS: one output element's round messages in one frame. Layout (all
// integers big-endian; each vector is a channel codec vector, a u32 count
// then its items):
//
//   u8 TAG_ROUNDS | u32 rounds | per round: u32 body_len | body
//   body = u32 elem | u32 round | u8 flags | tables (32 B each)
//        | garbler labels (16 B each)
//        | [initial-accumulator labels]  if flags & FLAG_INIT
//        | [packed decode bits]          if flags & FLAG_DECODE
// ---------------------------------------------------------------------------

const FLAG_INIT: u8 = 0b01;
const FLAG_DECODE: u8 = 0b10;

/// Bytes of one round body: its 9-byte header, then the counted table and
/// label vectors, then the optional initial-accumulator labels and decode
/// bits.
fn round_body_bytes(
    tables: usize,
    a_labels: usize,
    init_labels: Option<usize>,
    decode_bits: Option<usize>,
) -> usize {
    9 + 4
        + tables * GarbledTable::WIRE_BYTES
        + 4
        + a_labels * 16
        + init_labels.map_or(0, |n| 4 + n * 16)
        + decode_bits.map_or(0, |n| 4 + n.div_ceil(8))
}

fn body_bytes(msg: &RoundMessage) -> usize {
    round_body_bytes(
        msg.tables.len(),
        msg.a_labels.len(),
        msg.init_acc_labels.as_ref().map(Vec::len),
        msg.decode.as_ref().map(Vec::len),
    )
}

fn put_round(buf: &mut BytesMut, msg: &RoundMessage) {
    buf.put_u32(msg.elem);
    buf.put_u32(msg.round);
    let mut flags = 0u8;
    if msg.init_acc_labels.is_some() {
        flags |= FLAG_INIT;
    }
    if msg.decode.is_some() {
        flags |= FLAG_DECODE;
    }
    buf.put_u8(flags);
    put_tables(buf, &msg.tables);
    put_blocks(buf, &msg.a_labels);
    if let Some(init) = &msg.init_acc_labels {
        put_blocks(buf, init);
    }
    if let Some(decode) = &msg.decode {
        put_bits(buf, decode);
    }
}

/// One round of a ROUNDS burst, lent from the frame it arrived in: the
/// tables, labels and decode bits are the frame's own bytes, read (and
/// decoded in registers) by [`ScheduledEvaluator`] where they lie.
///
/// [`ScheduledEvaluator`]: crate::ScheduledEvaluator
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundView<'a> {
    pub(crate) elem: u32,
    pub(crate) round: u32,
    pub(crate) tables: &'a [[u8; GarbledTable::WIRE_BYTES]],
    pub(crate) a_labels: &'a [[u8; 16]],
    pub(crate) init_acc_labels: Option<&'a [[u8; 16]]>,
    pub(crate) decode: Option<PackedBits<'a>>,
}

impl RoundView<'_> {
    /// Bytes on the wire: [`RoundMessage::wire_bytes`] of the same round.
    pub(crate) fn wire_bytes(&self) -> usize {
        self.tables.len() * GarbledTable::WIRE_BYTES
            + self.a_labels.len() * 16
            + self.init_acc_labels.map_or(0, |l| l.len() * 16)
            + self.decode.map_or(0, |d| d.len().div_ceil(8))
    }

    /// The round as an owned [`RoundMessage`].
    pub(crate) fn to_message(self) -> RoundMessage {
        let blocks = |labels: &[[u8; 16]]| labels.iter().map(|&b| Block::from_bytes(b)).collect();
        RoundMessage {
            elem: self.elem,
            round: self.round,
            tables: self
                .tables
                .iter()
                .map(|&t| GarbledTable::from_bytes(t))
                .collect(),
            a_labels: blocks(self.a_labels),
            init_acc_labels: self.init_acc_labels.map(blocks),
            decode: self.decode.map(|d| d.iter().collect()),
        }
    }
}

impl EvalRound for RoundView<'_> {
    type Table = [u8; GarbledTable::WIRE_BYTES];

    fn round(&self) -> u32 {
        self.round
    }

    fn tables(&self) -> &[Self::Table] {
        self.tables
    }

    fn a_labels(&self) -> impl ExactSizeIterator<Item = Block> {
        self.a_labels.iter().map(|&b| Block::from_bytes(b))
    }

    fn init_acc_labels(&self) -> Option<impl ExactSizeIterator<Item = Block>> {
        self.init_acc_labels
            .map(|l| l.iter().map(|&b| Block::from_bytes(b)))
    }

    fn decode(&self) -> Option<impl ExactSizeIterator<Item = bool>> {
        self.decode.map(|d| d.iter())
    }
}

fn lend_round(body: &[u8]) -> Result<RoundView<'_>, AcceleratorError> {
    let mut r = Reader::new(body);
    let elem = r.u32("ROUNDS body header")?;
    let round = r.u32("ROUNDS body header")?;
    let flags = r.u8("ROUNDS body header")?;
    if flags & !(FLAG_INIT | FLAG_DECODE) != 0 {
        return Err(AcceleratorError::Protocol {
            what: "ROUNDS body flags",
        });
    }
    let tables = lend_tables(&mut r)?;
    let a_labels = lend_blocks(&mut r)?;
    let init_acc_labels = if flags & FLAG_INIT != 0 {
        Some(lend_blocks(&mut r)?)
    } else {
        None
    };
    let decode = if flags & FLAG_DECODE != 0 {
        Some(lend_bits(&mut r)?)
    } else {
        None
    };
    r.end("ROUNDS body trailing bytes")?;
    Ok(RoundView {
        elem,
        round,
        tables,
        a_labels,
        init_acc_labels,
        decode,
    })
}

/// Encodes one output element's full round sequence as a single ROUNDS
/// burst frame: tag, round count, then each round body length-prefixed.
///
/// Public since v5; what the prepared-model registry stores is the same
/// burst already sealed (`encode_sealed_round_burst`), so a serve replays
/// the identical bytes without sealing or copying them again.
pub fn encode_round_burst(msgs: &[RoundMessage]) -> Bytes {
    let mut buf = BytesMut::with_capacity(burst_bytes(msgs));
    put_round_burst(&mut buf, msgs);
    buf.freeze()
}

/// [`encode_round_burst`] behind its seal: the burst is written once behind
/// the CRC prefix and the CRC filled in place — byte for byte
/// [`seal_frame`]`(encode_round_burst(msgs))`, with one CRC pass and no
/// copy. This is the form a materialized element stores and the streamer
/// sends as is.
pub(crate) fn encode_sealed_round_burst(msgs: &[RoundMessage]) -> Bytes {
    seal_with(burst_bytes(msgs), |buf| put_round_burst(buf, msgs))
}

/// Bytes of the unsealed ROUNDS burst of `msgs`.
fn burst_bytes(msgs: &[RoundMessage]) -> usize {
    5 + msgs.iter().map(|m| 4 + body_bytes(m)).sum::<usize>()
}

fn put_round_burst(buf: &mut BytesMut, msgs: &[RoundMessage]) {
    buf.put_u8(TAG_ROUNDS);
    buf.put_u32(msgs.len() as u32);
    for msg in msgs {
        buf.put_u32(body_bytes(msg) as u32);
        put_round(buf, msg);
    }
}

/// The sealed ROUNDS frame length of a `cols`-round element (`cols ≥ 1`)
/// under `config`: what [`encode_round_burst`] then [`seal_frame`] produce
/// for one garbled matrix row of `cols` weights, which is the frame a
/// materialized element stores. A model whose element exceeds
/// [`MAX_FRAME_BYTES`](max_gc::channel::MAX_FRAME_BYTES) cannot be served.
pub fn round_burst_bytes(config: &AcceleratorConfig, cols: usize) -> usize {
    let shape = RoundShape::of(config, config.shared_circuit().netlist());
    // Every round carries its tables and labels; the first adds the
    // initial accumulator, the last the decode bits.
    let round = shape.body_bytes(false, false);
    let ends = shape.body_bytes(true, true) - round;
    SEAL_BYTES + 5 + cols.saturating_mul(4 + round) + ends
}

/// The vector counts of one round of a configuration's ROUNDS frames.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundShape {
    tables: usize,
    a_labels: usize,
    acc: usize,
    outputs: usize,
}

impl RoundShape {
    /// The shape of `config`'s rounds over its MAC `netlist`.
    pub(crate) fn of(config: &AcceleratorConfig, netlist: &max_netlist::Netlist) -> RoundShape {
        let acc = config.state_range().len();
        RoundShape {
            tables: netlist.gate_plan().tables(),
            a_labels: netlist.garbler_inputs().len() - acc + netlist.constants().len(),
            acc,
            outputs: netlist.outputs().len(),
        }
    }

    /// Bytes of a round body, with or without the initial accumulator and
    /// the decode bits.
    fn body_bytes(&self, init: bool, decode: bool) -> usize {
        round_body_bytes(
            self.tables,
            self.a_labels,
            init.then_some(self.acc),
            decode.then_some(self.outputs),
        )
    }
}

/// One element's ROUNDS frame written where it will be sent: sized once,
/// each round's header and vector counts written as the round starts, its
/// tables, labels and decode bits written by the garbler straight into
/// the slots [`BurstWriter::round`] lends, and sealed with one CRC pass.
/// Byte for byte [`encode_sealed_round_burst`] of the same rounds.
pub(crate) struct BurstWriter {
    frame: Vec<u8>,
    at: usize,
    shape: RoundShape,
}

/// The slots of one round in a [`BurstWriter`]'s frame; the vectors a
/// round does not carry are empty.
pub(crate) struct RoundSlots<'a> {
    /// Garbled tables in wire order, at their AND ordinals.
    pub(crate) tables: &'a mut [[u8; GarbledTable::WIRE_BYTES]],
    /// Active labels of the server's fresh inputs, then constants.
    pub(crate) a_labels: &'a mut [[u8; 16]],
    /// Round 0 only: active labels of the initial accumulator.
    pub(crate) init_acc_labels: &'a mut [[u8; 16]],
    decode: &'a mut [u8],
}

impl RoundSlots<'_> {
    /// Packs the decode bits, eight to a byte and least significant first,
    /// as [`put_bits`] does. Only a round started with decode bits has
    /// room for them.
    pub(crate) fn set_decode(&mut self, bits: impl IntoIterator<Item = bool>) {
        self.decode.fill(0);
        for (i, bit) in bits.into_iter().enumerate() {
            self.decode[i / 8] |= u8::from(bit) << (i % 8);
        }
    }
}

impl BurstWriter {
    /// A frame of `rounds` rounds of `shape`, the first carrying the
    /// initial accumulator when `init_first`, the last the decode bits when
    /// `decode_last`.
    pub(crate) fn new(
        shape: RoundShape,
        rounds: usize,
        init_first: bool,
        decode_last: bool,
    ) -> BurstWriter {
        let bodies = rounds * (4 + shape.body_bytes(false, false))
            + (shape.body_bytes(init_first, decode_last) - shape.body_bytes(false, false));
        let mut frame = vec![0u8; SEAL_BYTES + 5 + bodies];
        frame[SEAL_BYTES] = TAG_ROUNDS;
        frame[SEAL_BYTES + 1..SEAL_BYTES + 5].copy_from_slice(&(rounds as u32).to_be_bytes());
        BurstWriter {
            frame,
            at: SEAL_BYTES + 5,
            shape,
        }
    }

    /// Starts the next round: writes its length, header and vector counts,
    /// and lends its slots.
    ///
    /// # Panics
    ///
    /// Panics if the round does not fit the frame [`BurstWriter::new`]
    /// sized: more rounds, or an accumulator or decode bits where none were
    /// sized.
    pub(crate) fn round(
        &mut self,
        elem: u32,
        round: u32,
        init: bool,
        decode: bool,
    ) -> RoundSlots<'_> {
        let shape = self.shape;
        let body = shape.body_bytes(init, decode);
        let flags = if init { FLAG_INIT } else { 0 } | if decode { FLAG_DECODE } else { 0 };
        let (_, rest) = self.frame.split_at_mut(self.at);
        let (round_bytes, _) = rest.split_at_mut(4 + body);
        self.at += 4 + body;
        let (header, rest) = round_bytes.split_at_mut(17);
        header[..4].copy_from_slice(&(body as u32).to_be_bytes());
        header[4..8].copy_from_slice(&elem.to_be_bytes());
        header[8..12].copy_from_slice(&round.to_be_bytes());
        header[12] = flags;
        header[13..].copy_from_slice(&(shape.tables as u32).to_be_bytes());
        let (tables, rest) = rest.split_at_mut(shape.tables * GarbledTable::WIRE_BYTES);
        let (count, rest) = rest.split_at_mut(4);
        count.copy_from_slice(&(shape.a_labels as u32).to_be_bytes());
        let (a_labels, rest) = rest.split_at_mut(shape.a_labels * 16);
        let (init_acc_labels, rest) = if init {
            let (count, rest) = rest.split_at_mut(4);
            count.copy_from_slice(&(shape.acc as u32).to_be_bytes());
            rest.split_at_mut(shape.acc * 16)
        } else {
            rest.split_at_mut(0)
        };
        let decode = if decode {
            let (count, rest) = rest.split_at_mut(4);
            count.copy_from_slice(&(shape.outputs as u32).to_be_bytes());
            rest
        } else {
            rest
        };
        RoundSlots {
            tables: tables.as_chunks_mut().0,
            a_labels: a_labels.as_chunks_mut().0,
            init_acc_labels: init_acc_labels.as_chunks_mut().0,
            decode,
        }
    }

    /// Seals the frame: its CRC32 over the payload, in place.
    pub(crate) fn seal(mut self) -> Bytes {
        debug_assert_eq!(self.at, self.frame.len(), "every sized round was written");
        let crc = crc32(&self.frame[SEAL_BYTES..]);
        self.frame[..SEAL_BYTES].copy_from_slice(&crc.to_be_bytes());
        Bytes::from(self.frame)
    }
}

/// The one ROUNDS parser: checks a burst's header, insists on exactly
/// `expect` rounds (the client knows the model width from ACCEPT, so any
/// other count is a protocol violation rather than an allocation hint to
/// honor), checks every round body, and lends each round from `frame`.
///
/// # Errors
///
/// [`AcceleratorError::Protocol`] (or the vector codecs' typed
/// [`TransportError`](max_gc::channel::TransportError)) on any malformed or
/// mismatched frame.
pub(crate) fn lend_round_burst(
    frame: &[u8],
    expect: usize,
) -> Result<Vec<RoundView<'_>>, AcceleratorError> {
    let mut r = Reader::new(frame);
    if r.u8("ROUNDS header")? != TAG_ROUNDS {
        return Err(AcceleratorError::Protocol {
            what: "expected ROUNDS frame",
        });
    }
    if r.u32("ROUNDS header")? as usize != expect {
        return Err(AcceleratorError::Protocol {
            what: "ROUNDS count does not match the model",
        });
    }
    let mut rounds = Vec::with_capacity(expect);
    for _ in 0..expect {
        let len = r.u32("ROUNDS body header")? as usize;
        rounds.push(lend_round(r.bytes(len, "ROUNDS body length")?)?);
    }
    r.end("ROUNDS trailing bytes")?;
    Ok(rounds)
}

/// Decodes a ROUNDS burst frame into owned round messages, insisting on
/// exactly `expect` rounds. It runs the parser the client evaluates
/// through, which lends each round from the frame, and copies each round
/// out: what it accepts and refuses is exactly what the client does.
///
/// # Errors
///
/// [`AcceleratorError::Protocol`] (or the vector codecs' typed
/// [`TransportError`](max_gc::channel::TransportError)) on any malformed or
/// mismatched frame.
pub fn decode_round_burst(
    frame: Bytes,
    expect: usize,
) -> Result<Vec<RoundMessage>, AcceleratorError> {
    Ok(lend_round_burst(&frame, expect)?
        .into_iter()
        .map(RoundView::to_message)
        .collect())
}
