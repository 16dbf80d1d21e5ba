//! The wire codec: protocol constants, the tagged control frames, and the
//! EXT / ROUNDS data-frame codecs. Everything here is bytes in, typed
//! value or typed error out — peer input never panics a decoder.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use max_gc::channel::{open_frame, seal_frame, seal_mark, FrameKind};
use max_gc::Transport;
use max_ot::iknp::{ExtendMsg, KAPPA};
use max_telemetry::TraceContext;

use crate::accelerator::RoundMessage;
use crate::error::AcceleratorError;
use crate::wire::{decode_round_message, encode_round_message};

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
/// [`TranscriptDigest`], each EXT carries the client's running digest as a
/// 16-byte trailer, STATS carries the server's, and a mismatch is answered
/// with `REJECT(INTEGRITY)`. Frame *counts* are once more unchanged (the
/// seal and the trailer ride inside existing frames), so resume offsets and
/// fault-injection cut arithmetic carry over from v3.
/// v7 changed what the digest folds, not a byte of any frame's layout: a
/// CIPHER or ROUNDS frame enters it as its 8-byte
/// [`seal_mark`](max_gc::channel::seal_mark) instead of its payload bytes
/// (EXT bodies are still folded by bytes). The digest values riding in EXT
/// trailers and STATS differ from v6's, so the version moved and a v6 peer
/// is refused at HELLO.
pub const PROTOCOL_VERSION: u16 = 7;

/// Largest METRICS reply body the decoder will allocate (1 MiB of JSON is
/// far beyond any honest snapshot; a hostile length dies here, not in the
/// allocator).
pub const MAX_METRICS_BYTES: usize = 1 << 20;

/// Largest OT batch (choice bits) a single EXT frame may declare.
///
/// An honest batch is `cols * bit_width` (≤ 8192 for the paper's largest
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
/// REJECT code: the load-shedding breaker is open; try again later.
pub const REJECT_OVERLOAD: u8 = 5;
/// REJECT code: the named prepared model is unknown (never registered,
/// already evicted, or refused at registration).
pub const REJECT_MODEL: u8 = 6;
/// REJECT code: the peers' rolling transcript digests diverged (v6) — a
/// GC-critical byte was corrupted after framing. The job's checkpoints
/// past the last verified boundary are invalid.
pub const REJECT_INTEGRITY: u8 = 7;

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
/// lock-step EXT/CIPHER/ROUND data frames).
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
        /// Seed for the modeled base-OT phase ([`iknp::setup_pair`]).
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
        /// The server's rolling [`TranscriptDigest`] value over the job's
        /// GC-critical bytes (v6); the client compares it against its own
        /// before accepting the results.
        digest: [u8; 16],
    },
    /// Client → server: reconnect into an interrupted session and continue
    /// the in-flight job from the first incomplete element.
    Resume {
        /// The session being resumed (from ACCEPT).
        session_id: u64,
        /// The session's resume secret (from ACCEPT).
        resume_token: u64,
        /// The interrupted job.
        job_id: u64,
        /// Column count of the interrupted job (consistency check).
        columns: u32,
        /// Output elements the client has fully evaluated.
        elements_done: u32,
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

fn put_trace_id(buf: &mut BytesMut, trace_id: u128) {
    buf.put_u64((trace_id >> 64) as u64);
    buf.put_u64(trace_id as u64);
}

fn get_trace_id(frame: &mut Bytes) -> u128 {
    let hi = frame.get_u64();
    let lo = frame.get_u64();
    (u128::from(hi) << 64) | u128::from(lo)
}

fn put_trace(buf: &mut BytesMut, trace: TraceContext) {
    put_trace_id(buf, trace.trace_id);
    buf.put_u64(trace.span_id);
}

fn get_trace(frame: &mut Bytes) -> TraceContext {
    let trace_id = get_trace_id(frame);
    TraceContext::from_ids(trace_id, frame.get_u64())
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
                put_trace_id(&mut buf, trace_id);
                buf.put_slice(&digest);
            }
            ControlMsg::Resume {
                session_id,
                resume_token,
                job_id,
                columns,
                elements_done,
                trace,
            } => {
                buf.put_u8(TAG_RESUME);
                buf.put_u64(session_id);
                buf.put_u64(resume_token);
                buf.put_u64(job_id);
                buf.put_u32(columns);
                buf.put_u32(elements_done);
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
    /// Returns [`AcceleratorError::Protocol`] for unknown tags or truncated
    /// payloads — peer bytes never panic the decoder.
    pub fn decode(mut frame: Bytes) -> Result<ControlMsg, AcceleratorError> {
        fn need(frame: &Bytes, bytes: usize, what: &'static str) -> Result<(), AcceleratorError> {
            if frame.remaining() < bytes {
                return Err(AcceleratorError::Protocol { what });
            }
            Ok(())
        }
        need(&frame, 1, "empty control frame")?;
        let tag = frame.get_u8();
        let msg = match tag {
            TAG_HELLO => {
                need(&frame, 30, "HELLO payload")?;
                ControlMsg::Hello {
                    version: frame.get_u16(),
                    bit_width: frame.get_u32(),
                    trace: get_trace(&mut frame),
                }
            }
            TAG_ACCEPT => {
                need(&frame, 45, "ACCEPT payload")?;
                ControlMsg::Accept {
                    session_id: frame.get_u64(),
                    ot_seed: frame.get_u64(),
                    resume_token: frame.get_u64(),
                    rows: frame.get_u32(),
                    cols: frame.get_u32(),
                    bit_width: frame.get_u32(),
                    acc_width: frame.get_u32(),
                    signed: frame.get_u8() != 0,
                    freq_mhz_bits: frame.get_u64(),
                }
            }
            TAG_REJECT => {
                need(&frame, 5, "REJECT payload")?;
                ControlMsg::Reject {
                    code: frame.get_u8(),
                    detail: frame.get_u32(),
                }
            }
            TAG_JOB => {
                need(&frame, 5, "JOB payload")?;
                let columns = frame.get_u32();
                let model_id = match frame.get_u8() {
                    0 => None,
                    1 => {
                        need(&frame, 8, "JOB model id")?;
                        Some(frame.get_u64())
                    }
                    _ => {
                        return Err(AcceleratorError::Protocol {
                            what: "JOB model flag",
                        })
                    }
                };
                ControlMsg::JobRequest { columns, model_id }
            }
            TAG_BUSY => {
                need(&frame, 8, "BUSY payload")?;
                ControlMsg::Busy {
                    retry_after_ms: frame.get_u32(),
                    queue_depth: frame.get_u32(),
                }
            }
            TAG_READY => {
                need(&frame, 8, "READY payload")?;
                ControlMsg::Ready {
                    job_id: frame.get_u64(),
                }
            }
            TAG_STATS => {
                need(&frame, 40, "STATS payload")?;
                let fabric_cycles = frame.get_u64();
                let trace_id = get_trace_id(&mut frame);
                let mut digest = [0u8; 16];
                frame.copy_to_slice(&mut digest);
                ControlMsg::Stats {
                    fabric_cycles,
                    trace_id,
                    digest,
                }
            }
            TAG_RESUME => {
                need(&frame, 56, "RESUME payload")?;
                ControlMsg::Resume {
                    session_id: frame.get_u64(),
                    resume_token: frame.get_u64(),
                    job_id: frame.get_u64(),
                    columns: frame.get_u32(),
                    elements_done: frame.get_u32(),
                    trace: get_trace(&mut frame),
                }
            }
            TAG_PING => {
                need(&frame, 8, "PING payload")?;
                ControlMsg::Ping {
                    nonce: frame.get_u64(),
                }
            }
            TAG_PONG => {
                need(&frame, 8, "PONG payload")?;
                ControlMsg::Pong {
                    nonce: frame.get_u64(),
                }
            }
            TAG_METRICS => ControlMsg::MetricsRequest,
            TAG_METRICS_REPLY => {
                need(&frame, 4, "METRICS reply header")?;
                let len = frame.get_u32() as usize;
                if len > MAX_METRICS_BYTES {
                    return Err(AcceleratorError::Protocol {
                        what: "METRICS reply too large",
                    });
                }
                need(&frame, len, "METRICS reply body")?;
                let body = String::from_utf8(frame.split_to(len).to_vec()).map_err(|_| {
                    AcceleratorError::Protocol {
                        what: "METRICS reply is not UTF-8",
                    }
                })?;
                ControlMsg::MetricsReply { body }
            }
            TAG_MODEL_PUT => {
                need(&frame, 16, "MODEL_PUT header")?;
                let model_id = frame.get_u64();
                let rows = frame.get_u32();
                let cols = frame.get_u32();
                let elements = (rows as usize).saturating_mul(cols as usize);
                if rows == 0 || cols == 0 || elements > MAX_MODEL_ELEMENTS {
                    return Err(AcceleratorError::Protocol {
                        what: "MODEL_PUT shape",
                    });
                }
                need(&frame, elements * 8, "MODEL_PUT weights")?;
                let weights = (0..elements).map(|_| frame.get_u64() as i64).collect();
                ControlMsg::ModelPut {
                    model_id,
                    rows,
                    cols,
                    weights,
                }
            }
            TAG_MODEL_STAT => {
                need(&frame, 52, "MODEL_STAT payload")?;
                ControlMsg::ModelStat {
                    status: ModelStatus {
                        model_id: frame.get_u64(),
                        rows: frame.get_u32(),
                        cols: frame.get_u32(),
                        stock: frame.get_u32(),
                        stock_bytes: frame.get_u64(),
                        served_prepared: frame.get_u64(),
                        served_fallback: frame.get_u64(),
                        generation: frame.get_u64(),
                    },
                }
            }
            TAG_MODEL_INFO => {
                need(&frame, 8, "MODEL_INFO payload")?;
                ControlMsg::ModelInfo {
                    model_id: frame.get_u64(),
                }
            }
            TAG_MODEL_EVICT => {
                need(&frame, 8, "MODEL_EVICT payload")?;
                ControlMsg::ModelEvict {
                    model_id: frame.get_u64(),
                }
            }
            TAG_BYE => ControlMsg::Bye,
            _ => {
                return Err(AcceleratorError::Protocol {
                    what: "unknown control tag",
                })
            }
        };
        if frame.remaining() != 0 {
            return Err(AcceleratorError::Protocol {
                what: "control frame trailing bytes",
            });
        }
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

pub(super) fn encode_ext(msg: &ExtendMsg) -> Bytes {
    let words = msg.columns.first().map_or(0, Vec::len);
    let mut buf = BytesMut::with_capacity(9 + KAPPA * words * 8);
    buf.put_u8(TAG_EXT);
    buf.put_u32(msg.count as u32);
    buf.put_u32(words as u32);
    for column in &msg.columns {
        for &word in column {
            buf.put_u64(word);
        }
    }
    buf.freeze()
}

/// Decodes an EXT frame into the extension message and the client's
/// 16-byte transcript-digest trailer (v6).
pub(super) fn decode_ext(mut frame: Bytes) -> Result<(ExtendMsg, [u8; 16]), AcceleratorError> {
    if frame.remaining() < 1 {
        return Err(AcceleratorError::Protocol { what: "EXT header" });
    }
    if frame[0] == TAG_BYE && frame.remaining() == 1 {
        // A well-behaved client may close instead of sending a job's data.
        return Err(AcceleratorError::Disconnected);
    }
    if frame.remaining() < 9 {
        return Err(AcceleratorError::Protocol { what: "EXT header" });
    }
    let tag = frame.get_u8();
    if tag == TAG_BYE {
        return Err(AcceleratorError::Disconnected);
    }
    if tag != TAG_EXT {
        return Err(AcceleratorError::Protocol {
            what: "expected EXT frame",
        });
    }
    let count = frame.get_u32() as usize;
    let words = frame.get_u32() as usize;
    if count > MAX_OT_BATCH || words != count.div_ceil(64) {
        return Err(AcceleratorError::Protocol {
            what: "EXT batch size",
        });
    }
    if frame.remaining() != KAPPA * words * 8 + 16 {
        return Err(AcceleratorError::Protocol {
            what: "EXT payload length",
        });
    }
    let columns = (0..KAPPA)
        .map(|_| (0..words).map(|_| frame.get_u64()).collect())
        .collect();
    let mut mark = [0u8; 16];
    frame.copy_to_slice(&mut mark);
    Ok((ExtendMsg { columns, count }, mark))
}

/// Encodes one output element's full round sequence as a single ROUNDS
/// burst frame: tag, round count, then each round body length-prefixed.
///
/// Public since v5: the prepared-model registry materializes these frames
/// once at garble time and replays the identical bytes on every serve.
pub fn encode_round_burst(msgs: &[RoundMessage]) -> Bytes {
    let bodies: Vec<Bytes> = msgs.iter().map(encode_round_message).collect();
    let total: usize = bodies.iter().map(|b| 4 + b.len()).sum();
    let mut buf = BytesMut::with_capacity(5 + total);
    buf.put_u8(TAG_ROUNDS);
    buf.put_u32(msgs.len() as u32);
    for body in &bodies {
        buf.put_u32(body.len() as u32);
        buf.put_slice(&body[..]);
    }
    buf.freeze()
}

/// Decodes a ROUNDS burst frame, insisting on exactly `expect` rounds (the
/// client knows the model width from ACCEPT, so any other count is a
/// protocol violation rather than an allocation hint to honor).
///
/// # Errors
///
/// [`AcceleratorError::Protocol`] on any malformed or mismatched frame.
pub fn decode_round_burst(
    mut frame: Bytes,
    expect: usize,
) -> Result<Vec<RoundMessage>, AcceleratorError> {
    if frame.remaining() < 5 {
        return Err(AcceleratorError::Protocol {
            what: "ROUNDS header",
        });
    }
    if frame.get_u8() != TAG_ROUNDS {
        return Err(AcceleratorError::Protocol {
            what: "expected ROUNDS frame",
        });
    }
    let count = frame.get_u32() as usize;
    if count != expect {
        return Err(AcceleratorError::Protocol {
            what: "ROUNDS count does not match the model",
        });
    }
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        if frame.remaining() < 4 {
            return Err(AcceleratorError::Protocol {
                what: "ROUNDS body header",
            });
        }
        let len = frame.get_u32() as usize;
        if frame.remaining() < len {
            return Err(AcceleratorError::Protocol {
                what: "ROUNDS body length",
            });
        }
        msgs.push(decode_round_message(frame.split_to(len))?);
    }
    if frame.remaining() != 0 {
        return Err(AcceleratorError::Protocol {
            what: "ROUNDS trailing bytes",
        });
    }
    Ok(msgs)
}
