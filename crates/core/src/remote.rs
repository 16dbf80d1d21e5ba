//! Session-driven two-party protocol over any [`Transport`].
//!
//! The in-process [`connect`](crate::connect)/[`secure_matvec`](crate::secure_matvec)
//! pair assumes both parties live in one address space. This module is the
//! wire-facing equivalent: a [`RemoteClient`] (the evaluator) speaks a small
//! framed protocol to a serving garbler — over the in-memory
//! [`Duplex`](max_gc::channel::Duplex) or loopback/real TCP, identically —
//! and recovers exact MAC results through the full OT-extension stack.
//!
//! ## Protocol
//!
//! ```text
//! client                                server
//!   | -- HELLO(version, bit_width) ------> |   handshake
//!   | <-- ACCEPT(session, ot_seed, token, |
//!   |            rows, cols, config) ----- |   (or REJECT(reason))
//!   |                                      |
//!   | -- JOB(columns) -------------------> |   enqueue on the unit pool
//!   | <-- READY(job_id) ------------------ |   (or BUSY(retry_after_ms))
//!   |    per output element:               |
//!   | -- EXT(OT corrections) -----------> |
//!   | <-- CIPHER(OT ciphertext blocks) --- |
//!   | <-- ROUNDS (all cols rounds, 1 frame)|
//!   | <-- STATS(fabric cycles) ----------- |   job done
//!   |            ... more jobs ...         |
//!   | -- PING(nonce) --------------------> |   keep-alive between jobs
//!   | <-- PONG(nonce) -------------------- |
//!   | -- BYE ----------------------------> |   graceful close
//! ```
//!
//! **Resumption.** A client that loses its connection mid-job reconnects
//! and sends `RESUME(session, token, job, columns, elements_done)` instead
//! of HELLO. The server re-derives the garbled job from the original seed,
//! restores its OT-sender snapshot at the element boundary, and replies
//! `READY(job)`; the exchange continues from `elements_done`. Both parties
//! roll back to the start of the first incomplete element, so the stitched
//! transcript is bit-identical to an uninterrupted run (the property the
//! chaos e2e tests pin down). `resume_token` is an unguessable per-session
//! secret from ACCEPT — possession proves the resumer is the original
//! client. Servers must mint it from fresh OS entropy, never from the
//! seed chain: [`derive_seed`] is an invertible bijection and `ot_seed`
//! (also seed-derived) is published on the wire, so a seed-derived token
//! would be forgeable by any client. `max-serve` draws tokens from the OS;
//! the in-crate test servers derive them for reproducibility and make no
//! authentication claim.
//!
//! **Tracing.** Since v4 every HELLO/RESUME carries a [`TraceContext`]
//! (128-bit trace id + root span id) minted by the client from OS entropy
//! — the same provenance as resume tokens — and STATS echoes the trace id
//! back. The ids are correlation handles for observability (stitching
//! client-side and server-side span snapshots into one per-job timeline);
//! they are sent in the clear, derive no key material, and never perturb
//! the OT/garbling byte stream. Deterministic transcript tests connect
//! with [`TraceContext::none`] so HELLO frames stay bit-comparable.
//!
//! **Metrics.** An admin `METRICS` frame (v4) may be sent instead of — or
//! between — jobs; the server answers with a JSON snapshot of its live
//! counters/percentiles without touching the job state machine, so
//! operators can poll tail latency from a running server even while it is
//! draining.
//!
//! **Prepared models (v5).** A client may register a weight matrix under a
//! caller-chosen id (`MODEL_PUT`), inspect its precompute stock
//! (`MODEL_INFO`), or drop it (`MODEL_EVICT`); the server answers each with
//! a `MODEL_STAT` snapshot (or `REJECT(MODEL)`). A `JOB` may then name a
//! model id, and the server serves it from pre-garbled streams built during
//! idle time — the paper's §3 offline/online split: the online exchange
//! shrinks to OT plus replay of already-materialized frames. These frames
//! are garbler-side only: weights travel from the *model owner* to the
//! server in the clear (the garbler knows the matrix in this model, exactly
//! as in the in-process API), while evaluator inputs still enter solely as
//! OT choice bits. Every serve consumes a distinct generation of the
//! model's seed schedule, so labels are never reused across serves.
//!
//! Control frames are tagged raw frames; OT ciphertexts ride a
//! [`FrameKind::Blocks`] frame so the per-kind channel accounting matches
//! the in-process transcript split. The client's `x` never crosses the wire
//! — only OT correction bits do, exactly as in the paper's Figure 1.
//!
//! Seeds: the server derives one seed per session (see [`derive_seed`]) and
//! publishes `ot_seed` in ACCEPT; both sides run
//! [`iknp::setup_pair`]`(ot_seed)` and keep their half. This mirrors the
//! repository's in-process trusted-dealer base-OT shortcut — the base phase
//! is modeled, the extension is real.
//!
//! **Integrity (v6, folded once per byte since v7).** Every protocol frame
//! is sealed with a CRC32 prefix ([`max_gc::channel::seal_frame`]), so a
//! bit flipped in transit dies at framing as a typed
//! [`TransportError::Checksum`](max_gc::channel::TransportError) instead of
//! reaching GC state. Above the per-frame check, both sides keep a rolling
//! [`TranscriptDigest`] per job; the client piggy-backs its running value
//! as a 16-byte EXT trailer and the server echoes its own in STATS, so any
//! divergence — a replaced, reordered, duplicated, dropped or stale frame,
//! a corrupted cache entry, journal bit rot — surfaces as
//! `REJECT(INTEGRITY)` / [`AcceleratorError::Integrity`] within one
//! element. What is folded: an **EXT body by its bytes** (1 KB, and its own
//! mark trails it in the same frame), a **CIPHER or ROUNDS frame by its
//! 8-byte seal mark** ([`max_gc::channel::seal_mark`]: the CRC32 it was
//! sealed with ‖ its length) — the sender folds the mark of the frame it
//! just sealed, the receiver the mark of the frame `open_frame` just
//! verified, so a job's bulk bytes are walked by the CRC and by nothing
//! else. v6 folded those payloads byte by byte on both sides; the digest
//! *values* in EXT and STATS therefore differ, which is why this is v7 and
//! a v6 peer is turned away at HELLO with `REJECT(VERSION)` rather than at
//! its first EXT with `REJECT(INTEGRITY)`. Per-frame strength is the CRC's
//! 32 bits plus the length; the digest chains the marks, it does not add
//! bits to any one of them. All of it detects **accidental** corruption
//! only: the CRC is unkeyed and the digest key is fixed and public, so an
//! active adversary can tamper and re-seal — the honest-but-curious
//! boundary of the stack is unchanged.

// Protocol paths must never panic on peer input; unwraps are confined to
// tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::{
    decode_blocks, encode_block_pairs, open_frame, seal_frame, seal_mark, FrameKind,
};
use max_gc::Transport;
use max_ot::iknp::{self, CipherMsg, ExtendMsg, OtExtReceiver, OtExtSender, KAPPA};
use max_telemetry::TraceContext;

use crate::accelerator::{Maxelerator, RoundMessage, ScheduledEvaluator};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::server::MatvecTranscript;
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

const TAG_HELLO: u8 = 1;
const TAG_ACCEPT: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_JOB: u8 = 4;
const TAG_BUSY: u8 = 5;
const TAG_READY: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_BYE: u8 = 8;
const TAG_EXT: u8 = 9;
// TAG 10 was the v2 per-round ROUND frame; v3 replaced it with ROUNDS.
const TAG_RESUME: u8 = 11;
const TAG_PING: u8 = 12;
const TAG_PONG: u8 = 13;
const TAG_ROUNDS: u8 = 14;
const TAG_METRICS: u8 = 15;
const TAG_METRICS_REPLY: u8 = 16;
const TAG_MODEL_PUT: u8 = 17;
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
fn recv_marked<T: Transport + ?Sized>(
    transport: &mut T,
) -> Result<(Bytes, [u8; 8]), AcceleratorError> {
    let sealed = transport.recv_frame()?;
    let mark = seal_mark(&sealed);
    Ok((open_frame(sealed)?, mark))
}

/// Splitmix-style seed derivation: one base seed, many independent
/// per-session / per-job seeds.
pub fn derive_seed(base: u64, tweak: u64) -> u64 {
    let mut z = base ^ tweak.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn encode_ext(msg: &ExtendMsg) -> Bytes {
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
fn decode_ext(mut frame: Bytes) -> Result<(ExtendMsg, [u8; 16]), AcceleratorError> {
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

/// One garbled output element: its round messages and the OT label pairs
/// (bit-width pairs per round, concatenated in round order).
#[derive(Clone, Debug)]
pub struct GarbledRow {
    /// Round messages in round order.
    pub messages: Vec<RoundMessage>,
    /// OT pairs matching the client's choice bits for this row.
    pub pairs: Vec<(Block, Block)>,
}

/// A fully garbled job, ready to stream: the compute-heavy product of a
/// pool worker, handed back to the session thread for the wire exchange.
#[derive(Clone, Debug)]
pub struct GarbledJob {
    /// `columns * rows` garbled elements, pass-major.
    pub rows: Vec<GarbledRow>,
    /// Model rows per pass (output elements of one matvec).
    pub rows_per_pass: usize,
    /// Fabric cycles this job cost.
    pub fabric_cycles: u64,
    /// Wall-clock the fabric would need at the configured frequency.
    pub fabric_seconds: f64,
}

/// Garbles a complete matvec/matmul job on a fresh accelerator seeded with
/// `seed` — pure compute, no I/O, safe to run on any worker thread.
///
/// Each pass garbles every model row; element ids advance across passes so
/// labels stay fresh for every round of every column.
///
/// # Errors
///
/// Propagates [`AcceleratorError`] from the garbling schedule.
///
/// # Panics
///
/// Panics if the model is empty or `columns` is zero (serving code
/// validates both before enqueueing).
pub fn garble_matvec_job(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
) -> Result<GarbledJob, AcceleratorError> {
    assert!(!weights.is_empty(), "job needs a non-empty model");
    assert!(columns > 0, "job needs at least one column");
    let _span = max_telemetry::span("remote.garble_job");
    let mut accel = Maxelerator::new(config.clone(), seed);
    let n_rows = weights.len();
    let mut rows = Vec::with_capacity(n_rows * columns as usize);
    for pass in 0..columns as usize {
        for (r, row) in weights.iter().enumerate() {
            accel.begin_element((pass * n_rows + r) as u32);
            let messages = accel.try_garble_job(row, true)?;
            let mut pairs = Vec::with_capacity(row.len() * config.bit_width);
            for msg in &messages {
                pairs.extend_from_slice(accel.ot_pairs(msg.round)?);
            }
            rows.push(GarbledRow { messages, pairs });
        }
    }
    let cycles = accel.report().cycles;
    Ok(GarbledJob {
        rows,
        rows_per_pass: n_rows,
        fabric_cycles: cycles,
        fabric_seconds: cycles as f64 / (config.freq_mhz * 1e6),
    })
}

/// One output element of a [`MaterializedJob`]: the OT label pairs the
/// sender still needs at serve time (the CIPHER frame depends on the
/// client's live EXT corrections, so it cannot be pre-encoded) plus the
/// element's ROUNDS burst frame, already rendered to wire bytes.
#[derive(Clone, Debug)]
pub struct MaterializedElement {
    /// OT pairs matching the client's choice bits for this element.
    pub pairs: Vec<(Block, Block)>,
    /// The element's pre-encoded ROUNDS burst frame.
    pub rounds_frame: Bytes,
    /// Sum of the element's round-message wire bytes (transcript stat).
    pub material_bytes: u64,
    /// Garbled tables across the element's rounds (transcript stat).
    pub tables: u64,
    /// Rounds in the element (the model's column count).
    pub rounds: u64,
}

/// A garbled job rendered to its wire form ahead of the exchange: what a
/// prepared-model stock stores and what every serve streams. Frames are
/// [`Bytes`] (cheap to clone, shared storage), so replaying a stream costs
/// OT plus memcpy — the paper's §3 online phase.
#[derive(Clone, Debug)]
pub struct MaterializedJob {
    /// `columns * rows` materialized elements, pass-major.
    pub elements: Vec<MaterializedElement>,
    /// Model rows per pass (output elements of one matvec).
    pub rows_per_pass: usize,
    /// Fabric cycles the offline garbling cost.
    pub fabric_cycles: u64,
    /// Wall-clock the fabric would need at the configured frequency.
    pub fabric_seconds: f64,
}

impl MaterializedJob {
    /// Bytes this job occupies at rest (pre-encoded frames + label pairs),
    /// the quantity a byte-budgeted cache accounts for.
    pub fn stored_bytes(&self) -> u64 {
        self.elements
            .iter()
            .map(|e| e.rounds_frame.len() as u64 + (e.pairs.len() * 32) as u64)
            .sum()
    }
}

/// The [`AcceleratorError::Integrity`] detail for a prepared stream whose
/// at-rest bytes no longer match the digest recorded when it was garbled —
/// the serving layer matches on this to route the failure into the
/// registry's rot accounting.
pub const STREAM_DIGEST_MISMATCH: &str = "prepared stream digest mismatch";

/// Digest of a materialized stream's GC-critical bytes — every element's
/// pre-encoded ROUNDS frame and OT label pairs, each folded in serve order
/// as one [`TranscriptDigest::fold_wide`] message (eight interleaved AES
/// lanes: the re-hash behind READY is throughput-, not latency-bound).
/// Computed once when the stream is garbled and re-verified before the
/// stream is served, so material that rots while cached (DRAM fault, disk
/// rot) is detected before it reaches a wire. Accidental-corruption
/// detection only: anything that can rewrite the cache can rewrite the
/// digest beside it.
pub fn stream_digest(job: &MaterializedJob) -> [u8; 16] {
    let mut digest = TranscriptDigest::new();
    for elem in &job.elements {
        digest.fold_wide([&elem.rounds_frame[..]]);
        digest.fold_wide(
            elem.pairs
                .iter()
                .flat_map(|(zero, one)| [zero.to_bytes(), one.to_bytes()]),
        );
    }
    digest.value()
}

/// Renders a garbled job to its wire form: encodes each element's ROUNDS
/// burst once and keeps the OT pairs. Byte-for-byte, streaming the result
/// is identical to streaming the [`GarbledJob`] directly —
/// [`stream_matvec_job_from`] is implemented on top of this.
pub fn materialize_job(job: &GarbledJob) -> MaterializedJob {
    let elements = job
        .rows
        .iter()
        .map(|row| MaterializedElement {
            pairs: row.pairs.clone(),
            rounds_frame: encode_round_burst(&row.messages),
            material_bytes: row.messages.iter().map(|m| m.wire_bytes() as u64).sum(),
            tables: row.messages.iter().map(|m| m.tables.len() as u64).sum(),
            rounds: row.messages.len() as u64,
        })
        .collect();
    MaterializedJob {
        elements,
        rows_per_pass: job.rows_per_pass,
        fabric_cycles: job.fabric_cycles,
        fabric_seconds: job.fabric_seconds,
    }
}

/// Streams a garbled job to the client: READY, then per element the
/// EXT → CIPHER → ROUND... exchange, then STATS. Runs on the session
/// thread (the server side of [`RemoteClient::secure_matvec`]).
///
/// # Errors
///
/// Propagates transport failures and protocol violations; on any error the
/// session should be torn down (the OT state is no longer aligned) — or
/// checkpointed for RESUME, see [`stream_matvec_job_from`].
pub fn stream_matvec_job<T: Transport + ?Sized>(
    transport: &mut T,
    job: &GarbledJob,
    ot_sender: &mut OtExtSender,
    job_id: u64,
    trace: TraceContext,
) -> Result<MatvecTranscript, AcceleratorError> {
    let mut digest = TranscriptDigest::new();
    stream_matvec_job_from(
        transport,
        job,
        ot_sender,
        &mut digest,
        job_id,
        trace,
        0,
        |_, _, _| {},
    )
}

/// [`stream_matvec_job`] generalized for resumption: starts the exchange
/// at `start_element` (elements before it were already streamed on an
/// earlier connection) and calls `on_element(next_element, ot_sender,
/// digest)` once per element, after the OT and digest state advance but
/// *before* the element's CIPHER/ROUNDS frames go out — the hook where a
/// serving layer snapshots (and durably journals) the OT sender and the
/// transcript digest for round checkpoints. The write-before-send ordering
/// guarantees a journal is never behind the client's observed progress,
/// whatever instant the process dies.
///
/// The caller must hand in an `ot_sender` and `digest` whose states match
/// `start_element` (for a resume: the snapshots taken at that boundary —
/// a fresh [`TranscriptDigest`] when starting at element zero).
///
/// # Errors
///
/// See [`stream_matvec_job`].
#[allow(clippy::too_many_arguments)]
pub fn stream_matvec_job_from<T: Transport + ?Sized>(
    transport: &mut T,
    job: &GarbledJob,
    ot_sender: &mut OtExtSender,
    digest: &mut TranscriptDigest,
    job_id: u64,
    trace: TraceContext,
    start_element: usize,
    on_element: impl FnMut(usize, &OtExtSender, &TranscriptDigest),
) -> Result<MatvecTranscript, AcceleratorError> {
    stream_materialized_job_from(
        transport,
        &materialize_job(job),
        ot_sender,
        digest,
        job_id,
        trace,
        start_element,
        None,
        on_element,
    )
}

/// The wire exchange of [`stream_matvec_job_from`], driven from an
/// already-[`materialize_job`]d stream — the prepared-model online path.
/// The bytes on the wire are identical whichever entry point is used; only
/// the moment the ROUNDS frames were rendered differs (offline precompute
/// vs just-in-time).
///
/// `expected_digest` carries the [`stream_digest`] recorded when a cached
/// stream was garbled. It is re-verified here, *after* READY goes out but
/// *before* any material frame does: the rehash scales with the stream
/// while the admission window must not, so it is pipelined past READY
/// (overlapping the client's first OT extension) — yet a rotted stream
/// still never puts a byte of material on the wire. A mismatch answers the
/// client's first EXT with `REJECT(integrity)` and fails typed with
/// [`STREAM_DIGEST_MISMATCH`].
///
/// # Errors
///
/// See [`stream_matvec_job`].
#[allow(clippy::too_many_arguments)]
pub fn stream_materialized_job_from<T: Transport + ?Sized>(
    transport: &mut T,
    job: &MaterializedJob,
    ot_sender: &mut OtExtSender,
    digest: &mut TranscriptDigest,
    job_id: u64,
    trace: TraceContext,
    start_element: usize,
    expected_digest: Option<[u8; 16]>,
    mut on_element: impl FnMut(usize, &OtExtSender, &TranscriptDigest),
) -> Result<MatvecTranscript, AcceleratorError> {
    let _span = max_telemetry::span("remote.stream_job");
    send_control(transport, &ControlMsg::Ready { job_id })?;
    if let Some(expected) = expected_digest {
        if stream_digest(job) != expected {
            send_control(
                transport,
                &ControlMsg::Reject {
                    code: REJECT_INTEGRITY,
                    detail: u32::MAX,
                },
            )?;
            return Err(AcceleratorError::Integrity {
                what: STREAM_DIGEST_MISMATCH,
            });
        }
    }
    let mut transcript = MatvecTranscript {
        elements: job.elements.len().saturating_sub(start_element),
        fabric_cycles: job.fabric_cycles,
        fabric_seconds: job.fabric_seconds,
        ..MatvecTranscript::default()
    };
    for (idx, elem) in job.elements.iter().enumerate().skip(start_element) {
        let ext_frame = open_frame(transport.recv_frame()?)?;
        let (ext, client_mark) = decode_ext(ext_frame.clone())?;
        if ext.count != elem.pairs.len() {
            return Err(AcceleratorError::Protocol {
                what: "EXT count does not match the job's OT pairs",
            });
        }
        // Fold the EXT body (sans its 16-byte trailer) and insist the
        // client's running digest matches ours before the OT state
        // advances: a divergence detected here leaves every snapshot at or
        // before this boundary verified, so RESUME stays sound.
        digest.fold(&ext_frame[..ext_frame.len() - 16]);
        if client_mark != digest.value() {
            send_control(
                transport,
                &ControlMsg::Reject {
                    code: REJECT_INTEGRITY,
                    detail: idx as u32,
                },
            )?;
            return Err(AcceleratorError::Integrity {
                what: "client transcript digest mismatch at EXT",
            });
        }
        transcript.ot_upload_bytes += ext.columns.iter().map(|c| c.len() as u64 * 8).sum::<u64>();
        let cipher = ot_sender.send(&ext, &elem.pairs);
        // Seal first, fold the seals: the CRC pass that frames each of the
        // element's two bulk frames is also its contribution to the digest
        // (v7), and it lands *before* the checkpoint hook fires, so a
        // snapshot at boundary `idx + 1` matches the client's digest
        // checkpoint at the same boundary.
        let cipher_frame = seal_frame(encode_block_pairs(&cipher.pairs));
        let rounds_frame = seal_frame(elem.rounds_frame.clone());
        digest.fold(&seal_mark(&cipher_frame));
        digest.fold(&seal_mark(&rounds_frame));
        // Checkpoint *before* delivering this element's CIPHER/ROUNDS frames:
        // a durable journal hooked in here then always covers at least as much
        // progress as the client has observed, so a crash between the journal
        // write and the sends can only leave the server one element *ahead* —
        // which the last-2 snapshot window resolves — never behind (which
        // would force a REJECT on resume).
        on_element(idx + 1, ot_sender, digest);
        transcript.ot_bytes += (cipher.pairs.len() * 32) as u64;
        transport.send_frame(FrameKind::Blocks, cipher_frame)?;
        transcript.material_bytes += elem.material_bytes;
        transcript.tables += elem.tables;
        transcript.rounds += elem.rounds;
        // One burst frame per element instead of one frame per round: the
        // per-frame overhead (and per-frame fault-injection surface) no
        // longer scales with model width.
        transport.send_frame(FrameKind::Raw, rounds_frame)?;
    }
    send_control(
        transport,
        &ControlMsg::Stats {
            fabric_cycles: job.fabric_cycles,
            trace_id: trace.trace_id,
            digest: digest.value(),
        },
    )?;
    Ok(transcript)
}

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
    transport: T,
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
    /// server decomposes it into tiles and pre-garbles single-use streams
    /// for it during idle time, so later
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
        let _span = max_telemetry::span("remote.client_job");
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
        let _span = max_telemetry::span("remote.client_job");
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
            ControlMsg::Ready { job_id } if job_id == progress.job_id => {
                max_telemetry::counter_add("remote.jobs_resumed", 1);
                Ok(())
            }
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
            let mut choices = Vec::with_capacity(column.len() * b);
            for &xl in column {
                choices.extend(self.state.config.encode_x(xl));
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use max_gc::channel::Duplex;

    /// Minimal single-session server loop over any transport, used by the
    /// tests here and mirrored (with scheduling) by `max-serve`.
    fn serve_one_session<T: Transport>(
        mut transport: T,
        config: &AcceleratorConfig,
        weights: &[Vec<i64>],
        base_seed: u64,
        session_id: u64,
    ) -> Result<(), AcceleratorError> {
        let hello = match recv_control(&mut transport)? {
            ControlMsg::Hello {
                version,
                bit_width,
                trace,
            } => (version, bit_width, trace),
            _ => {
                return Err(AcceleratorError::Protocol {
                    what: "expected HELLO",
                })
            }
        };
        if hello.0 != PROTOCOL_VERSION {
            send_control(
                &mut transport,
                &ControlMsg::Reject {
                    code: REJECT_VERSION,
                    detail: u32::from(PROTOCOL_VERSION),
                },
            )?;
            return Ok(());
        }
        if hello.1 as usize != config.bit_width {
            send_control(
                &mut transport,
                &ControlMsg::Reject {
                    code: REJECT_WIDTH,
                    detail: config.bit_width as u32,
                },
            )?;
            return Ok(());
        }
        let session_seed = derive_seed(base_seed, session_id);
        let ot_seed = derive_seed(session_seed, 0x07);
        send_control(
            &mut transport,
            &ControlMsg::Accept {
                session_id,
                ot_seed,
                resume_token: derive_seed(session_seed, 0x7e57),
                rows: weights.len() as u32,
                cols: weights.first().map_or(0, Vec::len) as u32,
                bit_width: config.bit_width as u32,
                acc_width: config.acc_width as u32,
                signed: config.signed,
                freq_mhz_bits: config.freq_mhz.to_bits(),
            },
        )?;
        let (mut ot_sender, _receiver) = iknp::setup_pair(ot_seed);
        let mut job_id = 0u64;
        loop {
            match recv_control(&mut transport) {
                Ok(ControlMsg::JobRequest {
                    columns,
                    model_id: None,
                }) => {
                    let job = garble_matvec_job(
                        config,
                        weights,
                        derive_seed(session_seed, 0x100 + job_id),
                        columns,
                    )?;
                    stream_matvec_job(&mut transport, &job, &mut ot_sender, job_id, hello.2)?;
                    job_id += 1;
                }
                Ok(ControlMsg::Ping { nonce }) => {
                    send_control(&mut transport, &ControlMsg::Pong { nonce })?;
                }
                Ok(ControlMsg::Bye) | Err(AcceleratorError::Disconnected) => return Ok(()),
                Ok(_) => {
                    return Err(AcceleratorError::Protocol {
                        what: "expected JOB or BYE",
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn remote_matvec_over_duplex_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64, -2, 3], vec![-4, 5, 6], vec![7, 0, -8]];
        let x = vec![9i64, -10, 11];
        let expected = plain_matvec(&w, &x);
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            let w = w.clone();
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 42, 0))
        };
        let mut client = RemoteClient::connect(client_end, 8).unwrap();
        assert_eq!(client.rows(), 3);
        assert_eq!(client.cols(), 3);
        let (y, t) = client.secure_matvec(&x).unwrap();
        assert_eq!(y, expected);
        assert_eq!(t.elements, 3);
        assert_eq!(t.rounds, 9);
        assert!(t.tables > 0);
        assert!(t.material_bytes > 0);
        assert!(t.ot_bytes > 0);
        assert!(t.ot_upload_bytes > 0);
        assert!(t.fabric_cycles > 0);
        // Keep-alive between jobs answers with the same nonce.
        client.ping(0xfeed_f00d).unwrap();
        // Second job on the same session still decodes correctly.
        let (y2, _) = client.secure_matvec(&[1, 1, 1]).unwrap();
        assert_eq!(y2, plain_matvec(&w, &[1, 1, 1]));
        client.goodbye();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn remote_matmul_over_duplex_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, -3], vec![4, 5]];
        let cols = vec![vec![1i64, 2], vec![-7, 8], vec![0, -1]];
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            let w = w.clone();
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 7, 3))
        };
        let mut client = RemoteClient::connect(client_end, 8).unwrap();
        let (y, t) = client.secure_matmul(&cols).unwrap();
        for (j, column) in cols.iter().enumerate() {
            assert_eq!(y[j], plain_matvec(&w, column), "column {j}");
        }
        assert_eq!(t.elements, 6);
        client.goodbye();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // The previous version (whose digests fold different things, so it
        // must never get as far as an EXT check) and a bogus future one,
        // both spoken by hand.
        for version in [PROTOCOL_VERSION - 1, 999] {
            let config = AcceleratorConfig::new(8);
            let w = vec![vec![1i64]];
            let (server_end, mut client_end) = Duplex::pair();
            let server =
                std::thread::spawn(move || serve_one_session(server_end, &config, &w, 1, 0));
            send_control(
                &mut client_end,
                &ControlMsg::Hello {
                    version,
                    bit_width: 8,
                    trace: TraceContext::none(),
                },
            )
            .unwrap();
            match recv_control(&mut client_end).unwrap() {
                ControlMsg::Reject { code, detail } => {
                    assert_eq!(code, REJECT_VERSION);
                    assert_eq!(detail, u32::from(PROTOCOL_VERSION));
                    assert_eq!(reject_reason(code), "protocol version mismatch");
                }
                other => panic!("expected REJECT, got {other:?}"),
            }
            server.join().unwrap().unwrap();
        }
    }

    #[test]
    fn width_mismatch_surfaces_as_rejected_error() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64]];
        let (server_end, client_end) = Duplex::pair();
        let server = std::thread::spawn(move || serve_one_session(server_end, &config, &w, 1, 0));
        let err = RemoteClient::connect(client_end, 16).unwrap_err();
        assert_eq!(
            err,
            AcceleratorError::Rejected {
                reason: "unsupported bit width"
            }
        );
        server.join().unwrap().unwrap();
    }

    #[test]
    fn mid_job_disconnect_is_a_typed_error_server_side() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64, 2]];
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let config = config.clone();
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 9, 0))
        };
        let mut client = RemoteClient::connect(client_end, 8).unwrap();
        // Request a job, then vanish before sending EXT.
        send_control(
            &mut client.transport,
            &ControlMsg::JobRequest {
                columns: 1,
                model_id: None,
            },
        )
        .unwrap();
        match recv_control(&mut client.transport).unwrap() {
            ControlMsg::Ready { .. } => {}
            other => panic!("expected READY, got {other:?}"),
        }
        drop(client);
        assert_eq!(server.join().unwrap(), Err(AcceleratorError::Disconnected));
    }

    #[test]
    fn control_frames_round_trip() {
        let msgs = [
            ControlMsg::Hello {
                version: PROTOCOL_VERSION,
                bit_width: 16,
                trace: TraceContext::from_ids(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, 0x1dea),
            },
            ControlMsg::Accept {
                session_id: 7,
                ot_seed: 0xdead_beef,
                resume_token: 0x5eed_cafe,
                rows: 3,
                cols: 4,
                bit_width: 16,
                acc_width: 40,
                signed: true,
                freq_mhz_bits: 200.0f64.to_bits(),
            },
            ControlMsg::Reject {
                code: REJECT_DRAINING,
                detail: 0,
            },
            ControlMsg::Resume {
                session_id: 7,
                resume_token: 0x5eed_cafe,
                job_id: 2,
                columns: 4,
                elements_done: 9,
                trace: TraceContext::from_ids(u128::MAX, u64::MAX),
            },
            ControlMsg::Ping { nonce: 0xabad_1dea },
            ControlMsg::Pong { nonce: 0xabad_1dea },
            ControlMsg::JobRequest {
                columns: 2,
                model_id: None,
            },
            ControlMsg::JobRequest {
                columns: 1,
                model_id: Some(0x0de1),
            },
            ControlMsg::ModelPut {
                model_id: 3,
                rows: 2,
                cols: 3,
                weights: vec![1, -2, 3, -4, 5, -6],
            },
            ControlMsg::ModelStat {
                status: ModelStatus {
                    model_id: 3,
                    rows: 2,
                    cols: 3,
                    stock: 4,
                    stock_bytes: 8192,
                    served_prepared: 7,
                    served_fallback: 1,
                    generation: 12,
                },
            },
            ControlMsg::ModelInfo { model_id: 3 },
            ControlMsg::ModelEvict { model_id: u64::MAX },
            ControlMsg::Busy {
                retry_after_ms: 15,
                queue_depth: 9,
            },
            ControlMsg::Ready { job_id: 11 },
            ControlMsg::Stats {
                fabric_cycles: 12345,
                trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
                digest: *b"0123456789abcdef",
            },
            ControlMsg::MetricsRequest,
            ControlMsg::MetricsReply {
                body: "{\"schema\":\"maxelerator-metrics-v1\"}".to_string(),
            },
            ControlMsg::MetricsReply {
                body: String::new(),
            },
            ControlMsg::Bye,
        ];
        for msg in &msgs {
            assert_eq!(&ControlMsg::decode(msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn malformed_control_frames_are_typed_errors() {
        let empty = BytesMut::with_capacity(0);
        assert!(matches!(
            ControlMsg::decode(empty.freeze()),
            Err(AcceleratorError::Protocol { .. })
        ));
        let mut unknown = BytesMut::with_capacity(1);
        unknown.put_u8(200);
        assert!(matches!(
            ControlMsg::decode(unknown.freeze()),
            Err(AcceleratorError::Protocol { .. })
        ));
        let mut truncated = BytesMut::with_capacity(2);
        truncated.put_u8(TAG_HELLO);
        truncated.put_u8(1);
        assert!(matches!(
            ControlMsg::decode(truncated.freeze()),
            Err(AcceleratorError::Protocol { .. })
        ));
        let mut trailing = ControlMsg::Bye.encode().to_vec();
        trailing.push(0);
        assert!(matches!(
            ControlMsg::decode(Bytes::from(trailing)),
            Err(AcceleratorError::Protocol { .. })
        ));
        // A v3-sized HELLO (6-byte payload, no trace) is truncated under v4.
        let mut v3_hello = BytesMut::with_capacity(7);
        v3_hello.put_u8(TAG_HELLO);
        v3_hello.put_u16(3);
        v3_hello.put_u32(8);
        assert!(matches!(
            ControlMsg::decode(v3_hello.freeze()),
            Err(AcceleratorError::Protocol {
                what: "HELLO payload"
            })
        ));
    }

    #[test]
    fn hostile_metrics_replies_are_typed_errors() {
        // Declared length beyond the cap dies before allocation.
        let mut big = BytesMut::with_capacity(5);
        big.put_u8(TAG_METRICS_REPLY);
        big.put_u32((MAX_METRICS_BYTES + 1) as u32);
        assert!(matches!(
            ControlMsg::decode(big.freeze()),
            Err(AcceleratorError::Protocol {
                what: "METRICS reply too large"
            })
        ));
        // Declared length longer than the frame.
        let mut short = BytesMut::with_capacity(8);
        short.put_u8(TAG_METRICS_REPLY);
        short.put_u32(5);
        short.put_slice(b"ab");
        assert!(matches!(
            ControlMsg::decode(short.freeze()),
            Err(AcceleratorError::Protocol {
                what: "METRICS reply body"
            })
        ));
        // Body that is not UTF-8.
        let mut bad = BytesMut::with_capacity(8);
        bad.put_u8(TAG_METRICS_REPLY);
        bad.put_u32(2);
        bad.put_slice(&[0xff, 0xfe]);
        assert!(matches!(
            ControlMsg::decode(bad.freeze()),
            Err(AcceleratorError::Protocol {
                what: "METRICS reply is not UTF-8"
            })
        ));
        // Trailing bytes after the declared body.
        let mut trailing = BytesMut::with_capacity(8);
        trailing.put_u8(TAG_METRICS_REPLY);
        trailing.put_u32(1);
        trailing.put_slice(b"xy");
        assert!(matches!(
            ControlMsg::decode(trailing.freeze()),
            Err(AcceleratorError::Protocol {
                what: "control frame trailing bytes"
            })
        ));
    }

    #[test]
    fn hostile_model_frames_are_typed_errors() {
        // Declared shape beyond the element cap dies before allocation.
        let mut big = BytesMut::with_capacity(17);
        big.put_u8(TAG_MODEL_PUT);
        big.put_u64(1);
        big.put_u32(u32::MAX);
        big.put_u32(u32::MAX);
        assert!(matches!(
            ControlMsg::decode(big.freeze()),
            Err(AcceleratorError::Protocol {
                what: "MODEL_PUT shape"
            })
        ));
        // Zero-row and zero-column matrices are refused outright.
        for (rows, cols) in [(0u32, 3u32), (3, 0)] {
            let mut empty = BytesMut::with_capacity(17);
            empty.put_u8(TAG_MODEL_PUT);
            empty.put_u64(1);
            empty.put_u32(rows);
            empty.put_u32(cols);
            assert!(matches!(
                ControlMsg::decode(empty.freeze()),
                Err(AcceleratorError::Protocol {
                    what: "MODEL_PUT shape"
                })
            ));
        }
        // Declared shape longer than the payload.
        let mut short = BytesMut::with_capacity(25);
        short.put_u8(TAG_MODEL_PUT);
        short.put_u64(1);
        short.put_u32(2);
        short.put_u32(2);
        short.put_u64(5);
        assert!(matches!(
            ControlMsg::decode(short.freeze()),
            Err(AcceleratorError::Protocol {
                what: "MODEL_PUT weights"
            })
        ));
        // A JOB with an undefined model flag is refused.
        let mut bad_flag = BytesMut::with_capacity(6);
        bad_flag.put_u8(TAG_JOB);
        bad_flag.put_u32(1);
        bad_flag.put_u8(2);
        assert!(matches!(
            ControlMsg::decode(bad_flag.freeze()),
            Err(AcceleratorError::Protocol {
                what: "JOB model flag"
            })
        ));
        // A JOB claiming a model id but truncating it.
        let mut cut = BytesMut::with_capacity(6);
        cut.put_u8(TAG_JOB);
        cut.put_u32(1);
        cut.put_u8(1);
        assert!(matches!(
            ControlMsg::decode(cut.freeze()),
            Err(AcceleratorError::Protocol {
                what: "JOB model id"
            })
        ));
    }

    #[test]
    fn materialized_stream_is_byte_identical_to_direct_garbling() {
        // The prepared-model online path replays pre-rendered frames; they
        // must match what just-in-time encoding would put on the wire.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
        let job = garble_matvec_job(&config, &w, 0xf00d, 2).unwrap();
        let mat = materialize_job(&job);
        assert_eq!(mat.elements.len(), job.rows.len());
        assert_eq!(mat.rows_per_pass, job.rows_per_pass);
        assert_eq!(mat.fabric_cycles, job.fabric_cycles);
        assert!(mat.stored_bytes() > 0);
        for (row, elem) in job.rows.iter().zip(&mat.elements) {
            assert_eq!(elem.rounds_frame, encode_round_burst(&row.messages));
            assert_eq!(elem.pairs, row.pairs);
            assert_eq!(elem.rounds, row.messages.len() as u64);
        }
    }

    /// A small prepared stream: 2 columns × 2 rows × 3 rounds at b = 8.
    fn small_stream() -> MaterializedJob {
        static STREAM: std::sync::OnceLock<MaterializedJob> = std::sync::OnceLock::new();
        STREAM
            .get_or_init(|| {
                let config = AcceleratorConfig::new(8);
                let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
                materialize_job(&garble_matvec_job(&config, &w, 0xf00d, 2).unwrap())
            })
            .clone()
    }

    #[test]
    fn stream_digest_value_is_pinned() {
        // Recorded once. `cargo test` under `MAX_AES_BACKEND=software`
        // (CI's `simd` job) must read the same value: what one server
        // digests at fill another build may re-verify from its journal.
        assert_eq!(
            u128::from_be_bytes(stream_digest(&small_stream())),
            0xc7dc_f5ef_0318_d9f2_87bb_8f01_3456_f9e6
        );
    }

    #[test]
    fn stream_digest_sees_swaps_and_truncations() {
        let job = small_stream();
        let clean = stream_digest(&job);
        assert_eq!(clean, stream_digest(&job.clone()));
        for (a, b) in [(0, 1), (1, 2), (0, 3)] {
            let mut swapped = job.clone();
            swapped.elements.swap(a, b);
            assert_ne!(
                stream_digest(&swapped),
                clean,
                "elements {a} and {b} swapped"
            );
        }
        let mut short = job.clone();
        short.elements.pop();
        assert_ne!(stream_digest(&short), clean, "last element dropped");
        for idx in 0..job.elements.len() {
            let mut cut = job.clone();
            let frame = &cut.elements[idx].rounds_frame;
            cut.elements[idx].rounds_frame = Bytes::from(frame[..frame.len() - 1].to_vec());
            assert_ne!(stream_digest(&cut), clean, "element {idx} frame truncated");
            let mut cut = job.clone();
            cut.elements[idx].pairs.pop();
            assert_ne!(stream_digest(&cut), clean, "element {idx} pair dropped");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn stream_digest_sees_any_single_bit_flip(
            elem in 0usize..4,
            in_frame in proptest::prelude::any::<bool>(),
            at in proptest::prelude::any::<usize>(),
            bit in 0u32..128,
        ) {
            let job = small_stream();
            let mut rotted = job.clone();
            let target = &mut rotted.elements[elem];
            if in_frame {
                let mut frame = target.rounds_frame.to_vec();
                let at = at % frame.len();
                frame[at] ^= 1 << (bit % 8);
                target.rounds_frame = Bytes::from(frame);
            } else {
                let at = at % target.pairs.len();
                let pair = &mut target.pairs[at];
                if bit % 2 == 0 {
                    pair.0 = Block::new(pair.0.bits() ^ (1 << bit));
                } else {
                    pair.1 = Block::new(pair.1.bits() ^ (1 << bit));
                }
            }
            proptest::prop_assert_ne!(stream_digest(&rotted), stream_digest(&job));
        }
    }

    #[test]
    fn hello_bytes_are_deterministic_only_for_fixed_traces() {
        let hello = |trace: TraceContext| {
            ControlMsg::Hello {
                version: PROTOCOL_VERSION,
                bit_width: 8,
                trace,
            }
            .encode()
        };
        // Fixed contexts (the transcript-parity posture) are bit-stable.
        assert_eq!(hello(TraceContext::none()), hello(TraceContext::none()));
        let pinned = TraceContext::from_ids(42, 7);
        assert_eq!(hello(pinned), hello(pinned));
        // Minted contexts differ — each dial is its own trace.
        assert_ne!(hello(TraceContext::mint()), hello(TraceContext::mint()));
    }

    #[test]
    fn hostile_ext_frames_are_typed_errors() {
        // Oversized batch.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(TAG_EXT);
        buf.put_u32((MAX_OT_BATCH + 1) as u32);
        buf.put_u32(((MAX_OT_BATCH + 1).div_ceil(64)) as u32);
        assert!(matches!(
            decode_ext(buf.freeze()),
            Err(AcceleratorError::Protocol {
                what: "EXT batch size"
            })
        ));
        // Word count inconsistent with the declared batch.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(TAG_EXT);
        buf.put_u32(64);
        buf.put_u32(2);
        assert!(matches!(
            decode_ext(buf.freeze()),
            Err(AcceleratorError::Protocol {
                what: "EXT batch size"
            })
        ));
        // Payload shorter than KAPPA columns.
        let mut buf = BytesMut::with_capacity(24);
        buf.put_u8(TAG_EXT);
        buf.put_u32(64);
        buf.put_u32(1);
        buf.put_u64(0);
        assert!(matches!(
            decode_ext(buf.freeze()),
            Err(AcceleratorError::Protocol {
                what: "EXT payload length"
            })
        ));
    }

    #[test]
    fn transport_error_converts_into_accelerator_error() {
        use max_gc::channel::TransportError;
        assert_eq!(
            AcceleratorError::from(TransportError::Disconnected),
            AcceleratorError::Disconnected
        );
        let err = AcceleratorError::from(TransportError::FrameTooLarge { len: 10, max: 4 });
        assert_eq!(
            err,
            AcceleratorError::Transport(TransportError::FrameTooLarge { len: 10, max: 4 })
        );
        // The source chain reaches the transport error.
        use std::error::Error;
        assert!(err.source().is_some());
    }
}
