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
//!
//! [`Transport`]: max_gc::Transport
//! [`TraceContext`]: max_telemetry::TraceContext
//! [`TraceContext::none`]: max_telemetry::TraceContext::none
//! [`FrameKind::Blocks`]: max_gc::channel::FrameKind::Blocks
//! [`iknp::setup_pair`]: max_ot::iknp::setup_pair
//! [`TranscriptDigest`]: max_crypto::TranscriptDigest
//! [`AcceleratorError::Integrity`]: crate::AcceleratorError::Integrity

// Protocol paths must never panic on peer input; unwraps are confined to
// tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
mod codec;
mod job;
#[cfg(test)]
pub(crate) mod tests;

// One flat namespace, as before the file was split: `codec` holds the
// control frames and the EXT/ROUNDS codecs, `job` the garbled-job types,
// the element producer and the streamer, `client` the evaluator side.
pub use crate::accelerator::GarbledRow;
pub use client::*;
pub use codec::*;
pub use job::*;
