//! Session-driven two-party protocol over any [`Transport`].
//!
//! A [`RemoteClient`] (the evaluator) speaks a small framed protocol to a
//! serving garbler — over the in-memory [`Duplex`](max_gc::channel::Duplex)
//! or loopback/real TCP, identically — and recovers exact MAC results
//! through the full OT-extension stack. Every path runs it: `max-serve`,
//! and the in-process [`connect`](crate::connect)/[`secure_matvec`](crate::secure_matvec)
//! pair, which is a served session over a `Duplex` with the server on a
//! thread of its own. The server's half of the handshake is written once,
//! in [`accept_hello`].
//!
//! ## Protocol
//!
//! ```text
//! client                                server
//!   | -- METRICS ------------------------> |   admin poll: before HELLO
//!   | <-- METRICS(json) ------------------ |   or between jobs
//!   | -- HELLO(version, bit_width) ------> |   handshake
//!   | <-- ACCEPT(session, ot_seed, token, |
//!   |            rows, cols, config) ----- |   (or REJECT(reason))
//!   |  or, reconnecting mid-job:           |
//!   | -- RESUME(session, token, job, ----> |   continue from the boundary
//!   |           boundary, digest)          |   of the last evaluated element
//!   | <-- READY(job_id) ------------------ |   (or REJECT(resume), BUSY)
//!   |                                      |
//!   | -- MODEL_PUT / _INFO / _EVICT -----> |   prepared models (v5)
//!   | <-- MODEL_STAT --------------------- |   (or REJECT(model))
//!   | -- JOB(columns, model?) -----------> |   enqueue on the unit pool
//!   | <-- READY(job_id) ------------------ |   (or BUSY, REJECT(model));
//!   |                                      |   batch 0's EXT is prepared
//!   |                                      |   while the JOB is in flight
//!   |    per batch of elements (v9):       |
//!   | -- EXT(OT corrections, whole batch)> |   one IKNP extension
//!   |    per element of the batch, unasked:|
//!   | <-- CIPHER(OT ciphertext blocks) --- |
//!   | <-- ROUNDS (all cols rounds, 1 frame)|   next batch's EXT leaves before
//!   |                                      |   the batch's last element is
//!   |                                      |   evaluated
//!   | <-- STATS(fabric cycles) ----------- |   job done
//!   |            ... more jobs ...         |
//!   | -- PING(nonce) --------------------> |   keep-alive between jobs
//!   | <-- PONG(nonce) -------------------- |
//!   | -- BYE ----------------------------> |   graceful close
//! ```
//!
//! Any other frame ends the connection with a typed protocol error
//! (`max-serve`'s session loop holds these orderings in one match).
//!
//! **Batches (v9).** One OT extension covers a batch of output elements:
//! [`elements_per_extension`]`(cols, b)` of them, the most whose EXT body
//! fits [`EXT_BUDGET_BYTES`] (64 for an 8-column model at b = 8, one for
//! 252 columns at b = 32), and the job's last batch holds what is left
//! ([`JobShape`]). Both sides compute it from the shape ACCEPT or the model
//! handle already carries; nothing negotiates it. The server absorbs a
//! batch's EXT once and streams each element's CIPHER then ROUNDS as soon
//! as the element is in hand, so inside a batch it waits on nothing but
//! the element's source; a warm job of four 8 × 8 elements is JOB → READY
//! → EXT → 4 × (CIPHER, ROUNDS) → STATS.
//!
//! **Resumption.** A client that lost its connection mid-job sends
//! `RESUME(session, token, job, columns, boundary, digest)`: the start of
//! the batch holding its last evaluated element (0 when it evaluated none)
//! and its transcript digest there, as it stood before it prepared that
//! batch's EXT (v8; a batch start since v9, or `REJECT(resume)`). The
//! server re-derives the garbled job from the original seed, derives its
//! OT sender's cursor at that boundary from the job's start, adopts the
//! digest — one it verified when it answered the batch's EXT — and replies
//! `READY(job)`; the exchange continues from that batch, which the client
//! evaluates again. Both parties roll back to that boundary, so the
//! stitched transcript is bit-identical to an uninterrupted run (the
//! property the chaos e2e tests pin down). The client's newer digest, which
//! has folded the batch's CIPHER and ROUNDS frames, is never adopted:
//! nobody has checked those. `resume_token` is an unguessable per-session secret from
//! ACCEPT — possession proves the resumer is the original client. Servers
//! must mint it from fresh OS entropy, never from the seed chain:
//! [`derive_seed`] is an invertible bijection and `ot_seed` (also
//! seed-derived) is published on the wire, so a seed-derived token would be
//! forgeable by any client. `max-serve` draws tokens from the OS; the
//! in-process server (which no other client can reach) derives them for
//! reproducibility and makes no authentication claim.
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
//! **Metrics.** `METRICS` (v4) answers with a JSON snapshot of the live
//! counters and percentiles, draining or not, and touches no job state.
//!
//! **Prepared models (v5).** A client may register a weight matrix under a
//! caller-chosen id (`MODEL_PUT`), inspect its precompute stock
//! (`MODEL_INFO`), or drop it (`MODEL_EVICT`). A `JOB` may then name a
//! model id, and the server serves it from pre-garbled streams built during
//! idle time — the paper's §3 offline/online split: the online exchange
//! shrinks to OT plus replay of already-materialized frames. These frames
//! are garbler-side only: weights travel from the *model owner* to the
//! server in the clear (the garbler knows the matrix in this model, exactly
//! as in the in-process API), while evaluator inputs still enter solely as
//! OT choice bits. Every serve consumes a distinct generation of the
//! model's seed schedule, so labels are never reused across serves.
//!
//! Control frames and ROUNDS bursts travel as [`FrameKind::Raw`] frames, OT
//! ciphertexts as [`FrameKind::Blocks`] and EXT corrections as
//! [`FrameKind::Bits`]; the kind is a transcript label, and every frame
//! counts into the transport's one byte tally. The client's `x` is never
//! sent as such: it enters only as the choice bits behind EXT's OT
//! corrections (the paper's Figure 1), and the seeding below leaks them.
//!
//! Seeds: the server derives one seed per session (see [`derive_seed`]) and
//! publishes `ot_seed` in ACCEPT; both sides run
//! [`iknp::setup_pair`]`(ot_seed)` and keep their half. So no base-OT
//! message crosses the wire, and this leaks the client's input: the
//! server, or anyone who sees ACCEPT, can rebuild the client's receiver
//! from `ot_seed` and read x's bits out of every EXT frame. Only the
//! extension (EXT, CIPHER) is real. ROADMAP's privacy item, for the next
//! protocol bump (v10), runs the base OT on the wire instead and takes
//! `ot_seed` out of ACCEPT.
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
//! batch: at the next batch's EXT, or at STATS for the job's last batch
//! (v9; within one element before, when a batch was one element). Either
//! way a substituted frame ends in a typed error, never in a result. What
//! is folded: an **EXT body by its bytes** (1 KB per 64 transfers, and its
//! own mark trails it in the same frame), a **CIPHER or ROUNDS frame by its
//! 8-byte seal mark** ([`max_gc::channel::seal_mark`]: the CRC32 it was
//! sealed with ‖ its length) — the sender folds the mark of the frame it
//! just sealed, the receiver the mark of the frame `open_frame` just
//! verified, so a job's bulk bytes are walked by the CRC and by nothing
//! else. Prepared stock at rest is checked the same way: [`stream_digest`]
//! folds one record of CRC32s per element, so the check behind READY reads
//! each stored byte once. v6 folded those payloads byte by byte on both sides; the digest
//! *values* in EXT and STATS therefore differ, which is why this is v7 and
//! a v6 peer is turned away at HELLO with `REJECT(VERSION)` rather than at
//! its first EXT with `REJECT(INTEGRITY)`. Per-frame strength is the CRC's
//! 32 bits plus the length; the digest chains the marks, it does not add
//! bits to any one of them. Since v8 a RESUME carries the client's digest
//! at its rollback boundary, which the server adopts: a digest the server
//! verified when it answered that batch's EXT, so the ladder holds
//! across a restart that lost every per-batch state (see
//! `max-serve`'s `resume` module). All of it detects **accidental** corruption
//! only: the CRC is unkeyed and the digest key is fixed and public, so an
//! active adversary can tamper and re-seal — the honest-but-curious
//! boundary of the stack is unchanged.
//!
//! **Hostile bytes.** Every decoder here (control frames, EXT, ROUNDS)
//! reads peer bytes through [`max_gc::channel::Reader`]: a frame cut
//! anywhere is a typed [`AcceleratorError::Protocol`] naming the field it
//! cut, a flag byte is 0 or 1 or refused, and trailing bytes are refused.
//! No decoder counts a frame's bytes ahead of its reads, and the vendored
//! `bytes::Buf` has no getter, so no read can panic where the
//! `unwrap_used` lint below cannot see it.
//!
//! [`Transport`]: max_gc::Transport
//! [`TraceContext`]: max_telemetry::TraceContext
//! [`TraceContext::none`]: max_telemetry::TraceContext::none
//! [`FrameKind::Raw`]: max_gc::channel::FrameKind::Raw
//! [`FrameKind::Blocks`]: max_gc::channel::FrameKind::Blocks
//! [`FrameKind::Bits`]: max_gc::channel::FrameKind::Bits
//! [`iknp::setup_pair`]: max_ot::iknp::setup_pair
//! [`TranscriptDigest`]: max_crypto::TranscriptDigest
//! [`AcceleratorError::Integrity`]: crate::AcceleratorError::Integrity
//! [`AcceleratorError::Protocol`]: crate::AcceleratorError::Protocol

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
