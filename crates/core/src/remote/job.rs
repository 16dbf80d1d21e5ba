//! The garbler's side of a job: the one loop that turns a weight matrix
//! into stream elements, the materialized form that is stored and served,
//! its at-rest digest, and the one streamer that puts it on a wire.

use bytes::Bytes;
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::{encode_block_pairs, open_frame, seal_frame, seal_mark, FrameKind};
use max_gc::Transport;
use max_ot::iknp::OtExtSender;
use max_telemetry::TraceContext;

use super::codec::{decode_ext, encode_round_burst, send_control, ControlMsg, REJECT_INTEGRITY};
use crate::accelerator::{GarbledRow, Maxelerator, RoundMessage};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::server::MatvecTranscript;

/// Splitmix-style seed derivation: one base seed, many independent
/// per-session / per-job seeds.
pub fn derive_seed(base: u64, tweak: u64) -> u64 {
    let mut z = base ^ tweak.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one job loop: garbles a matvec/matmul job on a fresh accelerator
/// seeded with `seed` and hands each element to `sink` the moment it
/// exists — pure compute, no I/O, safe to run on any worker thread.
///
/// Elements come pass-major: matrix row `r` of pass `p` is stream element
/// `p * rows + r` ([`Maxelerator::garble_element`]), so element ids advance
/// across passes and labels stay fresh for every round of every column.
/// Returns the fabric cycles the job cost.
///
/// # Errors
///
/// Propagates [`AcceleratorError`] from the garbling schedule.
///
/// # Panics
///
/// Panics if the model is empty or `columns` is zero (serving code
/// validates both before enqueueing).
pub fn garble_elements(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
    mut sink: impl FnMut(GarbledRow),
) -> Result<u64, AcceleratorError> {
    assert!(!weights.is_empty(), "job needs a non-empty model");
    assert!(columns > 0, "job needs at least one column");
    let mut accel = Maxelerator::new(config.clone(), seed);
    let n_rows = weights.len();
    for pass in 0..columns as usize {
        for (r, row) in weights.iter().enumerate() {
            sink(accel.garble_element((pass * n_rows + r) as u32, row)?);
        }
    }
    Ok(accel.report().cycles)
}

/// A fully garbled job with its round messages still in structured form —
/// [`garble_elements`] collected. The server never builds one (it runs
/// [`fill_stream`]); this is the form measurements and tests inspect.
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

/// Garbles a complete job and keeps every element's round messages.
/// Errors and panics as [`garble_elements`].
pub fn garble_matvec_job(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
) -> Result<GarbledJob, AcceleratorError> {
    let mut rows = Vec::with_capacity(weights.len() * columns as usize);
    let cycles = garble_elements(config, weights, seed, columns, |row| rows.push(row))?;
    Ok(GarbledJob {
        rows,
        rows_per_pass: weights.len(),
        fabric_cycles: cycles,
        fabric_seconds: cycles as f64 / (config.freq_mhz * 1e6),
    })
}

/// One output element of a [`MaterializedJob`]: the OT label pairs the
/// sender still needs at serve time (the CIPHER frame depends on the
/// client's live EXT corrections, so it cannot be pre-encoded) plus the
/// element's ROUNDS burst frame, already rendered to wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq)]
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

/// Renders one garbled element to its wire form: the ROUNDS burst encoded
/// once, the per-element transcript stats, and the OT pairs kept as they
/// are.
pub fn materialize_element(
    messages: &[RoundMessage],
    pairs: Vec<(Block, Block)>,
) -> MaterializedElement {
    MaterializedElement {
        pairs,
        rounds_frame: encode_round_burst(messages),
        material_bytes: messages.iter().map(|m| m.wire_bytes() as u64).sum(),
        tables: messages.iter().map(|m| m.tables.len() as u64).sum(),
        rounds: messages.len() as u64,
    }
}

/// Renders a collected [`GarbledJob`] to its wire form, element by element
/// — byte-for-byte what [`fill_stream`] produces for the same inputs.
pub fn materialize_job(job: &GarbledJob) -> MaterializedJob {
    MaterializedJob {
        elements: job
            .rows
            .iter()
            .map(|row| materialize_element(&row.messages, row.pairs.clone()))
            .collect(),
        rows_per_pass: job.rows_per_pass,
        fabric_cycles: job.fabric_cycles,
        fabric_seconds: job.fabric_seconds,
    }
}

/// Garbles a job straight into the stream that is served: each element is
/// materialized as it leaves the accelerator and its round messages are
/// dropped, so working memory is one element of structured material
/// whatever the model's height. Every stream the server puts on a wire —
/// idle-time stock, a starved fallback, a session-default job, a RESUME
/// re-garble — comes from this function. Errors and panics as
/// [`garble_elements`].
pub fn fill_stream(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
) -> Result<MaterializedJob, AcceleratorError> {
    let mut elements = Vec::with_capacity(weights.len() * columns as usize);
    let cycles = garble_elements(config, weights, seed, columns, |row| {
        elements.push(materialize_element(&row.messages, row.pairs));
    })?;
    Ok(MaterializedJob {
        elements,
        rows_per_pass: weights.len(),
        fabric_cycles: cycles,
        fabric_seconds: cycles as f64 / (config.freq_mhz * 1e6),
    })
}

/// Streams a materialized job to the client: READY, then per element the
/// EXT → CIPHER → ROUNDS exchange, then STATS. Runs on the session thread
/// (the server side of [`RemoteClient::run_job`](super::RemoteClient::run_job))
/// and is the only streamer: a warm prepared stream and a stream garbled a
/// moment ago on the unit pool go out through the same code.
///
/// The exchange starts at `start_element` (elements before it were already
/// streamed on an earlier connection) and calls `on_element(next_element,
/// ot_sender, digest)` once per element, after the OT and digest state
/// advance but *before* the element's CIPHER/ROUNDS frames go out — the
/// hook where a serving layer snapshots (and durably journals) the OT
/// sender and the transcript digest for round checkpoints. The
/// write-before-send ordering guarantees a journal is never behind the
/// client's observed progress, whatever instant the process dies.
///
/// The caller must hand in an `ot_sender` and `digest` whose states match
/// `start_element` (for a resume: the snapshots taken at that boundary —
/// a fresh [`TranscriptDigest`] when starting at element zero).
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
/// Propagates transport failures and protocol violations; on any error the
/// session should be torn down (the OT state is no longer aligned) or
/// checkpointed for RESUME from the last `on_element` snapshot.
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
