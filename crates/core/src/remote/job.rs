//! The garbler's side of a session: the server's half of the handshake,
//! the one loop that turns a weight matrix into stream elements, the
//! materialized form that is stored and served, its at-rest digest, and
//! the one streamer that puts it on a wire.

use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::mpsc;

use bytes::Bytes;
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::{
    crc32, encode_block_pairs, open_frame, seal_frame, seal_mark, FrameKind, SEAL_BYTES,
};
use max_gc::Transport;
use max_ot::iknp::{self, OtExtSender};
use max_telemetry::TraceContext;

use super::codec::{
    decode_ext, decode_round_burst, encode_sealed_round_burst, send_control, ControlMsg, JobShape,
    PROTOCOL_VERSION, REJECT_DETAIL_STOCK, REJECT_INTEGRITY, REJECT_VERSION, REJECT_WIDTH,
};
use crate::accelerator::{GarbledRow, Maxelerator, RoundMessage};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;

/// Splitmix-style seed derivation: one base seed, many independent
/// per-session / per-job seeds.
pub fn derive_seed(base: u64, tweak: u64) -> u64 {
    let mut z = base ^ tweak.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The session's OT seed, published in ACCEPT: both parties run
/// [`iknp::setup_pair`](max_ot::iknp::setup_pair) on it, and a checkpoint
/// decode re-derives the sender from it.
pub fn derive_ot_seed(session_seed: u64) -> u64 {
    derive_seed(session_seed, 0x07)
}

/// The accelerator seed of the session's `job_id`-th session-default job
/// (a RESUME re-garbles from it).
pub fn derive_job_seed(session_seed: u64, job_id: u64) -> u64 {
    derive_seed(session_seed, 0x100 + job_id)
}

/// A resume token derived from the seed chain, for servers whose ACCEPT
/// must be reproducible (the test servers and transcript-parity tests).
/// Forgeable — [`derive_seed`] is invertible and the OT seed is public —
/// so a production server draws its tokens from OS entropy instead.
pub fn deterministic_resume_token(session_seed: u64) -> u64 {
    derive_seed(session_seed, 0x7e57)
}

/// The server's half of the handshake, written once for every server:
/// `hello`'s version and bit width are checked against
/// [`PROTOCOL_VERSION`] and `config`, and a mismatch is answered with its
/// typed REJECT (`Ok(None)`; the session ends there). Otherwise ACCEPT goes
/// out — session `session_id`, the `ot_seed` of `session_seed`,
/// `resume_token`, the shape of `weights` and `config` — and the session's
/// OT sender is returned: the server's half of the base OT, dealt from the
/// `ot_seed` ACCEPT just published (see the module docs' "Seeds").
///
/// # Errors
///
/// [`AcceleratorError::Protocol`] if `hello` is not a HELLO; transport
/// failures sending REJECT or ACCEPT.
pub fn accept_hello<T: Transport + ?Sized>(
    transport: &mut T,
    hello: &ControlMsg,
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    session_id: u64,
    session_seed: u64,
    resume_token: u64,
) -> Result<Option<OtExtSender>, AcceleratorError> {
    let &ControlMsg::Hello {
        version, bit_width, ..
    } = hello
    else {
        return Err(AcceleratorError::Protocol {
            what: "expected HELLO",
        });
    };
    let refusal = if version != PROTOCOL_VERSION {
        Some((REJECT_VERSION, u32::from(PROTOCOL_VERSION)))
    } else if bit_width as usize != config.bit_width {
        Some((REJECT_WIDTH, config.bit_width as u32))
    } else {
        None
    };
    if let Some((code, detail)) = refusal {
        send_control(transport, &ControlMsg::Reject { code, detail })?;
        return Ok(None);
    }
    let ot_seed = derive_ot_seed(session_seed);
    send_control(
        transport,
        &ControlMsg::Accept {
            session_id,
            ot_seed,
            resume_token,
            rows: weights.len() as u32,
            cols: weights.first().map_or(0, Vec::len) as u32,
            bit_width: config.bit_width as u32,
            acc_width: config.acc_width as u32,
            signed: config.signed,
            freq_mhz_bits: config.freq_mhz.to_bits(),
        },
    )?;
    Ok(Some(iknp::setup_pair(ot_seed).0))
}

/// The one job loop: garbles a matvec/matmul job on a fresh accelerator
/// seeded with `seed` and hands each element to `sink` the moment it
/// exists, in its wire form (garbled straight into its sealed ROUNDS
/// frame) — pure compute, no I/O, safe to run on any worker thread.
///
/// Elements come pass-major: matrix row `r` of pass `p` is stream element
/// `p * rows + r` ([`Maxelerator::garble_element`]), so element ids advance
/// across passes and labels stay fresh for every round of every column.
/// Returns the fabric cycles the job cost. A sink that answers
/// [`ControlFlow::Break`] stops the job at that element (a pool unit whose
/// session is gone garbles no further for it); the cycles spent up to then
/// are returned.
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
    sink: impl FnMut(MaterializedElement) -> ControlFlow<()>,
) -> u64 {
    assert!(!weights.is_empty(), "job needs a non-empty model");
    assert!(columns > 0, "job needs at least one column");
    garble_unit(config, weights, seed, columns, 0, 1, sink)
        .report()
        .cycles
}

/// [`garble_elements`]' loop as unit `unit` of `units` runs it: elements
/// `unit, unit + units, …` of the job only, on the unit's own accelerator,
/// which is returned with its report. An element's labels derive from the
/// seed and its id alone, so its bytes do not depend on the unit.
pub(crate) fn garble_unit(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
    unit: usize,
    units: usize,
    mut sink: impl FnMut(MaterializedElement) -> ControlFlow<()>,
) -> Maxelerator {
    let mut accel = Maxelerator::new(config.clone(), seed);
    for e in (unit..weights.len() * columns as usize).step_by(units) {
        let row = &weights[e % weights.len()];
        if sink(accel.garble_element(e as u32, row)).is_break() {
            break;
        }
    }
    accel
}

/// A fully garbled job with its round messages in structured form —
/// [`garble_elements`] collected, each element's rounds read back out of
/// its ROUNDS frame. The server never builds one (it runs
/// [`produce_elements`]); this is the form measurements and tests inspect.
#[derive(Clone, Debug)]
pub struct GarbledJob {
    /// `columns * rows` garbled elements, pass-major.
    pub rows: Vec<GarbledRow>,
    /// Fabric cycles this job cost.
    pub fabric_cycles: u64,
}

/// Garbles a complete job and keeps every element's round messages, read
/// back out of the ROUNDS frames the garbler wrote ([`fill_stream`]'s
/// elements, decoded). Panics as [`garble_elements`].
///
/// # Errors
///
/// None in practice: the frames are the garbler's own, so the parser
/// accepts them. The `Result` stays for the outside callers written
/// against it (the benchmark's layer probes).
pub fn garble_matvec_job(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
) -> Result<GarbledJob, AcceleratorError> {
    let cols = weights.first().map_or(0, Vec::len);
    let stream = fill_stream(config, weights, seed, columns);
    let rows = stream
        .elements
        .into_iter()
        .map(|elem| {
            Ok(GarbledRow {
                messages: decode_round_burst(open_frame(elem.sealed_rounds)?, cols)?,
                pairs: elem.pairs,
            })
        })
        .collect::<Result<_, AcceleratorError>>()?;
    Ok(GarbledJob {
        rows,
        fabric_cycles: stream.fabric_cycles,
    })
}

/// One output element of a [`MaterializedJob`]: the OT label pairs the
/// sender still needs at serve time (the CIPHER frame depends on the
/// client's live EXT corrections, so it cannot be pre-encoded) plus the
/// element's ROUNDS burst frame, already rendered to sealed wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaterializedElement {
    /// OT pairs matching the client's choice bits for this element.
    pub pairs: Vec<(Block, Block)>,
    /// The element's ROUNDS burst frame as it goes on the wire: its CRC32
    /// seal prefix ([`SEAL_BYTES`]), written at materialization, then the
    /// [`encode_round_burst`](super::encode_round_burst) payload. The
    /// streamer sends it as stored.
    pub sealed_rounds: Bytes,
}

/// A garbled job rendered to its wire form ahead of the exchange: what a
/// prepared-model stock stores and what every serve streams. Frames are
/// [`Bytes`] stored sealed (cheap to clone, shared storage), so a serve
/// sends each ROUNDS frame without copying or sealing it again: the
/// online phase is OT plus replaying stored bytes — the paper's §3 split.
#[derive(Clone, Debug, PartialEq)]
pub struct MaterializedJob {
    /// `columns * rows` materialized elements, pass-major.
    pub elements: Vec<MaterializedElement>,
    /// Fabric cycles the offline garbling cost.
    pub fabric_cycles: u64,
}

impl MaterializedJob {
    /// Bytes this job occupies at rest (pre-encoded frames + label pairs),
    /// the quantity a byte-budgeted cache accounts for.
    pub fn stored_bytes(&self) -> u64 {
        self.elements
            .iter()
            .map(|e| e.sealed_rounds.len() as u64 + (e.pairs.len() * 32) as u64)
            .sum()
    }
}

/// The [`AcceleratorError::Integrity`] detail for a prepared stream whose
/// at-rest bytes no longer match the digest recorded when it was garbled —
/// the serving layer matches on this to route the failure into the
/// registry's rot accounting.
pub const STREAM_DIGEST_MISMATCH: &str = "prepared stream digest mismatch";

/// Digest of a materialized stream's GC-critical bytes, computed once
/// when the stream is garbled and re-verified (by the serve's own pass,
/// beside every element's stored seal) before the stream is served, so
/// material that rots while cached (DRAM fault, bit rot) is detected before
/// it reaches a wire.
///
/// It folds one fixed 24-byte record per element, in serve order, through
/// [`TranscriptDigest::fold`]: the element's index, the length of its
/// sealed ROUNDS frame, the CRC32 of that frame's payload (recomputed, not
/// read from the seal prefix), its OT pair count and the CRC32 of its
/// pairs' canonical bytes ([`Block::to_bytes`], so every AES backend reads
/// the same value). Each stored byte is read once, by the CRC; a swapped,
/// dropped or truncated element changes a record.
///
/// Strength: the per-element checks are CRC32s, so every single-bit flip
/// and every burst of up to 32 bits in a payload or in the pairs is
/// caught, and a random error gets through with probability 2⁻³² per
/// element — the per-frame strength of the wire itself. Accidental
/// corruption only: anything that can rewrite the cache can rewrite the
/// digest beside it.
pub fn stream_digest(job: &MaterializedJob) -> [u8; 16] {
    fold_records(element_records(job).map(|(record, _)| record))
}

/// Bytes of one element's [`stream_digest`] record: index (`u64`), sealed
/// ROUNDS frame length, payload CRC32, pair count and pairs CRC32 (`u32`
/// each), all big-endian.
const RECORD_BYTES: usize = 24;

/// Each element's [`stream_digest`] record, beside whether its stored seal
/// prefix still matches the payload CRC the record carries: one CRC pass
/// over each payload and each element's pairs.
fn element_records(job: &MaterializedJob) -> impl Iterator<Item = ([u8; RECORD_BYTES], bool)> + '_ {
    let mut pair_bytes = Vec::new();
    job.elements.iter().enumerate().map(move |(idx, elem)| {
        let frame = &elem.sealed_rounds;
        let payload_crc = crc32(frame.get(SEAL_BYTES..).unwrap_or_default());
        pair_bytes.clear();
        pair_bytes.extend(
            elem.pairs
                .iter()
                .flat_map(|(zero, one)| [zero.to_bytes(), one.to_bytes()])
                .flatten(),
        );
        let mut record = [0u8; RECORD_BYTES];
        record[..8].copy_from_slice(&(idx as u64).to_be_bytes());
        record[8..12].copy_from_slice(&(frame.len() as u32).to_be_bytes());
        record[12..16].copy_from_slice(&payload_crc.to_be_bytes());
        record[16..20].copy_from_slice(&(elem.pairs.len() as u32).to_be_bytes());
        record[20..].copy_from_slice(&crc32(&pair_bytes).to_be_bytes());
        let sealed = frame.get(..SEAL_BYTES) == Some(&payload_crc.to_be_bytes()[..]);
        (record, sealed)
    })
}

/// The digest of a run of element records.
fn fold_records(records: impl Iterator<Item = [u8; RECORD_BYTES]>) -> [u8; 16] {
    let mut digest = TranscriptDigest::new();
    for record in records {
        digest.fold(&record);
    }
    digest.value()
}

/// Whether a stored stream is still what its fill produced, in one pass per
/// element: every element's seal prefix matches its payload's CRC, and the
/// records those CRCs make fold to `expected`, its fill-time
/// [`stream_digest`].
pub(crate) fn stream_intact(job: &MaterializedJob, expected: &[u8; 16]) -> bool {
    let mut sealed = true;
    let digest = fold_records(element_records(job).map(|(record, ok)| {
        sealed &= ok;
        record
    }));
    sealed && digest == *expected
}

/// Renders one element's round messages to its wire form: the ROUNDS
/// burst encoded and sealed once, in one buffer, and the OT pairs kept as
/// they are — byte for byte the element the garbler writes
/// ([`Maxelerator::garble_element`]), from its structured form.
pub fn materialize_element(
    messages: &[RoundMessage],
    pairs: Vec<(Block, Block)>,
) -> MaterializedElement {
    MaterializedElement {
        pairs,
        sealed_rounds: encode_sealed_round_burst(messages),
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
        fabric_cycles: job.fabric_cycles,
    }
}

/// The one element producer, run by pool units and (as [`fill_stream`]) by
/// registry fills: [`garble_elements`] with each element from
/// `start_element` on handed to `sink` the moment it exists, in the wire
/// form the garbler wrote it in. Elements before `start_element` (what a
/// resumed client already holds) are garbled, so the fabric cycles stay
/// the whole job's, but never handed on. Panics and early stop as
/// [`garble_elements`].
pub fn produce_elements(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
    start_element: usize,
    mut sink: impl FnMut(MaterializedElement) -> ControlFlow<()>,
) -> u64 {
    let mut produced = 0usize;
    garble_elements(config, weights, seed, columns, |elem| {
        produced += 1;
        if produced <= start_element {
            return ControlFlow::Continue(());
        }
        sink(elem)
    })
}

/// Garbles a whole job into the stream a prepared-model stock stores:
/// [`produce_elements`] collected. Panics as [`garble_elements`].
pub fn fill_stream(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
) -> MaterializedJob {
    let mut elements = Vec::with_capacity(weights.len() * columns as usize);
    let fabric_cycles = produce_elements(config, weights, seed, columns, 0, |elem| {
        elements.push(elem);
        ControlFlow::Continue(())
    });
    MaterializedJob {
        elements,
        fabric_cycles,
    }
}

/// What a garbling unit sends down an inline job's hand-off: each element
/// as it is produced, then the job's fabric cycles.
#[derive(Debug)]
pub enum JobPiece {
    /// The next element in serve order.
    Element(MaterializedElement),
    /// The job is complete, with its fabric cycles.
    Done(u64),
}

/// Where the streamer's elements come from.
#[derive(Debug)]
pub enum JobSource {
    /// Warm stock, iterated in place.
    Materialized {
        /// The stream.
        job: MaterializedJob,
        /// Its fill-time [`stream_digest`], re-verified behind READY.
        expected_digest: [u8; 16],
    },
    /// The hand-off of the unit garbling the job right now: only the
    /// elements to be served, in order.
    Garbling {
        /// The unit's hand-off.
        pieces: mpsc::Receiver<JobPiece>,
        /// The job's shape, which a hand-off cannot tell ahead of its
        /// elements.
        shape: JobShape,
    },
}

/// One step through a [`JobSource`].
enum Next<'a> {
    Element(Cow<'a, MaterializedElement>),
    /// The job is complete, with its fabric cycles.
    Done(u64),
}

impl JobSource {
    /// The job's exchange shape: stock's is its own (every element carries
    /// the same `cols × b` OT pairs), a hand-off's the one it was built
    /// with.
    pub fn shape(&self) -> JobShape {
        match self {
            JobSource::Materialized { job, .. } => {
                let transfers = job.elements.first().map_or(0, |elem| elem.pairs.len());
                JobShape::new(job.elements.len(), transfers)
            }
            JobSource::Garbling { shape, .. } => *shape,
        }
    }

    /// Blocks until element `idx` is in hand (stock lends it, a hand-off
    /// delivers it, in order, so it ignores `idx`), or the job is done.
    fn next(&self, idx: usize) -> Result<Next<'_>, AcceleratorError> {
        match self {
            JobSource::Materialized { job, .. } => Ok(job
                .elements
                .get(idx)
                .map_or(Next::Done(job.fabric_cycles), |elem| {
                    Next::Element(Cow::Borrowed(elem))
                })),
            JobSource::Garbling { pieces, .. } => match pieces.recv() {
                Ok(JobPiece::Element(elem)) => Ok(Next::Element(Cow::Owned(elem))),
                Ok(JobPiece::Done(cycles)) => Ok(Next::Done(cycles)),
                Err(_) => Err(AcceleratorError::Protocol {
                    what: "unit pool shut down mid-job",
                }),
            },
        }
    }
}

/// Streams a job to the client: READY, then per batch of elements
/// ([`JobShape`]) one EXT answered by the batch's CIPHER → ROUNDS pairs in
/// element order, then STATS. Runs on the session thread (the server
/// side of [`RemoteClient::run_job`](super::RemoteClient::run_job), in
/// `max-serve` and in the in-process [`crate::CloudServer`]) and is the
/// only streamer: warm stock and a job units are garbling right now go out
/// through the same loop, which takes each element from the [`JobSource`]
/// as it needs it, so an inline job's exchange overlaps its garbling.
/// READY goes out once the first element to serve is in hand: a hand-off
/// dropped before it is still a typed error before READY. Every
/// element's ROUNDS frame was sealed when it was materialized, so the loop
/// sends the stored frame as it is (a clone is a reference-count bump, not
/// a copy) and folds that frame's seal mark; the only frame it seals is
/// each element's CIPHER. A batch's EXT is absorbed once and each element
/// is encrypted over its own range of the extension as soon as it is in
/// hand, so inside a batch the loop waits only on the source, never on the
/// client. The client sends the next batch's EXT before it evaluates the
/// batch's last element, so its evaluation overlaps the server's OT.
///
/// The exchange starts at `start_element`, a batch start (elements before
/// it were already streamed on an earlier connection), and calls
/// `on_boundary(boundary)` at every batch start it reaches: once for
/// `start_element` right after READY goes out, before anything else — the
/// hook where a serving layer makes the job's one record durable,
/// overlapping the client's preparation of its first EXT — and then once
/// per batch with the next batch's start, after the batch's EXT passed the
/// digest check and the OT state advanced but *before* any of its
/// CIPHER/ROUNDS frames go out (where a serving layer notes how far the
/// job got). So no material the client can evaluate leaves before the
/// first call returns. A source that fails before READY calls the hook
/// never, so there is nothing to checkpoint.
///
/// The caller must hand in an `ot_sender` and `digest` whose states match
/// `start_element`: for a resume, the sender's cursor at that boundary
/// ([`OtCursor::advanced`](max_ot::iknp::OtCursor::advanced) from the
/// job's start, one extension per batch) and the digest the client's
/// RESUME carries; a fresh [`TranscriptDigest`] when starting at element
/// zero.
///
/// A [`JobSource::Materialized`] stream is checked against its
/// `expected_digest` — one CRC pass per stored byte, every element's
/// stored seal compared and its [`stream_digest`] record folded — *after*
/// READY goes out but *before* any material frame does: the pass scales
/// with the stream while the admission window must not, so it is pipelined
/// past READY (overlapping the client's first OT extension) — yet a rotted
/// stream still never puts a byte of material on the wire, seal prefixes
/// included. A mismatch answers the client's first EXT with
/// `REJECT(integrity)` and fails typed with [`STREAM_DIGEST_MISMATCH`].
///
/// # Errors
///
/// Propagates transport failures, protocol violations (an EXT whose count
/// is not its batch's, a source whose elements do not fit the shape) and
/// a hand-off dropped mid-job; on any error the session should be torn
/// down (the OT state is no longer aligned) or, if `on_boundary` was
/// called, kept for a RESUME.
#[allow(clippy::too_many_arguments)]
pub fn stream_materialized_job_from<T: Transport + ?Sized>(
    transport: &mut T,
    source: &JobSource,
    ot_sender: &mut OtExtSender,
    digest: &mut TranscriptDigest,
    job_id: u64,
    trace: TraceContext,
    start_element: usize,
    mut on_boundary: impl FnMut(usize),
) -> Result<(), AcceleratorError> {
    let shape = source.shape();
    let mut idx = start_element;
    let mut next = source.next(idx)?;
    send_control(transport, &ControlMsg::Ready { job_id })?;
    on_boundary(idx);
    if let JobSource::Materialized {
        job,
        expected_digest,
    } = source
    {
        if !stream_intact(job, expected_digest) {
            send_control(
                transport,
                &ControlMsg::Reject {
                    code: REJECT_INTEGRITY,
                    detail: REJECT_DETAIL_STOCK,
                },
            )?;
            return Err(AcceleratorError::Integrity {
                what: STREAM_DIGEST_MISMATCH,
            });
        }
    }
    let fabric_cycles = loop {
        if let Next::Done(cycles) = next {
            break cycles;
        }
        let batch = shape.batch_len(idx);
        if batch == 0 {
            return Err(AcceleratorError::Protocol {
                what: "job source does not fit the batch",
            });
        }
        let ext_frame = open_frame(transport.recv_frame()?)?;
        let (ext, client_mark) = decode_ext(ext_frame.clone())?;
        if ext.count != batch * shape.transfers() {
            return Err(AcceleratorError::Protocol {
                what: "EXT count does not match the batch's OT pairs",
            });
        }
        // Fold the EXT body (sans its 16-byte trailer) and insist the
        // client's running digest matches ours before the OT state
        // advances: a client digest at this batch start is then one the
        // server verified, which is what a RESUME may carry back.
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
        ot_sender.absorb(&ext);
        // Note the next batch start *before* delivering this batch's
        // frames, so the server's high-water mark is never behind what
        // the client has observed.
        on_boundary(idx + batch);
        for i in 0..batch {
            let elem = match next {
                Next::Element(elem) if elem.pairs.len() == shape.transfers() => elem,
                _ => {
                    return Err(AcceleratorError::Protocol {
                        what: "job source does not fit the batch",
                    })
                }
            };
            let cipher = ot_sender.encrypt(i * shape.transfers(), &elem.pairs);
            // Fold the seals: the CRC that frames each of the element's
            // two bulk frames (CIPHER's computed here, ROUNDS' at
            // materialization) is also its contribution to the digest
            // (v7), folded CIPHER then ROUNDS, as the client folds them on
            // receipt.
            let cipher_frame = seal_frame(encode_block_pairs(&cipher.pairs));
            digest.fold(&seal_mark(&cipher_frame));
            digest.fold(&seal_mark(&elem.sealed_rounds));
            transport.send_frame(FrameKind::Blocks, cipher_frame)?;
            // One burst frame per element instead of one frame per round:
            // the per-frame overhead (and per-frame fault-injection
            // surface) no longer scales with model width.
            transport.send_frame(FrameKind::Raw, elem.sealed_rounds.clone())?;
            idx += 1;
            next = source.next(idx)?;
        }
    };
    send_control(
        transport,
        &ControlMsg::Stats {
            fabric_cycles,
            trace_id: trace.trace_id,
            digest: digest.value(),
        },
    )
}
