//! Server-side job checkpoints for RESUME.
//!
//! A job's durable state is one [`SessionCheckpoint`]: the session's seed
//! material, the job's identity and one snapshot, the OT sender's cursor
//! at element 0 with a fresh digest. A fresh job saves it once, after READY
//! and before element 0's frames leave; a resumed job saves nothing. Every
//! later boundary is derived: a batch of `n` elements
//! ([`JobShape`]) is one IKNP extension of `n × cols × b` transfers, so
//! the cursor at batch start `k·n` is the record's
//! [advanced](OtCursor::advanced) by `k` (`SessionCheckpoint::sender_at`),
//! and elements re-garble from the job seed. The one value the server
//! cannot derive, the transcript digest, the client brings. A RESUME that
//! names no batch start is refused.
//!
//! **Which digest.** A client resumes at the start `s` of the batch
//! holding its last evaluated element (0 if none) with its digest from
//! before it prepared that batch's EXT. The server verified that digest:
//! the client holds an element of the batch evaluated only after its
//! ROUNDS, which the server sends only after the batch's EXT trailer —
//! that digest folded with the EXT's body — matched its own. So the
//! server adopts it and serves the batch again. The client's newer digest
//! has folded the batch's CIPHER and ROUNDS frames, which nobody checked:
//! adopting it after a validly sealed substitution and a power cut would
//! carry a wrong element into a result every later check agrees with.
//!
//! **The replay window.** While a job runs, the store keeps its high-water
//! boundary `h` in memory: the next batch start after the newest batch
//! whose EXT passed, noted before that batch's frames leave, with no
//! append. A client at `s` has evaluated an element of that batch, so
//! `h ≥ s + 1` (or `s = 0`). It sends a batch's EXT only after the
//! previous batch's last ROUNDS arrived, and then evaluates that last
//! element and moves on unless that fails; so once the EXT of the batch at
//! `s + 2n` has passed, the client has evaluated an element of the batch
//! at `s + n` and would resume there. Hence `h ≤ s + 2n`: the lookahead
//! reaches two batches, and a RESUME
//! outside `h − 2n ≤ s ≤ h` gets `REJECT(resume)` (`resumable`). The one
//! honest exception, an evaluation that fails after its successor's EXT
//! passed, is refused and restarts the job. After a restart `h` is unknown
//! and any batch start up to the job's element count is accepted. A
//! finished job's record stays until the client's next frame shows STATS
//! arrived, so a lost STATS resumes the last batch too. Under the
//! honest-but-curious model that reveals nothing: an honest client resumes
//! at its own rollback point with the choices it used before, so a
//! replayed batch repeats an extension at the same cursor with the same
//! choices — the same EXT, the same CIPHER, labels the client already
//! holds. Replaying with *different* choices would hand out a wire's other
//! label; a malicious client could ask for that inside the in-memory
//! window too, and refusing it is a later protocol bump's replay bar
//! (ROADMAP), not the window's.
//!
//! Checkpoints live in the [journal](crate::journal)'s store. A snapshot
//! holds the sender's cursor, not the sender (see [`OtCursor`]): decoding
//! re-derives the sender once per record from the seed chain
//! ([`derive_ot_seed`], as ACCEPT does), so AES round keys never touch
//! disk. A job's record is 118 bytes; the two-snapshot windows earlier
//! builds wrote (174 bytes) still decode.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use max_crypto::TranscriptDigest;
use max_gc::channel::{ReadError, Reader};
use max_ot::iknp::{self, OtCursor, OtExtSender};
use maxelerator::remote::{derive_ot_seed, JobShape};

/// Everything needed to resume one interrupted session on a brand-new
/// connection.
///
/// `S` is how a snapshot holds the OT sender: rebuilt senders (the default,
/// what [`decode_checkpoint`] returns and a RESUME continues from), or the
/// bare [`OtCursor`]s a session saves in its job's record.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint<S = OtExtSender> {
    /// The interrupted session's id (the store's key).
    pub session_id: u64,
    /// The session's resume secret (must be quoted back in RESUME). For a
    /// model job it is stored bound to the weights digest of the
    /// registration the job ran against, so a RESUME after the model was
    /// re-PUT with other weights fails the token check.
    pub resume_token: u64,
    /// The session's derived seed (later job seeds continue from it).
    pub session_seed: u64,
    /// Job-id counter after the interrupted job completes.
    pub next_job: u64,
    /// The interrupted job.
    pub job_id: u64,
    /// Column count of the interrupted job.
    pub columns: u32,
    /// The job's original accelerator seed (deterministic re-garble).
    pub job_seed: u64,
    /// Prepared model the job ran against, if any. A resume re-garbles
    /// from the *registry's* weights for this id under the same
    /// `job_seed`, which reproduces the interrupted stream bit for bit only
    /// while the id still holds the weights the job started with: if the
    /// model was evicted or re-PUT with other weights since, the resume is
    /// refused with `REJECT(resume)` (see `resume_token`).
    pub model_id: Option<u64>,
    /// `(element_boundary, sender_state, transcript_digest)` snapshots,
    /// oldest first (at most two). A session's record holds one, element 0
    /// with a fresh digest; later boundaries are derived from the oldest.
    pub snapshots: Vec<(usize, S, TranscriptDigest)>,
}

impl SessionCheckpoint {
    /// The OT sender at batch start `boundary` of a job of `shape`,
    /// derived from the oldest snapshot: each batch in between is one
    /// extension of a full batch's transfers. `None` before that snapshot,
    /// without one, or when either is not a batch start.
    pub(crate) fn sender_at(&self, boundary: usize, shape: JobShape) -> Option<OtExtSender> {
        let (start, sender, _) = self.snapshots.first()?;
        let n = shape.per_extension();
        if !(shape.is_batch_start(*start) && shape.is_batch_start(boundary)) {
            return None;
        }
        let extensions = (boundary.checked_sub(*start)? / n) as u64;
        let transfers = n * shape.transfers();
        let mut sender = sender.clone();
        sender.import_state(&sender.export_state().advanced(extensions, transfers));
        Some(sender)
    }
}

/// Whether a RESUME at `boundary` of a job of `shape` is inside the replay
/// window: a batch start, never past the job and, while this process knows
/// the job's `high_water`, not ahead of it nor more than the client
/// lookahead's reach, two batches, behind it (see the module docs).
pub(crate) fn resumable(boundary: usize, shape: JobShape, high_water: Option<usize>) -> bool {
    let reach = 2 * shape.per_extension();
    shape.is_batch_start(boundary)
        && high_water.is_none_or(|h| boundary <= h && h <= boundary + reach)
}

/// Hard cap on snapshots a serialized checkpoint may carry: the window of
/// two earlier builds saved at every boundary. Anything larger in a
/// decoded record is corruption, not a bigger window.
const MAX_CODEC_SNAPSHOTS: u8 = 2;

/// Why a serialized checkpoint record failed to decode. Every variant is a
/// typed refusal — hostile or bit-rotted bytes must never panic the codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointCodecError {
    /// The record ended before the named field.
    Truncated {
        /// Which field the record ran out of bytes in.
        what: &'static str,
    },
    /// Bytes remained after the last declared snapshot.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The snapshot count is outside the protocol's window.
    SnapshotCount {
        /// The declared count.
        got: u8,
    },
    /// The model-id presence flag is neither 0 nor 1.
    BadModelFlag {
        /// The flag byte found.
        got: u8,
    },
    /// A record's embedded content digest does not match its bytes — the
    /// payload rotted (or was tampered with) *after* it was written, in a
    /// way the record-level CRC alone might miss across compaction rewrites.
    DigestMismatch {
        /// Which digested payload failed verification.
        what: &'static str,
    },
}

impl std::fmt::Display for CheckpointCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointCodecError::Truncated { what } => {
                write!(f, "checkpoint record truncated in {what}")
            }
            CheckpointCodecError::TrailingBytes { extra } => {
                write!(f, "checkpoint record has {extra} trailing bytes")
            }
            CheckpointCodecError::SnapshotCount { got } => {
                write!(
                    f,
                    "checkpoint snapshot count {got} exceeds the window cap {MAX_CODEC_SNAPSHOTS}"
                )
            }
            CheckpointCodecError::BadModelFlag { got } => {
                write!(f, "checkpoint model-id flag {got} is not 0 or 1")
            }
            CheckpointCodecError::DigestMismatch { what } => {
                write!(f, "record digest mismatch in {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointCodecError {}

impl From<ReadError> for CheckpointCodecError {
    fn from(err: ReadError) -> Self {
        match err {
            ReadError::Short(what) => CheckpointCodecError::Truncated { what },
            ReadError::Flag { got, .. } => CheckpointCodecError::BadModelFlag { got },
            ReadError::Trailing { extra, .. } => CheckpointCodecError::TrailingBytes { extra },
        }
    }
}

/// Bytes of one encoded snapshot: boundary, digest state and length, OT
/// session and OT counter.
const SNAPSHOT_BYTES: usize = 8 + 16 + 8 + 8 + 16;

/// Serializes a checkpoint for the journal. Each OT sender is persisted as
/// its cursor only — the keyed state is a pure function of the seed chain
/// and is re-derived on decode.
pub fn encode_checkpoint(checkpoint: &SessionCheckpoint) -> Vec<u8> {
    encode_with(checkpoint, OtExtSender::export_state)
}

/// Serializes a checkpoint of cursors: the record a session saves once per
/// job, byte for byte what [`encode_checkpoint`] writes for the senders
/// they came from.
pub(crate) fn encode_cursors(checkpoint: &SessionCheckpoint<OtCursor>) -> Vec<u8> {
    encode_with(checkpoint, |cursor| *cursor)
}

fn encode_with<S>(checkpoint: &SessionCheckpoint<S>, cursor: impl Fn(&S) -> OtCursor) -> Vec<u8> {
    let mut out = Vec::with_capacity(62 + checkpoint.snapshots.len() * SNAPSHOT_BYTES);
    out.extend_from_slice(&checkpoint.session_id.to_le_bytes());
    out.extend_from_slice(&checkpoint.resume_token.to_le_bytes());
    out.extend_from_slice(&checkpoint.session_seed.to_le_bytes());
    out.extend_from_slice(&checkpoint.next_job.to_le_bytes());
    out.extend_from_slice(&checkpoint.job_id.to_le_bytes());
    out.extend_from_slice(&checkpoint.columns.to_le_bytes());
    out.extend_from_slice(&checkpoint.job_seed.to_le_bytes());
    // Fixed-width model-id slot (flag + id) so the record layout does not
    // shift with the option's state.
    out.push(u8::from(checkpoint.model_id.is_some()));
    out.extend_from_slice(&checkpoint.model_id.unwrap_or(0).to_le_bytes());
    out.push(checkpoint.snapshots.len().min(usize::from(u8::MAX)) as u8);
    for (elements, sender, digest) in &checkpoint.snapshots {
        let state = cursor(sender);
        out.extend_from_slice(&(*elements as u64).to_le_bytes());
        let (digest_state, digest_len) = digest.export();
        out.extend_from_slice(&digest_state);
        out.extend_from_slice(&digest_len.to_le_bytes());
        out.extend_from_slice(&state.session.to_le_bytes());
        out.extend_from_slice(&state.counter.to_le_bytes());
    }
    out
}

/// Deserializes a checkpoint record, rebuilding each OT-sender snapshot
/// from the session's seed chain plus its persisted cursor. The base OT
/// runs once per record, however many snapshots it holds.
///
/// # Errors
///
/// Any structural defect — truncation, an impossible snapshot count,
/// trailing garbage — returns a typed [`CheckpointCodecError`]; hostile
/// bytes never panic.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<SessionCheckpoint, CheckpointCodecError> {
    let cursors = decode_cursors(bytes)?;
    let ot_seed = derive_ot_seed(cursors.session_seed);
    let mut base: Option<OtExtSender> = None;
    let snapshots = cursors
        .snapshots
        .into_iter()
        .map(|(elements, cursor, digest)| {
            // The HELLO path's derivation, run once: each cursor is
            // imported into a copy of the bit-identical keyed sender.
            let mut sender = base
                .get_or_insert_with(|| iknp::setup_pair(ot_seed).0)
                .clone();
            sender.import_state(&cursor);
            (elements, sender, digest)
        })
        .collect();
    Ok(SessionCheckpoint {
        session_id: cursors.session_id,
        resume_token: cursors.resume_token,
        session_seed: cursors.session_seed,
        next_job: cursors.next_job,
        job_id: cursors.job_id,
        columns: cursors.columns,
        job_seed: cursors.job_seed,
        model_id: cursors.model_id,
        snapshots,
    })
}

/// Deserializes a checkpoint record's fields and cursors without rebuilding
/// any sender: every structural check [`decode_checkpoint`] makes, at none
/// of its base-OT cost (what journal replay validates records with).
pub(crate) fn decode_cursors(
    bytes: &[u8],
) -> Result<SessionCheckpoint<OtCursor>, CheckpointCodecError> {
    let mut reader = Reader::new(bytes);
    let session_id = reader.u64_le("session_id")?;
    let resume_token = reader.u64_le("resume_token")?;
    let session_seed = reader.u64_le("session_seed")?;
    let next_job = reader.u64_le("next_job")?;
    let job_id = reader.u64_le("job_id")?;
    let columns = reader.u32_le("columns")?;
    let job_seed = reader.u64_le("job_seed")?;
    // The model-id slot is fixed width: the id is there, flag set or not.
    let has_model = reader.flag("model flag")?;
    let model_id = has_model.then_some(reader.u64_le("model id")?);
    let count = reader.u8("snapshot count")?;
    if count > MAX_CODEC_SNAPSHOTS {
        return Err(CheckpointCodecError::SnapshotCount { got: count });
    }
    let mut snapshots = Vec::with_capacity(usize::from(count));
    for _ in 0..count {
        let elements = reader.u64_le("snapshot boundary")?;
        let digest_state = reader.array("snapshot digest state")?;
        let digest_len = reader.u64_le("snapshot digest length")?;
        let cursor = OtCursor {
            session: reader.u64_le("snapshot OT session")?,
            counter: reader.u128_le("snapshot OT counter")?,
        };
        snapshots.push((
            elements as usize,
            cursor,
            TranscriptDigest::import(digest_state, digest_len),
        ));
    }
    reader.end("checkpoint record")?;
    Ok(SessionCheckpoint {
        session_id,
        resume_token,
        session_seed,
        next_job,
        job_id,
        columns,
        job_seed,
        model_id,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxelerator::remote::{derive_job_seed, derive_seed, deterministic_resume_token};

    /// A realistic checkpoint: seed chain as the HELLO path derives it, OT
    /// sender advanced through real exchanges before snapshotting.
    fn live_checkpoint(session_id: u64, warmup_elements: usize) -> SessionCheckpoint {
        let session_seed = derive_seed(0xBA5E, session_id);
        let ot_seed = derive_ot_seed(session_seed);
        let (mut sender, mut receiver) = iknp::setup_pair(ot_seed);
        let mut digest = TranscriptDigest::new();
        let mut snapshots = Vec::new();
        for element in 0..warmup_elements {
            let choices: Vec<bool> = (0..64).map(|i| (i + element) % 2 == 0).collect();
            let (msg, _keys) = receiver.prepare(&choices);
            let pairs: Vec<_> = (0..64)
                .map(|i| {
                    (
                        max_crypto::Block::new(i as u128),
                        max_crypto::Block::new((i + 1000) as u128),
                    )
                })
                .collect();
            let _ = sender.send(&msg, &pairs);
            digest.fold(&(element as u64).to_le_bytes());
            snapshots.push((element + 1, sender.clone(), digest.clone()));
        }
        snapshots.drain(..snapshots.len().saturating_sub(2));
        SessionCheckpoint {
            session_id,
            resume_token: deterministic_resume_token(session_seed),
            session_seed,
            next_job: 3,
            job_id: 2,
            columns: 5,
            job_seed: derive_job_seed(session_seed, 2),
            model_id: Some(derive_seed(session_seed, 0x4d0d)),
            snapshots,
        }
    }

    #[test]
    fn the_replay_window_is_two_batches() {
        // 80 elements of 64 transfers: batches start at 0 and 64.
        let shape = JobShape::new(80, 64);
        assert_eq!(shape.per_extension(), 64);
        for boundary in [0, 64] {
            assert!(
                resumable(boundary, shape, None),
                "{boundary} after a restart"
            );
            assert!(
                resumable(boundary, shape, Some(80)),
                "{boundary} at the end"
            );
        }
        for boundary in [1, 63, 65, 80, 128] {
            assert!(
                !resumable(boundary, shape, None),
                "{boundary}: no batch start"
            );
        }
        // Never ahead of the high-water mark, never two batches behind it.
        assert!(resumable(0, shape, Some(0)));
        assert!(!resumable(64, shape, Some(0)));
        let one = JobShape::new(10, 4096);
        assert_eq!(one.per_extension(), 1);
        assert!(resumable(3, one, Some(5)));
        assert!(!resumable(3, one, Some(6)));
    }

    #[test]
    fn the_sender_at_a_batch_start_is_the_one_real_batches_leave() {
        let session_seed = derive_seed(0xBA5E, 3);
        let (mut sender, mut receiver) = iknp::setup_pair(derive_ot_seed(session_seed));
        let shape = JobShape::new(10, 48);
        let n = shape.per_extension();
        let mut checkpoint = live_checkpoint(3, 0);
        checkpoint.snapshots = vec![(0, sender.clone(), TranscriptDigest::new())];
        for batch in 0..=10usize.div_ceil(n) {
            let boundary = batch * n;
            if boundary <= shape.elements() {
                let derived = checkpoint.sender_at(boundary, shape).unwrap();
                assert_eq!(derived.export_state(), sender.export_state(), "{boundary}");
            }
            let choices = vec![true; shape.batch_len(boundary) * shape.transfers()];
            let (msg, _) = receiver.prepare(&choices);
            sender.absorb(&msg);
        }
        assert!(checkpoint.sender_at(1, shape).is_none(), "no batch start");
    }

    #[test]
    fn codec_round_trips_a_live_checkpoint() {
        let original = live_checkpoint(11, 3);
        let bytes = encode_checkpoint(&original);
        let decoded = decode_checkpoint(&bytes).unwrap();
        assert_eq!(decoded.session_id, original.session_id);
        assert_eq!(decoded.resume_token, original.resume_token);
        assert_eq!(decoded.session_seed, original.session_seed);
        assert_eq!(decoded.next_job, original.next_job);
        assert_eq!(decoded.job_id, original.job_id);
        assert_eq!(decoded.columns, original.columns);
        assert_eq!(decoded.job_seed, original.job_seed);
        assert_eq!(decoded.model_id, original.model_id);
        assert_eq!(decoded.snapshots.len(), original.snapshots.len());
        for ((at_a, sender_a, digest_a), (at_b, sender_b, digest_b)) in
            decoded.snapshots.iter().zip(&original.snapshots)
        {
            assert_eq!(at_a, at_b);
            // The rebuilt sender carries the same cursor over the same
            // keyed state — full behavioral identity is proven in the OT
            // crate's export/import tests and crash_e2e's transcript diff.
            assert_eq!(sender_a.export_state(), sender_b.export_state());
            assert_eq!(digest_a, digest_b);
            assert_eq!(digest_a.value(), digest_b.value());
        }
    }

    #[test]
    fn a_two_snapshot_record_is_its_cursors() {
        // Header (62 bytes) plus two 56-byte snapshots: boundary, digest
        // state and length, OT session, one OT counter.
        let checkpoint = live_checkpoint(13, 4);
        assert_eq!(checkpoint.snapshots.len(), 2);
        let record = encode_checkpoint(&checkpoint);
        assert_eq!(record.len(), 174);
        // The window a session keeps encodes to the very same bytes.
        let cursors = SessionCheckpoint {
            session_id: checkpoint.session_id,
            resume_token: checkpoint.resume_token,
            session_seed: checkpoint.session_seed,
            next_job: checkpoint.next_job,
            job_id: checkpoint.job_id,
            columns: checkpoint.columns,
            job_seed: checkpoint.job_seed,
            model_id: checkpoint.model_id,
            snapshots: checkpoint
                .snapshots
                .iter()
                .map(|(at, sender, digest)| (*at, sender.export_state(), digest.clone()))
                .collect(),
        };
        assert_eq!(encode_cursors(&cursors), record);
        let parsed = decode_cursors(&record).unwrap();
        assert_eq!(encode_cursors(&parsed), record);
    }

    #[test]
    fn codec_rejects_hostile_bytes_with_typed_errors() {
        let bytes = encode_checkpoint(&live_checkpoint(12, 2));

        // Truncation at every prefix length decodes to a typed error (or,
        // for snapshotless prefixes that happen to parse, a valid record) —
        // never a panic.
        for cut in 0..bytes.len() {
            match decode_checkpoint(&bytes[..cut]) {
                Err(
                    CheckpointCodecError::Truncated { .. }
                    | CheckpointCodecError::TrailingBytes { .. },
                ) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
                Ok(_) => panic!("cut {cut}: truncated record decoded"),
            }
        }

        // Trailing garbage is refused.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xAB; 7]);
        assert!(matches!(
            decode_checkpoint(&padded),
            Err(CheckpointCodecError::TrailingBytes { extra: 7 })
        ));

        // A model-id flag outside {0, 1} is refused.
        let mut bad_flag = bytes.clone();
        bad_flag[52] = 2; // model flag (7 u64/u32 header fields = 52 bytes).
        assert!(matches!(
            decode_checkpoint(&bad_flag),
            Err(CheckpointCodecError::BadModelFlag { got: 2 })
        ));

        // A snapshot count past the window is refused before any
        // allocation work: one more than a session keeps, and an absurd one.
        for count in [3, 0xFF] {
            let mut hostile = bytes.clone();
            hostile[61] = count; // snapshot-count byte (after the 9-byte model slot).
            assert!(matches!(
                decode_checkpoint(&hostile),
                Err(CheckpointCodecError::SnapshotCount { got }) if got == count
            ));
        }
    }
}
