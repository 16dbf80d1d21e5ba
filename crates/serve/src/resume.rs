//! Server-side round checkpoints for RESUME.
//!
//! At every element boundary a session saves a [`SessionCheckpoint`]: the
//! session's seed material plus OT-sender snapshots at the last two element
//! boundaries. When the session dies mid-job, that window stays behind for
//! the client's reconnect (or survives a restart, with a journal). A
//! reconnecting client's
//! RESUME is validated against the checkpoint (token, job, shape, a
//! snapshot at exactly the client's rollback point, and for a model job the
//! registration it ran against); the job is then re-garbled from its
//! original seed and streamed from that boundary, so the stitched
//! transcript is bit-identical to an uninterrupted run.
//!
//! Two snapshots always suffice, with the client looking one element ahead.
//! The server snapshots boundary `e + 1` once it has answered EXT(`e`),
//! before CIPHER(`e`)/ROUNDS(`e`) go out. The client sends EXT(`e + 1`)
//! after ROUNDS(`e`) passes its CRC but before it evaluates `e`; its
//! boundary-(`e + 1`) checkpoint is its state before it prepared that EXT,
//! committed only once `e` has evaluated, even when the EXT(`e + 1`) send
//! failed. So a job that stops with the client's rollback point at `c` has
//! sent at most EXT(`c`), the server's newest snapshot is `c` or `c + 1`,
//! and the window `{c, c + 1}` holds the client's point. The one exception
//! is a failure *while evaluating* `e`: the rollback point stays `e` while
//! the server may be at `e + 2`, so the RESUME is refused and the client
//! restarts — which takes a ROUNDS burst that passed its CRC and still
//! failed to decode. A deeper lookahead would need one more snapshot per
//! element of depth.
//!
//! A checkpoint is kept in one place: the [journal](crate::journal)'s
//! live set, with or without a segment file behind it. It holds every
//! session's newest window as its encoded record, bounded by one capacity
//! (`ServeConfig::resume_capacity`) and evicting the least recently saved
//! session. An eviction is reported to the session whose save caused it
//! (a `resume.evicted` flight event) and counted in METRICS as
//! `resume_evicted`, so a client whose later RESUME comes back
//! `REJECT(resume)` can be attributed to capacity pressure rather than a
//! mystery.
//!
//! This module owns the checkpoint *codec*. A snapshot stores the OT
//! sender's cursor, not the sender: `(session, counter)` (see
//! [`OtSenderState`]). Decoding re-derives the sender once per record from
//! the session's seed chain (`ot_seed = derive_seed(session_seed, 0x07)`,
//! exactly the ACCEPT-path derivation) and imports each cursor into a copy
//! of it — so AES round keys never touch disk, and a two-snapshot record is
//! 174 bytes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use max_crypto::TranscriptDigest;
use max_ot::iknp::{self, OtExtSender, OtSenderState};
use maxelerator::remote::derive_seed;

/// Everything needed to resume one interrupted session on a brand-new
/// connection.
///
/// `S` is how a snapshot holds the OT sender: rebuilt senders (the default,
/// what [`decode_checkpoint`] returns and a RESUME continues from), or the
/// bare [`OtSenderState`] cursors a session keeps in its window.
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
    /// `(elements_streamed, sender_state, transcript_digest)` snapshots at
    /// the most recent element boundaries, oldest first (at most two). The
    /// digest is the server's rolling transcript digest *at that boundary*,
    /// so a resumed stream keeps folding from exactly where the client's
    /// checkpointed digest stands.
    pub snapshots: Vec<(usize, S, TranscriptDigest)>,
}

impl<S> SessionCheckpoint<S> {
    /// The sender snapshot and transcript digest at exactly
    /// `elements_done`, if held.
    pub fn snapshot_at(&self, elements_done: usize) -> Option<(&S, &TranscriptDigest)> {
        self.snapshots
            .iter()
            .find(|(at, _, _)| *at == elements_done)
            .map(|(_, sender, digest)| (sender, digest))
    }
}

/// Hard cap on snapshots a serialized checkpoint may carry. The serving
/// layer keeps a window of two; anything larger in a decoded record is
/// corruption, not a bigger window.
const MAX_CODEC_SNAPSHOTS: u8 = 4;

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

/// Little-endian reader over a checkpoint record body.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointCodecError> {
        if self.bytes.len() < n {
            return Err(CheckpointCodecError::Truncated { what });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CheckpointCodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointCodecError> {
        let bytes = self.take(4, what)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointCodecError> {
        let bytes = self.take(8, what)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, CheckpointCodecError> {
        let bytes = self.take(16, what)?;
        let mut buf = [0u8; 16];
        buf.copy_from_slice(bytes);
        Ok(u128::from_le_bytes(buf))
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

/// Serializes a window of cursors: the record a session saves at every
/// element boundary, byte for byte what [`encode_checkpoint`] writes for
/// the senders they came from.
pub(crate) fn encode_cursors(checkpoint: &SessionCheckpoint<OtSenderState>) -> Vec<u8> {
    encode_with(checkpoint, |cursor| *cursor)
}

fn encode_with<S>(
    checkpoint: &SessionCheckpoint<S>,
    cursor: impl Fn(&S) -> OtSenderState,
) -> Vec<u8> {
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
    let ot_seed = derive_seed(cursors.session_seed, 0x07);
    let mut base: Option<OtExtSender> = None;
    let snapshots = cursors
        .snapshots
        .into_iter()
        .map(|(elements, cursor, digest)| {
            // Same derivation the HELLO path used when the session was
            // born, so the rebuilt sender's keyed state is bit-identical to
            // the original's; derived once, then each cursor is imported
            // into a copy.
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
) -> Result<SessionCheckpoint<OtSenderState>, CheckpointCodecError> {
    let mut reader = Reader { bytes };
    let session_id = reader.u64("session_id")?;
    let resume_token = reader.u64("resume_token")?;
    let session_seed = reader.u64("session_seed")?;
    let next_job = reader.u64("next_job")?;
    let job_id = reader.u64("job_id")?;
    let columns = reader.u32("columns")?;
    let job_seed = reader.u64("job_seed")?;
    let model_flag = reader.u8("model flag")?;
    let model_raw = reader.u64("model id")?;
    let model_id = match model_flag {
        0 => None,
        1 => Some(model_raw),
        got => return Err(CheckpointCodecError::BadModelFlag { got }),
    };
    let count = reader.u8("snapshot count")?;
    if count > MAX_CODEC_SNAPSHOTS {
        return Err(CheckpointCodecError::SnapshotCount { got: count });
    }
    let mut snapshots = Vec::with_capacity(usize::from(count));
    for _ in 0..count {
        let elements = reader.u64("snapshot boundary")?;
        let mut digest_state = [0u8; 16];
        digest_state.copy_from_slice(reader.take(16, "snapshot digest state")?);
        let digest_len = reader.u64("snapshot digest length")?;
        let cursor = OtSenderState {
            session: reader.u64("snapshot OT session")?,
            counter: reader.u128("snapshot OT counter")?,
        };
        snapshots.push((
            elements as usize,
            cursor,
            TranscriptDigest::import(digest_state, digest_len),
        ));
    }
    if !reader.bytes.is_empty() {
        return Err(CheckpointCodecError::TrailingBytes {
            extra: reader.bytes.len(),
        });
    }
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

    /// A realistic checkpoint: seed chain as the HELLO path derives it, OT
    /// sender advanced through real exchanges before snapshotting.
    fn live_checkpoint(session_id: u64, warmup_elements: usize) -> SessionCheckpoint {
        let session_seed = derive_seed(0xBA5E, session_id);
        let ot_seed = derive_seed(session_seed, 0x07);
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
            resume_token: derive_seed(session_seed, 0x7e57),
            session_seed,
            next_job: 3,
            job_id: 2,
            columns: 5,
            job_seed: derive_seed(session_seed, 0x102),
            model_id: Some(derive_seed(session_seed, 0x4d0d)),
            snapshots,
        }
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

        // An absurd snapshot count is refused before any allocation work.
        let mut hostile = bytes.clone();
        hostile[61] = 0xFF; // snapshot-count byte (after the 9-byte model slot).
        assert!(matches!(
            decode_checkpoint(&hostile),
            Err(CheckpointCodecError::SnapshotCount { got: 0xFF })
        ));
    }
}
