//! Server-side round checkpoints for RESUME.
//!
//! When a session dies mid-job, the session thread deposits a
//! [`SessionCheckpoint`] here: the session's seed material plus OT-sender
//! snapshots at the last two element boundaries. A reconnecting client's
//! RESUME is validated against the checkpoint (token, job, shape, and a
//! snapshot at exactly the client's rollback point); the job is then
//! re-garbled from its original seed and streamed from that boundary, so
//! the stitched transcript is bit-identical to an uninterrupted run.
//!
//! Two snapshots always suffice: the client checkpoints *before* each
//! element and the server snapshots *after* each element, so the client's
//! rollback point is either the server's position or one element behind it
//! (the frame in flight when the wire died).
//!
//! The registry is capacity-bounded with insertion-order eviction — an
//! abandoned checkpoint costs memory only until enough newer failures
//! arrive. Evictions are accounted (`serve.resume.evicted`) and reported to
//! the caller, so a client whose later RESUME comes back `REJECT(resume)`
//! can be attributed to capacity pressure rather than a mystery.
//!
//! This module also owns the checkpoint *codec* used by the durable
//! [journal](crate::journal): a checkpoint serializes to a compact
//! little-endian record and deserializes by re-deriving the OT sender from
//! the session's seed chain (`ot_seed = derive_seed(session_seed, 0x07)`,
//! exactly the ACCEPT-path derivation) and then importing the persisted
//! `(session, counters)` cursor — so AES round keys never touch disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use max_crypto::TranscriptDigest;
use max_ot::iknp::{self, OtExtSender, OtStateShapeError};
use maxelerator::remote::derive_seed;

/// Everything needed to resume one interrupted session on a brand-new
/// connection.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint {
    /// The interrupted session's id (registry key).
    pub session_id: u64,
    /// The session's resume secret (must be quoted back in RESUME).
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
    /// from the *registry's* weights for this id (same `job_seed`, so the
    /// material is bit-identical); if the model was evicted in the
    /// meantime the resume is refused with `REJECT(resume)`.
    pub model_id: Option<u64>,
    /// `(elements_streamed, sender_state, transcript_digest)` snapshots at
    /// the most recent element boundaries, oldest first (at most two). The
    /// digest is the server's rolling transcript digest *at that boundary*,
    /// so a resumed stream keeps folding from exactly where the client's
    /// checkpointed digest stands.
    pub snapshots: Vec<(usize, OtExtSender, TranscriptDigest)>,
}

impl SessionCheckpoint {
    /// The sender snapshot and transcript digest at exactly
    /// `elements_done`, if held.
    pub fn snapshot_at(&self, elements_done: usize) -> Option<(&OtExtSender, &TranscriptDigest)> {
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
    /// A persisted OT cursor does not fit the sender it rebuilds.
    OtShape(OtStateShapeError),
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
            CheckpointCodecError::OtShape(err) => write!(f, "checkpoint OT cursor: {err}"),
            CheckpointCodecError::DigestMismatch { what } => {
                write!(f, "record digest mismatch in {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointCodecError {}

impl From<OtStateShapeError> for CheckpointCodecError {
    fn from(err: OtStateShapeError) -> Self {
        CheckpointCodecError::OtShape(err)
    }
}

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

    fn u16(&mut self, what: &'static str) -> Result<u16, CheckpointCodecError> {
        let bytes = self.take(2, what)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
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

/// Serializes a checkpoint for the journal. The OT sender is persisted as
/// its `(session, counters)` cursor only — the keyed state is a pure
/// function of the seed chain and is re-derived on decode.
pub fn encode_checkpoint(checkpoint: &SessionCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + checkpoint.snapshots.len() * (16 + 128 * 16));
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
        let state = sender.export_state();
        out.extend_from_slice(&(*elements as u64).to_le_bytes());
        let (digest_state, digest_len) = digest.export();
        out.extend_from_slice(&digest_state);
        out.extend_from_slice(&digest_len.to_le_bytes());
        out.extend_from_slice(&state.session.to_le_bytes());
        out.extend_from_slice(
            &(state.counters.len().min(usize::from(u16::MAX)) as u16).to_le_bytes(),
        );
        for counter in &state.counters {
            out.extend_from_slice(&counter.to_le_bytes());
        }
    }
    out
}

/// Deserializes a checkpoint record, rebuilding each OT-sender snapshot
/// from the session's seed chain plus the persisted cursor.
///
/// # Errors
///
/// Any structural defect — truncation, an impossible snapshot count, a
/// cursor that does not fit the derived sender, trailing garbage — returns
/// a typed [`CheckpointCodecError`]; hostile bytes never panic.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<SessionCheckpoint, CheckpointCodecError> {
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
    // Same derivation the HELLO path used when the session was born, so the
    // rebuilt sender's keyed state is bit-identical to the original's.
    let ot_seed = derive_seed(session_seed, 0x07);
    let mut snapshots = Vec::with_capacity(usize::from(count));
    for _ in 0..count {
        let elements = reader.u64("snapshot boundary")?;
        let mut digest_state = [0u8; 16];
        digest_state.copy_from_slice(reader.take(16, "snapshot digest state")?);
        let digest_len = reader.u64("snapshot digest length")?;
        let ot_session = reader.u64("snapshot OT session")?;
        let counters_len = reader.u16("snapshot counter count")?;
        let mut counters = Vec::with_capacity(usize::from(counters_len));
        for _ in 0..counters_len {
            counters.push(reader.u128("snapshot counter")?);
        }
        let (mut sender, _receiver_half) = iknp::setup_pair(ot_seed);
        sender.import_state(&iknp::OtSenderState {
            session: ot_session,
            counters,
        })?;
        snapshots.push((
            elements as usize,
            sender,
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

/// Capacity-bounded store of [`SessionCheckpoint`]s keyed by session id,
/// evicting the oldest entry when full. Capacity zero disables resumption
/// entirely.
pub struct ResumeRegistry {
    capacity: usize,
    // Insertion-ordered; lookups are rare (one per reconnect) so a scan
    // beats the bookkeeping of an index.
    entries: Mutex<VecDeque<SessionCheckpoint>>,
}

impl std::fmt::Debug for ResumeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumeRegistry")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ResumeRegistry {
    /// Creates a registry holding at most `capacity` checkpoints.
    pub fn new(capacity: usize) -> ResumeRegistry {
        ResumeRegistry {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Deposits (or replaces) the checkpoint for a session, evicting the
    /// oldest entry if the registry is full. No-op when capacity is zero.
    ///
    /// Returns the session id of the checkpoint evicted under capacity
    /// pressure, if any, so the caller can attribute the silenced session's
    /// future `REJECT(resume)` (flight event, journal cleanup) instead of
    /// letting the fallback-to-restart look like random loss.
    pub fn save(&self, checkpoint: SessionCheckpoint) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|c| c.session_id != checkpoint.session_id);
        let evicted = if entries.len() >= self.capacity {
            entries.pop_front().map(|c| c.session_id)
        } else {
            None
        };
        entries.push_back(checkpoint);
        evicted
    }

    /// Clones the checkpoint for `session_id`, leaving it in place — a
    /// failed resume attempt must not destroy the state a later attempt
    /// needs.
    pub fn lookup(&self, session_id: u64) -> Option<SessionCheckpoint> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|c| c.session_id == session_id)
            .cloned()
    }

    /// Drops the checkpoint for `session_id` (after a successful resumed
    /// job, or a clean BYE).
    pub fn remove(&self, session_id: u64) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|c| c.session_id != session_id);
    }

    /// Checkpoints currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the registry holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_ot::iknp;

    fn checkpoint(session_id: u64) -> SessionCheckpoint {
        let (sender, _receiver) = iknp::setup_pair(session_id);
        let digest = TranscriptDigest::new();
        SessionCheckpoint {
            session_id,
            resume_token: session_id ^ 0x7e57,
            session_seed: 1,
            next_job: 1,
            job_id: 0,
            columns: 1,
            job_seed: 2,
            model_id: None,
            snapshots: vec![(0, sender.clone(), digest.clone()), (1, sender, digest)],
        }
    }

    #[test]
    fn save_lookup_remove_round_trip() {
        let registry = ResumeRegistry::new(4);
        assert!(registry.is_empty());
        registry.save(checkpoint(7));
        let got = registry.lookup(7).unwrap();
        assert_eq!(got.resume_token, 7 ^ 0x7e57);
        assert!(got.snapshot_at(1).is_some());
        assert!(got.snapshot_at(2).is_none());
        // Peek, not take: still present.
        assert!(registry.lookup(7).is_some());
        registry.remove(7);
        assert!(registry.lookup(7).is_none());
    }

    #[test]
    fn capacity_evicts_oldest_and_zero_disables() {
        let registry = ResumeRegistry::new(2);
        assert_eq!(registry.save(checkpoint(1)), None);
        assert_eq!(registry.save(checkpoint(2)), None);
        // The eviction names its victim, so callers can account for it.
        assert_eq!(registry.save(checkpoint(3)), Some(1));
        assert_eq!(registry.len(), 2);
        assert!(registry.lookup(1).is_none());
        assert!(registry.lookup(2).is_some());
        assert!(registry.lookup(3).is_some());
        // Re-saving a session replaces, not duplicates.
        registry.save(checkpoint(3));
        assert_eq!(registry.len(), 2);

        let disabled = ResumeRegistry::new(0);
        assert_eq!(disabled.save(checkpoint(1)), None);
        assert!(disabled.lookup(1).is_none());
    }

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

        // A wrong-width counter vector is a typed OT-shape refusal. The
        // counter-count u16 sits after the snapshot's boundary (8), digest
        // state (16), digest length (8), and OT session (8) fields.
        let mut short_counters = bytes.clone();
        short_counters[62 + 40] = 3;
        short_counters[62 + 41] = 0;
        assert!(matches!(
            decode_checkpoint(&short_counters),
            Err(CheckpointCodecError::OtShape(_)
                | CheckpointCodecError::Truncated { .. }
                | CheckpointCodecError::TrailingBytes { .. })
        ));
    }
}
