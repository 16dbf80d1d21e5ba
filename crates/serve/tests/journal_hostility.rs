//! Hostility tests for the durable-checkpoint layer: the checkpoint codec
//! and the journal replay path fed adversarial bytes.
//!
//! The contract under attack: **damaged journal content never panics and
//! never fails a boot**. The codec answers hostile bytes with typed
//! [`CheckpointCodecError`]s; the journal answers damaged segments with
//! truncation (torn tails) or quarantine (corruption), and last-write-wins
//! replay keeps duplicate session ids coherent.

use std::path::{Path, PathBuf};

use max_crypto::crc32;
use max_ot::iknp;
use max_serve::resume::{decode_checkpoint, encode_checkpoint, CheckpointCodecError};
use max_serve::{Journal, JournalConfig, SessionCheckpoint};
use maxelerator::remote::derive_seed;
use proptest::prelude::*;

const MAGIC: &[u8; 8] = b"MAXJRNL2";
const KIND_CHECKPOINT: u8 = 1;
const KIND_REMOVE: u8 = 2;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jhost-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> JournalConfig {
    let mut cfg = JournalConfig::new(dir);
    cfg.fsync = false;
    cfg
}

/// A checkpoint whose OT snapshots genuinely derive from `session_seed`,
/// as the serving layer's do — `decode_checkpoint` rebuilds the sender
/// from that seed, so arbitrary unrelated senders would not round-trip.
fn live_checkpoint(session_id: u64, session_seed: u64, warmup: usize) -> SessionCheckpoint {
    let ot_seed = derive_seed(session_seed, 0x07);
    let (mut sender, mut receiver) = iknp::setup_pair(ot_seed);
    let mut digest = max_crypto::TranscriptDigest::new();
    let mut snapshots = Vec::new();
    for element in 0..warmup {
        let choices: Vec<bool> = (0..32).map(|i| (i + element) % 2 == 0).collect();
        let (msg, _keys) = receiver.prepare(&choices);
        let pairs: Vec<_> = (0..32)
            .map(|i| {
                (
                    max_crypto::Block::new(i as u128),
                    max_crypto::Block::new((i + 77) as u128),
                )
            })
            .collect();
        let _ = sender.send(&msg, &pairs);
        digest.fold(&(element as u64).to_be_bytes());
        snapshots.push((element + 1, sender.clone(), digest.clone()));
    }
    snapshots.drain(..snapshots.len().saturating_sub(2));
    if snapshots.is_empty() {
        snapshots.push((0, sender, digest));
    }
    SessionCheckpoint {
        session_id,
        resume_token: derive_seed(session_seed, 0x7e57),
        session_seed,
        next_job: session_id ^ 3,
        job_id: session_id ^ 2,
        columns: 1 + (session_id % 64) as u32,
        job_seed: derive_seed(session_seed, 0x102),
        model_id: session_id
            .is_multiple_of(2)
            .then(|| derive_seed(session_seed, 0x4d0d)),
        snapshots,
    }
}

/// One wire record exactly as the journal lays it down:
/// `[len][crc32(body)][body]`, body = kind byte + payload.
fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = vec![kind];
    body.extend_from_slice(payload);
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Writes raw bytes as the journal's first segment and opens it.
fn open_raw(tag: &str, bytes: &[u8]) -> (Journal, max_serve::ReplayReport, PathBuf) {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("create dir");
    std::fs::write(dir.join("journal-000000000000.maxj"), bytes).expect("write segment");
    let (journal, report) =
        Journal::open(config(&dir)).expect("damaged content must not fail open");
    (journal, report, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Codec round trip: every field and every OT snapshot survives
    /// encode → decode bit-exactly.
    #[test]
    fn codec_round_trips(
        session_id: u64,
        session_seed: u64,
        warmup in 0usize..3,
    ) {
        let original = live_checkpoint(session_id, session_seed, warmup);
        let result = decode_checkpoint(&encode_checkpoint(&original));
        prop_assert!(result.is_ok(), "decode failed: {:?}", result.err());
        let decoded = result.unwrap();
        prop_assert_eq!(decoded.session_id, original.session_id);
        prop_assert_eq!(decoded.resume_token, original.resume_token);
        prop_assert_eq!(decoded.session_seed, original.session_seed);
        prop_assert_eq!(decoded.next_job, original.next_job);
        prop_assert_eq!(decoded.job_id, original.job_id);
        prop_assert_eq!(decoded.columns, original.columns);
        prop_assert_eq!(decoded.job_seed, original.job_seed);
        prop_assert_eq!(decoded.snapshots.len(), original.snapshots.len());
        for ((da, ds, dd), (oa, os, od)) in decoded.snapshots.iter().zip(&original.snapshots) {
            prop_assert_eq!(da, oa);
            prop_assert_eq!(ds.export_state(), os.export_state());
            prop_assert_eq!(dd, od);
        }
    }

    /// Arbitrary bytes never panic the codec: they decode or they return
    /// a typed error.
    #[test]
    fn codec_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = decode_checkpoint(&bytes);
    }

    /// Every strict prefix of a valid record is refused with a typed
    /// error — a truncated record must never decode to a checkpoint.
    #[test]
    fn codec_refuses_every_truncation(
        session_id: u64,
        cut in 0.0f64..1.0,
    ) {
        let bytes = encode_checkpoint(&live_checkpoint(session_id, session_id ^ 0xD1CE, 2));
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(
            decode_checkpoint(&bytes[..keep]).is_err(),
            "a {keep}-byte prefix of a {}-byte record decoded",
            bytes.len()
        );
    }

    /// Trailing garbage after a valid record is refused — silently
    /// ignoring it would let a torn double-write smuggle state.
    #[test]
    fn codec_refuses_trailing_bytes(
        session_id: u64,
        suffix in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = encode_checkpoint(&live_checkpoint(session_id, session_id ^ 0xFEED, 1));
        let expected_extra = suffix.len();
        bytes.extend_from_slice(&suffix);
        let result = decode_checkpoint(&bytes);
        prop_assert!(result.is_err(), "trailing bytes accepted");
        // The usual refusal is TrailingBytes with an exact count; a suffix
        // may instead masquerade as a bigger field, which is still refused.
        if let Err(CheckpointCodecError::TrailingBytes { extra }) = result {
            prop_assert_eq!(extra, expected_extra);
        }
    }

    /// Arbitrary segment bytes never panic `Journal::open` and never fail
    /// the boot: any damage resolves to truncation or quarantine, and the
    /// journal stays writable afterwards.
    #[test]
    fn replay_never_panics_on_arbitrary_segments(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (journal, report, dir) = open_raw("arb", &bytes);
        prop_assert!(report.sessions <= 1);
        journal
            .append_checkpoint(&live_checkpoint(99, 0x5EED, 1))
            .expect("journal stays writable after damage");
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn oversized_length_prefix_quarantines() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&(2u32 << 20).to_le_bytes()); // 2 MiB > MAX_RECORD_LEN
    bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    let (journal, report, dir) = open_raw("oversized", &bytes);
    assert_eq!(
        report.quarantined.len(),
        1,
        "impossible length is corruption"
    );
    assert!(!report.truncated_tail);
    assert_eq!(report.sessions, 0);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_prefix_quarantines() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(
        KIND_CHECKPOINT,
        &encode_checkpoint(&live_checkpoint(5, 55, 1)),
    ));
    bytes.extend_from_slice(&[0u8; 8]); // len = 0, crc = 0
    let (journal, report, dir) = open_raw("zerolen", &bytes);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(
        report.records_applied, 1,
        "the valid prefix before the damage still applies"
    );
    assert_eq!(report.sessions, 1);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_segment_is_a_benign_torn_creation() {
    let (journal, report, dir) = open_raw("empty", &[]);
    assert!(
        report.quarantined.is_empty(),
        "an empty file is a torn creation, not corruption"
    );
    assert!(report.truncated_tail);
    assert_eq!(report.sessions, 0);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_quarantines() {
    let (journal, report, dir) = open_raw("magic", b"NOTJRNL1 something else entirely");
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].exists(),
        "forensic evidence preserved"
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_crc_quarantines_but_keeps_valid_prefix() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(
        KIND_CHECKPOINT,
        &encode_checkpoint(&live_checkpoint(1, 11, 2)),
    ));
    let tail_start = bytes.len();
    bytes.extend_from_slice(&record(
        KIND_CHECKPOINT,
        &encode_checkpoint(&live_checkpoint(2, 22, 2)),
    ));
    bytes[tail_start + 20] ^= 0x40; // flip one bit inside record 2's body
    let (journal, report, dir) = open_raw("crc", &bytes);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.records_applied, 1);
    assert_eq!(report.sessions, 1, "record 1 survives, record 2 is gone");
    assert_eq!(journal.live_checkpoints()[0].session_id, 1);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_session_ids_replay_last_write_wins() {
    let mut first = live_checkpoint(7, 0x700, 1);
    first.next_job = 1;
    let mut second = live_checkpoint(7, 0x700, 2);
    second.next_job = 9;
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(KIND_CHECKPOINT, &encode_checkpoint(&first)));
    bytes.extend_from_slice(&record(KIND_CHECKPOINT, &encode_checkpoint(&second)));
    let (journal, report, dir) = open_raw("dupes", &bytes);
    assert_eq!(report.records_applied, 2);
    assert_eq!(report.sessions, 1, "one session, not two");
    let live = journal.live_checkpoints();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].next_job, 9, "the later record must win");
    assert_eq!(live[0].snapshots.len(), 2);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remove_records_drop_sessions_and_malformed_removes_quarantine() {
    // A checkpoint followed by its tombstone replays to an empty live set.
    let checkpoint = live_checkpoint(3, 0x300, 1);
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(KIND_CHECKPOINT, &encode_checkpoint(&checkpoint)));
    bytes.extend_from_slice(&record(KIND_REMOVE, &3u64.to_le_bytes()));
    let (journal, report, dir) = open_raw("remove", &bytes);
    assert_eq!(report.records_applied, 2);
    assert_eq!(report.sessions, 0, "tombstone must erase the checkpoint");
    assert!(report.quarantined.is_empty());
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    // A CRC-valid remove with the wrong payload width is structural
    // corruption: quarantine, not a guess at the session id.
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(KIND_REMOVE, &[1, 2, 3]));
    let (journal, report, dir) = open_raw("badremove", &bytes);
    assert_eq!(report.quarantined.len(), 1);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_record_kind_quarantines() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&record(0x7F, &[0u8; 16]));
    let (journal, report, dir) = open_raw("kind", &bytes);
    assert_eq!(
        report.quarantined.len(),
        1,
        "a future format must not be silently dropped"
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_mid_record_keeps_every_earlier_record() {
    let mut bytes = MAGIC.to_vec();
    for session in 0..3u64 {
        bytes.extend_from_slice(&record(
            KIND_CHECKPOINT,
            &encode_checkpoint(&live_checkpoint(session, session * 101, 2)),
        ));
    }
    let torn = &bytes[..bytes.len() - 17];
    let (journal, report, dir) = open_raw("torn", torn);
    assert!(
        report.truncated_tail,
        "mid-record EOF on the last segment is a torn tail"
    );
    assert!(report.quarantined.is_empty());
    assert_eq!(
        report.sessions, 2,
        "sessions 0 and 1 survive, 2 was mid-write"
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}
