//! Durable write-ahead journal for session checkpoints.
//!
//! The [`ResumeRegistry`](crate::resume::ResumeRegistry) survives dropped
//! *connections*; this module makes checkpoints survive dropped
//! *processes*. Every element boundary the session layer snapshots at is
//! also appended here as a CRC-checksummed, length-prefixed record and
//! (by default) fsync'd before the element's frames go out on the wire —
//! so after a `kill -9` + restart, replaying the journal rebuilds exactly
//! the registry a reconnecting client's RESUME validates against.
//!
//! # On-disk format
//!
//! A journal directory holds numbered segment files `journal-NNNNNNNNNNNN.maxj`:
//!
//! ```text
//! segment  := magic (8 bytes, "MAXJRNL1") record*
//! record   := len:u32le crc:u32le body[len]
//! body     := kind:u8 payload
//! kind 1   := checkpoint payload (resume::encode_checkpoint)
//! kind 2   := remove payload (session_id:u64le)
//! kind 3   := model put (model_id:u64le rows:u32le cols:u32le weight:i64le* digest:16)
//! kind 4   := model remove (model_id:u64le)
//! ```
//!
//! The CRC covers the body. Replay applies records in order with
//! last-write-wins per session id, across two failure taxonomies:
//!
//! * **Torn tail** — the process died mid-append, so the *last* segment
//!   ends inside a record. Replay keeps everything up to the last valid
//!   record and drops the tail; this is expected crash debris, not
//!   corruption.
//! * **Corruption** — a CRC mismatch, an impossible length, a bad magic,
//!   or a mid-file truncation in a *non-final* segment means the bytes
//!   changed under us. The valid prefix is still applied, the segment file
//!   is renamed to `*.quarantine` for forensics, and boot continues —
//!   sessions whose only checkpoint lived in the damaged region get a
//!   typed `REJECT(resume)` later instead of the server refusing to start.
//!
//! After replay the journal compacts: the surviving live set is rewritten
//! into a fresh segment and old (non-quarantined) segments are deleted.
//! Rotation does the same every `rotate_after` appends, so disk usage is
//! bounded by the live sessions' last-2-snapshot window, not job length.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use max_crypto::crc32;

use crate::resume::{
    decode_checkpoint, encode_checkpoint, CheckpointCodecError, SessionCheckpoint,
};

/// Segment file magic; the trailing digit is the format version.
const MAGIC: &[u8; 8] = b"MAXJRNL1";

/// Segment filename prefix/suffix.
const SEGMENT_PREFIX: &str = "journal-";
const SEGMENT_SUFFIX: &str = ".maxj";

/// Suffix a damaged segment is renamed under.
const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Hard cap on one record body: a checkpoint is ~4 KiB (two snapshots of
/// 128 16-byte counters); anything claiming more than this is corruption.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// Record kinds.
const KIND_CHECKPOINT: u8 = 1;
const KIND_REMOVE: u8 = 2;
const KIND_MODEL_PUT: u8 = 3;
const KIND_MODEL_REMOVE: u8 = 4;

/// Shape cap shared with the wire's `MODEL_PUT` validation — a replayed
/// model record claiming more elements than the protocol admits is
/// corruption. (64 Ki elements × 8 bytes = 512 KiB, under
/// [`MAX_RECORD_LEN`].)
const MAX_MODEL_ELEMENTS: u64 = 1 << 16;

/// Serializes a registered model for its journal record: the header and
/// weights, followed by a 16-byte [`TranscriptDigest`] trailer over them.
/// The trailer is what lets a replay distinguish weights that rotted on
/// disk from weights that were written — the record-level CRC is
/// recomputed on every compaction rewrite, so it alone cannot catch a
/// payload that went bad *between* writes.
fn encode_model_payload(model_id: u64, weights: &[Vec<i64>]) -> Vec<u8> {
    let rows = weights.len();
    let cols = weights.first().map_or(0, Vec::len);
    let mut out = Vec::with_capacity(32 + rows * cols * 8);
    out.extend_from_slice(&model_id.to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    for row in weights {
        for &w in row {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut digest = max_crypto::TranscriptDigest::new();
    digest.fold(&out);
    out.extend_from_slice(&digest.value());
    out
}

/// Deserializes a model record payload; structural defects are typed
/// refusals (the replay path quarantines on them, never panics). The
/// digest trailer is verified *before* the shape is trusted.
fn decode_model_payload(bytes: &[u8]) -> Result<(u64, Vec<Vec<i64>>), CheckpointCodecError> {
    // 16-byte header plus the 16-byte digest trailer is the minimum.
    if bytes.len() < 32 {
        return Err(CheckpointCodecError::Truncated {
            what: "model header",
        });
    }
    let (digested, trailer) = bytes.split_at(bytes.len() - 16);
    let mut digest = max_crypto::TranscriptDigest::new();
    digest.fold(digested);
    if trailer != digest.value() {
        return Err(CheckpointCodecError::DigestMismatch {
            what: "model weights",
        });
    }
    let bytes = digested;
    let mut id = [0u8; 8];
    id.copy_from_slice(&bytes[..8]);
    let model_id = u64::from_le_bytes(id);
    let rows = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as u64;
    let cols = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as u64;
    if rows == 0 || cols == 0 || rows * cols > MAX_MODEL_ELEMENTS {
        return Err(CheckpointCodecError::Truncated {
            what: "model shape",
        });
    }
    let body = &bytes[16..];
    if body.len() as u64 != rows * cols * 8 {
        return Err(CheckpointCodecError::Truncated {
            what: "model weights",
        });
    }
    let weights = (0..rows as usize)
        .map(|r| {
            (0..cols as usize)
                .map(|c| {
                    let at = (r * cols as usize + c) * 8;
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&body[at..at + 8]);
                    i64::from_le_bytes(buf)
                })
                .collect()
        })
        .collect();
    Ok((model_id, weights))
}

/// How a [`Journal`] behaves on disk.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// fsync every append (and every segment rotation). Turning this off
    /// trades the durability of the last few appends for latency: after a
    /// power loss the journal replays to the last page the kernel flushed.
    pub fsync: bool,
    /// Appends per segment before rotating into a fresh compacted segment.
    pub rotate_after: u64,
    /// Live checkpoints retained in the journal's working set (oldest
    /// session id evicted beyond it; 0 = unbounded). Mirrors the resume
    /// registry's capacity so replay can never resurrect more state than
    /// the registry would hold.
    pub max_live: usize,
    /// **Test/bench-only** deterministic crash injection: abort the whole
    /// process (as `kill -9` would) immediately after the Nth successful
    /// append. `None` disables.
    pub abort_after_appends: Option<u64>,
}

impl JournalConfig {
    /// Durable defaults: fsync on, rotate every 64 appends, live set
    /// bounded at 64 sessions.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: true,
            rotate_after: 64,
            max_live: 64,
            abort_after_appends: None,
        }
    }
}

/// Why a journal operation failed. IO errors carry the failing step so an
/// operator can tell a full disk from a permissions problem.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying filesystem operation failed.
    Io {
        /// Which journal step was executing.
        what: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// A record decoded structurally but its checkpoint payload is invalid.
    Codec(CheckpointCodecError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { what, source } => write!(f, "journal {what}: {source}"),
            JournalError::Codec(err) => write!(f, "journal record: {err}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Codec(err) => Some(err),
        }
    }
}

impl From<CheckpointCodecError> for JournalError {
    fn from(err: CheckpointCodecError) -> Self {
        JournalError::Codec(err)
    }
}

fn io_err(what: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |source| JournalError::Io { what, source }
}

/// What [`Journal::open`] found and salvaged on disk.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Segment files scanned (quarantined ones from earlier boots are
    /// never re-read).
    pub segments_scanned: usize,
    /// Valid records applied across all segments.
    pub records_applied: u64,
    /// The final segment ended inside a record (torn write) and the tail
    /// was dropped.
    pub truncated_tail: bool,
    /// Segments renamed to `*.quarantine` this boot (corruption).
    pub quarantined: Vec<PathBuf>,
    /// Live session checkpoints after replay — what the registry gets.
    pub sessions: usize,
    /// Live prepared models after replay — re-registered into the model
    /// registry at boot.
    pub models: usize,
}

/// Outcome of scanning one segment's records.
struct SegmentScan {
    records: Vec<(u8, Vec<u8>)>,
    /// `None` = clean; `Some(torn)` = scan stopped early, `torn` says
    /// whether the damage is a clean end-of-file truncation (recoverable
    /// tail) as opposed to a checksum/length violation (corruption).
    damage: Option<bool>,
}

struct JournalInner {
    file: File,
    seq: u64,
    appends_in_segment: u64,
    appends_total: u64,
    live: BTreeMap<u64, SessionCheckpoint>,
    /// Live prepared models, stored as their encoded record payloads
    /// (bounded by the registry's byte budget upstream; a model is ~8
    /// bytes per element, far smaller than its garbled streams).
    live_models: BTreeMap<u64, Vec<u8>>,
}

/// The durable checkpoint journal. All methods are `&self` (internally
/// locked) so one handle can be shared across session threads.
pub struct Journal {
    dir: PathBuf,
    fsync: bool,
    rotate_after: u64,
    max_live: usize,
    abort_after_appends: Option<u64>,
    inner: Mutex<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("live", &self.live_sessions())
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{seq:012}{SEGMENT_SUFFIX}"))
}

fn parse_segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    stem.parse().ok()
}

/// fsync the directory itself so segment creations/deletions are durable.
fn sync_dir(dir: &Path) -> Result<(), JournalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("dir sync"))
}

/// Splits a segment's bytes into records. Never errors: damage is reported
/// in-band so the caller can apply the valid prefix either way.
fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // A wrong or half-written magic: an empty file is a torn segment
        // creation (recoverable); anything else is corruption.
        return SegmentScan {
            records,
            damage: Some(bytes.is_empty()),
        };
    }
    let mut rest = &bytes[MAGIC.len()..];
    while !rest.is_empty() {
        if rest.len() < 8 {
            return SegmentScan {
                records,
                damage: Some(true),
            };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len == 0 || len > MAX_RECORD_LEN {
            // An impossible length prefix is corruption, not truncation —
            // trusting it could swallow the rest of the segment.
            return SegmentScan {
                records,
                damage: Some(false),
            };
        }
        let body_end = 8 + len as usize;
        if rest.len() < body_end {
            return SegmentScan {
                records,
                damage: Some(true),
            };
        }
        let body = &rest[8..body_end];
        if crc32(body) != crc {
            return SegmentScan {
                records,
                damage: Some(false),
            };
        }
        records.push((body[0], body[1..].to_vec()));
        rest = &rest[body_end..];
    }
    SegmentScan {
        records,
        damage: None,
    }
}

/// Applies one scanned record to the live maps (last write wins).
fn apply_record(
    live: &mut BTreeMap<u64, SessionCheckpoint>,
    live_models: &mut BTreeMap<u64, Vec<u8>>,
    kind: u8,
    payload: &[u8],
) -> Result<(), CheckpointCodecError> {
    match kind {
        KIND_CHECKPOINT => {
            let checkpoint = decode_checkpoint(payload)?;
            live.insert(checkpoint.session_id, checkpoint);
            Ok(())
        }
        KIND_REMOVE => {
            if payload.len() != 8 {
                return Err(CheckpointCodecError::Truncated {
                    what: "remove session id",
                });
            }
            let mut buf = [0u8; 8];
            buf.copy_from_slice(payload);
            live.remove(&u64::from_le_bytes(buf));
            Ok(())
        }
        KIND_MODEL_PUT => {
            // Decode up front so corruption quarantines at replay time,
            // not at registry boot; the raw payload is what gets rewritten
            // on compaction.
            let (model_id, _weights) = decode_model_payload(payload)?;
            live_models.insert(model_id, payload.to_vec());
            Ok(())
        }
        KIND_MODEL_REMOVE => {
            if payload.len() != 8 {
                return Err(CheckpointCodecError::Truncated {
                    what: "model remove id",
                });
            }
            let mut buf = [0u8; 8];
            buf.copy_from_slice(payload);
            live_models.remove(&u64::from_le_bytes(buf));
            Ok(())
        }
        _ => Err(CheckpointCodecError::Truncated {
            what: "unknown record kind",
        }),
    }
}

fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + payload.len());
    body.push(kind);
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

impl Journal {
    /// Opens (or creates) the journal in `cfg.dir`, replays every segment
    /// into the live set, quarantines damaged segments, and compacts the
    /// survivors into a fresh segment.
    ///
    /// Corrupt *content* never fails this call — that is the whole point.
    /// Only filesystem-level failures (unreadable directory, full disk) do.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the directory cannot be created, listed,
    /// or written.
    pub fn open(cfg: JournalConfig) -> Result<(Journal, ReplayReport), JournalError> {
        fs::create_dir_all(&cfg.dir).map_err(io_err("create dir"))?;

        let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(&cfg.dir)
            .map_err(io_err("list dir"))?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                parse_segment_seq(&path).map(|seq| (seq, path))
            })
            .collect();
        segments.sort_by_key(|(seq, _)| *seq);

        let mut report = ReplayReport::default();
        let mut live: BTreeMap<u64, SessionCheckpoint> = BTreeMap::new();
        let mut live_models: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let last_index = segments.len().saturating_sub(1);
        for (index, (_, path)) in segments.iter().enumerate() {
            report.segments_scanned += 1;
            let bytes = fs::read(path).map_err(io_err("read segment"))?;
            let scan = scan_segment(&bytes);
            let mut poisoned = match scan.damage {
                None => false,
                // A torn tail is only benign on the *last* segment: earlier
                // segments were sealed by a later rotation, so a short read
                // there means the file changed after the fact.
                Some(torn_eof) => !(torn_eof && index == last_index),
            };
            for (kind, payload) in &scan.records {
                match apply_record(&mut live, &mut live_models, *kind, payload) {
                    Ok(()) => report.records_applied += 1,
                    Err(_) => {
                        // CRC passed but the payload is structurally bad:
                        // that is corruption (or a format skew), not a torn
                        // write. Quarantine; keep what applied so far.
                        poisoned = true;
                        break;
                    }
                }
            }
            if poisoned {
                let mut quarantine = path.clone().into_os_string();
                quarantine.push(QUARANTINE_SUFFIX);
                let quarantine = PathBuf::from(quarantine);
                fs::rename(path, &quarantine).map_err(io_err("quarantine segment"))?;
                report.quarantined.push(quarantine);
            } else if scan.damage.is_some() {
                report.truncated_tail = true;
            }
        }
        report.sessions = live.len();
        report.models = live_models.len();

        // Compact: rewrite the live set into a fresh segment, then retire
        // every older (non-quarantined) segment. A torn tail disappears
        // here too — its valid prefix lives on in the new segment.
        let next_seq = segments.last().map_or(0, |(seq, _)| seq + 1);
        let mut file = Self::create_segment(&cfg.dir, next_seq)?;
        for payload in live_models.values() {
            file.write_all(&encode_record(KIND_MODEL_PUT, payload))
                .map_err(io_err("compact write"))?;
        }
        for checkpoint in live.values() {
            file.write_all(&encode_record(
                KIND_CHECKPOINT,
                &encode_checkpoint(checkpoint),
            ))
            .map_err(io_err("compact write"))?;
        }
        if cfg.fsync {
            file.sync_all().map_err(io_err("compact sync"))?;
            sync_dir(&cfg.dir)?;
        }
        for (_, path) in &segments {
            // Quarantined segments were renamed away; whatever still parses
            // as a segment path is superseded by the compacted one.
            if path.exists() {
                fs::remove_file(path).map_err(io_err("retire segment"))?;
            }
        }
        if cfg.fsync {
            sync_dir(&cfg.dir)?;
        }

        let journal = Journal {
            dir: cfg.dir,
            fsync: cfg.fsync,
            rotate_after: cfg.rotate_after.max(1),
            max_live: cfg.max_live,
            abort_after_appends: cfg.abort_after_appends,
            inner: Mutex::new(JournalInner {
                file,
                seq: next_seq,
                appends_in_segment: 0,
                appends_total: 0,
                live,
                live_models,
            }),
        };
        Ok((journal, report))
    }

    fn create_segment(dir: &Path, seq: u64) -> Result<File, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(segment_path(dir, seq))
            .map_err(io_err("create segment"))?;
        file.write_all(MAGIC).map_err(io_err("write magic"))?;
        Ok(file)
    }

    /// Appends (and by default fsyncs) a checkpoint record, updating the
    /// live set. Called at every element boundary *before* the element's
    /// frames are sent, so the journal never trails the client's view.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure; the in-memory live set
    /// is updated regardless so serving can continue degraded.
    pub fn append_checkpoint(&self, checkpoint: &SessionCheckpoint) -> Result<(), JournalError> {
        let payload = encode_checkpoint(checkpoint);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live.insert(checkpoint.session_id, checkpoint.clone());
        if self.max_live > 0 {
            while inner.live.len() > self.max_live {
                // Session ids are allocated monotonically, so the smallest
                // key is the oldest session — same victim the registry's
                // insertion-order eviction would pick.
                let Some((&oldest, _)) = inner.live.iter().next() else {
                    break;
                };
                inner.live.remove(&oldest);
            }
        }
        self.append_locked(&mut inner, KIND_CHECKPOINT, &payload)
    }

    /// Appends a tombstone for `session_id` (job completed, clean BYE, or
    /// successful resume) so a restart does not resurrect finished work.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure.
    pub fn append_remove(&self, session_id: u64) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live.remove(&session_id);
        self.append_locked(&mut inner, KIND_REMOVE, &session_id.to_le_bytes())
    }

    /// Appends (and by default fsyncs) a prepared-model record so a restart
    /// can re-register the model before any client reconnects. Called by
    /// the service layer on every successful `MODEL_PUT` (a re-PUT of the
    /// same id overwrites — last write wins on replay, matching the
    /// registry's epoch rotation).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure; the in-memory model set
    /// is updated regardless so serving can continue degraded.
    pub fn append_model_put(
        &self,
        model_id: u64,
        weights: &[Vec<i64>],
    ) -> Result<(), JournalError> {
        let payload = encode_model_payload(model_id, weights);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live_models.insert(model_id, payload.clone());
        self.append_locked(&mut inner, KIND_MODEL_PUT, &payload)
    }

    /// Appends a tombstone for an evicted model (explicit `MODEL_EVICT` or
    /// byte-budget eviction) so a restart does not resurrect it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure.
    pub fn append_model_remove(&self, model_id: u64) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live_models.remove(&model_id);
        self.append_locked(&mut inner, KIND_MODEL_REMOVE, &model_id.to_le_bytes())
    }

    fn append_locked(
        &self,
        inner: &mut JournalInner,
        kind: u8,
        payload: &[u8],
    ) -> Result<(), JournalError> {
        inner
            .file
            .write_all(&encode_record(kind, payload))
            .map_err(io_err("append write"))?;
        if self.fsync {
            inner.file.sync_all().map_err(io_err("append sync"))?;
        }
        inner.appends_total += 1;
        inner.appends_in_segment += 1;
        if let Some(limit) = self.abort_after_appends {
            if inner.appends_total >= limit {
                // Deterministic crash injection: die exactly like kill -9
                // would, with the journal in whatever state the appends
                // left it. Test/bench harnesses only.
                std::process::abort();
            }
        }
        if inner.appends_in_segment >= self.rotate_after {
            self.rotate_locked(inner)?;
        }
        Ok(())
    }

    /// Seals the current segment into a fresh compacted one and deletes it.
    fn rotate_locked(&self, inner: &mut JournalInner) -> Result<(), JournalError> {
        let old_seq = inner.seq;
        let new_seq = old_seq + 1;
        let mut file = Self::create_segment(&self.dir, new_seq)?;
        for payload in inner.live_models.values() {
            file.write_all(&encode_record(KIND_MODEL_PUT, payload))
                .map_err(io_err("rotate write"))?;
        }
        for checkpoint in inner.live.values() {
            file.write_all(&encode_record(
                KIND_CHECKPOINT,
                &encode_checkpoint(checkpoint),
            ))
            .map_err(io_err("rotate write"))?;
        }
        if self.fsync {
            file.sync_all().map_err(io_err("rotate sync"))?;
            sync_dir(&self.dir)?;
        }
        inner.file = file;
        inner.seq = new_seq;
        inner.appends_in_segment = 0;
        // Only after the compacted segment is durable may the old one go.
        let old_path = segment_path(&self.dir, old_seq);
        if old_path.exists() {
            fs::remove_file(&old_path).map_err(io_err("rotate retire"))?;
        }
        if self.fsync {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Forces the current segment to disk (graceful-shutdown flush; a
    /// no-op in effect when per-append fsync is on).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on sync failure.
    pub fn sync(&self) -> Result<(), JournalError> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.file.sync_all().map_err(io_err("flush sync"))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .appends_total
    }

    /// Checkpoints currently live (restart would restore exactly these).
    pub fn live_sessions(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .len()
    }

    /// Clones the live checkpoints, oldest session first — what a restart
    /// feeds into the resume registry.
    pub fn live_checkpoints(&self) -> Vec<SessionCheckpoint> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .values()
            .cloned()
            .collect()
    }

    /// Decodes the live prepared models, lowest id first — what a restart
    /// feeds into the model registry. Payloads were validated at replay
    /// (or append) time, so a decode failure here means in-memory
    /// corruption; such an entry is silently skipped rather than panicking.
    pub fn live_models(&self) -> Vec<(u64, Vec<Vec<i64>>)> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live_models
            .values()
            .filter_map(|payload| decode_model_payload(payload).ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::SessionCheckpoint;
    use max_ot::iknp;
    use maxelerator::remote::derive_seed;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maxj-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint(session_id: u64) -> SessionCheckpoint {
        let session_seed = derive_seed(77, session_id);
        let (sender, _) = iknp::setup_pair(derive_seed(session_seed, 0x07));
        let digest = max_crypto::TranscriptDigest::new();
        SessionCheckpoint {
            session_id,
            resume_token: session_id ^ 0xF00D,
            session_seed,
            next_job: 1,
            job_id: 0,
            columns: 3,
            job_seed: 9,
            model_id: None,
            snapshots: vec![(0, sender.clone(), digest.clone()), (1, sender, digest)],
        }
    }

    fn model(rows: usize, cols: usize, tweak: i64) -> Vec<Vec<i64>> {
        (0..rows)
            .map(|r| (0..cols).map(|c| (r * cols + c) as i64 + tweak).collect())
            .collect()
    }

    fn config(dir: &Path) -> JournalConfig {
        let mut cfg = JournalConfig::new(dir);
        cfg.fsync = false; // tests don't need durability, just bytes
        cfg
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replay_restores_last_write_wins() {
        let dir = temp_dir("replay");
        {
            let (journal, report) = Journal::open(config(&dir)).unwrap();
            assert_eq!(report.sessions, 0);
            journal.append_checkpoint(&checkpoint(1)).unwrap();
            journal.append_checkpoint(&checkpoint(2)).unwrap();
            let mut newer = checkpoint(1);
            newer.job_id = 5;
            newer.next_job = 6;
            journal.append_checkpoint(&newer).unwrap();
            journal.append_remove(2).unwrap();
        }
        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert_eq!(report.sessions, 1);
        assert!(report.quarantined.is_empty());
        assert!(!report.truncated_tail);
        let live = journal.live_checkpoints();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].session_id, 1);
        assert_eq!(live[0].job_id, 5, "last write must win");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_but_keeps_valid_prefix() {
        let dir = temp_dir("torn");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append_checkpoint(&checkpoint(1)).unwrap();
            journal.append_checkpoint(&checkpoint(2)).unwrap();
        }
        // Chop bytes off the (single) segment's end: a torn final write.
        let segment = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| parse_segment_seq(p).is_some())
            .unwrap();
        let bytes = fs::read(&segment).unwrap();
        fs::write(&segment, &bytes[..bytes.len() - 9]).unwrap();

        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert!(report.truncated_tail);
        assert!(report.quarantined.is_empty());
        assert_eq!(journal.live_sessions(), 1, "first record survives");
        assert_eq!(journal.live_checkpoints()[0].session_id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_flip_quarantines_segment_and_still_boots() {
        let dir = temp_dir("flip");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append_checkpoint(&checkpoint(1)).unwrap();
            journal.append_checkpoint(&checkpoint(2)).unwrap();
        }
        let segment = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| parse_segment_seq(p).is_some())
            .unwrap();
        let mut bytes = fs::read(&segment).unwrap();
        let near_end = bytes.len() - 20;
        bytes[near_end] ^= 0x40; // flip one bit inside the second record
        fs::write(&segment, &bytes).unwrap();

        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0]
            .to_string_lossy()
            .ends_with(QUARANTINE_SUFFIX));
        assert!(report.quarantined[0].exists(), "evidence is preserved");
        // The valid prefix (record 1) still replays.
        assert_eq!(journal.live_sessions(), 1);
        // A third boot no longer sees the quarantined file as a segment.
        drop(journal);
        let (_, report) = Journal::open(config(&dir)).unwrap();
        assert!(report.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_disk_and_preserves_live_set() {
        let dir = temp_dir("rotate");
        let mut cfg = config(&dir);
        cfg.rotate_after = 4;
        let (journal, _) = Journal::open(cfg.clone()).unwrap();
        for round in 0..25u64 {
            let mut cp = checkpoint(round % 3);
            cp.job_id = round;
            journal.append_checkpoint(&cp).unwrap();
        }
        let segments: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| parse_segment_seq(p).is_some())
            .collect();
        assert_eq!(segments.len(), 1, "rotation retires old segments");
        drop(journal);
        let (journal, report) = Journal::open(cfg).unwrap();
        assert_eq!(report.sessions, 3);
        assert_eq!(journal.live_sessions(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_records_replay_last_write_wins() {
        let dir = temp_dir("models");
        {
            let (journal, report) = Journal::open(config(&dir)).unwrap();
            assert_eq!(report.models, 0);
            journal.append_model_put(7, &model(2, 3, 0)).unwrap();
            journal.append_model_put(9, &model(1, 4, 10)).unwrap();
            journal.append_model_put(7, &model(2, 3, 100)).unwrap();
            journal.append_model_remove(9).unwrap();
            // Models and checkpoints share the journal without interfering.
            journal.append_checkpoint(&checkpoint(1)).unwrap();
        }
        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert_eq!(report.models, 1);
        assert_eq!(report.sessions, 1);
        let models = journal.live_models();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].0, 7);
        assert_eq!(models[0].1, model(2, 3, 100), "re-PUT must win");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_records_survive_compaction_and_rotation() {
        let dir = temp_dir("modelrot");
        let mut cfg = config(&dir);
        cfg.rotate_after = 3;
        {
            let (journal, _) = Journal::open(cfg.clone()).unwrap();
            journal.append_model_put(5, &model(3, 2, 1)).unwrap();
            // Enough appends to force several rotations past the model put.
            for round in 0..10u64 {
                let mut cp = checkpoint(round % 2);
                cp.job_id = round;
                journal.append_checkpoint(&cp).unwrap();
            }
        }
        let (journal, report) = Journal::open(cfg).unwrap();
        assert_eq!(report.models, 1, "model persists across rotations");
        assert_eq!(journal.live_models()[0].1, model(3, 2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_model_record_quarantines_segment() {
        let dir = temp_dir("modelbad");
        {
            let (journal, _) = Journal::open(config(&dir)).unwrap();
            journal.append_checkpoint(&checkpoint(1)).unwrap();
        }
        // Hand-append a CRC-valid record whose model payload claims an
        // impossible shape: structural corruption, not a torn write.
        let segment = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| parse_segment_seq(p).is_some())
            .unwrap();
        let mut bytes = fs::read(&segment).unwrap();
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&0u32.to_le_bytes()); // rows = 0: invalid
        payload.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&encode_record(KIND_MODEL_PUT, &payload));
        fs::write(&segment, &bytes).unwrap();

        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.models, 0);
        assert_eq!(journal.live_sessions(), 1, "valid prefix still applies");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_payload_codec_round_trips() {
        let weights = model(4, 5, -7);
        let payload = encode_model_payload(42, &weights);
        let (id, decoded) = decode_model_payload(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded, weights);
        // Truncations and shape lies are typed refusals.
        assert!(decode_model_payload(&payload[..12]).is_err());
        assert!(decode_model_payload(&payload[..payload.len() - 1]).is_err());
        let mut huge = payload.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_model_payload(&huge).is_err());
    }

    #[test]
    fn model_payload_digest_catches_every_single_bit_flip() {
        let weights = model(2, 3, 5);
        let payload = encode_model_payload(13, &weights);
        assert!(decode_model_payload(&payload).is_ok());
        // Bit rot anywhere in the digested region is a typed digest
        // refusal; damage to the trailer itself is equally refused.
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut rotted = payload.clone();
                rotted[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_model_payload(&rotted),
                        Err(CheckpointCodecError::DigestMismatch { .. })
                    ),
                    "flip at byte {byte} bit {bit} was not a digest refusal"
                );
            }
        }
    }

    #[test]
    fn live_set_is_bounded_by_max_live() {
        let dir = temp_dir("bound");
        let mut cfg = config(&dir);
        cfg.max_live = 2;
        let (journal, _) = Journal::open(cfg).unwrap();
        for id in 0..5u64 {
            journal.append_checkpoint(&checkpoint(id)).unwrap();
        }
        let live = journal.live_checkpoints();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].session_id, 3, "oldest sessions evicted first");
        assert_eq!(live[1].session_id, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
