//! The checkpoint store, and the write-ahead journal behind it.
//!
//! [`Journal`] holds the checkpoint of every session that may still
//! RESUME — the one store a RESUME is validated against: its job's one
//! record ([`encode_checkpoint`]'s bytes), the bytes a segment holds and
//! compaction rewrites, and beside it, in memory only, the job's
//! high-water boundary (see [`crate::resume`]). The store has one capacity
//! (`ServeConfig::resume_capacity`; 0 keeps and writes nothing) and one
//! eviction order, least recently saved first. `Journal::save` returns the
//! session it evicted.
//!
//! Without a [`JournalConfig`] the store runs the same code and writes
//! nothing: checkpoints survive dropped *connections*. With one, they also
//! survive dropped *processes*: every save is appended to a
//! CRC-checksummed, length-prefixed record before element 0's frames go
//! out, so after a `kill -9` + restart, replay rebuilds exactly the live
//! set a reconnecting client's RESUME validates against.
//!
//! # Barriers and ordered records
//!
//! A **barrier** is written and then, when [`JournalConfig::fsync`] is on,
//! `sync_all`'d before the call returns. An **ordered** record is only
//! written: the segment is append-only, so the next barrier's sync (or
//! rotation, or [`Journal::sync`]) makes it durable with every earlier
//! byte. Barriers are every checkpoint (a fresh job's record, after READY
//! and before element 0's CIPHER), model PUT and model REMOVE; session
//! tombstones ([`Journal::remove`]: job done, BYE) are ordered. A fresh job
//! costs 2 appends and 1 sync, a resumed one 1 append, and READY waits on
//! none. Why that is safe:
//!
//! * **Process crash (`kill -9`).** Every record is written with write(2)
//!   before the frame that follows it, and the page cache outlives the
//!   process, so every crash point replays as if every append were synced.
//! * **Power loss, lost tombstone.** Replay resurrects a finished job's
//!   record. A client holding its STATS never resumes it; one whose STATS
//!   was lost resumes at the last element and gets it and STATS again.
//! * **Power loss during the record's sync,** between READY and element
//!   0's CIPHER: the client has evaluated nothing. Its RESUME gets a typed
//!   `REJECT(resume)` (no checkpoint, or an older job's that fails the
//!   `job_id` check) and it restarts the job, losing no evaluated element.
//!
//! With `fsync` off no append syncs, barriers included.
//!
//! # On-disk format
//!
//! A journal directory holds numbered segment files `journal-NNNNNNNNNNNN.maxj`:
//!
//! ```text
//! segment  := magic (8 bytes, "MAXJRNL2") record*
//! record   := len:u32le crc:u32le body[len]
//! body     := kind:u8 payload
//! kind 1   := checkpoint (resume::encode_checkpoint):
//!             session_id:u64le resume_token:u64le session_seed:u64le
//!             next_job:u64le job_id:u64le columns:u32le job_seed:u64le
//!             model_flag:u8 model_id:u64le count:u8 snapshot{count}
//! snapshot := boundary:u64le digest_state:16 digest_len:u64le
//!             ot_session:u64le ot_counter:u128le
//! kind 2   := remove payload (session_id:u64le)
//! kind 3   := model put (model_id:u64le rows:u32le cols:u32le weight:i64le* digest:16)
//! kind 4   := model remove (model_id:u64le)
//! ```
//!
//! A job's record is 118 B of payload, 127 B on disk; the two-snapshot
//! windows earlier builds wrote (174 B) still replay. A `MAXJRNL1` segment
//! fails the magic check and is quarantined like any other corruption,
//! with its models: re-PUT them after an upgrade.
//!
//! The CRC covers the body. Replay applies records in order — a
//! checkpoint is a save, a tombstone a remove, under the same capacity
//! and eviction order as the live store — across two failure taxonomies:
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
//! After replay the journal compacts: the surviving live set is rewritten,
//! least recently saved first, into a fresh segment and old
//! (non-quarantined) segments are deleted. Rotation does the same every
//! `rotate_after` appends, so disk usage is bounded by the live sessions'
//! records, not job length.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use max_crypto::crc32;
use max_gc::channel::{ReadError, Reader};
use max_ot::iknp::OtCursor;
use maxelerator::remote::MAX_MODEL_ELEMENTS;

use crate::resume::{
    decode_checkpoint, decode_cursors, encode_checkpoint, encode_cursors, CheckpointCodecError,
    SessionCheckpoint,
};

/// Segment file magic; the trailing digit is the format version.
const MAGIC: &[u8; 8] = b"MAXJRNL2";

/// Checkpoints [`Journal::open`] keeps, and `ServeConfig::new`'s
/// `resume_capacity`.
pub const DEFAULT_CAPACITY: usize = 64;

/// Segment filename prefix/suffix.
const SEGMENT_PREFIX: &str = "journal-";
const SEGMENT_SUFFIX: &str = ".maxj";

/// Suffix a damaged segment is renamed under.
const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Hard cap on one record body: a checkpoint is at most 175 bytes and the
/// largest model record about 512 KiB; anything claiming more than this
/// is corruption.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// Record kinds.
const KIND_CHECKPOINT: u8 = 1;
const KIND_REMOVE: u8 = 2;
const KIND_MODEL_PUT: u8 = 3;
const KIND_MODEL_REMOVE: u8 = 4;

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
    let Some((digested, trailer)) = bytes.split_last_chunk::<16>() else {
        return Err(CheckpointCodecError::Truncated {
            what: "model digest",
        });
    };
    let mut digest = max_crypto::TranscriptDigest::new();
    digest.fold(digested);
    if *trailer != digest.value() {
        return Err(CheckpointCodecError::DigestMismatch {
            what: "model weights",
        });
    }
    let mut reader = Reader::new(digested);
    let model_id = reader.u64_le("model header")?;
    let rows = reader.u32_le("model header")? as usize;
    let cols = reader.u32_le("model header")? as usize;
    // The wire's `MODEL_PUT` cap: a record claiming more elements than the
    // protocol admits is corruption (64 Ki elements × 8 bytes = 512 KiB,
    // under `MAX_RECORD_LEN`).
    if rows == 0 || cols == 0 || rows.saturating_mul(cols) > MAX_MODEL_ELEMENTS {
        return Err(CheckpointCodecError::Truncated {
            what: "model shape",
        });
    }
    let weights = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| reader.u64_le("model weights").map(|w| w as i64))
                .collect()
        })
        .collect::<Result<_, ReadError>>()?;
    reader.end("model weights")?;
    Ok((model_id, weights))
}

/// How a [`Journal`] behaves on disk.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// fsync every barrier append, and with it every ordered record
    /// written before it (see the module docs), and every segment
    /// rotation. Turning this off trades the durability of the last few
    /// appends for latency: after a power loss the journal replays to the
    /// last page the kernel flushed.
    pub fsync: bool,
    /// Appends per segment before rotating into a fresh compacted segment.
    pub rotate_after: u64,
    /// **Test/bench-only** deterministic crash injection: abort the whole
    /// process (as `kill -9` would) immediately after the Nth successful
    /// append. `None` disables.
    pub abort_after_appends: Option<u64>,
}

impl JournalConfig {
    /// Durable defaults: fsync on, rotate every 64 appends.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: true,
            rotate_after: 64,
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
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { what, source } => write!(f, "journal {what}: {source}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
        }
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
    /// Live session checkpoints after replay.
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

/// How an append reaches the disk (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Durability {
    /// Written, then synced when `fsync` is on.
    Barrier,
    /// Written only; durable at the next barrier, rotation or sync.
    Ordered,
}

/// A live checkpoint: session id, record, and the job's high-water
/// boundary, the newest it reached in this process (`None` when this
/// process never saw it run, as after a replay).
type Entry = (u64, Vec<u8>, Option<usize>);

/// Live checkpoints, least recently saved first. Lookups are rare (one per
/// RESUME) and a saving session is usually near the back, so a scan from
/// the back beats an index.
type Live = VecDeque<Entry>;

/// Saves `entry` as its session's checkpoint and evicts the least recently
/// saved sessions beyond `capacity`; returns the last one evicted. The
/// live store and replay both go through here, so a replayed segment
/// rebuilds the live set entry for entry and in order.
fn put_live(live: &mut Live, capacity: usize, entry: Entry) -> Option<u64> {
    if let Some(at) = live.iter().rposition(|(id, ..)| *id == entry.0) {
        live.remove(at);
    }
    live.push_back(entry);
    let mut evicted = None;
    while live.len() > capacity {
        evicted = live.pop_front().map(|(id, ..)| id);
    }
    evicted
}

struct JournalInner {
    /// The open segment; `None` without a journal directory.
    file: Option<File>,
    seq: u64,
    appends_in_segment: u64,
    appends_total: u64,
    barriers_total: u64,
    live: Live,
    /// Live prepared models, stored as their encoded record payloads
    /// (bounded by the registry's byte budget upstream; a model is ~8
    /// bytes per element, far smaller than its garbled streams). Kept only
    /// with a segment file: they exist to be rewritten at compaction.
    live_models: BTreeMap<u64, Vec<u8>>,
}

/// The checkpoint store, with or without a segment file behind it. All
/// methods are `&self` (internally locked) so one handle can be shared
/// across session threads.
pub struct Journal {
    /// The segment files' settings; `None` keeps the store in memory only.
    file: Option<JournalConfig>,
    capacity: usize,
    inner: Mutex<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("file", &self.file)
            .field("capacity", &self.capacity)
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
    let mut reader = Reader::new(bytes);
    if reader.array("segment magic") != Ok(*MAGIC) {
        // A wrong or half-written magic: an empty file is a torn segment
        // creation (recoverable); anything else is corruption.
        return SegmentScan {
            records,
            damage: Some(bytes.is_empty()),
        };
    }
    // `Some(true)` for a record the end of the file cut short (a torn
    // tail), `Some(false)` for corruption.
    let damage = loop {
        if reader.rest().is_empty() {
            break None;
        }
        let (Ok(len), Ok(crc)) = (
            reader.u32_le("record length"),
            reader.u32_le("record checksum"),
        ) else {
            break Some(true);
        };
        if len == 0 || len > MAX_RECORD_LEN {
            // An impossible length prefix is corruption, not truncation —
            // trusting it could swallow the rest of the segment.
            break Some(false);
        }
        let Ok(body) = reader.bytes(len as usize, "record body") else {
            break Some(true);
        };
        if crc32(body) != crc {
            break Some(false);
        }
        let mut body = Reader::new(body);
        let Ok(kind) = body.u8("record kind") else {
            break Some(false);
        };
        records.push((kind, body.rest().to_vec()));
    };
    SegmentScan { records, damage }
}

/// The session or model id a tombstone record's payload holds.
fn tombstone_id(payload: &[u8], what: &'static str) -> Result<u64, CheckpointCodecError> {
    let mut reader = Reader::new(payload);
    let id = reader.u64_le(what)?;
    reader.end(what)?;
    Ok(id)
}

/// Applies one scanned record to the live maps, exactly as the live store
/// applied it (last write wins).
fn apply_record(
    live: &mut Live,
    capacity: usize,
    live_models: &mut BTreeMap<u64, Vec<u8>>,
    kind: u8,
    payload: &[u8],
) -> Result<(), CheckpointCodecError> {
    match kind {
        KIND_CHECKPOINT => {
            let session_id = decode_cursors(payload)?.session_id;
            put_live(live, capacity, (session_id, payload.to_vec(), None));
            Ok(())
        }
        KIND_REMOVE => {
            let session_id = tombstone_id(payload, "remove session id")?;
            live.retain(|(id, ..)| *id != session_id);
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
            live_models.remove(&tombstone_id(payload, "model remove id")?);
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
    /// Opens (or creates) the journal in `cfg.dir` holding at most
    /// [`DEFAULT_CAPACITY`] checkpoints; see [`Journal::with_capacity`].
    ///
    /// # Errors
    ///
    /// As [`Journal::with_capacity`].
    pub fn open(cfg: JournalConfig) -> Result<(Journal, ReplayReport), JournalError> {
        Journal::with_capacity(Some(cfg), DEFAULT_CAPACITY)
    }

    /// Builds the checkpoint store, holding at most `capacity` sessions'
    /// checkpoints (0 keeps and writes none). Without a `file` it starts empty
    /// and never touches the disk. With one it opens (or creates) the
    /// journal in its directory, replays every segment into the live set
    /// under the same capacity, quarantines damaged segments, and compacts
    /// the survivors into a fresh segment.
    ///
    /// Corrupt *content* never fails this call — that is the whole point.
    /// Only filesystem-level failures (unreadable directory, full disk) do.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the directory cannot be created, listed,
    /// or written.
    pub fn with_capacity(
        file: Option<JournalConfig>,
        capacity: usize,
    ) -> Result<(Journal, ReplayReport), JournalError> {
        let mut inner = JournalInner {
            file: None,
            seq: 0,
            appends_in_segment: 0,
            appends_total: 0,
            barriers_total: 0,
            live: Live::new(),
            live_models: BTreeMap::new(),
        };
        let mut report = ReplayReport::default();
        let file = file.map(|cfg| JournalConfig {
            rotate_after: cfg.rotate_after.max(1),
            ..cfg
        });
        if let Some(cfg) = &file {
            let (seq, segments) = Self::replay(cfg, capacity, &mut inner, &mut report)?;
            Self::compact(cfg, &mut inner, seq, &segments)?;
        }
        report.sessions = inner.live.len();
        report.models = inner.live_models.len();
        let journal = Journal {
            file,
            capacity,
            inner: Mutex::new(inner),
        };
        Ok((journal, report))
    }

    /// Applies every segment in `cfg.dir`, oldest first, to `inner`'s live
    /// sets; returns the sequence number after the last one, and the
    /// segments it scanned.
    fn replay(
        cfg: &JournalConfig,
        capacity: usize,
        inner: &mut JournalInner,
        report: &mut ReplayReport,
    ) -> Result<(u64, Vec<PathBuf>), JournalError> {
        fs::create_dir_all(&cfg.dir).map_err(io_err("create dir"))?;
        let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(&cfg.dir)
            .map_err(io_err("list dir"))?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                parse_segment_seq(&path).map(|seq| (seq, path))
            })
            .collect();
        segments.sort_by_key(|(seq, _)| *seq);
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
                let applied = apply_record(
                    &mut inner.live,
                    capacity,
                    &mut inner.live_models,
                    *kind,
                    payload,
                );
                match applied {
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
        let next_seq = segments.last().map_or(0, |(seq, _)| seq + 1);
        Ok((
            next_seq,
            segments.into_iter().map(|(_, path)| path).collect(),
        ))
    }

    /// Compacts the live set, models first, into a fresh segment `seq` —
    /// the rewrite after replay and at every rotation — and only once it is
    /// durable retires the `superseded` segments (quarantined ones were
    /// renamed away). A torn tail disappears here too: its valid prefix
    /// lives on in the new segment.
    fn compact(
        cfg: &JournalConfig,
        inner: &mut JournalInner,
        seq: u64,
        superseded: &[PathBuf],
    ) -> Result<(), JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(segment_path(&cfg.dir, seq))
            .map_err(io_err("create segment"))?;
        file.write_all(MAGIC).map_err(io_err("write magic"))?;
        for payload in inner.live_models.values() {
            file.write_all(&encode_record(KIND_MODEL_PUT, payload))
                .map_err(io_err("compact write"))?;
        }
        for (_, payload, _) in &inner.live {
            file.write_all(&encode_record(KIND_CHECKPOINT, payload))
                .map_err(io_err("compact write"))?;
        }
        if cfg.fsync {
            file.sync_all().map_err(io_err("compact sync"))?;
            sync_dir(&cfg.dir)?;
        }
        inner.file = Some(file);
        inner.seq = seq;
        inner.appends_in_segment = 0;
        for path in superseded {
            if path.exists() {
                fs::remove_file(path).map_err(io_err("retire segment"))?;
            }
        }
        if cfg.fsync {
            sync_dir(&cfg.dir)?;
        }
        Ok(())
    }

    /// Saves a checkpoint as a barrier (fsync'd by default when a file is
    /// configured). The benchmark's and tests' entry point; sessions save
    /// their job's record of cursors through `Journal::save`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure; the live set is updated
    /// regardless so serving can continue degraded.
    pub fn append_checkpoint(&self, checkpoint: &SessionCheckpoint) -> Result<(), JournalError> {
        let payload = encode_checkpoint(checkpoint);
        self.put((checkpoint.session_id, payload, None)).1
    }

    /// Saves a running job's record as a barrier, with its high-water
    /// boundary at the record's newest snapshot, evicting the least
    /// recently saved session beyond the capacity (nothing is kept or
    /// written at capacity 0). Returns the session evicted, if any, and
    /// whether the record reached the segment file (always `Ok` without
    /// one; on an error the live set is updated regardless).
    pub(crate) fn save(
        &self,
        record: &SessionCheckpoint<OtCursor>,
    ) -> (Option<u64>, Result<(), JournalError>) {
        let newest = record.snapshots.last().map(|(at, ..)| *at);
        self.put((record.session_id, encode_cursors(record), newest))
    }

    fn put(&self, entry: Entry) -> (Option<u64>, Result<(), JournalError>) {
        if self.capacity == 0 {
            return (None, Ok(()));
        }
        let record = encode_record(KIND_CHECKPOINT, &entry.1);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let evicted = put_live(&mut inner.live, self.capacity, entry);
        let written = self.append_locked(&mut inner, &record, Durability::Barrier);
        (evicted, written)
    }

    /// Moves `session_id`'s high-water boundary to `boundary`, in memory
    /// only: no append, and the entry keeps its place in the eviction
    /// order, so a replay still rebuilds the live set entry for entry. A
    /// session with no live checkpoint has nothing to move.
    pub(crate) fn advance(&self, session_id: u64, boundary: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((.., high_water)) = inner.live.iter_mut().rfind(|(id, ..)| *id == session_id) {
            *high_water = Some(boundary);
        }
    }

    /// Clones `session_id`'s checkpoint, leaving it in place — a failed
    /// resume attempt must not destroy the state a later attempt needs —
    /// with the job's high-water boundary when this process has seen the
    /// job run. Decodes the stored record (one base OT).
    pub fn lookup(&self, session_id: u64) -> Option<(SessionCheckpoint, Option<usize>)> {
        let (payload, high_water) = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            let (_, payload, high_water) = inner.live.iter().rfind(|(id, ..)| *id == session_id)?;
            (payload.clone(), *high_water)
        };
        Some((decode_checkpoint(&payload).ok()?, high_water))
    }

    /// Drops `session_id`'s checkpoint (its job completed, or a clean BYE)
    /// and appends a tombstone so a restart does not resurrect finished
    /// work; an id with no live checkpoint writes nothing, as replay holds
    /// none for it either. The tombstone is an ordered record: a power cut
    /// before the next sync only resurrects a record no client needs.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write failure.
    pub fn remove(&self, session_id: u64) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = inner.live.iter().rposition(|(id, ..)| *id == session_id) else {
            return Ok(());
        };
        inner.live.remove(at);
        let record = encode_record(KIND_REMOVE, &session_id.to_le_bytes());
        self.append_locked(&mut inner, &record, Durability::Ordered)
    }

    /// Appends (and by default fsyncs) a prepared-model record so a restart
    /// can re-register the model before any client reconnects. Called by
    /// the service layer on every successful `MODEL_PUT` (a re-PUT of the
    /// same id overwrites — last write wins on replay, matching the
    /// registry's epoch rotation). A no-op without a segment file.
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
        if self.file.is_none() {
            return Ok(());
        }
        let payload = encode_model_payload(model_id, weights);
        let record = encode_record(KIND_MODEL_PUT, &payload);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live_models.insert(model_id, payload);
        self.append_locked(&mut inner, &record, Durability::Barrier)
    }

    /// Appends a barrier tombstone for an evicted model (explicit
    /// `MODEL_EVICT` or byte-budget eviction) so a restart does not
    /// resurrect it. A no-op without a segment file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write/sync failure.
    pub fn append_model_remove(&self, model_id: u64) -> Result<(), JournalError> {
        if self.file.is_none() {
            return Ok(());
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.live_models.remove(&model_id);
        let record = encode_record(KIND_MODEL_REMOVE, &model_id.to_le_bytes());
        self.append_locked(&mut inner, &record, Durability::Barrier)
    }

    /// Writes one encoded record to the segment file, if there is one.
    fn append_locked(
        &self,
        inner: &mut JournalInner,
        record: &[u8],
        durability: Durability,
    ) -> Result<(), JournalError> {
        let (Some(cfg), Some(file)) = (&self.file, &mut inner.file) else {
            return Ok(());
        };
        file.write_all(record).map_err(io_err("append write"))?;
        if durability == Durability::Barrier {
            if cfg.fsync {
                file.sync_all().map_err(io_err("append sync"))?;
            }
            inner.barriers_total += 1;
        }
        inner.appends_total += 1;
        inner.appends_in_segment += 1;
        if let Some(limit) = cfg.abort_after_appends {
            if inner.appends_total >= limit {
                // Deterministic crash injection: die exactly like kill -9
                // would, with the journal in whatever state the appends
                // left it. Test/bench harnesses only.
                std::process::abort();
            }
        }
        if inner.appends_in_segment >= cfg.rotate_after {
            // Rotate: seal the segment into a fresh compacted one.
            let old = segment_path(&cfg.dir, inner.seq);
            Self::compact(cfg, inner, inner.seq + 1, &[old])?;
        }
        Ok(())
    }

    /// Forces the current segment to disk, ordered records included (the
    /// graceful-shutdown flush: with `fsync` on, whatever was written
    /// after the last barrier becomes durable here). A no-op without a
    /// segment file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on sync failure.
    pub fn sync(&self) -> Result<(), JournalError> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match &inner.file {
            Some(file) => file.sync_all().map_err(io_err("flush sync")),
            None => Ok(()),
        }
    }

    /// Whether the store writes a segment file.
    pub(crate) fn has_file(&self) -> bool {
        self.file.is_some()
    }

    /// Records appended to the segment file through this handle.
    pub fn appends(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .appends_total
    }

    /// Barrier records appended through this handle — the appends that
    /// sync when `fsync` is on (counted whether or not it is).
    pub fn barriers(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .barriers_total
    }

    /// Checkpoints currently live (a restart would restore exactly these).
    pub fn live_sessions(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .len()
    }

    /// The highest live session id, if any: a restarted service hands out
    /// ids above it, so a fresh session never displaces a recovering one.
    pub(crate) fn highest_live_session(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .iter()
            .map(|(id, ..)| *id)
            .max()
    }

    /// Decodes the live checkpoints, least recently saved first.
    pub fn live_checkpoints(&self) -> Vec<SessionCheckpoint> {
        let payloads: Vec<Vec<u8>> = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .iter()
            .map(|(_, payload, _)| payload.clone())
            .collect();
        payloads
            .iter()
            .filter_map(|payload| decode_checkpoint(payload).ok())
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
    use maxelerator::remote::{derive_ot_seed, derive_seed};

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
        let (sender, _) = iknp::setup_pair(derive_ot_seed(session_seed));
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
            journal.remove(2).unwrap();
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
    fn a_v1_segment_is_quarantined_not_misread() {
        // A `MAXJRNL1` segment (128 counters per snapshot) is refused at
        // its magic: quarantined whole, models included, and the boot
        // goes on with an empty store.
        let dir = temp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"MAXJRNL1".to_vec();
        bytes.extend_from_slice(&encode_record(
            KIND_MODEL_PUT,
            &encode_model_payload(7, &model(1, 2, 0)),
        ));
        bytes.extend_from_slice(&encode_record(
            KIND_CHECKPOINT,
            &encode_checkpoint(&checkpoint(1)),
        ));
        fs::write(segment_path(&dir, 0), &bytes).unwrap();
        let (journal, report) = Journal::open(config(&dir)).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(
            (report.records_applied, report.sessions, report.models),
            (0, 0, 0)
        );
        assert_eq!(journal.live_sessions(), 0);
        assert_eq!(
            fs::read(&report.quarantined[0]).unwrap(),
            bytes,
            "evidence kept"
        );
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

    /// A record of cursors as a session builds it, with the two snapshots
    /// earlier builds saved at every boundary.
    fn window(session_id: u64, job_id: u64) -> SessionCheckpoint<OtCursor> {
        let digest = max_crypto::TranscriptDigest::new();
        let cursor = |counter| OtCursor {
            session: job_id,
            counter,
        };
        SessionCheckpoint {
            session_id,
            resume_token: session_id ^ 0xF00D,
            session_seed: derive_seed(77, session_id),
            next_job: job_id + 1,
            job_id,
            columns: 3,
            job_seed: 9,
            model_id: None,
            snapshots: vec![(0, cursor(5), digest.clone()), (1, cursor(7), digest)],
        }
    }

    fn ids(journal: &Journal) -> Vec<u64> {
        journal
            .live_checkpoints()
            .iter()
            .map(|cp| cp.session_id)
            .collect()
    }

    /// The live set's sessions and records; high-water marks are in
    /// memory only, so a replay is compared without them.
    fn live(journal: &Journal) -> Vec<(u64, Vec<u8>)> {
        let inner = journal.inner.lock().unwrap();
        inner
            .live
            .iter()
            .map(|(id, record, _)| (*id, record.clone()))
            .collect()
    }

    #[test]
    fn save_lookup_remove_round_trip() {
        let (store, _) = Journal::with_capacity(None, 4).unwrap();
        assert_eq!(store.live_sessions(), 0);
        assert_eq!(store.save(&window(7, 0)).0, None);
        let (got, _) = store.lookup(7).unwrap();
        assert_eq!(got.resume_token, 7 ^ 0xF00D);
        assert_eq!(
            got.snapshots[1].1.export_state(),
            window(7, 0).snapshots[1].1
        );
        // Peek, not take: still present.
        assert!(store.lookup(7).is_some());
        store.remove(7).unwrap();
        assert!(store.lookup(7).is_none());
        // Without a file nothing is appended.
        assert_eq!((store.appends(), store.barriers()), (0, 0));
    }

    #[test]
    fn a_high_water_moves_in_memory_only() {
        let dir = temp_dir("high-water");
        let (journal, _) = Journal::with_capacity(Some(config(&dir)), 4).unwrap();
        journal.save(&window(1, 0)).1.unwrap();
        journal.save(&window(2, 0)).1.unwrap();
        // A save starts the mark at the record's newest snapshot.
        assert_eq!(journal.lookup(1).unwrap().1, Some(1));
        let (appends, before) = (journal.appends(), live(&journal));
        journal.advance(1, 5);
        journal.advance(9, 5); // no live record: nothing to move
        assert_eq!(journal.lookup(1).unwrap().1, Some(5));
        assert_eq!(journal.appends(), appends, "no append");
        assert_eq!(live(&journal), before, "no reordering");
        drop(journal);
        // A replay never saw the job run.
        let (journal, _) = Journal::with_capacity(Some(config(&dir)), 4).unwrap();
        assert_eq!(journal.lookup(1).unwrap().1, None);
        assert_eq!(live(&journal), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_least_recently_saved_and_zero_disables() {
        let (store, _) = Journal::with_capacity(None, 2).unwrap();
        assert_eq!(store.save(&window(1, 0)).0, None);
        assert_eq!(store.save(&window(2, 0)).0, None);
        // Session 1 saves again, so session 2 is now the least recently
        // saved, and the save names its victim.
        assert_eq!(store.save(&window(1, 1)).0, None);
        assert_eq!(store.save(&window(3, 0)).0, Some(2));
        assert_eq!(ids(&store), [1, 3]);
        // Re-saving a session replaces, not duplicates.
        store.save(&window(3, 1)).1.unwrap();
        assert_eq!(ids(&store), [1, 3]);

        let dir = temp_dir("zero");
        let (disabled, _) = Journal::with_capacity(Some(config(&dir)), 0).unwrap();
        assert_eq!(disabled.save(&window(1, 0)).0, None);
        disabled.remove(1).unwrap();
        assert!(disabled.lookup(1).is_none());
        assert_eq!((disabled.appends(), disabled.barriers()), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_set_is_bounded_by_capacity_across_reopen() {
        let dir = temp_dir("bound");
        let open = || Journal::with_capacity(Some(config(&dir)), 2).unwrap();
        let (journal, _) = open();
        for id in 0..5u64 {
            journal.append_checkpoint(&checkpoint(id)).unwrap();
        }
        assert_eq!(ids(&journal), [3, 4], "oldest saves evicted first");
        drop(journal);
        // The segment still holds all five records; replay applies the
        // same bound instead of resurrecting the evicted sessions.
        let (journal, report) = open();
        assert_eq!(report.sessions, 2);
        assert_eq!(ids(&journal), [3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_session_still_saving_outlives_a_dead_window() {
        // Session 1 keeps saving boundaries while sessions 2 and 3 each
        // save once: whatever the ids, 2's window is the one to go.
        let dir = temp_dir("lrs");
        let open = || Journal::with_capacity(Some(config(&dir)), 2).unwrap();
        let (journal, _) = open();
        for (id, job) in [(2, 0), (1, 0), (3, 0), (1, 1)] {
            journal.save(&window(id, job)).1.unwrap();
        }
        assert_eq!(ids(&journal), [3, 1]);
        let before = live(&journal);
        drop(journal);
        let (journal, _) = open();
        assert_eq!(live(&journal), before, "replay rebuilds the same store");
        assert_eq!(journal.lookup(1).unwrap().0.job_id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Saves, removes, capacity evictions, rotations and reopens in any
        /// order: the store matches a least-recently-saved model after
        /// every step, a remove appends a tombstone only for a live window,
        /// and a replay of its segment equals the live store, entry for
        /// entry and in order.
        #[test]
        fn replayed_store_equals_the_live_one(
            capacity in 0usize..4,
            ops in proptest::prelude::prop::collection::vec((0u8..7, 0u64..5), 1..40),
        ) {
            let dir = temp_dir("prop");
            let mut cfg = config(&dir);
            cfg.rotate_after = 3;
            let open = || Journal::with_capacity(Some(cfg.clone()), capacity).unwrap().0;
            let mut journal = open();
            let mut model: Vec<u64> = Vec::new();
            for (job, &(op, id)) in ops.iter().enumerate() {
                match op {
                    0 | 6 => {
                        // Op 6 removes an id no save ever used.
                        let id = if op == 6 { id + 5 } else { id };
                        let appends = journal.appends();
                        let was_live = model.contains(&id);
                        journal.remove(id).unwrap();
                        model.retain(|&live| live != id);
                        proptest::prop_assert_eq!(journal.appends(), appends + u64::from(was_live));
                    }
                    1 => {
                        let before = live(&journal);
                        drop(journal);
                        journal = open();
                        proptest::prop_assert_eq!(live(&journal), before);
                    }
                    _ => {
                        let (evicted, written) = journal.save(&window(id, job as u64));
                        written.unwrap();
                        let mut expected = None;
                        if capacity > 0 {
                            model.retain(|&live| live != id);
                            model.push(id);
                            expected = (model.len() > capacity).then(|| model.remove(0));
                        }
                        proptest::prop_assert_eq!(evicted, expected);
                    }
                }
                let ids: Vec<u64> = live(&journal).iter().map(|(id, _)| *id).collect();
                proptest::prop_assert_eq!(&ids, &model);
            }
            let before = live(&journal);
            drop(journal);
            proptest::prop_assert_eq!(live(&open()), before);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
