//! Journal images for the power-cut tests: where a suite keeps its journal,
//! its one segment, the records in it, and what of them a power cut leaves.

use std::path::{Path, PathBuf};

/// The checkpoint record kind, per the documented segment layout.
pub const KIND_CHECKPOINT: u8 = 1;

/// A fresh journal directory for `tag`, unique to this process and thread.
pub fn temp_dir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "{suite}-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The only journal segment file in `dir` (panics if there is not exactly
/// one — the tests keep their journals small enough never to rotate).
pub fn only_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "maxj"))
        .collect();
    assert_eq!(segments.len(), 1, "expected exactly one segment");
    segments.remove(0)
}

/// `(end offset, kind)` of every record in a journal segment: an 8-byte
/// magic, then records of `[len: u32 LE][crc32: u32 LE][kind: u8 payload]`
/// where `len` counts the kind byte and the payload.
pub fn records(segment: &[u8]) -> Vec<(usize, u8)> {
    let mut at = 8;
    let mut out = Vec::new();
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().expect("4 bytes"));
        let end = at + 8 + len as usize;
        out.push((end, segment[at + 8]));
        at = end;
    }
    assert_eq!(at, segment.len(), "the segment ends on a record boundary");
    out
}

/// The image a power cut leaves of a segment that sessions wrote: the bytes
/// up to the end of its last barrier record, as no ordered record after it
/// reached the disk. Every checkpoint — a job's one record — is a barrier;
/// every tombstone is ordered.
pub fn power_cut_image(segment: &[u8]) -> &[u8] {
    let durable = records(segment)
        .into_iter()
        .rfind(|&(_, kind)| kind == KIND_CHECKPOINT)
        .map(|(end, _)| end);
    // The magic was synced when the segment was created.
    &segment[..durable.unwrap_or(8)]
}
