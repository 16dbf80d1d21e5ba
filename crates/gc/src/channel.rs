//! Two-party transport: an in-process duplex wire with byte accounting.
//!
//! The garbler and evaluator run on real threads and exchange framed
//! messages through [`Duplex`] endpoints, so protocol tests exercise true
//! two-party dataflow. Every byte is counted, which is how the repository
//! measures the communication volumes the paper's §6 caveat is about
//! ("communication capability of the server may become the bottleneck").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use max_crypto::Block;

use crate::engine::GarbledTable;

/// What a frame carries, for per-kind communication attribution.
///
/// The aggregate byte count answers "how much", the kind breakdown answers
/// "on what": garbled tables dominate a matvec transcript, OT block frames
/// dominate input transfer, and packed bit frames are noise — exactly the
/// split the paper's §6 bandwidth caveat turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Untyped byte frames (`send_bytes`), e.g. streamed round messages.
    Raw,
    /// 128-bit block vectors (`write_blocks`): wire labels, OT payloads.
    Blocks,
    /// Garbled-table vectors (`write_tables`).
    Tables,
    /// Packed bit vectors (`write_bits`): select bits, decode info.
    Bits,
}

impl FrameKind {
    /// All kinds, in wire-stat order.
    pub const ALL: [FrameKind; 4] = [
        FrameKind::Raw,
        FrameKind::Blocks,
        FrameKind::Tables,
        FrameKind::Bits,
    ];

    /// Stable lower-case name (used in stats tables).
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Raw => "raw",
            FrameKind::Blocks => "blocks",
            FrameKind::Tables => "tables",
            FrameKind::Bits => "bits",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            FrameKind::Raw => 0,
            FrameKind::Blocks => 1,
            FrameKind::Tables => 2,
            FrameKind::Bits => 3,
        }
    }

    /// Inverse of [`FrameKind::index`], for transports that tag frames on
    /// the wire.
    pub(crate) fn from_index(index: u8) -> Option<FrameKind> {
        match index {
            0 => Some(FrameKind::Raw),
            1 => Some(FrameKind::Blocks),
            2 => Some(FrameKind::Tables),
            3 => Some(FrameKind::Bits),
            _ => None,
        }
    }
}

/// Byte/message tallies of one frame kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// Bytes carried by frames of this kind.
    pub bytes: u64,
    /// Frames of this kind.
    pub messages: u64,
}

/// Point-in-time snapshot of one direction of a wire, with the per-kind
/// breakdown alongside the aggregate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total bytes, all kinds.
    pub bytes: u64,
    /// Total frames, all kinds.
    pub messages: u64,
    /// Untyped frames.
    pub raw: KindStats,
    /// Block-vector frames.
    pub blocks: KindStats,
    /// Garbled-table frames.
    pub tables: KindStats,
    /// Packed-bit frames.
    pub bits: KindStats,
}

impl ChannelStats {
    /// Tallies for `kind`.
    pub fn kind(&self, kind: FrameKind) -> KindStats {
        match kind {
            FrameKind::Raw => self.raw,
            FrameKind::Blocks => self.blocks,
            FrameKind::Tables => self.tables,
            FrameKind::Bits => self.bits,
        }
    }
}

#[derive(Debug, Default)]
struct KindCounter {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl KindCounter {
    fn stats(&self) -> KindStats {
        KindStats {
            bytes: self.bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }
}

/// Tallies of one direction of a wire.
#[derive(Debug, Default)]
pub struct Counter {
    bytes: AtomicU64,
    messages: AtomicU64,
    kinds: [KindCounter; 4],
}

impl Counter {
    pub(crate) fn record(&self, kind: FrameKind, len: usize) {
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
        let per_kind = &self.kinds[kind.index()];
        per_kind.bytes.fetch_add(len as u64, Ordering::Relaxed);
        per_kind.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Consistent snapshot of aggregate and per-kind tallies.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            bytes: self.bytes(),
            messages: self.messages(),
            raw: self.kinds[0].stats(),
            blocks: self.kinds[1].stats(),
            tables: self.kinds[2].stats(),
            bits: self.kinds[3].stats(),
        }
    }
}

/// One endpoint of an in-process duplex connection.
///
/// # Example
///
/// ```
/// use max_gc::channel::Duplex;
///
/// let (mut a, mut b) = Duplex::pair();
/// a.send_bytes(b"hello".as_ref().into());
/// assert_eq!(&b.recv_bytes().unwrap()[..], b"hello");
/// assert_eq!(a.sent().bytes(), 5);
/// ```
#[derive(Debug)]
pub struct Duplex {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    sent: Arc<Counter>,
    received: Arc<Counter>,
}

/// Error for receiving on a disconnected channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvDisconnected;

impl std::fmt::Display for RecvDisconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("peer disconnected")
    }
}

impl std::error::Error for RecvDisconnected {}

/// Hard ceiling on a single frame's payload (64 MiB).
///
/// A length-prefixed transport must never allocate what a hostile peer's
/// length field asks for; every decoder in this crate rejects frames (and
/// declared element counts) beyond this bound with a typed error instead.
/// The largest honest frame — a full round-message burst for a 256-element
/// b=32 matvec — is still two orders of magnitude below it.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Failure of a framed transport: disconnection, I/O trouble, or a frame
/// that is hostile or malformed (oversized length prefix, impossible
/// element count, trailing garbage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer hung up (or the stream ended mid-frame).
    Disconnected,
    /// A frame (or its declared length prefix) exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Declared or actual payload length.
        len: u64,
        /// The enforced ceiling ([`MAX_FRAME_BYTES`]).
        max: u64,
    },
    /// The frame's declared element counts do not match its payload.
    Malformed(&'static str),
    /// A sealed frame's CRC32 does not match its payload: the bytes were
    /// corrupted in flight (lossy link, buggy middlebox, bit rot). Detected
    /// at framing, before any of the payload reaches GC state.
    Checksum {
        /// The CRC32 the sender sealed into the frame.
        expected: u32,
        /// The CRC32 of the payload as received.
        got: u32,
    },
    /// A blocking receive hit the configured idle timeout.
    TimedOut,
    /// An OS-level I/O failure that is none of the above.
    Io {
        /// The underlying [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("transport peer disconnected"),
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            TransportError::Malformed(what) => write!(f, "malformed frame: {what}"),
            TransportError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: sealed {expected:#010x}, received {got:#010x}"
                )
            }
            TransportError::TimedOut => f.write_str("transport receive timed out"),
            TransportError::Io { kind, detail } => {
                write!(f, "transport I/O error ({kind:?}): {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<RecvDisconnected> for TransportError {
    fn from(_: RecvDisconnected) -> Self {
        TransportError::Disconnected
    }
}

impl From<std::io::Error> for TransportError {
    fn from(err: std::io::Error) -> Self {
        match err.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => TransportError::Disconnected,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::TimedOut
            }
            kind => TransportError::Io {
                kind,
                detail: err.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Typed-frame codecs, shared by every transport. Decoding never panics and
// never allocates beyond the actual frame: declared counts are validated
// against both the remaining payload and MAX_FRAME_BYTES first.
// ---------------------------------------------------------------------------

fn checked_count(
    frame: &mut Bytes,
    item_bytes: usize,
    what: &'static str,
) -> Result<usize, TransportError> {
    if frame.remaining() < 4 {
        return Err(TransportError::Malformed(what));
    }
    let count = frame.get_u32() as usize;
    let declared = count.saturating_mul(item_bytes.max(1));
    if declared > MAX_FRAME_BYTES {
        return Err(TransportError::FrameTooLarge {
            len: declared as u64,
            max: MAX_FRAME_BYTES as u64,
        });
    }
    if frame.remaining() < count.saturating_mul(item_bytes) {
        return Err(TransportError::Malformed(what));
    }
    Ok(count)
}

/// Encodes a block vector as one frame payload.
pub fn encode_blocks(blocks: &[Block]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + blocks.len() * 16);
    buf.put_u32(blocks.len() as u32);
    for block in blocks {
        buf.put_slice(&block.to_bytes());
    }
    buf.freeze()
}

/// Encodes a vector of block *pairs* as one [`encode_blocks`]-compatible
/// frame, interleaved `(lo, hi)` — the layout the OT label exchange streams.
///
/// Materialized prepared streams use this to render a cipher-pair frame
/// once at garble time and replay the bytes on every serve, so the helper
/// must stay byte-identical to flattening the pairs and calling
/// [`encode_blocks`].
pub fn encode_block_pairs(pairs: &[(Block, Block)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + pairs.len() * 32);
    buf.put_u32((pairs.len() * 2) as u32);
    for (lo, hi) in pairs {
        buf.put_slice(&lo.to_bytes());
        buf.put_slice(&hi.to_bytes());
    }
    buf.freeze()
}

/// Decodes a block-vector frame.
///
/// # Errors
///
/// Returns a typed [`TransportError`] for truncated payloads, hostile
/// counts, or trailing garbage — never panics, never over-allocates.
pub fn decode_blocks(mut frame: Bytes) -> Result<Vec<Block>, TransportError> {
    let count = checked_count(&mut frame, 16, "block frame")?;
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        let mut bytes = [0u8; 16];
        frame.copy_to_slice(&mut bytes);
        blocks.push(Block::from_bytes(bytes));
    }
    if frame.remaining() != 0 {
        return Err(TransportError::Malformed("block frame trailing bytes"));
    }
    Ok(blocks)
}

/// Encodes a garbled-table vector as one frame payload.
pub fn encode_tables(tables: &[GarbledTable]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + tables.len() * GarbledTable::WIRE_BYTES);
    buf.put_u32(tables.len() as u32);
    for table in tables {
        buf.put_slice(&table.to_bytes());
    }
    buf.freeze()
}

/// Decodes a garbled-table frame.
///
/// # Errors
///
/// Returns a typed [`TransportError`]; see [`decode_blocks`].
pub fn decode_tables(mut frame: Bytes) -> Result<Vec<GarbledTable>, TransportError> {
    let count = checked_count(&mut frame, GarbledTable::WIRE_BYTES, "table frame")?;
    let mut tables = Vec::with_capacity(count);
    for _ in 0..count {
        let mut bytes = [0u8; GarbledTable::WIRE_BYTES];
        frame.copy_to_slice(&mut bytes);
        tables.push(GarbledTable::from_bytes(bytes));
    }
    if frame.remaining() != 0 {
        return Err(TransportError::Malformed("table frame trailing bytes"));
    }
    Ok(tables)
}

/// Encodes a bit vector as one packed frame payload.
pub fn encode_bits(bits: &[bool]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + bits.len().div_ceil(8));
    buf.put_u32(bits.len() as u32);
    let mut byte = 0u8;
    for (i, &bit) in bits.iter().enumerate() {
        byte |= (bit as u8) << (i % 8);
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        buf.put_u8(byte);
    }
    buf.freeze()
}

/// Decodes a packed bit-vector frame.
///
/// # Errors
///
/// Returns a typed [`TransportError`]; see [`decode_blocks`].
pub fn decode_bits(mut frame: Bytes) -> Result<Vec<bool>, TransportError> {
    if frame.remaining() < 4 {
        return Err(TransportError::Malformed("bit frame"));
    }
    let count = frame.get_u32() as usize;
    let packed = count.div_ceil(8);
    if packed > MAX_FRAME_BYTES {
        return Err(TransportError::FrameTooLarge {
            len: packed as u64,
            max: MAX_FRAME_BYTES as u64,
        });
    }
    if frame.remaining() != packed {
        return Err(TransportError::Malformed("bit frame length"));
    }
    let bytes: Vec<u8> = frame.chunk().to_vec();
    Ok((0..count)
        .map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
        .collect())
}

// ---------------------------------------------------------------------------
// Sealed frames: a 4-byte CRC32 prefix over the payload, so any bit flipped
// in flight dies at framing with a typed `TransportError::Checksum` instead
// of reaching GC state. Sealing is applied by the session protocol layer
// (every frame of `maxelerator::remote` since protocol v6), not by the
// transports themselves — a fault wrapper sitting between the protocol and
// the wire therefore corrupts *inside* the sealed region, which is exactly
// what makes injected flips detectable. CRC32 catches accidental corruption
// only; an active adversary can fix the checksum up (the honest-but-curious
// boundary is unchanged).
// ---------------------------------------------------------------------------

/// Bytes the seal prefix occupies ahead of a sealed payload.
pub const SEAL_BYTES: usize = 4;

/// The per-frame checksum of the sealed wire format — the same CRC32 (IEEE,
/// check value `0xCBF4_3926`) that guards the journal's records.
pub use max_crypto::crc32;

/// Seals a frame payload: prepends the payload's big-endian CRC32.
pub fn seal_frame(payload: Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(SEAL_BYTES + payload.len());
    buf.put_u32(crc32(&payload));
    buf.put_slice(&payload);
    buf.freeze()
}

/// The 8-byte mark of a sealed frame: its CRC32 prefix ‖ its sealed length
/// (big-endian `u32`; a frame never exceeds [`MAX_FRAME_BYTES`]).
///
/// This is what the session protocol folds into its rolling transcript
/// digest for a bulk frame instead of re-reading the payload: the sender
/// takes it from the frame [`seal_frame`] just built, the receiver from the
/// frame [`open_frame`] just verified, so both name the same bytes and a
/// substituted, reordered or stale frame shows as a different mark. It
/// reads a frame too short to carry a seal as zero-prefixed rather than
/// panicking; `open_frame` is what rejects such a frame.
pub fn seal_mark(sealed: &[u8]) -> [u8; 8] {
    let mut mark = [0u8; 8];
    let prefix = sealed.len().min(SEAL_BYTES);
    mark[..prefix].copy_from_slice(&sealed[..prefix]);
    let len = u32::try_from(sealed.len()).unwrap_or(u32::MAX);
    mark[SEAL_BYTES..].copy_from_slice(&len.to_be_bytes());
    mark
}

/// Opens a sealed frame: verifies the CRC32 prefix and returns the payload.
///
/// # Errors
///
/// [`TransportError::Checksum`] if the checksum does not match the payload
/// (a flipped bit anywhere in the frame — prefix included — lands here);
/// [`TransportError::Malformed`] if the frame is too short to carry a seal.
pub fn open_frame(mut frame: Bytes) -> Result<Bytes, TransportError> {
    if frame.remaining() < SEAL_BYTES {
        return Err(TransportError::Malformed("sealed frame header"));
    }
    let expected = frame.get_u32();
    let got = crc32(&frame);
    if got != expected {
        return Err(TransportError::Checksum { expected, got });
    }
    Ok(frame)
}

/// Whether `frame` is a well-formed sealed frame (CRC prefix matches the
/// payload). Fault injectors use this to decide, at corruption time,
/// whether the flip they are about to make will be *detected* at the
/// receiver's [`open_frame`] or silently *delivered*.
pub fn is_sealed(frame: &[u8]) -> bool {
    frame.len() >= SEAL_BYTES
        && u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) == crc32(&frame[4..])
}

impl Duplex {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (Duplex, Duplex) {
        let (tx_ab, rx_ab) = channel();
        let (tx_ba, rx_ba) = channel();
        let ab_counter = Arc::new(Counter::default());
        let ba_counter = Arc::new(Counter::default());
        (
            Duplex {
                tx: tx_ab,
                rx: rx_ba,
                sent: Arc::clone(&ab_counter),
                received: Arc::clone(&ba_counter),
            },
            Duplex {
                tx: tx_ba,
                rx: rx_ab,
                sent: ba_counter,
                received: ab_counter,
            },
        )
    }

    /// Sends a raw byte frame.
    pub fn send_bytes(&mut self, frame: Bytes) {
        self.send_frame(FrameKind::Raw, frame);
    }

    pub(crate) fn send_frame(&mut self, kind: FrameKind, frame: Bytes) {
        self.sent.record(kind, frame.len());
        // A disconnected peer is fine for fire-and-forget sends in tests.
        let _ = self.tx.send(frame);
    }

    /// Receives one frame.
    ///
    /// # Errors
    ///
    /// Returns [`RecvDisconnected`] if the peer hung up.
    pub fn recv_bytes(&mut self) -> Result<Bytes, RecvDisconnected> {
        self.rx.recv().map_err(|_| RecvDisconnected)
    }

    /// Outbound tallies for this endpoint.
    pub fn sent(&self) -> &Counter {
        &self.sent
    }

    /// Inbound tallies for this endpoint.
    pub fn received(&self) -> &Counter {
        &self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;

    #[test]
    fn blocks_round_trip() {
        let (mut a, mut b) = Duplex::pair();
        let blocks = vec![Block::new(1), Block::new(u128::MAX), Block::ZERO];
        a.write_blocks(&blocks).unwrap();
        assert_eq!(b.read_blocks().unwrap(), blocks);
    }

    #[test]
    fn block_pairs_encode_like_flattened_blocks() {
        let pairs = vec![
            (Block::new(1), Block::new(2)),
            (Block::new(u128::MAX), Block::ZERO),
            (Block::new(0xdead_beef), Block::new(17)),
        ];
        let flat: Vec<Block> = pairs.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
        assert_eq!(encode_block_pairs(&pairs), encode_blocks(&flat));
        assert_eq!(decode_blocks(encode_block_pairs(&pairs)).unwrap(), flat);
        assert_eq!(encode_block_pairs(&[]), encode_blocks(&[]));
    }

    #[test]
    fn tables_round_trip() {
        let (mut a, mut b) = Duplex::pair();
        let tables = vec![
            GarbledTable {
                tg: Block::new(7),
                te: Block::new(9),
            };
            5
        ];
        a.write_tables(&tables).unwrap();
        assert_eq!(b.read_tables().unwrap(), tables);
    }

    #[test]
    fn bits_round_trip_all_lengths() {
        let (mut a, mut b) = Duplex::pair();
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            a.write_bits(&bits).unwrap();
            assert_eq!(b.read_bits().unwrap(), bits, "n = {n}");
        }
    }

    #[test]
    fn byte_accounting_is_symmetric() {
        let (mut a, mut b) = Duplex::pair();
        a.write_blocks(&[Block::ZERO; 4]).unwrap();
        b.read_blocks().unwrap();
        assert_eq!(a.sent().bytes(), 4 + 64);
        assert_eq!(b.received().bytes(), 4 + 64);
        assert_eq!(a.sent().messages(), 1);
        b.write_bits(&[true]).unwrap();
        a.read_bits().unwrap();
        assert_eq!(b.sent().bytes(), 5);
        assert_eq!(a.received().bytes(), 5);
    }

    #[test]
    fn per_kind_breakdown_sums_to_aggregate() {
        let (mut a, mut b) = Duplex::pair();
        a.write_blocks(&[Block::ZERO; 4]).unwrap(); // 4 + 64 bytes
        a.write_tables(&[GarbledTable {
            tg: Block::ZERO,
            te: Block::ZERO,
        }])
        .unwrap(); // 4 + 32 bytes
        a.write_bits(&[true, false, true]).unwrap(); // 4 + 1 bytes
        a.send_bytes(b"xyz".as_ref().into()); // 3 bytes
        for _ in 0..4 {
            b.recv_bytes().unwrap();
        }
        let stats = a.sent().stats();
        assert_eq!(
            stats.blocks,
            KindStats {
                bytes: 68,
                messages: 1
            }
        );
        assert_eq!(
            stats.tables,
            KindStats {
                bytes: 36,
                messages: 1
            }
        );
        assert_eq!(
            stats.bits,
            KindStats {
                bytes: 5,
                messages: 1
            }
        );
        assert_eq!(
            stats.raw,
            KindStats {
                bytes: 3,
                messages: 1
            }
        );
        let kind_total: u64 = FrameKind::ALL.iter().map(|&k| stats.kind(k).bytes).sum();
        assert_eq!(kind_total, stats.bytes);
        assert_eq!(stats.messages, 4);
        // The receive side shares the same counter.
        assert_eq!(b.received().stats(), stats);
    }

    #[test]
    fn disconnect_is_an_error() {
        let (mut a, b) = Duplex::pair();
        drop(b);
        assert_eq!(a.recv_bytes(), Err(RecvDisconnected));
    }

    #[test]
    fn hostile_counts_return_typed_errors_not_allocations() {
        // A declared count far beyond the payload must fail fast with a
        // typed error — the old behavior was an assert (panic), and a
        // naive decoder would try a multi-GiB Vec::with_capacity first.
        let (mut a, mut b) = Duplex::pair();
        let mut huge = BytesMut::with_capacity(0);
        huge.put_u32(u32::MAX); // 4 Gi blocks = 64 GiB declared
        a.send_bytes(huge.freeze());
        assert_eq!(
            b.read_blocks(),
            Err(TransportError::FrameTooLarge {
                len: (u32::MAX as u64) * 16,
                max: MAX_FRAME_BYTES as u64,
            })
        );

        // A count that over-declares within the cap is malformed.
        let mut short = BytesMut::with_capacity(0);
        short.put_u32(3);
        short.put_slice(&[0u8; 16]); // one block's bytes, three declared
        a.send_bytes(short.freeze());
        assert_eq!(
            b.read_blocks(),
            Err(TransportError::Malformed("block frame"))
        );

        // Trailing garbage after the declared payload is rejected too.
        let mut trailing = BytesMut::with_capacity(0);
        trailing.put_u32(1);
        trailing.put_slice(&[0u8; 17]);
        a.send_bytes(trailing.freeze());
        assert_eq!(
            b.read_blocks(),
            Err(TransportError::Malformed("block frame trailing bytes"))
        );
    }

    #[test]
    fn hostile_table_and_bit_frames_rejected() {
        let (mut a, mut b) = Duplex::pair();
        let mut huge = BytesMut::with_capacity(0);
        huge.put_u32(u32::MAX);
        a.send_bytes(huge.freeze());
        assert!(matches!(
            b.read_tables(),
            Err(TransportError::FrameTooLarge { .. })
        ));

        let mut bits = BytesMut::with_capacity(0);
        bits.put_u32(64); // 8 packed bytes declared, none supplied
        a.send_bytes(bits.freeze());
        assert_eq!(
            b.read_bits(),
            Err(TransportError::Malformed("bit frame length"))
        );

        let empty = BytesMut::with_capacity(0);
        a.send_bytes(empty.freeze());
        assert_eq!(b.read_bits(), Err(TransportError::Malformed("bit frame")));
    }

    #[test]
    fn transport_errors_are_std_errors() {
        // `RecvDisconnected` and `TransportError` both plug into `?`-based
        // error chains: std::error::Error + Display.
        fn takes_error<E: std::error::Error>(e: E) -> String {
            format!("{e}")
        }
        assert_eq!(takes_error(RecvDisconnected), "peer disconnected");
        assert!(takes_error(TransportError::Disconnected).contains("disconnected"));
        assert!(takes_error(TransportError::FrameTooLarge { len: 9, max: 4 }).contains("limit"));
        let boxed: Box<dyn std::error::Error> = Box::new(TransportError::TimedOut);
        assert!(boxed.to_string().contains("timed out"));
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_frames_round_trip_and_report_flips() {
        for len in [0usize, 1, 4, 5, 64, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sealed = seal_frame(Bytes::from(payload.clone()));
            assert_eq!(sealed.len(), payload.len() + SEAL_BYTES);
            assert!(is_sealed(&sealed));
            assert_eq!(&open_frame(sealed.clone()).unwrap()[..], &payload[..]);
            // Any single-bit flip anywhere in the sealed frame is detected.
            for byte in 0..sealed.len() {
                let mut flipped = sealed.to_vec();
                flipped[byte] ^= 1 << (byte % 8);
                assert!(!is_sealed(&flipped));
                assert!(
                    matches!(
                        open_frame(Bytes::from(flipped)),
                        Err(TransportError::Checksum { .. })
                    ),
                    "flip at byte {byte} of a {len}-byte payload went undetected"
                );
            }
        }
        // Too short to carry a seal at all: malformed, not a checksum error.
        assert_eq!(
            open_frame(Bytes::from(vec![1u8, 2, 3])),
            Err(TransportError::Malformed("sealed frame header"))
        );
        assert!(!is_sealed(&[1u8, 2, 3]));
    }

    #[test]
    fn seal_mark_is_the_crc_prefix_and_the_sealed_length() {
        let payload = Bytes::from(b"one element's ROUNDS burst".to_vec());
        let sealed = seal_frame(payload.clone());
        let mut expected = crc32(&payload).to_be_bytes().to_vec();
        expected.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
        assert_eq!(&seal_mark(&sealed)[..], &expected[..]);
        // Another frame of the same length, and the same bytes at another
        // length, both read as different marks.
        let other = seal_frame(Bytes::from(b"the previous ROUNDS burst!".to_vec()));
        assert_eq!(other.len(), sealed.len());
        assert_ne!(seal_mark(&other), seal_mark(&sealed));
        assert_ne!(seal_mark(&sealed[..sealed.len() - 1]), seal_mark(&sealed));
        // Too short to carry a seal: no panic (`open_frame` rejects it).
        assert_eq!(seal_mark(&[9, 8]), [9, 8, 0, 0, 0, 0, 0, 2]);
        assert_eq!(seal_mark(&[]), [0; 8]);
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = Duplex::pair();
        let handle = std::thread::spawn(move || {
            let got = b.read_blocks().unwrap();
            b.write_blocks(&got).unwrap();
        });
        a.write_blocks(&[Block::new(42)]).unwrap();
        assert_eq!(a.read_blocks().unwrap(), vec![Block::new(42)]);
        handle.join().unwrap();
    }
}
