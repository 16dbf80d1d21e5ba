//! The frame layer: an in-process duplex wire with byte accounting, the
//! frame error type, the checked [`Reader`] every decoder of peer or disk
//! bytes reads through, the vector codecs and the sealed-frame format.
//!
//! The garbler and evaluator run on real threads and exchange frames
//! through [`Duplex`] endpoints, so protocol tests exercise true two-party
//! dataflow. Every transport keeps one byte and message [`Counter`] per
//! direction, which is how the repository measures the communication
//! volumes the paper's §6 caveat is about ("communication capability of the
//! server may become the bottleneck").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use max_crypto::Block;

use crate::GarbledTable;

/// The tag a frame travels under: [`FramedTcp`](crate::FramedTcp) writes
/// it as its header byte, and the recording and flight-log wrappers keep
/// it beside each frame. It is a label for people reading a transcript,
/// not a second accounting: every kind counts into the same [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Control frames and ROUNDS bursts (header tag 0).
    Raw,
    /// 128-bit block vectors: OT ciphertext pairs (header tag 1).
    Blocks,
    /// Packed bits: the EXT frame's OT corrections (header tag 3; tag 2
    /// is retired and read as malformed).
    Bits,
}

impl FrameKind {
    /// The stable header tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            FrameKind::Raw => 0,
            FrameKind::Blocks => 1,
            FrameKind::Bits => 3,
        }
    }

    /// Inverse of [`FrameKind::tag`], for transports that tag frames on
    /// the wire.
    pub(crate) fn from_tag(tag: u8) -> Option<FrameKind> {
        match tag {
            0 => Some(FrameKind::Raw),
            1 => Some(FrameKind::Blocks),
            3 => Some(FrameKind::Bits),
            _ => None,
        }
    }
}

/// Byte and message tallies of one direction of a wire.
#[derive(Debug, Default)]
pub struct Counter {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl Counter {
    pub(crate) fn record(&self, len: usize) {
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Frames so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

/// Hard ceiling on a single frame's payload (64 MiB).
///
/// Every transport refuses to send a larger frame, and a length-prefixed
/// transport never allocates what a hostile peer's length field asks for:
/// every decoder in this crate rejects frames (and declared element counts)
/// beyond this bound with a typed error instead. A served element's sealed
/// ROUNDS frame exceeds it past 11 205 columns at b = 8 (912 at b = 32),
/// which is why the model registry refuses wider models at registration.
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
// The checked reader. Every decoder of bytes from outside the process — a
// peer's frame, a record read back from disk — reads through a `Reader`, so a
// field that runs past the end is a typed error naming the field, never a
// panic, and a format's layout is written once by its encoder and once by its
// reads, never a third time as a byte count checked ahead of them.
// ---------------------------------------------------------------------------

/// Why a [`Reader`] refused its bytes. Each decoder converts it into its own
/// error type: [`TransportError::Malformed`] here, a protocol error in the
/// session layer, a codec error for the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The bytes ended inside the named field.
    Short(&'static str),
    /// The named flag byte was neither 0 nor 1.
    Flag {
        /// The flag's name.
        what: &'static str,
        /// The byte found.
        got: u8,
    },
    /// Bytes were left after the last field of the named format.
    Trailing {
        /// The format's name.
        what: &'static str,
        /// How many bytes were left.
        extra: usize,
    },
}

impl ReadError {
    /// The field or format the refusal names.
    pub fn what(self) -> &'static str {
        match self {
            ReadError::Short(what)
            | ReadError::Flag { what, .. }
            | ReadError::Trailing { what, .. } => what,
        }
    }
}

impl From<ReadError> for TransportError {
    fn from(err: ReadError) -> Self {
        TransportError::Malformed(err.what())
    }
}

/// A cursor over untrusted bytes. Each read takes one field off the front,
/// named by its `what`; a read that runs past the end returns
/// [`ReadError::Short`] naming that field and leaves the cursor where it
/// was. Integers are big-endian (the wire's order) unless the method says
/// `_le` (the journal's). The reads are `#[inline]`, as the `bytes` getters
/// they replace were: decoders in other crates call them once per field.
///
/// # Example
///
/// ```
/// use max_gc::channel::{ReadError, Reader};
///
/// let mut reader = Reader::new(&[0, 1, 1, 7]);
/// assert_eq!(reader.u16("count"), Ok(1));
/// assert_eq!(reader.flag("signed"), Ok(true));
/// assert_eq!(reader.u32("id"), Err(ReadError::Short("id")));
/// assert_eq!(reader.u8("tail"), Ok(7));
/// assert_eq!(reader.end("frame"), Ok(()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the front of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Lends the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ReadError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(ReadError::Short(what))?;
        self.rest = rest;
        Ok(head)
    }

    /// Copies out the next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ReadError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(ReadError::Short(what))?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ReadError> {
        let [byte] = self.array(what)?;
        Ok(byte)
    }

    /// Reads a flag byte: 0 is `false`, 1 is `true`, and any other byte is
    /// [`ReadError::Flag`].
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, ReadError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(ReadError::Flag { what, got }),
        }
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ReadError> {
        self.array(what).map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ReadError> {
        self.array(what).map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ReadError> {
        self.array(what).map(u64::from_be_bytes)
    }

    /// Reads a big-endian `u128`.
    #[inline]
    pub fn u128(&mut self, what: &'static str) -> Result<u128, ReadError> {
        self.array(what).map(u128::from_be_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self, what: &'static str) -> Result<u32, ReadError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self, what: &'static str) -> Result<u64, ReadError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u128`.
    #[inline]
    pub fn u128_le(&mut self, what: &'static str) -> Result<u128, ReadError> {
        self.array(what).map(u128::from_le_bytes)
    }

    /// Checks that every byte has been read: any left is
    /// [`ReadError::Trailing`] naming the format `what`.
    #[inline]
    pub fn end(self, what: &'static str) -> Result<(), ReadError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(ReadError::Trailing { what, extra }),
        }
    }

    /// Reads a vector's count, checks that its `item_bits`-bit items fit
    /// [`MAX_FRAME_BYTES`] and the bytes left, and lends the bytes holding
    /// them.
    fn vector(
        &mut self,
        item_bits: usize,
        what: &'static str,
    ) -> Result<(usize, &'a [u8]), TransportError> {
        let count = self.u32(what)? as usize;
        let declared = count.saturating_mul(item_bits).div_ceil(8);
        if declared > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge {
                len: declared as u64,
                max: MAX_FRAME_BYTES as u64,
            });
        }
        Ok((count, self.bytes(declared, what)?))
    }
}

// ---------------------------------------------------------------------------
// Vector codecs: a big-endian u32 element count, then the elements. The
// `put_` functions append one vector to a buffer, and the `lend_` functions
// read one off a `Reader` and lend its items where they lie. They are the
// only encoding of tables, labels and packed bits, and the frame-level
// functions below and the session protocol's ROUNDS bodies are built on
// them. Decoding never panics and never allocates beyond the actual frame: a
// declared count is checked against both MAX_FRAME_BYTES and the remaining
// payload first.
// ---------------------------------------------------------------------------

/// Appends a garbled-table vector: room for the whole vector is reserved
/// once, then every table is written in one pass.
pub fn put_tables(buf: &mut BytesMut, tables: &[GarbledTable]) {
    buf.reserve(4 + tables.len() * GarbledTable::WIRE_BYTES);
    buf.put_u32(tables.len() as u32);
    for table in tables {
        buf.put_slice(&table.to_bytes());
    }
}

/// Lends a garbled-table vector off `frame`: each table's
/// [`GarbledTable::WIRE_BYTES`] as they lie in the frame (read them with
/// [`AsTable`](crate::AsTable)), and `frame` advanced past the vector.
///
/// # Errors
///
/// [`TransportError::FrameTooLarge`] for a count beyond
/// [`MAX_FRAME_BYTES`], [`TransportError::Malformed`] for a count the
/// frame does not hold.
pub fn lend_tables<'a>(
    frame: &mut Reader<'a>,
) -> Result<&'a [[u8; GarbledTable::WIRE_BYTES]], TransportError> {
    let (_, run) = frame.vector(GarbledTable::WIRE_BYTES * 8, "table vector")?;
    Ok(run.as_chunks().0)
}

/// Appends a block vector.
pub fn put_blocks(buf: &mut BytesMut, blocks: &[Block]) {
    put_block_vector(buf, blocks.len(), blocks.iter());
}

/// Appends `count` blocks drawn from `blocks` as one block vector, in one
/// pass over a buffer reserved once.
fn put_block_vector<'a>(buf: &mut BytesMut, count: usize, blocks: impl Iterator<Item = &'a Block>) {
    buf.reserve(4 + count * 16);
    buf.put_u32(count as u32);
    for block in blocks {
        buf.put_slice(&block.to_bytes());
    }
}

/// Lends a block vector off `frame` as [`lend_tables`] does: each block's
/// 16 bytes as they lie ([`Block::from_bytes`] reads one).
///
/// # Errors
///
/// As [`lend_tables`].
pub fn lend_blocks<'a>(frame: &mut Reader<'a>) -> Result<&'a [[u8; 16]], TransportError> {
    let (_, run) = frame.vector(128, "block vector")?;
    Ok(run.as_chunks().0)
}

/// Appends a bit vector, packed eight to a byte, least significant first.
pub fn put_bits(buf: &mut BytesMut, bits: &[bool]) {
    buf.put_u32(bits.len() as u32);
    for chunk in bits.chunks(8) {
        buf.put_u8(
            chunk
                .iter()
                .enumerate()
                .fold(0, |byte, (i, &bit)| byte | (u8::from(bit) << i)),
        );
    }
}

/// A packed bit vector as it lies in a frame: [`PackedBits::len`] bits,
/// eight to a byte, least significant first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedBits<'a> {
    len: usize,
    packed: &'a [u8],
}

impl<'a> PackedBits<'a> {
    /// Bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bit.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = bool> + 'a {
        let packed = self.packed;
        (0..self.len).map(move |i| (packed[i / 8] >> (i % 8)) & 1 == 1)
    }
}

/// Lends a packed bit vector off `frame` as [`lend_tables`] does.
///
/// # Errors
///
/// As [`lend_tables`].
pub fn lend_bits<'a>(frame: &mut Reader<'a>) -> Result<PackedBits<'a>, TransportError> {
    let (len, packed) = frame.vector(1, "bit vector")?;
    Ok(PackedBits { len, packed })
}

/// Encodes a garbled-table vector as one frame payload.
pub fn encode_tables(tables: &[GarbledTable]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + tables.len() * GarbledTable::WIRE_BYTES);
    put_tables(&mut buf, tables);
    buf.freeze()
}

/// Decodes a frame holding exactly one garbled-table vector, converting
/// each table straight from the frame.
///
/// # Errors
///
/// As [`lend_tables`], and [`TransportError::Malformed`] for trailing bytes.
pub fn decode_tables(frame: Bytes) -> Result<Vec<GarbledTable>, TransportError> {
    let mut reader = Reader::new(&frame);
    let tables = lend_tables(&mut reader)?
        .iter()
        .map(|&wire| GarbledTable::from_bytes(wire))
        .collect();
    reader.end("table frame trailing bytes")?;
    Ok(tables)
}

/// Encodes block *pairs* as one block-vector frame, interleaved
/// `(lo, hi)`: the layout of the OT ciphertext exchange. The bytes are
/// [`put_blocks`] over the flattened pairs, so the receiver reads them
/// with [`decode_blocks`].
pub fn encode_block_pairs(pairs: &[(Block, Block)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + pairs.len() * 32);
    let flat = pairs.iter().flat_map(|(lo, hi)| [lo, hi]);
    put_block_vector(&mut buf, pairs.len() * 2, flat);
    buf.freeze()
}

/// Decodes a frame holding exactly one block vector, converting the whole
/// run in one pass as [`decode_tables`] does.
///
/// # Errors
///
/// As [`lend_tables`], and [`TransportError::Malformed`] for trailing bytes.
pub fn decode_blocks(frame: Bytes) -> Result<Vec<Block>, TransportError> {
    let mut reader = Reader::new(&frame);
    let blocks = lend_blocks(&mut reader)?
        .iter()
        .map(|&wire| Block::from_bytes(wire))
        .collect();
    reader.end("block frame trailing bytes")?;
    Ok(blocks)
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

/// Seals a frame payload: prepends the payload's big-endian CRC32. The
/// payload is copied behind the prefix; a frame whose payload is still to
/// be written is sealed without that copy by [`seal_with`].
pub fn seal_frame(payload: Bytes) -> Bytes {
    seal_with(payload.len(), |buf| buf.put_slice(&payload))
}

/// Builds a sealed frame in one buffer: reserves the [`SEAL_BYTES`] prefix
/// and `payload_len` more, lets `put` append the payload behind the
/// prefix, then writes the payload's CRC32 into it in place — one CRC pass
/// and no copy of the payload. The bytes are exactly [`seal_frame`]'s for
/// the same payload.
pub fn seal_with(payload_len: usize, put: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(SEAL_BYTES + payload_len);
    buf.put_u32(0);
    put(&mut buf);
    let crc = crc32(&buf[SEAL_BYTES..]);
    buf[..SEAL_BYTES].copy_from_slice(&crc.to_be_bytes());
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
    let expected = Reader::new(&frame).u32("sealed frame header")?;
    frame.advance(SEAL_BYTES);
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
    let mut reader = Reader::new(frame);
    reader
        .u32("sealed frame header")
        .is_ok_and(|crc| crc == crc32(reader.rest()))
}

/// One endpoint of an in-process duplex connection; it moves frames
/// through the [`Transport`](crate::Transport) trait.
///
/// # Example
///
/// ```
/// use max_gc::channel::{Duplex, FrameKind};
/// use max_gc::Transport;
///
/// let (mut a, mut b) = Duplex::pair();
/// a.send_frame(FrameKind::Raw, b"hello".as_ref().into()).unwrap();
/// assert_eq!(&b.recv_frame().unwrap()[..], b"hello");
/// assert_eq!(a.sent().bytes(), 5);
/// ```
#[derive(Debug)]
pub struct Duplex {
    pub(crate) tx: Sender<Bytes>,
    pub(crate) rx: Receiver<Bytes>,
    sent: Arc<Counter>,
    received: Arc<Counter>,
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

    fn frame(put: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = BytesMut::with_capacity(0);
        put(&mut buf);
        buf.freeze()
    }

    #[test]
    fn blocks_round_trip() {
        let (mut a, mut b) = Duplex::pair();
        let blocks = vec![Block::new(1), Block::new(u128::MAX), Block::ZERO];
        a.send_frame(FrameKind::Blocks, frame(|buf| put_blocks(buf, &blocks)))
            .unwrap();
        assert_eq!(decode_blocks(b.recv_frame().unwrap()).unwrap(), blocks);
    }

    #[test]
    fn block_pairs_encode_like_flattened_blocks() {
        let pairs = vec![
            (Block::new(1), Block::new(2)),
            (Block::new(u128::MAX), Block::ZERO),
            (Block::new(0xdead_beef), Block::new(17)),
        ];
        let flat: Vec<Block> = pairs.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
        assert_eq!(
            encode_block_pairs(&pairs),
            frame(|buf| put_blocks(buf, &flat))
        );
        assert_eq!(decode_blocks(encode_block_pairs(&pairs)).unwrap(), flat);
        assert_eq!(encode_block_pairs(&[]), frame(|buf| put_blocks(buf, &[])));
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
        a.send_frame(FrameKind::Raw, encode_tables(&tables))
            .unwrap();
        assert_eq!(decode_tables(b.recv_frame().unwrap()).unwrap(), tables);
    }

    /// Per-item reference encoder: `count`, then `blocks` one byte at a
    /// time — the layout the bulk `put_` functions must keep (a table is
    /// its two blocks, garbler half first).
    fn oracle_put(buf: &mut BytesMut, count: usize, blocks: &[Block]) {
        buf.put_u32(count as u32);
        for block in blocks {
            for byte in block.to_bytes() {
                buf.put_u8(byte);
            }
        }
    }

    /// Per-item reference decoder: `n` blocks, one copy each.
    fn oracle_get(frame: &mut Bytes, n: usize) -> Vec<Block> {
        (0..n)
            .map(|_| {
                let bytes = frame.split_to(16);
                Block::from_bytes(bytes[..].try_into().unwrap())
            })
            .collect()
    }

    #[test]
    fn bulk_codecs_match_the_per_item_oracle() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 29)
        };
        for count in 0..=70usize {
            let blocks: Vec<Block> = (0..2 * count)
                .map(|_| Block::new((u128::from(next()) << 64) | u128::from(next())))
                .collect();
            let tables: Vec<GarbledTable> = blocks
                .chunks_exact(2)
                .map(|pair| GarbledTable {
                    tg: pair[0],
                    te: pair[1],
                })
                .collect();
            // The vector sits at a random offset of its frame, with a
            // random tail behind it that the decoder must leave alone.
            let head: Vec<u8> = (0..next() % 37).map(|i| i as u8).collect();
            let tail: Vec<u8> = (0..next() % 11).map(|i| !(i as u8)).collect();
            let framed = |put: &dyn Fn(&mut BytesMut)| {
                frame(|buf| {
                    buf.put_slice(&head);
                    put(buf);
                    buf.put_slice(&tail);
                })
            };
            for (as_tables, declared) in [(true, count), (false, 2 * count)] {
                let bulk = if as_tables {
                    framed(&|buf| put_tables(buf, &tables))
                } else {
                    framed(&|buf| put_blocks(buf, &blocks))
                };
                let mut oracle = framed(&|buf| oracle_put(buf, declared, &blocks));
                assert_eq!(bulk, oracle, "put, {declared} items, tables: {as_tables}");
                oracle.advance(head.len() + 4);
                let expected = oracle_get(&mut oracle, blocks.len());
                let mut read = Reader::new(&bulk[head.len()..]);
                let decoded: Vec<Block> = if as_tables {
                    lend_tables(&mut read)
                        .unwrap()
                        .iter()
                        .flat_map(|&wire| {
                            let table = GarbledTable::from_bytes(wire);
                            [table.tg, table.te]
                        })
                        .collect()
                } else {
                    lend_blocks(&mut read)
                        .unwrap()
                        .iter()
                        .map(|&wire| Block::from_bytes(wire))
                        .collect()
                };
                assert_eq!(
                    decoded, expected,
                    "lend, {declared} items, tables: {as_tables}"
                );
                assert_eq!(
                    read.rest(),
                    &tail[..],
                    "the decoder advanced past its run only"
                );
            }
        }
    }

    #[test]
    fn bits_round_trip_all_lengths() {
        let (mut a, mut b) = Duplex::pair();
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            a.send_frame(FrameKind::Bits, frame(|buf| put_bits(buf, &bits)))
                .unwrap();
            let got = b.recv_frame().unwrap();
            assert_eq!(got.len(), 4 + n.div_ceil(8), "n = {n}");
            let mut read = Reader::new(&got);
            let lent = lend_bits(&mut read).unwrap();
            assert_eq!(lent.iter().collect::<Vec<_>>(), bits, "n = {n}");
            assert!(read.rest().is_empty(), "n = {n}");
        }
    }

    #[test]
    fn byte_accounting_is_symmetric() {
        let (mut a, mut b) = Duplex::pair();
        a.send_frame(
            FrameKind::Blocks,
            frame(|buf| put_blocks(buf, &[Block::ZERO; 4])),
        )
        .unwrap();
        b.recv_frame().unwrap();
        assert_eq!(a.sent().bytes(), 4 + 64);
        assert_eq!(b.received().bytes(), 4 + 64);
        assert_eq!(a.sent().messages(), 1);
        b.send_frame(FrameKind::Bits, frame(|buf| put_bits(buf, &[true])))
            .unwrap();
        a.recv_frame().unwrap();
        assert_eq!(b.sent().bytes(), 5);
        assert_eq!(a.received().bytes(), 5);
        assert_eq!(a.received().messages(), 1);
    }

    #[test]
    fn disconnect_is_an_error() {
        let (mut a, b) = Duplex::pair();
        drop(b);
        assert_eq!(a.recv_frame(), Err(TransportError::Disconnected));
    }

    #[test]
    fn hostile_counts_return_typed_errors_not_allocations() {
        // A declared count far beyond the payload must fail fast with a
        // typed error — the old behavior was an assert (panic), and a
        // naive decoder would try a multi-GiB Vec::with_capacity first.
        let (mut a, mut b) = Duplex::pair();
        let huge = frame(|buf| buf.put_u32(u32::MAX)); // 4 Gi blocks = 64 GiB declared
        a.send_frame(FrameKind::Blocks, huge).unwrap();
        assert_eq!(
            decode_blocks(b.recv_frame().unwrap()),
            Err(TransportError::FrameTooLarge {
                len: (u32::MAX as u64) * 16,
                max: MAX_FRAME_BYTES as u64,
            })
        );

        // A count that over-declares within the cap is malformed.
        let short = frame(|buf| {
            buf.put_u32(3);
            buf.put_slice(&[0u8; 16]); // one block's bytes, three declared
        });
        a.send_frame(FrameKind::Blocks, short).unwrap();
        assert_eq!(
            decode_blocks(b.recv_frame().unwrap()),
            Err(TransportError::Malformed("block vector"))
        );

        // Trailing garbage after the declared payload is rejected too.
        let trailing = frame(|buf| {
            buf.put_u32(1);
            buf.put_slice(&[0u8; 17]);
        });
        a.send_frame(FrameKind::Blocks, trailing).unwrap();
        assert_eq!(
            decode_blocks(b.recv_frame().unwrap()),
            Err(TransportError::Malformed("block frame trailing bytes"))
        );
    }

    #[test]
    fn hostile_table_and_bit_frames_rejected() {
        let (mut a, mut b) = Duplex::pair();
        a.send_frame(FrameKind::Raw, frame(|buf| buf.put_u32(u32::MAX)))
            .unwrap();
        assert!(matches!(
            decode_tables(b.recv_frame().unwrap()),
            Err(TransportError::FrameTooLarge { .. })
        ));

        // 8 packed bytes declared, none supplied.
        a.send_frame(FrameKind::Bits, frame(|buf| buf.put_u32(64)))
            .unwrap();
        let got = b.recv_frame().unwrap();
        assert_eq!(
            lend_bits(&mut Reader::new(&got)),
            Err(TransportError::Malformed("bit vector"))
        );

        a.send_frame(FrameKind::Bits, Bytes::from(Vec::new()))
            .unwrap();
        let got = b.recv_frame().unwrap();
        assert_eq!(
            lend_bits(&mut Reader::new(&got)),
            Err(TransportError::Malformed("bit vector"))
        );
    }

    #[test]
    fn transport_errors_are_std_errors() {
        // `TransportError` plugs into `?`-based error chains:
        // std::error::Error + Display.
        fn takes_error<E: std::error::Error>(e: E) -> String {
            format!("{e}")
        }
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
    fn seal_with_writes_seal_frames_bytes_in_place() {
        for len in [0usize, 1, 5, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let sealed = seal_with(len, |buf| buf.put_slice(&payload));
            assert_eq!(sealed, seal_frame(Bytes::from(payload.clone())));
            // Opening is a view: the payload is the sealed frame's own
            // allocation, four bytes in, not a copy.
            let opened = open_frame(sealed.clone()).unwrap();
            assert_eq!(opened.as_ptr(), sealed[SEAL_BYTES..].as_ptr());
        }
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
            let got = b.recv_frame().unwrap();
            b.send_frame(FrameKind::Blocks, got).unwrap();
        });
        let blocks = [Block::new(42)];
        a.send_frame(FrameKind::Blocks, frame(|buf| put_blocks(buf, &blocks)))
            .unwrap();
        assert_eq!(decode_blocks(a.recv_frame().unwrap()).unwrap(), blocks);
        handle.join().unwrap();
    }
}
