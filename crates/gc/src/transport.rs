//! Pluggable two-party transport: the [`Transport`] trait and its two
//! implementations — the in-process [`Duplex`] wire and a length-prefixed
//! framed transport over [`std::net::TcpStream`].
//!
//! A transport moves frames and keeps one byte and message [`Counter`] per
//! direction; what a frame holds is the business of the codecs in
//! [`channel`](crate::channel). Both implementations refuse a frame above
//! [`MAX_FRAME_BYTES`] and count the same bytes, so moving a protocol from
//! in-memory to TCP changes nothing about what is measured — only where
//! the bytes go.
//!
//! The TCP frame layout is deliberately minimal and offline-safe (no async
//! runtime, no external protocol library):
//!
//! ```text
//! +--------+------------+---------------------+
//! | kind   | len (u32)  | payload (len bytes) |
//! | 1 byte | big-endian |                     |
//! +--------+------------+---------------------+
//! ```
//!
//! `kind` is [`FrameKind`]'s stable tag; `len` is validated against
//! [`MAX_FRAME_BYTES`] *before* any allocation, so a hostile peer cannot make
//! the receiver reserve gigabytes with a five-byte header.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;

use crate::channel::{Counter, Duplex, FrameKind, Reader, TransportError, MAX_FRAME_BYTES};

/// A byte-framed, kind-tagged duplex wire between two protocol parties.
///
/// Implementations must preserve frame boundaries (one `send_frame` is one
/// `recv_frame`), refuse frames above [`MAX_FRAME_BYTES`], and count every
/// frame they move.
pub trait Transport: Send {
    /// Sends one frame of `kind`.
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameTooLarge`] if the frame exceeds
    /// [`MAX_FRAME_BYTES`] (nothing is sent), or a [`TransportError`] if
    /// the peer is gone. The in-process wire treats a departed peer as a
    /// no-op (fire-and-forget).
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError>;

    /// Receives one frame, blocking until it arrives (or the idle timeout
    /// fires, where supported).
    ///
    /// # Errors
    ///
    /// Returns a typed [`TransportError`] on disconnect, timeout, or a
    /// hostile frame header.
    fn recv_frame(&mut self) -> Result<Bytes, TransportError>;

    /// Sets (or clears) the blocking-receive idle timeout.
    ///
    /// Returns `false` if this transport cannot time out (the in-process
    /// wire blocks indefinitely); callers that need idle reaping should
    /// treat `false` as "always attended".
    fn set_idle_timeout(&mut self, _timeout: Option<Duration>) -> bool {
        false
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        (**self).send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        (**self).recv_frame()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        (**self).set_idle_timeout(timeout)
    }
}

/// [`TransportError::FrameTooLarge`] for a frame of `len` bytes.
fn too_large(len: usize) -> TransportError {
    TransportError::FrameTooLarge {
        len: u64::try_from(len).unwrap_or(u64::MAX),
        max: MAX_FRAME_BYTES as u64,
    }
}

impl Transport for Duplex {
    fn send_frame(&mut self, _kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(too_large(frame.len()));
        }
        self.sent().record(frame.len());
        // A disconnected peer is fine for fire-and-forget sends in tests.
        let _ = self.tx.send(frame);
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }
}

/// Wire header: one kind byte plus a big-endian u32 payload length.
const HEADER_BYTES: usize = 5;

/// Most a receive buffer reserves on the strength of a header's declared
/// length alone (covers a ROUNDS burst in one allocation); beyond it the
/// buffer grows only as payload bytes actually arrive.
const RECV_PREALLOC_BYTES: usize = 64 * 1024;

/// Largest receive buffer a [`FramedTcp`] keeps for its next frame: one
/// oversized frame (a big MODEL_PUT) does not pin its memory for the
/// connection's life.
const RECV_SPARE_BYTES: usize = 1 << 20;

/// Bytes a [`FramedTcp`] asks the socket for per read. Frames that arrive
/// back to back — a batch's CIPHER and ROUNDS frames streamed without a
/// request between them — come out of one read instead of two per frame
/// (header, then payload), and a frame up to this size is handed out only
/// once all of it is in.
const READ_AHEAD_BYTES: usize = 64 * 1024;

/// Length-prefixed framed transport over a blocking [`TcpStream`].
///
/// One instance owns one direction-pair of a socket (TCP is full-duplex, so
/// a single stream carries both directions). `TCP_NODELAY` is enabled —
/// GC rounds are request/response-shaped and latency-bound, not
/// throughput-bound, so Nagle buffering only hurts.
#[derive(Debug)]
pub struct FramedTcp {
    stream: TcpStream,
    sent: Counter,
    received: Counter,
    /// The last frame received, kept so the next receive can reuse its
    /// allocation once the reader has dropped every other handle to it.
    spare: Option<Bytes>,
    /// Bytes read but not yet handed out: `ahead[lo..hi]`
    /// ([`READ_AHEAD_BYTES`], allocated at the first receive).
    ahead: Box<[u8]>,
    lo: usize,
    hi: usize,
}

impl FramedTcp {
    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the connection cannot be
    /// established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<FramedTcp, TransportError> {
        Ok(FramedTcp::from_stream(TcpStream::connect(addr)?))
    }

    /// Wraps an accepted stream (server side).
    pub fn from_stream(stream: TcpStream) -> FramedTcp {
        // Best-effort: NODELAY failing is not worth killing the session over.
        let _ = stream.set_nodelay(true);
        FramedTcp {
            stream,
            sent: Counter::default(),
            received: Counter::default(),
            spare: None,
            ahead: Box::default(),
            lo: 0,
            hi: 0,
        }
    }

    /// Outbound tallies for this endpoint.
    pub fn sent(&self) -> &Counter {
        &self.sent
    }

    /// Inbound tallies for this endpoint.
    pub fn received(&self) -> &Counter {
        &self.received
    }

    /// Reads until at least `need` (≤ [`READ_AHEAD_BYTES`]) bytes are
    /// buffered, taking whatever the socket has per read. End of stream
    /// before that is [`io::ErrorKind::UnexpectedEof`]; on any error the
    /// bytes already buffered stay for the next call.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.hi - self.lo >= need {
            return Ok(());
        }
        if self.ahead.is_empty() {
            self.ahead = vec![0; READ_AHEAD_BYTES].into_boxed_slice();
        }
        self.ahead.copy_within(self.lo..self.hi, 0);
        (self.lo, self.hi) = (0, self.hi - self.lo);
        while self.hi < need {
            match self.stream.read(&mut self.ahead[self.hi..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(read) => self.hi += read,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Hands out up to `n` buffered bytes.
    fn take(&mut self, n: usize) -> &[u8] {
        let n = n.min(self.hi - self.lo);
        self.lo += n;
        &self.ahead[self.lo - n..self.lo]
    }
}

/// Writes a frame's header and payload as one gathered write — one syscall
/// and, with `TCP_NODELAY`, one segment train per frame instead of a 5-byte
/// segment ahead of every payload. A short write continues from where the
/// kernel stopped; a zero-length one is [`io::ErrorKind::WriteZero`].
fn write_frame<W: Write>(stream: &mut W, header: &[u8], payload: &[u8]) -> io::Result<()> {
    let mut parts = [IoSlice::new(header), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut parts, written),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

impl Transport for FramedTcp {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(too_large(frame.len()));
        }
        // Checked, not `as`: the length prefix is 32 bits and silently
        // truncating an oversized frame would desynchronize the stream.
        let wire_len = u32::try_from(frame.len()).map_err(|_| too_large(frame.len()))?;
        let mut header = [0u8; HEADER_BYTES];
        header[0] = kind.tag();
        header[1..].copy_from_slice(&wire_len.to_be_bytes());
        write_frame(&mut self.stream, &header, &frame)?;
        self.sent.record(frame.len());
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        self.fill(HEADER_BYTES)?;
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&self.ahead[self.lo..][..HEADER_BYTES]);
        let mut fields = Reader::new(&header);
        if FrameKind::from_tag(fields.u8("frame kind tag")?).is_none() {
            return Err(TransportError::Malformed("frame kind tag"));
        }
        let wire_len = fields.u32("frame length")?;
        // Checked, not `as`: the length field is attacker data, and on a
        // 16-bit-usize target a raw cast would silently wrap.
        let len = usize::try_from(wire_len).map_err(|_| TransportError::FrameTooLarge {
            len: u64::from(wire_len),
            max: MAX_FRAME_BYTES as u64,
        })?;
        if len > MAX_FRAME_BYTES {
            // Reject before allocating: the length field is attacker data.
            return Err(TransportError::FrameTooLarge {
                len: u64::from(wire_len),
                max: MAX_FRAME_BYTES as u64,
            });
        }
        // A frame that fits the read-ahead is taken whole from it once all
        // of it is in, header included, so a receive that fails (a
        // deadline) consumes nothing. A longer one takes what is buffered,
        // then reads the rest straight into its buffer: the 5-byte header
        // commits at most the cap below, read in one piece (`read_to_end`
        // alone would take a ROUNDS burst in three reads); past it the
        // buffer grows with the bytes that arrive, not with what the header
        // declares. The buffer is the last frame's when its reader has let
        // go of it (its stale bytes are overwritten), so a steady exchange
        // neither frees nor allocates a buffer per frame — which the
        // allocator would otherwise hand back to the kernel and fault in
        // again.
        let mut payload = self
            .spare
            .take()
            .and_then(|last| last.try_into_mut().ok())
            .map(Vec::from)
            .unwrap_or_default();
        payload.clear();
        if HEADER_BYTES + len <= READ_AHEAD_BYTES {
            self.fill(HEADER_BYTES + len)?;
            self.take(HEADER_BYTES);
            payload.extend_from_slice(self.take(len));
        } else {
            self.take(HEADER_BYTES);
            payload.extend_from_slice(self.take(len));
            let at = payload.len();
            payload.resize(at + (len - at).min(RECV_PREALLOC_BYTES), 0);
            self.stream.read_exact(&mut payload[at..])?;
        }
        let rest = len - payload.len();
        if rest > 0 {
            let got = Read::by_ref(&mut self.stream)
                .take(rest as u64)
                .read_to_end(&mut payload)?;
            if got != rest {
                return Err(TransportError::Disconnected);
            }
        }
        self.received.record(len);
        let keep = payload.capacity() <= RECV_SPARE_BYTES;
        let frame = Bytes::from(payload);
        self.spare = keep.then(|| frame.clone());
        Ok(frame)
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.stream.set_read_timeout(timeout).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{
        decode_blocks, decode_tables, encode_tables, lend_bits, put_bits, put_blocks, Reader,
    };
    use crate::GarbledTable;
    use bytes::BytesMut;
    use max_crypto::Block;
    use std::net::TcpListener;

    /// The bits of a frame holding one bit vector.
    fn bits_of(frame: Bytes) -> Vec<bool> {
        lend_bits(&mut Reader::new(&frame))
            .unwrap()
            .iter()
            .collect()
    }

    fn frame(put: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = BytesMut::with_capacity(0);
        put(&mut buf);
        buf.freeze()
    }

    fn loopback_pair() -> (FramedTcp, FramedTcp) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || FramedTcp::connect(addr).unwrap());
        let (server_stream, _) = listener.accept().unwrap();
        (
            FramedTcp::from_stream(server_stream),
            client.join().unwrap(),
        )
    }

    #[test]
    fn all_kinds_round_trip_over_loopback() {
        let (mut server, mut client) = loopback_pair();

        let blocks = vec![Block::new(3), Block::new(u128::MAX)];
        client
            .send_frame(FrameKind::Blocks, frame(|buf| put_blocks(buf, &blocks)))
            .unwrap();
        assert_eq!(decode_blocks(server.recv_frame().unwrap()).unwrap(), blocks);

        let tables = vec![
            GarbledTable {
                tg: Block::new(11),
                te: Block::new(13),
            };
            3
        ];
        server
            .send_frame(FrameKind::Raw, encode_tables(&tables))
            .unwrap();
        assert_eq!(decode_tables(client.recv_frame().unwrap()).unwrap(), tables);

        let bits: Vec<bool> = (0..17).map(|i| i % 2 == 0).collect();
        client
            .send_frame(FrameKind::Bits, frame(|buf| put_bits(buf, &bits)))
            .unwrap();
        assert_eq!(bits_of(server.recv_frame().unwrap()), bits);

        client
            .send_frame(FrameKind::Raw, Bytes::from(b"hello".to_vec()))
            .unwrap();
        assert_eq!(&server.recv_frame().unwrap()[..], b"hello");
    }

    #[test]
    fn accounting_matches_duplex_semantics() {
        let (mut server, mut client) = loopback_pair();
        let (mut a, mut b) = Duplex::pair();
        let blocks = frame(|buf| put_blocks(buf, &[Block::ZERO; 4]));
        client
            .send_frame(FrameKind::Blocks, blocks.clone())
            .unwrap();
        server.recv_frame().unwrap();
        a.send_frame(FrameKind::Blocks, blocks).unwrap();
        b.recv_frame().unwrap();

        // Same wire math as Duplex: 4-byte count + 4 * 16-byte blocks; the
        // 5-byte TCP header is framing, not payload.
        for counter in [client.sent(), server.received(), a.sent(), b.received()] {
            assert_eq!((counter.bytes(), counter.messages()), (68, 1));
        }
        for counter in [client.received(), server.sent(), a.received(), b.sent()] {
            assert_eq!((counter.bytes(), counter.messages()), (0, 0));
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let attacker = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            // kind=Raw, len=0xFFFF_FFFF: a 4 GiB claim with no payload.
            raw.write_all(&[0, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
            raw
        });
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = FramedTcp::from_stream(server_stream);
        let _keepalive = attacker.join().unwrap();
        assert_eq!(
            server.recv_frame(),
            Err(TransportError::FrameTooLarge {
                len: u32::MAX as u64,
                max: MAX_FRAME_BYTES as u64,
            })
        );
    }

    #[test]
    fn unknown_kind_tag_is_malformed() {
        // 2 is the retired table-vector tag; 9 was never assigned.
        for tag in [2u8, 9] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let attacker = std::thread::spawn(move || {
                let mut raw = TcpStream::connect(addr).unwrap();
                raw.write_all(&[tag, 0, 0, 0, 0]).unwrap();
                raw
            });
            let (server_stream, _) = listener.accept().unwrap();
            let mut server = FramedTcp::from_stream(server_stream);
            let _keepalive = attacker.join().unwrap();
            assert_eq!(
                server.recv_frame(),
                Err(TransportError::Malformed("frame kind tag")),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn truncated_stream_is_a_disconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let truncator = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            // Declare 100 bytes, send 3, hang up.
            raw.write_all(&[0, 0, 0, 0, 100]).unwrap();
            raw.write_all(&[1, 2, 3]).unwrap();
        });
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = FramedTcp::from_stream(server_stream);
        truncator.join().unwrap();
        assert_eq!(server.recv_frame(), Err(TransportError::Disconnected));
    }

    #[test]
    fn declared_maximum_with_three_bytes_is_a_disconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let truncator = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            // Declare the largest legal frame, send 3 bytes, hang up.
            let mut header = vec![0u8];
            header.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
            raw.write_all(&header).unwrap();
            raw.write_all(&[1, 2, 3]).unwrap();
        });
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = FramedTcp::from_stream(server_stream);
        truncator.join().unwrap();
        assert_eq!(server.recv_frame(), Err(TransportError::Disconnected));
    }

    #[test]
    fn frame_larger_than_the_preallocation_round_trips() {
        let (mut server, mut client) = loopback_pair();
        let payload: Vec<u8> = (0..4 << 20).map(|i| (i % 251) as u8).collect();
        assert!(payload.len() > RECV_PREALLOC_BYTES);
        let expected = Bytes::from(payload.clone());
        let sender = std::thread::spawn(move || {
            client
                .send_frame(FrameKind::Raw, Bytes::from(payload))
                .unwrap();
            client
        });
        assert_eq!(server.recv_frame().unwrap(), expected);
        let _client = sender.join().unwrap();
    }

    #[test]
    fn a_released_frame_buffer_is_reused_for_the_next_frame() {
        let (mut server, mut client) = loopback_pair();
        let long: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        for payload in [long.clone(), vec![9u8; 300], long.clone(), long] {
            client
                .send_frame(FrameKind::Raw, Bytes::from(payload))
                .unwrap();
        }
        let first = server.recv_frame().unwrap();
        let at = first.as_ptr();
        drop(first);
        // Dropped by its reader: the next frame lands in the same buffer,
        // shorter or longer, with none of the old bytes showing.
        let short = server.recv_frame().unwrap();
        assert_eq!((short.as_ptr(), &short[..]), (at, &[9u8; 300][..]));
        drop(short);
        let held = server.recv_frame().unwrap();
        assert_eq!(held.as_ptr(), at);
        // Still held: the next frame gets a buffer of its own.
        let next = server.recv_frame().unwrap();
        assert_ne!(next.as_ptr(), at);
        assert_eq!(held, next);
        assert_eq!(held.len(), 50_000);
    }

    /// Accepts at most `step` bytes per call, then nothing at all once
    /// `budget` bytes are in.
    struct Trickle {
        step: usize,
        budget: usize,
        taken: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.step.min(self.budget - self.taken.len());
            let before = self.taken.len();
            for buf in bufs {
                let take = buf.len().min(room);
                self.taken.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn gathered_write_continues_partial_writes() {
        let header = [2u8, 0, 0, 0, 11];
        let payload = b"hello world";
        let expected = [&header[..], &payload[..]].concat();
        // Steps that stop inside the header, at its edge and inside the
        // payload; a step covering the frame is a single call.
        for step in [1, 3, 5, 7, 16] {
            let mut sink = Trickle {
                step,
                budget: usize::MAX,
                taken: Vec::new(),
                calls: 0,
            };
            write_frame(&mut sink, &header, payload).unwrap();
            assert_eq!(sink.taken, expected, "step {step}");
            assert_eq!(sink.calls, expected.len().div_ceil(step), "step {step}");
        }
        let mut sink = Trickle {
            step: 16,
            budget: usize::MAX,
            taken: Vec::new(),
            calls: 0,
        };
        write_frame(&mut sink, &header, &[]).unwrap();
        assert_eq!(sink.taken, header);
    }

    #[test]
    fn gathered_write_that_stalls_is_a_typed_write_zero() {
        let mut sink = Trickle {
            step: 4,
            budget: 9,
            taken: Vec::new(),
            calls: 0,
        };
        let err = write_frame(&mut sink, &[0, 0, 0, 0, 11], b"hello world").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(matches!(
            TransportError::from(err),
            TransportError::Io {
                kind: io::ErrorKind::WriteZero,
                ..
            }
        ));
    }

    #[test]
    fn idle_timeout_fires_as_timed_out() {
        let (mut server, _client) = loopback_pair();
        assert!(server.set_idle_timeout(Some(Duration::from_millis(30))));
        assert_eq!(server.recv_frame(), Err(TransportError::TimedOut));
        // The duplex wire cannot time out and says so.
        let (mut a, _b) = Duplex::pair();
        assert!(!Transport::set_idle_timeout(
            &mut a,
            Some(Duration::from_millis(1))
        ));
    }

    #[test]
    fn a_frame_cut_by_a_deadline_is_received_whole_afterwards() {
        // Frames up to the read-ahead are handed out only once complete:
        // a receive that times out halfway through one consumes nothing,
        // and the next receive returns it whole, then the frames behind it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = FramedTcp::from_stream(server_stream);
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = vec![FrameKind::Raw.tag()];
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&payload);
        raw.write_all(&wire[..1500]).unwrap();
        assert!(server.set_idle_timeout(Some(Duration::from_millis(30))));
        assert_eq!(server.recv_frame(), Err(TransportError::TimedOut));
        // The rest, and two more frames back to back, one past the
        // read-ahead.
        let long: Vec<u8> = (0..(READ_AHEAD_BYTES as u32 + 7))
            .map(|i| i as u8)
            .collect();
        raw.write_all(&wire[1500..]).unwrap();
        for frame in [&[7u8; 9][..], &long] {
            raw.write_all(&[FrameKind::Blocks.tag()]).unwrap();
            raw.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
            raw.write_all(frame).unwrap();
        }
        assert!(server.set_idle_timeout(None));
        assert_eq!(server.recv_frame().unwrap()[..], payload[..]);
        assert_eq!(server.recv_frame().unwrap()[..], [7u8; 9]);
        assert_eq!(server.recv_frame().unwrap()[..], long[..]);
        assert_eq!(server.received().messages(), 3);
    }

    #[test]
    fn oversized_send_is_rejected_locally() {
        let (a, b) = Duplex::pair();
        let (tcp_server, tcp_client) = loopback_pair();
        let pairs: [(Box<dyn Transport>, Box<dyn Transport>); 2] = [
            (Box::new(a), Box::new(b)),
            (Box::new(tcp_client), Box::new(tcp_server)),
        ];
        let huge = Bytes::from(vec![0u8; MAX_FRAME_BYTES + 1]);
        for (mut sender, mut receiver) in pairs {
            assert_eq!(
                sender.send_frame(FrameKind::Raw, huge.clone()),
                Err(TransportError::FrameTooLarge {
                    len: (MAX_FRAME_BYTES + 1) as u64,
                    max: MAX_FRAME_BYTES as u64,
                })
            );
            // Nothing was queued: the next frame the peer sees is the next
            // one sent.
            sender
                .send_frame(FrameKind::Raw, Bytes::from(b"next".to_vec()))
                .unwrap();
            assert_eq!(&receiver.recv_frame().unwrap()[..], b"next");
        }
    }

    #[test]
    fn transport_trait_is_object_safe_across_impls() {
        let (a, b) = Duplex::pair();
        let (tcp_server, tcp_client) = loopback_pair();
        let mut ends: Vec<Box<dyn Transport>> = vec![
            Box::new(a),
            Box::new(b),
            Box::new(tcp_server),
            Box::new(tcp_client),
        ];
        // a -> b and tcp_client -> tcp_server through the same interface.
        let bits = |bits: &[bool]| frame(|buf| put_bits(buf, bits));
        ends[0]
            .send_frame(FrameKind::Bits, bits(&[true, false]))
            .unwrap();
        assert_eq!(bits_of(ends[1].recv_frame().unwrap()), vec![true, false]);
        ends[3]
            .send_frame(FrameKind::Bits, bits(&[false, true]))
            .unwrap();
        assert_eq!(bits_of(ends[2].recv_frame().unwrap()), vec![false, true]);
    }
}
