//! Pluggable two-party transport: the [`Transport`] trait and its two
//! implementations — the in-process [`Duplex`] wire and a length-prefixed
//! framed transport over [`std::net::TcpStream`].
//!
//! Both speak the same typed-frame vocabulary ([`FrameKind`] + the codecs in
//! [`channel`](crate::channel)) and feed the same per-kind
//! [`Counter`]/[`ChannelStats`] accounting and telemetry keys, so moving a
//! protocol from in-memory to TCP changes nothing about what is measured —
//! only where the bytes go.
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
//! `kind` is [`FrameKind`]'s stable index; `len` is validated against
//! [`MAX_FRAME_BYTES`] *before* any allocation, so a hostile peer cannot make
//! the receiver reserve gigabytes with a five-byte header.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;
use max_crypto::Block;

use crate::channel::{
    decode_bits, decode_blocks, decode_tables, encode_bits, encode_blocks, encode_tables,
    ChannelStats, Counter, Duplex, FrameKind, TransportError, MAX_FRAME_BYTES,
};
use crate::engine::GarbledTable;

/// A byte-framed, kind-tagged duplex wire between two protocol parties.
///
/// Implementations must preserve frame boundaries (one `send_frame` is one
/// `recv_frame`) and keep the shared per-kind byte accounting. The provided
/// typed helpers reuse the channel codecs, so every implementation rejects
/// hostile or malformed frames with the same [`TransportError`]s.
pub trait Transport: Send {
    /// Sends one frame of `kind`.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the frame exceeds
    /// [`MAX_FRAME_BYTES`] or the peer is gone. In-process transports treat
    /// a departed peer as a no-op (fire-and-forget, matching
    /// [`Duplex::send_bytes`]).
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError>;

    /// Receives one frame, blocking until it arrives (or the idle timeout
    /// fires, where supported).
    ///
    /// # Errors
    ///
    /// Returns a typed [`TransportError`] on disconnect, timeout, or a
    /// hostile frame header.
    fn recv_frame(&mut self) -> Result<Bytes, TransportError>;

    /// Snapshot of everything sent through this endpoint.
    fn sent_stats(&self) -> ChannelStats;

    /// Snapshot of everything received by this endpoint.
    fn received_stats(&self) -> ChannelStats;

    /// Sets (or clears) the blocking-receive idle timeout.
    ///
    /// Returns `false` if this transport cannot time out (the in-process
    /// wire blocks indefinitely); callers that need idle reaping should
    /// treat `false` as "always attended".
    fn set_idle_timeout(&mut self, _timeout: Option<Duration>) -> bool {
        false
    }

    /// Sends a block vector as one [`FrameKind::Blocks`] frame.
    ///
    /// # Errors
    ///
    /// See [`Transport::send_frame`].
    fn write_blocks(&mut self, blocks: &[Block]) -> Result<(), TransportError> {
        self.send_frame(FrameKind::Blocks, encode_blocks(blocks))
    }

    /// Receives a block vector.
    ///
    /// # Errors
    ///
    /// See [`Transport::recv_frame`] and [`decode_blocks`].
    fn read_blocks(&mut self) -> Result<Vec<Block>, TransportError> {
        decode_blocks(self.recv_frame()?)
    }

    /// Sends garbled tables as one [`FrameKind::Tables`] frame.
    ///
    /// # Errors
    ///
    /// See [`Transport::send_frame`].
    fn write_tables(&mut self, tables: &[GarbledTable]) -> Result<(), TransportError> {
        self.send_frame(FrameKind::Tables, encode_tables(tables))
    }

    /// Receives a garbled-table vector.
    ///
    /// # Errors
    ///
    /// See [`Transport::recv_frame`] and [`decode_tables`].
    fn read_tables(&mut self) -> Result<Vec<GarbledTable>, TransportError> {
        decode_tables(self.recv_frame()?)
    }

    /// Sends a bit vector as one packed [`FrameKind::Bits`] frame.
    ///
    /// # Errors
    ///
    /// See [`Transport::send_frame`].
    fn write_bits(&mut self, bits: &[bool]) -> Result<(), TransportError> {
        self.send_frame(FrameKind::Bits, encode_bits(bits))
    }

    /// Receives a packed bit vector.
    ///
    /// # Errors
    ///
    /// See [`Transport::recv_frame`] and [`decode_bits`].
    fn read_bits(&mut self) -> Result<Vec<bool>, TransportError> {
        decode_bits(self.recv_frame()?)
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        (**self).send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        (**self).recv_frame()
    }

    fn sent_stats(&self) -> ChannelStats {
        (**self).sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        (**self).received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        (**self).set_idle_timeout(timeout)
    }
}

impl Transport for Duplex {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        Duplex::send_frame(self, kind, frame);
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        Ok(self.recv_bytes()?)
    }

    fn sent_stats(&self) -> ChannelStats {
        self.sent().stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.received().stats()
    }
}

/// Wire header: one kind byte plus a big-endian u32 payload length.
const HEADER_BYTES: usize = 5;

/// Most a receive buffer reserves on the strength of a header's declared
/// length alone (covers a ROUNDS burst in one allocation); beyond it the
/// buffer grows only as payload bytes actually arrive.
const RECV_PREALLOC_BYTES: usize = 64 * 1024;

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
        }
    }

    /// The peer's socket address, if the stream still knows it.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.stream.peer_addr().ok()
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
            return Err(TransportError::FrameTooLarge {
                len: u64::try_from(frame.len()).unwrap_or(u64::MAX),
                max: MAX_FRAME_BYTES as u64,
            });
        }
        // Checked, not `as`: the length prefix is 32 bits and silently
        // truncating an oversized frame would desynchronize the stream.
        let wire_len = u32::try_from(frame.len()).map_err(|_| TransportError::FrameTooLarge {
            len: u64::try_from(frame.len()).unwrap_or(u64::MAX),
            max: MAX_FRAME_BYTES as u64,
        })?;
        let mut header = [0u8; HEADER_BYTES];
        header[0] = kind.index() as u8;
        header[1..].copy_from_slice(&wire_len.to_be_bytes());
        write_frame(&mut self.stream, &header, &frame)?;
        self.sent.record(kind, frame.len());
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let mut header = [0u8; HEADER_BYTES];
        self.stream.read_exact(&mut header)?;
        let Some(kind) = FrameKind::from_index(header[0]) else {
            return Err(TransportError::Malformed("frame kind tag"));
        };
        let wire_len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
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
        // A 5-byte header commits at most the cap below, read in one piece
        // (`read_to_end` alone would take a ROUNDS burst in three reads);
        // past it the buffer grows with the bytes that arrive, not with
        // what the header declares.
        let mut payload = vec![0u8; len.min(RECV_PREALLOC_BYTES)];
        self.stream.read_exact(&mut payload)?;
        let rest = len - payload.len();
        if rest > 0 {
            let got = Read::by_ref(&mut self.stream)
                .take(rest as u64)
                .read_to_end(&mut payload)?;
            if got != rest {
                return Err(TransportError::Disconnected);
            }
        }
        self.received.record(kind, len);
        Ok(Bytes::from(payload))
    }

    fn sent_stats(&self) -> ChannelStats {
        self.sent.stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.received.stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.stream.set_read_timeout(timeout).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

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
        client.write_blocks(&blocks).unwrap();
        assert_eq!(server.read_blocks().unwrap(), blocks);

        let tables = vec![
            GarbledTable {
                tg: Block::new(11),
                te: Block::new(13),
            };
            3
        ];
        server.write_tables(&tables).unwrap();
        assert_eq!(client.read_tables().unwrap(), tables);

        let bits: Vec<bool> = (0..17).map(|i| i % 2 == 0).collect();
        client.write_bits(&bits).unwrap();
        assert_eq!(server.read_bits().unwrap(), bits);

        client
            .send_frame(FrameKind::Raw, Bytes::from(b"hello".to_vec()))
            .unwrap();
        assert_eq!(&server.recv_frame().unwrap()[..], b"hello");
    }

    #[test]
    fn accounting_matches_duplex_semantics() {
        let (mut server, mut client) = loopback_pair();
        client.write_blocks(&[Block::ZERO; 4]).unwrap();
        server.read_blocks().unwrap();

        // Same wire math as Duplex: 4-byte count + 4 * 16-byte blocks.
        let sent = client.sent_stats();
        assert_eq!(sent.blocks.bytes, 68);
        assert_eq!(sent.blocks.messages, 1);
        assert_eq!(sent.bytes, 68);
        let recv = server.received_stats();
        assert_eq!(recv, sent);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let attacker = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&[9, 0, 0, 0, 0]).unwrap();
            raw
        });
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = FramedTcp::from_stream(server_stream);
        let _keepalive = attacker.join().unwrap();
        assert_eq!(
            server.recv_frame(),
            Err(TransportError::Malformed("frame kind tag"))
        );
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
    fn oversized_send_is_rejected_locally() {
        let (mut server, _client) = loopback_pair();
        let huge = Bytes::from(vec![0u8; MAX_FRAME_BYTES + 1]);
        assert!(matches!(
            server.send_frame(FrameKind::Raw, huge),
            Err(TransportError::FrameTooLarge { .. })
        ));
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
        ends[0].write_bits(&[true, false]).unwrap();
        assert_eq!(ends[1].read_bits().unwrap(), vec![true, false]);
        ends[3].write_bits(&[false, true]).unwrap();
        assert_eq!(ends[2].read_bits().unwrap(), vec![false, true]);
    }
}
