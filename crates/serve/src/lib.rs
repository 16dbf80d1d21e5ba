//! # max-serve
//!
//! The serving layer the paper's deployment story implies but never builds:
//! a cloud-side garbler that many evaluators connect to concurrently.
//!
//! ```text
//!  client (loadgen / RemoteClient)          server (serve / GcService)
//!  ───────────────────────────────          ─────────────────────────────
//!        Transport (Duplex | FramedTcp over loopback/real TCP)
//!                      │ handshake, jobs, OT, rounds
//!                      ▼
//!              session thread  ──── submit ───▶  FairQueue (bounded,
//!              (one per client)                  round-robin per session)
//!                      ▲                                │
//!                      │ MaterializedJob                ▼
//!                      ├──────────────────────  UnitPool workers
//!                      │                         (fill_stream on a modeled
//!                      │ MaterializedJob          MAXelerator fabric)
//!                      └── ModelRegistry stock ◀── the same fill_stream,
//!                          (warm, single use)      run in pool idle time
//! ```
//!
//! A job is served one way: resolve it to a stream — popped warm from a
//! model's stock, or filled on the pool for a session-default job, a
//! starved fallback or a RESUME — and stream that.
//!
//! Everything is deterministic given the base seed: jobs carry derived
//! seeds, so the garbled transcript is bit-identical whichever unit runs
//! the job and whichever transport carries it — the property the e2e
//! parity tests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod journal;
pub mod resume;
pub mod scheduler;
mod service;
mod session;

use bytes::Bytes;
use max_gc::channel::{ChannelStats, FrameKind, TransportError};
use max_gc::Transport;
use maxelerator::remote::derive_seed;

pub use breaker::{Breaker, BreakerConfig};
pub use journal::{Journal, JournalConfig, JournalError, ReplayReport};
pub use resume::{ResumeRegistry, SessionCheckpoint};
pub use scheduler::{IdleFill, JobRequest, JobResult, QueueFull, UnitPool};
pub use service::{listen_tcp, GcService, ServeConfig, ServeHandle, ServeStats};
pub use session::{SessionSummary, MAX_JOB_COLUMNS};

// The prepared-model registry the service embeds; re-exported so binaries
// and tests reach its types without naming the crate twice.
pub use max_registry::{
    stream_digest, Acquired, Eviction, EvictionKind, FallbackTicket, ModelRegistry, PreparedStream,
    RegisterError, RegistryConfig, RegistryStats,
};

use max_telemetry::FlightRecorder;
use std::sync::Arc;

/// A [`Transport`] that mirrors every frame crossing it into a
/// [`FlightRecorder`] as `frame.send` / `frame.recv` events (detail = frame
/// kind, value = payload bytes). The frames themselves pass through
/// untouched, so wrapping a session in one changes nothing on the wire —
/// the transcript-parity tests hold with or without it.
#[derive(Debug)]
pub struct FlightTransport<T: Transport> {
    inner: T,
    flight: Arc<FlightRecorder>,
}

impl<T: Transport> FlightTransport<T> {
    /// Wraps a transport; every frame is logged to `flight`.
    pub fn new(inner: T, flight: Arc<FlightRecorder>) -> FlightTransport<T> {
        FlightTransport { inner, flight }
    }

    /// The attached recorder.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for FlightTransport<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        self.flight
            .log("frame.send", format!("{kind:?}"), frame.len() as u64);
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        match self.inner.recv_frame() {
            Ok(frame) => {
                self.flight.log("frame.recv", "", frame.len() as u64);
                Ok(frame)
            }
            Err(err) => {
                self.flight.log("frame.recv.error", format!("{err:?}"), 0);
                Err(err)
            }
        }
    }

    fn sent_stats(&self) -> ChannelStats {
        self.inner.sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.inner.received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<std::time::Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// A [`Transport`] wrapper that records every frame in both directions —
/// the instrument behind the "TCP transcript == in-memory transcript"
/// parity tests and wire-level debugging.
#[derive(Debug)]
pub struct RecordingTransport<T: Transport> {
    inner: T,
    sent: Vec<(FrameKind, Bytes)>,
    received: Vec<Bytes>,
}

impl<T: Transport> RecordingTransport<T> {
    /// Wraps a transport.
    pub fn new(inner: T) -> RecordingTransport<T> {
        RecordingTransport {
            inner,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }

    /// Every frame sent, in order, with its kind.
    pub fn sent_frames(&self) -> &[(FrameKind, Bytes)] {
        &self.sent
    }

    /// Every frame received, in order.
    pub fn received_frames(&self) -> &[Bytes] {
        &self.received
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        self.sent.push((kind, frame.clone()));
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        self.received.push(frame.clone());
        Ok(frame)
    }

    fn sent_stats(&self) -> ChannelStats {
        self.inner.sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.inner.received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<std::time::Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

fn demo_value(bit_width: usize, seed: u64, index: u64) -> i64 {
    let span = 1i64 << bit_width; // full signed range [-2^(b-1), 2^(b-1))
    let raw = derive_seed(seed, index) % span as u64;
    raw as i64 - (span / 2)
}

/// Deterministic demo model shared by `serve`, `loadgen`, benches, and
/// tests: both ends regenerate the same matrix from `(rows, cols,
/// bit_width, seed)`, so the load generator can verify every result
/// against plaintext.
pub fn demo_weights(rows: usize, cols: usize, bit_width: usize, seed: u64) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| demo_value(bit_width, seed, (r * cols + c) as u64))
                .collect()
        })
        .collect()
}

/// Deterministic demo client vector (see [`demo_weights`]).
pub fn demo_vector(cols: usize, bit_width: usize, seed: u64) -> Vec<i64> {
    (0..cols)
        .map(|c| demo_value(bit_width, seed ^ 0x005e_edc1_1e47, c as u64))
        .collect()
}

/// Plaintext reference `W·x` for verifying served results.
pub fn plain_matvec(weights: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
    weights
        .iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_data_is_deterministic_and_in_range() {
        let w1 = demo_weights(3, 4, 8, 42);
        let w2 = demo_weights(3, 4, 8, 42);
        assert_eq!(w1, w2);
        assert_ne!(w1, demo_weights(3, 4, 8, 43));
        for row in &w1 {
            for &v in row {
                assert!((-128..=127).contains(&v), "{v} out of i8 range");
            }
        }
        let x = demo_vector(4, 8, 42);
        assert_eq!(x.len(), 4);
        for &v in &x {
            assert!((-128..=127).contains(&v));
        }
    }

    #[test]
    fn recording_transport_captures_both_directions() {
        use max_gc::channel::Duplex;
        let (a, mut b) = Duplex::pair();
        let mut rec = RecordingTransport::new(a);
        rec.send_frame(FrameKind::Raw, Bytes::from(b"ping".to_vec()))
            .unwrap();
        b.send_bytes(Bytes::from(b"pong".to_vec()));
        let got = rec.recv_frame().unwrap();
        assert_eq!(&got[..], b"pong");
        assert_eq!(rec.sent_frames().len(), 1);
        assert_eq!(rec.sent_frames()[0].0, FrameKind::Raw);
        assert_eq!(&rec.sent_frames()[0].1[..], b"ping");
        assert_eq!(rec.received_frames().len(), 1);
        assert_eq!(&rec.received_frames()[0][..], b"pong");
    }
}
