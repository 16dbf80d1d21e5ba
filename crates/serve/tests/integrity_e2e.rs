//! Keystone integrity property: flip **any single bit** at **any offset**
//! of **any frame** of a live served job — in either direction — and the
//! outcome is *detected* (a typed checksum/digest error healed by a
//! bounded retry) or *harmless*. It is never a silently wrong plaintext.
//!
//! This is the end-to-end proof of the v7 integrity ladder: the CRC seal
//! catches the flip at framing, the transcript digest catches anything
//! that slips past framing into GC state, and the resilient client turns
//! either detection into a rewind + retry. The property quantifies over
//! the whole frame space, so it also covers the handshake and control
//! frames the chaos soak only samples.
//!
//! Since v7 the digest folds a CIPHER/ROUNDS frame by its seal, not its
//! bytes, so the second test here swaps in a *different, validly sealed*
//! frame of the same length — the case a bit flip cannot reach — and
//! insists it still never yields a result.

use std::time::Duration;

use bytes::Bytes;
use max_gc::channel::{ChannelStats, FrameKind, TransportError};
use max_gc::Transport;
use max_serve::{demo_vector, demo_weights, plain_matvec, GcService, ServeConfig};
use maxelerator::{
    AcceleratorConfig, AcceleratorError, RemoteClient, ResilientClient, RetryPolicy,
};
use proptest::prelude::*;

const WIDTH: usize = 8;
const ROWS: usize = 3;
const COLS: usize = 3;
const SEED: u64 = 0x1B17;

/// A transport that flips exactly one bit of exactly one frame, then
/// passes everything else through untouched. Unlike [`max_gc::FaultTransport`]
/// (seeded rates, send-only), this targets a precise `(direction, frame,
/// offset, bit)` coordinate so the property can sweep the frame space.
struct FlipOneBit<T> {
    inner: T,
    /// Flip an outbound (client→server) frame; otherwise inbound.
    outbound: bool,
    /// Index of the frame to hit, counted per direction.
    target: u64,
    /// Offset is `draw % len`, so any draw lands inside any frame.
    offset_draw: u64,
    bit: u8,
    seen: u64,
    armed: bool,
}

impl<T> FlipOneBit<T> {
    fn flip(&mut self, frame: Bytes) -> Bytes {
        let idx = self.seen;
        self.seen += 1;
        if !self.armed || idx != self.target || frame.is_empty() {
            return frame;
        }
        self.armed = false;
        let mut bytes = frame.to_vec();
        let offset = (self.offset_draw % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << (self.bit % 8);
        Bytes::from(bytes)
    }
}

impl<T: Transport> Transport for FlipOneBit<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        let frame = if self.outbound {
            self.flip(frame)
        } else {
            frame
        };
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        Ok(if self.outbound {
            frame
        } else {
            self.flip(frame)
        })
    }

    fn sent_stats(&self) -> ChannelStats {
        self.inner.sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.inner.received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// One served job under a single targeted bit flip: the result must be
/// the correct plaintext (healed or untouched), and if the flip landed on
/// a frame the client or server actually exchanged, the ladder must have
/// *detected* rather than silently absorbed it.
fn run_flip(outbound: bool, target: u64, offset_draw: u64, bit: u8) {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
    // A corrupt client frame kills the server session; the client only
    // notices via its step deadline, so keep both deadlines short.
    cfg.step_timeout = Some(Duration::from_millis(80));
    let service = GcService::start(cfg);
    let x = demo_vector(COLS, WIDTH, SEED ^ 7);
    let expected = plain_matvec(&weights, &x);

    let svc = service.clone();
    let mut dials = 0u64;
    let mut client = ResilientClient::new(
        move || {
            dials += 1;
            Ok(FlipOneBit {
                inner: svc.connect(),
                outbound,
                target,
                offset_draw,
                bit,
                seen: 0,
                // Only the first connection carries the flip; recovery
                // dials get a clean wire.
                armed: dials == 1,
            })
        },
        WIDTH,
        RetryPolicy {
            max_attempts: 12,
            base_backoff_ms: 15,
            max_backoff_ms: 120,
            step_timeout: Some(Duration::from_millis(400)),
            jitter_seed: SEED ^ target,
            integrity_retries: 8,
        },
    );

    let (y, _) = client
        .secure_matvec(&x)
        .expect("a single bit flip must be healed, not fatal");
    assert_eq!(
        y, expected,
        "flip(outbound={outbound}, frame={target}, draw={offset_draw}, bit={bit}) \
         produced silently wrong plaintext"
    );
    drop(client);
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_single_bit_flip_is_detected_or_harmless(
        outbound in any::<bool>(),
        // Handshake (4) + 3 frame events per element (3 elements) + STATS:
        // the range sweeps past the last frame so "flip never fires" is
        // part of the property too.
        target in 0u64..13,
        offset_draw in any::<u64>(),
        bit in 0u8..8,
    ) {
        run_flip(outbound, target, offset_draw, bit);
    }
}

/// Deterministic anchors on top of the property sweep: the first frame of
/// each direction (HELLO / ACCEPT) and the first data frames, low and
/// high bits — the cases a regression would most plausibly reintroduce.
#[test]
fn anchor_flips_heal_in_both_directions() {
    for (outbound, target) in [(true, 0), (false, 0), (true, 2), (false, 2), (false, 3)] {
        run_flip(outbound, target, 9, 0);
        run_flip(outbound, target, 4, 7);
    }
}

/// Replaces one inbound ROUNDS frame with the previous element's — a frame
/// the server really sealed, of the same length, in the wrong place.
struct ReplayRounds<T> {
    inner: T,
    /// Output element whose ROUNDS frame is replaced (≥ 1).
    element: usize,
    received: usize,
    previous: Option<Bytes>,
}

impl<T: Transport> Transport for ReplayRounds<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        // Inbound: ACCEPT, READY, then CIPHER + ROUNDS per element.
        let index = self.received;
        self.received += 1;
        if index < 2 || index.is_multiple_of(2) {
            return Ok(frame);
        }
        let element = (index - 3) / 2;
        if element + 1 == self.element {
            self.previous = Some(frame.clone());
        } else if element == self.element {
            let stale = self.previous.take().expect("saw the previous element");
            assert!(max_gc::channel::is_sealed(&stale));
            assert_eq!(stale.len(), frame.len());
            assert_ne!(stale, frame);
            return Ok(stale);
        }
        Ok(frame)
    }

    fn sent_stats(&self) -> ChannelStats {
        self.inner.sent_stats()
    }

    fn received_stats(&self) -> ChannelStats {
        self.inner.received_stats()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// A substituted frame passes the CRC, so only the transcript digest can
/// see it: mid-job the server's check of the next EXT mark refuses it,
/// on the last element the client's check of the STATS digest does.
/// Either way the job ends typed `Integrity`, never in a result.
#[test]
fn validly_sealed_substituted_rounds_frame_never_yields_a_result() {
    for (element, caught_by_server) in [(1, true), (ROWS - 1, false)] {
        let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
        let cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, SEED);
        let service = GcService::start(cfg);
        let wire = ReplayRounds {
            inner: service.connect(),
            element,
            received: 0,
            previous: None,
        };
        let mut client = RemoteClient::connect(wire, WIDTH).expect("handshake");
        let outcome = client.secure_matvec(&demo_vector(COLS, WIDTH, SEED ^ 7));
        assert!(
            matches!(outcome, Err(AcceleratorError::Integrity { .. })),
            "element {element}: expected a typed integrity error, got {outcome:?}"
        );
        drop(client);
        let stats = service.shutdown();
        assert_eq!(
            stats.integrity_rejects,
            u64::from(caught_by_server),
            "element {element}"
        );
        assert_eq!(stats.jobs_completed, u64::from(!caught_by_server));
    }
}
