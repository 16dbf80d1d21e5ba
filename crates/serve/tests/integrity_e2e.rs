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
//! insists it still never yields a result. The third follows that
//! substitution with a power cut and a restart from the journal, where the
//! server adopts the client's digest on RESUME (v8), and insists the
//! outcome is still the plaintext.

use std::time::Duration;

use bytes::Bytes;
use max_gc::channel::{FrameKind, TransportError};
use max_gc::Transport;
use max_serve::{demo_vector, demo_weights, plain_matvec, GcService, JournalConfig, ServeConfig};
use maxelerator::{
    AcceleratorConfig, AcceleratorError, RemoteClient, ResilientClient, RetryPolicy,
};
use proptest::prelude::*;

mod power_cut;
use power_cut::{only_segment, power_cut_image};

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
/// the server really sealed, of the same length, in the wrong place — and,
/// when `cut`, dies right after it: nothing more reaches either side.
struct ReplayRounds<T> {
    inner: T,
    /// Output element whose ROUNDS frame is replaced (≥ 1).
    element: usize,
    received: usize,
    previous: Option<Bytes>,
    cut: bool,
    dead: bool,
}

impl<T> ReplayRounds<T> {
    fn new(inner: T, element: usize, cut: bool) -> ReplayRounds<T> {
        ReplayRounds {
            inner,
            element,
            received: 0,
            previous: None,
            cut,
            dead: false,
        }
    }
}

impl<T: Transport> Transport for ReplayRounds<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        if self.dead {
            return Err(TransportError::Disconnected);
        }
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        if self.dead {
            return Err(TransportError::Disconnected);
        }
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
            self.dead = self.cut;
            return Ok(stale);
        }
        Ok(frame)
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// A substituted frame passes the CRC, so only the transcript digest can
/// see it: inside a batch that is not the job's last, the server's check
/// of the next batch's EXT mark refuses it; in the last batch the client's
/// check of the STATS digest does. Either way the job ends typed
/// `Integrity`, never in a result. The 8 × 8 model at b = 8 with ten
/// columns is two batches, elements 0..64 and 64..80; the 3 × 3 one-column
/// job is one.
#[test]
fn validly_sealed_substituted_rounds_frame_never_yields_a_result() {
    const BATCHED: (usize, usize, usize) = (8, 8, 10);
    for ((rows, cols, columns), element, caught_by_server) in [
        (BATCHED, 1, true),
        (BATCHED, 63, true),
        (BATCHED, 70, false),
        ((ROWS, COLS, 1), ROWS - 1, false),
    ] {
        let weights = demo_weights(rows, cols, WIDTH, SEED);
        let cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, SEED);
        let service = GcService::start(cfg);
        let wire = ReplayRounds::new(service.connect(), element, false);
        let mut client = RemoteClient::connect(wire, WIDTH).expect("handshake");
        let xs: Vec<Vec<i64>> = (0..columns as u64)
            .map(|i| demo_vector(cols, WIDTH, SEED ^ (7 + i)))
            .collect();
        let outcome = client.secure_matmul(&xs);
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

/// A substituted ROUNDS(e), then a power cut: the client has evaluated `e`
/// from the wrong frame, and the server restarts from what its journal
/// had synced, the job's one record. The client resumes at the start of
/// `e`'s batch, whose digest the server verified when it answered that
/// batch's EXT, so the batch is served again from the job seed. The
/// outcome is the plaintext `W·x`: never the number the substituted frame
/// made, which a RESUME with the client's newest digest, unchecked, would
/// carry into a result every later check agrees with.
#[test]
fn substituted_rounds_then_a_power_cut_never_yields_a_wrong_result() {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 7),
        demo_vector(COLS, WIDTH, SEED ^ 8),
    ];
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();
    let journaled = |dir: &std::path::Path| {
        let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights.clone(), SEED);
        let mut journal = JournalConfig::new(dir);
        journal.fsync = false; // the image below is what a sync would keep
        cfg.journal = Some(journal);
        GcService::start(cfg)
    };
    // Every element with a predecessor to substitute, the job's last
    // included: the cut stops everything after the substitution, STATS
    // too.
    for element in 1..xs.len() * ROWS {
        let dir = power_cut::temp_dir("integrity-e2e", "substituted");
        let first = journaled(&dir);
        let wire = ReplayRounds::new(first.connect(), element, true);
        let mut client = RemoteClient::connect(wire, WIDTH).expect("handshake");
        let mut progress = client.start_job(&xs).expect("job admitted");
        client
            .run_job(&mut progress)
            .expect_err("the cut kills the run");
        let (dead, state) = client.into_parts();
        drop(dead);
        drop(first);

        let segment = only_segment(&dir);
        let bytes = std::fs::read(&segment).expect("read segment");
        std::fs::write(&segment, power_cut_image(&bytes)).expect("power cut");

        let second = journaled(&dir);
        let mut client = RemoteClient::reattach(second.connect(), state);
        let outcome = client
            .resume_job(&mut progress)
            .and_then(|()| client.run_job(&mut progress));
        assert_eq!(outcome, Ok(()), "element {element}");
        let (ys, _) = progress.into_result();
        assert_eq!(ys, expected, "element {element}: W·x, not another number");
        client.goodbye();
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
