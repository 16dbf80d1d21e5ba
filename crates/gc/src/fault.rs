//! Deterministic, seed-driven fault injection for any [`Transport`].
//!
//! [`FaultTransport`] wraps a real transport and perturbs the frame stream
//! according to a [`FaultSpec`]: drops, bounded delays, partial writes
//! (truncation), duplicated and reordered frames, single-bit corruption,
//! and a hard connection cut after a fixed number of frame events. Every
//! decision derives from `(seed, per-direction event counter)` through a
//! splitmix permutation, so a chaos run is a pure function of its spec —
//! replayable in CI, bisectable when it finds a bug.
//!
//! Faults apply to the *send* path (what this endpoint emits) plus delays
//! on receive; the cut severs both directions. A spec with every rate at
//! zero and no cut is a bit-exact passthrough: same frames, same byte and
//! message counts — the invariant the zero-fault proptests pin down.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use max_telemetry::FlightRecorder;

use crate::channel::{is_sealed, FrameKind, TransportError, SEAL_BYTES};
use crate::transport::Transport;

/// Per-mille fault rates plus the seed they derive from.
///
/// Rates are per 1000 frame events on the affected path (a rate of 1000
/// fires on every event). All-zero rates with no cut mean "no faults".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Sent frames silently discarded (per mille).
    pub drop_per_mille: u16,
    /// Sent frames with one bit flipped (per mille).
    pub corrupt_per_mille: u16,
    /// Sent frames delivered twice (per mille).
    pub duplicate_per_mille: u16,
    /// Sent frames held back and swapped with the next send (per mille).
    pub reorder_per_mille: u16,
    /// Sent frames truncated to a strict prefix — a partial write whose
    /// payload no longer matches its protocol-level length fields
    /// (per mille).
    pub truncate_per_mille: u16,
    /// Frame events stalled by a bounded deterministic sleep (per mille,
    /// both directions).
    pub delay_per_mille: u16,
    /// Upper bound for an injected delay, in milliseconds (each delay picks
    /// `1..=max` deterministically).
    pub max_delay_ms: u64,
    /// Sever the connection after this many frame events (sends + receives
    /// combined): every later call fails with
    /// [`TransportError::Disconnected`].
    pub cut_after_frames: Option<u64>,
}

impl FaultSpec {
    /// A spec with every fault disabled — the zero-fault passthrough.
    pub fn none(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            truncate_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ms: 0,
            cut_after_frames: None,
        }
    }

    /// Sets the drop rate.
    pub fn with_drops(mut self, per_mille: u16) -> FaultSpec {
        self.drop_per_mille = per_mille;
        self
    }

    /// Sets the corruption rate.
    pub fn with_corruption(mut self, per_mille: u16) -> FaultSpec {
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Sets the duplication rate.
    pub fn with_duplicates(mut self, per_mille: u16) -> FaultSpec {
        self.duplicate_per_mille = per_mille;
        self
    }

    /// Sets the reorder rate.
    pub fn with_reordering(mut self, per_mille: u16) -> FaultSpec {
        self.reorder_per_mille = per_mille;
        self
    }

    /// Sets the truncation (partial write) rate.
    pub fn with_truncation(mut self, per_mille: u16) -> FaultSpec {
        self.truncate_per_mille = per_mille;
        self
    }

    /// Sets the delay rate and bound.
    pub fn with_delays(mut self, per_mille: u16, max_delay_ms: u64) -> FaultSpec {
        self.delay_per_mille = per_mille;
        self.max_delay_ms = max_delay_ms;
        self
    }

    /// Severs the connection after `frames` frame events.
    pub fn with_cut_after(mut self, frames: u64) -> FaultSpec {
        self.cut_after_frames = Some(frames);
        self
    }

    /// Whether this spec injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.reorder_per_mille == 0
            && self.truncate_per_mille == 0
            && self.delay_per_mille == 0
            && self.cut_after_frames.is_none()
    }
}

/// Tally of every fault actually injected, for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the send path.
    pub sends: u64,
    /// Frames pulled from the receive path.
    pub recvs: u64,
    /// Frames silently discarded.
    pub drops: u64,
    /// Frames with a bit flipped.
    pub corruptions: u64,
    /// Corrupted frames that were *sealed* (checksum-framed), so the flip
    /// lands inside the checksummed payload and the receiver reports a
    /// typed [`TransportError::Checksum`] instead of acting on garbage.
    pub corrupt_detected: u64,
    /// Corrupted frames that were *not* sealed: the flip is delivered as-is
    /// and whatever the receiver does with it is the protocol's problem.
    pub corrupt_delivered: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames held back and delivered out of order.
    pub reorders: u64,
    /// Frames truncated to a prefix.
    pub truncations: u64,
    /// Deterministic sleeps injected.
    pub delays: u64,
    /// Total injected sleep time in milliseconds.
    pub delay_ms: u64,
    /// The deterministic cut fired.
    pub cut: bool,
}

/// Splitmix64 permutation — the same construction the protocol layer uses
/// for seed derivation, kept local so `max-gc` stays dependency-free.
fn mix(seed: u64, salt: u64, event: u64) -> u64 {
    let mut z =
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ event.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_DROP: u64 = 0x01;
const SALT_CORRUPT: u64 = 0x02;
const SALT_DUP: u64 = 0x03;
const SALT_REORDER: u64 = 0x04;
const SALT_TRUNCATE: u64 = 0x05;
const SALT_DELAY_SEND: u64 = 0x06;
const SALT_DELAY_RECV: u64 = 0x07;

/// A [`Transport`] that injects the faults described by a [`FaultSpec`].
///
/// Channel statistics and the idle timeout delegate to the inner transport,
/// so the accounting reflects what actually crossed the wire (a dropped
/// frame is counted as a drop here, not as traffic there).
#[derive(Debug)]
pub struct FaultTransport<T: Transport> {
    inner: T,
    spec: FaultSpec,
    stats: FaultStats,
    /// Total frame events (sends + receives), for the cut.
    events: u64,
    /// A frame held back by a reorder decision, delivered after the next
    /// send (or lost with the connection if no send follows).
    held: Option<(FrameKind, Bytes)>,
    cut: bool,
    /// Optional flight recorder: every injected fault is logged here as a
    /// `fault.*` event, so an error-session dump names what was injected.
    flight: Option<Arc<FlightRecorder>>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` with the fault schedule of `spec`.
    pub fn new(inner: T, spec: FaultSpec) -> FaultTransport<T> {
        FaultTransport {
            inner,
            spec,
            stats: FaultStats::default(),
            events: 0,
            held: None,
            cut: false,
            flight: None,
        }
    }

    /// Mirrors every injected fault into `flight` as a `fault.*` event
    /// (kind `fault.cut`, `fault.drop`, `fault.corrupt`, `fault.truncate`,
    /// `fault.duplicate`, `fault.reorder`, `fault.delay`; detail names the
    /// direction; value is the frame-event index or delay ms).
    #[must_use]
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    fn flight_log(&self, kind: &'static str, detail: &'static str, value: u64) {
        if let Some(flight) = &self.flight {
            flight.log(kind, detail, value);
        }
    }

    /// The active fault schedule.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Checks the deterministic cut and counts one frame event.
    fn gate_event(&mut self, direction: &'static str) -> Result<u64, TransportError> {
        if self.cut {
            return Err(TransportError::Disconnected);
        }
        if let Some(cut_after) = self.spec.cut_after_frames {
            if self.events >= cut_after {
                self.cut = true;
                self.stats.cut = true;
                self.flight_log("fault.cut", direction, self.events);
                return Err(TransportError::Disconnected);
            }
        }
        let event = self.events;
        self.events += 1;
        Ok(event)
    }

    fn roll(&self, salt: u64, event: u64, per_mille: u16) -> bool {
        per_mille > 0 && mix(self.spec.seed, salt, event) % 1000 < u64::from(per_mille)
    }

    fn maybe_delay(&mut self, salt: u64, event: u64, direction: &'static str) {
        if self.spec.max_delay_ms > 0 && self.roll(salt, event, self.spec.delay_per_mille) {
            let ms = 1 + mix(self.spec.seed, salt ^ 0x5EED, event) % self.spec.max_delay_ms;
            self.stats.delays += 1;
            self.stats.delay_ms += ms;
            self.flight_log("fault.delay", direction, ms);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        let event = self.gate_event("send")?;
        self.stats.sends += 1;
        self.maybe_delay(SALT_DELAY_SEND, event, "send");

        if self.roll(SALT_DROP, event, self.spec.drop_per_mille) {
            self.stats.drops += 1;
            self.flight_log("fault.drop", "send", event);
            return Ok(());
        }

        let mut frame = frame;
        if !frame.is_empty() && self.roll(SALT_CORRUPT, event, self.spec.corrupt_per_mille) {
            let draw = mix(self.spec.seed, SALT_CORRUPT ^ 0x5EED, event);
            let mut bytes = frame.to_vec();
            // A sealed frame carries its CRC in the first `SEAL_BYTES`
            // bytes; bias the flip into the checksummed *payload* so the
            // chaos suite exercises detection of real data damage, not just
            // damage to the checksum itself. Either way the receiver's
            // `open_frame` reports the mismatch.
            let sealed = is_sealed(&bytes);
            let idx = if sealed && bytes.len() > SEAL_BYTES {
                SEAL_BYTES + (draw % (bytes.len() - SEAL_BYTES) as u64) as usize
            } else {
                (draw % bytes.len() as u64) as usize
            };
            bytes[idx] ^= 1 << ((draw >> 32) % 8);
            frame = Bytes::from(bytes);
            self.stats.corruptions += 1;
            if sealed {
                self.stats.corrupt_detected += 1;
            } else {
                self.stats.corrupt_delivered += 1;
            }
            self.flight_log("fault.corrupt", "send", event);
        }
        if !frame.is_empty() && self.roll(SALT_TRUNCATE, event, self.spec.truncate_per_mille) {
            let draw = mix(self.spec.seed, SALT_TRUNCATE ^ 0x5EED, event);
            let keep = (draw % frame.len() as u64) as usize;
            frame = Bytes::from(frame[..keep].to_vec());
            self.stats.truncations += 1;
            self.flight_log("fault.truncate", "send", keep as u64);
        }

        if self.held.is_none() && self.roll(SALT_REORDER, event, self.spec.reorder_per_mille) {
            self.held = Some((kind, frame));
            self.stats.reorders += 1;
            self.flight_log("fault.reorder", "send", event);
            return Ok(());
        }

        self.inner.send_frame(kind, frame.clone())?;
        if let Some((held_kind, held_frame)) = self.held.take() {
            self.inner.send_frame(held_kind, held_frame)?;
        }
        if self.roll(SALT_DUP, event, self.spec.duplicate_per_mille) {
            self.stats.duplicates += 1;
            self.flight_log("fault.duplicate", "send", event);
            self.inner.send_frame(kind, frame)?;
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let event = self.gate_event("recv")?;
        self.stats.recvs += 1;
        self.maybe_delay(SALT_DELAY_RECV, event, "recv");
        self.inner.recv_frame()
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Duplex;

    fn raw(payload: &[u8]) -> Bytes {
        Bytes::from(payload.to_vec())
    }

    #[test]
    fn zero_fault_spec_is_a_passthrough() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(1));
        for i in 0..20u8 {
            faulty.send_frame(FrameKind::Raw, raw(&[i, i + 1])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(&b.recv_frame().unwrap()[..], &[i, i + 1]);
        }
        assert_eq!(faulty.stats().drops, 0);
        assert_eq!(faulty.stats().sends, 20);
        assert!(FaultSpec::none(1).is_none());
    }

    #[test]
    fn drops_discard_frames_deterministically() {
        let run = |seed: u64| {
            let (a, mut b) = Duplex::pair();
            let mut faulty = FaultTransport::new(a, FaultSpec::none(seed).with_drops(500));
            for i in 0..50u8 {
                faulty.send_frame(FrameKind::Raw, raw(&[i])).unwrap();
            }
            let delivered = faulty.into_inner().sent().messages();
            let mut got = Vec::new();
            while let Ok(frame) = b.recv_frame() {
                got.push(frame[0]);
            }
            (delivered, got)
        };
        let (delivered1, got1) = run(7);
        let (delivered2, got2) = run(7);
        assert_eq!(got1, got2, "same seed, same schedule");
        assert_eq!(delivered1, delivered2);
        assert!(got1.len() < 50, "rate 500/1000 must drop something");
        assert!(!got1.is_empty(), "rate 500/1000 must deliver something");
        let (_, got_other) = run(8);
        assert_ne!(got1, got_other, "different seed, different schedule");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(3).with_corruption(1000));
        let original = [0u8; 8];
        faulty.send_frame(FrameKind::Raw, raw(&original)).unwrap();
        let got = b.recv_frame().unwrap();
        let flipped: u32 = got.iter().map(|byte| byte.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(faulty.stats().corruptions, 1);
        // An unsealed frame has no checksum to catch the flip: it counts as
        // delivered corruption.
        assert_eq!(faulty.stats().corrupt_delivered, 1);
        assert_eq!(faulty.stats().corrupt_detected, 0);
    }

    #[test]
    fn sealed_frame_corruption_lands_in_the_payload_and_is_detected() {
        use crate::channel::{open_frame, seal_frame};
        for seed in 0..32u64 {
            let (a, mut b) = Duplex::pair();
            let mut faulty = FaultTransport::new(a, FaultSpec::none(seed).with_corruption(1000));
            let payload = Bytes::from(vec![0x5Au8; 24]);
            faulty
                .send_frame(FrameKind::Raw, seal_frame(payload.clone()))
                .unwrap();
            assert_eq!(faulty.stats().corrupt_detected, 1, "seed {seed}");
            assert_eq!(faulty.stats().corrupt_delivered, 0, "seed {seed}");
            let got = b.recv_frame().unwrap();
            // The CRC prefix is untouched (the flip was biased into the
            // payload), and opening the frame reports the damage as a typed
            // checksum error — never silently different bytes.
            assert_eq!(&got[..SEAL_BYTES], &seal_frame(payload)[..SEAL_BYTES]);
            assert!(
                matches!(open_frame(got), Err(TransportError::Checksum { .. })),
                "seed {seed}: flip went undetected"
            );
        }
    }

    #[test]
    fn truncation_shortens_the_frame() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(4).with_truncation(1000));
        faulty.send_frame(FrameKind::Raw, raw(&[9u8; 32])).unwrap();
        let got = b.recv_frame().unwrap();
        assert!(got.len() < 32, "truncated to a strict prefix");
        assert_eq!(faulty.stats().truncations, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(5).with_duplicates(1000));
        faulty.send_frame(FrameKind::Raw, raw(b"x")).unwrap();
        drop(faulty);
        assert_eq!(&b.recv_frame().unwrap()[..], b"x");
        assert_eq!(&b.recv_frame().unwrap()[..], b"x");
        assert!(b.recv_frame().is_err());
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(6).with_reordering(1000));
        faulty.send_frame(FrameKind::Raw, raw(b"first")).unwrap();
        faulty.send_frame(FrameKind::Raw, raw(b"second")).unwrap();
        assert_eq!(&b.recv_frame().unwrap()[..], b"second");
        assert_eq!(&b.recv_frame().unwrap()[..], b"first");
        assert!(faulty.stats().reorders >= 1);
    }

    #[test]
    fn flight_recorder_names_the_injected_faults() {
        let flight = Arc::new(FlightRecorder::new(16));
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(
            a,
            FaultSpec::none(3).with_corruption(1000).with_cut_after(2),
        )
        .with_flight(Arc::clone(&flight));
        faulty.send_frame(FrameKind::Raw, raw(&[0u8; 8])).unwrap();
        b.send_frame(FrameKind::Raw, raw(b"pong")).unwrap();
        faulty.recv_frame().unwrap();
        assert_eq!(
            faulty.send_frame(FrameKind::Raw, raw(b"x")),
            Err(TransportError::Disconnected)
        );
        let kinds: Vec<&str> = flight.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"fault.corrupt"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"fault.cut"), "kinds: {kinds:?}");
        let cut = flight
            .events()
            .into_iter()
            .find(|e| e.kind == "fault.cut")
            .unwrap();
        assert_eq!(cut.detail, "send");
        drop(faulty);
        let _ = b.recv_frame();
    }

    #[test]
    fn cut_severs_both_directions_forever() {
        let (a, mut b) = Duplex::pair();
        let mut faulty = FaultTransport::new(a, FaultSpec::none(7).with_cut_after(2));
        faulty.send_frame(FrameKind::Raw, raw(b"1")).unwrap();
        faulty.send_frame(FrameKind::Raw, raw(b"2")).unwrap();
        assert_eq!(
            faulty.send_frame(FrameKind::Raw, raw(b"3")),
            Err(TransportError::Disconnected)
        );
        assert_eq!(faulty.recv_frame(), Err(TransportError::Disconnected));
        assert!(faulty.stats().cut);
        assert_eq!(&b.recv_frame().unwrap()[..], b"1");
        assert_eq!(&b.recv_frame().unwrap()[..], b"2");
    }
}
