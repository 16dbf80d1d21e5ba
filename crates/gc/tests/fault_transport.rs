//! Property tests for [`FaultTransport`]: the zero-fault invariant (an
//! empty schedule is a bit-exact passthrough with identical byte and
//! message counts) and schedule determinism (same spec, same faults).

use bytes::Bytes;
use max_gc::channel::{Counter, Duplex, FrameKind};
use max_gc::{FaultSpec, FaultTransport, Transport};
use proptest::prelude::*;

fn frame_strategy() -> impl Strategy<Value = (u8, Vec<u8>)> {
    (0u8..3, proptest::collection::vec(any::<u8>(), 0..64))
}

fn kind_of(index: u8) -> FrameKind {
    match index {
        0 => FrameKind::Raw,
        1 => FrameKind::Blocks,
        _ => FrameKind::Bits,
    }
}

/// A counter's (bytes, messages).
fn counts(counter: &Counter) -> (u64, u64) {
    (counter.bytes(), counter.messages())
}

/// Sends `frames` through `transport`, then drains and returns what the
/// peer received.
fn pump<T: Transport>(
    transport: &mut T,
    peer: &mut Duplex,
    frames: &[(u8, Vec<u8>)],
) -> Vec<Bytes> {
    for (kind, payload) in frames {
        transport
            .send_frame(kind_of(*kind), Bytes::from(payload.clone()))
            .unwrap();
    }
    (0..frames.len())
        .map(|_| peer.recv_frame().unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zero-fault schedule ⇒ bit-identical transcript and identical
    /// byte and message counts on the `Duplex` endpoints relative to the
    /// bare transport, both directions.
    #[test]
    fn zero_fault_transport_is_invisible(
        frames in proptest::collection::vec(frame_strategy(), 1..40),
        replies in proptest::collection::vec(frame_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        // Bare reference pair.
        let (mut bare, mut bare_peer) = Duplex::pair();
        let bare_delivered = pump(&mut bare, &mut bare_peer, &frames);

        // Wrapped pair, empty fault schedule.
        let (wrapped_end, mut faulty_peer) = Duplex::pair();
        let mut faulty = FaultTransport::new(wrapped_end, FaultSpec::none(seed));
        let faulty_delivered = pump(&mut faulty, &mut faulty_peer, &frames);

        prop_assert_eq!(&bare_delivered, &faulty_delivered);

        // Reverse direction: frames received through the wrapper match.
        for (kind, payload) in &replies {
            bare_peer.send_frame(kind_of(*kind), Bytes::from(payload.clone())).unwrap();
            faulty_peer.send_frame(kind_of(*kind), Bytes::from(payload.clone())).unwrap();
        }
        for _ in 0..replies.len() {
            let want = Transport::recv_frame(&mut bare).unwrap();
            let got = faulty.recv_frame().unwrap();
            prop_assert_eq!(want, got);
        }

        let stats = faulty.stats();
        prop_assert_eq!(stats.drops, 0);
        prop_assert_eq!(stats.corruptions, 0);
        prop_assert_eq!(stats.duplicates, 0);
        prop_assert_eq!(stats.reorders, 0);
        prop_assert_eq!(stats.truncations, 0);
        prop_assert_eq!(stats.delays, 0);
        prop_assert!(!stats.cut);

        // The wrapped endpoint counted every frame, both ways, as the bare
        // one did; so did the peers.
        let wrapped = faulty.into_inner();
        prop_assert_eq!(counts(bare.sent()), counts(wrapped.sent()));
        prop_assert_eq!(counts(bare.received()), counts(wrapped.received()));
        prop_assert_eq!(counts(bare_peer.sent()), counts(faulty_peer.sent()));
        prop_assert_eq!(counts(bare_peer.received()), counts(faulty_peer.received()));
    }

    /// Same seed ⇒ the exact same frames survive with the exact same
    /// mutations; a different seed produces a different schedule.
    #[test]
    fn fault_schedule_is_a_pure_function_of_the_spec(
        frames in proptest::collection::vec(frame_strategy(), 8..40),
        seed in any::<u64>(),
    ) {
        let spec = FaultSpec::none(seed)
            .with_drops(200)
            .with_corruption(200)
            .with_duplicates(150)
            .with_truncation(150)
            .with_reordering(150);
        let run = |spec: FaultSpec| {
            let (end, mut peer) = Duplex::pair();
            let mut faulty = FaultTransport::new(end, spec);
            for (kind, payload) in &frames {
                faulty.send_frame(kind_of(*kind), Bytes::from(payload.clone())).unwrap();
            }
            let stats = faulty.stats();
            drop(faulty);
            let mut delivered = Vec::new();
            while let Ok(frame) = peer.recv_frame() {
                delivered.push(frame);
            }
            (delivered, stats)
        };
        let (delivered1, stats1) = run(spec);
        let (delivered2, stats2) = run(spec);
        prop_assert_eq!(delivered1, delivered2);
        prop_assert_eq!(stats1, stats2);
    }
}
