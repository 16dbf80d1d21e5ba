use crate::remote::{decode_round_burst, encode_round_burst};
use crate::{AcceleratorConfig, AcceleratorError, Maxelerator, RoundMessage};
use bytes::Bytes;
use max_gc::channel::{TransportError, MAX_FRAME_BYTES};

/// One b = 8 round carrying both optional parts: the initial
/// accumulator (the element's first round) and the decode bits (its last).
fn sample() -> RoundMessage {
    let mut accel = Maxelerator::new(AcceleratorConfig::new(8), 19);
    accel.garble_round(7, true)
}

/// Burst header (5) + body length (4): where the one round body starts.
const BODY: usize = 9;

#[test]
fn round_trip_preserves_every_field() {
    let msg = sample();
    assert!(msg.init_acc_labels.is_some() && msg.decode.is_some());
    let decoded = decode_round_burst(encode_round_burst(std::slice::from_ref(&msg)), 1).unwrap();
    assert_eq!(decoded, std::slice::from_ref(&msg));
    // Several bodies in one burst, and a round count the model does not expect.
    let mut bare = msg.clone();
    bare.init_acc_labels = None;
    bare.decode = None;
    let msgs = vec![msg.clone(), bare, msg];
    assert_eq!(
        decode_round_burst(encode_round_burst(&msgs), 3).unwrap(),
        msgs
    );
    assert!(decode_round_burst(encode_round_burst(&msgs), 2).is_err());
}

#[test]
fn round_trip_without_optionals() {
    let mut msg = sample();
    msg.init_acc_labels = None;
    msg.decode = None;
    let decoded = decode_round_burst(encode_round_burst(std::slice::from_ref(&msg)), 1).unwrap();
    assert_eq!(decoded, [msg]);
}

#[test]
fn truncated_frames_are_rejected_not_panics() {
    // A truncated burst header, body header or counted vector is never a panic.
    let full = encode_round_burst(&[sample()]);
    for len in 0..full.len() {
        let cut = Bytes::from(full[..len].to_vec());
        assert!(
            decode_round_burst(cut, 1).is_err(),
            "prefix of {len} bytes must fail cleanly"
        );
    }
}

#[test]
fn unknown_flags_and_trailing_garbage_rejected() {
    let full = encode_round_burst(&[sample()]);
    // elem, round (8 bytes), then the flags byte.
    let mut bad_flags = full.to_vec();
    bad_flags[BODY + 8] |= 0x80;
    assert_eq!(
        decode_round_burst(Bytes::from(bad_flags), 1),
        Err(AcceleratorError::Protocol {
            what: "ROUNDS body flags"
        })
    );
    // Trailing bytes after the burst, and inside a body.
    let mut trailing = full.to_vec();
    trailing.push(0);
    assert_eq!(
        decode_round_burst(Bytes::from(trailing), 1),
        Err(AcceleratorError::Protocol {
            what: "ROUNDS trailing bytes"
        })
    );
    let mut padded = full.to_vec();
    let body_len = u32::from_be_bytes(padded[5..BODY].try_into().unwrap());
    padded[5..BODY].copy_from_slice(&(body_len + 1).to_be_bytes());
    padded.push(0);
    assert_eq!(
        decode_round_burst(Bytes::from(padded), 1),
        Err(AcceleratorError::Protocol {
            what: "ROUNDS body trailing bytes"
        })
    );
}

#[test]
fn oversized_count_rejected() {
    // A table count far beyond the frame is refused before allocating.
    let mut oversized = encode_round_burst(&[sample()]).to_vec();
    oversized[BODY + 9..BODY + 13].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        decode_round_burst(Bytes::from(oversized), 1),
        Err(AcceleratorError::Transport(TransportError::FrameTooLarge {
            len: u64::from(u32::MAX) * 32,
            max: MAX_FRAME_BYTES as u64,
        }))
    );
}
