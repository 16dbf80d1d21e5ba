//! Framed serialization of [`RoundMessage`], decoded without panicking on
//! malformed bytes: the body format of the served path's ROUNDS burst
//! frame ([`encode_round_burst`](crate::remote::encode_round_burst)), a
//! round count followed by length-prefixed bodies in this format.
//!
//! Frame layout (all integers big-endian, matching the channel layer):
//!
//! ```text
//! u32 elem | u32 round | u8 flags | u32 n_tables | tables (32 B each)
//! | u32 n_a_labels | labels (16 B each)
//! | [u32 n_init | labels]   if flags & INIT
//! | [u32 n_decode | packed bits]   if flags & DECODE
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use max_crypto::Block;
use max_gc::GarbledTable;

use crate::accelerator::RoundMessage;
use crate::error::AcceleratorError;

const FLAG_INIT: u8 = 0b01;
const FLAG_DECODE: u8 = 0b10;

/// Encodes one round message into a self-contained frame.
pub(crate) fn encode_round_message(msg: &RoundMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(13 + msg.wire_bytes() + 8);
    buf.put_u32(msg.elem);
    buf.put_u32(msg.round);
    let mut flags = 0u8;
    if msg.init_acc_labels.is_some() {
        flags |= FLAG_INIT;
    }
    if msg.decode.is_some() {
        flags |= FLAG_DECODE;
    }
    buf.put_u8(flags);
    buf.put_u32(msg.tables.len() as u32);
    for table in &msg.tables {
        buf.put_slice(&table.to_bytes());
    }
    put_labels(&mut buf, &msg.a_labels);
    if let Some(init) = &msg.init_acc_labels {
        put_labels(&mut buf, init);
    }
    if let Some(decode) = &msg.decode {
        buf.put_u32(decode.len() as u32);
        let mut byte = 0u8;
        for (i, &bit) in decode.iter().enumerate() {
            byte |= (bit as u8) << (i % 8);
            if i % 8 == 7 {
                buf.put_u8(byte);
                byte = 0;
            }
        }
        if decode.len() % 8 != 0 {
            buf.put_u8(byte);
        }
    }
    buf.freeze()
}

fn put_labels(buf: &mut BytesMut, labels: &[Block]) {
    buf.put_u32(labels.len() as u32);
    for label in labels {
        buf.put_slice(&label.to_bytes());
    }
}

fn get_count(frame: &mut Bytes, item_bytes: usize) -> Result<usize, AcceleratorError> {
    if frame.remaining() < 4 {
        return Err(AcceleratorError::FrameTruncated);
    }
    let count = frame.get_u32() as usize;
    if frame.remaining() < count.saturating_mul(item_bytes) {
        return Err(AcceleratorError::FrameTruncated);
    }
    Ok(count)
}

fn get_labels(frame: &mut Bytes) -> Result<Vec<Block>, AcceleratorError> {
    let count = get_count(frame, 16)?;
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        let mut bytes = [0u8; 16];
        frame.copy_to_slice(&mut bytes);
        labels.push(Block::from_bytes(bytes));
    }
    Ok(labels)
}

/// Decodes a round-message frame.
///
/// # Errors
///
/// Returns [`AcceleratorError::FrameTruncated`] if the frame ends before
/// its declared payload and [`AcceleratorError::FrameHeader`] for unknown
/// flags or trailing garbage — never panics on hostile bytes.
pub(crate) fn decode_round_message(mut frame: Bytes) -> Result<RoundMessage, AcceleratorError> {
    if frame.remaining() < 9 {
        return Err(AcceleratorError::FrameTruncated);
    }
    let elem = frame.get_u32();
    let round = frame.get_u32();
    let flags = frame.get_u8();
    if flags & !(FLAG_INIT | FLAG_DECODE) != 0 {
        return Err(AcceleratorError::FrameHeader);
    }
    let n_tables = get_count(&mut frame, GarbledTable::WIRE_BYTES)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let mut bytes = [0u8; GarbledTable::WIRE_BYTES];
        frame.copy_to_slice(&mut bytes);
        tables.push(GarbledTable::from_bytes(bytes));
    }
    let a_labels = get_labels(&mut frame)?;
    let init_acc_labels = if flags & FLAG_INIT != 0 {
        Some(get_labels(&mut frame)?)
    } else {
        None
    };
    let decode = if flags & FLAG_DECODE != 0 {
        let count = get_count(&mut frame, 0)?;
        let packed = count.div_ceil(8);
        if frame.remaining() < packed {
            return Err(AcceleratorError::FrameTruncated);
        }
        let mut bytes = vec![0u8; packed];
        frame.copy_to_slice(&mut bytes);
        Some(
            (0..count)
                .map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
                .collect(),
        )
    } else {
        None
    };
    if frame.remaining() != 0 {
        return Err(AcceleratorError::FrameHeader);
    }
    Ok(RoundMessage {
        elem,
        round,
        tables,
        a_labels,
        init_acc_labels,
        decode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Maxelerator;
    use crate::config::AcceleratorConfig;

    fn sample() -> RoundMessage {
        let mut accel = Maxelerator::new(AcceleratorConfig::new(8), 19);
        accel.garble_round(7, true)
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let msg = sample();
        let decoded = decode_round_message(encode_round_message(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn round_trip_without_optionals() {
        let mut msg = sample();
        msg.init_acc_labels = None;
        msg.decode = None;
        let decoded = decode_round_message(encode_round_message(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_are_rejected_not_panics() {
        let full = encode_round_message(&sample());
        for len in 0..full.len() {
            let cut = Bytes::from(full[..len].to_vec());
            assert!(
                decode_round_message(cut).is_err(),
                "prefix of {len} bytes must fail cleanly"
            );
        }
    }

    #[test]
    fn unknown_flags_and_trailing_garbage_rejected() {
        let full = encode_round_message(&sample());
        let mut bad_flags = full.to_vec();
        bad_flags[8] |= 0x80;
        assert_eq!(
            decode_round_message(Bytes::from(bad_flags)),
            Err(AcceleratorError::FrameHeader)
        );
        let mut trailing = full.to_vec();
        trailing.push(0);
        assert_eq!(
            decode_round_message(Bytes::from(trailing)),
            Err(AcceleratorError::FrameHeader)
        );
    }

    #[test]
    fn oversized_count_rejected() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u8(0);
        buf.put_u32(u32::MAX); // table count far beyond the payload
        assert_eq!(
            decode_round_message(buf.freeze()),
            Err(AcceleratorError::FrameTruncated)
        );
    }
}
