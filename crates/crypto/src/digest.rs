//! Rolling transcript digest built on the fixed-key AES permutation.
//!
//! [`TranscriptDigest`] lets both ends of a garbled-circuit session fold
//! what they send or receive into a compact 128-bit running value. The
//! two sides exchange the value at element boundaries and at the end of a
//! job; a mismatch proves the transcripts diverged — a flipped bit in
//! transit, a stale cache entry, bit rot in a journal — and the session can
//! be rewound to the last boundary where the digests agreed.
//!
//! Since protocol v7 each byte of a job is walked once per integrity
//! layer, not once per layer *and* once more by this digest: the session
//! protocol folds an OT extension body by its bytes, but a CIPHER or ROUNDS
//! frame by its 8-byte seal mark (`max_gc::channel::seal_mark`: the CRC32
//! the frame was sealed with ‖ its length), which the framing layer has
//! already computed and verified. A replaced, reordered, duplicated,
//! dropped or stale frame still has a different mark, so divergence
//! detection at every boundary is unchanged; what a mark cannot add is
//! strength beyond the CRC's 32 bits plus the length. Bulk material at rest
//! (a prepared stream) is hashed by its bytes through
//! [`TranscriptDigest::fold_wide`].
//!
//! # Construction
//!
//! The compression function is Matyas–Meyer–Oseas over AES-128 with a fixed
//! key: for each 16-byte chunk `m`,
//!
//! ```text
//! state = E(state ⊕ m) ⊕ state ⊕ m
//! ```
//!
//! Each [`TranscriptDigest::fold`] call is treated as a framed message: the
//! final partial chunk is zero-padded, then a length block
//! (`[0x4C; 8] ‖ byte-length`) is folded so `fold(a); fold(b)` and
//! `fold(a ‖ b)` yield different states. [`TranscriptDigest::value`]
//! finalises with a second, domain-separated length block without mutating
//! the rolling state, so a digest can be sampled at every element boundary
//! and continue accumulating.
//!
//! [`TranscriptDigest::fold_wide`] is the same framed fold for bulk
//! messages. A single MMO chain is a dependency chain — one AES latency per
//! 16 bytes — so it deals the message's chunks round-robin onto
//! [`WIDE_LANES`] independent MMO lanes (lane `j` starts from the public
//! constant `[0x57; 8] ‖ j` and takes chunks `j`, `j + 8`, …), advances all
//! lanes with one feed-forward AES sweep per eight chunks, then
//! compresses the eight lane values and a `[0x57; 8] ‖ byte-length` block
//! into the rolling state. It is a different function from `fold` — the two
//! never agree on a message by construction of the tags.
//!
//! # Security
//!
//! This is an *integrity* check against **accidental** corruption, not an
//! authenticator. The key is fixed and public, so an active adversary who
//! tampers with a frame can recompute the matching digest; the protocol's
//! honest-but-curious boundary is unchanged. What the digest buys is that
//! lossy networks, buggy middleboxes, and storage bit rot become detected,
//! retryable faults instead of silently wrong plaintexts.

use crate::{Aes128, Block};

/// Fixed, public digest key (no secrecy is claimed — see the module docs).
const DIGEST_KEY: Block = Block::new(0x4D41_5845_4C44_4947_4553_5431_2E30_2E30);

/// Domain tag folded after every `fold` call, alongside its byte length.
const TAG_FRAME: u64 = 0x4C4C_4C4C_4C4C_4C4C;
/// Domain tag for the finalisation block sampled by [`TranscriptDigest::value`].
const TAG_FINAL: u64 = 0x4646_4646_4646_4646;
/// Domain tag of [`TranscriptDigest::fold_wide`]: its lane start values and
/// its closing length block.
const TAG_WIDE: u64 = 0x5757_5757_5757_5757;

/// Independent MMO lanes of [`TranscriptDigest::fold_wide`] — the number of
/// blocks the AES-NI arm keeps in flight per sweep. The lane count is part
/// of the digest's definition, so it stays eight on the VAES arm too.
const WIDE_LANES: usize = 8;

/// A rolling Matyas–Meyer–Oseas digest over a protocol transcript.
///
/// Clone is cheap (one AES key schedule plus 24 bytes of state) and is how
/// checkpoints capture the digest at a boundary.
///
/// # Example
///
/// ```
/// use max_crypto::TranscriptDigest;
///
/// let mut client = TranscriptDigest::new();
/// let mut server = TranscriptDigest::new();
/// client.fold(b"garbled tables");
/// server.fold(b"garbled tables");
/// assert_eq!(client.value(), server.value());
/// server.fold(b"one more frame");
/// assert_ne!(client.value(), server.value());
/// ```
#[derive(Clone, Debug)]
pub struct TranscriptDigest {
    cipher: Aes128,
    state: Block,
    len: u64,
}

impl TranscriptDigest {
    /// A fresh digest over the empty transcript.
    pub fn new() -> TranscriptDigest {
        TranscriptDigest {
            cipher: Aes128::new(DIGEST_KEY),
            state: Block::ZERO,
            len: 0,
        }
    }

    /// One Matyas–Meyer–Oseas step: `state = E(state ⊕ m) ⊕ state ⊕ m`.
    fn compress(&mut self, chunk: Block) {
        let input = self.state ^ chunk;
        self.state = self.cipher.encrypt(input) ^ input;
    }

    /// Folds `bytes` into the digest as one framed message.
    ///
    /// The bytes are consumed in 16-byte chunks (final chunk zero-padded),
    /// then a length block records the call's byte count, so the digest
    /// distinguishes `fold(a); fold(b)` from `fold(a ‖ b)`.
    pub fn fold(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut padded = [0u8; 16];
            padded[..chunk.len()].copy_from_slice(chunk);
            self.compress(Block::from_bytes(padded));
        }
        self.compress(length_block(TAG_FRAME, bytes.len() as u64));
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Folds the concatenation of `pieces` into the digest as one framed
    /// message, hashed through `WIDE_LANES` interleaved lanes (see the
    /// module docs) — the entry point for bulk material, where `fold`'s
    /// serial chain would be AES-latency bound.
    ///
    /// Pieces are any byte views: one large frame, or a run of 16-byte
    /// blocks taken straight from their owners. Only the concatenation
    /// counts; how it is cut into pieces does not change the value.
    ///
    /// ```
    /// use max_crypto::TranscriptDigest;
    ///
    /// let mut whole = TranscriptDigest::new();
    /// whole.fold_wide([&b"garbled tables, many of them"[..]]);
    /// let mut cut = TranscriptDigest::new();
    /// cut.fold_wide([&b"garbled tab"[..], &b"les, many of them"[..]]);
    /// assert_eq!(whole.value(), cut.value());
    /// ```
    pub fn fold_wide<I>(&mut self, pieces: I)
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let mut lanes: [Block; WIDE_LANES] =
            std::array::from_fn(|lane| length_block(TAG_WIDE, lane as u64));
        // Chunks waiting for a full sweep, and the chunk being filled (a
        // piece boundary may split it).
        let mut group = [Block::ZERO; WIDE_LANES];
        let mut grouped = 0;
        let mut chunk = [0u8; 16];
        let mut filled = 0;
        let mut len = 0u64;
        for piece in pieces {
            let mut bytes = piece.as_ref();
            len = len.wrapping_add(bytes.len() as u64);
            while !bytes.is_empty() {
                if filled == 0 && grouped == 0 {
                    // Aligned bulk: whole sweeps straight off the piece.
                    let mut sweeps = bytes.chunks_exact(16 * WIDE_LANES);
                    for wide in &mut sweeps {
                        for (slot, whole) in group.iter_mut().zip(wide.chunks_exact(16)) {
                            *slot = Block::from_bytes(std::array::from_fn(|i| whole[i]));
                        }
                        self.sweep(&mut lanes, &group);
                    }
                    bytes = sweeps.remainder();
                    if bytes.is_empty() {
                        break;
                    }
                }
                let take = bytes.len().min(16 - filled);
                chunk[filled..filled + take].copy_from_slice(&bytes[..take]);
                filled += take;
                bytes = &bytes[take..];
                if filled == 16 {
                    filled = 0;
                    group[grouped] = Block::from_bytes(chunk);
                    grouped += 1;
                    if grouped == WIDE_LANES {
                        grouped = 0;
                        self.sweep(&mut lanes, &group);
                    }
                }
            }
        }
        if filled > 0 {
            chunk[filled..].fill(0);
            group[grouped] = Block::from_bytes(chunk);
            grouped += 1;
        }
        self.sweep(&mut lanes, &group[..grouped]);
        for lane in lanes {
            self.compress(lane);
        }
        self.compress(length_block(TAG_WIDE, len));
        self.len = self.len.wrapping_add(len);
    }

    /// One MMO step on the first `chunks.len()` lanes at once.
    fn sweep(&self, lanes: &mut [Block; WIDE_LANES], chunks: &[Block]) {
        let active = &mut lanes[..chunks.len()];
        for (lane, chunk) in active.iter_mut().zip(chunks) {
            *lane ^= *chunk;
        }
        self.cipher.encrypt_blocks_feed_forward(active);
    }

    /// Total bytes folded so far, across all `fold` and `fold_wide` calls.
    pub fn folded_bytes(&self) -> u64 {
        self.len
    }

    /// The current digest value, finalised without disturbing the rolling
    /// state: the same digest can be sampled at every boundary and keep
    /// accumulating.
    pub fn value(&self) -> [u8; 16] {
        let input = self.state ^ length_block(TAG_FINAL, self.len);
        let out = self.cipher.encrypt(input) ^ input;
        out.to_bytes()
    }

    /// Exports the rolling state for checkpoint persistence.
    ///
    /// The pair round-trips through [`TranscriptDigest::import`]; the AES
    /// key schedule is rebuilt from the fixed key on import.
    pub fn export(&self) -> ([u8; 16], u64) {
        (self.state.to_bytes(), self.len)
    }

    /// Rebuilds a digest from an exported `(state, len)` pair.
    pub fn import(state: [u8; 16], len: u64) -> TranscriptDigest {
        TranscriptDigest {
            cipher: Aes128::new(DIGEST_KEY),
            state: Block::from_bytes(state),
            len,
        }
    }
}

impl Default for TranscriptDigest {
    fn default() -> Self {
        TranscriptDigest::new()
    }
}

impl PartialEq for TranscriptDigest {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && self.len == other.len
    }
}

impl Eq for TranscriptDigest {}

/// A 16-byte block encoding `(tag, count)` for domain separation.
fn length_block(tag: u64, count: u64) -> Block {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&tag.to_be_bytes());
    bytes[8..].copy_from_slice(&count.to_be_bytes());
    Block::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_transcripts_agree() {
        let mut a = TranscriptDigest::new();
        let mut b = TranscriptDigest::new();
        for frame in [&b"tables"[..], &[0u8; 48], &b"rounds"[..]] {
            a.fold(frame);
            b.fold(frame);
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(a, b);
        assert_eq!(a.folded_bytes(), 6 + 48 + 6);
    }

    #[test]
    fn any_single_bit_flip_changes_the_value() {
        let frame: Vec<u8> = (0..37u8).collect();
        let mut clean = TranscriptDigest::new();
        clean.fold(&frame);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                let mut dirty = TranscriptDigest::new();
                dirty.fold(&flipped);
                assert_ne!(
                    clean.value(),
                    dirty.value(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn fold_is_framed_not_concatenative() {
        let mut split = TranscriptDigest::new();
        split.fold(b"ab");
        split.fold(b"cd");
        let mut joined = TranscriptDigest::new();
        joined.fold(b"abcd");
        assert_ne!(split.value(), joined.value());
        // Zero-padding is not confusable with explicit zeros.
        let mut short = TranscriptDigest::new();
        short.fold(&[7u8; 15]);
        let mut padded = TranscriptDigest::new();
        padded.fold(&{
            let mut v = [0u8; 16];
            v[..15].copy_from_slice(&[7u8; 15]);
            v
        });
        assert_ne!(short.value(), padded.value());
    }

    #[test]
    fn order_matters() {
        let mut ab = TranscriptDigest::new();
        ab.fold(b"first");
        ab.fold(b"second");
        let mut ba = TranscriptDigest::new();
        ba.fold(b"second");
        ba.fold(b"first");
        assert_ne!(ab.value(), ba.value());
    }

    #[test]
    fn value_does_not_disturb_the_rolling_state() {
        let mut sampled = TranscriptDigest::new();
        sampled.fold(b"one");
        let mid = sampled.value();
        let _ = sampled.value();
        sampled.fold(b"two");
        let mut straight = TranscriptDigest::new();
        straight.fold(b"one");
        straight.fold(b"two");
        assert_eq!(sampled.value(), straight.value());
        assert_ne!(mid, sampled.value());
    }

    #[test]
    fn export_import_round_trips() {
        let mut original = TranscriptDigest::new();
        original.fold(b"checkpointed bytes");
        let (state, len) = original.export();
        let mut restored = TranscriptDigest::import(state, len);
        assert_eq!(original, restored);
        original.fold(b"tail");
        restored.fold(b"tail");
        assert_eq!(original.value(), restored.value());
    }

    /// `fold_wide` written out lane by lane on the portable AES core: the
    /// reference the sweep-at-a-time implementation (and whichever backend
    /// is active) must match.
    fn wide_reference(digest: &mut TranscriptDigest, message: &[u8]) {
        let cipher = Aes128::new(DIGEST_KEY);
        let mmo = |state: Block, chunk: Block| {
            let input = state ^ chunk;
            cipher.encrypt_software(input) ^ input
        };
        let mut lanes: Vec<Block> = (0..WIDE_LANES as u64)
            .map(|lane| length_block(TAG_WIDE, lane))
            .collect();
        for (i, chunk) in message.chunks(16).enumerate() {
            let mut padded = [0u8; 16];
            padded[..chunk.len()].copy_from_slice(chunk);
            lanes[i % WIDE_LANES] = mmo(lanes[i % WIDE_LANES], Block::from_bytes(padded));
        }
        lanes.push(length_block(TAG_WIDE, message.len() as u64));
        for block in lanes {
            digest.state = mmo(digest.state, block);
        }
        digest.len += message.len() as u64;
    }

    fn wide(pieces: &[&[u8]]) -> [u8; 16] {
        let mut digest = TranscriptDigest::new();
        digest.fold_wide(pieces);
        digest.value()
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn wide_fold_matches_the_lane_by_lane_software_reference() {
        // Around every chunk, sweep and two-sweep edge, and a bulk length.
        let lens = (0..=40).chain([111, 112, 113, 127, 128, 129, 255, 256, 257, 5000]);
        for len in lens {
            let bytes = message(len);
            let mut reference = TranscriptDigest::new();
            reference.fold(b"rolling state before");
            let mut swept = reference.clone();
            wide_reference(&mut reference, &bytes);
            swept.fold_wide([&bytes]);
            assert_eq!(swept, reference, "length {len}");
            assert_eq!(swept.value(), reference.value(), "length {len}");
        }
    }

    #[test]
    fn wide_fold_value_is_pinned() {
        // Recorded once; equal under both AES backends and on any host.
        assert_eq!(
            u128::from_be_bytes(wide(&[&message(1000)])),
            0x0ea4_4994_60af_199b_ea0f_f18f_9cb3_3899
        );
    }

    #[test]
    fn wide_fold_sees_every_bit_the_length_and_the_order() {
        let bytes = message(300);
        let clean = wide(&[&bytes]);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                wide(&[&flipped]),
                clean,
                "flip of bit {bit} went undetected"
            );
        }
        for keep in 0..bytes.len() {
            assert_ne!(wide(&[&bytes[..keep]]), clean, "truncation to {keep} bytes");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(wide(&[&longer]), clean, "zero padding is not confusable");
        // Chunks 1 and 9 share a lane; chunks 1 and 2 do not.
        for (a, b) in [(1, 9), (1, 2)] {
            let mut swapped = bytes.clone();
            for i in 0..16 {
                swapped.swap(16 * a + i, 16 * b + i);
            }
            assert_ne!(wide(&[&swapped]), clean, "chunks {a} and {b} swapped");
        }
    }

    #[test]
    fn wide_fold_is_framed_and_is_not_fold() {
        let bytes = message(64);
        let mut two = TranscriptDigest::new();
        two.fold_wide([&bytes[..32]]);
        two.fold_wide([&bytes[32..]]);
        assert_ne!(two.value(), wide(&[&bytes]));
        assert_eq!(two.folded_bytes(), 64);
        let mut narrow = TranscriptDigest::new();
        narrow.fold(&bytes);
        assert_ne!(narrow.value(), wide(&[&bytes]));
        assert_ne!(wide(&[]), TranscriptDigest::new().value());
    }

    proptest::proptest! {
        #[test]
        fn wide_fold_ignores_how_the_message_is_cut(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..700),
            cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut from = 0;
            for cut in cuts {
                pieces.push(&bytes[from..cut]);
                from = cut;
            }
            pieces.push(&bytes[from..]);
            proptest::prop_assert_eq!(wide(&pieces), wide(&[&bytes]));
        }
    }

    #[test]
    fn empty_digest_is_deterministic() {
        assert_eq!(
            TranscriptDigest::new().value(),
            TranscriptDigest::default().value()
        );
        assert_eq!(TranscriptDigest::new().folded_bytes(), 0);
    }
}
