//! The fixed-key-AES correlation-robust hash used by the GC engine.
//!
//! MAXelerator garbles AND gates with the JustGarble construction
//! (Bellare–Hoang–Keelveedhi–Rogaway, S&P 2013): a single AES-128 instance
//! with a *fixed*, public key `π`, queried as
//!
//! ```text
//! H(X, T) = π(2X ⊕ T) ⊕ (2X ⊕ T)
//! ```
//!
//! where `2X` is doubling in GF(2^128) and `T` is a per-gate tweak that is
//! unique across the whole (multi-round, multi-core) garbling operation. In
//! hardware this is the single-stage AES pipeline of §5.1 of the paper; the
//! uniqueness of `T` is what lets many cores share one key schedule.

use crate::{Aes128, Block};

/// The public fixed key. Any constant works; this is the digit expansion of π.
const FIXED_KEY: Block = Block::new(0x243f_6a88_85a3_08d3_1319_8a2e_0370_7344);

/// Per-gate tweak, unique across rounds, cores, stages and gates.
///
/// §5.1: "The unique gate identifier T is generated by concatenating i, j
/// (see Eq. 3), core id, stage index and gate id". [`Tweak::new`] packs those
/// coordinates into one 128-bit value; [`Tweak::from_gate_index`] is the flat
/// software-garbler form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tweak(pub Block);

impl Tweak {
    /// Packs the MAXelerator gate coordinates into a unique tweak.
    ///
    /// Field widths (LSB first): gate id 8 bits, stage index 24 bits, core id
    /// 16 bits, round 32 bits, output element index 32 bits. The remaining
    /// high bits hold a domain separator so tweaks never collide with
    /// [`Tweak::from_gate_index`] values.
    pub fn new(elem: u32, round: u32, core: u16, stage: u32, gate: u8) -> Self {
        debug_assert!(stage < (1 << 24));
        let packed = (1u128 << 120)
            | ((elem as u128) << 80)
            | ((round as u128) << 48)
            | ((core as u128) << 32)
            | ((stage as u128) << 8)
            | gate as u128;
        Tweak(Block::new(packed))
    }

    /// Flat tweak for software garblers that number gates sequentially.
    pub fn from_gate_index(index: u64) -> Self {
        Tweak(Block::new(index as u128))
    }

    /// The second tweak of a half-gate pair (evaluator half).
    ///
    /// Half-gates hash each input label once per half, so every AND gate
    /// consumes two tweaks; we derive the sibling by flipping a high bit
    /// outside every packing field.
    #[must_use]
    pub fn sibling(self) -> Self {
        Tweak(self.0 ^ Block::new(1 << 126))
    }
}

/// Fixed-key AES hash `H(X, T) = π(2X ⊕ T) ⊕ 2X ⊕ T`.
///
/// # Example
///
/// ```
/// use max_crypto::{Block, FixedKeyHash, Tweak};
///
/// let hash = FixedKeyHash::new();
/// let label = Block::new(0xabcdef);
/// let tweak = Tweak::from_gate_index(7);
/// // Deterministic...
/// assert_eq!(hash.hash(label, tweak), hash.hash(label, tweak));
/// // ...but tweak-separated.
/// assert_ne!(hash.hash(label, tweak), hash.hash(label, tweak.sibling()));
/// ```
#[derive(Clone, Debug)]
pub struct FixedKeyHash {
    cipher: Aes128,
}

impl FixedKeyHash {
    /// Creates the hash with the standard public fixed key.
    pub fn new() -> Self {
        FixedKeyHash {
            cipher: Aes128::new(FIXED_KEY),
        }
    }

    /// Hashes label `x` under tweak `t`.
    pub fn hash(&self, x: Block, t: Tweak) -> Block {
        let masked = x.gf_double() ^ t.0;
        self.cipher.encrypt(masked) ^ masked
    }

    /// Hashes four labels under their tweaks with one batched AES call —
    /// exactly the four hashes one half-gates AND table needs.
    pub fn hash4(&self, xs: [Block; 4], ts: [Tweak; 4]) -> [Block; 4] {
        let mut blocks = [
            xs[0].gf_double() ^ ts[0].0,
            xs[1].gf_double() ^ ts[1].0,
            xs[2].gf_double() ^ ts[2].0,
            xs[3].gf_double() ^ ts[3].0,
        ];
        self.cipher.encrypt_blocks_feed_forward(&mut blocks);
        blocks
    }

    /// Hashes every `(label, tweak)` pair with one batched AES sweep into a
    /// new vector; see [`FixedKeyHash::hash_into`].
    pub fn hash_slice(&self, inputs: &[(Block, Tweak)]) -> Vec<Block> {
        let mut out = Vec::with_capacity(inputs.len());
        self.hash_into(inputs.iter().copied(), &mut out);
        out
    }

    /// [`FixedKeyHash::hash_slice`] into a caller-owned buffer, for loops
    /// that hash many batches: `out` is cleared first and keeps its
    /// capacity. One pass writes the masked inputs `2X ⊕ T` into `out`; one
    /// AES sweep then encrypts them in place and feeds each input forward
    /// in registers. The software arm of the half-gates level kernels.
    pub fn hash_into(
        &self,
        inputs: impl IntoIterator<Item = (Block, Tweak)>,
        out: &mut Vec<Block>,
    ) {
        out.clear();
        out.extend(inputs.into_iter().map(|(x, t)| x.gf_double() ^ t.0));
        self.cipher.encrypt_blocks_feed_forward(out);
    }

    /// The cipher `π`, for the half-gates kernels' SIMD arm.
    pub(crate) fn cipher(&self) -> &Aes128 {
        &self.cipher
    }

    /// Dual-key hash `H(A, B, T) = π(2A ⊕ 4B ⊕ T) ⊕ (2A ⊕ 4B ⊕ T)` — the
    /// JustGarble construction for classic (two-key) garbled-table rows,
    /// used by the pre-half-gates schemes in `max-gc`.
    pub fn hash2(&self, a: Block, b: Block, t: Tweak) -> Block {
        let masked = a.gf_double() ^ b.gf_quad() ^ t.0;
        self.cipher.encrypt(masked) ^ masked
    }
}

impl Default for FixedKeyHash {
    fn default() -> Self {
        FixedKeyHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = FixedKeyHash::new();
        let x = Block::new(123456789);
        let t = Tweak::from_gate_index(42);
        assert_eq!(h.hash(x, t), h.hash(x, t));
    }

    #[test]
    fn different_labels_hash_differently() {
        let h = FixedKeyHash::new();
        let t = Tweak::from_gate_index(1);
        assert_ne!(h.hash(Block::new(1), t), h.hash(Block::new(2), t));
    }

    #[test]
    fn different_tweaks_hash_differently() {
        let h = FixedKeyHash::new();
        let x = Block::new(99);
        assert_ne!(
            h.hash(x, Tweak::from_gate_index(1)),
            h.hash(x, Tweak::from_gate_index(2))
        );
    }

    #[test]
    fn structured_tweaks_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for elem in 0..3 {
            for round in 0..3 {
                for core in 0..3 {
                    for stage in 0..3 {
                        for gate in 0..3 {
                            let t = Tweak::new(elem, round, core, stage, gate);
                            assert!(seen.insert(t.0), "collision at {t:?}");
                            assert!(seen.insert(t.sibling().0), "sibling collision");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn structured_and_flat_tweaks_never_collide() {
        let structured = Tweak::new(0, 0, 0, 0, 0);
        let flat = Tweak::from_gate_index(0);
        assert_ne!(structured.0, flat.0);
    }

    #[test]
    fn sibling_is_involution() {
        let t = Tweak::new(1, 2, 3, 4, 5);
        assert_eq!(t.sibling().sibling(), t);
        assert_ne!(t.sibling(), t);
    }

    #[test]
    fn hash2_depends_on_both_keys_and_order() {
        let h = FixedKeyHash::new();
        let t = Tweak::from_gate_index(4);
        let a = Block::new(0x1111);
        let b = Block::new(0x2222);
        assert_ne!(h.hash2(a, b, t), h.hash2(b, a, t));
        assert_ne!(h.hash2(a, b, t), h.hash2(a, Block::new(0x2223), t));
        assert_ne!(h.hash2(a, b, t), h.hash2(Block::new(0x1112), b, t));
        assert_eq!(h.hash2(a, b, t), h.hash2(a, b, t));
    }

    #[test]
    fn hash4_matches_scalar_hash() {
        let h = FixedKeyHash::new();
        let xs = [
            Block::new(0x1111),
            Block::new(0x2222),
            Block::new(0x3333),
            Block::new(0x4444),
        ];
        let ts = [
            Tweak::from_gate_index(1),
            Tweak::from_gate_index(1).sibling(),
            Tweak::from_gate_index(2),
            Tweak::new(7, 8, 9, 10, 11),
        ];
        let batched = h.hash4(xs, ts);
        for i in 0..4 {
            assert_eq!(batched[i], h.hash(xs[i], ts[i]), "lane {i}");
        }
    }

    #[test]
    fn hash_slice_matches_scalar_hash() {
        let h = FixedKeyHash::new();
        let inputs: Vec<(Block, Tweak)> = (0..37)
            .map(|i| {
                (
                    Block::new(0x9e37_79b9 * (i as u128 + 1)),
                    Tweak::from_gate_index(i),
                )
            })
            .collect();
        let batched = h.hash_slice(&inputs);
        assert_eq!(batched.len(), inputs.len());
        for (out, &(x, t)) in batched.iter().zip(&inputs) {
            assert_eq!(*out, h.hash(x, t));
        }
    }

    #[test]
    fn hash_differs_from_raw_aes() {
        // The feed-forward XOR must be present (Davies–Meyer-like).
        let h = FixedKeyHash::new();
        let aes = Aes128::new(FIXED_KEY);
        let x = Block::new(5);
        let t = Tweak::from_gate_index(9);
        let masked = x.gf_double() ^ t.0;
        assert_eq!(h.hash(x, t), aes.encrypt(masked) ^ masked);
        assert_ne!(h.hash(x, t), aes.encrypt(masked));
    }
}
