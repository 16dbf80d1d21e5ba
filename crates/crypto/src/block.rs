//! The 128-bit [`Block`] type shared by the whole garbled-circuit stack.

use std::fmt;
use std::ops::{BitAnd, BitXor, BitXorAssign};

/// A 128-bit block: a wire label, a garbled-table ciphertext, or an AES block.
///
/// Internally a `u128` in big-endian byte order (byte 0 of
/// [`Block::to_bytes`] holds the most significant 8 bits). The least
/// significant bit doubles as the *point-and-permute* color bit of a wire
/// label.
///
/// `repr(transparent)`: a `&[Block]` is a run of native-endian `u128`s, so
/// the SIMD AES arms load blocks straight into vector registers and put the
/// bytes in [`Block::to_bytes`] order with one byte shuffle.
///
/// # Example
///
/// ```
/// use max_crypto::Block;
///
/// let a = Block::new(0x1);
/// let b = Block::new(0x3);
/// assert_eq!(a ^ b, Block::new(0x2));
/// assert!(a.lsb());
/// assert!(!(a ^ b).lsb());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Block(u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);
    /// The all-one block.
    pub const ONES: Block = Block(u128::MAX);

    /// Creates a block from a raw `u128`.
    pub const fn new(bits: u128) -> Self {
        Block(bits)
    }

    /// Returns the raw 128 bits.
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Creates a block from 16 big-endian bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        Block(u128::from_be_bytes(bytes))
    }

    /// Returns the block as 16 big-endian bytes.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Least-significant bit: the point-and-permute *color* of a label.
    pub const fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Forces the least-significant bit to `bit`, leaving other bits alone.
    #[must_use]
    pub const fn with_lsb(self, bit: bool) -> Self {
        Block((self.0 & !1) | bit as u128)
    }

    /// Doubling in GF(2^128) with the standard reduction polynomial
    /// `x^128 + x^7 + x^2 + x + 1` (reduction constant `0x87`).
    ///
    /// Used to separate the two hash queries made on the same label when
    /// garbling the two halves of a half-gate.
    #[must_use]
    pub const fn gf_double(self) -> Self {
        let shifted = self.0 << 1;
        let reduced = if self.0 >> 127 == 1 {
            shifted ^ 0x87
        } else {
            shifted
        };
        Block(reduced)
    }

    /// Quadrupling in GF(2^128): `gf_double` applied twice.
    #[must_use]
    pub const fn gf_quad(self) -> Self {
        self.gf_double().gf_double()
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    pub const fn bit(self, i: usize) -> bool {
        assert!(i < 128);
        (self.0 >> i) & 1 == 1
    }

    /// XORs `other` into `self` only when `cond` is true, without branching
    /// on secret data in the caller.
    #[must_use]
    pub const fn xor_if(self, other: Block, cond: bool) -> Block {
        // A 0/1 mask extended to 128 bits.
        let mask = (cond as u128).wrapping_neg();
        Block(self.0 ^ (other.0 & mask))
    }
}

impl BitXor for Block {
    type Output = Block;

    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl BitXorAssign for Block {
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl BitAnd for Block {
    type Output = Block;

    fn bitand(self, rhs: Block) -> Block {
        Block(self.0 & rhs.0)
    }
}

impl From<u128> for Block {
    fn from(bits: u128) -> Self {
        Block(bits)
    }
}

impl From<Block> for u128 {
    fn from(block: Block) -> Self {
        block.0
    }
}

impl From<[u8; 16]> for Block {
    fn from(bytes: [u8; 16]) -> Self {
        Block::from_bytes(bytes)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:032x})", self.0)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_bytes() {
        let block = Block::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(Block::from_bytes(block.to_bytes()), block);
    }

    #[test]
    fn byte_order_is_big_endian() {
        let block = Block::new(0x01);
        assert_eq!(block.to_bytes()[15], 0x01);
        assert_eq!(block.to_bytes()[0], 0x00);
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = Block::new(0xdead_beef);
        let b = Block::new(0x1234_5678_9abc_def0);
        assert_eq!(a ^ b ^ b, a);
        assert_eq!(a ^ a, Block::ZERO);
    }

    #[test]
    fn lsb_and_with_lsb() {
        let even = Block::new(0xf0);
        assert!(!even.lsb());
        assert!(even.with_lsb(true).lsb());
        assert_eq!(even.with_lsb(true).with_lsb(false), even);
    }

    #[test]
    fn gf_double_without_carry_is_shift() {
        let block = Block::new(0x1);
        assert_eq!(block.gf_double(), Block::new(0x2));
    }

    #[test]
    fn gf_double_reduces_on_carry() {
        let block = Block::new(1u128 << 127);
        assert_eq!(block.gf_double(), Block::new(0x87));
    }

    #[test]
    fn gf_double_is_injective_on_samples() {
        let samples = [
            Block::new(0),
            Block::new(1),
            Block::new(u128::MAX),
            Block::new(1 << 127),
            Block::new(0x87),
        ];
        for (i, a) in samples.iter().enumerate() {
            for (j, b) in samples.iter().enumerate() {
                if i != j {
                    assert_ne!(a.gf_double(), b.gf_double());
                }
            }
        }
    }

    #[test]
    fn xor_if_behaves_like_branch() {
        let a = Block::new(0xaaaa);
        let b = Block::new(0x5555);
        assert_eq!(a.xor_if(b, true), a ^ b);
        assert_eq!(a.xor_if(b, false), a);
    }

    #[test]
    fn bit_indexing_matches_shift() {
        let block = Block::new(0b1010);
        assert!(!block.bit(0));
        assert!(block.bit(1));
        assert!(!block.bit(2));
        assert!(block.bit(3));
    }

    #[test]
    fn debug_is_nonempty_and_hex() {
        let text = format!("{:?}", Block::ZERO);
        assert!(text.starts_with("Block("));
        assert_eq!(format!("{}", Block::new(0xff)), format!("{:032x}", 0xffu32));
    }
}
