//! The base-OT Diffie–Hellman group: multiplicative group mod `2^61 − 1`.
//!
//! A toy-scale stand-in for Curve25519 (see the crate-level substitution
//! notice). `2^61 − 1` is a Mersenne prime; `37` is a primitive root, so the
//! group is cyclic of order `2^61 − 2`.

use max_crypto::{Block, FixedKeyHash, Tweak};

/// The modulus `p = 2^61 − 1`.
pub const MODULUS: u64 = (1 << 61) - 1;

/// A primitive root mod `p` (verified by the `generator_is_primitive` test
/// against the full factorization of `p − 1`).
pub const GENERATOR: u64 = 37;

/// A group element in `[1, p)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GroupElem(u64);

impl GroupElem {
    /// The generator `g`.
    pub fn generator() -> Self {
        GroupElem(GENERATOR)
    }

    /// Wraps a raw residue.
    ///
    /// # Panics
    ///
    /// Panics if `value` is 0 or ≥ p (not a group element).
    pub fn new(value: u64) -> Self {
        assert!(value > 0 && value < MODULUS, "not a group element: {value}");
        GroupElem(value)
    }

    /// The raw residue.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Group multiplication. `2^61 ≡ 1 (mod p)`, so the 122-bit product
    /// reduces by adding its high 61 bits to its low 61 bits and
    /// subtracting `p` at most once, with no 128-bit division.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: GroupElem) -> GroupElem {
        let product = self.0 as u128 * rhs.0 as u128;
        let folded = (product as u64 & MODULUS) + (product >> 61) as u64;
        GroupElem(if folded >= MODULUS {
            folded - MODULUS
        } else {
            folded
        })
    }

    /// Exponentiation by square-and-multiply.
    #[must_use]
    pub fn pow(self, mut exp: u64) -> GroupElem {
        let mut base = self;
        let mut acc = GroupElem(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat (`a^(p-2)`).
    #[must_use]
    pub fn inverse(self) -> GroupElem {
        self.pow(MODULUS - 2)
    }

    /// `g^exp`.
    pub fn generator_pow(exp: u64) -> GroupElem {
        GroupElem::generator().pow(exp)
    }

    /// Hashes the element into a 128-bit key, domain-separated by `index`
    /// (the OT instance number).
    pub fn to_key(self, hash: &FixedKeyHash, index: u64) -> Block {
        hash.hash(
            Block::new(self.0 as u128),
            Tweak::from_gate_index(index ^ (1 << 63)),
        )
    }
}

/// Draws a uniformly random exponent in `[1, p − 1)` from 64 random bits
/// (the modulus is close enough to `2^64 / 8` that rejection is cheap).
pub fn random_exponent(bits: u64) -> u64 {
    1 + bits % (MODULUS - 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_mersenne_61() {
        assert_eq!(MODULUS, 2_305_843_009_213_693_951);
    }

    #[test]
    fn generator_is_primitive() {
        // p − 1 = 2 · 3² · 5² · 7 · 11 · 13 · 31 · 41 · 61 · 151 · 331 · 1321.
        let factors = [2u64, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321];
        let mut product = 1u128;
        // Verify the factorization covers p − 1 with its multiplicities.
        for (f, mult) in factors.iter().zip([1u32, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]) {
            product *= (*f as u128).pow(mult);
        }
        assert_eq!(product, (MODULUS - 1) as u128);
        for q in factors {
            assert_ne!(
                GroupElem::generator().pow((MODULUS - 1) / q),
                GroupElem::new(1),
                "generator has order dividing (p-1)/{q}"
            );
        }
    }

    #[test]
    fn mersenne_fold_matches_the_division_reference() {
        let mut prg = max_crypto::AesPrg::new(Block::new(0x61));
        let mut values = vec![1, 2, 37, 1 << 60, MODULUS - 2, MODULUS - 1];
        values.extend((0..64).map(|_| 1 + prg.next_u64() % (MODULUS - 1)));
        for &a in &values {
            for &b in &values {
                let want = (a as u128 * b as u128 % MODULUS as u128) as u64;
                assert_eq!(GroupElem(a).mul(GroupElem(b)).value(), want, "{a} * {b}");
            }
        }
    }

    #[test]
    fn dh_agreement() {
        let a = 123_456_789u64;
        let b = 987_654_321u64;
        let big_a = GroupElem::generator_pow(a);
        let big_b = GroupElem::generator_pow(b);
        assert_eq!(big_a.pow(b), big_b.pow(a));
    }

    #[test]
    fn inverse_works() {
        for v in [1u64, 2, 37, MODULUS - 1, 1_000_003] {
            let e = GroupElem::new(v);
            assert_eq!(e.mul(e.inverse()), GroupElem::new(1));
        }
    }

    #[test]
    fn pow_zero_is_identity() {
        assert_eq!(GroupElem::new(99).pow(0), GroupElem::new(1));
    }

    #[test]
    fn keys_are_index_separated() {
        let hash = FixedKeyHash::new();
        let e = GroupElem::new(42);
        assert_ne!(e.to_key(&hash, 0), e.to_key(&hash, 1));
    }

    #[test]
    fn random_exponent_in_range() {
        for bits in [0u64, 1, u64::MAX, MODULUS, MODULUS - 3] {
            let e = random_exponent(bits);
            assert!((1..MODULUS - 1).contains(&e));
        }
    }

    #[test]
    #[should_panic(expected = "not a group element")]
    fn zero_rejected() {
        GroupElem::new(0);
    }
}
