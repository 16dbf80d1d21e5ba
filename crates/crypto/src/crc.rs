//! CRC32 (IEEE 802.3, reflected) — the one checksum of the repository.
//!
//! It seals every wire frame (`max_gc::channel::seal_frame`) and guards every
//! journal record (`max_serve::journal`), so a job pushes ~200 KB through it
//! on each side. Two arms, chosen per call by runtime detection:
//!
//! * **CLMUL** (x86_64 with `pclmulqdq`): inputs of 64 bytes or more fold
//!   four 128-bit lanes at a time with carry-less multiplies, then fold to
//!   128 bits, then to 64, and Barrett-reduce to 32 — the reflected-IEEE
//!   construction of Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ" (Intel, 2009). The last `len % 16` bytes
//!   go through slice-by-16.
//! * **Slice-by-16**: sixteen compile-time tables let one iteration fold
//!   sixteen input bytes with independent lookups instead of sixteen
//!   dependent ones. Portable; the fallback and the tail of the CLMUL arm.
//!
//! The CLMUL fold and Barrett constants are powers of `x` modulo the
//! polynomial; a unit test derives each from [`POLY`].
//!
//! CRC32 catches accidental corruption only; it is not a MAC.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes;
/// `TABLES[0]` is the classic one-lookup-per-byte table.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`: `crc32(b"123456789") == 0xCBF4_3926`,
/// `crc32(b"") == 0`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        let (folded, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `available()` confirmed `pclmulqdq` on this CPU, and
        // `folded` is at least `MIN_LEN` bytes long and a multiple of 16.
        #[allow(unsafe_code)]
        let crc = unsafe { clmul::update(u32::MAX, folded) };
        return !sliced(crc, tail);
    }
    !sliced(u32::MAX, bytes)
}

/// Slice-by-16 over `bytes` from the running (pre-inverted) register `crc`.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        // The running CRC folds into the first four bytes; byte `j` of the
        // chunk is then followed by `15 - j` more bytes, hence its table.
        let mut folded = [0u8; 16];
        folded.copy_from_slice(c);
        for (byte, head) in folded.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= head;
        }
        crc = 0;
        for (j, &byte) in folded.iter().enumerate() {
            crc ^= TABLES[15 - j][usize::from(byte)];
        }
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from(byte ^ crc as u8)];
    }
    crc
}

/// The carry-less-multiply arm.
///
/// # Safety
///
/// [`clmul::update`] is `unsafe` because it requires the `pclmulqdq`
/// target feature; [`crc32`] calls it only after [`clmul::available`]
/// confirmed the feature at runtime. Its loads are unaligned 16-byte reads
/// at offsets `16·i < bytes.len()` of a slice whose length is a multiple
/// of 16, so none leaves the slice.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the arm takes: one four-lane load.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold by four lanes: `x^(4·128+32)` and `x^(4·128−32)` mod P,
    /// bit-reflected and shifted left by one.
    pub(super) const K1_K2: [u64; 2] = [0x1_5444_2BD4, 0x1_C6E4_1596];
    /// Fold by one lane: `x^(128+32)` and `x^(128−32)` mod P, likewise.
    pub(super) const K3_K4: [u64; 2] = [0x1_7519_97D0, 0x0_CCAA_009E];
    /// Fold 64 bits to 32: `x^64` mod P, likewise.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// Barrett reduction: P itself and `⌊x^64 / P⌋`, each bit-reflected
    /// over its 33 bits.
    pub(super) const P_MU: [u64; 2] = [0x1_DB71_0641, 0x1_F701_1641];

    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn pair(constants: [u64; 2]) -> __m128i {
        _mm_set_epi64x(constants[1] as i64, constants[0] as i64)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(bytes: &[u8], at: usize) -> __m128i {
        _mm_loadu_si128(bytes.as_ptr().add(at).cast())
    }

    /// `acc` carried 128 bits forward by the distance `k` encodes, folded
    /// into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(acc, k, 0x00);
        let high = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Advances the running (pre-inverted) register `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`, and `bytes.len()` must be at least
    /// [`MIN_LEN`] and a multiple of 16.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16));
        let mut lanes = [
            load(bytes, 0),
            load(bytes, 16),
            load(bytes, 32),
            load(bytes, 48),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1_k2 = pair(K1_K2);
        let mut at = MIN_LEN;
        while at + MIN_LEN <= bytes.len() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, k1_k2, load(bytes, at + 16 * i));
            }
            at += MIN_LEN;
        }
        let k3_k4 = pair(K3_K4);
        let mut acc = fold(lanes[0], k3_k4, lanes[1]);
        acc = fold(acc, k3_k4, lanes[2]);
        acc = fold(acc, k3_k4, lanes[3]);
        while at < bytes.len() {
            acc = fold(acc, k3_k4, load(bytes, at));
            at += 16;
        }
        // 128 bits to 64, then to 32 plus a 32-bit remainder to reduce.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 8),
            _mm_clmulepi64_si128(acc, k3_k4, 0x10),
        );
        let high = _mm_srli_si128(acc, 4);
        acc = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pair([K5, 0]), 0x00);
        acc = _mm_xor_si128(acc, high);
        // Barrett: q = ⌊acc·μ⌋ on the low 32 bits, then acc ⊕ q·P.
        let p_mu = pair(P_MU);
        let mut q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), p_mu, 0x10);
        q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), p_mu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, q), 4)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-lookup-per-byte loop the sliced implementation replaced, kept
    /// as the differential oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][usize::from(b ^ crc as u8)];
        }
        !crc
    }

    fn crc32_sliced(bytes: &[u8]) -> u32 {
        !sliced(u32::MAX, bytes)
    }

    /// The CLMUL arm called directly (slice-by-16 below its minimum
    /// length and for the tail, as in [`crc32`]), or `None` when this CPU
    /// lacks it.
    fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            if bytes.len() < clmul::MIN_LEN {
                return Some(crc32_sliced(bytes));
            }
            let (folded, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: feature checked above; `folded` is at least MIN_LEN
            // bytes and a multiple of 16.
            #[allow(unsafe_code)]
            let crc = unsafe { clmul::update(u32::MAX, folded) };
            return Some(!sliced(crc, tail));
        }
        let _ = bytes;
        None
    }

    fn pattern(len: usize, salt: u32) -> Vec<u8> {
        let mut state = 0x9E37_79B9u32 ^ salt;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn pinned_check_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_short_length_at_every_offset_matches_the_bytewise_oracle() {
        let data = pattern(64 + 16, 1);
        for offset in 0..16 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn every_arm_matches_the_bytewise_oracle_at_every_length_and_offset() {
        let data = pattern(300 + 16, 2);
        let mut clmul_ran = false;
        for offset in 0..16 {
            for len in 0..=300 {
                let slice = &data[offset..offset + len];
                let want = crc32_bytewise(slice);
                assert_eq!(
                    crc32_sliced(slice),
                    want,
                    "sliced offset {offset} len {len}"
                );
                if let Some(got) = crc32_clmul(slice) {
                    clmul_ran = true;
                    assert_eq!(got, want, "clmul offset {offset} len {len}");
                }
                assert_eq!(crc32(slice), want, "dispatched offset {offset} len {len}");
            }
        }
        println!(
            "crc32 arms checked: bytewise, slice-by-16{}",
            if clmul_ran {
                ", clmul"
            } else {
                " (no clmul on this CPU)"
            }
        );
    }

    /// `x^n mod P(x)` in normal (unreflected) bit order, where `P` is the
    /// degree-32 polynomial whose reflected low 32 bits are [`POLY`].
    #[cfg(target_arch = "x86_64")]
    fn x_pow_mod(n: u32) -> u32 {
        let p = (1u64 << 32) | u64::from(POLY.reverse_bits());
        let mut r = 1u64;
        for _ in 0..n {
            r <<= 1;
            if r >> 32 & 1 == 1 {
                r ^= p;
            }
        }
        r as u32
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_derive_from_the_polynomial() {
        // Each fold constant is x^n mod P, reflected, shifted left by one.
        let fold = |n: u32| u64::from(x_pow_mod(n).reverse_bits()) << 1;
        assert_eq!(clmul::K1_K2, [fold(4 * 128 + 32), fold(4 * 128 - 32)]);
        assert_eq!(clmul::K3_K4, [fold(128 + 32), fold(128 - 32)]);
        assert_eq!(clmul::K5, fold(64));
        // Barrett: P and ⌊x^64 / P⌋, each reflected over 33 bits.
        let p = (1u64 << 32) | u64::from(POLY.reverse_bits());
        let mut rem = 1u128 << 64;
        let mut mu = 0u64;
        for shift in (0..=32).rev() {
            if rem >> (32 + shift) & 1 == 1 {
                rem ^= u128::from(p) << shift;
                mu |= 1 << shift;
            }
        }
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        assert_eq!(clmul::P_MU, [reflect33(p), reflect33(mu)]);
    }

    proptest! {
        #[test]
        fn random_buffers_match_the_bytewise_oracle(
            len in 0usize..=65_536,
            offset in 0usize..16,
            salt in any::<u32>(),
        ) {
            let data = pattern(len + offset, salt);
            let slice = &data[offset..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
