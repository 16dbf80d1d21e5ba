//! A from-scratch software AES-128 implementation.
//!
//! The S-box is derived at compile time from its algebraic definition
//! (multiplicative inverse in GF(2^8) followed by the affine map), which
//! avoids transcription errors in a hand-typed table. Round keys are
//! precomputed at construction so [`Aes128::encrypt`] is allocation-free —
//! this mirrors the MAXelerator GC engine, whose fixed-key AES core never
//! reschedules keys at runtime.

use crate::{AesBackend, Block};

/// GF(2^8) multiplication with the AES polynomial `x^8 + x^4 + x^3 + x + 1`.
const fn gf256_mul(mut a: u8, mut b: u8) -> u8 {
    let mut product = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 == 1 {
            product ^= a;
        }
        let high = a & 0x80;
        a <<= 1;
        if high != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    product
}

/// GF(2^8) inverse by Fermat: `a^254`.
const fn gf256_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 via square-and-multiply (exponent 254 = 0b11111110).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf256_mul(result, base);
        }
        base = gf256_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The AES affine transformation applied to the GF(2^8) inverse.
const fn sbox_entry(x: u8) -> u8 {
    let inv = gf256_inv(x);
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = sbox_entry(i as u8);
        i += 1;
    }
    table
}

/// The AES S-box, generated from its algebraic definition.
pub(crate) const SBOX: [u8; 256] = build_sbox();

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The eleven AES-128 round keys, each in FIPS-197 byte order.
pub(crate) type RoundKeys = [[u8; 16]; 11];

/// AES-128 block cipher with precomputed round keys.
///
/// # Example
///
/// ```
/// use max_crypto::{Aes128, Block};
///
/// let aes = Aes128::new(Block::new(0));
/// let ct = aes.encrypt(Block::new(0));
/// assert_ne!(ct, Block::new(0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: RoundKeys,
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: Block) -> Self {
        let key = key.to_bytes();
        let mut words = [[0u8; 4]; 44];
        for (i, word) in words.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (round, round_key) in round_keys.iter_mut().enumerate() {
            for word in 0..4 {
                round_key[4 * word..4 * word + 4].copy_from_slice(&words[4 * round + word]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one block, dispatching to the active backend (the 128-bit
    /// arm on a VAES host: one block fills no wide register).
    pub fn encrypt(&self, plaintext: Block) -> Block {
        #[cfg(target_arch = "x86_64")]
        if AesBackend::active() != AesBackend::Software {
            // SAFETY: both SIMD backends are selected only after runtime
            // detection found `aes` and `ssse3` on this CPU.
            #[allow(unsafe_code)]
            return unsafe { crate::aesni::encrypt_block(&self.round_keys, plaintext) };
        }
        self.encrypt_software(plaintext)
    }

    /// Encrypts every block in `blocks` in place, dispatching to the active
    /// backend. This is the hot-path entry point: the VAES arm keeps 32
    /// blocks in flight, the AES-NI arm eight, and the software backend
    /// pipelines eight blocks in lockstep through the round functions.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        self.dispatch::<false>(blocks);
    }

    /// Replaces every block `x` in `blocks` with `π(x) ⊕ x` in one sweep,
    /// the feed-forward XOR done in registers: the fixed-key hash and the
    /// digest's Matyas–Meyer–Oseas lanes.
    pub(crate) fn encrypt_blocks_feed_forward(&self, blocks: &mut [Block]) {
        self.dispatch::<true>(blocks);
    }

    fn dispatch<const FEED_FORWARD: bool>(&self, blocks: &mut [Block]) {
        #[cfg(target_arch = "x86_64")]
        match AesBackend::active() {
            AesBackend::Vaes => {
                // SAFETY: `AesBackend::Vaes` is only selected after runtime
                // detection found `vaes`, `avx512f` and `avx512bw`.
                #[allow(unsafe_code)]
                unsafe {
                    crate::vaes::encrypt_blocks::<FEED_FORWARD>(&self.round_keys, blocks)
                };
                return;
            }
            AesBackend::AesNi => {
                // SAFETY: see `encrypt` — runtime detection gates this path.
                #[allow(unsafe_code)]
                unsafe {
                    crate::aesni::encrypt_blocks::<FEED_FORWARD>(&self.round_keys, blocks)
                };
                return;
            }
            AesBackend::Software => {}
        }
        self.software_sweep::<FEED_FORWARD>(blocks);
    }

    /// Encrypts `blocks` in place under many keys: the first `per_key`
    /// blocks under `cipher_of(0)`, the next `per_key` under
    /// `cipher_of(1)`, and so on. One sweep, eight keys in flight on either
    /// SIMD backend (a VAES register would need its four keys gathered per
    /// round).
    ///
    /// # Panics
    ///
    /// Panics if `per_key` is zero.
    pub(crate) fn encrypt_blocks_keyed<'k>(
        cipher_of: impl Fn(usize) -> &'k Aes128,
        per_key: usize,
        blocks: &mut [Block],
    ) {
        assert!(per_key > 0, "at least one block per key");
        #[cfg(target_arch = "x86_64")]
        if AesBackend::active() != AesBackend::Software {
            // SAFETY: see `encrypt` — runtime detection gates this path.
            #[allow(unsafe_code)]
            unsafe {
                crate::aesni::encrypt_blocks_keyed(
                    |key| &cipher_of(key).round_keys,
                    per_key,
                    blocks,
                )
            };
            return;
        }
        for (key, run) in blocks.chunks_mut(per_key).enumerate() {
            cipher_of(key).software_sweep::<false>(run);
        }
    }

    /// Encrypts one block on the portable software core regardless of the
    /// active backend. The parity tests pin `encrypt == encrypt_software`.
    pub fn encrypt_software(&self, plaintext: Block) -> Block {
        let mut state = plaintext.to_bytes();
        self.rounds_software(std::slice::from_mut(&mut state));
        Block::from_bytes(state)
    }

    /// Software batch path: pipelines [`SOFTWARE_PIPELINE`] blocks in
    /// lockstep — each round function runs across the whole chunk before the
    /// next round starts, which keeps the S-box lines hot and lets the
    /// compiler interleave the independent per-block work.
    fn software_sweep<const FEED_FORWARD: bool>(&self, blocks: &mut [Block]) {
        let mut states = [[0u8; 16]; SOFTWARE_PIPELINE];
        let mut chunks = blocks.chunks_mut(SOFTWARE_PIPELINE);
        for chunk in &mut chunks {
            for (state, block) in states.iter_mut().zip(chunk.iter()) {
                *state = block.to_bytes();
            }
            self.rounds_software(&mut states[..chunk.len()]);
            for (slot, state) in chunk.iter_mut().zip(states.iter()) {
                let out = Block::from_bytes(*state);
                *slot = if FEED_FORWARD { out ^ *slot } else { out };
            }
        }
    }

    /// Runs the full ten-round schedule over every state in lockstep.
    fn rounds_software(&self, states: &mut [[u8; 16]]) {
        for state in states.iter_mut() {
            add_round_key(state, &self.round_keys[0]);
        }
        for round in 1..10 {
            for state in states.iter_mut() {
                sub_bytes(state);
                shift_rows(state);
                mix_columns(state);
                add_round_key(state, &self.round_keys[round]);
            }
        }
        for state in states.iter_mut() {
            sub_bytes(state);
            shift_rows(state);
            add_round_key(state, &self.round_keys[10]);
        }
    }
}

/// Blocks the software batch path keeps in lockstep per chunk.
const SOFTWARE_PIPELINE: usize = 8;

/// The state is stored in FIPS-197 byte order: `state[4*c + r]` is row `r`,
/// column `c`.
fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(round_key) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for byte in state.iter_mut() {
        *byte = SBOX[*byte as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    let original = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * col + row] = original[4 * ((col + row) % 4) + row];
        }
    }
}

fn xtime(a: u8) -> u8 {
    let shifted = a << 1;
    if a & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let column = [
            state[4 * col],
            state[4 * col + 1],
            state[4 * col + 2],
            state[4 * col + 3],
        ];
        let all = column[0] ^ column[1] ^ column[2] ^ column[3];
        for row in 0..4 {
            let pair = column[row] ^ column[(row + 1) % 4];
            state[4 * col + row] = column[row] ^ all ^ xtime(pair);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_from_hex(hex: &str) -> Block {
        assert_eq!(hex.len(), 32);
        let mut bytes = [0u8; 16];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
        Block::from_bytes(bytes)
    }

    #[test]
    fn sbox_known_entries() {
        // Spot checks from FIPS-197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(SBOX[0x9a], 0xb8);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &entry in SBOX.iter() {
            assert!(!seen[entry as usize]);
            seen[entry as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_b() {
        let aes = Aes128::new(block_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt(block_from_hex("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, block_from_hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        let aes = Aes128::new(block_from_hex("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt(block_from_hex("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, block_from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn nist_kat_ecb_vartxt() {
        // NIST AESAVS ECB VarTxt KAT, key = 0, plaintext = 80...0.
        let aes = Aes128::new(Block::ZERO);
        let ct = aes.encrypt(block_from_hex("80000000000000000000000000000000"));
        assert_eq!(ct, block_from_hex("3ad78e726c1ec02b7ebfe92b23d9ec34"));
    }

    #[test]
    fn nist_kat_ecb_varkey() {
        // NIST AESAVS ECB VarKey KAT, key = 80...0, plaintext = 0.
        let aes = Aes128::new(block_from_hex("80000000000000000000000000000000"));
        let ct = aes.encrypt(Block::ZERO);
        assert_eq!(ct, block_from_hex("0edd33d3c621e546455bd8ba1418bec8"));
    }

    #[test]
    fn nist_kat_ecb_gfsbox() {
        // NIST AESAVS ECB GFSbox KATs, key = 0.
        let aes = Aes128::new(Block::ZERO);
        let vectors = [
            (
                "f34481ec3cc627bacd5dc3fb08f273e6",
                "0336763e966d92595a567cc9ce537f5e",
            ),
            (
                "9798c4640bad75c7c3227db910174e72",
                "a9a1631bf4996954ebc093957b234589",
            ),
            (
                "96ab5c2ff612d9dfaae8c31f30c42168",
                "ff4f8391a6a40ca5b25d23bedd44a597",
            ),
            (
                "6a118a874519e64e9963798a503f1d35",
                "dc43be40be0e53712f7e2bf5ca707209",
            ),
            (
                "cb9fceec81286ca3e989bd979b0cb284",
                "92beedab1895a94faa69b632e5cc47ce",
            ),
        ];
        for (pt, want) in vectors {
            assert_eq!(aes.encrypt(block_from_hex(pt)), block_from_hex(want));
            assert_eq!(
                aes.encrypt_software(block_from_hex(pt)),
                block_from_hex(want)
            );
        }
    }

    #[test]
    fn nist_kat_ecb_keysbox() {
        // NIST AESAVS ECB KeySbox KATs, plaintext = 0.
        let vectors = [
            (
                "10a58869d74be5a374cf867cfb473859",
                "6d251e6944b051e04eaa6fb4dbf78465",
            ),
            (
                "caea65cdbb75e9169ecd22ebe6e54675",
                "6e29201190152df4ee058139def610bb",
            ),
            (
                "a2e2fa9baf7d20822ca9f0542f764a41",
                "c3b44b95d9d2f25670eee9a0de099fa3",
            ),
        ];
        for (key, want) in vectors {
            let aes = Aes128::new(block_from_hex(key));
            assert_eq!(aes.encrypt(Block::ZERO), block_from_hex(want));
            assert_eq!(aes.encrypt_software(Block::ZERO), block_from_hex(want));
        }
    }

    #[test]
    fn batch_matches_scalar_for_all_lengths() {
        let aes = Aes128::new(Block::new(0xfeed_beef));
        for n in 0..=19usize {
            let blocks: Vec<Block> = (0..n).map(|i| Block::new(i as u128 * 77 + 5)).collect();
            let mut batched = blocks.clone();
            aes.encrypt_blocks(&mut batched);
            for (ct, pt) in batched.iter().zip(&blocks) {
                assert_eq!(*ct, aes.encrypt(*pt), "n={n}");
                assert_eq!(*ct, aes.encrypt_software(*pt), "n={n}");
            }
        }
    }

    /// Runs `arm` directly on `blocks` — `π(x)`, or `π(x) ⊕ x` with
    /// `feed_forward` — whatever backend the process selected. Returns
    /// `false` (blocks untouched) when this CPU lacks the arm.
    fn run_arm(arm: AesBackend, aes: &Aes128, blocks: &mut [Block], feed_forward: bool) -> bool {
        let keys = &aes.round_keys;
        match arm {
            #[cfg(target_arch = "x86_64")]
            AesBackend::Vaes if AesBackend::vaes_available() => {
                // SAFETY: the guard confirmed the arm's target features.
                #[allow(unsafe_code)]
                unsafe {
                    if feed_forward {
                        crate::vaes::encrypt_blocks::<true>(keys, blocks)
                    } else {
                        crate::vaes::encrypt_blocks::<false>(keys, blocks)
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi if AesBackend::aesni_available() => {
                // SAFETY: the guard confirmed the arm's target features.
                #[allow(unsafe_code)]
                unsafe {
                    if feed_forward {
                        crate::aesni::encrypt_blocks::<true>(keys, blocks)
                    } else {
                        crate::aesni::encrypt_blocks::<false>(keys, blocks)
                    }
                }
            }
            AesBackend::Software if feed_forward => aes.software_sweep::<true>(blocks),
            AesBackend::Software => aes.software_sweep::<false>(blocks),
            _ => return false,
        }
        true
    }

    #[test]
    fn aesni_matches_software_when_available() {
        let aes = Aes128::new(Block::new(0x5eed_cafe));
        let mut blocks: Vec<Block> = (0..37).map(|i| Block::new(i * 31 + 7)).collect();
        let reference: Vec<Block> = blocks.iter().map(|&b| aes.encrypt_software(b)).collect();
        if run_arm(AesBackend::AesNi, &aes, &mut blocks, false) {
            assert_eq!(blocks, reference);
        }
    }

    #[test]
    fn every_arm_matches_software_at_every_length() {
        // 0..=70 covers the VAES arm's full 32-block sweeps, every tail of
        // one to eight registers (masked tails of one to three blocks
        // included) and the AES-NI arm's 8/4/2/1 tails.
        let mut rng = crate::AesPrg::new(Block::new(0xa7a7));
        let mut ran = Vec::new();
        for arm in [AesBackend::Vaes, AesBackend::AesNi, AesBackend::Software] {
            for len in 0..=70usize {
                let aes = Aes128::new(rng.next_block());
                let plain = rng.blocks(len);
                let cipher: Vec<Block> = plain.iter().map(|&p| aes.encrypt_software(p)).collect();
                let hashed: Vec<Block> = plain.iter().zip(&cipher).map(|(&p, &c)| p ^ c).collect();
                let mut blocks = plain.clone();
                if !run_arm(arm, &aes, &mut blocks, false) {
                    break;
                }
                assert_eq!(blocks, cipher, "{} encrypt len {len}", arm.label());
                let mut blocks = plain;
                assert!(run_arm(arm, &aes, &mut blocks, true));
                assert_eq!(blocks, hashed, "{} hash len {len}", arm.label());
                if len == 70 {
                    ran.push(arm.label());
                }
            }
        }
        println!("AES arms checked: {}", ran.join(", "));
        assert!(ran.contains(&"software"));
    }

    #[test]
    fn keyed_sweep_matches_one_key_at_a_time() {
        let ciphers: Vec<Aes128> = (0..13u128)
            .map(|k| Aes128::new(Block::new(k * 0x9e37)))
            .collect();
        for per in 1..=3usize {
            let plain: Vec<Block> = (0..13 * per).map(|i| Block::new(i as u128 * 101)).collect();
            let mut blocks = plain.clone();
            Aes128::encrypt_blocks_keyed(|key| &ciphers[key], per, &mut blocks);
            for (j, (got, p)) in blocks.iter().zip(&plain).enumerate() {
                assert_eq!(
                    *got,
                    ciphers[j / per].encrypt_software(*p),
                    "per {per} block {j}"
                );
            }
        }
    }

    mod parity_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The dispatched backend (whichever is active) and the portable
            /// software core agree on every ciphertext.
            #[test]
            fn backends_produce_identical_ciphertexts(
                key in any::<u128>(),
                pts in prop::collection::vec(any::<u128>(), 0..40),
            ) {
                let aes = Aes128::new(Block::new(key));
                let blocks: Vec<Block> = pts.iter().map(|&p| Block::new(p)).collect();
                let mut batched = blocks.clone();
                aes.encrypt_blocks(&mut batched);
                for (ct, pt) in batched.iter().zip(&blocks) {
                    prop_assert_eq!(*ct, aes.encrypt_software(*pt));
                    prop_assert_eq!(*ct, aes.encrypt(*pt));
                }
            }

            /// Each SIMD arm the CPU has matches the software pipeline bit
            /// for bit, regardless of which backend the process selected.
            #[test]
            fn aesni_parity_under_random_keys(
                key in any::<u128>(),
                pts in prop::collection::vec(any::<u128>(), 1..40),
            ) {
                let aes = Aes128::new(Block::new(key));
                let plain: Vec<Block> = pts.iter().map(|&p| Block::new(p)).collect();
                let reference: Vec<Block> =
                    plain.iter().map(|&b| aes.encrypt_software(b)).collect();
                for arm in [AesBackend::Vaes, AesBackend::AesNi] {
                    let mut blocks = plain.clone();
                    if run_arm(arm, &aes, &mut blocks, false) {
                        prop_assert_eq!(&blocks, &reference);
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_plaintexts_produce_distinct_ciphertexts() {
        let aes = Aes128::new(Block::new(42));
        let mut outputs = std::collections::HashSet::new();
        for i in 0..256u128 {
            assert!(outputs.insert(aes.encrypt(Block::new(i))));
        }
    }

    #[test]
    fn key_changes_ciphertext() {
        let pt = Block::new(7);
        assert_ne!(
            Aes128::new(Block::new(1)).encrypt(pt),
            Aes128::new(Block::new(2)).encrypt(pt)
        );
    }
}
