//! VAES arm: AVX-512 vector AES via `std::arch::x86_64`.
//!
//! `VAESENC` on a 512-bit register runs one AES round on four independent
//! 128-bit lanes, so each instruction advances four blocks. The loop keeps
//! eight registers — 32 blocks — in flight, which with the eleven
//! broadcast round keys, the byte-reverse mask and the eight saved inputs
//! of the feed-forward form fits the 32 ZMM registers. A tail of `n < 32`
//! blocks runs on `⌈n/4⌉` registers, the last one filled by a masked load
//! and written back by a masked store, so no block outside the slice is
//! read or written.
//!
//! Blocks are loaded straight from the caller's `&mut [Block]` and put in
//! FIPS-197 byte order with one `VPSHUFB` per register, as in the AES-NI
//! arm.
//!
//! # Safety
//!
//! Every function here is `unsafe` because it requires the `vaes`,
//! `avx512f` and `avx512bw` target features. The only callers are
//! `Aes128`'s dispatch layer, which gates every call behind
//! `AesBackend::active()` (a successful runtime detection of all three),
//! and the parity tests, which check `AesBackend::vaes_available()` first.
//! Every load and store is masked to the 64-bit lanes of blocks inside the
//! caller-owned slice.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
    _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64, _mm512_shuffle_epi8, _mm512_xor_si512,
    _mm_loadu_si128, _mm_set_epi8,
};

use crate::aes::RoundKeys;
use crate::Block;

/// Blocks per 512-bit register.
const LANES: usize = 4;
/// Registers in flight per full sweep.
const REGISTERS: usize = 8;
/// Blocks in flight per full sweep.
const SWEEP: usize = LANES * REGISTERS;

/// Encrypts every block in `blocks` in place, 32 in flight. With
/// `FEED_FORWARD` each block becomes `π(x) ⊕ x` instead of `π(x)`.
///
/// # Safety
///
/// The CPU must support the `vaes`, `avx512f` and `avx512bw` target
/// features.
#[target_feature(enable = "vaes,avx512f,avx512bw")]
pub(crate) unsafe fn encrypt_blocks<const FEED_FORWARD: bool>(
    round_keys: &RoundKeys,
    blocks: &mut [Block],
) {
    let swap = _mm512_broadcast_i32x4(_mm_set_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    ));
    let mut keys = [swap; 11];
    for (key, round_key) in keys.iter_mut().zip(round_keys) {
        *key = _mm512_broadcast_i32x4(_mm_loadu_si128(round_key.as_ptr().cast()));
    }
    let mut sweeps = blocks.chunks_exact_mut(SWEEP);
    for chunk in &mut sweeps {
        sweep::<REGISTERS, FEED_FORWARD>(&keys, swap, chunk);
    }
    let tail = sweeps.into_remainder();
    match tail.len().div_ceil(LANES) {
        0 => {}
        1 => sweep::<1, FEED_FORWARD>(&keys, swap, tail),
        2 => sweep::<2, FEED_FORWARD>(&keys, swap, tail),
        3 => sweep::<3, FEED_FORWARD>(&keys, swap, tail),
        4 => sweep::<4, FEED_FORWARD>(&keys, swap, tail),
        5 => sweep::<5, FEED_FORWARD>(&keys, swap, tail),
        6 => sweep::<6, FEED_FORWARD>(&keys, swap, tail),
        7 => sweep::<7, FEED_FORWARD>(&keys, swap, tail),
        _ => sweep::<8, FEED_FORWARD>(&keys, swap, tail),
    }
}

/// Encrypts the blocks of `chunk` (more than `4·(R−1)`) on `R` registers
/// in lockstep.
///
/// # Safety
///
/// The CPU must support the `vaes`, `avx512f` and `avx512bw` target
/// features, and `chunk` must hold at most `4·R` blocks: register `r`
/// reads and writes blocks `4r..4r + 4` of it, masked to those below
/// `chunk.len()`.
#[inline]
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn sweep<const R: usize, const FEED_FORWARD: bool>(
    keys: &[__m512i; 11],
    swap: __m512i,
    chunk: &mut [Block],
) {
    debug_assert!(chunk.len() <= LANES * R && chunk.len() > LANES * (R - 1));
    let ptr = chunk.as_mut_ptr();
    // Register `r` holds blocks 4r..4r+4; its mask enables the two 64-bit
    // lanes of each of those blocks that lies inside the chunk.
    let mut masks: [__mmask8; R] = [0; R];
    let mut inputs = [swap; R];
    let mut states = [swap; R];
    for r in 0..R {
        let live = chunk.len().saturating_sub(LANES * r).min(LANES);
        masks[r] = ((1u16 << (2 * live)) - 1) as __mmask8;
        inputs[r] = _mm512_maskz_loadu_epi64(masks[r], ptr.wrapping_add(LANES * r).cast());
        states[r] = _mm512_xor_si512(_mm512_shuffle_epi8(inputs[r], swap), keys[0]);
    }
    for key in &keys[1..10] {
        for state in &mut states {
            *state = _mm512_aesenc_epi128(*state, *key);
        }
    }
    for (r, state) in states.iter().enumerate() {
        let mut out = _mm512_shuffle_epi8(_mm512_aesenclast_epi128(*state, keys[10]), swap);
        if FEED_FORWARD {
            out = _mm512_xor_si512(out, inputs[r]);
        }
        _mm512_mask_storeu_epi64(ptr.wrapping_add(LANES * r).cast(), masks[r], out);
    }
}
