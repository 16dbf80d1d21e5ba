//! AES-NI arm: the 128-bit AES round instructions via `std::arch::x86_64`.
//!
//! A [`Block`] is a native-endian `u128` (`repr(transparent)`), so its
//! bytes sit in memory in the reverse of the FIPS-197 state order that
//! `AESENC` consumes. Every kernel loads blocks straight from the caller's
//! slice into a vector register and reverses them with one `PSHUFB` on the
//! way in and one on the way out — no trip through general registers.
//!
//! Eight blocks are kept in flight per loop iteration (then four, two and
//! one for the tail). `AESENC` has a multi-cycle latency but single-cycle
//! throughput on every AES-NI core, so interleaving independent chains
//! hides the latency — the software analogue of MAXelerator's pipelined
//! fixed-key AES core. The round keys outnumber what is left of the
//! sixteen XMM registers, so the compiler reads some of them straight from
//! memory, which costs a load, not a stall.
//!
//! # Safety
//!
//! Every function here is `unsafe` because it requires the `aes` and
//! `ssse3` target features. The only callers are `Aes128`'s dispatch layer,
//! which gates every call behind `AesBackend::active()` (a successful
//! runtime detection of both features), and the parity tests, which check
//! `AesBackend::aesni_available()` first. All pointer accesses are
//! unaligned loads and stores inside caller-owned slices, at indices below
//! the slice length.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi8,
    _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::RoundKeys;
use crate::Block;

/// How many independent blocks the NI loop keeps in flight.
const PIPELINE_WIDTH: usize = 8;

/// The `PSHUFB` mask that reverses the sixteen bytes of a register.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn byte_reverse() -> __m128i {
    _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
}

#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn load_round_keys(round_keys: &RoundKeys) -> [__m128i; 11] {
    let mut keys = [byte_reverse(); 11];
    for (key, round_key) in keys.iter_mut().zip(round_keys) {
        *key = _mm_loadu_si128(round_key.as_ptr().cast());
    }
    keys
}

/// Encrypts one block with the AES-NI round instructions.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features.
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn encrypt_block(round_keys: &RoundKeys, block: Block) -> Block {
    let mut one = [block];
    encrypt_blocks::<false>(round_keys, &mut one);
    one[0]
}

/// Encrypts every block in `blocks` in place, eight in flight. With
/// `FEED_FORWARD` each block becomes `π(x) ⊕ x` instead of `π(x)`, the
/// input kept in the slice until the result overwrites it.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features.
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn encrypt_blocks<const FEED_FORWARD: bool>(
    round_keys: &RoundKeys,
    blocks: &mut [Block],
) {
    let keys = load_round_keys(round_keys);
    encrypt_with::<FEED_FORWARD>(|_, round| keys[round], blocks);
}

/// Encrypts `blocks` in place under many keys: the first `per_key` blocks
/// under `key_of(0)`, the next `per_key` under `key_of(1)`, and so on. One
/// sweep, eight blocks (and so up to eight keys) in flight; the round keys
/// are read from memory as each round needs them.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features.
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn encrypt_blocks_keyed<'k>(
    key_of: impl Fn(usize) -> &'k RoundKeys,
    per_key: usize,
    blocks: &mut [Block],
) {
    let (mut key, mut left) = (0, per_key);
    for chunk in blocks.chunks_mut(PIPELINE_WIDTH) {
        let mut keyed = [key_of(key); PIPELINE_WIDTH];
        for slot in &mut keyed[..chunk.len()] {
            if left == 0 {
                key += 1;
                left = per_key;
            }
            *slot = key_of(key);
            left -= 1;
        }
        encrypt_with::<false>(
            |lane, round| _mm_loadu_si128(keyed[lane][round].as_ptr().cast()),
            chunk,
        );
    }
}

/// The shared driver: full sweeps of [`PIPELINE_WIDTH`] blocks, then a
/// tail of four, two and one. `key(j, round)` is round key `round` of
/// block `j`, counted from the start of `blocks`.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn encrypt_with<const FEED_FORWARD: bool>(
    key: impl Fn(usize, usize) -> __m128i,
    blocks: &mut [Block],
) {
    let swap = byte_reverse();
    let len = blocks.len();
    let ptr = blocks.as_mut_ptr();
    let mut at = 0;
    while at + PIPELINE_WIDTH <= len {
        sweep::<PIPELINE_WIDTH, FEED_FORWARD>(&key, swap, ptr, at);
        at += PIPELINE_WIDTH;
    }
    if len - at >= 4 {
        sweep::<4, FEED_FORWARD>(&key, swap, ptr, at);
        at += 4;
    }
    if len - at >= 2 {
        sweep::<2, FEED_FORWARD>(&key, swap, ptr, at);
        at += 2;
    }
    if len - at == 1 {
        sweep::<1, FEED_FORWARD>(&key, swap, ptr, at);
    }
}

/// Encrypts the `N` blocks at `ptr + at ..` in lockstep.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features, and
/// `ptr + at .. ptr + at + N` must lie inside the slice `ptr` points into.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn sweep<const N: usize, const FEED_FORWARD: bool>(
    key: &impl Fn(usize, usize) -> __m128i,
    swap: __m128i,
    ptr: *mut Block,
    at: usize,
) {
    let slot = |lane: usize| ptr.add(at + lane).cast::<__m128i>();
    let mut states = [swap; N];
    for (lane, state) in states.iter_mut().enumerate() {
        let input = _mm_shuffle_epi8(_mm_loadu_si128(slot(lane)), swap);
        *state = _mm_xor_si128(input, key(at + lane, 0));
    }
    for round in 1..10 {
        for (lane, state) in states.iter_mut().enumerate() {
            *state = _mm_aesenc_si128(*state, key(at + lane, round));
        }
    }
    for (lane, state) in states.iter().enumerate() {
        let mut out = _mm_shuffle_epi8(_mm_aesenclast_si128(*state, key(at + lane, 10)), swap);
        if FEED_FORWARD {
            out = _mm_xor_si128(out, _mm_loadu_si128(slot(lane)));
        }
        _mm_storeu_si128(slot(lane), out);
    }
}
