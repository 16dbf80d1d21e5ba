//! AES-CTR pseudo-random generator.
//!
//! Used wherever the protocol stack needs *expanded* randomness from a short
//! seed: the IKNP OT-extension column expansion, deterministic test-vector
//! generation, and the software baselines' label sampling. The hardware
//! label generator (ring-oscillator TRNG) lives in `max-rng`; this PRG is its
//! software-side counterpart.

use crate::{Aes128, Block};

/// A deterministic pseudo-random generator: AES-128 in counter mode.
///
/// # Example
///
/// ```
/// use max_crypto::{AesPrg, Block};
///
/// let mut a = AesPrg::new(Block::new(1));
/// let mut b = AesPrg::new(Block::new(1));
/// assert_eq!(a.next_block(), b.next_block());
/// ```
#[derive(Clone, Debug)]
pub struct AesPrg {
    cipher: Aes128,
    counter: u128,
}

impl AesPrg {
    /// Creates a PRG from a 128-bit seed.
    pub fn new(seed: Block) -> Self {
        AesPrg {
            cipher: Aes128::new(seed),
            counter: 0,
        }
    }

    /// Creates a PRG from a seed and a starting counter, so disjoint streams
    /// can be derived from one seed.
    pub fn with_stream(seed: Block, stream: u64) -> Self {
        AesPrg {
            cipher: Aes128::new(seed),
            counter: (stream as u128) << 64,
        }
    }

    /// The current CTR-mode counter (stream bits in the high half).
    ///
    /// Together with the seed this is the PRG's entire mutable state, so a
    /// stream can be persisted as `(seed, counter)` and rebuilt later with
    /// [`AesPrg::set_counter`] — the primitive behind durable OT-sender
    /// checkpoints.
    pub fn counter(&self) -> u128 {
        self.counter
    }

    /// Repositions the stream at an absolute counter value (as returned by
    /// [`AesPrg::counter`]). The cipher key is untouched: a fresh PRG from
    /// the same seed plus `set_counter` reproduces the original stream
    /// bit-identically from that point on.
    pub fn set_counter(&mut self, counter: u128) {
        self.counter = counter;
    }

    /// Returns the next 128 pseudo-random bits.
    pub fn next_block(&mut self) -> Block {
        let output = self.cipher.encrypt(Block::new(self.counter));
        self.counter = self.counter.wrapping_add(1);
        output
    }

    /// Fills `out` with pseudo-random blocks in one batched AES sweep.
    ///
    /// Consumes exactly `out.len()` counter values — bit-identical to
    /// calling [`AesPrg::next_block`] `out.len()` times.
    pub fn fill_blocks(&mut self, out: &mut [Block]) {
        for slot in out.iter_mut() {
            *slot = Block::new(self.counter);
            self.counter = self.counter.wrapping_add(1);
        }
        self.cipher.encrypt_blocks(out);
    }

    /// Fills `out` from many PRGs in one multi-key AES sweep: PRG `i`
    /// writes `out[i * per_prg..(i + 1) * per_prg]`.
    ///
    /// Each PRG consumes exactly `per_prg` counter values — bit-identical
    /// to calling [`AesPrg::fill_blocks`] on each in turn, counters
    /// included. This is the IKNP column expansion: one block from each of
    /// 128 or 256 keyed PRGs per element, eight keys in flight instead of
    /// one call per PRG.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != prgs.len() * per_prg`.
    pub fn fill_each(prgs: &mut [AesPrg], per_prg: usize, out: &mut [Block]) {
        assert_eq!(out.len(), prgs.len() * per_prg, "one run of blocks per PRG");
        if per_prg == 0 {
            return;
        }
        for (prg, run) in prgs.iter_mut().zip(out.chunks_exact_mut(per_prg)) {
            for slot in run {
                *slot = Block::new(prg.counter);
                prg.counter = prg.counter.wrapping_add(1);
            }
        }
        Aes128::encrypt_blocks_keyed(|i| &prgs[i].cipher, per_prg, out);
    }

    /// Returns `n` pseudo-random blocks.
    pub fn blocks(&mut self, n: usize) -> Vec<Block> {
        let mut out = vec![Block::ZERO; n];
        self.fill_blocks(&mut out);
        out
    }

    /// Fills `out` with pseudo-random bytes.
    ///
    /// Consumes one counter value per 16-byte chunk (including a trailing
    /// partial chunk), matching the block-at-a-time layout exactly.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut blocks = vec![Block::ZERO; out.len() / 16];
        let mut chunks = out.chunks_exact_mut(16);
        self.fill_blocks(&mut blocks);
        for (chunk, block) in (&mut chunks).zip(&blocks) {
            chunk.copy_from_slice(&block.to_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let block = self.next_block().to_bytes();
            tail.copy_from_slice(&block[..tail.len()]);
        }
    }

    /// Returns `n` pseudo-random bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        let mut bits = Vec::with_capacity(n);
        'outer: loop {
            let block = self.next_block().bits();
            for i in 0..128 {
                if bits.len() == n {
                    break 'outer;
                }
                bits.push((block >> i) & 1 == 1);
            }
            if bits.len() == n {
                break;
            }
        }
        bits
    }

    /// Returns a pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.next_block().bits() as u64
    }

    /// Returns a pseudo-random value uniform in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let sample = self.next_u64();
            if sample < zone {
                return sample % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = AesPrg::new(Block::new(77));
        let mut b = AesPrg::new(Block::new(77));
        for _ in 0..32 {
            assert_eq!(a.next_block(), b.next_block());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = AesPrg::new(Block::new(1));
        let mut b = AesPrg::new(Block::new(2));
        assert_ne!(a.next_block(), b.next_block());
    }

    #[test]
    fn streams_are_disjoint() {
        let mut a = AesPrg::with_stream(Block::new(9), 0);
        let mut b = AesPrg::with_stream(Block::new(9), 1);
        let a_blocks: Vec<_> = a.blocks(64);
        let b_blocks: Vec<_> = b.blocks(64);
        for block in &b_blocks {
            assert!(!a_blocks.contains(block));
        }
    }

    #[test]
    fn fill_bytes_handles_partial_chunks() {
        let mut prg = AesPrg::new(Block::new(3));
        let mut buf = [0u8; 21];
        prg.fill_bytes(&mut buf);
        // First 16 bytes must match the first block.
        let mut prg2 = AesPrg::new(Block::new(3));
        assert_eq!(&buf[..16], &prg2.next_block().to_bytes());
    }

    #[test]
    fn fill_blocks_matches_next_block_stream() {
        for n in [0usize, 1, 7, 8, 9, 40] {
            let mut batched = AesPrg::new(Block::new(21));
            let mut scalar = AesPrg::new(Block::new(21));
            let mut out = vec![Block::ZERO; n];
            batched.fill_blocks(&mut out);
            for (i, block) in out.iter().enumerate() {
                assert_eq!(*block, scalar.next_block(), "n={n} block {i}");
            }
            // Both streams must resume at the same counter.
            assert_eq!(batched.next_block(), scalar.next_block());
        }
    }

    #[test]
    fn fill_each_matches_fill_blocks_per_prg() {
        for (count, per) in [
            (0usize, 1usize),
            (1, 0),
            (1, 3),
            (7, 1),
            (9, 2),
            (128, 1),
            (256, 3),
        ] {
            let seeds = |i: usize| AesPrg::with_stream(Block::new(i as u128 * 0x51), i as u64);
            let mut multi: Vec<AesPrg> = (0..count).map(seeds).collect();
            let mut single: Vec<AesPrg> = (0..count).map(seeds).collect();
            let mut out = vec![Block::ZERO; count * per];
            AesPrg::fill_each(&mut multi, per, &mut out);
            for (i, prg) in single.iter_mut().enumerate() {
                let mut want = vec![Block::ZERO; per];
                prg.fill_blocks(&mut want);
                assert_eq!(
                    &out[i * per..(i + 1) * per],
                    &want[..],
                    "prg {i} of {count}"
                );
                assert_eq!(multi[i].counter(), prg.counter(), "prg {i} of {count}");
            }
        }
    }

    #[test]
    fn fill_bytes_matches_block_stream_layout() {
        for len in [0usize, 1, 15, 16, 17, 64, 65] {
            let mut batched = AesPrg::new(Block::new(23));
            let mut scalar = AesPrg::new(Block::new(23));
            let mut buf = vec![0u8; len];
            batched.fill_bytes(&mut buf);
            let mut expected = Vec::with_capacity(len);
            while expected.len() < len {
                let block = scalar.next_block().to_bytes();
                let take = (len - expected.len()).min(16);
                expected.extend_from_slice(&block[..take]);
            }
            assert_eq!(buf, expected, "len={len}");
            assert_eq!(batched.next_block(), scalar.next_block());
        }
    }

    #[test]
    fn bits_returns_exact_count() {
        let mut prg = AesPrg::new(Block::new(5));
        for n in [0, 1, 127, 128, 129, 300] {
            assert_eq!(prg.bits(n).len(), n);
        }
    }

    #[test]
    fn bits_roughly_balanced() {
        let mut prg = AesPrg::new(Block::new(11));
        let bits = prg.bits(100_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((45_000..55_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut prg = AesPrg::new(Block::new(13));
        for bound in [1, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(prg.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_hits_all_residues() {
        let mut prg = AesPrg::new(Block::new(17));
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[prg.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
