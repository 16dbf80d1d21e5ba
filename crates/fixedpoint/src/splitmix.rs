//! A seeded generator for synthetic case-study data.

/// SplitMix64: a deterministic, fast generator for synthesizing the case
/// studies' data sets in examples and tests. It is not a cryptographic
/// source; wire labels come from `max-crypto` and `max-rng`.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n`, reduced from 128 drawn bits so the
    /// modulo bias is negligible for any `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let hi = self.next();
        let lo = self.next();
        ((u128::from(hi) << 64 | u128::from(lo)) % u128::from(n)) as u64
    }

    /// A uniform float in `lo..hi`, from the top 53 bits of one draw.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned() {
        // The values the workspace's earlier `rand` stand-in drew for seed
        // 7 (`-128..128`, `0..1000`, `-1.0..1.0`): the case studies' data,
        // and so their golden outputs, depend on this exact stream.
        let mut rng = SplitMix64::new(7);
        let ints: Vec<i64> = (0..4).map(|_| -128 + rng.below(256) as i64).collect();
        assert_eq!(ints, [-100, 75, -111, 126]);
        let picks: Vec<u64> = (0..4).map(|_| rng.below(1000)).collect();
        assert_eq!(picks, [185, 644, 184, 720]);
        let floats: Vec<f64> = (0..3).map(|_| rng.uniform(-1.0, 1.0)).collect();
        assert_eq!(
            floats,
            [
                0.7592273952556341,
                -0.34727739689251447,
                0.23824120233732482
            ]
        );
    }

    #[test]
    fn draws_stay_in_range_and_cover_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.below(4) as usize] = true;
            let f = rng.uniform(0.05, 1.0);
            assert!((0.05..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
