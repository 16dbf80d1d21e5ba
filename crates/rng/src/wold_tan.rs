//! The Wold–Tan RO-RNG: XOR of 16 sampled rings.

use crate::oscillator::RingOscillator;

/// Number of rings XORed per RNG (Wold & Tan's enhanced construction, as
/// adopted in §5.2 of the paper).
pub const RINGS_PER_RNG: usize = 16;

/// Inverters per ring in the paper's instantiation.
pub const INVERTERS_PER_RING: usize = 3;

/// One hardware random bit generator: 16 sampled ring oscillators XORed
/// together, one output bit per clock.
///
/// # Example
///
/// ```
/// use max_rng::RoRng;
///
/// let mut rng = RoRng::from_seed(42);
/// let ones = rng.bits(10_000).iter().filter(|&&b| b).count();
/// assert!((4_500..5_500).contains(&ones));
/// ```
#[derive(Clone, Debug)]
pub struct RoRng {
    rings: Vec<RingOscillator>,
    /// Clock cycles elapsed.
    cycles: u64,
}

impl RoRng {
    /// Creates one RNG with entropy derived from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::with_index(seed, 0)
    }

    /// Creates the `index`-th RNG of a bank; distinct indices get independent
    /// simulated rings.
    pub fn with_index(seed: u64, index: u64) -> Self {
        let rings = (0..RINGS_PER_RNG as u64)
            .map(|r| RingOscillator::from_seed(seed, index * RINGS_PER_RNG as u64 + r))
            .collect();
        RoRng { rings, cycles: 0 }
    }

    /// Samples all rings for one clock and returns the XOR.
    pub fn next_bit(&mut self) -> bool {
        self.cycles += 1;
        self.rings
            .iter_mut()
            .fold(false, |acc, ring| acc ^ ring.sample())
    }

    /// Collects `n` output bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Clock cycles this RNG has been sampled for.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_of_rings_is_balanced() {
        let mut rng = RoRng::from_seed(1);
        let bits = rng.bits(20_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((9_400..10_600).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn xor_of_rings_kills_serial_correlation() {
        let mut rng = RoRng::from_seed(2);
        let bits = rng.bits(20_000);
        let agree = bits.windows(2).filter(|w| w[0] == w[1]).count();
        let rate = agree as f64 / (bits.len() - 1) as f64;
        assert!((rate - 0.5).abs() < 0.02, "lag-1 agreement {rate}");
    }

    #[test]
    fn independent_rngs_decorrelated() {
        let mut a = RoRng::with_index(3, 0);
        let mut b = RoRng::with_index(3, 1);
        let xa = a.bits(10_000);
        let xb = b.bits(10_000);
        let agree = xa.iter().zip(&xb).filter(|(p, q)| p == q).count();
        let rate = agree as f64 / xa.len() as f64;
        assert!((rate - 0.5).abs() < 0.03, "cross agreement {rate}");
    }

    #[test]
    fn cycles_counted() {
        let mut rng = RoRng::from_seed(4);
        rng.bits(10);
        assert_eq!(rng.cycles(), 10);
    }
}
