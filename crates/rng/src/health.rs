//! Continuous health monitoring of the TRNG, after NIST SP 800-90B §4.4.
//!
//! A deployed RO-RNG cannot re-run the full statistical battery on every
//! label; instead hardware monitors the live bitstream with two cheap
//! always-on tests and trips an alarm on total failure (a stuck ring, a
//! locked sampler):
//!
//! * **Repetition count test** — fires when the same bit repeats `C` times
//!   (`C = 1 + ⌈20.4/H⌉` for entropy `H`; with H ≈ 1 bit/bit, C = 41 gives
//!   a 2⁻⁴⁰ false-positive rate per sample, per the standard).
//! * **Adaptive proportion test** — counts occurrences of the first sample
//!   of each 1024-bit window; fires when a value dominates the window
//!   beyond the binomial cutoff.
//!
//! The label generator would gate itself off and raise a fault on alarm —
//! here the monitor reports so tests can inject failures.

/// Cutoff for the repetition count test (full-entropy binary source,
/// 2⁻⁴⁰ false-positive rate).
pub const REPETITION_CUTOFF: u32 = 41;

/// Window length of the adaptive proportion test (binary sources).
pub const PROPORTION_WINDOW: u32 = 1024;

/// Cutoff for the adaptive proportion test at α = 2⁻⁴⁰ for H = 1
/// (SP 800-90B Table 2: 624 for binary sources).
pub const PROPORTION_CUTOFF: u32 = 624;

/// The SP 800-90B continuous health monitor.
///
/// # Example
///
/// ```
/// use max_rng::{HealthMonitor, RoRng};
///
/// let mut monitor = HealthMonitor::new();
/// let mut rng = RoRng::from_seed(3);
/// for _ in 0..10_000 {
///     monitor.observe(rng.next_bit());
/// }
/// assert!(!monitor.alarmed());
/// ```
#[derive(Clone, Debug, Default)]
pub struct HealthMonitor {
    last: Option<bool>,
    run_length: u32,
    window_first: Option<bool>,
    window_pos: u32,
    window_matches: u32,
    repetition_alarms: u64,
    proportion_alarms: u64,
    samples: u64,
}

impl HealthMonitor {
    /// Creates a monitor with no history.
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// Feeds one bit; returns `true` if this sample tripped an alarm.
    pub fn observe(&mut self, bit: bool) -> bool {
        self.samples += 1;
        let mut tripped = false;

        // Repetition count test.
        if self.last == Some(bit) {
            self.run_length += 1;
            if self.run_length >= REPETITION_CUTOFF {
                self.repetition_alarms += 1;
                self.run_length = 1; // restart after reporting
                tripped = true;
            }
        } else {
            self.last = Some(bit);
            self.run_length = 1;
        }

        // Adaptive proportion test.
        match self.window_first {
            None => {
                self.window_first = Some(bit);
                self.window_pos = 1;
                self.window_matches = 1;
            }
            Some(first) => {
                self.window_pos += 1;
                if bit == first {
                    self.window_matches += 1;
                    if self.window_matches >= PROPORTION_CUTOFF {
                        self.proportion_alarms += 1;
                        self.window_first = None;
                        tripped = true;
                    }
                }
                if self.window_pos >= PROPORTION_WINDOW {
                    self.window_first = None;
                }
            }
        }
        tripped
    }

    /// Feeds a whole stream; returns the number of alarms it raised.
    pub fn observe_all(&mut self, bits: &[bool]) -> u64 {
        let before = self.repetition_alarms + self.proportion_alarms;
        for &bit in bits {
            self.observe(bit);
        }
        self.repetition_alarms + self.proportion_alarms - before
    }

    /// True once any alarm has fired.
    pub fn alarmed(&self) -> bool {
        self.repetition_alarms + self.proportion_alarms > 0
    }

    /// Repetition-count alarms so far.
    pub fn repetition_alarms(&self) -> u64 {
        self.repetition_alarms
    }

    /// Adaptive-proportion alarms so far.
    pub fn proportion_alarms(&self) -> u64 {
        self.proportion_alarms
    }

    /// Bits observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoRng;

    #[test]
    fn healthy_rng_never_alarms() {
        let mut monitor = HealthMonitor::new();
        let mut rng = RoRng::from_seed(0x9000);
        let alarms = monitor.observe_all(&rng.bits(100_000));
        assert_eq!(alarms, 0, "{monitor:?}");
        assert_eq!(monitor.samples(), 100_000);
    }

    #[test]
    fn stuck_source_trips_repetition_count() {
        let mut monitor = HealthMonitor::new();
        let alarms = monitor.observe_all(&vec![true; 1000]);
        assert!(alarms > 0);
        assert!(monitor.repetition_alarms() >= (1000 / REPETITION_CUTOFF as u64).saturating_sub(1));
        assert!(monitor.alarmed());
    }

    #[test]
    fn biased_source_trips_adaptive_proportion() {
        // 80% ones never repeats 41 times reliably, but dominates windows.
        let mut prg = max_crypto::AesPrg::new(max_crypto::Block::new(0xb1a5));
        let bits: Vec<bool> = (0..50_000).map(|_| prg.next_below(10) < 8).collect();
        let mut monitor = HealthMonitor::new();
        monitor.observe_all(&bits);
        assert!(
            monitor.proportion_alarms() > 0,
            "biased stream escaped: {monitor:?}"
        );
    }

    #[test]
    fn alternating_source_is_healthy_for_these_tests() {
        // 0101… passes both health tests (they only catch catastrophic
        // failures; the statistical battery catches structure).
        let bits: Vec<bool> = (0..10_000).map(|i| i % 2 == 0).collect();
        let mut monitor = HealthMonitor::new();
        // Alternating bits: every window's first-bit matches exactly half.
        let alarms = monitor.observe_all(&bits);
        assert_eq!(alarms, 0);
    }

    #[test]
    fn stuck_ring_in_simulation_is_caught() {
        // Inject a failure: a "ring bank" whose XOR output goes constant.
        let healthy: Vec<bool> = RoRng::from_seed(1).bits(5_000);
        let mut stream = healthy.clone();
        stream.extend(std::iter::repeat_n(false, 500)); // fault at t=5000
        let mut monitor = HealthMonitor::new();
        let alarms = monitor.observe_all(&stream);
        assert!(alarms > 0);
        assert!(monitor.repetition_alarms() > 0);
    }
}
