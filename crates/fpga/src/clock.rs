//! The fabric clock.

use std::time::Duration;

/// A cycle counter bound to a clock frequency.
///
/// # Example
///
/// ```
/// use max_fpga::Clock;
///
/// let mut clock = Clock::new(200.0); // 200 MHz, the paper's fabric clock
/// clock.advance(24);
/// assert_eq!(clock.cycles(), 24);
/// // 24 cycles at 200 MHz = 120 ns = one 8-bit MAC (Table 2).
/// assert_eq!(clock.elapsed().as_nanos(), 120);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clock {
    cycles: u64,
    freq_mhz: f64,
}

impl Clock {
    /// Creates a clock at `freq_mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive and finite.
    pub fn new(freq_mhz: f64) -> Self {
        assert!(
            freq_mhz.is_finite() && freq_mhz > 0.0,
            "clock frequency must be positive"
        );
        Clock {
            cycles: 0,
            freq_mhz,
        }
    }

    /// Clock frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances by one cycle.
    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    /// Advances by `n` cycles.
    pub fn advance(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Wall-clock time elapsed at this frequency.
    pub fn elapsed(&self) -> Duration {
        Duration::from_secs_f64(self.cycles as f64 / (self.freq_mhz * 1e6))
    }

    /// Throughput in operations/second for an operation taking
    /// `cycles_per_op` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_op` is zero.
    pub fn ops_per_second(&self, cycles_per_op: u64) -> f64 {
        assert!(cycles_per_op > 0, "operation must take at least one cycle");
        self.freq_mhz * 1e6 / cycles_per_op as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_throughput_numbers() {
        // Table 2: at 200 MHz, 24/48/96 cycles per MAC give 8.33e6 / 4.17e6
        // / 2.08e6 MACs per second.
        let clock = Clock::new(200.0);
        assert!((clock.ops_per_second(24) - 8.33e6).abs() / 8.33e6 < 1e-3);
        assert!((clock.ops_per_second(48) - 4.17e6).abs() / 4.17e6 < 1e-3);
        assert!((clock.ops_per_second(96) - 2.08e6).abs() / 2.08e6 < 2e-3);
    }

    #[test]
    fn elapsed_time() {
        let mut clock = Clock::new(100.0);
        clock.advance(1_000_000);
        assert!((clock.elapsed().as_secs_f64() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn tick_increments() {
        let mut clock = Clock::new(1.0);
        clock.tick();
        clock.tick();
        assert_eq!(clock.cycles(), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        Clock::new(0.0);
    }
}
