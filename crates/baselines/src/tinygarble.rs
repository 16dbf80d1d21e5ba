//! TinyGarble: the software sequential-GC baseline.
//!
//! Two layers:
//!
//! 1. [`TinyGarbleMac`] — a *working* software garbler: the serial
//!    (shift–add) multiplier MAC netlist garbled round by round with the
//!    shared `max-gc` engine, single-threaded, gate by gate in topological
//!    order. This is what a CPU-bound framework actually does, and its
//!    wall-clock throughput is what `table2 --measure` prints.
//! 2. [`model`] — the published Table 2 row: clock cycles per MAC measured
//!    by the paper's authors on their Intel CPU, calibrated exactly at
//!    b ∈ {8, 16, 32} and extended by the observed `≈ 2185·b²` scaling for
//!    other widths.

use max_crypto::Block;
use max_gc::{PrgLabelSource, SequentialGarbler, SequentialRound};
use max_netlist::{encode_signed, MacCircuit, MultiplierKind, Sign};

use crate::FrameworkPerf;

/// The implied CPU clock of the paper's Table 2 software rows
/// (cycles ÷ time = 3.40 GHz for all three columns).
pub const CPU_CLOCK_HZ: f64 = 3.405e9;

/// Published cycle counts per MAC: `(b, cycles)`.
const CALIBRATION: [(usize, f64); 3] = [(8, 1.44e5), (16, 5.45e5), (32, 2.24e6)];

/// The paper-calibrated performance model.
pub mod model {
    use super::*;

    /// Clock cycles per MAC at bit-width `b` (exact at the published
    /// points, `≈ 2185·b²` elsewhere).
    pub fn cycles_per_mac(bit_width: usize) -> f64 {
        for &(b, cycles) in &CALIBRATION {
            if b == bit_width {
                return cycles;
            }
        }
        2185.0 * (bit_width * bit_width) as f64
    }

    /// The full Table 2 row for TinyGarble at bit-width `b`.
    pub fn perf(bit_width: usize) -> FrameworkPerf {
        FrameworkPerf::from_cycles(
            "TinyGarble [16] on CPU",
            bit_width,
            cycles_per_mac(bit_width),
            CPU_CLOCK_HZ,
            1,
        )
    }
}

/// A working software TinyGarble-style MAC garbler (serial multiplier,
/// netlist-walking execution).
///
/// # Example
///
/// ```
/// use max_baselines::tinygarble::TinyGarbleMac;
///
/// let mut garbler = TinyGarbleMac::new(8, 24, 1);
/// let round = garbler.garble_round(5, true);
/// assert!(!round.material.tables.is_empty());
/// ```
#[derive(Debug)]
pub struct TinyGarbleMac {
    mac: MacCircuit,
    garbler: SequentialGarbler<PrgLabelSource>,
    bit_width: usize,
    acc_width: usize,
    rounds: u64,
}

impl TinyGarbleMac {
    /// Builds the garbler for `bit_width`-bit signed MACs.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator cannot hold a product.
    pub fn new(bit_width: usize, acc_width: usize, seed: u64) -> Self {
        let mac = MacCircuit::build(bit_width, acc_width, Sign::Signed, MultiplierKind::Serial);
        let garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(seed as u128)),
            bit_width..bit_width + acc_width,
        );
        TinyGarbleMac {
            mac,
            garbler,
            bit_width,
            acc_width,
            rounds: 0,
        }
    }

    /// The MAC circuit being garbled.
    pub fn circuit(&self) -> &MacCircuit {
        &self.mac
    }

    /// Garbled tables produced per round.
    pub fn tables_per_round(&self) -> usize {
        self.mac.netlist().stats().and_gates
    }

    /// Garbles one MAC round with server input `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the bit-width.
    pub fn garble_round(&mut self, a: i64, last: bool) -> SequentialRound {
        let a_bits = encode_signed(a, self.bit_width);
        let init = (self.rounds == 0).then(|| encode_signed(0, self.acc_width));
        self.rounds += 1;
        self.garbler.garble_round(&a_bits, init.as_deref(), last)
    }

    /// OT pairs for the most recent round (for driving an evaluator).
    pub fn evaluator_label_pairs(&self) -> Vec<(Block, Block)> {
        self.garbler.evaluator_label_pairs()
    }

    /// Garbles a whole dot product and returns tables/second wall-clock —
    /// the measured software rate `table2 --measure` prints.
    pub fn measure_rate(&mut self, rounds: usize) -> SoftwareRate {
        let start = std::time::Instant::now();
        let mut tables = 0usize;
        for r in 0..rounds {
            let round = self.garble_round(((r % 200) as i64) - 100, r == rounds - 1);
            tables += round.material.tables.len();
        }
        let elapsed = start.elapsed();
        SoftwareRate {
            rounds,
            tables,
            seconds: elapsed.as_secs_f64(),
        }
    }
}

/// Measured software garbling rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoftwareRate {
    /// MAC rounds garbled.
    pub rounds: usize,
    /// Garbled tables produced.
    pub tables: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl SoftwareRate {
    /// MACs per second.
    pub fn macs_per_second(&self) -> f64 {
        self.rounds as f64 / self.seconds
    }

    /// Tables per second.
    pub fn tables_per_second(&self) -> f64 {
        self.tables as f64 / self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_gc::SequentialEvaluator;

    #[test]
    fn model_matches_table2_exactly() {
        let p8 = model::perf(8);
        assert!((p8.cycles_per_mac - 1.44e5).abs() < 1.0);
        assert!((p8.seconds_per_mac * 1e6 - 42.29).abs() < 0.1);
        assert!((p8.macs_per_second - 2.36e4).abs() / 2.36e4 < 5e-3);
        let p32 = model::perf(32);
        assert!((p32.seconds_per_mac * 1e6 - 657.65).abs() < 1.0);
        assert!((p32.macs_per_second - 1.52e3).abs() / 1.52e3 < 5e-3);
        assert_eq!(p32.cores, 1);
        assert!((p32.macs_per_second_per_core - p32.macs_per_second).abs() < 1e-9);
    }

    #[test]
    fn model_scales_quadratically_between_points() {
        let c12 = model::cycles_per_mac(12);
        assert!((c12 - 2185.0 * 144.0).abs() < 1.0);
        assert!(model::cycles_per_mac(64) > model::cycles_per_mac(32) * 3.5);
    }

    #[test]
    fn software_garbler_is_correct() {
        // Drive the real software garbler against the real evaluator.
        let mut garbler = TinyGarbleMac::new(8, 24, 5);
        let mut evaluator = SequentialEvaluator::new(garbler.circuit().netlist().clone(), 8..32);
        let a = [7i64, -3, 50];
        let x = [2i64, 9, -4];
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
        let mut result = None;
        for (l, (&al, &xl)) in a.iter().zip(&x).enumerate() {
            let round = garbler.garble_round(al, l == a.len() - 1);
            let x_bits = encode_signed(xl, 8);
            let labels: Vec<Block> = garbler
                .evaluator_label_pairs()
                .iter()
                .zip(&x_bits)
                .map(|(&(m0, m1), &bit)| if bit { m1 } else { m0 })
                .collect();
            result = evaluator.evaluate_round(&round, &labels);
        }
        assert_eq!(max_netlist::decode_signed(&result.unwrap()), expected);
    }

    #[test]
    fn measure_rate_counts_tables() {
        let mut garbler = TinyGarbleMac::new(8, 24, 6);
        let per_round = garbler.tables_per_round();
        let rate = garbler.measure_rate(4);
        assert_eq!(rate.rounds, 4);
        assert_eq!(rate.tables, 4 * per_round);
        assert!(rate.macs_per_second() > 0.0);
        assert!(rate.tables_per_second() > rate.macs_per_second());
    }

    #[test]
    fn serial_multiplier_has_fewer_tables_but_no_parallelism() {
        // The serial MAC netlist is slightly smaller than the tree one —
        // TinyGarble's cost is execution style, not gate count.
        let serial = MacCircuit::build(8, 24, Sign::Signed, MultiplierKind::Serial);
        let tree = MacCircuit::build(8, 24, Sign::Signed, MultiplierKind::Tree);
        assert!(serial.netlist().stats().and_gates <= tree.netlist().stats().and_gates);
    }
}
