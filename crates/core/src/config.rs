//! Accelerator configuration.

use max_netlist::{encode_signed, MacCircuit, MultiplierKind, Sign};
use serde::{Deserialize, Serialize};

/// Configuration of one MAXelerator MAC unit.
///
/// The paper's implementation points: 200 MHz fabric clock, bit-widths
/// 8/16/32, signed fixed-point operands, tree multiplier.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Operand bit-width `b` (must be even, ≥ 4: the MUX_ADD segment pairs
    /// bits).
    pub bit_width: usize,
    /// Accumulator width (defaults to `min(2b + 8, 64)`: wide enough for
    /// vectors of length 256 without overflow at b ≤ 28, and the decode
    /// limit of the `i64` client API at b = 32).
    pub acc_width: usize,
    /// Fabric clock in MHz (§5.3: 200 MHz on the Virtex UltraSCALE).
    pub freq_mhz: f64,
    /// Signedness of the MAC operands.
    pub signed: bool,
}

impl AcceleratorConfig {
    /// The paper's configuration for bit-width `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is odd or `< 4`.
    pub fn new(bit_width: usize) -> Self {
        assert!(
            bit_width >= 4 && bit_width.is_multiple_of(2),
            "bit width must be even and at least 4"
        );
        AcceleratorConfig {
            bit_width,
            acc_width: (2 * bit_width + 8).min(64),
            freq_mhz: 200.0,
            signed: true,
        }
    }

    /// Overrides the accumulator width.
    ///
    /// # Panics
    ///
    /// Panics if narrower than a full product.
    #[must_use]
    pub fn with_acc_width(mut self, acc_width: usize) -> Self {
        assert!(
            acc_width >= 2 * self.bit_width,
            "accumulator must hold a full product"
        );
        self.acc_width = acc_width;
        self
    }

    /// Overrides the clock frequency.
    #[must_use]
    pub fn with_freq_mhz(mut self, freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        self.freq_mhz = freq_mhz;
        self
    }

    /// Selects unsigned operands.
    #[must_use]
    pub fn unsigned(mut self) -> Self {
        self.signed = false;
        self
    }

    /// Builds the MAC circuit this configuration garbles (tree multiplier,
    /// per §4).
    pub fn mac_circuit(&self) -> MacCircuit {
        MacCircuit::build(
            self.bit_width,
            self.acc_width,
            if self.signed {
                Sign::Signed
            } else {
                Sign::Unsigned
            },
            MultiplierKind::Tree,
        )
    }

    /// Encodes a client vector element as evaluator input bits.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not fit in the configured width.
    pub fn encode_x(&self, x: i64) -> Vec<bool> {
        if self.signed {
            encode_signed(x, self.bit_width)
        } else {
            max_netlist::encode_unsigned(x as u64, self.bit_width)
        }
    }

    /// A client vector as OT choice bits: `b` bits per element, in round
    /// order. One such batch selects the labels of every row of a matvec.
    pub(crate) fn encode_choices(&self, x: &[i64]) -> Vec<bool> {
        x.iter().flat_map(|&xl| self.encode_x(xl)).collect()
    }

    /// The positional range of the accumulator within the garbler inputs.
    pub fn state_range(&self) -> std::ops::Range<usize> {
        self.bit_width..self.bit_width + self.acc_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AcceleratorConfig::new(32);
        assert_eq!(c.bit_width, 32);
        assert_eq!(c.acc_width, 64);
        assert_eq!(AcceleratorConfig::new(16).acc_width, 40);
        assert!((c.freq_mhz - 200.0).abs() < f64::EPSILON);
        assert!(c.signed);
    }

    #[test]
    fn builders_apply() {
        let c = AcceleratorConfig::new(8)
            .with_acc_width(16)
            .with_freq_mhz(150.0)
            .unsigned();
        assert_eq!(c.acc_width, 16);
        assert!(!c.signed);
    }

    #[test]
    fn mac_circuit_is_consistent() {
        let c = AcceleratorConfig::new(8);
        let mac = c.mac_circuit();
        assert_eq!(mac.ports().bit_width, 8);
        assert_eq!(mac.ports().acc_width, 24);
        assert_eq!(c.state_range(), 8..32);
    }

    #[test]
    #[should_panic(expected = "even and at least 4")]
    fn odd_width_rejected() {
        AcceleratorConfig::new(7);
    }
}
