//! Order-of-magnitude energy accounting.
//!
//! The paper motivates power gating the label generator "to conserve
//! energy" (§5.2); this meter makes that claim quantifiable in simulation.
//! The per-event constants are *representative* 20 nm-FPGA figures (pJ
//! scale), clearly labeled as model inputs, not measurements — relative
//! comparisons (gated vs ungated, FPGA vs CPU per MAC) are the meaningful
//! outputs.

/// Energy model constants in picojoules per event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// One fixed-key AES evaluation in fabric (the GC-engine dominant cost).
    pub aes_pj: f64,
    /// One active ring-oscillator RNG for one cycle.
    pub rng_cycle_pj: f64,
    /// One 128-bit register shift.
    pub shift_pj: f64,
    /// One 32-byte BRAM write.
    pub bram_write_pj: f64,
    /// One byte over PCIe.
    pub pcie_byte_pj: f64,
    /// Static fabric power per cycle at 200 MHz (nW·cycle ≈ pJ).
    pub static_cycle_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            aes_pj: 120.0,
            rng_cycle_pj: 0.4,
            shift_pj: 6.0,
            bram_write_pj: 18.0,
            pcie_byte_pj: 12.0,
            static_cycle_pj: 50.0,
        }
    }
}

/// Accumulates event counts and reports energy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    /// AES evaluations.
    pub aes_ops: u64,
    /// Active RNG-cycles.
    pub rng_cycles: u64,
    /// Label shifts.
    pub shifts: u64,
    /// BRAM writes.
    pub bram_writes: u64,
    /// PCIe bytes.
    pub pcie_bytes: u64,
    /// Fabric cycles.
    pub cycles: u64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Total energy in joules under `model`.
    pub fn joules(&self, model: &EnergyModel) -> f64 {
        let pj = self.aes_ops as f64 * model.aes_pj
            + self.rng_cycles as f64 * model.rng_cycle_pj
            + self.shifts as f64 * model.shift_pj
            + self.bram_writes as f64 * model.bram_write_pj
            + self.pcie_bytes as f64 * model.pcie_byte_pj
            + self.cycles as f64 * model.static_cycle_pj;
        pj * 1e-12
    }

    /// Energy per MAC given the meter covers `macs` MAC rounds.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is zero.
    pub fn joules_per_mac(&self, model: &EnergyModel, macs: u64) -> f64 {
        assert!(macs > 0, "need at least one MAC");
        self.joules(model) / macs as f64
    }
}

/// A representative CPU energy-per-MAC for the software baseline: cycles ×
/// ~0.5 nJ/cycle (a few-watt core at a few GHz).
pub fn cpu_joules_per_mac(cycles_per_mac: f64) -> f64 {
    cycles_per_mac * 0.5e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_adds_up() {
        let model = EnergyModel::default();
        let meter = EnergyMeter {
            aes_ops: 1000,
            rng_cycles: 0,
            shifts: 0,
            bram_writes: 0,
            pcie_bytes: 0,
            cycles: 0,
        };
        assert!((meter.joules(&model) - 1000.0 * 120.0e-12).abs() < 1e-18);
    }

    #[test]
    fn gating_reduces_rng_energy() {
        let model = EnergyModel::default();
        let gated = EnergyMeter {
            rng_cycles: 128,
            ..EnergyMeter::default()
        };
        let ungated = EnergyMeter {
            rng_cycles: 128 * 4,
            ..EnergyMeter::default()
        };
        assert!(gated.joules(&model) < ungated.joules(&model));
    }

    #[test]
    fn fpga_mac_beats_cpu_mac_by_orders_of_magnitude() {
        // One 8-bit MAC: ~182 AND gates × 4 AES each + overheads vs
        // TinyGarble's 1.44e5 CPU cycles.
        let model = EnergyModel::default();
        let meter = EnergyMeter {
            aes_ops: 182 * 4,
            rng_cycles: 24 * 128,
            shifts: 24 * 16,
            bram_writes: 182,
            pcie_bytes: 182 * 32,
            cycles: 24,
        };
        let fpga = meter.joules_per_mac(&model, 1);
        let cpu = cpu_joules_per_mac(1.44e5);
        assert!(
            cpu / fpga > 50.0,
            "expected a large efficiency gap: fpga {fpga:.3e} vs cpu {cpu:.3e}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one MAC")]
    fn zero_macs_rejected() {
        EnergyMeter::new().joules_per_mac(&EnergyModel::default(), 0);
    }
}
