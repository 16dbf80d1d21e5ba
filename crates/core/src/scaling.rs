//! Device-level scaling (§6): "the throughput can be increased linearly by
//! adding more GC cores to the FPGA. For example, 25 times more GC cores
//! can fit in our current implementation platform."
//!
//! This module packs whole MAC units into a device budget using the Table-1
//! resource model and reports the aggregate throughput — the "57× more
//! clients" capacity story.

use max_fpga::{ResourceUsage, XCVU095};

use crate::resources::mac_unit_resources;
use crate::timing::TimingModel;

/// How a device fills up with MAC units at one bit-width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceScaling {
    /// Operand bit-width.
    pub bit_width: usize,
    /// Whole MAC units that fit.
    pub units: usize,
    /// GC cores across all units.
    pub total_cores: usize,
    /// Aggregate MACs per second.
    pub aggregate_macs_per_second: f64,
    /// The binding resource ("lut", "lutram", "ff", or "bram").
    pub bound_by: &'static str,
    /// Fraction of the binding resource consumed.
    pub occupancy: f64,
}

/// Packs MAC units of width `bit_width` into `device`.
///
/// A fraction of the fabric (routing margin, PCIe bridge, host shell) is
/// reserved: only `usable` of each resource is available — the standard
/// ~80 % rule of thumb for timing closure at 200 MHz.
///
/// # Panics
///
/// Panics if `usable` is not in `(0, 1]`.
pub fn pack_device(bit_width: usize, device: &ResourceUsage, usable: f64) -> DeviceScaling {
    assert!(
        usable > 0.0 && usable <= 1.0,
        "usable fraction out of range"
    );
    let unit = mac_unit_resources(bit_width);
    let budget = ResourceUsage::new(
        (device.lut as f64 * usable) as u64,
        (device.lutram as f64 * usable) as u64,
        (device.ff as f64 * usable) as u64,
        (device.bram as f64 * usable) as u64,
    );
    let units = unit.copies_within(&budget) as usize;
    let per_resource = [
        ("lut", unit.lut, budget.lut),
        ("lutram", unit.lutram, budget.lutram),
        ("ff", unit.ff, budget.ff),
    ];
    let (bound_by, used, avail) = per_resource
        .into_iter()
        .filter(|&(_, u, _)| u > 0)
        .min_by_key(|&(_, u, a)| a.checked_div(u).unwrap_or(u64::MAX))
        .expect("at least one resource used");
    let timing = TimingModel::paper(bit_width);
    DeviceScaling {
        bit_width,
        units,
        total_cores: units * timing.cores(),
        aggregate_macs_per_second: units as f64 * timing.macs_per_second(),
        bound_by,
        occupancy: (units as u64 * used) as f64 / avail as f64,
    }
}

/// The paper's platform at the default usable fraction.
pub fn xcvu095_scaling(bit_width: usize) -> DeviceScaling {
    pack_device(bit_width, &XCVU095, 0.8)
}

impl DeviceScaling {
    /// Clients this device can serve simultaneously, given each client
    /// session demands `macs_per_second_per_client`.
    ///
    /// §1: the per-core speedup "translates to the capability of the cloud
    /// to support 57× more clients simultaneously" — the same garbling
    /// silicon serves proportionally more sessions.
    ///
    /// # Panics
    ///
    /// Panics if the demand is not positive.
    pub fn clients_supported(&self, macs_per_second_per_client: f64) -> u64 {
        assert!(macs_per_second_per_client > 0.0, "demand must be positive");
        (self.aggregate_macs_per_second / macs_per_second_per_client) as u64
    }
}

/// The §1 claim, computed: clients served per core by MAXelerator vs the
/// software framework at bit-width `b`.
pub fn client_capacity_ratio(bit_width: usize) -> f64 {
    let max = TimingModel::paper(bit_width).macs_per_second_per_core();
    let tg = max_baseline_macs_per_second(bit_width);
    max / tg
}

/// TinyGarble's published per-core MAC rate (Table 2), reproduced here to
/// avoid a dependency cycle with `max-baselines`.
fn max_baseline_macs_per_second(bit_width: usize) -> f64 {
    let cycles = match bit_width {
        8 => 1.44e5,
        16 => 5.45e5,
        32 => 2.24e6,
        b => 2185.0 * (b * b) as f64,
    };
    3.405e9 / cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiple_units_fit_the_paper_platform() {
        for (b, min_units) in [(8usize, 20), (16, 10), (32, 5)] {
            let s = xcvu095_scaling(b);
            assert!(s.units >= min_units, "b={b}: only {} units", s.units);
            assert_eq!(s.total_cores, s.units * TimingModel::paper(b).cores());
        }
    }

    #[test]
    fn scaling_is_linear_in_units() {
        let s = xcvu095_scaling(32);
        let single = TimingModel::paper(32).macs_per_second();
        assert!((s.aggregate_macs_per_second - s.units as f64 * single).abs() < 1e-6);
    }

    #[test]
    fn papers_25x_claim_is_order_of_magnitude_consistent() {
        // §6 claims 25× more cores can fit; whole-unit packing (which
        // duplicates label generators and FSMs) reaches a large fraction of
        // that. Assert the claim's order of magnitude.
        let s = pack_device(32, &XCVU095, 1.0);
        let extra_core_factor = s.total_cores as f64 / TimingModel::paper(32).cores() as f64;
        assert!(
            (5.0..40.0).contains(&extra_core_factor),
            "core multiplier {extra_core_factor}"
        );
    }

    #[test]
    fn binding_resource_is_reported() {
        let s = xcvu095_scaling(32);
        assert!(["lut", "lutram", "ff"].contains(&s.bound_by));
        assert!(s.occupancy > 0.5 && s.occupancy <= 1.0, "{}", s.occupancy);
    }

    #[test]
    fn client_capacity_matches_table2_ratios() {
        // 44x / 48x / 57x more clients per core.
        for (b, want) in [(8usize, 44.0), (16, 48.0), (32, 57.0)] {
            let got = client_capacity_ratio(b);
            assert!((got - want).abs() / want < 0.02, "b={b}: {got}");
        }
    }

    #[test]
    fn clients_supported_scales_with_demand() {
        let s = xcvu095_scaling(32);
        let light = s.clients_supported(1_000.0);
        let heavy = s.clients_supported(100_000.0);
        assert!(light > heavy * 50);
        assert!(heavy >= 1);
    }

    #[test]
    #[should_panic(expected = "usable fraction")]
    fn bad_usable_rejected() {
        pack_device(8, &XCVU095, 0.0);
    }
}
