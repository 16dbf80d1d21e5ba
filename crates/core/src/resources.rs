//! The Table-1 resource model.
//!
//! The paper publishes post-implementation LUT / LUTRAM / FF counts for one
//! MAC unit at b ∈ {8, 16, 32} on the Virtex UltraSCALE. Since we cannot run
//! Vivado, the model is **calibrated**: the published points are reproduced
//! exactly, intermediate bit-widths interpolate linearly (the paper: "the
//! underlying resource utilization of our design increases linearly with
//! b"), and the per-component breakdown distributes each total over the
//! microarchitectural pieces in proportions consistent with §5.

use max_fpga::ResourceUsage;

use crate::timing::TimingModel;

/// Published Table-1 calibration points: `(b, LUT, LUTRAM, FF)`.
const CALIBRATION: [(usize, u64, u64, u64); 3] = [
    (8, 29_500, 128, 24_400),
    (16, 59_100, 384, 48_800),
    (32, 111_000, 640, 84_000),
];

/// Resource usage of one MAC unit at bit-width `b`.
///
/// Exact at the published points, linear interpolation/extrapolation
/// elsewhere.
///
/// # Panics
///
/// Panics if `b < 4` or `b` is odd.
pub fn mac_unit_resources(bit_width: usize) -> ResourceUsage {
    assert!(
        bit_width >= 4 && bit_width.is_multiple_of(2),
        "bit width must be even and at least 4"
    );
    for &(b, lut, lutram, ff) in &CALIBRATION {
        if b == bit_width {
            return ResourceUsage::new(lut, lutram, ff, 0);
        }
    }
    // Piecewise-linear in b over the calibration table.
    let interp = |x0: usize, y0: u64, x1: usize, y1: u64, x: usize| -> u64 {
        let slope = (y1 as f64 - y0 as f64) / (x1 as f64 - x0 as f64);
        (y0 as f64 + slope * (x as f64 - x0 as f64))
            .max(0.0)
            .round() as u64
    };
    let (lo, hi) = if bit_width < 16 {
        (CALIBRATION[0], CALIBRATION[1])
    } else {
        (CALIBRATION[1], CALIBRATION[2])
    };
    ResourceUsage::new(
        interp(lo.0, lo.1, hi.0, hi.1, bit_width),
        interp(lo.0, lo.2, hi.0, hi.2, bit_width),
        interp(lo.0, lo.3, hi.0, hi.3, bit_width),
        0,
    )
}

/// Per-component share of a MAC unit's resources.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentUsage {
    /// Component name.
    pub name: &'static str,
    /// Estimated usage.
    pub usage: ResourceUsage,
}

/// Distributes the unit total over the §5 microarchitecture:
/// GC engines (AES cores; the s-boxes account for the LUTRAM), label
/// routing/shift registers (FF-heavy), the scheduling FSM, and the label
/// generator's sampling/correction logic.
///
/// The shares are architectural estimates — the sum is exactly
/// [`mac_unit_resources`], which is the calibrated quantity.
pub fn resource_breakdown(bit_width: usize) -> Vec<ComponentUsage> {
    let total = mac_unit_resources(bit_width);
    let cores = TimingModel::paper(bit_width).cores() as u64;
    // Architectural shares: AES engines dominate LUT (~70%); shift-register
    // delay lines dominate FF (~55%); all LUTRAM is s-boxes; the FSM and
    // label generator split the remainder.
    let engines = ResourceUsage::new(total.lut * 70 / 100, total.lutram, total.ff * 30 / 100, 0);
    let shift_regs = ResourceUsage::new(total.lut * 5 / 100, 0, total.ff * 55 / 100, 0);
    let fsm = ResourceUsage::new(total.lut * 15 / 100, 0, total.ff * 10 / 100, 0);
    let label_gen = ResourceUsage::new(
        total.lut - engines.lut - shift_regs.lut - fsm.lut,
        0,
        total.ff - engines.ff - shift_regs.ff - fsm.ff,
        0,
    );
    let _ = cores;
    vec![
        ComponentUsage {
            name: "gc_engines",
            usage: engines,
        },
        ComponentUsage {
            name: "shift_registers",
            usage: shift_regs,
        },
        ComponentUsage {
            name: "scheduler_fsm",
            usage: fsm,
        },
        ComponentUsage {
            name: "label_generator",
            usage: label_gen,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_points_exact() {
        let r8 = mac_unit_resources(8);
        assert_eq!((r8.lut, r8.lutram, r8.ff), (29_500, 128, 24_400));
        let r16 = mac_unit_resources(16);
        assert_eq!((r16.lut, r16.lutram, r16.ff), (59_100, 384, 48_800));
        let r32 = mac_unit_resources(32);
        assert_eq!((r32.lut, r32.lutram, r32.ff), (111_000, 640, 84_000));
    }

    #[test]
    fn growth_is_monotone_in_b() {
        let mut prev = mac_unit_resources(4);
        for b in [6usize, 8, 10, 12, 16, 20, 24, 32, 40, 64] {
            let cur = mac_unit_resources(b);
            assert!(cur.lut >= prev.lut, "LUT not monotone at b={b}");
            assert!(cur.ff >= prev.ff, "FF not monotone at b={b}");
            prev = cur;
        }
    }

    #[test]
    fn interpolation_is_roughly_linear() {
        // b=12 should land halfway between the b=8 and b=16 points.
        let r12 = mac_unit_resources(12);
        assert_eq!(r12.lut, (29_500 + 59_100) / 2);
        assert_eq!(r12.ff, (24_400 + 48_800) / 2);
    }

    #[test]
    fn breakdown_sums_to_total() {
        for b in [8usize, 16, 32] {
            let total = mac_unit_resources(b);
            let sum: ResourceUsage = resource_breakdown(b).into_iter().map(|c| c.usage).sum();
            assert_eq!(sum, total, "b = {b}");
        }
    }

    #[test]
    fn engines_dominate_lut_and_own_all_lutram() {
        let parts = resource_breakdown(32);
        let engines = parts.iter().find(|c| c.name == "gc_engines").unwrap();
        assert!(engines.usage.lut * 2 > mac_unit_resources(32).lut);
        assert_eq!(engines.usage.lutram, 640);
    }

    #[test]
    fn unit_fits_the_vcu095() {
        for b in [8usize, 16, 32] {
            assert!(mac_unit_resources(b).fits_within(&max_fpga::XCVU095));
        }
    }

    #[test]
    #[should_panic(expected = "even and at least 4")]
    fn invalid_width_rejected() {
        mac_unit_resources(3);
    }
}
