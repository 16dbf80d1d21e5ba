//! The frameworks MAXelerator is compared against in Table 2:
//!
//! * [`tinygarble`] — TinyGarble (Songhori et al., S&P'15), the fastest
//!   software GC framework at publication time. Two faces here: a *real*
//!   software sequential garbler (built on `max-gc`, with TinyGarble's
//!   serial-multiplier MAC netlist) whose wall-clock rate `table2
//!   --measure` prints, and the paper-calibrated cycle model that reproduces the
//!   published Table 2 row exactly.
//! * [`overlay`] — the FPGA overlay architecture of Fang–Ioannidis–Leeser
//!   (FPGA'17). Closed source and SHA-1 based; the paper itself interpolates
//!   its numbers, and this module encodes the same interpolation.
//! * [`garbled_cpu`] — GarbledCPU (Songhori et al., DAC'16), estimated from
//!   its published "2× JustGarble" speedup, as the paper does.
//!
//! All three expose a common [`FrameworkPerf`] row so the Table 2
//! regenerator can print them side by side. [`parallel_cpu`] additionally
//! implements the §3 strawman — barrier-synchronized multi-threaded CPU
//! garbling — so the paper's "parallelizing on a processor does not help"
//! argument is measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod garbled_cpu;
pub mod overlay;
pub mod parallel_cpu;
pub mod tinygarble;

/// One framework's row of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameworkPerf {
    /// Framework name.
    pub name: String,
    /// Operand bit-width.
    pub bit_width: usize,
    /// Clock cycles per MAC (on the framework's own clock).
    pub cycles_per_mac: f64,
    /// Seconds per MAC.
    pub seconds_per_mac: f64,
    /// MACs per second (whole platform).
    pub macs_per_second: f64,
    /// Parallel cores used.
    pub cores: usize,
    /// MACs per second per core — the paper's comparison metric.
    pub macs_per_second_per_core: f64,
}

impl FrameworkPerf {
    /// Builds a row from cycle count, clock and core count.
    pub fn from_cycles(
        name: impl Into<String>,
        bit_width: usize,
        cycles_per_mac: f64,
        clock_hz: f64,
        cores: usize,
    ) -> Self {
        let seconds_per_mac = cycles_per_mac / clock_hz;
        let macs_per_second = 1.0 / seconds_per_mac;
        FrameworkPerf {
            name: name.into(),
            bit_width,
            cycles_per_mac,
            seconds_per_mac,
            macs_per_second,
            cores,
            macs_per_second_per_core: macs_per_second / cores as f64,
        }
    }
}
