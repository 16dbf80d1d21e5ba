//! Cycle-accurate FPGA simulation substrate.
//!
//! The MAXelerator paper evaluates on a Virtex UltraSCALE VCU108; this crate
//! is the software stand-in for that fabric (see the substitution table in
//! DESIGN.md). It provides the pieces the accelerator model composes:
//!
//! * [`BramBlock`] / [`MemorySystem`] — the on-chip table memory of §5.1:
//!   one write port per block (per GC core), one shared read port drained by
//!   the PCIe bridge.
//! * [`PcieLink`] — a bandwidth/latency stream model of the Xillybus PCIe
//!   bridge that carries garbled tables to the host.
//! * [`ResourceUsage`] — LUT/LUTRAM/FF/BRAM accounting used to reproduce
//!   Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bram;
mod energy;
mod pcie;
mod resource;

pub use bram::{BramBlock, MemorySystem};
pub use energy::{cpu_joules_per_mac, EnergyMeter, EnergyModel};
pub use pcie::PcieLink;
pub use resource::{ResourceUsage, XCVU095};
