//! # MAXelerator
//!
//! Cycle-accurate reproduction of *MAXelerator: FPGA Accelerator for
//! Privacy Preserving Multiply-Accumulate (MAC) on Cloud Servers*
//! (Hussain, Rouhani, Ghasemzadeh, Koushanfar — DAC 2018).
//!
//! MAXelerator accelerates the **garbler** side of Yao's protocol for the
//! one operation that dominates privacy-preserving matrix ML: the MAC.
//! Its design points, all modeled here:
//!
//! * **FSM instead of netlist interpretation** — the MAC netlist is compiled
//!   into a static per-clock schedule ([`Schedule`]) that tells each GC core
//!   which AND gate to garble in which cycle, with label transfer by wiring
//!   and delay registers instead of memory synchronization.
//! * **Parallel GC cores** — `b/2 + ⌈(b/2+8)/3⌉` cores
//!   ([`TimingModel::cores`]), each garbling one table per clock with a
//!   fixed-key AES engine.
//! * **Sequential outer loop** — the same schedule re-runs every round with
//!   fresh labels, the accumulator labels carried between rounds
//!   ([`Maxelerator`]).
//! * **On-chip label generation** — a power-gated ring-oscillator RNG bank
//!   (`max-rng`).
//! * **BRAM + PCIe drainage** — tables stream to the host through the
//!   single-read-port memory and a bandwidth-modeled link (`max-fpga`).
//!
//! The simulated hardware emits **real garbled tables**: [`ScheduledEvaluator`]
//! (the client) decrypts them and must recover exact MAC results, which is
//! the strongest correctness check this reproduction has — and it passes for
//! random matrices at every supported bit-width.
//!
//! # Quick start
//!
//! ```
//! use maxelerator::{AcceleratorConfig, Maxelerator, ScheduledEvaluator};
//!
//! let config = AcceleratorConfig::new(8);
//! let mut accel = Maxelerator::new(config.clone(), 42);
//! let mut client = ScheduledEvaluator::new(&config);
//!
//! // Server's row a, client's vector x: compute <a, x> privately.
//! let a = [3i64, -4, 5];
//! let x = [2i64, 6, -1];
//! let mut result = None;
//! for (l, (&al, &xl)) in a.iter().zip(&x).enumerate() {
//!     let round = accel.garble_round(al, l == a.len() - 1);
//!     let labels = accel.ot_pairs_for_client(&config.encode_x(xl));
//!     result = client.evaluate_round(&round, &labels).expect("well-formed round");
//! }
//! assert_eq!(result.unwrap(), 3 * 2 + (-4) * 6 + 5 * (-1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod config;
mod error;
mod multi_unit;
pub mod remote;
pub mod resilient;
mod resources;
mod scaling;
mod schedule;
mod server;
mod timing;
mod wire;

pub use accelerator::{
    AcceleratorReport, GarbledRow, Maxelerator, RoundMessage, ScheduledEvaluator,
};
pub use config::AcceleratorConfig;
pub use error::AcceleratorError;
pub use multi_unit::{connect_multi, secure_matvec_multi, MultiUnitServer, MultiUnitTiming};
pub use remote::{
    JobProgress, MaterializedJob, ModelHandle, ModelStatus, RemoteClient, SessionState,
    PROTOCOL_VERSION,
};
pub use resilient::{ResilienceStats, ResilientClient, RetryPolicy};
pub use resources::{mac_unit_resources, resource_breakdown, ComponentUsage};
pub use scaling::{client_capacity_ratio, pack_device, xcvu095_scaling, DeviceScaling};
pub use schedule::{Schedule, SchedulePolicy, ScheduleStats, Segment, SlotAssignment};
pub use server::{
    connect, secure_matmul, secure_matvec, ClientSession, CloudServer, MatvecTranscript,
};
pub use timing::TimingModel;
pub use wire::{decode_round_message, encode_round_message};
