//! Simulation of MAXelerator's hardware label generator (§5.2 of the paper).
//!
//! The accelerator generates wire labels on chip with ring-oscillator (RO)
//! based true random number generators, following the enhanced Wold–Tan
//! construction: each RNG XORs the sampled outputs of 16 free-running rings
//! of 3 inverters each. A bank of `k·(b/2)` RNGs covers the worst-case demand
//! of `k·(b/2)` random bits per clock; the scheduling FSM power-gates unused
//! RNGs because the *average* demand is only `k` bits per clock.
//!
//! Since this reproduction runs on a CPU, the analogue physics of an RO is
//! *simulated*: each ring is a phase accumulator whose period carries
//! accumulated Gaussian jitter (thermal noise) on top of a per-ring
//! manufacturing mismatch. Entropy comes from the jitter source — seeded,
//! so simulations are reproducible — exactly the structural role thermal
//! noise plays in silicon. The harvested bitstream is validated with a
//! NIST SP 800-22-style statistical battery in [`nist`].
//!
//! # Example
//!
//! ```
//! use max_rng::{RoRng, nist};
//!
//! let mut rng = RoRng::from_seed(7);
//! let bits = rng.bits(20_000);
//! let report = nist::run_battery(&bits);
//! assert!(report.all_passed(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod label_gen;
pub mod nist;
mod oscillator;
mod wold_tan;

pub use health::{HealthMonitor, PROPORTION_CUTOFF, PROPORTION_WINDOW, REPETITION_CUTOFF};
pub use label_gen::{LabelGenerator, LabelGeneratorReport};
pub use oscillator::RingOscillator;
pub use wold_tan::RoRng;
pub use wold_tan::{INVERTERS_PER_RING, RINGS_PER_RNG};
