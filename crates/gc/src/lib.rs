//! Garbled circuits with the full optimization stack MAXelerator adopts
//! (§2.2 of the paper):
//!
//! * **Free XOR** (Kolesnikov–Schneider): one global offset Δ with its
//!   permute bit forced to 1; XOR gates cost nothing.
//! * **Point and permute**: the label LSB is the color bit used to index
//!   garbled-table rows and to decode outputs.
//! * **Row reduction + Half Gates** (Zahur–Rosulek–Evans): every AND gate
//!   costs exactly two ciphertexts and the evaluator hashes each operand
//!   once.
//! * **Fixed-key block cipher garbling** (Bellare et al.): all encryption is
//!   AES-128 under one public fixed key, with per-gate unique tweaks.
//!
//! The crate exposes three layers:
//!
//! 1. [`garble_and`] / [`evaluate_and`] — the single-gate engine. This is
//!    exactly the operation MAXelerator's hardware GC engine performs once
//!    per clock cycle; the accelerator simulator calls it directly.
//! 2. [`Garbler`] / [`Evaluator`] — whole-netlist garbling in topological
//!    order (the software execution model of TinyGarble and friends).
//! 3. [`SequentialGarbler`] / [`SequentialEvaluator`] — the sequential-GC
//!    outer loop: the same netlist garbled for `M` rounds with fresh input
//!    labels, state wires (the MAC accumulator) carried from round to round.
//!
//! Two-party execution with a real wire (byte-counted, thread-to-thread) is
//! in [`channel`].
//!
//! # Example: secure AND, end to end
//!
//! ```
//! use max_crypto::{AesPrg, Block};
//! use max_netlist::Builder;
//! use max_gc::{Garbler, Evaluator, PrgLabelSource};
//!
//! let mut b = Builder::new();
//! let x = b.garbler_input();
//! let y = b.evaluator_input();
//! let z = b.and(x, y);
//! let netlist = b.build(vec![z]);
//!
//! let mut labels = PrgLabelSource::new(Block::new(7));
//! let mut garbler = Garbler::new(&mut labels);
//! let garbled = garbler.garble(&netlist, 0);
//!
//! // Garbler's input is true; evaluator's input is true, delivered via OT
//! // in a real deployment.
//! let g_labels = garbled.encode_garbler_inputs(&[true]);
//! let e_labels = garbled.encode_evaluator_inputs(&[true]);
//! let out = Evaluator::new().evaluate(&netlist, garbled.material(), &g_labels, &e_labels, 0);
//! assert_eq!(garbled.decode_outputs(&out), vec![true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod classic;
mod engine;
mod evaluator;
pub mod fault;
mod garbler;
mod label;
pub mod protocol;
mod sequential;
pub mod transport;

pub use engine::{
    evaluate_and, evaluate_and_batch, garble_and, garble_and_batch, BatchScratch, GarbledTable,
};
pub use evaluator::{evaluate_levels, Evaluator};
pub use fault::{FaultSpec, FaultStats, FaultTransport};
pub use garbler::{GarbledCircuit, Garbler, Material};
pub use label::{Delta, LabelSource, PrgLabelSource};
pub use sequential::{SequentialEvaluator, SequentialGarbler, SequentialRound};
pub use transport::{FramedTcp, Transport};
