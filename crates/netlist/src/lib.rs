//! Boolean circuit IR and GC-optimized arithmetic circuit library.
//!
//! Garbled-circuit cost is dominated by non-XOR gates (Free-XOR makes XOR
//! free), so every builder in this crate minimizes AND-gate count:
//!
//! * full adder with **one** AND gate per bit (the TinyGarble-optimized
//!   construction the paper adopts),
//! * conditional two's complement with one AND per bit,
//! * 2:1 multiplexer with one AND per bit,
//! * serial (shift–add) multiplier — the TinyGarble baseline structure,
//! * **tree multiplier** — the parallel structure of Figure 2 of the paper,
//!   which MAXelerator's FSM schedules across its GC cores,
//! * the signed/unsigned **MAC** (multiply-accumulate) unit that is
//!   MAXelerator's entire datapath.
//!
//! Circuits are built with [`Builder`], produce an immutable [`Netlist`]
//! whose gates are in topological order, and can be evaluated in plaintext
//! with [`Netlist::evaluate`] — the reference semantics every garbling
//! backend in this repository is tested against.
//!
//! # Example
//!
//! ```
//! use max_netlist::{Builder, encode_unsigned, decode_unsigned};
//!
//! let mut b = Builder::new();
//! let x = b.garbler_input_bus(8);
//! let y = b.evaluator_input_bus(8);
//! let sum = b.add_expand(&x, &y);
//! let netlist = b.build(sum.wires().to_vec());
//!
//! let out = netlist.evaluate(&encode_unsigned(200, 8), &encode_unsigned(100, 8));
//! assert_eq!(decode_unsigned(&out), 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod builder;
mod encoding;
mod ir;
mod levels;
mod mac;
mod mult;

pub use builder::{Builder, Bus};
pub use encoding::{
    decode_signed, decode_unsigned, encode_signed, encode_unsigned, signed_fits, unsigned_fits,
};
pub use ir::{Gate, GateKind, Netlist, NetlistStats, WireId};
pub use levels::{Level, LevelAnd};
pub use mac::{MacCircuit, MacPorts, Sign};
pub use mult::MultiplierKind;
