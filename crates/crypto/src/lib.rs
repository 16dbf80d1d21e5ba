//! Cryptographic primitives for the MAXelerator reproduction.
//!
//! This crate provides every cryptographic building block the garbled-circuit
//! stack needs, implemented from scratch so the repository has no external
//! crypto dependencies:
//!
//! * [`Block`] — a 128-bit value, the unit of wire labels, garbled-table rows
//!   and cipher blocks.
//! * [`Aes128`] — AES-128 validated against the FIPS-197 known-answer
//!   vectors, dispatched at runtime to a VAES, AES-NI or portable software
//!   arm ([`AesBackend`]). The MAXelerator hardware instantiates a
//!   single-stage AES round pipeline; every arm is bit-compatible with it.
//! * [`FixedKeyHash`] — the correlation-robust hash
//!   `H(X, T) = π(2X ⊕ T) ⊕ 2X ⊕ T` of Bellare et al. ("Efficient Garbling
//!   from a Fixed-Key Blockcipher", S&P 2013) used by JustGarble, TinyGarble
//!   and MAXelerator's GC engine.
//! * [`GatePlan`] — a netlist's gates in dependency levels, checked once,
//!   and the half-gates level kernels that garble and evaluate it, on a
//!   vector arm that keeps every label in a register from load to store or
//!   on the scalar software arm, behind the same backend dispatch as
//!   [`Aes128`]; each [`GarbledTable`] is written and read where it lies,
//!   decoded or in its wire bytes.
//! * [`AesPrg`] — an AES-CTR pseudo-random generator used wherever the
//!   protocol needs expanded randomness (e.g. IKNP OT extension).
//! * [`TranscriptDigest`] — a rolling Matyas–Meyer–Oseas digest over the
//!   fixed-key AES permutation, used by the session protocol to detect
//!   accidental transcript corruption end to end (a serial `fold` for
//!   marks, small bodies and a prepared stream's per-element CRC records;
//!   an eight-lane `fold_wide` for the bulk bytes the model registry
//!   digests a weight matrix by).
//! * [`crc32`] — the one CRC32 (IEEE; carry-less-multiply folding where the
//!   CPU has `pclmulqdq`, slice-by-16 otherwise) sealing every wire frame,
//!   guarding every journal record and checking a prepared stream at rest:
//!   every single-bit flip and every burst of up to 32 bits is caught, and
//!   a random error gets through with probability 2⁻³² per checked run.
//!
//! # Security
//!
//! These implementations favour clarity and testability over side-channel
//! resistance. Table lookups are **not constant time**. This is a research
//! simulator, not a production library.
//!
//! # Example
//!
//! ```
//! use max_crypto::{Aes128, Block};
//!
//! let key = Block::from_bytes([0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let aes = Aes128::new(key);
//! let pt = Block::from_bytes([0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
//!                             0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34]);
//! let ct = aes.encrypt(pt);
//! assert_eq!(ct.to_bytes()[0], 0x39);
//! ```

// `deny`, not `forbid`: the SIMD arms — the `aesni`, `vaes` and
// `halfgates_ni` modules, `crc`'s CLMUL module and the dispatch calls into
// them — opt back in with a scoped `allow(unsafe_code)` and a documented
// safety contract; everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
mod backend;
mod block;
mod crc;
mod digest;
mod halfgates;
#[cfg(target_arch = "x86_64")]
mod halfgates_ni;
mod hash;
mod prg;
#[cfg(target_arch = "x86_64")]
mod vaes;

pub use aes::Aes128;
pub use backend::AesBackend;
pub use block::Block;
pub use crc::crc32;
pub use digest::TranscriptDigest;
pub use halfgates::{AndGate, AsTable, BatchScratch, FreeGate, GarbledTable, GatePlan};
pub use hash::{FixedKeyHash, Tweak};
pub use prg::AesPrg;
