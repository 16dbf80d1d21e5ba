//! Cryptographic primitives for the MAXelerator reproduction.
//!
//! This crate provides every cryptographic building block the garbled-circuit
//! stack needs, implemented from scratch so the repository has no external
//! crypto dependencies:
//!
//! * [`Block`] — a 128-bit value, the unit of wire labels, garbled-table rows
//!   and cipher blocks.
//! * [`Aes128`] — a software AES-128 implementation validated against the
//!   FIPS-197 known-answer vectors. The MAXelerator hardware instantiates a
//!   single-stage AES round pipeline; this software model is bit-compatible.
//! * [`FixedKeyHash`] — the correlation-robust hash
//!   `H(X, T) = π(2X ⊕ T) ⊕ 2X ⊕ T` of Bellare et al. ("Efficient Garbling
//!   from a Fixed-Key Blockcipher", S&P 2013) used by JustGarble, TinyGarble
//!   and MAXelerator's GC engine.
//! * [`AesPrg`] — an AES-CTR pseudo-random generator used wherever the
//!   protocol needs expanded randomness (e.g. IKNP OT extension).
//! * [`TranscriptDigest`] — a rolling Matyas–Meyer–Oseas digest over the
//!   fixed-key AES permutation, used by the session protocol to detect
//!   accidental transcript corruption end to end (a serial `fold` for
//!   marks and small bodies, an eight-lane `fold_wide` for bulk material).
//! * [`crc32`] — the one CRC32 (IEEE, slice-by-16) sealing every wire frame
//!   and guarding every journal record.
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

// `deny`, not `forbid`: the AES-NI backend module opts back in with a
// scoped `allow(unsafe_code)` and documented safety contract; everything
// else in the crate remains unsafe-free.
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
mod hash;
mod prg;

pub use aes::Aes128;
pub use backend::AesBackend;
pub use block::Block;
pub use crc::crc32;
pub use digest::TranscriptDigest;
pub use hash::{FixedKeyHash, Tweak};
pub use prg::AesPrg;
