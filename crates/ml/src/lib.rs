//! The paper's §6 case studies: privacy-preserving machine-learning
//! applications whose bottleneck is the garbled MAC.
//!
//! * [`recommender`] — matrix-factorization movie recommendation
//!   (Nikolaenko et al., CCS'13): a working gradient-descent factorizer
//!   plus the runtime model that reproduces the 2.9 h → 1 h per-iteration
//!   claim on MovieLens-scale data.
//! * [`ridge`] — privacy-preserving ridge regression (Nikolaenko et al.,
//!   S&P'13): a working solver plus the Table 3 runtime-improvement model.
//! * [`portfolio`] — portfolio risk analysis (`w·cov·wᵀ`): working math,
//!   a secure execution path on the accelerator, and the 1.33 s / 15.23 ms
//!   case-study model (which turns out to be PCIe-transfer-bound — the §6
//!   communication caveat made concrete).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod portfolio;
pub mod recommender;
pub mod ridge;

/// Seconds in one hour (for the recommender model's readable numbers).
pub(crate) const HOUR: f64 = 3600.0;
