//! Portfolio risk analysis (§6 "Portfolio Analysis").
//!
//! The client holds the stock-weight vector `w`; the financial institution
//! holds the covariance matrix `cov`; the risk-to-return ratio needs
//! `w · cov · wᵀ`. The case study: 252 analysis rounds (one trading year)
//! of a size-2 portfolio take 20 µs *without privacy* on an Nvidia K80
//! \[31\], 1.33 s under TinyGarble, and 15.23 ms on MAXelerator.
//!
//! Reverse-engineering the published numbers (recorded in EXPERIMENTS.md):
//!
//! * TinyGarble: `252 rounds × 2p² MACs × 657.65 µs = 1.326 s` ✓ — so the
//!   paper costs `w·cov` and `(w·cov)·wᵀ` at `p²` MACs each.
//! * MAXelerator: the *garbling* takes only `2016 × 0.48 µs ≈ 0.97 ms`;
//!   the published 15.23 ms equals the **PCIe transfer time** of the
//!   ≈ 148 MB of garbled tables at ≈ 9.75 GB/s — the §6 caveat ("after
//!   certain threshold, communication capability of the server may become
//!   the bottleneck") is already binding in their own case study.

use max_fixed::{FixedFormat, Matrix, SplitMix64, Vector};

/// A portfolio analysis instance.
#[derive(Clone, Debug)]
pub struct Portfolio {
    /// Client's relative stock weights.
    pub weights: Vec<f64>,
    /// Institution's covariance matrix (symmetric PSD).
    pub covariance: Vec<Vec<f64>>,
}

impl Portfolio {
    /// Generates a synthetic instance of `p` stocks: random weights summing
    /// to 1, covariance `GᵀG` (positive semi-definite by construction).
    pub fn synthetic(p: usize, seed: u64) -> Self {
        assert!(p > 0, "portfolio must hold at least one stock");
        let mut rng = SplitMix64::new(seed);
        let mut weights: Vec<f64> = (0..p).map(|_| rng.uniform(0.05, 1.0)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let g: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..p).map(|_| rng.uniform(-0.3, 0.3)).collect())
            .collect();
        let mut covariance = vec![vec![0.0; p]; p];
        for (i, cov_row) in covariance.iter_mut().enumerate() {
            for (j, slot) in cov_row.iter_mut().enumerate() {
                *slot = (0..p).map(|k| g[k][i] * g[k][j]).sum();
            }
        }
        Portfolio {
            weights,
            covariance,
        }
    }

    /// Portfolio size `p`.
    pub fn size(&self) -> usize {
        self.weights.len()
    }

    /// The exact risk `w · cov · wᵀ` in `f64`.
    pub fn risk(&self) -> f64 {
        let p = self.size();
        let mut risk = 0.0;
        for i in 0..p {
            for j in 0..p {
                risk += self.weights[i] * self.covariance[i][j] * self.weights[j];
            }
        }
        risk
    }

    /// The fixed-point computation the secure datapath runs: `t = cov·w`
    /// (institution's matrix × client's vector), then `w · t`. Returns the
    /// dequantized risk.
    pub fn risk_fixed(&self, format: FixedFormat) -> f64 {
        let cov = Matrix::quantize(&self.covariance, format);
        let w = Vector::quantize(&self.weights, format);
        let t = cov.matvec(&w);
        // t carries 2·frac bits; rescale back before the second stage so the
        // final product carries 2·frac again (as the hardware pipeline does
        // with its truncation stage).
        let t_rescaled = Vector::from_raw(t.raw().iter().map(|&r| r >> format.frac_bits).collect());
        format.dequantize_product(w.dot(&t_rescaled))
    }

    /// MAC count per analysis round as the paper tallies it: `p²` for
    /// `cov·w` and `p²` for the outer product stage.
    pub fn macs_per_round(&self) -> u64 {
        2 * (self.size() * self.size()) as u64
    }
}

/// The published case-study constants.
pub mod case_model {
    /// Trading rounds in the case study.
    pub const ROUNDS: u64 = 252;
    /// Portfolio size.
    pub const SIZE: usize = 2;
    /// Non-private GPU baseline \[31\] for the whole workload.
    pub const GPU_SECONDS: f64 = 20e-6;
    /// TinyGarble seconds per 32-bit MAC (Table 2).
    pub const TINYGARBLE_MAC_SECONDS: f64 = 657.65e-6;
    /// MAXelerator seconds per 32-bit MAC (Table 2).
    pub const MAXELERATOR_MAC_SECONDS: f64 = 0.48e-6;
    /// Garbled tables per 32-bit MAC (3b cycles × 24 cores slot budget).
    pub const TABLES_PER_MAC: u64 = 96 * 24;
    /// PCIe streaming bandwidth that reproduces the published 15.23 ms.
    pub const PCIE_BYTES_PER_SECOND: f64 = 9.75e9;

    /// Modeled outcome of the case study.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct CaseEstimate {
        /// Total MACs.
        pub macs: u64,
        /// TinyGarble runtime (compute-bound).
        pub tinygarble_seconds: f64,
        /// MAXelerator garbling time (compute only).
        pub maxelerator_compute_seconds: f64,
        /// MAXelerator table-transfer time over PCIe.
        pub maxelerator_transfer_seconds: f64,
        /// MAXelerator end-to-end (max of compute and transfer).
        pub maxelerator_seconds: f64,
    }

    /// Computes the case-study estimate for `rounds` rounds of a size-`p`
    /// portfolio.
    pub fn estimate(rounds: u64, p: usize) -> CaseEstimate {
        let macs = rounds * 2 * (p * p) as u64;
        let tinygarble_seconds = macs as f64 * TINYGARBLE_MAC_SECONDS;
        let compute = macs as f64 * MAXELERATOR_MAC_SECONDS;
        let bytes = macs * TABLES_PER_MAC * 32;
        let transfer = bytes as f64 / PCIE_BYTES_PER_SECOND;
        CaseEstimate {
            macs,
            tinygarble_seconds,
            maxelerator_compute_seconds: compute,
            maxelerator_transfer_seconds: transfer,
            maxelerator_seconds: compute.max(transfer),
        }
    }

    /// The published configuration.
    pub fn paper_estimate() -> CaseEstimate {
        estimate(ROUNDS, SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risk_is_nonnegative_for_psd_covariance() {
        for seed in 0..8 {
            let p = Portfolio::synthetic(2 + (seed as usize % 5), seed);
            assert!(p.risk() >= -1e-12, "seed {seed}: risk {}", p.risk());
        }
    }

    #[test]
    fn fixed_point_risk_tracks_f64() {
        let p = Portfolio::synthetic(4, 11);
        let exact = p.risk();
        let fixed = p.risk_fixed(FixedFormat::Q32_16);
        assert!(
            (exact - fixed).abs() < 1e-2 + exact.abs() * 0.02,
            "{exact} vs {fixed}"
        );
    }

    #[test]
    fn weights_sum_to_one() {
        let p = Portfolio::synthetic(5, 3);
        let total: f64 = p.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn case_model_reproduces_tinygarble_time() {
        // Published: 1.33 s.
        let est = case_model::paper_estimate();
        assert_eq!(est.macs, 2016);
        assert!(
            (est.tinygarble_seconds - 1.33).abs() < 0.01,
            "{}",
            est.tinygarble_seconds
        );
    }

    #[test]
    fn case_model_reproduces_maxelerator_time() {
        // Published: 15.23 ms — transfer-bound.
        let est = case_model::paper_estimate();
        assert!(
            (est.maxelerator_seconds * 1e3 - 15.23).abs() < 0.15,
            "{} ms",
            est.maxelerator_seconds * 1e3
        );
        assert!(est.maxelerator_transfer_seconds > est.maxelerator_compute_seconds);
    }

    #[test]
    fn privacy_premium_over_gpu_is_visible() {
        let est = case_model::paper_estimate();
        assert!(est.maxelerator_seconds > case_model::GPU_SECONDS * 100.0);
        assert!(est.tinygarble_seconds > est.maxelerator_seconds * 80.0);
    }

    #[test]
    fn macs_per_round_matches_model() {
        let p = Portfolio::synthetic(2, 1);
        assert_eq!(p.macs_per_round(), 8);
    }
}
