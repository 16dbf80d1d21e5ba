//! Privacy-preserving ridge regression (§6 "Ridge Regression", Table 3).
//!
//! \[7\] (Nikolaenko et al., S&P'13) solves `β = (XᵀX + λI)⁻¹ Xᵀy` privately:
//! phase 1 aggregates the covariance homomorphically; phase 2 runs a garbled
//! Cholesky solver with `O(d³)` MACs, `O(d)` square roots and `O(d²)`
//! divisions.
//!
//! Two parts here:
//!
//! 1. [`RidgeRegression`] — a working plaintext solver (Cholesky), used to
//!    validate the secure path and to count the operations the model needs.
//! 2. [`runtime_model`] — the Table 3 reproduction. Accelerating the MACs
//!    leaves the divisions: with `w ≈ 0.5` division-to-MAC cost weight the
//!    garbled solve splits as `f = d/(d + w)` MAC share, and
//!    `ours = T·(1−f) + T·f/S` with the whole-unit speedup
//!    `S = 657.65/0.48 ≈ 1370` reproduces every published row to the
//!    paper's rounding.

/// A working ridge-regression solver over plain `f64` data.
#[derive(Clone, Debug)]
pub struct RidgeRegression {
    /// Regularization strength λ.
    pub lambda: f64,
}

impl RidgeRegression {
    /// Creates a solver.
    pub fn new(lambda: f64) -> Self {
        RidgeRegression { lambda }
    }

    /// Fits `β` minimizing `‖Xβ − y‖² + λ‖β‖²` via normal equations +
    /// Cholesky — the same linear algebra \[7\] garbles.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if the system is not positive definite
    /// (cannot happen for λ > 0 with finite data).
    pub fn fit(&self, x: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let n = x.len();
        assert!(n > 0, "empty design matrix");
        let d = x[0].len();
        assert_eq!(y.len(), n, "label count mismatch");
        // A = XᵀX + λI  (d×d), b = Xᵀy.
        let mut a = vec![vec![0.0; d]; d];
        let mut b = vec![0.0; d];
        for (row, &yi) in x.iter().zip(y) {
            assert_eq!(row.len(), d, "ragged design matrix");
            for i in 0..d {
                b[i] += row[i] * yi;
                for j in 0..d {
                    a[i][j] += row[i] * row[j];
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += self.lambda;
        }
        // Cholesky: A = LLᵀ.
        let mut l = vec![vec![0.0; d]; d];
        for i in 0..d {
            for j in 0..=i {
                let mut sum = a[i][j];
                for (&lik, &ljk) in l[i][..j].iter().zip(&l[j][..j]) {
                    sum -= lik * ljk;
                }
                if i == j {
                    assert!(sum > 0.0, "matrix not positive definite");
                    l[i][j] = sum.sqrt();
                } else {
                    l[i][j] = sum / l[j][j];
                }
            }
        }
        // Solve L z = b, then Lᵀ β = z.
        let mut z = vec![0.0; d];
        for i in 0..d {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i][k] * z[k];
            }
            z[i] = sum / l[i][i];
        }
        let mut beta = vec![0.0; d];
        for i in (0..d).rev() {
            let mut sum = z[i];
            for k in i + 1..d {
                sum -= l[k][i] * beta[k];
            }
            beta[i] = sum / l[i][i];
        }
        beta
    }

    /// Operation counts of the garbled phase-2 solve for feature size `d`
    /// (plus the phase-1 aggregation MACs for `n` samples).
    pub fn op_counts(&self, n: usize, d: usize) -> RidgeOps {
        RidgeOps {
            phase1_macs: (n * d * d) as u64,
            phase2_macs: (d * d * d) as u64 + (d * d) as u64,
            square_roots: d as u64,
            divisions: (d * d) as u64,
        }
    }
}

/// Operation counts of the private protocol of \[7\].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RidgeOps {
    /// Homomorphic phase-1 aggregation MAC-equivalents.
    pub phase1_macs: u64,
    /// Garbled phase-2 MACs (`O(d³)` Cholesky + `O(d²)` solve).
    pub phase2_macs: u64,
    /// Garbled square roots (`O(d)`).
    pub square_roots: u64,
    /// Garbled divisions (`O(d²)`).
    pub divisions: u64,
}

/// The Table 3 datasets: `(name, n, d, published [7] seconds)`.
pub const TABLE3_DATASETS: [(&str, usize, usize, f64); 6] = [
    ("communities11.IV", 2215, 20, 314.0),
    ("automobile.I", 205, 14, 100.0),
    ("forestFires", 517, 12, 46.0),
    ("winequality-red", 1599, 11, 39.0),
    ("autompg", 398, 9, 21.0),
    ("concreteStrength", 1030, 8, 17.0),
];

/// The Table 3 runtime model.
pub mod runtime_model {
    use super::*;

    /// Division-to-MAC relative cost weight in the garbled solver.
    pub const DIVISION_WEIGHT: f64 = 0.5;

    /// Whole-unit MAC speedup at b = 32: TinyGarble 657.65 µs vs
    /// MAXelerator 0.48 µs per MAC.
    pub const MAC_SPEEDUP: f64 = 657.65 / 0.48;

    /// One reproduced Table 3 row.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Table3Row {
        /// Dataset name.
        pub name: String,
        /// Samples.
        pub n: usize,
        /// Features.
        pub d: usize,
        /// Published \[7\] seconds.
        pub baseline_seconds: f64,
        /// Our accelerated seconds.
        pub ours_seconds: f64,
        /// Runtime improvement factor.
        pub improvement: f64,
    }

    /// MAC share of the garbled solve: `d³` MACs against `d²` divisions of
    /// weight [`DIVISION_WEIGHT`] ⇒ `f = d / (d + w)`.
    pub fn mac_fraction(d: usize) -> f64 {
        d as f64 / (d as f64 + DIVISION_WEIGHT)
    }

    /// Accelerated runtime for a dataset with baseline `t` seconds.
    pub fn accelerate(d: usize, baseline_seconds: f64) -> f64 {
        let f = mac_fraction(d);
        baseline_seconds * (1.0 - f) + baseline_seconds * f / MAC_SPEEDUP
    }

    /// Reproduces all of Table 3.
    pub fn table3() -> Vec<Table3Row> {
        TABLE3_DATASETS
            .iter()
            .map(|&(name, n, d, t)| {
                let ours = accelerate(d, t);
                Table3Row {
                    name: name.to_string(),
                    n,
                    d,
                    baseline_seconds: t,
                    ours_seconds: ours,
                    improvement: t / ours,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_fixed::SplitMix64;

    #[test]
    fn solver_recovers_planted_coefficients() {
        let mut rng = SplitMix64::new(7);
        let d = 5;
        let n = 400;
        let truth: Vec<f64> = (0..d).map(|i| (i as f64) - 2.0).collect();
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|row| {
                let clean: f64 = row.iter().zip(&truth).map(|(a, b)| a * b).sum();
                clean + rng.uniform(-0.01, 0.01)
            })
            .collect();
        let beta = RidgeRegression::new(1e-6).fit(&x, &y);
        for (b, t) in beta.iter().zip(&truth) {
            assert!((b - t).abs() < 0.05, "{b} vs {t}");
        }
    }

    #[test]
    fn regularization_shrinks_coefficients() {
        let mut rng = SplitMix64::new(8);
        let x: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..3).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1] - r[2]).collect();
        let small = RidgeRegression::new(1e-6).fit(&x, &y);
        let large = RidgeRegression::new(100.0).fit(&x, &y);
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!(norm(&large) < norm(&small));
    }

    #[test]
    fn op_counts_scale_as_documented() {
        let ops = RidgeRegression::new(1.0).op_counts(100, 10);
        assert_eq!(ops.phase1_macs, 100 * 100);
        assert_eq!(ops.phase2_macs, 1000 + 100);
        assert_eq!(ops.square_roots, 10);
        assert_eq!(ops.divisions, 100);
    }

    #[test]
    fn table3_reproduces_published_times() {
        // Published "Ours" column: 7.8, 3.5, 1.8, 1.7, 1.1, 1.0 seconds.
        let published = [7.8, 3.5, 1.8, 1.7, 1.1, 1.0];
        for (row, &want) in runtime_model::table3().iter().zip(&published) {
            assert!(
                (row.ours_seconds - want).abs() <= 0.1,
                "{}: {} vs {}",
                row.name,
                row.ours_seconds,
                want
            );
        }
    }

    #[test]
    fn table3_reproduces_published_improvements() {
        // Published improvements: 39.8, 28.4, 24.5, 22.6, 18.7, 16.8 ×.
        let published = [39.8, 28.4, 24.5, 22.6, 18.7, 16.8];
        for (row, &want) in runtime_model::table3().iter().zip(&published) {
            assert!(
                (row.improvement - want).abs() / want < 0.03,
                "{}: {} vs {}",
                row.name,
                row.improvement,
                want
            );
        }
    }

    #[test]
    fn improvement_grows_with_feature_count() {
        let rows = runtime_model::table3();
        // Table 3 is sorted by descending d; improvements must follow.
        for pair in rows.windows(2) {
            assert!(pair[0].improvement > pair[1].improvement);
        }
    }
}
