//! Matrix-factorization recommender (§6 "Recommendation System").
//!
//! Two parts:
//!
//! 1. [`MatrixFactorization`] — a working gradient-descent factorizer over
//!    a rating list, the computation \[6\] performs under garbled circuits.
//!    Its inner loops are exactly the dot products / MACs the accelerator
//!    offloads, and [`MatrixFactorization::gradient_mac_count`] counts them.
//! 2. [`iteration_model`] — the runtime model behind the paper's claim:
//!    on MovieLens, one iteration of \[6\] takes 2.9 h, more than 2/3 of
//!    which is gradient vector multiplication; accelerating that MAC share
//!    with MAXelerator cuts the iteration to ≈ 1 h (65–69 % reduction).

use max_fixed::{FixedFormat, SplitMix64};

use crate::HOUR;

/// One observed rating.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rating {
    /// User index.
    pub user: usize,
    /// Item index.
    pub item: usize,
    /// Rating value.
    pub value: f64,
}

/// Gradient-descent matrix factorization: learn `U (n_users × d)` and
/// `V (n_items × d)` with `rating ≈ u_i · v_j`.
#[derive(Clone, Debug)]
pub struct MatrixFactorization {
    users: Vec<Vec<f64>>,
    items: Vec<Vec<f64>>,
    dim: usize,
    learning_rate: f64,
    regularization: f64,
}

impl MatrixFactorization {
    /// Initializes profiles with small random values.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(n_users: usize, n_items: usize, dim: usize, seed: u64) -> Self {
        assert!(n_users > 0 && n_items > 0 && dim > 0, "empty model");
        let mut rng = SplitMix64::new(seed);
        let mut profile = |n: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| (0..dim).map(|_| rng.uniform(-0.1, 0.1)).collect())
                .collect()
        };
        MatrixFactorization {
            users: profile(n_users),
            items: profile(n_items),
            dim,
            learning_rate: 0.02,
            regularization: 0.02,
        }
    }

    /// Profile dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Predicted rating for `(user, item)`.
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        self.users[user]
            .iter()
            .zip(&self.items[item])
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Runs one full gradient-descent epoch; returns the RMSE before the
    /// update.
    pub fn epoch(&mut self, ratings: &[Rating]) -> f64 {
        let mut sq_err = 0.0;
        for r in ratings {
            let err = r.value - self.predict(r.user, r.item);
            sq_err += err * err;
            for k in 0..self.dim {
                let u = self.users[r.user][k];
                let v = self.items[r.item][k];
                self.users[r.user][k] += self.learning_rate * (err * v - self.regularization * u);
                self.items[r.item][k] += self.learning_rate * (err * u - self.regularization * v);
            }
        }
        (sq_err / ratings.len() as f64).sqrt()
    }

    /// MAC operations per epoch of the gradient computation (the part \[6\]
    /// runs under GC): each rating costs one `d`-MAC prediction plus two
    /// `d`-MAC profile updates — `O(S·d)` with `S` = ratings (+ touched
    /// profiles), matching the paper's complexity statement.
    pub fn gradient_mac_count(&self, ratings: usize) -> u64 {
        3 * ratings as u64 * self.dim as u64
    }

    /// Quantizes a user profile for the secure datapath.
    pub fn quantized_user(&self, user: usize, format: FixedFormat) -> Vec<i64> {
        self.users[user]
            .iter()
            .map(|&v| format.quantize(v))
            .collect()
    }

    /// Quantizes an item profile for the secure datapath.
    pub fn quantized_item(&self, item: usize, format: FixedFormat) -> Vec<i64> {
        self.items[item]
            .iter()
            .map(|&v| format.quantize(v))
            .collect()
    }
}

/// Generates a synthetic rating set with planted low-rank structure, sized
/// like a MovieLens slice.
pub fn synthetic_ratings(
    n_users: usize,
    n_items: usize,
    count: usize,
    dim: usize,
    seed: u64,
) -> Vec<Rating> {
    let planted = MatrixFactorization::new(n_users, n_items, dim, seed ^ 0x9e37);
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let user = rng.below(n_users as u64) as usize;
            let item = rng.below(n_items as u64) as usize;
            let noise = rng.uniform(-0.05, 0.05);
            Rating {
                user,
                item,
                value: 3.0 + 10.0 * planted.predict(user, item) + noise,
            }
        })
        .collect()
}

/// The §6 iteration-runtime model.
pub mod iteration_model {
    use super::*;

    /// Published baseline: one iteration of \[6\] on MovieLens takes 2.9 h.
    pub const BASELINE_HOURS: f64 = 2.9;

    /// "More than 2/3 of the execution time is spent on vector
    /// multiplication for gradient computations."
    pub const MAC_FRACTION: f64 = 2.0 / 3.0;

    /// Iteration model outcome.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct IterationEstimate {
        /// Baseline seconds per iteration.
        pub baseline_seconds: f64,
        /// Accelerated seconds per iteration.
        pub accelerated_seconds: f64,
        /// Fractional runtime reduction.
        pub reduction: f64,
    }

    /// Applies Amdahl's law with the accelerator's whole-unit MAC speedup
    /// (TinyGarble seconds/MAC ÷ MAXelerator seconds/MAC at the same
    /// bit-width).
    pub fn estimate(mac_speedup: f64) -> IterationEstimate {
        let baseline_seconds = BASELINE_HOURS * HOUR;
        let accelerated_seconds =
            baseline_seconds * (1.0 - MAC_FRACTION) + baseline_seconds * MAC_FRACTION / mac_speedup;
        IterationEstimate {
            baseline_seconds,
            accelerated_seconds,
            reduction: 1.0 - accelerated_seconds / baseline_seconds,
        }
    }

    /// The paper's configuration: b = 32 — TinyGarble 657.65 µs/MAC vs
    /// MAXelerator 0.48 µs/MAC, a 1370× unit speedup.
    pub fn paper_estimate() -> IterationEstimate {
        estimate(657.65 / 0.48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_learns_planted_structure() {
        let ratings = synthetic_ratings(40, 30, 1500, 4, 1);
        let mut mf = MatrixFactorization::new(40, 30, 4, 2);
        let first = mf.epoch(&ratings);
        let mut last = first;
        for _ in 0..30 {
            last = mf.epoch(&ratings);
        }
        assert!(
            last < first * 0.5,
            "RMSE did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn prediction_in_sane_range_after_training() {
        let ratings = synthetic_ratings(20, 20, 800, 3, 3);
        let mut mf = MatrixFactorization::new(20, 20, 3, 4);
        for _ in 0..40 {
            mf.epoch(&ratings);
        }
        let p = mf.predict(ratings[0].user, ratings[0].item);
        assert!((0.0..6.5).contains(&p), "prediction {p}");
    }

    #[test]
    fn mac_count_is_3sd() {
        let mf = MatrixFactorization::new(5, 5, 10, 0);
        assert_eq!(mf.gradient_mac_count(100), 3 * 100 * 10);
    }

    #[test]
    fn paper_iteration_estimate_matches_case_study() {
        // 2.9 h → ≈ 1 h, a 65–69 % reduction.
        let est = iteration_model::paper_estimate();
        let hours = est.accelerated_seconds / HOUR;
        assert!(
            (0.95..1.05).contains(&hours),
            "accelerated iteration = {hours} h"
        );
        assert!(
            (0.65..0.69).contains(&est.reduction),
            "reduction = {}",
            est.reduction
        );
    }

    #[test]
    fn quantized_profiles_match_dim() {
        let mf = MatrixFactorization::new(3, 3, 7, 5);
        let q = FixedFormat::Q32_16;
        assert_eq!(mf.quantized_user(0, q).len(), 7);
        assert_eq!(mf.quantized_item(2, q).len(), 7);
    }
}
