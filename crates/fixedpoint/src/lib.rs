//! Fixed-point arithmetic and dense linear algebra for the privacy-
//! preserving ML case studies.
//!
//! The paper's case studies assume "a 32 bit fixed point system" (§6):
//! real-valued model parameters and client features are quantized to
//! two's-complement integers with a fixed number of fractional bits before
//! entering the garbled MAC datapath. This crate provides:
//!
//! * [`FixedFormat`] — a `Q(total, frac)` format with quantization,
//!   dequantization and product rescaling;
//! * [`Vector`] / [`Matrix`] — dense containers of raw fixed-point values
//!   with the plaintext linear algebra the secure protocols are checked
//!   against;
//! * quantization-error accounting, so examples can report the accuracy
//!   cost of the fixed-point substitution;
//! * [`SplitMix64`] — the seeded generator that synthesizes the case
//!   studies' data.
//!
//! # Example
//!
//! ```
//! use max_fixed::{FixedFormat, Matrix, Vector};
//!
//! let q = FixedFormat::new(32, 16);
//! let m = Matrix::quantize(&[vec![1.5, -2.0], vec![0.25, 4.0]], q);
//! let v = Vector::quantize(&[2.0, 1.0], q);
//! let y = m.matvec(&v);
//! // Product raws carry 2× the fractional bits; rescale to compare.
//! assert!((y.dequantize_products(q)[0] - 1.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod splitmix;

pub use splitmix::SplitMix64;

/// A `Q(total_bits, frac_bits)` two's-complement fixed-point format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    /// Total bits including sign.
    pub total_bits: u32,
    /// Fractional bits.
    pub frac_bits: u32,
}

impl FixedFormat {
    /// The case studies' default: Q32.16.
    pub const Q32_16: FixedFormat = FixedFormat {
        total_bits: 32,
        frac_bits: 16,
    };

    /// Creates a format.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < total_bits ≤ 63` and `frac_bits < total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Self {
        assert!(total_bits > 0 && total_bits <= 63, "unsupported total bits");
        assert!(frac_bits < total_bits, "fractional bits must fit");
        FixedFormat {
            total_bits,
            frac_bits,
        }
    }

    /// The quantization step `2^-frac_bits`.
    pub fn step(&self) -> f64 {
        (-(self.frac_bits as f64)).exp2()
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        ((1i64 << (self.total_bits - 1)) - 1) as f64 * self.step()
    }

    /// Quantizes `x` to the nearest representable raw value, saturating at
    /// the range limits.
    pub fn quantize(&self, x: f64) -> i64 {
        let scaled = (x / self.step()).round();
        let hi = (1i64 << (self.total_bits - 1)) - 1;
        let lo = -(1i64 << (self.total_bits - 1));
        (scaled as i64).clamp(lo, hi)
    }

    /// Dequantizes a raw value.
    pub fn dequantize(&self, raw: i64) -> f64 {
        raw as f64 * self.step()
    }

    /// Dequantizes the raw *product* of two values in this format (the
    /// product carries `2·frac_bits` fractional bits).
    pub fn dequantize_product(&self, raw: i64) -> f64 {
        raw as f64 * self.step() * self.step()
    }

    /// Worst-case absolute quantization error of one value.
    pub fn quantization_error_bound(&self) -> f64 {
        self.step() / 2.0
    }
}

/// A dense vector of raw fixed-point values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vector {
    raw: Vec<i64>,
}

impl Vector {
    /// Wraps raw values.
    pub fn from_raw(raw: Vec<i64>) -> Self {
        Vector { raw }
    }

    /// Quantizes real values.
    pub fn quantize(values: &[f64], format: FixedFormat) -> Self {
        Vector {
            raw: values.iter().map(|&v| format.quantize(v)).collect(),
        }
    }

    /// The raw values.
    pub fn raw(&self) -> &[i64] {
        &self.raw
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Dequantizes as plain values.
    pub fn dequantize(&self, format: FixedFormat) -> Vec<f64> {
        self.raw.iter().map(|&r| format.dequantize(r)).collect()
    }

    /// Dequantizes as products (double fractional bits) — use on the output
    /// of [`Matrix::matvec`] / [`Vector::dot`].
    pub fn dequantize_products(&self, format: FixedFormat) -> Vec<f64> {
        self.raw
            .iter()
            .map(|&r| format.dequantize_product(r))
            .collect()
    }

    /// Exact integer dot product (the value the garbled MAC chain computes).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Vector) -> i64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.raw.iter().zip(&other.raw).map(|(&a, &b)| a * b).sum()
    }
}

/// A dense row-major matrix of raw fixed-point values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    raw: Vec<i64>,
}

impl Matrix {
    /// Creates a matrix from row-major raw values.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows * cols`.
    pub fn from_raw(rows: usize, cols: usize, raw: Vec<i64>) -> Self {
        assert_eq!(raw.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, raw }
    }

    /// Quantizes real rows.
    ///
    /// # Panics
    ///
    /// Panics on ragged input.
    pub fn quantize(rows: &[Vec<f64>], format: FixedFormat) -> Self {
        assert!(!rows.is_empty(), "matrix must be non-empty");
        let cols = rows[0].len();
        let mut raw = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged matrix");
            raw.extend(row.iter().map(|&v| format.quantize(v)));
        }
        Matrix {
            rows: rows.len(),
            cols,
            raw,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.raw[r * self.cols..(r + 1) * self.cols]
    }

    /// All rows as owned vectors (the shape the secure server API takes).
    pub fn to_rows(&self) -> Vec<Vec<i64>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }

    /// Exact integer matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        Vector {
            raw: (0..self.rows)
                .map(|r| self.row(r).iter().zip(v.raw()).map(|(&a, &b)| a * b).sum())
                .collect(),
        }
    }

    /// Exact integer matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut raw = vec![0i64; self.rows * other.cols];
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.raw[i * self.cols + k];
                for j in 0..other.cols {
                    raw[i * other.cols + j] += a * other.raw[k * other.cols + j];
                }
            }
        }
        Matrix {
            rows: self.rows,
            cols: other.cols,
            raw,
        }
    }

    /// Number of MAC operations a garbled evaluation of `self · v` costs.
    pub fn matvec_mac_count(&self) -> u64 {
        (self.rows * self.cols) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_within_step() {
        let q = FixedFormat::new(32, 16);
        for x in [-100.5, -0.001, 0.0, 0.123456, std::f64::consts::PI, 1000.0] {
            let raw = q.quantize(x);
            assert!((q.dequantize(raw) - x).abs() <= q.quantization_error_bound());
        }
    }

    #[test]
    fn quantize_saturates() {
        let q = FixedFormat::new(8, 4);
        assert_eq!(q.quantize(1e9), 127);
        assert_eq!(q.quantize(-1e9), -128);
        assert!((q.max_value() - 127.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn product_rescaling() {
        let q = FixedFormat::new(32, 16);
        let a = q.quantize(1.5);
        let b = q.quantize(-2.25);
        assert!((q.dequantize_product(a * b) - (1.5 * -2.25)).abs() < 1e-3);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Vector::from_raw(vec![1, -2, 3]);
        let b = Vector::from_raw(vec![4, 5, -6]);
        assert_eq!(a.dot(&b), 4 - 10 - 18);
    }

    #[test]
    fn matvec_and_matmul_agree() {
        let q = FixedFormat::new(16, 8);
        let m = Matrix::quantize(&[vec![1.0, 2.0], vec![-0.5, 0.25]], q);
        let v = Vector::quantize(&[3.0, -1.0], q);
        let as_vec = m.matvec(&v);
        let as_mat = m.matmul(&Matrix::from_raw(2, 1, v.raw().to_vec()));
        assert_eq!(as_vec.raw(), &as_mat.raw[..]);
    }

    #[test]
    fn matvec_accuracy_against_f64() {
        let q = FixedFormat::Q32_16;
        let rows = vec![vec![0.5, -1.25, 2.0], vec![3.5, 0.125, -0.75]];
        let xs = [1.5, 2.5, -0.5];
        let m = Matrix::quantize(&rows, q);
        let v = Vector::quantize(&xs, q);
        let got = m.matvec(&v).dequantize_products(q);
        for (g, row) in got.iter().zip(&rows) {
            let want: f64 = row.iter().zip(&xs).map(|(a, b)| a * b).sum();
            assert!((g - want).abs() < 1e-3, "{g} vs {want}");
        }
    }

    #[test]
    fn mac_count() {
        let m = Matrix::from_raw(3, 4, vec![0; 12]);
        assert_eq!(m.matvec_mac_count(), 12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_shape() {
        let m = Matrix::from_raw(1, 2, vec![1, 2]);
        m.matvec(&Vector::from_raw(vec![1, 2, 3]));
    }
}

/// A fixed-point scalar: a raw value tagged with its format, with checked
/// arithmetic that keeps track of fractional bits across multiplications.
///
/// # Example
///
/// ```
/// use max_fixed::{Fixed, FixedFormat};
///
/// let q = FixedFormat::new(32, 16);
/// let a = Fixed::from_f64(1.5, q);
/// let b = Fixed::from_f64(-2.0, q);
/// let product = a.mul_rescaled(b);
/// assert!((product.to_f64() - (-3.0)).abs() < 1e-3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fixed {
    raw: i64,
    format: FixedFormat,
}

impl Fixed {
    /// Quantizes a real value.
    pub fn from_f64(x: f64, format: FixedFormat) -> Self {
        Fixed {
            raw: format.quantize(x),
            format,
        }
    }

    /// Wraps a raw value already in `format`.
    pub fn from_raw(raw: i64, format: FixedFormat) -> Self {
        Fixed { raw, format }
    }

    /// The raw integer.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format.
    pub fn format(self) -> FixedFormat {
        self.format
    }

    /// Back to a real value.
    pub fn to_f64(self) -> f64 {
        self.format.dequantize(self.raw)
    }

    /// Saturating addition (same format).
    ///
    /// # Panics
    ///
    /// Panics on format mismatch.
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        assert_eq!(self.format, rhs.format, "format mismatch");
        let hi = (1i64 << (self.format.total_bits - 1)) - 1;
        let lo = -(1i64 << (self.format.total_bits - 1));
        Fixed {
            raw: self.raw.saturating_add(rhs.raw).clamp(lo, hi),
            format: self.format,
        }
    }

    /// Multiplication with rescaling back into the shared format (the
    /// hardware truncation stage): `(a·b) >> frac_bits`, saturated.
    ///
    /// # Panics
    ///
    /// Panics on format mismatch.
    pub fn mul_rescaled(self, rhs: Fixed) -> Fixed {
        assert_eq!(self.format, rhs.format, "format mismatch");
        let wide = self.raw as i128 * rhs.raw as i128;
        let rescaled = wide >> self.format.frac_bits;
        let hi = (1i128 << (self.format.total_bits - 1)) - 1;
        let lo = -(1i128 << (self.format.total_bits - 1));
        Fixed {
            raw: rescaled.clamp(lo, hi) as i64,
            format: self.format,
        }
    }

    /// Negation (saturating at the asymmetric minimum).
    pub fn saturating_neg(self) -> Fixed {
        let hi = (1i64 << (self.format.total_bits - 1)) - 1;
        Fixed {
            raw: self.raw.checked_neg().map_or(hi, |v| v.min(hi)),
            format: self.format,
        }
    }
}

#[cfg(test)]
mod fixed_scalar_tests {
    use super::*;

    #[test]
    fn round_trip_and_arithmetic() {
        let q = FixedFormat::new(16, 8);
        let a = Fixed::from_f64(2.5, q);
        let b = Fixed::from_f64(-1.25, q);
        assert!((a.to_f64() - 2.5).abs() < 1e-2);
        assert!((a.saturating_add(b).to_f64() - 1.25).abs() < 1e-2);
        assert!((a.mul_rescaled(b).to_f64() + 3.125).abs() < 2e-2);
    }

    #[test]
    fn addition_saturates() {
        let q = FixedFormat::new(8, 0);
        let big = Fixed::from_raw(120, q);
        assert_eq!(big.saturating_add(big).raw(), 127);
        let small = Fixed::from_raw(-120, q);
        assert_eq!(small.saturating_add(small).raw(), -128);
    }

    #[test]
    fn multiplication_saturates() {
        let q = FixedFormat::new(8, 2);
        let big = Fixed::from_raw(127, q); // 31.75
        assert_eq!(big.mul_rescaled(big).raw(), 127);
        let neg = Fixed::from_raw(-128, q);
        assert_eq!(neg.mul_rescaled(big).raw(), -128);
    }

    #[test]
    fn negation_handles_min() {
        let q = FixedFormat::new(8, 0);
        assert_eq!(Fixed::from_raw(-128, q).saturating_neg().raw(), 127);
        assert_eq!(Fixed::from_raw(5, q).saturating_neg().raw(), -5);
    }

    #[test]
    #[should_panic(expected = "format mismatch")]
    fn mixed_formats_rejected() {
        let a = Fixed::from_f64(1.0, FixedFormat::new(16, 8));
        let b = Fixed::from_f64(1.0, FixedFormat::new(16, 4));
        let _ = a.saturating_add(b);
    }
}
