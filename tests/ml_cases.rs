//! ML case studies driven through the secure stack: fixed-point quantized
//! workloads must produce correct results under garbled evaluation, and
//! the case-study models must match the paper's published numbers.

use max_fixed::{FixedFormat, Matrix, Vector};
use max_ml::portfolio::{case_model, Portfolio};
use max_ml::recommender::{iteration_model, synthetic_ratings, MatrixFactorization};
use max_ml::ridge::{runtime_model, RidgeRegression};
use maxelerator::{connect, secure_matvec, AcceleratorConfig};

#[test]
fn secure_recommender_prediction_matches_plaintext() {
    let ratings = synthetic_ratings(30, 20, 1200, 4, 21);
    let mut mf = MatrixFactorization::new(30, 20, 4, 22);
    for _ in 0..15 {
        mf.epoch(&ratings);
    }
    let format = FixedFormat::new(16, 10);
    let user_profile = mf.quantized_user(5, format);
    let items: Vec<Vec<i64>> = (0..3).map(|i| mf.quantized_item(i, format)).collect();

    let config = AcceleratorConfig::new(16);
    let (mut server, mut client) = connect(&config, items.clone(), 23);
    let (raw, _) = secure_matvec(&mut server, &mut client, &user_profile);

    for (item, got) in raw.iter().enumerate() {
        let plain: i64 = items[item]
            .iter()
            .zip(&user_profile)
            .map(|(a, b)| a * b)
            .sum();
        assert_eq!(*got, plain, "item {item}");
    }
}

#[test]
fn secure_portfolio_risk_stage_matches_fixed_point_math() {
    let format = FixedFormat::new(16, 8);
    let portfolio = Portfolio::synthetic(3, 31);
    let cov = Matrix::quantize(&portfolio.covariance, format);
    let w = Vector::quantize(&portfolio.weights, format);
    let expected = cov.matvec(&w);

    let config = AcceleratorConfig::new(16);
    let (mut server, mut client) = connect(&config, cov.to_rows(), 32);
    let (got, _) = secure_matvec(&mut server, &mut client, w.raw());
    assert_eq!(got, expected.raw());
}

#[test]
fn secure_ridge_inference_matches_quantized_dot() {
    let x: Vec<Vec<f64>> = (0..60)
        .map(|i| vec![(i as f64) / 30.0 - 1.0, ((i * 3) % 7) as f64 / 7.0])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - r[1]).collect();
    let beta = RidgeRegression::new(1e-4).fit(&x, &y);
    let format = FixedFormat::new(16, 9);
    let beta_q = Vector::quantize(&beta, format);
    let features = Vector::quantize(&[0.5, -0.25], format);

    let config = AcceleratorConfig::new(16);
    let (mut server, mut client) = connect(&config, vec![beta_q.raw().to_vec()], 33);
    let (raw, _) = secure_matvec(&mut server, &mut client, features.raw());
    assert_eq!(raw[0], beta_q.dot(&features));
    // And the decoded prediction is close to the real-valued one.
    let secure_pred = format.dequantize_product(raw[0]);
    let plain: f64 = beta.iter().zip([0.5, -0.25]).map(|(b, f)| b * f).sum();
    assert!((secure_pred - plain).abs() < 0.02);
}

#[test]
fn case_models_match_paper_numbers() {
    // Recommender: 2.9 h -> ~1 h.
    let rec = iteration_model::paper_estimate();
    assert!((rec.accelerated_seconds / 3600.0 - 1.0).abs() < 0.05);

    // Ridge: Table 3 improvements.
    let improvements: Vec<f64> = runtime_model::table3()
        .iter()
        .map(|r| r.improvement)
        .collect();
    let published = [39.8, 28.4, 24.5, 22.6, 18.7, 16.8];
    for (got, want) in improvements.iter().zip(&published) {
        assert!((got - want).abs() / want < 0.03, "{got} vs {want}");
    }

    // Portfolio: 1.33 s vs 15.23 ms.
    let port = case_model::paper_estimate();
    assert!((port.tinygarble_seconds - 1.33).abs() < 0.01);
    assert!((port.maxelerator_seconds * 1e3 - 15.23).abs() < 0.15);
}

#[test]
fn quantization_error_stays_bounded_through_secure_path() {
    let format = FixedFormat::new(16, 8);
    let rows = vec![vec![0.75, -1.5, 2.25], vec![-0.125, 3.0, 0.5]];
    let xs = [1.25, -0.5, 2.0];
    let m = Matrix::quantize(&rows, format);
    let v = Vector::quantize(&xs, format);

    let config = AcceleratorConfig::new(16);
    let (mut server, mut client) = connect(&config, m.to_rows(), 44);
    let (raw, _) = secure_matvec(&mut server, &mut client, v.raw());
    for (r, row) in raw.iter().zip(&rows) {
        let secure = format.dequantize_product(*r);
        let exact: f64 = row.iter().zip(&xs).map(|(a, b)| a * b).sum();
        // Error bound: sum of per-term quantization errors.
        let bound = 3.0 * (format.step() * 4.0);
        assert!((secure - exact).abs() < bound, "{secure} vs {exact}");
    }
}
