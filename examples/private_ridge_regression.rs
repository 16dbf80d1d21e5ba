//! Private ridge regression (§6 case study, Table 3).
//!
//! The server trains a ridge model on its proprietary data, then serves
//! *private predictions*: the client submits features through OT and learns
//! only `x · β`. Also prints the Table 3 runtime-improvement model.
//!
//! ```text
//! cargo run -p max-suite --example private_ridge_regression
//! ```

use max_fixed::{FixedFormat, SplitMix64, Vector};
use max_ml::ridge::{runtime_model, RidgeRegression};
use maxelerator::{connect, secure_matvec, AcceleratorConfig};

fn main() {
    // ---- server side: train on private data --------------------------------
    let mut rng = SplitMix64::new(5);
    let d = 6;
    let truth: Vec<f64> = (0..d).map(|i| 0.5 * (i as f64) - 1.0).collect();
    let x_train: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..d).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect();
    let y_train: Vec<f64> = x_train
        .iter()
        .map(|row| {
            row.iter().zip(&truth).map(|(a, b)| a * b).sum::<f64>() + rng.uniform(-0.02, 0.02)
        })
        .collect();
    let beta = RidgeRegression::new(1e-3).fit(&x_train, &y_train);
    println!("server trained beta = {beta:?}");

    // ---- private inference --------------------------------------------------
    let format = FixedFormat::new(16, 8);
    let beta_q = Vector::quantize(&beta, format);
    let config = AcceleratorConfig::new(16);
    let (mut server, mut client) = connect(&config, vec![beta_q.raw().to_vec()], 77);

    let client_features = vec![0.9, -0.4, 0.1, 0.7, -0.8, 0.3];
    let x_q = Vector::quantize(&client_features, format);
    let (pred_raw, transcript) = secure_matvec(&mut server, &mut client, x_q.raw());
    let secure_pred = format.dequantize_product(pred_raw[0]);
    let plain_pred: f64 = beta.iter().zip(&client_features).map(|(b, x)| b * x).sum();
    println!();
    println!("client features (secret): {client_features:?}");
    println!("secure prediction  = {secure_pred:.5}");
    println!("plaintext check    = {plain_pred:.5}");
    assert!((secure_pred - plain_pred).abs() < 0.02);
    println!(
        "({} tables, {} bytes, {:.2} us of fabric time)",
        transcript.tables,
        transcript.material_bytes,
        transcript.fabric_seconds * 1e6
    );

    // ---- the Table 3 model ---------------------------------------------------
    println!();
    println!("--- Table 3: accelerating the garbled solve of [7] ---");
    for row in runtime_model::table3() {
        println!(
            "  {:<18} (n={:>4}, d={:>2}): {:>5.0} s -> {:>4.1} s  ({:>4.1}x)",
            row.name, row.n, row.d, row.baseline_seconds, row.ours_seconds, row.improvement
        );
    }
}
