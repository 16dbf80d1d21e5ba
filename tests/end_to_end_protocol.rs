//! End-to-end protocol tests: the full Figure-1 system (accelerator
//! garbling + OT extension + client evaluation) must compute exact
//! matrix-vector products at every supported bit-width.

use max_fixed::SplitMix64;
use maxelerator::{connect, secure_matvec, AcceleratorConfig};

fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
    w.iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// A uniform draw from `-bound..bound`.
fn signed(rng: &mut SplitMix64, bound: i64) -> i64 {
    -bound + rng.below(2 * bound as u64) as i64
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize, bound: i64) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| signed(rng, bound)).collect())
        .collect()
}

#[test]
fn random_matvecs_at_8_bit() {
    let mut rng = SplitMix64::new(1);
    let config = AcceleratorConfig::new(8);
    for trial in 0..3 {
        let rows = 1 + trial;
        let cols = 2 + 2 * trial;
        let w = random_matrix(&mut rng, rows, cols, 128);
        let x: Vec<i64> = (0..cols).map(|_| signed(&mut rng, 128)).collect();
        let expected = plain_matvec(&w, &x);
        let (mut server, mut client) = connect(&config, w, 100 + trial as u64);
        let (got, _) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected, "trial {trial}");
    }
}

#[test]
fn random_matvec_at_16_bit() {
    let mut rng = SplitMix64::new(2);
    let config = AcceleratorConfig::new(16);
    let w = random_matrix(&mut rng, 2, 4, 32_768);
    let x: Vec<i64> = (0..4).map(|_| signed(&mut rng, 32_768)).collect();
    let expected = plain_matvec(&w, &x);
    let (mut server, mut client) = connect(&config, w, 7);
    let (got, _) = secure_matvec(&mut server, &mut client, &x);
    assert_eq!(got, expected);
}

#[test]
fn random_matvec_at_32_bit() {
    let mut rng = SplitMix64::new(3);
    let config = AcceleratorConfig::new(32);
    // Keep |sum of 3 products| inside the 64-bit accumulator/decode range.
    let bound = 1i64 << 30;
    let w = random_matrix(&mut rng, 1, 3, bound);
    let x: Vec<i64> = (0..3).map(|_| signed(&mut rng, bound)).collect();
    let expected = plain_matvec(&w, &x);
    let (mut server, mut client) = connect(&config, w, 8);
    let (got, _) = secure_matvec(&mut server, &mut client, &x);
    assert_eq!(got, expected);
}

#[test]
fn long_vector_exercises_many_sequential_rounds() {
    let mut rng = SplitMix64::new(4);
    let config = AcceleratorConfig::new(8);
    let cols = 64;
    let w = random_matrix(&mut rng, 1, cols, 128);
    let x: Vec<i64> = (0..cols).map(|_| signed(&mut rng, 128)).collect();
    let expected = plain_matvec(&w, &x);
    let (mut server, mut client) = connect(&config, w, 9);
    let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
    assert_eq!(got, expected);
    assert_eq!(transcript.rounds, cols as u64);
}

#[test]
fn transcript_volumes_scale_with_work() {
    let config = AcceleratorConfig::new(8);
    let w_small = vec![vec![1i64, 2]];
    let w_large = vec![vec![1i64, 2, 3, 4, 5, 6, 7, 8]; 2];
    let (mut s1, mut c1) = connect(&config, w_small, 1);
    let (_, t1) = secure_matvec(&mut s1, &mut c1, &[1, 1]);
    let (mut s2, mut c2) = connect(&config, w_large, 2);
    let (_, t2) = secure_matvec(&mut s2, &mut c2, &[1; 8]);
    assert!(t2.tables > t1.tables * 4);
    assert!(t2.material_bytes > t1.material_bytes * 4);
    assert!(t2.fabric_cycles > t1.fabric_cycles);
}

#[test]
fn negative_and_boundary_values() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![-128i64, 127, -1, 0]];
    let x = vec![-128i64, -128, 127, 42];
    let expected = plain_matvec(&w, &x);
    let (mut server, mut client) = connect(&config, w, 55);
    let (got, _) = secure_matvec(&mut server, &mut client, &x);
    assert_eq!(got, expected);
}
