//! Cross-backend GC transcript parity.
//!
//! The AES backend — and with it the arm of the half-gates level kernels
//! (vector or software) — is chosen once per process, so comparing the two
//! requires two processes: the main test digests a garbled circuit and one
//! served b = 8 element under the detected backend, then re-runs this test
//! binary with `MAX_AES_BACKEND=software` and asserts the digests are
//! bit-identical. On hardware without AES-NI both runs take the software
//! path and the assertion is trivially (and correctly) true.

use max_crypto::Block;
use max_gc::channel::open_frame;
use max_gc::{Evaluator, Garbler, PrgLabelSource};
use max_netlist::{Builder, Netlist};
use maxelerator::remote::{decode_round_burst, fill_stream};
use maxelerator::{AcceleratorConfig, ScheduledEvaluator};

/// A small but representative mix: AND chains (batched garbling), free
/// XORs, NOTs, and AND gates whose inputs are other ANDs' outputs (which
/// forces mid-netlist batch flushes).
fn test_netlist() -> Netlist {
    let mut b = Builder::new();
    let g: Vec<_> = (0..8).map(|_| b.garbler_input()).collect();
    let e: Vec<_> = (0..8).map(|_| b.evaluator_input()).collect();
    let mut acc = Vec::new();
    for i in 0..8 {
        let x = b.xor(g[i], e[(i + 3) % 8]);
        let a = b.and(x, e[i]);
        let n = b.not(a);
        acc.push(b.and(n, g[(i + 1) % 8]));
    }
    // Reduce pairwise with ANDs so later gates consume earlier AND outputs.
    while acc.len() > 1 {
        let hi = acc.split_off(acc.len() / 2);
        acc = acc.iter().zip(&hi).map(|(&a, &b_)| b.and(a, b_)).collect();
        if acc.len() == 1 && !hi.is_empty() && acc.len() != hi.len() {
            break;
        }
    }
    b.build(acc)
}

/// Folds the complete transcript — every table ciphertext, every zero/input
/// label, the decode bits, and the evaluated output labels — into one
/// order-sensitive digest.
fn transcript_digest() -> u128 {
    let netlist = test_netlist();
    let mut labels = PrgLabelSource::new(Block::new(0x00D1_6E57));
    let mut garbler = Garbler::new(&mut labels);
    let garbled = garbler.garble(&netlist, 0x9000);

    let g_bits: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
    let e_bits: Vec<bool> = (0..8).map(|i| i % 2 == 1).collect();
    let g_labels = garbled.encode_garbler_inputs(&g_bits);
    let e_labels = garbled.encode_evaluator_inputs(&e_bits);
    let out = Evaluator::new().evaluate(&netlist, garbled.material(), &g_labels, &e_labels, 0x9000);

    let mut digest: u128 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |block: Block| {
        digest = digest.wrapping_mul(0x0100_0000_01b3).rotate_left(31) ^ block.bits();
    };
    for table in &garbled.material().tables {
        fold(table.tg);
        fold(table.te);
    }
    for &bit in &garbled.material().output_decode {
        fold(Block::new(bit as u128));
    }
    for &l in g_labels.iter().chain(&e_labels).chain(&out) {
        fold(l);
    }

    // One served b = 8 element of three columns: its sealed ROUNDS frame as
    // the garbler wrote it, its OT pairs, and the MAC the client decodes
    // from the frame's tables with the labels its choice bits pick.
    let config = AcceleratorConfig::new(8);
    let weights = vec![vec![-7i64, 100, 3], vec![127, -128, 0]];
    let x = [5i64, -3, 77];
    let stream = fill_stream(&config, &weights, 0x5e7e, 1);
    let element = &stream.elements[1];
    for chunk in element.sealed_rounds.chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        fold(Block::from_bytes(block));
    }
    for &(zero, one) in &element.pairs {
        fold(zero);
        fold(one);
    }
    let frame = open_frame(element.sealed_rounds.clone()).expect("a sealed frame");
    let rounds = decode_round_burst(frame, x.len()).expect("the garbler's frame");
    let mut client = ScheduledEvaluator::new(&config);
    client.begin_element(1);
    let mut mac = None;
    for ((round, pairs), &xi) in rounds.iter().zip(element.pairs.chunks(8)).zip(&x) {
        let labels: Vec<Block> = pairs
            .iter()
            .zip(config.encode_x(xi))
            .map(|(&(zero, one), bit)| if bit { one } else { zero })
            .collect();
        mac = client
            .evaluate_round(round, &labels)
            .expect("an honest round");
    }
    let mac = mac.expect("the last round decodes");
    assert_eq!(mac, 127 * 5 + 128 * 3);
    fold(Block::new(mac as u128));
    digest
}

#[test]
#[ignore = "helper: prints the digest for the cross-backend runner"]
fn print_transcript_digest() {
    // The marker must not be a substring of this test's name: under
    // --nocapture the harness prints "test print_transcript_digest ..."
    // on the same line, and the parser splits on the marker.
    println!("DIGEST={:032x}", transcript_digest());
}

#[test]
fn gc_transcript_is_bit_identical_across_aes_backends() {
    let here = format!("{:032x}", transcript_digest());
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "print_transcript_digest",
            "--ignored",
            "--nocapture",
        ])
        .env("MAX_AES_BACKEND", "software")
        .output()
        .expect("spawn software-backend helper");
    assert!(
        out.status.success(),
        "helper failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("helper stdout");
    // Under --nocapture the digest can share a line with the harness's
    // "test ... " prefix, so search for the marker anywhere in the line.
    let software = stdout
        .lines()
        .find_map(|l| l.split("DIGEST=").nth(1))
        .expect("helper printed no digest")
        .split_whitespace()
        .next()
        .expect("digest value");
    assert_eq!(
        software,
        here,
        "GC transcript diverged between the software backend and {}",
        max_crypto::AesBackend::active().label()
    );
}
