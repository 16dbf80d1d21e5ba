//! Ablation of the §2.2 garbling optimizations: classic four-row
//! point-and-permute → row reduction (GRR3) → half gates. Prints the
//! bytes-per-gate ladder and the communication volume of one MAC under
//! each scheme — what each optimization step buys MAXelerator.
//!
//! ```text
//! cargo run -p max-bench --bin ablation_schemes [--measure]
//! ```
//!
//! `--measure` additionally times garble+evaluate of each scheme on this
//! machine (absolute rates depend on the host).

use max_crypto::{AesPrg, Block, FixedKeyHash, Tweak};
use max_gc::classic::{
    evaluate_and_classic, evaluate_and_grr3, garble_and_classic, garble_and_grr3, Scheme,
};
use max_gc::{evaluate_and, garble_and, Delta};
use maxelerator::AcceleratorConfig;

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    println!("Sec. 2.2 optimization ablation: ciphertexts per AND gate");
    println!();
    for scheme in [Scheme::Classic, Scheme::Grr3, Scheme::HalfGates] {
        println!(
            "  {:<10} {} rows = {:>2} bytes/gate",
            format!("{scheme:?}"),
            scheme.rows(),
            scheme.bytes_per_gate()
        );
    }

    println!();
    println!("per-MAC garbled-table traffic (our tree-MAC netlists):");
    for b in [8usize, 16, 32] {
        let ands = AcceleratorConfig::new(b)
            .mac_circuit()
            .netlist()
            .stats()
            .and_gates;
        println!(
            "  b={b:>2} ({ands:>4} ANDs): classic {:>7} B | GRR3 {:>7} B | half-gates {:>7} B",
            ands * Scheme::Classic.bytes_per_gate(),
            ands * Scheme::Grr3.bytes_per_gate(),
            ands * Scheme::HalfGates.bytes_per_gate(),
        );
    }

    if measure {
        print_host_rates();
    }
    println!();
    println!("(half gates: garbler hashes 4 labels, evaluator only 2 — the");
    println!(" evaluator-side saving is why the client benefits too)");
}

/// Quick wall-clock sanity: garble+evaluate 10k gates under each scheme.
fn print_host_rates() {
    println!();
    println!("host-measured single-gate rates (10k gates, this machine):");
    let hash = FixedKeyHash::new();
    let delta = Delta::from_block(Block::new(0x1234_5678_9abc));
    let mut prg = AesPrg::new(Block::new(5));
    let a0 = prg.next_block();
    let b0 = prg.next_block();
    let n = 10_000u64;

    let time = |f: &mut dyn FnMut(u64)| {
        let start = std::time::Instant::now();
        for i in 0..n {
            f(i);
        }
        start.elapsed().as_secs_f64()
    };

    let fresh = prg.next_block();
    let classic = time(&mut |i| {
        let t = Tweak::from_gate_index(i);
        let (_, tab) = garble_and_classic(&hash, delta, fresh, a0, b0, t);
        std::hint::black_box(evaluate_and_classic(&hash, &tab, a0, b0, t));
    });
    let grr3 = time(&mut |i| {
        let t = Tweak::from_gate_index(i);
        let (_, tab) = garble_and_grr3(&hash, delta, a0, b0, t);
        std::hint::black_box(evaluate_and_grr3(&hash, &tab, a0, b0, t));
    });
    let half = time(&mut |i| {
        let t = Tweak::from_gate_index(i);
        let (_, tab) = garble_and(&hash, delta, a0, b0, t);
        std::hint::black_box(evaluate_and(&hash, tab, a0, b0, t));
    });
    println!("  classic    {:>9.0} gates/s", n as f64 / classic);
    println!("  GRR3       {:>9.0} gates/s", n as f64 / grr3);
    println!("  half-gates {:>9.0} gates/s", n as f64 / half);
}
