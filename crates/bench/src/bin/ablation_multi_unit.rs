//! Multi-unit ablation: the §5 scaling argument, measured on this host.
//!
//! A `CloudServer` built `with_units(n)` runs N fabric units on N OS
//! threads, each garbling an interleaved share of the model rows while the
//! host serves the rows already garbled — the transcript stays
//! bit-identical to one unit's (see `tests/proptest_protocol.rs`). This
//! binary reports the modeled cycle speedup next to the *measured*
//! wall-clock speedup on the acceptance workload (64x256, 8-bit signed),
//! and contrasts it with the barrier-synchronized CPU-parallel strawman
//! from §3 that motivates the design.
//!
//! ```text
//! cargo run --release -p max-bench --bin ablation_multi_unit [rows cols] [--measure]
//! ```
//!
//! Without `--measure` it prints only the modeled columns; `--measure`
//! adds the wall-clock columns, the CPU contrast and the host-core check.

use max_baselines::parallel_cpu::garble_parallel;
use max_bench::{row, rule};
use max_crypto::Block;
use maxelerator::{connect, secure_matvec, AcceleratorConfig, MatvecTranscript};
use std::time::Instant;

/// Column widths: units, modeled, MB moved, then under `--measure` the
/// wall-clock and the speedup over one unit.
const WIDTHS: [usize; 5] = [5, 11, 9, 10, 9];

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    let mut args = std::env::args().skip(1).filter(|a| a != "--measure");
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let cols: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    if rows > 0 && cols == 0 {
        eprintln!("a non-empty model needs at least one column (got {rows}x{cols})");
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = AcceleratorConfig::new(8);

    let weights: Vec<Vec<i64>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| ((r * 13 + c * 7) % 255) as i64 - 127)
                .collect()
        })
        .collect();
    // An empty model has zero columns, so the client vector is empty too.
    let x_len = if rows == 0 { 0 } else { cols };
    let x: Vec<i64> = (0..x_len).map(|c| ((c * 5) % 251) as i64 - 125).collect();
    let expected: Vec<i64> = weights
        .iter()
        .map(|w| w.iter().zip(&x).map(|(a, b)| a * b).sum())
        .collect();

    println!("Multi-unit garbling pipeline: {rows}x{cols} matvec, b=8 signed");
    if measure {
        println!("  host cores available: {cores}");
    }
    println!();

    // One query on `units` units, timed around `secure_matvec`.
    let run = |units: usize| -> (MatvecTranscript, f64) {
        let (server, mut client) = connect(&config, weights.clone(), 1);
        let mut server = server.with_units(units);
        let start = Instant::now();
        let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(got, expected, "{units}-unit result mismatch");
        assert!(rows == 0 || transcript.tables > 0);
        (transcript, wall)
    };

    // Reference point: one unit (the run also warms the shared fabric
    // account, so the timed rows below start equal).
    let (single, _) = run(1);

    let widths = &WIDTHS[..if measure { 5 } else { 3 }];
    let header = ["units", "modeled (x)", "MB moved", "wall (ms)", "vs single"];
    println!(
        "  {}",
        row(&header.map(String::from)[..widths.len()], widths)
    );
    println!("  {}", rule(widths));

    let mut speedup_at = Vec::new();
    let mut single_wall = None;
    for units in [1usize, 2, 4, 8] {
        let (transcript, wall) = run(units);
        let single_wall = *single_wall.get_or_insert(wall);
        // An element's cycles do not depend on its unit, so one unit's
        // cycles over the busiest unit's is the sum over the makespan.
        let modeled = if transcript.fabric_cycles == 0 {
            1.0
        } else {
            single.fabric_cycles as f64 / transcript.fabric_cycles as f64
        };
        let speedup = single_wall / wall;
        speedup_at.push((units, speedup));
        let cells = [
            format!("{units}"),
            format!("{modeled:.2}x"),
            format!("{:.1}", transcript.material_bytes as f64 / 1e6),
            format!("{:.1}", wall * 1e3),
            format!("{speedup:.2}x"),
        ];
        println!("  {}", row(&cells[..widths.len()], widths));
    }
    println!();
    println!("  modeled   = sum of per-unit fabric cycles / makespan cycles");
    if !measure {
        return;
    }
    println!("  vs single = the 1-unit row's secure_matvec wall / N units' wall");
    println!("              (full protocol: garbling + OT + host eval, overlapped)");

    // The §3 strawman: levelized barrier-parallel CPU garbling of one MAC.
    let netlist = config.mac_circuit().netlist().clone();
    let reps = 20usize;
    let cpu = |threads: usize| -> f64 {
        let start = Instant::now();
        for r in 0..reps {
            let _ = garble_parallel(&netlist, Block::new(r as u128), threads);
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let cpu1 = cpu(1);
    println!();
    println!("  Contrast — barrier-parallel CPU garbling of one b=8 MAC (§3):");
    for threads in [2usize, 4, 8] {
        println!("    {threads} threads: {:.2}x", cpu1 / cpu(threads));
    }
    println!("  Per-gate barriers leave nothing to parallelize at MAC scale;");
    println!("  unit-level row parallelism with streamed frames scales instead.");

    println!();
    if cores >= 4 {
        let &(units, s) = speedup_at
            .iter()
            .find(|(u, _)| *u >= 4)
            .expect("4-unit row measured above");
        assert!(
            s >= 2.0,
            "acceptance: expected >=2x measured speedup at {units} units, got {s:.2}x"
        );
        println!("  acceptance: {s:.2}x measured at {units} units (>= 2x required) — ok");
    } else {
        println!("  note: only {cores} core(s) available — threads are concurrent but");
        println!("  time-sliced, so measured wall-clock speedup is core-bound; the");
        println!("  modeled column is the fabric speedup the threads would realize");
        println!("  on >=4 cores. Rerun on a multicore host for the >=2x check.");
    }
}
