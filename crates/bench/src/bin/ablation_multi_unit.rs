//! Multi-unit ablation: the §5 scaling argument, measured on this host.
//!
//! A `MultiUnitServer` runs N fabric units on N OS threads, each garbling
//! an interleaved share of the model rows and streaming frames to the host
//! while it evaluates — the transcript stays bit-identical to the
//! single-unit `CloudServer` (see `tests/proptest_protocol.rs`). This
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
use max_bench::{
    multi_unit_perf, multi_unit_perf_header, multi_unit_perf_row, multi_unit_widths, rule,
};
use max_crypto::Block;
use max_telemetry::Recorder;
use maxelerator::{connect, connect_multi, secure_matvec, secure_matvec_multi, AcceleratorConfig};
use std::time::Instant;

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

    // Reference point: the sequential single-unit CloudServer.
    let single_wall = {
        let start = Instant::now();
        let (mut server, mut client) = connect(&config, weights.clone(), 1);
        let (got, _) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected, "single-unit result mismatch");
        start.elapsed().as_secs_f64()
    };
    if measure {
        println!(
            "  single-unit CloudServer wall time: {:.1} ms",
            single_wall * 1e3
        );
        println!();
    }

    // Every number in this table is read back from a telemetry snapshot
    // (`MultiUnitTiming::record_into` → `multi_unit_perf`).
    let (vs_head, vs_rule) = if measure {
        (
            format!(" | {:>9}", "vs single"),
            format!("-+-{}", "-".repeat(9)),
        )
    } else {
        Default::default()
    };
    println!("  {}{vs_head}", multi_unit_perf_header(measure));
    println!("  {}{vs_rule}", rule(multi_unit_widths(measure)));

    let mut speedup_at = Vec::new();
    for units in [1usize, 2, 4, 8] {
        let recorder = Recorder::new();
        let (mut server, mut client) = connect_multi(&config, weights.clone(), units, 1);
        let (got, transcript, timing) = secure_matvec_multi(&mut server, &mut client, &x)
            .expect("in-process frames are well-formed");
        assert_eq!(got, expected, "{units}-unit result mismatch");
        assert!(rows == 0 || transcript.tables > 0);
        timing.record_into(&recorder);
        let perf = multi_unit_perf(&recorder.snapshot()).expect("run recorded");
        let speedup = single_wall * 1e3 / perf.wall_ms;
        speedup_at.push((units, speedup));
        let vs = if measure {
            format!(" | {speedup:>8.2}x")
        } else {
            String::new()
        };
        println!("  {}{vs}", multi_unit_perf_row(&perf, measure));
    }
    println!();
    println!("  modeled   = sum of per-unit fabric cycles / makespan cycles");
    if !measure {
        return;
    }
    println!("  threads   = sum of per-thread busy time / garbling makespan");
    println!("  vs single = single-unit CloudServer wall / multi-unit pipeline wall");
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
