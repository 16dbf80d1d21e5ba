//! The §3 motivation, measured: barrier-synchronized multi-threaded CPU
//! garbling of MAC netlists vs the single-threaded garbler. The paper
//! argues the barrier overhead exceeds the per-table work at MAC scale —
//! this binary prints the actual speedup curve on this host.
//!
//! ```text
//! cargo run --release -p max-bench --bin ablation_cpu_parallel [bit_width] [--measure]
//! ```
//!
//! Without `--measure` it prints only the host-independent barrier counts;
//! `--measure` adds the time/MAC and speedup columns.

use max_baselines::parallel_cpu::garble_parallel;
use max_crypto::Block;
use maxelerator::AcceleratorConfig;

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    let b: usize = std::env::args()
        .skip(1)
        .find(|a| a != "--measure")
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let config = AcceleratorConfig::new(b);
    let netlist = config.mac_circuit().netlist().clone();
    let ands = netlist.stats().and_gates;
    let reps = 40usize;

    println!("Sec. 3 motivation: CPU-parallel garbling of one b={b} MAC ({ands} ANDs)");
    println!();
    let time = |threads: usize| -> (f64, usize) {
        let mut waits = 0;
        let start = std::time::Instant::now();
        for r in 0..reps {
            let (_, _, stats) = garble_parallel(&netlist, Block::new(r as u128), threads);
            waits = stats.barrier_waits;
        }
        (start.elapsed().as_secs_f64() / reps as f64, waits)
    };
    let (base, _) = time(1);
    let (head, rule) = if measure {
        ("   time/MAC |  speedup |", "------------+----------+")
    } else {
        ("", "")
    };
    println!("  threads |{head} barriers | tables/barrier");
    println!("  --------+{rule}----------+---------------");
    for threads in [1usize, 2, 4, 8] {
        let (t, waits) = time(threads);
        let timing = if measure {
            format!(" {:>7.1} us | {:>7.2}x |", t * 1e6, base / t)
        } else {
            String::new()
        };
        println!(
            "  {threads:>7} |{timing} {:>8} | {:>13.1}",
            waits,
            ands as f64 / waits as f64
        );
    }
    println!();
    println!("With only a handful of tables of work between barriers, thread");
    println!("synchronization dominates — the paper's argument for moving the");
    println!("parallelism into an FSM-controlled fabric where sync is free.");
}
