//! Golden paper outputs: every paper bin's stdout must match its committed
//! `golden/<bin>.txt` byte for byte, so a change to any paper number fails
//! here unless the same diff edits the golden file. README ("Golden paper
//! outputs") has the one-line loop that regenerates them.

use std::path::Path;
use std::process::Command;

/// `(bin, executable, arguments)`; `ablation_multi_unit` runs a small shape
/// so the debug build stays fast.
const BINS: &[(&str, &str, &[&str])] = &[
    ("table1", env!("CARGO_BIN_EXE_table1"), &[]),
    ("table2", env!("CARGO_BIN_EXE_table2"), &[]),
    ("table3", env!("CARGO_BIN_EXE_table3"), &[]),
    ("figure1_system", env!("CARGO_BIN_EXE_figure1_system"), &[]),
    ("figure2_tree", env!("CARGO_BIN_EXE_figure2_tree"), &[]),
    ("figure3_muxadd", env!("CARGO_BIN_EXE_figure3_muxadd"), &[]),
    ("energy_report", env!("CARGO_BIN_EXE_energy_report"), &[]),
    ("fsm_program", env!("CARGO_BIN_EXE_fsm_program"), &[]),
    ("case_studies", env!("CARGO_BIN_EXE_case_studies"), &[]),
    ("rng_report", env!("CARGO_BIN_EXE_rng_report"), &[]),
    ("ablation_cores", env!("CARGO_BIN_EXE_ablation_cores"), &[]),
    (
        "ablation_cpu_parallel",
        env!("CARGO_BIN_EXE_ablation_cpu_parallel"),
        &[],
    ),
    (
        "ablation_multi_unit",
        env!("CARGO_BIN_EXE_ablation_multi_unit"),
        &["8", "32"],
    ),
    ("ablation_pcie", env!("CARGO_BIN_EXE_ablation_pcie"), &[]),
    (
        "ablation_policy",
        env!("CARGO_BIN_EXE_ablation_policy"),
        &[],
    ),
    (
        "ablation_schemes",
        env!("CARGO_BIN_EXE_ablation_schemes"),
        &[],
    ),
];

/// `None` when `bin`'s stdout equals its golden file, else what differs.
fn mismatch(bin: &str, exe: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(exe).args(args).output().expect("bin starts");
    if !out.status.success() {
        return Some(format!(
            "{bin} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../golden")
        .join(format!("{bin}.txt"));
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if got == golden {
        return None;
    }
    // The first differing line, or the first line only one side has.
    let line = golden
        .lines()
        .zip(got.lines())
        .position(|(want, have)| want != have)
        .unwrap_or_else(|| golden.lines().count().min(got.lines().count()));
    Some(format!(
        "{bin}: line {} differs\n  golden: {:?}\n  got:    {:?}",
        line + 1,
        golden.lines().nth(line),
        got.lines().nth(line)
    ))
}

#[test]
fn paper_outputs_match_their_golden_files() {
    let failures: Vec<String> = BINS
        .iter()
        .filter_map(|&(bin, exe, args)| mismatch(bin, exe, args))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
