//! Shared helpers for the table/figure regenerator binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; see EXPERIMENTS.md for the index and `cargo run -p max-bench
//! --bin <name>` to reproduce any of them. Performance claims come from the
//! separate `benchmark/` package, not from these binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Formats a number the way the paper's tables do: scientific for large
/// magnitudes, plain otherwise.
pub fn sci(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let abs = value.abs();
    if !(0.01..10_000.0).contains(&abs) {
        format!("{value:.2e}").replace('e', "E")
    } else if abs >= 100.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Prints a rule line for the given widths.
pub fn rule(widths: &[usize]) -> String {
    widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("-+-")
}

/// A labelled paper-vs-measured comparison line for EXPERIMENTS.md capture.
pub fn compare(label: &str, paper: f64, ours: f64) -> String {
    let ratio = if paper != 0.0 { ours / paper } else { f64::NAN };
    format!(
        "{label:<44} paper {:>10}  ours {:>10}  (x{ratio:.3})",
        sci(paper),
        sci(ours)
    )
}

/// Modeled-vs-measured summary of one multi-unit run, derived from a
/// telemetry [`max_telemetry::Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultiUnitPerf {
    /// Units (threads) the run used.
    pub units: usize,
    /// End-to-end wall-clock of the streamed pipeline, milliseconds.
    pub wall_ms: f64,
    /// Modeled fabric speedup: total unit cycles / makespan cycles.
    pub modeled_speedup: f64,
    /// Measured thread speedup: total busy time / busiest thread.
    pub thread_speedup: f64,
    /// Garbled material streamed unit → host, megabytes.
    pub mb_streamed: f64,
}

/// Extracts the multi-unit summary from `snapshot` (the `multi_unit.*`
/// counters published by `MultiUnitTiming::record_into`); `None` when no
/// multi-unit run was recorded.
pub fn multi_unit_perf(snapshot: &max_telemetry::Snapshot) -> Option<MultiUnitPerf> {
    let timing = maxelerator::MultiUnitTiming::from_snapshot(snapshot)?;
    Some(MultiUnitPerf {
        units: timing.units,
        wall_ms: timing.measured_wall.as_secs_f64() * 1e3,
        modeled_speedup: timing.speedup(),
        thread_speedup: timing.measured_speedup(),
        mb_streamed: timing.streamed_bytes as f64 / 1e6,
    })
}

/// Column widths shared by every multi-unit summary table: the modeled
/// columns first, then the two wall-clock ones.
const MULTI_UNIT_WIDTHS: [usize; 5] = [5, 11, 9, 10, 11];

/// The multi-unit table's column widths; the wall-clock columns only when
/// `measure`.
pub fn multi_unit_widths(measure: bool) -> &'static [usize] {
    &MULTI_UNIT_WIDTHS[..if measure { 5 } else { 3 }]
}

/// Header row matching [`multi_unit_perf_row`].
pub fn multi_unit_perf_header(measure: bool) -> String {
    row(
        &[
            "units",
            "modeled (x)",
            "MB moved",
            "wall (ms)",
            "threads (x)",
        ]
        .map(String::from),
        multi_unit_widths(measure),
    )
}

/// One table row for a [`MultiUnitPerf`]; the wall-clock cells only when
/// `measure`.
pub fn multi_unit_perf_row(perf: &MultiUnitPerf, measure: bool) -> String {
    row(
        &[
            format!("{}", perf.units),
            format!("{:.2}x", perf.modeled_speedup),
            format!("{:.1}", perf.mb_streamed),
            format!("{:.1}", perf.wall_ms),
            format!("{:.2}x", perf.thread_speedup),
        ],
        multi_unit_widths(measure),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_match_paper_style() {
        assert_eq!(sci(29_500.0), "2.95E4");
        assert_eq!(sci(0.12), "0.12");
        assert_eq!(sci(128.0), "128");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(8.33e6), "8.33E6");
    }

    #[test]
    fn row_and_rule_align() {
        let widths = [5usize, 8];
        let r = row(&["a".into(), "bb".into()], &widths);
        assert_eq!(r, "    a |       bb");
        assert_eq!(rule(&widths).len(), r.len());
    }

    #[test]
    fn compare_contains_both_numbers() {
        let line = compare("throughput", 2.0, 4.0);
        assert!(line.contains("2.00"));
        assert!(line.contains("4.00"));
        assert!(line.contains("x2.000"));
    }

    #[test]
    fn multi_unit_perf_round_trips_through_snapshot() {
        use std::time::Duration;
        let timing = maxelerator::MultiUnitTiming {
            units: 4,
            makespan_cycles: 250,
            total_cycles: 1000,
            measured_makespan: Duration::from_millis(10),
            measured_busy_total: Duration::from_millis(36),
            measured_wall: Duration::from_millis(12),
            streamed_bytes: 3_000_000,
        };
        let rec = max_telemetry::Recorder::new();
        timing.record_into(&rec);
        let snap = rec.snapshot();
        let perf = multi_unit_perf(&snap).expect("run recorded");
        assert_eq!(perf.units, 4);
        assert!((perf.wall_ms - 12.0).abs() < 1e-9);
        assert!((perf.modeled_speedup - 4.0).abs() < 1e-9);
        assert!((perf.thread_speedup - 3.6).abs() < 1e-9);
        assert!((perf.mb_streamed - 3.0).abs() < 1e-9);
        let line = multi_unit_perf_row(&perf, true);
        assert!(line.contains("4.00x"));
        assert!(line.contains("3.60x"));
        assert_eq!(
            multi_unit_perf_header(true).len(),
            line.len(),
            "header and row align"
        );
        let modeled = multi_unit_perf_row(&perf, false);
        assert!(modeled.contains("4.00x") && !modeled.contains("3.60x"));
        assert_eq!(multi_unit_perf_header(false).len(), modeled.len());

        // An empty snapshot yields no summary.
        assert!(multi_unit_perf(&max_telemetry::Recorder::new().snapshot()).is_none());
    }
}
