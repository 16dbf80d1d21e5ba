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
}
