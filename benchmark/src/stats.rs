//! Raw-sample statistics and `/proc` readers.
//!
//! Every percentile this benchmark prints is a nearest-rank pick from the
//! sorted raw samples. `max_telemetry::Histogram` is deliberately not used:
//! its power-of-two buckets collapse a 10 % change into one bucket edge.

use std::fmt;

/// Samples a percentile needs beyond it before it is worth printing.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic was refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested percentile.
    TooFewBeyond {
        /// The requested percentile (0–100).
        percentile: f64,
        /// Samples supplied.
        samples: usize,
        /// Samples at or above the nearest rank.
        beyond: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewBeyond {
                percentile,
                samples,
                beyond,
            } => write!(
                f,
                "p{percentile} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})"
            ),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the raw samples (mean of the two middle ones when even).
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(samples);
    match v.len() {
        0 => Err(StatsError::Empty),
        n if n % 2 == 1 => Ok(v[n / 2]),
        n => Ok((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile (`0 < p < 100`) over the raw samples, refused
/// unless at least [`MIN_BEYOND`] samples lie beyond the picked rank — a
/// tail read off fewer samples is one slow job, not a percentile.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    let v = sorted(samples);
    if v.is_empty() {
        return Err(StatsError::Empty);
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    if beyond < MIN_BEYOND {
        return Err(StatsError::TooFewBeyond {
            percentile: p,
            samples: v.len(),
            beyond,
        });
    }
    Ok(v[rank - 1])
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so a spread
/// computed here reads the same as the one the driver computes. `None`
/// with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 with fewer than two
/// samples (a single run has no spread to speak of).
pub fn spread(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), Ok(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// User + system CPU seconds from a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str, ticks_per_second: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_second)
}

/// `VmHWM` (peak resident set) in MiB from a `/proc/<pid>/status` body.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 on
/// every architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed so far.
pub fn process_cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat_cpu_seconds(&stat, USER_HZ)
        .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))
}

/// Peak resident set of this process so far, MiB.
pub fn process_peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_status_hwm_mib(&status)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn tail_percentile_is_nearest_rank_over_raw_samples() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank = ceil(0.95 * 200) = 190, ten samples beyond it.
        assert_eq!(tail_percentile(&samples, 95.0), Ok(190.0));
        assert_eq!(tail_percentile(&samples, 90.0), Ok(180.0));
        // Raw values come back untouched: no bucket edge rounds the digits away.
        let mut odd = samples.clone();
        odd[189] = 189.5614;
        assert_eq!(tail_percentile(&odd, 95.0), Ok(189.5614));
    }

    #[test]
    fn tail_percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&samples, 95.0),
            Err(StatsError::TooFewBeyond {
                percentile: 95.0,
                samples: 199,
                beyond: 9,
            })
        );
        assert!(tail_percentile(&samples[..99], 90.0).is_err());
        assert!(tail_percentile(&samples[..100], 90.0).is_ok());
        assert_eq!(tail_percentile(&[], 50.0), Err(StatsError::Empty));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn stat_line_with_hostile_command_name_parses() {
        let line = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 4 0 100 1000 200";
        assert_eq!(parse_stat_cpu_seconds(line, 100.0), Some(2.0));
        assert_eq!(parse_stat_cpu_seconds("garbage", 100.0), None);
    }

    #[test]
    fn status_hwm_parses_and_missing_is_none() {
        let body = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(body), Some(5.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_host() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(process_peak_rss_mib().unwrap() > 0.0);
    }
}
