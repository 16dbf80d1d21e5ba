//! The paper's analytical performance model (§4.3, Table 2).
//!
//! These are the formulas the paper publishes; the cycle-accurate simulator
//! ([`crate::Maxelerator`]) produces *measured* counts that the tests
//! compare against this model.

/// Analytical timing model of one MAC unit at bit-width `b`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Operand bit-width `b`.
    pub bit_width: usize,
    /// Fabric clock in MHz.
    pub freq_mhz: f64,
}

impl TimingModel {
    /// Model at the paper's 200 MHz clock.
    pub fn paper(bit_width: usize) -> Self {
        TimingModel {
            bit_width,
            freq_mhz: 200.0,
        }
    }

    /// §4.3: number of GC cores, `b/2 + ⌈(b/2 + 8)/3⌉`.
    pub fn cores(&self) -> usize {
        let b = self.bit_width;
        b / 2 + (b / 2 + 8).div_ceil(3)
    }

    /// Cores in segment 1 (MUX_ADD): `b/2`.
    pub fn segment1_cores(&self) -> usize {
        self.bit_width / 2
    }

    /// Cores in segment 2 (TREE + accumulator + sign): `⌈(b/2 + 8)/3⌉`.
    pub fn segment2_cores(&self) -> usize {
        (self.bit_width / 2 + 8).div_ceil(3)
    }

    /// §4.3: pipeline latency in *stages*, `b + log2(b) + 2`.
    pub fn latency_stages(&self) -> usize {
        self.bit_width + (self.bit_width as f64).log2().ceil() as usize + 2
    }

    /// Cycles per stage (one garbled table per core per cycle, three tables
    /// per core per stage).
    pub const CYCLES_PER_STAGE: usize = 3;

    /// §4.3: pipelined throughput of 1 MAC per `b` stages = `3b` cycles.
    pub fn cycles_per_mac(&self) -> u64 {
        (Self::CYCLES_PER_STAGE * self.bit_width) as u64
    }

    /// Pipeline-fill latency in cycles.
    pub fn latency_cycles(&self) -> u64 {
        (Self::CYCLES_PER_STAGE * self.latency_stages()) as u64
    }

    /// Seconds per MAC (steady state).
    pub fn seconds_per_mac(&self) -> f64 {
        self.cycles_per_mac() as f64 / (self.freq_mhz * 1e6)
    }

    /// MACs per second (whole unit).
    pub fn macs_per_second(&self) -> f64 {
        1.0 / self.seconds_per_mac()
    }

    /// MACs per second per core — the paper's comparison metric.
    pub fn macs_per_second_per_core(&self) -> f64 {
        self.macs_per_second() / self.cores() as f64
    }

    /// §4.3: cycles to multiply an `M×N` matrix by an `N×P` matrix:
    /// `3·M·N·P·b`.
    pub fn matmul_cycles(&self, m: usize, n: usize, p: usize) -> u64 {
        3 * (m as u64) * (n as u64) * (p as u64) * self.bit_width as u64
    }

    /// Seconds for an `M×N × N×P` product on one MAC unit.
    pub fn matmul_seconds(&self, m: usize, n: usize, p: usize) -> f64 {
        self.matmul_cycles(m, n, p) as f64 / (self.freq_mhz * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_table2() {
        assert_eq!(TimingModel::paper(8).cores(), 8);
        assert_eq!(TimingModel::paper(16).cores(), 14);
        assert_eq!(TimingModel::paper(32).cores(), 24);
    }

    #[test]
    fn cycles_match_table2() {
        assert_eq!(TimingModel::paper(8).cycles_per_mac(), 24);
        assert_eq!(TimingModel::paper(16).cycles_per_mac(), 48);
        assert_eq!(TimingModel::paper(32).cycles_per_mac(), 96);
    }

    #[test]
    fn times_match_table2() {
        // Table 2: 0.12 / 0.24 / 0.48 µs per MAC.
        for (b, us) in [(8, 0.12), (16, 0.24), (32, 0.48)] {
            let t = TimingModel::paper(b);
            assert!((t.seconds_per_mac() * 1e6 - us).abs() < 1e-9, "b = {b}");
        }
    }

    #[test]
    fn throughputs_match_table2() {
        // Table 2: 8.33e6 / 4.17e6 / 2.08e6 MAC/s.
        for (b, tp) in [(8, 8.33e6), (16, 4.17e6), (32, 2.08e6)] {
            let t = TimingModel::paper(b);
            assert!((t.macs_per_second() - tp).abs() / tp < 3e-3, "b = {b}");
        }
    }

    #[test]
    fn per_core_throughputs_match_table2() {
        // Table 2: 1.04e6 / 2.98e5 / 8.68e4 MAC/s/core.
        for (b, tp) in [(8, 1.04e6), (16, 2.98e5), (32, 8.68e4)] {
            let t = TimingModel::paper(b);
            assert!(
                (t.macs_per_second_per_core() - tp).abs() / tp < 5e-3,
                "b = {b}: {}",
                t.macs_per_second_per_core()
            );
        }
    }

    #[test]
    fn latency_formula() {
        // b + log2(b) + 2 stages.
        assert_eq!(TimingModel::paper(8).latency_stages(), 13);
        assert_eq!(TimingModel::paper(16).latency_stages(), 22);
        assert_eq!(TimingModel::paper(32).latency_stages(), 39);
        assert_eq!(TimingModel::paper(8).latency_cycles(), 39);
    }

    #[test]
    fn matmul_formula() {
        let t = TimingModel::paper(8);
        assert_eq!(t.matmul_cycles(2, 3, 4), 3 * 2 * 3 * 4 * 8);
        assert!((t.matmul_seconds(1, 1, 1) - t.seconds_per_mac()).abs() < 1e-15);
    }

    #[test]
    fn segment_split_sums_to_total() {
        for b in [4usize, 8, 16, 32, 64] {
            let t = TimingModel::paper(b);
            assert_eq!(t.segment1_cores() + t.segment2_cores(), t.cores());
        }
    }

    #[test]
    fn max_two_idle_cores_by_construction() {
        // §4.3: "the maximum number of idle cores is 2". In the paper's
        // datapath the per-stage work is 2·(b/2) ANDs + (b/2) adder ANDs in
        // segment 1 plus b/2 + 8 ANDs (tree + accumulator + sign) in
        // segment 2, against 3·cores slots; the slack is at most 2 slots.
        for b in [8usize, 16, 32, 64] {
            let t = TimingModel::paper(b);
            let work = 3 * (b / 2) + (b / 2 + 8);
            let slots = 3 * t.cores();
            let idle = slots - work;
            assert!(idle <= 2, "b = {b}: idle = {idle}");
        }
    }
}
