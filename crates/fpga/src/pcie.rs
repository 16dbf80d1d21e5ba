//! Bandwidth/latency model of the PCIe (Xillybus) link to the host CPU.

use std::collections::VecDeque;

/// A unidirectional FPGA→host stream with finite per-cycle bandwidth and a
/// fixed pipeline latency.
///
/// Bytes enqueued with [`PcieLink::push`] become visible to the host
/// `latency_cycles` cycles after the cycle in which bandwidth
/// was available to serialize them.
///
/// # Example
///
/// ```
/// use max_fpga::PcieLink;
///
/// // 8 bytes/cycle, 4-cycle latency.
/// let mut link = PcieLink::new(8, 4);
/// link.push(16);
/// for _ in 0..6 { link.tick(); }
/// assert_eq!(link.delivered_bytes(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct PcieLink {
    bytes_per_cycle: usize,
    latency_cycles: u64,
    /// Bytes waiting to be serialized.
    queue_bytes: usize,
    /// In-flight chunks: (delivery_cycle, bytes).
    in_flight: VecDeque<(u64, usize)>,
    cycle: u64,
    delivered: u64,
    pushed: u64,
    peak_queue: usize,
}

impl PcieLink {
    /// Creates a link with `bytes_per_cycle` bandwidth and `latency_cycles`
    /// pipeline latency.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is zero.
    pub fn new(bytes_per_cycle: usize, latency_cycles: u64) -> Self {
        assert!(bytes_per_cycle > 0, "bandwidth must be positive");
        PcieLink {
            bytes_per_cycle,
            latency_cycles,
            queue_bytes: 0,
            in_flight: VecDeque::new(),
            cycle: 0,
            delivered: 0,
            pushed: 0,
            peak_queue: 0,
        }
    }

    /// Enqueues `bytes` for transfer.
    pub fn push(&mut self, bytes: usize) {
        self.queue_bytes += bytes;
        self.pushed += bytes as u64;
        self.peak_queue = self.peak_queue.max(self.queue_bytes);
    }

    /// Advances one cycle: serializes up to the bandwidth and delivers
    /// chunks whose latency has elapsed.
    pub fn tick(&mut self) {
        let sent = self.queue_bytes.min(self.bytes_per_cycle);
        if sent > 0 {
            self.queue_bytes -= sent;
            self.in_flight
                .push_back((self.cycle + self.latency_cycles, sent));
        }
        self.cycle += 1;
        while let Some(&(due, bytes)) = self.in_flight.front() {
            if due < self.cycle {
                self.delivered += bytes as u64;
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Bytes the host has received.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Bytes pushed in total.
    pub fn pushed_bytes(&self) -> u64 {
        self.pushed
    }

    /// True when everything pushed has been delivered.
    pub fn is_drained(&self) -> bool {
        self.queue_bytes == 0 && self.in_flight.is_empty()
    }

    /// Largest backlog observed (bytes) — the congestion signal of the §6
    /// caveat.
    pub fn peak_queue_bytes(&self) -> usize {
        self.peak_queue
    }

    /// Cycles needed to drain `bytes` through this link from idle.
    pub fn drain_cycles(&self, bytes: usize) -> u64 {
        (bytes.div_ceil(self.bytes_per_cycle)) as u64 + self.latency_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_limits_throughput() {
        let mut link = PcieLink::new(4, 0);
        link.push(10);
        link.tick();
        assert_eq!(link.delivered_bytes(), 4);
        link.tick();
        assert_eq!(link.delivered_bytes(), 8);
        link.tick();
        assert_eq!(link.delivered_bytes(), 10);
        assert!(link.is_drained());
    }

    #[test]
    fn latency_delays_delivery() {
        let mut link = PcieLink::new(100, 3);
        link.push(10);
        for _ in 0..3 {
            link.tick();
            assert_eq!(link.delivered_bytes(), 0);
        }
        link.tick();
        assert_eq!(link.delivered_bytes(), 10);
    }

    #[test]
    fn peak_queue_tracks_backlog() {
        let mut link = PcieLink::new(1, 0);
        link.push(5);
        assert_eq!(link.peak_queue_bytes(), 5);
        link.tick();
        link.push(2);
        assert_eq!(link.peak_queue_bytes(), 6);
    }

    #[test]
    fn drain_cycles_formula() {
        let link = PcieLink::new(8, 4);
        assert_eq!(link.drain_cycles(16), 2 + 4);
        assert_eq!(link.drain_cycles(17), 3 + 4);
        assert_eq!(link.drain_cycles(0), 4);
    }

    #[test]
    fn accounting_balances() {
        let mut link = PcieLink::new(3, 2);
        link.push(7);
        link.push(5);
        for _ in 0..20 {
            link.tick();
        }
        assert_eq!(link.pushed_bytes(), 12);
        assert_eq!(link.delivered_bytes(), 12);
        assert!(link.is_drained());
    }
}
