//! On-chip table memory (§5.1): one block per GC core with a private write
//! port; a single shared read port drains everything to the PCIe bridge.

/// One BRAM block: bounded FIFO with a single write port (one write per
/// cycle, enforced by [`MemorySystem`]) of records, each held as its length.
#[derive(Clone, Debug)]
pub struct BramBlock {
    capacity_bytes: usize,
    queue: std::collections::VecDeque<usize>,
    occupied_bytes: usize,
    writes: u64,
    overflows: u64,
}

impl BramBlock {
    /// Creates a block holding up to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        BramBlock {
            capacity_bytes,
            queue: std::collections::VecDeque::new(),
            occupied_bytes: 0,
            writes: 0,
            overflows: 0,
        }
    }

    /// Writes one record; returns false (and counts an overflow) when the
    /// block is full — in hardware this would stall the core.
    pub fn write(&mut self, record_bytes: usize) -> bool {
        if self.occupied_bytes + record_bytes > self.capacity_bytes {
            self.overflows += 1;
            return false;
        }
        self.occupied_bytes += record_bytes;
        self.queue.push_back(record_bytes);
        self.writes += 1;
        true
    }

    /// Pops the oldest record, returning its length.
    pub fn read(&mut self) -> Option<usize> {
        let record_bytes = self.queue.pop_front()?;
        self.occupied_bytes -= record_bytes;
        Some(record_bytes)
    }

    /// Bytes currently stored.
    pub fn occupied_bytes(&self) -> usize {
        self.occupied_bytes
    }

    /// Total successful writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Rejected writes (would-be stalls).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The full on-chip memory: one [`BramBlock`] per core, single read port.
///
/// "Since each core has its own block in the memory with an individual input
/// port, logically it can be visualized as each core having its own memory
/// block" (§5.1). The single output port means at most one record leaves per
/// cycle.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    blocks: Vec<BramBlock>,
    /// Round-robin read pointer of the shared output port.
    read_cursor: usize,
    /// Write-port guard: which blocks have written this cycle.
    written_this_cycle: Vec<bool>,
}

impl MemorySystem {
    /// Creates `cores` blocks of `capacity_bytes` each.
    pub fn new(cores: usize, capacity_bytes: usize) -> Self {
        MemorySystem {
            blocks: (0..cores).map(|_| BramBlock::new(capacity_bytes)).collect(),
            read_cursor: 0,
            written_this_cycle: vec![false; cores],
        }
    }

    /// Writes a record of `record_bytes` through core `core`'s private port.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or the core already wrote this
    /// cycle (a scheduling bug: each port accepts one write per cycle).
    pub fn write(&mut self, core: usize, record_bytes: usize) -> bool {
        assert!(core < self.blocks.len(), "core {core} out of range");
        assert!(
            !self.written_this_cycle[core],
            "core {core} wrote twice in one cycle"
        );
        self.written_this_cycle[core] = true;
        self.blocks[core].write(record_bytes)
    }

    /// Reads one record through the shared output port (round-robin over
    /// non-empty blocks) as (block, length); `None` when all is drained.
    pub fn read_one(&mut self) -> Option<(usize, usize)> {
        for offset in 0..self.blocks.len() {
            let idx = (self.read_cursor + offset) % self.blocks.len();
            if let Some(record) = self.blocks[idx].read() {
                self.read_cursor = (idx + 1) % self.blocks.len();
                return Some((idx, record));
            }
        }
        None
    }

    /// Ends the cycle: re-arms every write port.
    pub fn end_cycle(&mut self) {
        self.written_this_cycle.fill(false);
    }

    /// Total bytes buffered across all blocks.
    pub fn occupied_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.occupied_bytes()).sum()
    }

    /// True when all blocks are drained.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(BramBlock::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_fifo_order() {
        let mut block = BramBlock::new(1024);
        block.write(1);
        block.write(2);
        assert_eq!(block.read(), Some(1));
        assert_eq!(block.read(), Some(2));
        assert_eq!(block.read(), None);
    }

    #[test]
    fn block_overflow_counts() {
        let mut block = BramBlock::new(3);
        assert!(block.write(2));
        assert!(!block.write(2));
        assert_eq!(block.overflows(), 1);
        assert_eq!(block.writes(), 1);
        assert_eq!(block.occupied_bytes(), 2);
    }

    #[test]
    fn one_write_per_core_per_cycle() {
        let mut mem = MemorySystem::new(2, 64);
        mem.write(0, 1);
        mem.write(1, 1);
        mem.end_cycle();
        mem.write(0, 1);
        assert_eq!(mem.occupied_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "wrote twice")]
    fn double_write_panics() {
        let mut mem = MemorySystem::new(2, 64);
        mem.write(0, 1);
        mem.write(0, 1);
    }

    #[test]
    fn shared_read_port_round_robins() {
        let mut mem = MemorySystem::new(3, 64);
        for core in 0..3 {
            mem.write(core, 1);
        }
        mem.end_cycle();
        let mut origins = Vec::new();
        while let Some((core, _)) = mem.read_one() {
            origins.push(core);
        }
        assert_eq!(origins, vec![0, 1, 2]);
        assert!(mem.is_empty());
    }

    #[test]
    fn read_skips_empty_blocks() {
        let mut mem = MemorySystem::new(3, 64);
        mem.write(2, 9);
        mem.end_cycle();
        assert_eq!(mem.read_one(), Some((2, 9)));
        assert_eq!(mem.read_one(), None);
    }
}
