//! The cycle-accurate MAXelerator pipeline: schedule-driven garbling with
//! on-chip label generation, BRAM table buffering and PCIe drainage.
//!
//! Every garbled table the simulation emits is a *real* half-gates table;
//! [`ScheduledEvaluator`] (the client side) decrypts them and recovers exact
//! MAC results. Cycle counts come from walking the compiled [`Schedule`]
//! slot by slot.

use std::sync::Arc;

use max_crypto::{Block, FixedKeyHash, Tweak};
use max_fpga::{Clock, MemorySystem, PcieLink};
use max_gc::{evaluate_levels, garble_and_batch, BatchScratch, Delta, GarbledTable};
use max_netlist::{decode_signed, decode_unsigned, GateKind, MacCircuit};
use max_rng::LabelGenerator;

use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::schedule::Schedule;
use crate::timing::TimingModel;

/// Per-gate tweak: unique across (element, round, gate).
fn table_tweak(elem: u32, round: u32, gate_idx: u32) -> Tweak {
    Tweak::new(elem, round, 0, gate_idx, 0)
}

/// One AND slot awaiting its cycle's batched garble: resolved input labels
/// plus the bookkeeping needed to write the result back.
struct PendingSlot {
    a0: Block,
    b0: Block,
    tweak: Tweak,
    round: usize,
    out_wire: usize,
    gate: u32,
    core: usize,
}

/// Derives the label-stream seed of one output element from the server's
/// base seed (SplitMix64 finalizer). Every element gets an independent
/// stream keyed only by `(base, elem)`, so an element garbles to identical
/// bytes no matter which accelerator unit — or how many — processes it.
pub(crate) fn element_label_seed(base: u64, elem: u32) -> u64 {
    let mut z = base ^ (u64::from(elem).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The public per-round message the host CPU relays to the client
/// (Figure 1): garbled tables plus the garbler-side input labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundMessage {
    /// Output-element id (row index during a matrix-vector product).
    pub elem: u32,
    /// Sequential round (vector position).
    pub round: u32,
    /// Garbled tables in netlist AND order.
    pub tables: Vec<GarbledTable>,
    /// Active labels for the server's fresh inputs (`a` bits, then
    /// constants).
    pub a_labels: Vec<Block>,
    /// Round 0 only: active labels of the initial accumulator (zero).
    pub init_acc_labels: Option<Vec<Block>>,
    /// Final round only: output decode bits.
    pub decode: Option<Vec<bool>>,
}

impl RoundMessage {
    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.tables.len() * GarbledTable::WIRE_BYTES
            + self.a_labels.len() * 16
            + self.init_acc_labels.as_ref().map_or(0, |l| l.len() * 16)
            + self.decode.as_ref().map_or(0, |d| d.len().div_ceil(8))
    }
}

/// One garbled output element: its round messages and the OT label pairs
/// (bit-width pairs per round, concatenated in round order).
#[derive(Clone, Debug)]
pub struct GarbledRow {
    /// Round messages in round order.
    pub messages: Vec<RoundMessage>,
    /// OT pairs matching the client's choice bits for this row.
    pub pairs: Vec<(Block, Block)>,
}

/// Hardware activity report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AcceleratorReport {
    /// Total fabric cycles (including pipeline fill).
    pub cycles: u64,
    /// Garbled tables emitted.
    pub tables: u64,
    /// MAC rounds completed.
    pub rounds: u64,
    /// Measured steady-state cycles per MAC of the last pipelined job.
    pub last_job_ii: f64,
    /// Core utilization of the last pipelined job.
    pub last_job_utilization: f64,
    /// Fresh labels drawn from the label generator.
    pub labels_generated: u64,
    /// Energy saved by label-generator power gating (fraction of worst case).
    pub label_energy_saving: f64,
    /// Bytes pushed into the PCIe link.
    pub pcie_pushed_bytes: u64,
    /// Bytes the host received.
    pub pcie_delivered_bytes: u64,
    /// Peak PCIe backlog (the §6 communication-bottleneck signal).
    pub pcie_peak_backlog: usize,
    /// BRAM write rejections (cycles the real hardware would stall).
    pub bram_would_stall: u64,
    /// Event counts for the order-of-magnitude energy model.
    pub energy: max_fpga::EnergyMeter,
}

impl AcceleratorReport {
    /// Estimated joules per MAC under the default energy model.
    ///
    /// # Panics
    ///
    /// Panics if no rounds have been garbled.
    pub fn joules_per_mac(&self) -> f64 {
        self.energy
            .joules_per_mac(&max_fpga::EnergyModel::default(), self.rounds.max(1))
    }
}

/// The simulated accelerator (server side).
pub struct Maxelerator {
    config: AcceleratorConfig,
    mac: Arc<MacCircuit>,
    cores: usize,
    hash: FixedKeyHash,
    /// Seed all per-element label streams derive from.
    base_seed: u64,
    labels: LabelGenerator,
    delta: Delta,
    clock: Clock,
    memory: MemorySystem,
    pcie: PcieLink,
    /// Carried accumulator zero-labels between rounds.
    carried_zero: Option<Vec<Block>>,
    round: u32,
    elem: u32,
    /// OT pairs per absolute round of the current element.
    eval_pairs: std::collections::HashMap<u32, Vec<(Block, Block)>>,
    /// Ordinal of each netlist gate among the AND gates.
    and_ordinal: Vec<Option<u32>>,
    /// Producing gate of each wire (for free-cone resolution).
    producer: Vec<Option<u32>>,
    /// For accumulator-input wires: their position in the state range.
    acc_pos_of_wire: Vec<Option<u32>>,
    /// Output wire index per accumulator position.
    output_wires: Vec<usize>,
    report: AcceleratorReport,
    label_pool: std::collections::VecDeque<Block>,
}

impl std::fmt::Debug for Maxelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maxelerator")
            .field("config", &self.config)
            .field("round", &self.round)
            .field("elem", &self.elem)
            .finish_non_exhaustive()
    }
}

impl Maxelerator {
    /// Builds an accelerator for `config`, seeding the label generator with
    /// `seed`.
    pub fn new(config: AcceleratorConfig, seed: u64) -> Self {
        let mac = config.mac_circuit();
        let cores = TimingModel {
            bit_width: config.bit_width,
            freq_mhz: config.freq_mhz,
        }
        .cores();
        let mut labels = LabelGenerator::new(element_label_seed(seed, 0), config.bit_width.max(4));
        let delta = Delta::from_block(labels.next_label());
        let mut and_ordinal = vec![None; mac.netlist().gates().len()];
        let mut producer = vec![None; mac.netlist().wire_count()];
        let mut next = 0u32;
        for (i, gate) in mac.netlist().gates().iter().enumerate() {
            if gate.kind == GateKind::And {
                and_ordinal[i] = Some(next);
                next += 1;
            }
            producer[gate.out.index()] = Some(i as u32);
        }
        let mut acc_pos_of_wire = vec![None; mac.netlist().wire_count()];
        for (offset, wire) in mac.netlist().garbler_inputs()[config.state_range()]
            .iter()
            .enumerate()
        {
            acc_pos_of_wire[wire.index()] = Some(offset as u32);
        }
        let output_wires: Vec<usize> = mac.netlist().outputs().iter().map(|w| w.index()).collect();
        Maxelerator {
            hash: FixedKeyHash::new(),
            memory: MemorySystem::new(cores, 1 << 20),
            pcie: PcieLink::new(256, 16),
            clock: Clock::new(config.freq_mhz),
            mac: Arc::new(mac),
            cores,
            base_seed: seed,
            labels,
            delta,
            config,
            carried_zero: None,
            round: 0,
            elem: 0,
            eval_pairs: std::collections::HashMap::new(),
            and_ordinal,
            producer,
            acc_pos_of_wire,
            output_wires,
            report: AcceleratorReport::default(),
            label_pool: std::collections::VecDeque::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Number of parallel GC cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Starts a new output element (matrix row): resets the accumulator
    /// carry and the round counter; `elem` feeds the gate tweaks.
    ///
    /// The label generator reseeds to the element's own stream (derived
    /// from the base seed and `elem` alone), so the element's garbled
    /// material is bit-identical whichever unit garbles it and in whatever
    /// order elements are processed — the invariant the multi-unit pipeline
    /// relies on for transcript parity with a single-unit server.
    pub fn begin_element(&mut self, elem: u32) {
        self.labels.reseed(element_label_seed(self.base_seed, elem));
        self.delta = Delta::from_block(self.labels.next_label());
        self.label_pool.clear();
        self.elem = elem;
        self.round = 0;
        self.carried_zero = None;
        self.eval_pairs.clear();
    }

    /// Garbles matrix row `row` as output element `elem`: the element's
    /// whole round sequence as one pipelined job with the decode bits
    /// released on the last round, plus its OT pairs in round order. This
    /// is how every driver — in-process servers, unit banks, the served
    /// job producer — turns a row into an element, so they cannot drift.
    ///
    /// # Errors
    ///
    /// See [`Maxelerator::try_garble_job`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is empty or a weight does not fit the bit-width.
    pub fn garble_element(
        &mut self,
        elem: u32,
        row: &[i64],
    ) -> Result<GarbledRow, AcceleratorError> {
        self.begin_element(elem);
        let messages = self.try_garble_job(row, true)?;
        let mut pairs = Vec::with_capacity(row.len() * self.config.bit_width);
        for msg in &messages {
            pairs.extend_from_slice(self.ot_pairs(msg.round)?);
        }
        Ok(GarbledRow { messages, pairs })
    }

    /// Garbles one MAC round for server input `a`.
    ///
    /// Convenience wrapper over [`Maxelerator::garble_job`]; use the job
    /// form for pipelined multi-round throughput.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the configured bit-width.
    pub fn garble_round(&mut self, a: i64, last: bool) -> RoundMessage {
        self.garble_job(&[a], last).pop().expect("one round")
    }

    /// Garbles `a_elems.len()` consecutive MAC rounds as one pipelined job.
    ///
    /// Rounds continue the current element's accumulator; set `last` to
    /// release the decode bits with the final round.
    ///
    /// # Panics
    ///
    /// Panics if `a_elems` is empty, any element does not fit, or the
    /// compiled schedule violates its own dependency order (an internal
    /// bug, never reachable from peer input).
    pub fn garble_job(&mut self, a_elems: &[i64], last: bool) -> Vec<RoundMessage> {
        self.try_garble_job(a_elems, last)
            .expect("compiled schedule satisfies its own dependencies")
    }

    /// Fallible form of [`Maxelerator::garble_job`]: reports schedule
    /// violations and unresolvable wires as [`AcceleratorError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::ScheduleViolation`] or
    /// [`AcceleratorError::UnresolvedWire`] if the compiled schedule would
    /// read a label before it exists.
    ///
    /// # Panics
    ///
    /// Panics if `a_elems` is empty or any element does not fit the
    /// configured bit-width (caller errors, not peer input).
    pub fn try_garble_job(
        &mut self,
        a_elems: &[i64],
        last: bool,
    ) -> Result<Vec<RoundMessage>, AcceleratorError> {
        assert!(!a_elems.is_empty(), "job needs at least one round");
        let rounds = a_elems.len();
        let mac = Arc::clone(&self.mac);
        let netlist = mac.netlist();
        let schedule = Schedule::shared(&self.config, self.cores, rounds);
        let n_wires = netlist.wire_count();
        let b = self.config.bit_width;
        let first_round_abs = self.round;

        // ------------------------------------------------------------------
        // Label provisioning. Per round: b fresh `a` labels + b fresh `x`
        // labels + constants; the element's first round also needs the
        // initial accumulator labels. The generator feeds a pool at
        // ≤ b/2 labels per cycle; the pool is pre-filled for the first round
        // (pipeline fill).
        let consts = netlist.constants().len();
        let mut needed: u64 = (rounds * (2 * b + consts)) as u64;
        if self.carried_zero.is_none() {
            needed += self.config.acc_width as u64;
        }
        let per_cycle = (b / 2).max(1);
        let first_need = (2 * b
            + consts
            + if self.carried_zero.is_none() {
                self.config.acc_width
            } else {
                0
            }) as u64;
        while (self.label_pool.len() as u64) < first_need {
            let burst = self.labels.clock(per_cycle);
            self.report.labels_generated += burst.len() as u64;
            self.label_pool.extend(burst);
            self.clock.tick();
            self.tick_io();
        }
        let mut remaining_to_generate = needed.saturating_sub(self.label_pool.len() as u64);

        // ------------------------------------------------------------------
        // Per-round label tables, filled lazily as the schedule executes.
        let mut zero: Vec<Vec<Option<Block>>> = Vec::with_capacity(rounds);
        let mut a_labels_out: Vec<Vec<Block>> = Vec::with_capacity(rounds);
        let mut init_acc_out: Option<Vec<Block>> = None;
        let mut pairs_per_round: Vec<Vec<(Block, Block)>> = Vec::with_capacity(rounds);
        for (r, &a) in a_elems.iter().enumerate() {
            let mut wires = vec![None; n_wires];
            let a_bits = if self.config.signed {
                max_netlist::encode_signed(a, b)
            } else {
                max_netlist::encode_unsigned(a as u64, b)
            };
            let mut sent = Vec::with_capacity(b + consts);
            for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
                if self.config.state_range().contains(&pos) {
                    continue;
                }
                let z = self.pool_label();
                wires[wire.index()] = Some(z);
                let bit = a_bits[pos];
                sent.push(if bit { self.delta.one_label(z) } else { z });
            }
            // Accumulator: carried from the previous round / element start.
            if r == 0 {
                match self.carried_zero.take() {
                    Some(labels) => {
                        for (offset, wire) in netlist.garbler_inputs()[self.config.state_range()]
                            .iter()
                            .enumerate()
                        {
                            wires[wire.index()] = Some(labels[offset]);
                        }
                    }
                    None => {
                        // Fresh labels; initial value 0 ⇒ active = zero-label.
                        let mut init = Vec::with_capacity(self.config.acc_width);
                        for wire in &netlist.garbler_inputs()[self.config.state_range()] {
                            let z = self.pool_label();
                            wires[wire.index()] = Some(z);
                            init.push(z);
                        }
                        init_acc_out = Some(init);
                    }
                }
            }
            // Constants: garbler-known bits.
            for &(wire, value) in netlist.constants() {
                let z = self.pool_label();
                wires[wire.index()] = Some(z);
                sent.push(if value { self.delta.one_label(z) } else { z });
            }
            // Evaluator (`x`) labels: fresh pair per bit, delivered via OT.
            let mut pairs = Vec::with_capacity(b);
            for wire in netlist.evaluator_inputs() {
                let z = self.pool_label();
                wires[wire.index()] = Some(z);
                pairs.push((z, self.delta.one_label(z)));
            }
            pairs_per_round.push(pairs);
            a_labels_out.push(sent);
            zero.push(wires);
        }

        // ------------------------------------------------------------------
        // Walk the schedule cycle by cycle, garbling one table per busy core.
        let n_ands = netlist.stats().and_gates;
        let mut tables: Vec<Vec<Option<GarbledTable>>> = vec![vec![None; n_ands]; rounds];
        let mut assignment_iter = schedule.assignments().iter().peekable();
        let total_cycles = schedule.stats().cycles;
        for cycle in 0..total_cycles {
            // Keep the label generator pumping (power-gated to the deficit).
            if remaining_to_generate > 0 {
                let demand = (remaining_to_generate.min(per_cycle as u64)) as usize;
                let burst = self.labels.clock(demand);
                self.report.labels_generated += burst.len() as u64;
                remaining_to_generate -= burst.len() as u64;
                self.label_pool.extend(burst);
            } else {
                // Fully power-gated cycle.
                self.labels.clock(0);
            }
            // All slots of one cycle ran on distinct cores in the same clock
            // tick, so their input labels are (almost always) independent of
            // each other: garble the whole cycle with one batched AES sweep.
            // If a slot's free cone does read a same-cycle AND output, the
            // resolve-retry in `resolve_for_batch` flushes first, preserving
            // the exact gate-at-a-time semantics.
            let mut pending: Vec<PendingSlot> = Vec::new();
            while let Some(slot) = assignment_iter.peek() {
                if slot.cycle != cycle {
                    break;
                }
                let slot = *assignment_iter.next().expect("peeked");
                let r = slot.round as usize;
                let gate = netlist.gates()[slot.gate as usize];
                let a0 = self.resolve_for_batch(
                    netlist,
                    &mut zero,
                    &mut pending,
                    &mut tables,
                    r,
                    gate.a.index(),
                )?;
                let b0 = self.resolve_for_batch(
                    netlist,
                    &mut zero,
                    &mut pending,
                    &mut tables,
                    r,
                    gate.b.index(),
                )?;
                let tweak = table_tweak(self.elem, first_round_abs + slot.round, slot.gate);
                pending.push(PendingSlot {
                    a0,
                    b0,
                    tweak,
                    round: r,
                    out_wire: gate.out.index(),
                    gate: slot.gate,
                    core: slot.core,
                });
            }
            self.flush_garbles(&mut pending, &mut zero, &mut tables);
            self.memory.end_cycle();
            self.clock.tick();
            self.tick_io();
        }
        // Drain the remaining tables through PCIe.
        while !self.memory.is_empty() || !self.pcie.is_drained() {
            self.clock.tick();
            self.tick_io();
        }

        // ------------------------------------------------------------------
        // Collect outputs: carried accumulator labels and round messages.
        let outputs: Vec<usize> = netlist.outputs().iter().map(|w| w.index()).collect();
        let out_zero: Vec<Block> = outputs
            .iter()
            .map(|&w| self.resolve(netlist, &mut zero, rounds - 1, w))
            .collect::<Result<_, _>>()?;
        let decode: Vec<bool> = out_zero.iter().map(|z| z.lsb()).collect();
        self.carried_zero = Some(out_zero);

        let mut messages = Vec::with_capacity(rounds);
        for (r, round_tables) in tables.into_iter().enumerate() {
            let abs_round = first_round_abs + r as u32;
            self.eval_pairs
                .insert(abs_round, pairs_per_round[r].clone());
            let msg = RoundMessage {
                elem: self.elem,
                round: abs_round,
                tables: round_tables
                    .into_iter()
                    .map(|t| t.expect("all gates garbled"))
                    .collect(),
                a_labels: a_labels_out[r].clone(),
                init_acc_labels: if r == 0 { init_acc_out.take() } else { None },
                decode: (last && r == rounds - 1).then_some(decode.clone()),
            };
            messages.push(msg);
        }
        self.round = first_round_abs + rounds as u32;
        self.report.rounds += rounds as u64;
        self.report.cycles = self.clock.cycles();
        self.report.last_job_ii = schedule.stats().steady_state_ii;
        self.report.last_job_utilization = schedule.stats().utilization;
        let rng = self.labels.report();
        self.report.label_energy_saving = rng.energy_saving();
        self.report.pcie_pushed_bytes = self.pcie.pushed_bytes();
        self.report.pcie_delivered_bytes = self.pcie.delivered_bytes();
        self.report.pcie_peak_backlog = self.pcie.peak_queue_bytes();
        // Energy event counts: 4 fixed-key AES calls per half-gates table,
        // one BRAM write per table, one 128-bit shift per core-cycle of
        // label movement (schedule slots), active RNG-cycles from the
        // power-gated generator.
        self.report.energy = max_fpga::EnergyMeter {
            aes_ops: self.report.tables * 4,
            rng_cycles: rng.active_rng_cycles,
            shifts: self.report.tables,
            bram_writes: self.report.tables,
            pcie_bytes: self.report.pcie_pushed_bytes,
            cycles: self.report.cycles,
        };
        Ok(messages)
    }

    /// [`Maxelerator::resolve`] with one retry: a same-cycle producer may
    /// still sit in the pending batch, so flush it and resolve again before
    /// reporting a real schedule violation.
    fn resolve_for_batch(
        &mut self,
        netlist: &max_netlist::Netlist,
        zero: &mut [Vec<Option<Block>>],
        pending: &mut Vec<PendingSlot>,
        tables: &mut [Vec<Option<GarbledTable>>],
        round: usize,
        wire: usize,
    ) -> Result<Block, AcceleratorError> {
        match self.resolve(netlist, zero, round, wire) {
            Ok(label) => Ok(label),
            Err(_) if !pending.is_empty() => {
                self.flush_garbles(pending, zero, tables);
                self.resolve(netlist, zero, round, wire)
            }
            Err(e) => Err(e),
        }
    }

    /// Garbles every queued slot with one batched AES sweep, then writes the
    /// tables into BRAM and the output labels back into the wire state.
    fn flush_garbles(
        &mut self,
        pending: &mut Vec<PendingSlot>,
        zero: &mut [Vec<Option<Block>>],
        tables: &mut [Vec<Option<GarbledTable>>],
    ) {
        if pending.is_empty() {
            return;
        }
        let gates: Vec<(Block, Block, Tweak)> =
            pending.iter().map(|p| (p.a0, p.b0, p.tweak)).collect();
        for (slot, (c0, table)) in pending
            .iter()
            .zip(garble_and_batch(&self.hash, self.delta, &gates))
        {
            zero[slot.round][slot.out_wire] = Some(c0);
            let ordinal = self.and_ordinal[slot.gate as usize].expect("AND gate");
            tables[slot.round][ordinal as usize] = Some(table);
            if !self.memory.write(slot.core, GarbledTable::WIRE_BYTES) {
                self.report.bram_would_stall += 1;
            }
            self.report.tables += 1;
        }
        pending.clear();
    }

    fn pool_label(&mut self) -> Block {
        if let Some(label) = self.label_pool.pop_front() {
            return label;
        }
        // Pool miss (start-up corner): burst the generator one cycle.
        let burst = self.labels.clock(1);
        self.report.labels_generated += 1;
        self.clock.tick();
        burst[0]
    }

    /// One I/O cycle: the shared BRAM read port feeds the PCIe serializer
    /// (up to four 32-byte beats per cycle, a 512-bit AXI stream).
    fn tick_io(&mut self) {
        for _ in 0..4 {
            match self.memory.read_one() {
                Some((_, record_bytes)) => self.pcie.push(record_bytes),
                None => break,
            }
        }
        self.pcie.tick();
    }

    /// Resolves a wire's zero-label through the free-gate cone; AND outputs
    /// must already be garbled (the schedule guarantees it). Accumulator
    /// inputs of round `r > 0` resolve to the previous round's output
    /// labels — the shift-register carry between sequential rounds.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::ScheduleViolation`] if an AND output is
    /// not yet garbled, [`AcceleratorError::UnresolvedWire`] for a wire with
    /// neither label nor producer.
    fn resolve(
        &self,
        netlist: &max_netlist::Netlist,
        zero: &mut [Vec<Option<Block>>],
        round: usize,
        wire: usize,
    ) -> Result<Block, AcceleratorError> {
        if let Some(label) = zero[round][wire] {
            return Ok(label);
        }
        if let Some(pos) = self.acc_pos_of_wire[wire] {
            assert!(round > 0, "round 0 accumulator labels must be pre-assigned");
            let out_wire = self.output_wires[pos as usize];
            let label = self.resolve(netlist, zero, round - 1, out_wire)?;
            zero[round][wire] = Some(label);
            return Ok(label);
        }
        let gate_idx = self.producer[wire].ok_or(AcceleratorError::UnresolvedWire { wire })?;
        let gate = netlist.gates()[gate_idx as usize];
        let label = match gate.kind {
            GateKind::And => return Err(AcceleratorError::ScheduleViolation { wire }),
            GateKind::Xor => {
                let a = self.resolve(netlist, zero, round, gate.a.index())?;
                let b = self.resolve(netlist, zero, round, gate.b.index())?;
                a ^ b
            }
            GateKind::Not => {
                let a = self.resolve(netlist, zero, round, gate.a.index())?;
                a ^ self.delta.block()
            }
        };
        zero[round][wire] = Some(label);
        Ok(label)
    }

    /// OT message pairs for round `round`'s evaluator inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::UnknownRound`] if that round has not
    /// been garbled in the current element — e.g. a peer requesting labels
    /// for a round id it invented.
    pub fn ot_pairs(&self, round: u32) -> Result<&[(Block, Block)], AcceleratorError> {
        self.eval_pairs
            .get(&round)
            .map(Vec::as_slice)
            .ok_or(AcceleratorError::UnknownRound { round })
    }

    /// Trusted-delivery shortcut: active labels for the most recent round's
    /// `x` bits (tests / examples; production uses the OT stack).
    ///
    /// # Panics
    ///
    /// Panics if no round was garbled or the bit count mismatches.
    pub fn ot_pairs_for_client(&self, x_bits: &[bool]) -> Vec<Block> {
        let round = self.round.checked_sub(1).expect("no round garbled yet");
        let pairs = self.ot_pairs(round).expect("last round was garbled");
        assert_eq!(pairs.len(), x_bits.len(), "x bit-count mismatch");
        pairs
            .iter()
            .zip(x_bits)
            .map(|(&(m0, m1), &bit)| if bit { m1 } else { m0 })
            .collect()
    }

    /// Hardware activity so far.
    pub fn report(&self) -> &AcceleratorReport {
        &self.report
    }
}

/// The client: evaluates the accelerator's round messages level by level
/// (see [`max_netlist::Netlist::levels`]) with the matching tweaks, carrying
/// the accumulator between rounds.
#[derive(Clone, Debug)]
pub struct ScheduledEvaluator {
    config: AcceleratorConfig,
    mac: MacCircuit,
    and_gates: usize,
    hash: FixedKeyHash,
    carried: Option<Vec<Block>>,
    elem: u32,
    /// Active label per wire, reused across rounds: every wire is an input
    /// (rewritten each round) or a gate output (written before it is read).
    active: Vec<Block>,
    scratch: BatchScratch,
}

impl ScheduledEvaluator {
    /// Creates a client evaluator for the same configuration as the server.
    pub fn new(config: &AcceleratorConfig) -> Self {
        let mac = config.mac_circuit();
        ScheduledEvaluator {
            and_gates: mac.netlist().stats().and_gates,
            active: vec![Block::ZERO; mac.netlist().wire_count()],
            mac,
            config: config.clone(),
            hash: FixedKeyHash::new(),
            carried: None,
            elem: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Starts a new output element.
    pub fn begin_element(&mut self, elem: u32) {
        self.elem = elem;
        self.carried = None;
    }

    /// Evaluates one round; returns the decoded MAC result when the round
    /// carries decode bits.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AcceleratorError`] for any malformed message —
    /// wrong table, label, or decode-bit counts, or a missing accumulator.
    /// Peer-supplied data can never panic the evaluator.
    pub fn evaluate_round(
        &mut self,
        msg: &RoundMessage,
        x_labels: &[Block],
    ) -> Result<Option<i64>, AcceleratorError> {
        let netlist = self.mac.netlist();
        let state = self.config.state_range();
        let b = self.config.bit_width;
        let consts = netlist.constants().len();
        if msg.a_labels.len() != b + consts {
            return Err(AcceleratorError::ALabelCount {
                expected: b + consts,
                got: msg.a_labels.len(),
            });
        }
        if x_labels.len() != b {
            return Err(AcceleratorError::XLabelCount {
                expected: b,
                got: x_labels.len(),
            });
        }
        if msg.tables.len() != self.and_gates {
            return Err(AcceleratorError::TableCount {
                expected: self.and_gates,
                got: msg.tables.len(),
            });
        }
        let acc_wires = &netlist.garbler_inputs()[state.clone()];
        let acc_active: &[Block] = match (&self.carried, &msg.init_acc_labels) {
            (_, Some(init)) => {
                if init.len() != acc_wires.len() {
                    return Err(AcceleratorError::AccLabelCount {
                        expected: acc_wires.len(),
                        got: init.len(),
                    });
                }
                init
            }
            (Some(carried), None) => carried,
            (None, None) => return Err(AcceleratorError::MissingAccumulator { round: msg.round }),
        };
        if let Some(decode) = &msg.decode {
            if decode.len() != netlist.outputs().len() {
                return Err(AcceleratorError::DecodeCount {
                    expected: netlist.outputs().len(),
                    got: decode.len(),
                });
            }
        }

        // `a_labels` covers the non-state garbler inputs, then the constants
        // (counts checked above).
        let active = &mut self.active;
        let fresh_wires = netlist
            .garbler_inputs()
            .iter()
            .enumerate()
            .filter(|(pos, _)| !state.contains(pos))
            .map(|(_, wire)| wire)
            .chain(netlist.constants().iter().map(|(wire, _)| wire));
        for (wire, &label) in fresh_wires.zip(&msg.a_labels) {
            active[wire.index()] = label;
        }
        for (wire, &label) in acc_wires.iter().zip(acc_active) {
            active[wire.index()] = label;
        }
        for (wire, &label) in netlist.evaluator_inputs().iter().zip(x_labels) {
            active[wire.index()] = label;
        }

        evaluate_levels(
            &self.hash,
            netlist,
            &msg.tables,
            |and| table_tweak(self.elem, msg.round, and.gate),
            active,
            &mut self.scratch,
        );

        let outputs = self.carried.get_or_insert_with(Vec::new);
        outputs.clear();
        outputs.extend(netlist.outputs().iter().map(|w| active[w.index()]));

        Ok(msg.decode.as_ref().map(|decode| {
            let bits: Vec<bool> = outputs
                .iter()
                .zip(decode)
                .map(|(label, &d)| label.lsb() ^ d)
                .collect();
            if self.config.signed {
                decode_signed(&bits)
            } else {
                decode_unsigned(&bits) as i64
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secure_dot(b: usize, a: &[i64], x: &[i64], seed: u64) -> i64 {
        let config = AcceleratorConfig::new(b);
        let mut accel = Maxelerator::new(config.clone(), seed);
        let mut client = ScheduledEvaluator::new(&config);
        let messages = accel.garble_job(a, true);
        let mut result = None;
        for (msg, &xl) in messages.iter().zip(x) {
            let labels: Vec<Block> = accel
                .ot_pairs(msg.round)
                .unwrap()
                .iter()
                .zip(config.encode_x(xl))
                .map(|(&(m0, m1), bit)| if bit { m1 } else { m0 })
                .collect();
            result = client.evaluate_round(msg, &labels).unwrap();
        }
        result.expect("final round decodes")
    }

    #[test]
    fn end_to_end_dot_product_b8() {
        let a = [3i64, -4, 5, 0, -7, 2, 127, -128];
        let x = [2i64, 6, -1, 9, 5, -3, -128, 127];
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
        assert_eq!(secure_dot(8, &a, &x, 7), expected);
    }

    #[test]
    fn end_to_end_dot_product_b16() {
        let a = [30_000i64, -12_345, 1];
        let x = [2i64, 3, -32_768];
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
        assert_eq!(secure_dot(16, &a, &x, 8), expected);
    }

    #[test]
    fn single_round_via_garble_round() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 1);
        let mut client = ScheduledEvaluator::new(&config);
        let msg = accel.garble_round(-9, true);
        let labels = accel.ot_pairs_for_client(&config.encode_x(11));
        assert_eq!(client.evaluate_round(&msg, &labels).unwrap(), Some(-99));
    }

    #[test]
    fn multiple_elements_reset_accumulator() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 2);
        let mut client = ScheduledEvaluator::new(&config);
        for (elem, a, x, want) in [(0u32, 5i64, 5i64, 25i64), (1, -3, 7, -21)] {
            accel.begin_element(elem);
            client.begin_element(elem);
            let msg = accel.garble_round(a, true);
            let labels = accel.ot_pairs_for_client(&config.encode_x(x));
            assert_eq!(client.evaluate_round(&msg, &labels).unwrap(), Some(want));
        }
    }

    #[test]
    fn report_tracks_activity() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 3);
        let n_ands = config.mac_circuit().netlist().stats().and_gates as u64;
        accel.garble_job(&[1, 2, 3, 4], false);
        let report = accel.report();
        assert_eq!(report.tables, 4 * n_ands);
        assert_eq!(report.rounds, 4);
        assert!(report.cycles > 0);
        assert!(report.labels_generated > 0);
        assert!(report.last_job_utilization > 0.8);
        assert!(report.pcie_delivered_bytes >= report.tables * 32);
        assert_eq!(report.bram_would_stall, 0);
    }

    #[test]
    fn measured_ii_close_to_paper() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 12);
        accel.garble_job(&[1; 12], false);
        let ii = accel.report().last_job_ii;
        assert!((ii - 24.0).abs() / 24.0 < 0.25, "II = {ii}");
    }

    #[test]
    fn label_generator_power_gating_saves_energy() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 4);
        accel.garble_job(&[1; 16], false);
        assert!(
            accel.report().label_energy_saving > 0.3,
            "saving = {}",
            accel.report().label_energy_saving
        );
    }

    #[test]
    fn tampered_table_breaks_decoding() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 5);
        let mut client = ScheduledEvaluator::new(&config);
        let mut msg = accel.garble_round(3, true);
        // Every table, not one: evaluation reads a table's `tg`/`te` only
        // when the matching active label's permute bit is set, so a single
        // tampered table goes unread for one seed in four.
        for table in &mut msg.tables {
            *table = GarbledTable {
                tg: Block::new(1),
                te: Block::new(2),
            };
        }
        let labels = accel.ot_pairs_for_client(&config.encode_x(3));
        let got = client.evaluate_round(&msg, &labels).unwrap();
        assert_ne!(got, Some(9));
    }

    #[test]
    fn unsigned_mode_works() {
        let config = AcceleratorConfig::new(8).unsigned();
        let mut accel = Maxelerator::new(config.clone(), 6);
        let mut client = ScheduledEvaluator::new(&config);
        let msgs = accel.garble_job(&[200, 100], true);
        let xs = [250i64, 3];
        let mut out = None;
        for (msg, &x) in msgs.iter().zip(&xs) {
            let labels: Vec<Block> = accel
                .ot_pairs(msg.round)
                .unwrap()
                .iter()
                .zip(config.encode_x(x))
                .map(|(&(m0, m1), bit)| if bit { m1 } else { m0 })
                .collect();
            out = client.evaluate_round(msg, &labels).unwrap();
        }
        assert_eq!(out, Some(200 * 250 + 100 * 3));
    }

    /// Gate-at-a-time reference for one round: `evaluate_and` per AND gate in
    /// netlist order, with the accelerator's per-gate tweaks.
    fn reference_round(
        config: &AcceleratorConfig,
        elem: u32,
        msg: &RoundMessage,
        acc: &[Block],
        x_labels: &[Block],
    ) -> Vec<Block> {
        let mac = config.mac_circuit();
        let netlist = mac.netlist();
        let hash = FixedKeyHash::new();
        let mut active = vec![Block::ZERO; netlist.wire_count()];
        let mut sent = msg.a_labels.iter();
        for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
            active[wire.index()] = match pos.checked_sub(config.state_range().start) {
                Some(offset) if offset < acc.len() => acc[offset],
                _ => *sent.next().unwrap(),
            };
        }
        for &(wire, _) in netlist.constants() {
            active[wire.index()] = *sent.next().unwrap();
        }
        for (wire, &label) in netlist.evaluator_inputs().iter().zip(x_labels) {
            active[wire.index()] = label;
        }
        let mut tables = msg.tables.iter();
        for (gate_idx, gate) in netlist.gates().iter().enumerate() {
            let (a, b) = (active[gate.a.index()], active[gate.b.index()]);
            active[gate.out.index()] = match gate.kind {
                GateKind::And => max_gc::evaluate_and(
                    &hash,
                    *tables.next().unwrap(),
                    a,
                    b,
                    table_tweak(elem, msg.round, gate_idx as u32),
                ),
                GateKind::Xor => a ^ b,
                GateKind::Not => a,
            };
        }
        netlist
            .outputs()
            .iter()
            .map(|w| active[w.index()])
            .collect()
    }

    #[test]
    fn levelized_rounds_match_a_gate_at_a_time_reference() {
        for b in [4usize, 8, 16] {
            for signed in [true, false] {
                for rounds in [1usize, 3, 8] {
                    let config = if signed {
                        AcceleratorConfig::new(b)
                    } else {
                        AcceleratorConfig::new(b).unsigned()
                    };
                    let elem = (b + rounds) as u32;
                    let mut accel = Maxelerator::new(config.clone(), 40 + b as u64);
                    let mut client = ScheduledEvaluator::new(&config);
                    accel.begin_element(elem);
                    client.begin_element(elem);
                    let a: Vec<i64> = (0..rounds as i64).map(|i| (i * 5 + 3) % 7).collect();
                    let messages = accel.garble_job(&a, true);
                    let mut acc = messages[0].init_acc_labels.clone().unwrap();
                    let mut expected = 0i64;
                    let mut decoded = None;
                    for (msg, &ai) in messages.iter().zip(&a) {
                        let x = (i64::from(msg.round) * 3 + 1) % 7;
                        expected += ai * x;
                        let labels: Vec<Block> = accel
                            .ot_pairs(msg.round)
                            .unwrap()
                            .iter()
                            .zip(config.encode_x(x))
                            .map(|(&(m0, m1), bit)| if bit { m1 } else { m0 })
                            .collect();
                        acc = reference_round(&config, elem, msg, &acc, &labels);
                        decoded = client.evaluate_round(msg, &labels).unwrap();
                        assert_eq!(
                            client.carried.as_deref(),
                            Some(&acc[..]),
                            "b={b} signed={signed} round {}",
                            msg.round
                        );
                    }
                    assert_eq!(decoded, Some(expected), "b={b} signed={signed}");
                }
            }
        }
    }

    #[test]
    fn round_message_wire_bytes() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 9);
        let msg = accel.garble_round(1, true);
        assert!(
            msg.wire_bytes()
                >= msg.tables.len() * GarbledTable::WIRE_BYTES + msg.a_labels.len() * 16
        );
        assert!(msg.init_acc_labels.is_some());
        assert!(msg.decode.is_some());
    }

    #[test]
    fn split_jobs_match_single_job() {
        // Garbling [a0, a1, a2, a3] as one job or as two jobs of two rounds
        // must produce the same decoded dot product.
        let config = AcceleratorConfig::new(8);
        let x = [4i64, -5, 6, -7];
        let a = [10i64, 11, -12, 13];
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();

        let mut accel = Maxelerator::new(config.clone(), 21);
        let mut client = ScheduledEvaluator::new(&config);
        let mut result = None;
        for (job, lastjob) in [(&a[..2], false), (&a[2..], true)] {
            let msgs = accel.garble_job(job, lastjob);
            for msg in &msgs {
                let idx = msg.round as usize;
                let labels: Vec<Block> = accel
                    .ot_pairs(msg.round)
                    .unwrap()
                    .iter()
                    .zip(config.encode_x(x[idx]))
                    .map(|(&(m0, m1), bit)| if bit { m1 } else { m0 })
                    .collect();
                result = client.evaluate_round(msg, &labels).unwrap();
            }
        }
        assert_eq!(result, Some(expected));
    }

    #[test]
    fn malformed_messages_return_typed_errors() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 31);
        let msg = accel.garble_round(3, true);
        let labels = accel.ot_pairs_for_client(&config.encode_x(4));

        // Wrong x-label count.
        let mut client = ScheduledEvaluator::new(&config);
        assert_eq!(
            client.evaluate_round(&msg, &labels[..labels.len() - 1]),
            Err(AcceleratorError::XLabelCount {
                expected: labels.len(),
                got: labels.len() - 1
            })
        );

        // Truncated a-labels.
        let mut short = msg.clone();
        let expected_a = short.a_labels.len();
        short.a_labels.pop();
        assert_eq!(
            client.evaluate_round(&short, &labels),
            Err(AcceleratorError::ALabelCount {
                expected: expected_a,
                got: expected_a - 1
            })
        );

        // Missing tables.
        let mut tableless = msg.clone();
        let expected_tables = tableless.tables.len();
        tableless.tables.clear();
        assert_eq!(
            client.evaluate_round(&tableless, &labels),
            Err(AcceleratorError::TableCount {
                expected: expected_tables,
                got: 0
            })
        );

        // Missing accumulator on a fresh element.
        let mut no_acc = msg.clone();
        no_acc.init_acc_labels = None;
        assert_eq!(
            client.evaluate_round(&no_acc, &labels),
            Err(AcceleratorError::MissingAccumulator { round: msg.round })
        );

        // Short initial accumulator.
        let mut short_acc = msg.clone();
        short_acc.init_acc_labels.as_mut().unwrap().pop();
        assert_eq!(
            client.evaluate_round(&short_acc, &labels),
            Err(AcceleratorError::AccLabelCount {
                expected: config.acc_width,
                got: config.acc_width - 1
            })
        );

        // Wrong decode width.
        let mut bad_decode = msg.clone();
        bad_decode.decode.as_mut().unwrap().push(false);
        assert_eq!(
            client.evaluate_round(&bad_decode, &labels),
            Err(AcceleratorError::DecodeCount {
                expected: config.acc_width,
                got: config.acc_width + 1
            })
        );

        // The pristine message still evaluates after all the rejections.
        assert_eq!(client.evaluate_round(&msg, &labels).unwrap(), Some(12));

        // Unknown OT round id.
        assert_eq!(
            accel.ot_pairs(999),
            Err(AcceleratorError::UnknownRound { round: 999 })
        );
    }

    #[test]
    fn element_streams_are_position_independent() {
        // Element 7's garbled bytes must not depend on which elements were
        // garbled before it — the invariant multi-unit parity rests on.
        let config = AcceleratorConfig::new(8);
        let a = [9i64, -3, 44];

        let mut direct = Maxelerator::new(config.clone(), 77);
        direct.begin_element(7);
        let lone = direct.garble_job(&a, true);

        let mut warmed = Maxelerator::new(config.clone(), 77);
        for elem in [2u32, 0, 5] {
            warmed.begin_element(elem);
            warmed.garble_job(&[1, 2], true);
        }
        warmed.begin_element(7);
        let after_others = warmed.garble_job(&a, true);

        assert_eq!(lone.len(), after_others.len());
        for (m1, m2) in lone.iter().zip(&after_others) {
            assert_eq!(m1.tables, m2.tables);
            assert_eq!(m1.a_labels, m2.a_labels);
            assert_eq!(m1.init_acc_labels, m2.init_acc_labels);
            assert_eq!(m1.decode, m2.decode);
        }
        for round in 0..a.len() as u32 {
            assert_eq!(
                direct.ot_pairs(round).unwrap(),
                warmed.ot_pairs(round).unwrap()
            );
        }
    }

    #[test]
    fn distinct_elements_use_distinct_label_streams() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 5);
        accel.begin_element(0);
        let m0 = accel.garble_round(3, true);
        accel.begin_element(1);
        let m1 = accel.garble_round(3, true);
        assert_ne!(m0.a_labels, m1.a_labels, "element streams must differ");
        assert_ne!(m0.tables, m1.tables);
    }

    #[test]
    fn element_seeds_name_disjoint_label_streams() {
        let first_64 = |base: u64, elem: u32| -> Vec<Block> {
            let mut labels = LabelGenerator::new(element_label_seed(base, elem), 8);
            (0..16).flat_map(|_| labels.clock(4)).collect()
        };
        let streams: Vec<Vec<Block>> = [(5u64, 0u32), (5, 1), (5, 2), (6, 0), (6, 1)]
            .iter()
            .map(|&(base, elem)| first_64(base, elem))
            .collect();
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert!(a.iter().all(|label| !b.contains(label)));
            }
        }
    }

    #[test]
    fn fabric_counts_are_pinned() {
        // Literals recorded from the ring-oscillator-clocked generator this
        // label source replaced (commit a0ef722): how labels are *sourced*
        // must never move what the fabric model *counts*.
        let weights: Vec<Vec<i64>> = (0..4i64)
            .map(|r| (0..8i64).map(|c| (r * 8 + c) * 7 % 256 - 128).collect())
            .collect();
        let mut accel = Maxelerator::new(AcceleratorConfig::new(8), 0x5eed);
        for (elem, row) in weights.iter().enumerate() {
            accel.begin_element(elem as u32);
            accel.garble_job(row, true);
        }
        let report = accel.report();
        assert_eq!(report.cycles, 2028);
        assert_eq!(report.labels_generated, 1104);
        assert_eq!(report.tables, 5824);
        assert_eq!(report.rounds, 32);
        assert_eq!(
            report.energy,
            max_fpga::EnergyMeter {
                aes_ops: 23296,
                rng_cycles: 141_952,
                shifts: 5824,
                bram_writes: 5824,
                pcie_bytes: 186_368,
                cycles: 2028,
            }
        );
        assert_eq!(report.label_energy_saving.to_bits(), 0x3fe9_0d6e_7579_af69);
        assert_eq!(report.pcie_delivered_bytes, 186_368);
        assert_eq!(report.pcie_peak_backlog, 128);
        assert_eq!(report.bram_would_stall, 0);
        assert_eq!(report.last_job_ii, 22.75);
    }

    #[test]
    fn energy_accounting_survives_element_reseeds() {
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 6);
        accel.begin_element(0);
        accel.garble_job(&[1, 2, 3, 4], true);
        let rng_after_first = accel.report().energy.rng_cycles;
        accel.begin_element(1);
        accel.garble_job(&[1, 2, 3, 4], true);
        let report = accel.report();
        assert!(
            report.energy.rng_cycles > rng_after_first,
            "RNG activity must accumulate across element reseeds"
        );
        assert!(report.label_energy_saving > 0.0 && report.label_energy_saving < 1.0);
    }
}
