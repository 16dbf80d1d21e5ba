//! The cycle-accurate MAXelerator pipeline: half-gates garbling with
//! on-chip label generation, BRAM table buffering and PCIe drainage.
//!
//! Every garbled table the simulation emits is a *real* half-gates table;
//! [`ScheduledEvaluator`] (the client side) decrypts them and recovers exact
//! MAC results. A job's two halves run apart: each round is garbled level
//! by level ([`max_gc::garble_levels`]) as soon as its input labels are
//! drawn — a table is a pure function of its labels, Δ and tweak, so the
//! order of garbling cannot change a byte — and cycle counts come from the
//! job shape's [`FabricAccount`], computed once per shape, plus the label
//! pool's integer arithmetic. The garbler writes each round straight into
//! the element's sealed ROUNDS frame — labels, tables in wire order,
//! decode bits — as the paper's engine streams its tables to the host: the
//! frame is what a served element is, and the [`RoundMessage`] forms the
//! job API returns are read back out of it.

use std::sync::Arc;

use bytes::Bytes;
use max_crypto::{Block, FixedKeyHash, Tweak};
use max_gc::channel::SEAL_BYTES;
use max_gc::{evaluate_levels, garble_levels, AsTable, BatchScratch, Delta, GarbledTable};
use max_netlist::{decode_signed, decode_unsigned, MacCircuit};
use max_rng::LabelGenerator;

use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::remote::{
    derive_seed, lend_round_burst, BurstWriter, MaterializedElement, RoundShape, RoundView,
};
use crate::schedule::FabricAccount;
use crate::timing::TimingModel;

/// Per-gate tweak: unique across (element, round, gate).
fn table_tweak(elem: u32, round: u32, gate_idx: u32) -> Tweak {
    Tweak::new(elem, round, 0, gate_idx, 0)
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

/// What [`ScheduledEvaluator`]'s one loop reads of a round: a decoded
/// [`RoundMessage`], or a round lent from the ROUNDS frame it arrived in
/// (`remote::codec::RoundView`), whose tables, labels and decode bits are
/// decoded in registers as the loop reads them.
pub(crate) trait EvalRound {
    /// A table as the round holds it.
    type Table: AsTable;
    /// Sequential round (vector position): the tables' tweak.
    fn round(&self) -> u32;
    /// Garbled tables in netlist AND order.
    fn tables(&self) -> &[Self::Table];
    /// Active labels of the server's fresh inputs, then constants.
    fn a_labels(&self) -> impl ExactSizeIterator<Item = Block>;
    /// Round 0 only: active labels of the initial accumulator.
    fn init_acc_labels(&self) -> Option<impl ExactSizeIterator<Item = Block>>;
    /// Final round only: output decode bits.
    fn decode(&self) -> Option<impl ExactSizeIterator<Item = bool>>;
}

impl EvalRound for RoundMessage {
    type Table = GarbledTable;

    fn round(&self) -> u32 {
        self.round
    }

    fn tables(&self) -> &[GarbledTable] {
        &self.tables
    }

    fn a_labels(&self) -> impl ExactSizeIterator<Item = Block> {
        self.a_labels.iter().copied()
    }

    fn init_acc_labels(&self) -> Option<impl ExactSizeIterator<Item = Block>> {
        self.init_acc_labels.as_ref().map(|l| l.iter().copied())
    }

    fn decode(&self) -> Option<impl ExactSizeIterator<Item = bool>> {
        self.decode.as_ref().map(|d| d.iter().copied())
    }
}

/// One garbled output element in structured form: its round messages, as
/// read back from its ROUNDS frame, and the OT label pairs (bit-width pairs
/// per round, concatenated in round order).
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
    /// The compiled schedule's steady-state initiation interval of the
    /// last job (22.75 cycles per MAC for 8 rounds at b = 8) — not the
    /// cycles per MAC the fabric serves, which add the label pool's
    /// misses, the BRAM read port and the PCIe drain (see `cycles`).
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
    /// Estimated joules per MAC under the default energy model (per one
    /// MAC when no rounds have been garbled).
    pub fn joules_per_mac(&self) -> f64 {
        self.energy
            .joules_per_mac(&max_fpga::EnergyModel::default(), self.rounds.max(1))
    }
}

/// The label pool through one job (§5.2), fed at `per_cycle` labels per
/// cycle: `prefill` full-width cycles stock the first round, each label
/// garbling then misses costs a serial cycle, and while the schedule runs
/// the generator pumps as many again — for the element's next job, or for
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PoolAccount {
    prefill: u64,
    misses: u64,
    pumped: u64,
    /// Labels the pool holds after the job.
    carried: u64,
}

impl PoolAccount {
    /// A job consuming `needed` labels, `first_need` in its first round,
    /// from a pool of `pool`, pumping for at most `schedule_cycles`.
    fn of_job(
        pool: u64,
        first_need: u64,
        needed: u64,
        per_cycle: u64,
        schedule_cycles: u64,
    ) -> Self {
        let prefill = first_need.saturating_sub(pool).div_ceil(per_cycle);
        let stocked = pool + prefill * per_cycle;
        let misses = needed.saturating_sub(stocked);
        let pumped = misses.min(per_cycle * schedule_cycles);
        PoolAccount {
            prefill,
            misses,
            pumped,
            carried: stocked.saturating_sub(needed) + pumped,
        }
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
    /// Labels pumped for the current element and not yet consumed (a
    /// count: labels are drawn when consumed).
    pool: u64,
    /// Carried accumulator zero-labels between rounds.
    carried_zero: Option<Vec<Block>>,
    round: u32,
    elem: u32,
    /// OT pairs of the current element's evaluator inputs, `b` per round
    /// in round order from round `pairs_from`.
    pairs: Vec<(Block, Block)>,
    /// The first round `pairs` holds: 0, or the round after the ones a
    /// [`Maxelerator::garble_element`] moved out.
    pairs_from: u32,
    /// Zero-label per wire, reused across rounds: every wire is an input
    /// (rewritten each round) or a gate output (written before it is read).
    wires: Vec<Block>,
    shape: RoundShape,
    scratch: BatchScratch,
    report: AcceleratorReport,
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
    ///
    /// The MAC circuit and its level plan are the configuration's shared
    /// ones (built once per process, like the paper's FSM that holds the
    /// netlist fixed across jobs), so a cold job builds no netlist before
    /// its first element: what it allocates is its per-job state (label
    /// stream, wire buffer).
    pub fn new(config: AcceleratorConfig, seed: u64) -> Self {
        let mac = config.shared_circuit();
        let cores = TimingModel {
            bit_width: config.bit_width,
            freq_mhz: config.freq_mhz,
        }
        .cores();
        // Element 0's stream (see `begin_element`).
        let mut labels = LabelGenerator::new(derive_seed(seed, 1), config.bit_width.max(4));
        let delta = Delta::from_block(labels.next_label());
        Maxelerator {
            wires: vec![Block::ZERO; mac.netlist().wire_count()],
            shape: RoundShape::of(&config, mac.netlist()),
            scratch: BatchScratch::default(),
            hash: FixedKeyHash::new(),
            mac,
            cores,
            base_seed: seed,
            labels,
            delta,
            pool: 0,
            config,
            carried_zero: None,
            round: 0,
            elem: 0,
            pairs: Vec::new(),
            pairs_from: 0,
            report: AcceleratorReport::default(),
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
    /// The label generator reseeds to the element's own stream,
    /// `derive_seed(base, elem + 1)`, keyed by the base seed and `elem`
    /// alone, so the element's garbled material is bit-identical whichever
    /// unit garbles it and in whatever order elements are processed — why
    /// a [`crate::CloudServer`] on any number of units sends the same
    /// bytes.
    pub fn begin_element(&mut self, elem: u32) {
        self.labels
            .reseed(derive_seed(self.base_seed, u64::from(elem) + 1));
        self.delta = Delta::from_block(self.labels.next_label());
        self.pool = 0;
        self.elem = elem;
        self.round = 0;
        self.carried_zero = None;
        self.pairs.clear();
        self.pairs_from = 0;
    }

    /// Garbles matrix row `row` as output element `elem`: the element's
    /// whole round sequence as one pipelined job with the decode bits
    /// released on the last round, written straight into its sealed
    /// ROUNDS frame, plus its OT pairs in round order. This is how the one
    /// job loop turns a row into an element, on a pool unit, a registry
    /// fill or a unit of the in-process [`crate::CloudServer`], so they
    /// cannot drift. The pairs move into the element, so
    /// [`Maxelerator::ot_pairs`] knows no round of it afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `row` is empty or a weight does not fit the bit-width.
    pub fn garble_element(&mut self, elem: u32, row: &[i64]) -> MaterializedElement {
        self.begin_element(elem);
        let sealed_rounds = self.garble_burst(row, true);
        self.pairs_from = self.round;
        MaterializedElement {
            pairs: std::mem::take(&mut self.pairs),
            sealed_rounds,
        }
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

    /// Garbles `a_elems.len()` consecutive MAC rounds as one pipelined job,
    /// read back out of the ROUNDS frame the garbler writes.
    ///
    /// Rounds continue the current element's accumulator; set `last` to
    /// release the decode bits with the final round.
    ///
    /// # Panics
    ///
    /// Panics if `a_elems` is empty or any element does not fit the
    /// configured bit-width (caller errors, not peer input).
    pub fn garble_job(&mut self, a_elems: &[i64], last: bool) -> Vec<RoundMessage> {
        let frame = self.garble_burst(a_elems, last);
        lend_round_burst(&frame[SEAL_BYTES..], a_elems.len())
            .expect("the garbler's own frame parses")
            .into_iter()
            .map(RoundView::to_message)
            .collect()
    }

    /// The one garbling loop: `a_elems.len()` consecutive MAC rounds as one
    /// pipelined job, each round written into one sealed ROUNDS frame as it
    /// is garbled — its header, `a` and constant labels, the initial
    /// accumulator labels (element start only), its tables in wire order,
    /// and the decode bits (on the last round, when `last`). The round's
    /// evaluator-input label pairs join the element's OT pairs.
    fn garble_burst(&mut self, a_elems: &[i64], last: bool) -> Bytes {
        assert!(!a_elems.is_empty(), "job needs at least one round");
        let rounds = a_elems.len();
        let mac = Arc::clone(&self.mac);
        let netlist = mac.netlist();
        let fabric = FabricAccount::shared(&self.config, self.cores, rounds);
        let b = self.config.bit_width;
        let first_round_abs = self.round;

        // ------------------------------------------------------------------
        // Labels. Per round: b fresh `a` labels + b fresh `x` labels +
        // constants; the element's first round also needs the initial
        // accumulator labels. The job draws exactly those, in consumption
        // order, from the element's stream.
        let consts = netlist.constants().len();
        let init_acc = if self.carried_zero.is_none() {
            self.config.acc_width
        } else {
            0
        };
        let needed = (rounds * (2 * b + consts) + init_acc) as u64;
        let mut drawn = self.labels.draw(needed as usize).into_iter();

        // ------------------------------------------------------------------
        // Garbling, round by round as soon as the round's labels are drawn.
        // Draw order per round: the fresh garbler inputs, the initial
        // accumulator (element start only), the constants, the evaluator
        // inputs. The accumulator inputs of a later round are the previous
        // round's output labels — the shift-register carry.
        let state = self.config.state_range();
        let delta = self.delta;
        let mut frame = BurstWriter::new(self.shape, rounds, init_acc > 0, last);
        for (r, &a) in a_elems.iter().enumerate() {
            let abs_round = first_round_abs + r as u32;
            let a_bits = if self.config.signed {
                max_netlist::encode_signed(a, b)
            } else {
                max_netlist::encode_unsigned(a as u64, b)
            };
            let decode = last && r + 1 == rounds;
            let mut slots = frame.round(self.elem, abs_round, self.carried_zero.is_none(), decode);
            let mut fresh = || drawn.next().expect("a job draws every label it consumes");
            let active = |z: Block, bit: bool| if bit { delta.one_label(z) } else { z };
            let mut sent = slots.a_labels.iter_mut();
            let mut send = |label: Block| {
                *sent.next().expect("the round's shape counts its labels") = label.to_bytes();
            };
            for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
                if state.contains(&pos) {
                    continue;
                }
                let z = fresh();
                self.wires[wire.index()] = z;
                send(active(z, a_bits[pos]));
            }
            let acc_wires = &netlist.garbler_inputs()[state.clone()];
            match &self.carried_zero {
                Some(carried) => {
                    for (wire, &label) in acc_wires.iter().zip(carried) {
                        self.wires[wire.index()] = label;
                    }
                }
                None => {
                    // Fresh labels; initial value 0 ⇒ active = zero-label.
                    for (wire, slot) in acc_wires.iter().zip(slots.init_acc_labels.iter_mut()) {
                        let z = fresh();
                        self.wires[wire.index()] = z;
                        *slot = z.to_bytes();
                    }
                }
            }
            // Constants: garbler-known bits.
            for &(wire, value) in netlist.constants() {
                let z = fresh();
                self.wires[wire.index()] = z;
                send(active(z, value));
            }
            // Evaluator (`x`) labels: fresh pair per bit, delivered via OT.
            for wire in netlist.evaluator_inputs() {
                let z = fresh();
                self.wires[wire.index()] = z;
                self.pairs.push((z, delta.one_label(z)));
            }

            let elem = self.elem;
            garble_levels(
                &self.hash,
                delta,
                netlist,
                |and| table_tweak(elem, abs_round, and.gate),
                &mut self.wires,
                &mut *slots.tables,
                &mut self.scratch,
            );
            let carried = self.carried_zero.get_or_insert_with(Vec::new);
            carried.clear();
            carried.extend(netlist.outputs().iter().map(|w| self.wires[w.index()]));
            if decode {
                slots.set_decode(carried.iter().map(|z| z.lsb()));
            }
        }
        debug_assert!(
            drawn.next().is_none(),
            "a job consumes every label it draws"
        );

        // ------------------------------------------------------------------
        // Fabric accounting: the label pool's arithmetic, then the shape's
        // fabric account.
        let per_cycle = (b / 2).max(1) as u64;
        let first_need = (2 * b + consts + init_acc) as u64;
        let pool = PoolAccount::of_job(
            self.pool,
            first_need,
            needed,
            per_cycle,
            fabric.schedule.cycles,
        );
        self.pool = pool.carried;
        let generated = pool.prefill * per_cycle + pool.misses + pool.pumped;
        self.labels.account(
            pool.prefill + pool.misses + fabric.schedule.cycles,
            generated,
        );

        let and_gates = netlist.gate_plan().tables();
        self.round = first_round_abs + rounds as u32;
        self.report.rounds += rounds as u64;
        self.report.tables += (rounds * and_gates) as u64;
        self.report.labels_generated += generated;
        self.report.cycles += pool.prefill + pool.misses + fabric.io_cycles;
        self.report.last_job_ii = fabric.schedule.steady_state_ii;
        self.report.last_job_utilization = fabric.schedule.utilization;
        let rng = self.labels.report();
        self.report.label_energy_saving = rng.energy_saving();
        self.report.pcie_pushed_bytes += fabric.pcie_bytes;
        self.report.pcie_delivered_bytes = self.report.pcie_pushed_bytes;
        self.report.pcie_peak_backlog = self.report.pcie_peak_backlog.max(fabric.peak_backlog);
        self.report.bram_would_stall += fabric.bram_stalls;
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
        frame.seal()
    }

    /// [`Maxelerator::garble_job`] in the `Result` form outside callers
    /// (the benchmark's layer probes) are written against.
    ///
    /// # Errors
    ///
    /// None: each round is garbled in its netlist's level order, so no
    /// label is read before it exists, and the fabric account only counts
    /// (`schedule::tests::dependencies_respected` guards the schedule it
    /// counts).
    ///
    /// # Panics
    ///
    /// As [`Maxelerator::garble_job`].
    pub fn try_garble_job(
        &mut self,
        a_elems: &[i64],
        last: bool,
    ) -> Result<Vec<RoundMessage>, AcceleratorError> {
        Ok(self.garble_job(a_elems, last))
    }

    /// OT message pairs for round `round`'s evaluator inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::UnknownRound`] if that round has not
    /// been garbled in the current element — e.g. a peer requesting labels
    /// for a round id it invented.
    pub fn ot_pairs(&self, round: u32) -> Result<&[(Block, Block)], AcceleratorError> {
        let b = self.config.bit_width;
        round
            .checked_sub(self.pairs_from)
            .and_then(|held| {
                let start = (held as usize).checked_mul(b)?;
                self.pairs.get(start..start.checked_add(b)?)
            })
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
/// (see [`max_netlist::Netlist::gate_plan`]) with the matching tweaks, carrying
/// the accumulator between rounds.
#[derive(Clone, Debug)]
pub struct ScheduledEvaluator {
    config: AcceleratorConfig,
    mac: Arc<MacCircuit>,
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
    ///
    /// It holds the configuration's shared MAC circuit (one per process,
    /// levelized once), so neither this nor a `Clone` of the evaluator
    /// builds or copies a netlist.
    pub fn new(config: &AcceleratorConfig) -> Self {
        let mac = config.shared_circuit();
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

    /// The operand width `b`: active labels per round of the client's input.
    pub(crate) fn bit_width(&self) -> usize {
        self.config.bit_width
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
        self.evaluate(msg, x_labels)
    }

    /// The one evaluation loop, over a decoded round or one lent from its
    /// frame; errors as [`ScheduledEvaluator::evaluate_round`]. Every count
    /// is checked against the netlist before anything is indexed.
    pub(crate) fn evaluate(
        &mut self,
        msg: &impl EvalRound,
        x_labels: &[Block],
    ) -> Result<Option<i64>, AcceleratorError> {
        let netlist = self.mac.netlist();
        let state = self.config.state_range();
        let b = self.config.bit_width;
        let consts = netlist.constants().len();
        let a_labels = msg.a_labels();
        if a_labels.len() != b + consts {
            return Err(AcceleratorError::ALabelCount {
                expected: b + consts,
                got: a_labels.len(),
            });
        }
        if x_labels.len() != b {
            return Err(AcceleratorError::XLabelCount {
                expected: b,
                got: x_labels.len(),
            });
        }
        let tables = msg.tables();
        if tables.len() != self.and_gates {
            return Err(AcceleratorError::TableCount {
                expected: self.and_gates,
                got: tables.len(),
            });
        }
        let acc_wires = &netlist.garbler_inputs()[state.clone()];
        let init = msg.init_acc_labels();
        match (&init, &self.carried) {
            (Some(init), _) if init.len() != acc_wires.len() => {
                return Err(AcceleratorError::AccLabelCount {
                    expected: acc_wires.len(),
                    got: init.len(),
                })
            }
            (None, None) => {
                return Err(AcceleratorError::MissingAccumulator { round: msg.round() })
            }
            _ => {}
        }
        let decode = msg.decode();
        if let Some(decode) = &decode {
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
        for (wire, label) in fresh_wires.zip(a_labels) {
            active[wire.index()] = label;
        }
        match (init, &self.carried) {
            (Some(init), _) => {
                for (wire, label) in acc_wires.iter().zip(init) {
                    active[wire.index()] = label;
                }
            }
            (None, carried) => {
                for (wire, &label) in acc_wires.iter().zip(carried.iter().flatten()) {
                    active[wire.index()] = label;
                }
            }
        }
        for (wire, &label) in netlist.evaluator_inputs().iter().zip(x_labels) {
            active[wire.index()] = label;
        }

        let (elem, round) = (self.elem, msg.round());
        evaluate_levels(
            &self.hash,
            netlist,
            tables,
            |and| table_tweak(elem, round, and.gate),
            active,
            &mut self.scratch,
        );

        let outputs = self.carried.get_or_insert_with(Vec::new);
        outputs.clear();
        outputs.extend(netlist.outputs().iter().map(|w| active[w.index()]));

        Ok(decode.map(|decode| {
            let bits: Vec<bool> = outputs
                .iter()
                .zip(decode)
                .map(|(label, d)| label.lsb() ^ d)
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
    use std::collections::{HashMap, VecDeque};

    use max_fpga::{MemorySystem, PcieLink};
    use max_netlist::GateKind;

    use crate::schedule::{
        io_cycle, Schedule, BRAM_BLOCK_BYTES, PCIE_BYTES_PER_CYCLE, PCIE_LATENCY_CYCLES,
        READ_BEATS_PER_CYCLE,
    };

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
    fn one_circuit_per_configuration() {
        // A configuration no other test in this binary builds, so the
        // fabric account below is a miss and the circuit list starts
        // without it.
        let config = AcceleratorConfig::new(12).with_acc_width(30).unsigned();
        assert!(config.cached_circuit().is_none());
        let cores = TimingModel::paper(12).cores();
        FabricAccount::shared(&config, cores, 3);
        let shared = config
            .cached_circuit()
            .expect("the account's miss path went through the shared list");

        let first = Maxelerator::new(config.clone(), 1);
        let second = Maxelerator::new(config.clone(), 2);
        let client = ScheduledEvaluator::new(&config);
        assert!(Arc::ptr_eq(&first.mac, &shared));
        assert!(Arc::ptr_eq(&second.mac, &shared));
        assert!(Arc::ptr_eq(&client.mac, &shared));
        assert!(Arc::ptr_eq(&client.clone().mac, &shared));
        assert!(Arc::ptr_eq(&config.shared_circuit(), &shared));
        assert_eq!(
            shared.netlist().gates(),
            config.mac_circuit().netlist().gates()
        );

        // Another configuration gets a circuit of its own.
        let signed = AcceleratorConfig::new(12).with_acc_width(30);
        let other = Maxelerator::new(signed.clone(), 1);
        assert!(!Arc::ptr_eq(&other.mac, &shared));
        assert!(Arc::ptr_eq(
            &other.mac,
            &ScheduledEvaluator::new(&signed).mac
        ));
    }

    #[test]
    fn the_garblers_frame_is_the_codecs_frame() {
        // The frame `garble_element` writes in place is byte for byte the
        // codec's encoding of the round messages `garble_job` reads back for
        // the same seed, its OT pairs are `ot_pairs`' rounds in order, and its
        // length is the one `round_burst_bytes` sizes.
        for b in [4, 8, 16, 32] {
            for signed in [true, false] {
                let config = if signed {
                    AcceleratorConfig::new(b)
                } else {
                    AcceleratorConfig::new(b).unsigned()
                };
                for rounds in 1..=9usize {
                    let row: Vec<i64> = (0..rounds as i64).map(|r| (r * 5 + 3) % 7).collect();
                    for elem in [0u32, 1, 63, 1 << 20] {
                        let seed = 0x0f1e_2d3c ^ u64::from(elem) ^ (rounds as u64) << 32;
                        let element =
                            Maxelerator::new(config.clone(), seed).garble_element(elem, &row);
                        let mut accel = Maxelerator::new(config.clone(), seed);
                        accel.begin_element(elem);
                        let messages = accel.garble_job(&row, true);
                        let what =
                            format!("b = {b}, signed = {signed}, {rounds} rounds, elem {elem}");
                        assert_eq!(
                            element.sealed_rounds,
                            crate::remote::encode_sealed_round_burst(&messages),
                            "{what}"
                        );
                        let pairs: Vec<(Block, Block)> = messages
                            .iter()
                            .flat_map(|msg| accel.ot_pairs(msg.round).unwrap().iter().copied())
                            .collect();
                        assert_eq!(element.pairs, pairs, "{what}");
                        assert_eq!(
                            element.sealed_rounds.len(),
                            crate::remote::round_burst_bytes(&config, rounds),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ot_pairs_name_only_rounds_the_accelerator_still_holds() {
        // An element's pairs move out with it; a job that continues the
        // element afterwards reports its own rounds under their own ids.
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config, 11);
        let element = accel.garble_element(3, &[1, 2]);
        assert_eq!(element.pairs.len(), 2 * 8);
        assert_eq!(
            accel.ot_pairs(0),
            Err(AcceleratorError::UnknownRound { round: 0 })
        );
        let msg = accel.garble_round(5, true);
        assert_eq!(msg.round, 2);
        assert_eq!(accel.ot_pairs(2).map(<[_]>::len), Ok(8));
        assert!(accel.ot_pairs(0).is_err() && accel.ot_pairs(3).is_err());
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
        // garbled before it — the invariant unit-count parity rests on.
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
            let mut labels = LabelGenerator::new(derive_seed(base, u64::from(elem) + 1), 8);
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

    /// The per-cycle walk `garble_job` replayed before its fabric was
    /// accounted once per job shape: a cycle counter, one BRAM block per
    /// core, the PCIe link and a queue of pumped labels, ticked through
    /// every prefill cycle, pool miss, schedule slot and drain cycle. It
    /// counts and garbles nothing.
    struct CycleWalk {
        config: AcceleratorConfig,
        cores: usize,
        base_seed: u64,
        labels: LabelGenerator,
        cycles: u64,
        memory: MemorySystem,
        pcie: PcieLink,
        queued: VecDeque<Block>,
        fresh_element: bool,
        schedules: HashMap<usize, Schedule>,
        report: AcceleratorReport,
    }

    impl CycleWalk {
        fn new(config: &AcceleratorConfig, cores: usize, seed: u64) -> Self {
            let mut labels = LabelGenerator::new(derive_seed(seed, 1), config.bit_width.max(4));
            labels.next_label();
            CycleWalk {
                config: config.clone(),
                cores,
                base_seed: seed,
                labels,
                cycles: 0,
                memory: MemorySystem::new(cores, BRAM_BLOCK_BYTES),
                pcie: PcieLink::new(PCIE_BYTES_PER_CYCLE, PCIE_LATENCY_CYCLES),
                queued: VecDeque::new(),
                fresh_element: true,
                schedules: HashMap::new(),
                report: AcceleratorReport::default(),
            }
        }

        fn begin_element(&mut self, elem: u32) {
            self.labels
                .reseed(derive_seed(self.base_seed, u64::from(elem) + 1));
            self.labels.next_label();
            self.queued.clear();
            self.fresh_element = true;
        }

        fn job(&mut self, rounds: usize) {
            let config = &self.config;
            let mac = config.mac_circuit();
            let schedule = self.schedules.entry(rounds).or_insert_with(|| {
                Schedule::compile(mac.netlist(), self.cores, rounds, config.state_range())
            });
            let b = config.bit_width;
            let consts = mac.netlist().constants().len();
            let init_acc = if self.fresh_element {
                config.acc_width
            } else {
                0
            };
            self.fresh_element = false;
            let needed = rounds * (2 * b + consts) + init_acc;
            let per_cycle = (b / 2).max(1);
            let first_need = 2 * b + consts + init_acc;
            while self.queued.len() < first_need {
                let burst = self.labels.clock(per_cycle);
                self.report.labels_generated += burst.len() as u64;
                self.queued.extend(burst);
                self.cycles += 1;
                io_cycle(&mut self.memory, &mut self.pcie);
            }
            let mut remaining = needed.saturating_sub(self.queued.len());
            for _ in 0..needed {
                if self.queued.pop_front().is_none() {
                    self.labels.clock(1);
                    self.report.labels_generated += 1;
                    self.cycles += 1;
                }
            }
            let mut slots = schedule.assignments().iter().peekable();
            for cycle in 0..schedule.stats().cycles {
                let burst = self.labels.clock(remaining.min(per_cycle));
                remaining -= burst.len();
                self.report.labels_generated += burst.len() as u64;
                self.queued.extend(burst);
                while let Some(slot) = slots.next_if(|slot| slot.cycle == cycle) {
                    if !self.memory.write(slot.core, GarbledTable::WIRE_BYTES) {
                        self.report.bram_would_stall += 1;
                    }
                    self.report.tables += 1;
                }
                self.memory.end_cycle();
                self.cycles += 1;
                io_cycle(&mut self.memory, &mut self.pcie);
            }
            while !self.memory.is_empty() || !self.pcie.is_drained() {
                self.cycles += 1;
                io_cycle(&mut self.memory, &mut self.pcie);
            }
            let report = &mut self.report;
            report.rounds += rounds as u64;
            report.cycles = self.cycles;
            report.last_job_ii = schedule.stats().steady_state_ii;
            report.last_job_utilization = schedule.stats().utilization;
            let rng = self.labels.report();
            report.label_energy_saving = rng.energy_saving();
            report.pcie_pushed_bytes = self.pcie.pushed_bytes();
            report.pcie_delivered_bytes = self.pcie.delivered_bytes();
            report.pcie_peak_backlog = self.pcie.peak_queue_bytes();
            report.energy = max_fpga::EnergyMeter {
                aes_ops: report.tables * 4,
                rng_cycles: rng.active_rng_cycles,
                shifts: report.tables,
                bram_writes: report.tables,
                pcie_bytes: report.pcie_pushed_bytes,
                cycles: report.cycles,
            };
        }
    }

    #[test]
    fn fabric_account_matches_the_cycle_walk() {
        let mut configs = Vec::new();
        for b in [4usize, 8, 16, 32] {
            configs.push(AcceleratorConfig::new(b));
            configs.push(AcceleratorConfig::new(b).unsigned());
            if 2 * b <= 32 {
                configs.push(AcceleratorConfig::new(b).with_acc_width(32));
            }
        }
        let splits: [&[usize]; 4] = [&[2, 3], &[1; 5], &[3, 1, 4], &[40, 41]];
        for config in configs {
            let b = config.bit_width;
            let max_rounds = if b == 32 { 8 } else { 64 };
            let mut jobs: Vec<Vec<usize>> = (1..=20).chain([64]).map(|r| vec![r]).collect();
            jobs.extend(splits.iter().map(|split| split.to_vec()));
            jobs.retain(|job| job.iter().sum::<usize>() <= max_rounds);

            let seed = 0xacc0 + b as u64;
            let mut accel = Maxelerator::new(config.clone(), seed);
            let mut walk = CycleWalk::new(&config, accel.cores(), seed);
            let weights: Vec<i64> = (0..max_rounds as i64).map(|i| i % 3).collect();
            for (elem, job) in jobs.iter().enumerate() {
                // The first job runs on the element `new` opened.
                if elem > 0 {
                    accel.begin_element(elem as u32);
                    walk.begin_element(elem as u32);
                }
                let mut start = 0;
                for (i, &rounds) in job.iter().enumerate() {
                    let last = i + 1 == job.len();
                    accel.garble_job(&weights[start..start + rounds], last);
                    walk.job(rounds);
                    start += rounds;
                    let at = format!("{config:?} job {job:?} piece {i}");
                    assert_eq!(accel.report(), &walk.report, "{at}");
                    assert_eq!(
                        accel.report().label_energy_saving.to_bits(),
                        walk.report.label_energy_saving.to_bits(),
                        "{at}"
                    );
                    assert_eq!(accel.labels.report(), walk.labels.report(), "{at}");
                    assert_eq!(accel.pool, walk.queued.len() as u64, "{at}");
                }
            }
        }
    }

    #[test]
    fn fabric_cycles_decompose_as_documented() {
        // The 4×8, b = 8 shape of `fabric_counts_are_pinned`: every element
        // costs 11 prefill cycles + 116 serial pool misses + 364 cycles of
        // the BRAM read port (1 456 tables × 32 B ÷ 128 B per cycle) + 16
        // cycles of PCIe latency = 507 cycles; the schedule's own 191
        // cycles fall inside the read port's 364.
        let config = AcceleratorConfig::new(8);
        let mut accel = Maxelerator::new(config.clone(), 0x5eed);
        let fabric = FabricAccount::shared(&config, accel.cores(), 8);
        assert_eq!(fabric.schedule.cycles, 191);
        let tables = 8 * config.mac_circuit().netlist().stats().and_gates as u64;
        assert_eq!(tables, 1456);
        let read_port_cycles = tables * GarbledTable::WIRE_BYTES as u64
            / (READ_BEATS_PER_CYCLE * GarbledTable::WIRE_BYTES) as u64;
        assert_eq!(read_port_cycles, 364);
        assert_eq!(fabric.io_cycles, read_port_cycles + PCIE_LATENCY_CYCLES);
        assert_eq!(fabric.pcie_bytes, tables * 32);

        // Per element: 160 labels consumed, 41 of them in the first round.
        let pool = PoolAccount::of_job(0, 41, 160, 4, fabric.schedule.cycles);
        assert_eq!(
            pool,
            PoolAccount {
                prefill: 11,
                misses: 116,
                pumped: 116,
                carried: 116,
            }
        );
        for elem in 0..4u32 {
            let before = accel.report().cycles;
            accel.begin_element(elem);
            accel.garble_job(&[1; 8], true);
            assert_eq!(accel.report().cycles - before, 11 + 116 + 364 + 16);
            assert_eq!(accel.pool, pool.carried);
        }
        // 276 labels generated per element (44 + 116 + 116), of which
        // the 116 pumped go unused; 507 cycles ÷ 8 MACs = 63.375.
        assert_eq!(accel.report().labels_generated, 4 * 276);
        assert_eq!(accel.report().cycles as f64 / 32.0, 63.375);
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
