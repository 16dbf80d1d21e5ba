//! Whole-netlist garbling.

use max_crypto::{AndGate, AsTable, BatchScratch, Block, FixedKeyHash, GarbledTable, Tweak};
use max_netlist::Netlist;

use crate::label::{Delta, LabelSource};

/// Garbles `netlist` over `zero` (one zero-label per wire, inputs already
/// set) level by level — [`evaluate_levels`](crate::evaluate_levels)'s
/// twin — through the half-gates kernel of the active arm
/// ([`GatePlan::garble`](max_crypto::GatePlan::garble) over the netlist's
/// [`gate_plan`](Netlist::gate_plan)): each level's free gates, then all
/// of its AND gates in one sweep. Tables land in `tables` at their AND
/// ordinal under `tweak`, decoded or as wire bytes ([`AsTable`]), so the
/// material is bit-identical to gate-at-a-time garbling in netlist order.
///
/// # Panics
///
/// Panics if `tables` is shorter than the netlist's AND count or `zero`
/// than its wire count.
pub fn garble_levels<T: AsTable>(
    hash: &FixedKeyHash,
    delta: Delta,
    netlist: &Netlist,
    tweak: impl Fn(&AndGate) -> Tweak,
    zero: &mut [Block],
    tables: &mut [T],
    scratch: &mut BatchScratch,
) {
    netlist
        .gate_plan()
        .garble(hash, delta.block(), tweak, zero, tables, scratch);
}

/// The public garbled material sent to the evaluator: tables plus output
/// decoding bits. (Input labels travel separately — garbler labels directly,
/// evaluator labels via OT.)
#[derive(Clone, Debug, PartialEq)]
pub struct Material {
    /// Garbled tables, one per AND gate in topological order.
    pub tables: Vec<GarbledTable>,
    /// Output decode bits: `d_w = color(zero_label(w))` per output wire.
    pub output_decode: Vec<bool>,
}

impl Material {
    /// Bytes this material occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.tables.len() * GarbledTable::WIRE_BYTES + self.output_decode.len().div_ceil(8)
    }
}

/// A garbled netlist: the garbler's secret label table plus the public
/// [`Material`].
#[derive(Clone, Debug)]
pub struct GarbledCircuit {
    delta: Delta,
    /// Zero-label per wire.
    zero_labels: Vec<Block>,
    material: Material,
    garbler_input_wires: Vec<u32>,
    evaluator_input_wires: Vec<u32>,
    constant_wires: Vec<(u32, bool)>,
    output_wires: Vec<u32>,
}

/// Garbles netlists gate by gate in topological order — the software
/// execution model of TinyGarble's back-end.
#[derive(Debug)]
pub struct Garbler<'a, S: LabelSource> {
    hash: FixedKeyHash,
    delta: Delta,
    labels: &'a mut S,
}

impl<'a, S: LabelSource> Garbler<'a, S> {
    /// Creates a garbler drawing Δ and all zero-labels from `labels`.
    pub fn new(labels: &'a mut S) -> Self {
        let delta = Delta::from_block(labels.next_label());
        Garbler {
            hash: FixedKeyHash::new(),
            delta,
            labels,
        }
    }

    /// Creates a garbler with an externally fixed Δ (sequential GC keeps Δ
    /// stable across rounds so state labels stay consistent).
    pub fn with_delta(labels: &'a mut S, delta: Delta) -> Self {
        Garbler {
            hash: FixedKeyHash::new(),
            delta,
            labels,
        }
    }

    /// The global offset in use.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// Garbles `netlist`; AND-gate tweaks are `tweak_base + gate index`.
    pub fn garble(&mut self, netlist: &Netlist, tweak_base: u64) -> GarbledCircuit {
        self.garble_with_state(netlist, tweak_base, &[])
    }

    /// Garbles `netlist`, pre-seeding the zero-labels of selected wires.
    ///
    /// `fixed_labels` maps *garbler input positions* to zero-labels carried
    /// from a previous sequential round (the accumulator state). Remaining
    /// input wires get fresh labels.
    pub fn garble_with_state(
        &mut self,
        netlist: &Netlist,
        tweak_base: u64,
        fixed_labels: &[(usize, Block)],
    ) -> GarbledCircuit {
        let mut zero_labels = vec![Block::ZERO; netlist.wire_count()];
        for wire in netlist
            .garbler_inputs()
            .iter()
            .chain(netlist.evaluator_inputs())
        {
            zero_labels[wire.index()] = self.labels.next_label();
        }
        for &(wire, _) in netlist.constants() {
            zero_labels[wire.index()] = self.labels.next_label();
        }
        for &(position, label) in fixed_labels {
            let wire = netlist.garbler_inputs()[position];
            zero_labels[wire.index()] = label;
        }

        let mut tables = vec![GarbledTable::default(); netlist.gate_plan().tables()];
        garble_levels(
            &self.hash,
            self.delta,
            netlist,
            |and| Tweak::from_gate_index(tweak_base + u64::from(and.ordinal)),
            &mut zero_labels,
            &mut tables,
            &mut BatchScratch::default(),
        );

        let output_decode = netlist
            .outputs()
            .iter()
            .map(|w| zero_labels[w.index()].lsb())
            .collect();
        GarbledCircuit {
            delta: self.delta,
            material: Material {
                tables,
                output_decode,
            },
            garbler_input_wires: netlist.garbler_inputs().iter().map(|w| w.0).collect(),
            evaluator_input_wires: netlist.evaluator_inputs().iter().map(|w| w.0).collect(),
            constant_wires: netlist.constants().iter().map(|&(w, v)| (w.0, v)).collect(),
            output_wires: netlist.outputs().iter().map(|w| w.0).collect(),
            zero_labels,
        }
    }
}

impl GarbledCircuit {
    /// The public material (tables + decode bits).
    pub fn material(&self) -> &Material {
        &self.material
    }

    /// The global offset (garbler secret).
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// Active labels for the garbler's own input bits, plus constants, in
    /// the order the evaluator expects them.
    ///
    /// # Panics
    ///
    /// Panics if `bits` length differs from the garbler input count.
    pub fn encode_garbler_inputs(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            bits.len(),
            self.garbler_input_wires.len(),
            "garbler input count mismatch"
        );
        let mut labels: Vec<Block> = self
            .garbler_input_wires
            .iter()
            .zip(bits)
            .map(|(&w, &bit)| self.active_label(w, bit))
            .collect();
        labels.extend(
            self.constant_wires
                .iter()
                .map(|&(w, v)| self.active_label(w, v)),
        );
        labels
    }

    /// Active labels for the evaluator's input bits.
    ///
    /// In the real protocol these travel via OT; tests and the trusted-
    /// delivery path call this directly.
    ///
    /// # Panics
    ///
    /// Panics if `bits` length differs from the evaluator input count.
    pub fn encode_evaluator_inputs(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            bits.len(),
            self.evaluator_input_wires.len(),
            "evaluator input count mismatch"
        );
        self.evaluator_input_wires
            .iter()
            .zip(bits)
            .map(|(&w, &bit)| self.active_label(w, bit))
            .collect()
    }

    /// Both labels of evaluator input `position` — the OT sender's message
    /// pair `(m0, m1)`.
    pub fn evaluator_label_pair(&self, position: usize) -> (Block, Block) {
        let zero = self.zero_labels[self.evaluator_input_wires[position] as usize];
        (zero, self.delta.one_label(zero))
    }

    /// Zero-labels of the output wires (for carrying sequential-GC state).
    pub fn output_zero_labels(&self) -> Vec<Block> {
        self.output_wires
            .iter()
            .map(|&w| self.zero_labels[w as usize])
            .collect()
    }

    /// Decodes active output labels into cleartext bits.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the output count.
    pub fn decode_outputs(&self, active: &[Block]) -> Vec<bool> {
        assert_eq!(
            active.len(),
            self.material.output_decode.len(),
            "output label count mismatch"
        );
        active
            .iter()
            .zip(&self.material.output_decode)
            .map(|(label, &d)| label.lsb() ^ d)
            .collect()
    }

    fn active_label(&self, wire: u32, bit: bool) -> Block {
        let zero = self.zero_labels[wire as usize];
        if bit {
            self.delta.one_label(zero)
        } else {
            zero
        }
    }
}
