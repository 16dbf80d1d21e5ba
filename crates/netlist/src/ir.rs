//! The netlist intermediate representation.

use std::fmt;
use std::sync::OnceLock;

use max_crypto::GatePlan;

use crate::levels::levelize;

/// Identifier of one wire in a [`Netlist`].
///
/// Wires are numbered densely from zero in creation order; a gate's output
/// wire id is always greater than its input ids, so gate order doubles as a
/// topological order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub u32);

impl WireId {
    /// The wire's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Logic function of a gate. The IR is normalized to the Free-XOR friendly
/// basis {AND, XOR, NOT}; richer functions are lowered by [`crate::Builder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// 2-input AND — the only gate that costs garbled-table entries.
    And,
    /// 2-input XOR — free under the Free-XOR optimization.
    Xor,
    /// Inverter — free (label-role swap) in garbled circuits.
    Not,
}

/// One gate: `out = kind(a, b)` (`b` is ignored for [`GateKind::Not`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// First input wire.
    pub a: WireId,
    /// Second input wire (equal to `a` for NOT gates).
    pub b: WireId,
    /// Output wire.
    pub out: WireId,
}

/// An immutable Boolean circuit with two-party input ownership.
///
/// Built by [`crate::Builder`]; gates are stored in topological order.
/// `constants` are wires whose value is fixed and public to the garbler
/// (they are garbled as garbler-known inputs).
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) wire_count: u32,
    pub(crate) garbler_inputs: Vec<WireId>,
    pub(crate) evaluator_inputs: Vec<WireId>,
    pub(crate) constants: Vec<(WireId, bool)>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) outputs: Vec<WireId>,
    /// [`Netlist::gate_plan`], computed on first use. A pure function of
    /// the fields above, so it takes no part in equality.
    pub(crate) gate_plan: OnceLock<GatePlan>,
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.wire_count == other.wire_count
            && self.garbler_inputs == other.garbler_inputs
            && self.evaluator_inputs == other.evaluator_inputs
            && self.constants == other.constants
            && self.gates == other.gates
            && self.outputs == other.outputs
    }
}

impl Netlist {
    /// Total number of wires (inputs, constants and gate outputs).
    pub fn wire_count(&self) -> usize {
        self.wire_count as usize
    }

    /// Wires carrying the garbler's (server's) private input bits, in the
    /// order the garbler supplies them.
    pub fn garbler_inputs(&self) -> &[WireId] {
        &self.garbler_inputs
    }

    /// Wires carrying the evaluator's (client's) private input bits.
    pub fn evaluator_inputs(&self) -> &[WireId] {
        &self.evaluator_inputs
    }

    /// Public constant wires and their values.
    pub fn constants(&self) -> &[(WireId, bool)] {
        &self.constants
    }

    /// Gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Output wires in declaration order.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// The gates regrouped by AND-depth, as the half-gates kernels read
    /// them: walking the plan's levels in order, each level's free gates
    /// and then its AND gates as one batch, computes the same wires as
    /// walking [`Netlist::gates`], and every wire index and table ordinal
    /// was checked against this netlist once, when the plan was built.
    /// Computed once per netlist; the accelerator shares one netlist per
    /// configuration per process and forces its plan when it builds it,
    /// so on a job path it is computed once per configuration.
    pub fn gate_plan(&self) -> &GatePlan {
        self.gate_plan.get_or_init(|| levelize(self))
    }

    /// Evaluates the circuit in plaintext.
    ///
    /// `garbler_bits` and `evaluator_bits` are matched positionally with
    /// [`Netlist::garbler_inputs`] / [`Netlist::evaluator_inputs`].
    ///
    /// # Panics
    ///
    /// Panics if either slice length does not match the input count.
    pub fn evaluate(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<bool> {
        assert_eq!(
            garbler_bits.len(),
            self.garbler_inputs.len(),
            "garbler input length mismatch"
        );
        assert_eq!(
            evaluator_bits.len(),
            self.evaluator_inputs.len(),
            "evaluator input length mismatch"
        );
        let mut values = vec![false; self.wire_count as usize];
        for (wire, &bit) in self.garbler_inputs.iter().zip(garbler_bits) {
            values[wire.index()] = bit;
        }
        for (wire, &bit) in self.evaluator_inputs.iter().zip(evaluator_bits) {
            values[wire.index()] = bit;
        }
        for &(wire, bit) in &self.constants {
            values[wire.index()] = bit;
        }
        for gate in &self.gates {
            let a = values[gate.a.index()];
            let b = values[gate.b.index()];
            values[gate.out.index()] = match gate.kind {
                GateKind::And => a && b,
                GateKind::Xor => a ^ b,
                GateKind::Not => !a,
            };
        }
        self.outputs.iter().map(|w| values[w.index()]).collect()
    }

    /// Gate statistics: the GC cost model.
    pub fn stats(&self) -> NetlistStats {
        let mut stats = NetlistStats {
            wires: self.wire_count as usize,
            ..NetlistStats::default()
        };
        // AND-depth: longest chain of AND gates, the sequential-GC critical
        // path when XORs are free.
        let mut depth = vec![0u32; self.wire_count as usize];
        for gate in &self.gates {
            let in_depth = depth[gate.a.index()].max(depth[gate.b.index()]);
            let d = match gate.kind {
                GateKind::And => {
                    stats.and_gates += 1;
                    in_depth + 1
                }
                GateKind::Xor => {
                    stats.xor_gates += 1;
                    in_depth
                }
                GateKind::Not => {
                    stats.not_gates += 1;
                    in_depth
                }
            };
            depth[gate.out.index()] = d;
        }
        stats.and_depth = self
            .outputs
            .iter()
            .map(|w| depth[w.index()])
            .max()
            .unwrap_or(0) as usize;
        stats
    }

    /// Checks structural invariants: topological gate order, in-range wire
    /// ids, no wire driven twice. Used by tests and by backends on ingest.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.wire_count as usize;
        let mut driven = vec![false; n];
        for wire in self
            .garbler_inputs
            .iter()
            .chain(&self.evaluator_inputs)
            .chain(self.constants.iter().map(|(w, _)| w))
        {
            if wire.index() >= n {
                return Err(format!("input {wire} out of range"));
            }
            if driven[wire.index()] {
                return Err(format!("wire {wire} sourced twice"));
            }
            driven[wire.index()] = true;
        }
        for gate in &self.gates {
            for input in [gate.a, gate.b] {
                if input.index() >= n {
                    return Err(format!("gate input {input} out of range"));
                }
                if !driven[input.index()] {
                    return Err(format!("gate reads undriven wire {input}"));
                }
            }
            if gate.out.index() >= n {
                return Err(format!("gate output {} out of range", gate.out));
            }
            if driven[gate.out.index()] {
                return Err(format!("wire {} driven twice", gate.out));
            }
            if gate.out <= gate.a || gate.out <= gate.b {
                return Err(format!("gate {} breaks topological order", gate.out));
            }
            driven[gate.out.index()] = true;
        }
        for output in &self.outputs {
            if output.index() >= n || !driven[output.index()] {
                return Err(format!("output {output} undriven"));
            }
        }
        Ok(())
    }
}

/// Gate-count summary of a netlist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total wires.
    pub wires: usize,
    /// Non-free gates: each costs one garbled table (two ciphertexts under
    /// half-gates).
    pub and_gates: usize,
    /// Free XOR gates.
    pub xor_gates: usize,
    /// Free inverters.
    pub not_gates: usize,
    /// Longest AND-gate chain from any input to any output.
    pub and_depth: usize,
}

impl NetlistStats {
    /// Garbled tables transmitted (= AND gates, with half-gates).
    pub fn garbled_tables(&self) -> usize {
        self.and_gates
    }

    /// Bytes of garbled tables on the wire (2 × 16-byte ciphertexts each).
    pub fn table_bytes(&self) -> usize {
        self.and_gates * 32
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} AND / {} XOR / {} NOT gates, {} wires, AND-depth {}",
            self.and_gates, self.xor_gates, self.not_gates, self.wires, self.and_depth
        )
    }
}
