//! Incremental circuit construction.

use crate::ir::{Gate, GateKind, Netlist, WireId};

/// A little-endian bundle of wires representing a multi-bit value.
///
/// Bit 0 (the least significant bit) is `wires()[0]`. Buses are cheap to
/// clone; they are just wire-id vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bus(Vec<WireId>);

impl Bus {
    /// Wraps raw wires (LSB first) as a bus.
    pub fn new(wires: Vec<WireId>) -> Self {
        Bus(wires)
    }

    /// The wires, LSB first.
    pub fn wires(&self) -> &[WireId] {
        &self.0
    }

    /// Bus width in bits.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The most significant wire (two's-complement sign bit).
    ///
    /// # Panics
    ///
    /// Panics if the bus is empty.
    pub fn msb(&self) -> WireId {
        *self.0.last().expect("empty bus has no msb")
    }

    /// Bit `i` (0 = LSB).
    pub fn bit(&self, i: usize) -> WireId {
        self.0[i]
    }

    /// The low `n` bits as a new bus.
    pub fn low(&self, n: usize) -> Bus {
        Bus(self.0[..n].to_vec())
    }

    /// Concatenation `self ‖ high` (self stays in the low bits).
    pub fn concat(&self, high: &Bus) -> Bus {
        let mut wires = self.0.clone();
        wires.extend_from_slice(&high.0);
        Bus(wires)
    }

    /// Logical left shift by `n` zero bits — callers must supply the zero
    /// wire since shifting is pure rewiring.
    pub fn shifted_left(&self, n: usize, zero: WireId) -> Bus {
        let mut wires = vec![zero; n];
        wires.extend_from_slice(&self.0);
        Bus(wires)
    }

    /// Iterates over the wires, LSB first.
    pub fn iter(&self) -> std::slice::Iter<'_, WireId> {
        self.0.iter()
    }
}

impl From<Vec<WireId>> for Bus {
    fn from(wires: Vec<WireId>) -> Self {
        Bus(wires)
    }
}

impl FromIterator<WireId> for Bus {
    fn from_iter<I: IntoIterator<Item = WireId>>(iter: I) -> Self {
        Bus(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Bus {
    type Item = &'a WireId;
    type IntoIter = std::slice::Iter<'a, WireId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Builds a [`Netlist`] gate by gate, guaranteeing topological order by
/// construction.
///
/// # Example
///
/// ```
/// use max_netlist::Builder;
///
/// let mut b = Builder::new();
/// let x = b.garbler_input();
/// let y = b.evaluator_input();
/// let z = b.and(x, y);
/// let netlist = b.build(vec![z]);
/// assert_eq!(netlist.evaluate(&[true], &[true]), vec![true]);
/// assert_eq!(netlist.evaluate(&[true], &[false]), vec![false]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Builder {
    next_wire: u32,
    garbler_inputs: Vec<WireId>,
    evaluator_inputs: Vec<WireId>,
    constants: Vec<(WireId, bool)>,
    gates: Vec<Gate>,
    const_false: Option<WireId>,
    const_true: Option<WireId>,
    /// Constant-propagation lattice: `known[w] = Some(v)` when wire `w` is a
    /// compile-time constant. Gate constructors fold through this, so dead
    /// logic on known-zero bits (e.g. the low bits of shifted partial
    /// products) never reaches the netlist.
    known: Vec<Option<bool>>,
}

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Builder::default()
    }

    fn fresh(&mut self) -> WireId {
        let id = WireId(self.next_wire);
        self.next_wire += 1;
        self.known.push(None);
        id
    }

    fn value_of(&self, w: WireId) -> Option<bool> {
        self.known[w.index()]
    }

    /// Declares one garbler (server-side) input bit.
    pub fn garbler_input(&mut self) -> WireId {
        let w = self.fresh();
        self.garbler_inputs.push(w);
        w
    }

    /// Declares one evaluator (client-side) input bit.
    pub fn evaluator_input(&mut self) -> WireId {
        let w = self.fresh();
        self.evaluator_inputs.push(w);
        w
    }

    /// Declares a `width`-bit garbler input bus (LSB first).
    pub fn garbler_input_bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.garbler_input()).collect()
    }

    /// Declares a `width`-bit evaluator input bus (LSB first).
    pub fn evaluator_input_bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.evaluator_input()).collect()
    }

    /// A public constant wire (deduplicated).
    pub fn constant(&mut self, value: bool) -> WireId {
        let slot = if value {
            &mut self.const_true
        } else {
            &mut self.const_false
        };
        if let Some(w) = *slot {
            return w;
        }
        let w = WireId(self.next_wire);
        self.next_wire += 1;
        self.known.push(Some(value));
        self.constants.push((w, value));
        *slot = Some(w);
        w
    }

    /// The shared constant-zero wire.
    pub fn zero(&mut self) -> WireId {
        self.constant(false)
    }

    /// AND gate (one garbled table), constant-folded where possible.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.value_of(a), self.value_of(b)) {
            (Some(va), Some(vb)) => return self.constant(va && vb),
            (Some(false), _) | (_, Some(false)) => return self.constant(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ if a == b => return a,
            _ => {}
        }
        let out = self.fresh();
        self.gates.push(Gate {
            kind: GateKind::And,
            a,
            b,
            out,
        });
        out
    }

    /// XOR gate (free), constant-folded where possible.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.value_of(a), self.value_of(b)) {
            (Some(va), Some(vb)) => return self.constant(va ^ vb),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ if a == b => return self.constant(false),
            _ => {}
        }
        let out = self.fresh();
        self.gates.push(Gate {
            kind: GateKind::Xor,
            a,
            b,
            out,
        });
        out
    }

    /// Inverter (free), constant-folded where possible.
    pub fn not(&mut self, a: WireId) -> WireId {
        if let Some(v) = self.value_of(a) {
            return self.constant(!v);
        }
        let out = self.fresh();
        self.gates.push(Gate {
            kind: GateKind::Not,
            a,
            b: a,
            out,
        });
        out
    }

    /// OR gate, lowered to one AND: `a | b = ¬(¬a ∧ ¬b)`.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let na = self.not(a);
        let nb = self.not(b);
        let nand = self.and(na, nb);
        self.not(nand)
    }

    /// 2:1 multiplexer on single wires: `sel ? then_w : else_w`, one AND.
    pub fn mux(&mut self, sel: WireId, then_w: WireId, else_w: WireId) -> WireId {
        // else ^ (sel & (then ^ else))
        let diff = self.xor(then_w, else_w);
        let gated = self.and(sel, diff);
        self.xor(else_w, gated)
    }

    /// Finalizes the circuit with the given output wires.
    ///
    /// # Panics
    ///
    /// Panics if the resulting netlist fails validation — that indicates a
    /// builder bug, not a user error.
    pub fn build(self, outputs: Vec<WireId>) -> Netlist {
        let netlist = Netlist {
            wire_count: self.next_wire,
            garbler_inputs: self.garbler_inputs,
            evaluator_inputs: self.evaluator_inputs,
            constants: self.constants,
            gates: self.gates,
            outputs,
            levels: Default::default(),
        };
        if let Err(e) = netlist.validate() {
            panic!("builder produced invalid netlist: {e}");
        }
        netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_xor_not_truth_tables() {
        for (ga, ea, expect_and, expect_xor) in [
            (false, false, false, false),
            (false, true, false, true),
            (true, false, false, true),
            (true, true, true, false),
        ] {
            let mut b = Builder::new();
            let x = b.garbler_input();
            let y = b.evaluator_input();
            let a = b.and(x, y);
            let o = b.xor(x, y);
            let n = b.not(x);
            let netlist = b.build(vec![a, o, n]);
            assert_eq!(
                netlist.evaluate(&[ga], &[ea]),
                vec![expect_and, expect_xor, !ga]
            );
        }
    }

    #[test]
    fn or_matches_boolean_or() {
        for ga in [false, true] {
            for ea in [false, true] {
                let mut b = Builder::new();
                let x = b.garbler_input();
                let y = b.evaluator_input();
                let o = b.or(x, y);
                let netlist = b.build(vec![o]);
                assert_eq!(netlist.evaluate(&[ga], &[ea]), vec![ga || ea]);
            }
        }
    }

    #[test]
    fn or_costs_one_and() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.garbler_input();
        let o = b.or(x, y);
        let netlist = b.build(vec![o]);
        assert_eq!(netlist.stats().and_gates, 1);
    }

    #[test]
    fn mux_selects() {
        for sel in [false, true] {
            for t in [false, true] {
                for e in [false, true] {
                    let mut b = Builder::new();
                    let s = b.garbler_input();
                    let tw = b.garbler_input();
                    let ew = b.garbler_input();
                    let m = b.mux(s, tw, ew);
                    let netlist = b.build(vec![m]);
                    assert_eq!(
                        netlist.evaluate(&[sel, t, e], &[]),
                        vec![if sel { t } else { e }]
                    );
                }
            }
        }
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut b = Builder::new();
        let z1 = b.constant(false);
        let z2 = b.zero();
        let o1 = b.constant(true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
        let netlist = b.build(vec![z1, o1]);
        assert_eq!(netlist.evaluate(&[], &[]), vec![false, true]);
        assert_eq!(netlist.constants().len(), 2);
    }

    #[test]
    fn bus_shifting_and_concat() {
        let mut b = Builder::new();
        let bus = b.garbler_input_bus(4);
        let zero = b.zero();
        let shifted = bus.shifted_left(2, zero);
        assert_eq!(shifted.width(), 6);
        assert_eq!(shifted.bit(0), zero);
        assert_eq!(shifted.bit(2), bus.bit(0));
        let cat = bus.low(2).concat(&bus.low(1));
        assert_eq!(cat.width(), 3);
        assert_eq!(cat.bit(2), bus.bit(0));
    }

    #[test]
    fn stats_counts_gates() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.garbler_input();
        let a = b.and(x, y);
        let o = b.xor(a, x);
        let n = b.not(o);
        let netlist = b.build(vec![n]);
        let stats = netlist.stats();
        assert_eq!(stats.and_gates, 1);
        assert_eq!(stats.xor_gates, 1);
        assert_eq!(stats.not_gates, 1);
        assert_eq!(stats.and_depth, 1);
        assert_eq!(stats.garbled_tables(), 1);
        assert_eq!(stats.table_bytes(), 32);
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        let netlist = b.build(vec![z]);
        assert!(netlist.validate().is_ok());
    }

    #[test]
    fn validate_rejects_cyclic_ordering() {
        use crate::ir::{Gate, GateKind};
        let netlist = Netlist {
            wire_count: 2,
            garbler_inputs: vec![WireId(1)],
            evaluator_inputs: vec![],
            constants: vec![],
            gates: vec![Gate {
                kind: GateKind::And,
                a: WireId(1),
                b: WireId(1),
                out: WireId(0),
            }],
            outputs: vec![WireId(0)],
            levels: Default::default(),
        };
        assert!(netlist.validate().is_err());
    }

    #[test]
    fn evaluate_panics_on_bad_input_length() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let netlist = b.build(vec![x]);
        let result = std::panic::catch_unwind(|| netlist.evaluate(&[], &[]));
        assert!(result.is_err());
    }
}
