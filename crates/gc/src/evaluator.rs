//! Whole-netlist evaluation with active labels.

use max_crypto::{Block, FixedKeyHash, Tweak};
use max_netlist::{GateKind, LevelAnd, Netlist};

use crate::engine::{evaluate_and_batch, BatchScratch, GarbledTable};
use crate::garbler::Material;

/// Evaluates `netlist` over `active` (one label per wire, inputs already
/// set) level by level: each level's free gates, then all of its AND gates
/// with one [`evaluate_and_batch`] sweep. `tables` is indexed by AND ordinal
/// and `tweak` names each AND gate's tweak, so every wire gets the label a
/// gate-at-a-time walk in netlist order would give it.
///
/// # Panics
///
/// Panics if `tables` is shorter than the netlist's AND count or `active`
/// than its wire count — callers check peer-supplied counts first.
pub fn evaluate_levels(
    hash: &FixedKeyHash,
    netlist: &Netlist,
    tables: &[GarbledTable],
    tweak: impl Fn(&LevelAnd) -> Tweak,
    active: &mut [Block],
    scratch: &mut BatchScratch,
) {
    for level in netlist.levels() {
        for gate in &level.free {
            let a = active[gate.a.index()];
            active[gate.out.index()] = match gate.kind {
                GateKind::Not => a,
                _ => a ^ active[gate.b.index()],
            };
        }
        evaluate_and_batch(hash, &level.ands, tables, &tweak, active, scratch);
    }
}

/// Evaluates garbled netlists level by level.
///
/// The evaluator holds one *active* label per wire and never learns the
/// cleartext values: AND gates are decrypted with the garbled tables, XOR
/// gates are label XORs, NOT gates pass the label through (the garbler
/// swapped the roles).
#[derive(Clone, Debug, Default)]
pub struct Evaluator {
    hash: FixedKeyHash,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new() -> Self {
        Evaluator {
            hash: FixedKeyHash::new(),
        }
    }

    /// Evaluates `netlist` and returns the active labels of the outputs.
    ///
    /// `garbler_labels` must contain the active labels of the garbler's
    /// inputs followed by the constants (the order produced by
    /// [`crate::GarbledCircuit::encode_garbler_inputs`]); `evaluator_labels`
    /// the active labels of the evaluator's inputs (from OT). `tweak_base`
    /// must match the garbler's.
    ///
    /// # Panics
    ///
    /// Panics if label counts or table count do not match the netlist.
    pub fn evaluate(
        &self,
        netlist: &Netlist,
        material: &Material,
        garbler_labels: &[Block],
        evaluator_labels: &[Block],
        tweak_base: u64,
    ) -> Vec<Block> {
        let expected_g = netlist.garbler_inputs().len() + netlist.constants().len();
        assert_eq!(
            garbler_labels.len(),
            expected_g,
            "garbler label count mismatch"
        );
        assert_eq!(
            evaluator_labels.len(),
            netlist.evaluator_inputs().len(),
            "evaluator label count mismatch"
        );

        let mut active = vec![Block::ZERO; netlist.wire_count()];
        let garbler_count = netlist.garbler_inputs().len();
        for (wire, &label) in netlist
            .garbler_inputs()
            .iter()
            .zip(&garbler_labels[..garbler_count])
        {
            active[wire.index()] = label;
        }
        for ((wire, _), &label) in netlist
            .constants()
            .iter()
            .zip(&garbler_labels[garbler_count..])
        {
            active[wire.index()] = label;
        }
        for (wire, &label) in netlist.evaluator_inputs().iter().zip(evaluator_labels) {
            active[wire.index()] = label;
        }

        let and_gates: usize = netlist.levels().iter().map(|l| l.ands.len()).sum();
        assert_eq!(and_gates, material.tables.len(), "table count mismatch");
        evaluate_levels(
            &self.hash,
            netlist,
            &material.tables,
            |and| Tweak::from_gate_index(tweak_base + u64::from(and.ordinal)),
            &mut active,
            &mut BatchScratch::default(),
        );
        netlist
            .outputs()
            .iter()
            .map(|w| active[w.index()])
            .collect()
    }

    /// Evaluates and decodes in one step.
    pub fn evaluate_decoded(
        &self,
        netlist: &Netlist,
        material: &Material,
        garbler_labels: &[Block],
        evaluator_labels: &[Block],
        tweak_base: u64,
    ) -> Vec<bool> {
        let labels = self.evaluate(
            netlist,
            material,
            garbler_labels,
            evaluator_labels,
            tweak_base,
        );
        labels
            .iter()
            .zip(&material.output_decode)
            .map(|(label, &d)| label.lsb() ^ d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GarbledTable;
    use crate::garbler::Garbler;
    use crate::label::PrgLabelSource;
    use max_netlist::{decode_signed, encode_signed, Builder, MacCircuit, MultiplierKind, Sign};

    fn garble_eval(netlist: &Netlist, g_bits: &[bool], e_bits: &[bool]) -> Vec<bool> {
        let mut labels = PrgLabelSource::new(Block::new(0x1234));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(netlist, 0);
        let g_labels = garbled.encode_garbler_inputs(g_bits);
        let e_labels = garbled.encode_evaluator_inputs(e_bits);
        let out = Evaluator::new().evaluate(netlist, garbled.material(), &g_labels, &e_labels, 0);
        garbled.decode_outputs(&out)
    }

    #[test]
    fn all_gate_kinds_match_plaintext() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let and = b.and(x, y);
        let xor = b.xor(x, y);
        let not = b.not(x);
        let or = b.or(x, y);
        let netlist = b.build(vec![and, xor, not, or]);
        for gx in [false, true] {
            for ey in [false, true] {
                assert_eq!(
                    garble_eval(&netlist, &[gx], &[ey]),
                    netlist.evaluate(&[gx], &[ey]),
                    "inputs {gx} {ey}"
                );
            }
        }
    }

    #[test]
    fn constants_garble_correctly() {
        let mut b = Builder::new();
        let x = b.evaluator_input();
        let one = b.constant(true);
        let zero = b.constant(false);
        let a = b.and(x, one);
        let o = b.or(x, zero);
        let netlist = b.build(vec![a, o, one, zero]);
        for ex in [false, true] {
            assert_eq!(garble_eval(&netlist, &[], &[ex]), vec![ex, ex, true, false]);
        }
    }

    #[test]
    fn adder_garbles_correctly() {
        use max_netlist::{decode_unsigned, encode_unsigned};
        let mut b = Builder::new();
        let x = b.garbler_input_bus(8);
        let y = b.evaluator_input_bus(8);
        let sum = b.add_expand(&x, &y);
        let netlist = b.build(sum.wires().to_vec());
        for (a, c) in [(0u64, 0u64), (255, 255), (170, 85), (1, 99)] {
            let out = garble_eval(&netlist, &encode_unsigned(a, 8), &encode_unsigned(c, 8));
            assert_eq!(decode_unsigned(&out), a + c);
        }
    }

    #[test]
    fn signed_mac_garbles_correctly() {
        let mac = MacCircuit::build(8, 20, Sign::Signed, MultiplierKind::Tree);
        for (a, acc, x) in [
            (-5i64, -3i64, 7i64),
            (127, 1000, -128),
            (0, 0, 0),
            (-128, -400, -128),
        ] {
            let out = garble_eval(
                mac.netlist(),
                &mac.garbler_bits(a, acc),
                &mac.evaluator_bits(x),
            );
            assert_eq!(decode_signed(&out), acc + a * x, "a={a} acc={acc} x={x}");
        }
    }

    #[test]
    fn wrong_tweak_base_corrupts_result() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        let netlist = b.build(vec![z]);
        let mut labels = PrgLabelSource::new(Block::new(1));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(&netlist, 0);
        let g = garbled.encode_garbler_inputs(&[true]);
        let e = garbled.encode_evaluator_inputs(&[true]);
        let out = Evaluator::new().evaluate(&netlist, garbled.material(), &g, &e, 999);
        // The active output label is garbage: it matches neither valid label.
        let zeros = garbled.output_zero_labels();
        assert_ne!(out[0], zeros[0]);
        assert_ne!(out[0], garbled.delta().one_label(zeros[0]));
    }

    #[test]
    fn material_wire_bytes_accounts_tables() {
        let mac = MacCircuit::build(8, 16, Sign::Unsigned, MultiplierKind::Tree);
        let mut labels = PrgLabelSource::new(Block::new(2));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(mac.netlist(), 0);
        let stats = mac.netlist().stats();
        assert_eq!(garbled.material().tables.len(), stats.and_gates);
        assert_eq!(
            garbled.material().wire_bytes(),
            stats.and_gates * GarbledTable::WIRE_BYTES + mac.netlist().outputs().len().div_ceil(8)
        );
    }

    #[test]
    fn evaluator_labels_are_valid_pairs() {
        let mut b = Builder::new();
        let y0 = b.evaluator_input();
        let y1 = b.evaluator_input();
        let z = b.and(y0, y1);
        let netlist = b.build(vec![z]);
        let mut labels = PrgLabelSource::new(Block::new(3));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(&netlist, 0);
        for pos in 0..2 {
            let (m0, m1) = garbled.evaluator_label_pair(pos);
            assert_eq!(m0 ^ m1, garbled.delta().block());
            assert_eq!(garbled.encode_evaluator_inputs(&[false, false])[pos], m0);
            assert_eq!(garbled.encode_evaluator_inputs(&[true, true])[pos], m1);
        }
    }

    use max_netlist::Netlist;
    fn signed_bits(v: i64, w: usize) -> Vec<bool> {
        encode_signed(v, w)
    }

    #[test]
    fn garble_with_state_reuses_labels() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        let mut labels = PrgLabelSource::new(Block::new(4));
        let mut garbler = Garbler::new(&mut labels);
        let first = garbler.garble(mac.netlist(), 0);
        let carried: Vec<(usize, Block)> = first
            .output_zero_labels()
            .into_iter()
            .enumerate()
            .map(|(i, l)| (mac.ports().bit_width + i, l))
            .collect();
        let second = garbler.garble_with_state(mac.netlist(), 1000, &carried);
        // The acc_in zero labels of round 2 equal round 1's outputs.
        let g_bits2 = {
            let mut bits = signed_bits(3, 4);
            bits.extend(signed_bits(0, 10)); // value irrelevant for label check
            bits
        };
        let _ = g_bits2;
        let acc_wire_labels: Vec<Block> = (0..10)
            .map(|i| {
                second.encode_garbler_inputs(&{
                    let mut bits = signed_bits(0, 4);
                    bits.extend(vec![false; 10]);
                    bits
                })[4 + i]
            })
            .collect();
        assert_eq!(acc_wire_labels, first.output_zero_labels());
    }
}
