//! Netlist optimization passes.
//!
//! The builder already constant-folds; these passes clean up what emerges
//! from compositional construction:
//!
//! * **Common-subexpression elimination** — duplicate gates (same kind,
//!   same inputs, XOR/AND commutative) collapse to one. Duplicate AND
//!   gates cost real garbled tables, so this directly shrinks GC traffic.
//! * **Dead-gate elimination** — gates whose outputs reach no circuit
//!   output are dropped (e.g. the unused remainder of a divider).
//!
//! Passes preserve input/output interfaces exactly and are verified
//! semantics-preserving by property tests.

use std::collections::HashMap;

use crate::ir::{Gate, GateKind, Netlist, WireId};

/// Statistics of one optimization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Gates removed by common-subexpression elimination.
    pub cse_removed: usize,
    /// Gates removed as dead code.
    pub dead_removed: usize,
}

impl Netlist {
    /// Runs CSE + dead-gate elimination until fixpoint; returns the
    /// optimized netlist and what was removed.
    ///
    /// The wire numbering changes (wires are re-densified); the *interface*
    /// — input order, constant values, output order — is preserved.
    pub fn optimize(&self) -> (Netlist, OptStats) {
        let mut stats = OptStats::default();
        let after_cse = self.eliminate_common_subexpressions(&mut stats);
        let after_dce = after_cse.eliminate_dead_gates(&mut stats);
        (after_dce, stats)
    }

    fn eliminate_common_subexpressions(&self, stats: &mut OptStats) -> Netlist {
        // Map each original wire to its canonical replacement.
        let mut canon: Vec<WireId> = (0..self.wire_count).map(WireId).collect();
        let mut seen: HashMap<(GateKind, u32, u32), WireId> = HashMap::new();
        let mut gates = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let a = canon[gate.a.index()];
            let b = canon[gate.b.index()];
            // Commutative normalization for AND/XOR.
            let (ka, kb) = match gate.kind {
                GateKind::And | GateKind::Xor => {
                    if a.0 <= b.0 {
                        (a.0, b.0)
                    } else {
                        (b.0, a.0)
                    }
                }
                GateKind::Not => (a.0, a.0),
            };
            match seen.get(&(gate.kind, ka, kb)) {
                Some(&existing) => {
                    canon[gate.out.index()] = existing;
                    stats.cse_removed += 1;
                }
                None => {
                    seen.insert((gate.kind, ka, kb), gate.out);
                    gates.push(Gate {
                        kind: gate.kind,
                        a,
                        b,
                        out: gate.out,
                    });
                }
            }
        }
        let outputs = self.outputs.iter().map(|w| canon[w.index()]).collect();
        // Wire ids unchanged (holes allowed until densify).
        Netlist {
            wire_count: self.wire_count,
            garbler_inputs: self.garbler_inputs.clone(),
            evaluator_inputs: self.evaluator_inputs.clone(),
            constants: self.constants.clone(),
            gates,
            outputs,
            levels: Default::default(),
        }
        .densify()
    }

    fn eliminate_dead_gates(&self, stats: &mut OptStats) -> Netlist {
        let mut live = vec![false; self.wire_count as usize];
        for w in &self.outputs {
            live[w.index()] = true;
        }
        // Reverse sweep: a gate is live if its output is.
        let mut keep = vec![false; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate().rev() {
            if live[gate.out.index()] {
                keep[i] = true;
                live[gate.a.index()] = true;
                live[gate.b.index()] = true;
            }
        }
        let removed = keep.iter().filter(|&&k| !k).count();
        stats.dead_removed += removed;
        let gates: Vec<Gate> = self
            .gates
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(g, _)| *g)
            .collect();
        Netlist {
            wire_count: self.wire_count,
            garbler_inputs: self.garbler_inputs.clone(),
            evaluator_inputs: self.evaluator_inputs.clone(),
            constants: self.constants.clone(),
            gates,
            outputs: self.outputs.clone(),
            levels: Default::default(),
        }
        .densify()
    }

    /// Renumbers wires densely (inputs/constants keep their relative order,
    /// then gate outputs in gate order).
    fn densify(&self) -> Netlist {
        let mut remap: Vec<Option<WireId>> = vec![None; self.wire_count as usize];
        let mut next = 0u32;
        let mut assign = |remap: &mut Vec<Option<WireId>>, w: WireId| -> WireId {
            if let Some(mapped) = remap[w.index()] {
                return mapped;
            }
            let mapped = WireId(next);
            next += 1;
            remap[w.index()] = Some(mapped);
            mapped
        };
        let garbler_inputs: Vec<WireId> = self
            .garbler_inputs
            .iter()
            .map(|&w| assign(&mut remap, w))
            .collect();
        let evaluator_inputs: Vec<WireId> = self
            .evaluator_inputs
            .iter()
            .map(|&w| assign(&mut remap, w))
            .collect();
        let constants: Vec<(WireId, bool)> = self
            .constants
            .iter()
            .map(|&(w, v)| (assign(&mut remap, w), v))
            .collect();
        let gates: Vec<Gate> = self
            .gates
            .iter()
            .map(|g| {
                let a = remap[g.a.index()].expect("input before use (topological)");
                let b = remap[g.b.index()].expect("input before use (topological)");
                let out = assign(&mut remap, g.out);
                Gate {
                    kind: g.kind,
                    a,
                    b,
                    out,
                }
            })
            .collect();
        let outputs: Vec<WireId> = self
            .outputs
            .iter()
            .map(|&w| remap[w.index()].expect("outputs are driven"))
            .collect();
        let netlist = Netlist {
            wire_count: next,
            garbler_inputs,
            evaluator_inputs,
            constants,
            gates,
            outputs,
            levels: Default::default(),
        };
        debug_assert!(netlist.validate().is_ok(), "densify broke the netlist");
        netlist
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::Builder;
    use crate::encoding::{decode_unsigned, encode_unsigned};

    #[test]
    fn cse_merges_duplicate_gates() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let a1 = b.and(x, y);
        let a2 = b.and(y, x); // commutative duplicate
        let o = b.xor(a1, a2); // folds to 0 only after CSE identifies a1 == a2
        let netlist = b.build(vec![a1, a2, o]);
        let (opt, stats) = netlist.optimize();
        assert_eq!(stats.cse_removed, 1);
        assert_eq!(opt.stats().and_gates, 1);
        for gx in [false, true] {
            for ey in [false, true] {
                assert_eq!(opt.evaluate(&[gx], &[ey]), netlist.evaluate(&[gx], &[ey]));
            }
        }
    }

    #[test]
    fn dead_gates_removed() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let used = b.xor(x, y);
        let _dead1 = b.and(x, y);
        let dead2 = b.or(x, y);
        let _dead3 = b.not(dead2);
        let netlist = b.build(vec![used]);
        let (opt, stats) = netlist.optimize();
        assert!(stats.dead_removed >= 3, "removed {}", stats.dead_removed);
        assert_eq!(opt.stats().and_gates, 0);
        assert_eq!(opt.evaluate(&[true], &[false]), vec![true]);
    }

    #[test]
    fn divider_quotient_only_sheds_remainder_logic() {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(8);
        let y = b.evaluator_input_bus(8);
        let (q, _r) = b.div_unsigned(&x, &y);
        let netlist = b.build(q.wires().to_vec());
        let before = netlist.stats().and_gates;
        let (opt, _) = netlist.optimize();
        let after = opt.stats().and_gates;
        assert!(after <= before);
        // Semantics preserved.
        for (a, d) in [(200u64, 7u64), (255, 255), (9, 1)] {
            let got = opt.evaluate(&encode_unsigned(a, 8), &encode_unsigned(d, 8));
            assert_eq!(decode_unsigned(&got), a / d);
        }
    }

    #[test]
    fn optimize_preserves_interfaces() {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(4);
        let y = b.evaluator_input_bus(4);
        let s = b.add_expand(&x, &y);
        let netlist = b.build(s.wires().to_vec());
        let (opt, _) = netlist.optimize();
        assert_eq!(opt.garbler_inputs().len(), 4);
        assert_eq!(opt.evaluator_inputs().len(), 4);
        assert_eq!(opt.outputs().len(), 5);
        assert!(opt.validate().is_ok());
    }

    #[test]
    fn optimizing_twice_is_idempotent() {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(6);
        let y = b.evaluator_input_bus(6);
        let p = b.mul(crate::mult::MultiplierKind::Tree, &x, &y);
        let netlist = b.build(p.wires().to_vec());
        let (once, _) = netlist.optimize();
        let (twice, stats2) = once.optimize();
        assert_eq!(stats2.cse_removed, 0);
        assert_eq!(stats2.dead_removed, 0);
        assert_eq!(once.stats(), twice.stats());
    }
}
