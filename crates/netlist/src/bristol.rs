//! Bristol-fashion netlist interchange.
//!
//! The de-facto exchange format of the MPC community ("Bristol fashion",
//! as used by SCALE-MAMBA, MP-SPDZ, emp-toolkit …):
//!
//! ```text
//! <ngates> <nwires>
//! <niv> <n_in_1> <n_in_2> ...        // input bundles (party 1 = garbler)
//! <nov> <n_out_1> ...                // output bundles
//!
//! 2 1 <a> <b> <out> AND
//! 2 1 <a> <b> <out> XOR
//! 1 1 <a> <out> INV
//! ```
//!
//! Export lets other GC frameworks evaluate our MAC netlists; import lets
//! this stack garble community-standard circuits.

use std::fmt::Write as _;

use crate::builder::Builder;
use crate::ir::{GateKind, Netlist, WireId};

/// Error parsing a Bristol-fashion circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBristolError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseBristolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bristol parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseBristolError {}

/// Exports a netlist in Bristol fashion with two input bundles
/// (garbler, evaluator) and one output bundle.
///
/// Public constants (which the format cannot express) are lowered first:
/// `0 = w ⊕ w` and `1 = ¬0` synthesized from the first input wire.
///
/// # Errors
///
/// Returns a message if the netlist has constants but no input wire to
/// lower them from, or violates a Bristol structural convention
/// (duplicate/input outputs).
pub fn export(netlist: &Netlist) -> Result<String, String> {
    let lowered;
    let netlist = if netlist.constants().is_empty() {
        netlist
    } else {
        lowered = lower_constants(netlist)?;
        &lowered
    };
    // Bristol conventions: inputs are wires 0.., outputs are the
    // highest-numbered wires in output order. Build the relabeling.
    let nwires = netlist.wire_count();
    let n_outputs = netlist.outputs().len();
    let mut relabel: Vec<Option<u32>> = vec![None; nwires];
    {
        let mut output_set = std::collections::HashSet::new();
        for (pos, out) in netlist.outputs().iter().enumerate() {
            if !output_set.insert(out.0) {
                return Err("bristol fashion cannot express duplicate output wires".to_string());
            }
            relabel[out.index()] = Some((nwires - n_outputs + pos) as u32);
        }
        // Inputs occupy wires 0.. in bundle order (garbler then evaluator).
        let mut next = 0u32;
        for input in netlist
            .garbler_inputs()
            .iter()
            .chain(netlist.evaluator_inputs())
        {
            if relabel[input.index()].is_some() {
                return Err(
                    "bristol fashion cannot express an input that is also an output".to_string(),
                );
            }
            relabel[input.index()] = Some(next);
            next += 1;
        }
        for slot in relabel.iter_mut() {
            if slot.is_none() {
                *slot = Some(next);
                next += 1;
            }
        }
        debug_assert_eq!(next as usize, nwires - n_outputs);
    }
    let id = |w: WireId| relabel[w.index()].expect("every wire relabeled");

    let mut text = String::new();
    let ngates = netlist.gates().len();
    writeln!(text, "{ngates} {nwires}").expect("string write");
    writeln!(
        text,
        "2 {} {}",
        netlist.garbler_inputs().len(),
        netlist.evaluator_inputs().len()
    )
    .expect("string write");
    writeln!(text, "1 {}", n_outputs).expect("string write");
    writeln!(text).expect("string write");
    for gate in netlist.gates() {
        match gate.kind {
            GateKind::And => writeln!(
                text,
                "2 1 {} {} {} AND",
                id(gate.a),
                id(gate.b),
                id(gate.out)
            ),
            GateKind::Xor => writeln!(
                text,
                "2 1 {} {} {} XOR",
                id(gate.a),
                id(gate.b),
                id(gate.out)
            ),
            GateKind::Not => writeln!(text, "1 1 {} {} INV", id(gate.a), id(gate.out)),
        }
        .expect("string write");
    }
    Ok(text)
}

/// Imports a Bristol-fashion circuit with one or two input bundles (bundle
/// 1 → garbler, bundle 2 → evaluator) and one output bundle whose wires are
/// the highest-numbered, per the format convention.
///
/// # Errors
///
/// Returns [`ParseBristolError`] on any malformed content.
pub fn import(text: &str) -> Result<Netlist, ParseBristolError> {
    let err = |line: usize, message: &str| ParseBristolError {
        line,
        message: message.to_string(),
    };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty());

    let (l1, header) = lines.next().ok_or_else(|| err(1, "missing header"))?;
    let mut header_parts = header.split_whitespace();
    let ngates: usize = header_parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(l1, "bad gate count"))?;
    let nwires: usize = header_parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(l1, "bad wire count"))?;

    let (l2, inputs_line) = lines
        .next()
        .ok_or_else(|| err(l1, "missing input header"))?;
    let input_counts: Vec<usize> = inputs_line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().map_err(|_| err(l2, "bad input bundle size")))
        .collect::<Result<_, _>>()?;
    let declared_bundles: usize = inputs_line
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(l2, "bad input bundle count"))?;
    if declared_bundles != input_counts.len() || input_counts.is_empty() || input_counts.len() > 2 {
        return Err(err(l2, "expected 1 or 2 input bundles"));
    }

    let (l3, outputs_line) = lines
        .next()
        .ok_or_else(|| err(l2, "missing output header"))?;
    let output_counts: Vec<usize> = outputs_line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().map_err(|_| err(l3, "bad output bundle size")))
        .collect::<Result<_, _>>()?;
    if output_counts.len() != 1 {
        return Err(err(l3, "expected exactly 1 output bundle"));
    }
    let n_outputs = output_counts[0];
    if n_outputs > nwires {
        return Err(err(l3, "more outputs than wires"));
    }

    let garbler_in = input_counts[0];
    let evaluator_in = *input_counts.get(1).unwrap_or(&0);
    if garbler_in + evaluator_in > nwires {
        return Err(err(l2, "more inputs than wires"));
    }

    let mut builder = Builder::new();
    // Imported wire id → our wire id. Bristol inputs are wires 0..n_in.
    let mut map: Vec<Option<WireId>> = vec![None; nwires];
    for slot in map.iter_mut().take(garbler_in) {
        *slot = Some(builder.garbler_input());
    }
    for slot in map.iter_mut().skip(garbler_in).take(evaluator_in) {
        *slot = Some(builder.evaluator_input());
    }

    let mut gates_seen = 0usize;
    for (lineno, line) in lines {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 4 {
            return Err(err(lineno, "short gate line"));
        }
        let kind = *tokens.last().expect("checked length");
        let parse_wire = |t: &str| -> Result<usize, ParseBristolError> {
            let w: usize = t.parse().map_err(|_| err(lineno, "bad wire id"))?;
            if w >= nwires {
                return Err(err(lineno, "wire id out of range"));
            }
            Ok(w)
        };
        let resolve = |map: &[Option<WireId>], w: usize| -> Result<WireId, ParseBristolError> {
            map[w].ok_or_else(|| err(lineno, "gate reads undriven wire"))
        };
        match kind {
            "AND" | "XOR" => {
                if tokens.len() != 6 || tokens[0] != "2" || tokens[1] != "1" {
                    return Err(err(lineno, "malformed 2-input gate"));
                }
                let a = resolve(&map, parse_wire(tokens[2])?)?;
                let b = resolve(&map, parse_wire(tokens[3])?)?;
                let out = parse_wire(tokens[4])?;
                let new = if kind == "AND" {
                    builder.and(a, b)
                } else {
                    builder.xor(a, b)
                };
                if map[out].is_some() {
                    return Err(err(lineno, "wire driven twice"));
                }
                map[out] = Some(new);
            }
            "INV" | "NOT" => {
                if tokens.len() != 5 || tokens[0] != "1" || tokens[1] != "1" {
                    return Err(err(lineno, "malformed inverter"));
                }
                let a = resolve(&map, parse_wire(tokens[2])?)?;
                let out = parse_wire(tokens[3])?;
                if map[out].is_some() {
                    return Err(err(lineno, "wire driven twice"));
                }
                map[out] = Some(builder.not(a));
            }
            other => return Err(err(lineno, &format!("unsupported gate {other}"))),
        }
        gates_seen += 1;
    }
    if gates_seen != ngates {
        return Err(err(
            0,
            &format!("header declared {ngates} gates, found {gates_seen}"),
        ));
    }
    // Outputs: the highest-numbered wires.
    let outputs: Result<Vec<WireId>, ParseBristolError> = (nwires - n_outputs..nwires)
        .map(|w| map[w].ok_or_else(|| err(0, "output wire undriven")))
        .collect();
    Ok(builder.build(outputs?))
}

/// Rewrites a netlist's constant wires as gates on the first input wire:
/// `zero = w ⊕ w`, `one = ¬zero`.
fn lower_constants(netlist: &Netlist) -> Result<Netlist, String> {
    let seed_wire = netlist
        .garbler_inputs()
        .first()
        .or_else(|| netlist.evaluator_inputs().first())
        .copied()
        .ok_or_else(|| "cannot lower constants without any input wire".to_string())?;
    let mut builder = Builder::new();
    let mut map: Vec<Option<WireId>> = vec![None; netlist.wire_count()];
    for wire in netlist.garbler_inputs() {
        map[wire.index()] = Some(builder.garbler_input());
    }
    for wire in netlist.evaluator_inputs() {
        map[wire.index()] = Some(builder.evaluator_input());
    }
    // Constants become synthesized gates. The Builder would fold
    // `xor(w, w)` straight back into a constant wire, so the gates are
    // emitted through a raw (non-folding) emitter instead.
    let seed = map[seed_wire.index()].expect("seed is an input");
    let mut raw = RawEmitter::new(builder);
    let zero = raw.xor_raw(seed, seed);
    let one = raw.not_raw(zero);
    for &(wire, value) in netlist.constants() {
        map[wire.index()] = Some(if value { one } else { zero });
    }
    for gate in netlist.gates() {
        let a = map[gate.a.index()].ok_or("gate reads unmapped wire")?;
        let b = map[gate.b.index()].ok_or("gate reads unmapped wire")?;
        let out = match gate.kind {
            GateKind::And => raw.and_raw(a, b),
            GateKind::Xor => raw.xor_raw(a, b),
            GateKind::Not => raw.not_raw(a),
        };
        map[gate.out.index()] = Some(out);
    }
    let outputs: Result<Vec<WireId>, String> = netlist
        .outputs()
        .iter()
        .map(|w| map[w.index()].ok_or_else(|| "output unmapped".to_string()))
        .collect();
    Ok(raw.finish(outputs?))
}

/// Emits gates without the [`Builder`]'s constant folding (folding would
/// re-create the constants being lowered).
struct RawEmitter {
    wire_count: u32,
    garbler_inputs: Vec<WireId>,
    evaluator_inputs: Vec<WireId>,
    gates: Vec<crate::ir::Gate>,
}

impl RawEmitter {
    fn new(builder: Builder) -> Self {
        // Recover the inputs the builder declared; it has no gates yet.
        let probe = builder.build(Vec::new());
        RawEmitter {
            wire_count: probe.wire_count() as u32,
            garbler_inputs: probe.garbler_inputs().to_vec(),
            evaluator_inputs: probe.evaluator_inputs().to_vec(),
            gates: Vec::new(),
        }
    }

    fn fresh(&mut self) -> WireId {
        let w = WireId(self.wire_count);
        self.wire_count += 1;
        w
    }

    fn and_raw(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(crate::ir::Gate {
            kind: GateKind::And,
            a,
            b,
            out,
        });
        out
    }

    fn xor_raw(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(crate::ir::Gate {
            kind: GateKind::Xor,
            a,
            b,
            out,
        });
        out
    }

    fn not_raw(&mut self, a: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(crate::ir::Gate {
            kind: GateKind::Not,
            a,
            b: a,
            out,
        });
        out
    }

    fn finish(self, outputs: Vec<WireId>) -> Netlist {
        let netlist = Netlist {
            wire_count: self.wire_count,
            garbler_inputs: self.garbler_inputs,
            evaluator_inputs: self.evaluator_inputs,
            constants: Vec::new(),
            gates: self.gates,
            outputs,
            levels: Default::default(),
        };
        debug_assert!(
            netlist.validate().is_ok(),
            "constant lowering broke the netlist"
        );
        netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_unsigned, encode_unsigned};

    fn adder_netlist(width: usize) -> Netlist {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(width);
        let y = b.evaluator_input_bus(width);
        // Carry-free low bit keeps the constant-zero wire out of the
        // netlist (Bristol has no constants): use full adders seeded with
        // an explicit wire.
        let sum = {
            // add_with_carry would introduce the shared zero constant; do a
            // constant-free ripple instead.
            let mut out = Vec::with_capacity(width);
            let mut carry: Option<crate::ir::WireId> = None;
            for i in 0..width {
                let (s, c) = match carry {
                    None => {
                        let s = b.xor(x.bit(i), y.bit(i));
                        let c = b.and(x.bit(i), y.bit(i));
                        (s, c)
                    }
                    Some(cin) => b.full_adder(x.bit(i), y.bit(i), cin),
                };
                out.push(s);
                carry = Some(c);
            }
            out.push(carry.expect("width > 0"));
            out
        };
        b.build(sum)
    }

    #[test]
    fn export_then_import_round_trips_semantics() {
        let netlist = adder_netlist(6);
        let text = export(&netlist).expect("no constants");
        let imported = import(&text).expect("parses");
        assert_eq!(
            imported.garbler_inputs().len(),
            netlist.garbler_inputs().len()
        );
        for (a, b) in [(13u64, 50u64), (63, 63), (0, 0), (1, 62)] {
            let want = netlist.evaluate(&encode_unsigned(a, 6), &encode_unsigned(b, 6));
            let got = imported.evaluate(&encode_unsigned(a, 6), &encode_unsigned(b, 6));
            assert_eq!(decode_unsigned(&got), decode_unsigned(&want));
            assert_eq!(decode_unsigned(&got), a + b);
        }
    }

    #[test]
    fn export_lowers_constants() {
        // A circuit that genuinely keeps a constant wire: output the
        // constant directly alongside real logic.
        let mut b = Builder::new();
        let x = b.garbler_input_bus(4);
        let y = b.evaluator_input_bus(4);
        let p = b.mul(crate::mult::MultiplierKind::Tree, &x, &y);
        let netlist = b.build(p.wires().to_vec());
        assert!(
            !netlist.constants().is_empty(),
            "tree mult uses the zero wire"
        );
        let text = export(&netlist).expect("constants are lowered");
        let imported = import(&text).expect("parses");
        for (a, c) in [(5u64, 9u64), (15, 15), (0, 7)] {
            let got = imported.evaluate(&encode_unsigned(a, 4), &encode_unsigned(c, 4));
            assert_eq!(decode_unsigned(&got), a * c, "{a}*{c}");
        }
    }

    #[test]
    fn export_without_inputs_and_with_constants_errors() {
        let mut b = Builder::new();
        let k = b.constant(true);
        let netlist = b.build(vec![k]);
        assert!(export(&netlist).is_err());
    }

    #[test]
    fn imports_a_hand_written_circuit() {
        // out = (a AND b) XOR (NOT a): 2 inputs, 3 gates, 5 wires.
        let text = "3 5\n2 1 1\n1 1\n\n2 1 0 1 2 AND\n1 1 0 3 INV\n2 1 2 3 4 XOR\n";
        let netlist = import(text).expect("parses");
        for a in [false, true] {
            for b in [false, true] {
                let got = netlist.evaluate(&[a], &[b]);
                assert_eq!(got, vec![(a && b) ^ !a], "a={a} b={b}");
            }
        }
    }

    #[test]
    fn import_rejects_malformed_inputs() {
        assert!(import("").is_err());
        assert!(import("1 3\n2 1 1\n1 1\n\n2 1 0 1 2 NAND\n").is_err());
        assert!(import("1 3\n2 1 1\n1 1\n\n2 1 0 9 2 AND\n").is_err()); // out of range
        assert!(import("2 3\n2 1 1\n1 1\n\n2 1 0 1 2 AND\n").is_err()); // count mismatch
    }

    #[test]
    fn import_rejects_double_driven_wires() {
        let text = "2 4\n2 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 0 1 3 XOR\n";
        let result = import(text);
        assert!(result.is_err());
        assert!(result.unwrap_err().message.contains("driven twice"));
    }

    #[test]
    fn garbling_an_imported_circuit_works() {
        // The imported netlist slots straight into the GC stack via the
        // shared IR; check by plaintext equivalence + validation here (the
        // GC path is covered by max-gc's generic netlist tests).
        let netlist = import("3 5\n2 1 1\n1 1\n\n2 1 0 1 2 AND\n1 1 0 3 INV\n2 1 2 3 4 XOR\n")
            .expect("parses");
        assert!(netlist.validate().is_ok());
    }
}
