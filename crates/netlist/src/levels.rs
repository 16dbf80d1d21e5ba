//! The AND-level plan of a netlist: its gates regrouped into dependency
//! levels so a garbled-circuit back-end can hash every AND gate of a level
//! in one wide AES sweep.
//!
//! Netlist order interleaves free and AND gates, so a walk that batches
//! independent ANDs "until something reads a pending output" flushes after
//! one or two gates (119 times for the b = 8 MAC). Grouping by AND-depth
//! instead yields one batch per level (25 for that MAC). Only the *order of
//! work* changes: each AND keeps its netlist gate index and its ordinal among
//! the AND gates, so table positions and tweaks are those of netlist order.

use max_crypto::{AndGate, FreeGate, GatePlan};

use crate::ir::{GateKind, Netlist};

/// Groups `netlist`'s gates by AND-depth into a [`GatePlan`], checked
/// against its wire count. Every gate lands in exactly one level: a
/// level's free gates are the XOR/NOT gates whose output has AND-depth
/// `k`, in netlist order (they may read one another, and the AND outputs
/// of level `k − 1`); its AND gates are those whose deepest input has
/// AND-depth `k`, in netlist order and mutually independent. Walking the
/// levels in order, free gates before AND gates, respects every
/// dependency.
pub(crate) fn levelize(netlist: &Netlist) -> GatePlan {
    let mut depth = vec![0u32; netlist.wire_count()];
    let mut levels: Vec<(Vec<FreeGate>, Vec<AndGate>)> = Vec::new();
    let mut ordinal = 0u32;
    for (index, gate) in netlist.gates().iter().enumerate() {
        let d = depth[gate.a.index()].max(depth[gate.b.index()]);
        if levels.len() <= d as usize {
            levels.resize_with(d as usize + 1, Default::default);
        }
        let (free, ands) = &mut levels[d as usize];
        if gate.kind == GateKind::And {
            ands.push(AndGate {
                a: gate.a.0,
                b: gate.b.0,
                out: gate.out.0,
                gate: index as u32,
                ordinal,
            });
            ordinal += 1;
            depth[gate.out.index()] = d + 1;
        } else {
            free.push(FreeGate {
                a: gate.a.0,
                b: gate.b.0,
                out: gate.out.0,
                not: gate.kind == GateKind::Not,
            });
            depth[gate.out.index()] = d;
        }
    }
    GatePlan::new(netlist.wire_count(), levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, MacCircuit, MultiplierKind, Sign};

    /// Every gate exactly once, every read already written, ANDs of a level
    /// mutually independent, positions as in netlist order.
    fn assert_plan_is_sound(netlist: &Netlist) {
        let mut ready = vec![false; netlist.wire_count()];
        for wire in netlist
            .garbler_inputs()
            .iter()
            .chain(netlist.evaluator_inputs())
            .chain(netlist.constants().iter().map(|(w, _)| w))
        {
            ready[wire.index()] = true;
        }
        let mut seen = vec![false; netlist.gates().len()];
        let mut ordinals = Vec::new();
        for (free, ands) in netlist.gate_plan().levels() {
            for gate in free {
                assert!(ready[gate.a as usize] && ready[gate.b as usize]);
                ready[gate.out as usize] = true;
                let index = netlist
                    .gates()
                    .iter()
                    .position(|g| g.out.0 == gate.out)
                    .unwrap();
                let g = netlist.gates()[index];
                let kind = if gate.not {
                    GateKind::Not
                } else {
                    GateKind::Xor
                };
                assert_eq!((g.kind, g.a.0, g.b.0), (kind, gate.a, gate.b));
                assert!(!std::mem::replace(&mut seen[index], true));
            }
            // Reads are checked for the whole level before any of its
            // outputs is marked: no AND of a level reads another's output.
            for and in ands {
                assert!(ready[and.a as usize] && ready[and.b as usize]);
            }
            for and in ands {
                let gate = netlist.gates()[and.gate as usize];
                assert_eq!(
                    (gate.kind, gate.a.0, gate.b.0, gate.out.0),
                    (GateKind::And, and.a, and.b, and.out)
                );
                ready[and.out as usize] = true;
                assert!(!std::mem::replace(&mut seen[and.gate as usize], true));
                ordinals.push((and.gate, and.ordinal));
            }
        }
        assert!(seen.iter().all(|&s| s), "a gate is missing from the plan");
        ordinals.sort_unstable();
        for (expected, &(_, ordinal)) in ordinals.iter().enumerate() {
            assert_eq!(ordinal as usize, expected, "ordinals follow netlist order");
        }
    }

    #[test]
    fn mac_plans_are_sound_for_every_width_and_sign() {
        for b in [4, 8, 16] {
            for sign in [Sign::Signed, Sign::Unsigned] {
                let mac = MacCircuit::build(b, 2 * b + 8, sign, MultiplierKind::Tree);
                assert_plan_is_sound(mac.netlist());
            }
        }
    }

    #[test]
    fn mac_b8_plan_shape_is_pinned() {
        let mac = MacCircuit::build(8, 24, Sign::Signed, MultiplierKind::Tree);
        let plan = mac.netlist().gate_plan();
        let and_levels = plan.levels().filter(|(_, ands)| !ands.is_empty()).count();
        assert_eq!((and_levels, plan.tables()), (25, 182));
        assert_eq!(plan.wires(), mac.netlist().wire_count());
    }

    #[test]
    fn gate_free_netlist_has_no_levels() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let netlist = b.build(vec![x]);
        assert_eq!(netlist.gate_plan().levels().len(), 0);
    }
}
