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

use crate::ir::{Gate, GateKind, Netlist, WireId};

/// One AND gate of a [`Level`], with the two positions garbling schemes
/// number it by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelAnd {
    /// First input wire.
    pub a: WireId,
    /// Second input wire.
    pub b: WireId,
    /// Output wire.
    pub out: WireId,
    /// Index of the gate in [`Netlist::gates`].
    pub gate: u32,
    /// Ordinal among the netlist's AND gates — its garbled table's position.
    pub ordinal: u32,
}

/// One dependency level: wires of AND-depth `k` are complete once `free` has
/// run, and `ands` then reads only such wires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Level {
    /// XOR/NOT gates whose output has AND-depth `k`, in netlist order (they
    /// may read one another, and the AND outputs of level `k - 1`).
    pub free: Vec<Gate>,
    /// AND gates whose deepest input has AND-depth `k`, in netlist order;
    /// mutually independent.
    pub ands: Vec<LevelAnd>,
}

/// Groups `netlist`'s gates by AND-depth. Every gate lands in exactly one
/// level; walking levels in order, `free` before `ands`, respects every
/// dependency.
pub(crate) fn levelize(netlist: &Netlist) -> Vec<Level> {
    let mut depth = vec![0u32; netlist.wire_count()];
    let mut levels: Vec<Level> = Vec::new();
    let mut ordinal = 0u32;
    for (index, gate) in netlist.gates().iter().enumerate() {
        let d = depth[gate.a.index()].max(depth[gate.b.index()]);
        if levels.len() <= d as usize {
            levels.resize_with(d as usize + 1, Level::default);
        }
        let level = &mut levels[d as usize];
        if gate.kind == GateKind::And {
            level.ands.push(LevelAnd {
                a: gate.a,
                b: gate.b,
                out: gate.out,
                gate: index as u32,
                ordinal,
            });
            ordinal += 1;
            depth[gate.out.index()] = d + 1;
        } else {
            level.free.push(*gate);
            depth[gate.out.index()] = d;
        }
    }
    levels
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
        for level in netlist.levels() {
            for gate in &level.free {
                assert_ne!(gate.kind, GateKind::And);
                assert!(ready[gate.a.index()] && ready[gate.b.index()]);
                ready[gate.out.index()] = true;
                let index = netlist.gates().iter().position(|g| g == gate).unwrap();
                assert!(!std::mem::replace(&mut seen[index], true));
            }
            // Reads are checked for the whole level before any of its
            // outputs is marked: no AND of a level reads another's output.
            for and in &level.ands {
                assert!(ready[and.a.index()] && ready[and.b.index()]);
            }
            for and in &level.ands {
                let gate = netlist.gates()[and.gate as usize];
                assert_eq!(
                    (gate.kind, gate.a, gate.b, gate.out),
                    (GateKind::And, and.a, and.b, and.out)
                );
                ready[and.out.index()] = true;
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
        let levels = mac.netlist().levels();
        let and_levels = levels.iter().filter(|l| !l.ands.is_empty()).count();
        let ands: usize = levels.iter().map(|l| l.ands.len()).sum();
        assert_eq!((and_levels, ands), (25, 182));
    }

    #[test]
    fn gate_free_netlist_has_no_levels() {
        let mut b = Builder::new();
        let x = b.garbler_input();
        let netlist = b.build(vec![x]);
        assert!(netlist.levels().is_empty());
    }
}
