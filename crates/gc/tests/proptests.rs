//! Property tests: garbled evaluation must agree with plaintext evaluation
//! on randomly generated circuits and inputs.

use max_crypto::{AesBackend, AesPrg, AndGate, BatchScratch, Block, FixedKeyHash, Tweak};
use max_gc::{
    evaluate_and, garble_and, Evaluator, GarbledCircuit, GarbledTable, Garbler, PrgLabelSource,
};
use max_netlist::{Builder, GateKind, MacCircuit, MultiplierKind, Netlist, Sign, WireId};
use proptest::prelude::*;

/// A recipe for one random gate.
#[derive(Clone, Debug)]
enum GateRecipe {
    And(usize, usize),
    Xor(usize, usize),
    Not(usize),
    Or(usize, usize),
    Mux(usize, usize, usize),
}

fn gate_recipe() -> impl Strategy<Value = GateRecipe> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::Xor(a, b)),
        any::<usize>().prop_map(GateRecipe::Not),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::Or(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(s, t, e)| GateRecipe::Mux(s, t, e)),
    ]
}

/// Builds a random netlist from recipes; every intermediate wire is kept as
/// a candidate operand so deep structures arise naturally.
fn build_random(
    g_inputs: usize,
    e_inputs: usize,
    recipes: &[GateRecipe],
    n_outputs: usize,
) -> Netlist {
    let mut b = Builder::new();
    let mut pool: Vec<WireId> = Vec::new();
    for _ in 0..g_inputs {
        pool.push(b.garbler_input());
    }
    for _ in 0..e_inputs {
        pool.push(b.evaluator_input());
    }
    for recipe in recipes {
        let pick = |i: &usize| pool[i % pool.len()];
        let w = match recipe {
            GateRecipe::And(x, y) => {
                let (x, y) = (pick(x), pick(y));
                b.and(x, y)
            }
            GateRecipe::Xor(x, y) => {
                let (x, y) = (pick(x), pick(y));
                b.xor(x, y)
            }
            GateRecipe::Not(x) => {
                let x = pick(x);
                b.not(x)
            }
            GateRecipe::Or(x, y) => {
                let (x, y) = (pick(x), pick(y));
                b.or(x, y)
            }
            GateRecipe::Mux(s, t, e) => {
                let (s, t, e) = (pick(s), pick(t), pick(e));
                b.mux(s, t, e)
            }
        };
        pool.push(w);
    }
    let outputs: Vec<WireId> = pool.iter().rev().take(n_outputs).copied().collect();
    b.build(outputs)
}

/// Gate-at-a-time reference for the levelized garbler and evaluator: walks
/// `netlist.gates()` in netlist order with one `garble_and` and one
/// `evaluate_and` per AND gate, starting from `garbled`'s own input labels.
/// Returns the tables, the output zero-labels and the active output labels.
fn reference_walk(
    netlist: &Netlist,
    garbled: &GarbledCircuit,
    g_bits: &[bool],
    e_bits: &[bool],
    tweak_base: u64,
) -> (Vec<max_gc::GarbledTable>, Vec<Block>, Vec<Block>) {
    let hash = FixedKeyHash::new();
    let delta = garbled.delta();
    let mut zero = vec![Block::ZERO; netlist.wire_count()];
    let mut active = vec![Block::ZERO; netlist.wire_count()];
    let g_zero = garbled.encode_garbler_inputs(&vec![false; g_bits.len()]);
    let g_active = garbled.encode_garbler_inputs(g_bits);
    let n_g = netlist.garbler_inputs().len();
    for (i, wire) in netlist.garbler_inputs().iter().enumerate() {
        zero[wire.index()] = g_zero[i];
        active[wire.index()] = g_active[i];
    }
    for (i, &(wire, value)) in netlist.constants().iter().enumerate() {
        active[wire.index()] = g_active[n_g + i];
        zero[wire.index()] = if value {
            delta.one_label(g_active[n_g + i])
        } else {
            g_active[n_g + i]
        };
    }
    let e_active = garbled.encode_evaluator_inputs(e_bits);
    for (i, wire) in netlist.evaluator_inputs().iter().enumerate() {
        zero[wire.index()] = garbled.evaluator_label_pair(i).0;
        active[wire.index()] = e_active[i];
    }
    let mut tables = Vec::new();
    for gate in netlist.gates() {
        let (a, b, out) = (gate.a.index(), gate.b.index(), gate.out.index());
        match gate.kind {
            GateKind::And => {
                let tweak = Tweak::from_gate_index(tweak_base + tables.len() as u64);
                let (c0, table) = garble_and(&hash, delta, zero[a], zero[b], tweak);
                zero[out] = c0;
                active[out] = evaluate_and(&hash, table, active[a], active[b], tweak);
                tables.push(table);
            }
            GateKind::Xor => {
                zero[out] = zero[a] ^ zero[b];
                active[out] = active[a] ^ active[b];
            }
            GateKind::Not => {
                zero[out] = delta.one_label(zero[a]);
                active[out] = active[a];
            }
        }
    }
    let outputs = |labels: &[Block]| -> Vec<Block> {
        netlist
            .outputs()
            .iter()
            .map(|w| labels[w.index()])
            .collect()
    };
    (tables, outputs(&zero), outputs(&active))
}

/// A netlist of `layers` levels of AND gates, each AND reading two wires of
/// the layer before (so AND-of-AND chains run the whole depth), with one
/// XOR and one NOT between layers; at most 300 gates.
fn layered(inputs: usize, layers: &[(usize, u64)]) -> Netlist {
    let mut b = Builder::new();
    let mut last: Vec<WireId> = (0..inputs)
        .map(|i| {
            if i % 2 == 0 {
                b.garbler_input()
            } else {
                b.evaluator_input()
            }
        })
        .collect();
    let mut gates = 0;
    for &(width, seed) in layers {
        let mut picks = AesPrg::new(Block::new(u128::from(seed)));
        let mut pick = |pool: &[WireId]| pool[picks.next_block().bits() as usize % pool.len()];
        let mixed = b.xor(pick(&last), pick(&last));
        let flipped = b.not(pick(&last));
        last.extend([mixed, flipped]);
        let mut next = Vec::with_capacity(width);
        for _ in 0..width.min(298usize.saturating_sub(gates)) {
            next.push(b.and(pick(&last), pick(&last)));
        }
        gates += 2 + next.len();
        if next.is_empty() {
            break;
        }
        last = next;
    }
    b.build(last)
}

/// Garbles `netlist` on every arm this CPU has, into decoded and wire-order
/// tables, and evaluates it from both on inputs picked by `seed`; every
/// arm's tables, zero-labels and active labels must be the software arm's.
fn arms_agree(netlist: &Netlist, seed: u64) {
    let hash = FixedKeyHash::new();
    let plan = netlist.gate_plan();
    let mut prg = AesPrg::new(Block::new(u128::from(seed)));
    let delta = prg.next_block().with_lsb(true);
    let (elem, round) = (seed as u32, (seed >> 32) as u32);
    let tweak = |and: &AndGate| Tweak::new(elem, round, 0, and.gate, 0);
    let inputs: Vec<usize> = netlist
        .garbler_inputs()
        .iter()
        .chain(netlist.evaluator_inputs())
        .chain(netlist.constants().iter().map(|(w, _)| w))
        .map(|w| w.index())
        .collect();
    let mut zero = vec![Block::ZERO; plan.wires()];
    let mut active = vec![Block::ZERO; plan.wires()];
    for &wire in &inputs {
        zero[wire] = prg.next_block();
        active[wire] = if prg.next_block().lsb() {
            zero[wire] ^ delta
        } else {
            zero[wire]
        };
    }
    let mut scratch = BatchScratch::default();
    let mut reference = None;
    let mut arms = vec![AesBackend::Software];
    if AesBackend::aesni_available() {
        arms.push(AesBackend::AesNi);
    }
    for arm in arms {
        let (mut z, mut z_wire) = (zero.clone(), zero.clone());
        let mut decoded = vec![GarbledTable::default(); plan.tables()];
        let mut wire = vec![[0u8; 32]; plan.tables()];
        plan.garble_on(arm, &hash, delta, tweak, &mut z, &mut decoded, &mut scratch);
        plan.garble_on(
            arm,
            &hash,
            delta,
            tweak,
            &mut z_wire,
            &mut wire,
            &mut scratch,
        );
        prop_assert_eq!(&z, &z_wire);
        prop_assert!(decoded.iter().zip(&wire).all(|(d, w)| d.to_bytes() == *w));
        let (mut a, mut a_wire) = (active.clone(), active.clone());
        plan.evaluate_on(arm, &hash, &decoded, tweak, &mut a, &mut scratch);
        plan.evaluate_on(arm, &hash, &wire, tweak, &mut a_wire, &mut scratch);
        prop_assert_eq!(&a, &a_wire);
        // Honest evaluation lands on one of each output's two labels.
        for w in netlist.outputs() {
            prop_assert!(a[w.index()] == z[w.index()] || a[w.index()] == z[w.index()] ^ delta);
        }
        let run = (z, decoded, a);
        match &reference {
            None => reference = Some(run),
            Some(software) => prop_assert!(&run == software, "{:?} differs from software", arm),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_arm_matches_the_software_arm_on_random_levels(
        inputs in 2usize..17,
        layers in prop::collection::vec((1usize..65, any::<u64>()), 1..8),
        recipes in prop::collection::vec(gate_recipe(), 1..300),
        seed: u64,
    ) {
        arms_agree(&layered(inputs, &layers), seed);
        arms_agree(&build_random(3, 3, &recipes, 4), seed);
    }

    #[test]
    fn every_arm_matches_the_software_arm_on_the_mac(
        width in 0usize..4,
        signed: bool,
        seed: u64,
    ) {
        let b = [4, 8, 16, 32][width];
        let sign = if signed { Sign::Signed } else { Sign::Unsigned };
        let mac = MacCircuit::build(b, 2 * b + 8, sign, MultiplierKind::Tree);
        arms_agree(mac.netlist(), seed);
    }

    #[test]
    fn levelized_walks_match_a_gate_at_a_time_reference(
        g_inputs in 1usize..6,
        e_inputs in 1usize..6,
        recipes in prop::collection::vec(gate_recipe(), 1..60),
        g_bits in prop::collection::vec(any::<bool>(), 6),
        e_bits in prop::collection::vec(any::<bool>(), 6),
        seed: u128,
        tweak_base in 0u64..1 << 40,
    ) {
        let netlist = build_random(g_inputs, e_inputs, &recipes, 3);
        let (g_bits, e_bits) = (&g_bits[..g_inputs], &e_bits[..e_inputs]);
        let mut labels = PrgLabelSource::new(Block::new(seed));
        let garbled = Garbler::new(&mut labels).garble(&netlist, tweak_base);
        let (tables, zero_out, active_out) =
            reference_walk(&netlist, &garbled, g_bits, e_bits, tweak_base);
        prop_assert_eq!(&garbled.material().tables, &tables);
        prop_assert_eq!(garbled.output_zero_labels(), zero_out);
        let out = Evaluator::new().evaluate(
            &netlist,
            garbled.material(),
            &garbled.encode_garbler_inputs(g_bits),
            &garbled.encode_evaluator_inputs(e_bits),
            tweak_base,
        );
        prop_assert_eq!(out, active_out);
    }

    #[test]
    fn level_plan_covers_every_gate_once_with_independent_and_batches(
        recipes in prop::collection::vec(gate_recipe(), 1..60),
    ) {
        let netlist = build_random(3, 3, &recipes, 2);
        let mut written = vec![false; netlist.wire_count()];
        let inputs = netlist.garbler_inputs().iter().chain(netlist.evaluator_inputs());
        for wire in inputs.chain(netlist.constants().iter().map(|(w, _)| w)) {
            written[wire.index()] = true;
        }
        let mut gates = 0;
        for (free, ands) in netlist.gate_plan().levels() {
            for gate in free {
                prop_assert!(written[gate.a as usize] && written[gate.b as usize]);
                prop_assert!(!std::mem::replace(&mut written[gate.out as usize], true));
            }
            // Every read of the batch is checked before any of its outputs
            // is marked: no AND reads an AND output of its own level.
            for and in ands {
                prop_assert!(written[and.a as usize] && written[and.b as usize]);
                prop_assert_eq!(netlist.gates()[and.gate as usize].out.0, and.out);
            }
            for and in ands {
                prop_assert!(!std::mem::replace(&mut written[and.out as usize], true));
            }
            gates += free.len() + ands.len();
        }
        prop_assert_eq!(gates, netlist.gates().len());
    }

    #[test]
    fn garbling_matches_plaintext(
        g_inputs in 1usize..6,
        e_inputs in 1usize..6,
        recipes in prop::collection::vec(gate_recipe(), 1..60),
        g_bits in prop::collection::vec(any::<bool>(), 6),
        e_bits in prop::collection::vec(any::<bool>(), 6),
        seed: u128,
        tweak_base in 0u64..1 << 40,
    ) {
        let netlist = build_random(g_inputs, e_inputs, &recipes, 3);
        prop_assert!(netlist.validate().is_ok());
        let g_bits = &g_bits[..g_inputs];
        let e_bits = &e_bits[..e_inputs];
        let expected = netlist.evaluate(g_bits, e_bits);

        let mut labels = PrgLabelSource::new(Block::new(seed));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(&netlist, tweak_base);
        let g_labels = garbled.encode_garbler_inputs(g_bits);
        let e_labels = garbled.encode_evaluator_inputs(e_bits);
        let out = Evaluator::new().evaluate(
            &netlist, garbled.material(), &g_labels, &e_labels, tweak_base,
        );
        prop_assert_eq!(garbled.decode_outputs(&out), expected);
    }

    #[test]
    fn output_labels_are_always_one_of_the_pair(
        recipes in prop::collection::vec(gate_recipe(), 1..40),
        g_bits in prop::collection::vec(any::<bool>(), 4),
        e_bits in prop::collection::vec(any::<bool>(), 4),
        seed: u128,
    ) {
        let netlist = build_random(4, 4, &recipes, 2);
        let mut labels = PrgLabelSource::new(Block::new(seed));
        let mut garbler = Garbler::new(&mut labels);
        let garbled = garbler.garble(&netlist, 0);
        let g_labels = garbled.encode_garbler_inputs(&g_bits[..4]);
        let e_labels = garbled.encode_evaluator_inputs(&e_bits[..4]);
        let out = Evaluator::new().evaluate(&netlist, garbled.material(), &g_labels, &e_labels, 0);
        // Authenticity of honest evaluation: each active output label is
        // exactly the zero- or one-label of its wire.
        for (active, zero) in out.iter().zip(garbled.output_zero_labels()) {
            let one = garbled.delta().one_label(zero);
            prop_assert!(*active == zero || *active == one);
        }
    }
}
