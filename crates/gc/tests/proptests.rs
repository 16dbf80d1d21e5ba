//! Property tests: garbled evaluation must agree with plaintext evaluation
//! on randomly generated circuits and inputs.

use max_crypto::{Block, FixedKeyHash, Tweak};
use max_gc::{evaluate_and, garble_and, Evaluator, GarbledCircuit, Garbler, PrgLabelSource};
use max_netlist::{Builder, GateKind, Netlist, WireId};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        for level in netlist.levels() {
            for gate in &level.free {
                prop_assert!(written[gate.a.index()] && written[gate.b.index()]);
                prop_assert!(!std::mem::replace(&mut written[gate.out.index()], true));
            }
            // Every read of the batch is checked before any of its outputs
            // is marked: no AND reads an AND output of its own level.
            for and in &level.ands {
                prop_assert!(written[and.a.index()] && written[and.b.index()]);
                prop_assert_eq!(netlist.gates()[and.gate as usize].out, and.out);
            }
            for and in &level.ands {
                prop_assert!(!std::mem::replace(&mut written[and.out.index()], true));
            }
            gates += level.free.len() + level.ands.len();
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
