//! The single-gate GC engine: half-gate AND garbling and evaluation.
//!
//! This is the exact computation MAXelerator's hardware GC engine performs
//! once per clock cycle (§5.1): four fixed-key AES hashes on the garbler
//! side produce one two-ciphertext garbled table. Whole netlists run the
//! same construction a level at a time through `max_crypto`'s half-gates
//! kernels ([`GatePlan`](max_crypto::GatePlan)); these single-gate forms
//! are their reference.

use max_crypto::{Block, FixedKeyHash, GarbledTable, Tweak};

use crate::label::Delta;

/// Garbles one AND gate.
///
/// `a0`, `b0` are the zero-labels of the input wires, `delta` the global
/// offset, `tweak` the gate-unique tweak. Returns the output wire's
/// zero-label and the two-ciphertext garbled table.
///
/// Construction (Zahur–Rosulek–Evans, half gates):
///
/// ```text
/// pa = color(a0), pb = color(b0)
/// TG = H(a0,t) ⊕ H(a1,t) ⊕ pb·Δ          WG0 = H(a0,t) ⊕ pa·TG
/// TE = H(b0,t') ⊕ H(b1,t') ⊕ a0          WE0 = H(b0,t') ⊕ pb·(TE ⊕ a0)
/// c0 = WG0 ⊕ WE0
/// ```
pub fn garble_and(
    hash: &FixedKeyHash,
    delta: Delta,
    a0: Block,
    b0: Block,
    tweak: Tweak,
) -> (Block, GarbledTable) {
    let d = delta.block();
    let t2 = tweak.sibling();
    // One batched AES call for the four hashes of this table — the software
    // analogue of the hardware engine's four-lane fixed-key AES pipe.
    let h = hash.hash4([a0, a0 ^ d, b0, b0 ^ d], [tweak, tweak, t2, t2]);
    combine_garbled(d, a0, b0, h)
}

/// The linear half-gates combine step: turns the four hashes of one AND
/// gate into the output zero-label and the two-ciphertext table.
#[inline]
fn combine_garbled(d: Block, a0: Block, b0: Block, h: [Block; 4]) -> (Block, GarbledTable) {
    let [ha0, ha1, hb0, hb1] = h;
    let pa = a0.lsb();
    let pb = b0.lsb();
    let tg = (ha0 ^ ha1).xor_if(d, pb);
    let wg0 = ha0.xor_if(tg, pa);
    let te = hb0 ^ hb1 ^ a0;
    let we0 = hb0.xor_if(te ^ a0, pb);
    (wg0 ^ we0, GarbledTable { tg, te })
}

/// Evaluates one garbled AND gate.
///
/// `a`, `b` are the *active* labels held by the evaluator; `table` the
/// garbled table; `tweak` must match the garbling tweak. Returns the active
/// output label.
pub fn evaluate_and(
    hash: &FixedKeyHash,
    table: GarbledTable,
    a: Block,
    b: Block,
    tweak: Tweak,
) -> Block {
    let sa = a.lsb();
    let sb = b.lsb();
    let t2 = tweak.sibling();
    let mut wg = hash.hash(a, tweak);
    if sa {
        wg ^= table.tg;
    }
    let mut we = hash.hash(b, t2);
    if sb {
        we ^= table.te ^ a;
    }
    wg ^ we
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_crypto::{AesBackend, AesPrg, AndGate, BatchScratch, GatePlan};

    fn setup() -> (FixedKeyHash, Delta, AesPrg) {
        (
            FixedKeyHash::new(),
            Delta::from_block(Block::new(0x0123_4567_89ab_cdef_1122_3344_5566_7788)),
            AesPrg::new(Block::new(0xabc)),
        )
    }

    #[test]
    fn and_gate_all_four_inputs() {
        let (hash, delta, mut prg) = setup();
        for trial in 0..16 {
            let a0 = prg.next_block();
            let b0 = prg.next_block();
            let tweak = Tweak::from_gate_index(trial);
            let (c0, table) = garble_and(&hash, delta, a0, b0, tweak);
            for va in [false, true] {
                for vb in [false, true] {
                    let a = if va { delta.one_label(a0) } else { a0 };
                    let b = if vb { delta.one_label(b0) } else { b0 };
                    let c = evaluate_and(&hash, table, a, b, tweak);
                    let expected = if va && vb { delta.one_label(c0) } else { c0 };
                    assert_eq!(c, expected, "trial {trial}: {va} AND {vb}");
                }
            }
        }
    }

    #[test]
    fn wrong_tweak_breaks_evaluation() {
        let (hash, delta, mut prg) = setup();
        let a0 = prg.next_block();
        let b0 = prg.next_block();
        let (c0, table) = garble_and(&hash, delta, a0, b0, Tweak::from_gate_index(1));
        let c = evaluate_and(&hash, table, a0, b0, Tweak::from_gate_index(2));
        assert_ne!(c, c0);
    }

    #[test]
    fn output_colors_differ() {
        let (hash, delta, mut prg) = setup();
        let a0 = prg.next_block();
        let b0 = prg.next_block();
        let (c0, _) = garble_and(&hash, delta, a0, b0, Tweak::from_gate_index(3));
        assert_ne!(c0.lsb(), delta.one_label(c0).lsb());
    }

    /// The arms this CPU can run: the software arm, and the vector arm
    /// where the CPU has AES-NI.
    fn arms() -> Vec<AesBackend> {
        let mut arms = vec![AesBackend::Software];
        if AesBackend::aesni_available() {
            arms.push(AesBackend::AesNi);
        }
        arms
    }

    /// One level of `n` AND gates: gate `i` reads wires 2i, 2i + 1, writes
    /// wire 2n + i and lands at ordinal n − 1 − i, so ordinals need not
    /// follow level order.
    fn level(n: u32) -> GatePlan {
        let ands = (0..n).map(|i| AndGate {
            a: 2 * i,
            b: 2 * i + 1,
            out: 2 * n + i,
            gate: 5 * i,
            ordinal: n - 1 - i,
        });
        GatePlan::new(3 * n as usize, [(Vec::new(), ands)])
    }

    #[test]
    fn level_garble_matches_scalar() {
        let (hash, delta, mut prg) = setup();
        let tweak = |and: &AndGate| Tweak::from_gate_index(1000 + u64::from(and.gate));
        let mut scratch = BatchScratch::default();
        for arm in arms() {
            for n in [0u32, 1, 3, 8, 17] {
                let plan = level(n);
                let mut zero: Vec<Block> = (0..2 * n).map(|_| prg.next_block()).collect();
                zero.resize(3 * n as usize, Block::ZERO);
                let mut tables = vec![GarbledTable::default(); n as usize];
                plan.garble_on(
                    arm,
                    &hash,
                    delta.block(),
                    tweak,
                    &mut zero,
                    &mut tables,
                    &mut scratch,
                );
                for (_, ands) in plan.levels() {
                    for and in ands {
                        let (a0, b0) = (zero[and.a as usize], zero[and.b as usize]);
                        assert_eq!(
                            (zero[and.out as usize], tables[and.ordinal as usize]),
                            garble_and(&hash, delta, a0, b0, tweak(and)),
                            "{arm:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_evaluate_matches_scalar() {
        let (hash, delta, mut prg) = setup();
        let plan = level(13);
        let tweak = |and: &AndGate| Tweak::from_gate_index(2000 + u64::from(and.gate));
        let mut active = vec![Block::ZERO; plan.wires()];
        let mut tables = vec![GarbledTable::default(); plan.tables()];
        let mut expected = vec![Block::ZERO; 13];
        for (_, ands) in plan.levels() {
            for (i, and) in ands.iter().enumerate() {
                let a0 = prg.next_block();
                let b0 = prg.next_block();
                let (_, table) = garble_and(&hash, delta, a0, b0, tweak(and));
                let a = if i % 2 == 0 { a0 } else { delta.one_label(a0) };
                let b = if i % 3 == 0 { b0 } else { delta.one_label(b0) };
                expected[i] = evaluate_and(&hash, table, a, b, tweak(and));
                active[and.a as usize] = a;
                active[and.b as usize] = b;
                tables[and.ordinal as usize] = table;
            }
        }
        let wire: Vec<[u8; 32]> = tables.iter().map(|t| t.to_bytes()).collect();
        let mut scratch = BatchScratch::default();
        for arm in arms() {
            // Decoded tables and the same tables as wire bytes.
            let mut decoded = active.clone();
            plan.evaluate_on(arm, &hash, &tables, tweak, &mut decoded, &mut scratch);
            assert_eq!(&decoded[26..], &expected[..], "{arm:?}");
            let mut framed = active.clone();
            plan.evaluate_on(arm, &hash, &wire, tweak, &mut framed, &mut scratch);
            assert_eq!(&framed[26..], &expected[..], "{arm:?}");
        }
    }

    #[test]
    fn table_serialization_round_trips() {
        let table = GarbledTable {
            tg: Block::new(0x1111_2222),
            te: Block::new(0x3333_4444_5555),
        };
        assert_eq!(GarbledTable::from_bytes(table.to_bytes()), table);
    }

    #[test]
    fn tables_look_pseudorandom() {
        let (hash, delta, mut prg) = setup();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let a0 = prg.next_block();
            let b0 = prg.next_block();
            let (_, table) = garble_and(&hash, delta, a0, b0, Tweak::from_gate_index(i));
            assert!(seen.insert(table.tg));
            assert!(seen.insert(table.te));
        }
    }
}
