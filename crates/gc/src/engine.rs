//! The single-gate GC engine: half-gate AND garbling and evaluation.
//!
//! This is the exact computation MAXelerator's hardware GC engine performs
//! once per clock cycle (§5.1): four fixed-key AES hashes on the garbler
//! side produce one two-ciphertext garbled table. The accelerator simulator
//! invokes [`garble_and`] directly from its per-core pipeline model, so the
//! simulated hardware emits *real* garbled tables.

use std::hint::select_unpredictable;

use max_crypto::{Block, FixedKeyHash, Tweak};
use max_netlist::LevelAnd;

use crate::label::Delta;

/// One garbled AND gate under half-gates: two ciphertexts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GarbledTable {
    /// Garbler-half ciphertext.
    pub tg: Block,
    /// Evaluator-half ciphertext.
    pub te: Block,
}

impl GarbledTable {
    /// Size on the wire in bytes (2 × 16).
    pub const WIRE_BYTES: usize = 32;

    /// Serializes to 32 bytes.
    #[inline]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.tg.to_bytes());
        out[16..].copy_from_slice(&self.te.to_bytes());
        out
    }

    /// Deserializes from 32 bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        let mut tg = [0u8; 16];
        let mut te = [0u8; 16];
        tg.copy_from_slice(&bytes[..16]);
        te.copy_from_slice(&bytes[16..]);
        GarbledTable {
            tg: Block::from_bytes(tg),
            te: Block::from_bytes(te),
        }
    }
}

/// A garbled table as the evaluator reads it: decoded ([`GarbledTable`]),
/// or its [`GarbledTable::WIRE_BYTES`] as they arrived in a frame
/// (`tg ‖ te`, big-endian), decoded in registers when the gate is
/// evaluated — so an evaluator can run straight off a received frame.
pub trait AsTable {
    /// The table.
    fn table(&self) -> GarbledTable;
}

impl AsTable for GarbledTable {
    #[inline]
    fn table(&self) -> GarbledTable {
        *self
    }
}

impl AsTable for [u8; GarbledTable::WIRE_BYTES] {
    #[inline]
    fn table(&self) -> GarbledTable {
        GarbledTable::from_bytes(*self)
    }
}

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

/// The reusable hash buffer of [`evaluate_and_batch`] and
/// [`garble_and_level`]; a caller that keeps one across batches allocates
/// nothing per batch.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    hashed: Vec<Block>,
}

/// Evaluates a batch of independent garbled AND gates — one level of
/// [`Netlist::levels`](max_netlist::Netlist::levels) — with one wide AES
/// sweep, reading the active input labels from `active` and writing the
/// outputs back.
///
/// `tables` is indexed by AND ordinal, decoded or as received
/// ([`AsTable`]), and `tweak` names each gate's tweak; every output matches
/// [`evaluate_and`] bit for bit.
///
/// # Panics
///
/// Panics if a gate's ordinal or wires fall outside `tables` / `active` —
/// callers check peer-supplied counts against the netlist first.
pub fn evaluate_and_batch<T: AsTable>(
    hash: &FixedKeyHash,
    ands: &[LevelAnd],
    tables: &[T],
    tweak: impl Fn(&LevelAnd) -> Tweak,
    active: &mut [Block],
    scratch: &mut BatchScratch,
) {
    hash.hash_into(
        ands.iter().flat_map(|and| {
            let t = tweak(and);
            [
                (active[and.a.index()], t),
                (active[and.b.index()], t.sibling()),
            ]
        }),
        &mut scratch.hashed,
    );
    for (and, h) in ands.iter().zip(scratch.hashed.chunks_exact(2)) {
        // Selected, not branched: the colour bits are a fresh coin per
        // gate, so a branch on them would mispredict half the time.
        let table = tables[and.ordinal as usize].table();
        let a = active[and.a.index()];
        let wg = h[0] ^ select_unpredictable(a.lsb(), table.tg, Block::ZERO);
        let b = active[and.b.index()];
        let we = h[1] ^ select_unpredictable(b.lsb(), table.te ^ a, Block::ZERO);
        active[and.out.index()] = wg ^ we;
    }
}

/// Garbles one level of independent AND gates — [`evaluate_and_batch`]'s
/// garbler twin — with one wide AES sweep (four hashes per gate), reading
/// the input zero-labels from `zero` and writing the output zero-labels
/// back.
///
/// Each table lands in `tables` at its AND ordinal, and `tweak` names each
/// gate's tweak; every output matches [`garble_and`] bit for bit.
///
/// # Panics
///
/// Panics if a gate's ordinal or wires fall outside `tables` / `zero`.
pub fn garble_and_level(
    hash: &FixedKeyHash,
    delta: Delta,
    ands: &[LevelAnd],
    tweak: impl Fn(&LevelAnd) -> Tweak,
    zero: &mut [Block],
    tables: &mut [GarbledTable],
    scratch: &mut BatchScratch,
) {
    let d = delta.block();
    hash.hash_into(
        ands.iter().flat_map(|and| {
            let t = tweak(and);
            let t2 = t.sibling();
            let (a0, b0) = (zero[and.a.index()], zero[and.b.index()]);
            [(a0, t), (a0 ^ d, t), (b0, t2), (b0 ^ d, t2)]
        }),
        &mut scratch.hashed,
    );
    for (and, h) in ands.iter().zip(scratch.hashed.chunks_exact(4)) {
        let (a0, b0) = (zero[and.a.index()], zero[and.b.index()]);
        let (c0, table) = combine_garbled(d, a0, b0, [h[0], h[1], h[2], h[3]]);
        zero[and.out.index()] = c0;
        tables[and.ordinal as usize] = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_crypto::AesPrg;

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

    #[test]
    fn level_garble_matches_scalar() {
        use max_netlist::WireId;
        let (hash, delta, mut prg) = setup();
        let tweak = |and: &LevelAnd| Tweak::from_gate_index(1000 + u64::from(and.gate));
        let mut scratch = BatchScratch::default();
        for n in [0u32, 1, 3, 8, 17] {
            // Gate `i` reads wires 2i, 2i + 1, writes wire 2n + i and lands
            // at ordinal n - 1 - i, so ordinals need not follow level order.
            let mut zero: Vec<Block> = (0..2 * n).map(|_| prg.next_block()).collect();
            zero.resize(3 * n as usize, Block::ZERO);
            let ands: Vec<LevelAnd> = (0..n)
                .map(|i| LevelAnd {
                    a: WireId(2 * i),
                    b: WireId(2 * i + 1),
                    out: WireId(2 * n + i),
                    gate: 5 * i,
                    ordinal: n - 1 - i,
                })
                .collect();
            let mut tables = vec![GarbledTable::default(); n as usize];
            garble_and_level(
                &hash,
                delta,
                &ands,
                tweak,
                &mut zero,
                &mut tables,
                &mut scratch,
            );
            for and in &ands {
                let (a0, b0) = (zero[and.a.index()], zero[and.b.index()]);
                assert_eq!(
                    (zero[and.out.index()], tables[and.ordinal as usize]),
                    garble_and(&hash, delta, a0, b0, tweak(and))
                );
            }
        }
    }

    #[test]
    fn batch_evaluate_matches_scalar() {
        use max_netlist::WireId;
        let (hash, delta, mut prg) = setup();
        // Gate `i` reads wires 2i, 2i + 1 and writes wire 26 + i.
        let mut active = vec![Block::ZERO; 39];
        let mut ands = Vec::new();
        let mut tables = Vec::new();
        let mut expected = Vec::new();
        let tweak = |and: &LevelAnd| Tweak::from_gate_index(2000 + u64::from(and.gate));
        for i in 0..13u32 {
            let and = LevelAnd {
                a: WireId(2 * i),
                b: WireId(2 * i + 1),
                out: WireId(26 + i),
                gate: 7 * i,
                ordinal: i,
            };
            let a0 = prg.next_block();
            let b0 = prg.next_block();
            let (_, table) = garble_and(&hash, delta, a0, b0, tweak(&and));
            let a = if i % 2 == 0 { a0 } else { delta.one_label(a0) };
            let b = if i % 3 == 0 { b0 } else { delta.one_label(b0) };
            expected.push(evaluate_and(&hash, table, a, b, tweak(&and)));
            active[and.a.index()] = a;
            active[and.b.index()] = b;
            ands.push(and);
            tables.push(table);
        }
        let mut scratch = BatchScratch::default();
        evaluate_and_batch(&hash, &ands, &tables, tweak, &mut active, &mut scratch);
        assert_eq!(&active[26..], &expected[..]);
        // An empty batch is a no-op, and the scratch is reusable.
        evaluate_and_batch(&hash, &[], &tables, tweak, &mut active, &mut scratch);
        assert_eq!(&active[26..], &expected[..]);
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
