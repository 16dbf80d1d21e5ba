//! The half-gates level kernels: a whole levelized netlist garbled or
//! evaluated one dependency level at a time, every AND gate of a level
//! hashed in one fixed-key AES sweep.
//!
//! A [`GatePlan`] is the kernels' input: a netlist's gates in dependency
//! levels (free XOR/NOT gates, then mutually independent AND gates), every
//! wire index checked against the wire count, every table ordinal against
//! the table count and every level's AND gates against one another's
//! outputs once, when the plan is built. The kernels then index labels and
//! tables by the plan's values with no per-gate check.
//!
//! Two arms sit behind one dispatch, chosen by [`AesBackend::active`] as
//! [`Aes128`](crate::Aes128)'s block sweeps are:
//!
//! * **AES-NI** (`halfgates_ni`, on AES-NI and VAES hosts) runs one gate
//!   per SSE register, eight hashes in flight. It keeps every label in a
//!   register from its load to its store: GF doubling and the tweak XOR,
//!   the AES rounds and the feed-forward, the colour-bit selects and the
//!   half-gates combine, and the level's XOR and NOT gates. Tables are
//!   written and read where they lie — in wire order (`tg ‖ te`,
//!   big-endian) with one byte shuffle, or as decoded [`GarbledTable`]s
//!   without it.
//! * **Software** is the scalar form: one pass writes the masked hash
//!   inputs, one AES sweep (on the active AES arm) hashes them, one pass
//!   combines. It is the fallback and the oracle the parity tests pin the
//!   vector arm against.
//!
//! Every arm garbles the same tables and labels bit for bit: only the order
//! of work differs.

use crate::{AesBackend, Block, FixedKeyHash, Tweak};

/// One garbled AND gate under half-gates: two ciphertexts.
///
/// `repr(C)`: `tg` then `te`, each a native `u128`, so the vector arm loads
/// and stores a decoded table as two registers with no byte shuffle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
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

// Both table forms are two 16-byte halves, `tg` first: the vector arm
// reads and writes either through the same two unaligned accesses.
const _: () = assert!(std::mem::size_of::<GarbledTable>() == GarbledTable::WIRE_BYTES);

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::GarbledTable {}
    impl Sealed for [u8; super::GarbledTable::WIRE_BYTES] {}
}

/// A garbled table as the kernels read and write it: decoded
/// ([`GarbledTable`]), or its [`GarbledTable::WIRE_BYTES`] as they lie in a
/// frame (`tg ‖ te`, big-endian), so a garbler writes straight into the
/// frame it sends and an evaluator reads straight from the frame it
/// received. Sealed: the vector arm relies on these two layouts.
pub trait AsTable: Copy + sealed::Sealed {
    /// Whether the form holds wire bytes, which the vector arm byte-swaps
    /// as it loads and stores them.
    #[doc(hidden)]
    const WIRE_ORDER: bool;

    /// The table.
    fn table(&self) -> GarbledTable;

    /// The table in this form.
    fn from_table(table: GarbledTable) -> Self;
}

impl AsTable for GarbledTable {
    const WIRE_ORDER: bool = false;

    #[inline]
    fn table(&self) -> GarbledTable {
        *self
    }

    #[inline]
    fn from_table(table: GarbledTable) -> Self {
        table
    }
}

impl AsTable for [u8; GarbledTable::WIRE_BYTES] {
    const WIRE_ORDER: bool = true;

    #[inline]
    fn table(&self) -> GarbledTable {
        GarbledTable::from_bytes(*self)
    }

    #[inline]
    fn from_table(table: GarbledTable) -> Self {
        table.to_bytes()
    }
}

/// An XOR or NOT gate of a [`GatePlan`] level (wire indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeGate {
    /// First input wire.
    pub a: u32,
    /// Second input wire (ignored by a NOT gate).
    pub b: u32,
    /// Output wire.
    pub out: u32,
    /// A NOT gate: the garbler's output zero-label is `a ⊕ Δ`, the
    /// evaluator's active label `a`.
    pub not: bool,
}

/// An AND gate of a [`GatePlan`] level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AndGate {
    /// First input wire.
    pub a: u32,
    /// Second input wire.
    pub b: u32,
    /// Output wire.
    pub out: u32,
    /// Index of the gate in its netlist (a tweak coordinate).
    pub gate: u32,
    /// Ordinal among the netlist's AND gates: its table's position.
    pub ordinal: u32,
}

/// A netlist's gates in dependency levels, checked once for the kernels.
///
/// Walking the levels in order, each level's free gates and then its AND
/// gates, respects every dependency; a level's AND gates read no output of
/// one another. Built once per netlist (`max_netlist::Netlist::gate_plan`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatePlan {
    wires: usize,
    /// Per level: the end of its gates in `free`, then in `ands`.
    levels: Vec<(usize, usize)>,
    free: Vec<FreeGate>,
    ands: Vec<AndGate>,
}

/// The reusable hash buffer of the software arm; a caller that keeps one
/// across calls allocates nothing per call.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    hashed: Vec<Block>,
}

impl GatePlan {
    /// A plan over `wires` wires from its levels, each a level's free gates
    /// then its AND gates.
    ///
    /// # Panics
    ///
    /// Panics if a gate names a wire at or past `wires`, or an AND gate an
    /// ordinal at or past the plan's AND count: the kernels index by these
    /// values unchecked, so a plan that names anything outside its
    /// labels or tables is never built. Panics too if an AND gate reads an
    /// output of an AND gate of its own level, which a level's one hash
    /// sweep could not see.
    pub fn new<F, A>(wires: usize, levels: impl IntoIterator<Item = (F, A)>) -> GatePlan
    where
        F: IntoIterator<Item = FreeGate>,
        A: IntoIterator<Item = AndGate>,
    {
        let mut plan = GatePlan {
            wires,
            ..GatePlan::default()
        };
        for (free, ands) in levels {
            plan.free.extend(free);
            plan.ands.extend(ands);
            plan.levels.push((plan.free.len(), plan.ands.len()));
        }
        let wire = |w: u32| (w as usize) < wires;
        assert!(
            plan.free
                .iter()
                .all(|g| wire(g.a) && wire(g.b) && wire(g.out)),
            "a free gate names a wire outside the plan"
        );
        assert!(
            plan.ands.iter().all(|g| wire(g.a)
                && wire(g.b)
                && wire(g.out)
                && (g.ordinal as usize) < plan.ands.len()),
            "an AND gate names a wire or table outside the plan"
        );
        let mut written = vec![false; wires];
        for (_, ands) in plan.levels() {
            for and in ands {
                written[and.out as usize] = true;
            }
            assert!(
                ands.iter()
                    .all(|g| !written[g.a as usize] && !written[g.b as usize]),
                "an AND gate reads an output of its own level"
            );
            for and in ands {
                written[and.out as usize] = false;
            }
        }
        plan
    }

    /// Wires the plan's labels cover.
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// AND gates, and so garbled tables.
    pub fn tables(&self) -> usize {
        self.ands.len()
    }

    /// The levels in order: each level's free gates, then its AND gates.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = (&[FreeGate], &[AndGate])> {
        let mut start = (0, 0);
        self.levels.iter().map(move |&(free, ands)| {
            let level = (&self.free[start.0..free], &self.ands[start.1..ands]);
            start = (free, ands);
            level
        })
    }

    /// Garbles the plan over `zero` (one zero-label per wire, inputs
    /// already set) under the global offset `delta`, on the active arm:
    /// each gate's output zero-label lands in `zero`, each AND gate's table
    /// in `tables` at its ordinal, hashed under `tweak` of the gate.
    ///
    /// # Panics
    ///
    /// Panics if `zero` is shorter than [`GatePlan::wires`] or `tables`
    /// than [`GatePlan::tables`].
    pub fn garble<T: AsTable>(
        &self,
        hash: &FixedKeyHash,
        delta: Block,
        tweak: impl Fn(&AndGate) -> Tweak,
        zero: &mut [Block],
        tables: &mut [T],
        scratch: &mut BatchScratch,
    ) {
        self.garble_on(
            AesBackend::active(),
            hash,
            delta,
            tweak,
            zero,
            tables,
            scratch,
        );
    }

    /// [`GatePlan::garble`] on the arm `backend` selects: the AES-NI arm for
    /// [`AesBackend::AesNi`] or [`AesBackend::Vaes`] when this CPU has
    /// AES-NI, the software arm otherwise. For the parity tests; everything
    /// else garbles on the active arm.
    ///
    /// # Panics
    ///
    /// As [`GatePlan::garble`].
    #[allow(clippy::too_many_arguments)]
    pub fn garble_on<T: AsTable>(
        &self,
        backend: AesBackend,
        hash: &FixedKeyHash,
        delta: Block,
        tweak: impl Fn(&AndGate) -> Tweak,
        zero: &mut [Block],
        tables: &mut [T],
        scratch: &mut BatchScratch,
    ) {
        assert!(zero.len() >= self.wires, "fewer labels than plan wires");
        assert!(
            tables.len() >= self.ands.len(),
            "fewer tables than AND gates"
        );
        #[cfg(target_arch = "x86_64")]
        if backend != AesBackend::Software && AesBackend::aesni_available() {
            // SAFETY: runtime detection just found `aes` and `ssse3`; every
            // index in the plan was checked against `self.wires` and the AND
            // count when it was built, and the asserts above hold `zero` and
            // `tables` to at least those lengths.
            #[allow(unsafe_code)]
            unsafe {
                crate::halfgates_ni::garble(
                    hash.cipher().round_keys(),
                    self,
                    delta,
                    tweak,
                    zero,
                    tables,
                )
            };
            return;
        }
        let _ = backend;
        self.garble_software(hash, delta, tweak, zero, tables, scratch);
    }

    /// Evaluates the plan over `active` (one active label per wire, inputs
    /// already set) on the active arm: each gate's output label lands in
    /// `active`, each AND gate decrypted with its table in `tables` (at its
    /// ordinal) under `tweak` of the gate.
    ///
    /// # Panics
    ///
    /// Panics if `active` is shorter than [`GatePlan::wires`] or `tables`
    /// than [`GatePlan::tables`]: callers check peer-supplied counts first.
    pub fn evaluate<T: AsTable>(
        &self,
        hash: &FixedKeyHash,
        tables: &[T],
        tweak: impl Fn(&AndGate) -> Tweak,
        active: &mut [Block],
        scratch: &mut BatchScratch,
    ) {
        self.evaluate_on(AesBackend::active(), hash, tables, tweak, active, scratch);
    }

    /// [`GatePlan::evaluate`] on the arm `backend` selects, as
    /// [`GatePlan::garble_on`] picks it.
    ///
    /// # Panics
    ///
    /// As [`GatePlan::evaluate`].
    pub fn evaluate_on<T: AsTable>(
        &self,
        backend: AesBackend,
        hash: &FixedKeyHash,
        tables: &[T],
        tweak: impl Fn(&AndGate) -> Tweak,
        active: &mut [Block],
        scratch: &mut BatchScratch,
    ) {
        assert!(active.len() >= self.wires, "fewer labels than plan wires");
        assert!(
            tables.len() >= self.ands.len(),
            "fewer tables than AND gates"
        );
        #[cfg(target_arch = "x86_64")]
        if backend != AesBackend::Software && AesBackend::aesni_available() {
            // SAFETY: as in `garble_on`: detection found `aes` and `ssse3`,
            // and the plan's indices fit the slices just checked.
            #[allow(unsafe_code)]
            unsafe {
                crate::halfgates_ni::evaluate(
                    hash.cipher().round_keys(),
                    self,
                    tweak,
                    active,
                    tables,
                )
            };
            return;
        }
        let _ = backend;
        self.evaluate_software(hash, tables, tweak, active, scratch);
    }

    /// The software arm of [`GatePlan::garble`]: per level, the free gates,
    /// then one scalar pass of masked hash inputs (four per AND gate), one
    /// AES sweep, and one pass of half-gates combines.
    fn garble_software<T: AsTable>(
        &self,
        hash: &FixedKeyHash,
        d: Block,
        tweak: impl Fn(&AndGate) -> Tweak,
        zero: &mut [Block],
        tables: &mut [T],
        scratch: &mut BatchScratch,
    ) {
        for (free, ands) in self.levels() {
            free_gates(free, d, zero);
            hash.hash_into(
                ands.iter().flat_map(|and| {
                    let t = tweak(and);
                    let t2 = t.sibling();
                    let (a0, b0) = (zero[and.a as usize], zero[and.b as usize]);
                    [(a0, t), (a0 ^ d, t), (b0, t2), (b0 ^ d, t2)]
                }),
                &mut scratch.hashed,
            );
            for (and, h) in ands.iter().zip(scratch.hashed.chunks_exact(4)) {
                let (a0, b0) = (zero[and.a as usize], zero[and.b as usize]);
                // Zahur–Rosulek–Evans: pa, pb are the zero-labels' colours.
                let (pa, pb) = (a0.lsb(), b0.lsb());
                let tg = (h[0] ^ h[1]).xor_if(d, pb);
                let te = h[2] ^ h[3] ^ a0;
                let wg0 = h[0].xor_if(tg, pa);
                let we0 = h[2].xor_if(te ^ a0, pb);
                zero[and.out as usize] = wg0 ^ we0;
                tables[and.ordinal as usize] = T::from_table(GarbledTable { tg, te });
            }
        }
    }

    /// The software arm of [`GatePlan::evaluate`]: per level, the free
    /// gates, then one scalar pass of masked hash inputs (two per AND
    /// gate), one AES sweep, and one pass of colour-selected combines.
    fn evaluate_software<T: AsTable>(
        &self,
        hash: &FixedKeyHash,
        tables: &[T],
        tweak: impl Fn(&AndGate) -> Tweak,
        active: &mut [Block],
        scratch: &mut BatchScratch,
    ) {
        for (free, ands) in self.levels() {
            free_gates(free, Block::ZERO, active);
            hash.hash_into(
                ands.iter().flat_map(|and| {
                    let t = tweak(and);
                    [
                        (active[and.a as usize], t),
                        (active[and.b as usize], t.sibling()),
                    ]
                }),
                &mut scratch.hashed,
            );
            for (and, h) in ands.iter().zip(scratch.hashed.chunks_exact(2)) {
                // Selected, not branched: the colour bits are a fresh coin
                // per gate, so a branch on them would mispredict half the
                // time.
                let table = tables[and.ordinal as usize].table();
                let a = active[and.a as usize];
                let b = active[and.b as usize];
                let wg = h[0] ^ std::hint::select_unpredictable(a.lsb(), table.tg, Block::ZERO);
                let we = h[1] ^ std::hint::select_unpredictable(b.lsb(), table.te ^ a, Block::ZERO);
                active[and.out as usize] = wg ^ we;
            }
        }
    }
}

/// A level's free gates over `labels`: XOR gates XOR their inputs, NOT
/// gates XOR `not` into theirs (Δ for the garbler, zero for the evaluator).
fn free_gates(free: &[FreeGate], not: Block, labels: &mut [Block]) {
    for gate in free {
        let a = labels[gate.a as usize];
        labels[gate.out as usize] = a ^ if gate.not {
            not
        } else {
            labels[gate.b as usize]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and(a: u32, b: u32, out: u32, ordinal: u32) -> AndGate {
        AndGate {
            a,
            b,
            out,
            gate: out,
            ordinal,
        }
    }

    #[test]
    #[should_panic(expected = "outside the plan")]
    fn a_plan_naming_a_wire_past_its_end_is_never_built() {
        GatePlan::new(2, [(vec![], vec![and(0, 1, 2, 0)])]);
    }

    #[test]
    #[should_panic(expected = "outside the plan")]
    fn a_plan_naming_a_table_past_its_end_is_never_built() {
        GatePlan::new(3, [(vec![], vec![and(0, 1, 2, 1)])]);
    }

    #[test]
    #[should_panic(expected = "its own level")]
    fn a_level_whose_and_gates_chain_is_never_built() {
        GatePlan::new(4, [(vec![], vec![and(0, 1, 2, 0), and(2, 1, 3, 1)])]);
    }

    #[test]
    #[should_panic(expected = "fewer tables")]
    fn short_tables_are_refused_before_any_arm_runs() {
        let plan = GatePlan::new(4, [(vec![], vec![and(0, 1, 2, 0), and(0, 1, 3, 1)])]);
        let mut zero = vec![Block::ZERO; plan.wires()];
        let mut tables = vec![GarbledTable::default(); plan.tables() - 1];
        plan.garble(
            &FixedKeyHash::new(),
            Block::new(1),
            |_| Tweak::from_gate_index(0),
            &mut zero,
            &mut tables,
            &mut BatchScratch::default(),
        );
    }

    #[test]
    fn table_serialization_round_trips() {
        let table = GarbledTable {
            tg: Block::new(0x1111_2222),
            te: Block::new(0x3333_4444_5555),
        };
        assert_eq!(GarbledTable::from_bytes(table.to_bytes()), table);
        assert_eq!(<[u8; 32]>::from_table(table).table(), table);
    }
}
