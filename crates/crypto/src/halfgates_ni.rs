//! The half-gates level kernels' vector arm: AES-NI and SSE registers via
//! `std::arch::x86_64`, on AES-NI and VAES hosts alike. (A VAES arm with
//! four gates in the lanes of each 512-bit register was measured against
//! this one on a VAES host: a cold job's median fell by less than the
//! spread of the runs, so it was not kept.)
//!
//! Each label stays in a register from its load to its store. A garbled
//! AND gate loads its two input zero-labels, doubles each once in GF(2¹²⁸)
//! (`2(a ⊕ Δ) = 2a ⊕ 2Δ`, and `2Δ` is doubled once per call), XORs in the
//! gate's tweak and its sibling, and hashes the four masks; the combine
//! selects by the zero-labels' colour bits with masks, not branches, and
//! stores the output zero-label and the table. An evaluated AND gate hashes
//! its two active labels and selects the table halves by their colours.
//! Two garbled or four evaluated gates — eight blocks — are in flight per
//! sweep, as in the AES-NI block arm. A level's XOR and NOT gates run in
//! the same registers before its AND gates.
//!
//! Labels are native `u128`s, so their registers hold them as loaded;
//! AES wants FIPS-197 byte order, so each mask is byte-reversed with one
//! `PSHUFB` on its way into the rounds and each hash on its way out. A
//! table in wire order (big-endian `tg ‖ te`) takes one `PSHUFB` per half
//! as it is stored or loaded; a decoded [`GarbledTable`](crate::GarbledTable)
//! none.
//!
//! # Safety
//!
//! Every function here is `unsafe` because it requires the `aes` and
//! `ssse3` target features. The only caller is [`GatePlan`]'s dispatch,
//! which runs these only after `AesBackend::aesni_available()` (a
//! successful runtime detection of both) and after asserting that the
//! label slice is at least [`GatePlan::wires`] long and the table slice at
//! least [`GatePlan::tables`].
//!
//! Every index these functions dereference comes from the plan: each
//! gate's `a`, `b` and `out` index the label slice, each AND gate's
//! `ordinal` the table slice. [`GatePlan::new`] checked every one of them
//! against the plan's wire and AND counts when the plan was built, and its
//! fields are private to the crate, so no safe code can change them after
//! the check. Peer bytes never reach an index: a received frame supplies
//! only the contents of the table and label slices, whose lengths the
//! dispatch asserts. All loads and stores are unaligned 16-byte accesses
//! at those indices; a table is two of them, at byte offsets 0 and 16 of
//! its 32 (both table forms are 32 bytes, `tg` first — a `repr(C)` struct
//! of two `u128`s or a `[u8; 32]`).
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_slli_epi32, _mm_srai_epi32, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::RoundKeys;
use crate::aesni::{byte_reverse, gf_double, hash_lanes, load_block, load_round_keys};
use crate::halfgates::{AndGate, AsTable, FreeGate, GatePlan};
use crate::{Block, Tweak};

/// What every sweep of one kernel call shares.
struct Sweep {
    keys: [__m128i; 11],
    swap: __m128i,
    /// The bit of a tweak that makes its sibling (`Tweak::sibling`).
    sibling: __m128i,
}

/// Garbles `plan` over `zero`, writing each table at its ordinal in
/// `tables`.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features, `zero` must
/// hold at least `plan.wires()` labels and `tables` at least
/// `plan.tables()` tables.
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn garble<T: AsTable>(
    round_keys: &RoundKeys,
    plan: &GatePlan,
    delta: Block,
    tweak: impl Fn(&AndGate) -> Tweak,
    zero: &mut [Block],
    tables: &mut [T],
) {
    let sweep = sweep(round_keys);
    let labels = zero.as_mut_ptr();
    let tables = tables.as_mut_ptr();
    let d = load_block(delta);
    let d2 = gf_double(d);
    for (free, ands) in plan.levels() {
        free_gates(free, d, labels);
        let mut pairs = ands.chunks_exact(2);
        for pair in &mut pairs {
            garble_ands::<2, 8, T>(&sweep, pair, &tweak, d, d2, labels, tables);
        }
        if let [and] = pairs.remainder() {
            garble_ands::<1, 4, T>(&sweep, &[*and], &tweak, d, d2, labels, tables);
        }
    }
}

/// Evaluates `plan` over `active`, reading each AND gate's table at its
/// ordinal in `tables`.
///
/// # Safety
///
/// The CPU must support the `aes` and `ssse3` target features, `active`
/// must hold at least `plan.wires()` labels and `tables` at least
/// `plan.tables()` tables.
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn evaluate<T: AsTable>(
    round_keys: &RoundKeys,
    plan: &GatePlan,
    tweak: impl Fn(&AndGate) -> Tweak,
    active: &mut [Block],
    tables: &[T],
) {
    let sweep = sweep(round_keys);
    let labels = active.as_mut_ptr();
    let tables = tables.as_ptr();
    for (free, ands) in plan.levels() {
        free_gates(free, _mm_setzero_si128(), labels);
        let mut quads = ands.chunks_exact(4);
        for quad in &mut quads {
            evaluate_ands::<4, 8, T>(&sweep, quad, &tweak, labels, tables);
        }
        match quads.remainder() {
            [] => {}
            rest @ [_] => evaluate_ands::<1, 2, T>(&sweep, rest, &tweak, labels, tables),
            rest @ [_, _] => evaluate_ands::<2, 4, T>(&sweep, rest, &tweak, labels, tables),
            rest => evaluate_ands::<3, 6, T>(&sweep, rest, &tweak, labels, tables),
        }
    }
}

#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn sweep(round_keys: &RoundKeys) -> Sweep {
    Sweep {
        keys: load_round_keys(round_keys),
        swap: byte_reverse(),
        sibling: _mm_set_epi64x(1 << 62, 0),
    }
}

/// All ones when bit 0 of `x` (a label's colour) is set, else zero.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn colour_mask(x: __m128i) -> __m128i {
    _mm_shuffle_epi32(_mm_srai_epi32(_mm_slli_epi32(x, 31), 31), 0)
}

/// A level's free gates: `out = a ⊕ b` for XOR, `out = a ⊕ not` for NOT.
///
/// # Safety
///
/// As [`garble`]: every wire the gates name lies inside `labels`' slice.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn free_gates(free: &[FreeGate], not: __m128i, labels: *mut Block) {
    let at = |wire: u32| labels.add(wire as usize).cast::<__m128i>();
    for gate in free {
        let a = _mm_loadu_si128(at(gate.a));
        let other = if gate.not {
            not
        } else {
            _mm_loadu_si128(at(gate.b))
        };
        _mm_storeu_si128(at(gate.out), _mm_xor_si128(a, other));
    }
}

/// Garbles the `N` AND gates of `ands` (`B = 4N` hashes) in one sweep.
///
/// # Safety
///
/// As [`garble`]: every wire and ordinal the gates name lies inside
/// `labels`' and `tables`' slices.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn garble_ands<const N: usize, const B: usize, T: AsTable>(
    sweep: &Sweep,
    ands: &[AndGate],
    tweak: &impl Fn(&AndGate) -> Tweak,
    d: __m128i,
    d2: __m128i,
    labels: *mut Block,
    tables: *mut T,
) {
    debug_assert!(ands.len() == N && B == 4 * N);
    let at = |wire: u32| labels.add(wire as usize).cast::<__m128i>();
    let mut inputs = [(d, d); N];
    let mut masked = [d; B];
    for (i, and) in ands.iter().enumerate() {
        let (a0, b0) = (_mm_loadu_si128(at(and.a)), _mm_loadu_si128(at(and.b)));
        let t = load_block(tweak(and).0);
        let ma = _mm_xor_si128(gf_double(a0), t);
        let mb = _mm_xor_si128(gf_double(b0), _mm_xor_si128(t, sweep.sibling));
        masked[4 * i] = ma;
        masked[4 * i + 1] = _mm_xor_si128(ma, d2);
        masked[4 * i + 2] = mb;
        masked[4 * i + 3] = _mm_xor_si128(mb, d2);
        inputs[i] = (a0, b0);
    }
    let h = hash_lanes(&sweep.keys, sweep.swap, masked);
    for (i, (and, (a0, b0))) in ands.iter().zip(inputs).enumerate() {
        let (ha0, ha1, hb0, hb1) = (h[4 * i], h[4 * i + 1], h[4 * i + 2], h[4 * i + 3]);
        let (pa, pb) = (colour_mask(a0), colour_mask(b0));
        // TG = H(a0) ⊕ H(a1) ⊕ pb·Δ, WG0 = H(a0) ⊕ pa·TG;
        // TE = H(b0) ⊕ H(b1) ⊕ a0, WE0 = H(b0) ⊕ pb·(TE ⊕ a0).
        let tg = _mm_xor_si128(_mm_xor_si128(ha0, ha1), _mm_and_si128(pb, d));
        let hb = _mm_xor_si128(hb0, hb1);
        let te = _mm_xor_si128(hb, a0);
        let wg0 = _mm_xor_si128(ha0, _mm_and_si128(pa, tg));
        let we0 = _mm_xor_si128(hb0, _mm_and_si128(pb, hb));
        _mm_storeu_si128(at(and.out), _mm_xor_si128(wg0, we0));
        let slot = tables.add(and.ordinal as usize).cast::<__m128i>();
        let (tg, te) = if T::WIRE_ORDER {
            (
                _mm_shuffle_epi8(tg, sweep.swap),
                _mm_shuffle_epi8(te, sweep.swap),
            )
        } else {
            (tg, te)
        };
        _mm_storeu_si128(slot, tg);
        _mm_storeu_si128(slot.add(1), te);
    }
}

/// Evaluates the `N` AND gates of `ands` (`B = 2N` hashes) in one sweep.
///
/// # Safety
///
/// As [`evaluate`]: every wire and ordinal the gates name lies inside
/// `labels`' and `tables`' slices.
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn evaluate_ands<const N: usize, const B: usize, T: AsTable>(
    sweep: &Sweep,
    ands: &[AndGate],
    tweak: &impl Fn(&AndGate) -> Tweak,
    labels: *mut Block,
    tables: *const T,
) {
    debug_assert!(ands.len() == N && B == 2 * N);
    let at = |wire: u32| labels.add(wire as usize).cast::<__m128i>();
    let mut inputs = [(sweep.swap, sweep.swap); N];
    let mut masked = [sweep.swap; B];
    for (i, and) in ands.iter().enumerate() {
        let (a, b) = (_mm_loadu_si128(at(and.a)), _mm_loadu_si128(at(and.b)));
        let t = load_block(tweak(and).0);
        masked[2 * i] = _mm_xor_si128(gf_double(a), t);
        masked[2 * i + 1] = _mm_xor_si128(gf_double(b), _mm_xor_si128(t, sweep.sibling));
        inputs[i] = (a, b);
    }
    let h = hash_lanes(&sweep.keys, sweep.swap, masked);
    for (i, (and, (a, b))) in ands.iter().zip(inputs).enumerate() {
        let slot = tables.add(and.ordinal as usize).cast::<__m128i>();
        let (mut tg, mut te) = (_mm_loadu_si128(slot), _mm_loadu_si128(slot.add(1)));
        if T::WIRE_ORDER {
            tg = _mm_shuffle_epi8(tg, sweep.swap);
            te = _mm_shuffle_epi8(te, sweep.swap);
        }
        // W = H(a) ⊕ sa·TG ⊕ H(b) ⊕ sb·(TE ⊕ a).
        let wg = _mm_xor_si128(h[2 * i], _mm_and_si128(colour_mask(a), tg));
        let we = _mm_xor_si128(
            h[2 * i + 1],
            _mm_and_si128(colour_mask(b), _mm_xor_si128(te, a)),
        );
        _mm_storeu_si128(at(and.out), _mm_xor_si128(wg, we));
    }
}
