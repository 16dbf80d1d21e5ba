//! The pre-half-gates garbling schemes of §2.2 — the optimization lineage
//! MAXelerator builds on, implemented so the repository can *measure* what
//! each step buys:
//!
//! * **Classic point-and-permute** (Yao + Beaver–Micali–Rogaway): four
//!   encrypted rows per AND gate, indexed by the input labels' color bits.
//! * **Row reduction (GRR3)** (Naor–Pinkas–Sumner): the output label is
//!   *derived* so the color-(0,0) row decrypts to all zeros and is never
//!   sent — three rows.
//! * **Half gates** (Zahur–Rosulek–Evans): two rows; lives in
//!   [`crate::garble_and`].
//!
//! All three share Free XOR (a global Δ), point-and-permute, and the
//! fixed-key-AES dual-key hash, so the comparison isolates exactly the
//! row-count optimization. The `ablation_schemes` bench prints the
//! bytes-per-gate and gates-per-second ladder.

use max_crypto::{Block, FixedKeyHash, Tweak};

use crate::label::Delta;

/// Which garbling scheme to use for AND gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Four ciphertext rows per AND.
    Classic,
    /// Three rows (row reduction).
    Grr3,
    /// Two rows (half gates).
    HalfGates,
}

impl Scheme {
    /// Ciphertext rows transmitted per AND gate.
    pub fn rows(self) -> usize {
        match self {
            Scheme::Classic => 4,
            Scheme::Grr3 => 3,
            Scheme::HalfGates => 2,
        }
    }

    /// Bytes on the wire per AND gate.
    pub fn bytes_per_gate(self) -> usize {
        self.rows() * 16
    }
}

/// A garbled AND gate under [`Scheme::Classic`] or [`Scheme::Grr3`]:
/// the ciphertext rows in color order (row `(pa, pb)` at index `2·pa + pb`,
/// with the all-zero row omitted for GRR3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowTable {
    /// Transmitted rows.
    pub rows: Vec<Block>,
}

/// Garbles one AND gate with four explicit rows (classic point-and-permute
/// over Free-XOR labels). Returns the fresh output zero-label and the table.
///
/// Row `2i + j` encrypts the output label for the input pair whose *colors*
/// are `(i, j)`.
pub fn garble_and_classic(
    hash: &FixedKeyHash,
    delta: Delta,
    fresh_c0: Block,
    a0: Block,
    b0: Block,
    tweak: Tweak,
) -> (Block, RowTable) {
    let d = delta.block();
    let c0 = fresh_c0;
    let mut rows = vec![Block::ZERO; 4];
    for va in [false, true] {
        for vb in [false, true] {
            let a = a0.xor_if(d, va);
            let b = b0.xor_if(d, vb);
            let out = c0.xor_if(d, va && vb);
            let row_index = 2 * (a.lsb() as usize) + b.lsb() as usize;
            rows[row_index] = hash.hash2(a, b, tweak) ^ out;
        }
    }
    (c0, RowTable { rows })
}

/// Evaluates a classic four-row AND gate.
pub fn evaluate_and_classic(
    hash: &FixedKeyHash,
    table: &RowTable,
    a: Block,
    b: Block,
    tweak: Tweak,
) -> Block {
    let row_index = 2 * (a.lsb() as usize) + b.lsb() as usize;
    table.rows[row_index] ^ hash.hash2(a, b, tweak)
}

/// Garbles one AND gate with row reduction (GRR3): the output zero-label is
/// derived from the hash of the color-(0,0) input pair, so that row is all
/// zeros and only three rows travel.
pub fn garble_and_grr3(
    hash: &FixedKeyHash,
    delta: Delta,
    a0: Block,
    b0: Block,
    tweak: Tweak,
) -> (Block, RowTable) {
    let d = delta.block();
    // The input pair whose colors are (0, 0).
    let a_col0 = a0.xor_if(d, a0.lsb());
    let b_col0 = b0.xor_if(d, b0.lsb());
    // Its plaintext values are the permute bits of the wires.
    let va = a0.lsb(); // a_col0 carries value va where color 0 ↔ value pa
    let vb = b0.lsb();
    // Derive: H(a_col0, b_col0) must equal the output label of value va∧vb.
    let derived = hash.hash2(a_col0, b_col0, tweak);
    let c0 = derived.xor_if(d, va && vb);

    let mut rows = [Block::ZERO; 4];
    for xa in [false, true] {
        for xb in [false, true] {
            let a = a0.xor_if(d, xa);
            let b = b0.xor_if(d, xb);
            let out = c0.xor_if(d, xa && xb);
            let row_index = 2 * (a.lsb() as usize) + b.lsb() as usize;
            rows[row_index] = hash.hash2(a, b, tweak) ^ out;
        }
    }
    debug_assert_eq!(rows[0], Block::ZERO, "GRR3 row 0 must vanish");
    (
        c0,
        RowTable {
            rows: rows[1..].to_vec(),
        },
    )
}

/// Evaluates a GRR3 AND gate (three transmitted rows; row 0 is implicit).
pub fn evaluate_and_grr3(
    hash: &FixedKeyHash,
    table: &RowTable,
    a: Block,
    b: Block,
    tweak: Tweak,
) -> Block {
    let row_index = 2 * (a.lsb() as usize) + b.lsb() as usize;
    let row = if row_index == 0 {
        Block::ZERO
    } else {
        table.rows[row_index - 1]
    };
    row ^ hash.hash2(a, b, tweak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_crypto::AesPrg;

    fn setup() -> (FixedKeyHash, Delta, AesPrg) {
        (
            FixedKeyHash::new(),
            Delta::from_block(Block::new(0x5151_6262_7373_8484_9595_a6a6_b7b7_c8c8)),
            AesPrg::new(Block::new(0x314159)),
        )
    }

    #[test]
    fn classic_all_four_inputs() {
        let (hash, delta, mut prg) = setup();
        for trial in 0..8 {
            let a0 = prg.next_block();
            let b0 = prg.next_block();
            let c_fresh = prg.next_block();
            let t = Tweak::from_gate_index(trial);
            let (c0, table) = garble_and_classic(&hash, delta, c_fresh, a0, b0, t);
            assert_eq!(table.rows.len(), 4);
            for va in [false, true] {
                for vb in [false, true] {
                    let a = a0.xor_if(delta.block(), va);
                    let b = b0.xor_if(delta.block(), vb);
                    let got = evaluate_and_classic(&hash, &table, a, b, t);
                    let want = c0.xor_if(delta.block(), va && vb);
                    assert_eq!(got, want, "trial {trial}: {va} AND {vb}");
                }
            }
        }
    }

    #[test]
    fn grr3_all_four_inputs() {
        let (hash, delta, mut prg) = setup();
        for trial in 0..8 {
            let a0 = prg.next_block();
            let b0 = prg.next_block();
            let t = Tweak::from_gate_index(100 + trial);
            let (c0, table) = garble_and_grr3(&hash, delta, a0, b0, t);
            assert_eq!(table.rows.len(), 3);
            for va in [false, true] {
                for vb in [false, true] {
                    let a = a0.xor_if(delta.block(), va);
                    let b = b0.xor_if(delta.block(), vb);
                    let got = evaluate_and_grr3(&hash, &table, a, b, t);
                    let want = c0.xor_if(delta.block(), va && vb);
                    assert_eq!(got, want, "trial {trial}: {va} AND {vb}");
                }
            }
        }
    }

    #[test]
    fn schemes_form_a_size_ladder() {
        assert_eq!(Scheme::Classic.bytes_per_gate(), 64);
        assert_eq!(Scheme::Grr3.bytes_per_gate(), 48);
        assert_eq!(Scheme::HalfGates.bytes_per_gate(), 32);
        assert!(Scheme::Classic.rows() > Scheme::Grr3.rows());
        assert!(Scheme::Grr3.rows() > Scheme::HalfGates.rows());
    }

    #[test]
    fn grr3_output_depends_on_inputs_not_fresh_randomness() {
        // Determinism of the derived label: same inputs → same output label.
        let (hash, delta, mut prg) = setup();
        let a0 = prg.next_block();
        let b0 = prg.next_block();
        let t = Tweak::from_gate_index(7);
        let (c0_first, _) = garble_and_grr3(&hash, delta, a0, b0, t);
        let (c0_second, _) = garble_and_grr3(&hash, delta, a0, b0, t);
        assert_eq!(c0_first, c0_second);
    }

    #[test]
    fn all_three_schemes_agree_with_half_gates_semantics() {
        // Same wires garbled under all three schemes decode to the same
        // plaintext AND for all inputs.
        let (hash, delta, mut prg) = setup();
        let a0 = prg.next_block();
        let b0 = prg.next_block();
        let fresh = prg.next_block();
        let t = Tweak::from_gate_index(9);
        let (c_classic, tab_classic) = garble_and_classic(&hash, delta, fresh, a0, b0, t);
        let (c_grr3, tab_grr3) = garble_and_grr3(&hash, delta, a0, b0, t);
        let (c_half, tab_half) = crate::garble_and(&hash, delta, a0, b0, t);
        for va in [false, true] {
            for vb in [false, true] {
                let a = a0.xor_if(delta.block(), va);
                let b = b0.xor_if(delta.block(), vb);
                let want = va && vb;
                let classic = evaluate_and_classic(&hash, &tab_classic, a, b, t);
                let grr3 = evaluate_and_grr3(&hash, &tab_grr3, a, b, t);
                let half = crate::evaluate_and(&hash, tab_half, a, b, t);
                // Decode each against its own zero-label:
                assert_eq!(classic != c_classic, want);
                assert_eq!(grr3 != c_grr3, want);
                assert_eq!(half != c_half, want);
            }
        }
    }
}
