//! Arithmetic bus operations with minimal AND-gate counts.
//!
//! All constructions follow the GC-optimized library the paper inherits from
//! TinyGarble: a full adder costs exactly **one** AND gate
//! (`carry' = c ⊕ ((a ⊕ c) ∧ (b ⊕ c))`, `sum = a ⊕ b ⊕ c`), so an `n`-bit
//! addition costs `n` ANDs and a conditional negation costs `n` ANDs.

use crate::builder::{Builder, Bus};
use crate::ir::WireId;

impl Builder {
    /// One-AND full adder; returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: WireId, b: WireId, cin: WireId) -> (WireId, WireId) {
        let axc = self.xor(a, cin);
        let bxc = self.xor(b, cin);
        let sum = self.xor(axc, b);
        let and = self.and(axc, bxc);
        let cout = self.xor(cin, and);
        (sum, cout)
    }

    /// Ripple-carry addition producing `max(width)+1` bits (no overflow).
    pub fn add_expand(&mut self, a: &Bus, b: &Bus) -> Bus {
        let width = a.width().max(b.width());
        let (sum, carry) = self.add_with_carry(a, b, None, width);
        let mut wires = sum.wires().to_vec();
        wires.push(carry);
        Bus::new(wires)
    }

    /// Ripple-carry addition modulo `2^width` where `width = max(a, b)`
    /// (the carry out is dropped) — the accumulator form.
    pub fn add_wrap(&mut self, a: &Bus, b: &Bus) -> Bus {
        let width = a.width().max(b.width());
        self.add_with_carry(a, b, None, width).0
    }

    /// `width`-bit addition with optional carry-in; returns `(sum, carry_out)`.
    ///
    /// Inputs narrower than `width` are zero-extended. The final carry costs
    /// one AND like every other position.
    pub fn add_with_carry(
        &mut self,
        a: &Bus,
        b: &Bus,
        cin: Option<WireId>,
        width: usize,
    ) -> (Bus, WireId) {
        let zero = self.zero();
        let mut carry = cin.unwrap_or(zero);
        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            let ai = if i < a.width() { a.bit(i) } else { zero };
            let bi = if i < b.width() { b.bit(i) } else { zero };
            let (s, c) = self.full_adder(ai, bi, carry);
            sum.push(s);
            carry = c;
        }
        (Bus::new(sum), carry)
    }

    /// Two's complement negation `-a` (one AND per bit via conditional form
    /// with a constant-true select folds to `¬a + 1`).
    pub fn negate(&mut self, a: &Bus) -> Bus {
        let one = self.constant(true);
        self.cond_negate(one, a)
    }

    /// Conditional two's complement: `sel ? -a : a`.
    ///
    /// The paper's "multiplexer-2's complement pair" for signed-input
    /// support (§4.3). Computed as `(a ⊕ sel) + sel`: the XOR stage is free
    /// and the increment-by-select ripple costs one AND per bit.
    pub fn cond_negate(&mut self, sel: WireId, a: &Bus) -> Bus {
        let flipped: Bus = a.iter().map(|&w| self.xor(w, sel)).collect();
        let mut carry = sel;
        let mut out = Vec::with_capacity(a.width());
        for (i, &f) in flipped.iter().enumerate() {
            let s = self.xor(f, carry);
            out.push(s);
            if i + 1 < a.width() {
                carry = self.and(f, carry);
            }
        }
        Bus::new(out)
    }

    /// ANDs every bit of `a` with the single wire `sel` — a partial-product
    /// row (one AND per bit).
    pub fn and_bus(&mut self, sel: WireId, a: &Bus) -> Bus {
        a.iter().map(|&w| self.and(sel, w)).collect()
    }

    /// Zero-extends `a` to `width` bits.
    pub fn zero_extend(&mut self, a: &Bus, width: usize) -> Bus {
        assert!(width >= a.width(), "cannot zero-extend to a narrower bus");
        let zero = self.zero();
        let mut wires = a.wires().to_vec();
        wires.resize(width, zero);
        Bus::new(wires)
    }

    /// Sign-extends `a` to `width` bits (free: the sign wire is replicated).
    pub fn sign_extend(&mut self, a: &Bus, width: usize) -> Bus {
        assert!(width >= a.width(), "cannot sign-extend to a narrower bus");
        let sign = a.msb();
        let mut wires = a.wires().to_vec();
        wires.resize(width, sign);
        Bus::new(wires)
    }

    /// Equality comparator: 1 when `a == b`. Costs `width - 1` ANDs.
    pub fn eq_bus(&mut self, a: &Bus, b: &Bus) -> WireId {
        assert_eq!(a.width(), b.width(), "eq bus width mismatch");
        let diffs: Vec<WireId> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| {
                let d = self.xor(x, y);
                self.not(d)
            })
            .collect();
        let mut acc = diffs[0];
        for &d in &diffs[1..] {
            acc = self.and(acc, d);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_signed, decode_unsigned, encode_signed, encode_unsigned};

    fn eval_binary(
        f: impl Fn(&mut Builder, &Bus, &Bus) -> Bus,
        width: usize,
        a: u64,
        b: u64,
    ) -> u64 {
        let mut builder = Builder::new();
        let ba = builder.garbler_input_bus(width);
        let bb = builder.evaluator_input_bus(width);
        let out = f(&mut builder, &ba, &bb);
        let netlist = builder.build(out.wires().to_vec());
        decode_unsigned(&netlist.evaluate(&encode_unsigned(a, width), &encode_unsigned(b, width)))
    }

    #[test]
    fn add_expand_never_overflows() {
        for (a, b) in [(0u64, 0u64), (255, 255), (200, 100), (1, 254)] {
            assert_eq!(
                eval_binary(|bld, x, y| bld.add_expand(x, y), 8, a, b),
                a + b
            );
        }
    }

    #[test]
    fn add_wrap_wraps() {
        assert_eq!(
            eval_binary(|bld, x, y| bld.add_wrap(x, y), 8, 200, 100),
            (200 + 100) % 256
        );
    }

    #[test]
    fn adder_uses_one_and_per_bit() {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(16);
        let y = b.evaluator_input_bus(16);
        let sum = b.add_wrap(&x, &y);
        let netlist = b.build(sum.wires().to_vec());
        assert_eq!(netlist.stats().and_gates, 16);
    }

    #[test]
    fn negate_is_twos_complement() {
        for v in [-128i64, -5, -1, 0, 1, 127] {
            let mut b = Builder::new();
            let x = b.garbler_input_bus(8);
            let neg = b.negate(&x);
            let netlist = b.build(neg.wires().to_vec());
            let out = netlist.evaluate(&encode_signed(v, 8), &[]);
            // -(-128) wraps back to -128 in 8-bit two's complement.
            let expected = (v as i8).wrapping_neg() as i64;
            assert_eq!(decode_signed(&out), expected, "v = {v}");
        }
    }

    #[test]
    fn cond_negate_selects() {
        for v in [-100i64, -1, 0, 1, 100] {
            for sel in [false, true] {
                let mut b = Builder::new();
                let s = b.garbler_input();
                let x = b.garbler_input_bus(8);
                let out = b.cond_negate(s, &x);
                let netlist = b.build(out.wires().to_vec());
                let mut inputs = vec![sel];
                inputs.extend(encode_signed(v, 8));
                let got = decode_signed(&netlist.evaluate(&inputs, &[]));
                assert_eq!(got, if sel { -v } else { v });
            }
        }
    }

    #[test]
    fn cond_negate_costs_width_minus_one_ands() {
        let mut b = Builder::new();
        let s = b.garbler_input();
        let x = b.garbler_input_bus(8);
        let out = b.cond_negate(s, &x);
        let netlist = b.build(out.wires().to_vec());
        assert_eq!(netlist.stats().and_gates, 7);
    }

    #[test]
    fn and_bus_is_partial_product() {
        for sel in [false, true] {
            let mut b = Builder::new();
            let s = b.garbler_input();
            let x = b.garbler_input_bus(8);
            let out = b.and_bus(s, &x);
            let netlist = b.build(out.wires().to_vec());
            let mut inputs = vec![sel];
            inputs.extend(encode_unsigned(0xC3, 8));
            let got = decode_unsigned(&netlist.evaluate(&inputs, &[]));
            assert_eq!(got, if sel { 0xC3 } else { 0 });
        }
    }

    #[test]
    fn extensions() {
        let mut b = Builder::new();
        let x = b.garbler_input_bus(4);
        let ze = b.zero_extend(&x, 8);
        let se = b.sign_extend(&x, 8);
        let netlist = b.build(ze.wires().iter().chain(se.wires()).copied().collect());
        let out = netlist.evaluate(&encode_signed(-3, 4), &[]);
        assert_eq!(decode_unsigned(&out[..8]), 0b0000_1101);
        assert_eq!(decode_signed(&out[8..]), -3);
    }

    #[test]
    fn comparators() {
        for (a, b) in [(3u64, 5u64), (5, 3), (7, 7), (0, 255), (255, 0)] {
            let mut bld = Builder::new();
            let x = bld.garbler_input_bus(8);
            let y = bld.evaluator_input_bus(8);
            let eq = bld.eq_bus(&x, &y);
            let netlist = bld.build(vec![eq]);
            let out = netlist.evaluate(&encode_unsigned(a, 8), &encode_unsigned(b, 8));
            assert_eq!(out[0], a == b, "eq({a},{b})");
        }
    }
}
