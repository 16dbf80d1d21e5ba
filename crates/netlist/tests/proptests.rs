//! Property-based tests: circuit semantics must match integer semantics for
//! random operands at random widths.

use max_netlist::{
    decode_signed, decode_unsigned, encode_signed, encode_unsigned, Builder, MacCircuit,
    MultiplierKind, Sign,
};
use proptest::prelude::*;

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

proptest! {
    #[test]
    fn add_expand_matches_u64(width in 1usize..16, a: u64, b: u64) {
        let a = a & mask(width);
        let b = b & mask(width);
        let mut bld = Builder::new();
        let ba = bld.garbler_input_bus(width);
        let bb = bld.evaluator_input_bus(width);
        let sum = bld.add_expand(&ba, &bb);
        let netlist = bld.build(sum.wires().to_vec());
        let out = netlist.evaluate(&encode_unsigned(a, width), &encode_unsigned(b, width));
        prop_assert_eq!(decode_unsigned(&out), a + b);
    }

    #[test]
    fn multipliers_match_u64(width in 1usize..12, a: u64, x: u64, serial: bool) {
        let a = a & mask(width);
        let x = x & mask(width);
        let kind = if serial { MultiplierKind::Serial } else { MultiplierKind::Tree };
        let mut bld = Builder::new();
        let ba = bld.garbler_input_bus(width);
        let bx = bld.evaluator_input_bus(width);
        let prod = bld.mul(kind, &ba, &bx);
        let netlist = bld.build(prod.wires().to_vec());
        let out = netlist.evaluate(&encode_unsigned(a, width), &encode_unsigned(x, width));
        prop_assert_eq!(decode_unsigned(&out), a * x);
    }

    #[test]
    fn signed_mac_matches_i64(
        width in 2usize..10,
        a: i64,
        x: i64,
        acc: i64,
    ) {
        let bound = 1i64 << (width - 1);
        let a = a.rem_euclid(2 * bound) - bound;
        let x = x.rem_euclid(2 * bound) - bound;
        let acc_width = 2 * width + 4;
        let acc_bound = 1i64 << (acc_width - 1);
        let acc = acc.rem_euclid(2 * acc_bound) - acc_bound;
        let mac = MacCircuit::build(width, acc_width, Sign::Signed, MultiplierKind::Tree);
        let expected_wide = acc as i128 + (a as i128) * (x as i128);
        // Reduce into the accumulator's two's-complement range.
        let modulus = 1i128 << acc_width;
        let mut expected = expected_wide.rem_euclid(modulus);
        if expected >= modulus / 2 {
            expected -= modulus;
        }
        prop_assert_eq!(mac.evaluate_signed(a, acc, x) as i128, expected);
    }

    #[test]
    fn unsigned_mac_matches_u64(
        width in 1usize..10,
        a: u64,
        x: u64,
        acc: u64,
    ) {
        let a = a & mask(width);
        let x = x & mask(width);
        let acc_width = 2 * width + 4;
        let acc = acc & mask(acc_width);
        let mac = MacCircuit::build(width, acc_width, Sign::Unsigned, MultiplierKind::Tree);
        let expected = (acc as u128 + a as u128 * x as u128) & mask(acc_width) as u128;
        prop_assert_eq!(mac.evaluate_unsigned(a, acc, x) as u128, expected);
    }

    #[test]
    fn encode_decode_signed_roundtrip(width in 1usize..=64, v: i64) {
        let v = if width == 64 {
            v
        } else {
            let bound = 1i128 << (width - 1);
            (((v as i128).rem_euclid(2 * bound)) - bound) as i64
        };
        prop_assert_eq!(decode_signed(&encode_signed(v, width)), v);
    }

    #[test]
    fn comparators_match(width in 1usize..16, a: u64, b: u64) {
        let a = a & mask(width);
        let b = b & mask(width);
        let mut bld = Builder::new();
        let ba = bld.garbler_input_bus(width);
        let bb = bld.evaluator_input_bus(width);
        let eq = bld.eq_bus(&ba, &bb);
        let netlist = bld.build(vec![eq]);
        let out = netlist.evaluate(&encode_unsigned(a, width), &encode_unsigned(b, width));
        prop_assert_eq!(out[0], a == b);
    }

    #[test]
    fn netlists_always_validate(width in 1usize..10, signed: bool) {
        let sign = if signed { Sign::Signed } else { Sign::Unsigned };
        let mac = MacCircuit::build(width, 2 * width + 2, sign, MultiplierKind::Tree);
        prop_assert!(mac.netlist().validate().is_ok());
    }
}
