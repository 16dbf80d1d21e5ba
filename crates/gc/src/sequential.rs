//! Sequential garbled circuits (TinyGarble, §2 of the paper): the same
//! netlist garbled for `M` rounds with fresh labels, with designated *state*
//! wires carried from each round's outputs into the next round's inputs.
//!
//! For MAXelerator the netlist is one MAC and the state is the accumulator:
//! round `l` computes `acc ← acc + a[l]·x[l]`. The garbler refreshes the
//! labels of `a` and `x` every round (required for security) but pins the
//! round-`l+1` accumulator-input zero-labels to the round-`l` accumulator-
//! output zero-labels, so the evaluator's carried *active* labels remain
//! valid without any extra communication. Δ is shared across rounds
//! (Free-XOR state carry requires it).
//!
//! Intermediate accumulator values stay hidden: the output-decode bits are
//! only released for the final round.

use std::ops::Range;

use max_crypto::Block;
use max_netlist::Netlist;

use crate::evaluator::Evaluator;
use crate::garbler::{GarbledCircuit, Garbler, Material};
use crate::label::{Delta, LabelSource};

/// The public message for one sequential round.
#[derive(Clone, Debug)]
pub struct SequentialRound {
    /// Round index, starting at 0.
    pub round: u64,
    /// Garbled tables (output-decode bits stripped unless final).
    pub material: Material,
    /// Active labels for the garbler's non-state inputs (position order)
    /// followed by the constants.
    pub garbler_labels: Vec<Block>,
    /// Round 0 only: active labels for the state inputs' initial value.
    pub initial_state_labels: Option<Vec<Block>>,
    /// Final round only: the output decode bits.
    pub decode: Option<Vec<bool>>,
}

impl SequentialRound {
    /// Bytes this round occupies on the wire (tables + labels + decode).
    pub fn wire_bytes(&self) -> usize {
        self.material.tables.len() * crate::engine::GarbledTable::WIRE_BYTES
            + self.garbler_labels.len() * 16
            + self
                .initial_state_labels
                .as_ref()
                .map_or(0, |l| l.len() * 16)
            + self.decode.as_ref().map_or(0, |d| d.len().div_ceil(8))
    }
}

/// Garbler side of sequential GC.
#[derive(Debug)]
pub struct SequentialGarbler<S: LabelSource> {
    netlist: Netlist,
    labels: S,
    delta: Delta,
    state_inputs: Range<usize>,
    state_len: usize,
    carried_zero_labels: Option<Vec<Block>>,
    round: u64,
    ands_per_round: u64,
    /// Secret handle of the most recent round (OT label pairs).
    last: Option<GarbledCircuit>,
}

impl<S: LabelSource> SequentialGarbler<S> {
    /// Creates a sequential garbler.
    ///
    /// `state_inputs` is the positional range of garbler inputs that receive
    /// the previous round's outputs; its length must equal the output count.
    ///
    /// # Panics
    ///
    /// Panics if the state range is out of bounds or its length differs
    /// from the netlist's output count.
    pub fn new(netlist: Netlist, mut labels: S, state_inputs: Range<usize>) -> Self {
        assert!(
            state_inputs.end <= netlist.garbler_inputs().len(),
            "state range out of bounds"
        );
        assert_eq!(
            state_inputs.len(),
            netlist.outputs().len(),
            "state width must equal output width"
        );
        let delta = labels.next_delta();
        let ands_per_round = netlist.stats().and_gates as u64;
        let state_len = state_inputs.len();
        SequentialGarbler {
            netlist,
            labels,
            delta,
            state_inputs,
            state_len,
            carried_zero_labels: None,
            round: 0,
            ands_per_round,
            last: None,
        }
    }

    /// The global Δ (stable across rounds).
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// Garbles the next round.
    ///
    /// * `non_state_bits` — the garbler's fresh input bits for this round
    ///   (e.g. the matrix element `a[l]`), positionally skipping the state
    ///   range.
    /// * `initial_state_bits` — required in round 0 (e.g. `acc = 0`),
    ///   forbidden afterwards.
    /// * `last` — set to release the output decode bits.
    ///
    /// # Panics
    ///
    /// Panics on input-length mismatches or misuse of `initial_state_bits`.
    pub fn garble_round(
        &mut self,
        non_state_bits: &[bool],
        initial_state_bits: Option<&[bool]>,
        last: bool,
    ) -> SequentialRound {
        let total_inputs = self.netlist.garbler_inputs().len();
        let non_state_count = total_inputs - self.state_len;
        assert_eq!(
            non_state_bits.len(),
            non_state_count,
            "non-state garbler bit count mismatch"
        );
        if self.round == 0 {
            assert!(
                initial_state_bits.is_some(),
                "round 0 requires initial state bits"
            );
        } else {
            assert!(
                initial_state_bits.is_none(),
                "initial state bits are only valid in round 0"
            );
        }

        // Pin carried state labels (none in round 0).
        let fixed: Vec<(usize, Block)> = match &self.carried_zero_labels {
            Some(labels) => self
                .state_inputs
                .clone()
                .zip(labels.iter().copied())
                .collect(),
            None => Vec::new(),
        };
        let tweak_base = 1 + self.round * self.ands_per_round;
        let garbled = {
            let mut garbler = Garbler::with_delta(&mut self.labels, self.delta);
            garbler.garble_with_state(&self.netlist, tweak_base, &fixed)
        };

        // Build the full garbler-input bit vector to encode labels, then
        // split out what actually travels.
        let mut full_bits = vec![false; total_inputs];
        let mut non_state_iter = non_state_bits.iter();
        for (pos, bit) in full_bits.iter_mut().enumerate() {
            if !self.state_inputs.contains(&pos) {
                *bit = *non_state_iter.next().expect("checked length");
            }
        }
        if let Some(init) = initial_state_bits {
            assert_eq!(init.len(), self.state_len, "initial state width mismatch");
            for (offset, &bit) in init.iter().enumerate() {
                full_bits[self.state_inputs.start + offset] = bit;
            }
        }
        let all_labels = garbled.encode_garbler_inputs(&full_bits);
        let mut garbler_labels = Vec::with_capacity(all_labels.len() - self.state_len);
        let mut state_labels = Vec::with_capacity(self.state_len);
        for (pos, label) in all_labels.iter().enumerate() {
            // Constants ride at the tail beyond the input positions.
            if pos < total_inputs && self.state_inputs.contains(&pos) {
                state_labels.push(*label);
            } else {
                garbler_labels.push(*label);
            }
        }

        let material = Material {
            tables: garbled.material().tables.clone(),
            output_decode: Vec::new(),
        };
        let round = SequentialRound {
            round: self.round,
            material,
            garbler_labels,
            initial_state_labels: (self.round == 0).then_some(state_labels),
            decode: last.then(|| garbled.material().output_decode.clone()),
        };
        self.carried_zero_labels = Some(garbled.output_zero_labels());
        self.last = Some(garbled);
        self.round += 1;
        round
    }

    /// OT message pairs `(m0, m1)` for the evaluator inputs of the round
    /// garbled most recently.
    ///
    /// # Panics
    ///
    /// Panics if no round has been garbled yet.
    pub fn evaluator_label_pairs(&self) -> Vec<(Block, Block)> {
        let garbled = self.last.as_ref().expect("no round garbled yet");
        (0..self.netlist.evaluator_inputs().len())
            .map(|i| garbled.evaluator_label_pair(i))
            .collect()
    }
}

/// Evaluator side of sequential GC.
#[derive(Debug)]
pub struct SequentialEvaluator {
    netlist: Netlist,
    state_inputs: Range<usize>,
    carried_active: Option<Vec<Block>>,
    evaluator: Evaluator,
    ands_per_round: u64,
    round: u64,
}

impl SequentialEvaluator {
    /// Creates the evaluator side; arguments mirror [`SequentialGarbler::new`].
    ///
    /// # Panics
    ///
    /// Panics if the state range is inconsistent with the netlist.
    pub fn new(netlist: Netlist, state_inputs: Range<usize>) -> Self {
        assert!(
            state_inputs.end <= netlist.garbler_inputs().len(),
            "state range out of bounds"
        );
        assert_eq!(
            state_inputs.len(),
            netlist.outputs().len(),
            "state width must equal output width"
        );
        let ands_per_round = netlist.stats().and_gates as u64;
        SequentialEvaluator {
            netlist,
            state_inputs,
            carried_active: None,
            evaluator: Evaluator::new(),
            ands_per_round,
            round: 0,
        }
    }

    /// Evaluates one round; `evaluator_labels` are this round's OT outputs.
    ///
    /// Returns the decoded outputs when the round carries decode bits
    /// (i.e. it was garbled as the last round).
    ///
    /// # Panics
    ///
    /// Panics if rounds arrive out of order or label counts mismatch.
    pub fn evaluate_round(
        &mut self,
        round: &SequentialRound,
        evaluator_labels: &[Block],
    ) -> Option<Vec<bool>> {
        assert_eq!(round.round, self.round, "round out of order");
        let total_inputs = self.netlist.garbler_inputs().len();
        let state_len = self.state_inputs.len();
        let constants = self.netlist.constants().len();
        assert_eq!(
            round.garbler_labels.len(),
            total_inputs - state_len + constants,
            "garbler label count mismatch"
        );

        // Reassemble the full garbler label vector (inputs then constants).
        let state_active: Vec<Block> = if self.round == 0 {
            round
                .initial_state_labels
                .clone()
                .expect("round 0 must carry initial state labels")
        } else {
            self.carried_active.clone().expect("state not carried")
        };
        let mut full = Vec::with_capacity(total_inputs + constants);
        let mut sent = round.garbler_labels.iter();
        let mut state = state_active.iter();
        for pos in 0..total_inputs {
            if self.state_inputs.contains(&pos) {
                full.push(*state.next().expect("state width checked"));
            } else {
                full.push(*sent.next().expect("label width checked"));
            }
        }
        full.extend(sent);

        let tweak_base = 1 + self.round * self.ands_per_round;
        let outputs = self.evaluator.evaluate(
            &self.netlist,
            &round.material,
            &full,
            evaluator_labels,
            tweak_base,
        );
        self.round += 1;
        self.carried_active = Some(outputs.clone());
        round.decode.as_ref().map(|decode| {
            outputs
                .iter()
                .zip(decode)
                .map(|(label, &d)| label.lsb() ^ d)
                .collect()
        })
    }

    /// Active output labels of the last evaluated round.
    pub fn carried_labels(&self) -> Option<&[Block]> {
        self.carried_active.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::PrgLabelSource;
    use max_netlist::{decode_signed, encode_signed, MacCircuit, MultiplierKind, Sign};

    /// Runs a full secure dot product with trusted label delivery (the OT
    /// integration test lives in the suite crate).
    fn secure_dot(a: &[i64], x: &[i64], bit_width: usize, acc_width: usize) -> i64 {
        let mac = MacCircuit::build(bit_width, acc_width, Sign::Signed, MultiplierKind::Tree);
        let state_range = bit_width..bit_width + acc_width;
        let mut garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(0xfeed_f00d)),
            state_range.clone(),
        );
        let mut evaluator = SequentialEvaluator::new(mac.netlist().clone(), state_range);

        let mut result = None;
        for (l, (&al, &xl)) in a.iter().zip(x).enumerate() {
            let last = l == a.len() - 1;
            let a_bits = encode_signed(al, bit_width);
            let init = (l == 0).then(|| encode_signed(0, acc_width));
            let round = garbler.garble_round(&a_bits, init.as_deref(), last);
            // Trusted delivery standing in for OT:
            let x_bits = encode_signed(xl, bit_width);
            let e_labels: Vec<Block> = garbler
                .evaluator_label_pairs()
                .iter()
                .zip(&x_bits)
                .map(|(&(m0, m1), &bit)| if bit { m1 } else { m0 })
                .collect();
            result = evaluator.evaluate_round(&round, &e_labels);
        }
        decode_signed(&result.expect("final round decodes"))
    }

    #[test]
    fn dot_product_matches_plaintext() {
        let a = [3i64, -4, 5, 0, -7, 2];
        let x = [1i64, 2, -3, 4, 5, -6];
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
        assert_eq!(secure_dot(&a, &x, 8, 24), expected);
    }

    #[test]
    fn single_round_dot() {
        assert_eq!(secure_dot(&[-128], &[-128], 8, 24), 16384);
    }

    #[test]
    fn long_vector_accumulates() {
        let a: Vec<i64> = (0..50).map(|i| (i % 17) - 8).collect();
        let x: Vec<i64> = (0..50).map(|i| (i % 13) - 6).collect();
        let expected: i64 = a.iter().zip(&x).map(|(p, q)| p * q).sum();
        assert_eq!(secure_dot(&a, &x, 8, 24), expected);
    }

    #[test]
    fn client_memory_stays_one_round_sized() {
        // The §3 claim: per-round OT means the client never holds more than
        // one round of labels (+ state), regardless of vector length.
        let mac = MacCircuit::build(8, 24, Sign::Signed, MultiplierKind::Tree);
        let run = |len: usize| {
            let mut garbler = SequentialGarbler::new(
                mac.netlist().clone(),
                PrgLabelSource::new(Block::new(9)),
                8..32,
            );
            let mut evaluator = SequentialEvaluator::new(mac.netlist().clone(), 8..32);
            let (mut peak_labels, mut garbler_sent) = (0usize, 0usize);
            for i in 0..len {
                let init = (i == 0).then(|| encode_signed(0, 24));
                let a_bits = encode_signed(i as i64 % 100, 8);
                let round = garbler.garble_round(&a_bits, init.as_deref(), i == len - 1);
                let x_bits = encode_signed((i as i64 % 7) - 3, 8);
                let e_labels: Vec<Block> = garbler
                    .evaluator_label_pairs()
                    .iter()
                    .zip(&x_bits)
                    .map(|(&(m0, m1), &bit)| if bit { m1 } else { m0 })
                    .collect();
                // The client's live label footprint this round: fresh
                // garbler + own labels + carried state (outputs of the
                // previous round).
                let held = round.garbler_labels.len()
                    + e_labels.len()
                    + round.initial_state_labels.as_ref().map_or(
                        evaluator.carried_labels().map_or(0, <[Block]>::len),
                        Vec::len,
                    );
                peak_labels = peak_labels.max(held);
                garbler_sent += round.wire_bytes();
                evaluator.evaluate_round(&round, &e_labels);
            }
            (peak_labels, garbler_sent)
        };
        let (short_peak, short_sent) = run(2);
        let (long_peak, long_sent) = run(16);
        assert_eq!(short_peak, long_peak);
        // But the garbler's total traffic grows with length.
        assert!(long_sent > 4 * short_sent);
    }

    #[test]
    fn intermediate_rounds_do_not_decode() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        let range = 4..14;
        let mut garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(1)),
            range.clone(),
        );
        let round = garbler.garble_round(&encode_signed(1, 4), Some(&encode_signed(0, 10)), false);
        assert!(round.decode.is_none());
        assert!(round.material.output_decode.is_empty());
        let round2 = garbler.garble_round(&encode_signed(2, 4), None, true);
        assert!(round2.decode.is_some());
    }

    #[test]
    fn fresh_labels_every_round() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        let range = 4..14;
        let mut garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(2)),
            range,
        );
        let r0 = garbler.garble_round(&encode_signed(3, 4), Some(&encode_signed(0, 10)), false);
        let pairs0 = garbler.evaluator_label_pairs();
        let r1 = garbler.garble_round(&encode_signed(3, 4), None, false);
        let pairs1 = garbler.evaluator_label_pairs();
        // Same plaintext a-bits, but labels and tables must differ.
        assert_ne!(r0.garbler_labels, r1.garbler_labels);
        assert_ne!(pairs0, pairs1);
        assert_ne!(r0.material.tables, r1.material.tables);
    }

    #[test]
    #[should_panic(expected = "round 0 requires initial state bits")]
    fn round_zero_needs_state() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        let mut garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(3)),
            4..14,
        );
        garbler.garble_round(&encode_signed(0, 4), None, false);
    }

    #[test]
    #[should_panic(expected = "state width must equal output width")]
    fn bad_state_range_rejected() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        SequentialEvaluator::new(mac.netlist().clone(), 4..10);
    }

    #[test]
    fn wire_bytes_positive_and_consistent() {
        let mac = MacCircuit::build(4, 10, Sign::Signed, MultiplierKind::Tree);
        let mut garbler = SequentialGarbler::new(
            mac.netlist().clone(),
            PrgLabelSource::new(Block::new(5)),
            4..14,
        );
        let r0 = garbler.garble_round(&encode_signed(1, 4), Some(&encode_signed(0, 10)), false);
        let r1 = garbler.garble_round(&encode_signed(1, 4), None, false);
        // Round 0 carries initial state labels, so it is strictly larger.
        assert!(r0.wire_bytes() > r1.wire_bytes());
        assert!(
            r1.wire_bytes()
                >= mac.netlist().stats().and_gates * crate::engine::GarbledTable::WIRE_BYTES
        );
    }
}
