//! The accelerator's label generator (§5.2): a power-gated bank of RO-RNGs
//! wide enough for the worst-case demand of `k × (b/2)` bits per cycle.
//!
//! The bank's *entropy source* is modelled and validated offline
//! ([`crate::RoRng`], [`crate::nist`]); the served label stream is a seeded
//! AES-CTR expansion, and the FSM's power gating is closed form: a clock at
//! demand `d` powers `d × LABEL_BITS` of the `(b/2) × LABEL_BITS` RNGs.

use max_crypto::{AesPrg, Block};

/// Security parameter: wire-label width in bits.
pub const LABEL_BITS: usize = 128;

/// Hardware label generator: `LABEL_BITS × (bit_width / 2)` RO-RNGs, gated
/// per cycle to the number of labels the scheduling FSM actually needs.
///
/// # Example
///
/// ```
/// use max_rng::LabelGenerator;
///
/// let mut lg = LabelGenerator::new(0xfeed, 8);
/// assert_eq!(lg.max_labels_per_cycle(), 4);
/// let labels = lg.clock(2);
/// assert_eq!(labels.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LabelGenerator {
    stream: AesPrg,
    max_labels: usize,
    cycles: u64,
    labels_produced: u64,
}

impl LabelGenerator {
    /// Creates a label generator sized for MAC bit-width `bit_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width` is zero or odd.
    pub fn new(seed: u64, bit_width: usize) -> Self {
        assert!(
            bit_width > 0 && bit_width.is_multiple_of(2),
            "bit width must be even and positive"
        );
        LabelGenerator {
            stream: AesPrg::new(Block::new(u128::from(seed))),
            max_labels: bit_width / 2,
            cycles: 0,
            labels_produced: 0,
        }
    }

    /// Switches to the label stream of `seed` (the next output element's);
    /// the bank keeps running, so the cycle and energy accounts carry on.
    pub fn reseed(&mut self, seed: u64) {
        self.stream = AesPrg::new(Block::new(u128::from(seed)));
    }

    /// Worst-case labels per cycle the generator can sustain.
    pub fn max_labels_per_cycle(&self) -> usize {
        self.max_labels
    }

    /// Advances one clock, producing `demand` fresh labels and power-gating
    /// the rest of the bank.
    ///
    /// # Panics
    ///
    /// Panics if `demand > self.max_labels_per_cycle()`.
    pub fn clock(&mut self, demand: usize) -> Vec<Block> {
        assert!(
            demand <= self.max_labels,
            "demand {demand} exceeds generator width {}",
            self.max_labels
        );
        self.cycles += 1;
        self.labels_produced += demand as u64;
        self.stream.blocks(demand)
    }

    /// Produces one label immediately (one clock at demand 1).
    pub fn next_label(&mut self) -> Block {
        self.clock(1)[0]
    }

    /// Generates the global Free-XOR offset Δ with its permute bit forced to
    /// 1, as required by point-and-permute.
    pub fn delta(&mut self) -> Block {
        self.next_label().with_lsb(true)
    }

    /// Report for the energy/utilization accounting of §5.2.
    pub fn report(&self) -> LabelGeneratorReport {
        let bank_width = (LABEL_BITS * self.max_labels) as u64;
        LabelGeneratorReport {
            cycles: self.cycles,
            labels_produced: self.labels_produced,
            active_rng_cycles: self.labels_produced * LABEL_BITS as u64,
            worst_case_rng_cycles: self.cycles * bank_width,
        }
    }
}

/// Energy accounting snapshot of a [`LabelGenerator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelGeneratorReport {
    /// Clock cycles driven.
    pub cycles: u64,
    /// Labels handed to the garbling cores.
    pub labels_produced: u64,
    /// RNG-cycles actually powered.
    pub active_rng_cycles: u64,
    /// RNG-cycles an ungated design would have burned.
    pub worst_case_rng_cycles: u64,
}

impl LabelGeneratorReport {
    /// Energy saved by FSM power gating, as a fraction of worst case.
    pub fn energy_saving(&self) -> f64 {
        if self.worst_case_rng_cycles == 0 {
            return 0.0;
        }
        1.0 - self.active_rng_cycles as f64 / self.worst_case_rng_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_labels() {
        let mut lg = LabelGenerator::new(1, 8);
        assert_eq!(lg.clock(4).len(), 4);
        assert_eq!(lg.clock(0).len(), 0);
        assert_eq!(lg.clock(1).len(), 1);
    }

    #[test]
    fn labels_are_distinct() {
        let mut lg = LabelGenerator::new(2, 16);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            for label in lg.clock(8) {
                assert!(seen.insert(label), "label collision");
            }
        }
    }

    #[test]
    fn delta_has_permute_bit_set() {
        let mut lg = LabelGenerator::new(3, 8);
        for _ in 0..8 {
            assert!(lg.delta().lsb());
        }
    }

    #[test]
    fn gating_saves_energy_at_average_demand() {
        // Average demand is 1 label/cycle (k bits) while the bank is sized
        // for b/2 labels/cycle: the saving should be ~ 1 - 2/b.
        let mut lg = LabelGenerator::new(4, 8);
        for _ in 0..100 {
            lg.clock(1);
        }
        let report = lg.report();
        assert_eq!(report.labels_produced, 100);
        assert!((report.energy_saving() - 0.75).abs() < 1e-12, "{report:?}");
    }

    #[test]
    fn bank_emits_one_bit_per_enabled_rng() {
        // Demand d enables d × LABEL_BITS RNGs: d labels out, d × LABEL_BITS
        // RNG-cycles powered, whatever the previous cycle's gating was.
        let mut lg = LabelGenerator::new(7, 8);
        let mut powered = 0;
        for demand in [4usize, 3, 0, 1] {
            assert_eq!(lg.clock(demand).len(), demand);
            powered += (demand * LABEL_BITS) as u64;
            assert_eq!(lg.report().active_rng_cycles, powered);
        }
    }

    #[test]
    fn power_gating_reduces_energy() {
        let mut full = LabelGenerator::new(7, 8);
        let mut gated = LabelGenerator::new(7, 8);
        for _ in 0..100 {
            full.clock(4);
            gated.clock(1);
        }
        let (full, gated) = (full.report(), gated.report());
        assert_eq!(full.active_rng_cycles, 100 * 4 * LABEL_BITS as u64);
        assert_eq!(gated.active_rng_cycles, 100 * LABEL_BITS as u64);
        assert_eq!(full.worst_case_rng_cycles, gated.worst_case_rng_cycles);
        assert!(full.energy_saving().abs() < 1e-12);
        assert!((gated.energy_saving() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reseed_switches_stream_and_keeps_accounts() {
        let mut lg = LabelGenerator::new(1, 8);
        lg.clock(3);
        lg.reseed(2);
        assert_eq!(lg.clock(4), LabelGenerator::new(2, 8).clock(4));
        let report = lg.report();
        assert_eq!((report.cycles, report.labels_produced), (2, 7));
    }

    #[test]
    #[should_panic(expected = "exceeds generator width")]
    fn over_demand_panics() {
        LabelGenerator::new(5, 8).clock(5);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_width_rejected() {
        LabelGenerator::new(6, 7);
    }

    #[test]
    fn label_bits_look_random() {
        let mut lg = LabelGenerator::new(7, 8);
        let labels: Vec<Block> = (0..256).map(|_| lg.next_label()).collect();
        let ones: u32 = labels.iter().map(|l| l.bits().count_ones()).sum();
        let total = 256 * 128;
        let ratio = ones as f64 / total as f64;
        assert!((ratio - 0.5).abs() < 0.03, "bit balance {ratio}");
    }

    #[test]
    fn label_stream_passes_the_nist_battery() {
        let mut lg = LabelGenerator::new(8, 8);
        let bits: Vec<bool> = (0..40)
            .flat_map(|_| lg.clock(4))
            .flat_map(|label| (0..LABEL_BITS).map(move |i| (label.bits() >> i) & 1 == 1))
            .collect();
        assert_eq!(bits.len(), 20_480);
        let report = crate::nist::run_battery(&bits);
        assert!(report.all_passed(), "{report}");
    }

    #[test]
    fn distinct_seeds_give_disjoint_streams() {
        let first_64 = |seed: u64| -> Vec<Block> {
            let mut lg = LabelGenerator::new(seed, 8);
            (0..16).flat_map(|_| lg.clock(4)).collect()
        };
        let a = first_64(0x5eed);
        assert_eq!(a, first_64(0x5eed), "a seed names one stream");
        for other in [0x5eed + 1, 0x5eed ^ (1 << 63), 0] {
            let b = first_64(other);
            assert!(a.iter().all(|label| !b.contains(label)), "seed {other:#x}");
        }
    }

    mod gating_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The gating accounts are the closed form of the demand
            /// sequence, and Δ always carries the permute bit.
            #[test]
            fn report_is_closed_form_of_demands(
                seed in any::<u64>(),
                half_width in 1usize..=16,
                raw_demands in prop::collection::vec(any::<u64>(), 0..60),
            ) {
                let mut lg = LabelGenerator::new(seed, 2 * half_width);
                prop_assert!(lg.delta().lsb());
                let (mut cycles, mut labels) = (1u64, 1u64);
                for raw in raw_demands {
                    let demand = (raw % (half_width as u64 + 1)) as usize;
                    prop_assert_eq!(lg.clock(demand).len(), demand);
                    cycles += 1;
                    labels += demand as u64;
                }
                prop_assert_eq!(lg.report(), LabelGeneratorReport {
                    cycles,
                    labels_produced: labels,
                    active_rng_cycles: labels * LABEL_BITS as u64,
                    worst_case_rng_cycles: cycles * (LABEL_BITS * half_width) as u64,
                });
            }
        }
    }
}
