//! Property tests for the OT stack: correctness for arbitrary messages and
//! choice vectors, across batch sizes and sessions.

use max_crypto::Block;
use max_ot::{base::run_base_ot, run_chosen_ot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn base_ot_delivers_exactly_the_choice(
        seed in 0u64..1_000_000,
        msgs in prop::collection::vec((any::<u128>(), any::<u128>()), 1..24),
        choice_bits in prop::collection::vec(any::<bool>(), 24),
    ) {
        let pairs: Vec<(Block, Block)> = msgs
            .iter()
            .map(|&(a, b)| (Block::new(a), Block::new(b)))
            .collect();
        let choices = &choice_bits[..pairs.len()];
        let got = run_base_ot(seed, &pairs, choices);
        for ((g, p), &c) in got.iter().zip(&pairs).zip(choices) {
            prop_assert_eq!(*g, if c { p.1 } else { p.0 });
        }
    }

    #[test]
    fn extension_delivers_exactly_the_choice(
        seed in 0u64..1_000_000,
        msgs in prop::collection::vec((any::<u128>(), any::<u128>()), 1..200),
        choice_bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let pairs: Vec<(Block, Block)> = msgs
            .iter()
            .map(|&(a, b)| (Block::new(a), Block::new(b)))
            .collect();
        let choices = &choice_bits[..pairs.len()];
        let got = run_chosen_ot(seed, &pairs, choices);
        for ((g, p), &c) in got.iter().zip(&pairs).zip(choices) {
            prop_assert_eq!(*g, if c { p.1 } else { p.0 });
        }
    }
}
