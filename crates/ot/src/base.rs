//! Batched 1-out-of-2 base OT with the Chou–Orlandi "simplest OT" flow.
//!
//! One sender exponent `a` serves a whole batch:
//!
//! ```text
//! S:  a ← Z_q,  A = g^a                          ── A ──▶
//! R:  b_i ← Z_q,  B_i = c_i ? A·g^{b_i} : g^{b_i} ◀── B_i ──
//! S:  k_i^0 = H(B_i^a), k_i^1 = H((B_i/A)^a)
//!     e_i^j = m_i^j ⊕ k_i^j                      ── e ──▶
//! R:  m_i^{c_i} = e_i^{c_i} ⊕ H(A^{b_i})
//! ```

use max_crypto::{AesPrg, Block, FixedKeyHash};

use crate::group::{random_exponent, GroupElem};

/// Sender's first message: `A = g^a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SenderSetup {
    /// The sender's public value.
    pub big_a: GroupElem,
}

/// Receiver's message: one blinded element per transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceiverMsg {
    /// `B_i` per transfer.
    pub elements: Vec<GroupElem>,
}

/// Sender's ciphertexts: one pair per transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CipherPairs {
    /// `(e_i^0, e_i^1)` per transfer.
    pub pairs: Vec<(Block, Block)>,
}

/// Base-OT sender.
#[derive(Debug)]
pub struct BaseOtSender {
    exponent: u64,
    big_a: GroupElem,
    hash: FixedKeyHash,
}

impl BaseOtSender {
    /// Creates the sender, drawing its exponent from `prg`.
    pub fn new(prg: &mut AesPrg) -> (Self, SenderSetup) {
        let exponent = random_exponent(prg.next_u64());
        let big_a = GroupElem::generator_pow(exponent);
        (
            BaseOtSender {
                exponent,
                big_a,
                hash: FixedKeyHash::new(),
            },
            SenderSetup { big_a },
        )
    }

    /// Encrypts the message pairs against the receiver's blinded elements.
    ///
    /// # Panics
    ///
    /// Panics if `messages` and the receiver message disagree in length.
    pub fn encrypt(&self, receiver: &ReceiverMsg, messages: &[(Block, Block)]) -> CipherPairs {
        assert_eq!(
            receiver.elements.len(),
            messages.len(),
            "transfer count mismatch"
        );
        let inv_a = self.big_a.inverse();
        let pairs = receiver
            .elements
            .iter()
            .zip(messages)
            .enumerate()
            .map(|(i, (&b, &(m0, m1)))| {
                let k0 = b.pow(self.exponent).to_key(&self.hash, i as u64);
                let k1 = b.mul(inv_a).pow(self.exponent).to_key(&self.hash, i as u64);
                (m0 ^ k0, m1 ^ k1)
            })
            .collect();
        CipherPairs { pairs }
    }
}

/// Base-OT receiver.
#[derive(Debug)]
pub struct BaseOtReceiver {
    exponents: Vec<u64>,
    setup: SenderSetup,
    hash: FixedKeyHash,
}

impl BaseOtReceiver {
    /// Creates the receiver and its blinded message for `choices`.
    pub fn new(prg: &mut AesPrg, setup: SenderSetup, choices: &[bool]) -> (Self, ReceiverMsg) {
        let exponents: Vec<u64> = choices
            .iter()
            .map(|_| random_exponent(prg.next_u64()))
            .collect();
        let elements = exponents
            .iter()
            .zip(choices)
            .map(|(&b, &c)| {
                let gb = GroupElem::generator_pow(b);
                if c {
                    setup.big_a.mul(gb)
                } else {
                    gb
                }
            })
            .collect();
        (
            BaseOtReceiver {
                exponents,
                setup,
                hash: FixedKeyHash::new(),
            },
            ReceiverMsg { elements },
        )
    }

    /// Decrypts the chosen message of each pair.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the setup.
    pub fn decrypt(&self, ciphers: &CipherPairs, choices: &[bool]) -> Vec<Block> {
        assert_eq!(ciphers.pairs.len(), self.exponents.len(), "count mismatch");
        assert_eq!(choices.len(), self.exponents.len(), "choice mismatch");
        ciphers
            .pairs
            .iter()
            .zip(&self.exponents)
            .zip(choices)
            .enumerate()
            .map(|(i, ((&(e0, e1), &b), &c))| {
                let key = self.setup.big_a.pow(b).to_key(&self.hash, i as u64);
                if c {
                    e1 ^ key
                } else {
                    e0 ^ key
                }
            })
            .collect()
    }
}

/// Runs a whole batch of base OTs in memory.
pub fn run_base_ot(seed: u64, messages: &[(Block, Block)], choices: &[bool]) -> Vec<Block> {
    assert_eq!(messages.len(), choices.len(), "length mismatch");
    let mut sender_prg = AesPrg::with_stream(Block::new(seed as u128), 0);
    let mut receiver_prg = AesPrg::with_stream(Block::new(seed as u128), 1);
    let (sender, setup) = BaseOtSender::new(&mut sender_prg);
    let (receiver, msg) = BaseOtReceiver::new(&mut receiver_prg, setup, choices);
    let ciphers = sender.encrypt(&msg, messages);
    receiver.decrypt(&ciphers, choices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: usize) -> Vec<(Block, Block)> {
        (0..n)
            .map(|i| (Block::new(2 * i as u128), Block::new(2 * i as u128 + 1)))
            .collect()
    }

    #[test]
    fn receiver_gets_chosen_messages() {
        let msgs = pairs(16);
        let choices: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let got = run_base_ot(42, &msgs, &choices);
        for ((m, &c), g) in msgs.iter().zip(&choices).zip(&got) {
            assert_eq!(*g, if c { m.1 } else { m.0 });
        }
    }

    #[test]
    fn unchosen_message_stays_hidden_from_honest_execution() {
        // The receiver's key never decrypts the other slot.
        let msgs = pairs(8);
        let choices = vec![false; 8];
        let mut sender_prg = AesPrg::with_stream(Block::new(9), 0);
        let mut receiver_prg = AesPrg::with_stream(Block::new(9), 1);
        let (sender, setup) = BaseOtSender::new(&mut sender_prg);
        let (receiver, msg) = BaseOtReceiver::new(&mut receiver_prg, setup, &choices);
        let ciphers = sender.encrypt(&msg, &msgs);
        // Flip the choices at decrypt time: the results must be garbage.
        let wrong = receiver.decrypt(&ciphers, &[true; 8]);
        for (w, m) in wrong.iter().zip(&msgs) {
            assert_ne!(*w, m.1);
            assert_ne!(*w, m.0);
        }
    }

    #[test]
    fn all_choice_patterns_small() {
        for pattern in 0..16u32 {
            let choices: Vec<bool> = (0..4).map(|i| (pattern >> i) & 1 == 1).collect();
            let msgs = pairs(4);
            let got = run_base_ot(7 + pattern as u64, &msgs, &choices);
            for ((m, &c), g) in msgs.iter().zip(&choices).zip(&got) {
                assert_eq!(*g, if c { m.1 } else { m.0 });
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_base_ot(1, &[], &[]).is_empty());
    }
}
