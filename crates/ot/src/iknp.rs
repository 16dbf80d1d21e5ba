//! IKNP OT extension: 128 base OTs bootstrap unboundedly many transfers
//! using only symmetric crypto (fixed-key AES).
//!
//! Column/row convention: the receiver builds a `m × 128` bit matrix `T`
//! column by column from PRG-expanded base-OT seeds; the sender reconstructs
//! `Q` with `q_j = t_j ⊕ r_j·s`. Each row is one 128-bit [`Block`].

use max_crypto::{AesPrg, Block, FixedKeyHash, Tweak};

use crate::base::{BaseOtReceiver, BaseOtSender};

/// Security parameter: number of base OTs / matrix width.
pub const KAPPA: usize = 128;

/// Receiver → sender correction message: one packed `m`-bit column per base
/// OT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendMsg {
    /// `u_i = G(k_i^0) ⊕ G(k_i^1) ⊕ r`, bit-packed into u64 words.
    pub columns: Vec<Vec<u64>>,
    /// Number of transfers this message covers.
    pub count: usize,
}

/// Sender → receiver ciphertexts: one pair per transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CipherMsg {
    /// `(y_j^0, y_j^1)` per transfer.
    pub pairs: Vec<(Block, Block)>,
}

/// Extension sender (holds the GC wire-label pairs).
///
/// `Clone` snapshots the whole extension state (PRG counters and the
/// session counter feeding the hash tweaks) — the primitive behind
/// resumable sessions: both parties can roll back to a cloned snapshot and
/// replay an exchange bit-identically.
#[derive(Clone, Debug)]
pub struct OtExtSender {
    /// Secret choice bits `s` of the base OTs.
    s: [bool; KAPPA],
    /// PRGs seeded with the base-OT outputs `k_i^{s_i}`.
    prgs: Vec<AesPrg>,
    hash: FixedKeyHash,
    session: u64,
}

/// Portable snapshot of an [`OtExtSender`]'s mutable state, relative to the
/// seed its [`setup_pair`] ran from.
///
/// Everything else in the sender — the secret `s` bits, the PRG keys, the
/// fixed hash key — is a pure function of the setup seed, so
/// `(setup seed, OtSenderState)` fully determines the sender: rebuild with
/// [`setup_pair`] and [`OtExtSender::import_state`] and the wire output
/// continues bit-identically. This is what lets a serving layer persist OT
/// checkpoints to disk (a crash-recovery journal) instead of only cloning
/// them in memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtSenderState {
    /// Extension rounds completed (feeds the per-round hash tweaks).
    pub session: u64,
    /// Absolute CTR counters of the `KAPPA` column PRGs, in column order.
    pub counters: Vec<u128>,
}

/// Error restoring an [`OtSenderState`] whose counter vector does not have
/// one entry per base-OT column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtStateShapeError {
    /// Columns the sender has (always [`KAPPA`]).
    pub expected: usize,
    /// Counters the snapshot carried.
    pub got: usize,
}

impl std::fmt::Display for OtStateShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OT sender state has {} PRG counters, expected {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for OtStateShapeError {}

impl OtExtSender {
    /// Exports the sender's mutable state; see [`OtSenderState`].
    pub fn export_state(&self) -> OtSenderState {
        OtSenderState {
            session: self.session,
            counters: self.prgs.iter().map(AesPrg::counter).collect(),
        }
    }

    /// Restores a state exported from a sender with the same setup seed.
    ///
    /// # Errors
    ///
    /// Fails (leaving the sender untouched) if the snapshot does not carry
    /// exactly one counter per column — the typed guard that keeps hostile
    /// or truncated persisted state from panicking a replay.
    pub fn import_state(&mut self, state: &OtSenderState) -> Result<(), OtStateShapeError> {
        if state.counters.len() != self.prgs.len() {
            return Err(OtStateShapeError {
                expected: self.prgs.len(),
                got: state.counters.len(),
            });
        }
        for (prg, &counter) in self.prgs.iter_mut().zip(&state.counters) {
            prg.set_counter(counter);
        }
        self.session = state.session;
        Ok(())
    }
}

/// Extension receiver (holds the choice bits).
///
/// `Clone` snapshots the extension state; see [`OtExtSender`].
#[derive(Clone, Debug)]
pub struct OtExtReceiver {
    /// PRG pairs from both base-OT seeds.
    prgs: Vec<(AesPrg, AesPrg)>,
    hash: FixedKeyHash,
    session: u64,
}

/// Runs the 128 base OTs (in memory) and returns a connected sender/receiver
/// pair ready to extend.
pub fn setup_pair(seed: u64) -> (OtExtSender, OtExtReceiver) {
    let mut seed_prg = AesPrg::with_stream(Block::new(0x6b6e_7073 ^ seed as u128), 0);
    // Receiver of the *extension* acts as base-OT sender with random seed pairs.
    let seed_pairs: Vec<(Block, Block)> = (0..KAPPA)
        .map(|_| (seed_prg.next_block(), seed_prg.next_block()))
        .collect();
    // Sender of the extension picks its secret s and base-OT-receives.
    let mut s = [false; KAPPA];
    let s_bits = seed_prg.next_block();
    for (i, slot) in s.iter_mut().enumerate() {
        *slot = s_bits.bit(i);
    }

    let mut base_sender_prg = AesPrg::with_stream(Block::new(seed as u128), 2);
    let mut base_receiver_prg = AesPrg::with_stream(Block::new(seed as u128), 3);
    let (base_sender, setup) = BaseOtSender::new(&mut base_sender_prg);
    let (base_receiver, msg) = BaseOtReceiver::new(&mut base_receiver_prg, setup, &s);
    let ciphers = base_sender.encrypt(&msg, &seed_pairs);
    let received = base_receiver.decrypt(&ciphers, &s);

    let sender = OtExtSender {
        s,
        prgs: received
            .iter()
            .map(|&k| AesPrg::with_stream(k, 0x4f54))
            .collect(),
        hash: FixedKeyHash::new(),
        session: 0,
    };
    let receiver = OtExtReceiver {
        prgs: seed_pairs
            .iter()
            .map(|&(k0, k1)| {
                (
                    AesPrg::with_stream(k0, 0x4f54),
                    AesPrg::with_stream(k1, 0x4f54),
                )
            })
            .collect(),
        hash: FixedKeyHash::new(),
        session: 0,
    };
    (sender, receiver)
}

/// Packs bools into u64 words.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &bit) in bits.iter().enumerate() {
        words[i / 64] |= (bit as u64) << (i % 64);
    }
    words
}

fn prg_column(prg: &mut AesPrg, m: usize) -> Vec<u64> {
    // One batched PRG fill per column. Consumes exactly the same number of
    // counter blocks as the former block-at-a-time loop (⌈⌈m/64⌉/2⌉), so
    // transcripts and resume snapshots stay bit-identical.
    let want = m.div_ceil(64);
    let blocks = prg.blocks(want.div_ceil(2));
    let mut words = Vec::with_capacity(want);
    for block in blocks {
        let bits = block.bits();
        words.push(bits as u64);
        if words.len() < want {
            words.push((bits >> 64) as u64);
        }
    }
    words
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3): afterwards
/// `a[r]` bit `c` equals the original `a[c]` bit `r`.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Transposes the KAPPA packed bit-columns into `m` 128-bit rows.
///
/// Works 64×64 blocks at a time with word-wise swaps — one transpose per
/// job — replacing the former per-row, per-column `column_bit` probing
/// (O(m·128) shift-and-mask operations).
fn columns_to_rows(columns: &[Vec<u64>], m: usize) -> Vec<Block> {
    debug_assert_eq!(columns.len(), KAPPA);
    let mut rows = Vec::with_capacity(m);
    let mut lo = [0u64; 64];
    let mut hi = [0u64; 64];
    // `chunk` strides across all 128 column vectors at once; there is no
    // single slice to iterate, so the index loop stays.
    #[allow(clippy::needless_range_loop)]
    for chunk in 0..m.div_ceil(64) {
        for (i, (lo_slot, hi_slot)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            *lo_slot = columns[i][chunk];
            *hi_slot = columns[i + 64][chunk];
        }
        transpose64(&mut lo);
        transpose64(&mut hi);
        let take = (m - chunk * 64).min(64);
        for j in 0..take {
            rows.push(Block::new(lo[j] as u128 | (hi[j] as u128) << 64));
        }
    }
    rows
}

/// The OT-session hash tweak for transfer `j` (domain-separated from GC
/// gate tweaks by bit 62).
fn session_tweak(session: u64, j: usize) -> Tweak {
    Tweak::from_gate_index((session << 40) | j as u64 | 1 << 62)
}

impl OtExtReceiver {
    /// Expands the seed PRGs for `choices.len()` transfers and produces the
    /// correction message plus the decryption keys `t_j` (rows of `T`).
    pub fn prepare(&mut self, choices: &[bool]) -> (ExtendMsg, Vec<Block>) {
        let m = choices.len();
        let r = pack(choices);
        let mut t_columns = Vec::with_capacity(KAPPA);
        let mut u_columns = Vec::with_capacity(KAPPA);
        for (prg0, prg1) in &mut self.prgs {
            let t = prg_column(prg0, m);
            let g1 = prg_column(prg1, m);
            let u: Vec<u64> = t
                .iter()
                .zip(&g1)
                .zip(&r)
                .map(|((&ti, &gi), &ri)| ti ^ gi ^ ri)
                .collect();
            t_columns.push(t);
            u_columns.push(u);
        }
        // Transpose T's columns into per-transfer rows (one word-wise
        // transpose for the whole batch).
        let keys = columns_to_rows(&t_columns, m);
        (
            ExtendMsg {
                columns: u_columns,
                count: m,
            },
            keys,
        )
    }

    /// Decrypts the chosen message of each pair.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent.
    pub fn receive(&mut self, cipher: &CipherMsg, keys: &[Block], choices: &[bool]) -> Vec<Block> {
        assert_eq!(cipher.pairs.len(), keys.len(), "cipher count mismatch");
        assert_eq!(choices.len(), keys.len(), "choice count mismatch");
        let session = self.session;
        self.session += 1;
        let inputs: Vec<(Block, Tweak)> = keys
            .iter()
            .enumerate()
            .map(|(j, &t)| (t, session_tweak(session, j)))
            .collect();
        let masks = self.hash.hash_slice(&inputs);
        cipher
            .pairs
            .iter()
            .zip(masks)
            .zip(choices)
            .map(|((&(y0, y1), mask), &c)| if c { y1 ^ mask } else { y0 ^ mask })
            .collect()
    }
}

impl OtExtSender {
    /// Encrypts `pairs` against the receiver's correction message.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() != msg.count` or the message is malformed.
    pub fn send(&mut self, msg: &ExtendMsg, pairs: &[(Block, Block)]) -> CipherMsg {
        assert_eq!(pairs.len(), msg.count, "pair count mismatch");
        assert_eq!(msg.columns.len(), KAPPA, "malformed extension message");
        let m = msg.count;
        // q_i = G(k_i^{s_i}) ⊕ s_i·u_i per column.
        let q_columns: Vec<Vec<u64>> = self
            .prgs
            .iter_mut()
            .zip(&self.s)
            .zip(&msg.columns)
            .map(|((prg, &si), u)| {
                assert_eq!(u.len(), m.div_ceil(64), "malformed column");
                let g = prg_column(prg, m);
                g.iter()
                    .zip(u)
                    .map(|(&gi, &ui)| if si { gi ^ ui } else { gi })
                    .collect()
            })
            .collect();
        let s_block = {
            let mut bits = 0u128;
            for (i, &si) in self.s.iter().enumerate() {
                bits |= (si as u128) << i;
            }
            Block::new(bits)
        };
        let session = self.session;
        self.session += 1;
        let rows = columns_to_rows(&q_columns, m);
        let mut inputs = Vec::with_capacity(2 * m);
        for (j, &q) in rows.iter().enumerate() {
            let tweak = session_tweak(session, j);
            inputs.push((q, tweak));
            inputs.push((q ^ s_block, tweak));
        }
        let hashes = self.hash.hash_slice(&inputs);
        let out = pairs
            .iter()
            .enumerate()
            .map(|(j, &(p0, p1))| (p0 ^ hashes[2 * j], p1 ^ hashes[2 * j + 1]))
            .collect();
        CipherMsg { pairs: out }
    }
}

/// Correlated-OT corrections: one ciphertext per transfer (half the data of
/// chosen-message OT).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelatedMsg {
    /// `y_j = H(q_j ⊕ s) ⊕ H(q_j) ⊕ Δ` per transfer.
    pub corrections: Vec<Block>,
}

impl OtExtSender {
    /// Correlated OT (Δ-OT): the message pairs are `(m_j, m_j ⊕ delta)`
    /// with `m_j` *chosen by the protocol* (returned to the sender). Only
    /// one correction block travels per transfer — this is how GC
    /// implementations deliver Free-XOR input labels at half the OT
    /// bandwidth; the garbler adopts the returned `m_j` as the wire
    /// zero-labels.
    ///
    /// # Panics
    ///
    /// Panics if the extension message is malformed.
    pub fn send_correlated(
        &mut self,
        msg: &ExtendMsg,
        delta: Block,
    ) -> (Vec<Block>, CorrelatedMsg) {
        assert_eq!(msg.columns.len(), KAPPA, "malformed extension message");
        let m = msg.count;
        let q_columns: Vec<Vec<u64>> = self
            .prgs
            .iter_mut()
            .zip(&self.s)
            .zip(&msg.columns)
            .map(|((prg, &si), u)| {
                assert_eq!(u.len(), m.div_ceil(64), "malformed column");
                let g = prg_column(prg, m);
                g.iter()
                    .zip(u)
                    .map(|(&gi, &ui)| if si { gi ^ ui } else { gi })
                    .collect()
            })
            .collect();
        let s_block = {
            let mut bits = 0u128;
            for (i, &si) in self.s.iter().enumerate() {
                bits |= (si as u128) << i;
            }
            Block::new(bits)
        };
        let session = self.session;
        self.session += 1;
        let rows = columns_to_rows(&q_columns, m);
        let mut inputs = Vec::with_capacity(2 * m);
        for (j, &q) in rows.iter().enumerate() {
            let tweak = session_tweak(session, j);
            inputs.push((q, tweak));
            inputs.push((q ^ s_block, tweak));
        }
        let hashes = self.hash.hash_slice(&inputs);
        let mut zeros = Vec::with_capacity(m);
        let mut corrections = Vec::with_capacity(m);
        for j in 0..m {
            let m0 = hashes[2 * j];
            let m1_mask = hashes[2 * j + 1];
            zeros.push(m0);
            corrections.push(m1_mask ^ m0 ^ delta);
        }
        (zeros, CorrelatedMsg { corrections })
    }
}

impl OtExtReceiver {
    /// Receiver side of [`OtExtSender::send_correlated`]: obtains
    /// `m_j ⊕ choice_j·Δ` without learning Δ or the other message.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent.
    pub fn receive_correlated(
        &mut self,
        msg: &CorrelatedMsg,
        keys: &[Block],
        choices: &[bool],
    ) -> Vec<Block> {
        assert_eq!(
            msg.corrections.len(),
            keys.len(),
            "correction count mismatch"
        );
        assert_eq!(choices.len(), keys.len(), "choice count mismatch");
        let session = self.session;
        self.session += 1;
        let inputs: Vec<(Block, Tweak)> = keys
            .iter()
            .enumerate()
            .map(|(j, &t)| (t, session_tweak(session, j)))
            .collect();
        let masks = self.hash.hash_slice(&inputs);
        msg.corrections
            .iter()
            .zip(masks)
            .zip(choices)
            .map(|((&y, mask), &c)| mask.xor_if(y, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_pairs(n: usize) -> Vec<(Block, Block)> {
        (0..n)
            .map(|i| {
                (
                    Block::new(0x1000 + i as u128),
                    Block::new(0x2000 + i as u128),
                )
            })
            .collect()
    }

    /// Bit-at-a-time column probe, the reference the word-wise transpose
    /// replaced; kept to pin the transpose against first principles.
    fn column_bit(words: &[u64], j: usize) -> bool {
        (words[j / 64] >> (j % 64)) & 1 == 1
    }

    #[test]
    fn transpose64_matches_bitwise_reference() {
        let mut prg = AesPrg::new(Block::new(0x7a7a));
        let original: Vec<u64> = (0..64).map(|_| prg.next_block().bits() as u64).collect();
        let mut a = [0u64; 64];
        a.copy_from_slice(&original);
        transpose64(&mut a);
        for (r, row) in a.iter().enumerate() {
            for (c, col) in original.iter().enumerate() {
                assert_eq!(
                    (row >> c) & 1,
                    (col >> r) & 1,
                    "transpose mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn columns_to_rows_matches_column_bit_reference() {
        for m in [1usize, 63, 64, 65, 128, 200] {
            let mut prg = AesPrg::new(Block::new(m as u128));
            let columns: Vec<Vec<u64>> = (0..KAPPA).map(|_| prg_column(&mut prg, m)).collect();
            let rows = columns_to_rows(&columns, m);
            assert_eq!(rows.len(), m);
            for (j, row) in rows.iter().enumerate() {
                let mut want = 0u128;
                for (i, col) in columns.iter().enumerate() {
                    want |= (column_bit(col, j) as u128) << i;
                }
                assert_eq!(*row, Block::new(want), "m={m} row {j}");
            }
        }
    }

    #[test]
    fn prg_column_consumes_the_scalar_block_count() {
        // The batched fill must draw exactly ⌈⌈m/64⌉/2⌉ blocks so PRG
        // streams (and with them resume snapshots) stay aligned.
        for m in [0usize, 1, 63, 64, 65, 127, 128, 129, 500] {
            let mut batched = AesPrg::new(Block::new(0xc01));
            let mut scalar = AesPrg::new(Block::new(0xc01));
            let words = prg_column(&mut batched, m);
            let want = m.div_ceil(64);
            assert_eq!(words.len(), want);
            let mut reference = Vec::with_capacity(want);
            while reference.len() * 64 < m {
                let block = scalar.next_block().bits();
                reference.push(block as u64);
                if reference.len() * 64 < m {
                    reference.push((block >> 64) as u64);
                }
            }
            reference.truncate(want);
            assert_eq!(words, reference, "m={m}");
            assert_eq!(batched.next_block(), scalar.next_block(), "m={m} counter");
        }
    }

    #[test]
    fn extension_delivers_chosen_messages() {
        let (mut sender, mut receiver) = setup_pair(11);
        let n = 300;
        let pairs = msg_pairs(n);
        let choices: Vec<bool> = (0..n).map(|i| i % 5 < 2).collect();
        let (msg, keys) = receiver.prepare(&choices);
        let cipher = sender.send(&msg, &pairs);
        let got = receiver.receive(&cipher, &keys, &choices);
        for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
            assert_eq!(*g, if c { p.1 } else { p.0 });
        }
    }

    #[test]
    fn multiple_extends_from_one_setup() {
        let (mut sender, mut receiver) = setup_pair(13);
        for round in 0..4 {
            let n = 64 + round * 37;
            let pairs = msg_pairs(n);
            let choices: Vec<bool> = (0..n).map(|i| (i + round) % 2 == 0).collect();
            let (msg, keys) = receiver.prepare(&choices);
            let cipher = sender.send(&msg, &pairs);
            let got = receiver.receive(&cipher, &keys, &choices);
            for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
                assert_eq!(*g, if c { p.1 } else { p.0 }, "round {round}");
            }
        }
    }

    #[test]
    fn non_multiple_of_64_counts() {
        for n in [1usize, 63, 64, 65, 127, 129] {
            let (mut sender, mut receiver) = setup_pair(17 + n as u64);
            let pairs = msg_pairs(n);
            let choices: Vec<bool> = (0..n).map(|i| i % 3 == 1).collect();
            let (msg, keys) = receiver.prepare(&choices);
            let cipher = sender.send(&msg, &pairs);
            let got = receiver.receive(&cipher, &keys, &choices);
            for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
                assert_eq!(*g, if c { p.1 } else { p.0 }, "n = {n}");
            }
        }
    }

    #[test]
    fn unchosen_slot_is_masked() {
        let (mut sender, mut receiver) = setup_pair(19);
        let pairs = msg_pairs(16);
        let choices = vec![false; 16];
        let (msg, keys) = receiver.prepare(&choices);
        let cipher = sender.send(&msg, &pairs);
        // Try to open the *other* slot with the honest keys: must fail.
        let wrong = receiver.receive(&cipher, &keys, &[true; 16]);
        for (w, p) in wrong.iter().zip(&pairs) {
            assert_ne!(*w, p.1);
        }
    }

    #[test]
    fn correlated_ot_delivers_offset_pairs() {
        let (mut sender, mut receiver) = setup_pair(29);
        let delta = Block::new(0xdddd_1111_2222_3333_4444_5555_6666_7777);
        let n = 200;
        let choices: Vec<bool> = (0..n).map(|i| i % 7 < 3).collect();
        let (msg, keys) = receiver.prepare(&choices);
        let (zeros, cor) = sender.send_correlated(&msg, delta);
        let got = receiver.receive_correlated(&cor, &keys, &choices);
        assert_eq!(cor.corrections.len(), n);
        for ((g, &m0), &c) in got.iter().zip(&zeros).zip(&choices) {
            let want = if c { m0 ^ delta } else { m0 };
            assert_eq!(*g, want);
        }
    }

    #[test]
    fn correlated_ot_halves_the_data() {
        // n chosen-message OTs cost 2n blocks; correlated OTs cost n.
        let (mut sender, mut receiver) = setup_pair(31);
        let n = 64;
        let choices = vec![true; n];
        let (msg, _keys) = receiver.prepare(&choices);
        let (_, cor) = sender.send_correlated(&msg, Block::new(1));
        let chosen_blocks = 2 * n;
        assert_eq!(cor.corrections.len() * 2, chosen_blocks);
    }

    #[test]
    fn correlated_then_chosen_sessions_do_not_collide() {
        let (mut sender, mut receiver) = setup_pair(37);
        let n = 16;
        let choices: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let (msg1, keys1) = receiver.prepare(&choices);
        let (zeros, cor) = sender.send_correlated(&msg1, Block::new(0xff));
        let got1 = receiver.receive_correlated(&cor, &keys1, &choices);
        for ((g, &m0), &c) in got1.iter().zip(&zeros).zip(&choices) {
            assert_eq!(*g, m0.xor_if(Block::new(0xff), c));
        }
        // A later chosen-message batch on the same setup still works.
        let pairs = msg_pairs(n);
        let (msg2, keys2) = receiver.prepare(&choices);
        let cipher = sender.send(&msg2, &pairs);
        let got2 = receiver.receive(&cipher, &keys2, &choices);
        for ((g, p), &c) in got2.iter().zip(&pairs).zip(&choices) {
            assert_eq!(*g, if c { p.1 } else { p.0 });
        }
    }

    #[test]
    fn cloned_endpoints_replay_bit_identically() {
        // The resume protocol depends on Clone being a true state snapshot:
        // rolling both halves back and replaying must reproduce the exact
        // same wire messages.
        let (mut sender, mut receiver) = setup_pair(41);
        let warmup: Vec<bool> = (0..96).map(|i| i % 3 == 0).collect();
        let (msg, keys) = receiver.prepare(&warmup);
        let cipher = sender.send(&msg, &msg_pairs(96));
        let _ = receiver.receive(&cipher, &keys, &warmup);

        let sender_snap = sender.clone();
        let receiver_snap = receiver.clone();
        let choices: Vec<bool> = (0..70).map(|i| i % 2 == 1).collect();
        let pairs = msg_pairs(70);
        let (msg1, keys1) = receiver.prepare(&choices);
        let cipher1 = sender.send(&msg1, &pairs);

        let mut sender2 = sender_snap;
        let mut receiver2 = receiver_snap;
        let (msg2, keys2) = receiver2.prepare(&choices);
        assert_eq!(msg1, msg2);
        assert_eq!(keys1, keys2);
        let cipher2 = sender2.send(&msg2, &pairs);
        assert_eq!(cipher1, cipher2);
        let got = receiver2.receive(&cipher2, &keys2, &choices);
        for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
            assert_eq!(*g, if c { p.1 } else { p.0 });
        }
    }

    #[test]
    fn exported_state_rebuilds_a_bit_identical_sender() {
        // The durability contract: setup_pair(seed) + import_state must
        // continue the wire stream exactly where the exported sender stood,
        // even across "process death" (here: a brand-new sender value).
        let (mut sender, mut receiver) = setup_pair(43);
        for round in 0..3 {
            let n = 80 + round * 11;
            let choices: Vec<bool> = (0..n).map(|i| (i ^ round) % 3 == 0).collect();
            let (msg, _keys) = receiver.prepare(&choices);
            let _ = sender.send(&msg, &msg_pairs(n));
        }
        let state = sender.export_state();

        let (mut rebuilt, _) = setup_pair(43);
        assert_ne!(rebuilt.export_state(), state, "warmup must advance state");
        rebuilt.import_state(&state).expect("shape matches");
        assert_eq!(rebuilt.export_state(), state);

        let choices: Vec<bool> = (0..120).map(|i| i % 2 == 0).collect();
        let pairs = msg_pairs(120);
        let (msg, _keys) = receiver.prepare(&choices);
        let want = sender.send(&msg, &pairs);
        let got = rebuilt.send(&msg, &pairs);
        assert_eq!(want, got, "rebuilt sender diverged from the original");
    }

    #[test]
    fn import_state_rejects_wrong_shapes_without_mutating() {
        let (mut sender, _) = setup_pair(47);
        let before = sender.export_state();
        for bad_len in [0usize, 1, KAPPA - 1, KAPPA + 1] {
            let err = sender
                .import_state(&OtSenderState {
                    session: 9,
                    counters: vec![0; bad_len],
                })
                .expect_err("shape mismatch must be rejected");
            assert_eq!(err.expected, KAPPA);
            assert_eq!(err.got, bad_len);
        }
        assert_eq!(
            sender.export_state(),
            before,
            "failed import must not mutate"
        );
    }

    #[test]
    fn correction_columns_look_random() {
        // The u columns must not leak r directly: two different choice
        // vectors yield columns that differ in unpredictable positions.
        let (_, mut receiver) = setup_pair(23);
        let choices: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let (msg, _) = receiver.prepare(&choices);
        let ones: u32 = msg
            .columns
            .iter()
            .flat_map(|c| c.iter())
            .map(|w| w.count_ones())
            .sum();
        let total = (KAPPA * 128) as f64;
        let ratio = ones as f64 / total;
        assert!((ratio - 0.5).abs() < 0.05, "bias {ratio}");
    }
}
