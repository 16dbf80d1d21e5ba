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
/// seed its [`setup_pair`] ran from: the sender's cursor.
///
/// Everything else in the sender — the secret `s` bits, the PRG keys, the
/// fixed hash key — is a pure function of the setup seed, so
/// `(setup seed, OtSenderState)` fully determines the sender: rebuild with
/// [`setup_pair`] and [`OtExtSender::import_state`] and the wire output
/// continues bit-identically. This is what lets a serving layer persist OT
/// checkpoints to disk (a crash-recovery journal) instead of only cloning
/// them in memory.
///
/// One counter covers all [`KAPPA`] column PRGs: they start at the same
/// stream offset, and every extension draws the same number of blocks from
/// each, so they move in lock-step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtSenderState {
    /// Extension rounds completed (feeds the per-round hash tweaks).
    pub session: u64,
    /// Absolute CTR counter shared by every column PRG.
    pub counter: u128,
}

impl OtExtSender {
    /// Exports the sender's mutable state; see [`OtSenderState`].
    pub fn export_state(&self) -> OtSenderState {
        let counter = self.prgs.first().map_or(0, AesPrg::counter);
        debug_assert!(
            self.prgs.iter().all(|prg| prg.counter() == counter),
            "column PRGs left lock-step"
        );
        OtSenderState {
            session: self.session,
            counter,
        }
    }

    /// Restores a state exported from a sender with the same setup seed.
    pub fn import_state(&mut self, state: &OtSenderState) {
        for prg in &mut self.prgs {
            prg.set_counter(state.counter);
        }
        self.session = state.session;
    }
}

/// Extension receiver (holds the choice bits).
///
/// `Clone` snapshots the extension state; see [`OtExtSender`].
#[derive(Clone, Debug)]
pub struct OtExtReceiver {
    /// PRGs from both base-OT seeds of each column, interleaved: `2i`
    /// seeded with `k_i^0`, `2i + 1` with `k_i^1`.
    prgs: Vec<AesPrg>,
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
            .flat_map(|&(k0, k1)| [k0, k1])
            .map(|k| AesPrg::with_stream(k, 0x4f54))
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

/// The PRG columns of one extension of `m` transfers: `⌈⌈m/64⌉/2⌉` blocks
/// from each PRG, drawn by one multi-key AES sweep
/// ([`AesPrg::fill_each`]) and kept as packed 64-bit words.
///
/// Each PRG consumes exactly the blocks the former one-call-per-column
/// loop drew, so transcripts and resume snapshots stay bit-identical, and
/// every PRG advances by the same count: this and
/// [`OtExtSender::import_state`] are the only mutators of the sender's
/// column PRGs, which keeps them in the lock-step [`OtSenderState`] relies
/// on.
struct Columns {
    words: Vec<u64>,
    /// Words per PRG: two per block.
    stride: usize,
    /// Words per column: `⌈m/64⌉` (one fewer than `stride` for odd counts).
    want: usize,
}

impl Columns {
    fn expand(prgs: &mut [AesPrg], m: usize) -> Columns {
        let want = m.div_ceil(64);
        let per_prg = want.div_ceil(2);
        let mut blocks = vec![Block::ZERO; prgs.len() * per_prg];
        AesPrg::fill_each(prgs, per_prg, &mut blocks);
        let words = blocks
            .iter()
            .flat_map(|block| {
                let bits = block.bits();
                [bits as u64, (bits >> 64) as u64]
            })
            .collect();
        Columns {
            words,
            stride: 2 * per_prg,
            want,
        }
    }

    /// The packed bits of PRG `i`'s column.
    fn column(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..][..self.want]
    }

    fn column_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..][..self.want]
    }
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

/// Transposes the KAPPA packed bit-columns `column(0..KAPPA)` into `m`
/// 128-bit rows.
///
/// Works 64×64 blocks at a time with word-wise swaps — one transpose per
/// job — replacing the former per-row, per-column `column_bit` probing
/// (O(m·128) shift-and-mask operations).
fn columns_to_rows<'c>(column: impl Fn(usize) -> &'c [u64], m: usize) -> Vec<Block> {
    let mut rows = Vec::with_capacity(m);
    let mut lo = [0u64; 64];
    let mut hi = [0u64; 64];
    for chunk in 0..m.div_ceil(64) {
        for (i, (lo_slot, hi_slot)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            *lo_slot = column(i)[chunk];
            *hi_slot = column(i + 64)[chunk];
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
        // t_i = G(k_i^0) is column 2i, G(k_i^1) column 2i + 1.
        let columns = Columns::expand(&mut self.prgs, m);
        let u_columns = (0..KAPPA)
            .map(|i| {
                let (t, g1) = (columns.column(2 * i), columns.column(2 * i + 1));
                t.iter()
                    .zip(g1)
                    .zip(&r)
                    .map(|((&ti, &gi), &ri)| ti ^ gi ^ ri)
                    .collect()
            })
            .collect();
        // Transpose T's columns into per-transfer rows (one word-wise
        // transpose for the whole batch).
        let keys = columns_to_rows(|i| columns.column(2 * i), m);
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
        let mut masks = Vec::with_capacity(keys.len());
        self.hash.hash_into(
            keys.iter()
                .enumerate()
                .map(|(j, &t)| (t, session_tweak(session, j))),
            &mut masks,
        );
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
        assert!(
            msg.columns.iter().all(|u| u.len() == m.div_ceil(64)),
            "malformed column"
        );
        let mut q_columns = Columns::expand(&mut self.prgs, m);
        for (i, (&si, u)) in self.s.iter().zip(&msg.columns).enumerate() {
            if si {
                for (q, &ui) in q_columns.column_mut(i).iter_mut().zip(u) {
                    *q ^= ui;
                }
            }
        }
        let s_block = {
            let mut bits = 0u128;
            for (i, &si) in self.s.iter().enumerate() {
                bits |= (si as u128) << i;
            }
            Block::new(bits)
        };
        let session = self.session;
        self.session += 1;
        let rows = columns_to_rows(|i| q_columns.column(i), m);
        let mut hashes = Vec::with_capacity(2 * m);
        self.hash.hash_into(
            rows.iter().enumerate().flat_map(|(j, &q)| {
                let tweak = session_tweak(session, j);
                [(q, tweak), (q ^ s_block, tweak)]
            }),
            &mut hashes,
        );
        let out = pairs
            .iter()
            .enumerate()
            .map(|(j, &(p0, p1))| (p0 ^ hashes[2 * j], p1 ^ hashes[2 * j + 1]))
            .collect();
        CipherMsg { pairs: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            let mut prgs: Vec<AesPrg> = (0..KAPPA)
                .map(|i| AesPrg::new(Block::new((m * KAPPA + i) as u128)))
                .collect();
            let columns = Columns::expand(&mut prgs, m);
            let rows = columns_to_rows(|i| columns.column(i), m);
            assert_eq!(rows.len(), m);
            for (j, row) in rows.iter().enumerate() {
                let mut want = 0u128;
                for i in 0..KAPPA {
                    want |= (column_bit(columns.column(i), j) as u128) << i;
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
            let columns = Columns::expand(std::slice::from_mut(&mut batched), m);
            let words = columns.column(0).to_vec();
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
        rebuilt.import_state(&state);
        assert_eq!(rebuilt.export_state(), state);

        let choices: Vec<bool> = (0..120).map(|i| i % 2 == 0).collect();
        let pairs = msg_pairs(120);
        let (msg, _keys) = receiver.prepare(&choices);
        let want = sender.send(&msg, &pairs);
        let got = rebuilt.send(&msg, &pairs);
        assert_eq!(want, got, "rebuilt sender diverged from the original");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any run of extension sizes moves every column PRG by the same
        /// count, so one counter is the sender's whole PRG position, and a
        /// sender rebuilt from it stands exactly where the original does.
        #[test]
        fn column_counters_move_in_lock_step(
            seed in 0u64..1_000_000,
            sizes in prop::collection::vec(0usize..300, 1..6),
        ) {
            let (mut sender, mut receiver) = setup_pair(seed);
            for &m in &sizes {
                let choices: Vec<bool> = (0..m).map(|i| (i + m) % 3 == 0).collect();
                let (msg, _keys) = receiver.prepare(&choices);
                let _ = sender.send(&msg, &msg_pairs(m));
                let state = sender.export_state();
                prop_assert!(sender.prgs.iter().all(|prg| prg.counter() == state.counter));
            }
            let (mut rebuilt, _) = setup_pair(seed);
            rebuilt.import_state(&sender.export_state());
            for (a, b) in rebuilt.prgs.iter().zip(&sender.prgs) {
                prop_assert_eq!(a.counter(), b.counter());
            }
        }
    }
}
