//! IKNP OT extension: 128 base OTs bootstrap unboundedly many transfers
//! using only symmetric crypto (fixed-key AES).
//!
//! Column/row convention: the receiver builds a `m × 128` bit matrix `T`
//! column by column from PRG-expanded base-OT seeds; the sender reconstructs
//! `Q` with `q_j = t_j ⊕ r_j·s`. Each row is one 128-bit [`Block`].
//!
//! One extension may serve several consumers in turn: the sender
//! [absorbs](OtExtSender::absorb) it once and [encrypts](OtExtSender::encrypt)
//! any range of its transfers as the messages for that range come to hand;
//! the receiver prepares it once and [opens](OtExtReceiver::open) the same
//! ranges. [`OtExtSender::send`] and [`OtExtReceiver::receive`] are the
//! whole-range forms.

use max_crypto::{AesPrg, Block, FixedKeyHash, Tweak};

use crate::base::{BaseOtReceiver, BaseOtSender};

/// Security parameter: number of base OTs / matrix width.
pub const KAPPA: usize = 128;

/// Receiver → sender correction message: one packed `m`-bit column per base
/// OT, all in one buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendMsg {
    /// `u_i = G(k_i^0) ⊕ G(k_i^1) ⊕ r`, bit-packed into u64 words, column
    /// after column: column `i` is `words[i * w..(i + 1) * w]` with
    /// `w = ⌈count/64⌉` ([`ExtendMsg::column`]).
    pub words: Vec<u64>,
    /// Number of transfers this message covers.
    pub count: usize,
}

impl ExtendMsg {
    /// Words per column: `⌈count/64⌉`.
    pub fn words_per_column(&self) -> usize {
        self.count.div_ceil(64)
    }

    /// The packed bits of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if the message holds no column `i`.
    pub fn column(&self, i: usize) -> &[u64] {
        let w = self.words_per_column();
        &self.words[i * w..(i + 1) * w]
    }
}

/// Sender → receiver ciphertexts: one pair per transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CipherMsg {
    /// `(y_j^0, y_j^1)` per transfer.
    pub pairs: Vec<(Block, Block)>,
}

/// The receiver's half of one extension: the rows `t_j` of `T` that open
/// its transfers, and the extension's session, which tweaks their hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtensionKeys {
    session: u64,
    rows: Vec<Block>,
}

impl ExtensionKeys {
    /// Transfers the extension covers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the extension covers no transfer.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Extension sender (holds the GC wire-label pairs).
///
/// `Clone` snapshots the whole extension state (PRG counters and the
/// session counter feeding the hash tweaks): both parties can roll back to
/// a cloned snapshot and replay an exchange bit-identically. Resumable
/// sessions keep the same snapshot without the keys, an [`OtCursor`].
#[derive(Clone, Debug)]
pub struct OtExtSender {
    /// Secret choice bits `s` of the base OTs.
    s: [bool; KAPPA],
    /// PRGs seeded with the base-OT outputs `k_i^{s_i}`.
    prgs: Vec<AesPrg>,
    hash: FixedKeyHash,
    session: u64,
    /// The last absorbed extension: its session and its rows `q_j`, which
    /// [`encrypt`](OtExtSender::encrypt) reads.
    absorbed: Absorbed,
    /// Column scratch, kept for the endpoint's lifetime.
    columns: Columns,
    /// Hash scratch of `encrypt`.
    hashes: Vec<Block>,
}

/// The sender's last absorbed extension.
#[derive(Clone, Debug, Default)]
struct Absorbed {
    session: u64,
    /// The rows `q_j` of `Q`.
    rows: Vec<Block>,
}

/// Portable snapshot of an IKNP endpoint's mutable state, relative to the
/// seed its [`setup_pair`] ran from: the endpoint's cursor. One type serves
/// both ends ([`OtExtSender::export_state`], [`OtExtReceiver::export_state`]).
///
/// Everything else in an endpoint — the sender's secret `s` bits, the PRG
/// keys of either side, the fixed hash key — is a pure function of the
/// setup seed, so `(setup seed, OtCursor)` fully determines the endpoint:
/// rebuild with [`setup_pair`] and `import_state` and the wire output
/// continues bit-identically. This is what lets a serving layer persist OT
/// checkpoints to disk (a crash-recovery journal) instead of only cloning
/// them in memory, and what lets a client keep an element boundary as two
/// words instead of a clone of its [`2 * KAPPA`](KAPPA) expanded AES keys.
///
/// One counter covers all of an endpoint's column PRGs: they start at the
/// same stream offset, and every extension draws the same number of blocks
/// from each, so they move in lock-step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtCursor {
    /// Extension rounds completed (feeds the per-round hash tweaks).
    pub session: u64,
    /// Absolute CTR counter shared by every column PRG.
    pub counter: u128,
}

impl OtCursor {
    /// The cursor of an endpoint at `session` whose column PRGs are `prgs`.
    fn of(session: u64, prgs: &[AesPrg]) -> OtCursor {
        let counter = prgs.first().map_or(0, AesPrg::counter);
        debug_assert!(
            prgs.iter().all(|prg| prg.counter() == counter),
            "column PRGs left lock-step"
        );
        OtCursor { session, counter }
    }

    /// Moves an endpoint at (`session`, `prgs`) to this cursor.
    fn apply(&self, session: &mut u64, prgs: &mut [AesPrg]) {
        for prg in prgs {
            prg.set_counter(self.counter);
        }
        *session = self.session;
    }

    /// The cursor `extensions` extensions of `transfers` OTs each past this
    /// one: where a sender stands after that many absorbed extensions, or a
    /// receiver after that many `prepare`s. Every extension moves the
    /// session by one and the column PRGs by the same block count, so a
    /// cursor at any later boundary of a fixed-shape job is arithmetic on
    /// the cursor at its start.
    pub fn advanced(self, extensions: u64, transfers: usize) -> OtCursor {
        let blocks = u128::from(extensions) * blocks_per_extension(transfers) as u128;
        OtCursor {
            session: self.session.wrapping_add(extensions),
            counter: self.counter.wrapping_add(blocks),
        }
    }
}

/// Blocks every column PRG of either endpoint draws for one extension of
/// `transfers` OTs: `⌈⌈m/64⌉/2⌉`, one 64-bit word of the column per half
/// block.
fn blocks_per_extension(transfers: usize) -> usize {
    transfers.div_ceil(64).div_ceil(2)
}

impl OtExtSender {
    /// Exports the sender's mutable state; see [`OtCursor`].
    pub fn export_state(&self) -> OtCursor {
        OtCursor::of(self.session, &self.prgs)
    }

    /// Restores a state exported from a sender with the same setup seed.
    pub fn import_state(&mut self, state: &OtCursor) {
        state.apply(&mut self.session, &mut self.prgs);
    }
}

/// Extension receiver (holds the choice bits).
///
/// `Clone` snapshots the extension state, and [`OtCursor`] the same state
/// without the keys; see [`OtExtSender`].
#[derive(Clone, Debug)]
pub struct OtExtReceiver {
    /// PRGs from both base-OT seeds of each column, interleaved: `2i`
    /// seeded with `k_i^0`, `2i + 1` with `k_i^1`.
    prgs: Vec<AesPrg>,
    hash: FixedKeyHash,
    session: u64,
    /// Column scratch, kept for the endpoint's lifetime.
    columns: Columns,
}

impl OtExtReceiver {
    /// Exports the receiver's mutable state; see [`OtCursor`].
    pub fn export_state(&self) -> OtCursor {
        OtCursor::of(self.session, &self.prgs)
    }

    /// Restores a state exported from a receiver with the same setup seed.
    pub fn import_state(&mut self, state: &OtCursor) {
        state.apply(&mut self.session, &mut self.prgs);
    }
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
        absorbed: Absorbed::default(),
        columns: Columns::default(),
        hashes: Vec::new(),
    };
    let receiver = OtExtReceiver {
        prgs: seed_pairs
            .iter()
            .flat_map(|&(k0, k1)| [k0, k1])
            .map(|k| AesPrg::with_stream(k, 0x4f54))
            .collect(),
        hash: FixedKeyHash::new(),
        session: 0,
        columns: Columns::default(),
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
/// ([`AesPrg::fill_each`]) and kept as packed 64-bit words. An endpoint
/// keeps one `Columns` and expands every extension into it, so its buffers
/// are allocated once per shape, not once per extension.
///
/// Each PRG consumes exactly the blocks the former one-call-per-column
/// loop drew, so transcripts and resume snapshots stay bit-identical, and
/// every PRG advances by the same count: this and `import_state` are the
/// only mutators of either endpoint's column PRGs, which keeps them in the
/// lock-step [`OtCursor`] relies on.
#[derive(Clone, Default)]
struct Columns {
    blocks: Vec<Block>,
    words: Vec<u64>,
    /// Words per PRG: two per block.
    stride: usize,
    /// Words per column: `⌈m/64⌉` (one fewer than `stride` for odd counts).
    want: usize,
}

impl std::fmt::Debug for Columns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scratch: its shape says all there is to say.
        f.debug_struct("Columns")
            .field("stride", &self.stride)
            .field("want", &self.want)
            .finish_non_exhaustive()
    }
}

impl Columns {
    fn expand(&mut self, prgs: &mut [AesPrg], m: usize) {
        let per_prg = blocks_per_extension(m);
        self.blocks.clear();
        self.blocks.resize(prgs.len() * per_prg, Block::ZERO);
        AesPrg::fill_each(prgs, per_prg, &mut self.blocks);
        self.words.clear();
        self.words.extend(self.blocks.iter().flat_map(|block| {
            let bits = block.bits();
            [bits as u64, (bits >> 64) as u64]
        }));
        self.stride = 2 * per_prg;
        self.want = m.div_ceil(64);
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
/// 128-bit rows, replacing what `rows` held.
///
/// Works 64×64 blocks at a time with word-wise swaps — one transpose per
/// extension — replacing the former per-row, per-column `column_bit`
/// probing (O(m·128) shift-and-mask operations).
fn columns_to_rows<'c>(column: impl Fn(usize) -> &'c [u64], m: usize, rows: &mut Vec<Block>) {
    rows.clear();
    rows.reserve(m);
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
}

/// The OT-session hash tweak for transfer `j` of an extension (domain-
/// separated from GC gate tweaks by bit 62).
fn session_tweak(session: u64, j: usize) -> Tweak {
    Tweak::from_gate_index((session << 40) | j as u64 | 1 << 62)
}

impl OtExtReceiver {
    /// Expands the seed PRGs for `choices.len()` transfers and produces the
    /// correction message plus the decryption keys (rows of `T`). Moves the
    /// receiver one extension on.
    pub fn prepare(&mut self, choices: &[bool]) -> (ExtendMsg, ExtensionKeys) {
        let keys = self.extend(choices);
        let columns = &self.columns;
        let words = (0..KAPPA)
            .flat_map(|i| columns.column(2 * i + 1))
            .copied()
            .collect();
        let msg = ExtendMsg {
            words,
            count: choices.len(),
        };
        (msg, keys)
    }

    /// [`prepare`](OtExtReceiver::prepare) with the correction message
    /// written straight into `out` instead: column after column, each
    /// `⌈m/64⌉` big-endian words — the body of a wire frame, filled in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `KAPPA × ⌈m/64⌉ × 8` bytes long.
    pub fn prepare_into(&mut self, choices: &[bool], out: &mut [u8]) -> ExtensionKeys {
        let words = choices.len().div_ceil(64);
        assert_eq!(out.len(), KAPPA * words * 8, "correction buffer size");
        let keys = self.extend(choices);
        let columns = (0..KAPPA).flat_map(|i| self.columns.column(2 * i + 1));
        for (slot, word) in out.as_chunks_mut::<8>().0.iter_mut().zip(columns) {
            *slot = word.to_be_bytes();
        }
        keys
    }

    /// One extension of `choices.len()` transfers: the keys, with the
    /// correction columns `u_i` left in the odd scratch columns.
    fn extend(&mut self, choices: &[bool]) -> ExtensionKeys {
        let m = choices.len();
        let r = pack(choices);
        // t_i = G(k_i^0) is column 2i, G(k_i^1) column 2i + 1.
        self.columns.expand(&mut self.prgs, m);
        // Transpose T's columns into per-transfer rows (one word-wise
        // transpose for the whole extension), then fold t_i and r into
        // column 2i + 1 in place: u_i.
        let mut rows = Vec::new();
        columns_to_rows(|i| self.columns.column(2 * i), m, &mut rows);
        let Columns {
            words,
            stride,
            want,
            ..
        } = &mut self.columns;
        for i in 0..KAPPA {
            let (even, odd) = words.split_at_mut((2 * i + 1) * *stride);
            let t = &even[2 * i * *stride..][..*want];
            for ((u, &ti), &ri) in odd[..*want].iter_mut().zip(t).zip(&r) {
                *u ^= ti ^ ri;
            }
        }
        let session = self.session;
        self.session += 1;
        ExtensionKeys { session, rows }
    }

    /// Opens transfers `offset..offset + pairs.len()` of the extension
    /// `keys` came from: the chosen message of each pair, `choices` being
    /// the range's choice bits. Ranges of one extension open in any order,
    /// each once or again.
    ///
    /// # Panics
    ///
    /// Panics if `choices` and `pairs` differ in length or the range runs
    /// past the extension.
    pub fn open(
        &self,
        keys: &ExtensionKeys,
        offset: usize,
        pairs: &[(Block, Block)],
        choices: &[bool],
    ) -> Vec<Block> {
        assert_eq!(choices.len(), pairs.len(), "choice count mismatch");
        let rows = &keys.rows[offset..offset + pairs.len()];
        let mut masks = Vec::with_capacity(rows.len());
        self.hash.hash_into(
            rows.iter()
                .enumerate()
                .map(|(j, &t)| (t, session_tweak(keys.session, offset + j))),
            &mut masks,
        );
        pairs
            .iter()
            .zip(masks)
            .zip(choices)
            .map(|((&(y0, y1), mask), &c)| if c { y1 ^ mask } else { y0 ^ mask })
            .collect()
    }

    /// Decrypts the chosen message of each pair: the whole-range
    /// [`open`](OtExtReceiver::open).
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent.
    pub fn receive(
        &self,
        cipher: &CipherMsg,
        keys: &ExtensionKeys,
        choices: &[bool],
    ) -> Vec<Block> {
        assert_eq!(cipher.pairs.len(), keys.len(), "cipher count mismatch");
        self.open(keys, 0, &cipher.pairs, choices)
    }
}

impl OtExtSender {
    /// Absorbs the receiver's correction message: expands the PRG columns,
    /// folds in `s_i·u_i` and transposes `Q` to rows, once, for
    /// [`encrypt`](OtExtSender::encrypt) to read. Moves the sender one
    /// extension on.
    ///
    /// # Panics
    ///
    /// Panics if the message is malformed (not `KAPPA` columns of
    /// `⌈count/64⌉` words).
    pub fn absorb(&mut self, msg: &ExtendMsg) {
        let m = msg.count;
        assert_eq!(
            msg.words.len(),
            KAPPA * msg.words_per_column(),
            "malformed extension message"
        );
        // q_i = G(k_i^{s_i}) ⊕ s_i·u_i per column.
        self.columns.expand(&mut self.prgs, m);
        for (i, &si) in self.s.iter().enumerate() {
            if si {
                for (q, &ui) in self.columns.column_mut(i).iter_mut().zip(msg.column(i)) {
                    *q ^= ui;
                }
            }
        }
        let columns = &self.columns;
        columns_to_rows(|i| columns.column(i), m, &mut self.absorbed.rows);
        self.absorbed.session = self.session;
        self.session += 1;
    }

    /// Encrypts `pairs` as transfers `offset..offset + pairs.len()` of the
    /// last absorbed extension. Ranges may be encrypted in any order; the
    /// hash tweak of a transfer is its position in the extension.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the absorbed extension.
    pub fn encrypt(&mut self, offset: usize, pairs: &[(Block, Block)]) -> CipherMsg {
        let rows = &self.absorbed.rows[offset..offset + pairs.len()];
        let s_block = Block::new(
            self.s
                .iter()
                .enumerate()
                .fold(0u128, |bits, (i, &si)| bits | (si as u128) << i),
        );
        let session = self.absorbed.session;
        self.hash.hash_into(
            rows.iter().enumerate().flat_map(|(j, &q)| {
                let tweak = session_tweak(session, offset + j);
                [(q, tweak), (q ^ s_block, tweak)]
            }),
            &mut self.hashes,
        );
        let out = pairs
            .iter()
            .zip(self.hashes.as_chunks::<2>().0)
            .map(|(&(p0, p1), &[h0, h1])| (p0 ^ h0, p1 ^ h1))
            .collect();
        CipherMsg { pairs: out }
    }

    /// Encrypts `pairs` against the receiver's correction message: the
    /// whole-range [`absorb`](OtExtSender::absorb) +
    /// [`encrypt`](OtExtSender::encrypt).
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() != msg.count` or the message is malformed.
    pub fn send(&mut self, msg: &ExtendMsg, pairs: &[(Block, Block)]) -> CipherMsg {
        assert_eq!(pairs.len(), msg.count, "pair count mismatch");
        self.absorb(msg);
        self.encrypt(0, pairs)
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
            let mut columns = Columns::default();
            columns.expand(&mut prgs, m);
            let mut rows = vec![Block::ZERO; 3];
            columns_to_rows(|i| columns.column(i), m, &mut rows);
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
            let mut columns = Columns::default();
            columns.expand(std::slice::from_mut(&mut batched), m);
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
    fn exported_state_rebuilds_a_bit_identical_receiver() {
        // The client's element boundary: a receiver rebuilt from
        // setup_pair(seed) + import_state must send the same correction
        // columns, derive the same keys and open the same labels as the
        // receiver it was exported from.
        let (mut sender, mut receiver) = setup_pair(47);
        for round in 0..3 {
            let n = 72 + round * 13;
            let choices: Vec<bool> = (0..n).map(|i| (i + round) % 5 < 2).collect();
            let (msg, keys) = receiver.prepare(&choices);
            let cipher = sender.send(&msg, &msg_pairs(n));
            let _ = receiver.receive(&cipher, &keys, &choices);
        }
        let state = receiver.export_state();
        assert_eq!(state, sender.export_state(), "both ends share one cursor");

        let (_, mut rebuilt) = setup_pair(47);
        assert_ne!(rebuilt.export_state(), state, "warmup must advance state");
        rebuilt.import_state(&state);
        assert_eq!(rebuilt.export_state(), state);

        let choices: Vec<bool> = (0..120).map(|i| i % 3 != 1).collect();
        let pairs = msg_pairs(120);
        let (want_msg, want_keys) = receiver.prepare(&choices);
        let (got_msg, got_keys) = rebuilt.prepare(&choices);
        assert_eq!(want_msg, got_msg, "rebuilt receiver diverged on the wire");
        assert_eq!(want_keys, got_keys);
        let cipher = sender.send(&got_msg, &pairs);
        let want = receiver.receive(&cipher, &want_keys, &choices);
        let got = rebuilt.receive(&cipher, &got_keys, &choices);
        assert_eq!(want, got);
        for ((g, p), &c) in got.iter().zip(&pairs).zip(&choices) {
            assert_eq!(*g, if c { p.1 } else { p.0 });
        }
        assert_eq!(rebuilt.export_state(), receiver.export_state());
    }

    #[test]
    fn correction_columns_look_random() {
        // The u columns must not leak r directly: two different choice
        // vectors yield columns that differ in unpredictable positions.
        let (_, mut receiver) = setup_pair(23);
        let choices: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let (msg, _) = receiver.prepare(&choices);
        let ones: u32 = msg.words.iter().map(|w| w.count_ones()).sum();
        let total = (KAPPA * 128) as f64;
        let ratio = ones as f64 / total;
        assert!((ratio - 0.5).abs() < 0.05, "bias {ratio}");
    }

    #[test]
    fn prepare_into_writes_the_message_prepare_returns() {
        for m in [0usize, 1, 64, 100, 4096] {
            let (_, mut receiver) = setup_pair(29 + m as u64);
            let mut twin = receiver.clone();
            let choices: Vec<bool> = (0..m).map(|i| i % 7 < 3).collect();
            let (msg, keys) = receiver.prepare(&choices);
            let mut body = vec![0u8; KAPPA * m.div_ceil(64) * 8];
            let twin_keys = twin.prepare_into(&choices, &mut body);
            assert_eq!(twin_keys, keys, "m={m}");
            let words: Vec<u64> = body
                .as_chunks::<8>()
                .0
                .iter()
                .map(|&w| u64::from_be_bytes(w))
                .collect();
            assert_eq!(words, msg.words, "m={m}");
            assert_eq!(twin.export_state(), receiver.export_state(), "m={m}");
        }
    }

    /// One extension of `choices.len()` transfers, absorbed once and opened
    /// element by element (`m_e` transfers each, in order); returns the
    /// labels and the ciphertexts.
    fn batch_round(
        sender: &mut OtExtSender,
        receiver: &mut OtExtReceiver,
        choices: &[bool],
        m_e: usize,
    ) -> (Vec<Block>, Vec<(Block, Block)>) {
        let pairs = msg_pairs(choices.len());
        let (msg, keys) = receiver.prepare(choices);
        sender.absorb(&msg);
        let (mut labels, mut ciphers) = (Vec::new(), Vec::new());
        for start in (0..choices.len()).step_by(m_e) {
            let range = start..start + m_e;
            let cipher = sender.encrypt(start, &pairs[range.clone()]);
            labels.extend(receiver.open(&keys, start, &cipher.pairs, &choices[range]));
            ciphers.extend(cipher.pairs);
        }
        (labels, ciphers)
    }

    fn batch_choices(transfers: usize, round: usize) -> Vec<bool> {
        (0..transfers)
            .map(|i| (i * 5 + round).is_multiple_of(3))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One extension covers a batch of elements: the sender absorbs it
        /// once and encrypts element by element, the receiver prepares it
        /// once and opens element by element, and every chosen label comes
        /// back — the very ciphertexts and labels of the whole-range
        /// `send`/`receive` on the same extension.
        #[test]
        fn one_extension_opens_element_by_element(
            seed in 0u64..1_000_000,
            n in 1usize..6,
            m_e in 1usize..150,
        ) {
            let (mut sender, mut receiver) = setup_pair(seed);
            let (mut whole_sender, mut whole_receiver) = (sender.clone(), receiver.clone());
            let choices = batch_choices(n * m_e, 0);
            let pairs = msg_pairs(n * m_e);
            let (labels, ciphers) = batch_round(&mut sender, &mut receiver, &choices, m_e);
            for ((got, pair), &c) in labels.iter().zip(&pairs).zip(&choices) {
                prop_assert_eq!(*got, if c { pair.1 } else { pair.0 });
            }
            let (msg, keys) = whole_receiver.prepare(&choices);
            let cipher = whole_sender.send(&msg, &pairs);
            prop_assert_eq!(&cipher.pairs, &ciphers);
            prop_assert_eq!(whole_receiver.receive(&cipher, &keys, &choices), labels);
            prop_assert_eq!(sender.export_state(), whole_sender.export_state());
            prop_assert_eq!(receiver.export_state(), whole_receiver.export_state());
        }

        /// Any run of extension sizes moves every column PRG of either
        /// endpoint by the same count, so one counter is an endpoint's whole
        /// PRG position, and an endpoint rebuilt from it stands exactly
        /// where the original does.
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
                let state = receiver.export_state();
                prop_assert!(receiver.prgs.iter().all(|prg| prg.counter() == state.counter));
            }
            let (mut rebuilt, mut rebuilt_receiver) = setup_pair(seed);
            rebuilt.import_state(&sender.export_state());
            for (a, b) in rebuilt.prgs.iter().zip(&sender.prgs) {
                prop_assert_eq!(a.counter(), b.counter());
            }
            rebuilt_receiver.import_state(&receiver.export_state());
            for (a, b) in rebuilt_receiver.prgs.iter().zip(&receiver.prgs) {
                prop_assert_eq!(a.counter(), b.counter());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The derived cursor after n extensions of m transfers is where
        /// real `prepare`/`send`/`receive` rounds leave both endpoints,
        /// from any starting cursor: a job's boundary is arithmetic.
        #[test]
        fn derived_cursor_matches_real_extensions(
            seed in 0u64..1_000_000,
            extensions in 0u64..=300,
            warmup in 0usize..200,
        ) {
            for m in [1, 63, 64, 65, 128, 129, 2048] {
                let (mut sender, mut receiver) = setup_pair(seed);
                // One extension of another size first: a nonzero start.
                let choices: Vec<bool> = (0..warmup).map(|i| i % 5 == 0).collect();
                let (msg, keys) = receiver.prepare(&choices);
                let cipher = sender.send(&msg, &msg_pairs(warmup));
                let _ = receiver.receive(&cipher, &keys, &choices);
                let start = (sender.export_state(), receiver.export_state());

                let choices: Vec<bool> = (0..m).map(|i| (i * 7 + m) % 3 == 0).collect();
                let pairs = msg_pairs(m);
                for _ in 0..extensions {
                    let (msg, keys) = receiver.prepare(&choices);
                    let cipher = sender.send(&msg, &pairs);
                    let _ = receiver.receive(&cipher, &keys, &choices);
                }
                prop_assert_eq!(start.0.advanced(extensions, m), sender.export_state());
                prop_assert_eq!(start.1.advanced(extensions, m), receiver.export_state());
            }
            // Batches: each extension covers n elements of m_e transfers,
            // absorbed once and opened element by element.
            for (n, m_e) in [(1, 24), (3, 64), (64, 64), (5, 100)] {
                let (mut sender, mut receiver) = setup_pair(seed);
                let start = (sender.export_state(), receiver.export_state());
                let batches = extensions % 8;
                for round in 0..batches as usize {
                    let choices = batch_choices(n * m_e, round);
                    let _ = batch_round(&mut sender, &mut receiver, &choices, m_e);
                }
                prop_assert_eq!(start.0.advanced(batches, n * m_e), sender.export_state());
                prop_assert_eq!(start.1.advanced(batches, n * m_e), receiver.export_state());
            }
        }
    }
}
