//! The Figure-1 system: a cloud server (garbler, with the accelerator and
//! the model matrix) serving a client (evaluator, with the input vector).
//!
//! The server's host CPU relays accelerator output and runs the OT with the
//! client — exactly the division of labour in §3: "MAXelerator creates the
//! garbled tables and sends them to the host CPU that later performs the
//! communication with the client including OT."
//!
//! The accelerator may hold several MAC units (§6: "the throughput can be
//! increased linearly by adding more GC cores"). Unit `u` of `n` garbles
//! rows `u, u + n, …` on its own thread while the host serves the rows
//! already garbled, in row order. Every element's labels derive from the
//! seed and the element id alone ([`Maxelerator::begin_element`]), so the
//! unit count changes no byte the client sees.

use std::sync::mpsc;

use max_crypto::Block;
use max_ot::iknp::{self, OtExtReceiver, OtExtSender};

use crate::accelerator::{AcceleratorReport, GarbledRow, Maxelerator, ScheduledEvaluator};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;

/// Communication/computation accounting of one secure matrix-vector
/// product.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MatvecTranscript {
    /// Output elements computed.
    pub elements: usize,
    /// MAC rounds garbled.
    pub rounds: u64,
    /// Garbled tables transferred.
    pub tables: u64,
    /// Bytes of garbled material + input labels (server → client).
    pub material_bytes: u64,
    /// Bytes of OT ciphertexts (server → client).
    pub ot_bytes: u64,
    /// Bytes of OT corrections (client → server).
    pub ot_upload_bytes: u64,
    /// Fabric cycles the busiest unit spent garbling this product (the
    /// units run in parallel).
    pub fabric_cycles: u64,
    /// Wall-clock the fabric would need at the configured frequency.
    pub fabric_seconds: f64,
}

/// The cloud server: MAC units + model matrix + OT sender.
pub struct CloudServer {
    units: Vec<Maxelerator>,
    /// Model matrix, row-major.
    weights: Vec<Vec<i64>>,
    ot_sender: OtExtSender,
    /// Seed every unit's label streams derive from.
    seed: u64,
    /// Element ids this session has garbled: query `q` garbles elements
    /// `q·rows + r`, the numbering a served matmul gives its column `q`,
    /// so no query reuses another's labels.
    elements_used: u32,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("units", &self.units.len())
            .field("rows", &self.weights.len())
            .finish_non_exhaustive()
    }
}

/// The client: scheduled evaluator + OT receiver.
pub struct ClientSession {
    evaluator: ScheduledEvaluator,
    config: AcceleratorConfig,
    ot_receiver: OtExtReceiver,
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession").finish_non_exhaustive()
    }
}

impl ClientSession {
    /// The host-side half of one output element: one OT-extension batch
    /// covers every round of the row (`b` choice bits per round), then the
    /// rounds are evaluated in order. Returns the decoded MAC result.
    fn receive_element(
        &mut self,
        elem: u32,
        choices: &[bool],
        garbled: &GarbledRow,
        ot_sender: &mut OtExtSender,
        transcript: &mut MatvecTranscript,
    ) -> Result<i64, AcceleratorError> {
        self.evaluator.begin_element(elem);
        let labels: Vec<Block> = {
            let (ext_msg, keys) = self.ot_receiver.prepare(choices);
            let cipher = ot_sender.send(&ext_msg, &garbled.pairs);
            transcript.ot_bytes += (cipher.pairs.len() * 32) as u64;
            transcript.ot_upload_bytes += ext_msg
                .columns
                .iter()
                .map(|c| c.len() as u64 * 8)
                .sum::<u64>();
            self.ot_receiver.receive(&cipher, &keys, choices)
        };

        let b = self.config.bit_width;
        let mut decoded = None;
        for (i, msg) in garbled.messages.iter().enumerate() {
            transcript.material_bytes += msg.wire_bytes() as u64;
            transcript.tables += msg.tables.len() as u64;
            decoded = self
                .evaluator
                .evaluate_round(msg, &labels[i * b..(i + 1) * b])?;
        }
        transcript.rounds += garbled.messages.len() as u64;
        Ok(decoded.expect("final round decodes"))
    }
}

/// Creates a connected server/client pair with one MAC unit (the OT base
/// phase runs here).
///
/// An empty matrix is accepted: the resulting matvec is the empty vector.
///
/// # Panics
///
/// Panics if the matrix is ragged, a non-empty matrix has zero columns, or
/// its values do not fit the configured bit-width.
pub fn connect(
    config: &AcceleratorConfig,
    weights: Vec<Vec<i64>>,
    seed: u64,
) -> (CloudServer, ClientSession) {
    let cols = weights.first().map_or(0, Vec::len);
    assert!(
        weights.is_empty() || cols > 0,
        "model matrix must have columns"
    );
    for row in &weights {
        assert_eq!(row.len(), cols, "ragged model matrix");
    }
    let (ot_sender, ot_receiver) = iknp::setup_pair(seed ^ 0x0055_aaff);
    (
        CloudServer {
            units: vec![Maxelerator::new(config.clone(), seed)],
            weights,
            ot_sender,
            seed,
            elements_used: 0,
        },
        ClientSession {
            evaluator: ScheduledEvaluator::new(config),
            config: config.clone(),
            ot_receiver,
        },
    )
}

impl CloudServer {
    /// Garbles on `n` MAC units instead of one (§6). Results, transcript
    /// bytes and garbled material are the same for every `n`; only
    /// [`MatvecTranscript::fabric_cycles`], the busiest unit's, shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_units(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one unit");
        let config = self.units[0].config().clone();
        let seed = self.seed;
        self.units
            .resize_with(n, || Maxelerator::new(config.clone(), seed));
        self
    }

    /// Number of model rows (output elements).
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Vector length the client must supply (zero for an empty model).
    pub fn cols(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Unit 0's activity report — the only unit unless
    /// [`CloudServer::with_units`] was called.
    pub fn accelerator_report(&self) -> &AcceleratorReport {
        self.units[0].report()
    }
}

/// Runs a complete privacy-preserving matrix-vector product `y = W·x`
/// between `server` and `client`, with the client's `x` delivered through
/// the full OT-extension stack. Each call garbles fresh elements: query
/// `q` of a session is pass `q` of a served matmul.
///
/// Returns the decoded result (revealed to the client, per the protocol)
/// and the transcript accounting.
///
/// # Panics
///
/// Panics if `x` length differs from the server's column count, values do
/// not fit the configured bit-width, or the session has used up its `u32`
/// element ids.
pub fn secure_matvec(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x: &[i64],
) -> (Vec<i64>, MatvecTranscript) {
    secure_matvec_tapped(server, client, x, |_, _| {})
}

/// [`secure_matvec`], showing `tap` each garbled row and its element id
/// before the host serves it.
pub(crate) fn secure_matvec_tapped(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x: &[i64],
    mut tap: impl FnMut(u32, &GarbledRow),
) -> (Vec<i64>, MatvecTranscript) {
    assert_eq!(x.len(), server.cols(), "vector length mismatch");
    let CloudServer {
        units,
        weights,
        ot_sender,
        elements_used,
        ..
    } = server;
    let rows = weights.len();
    let first = *elements_used;
    *elements_used = u32::try_from(rows)
        .ok()
        .and_then(|rows| first.checked_add(rows))
        .expect("session used up its u32 element ids; connect a new session");
    let choices = client.config.encode_choices(x);
    let mut transcript = MatvecTranscript {
        elements: rows,
        ..MatvecTranscript::default()
    };
    let mut result = Vec::with_capacity(rows);

    let n = units.len();
    let weights = &*weights;
    std::thread::scope(|scope| {
        let mut feeds = Vec::with_capacity(n);
        let mut garblers = Vec::with_capacity(n);
        for (u, unit) in units.iter_mut().enumerate().take(rows) {
            let (tx, rx) = mpsc::channel();
            feeds.push(rx);
            garblers.push(scope.spawn(move || {
                let before = unit.report().cycles;
                for r in (u..rows).step_by(n) {
                    // The host hangs up only when it panics.
                    let _ = tx.send(unit.garble_element(first + r as u32, &weights[r]));
                }
                unit.report().cycles - before
            }));
        }
        // A unit's rows ascend, so its feed's next row is the next one it
        // owns. A closed feed means the unit panicked; the join rethrows.
        for r in 0..rows {
            let Ok(row) = feeds[r % n].recv() else { break };
            let elem = first + r as u32;
            tap(elem, &row);
            let decoded = client
                .receive_element(elem, &choices, &row, ot_sender, &mut transcript)
                .expect("in-process server messages are well-formed");
            result.push(decoded);
        }
        // The units run in parallel: the query takes the busiest one's
        // cycles.
        for garbler in garblers {
            match garbler.join() {
                Ok(cycles) => transcript.fabric_cycles = transcript.fabric_cycles.max(cycles),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    transcript.fabric_seconds = transcript.fabric_cycles as f64 / (client.config.freq_mhz * 1e6);
    (result, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_gc::GarbledTable;
    use std::collections::HashSet;

    fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn secure_matvec_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![
            vec![1i64, -2, 3, 4],
            vec![-5, 6, -7, 8],
            vec![0, 0, 127, -128],
        ];
        let x = vec![9i64, -10, 11, 12];
        let expected = plain_matvec(&w, &x);
        let (mut server, mut client) = connect(&config, w, 99);
        let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected);
        assert_eq!(transcript.elements, 3);
        assert_eq!(transcript.rounds, 12);
        assert!(transcript.tables > 0);
        assert!(transcript.material_bytes > transcript.tables * GarbledTable::WIRE_BYTES as u64);
        assert!(transcript.ot_bytes > 0);
        assert!(transcript.fabric_seconds > 0.0);
    }

    #[test]
    fn sixteen_bit_matvec() {
        let config = AcceleratorConfig::new(16);
        let w = vec![vec![1000i64, -2000], vec![30_000, 1]];
        let x = vec![-7i64, 250];
        let expected = plain_matvec(&w, &x);
        let (mut server, mut client) = connect(&config, w, 5);
        let (got, _) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected);
    }

    #[test]
    fn repeated_queries_reuse_ot_setup() {
        // OT extension: one base phase serves every query of a session
        // (fresh labels per query are `queries_garble_the_served_passes`).
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, 3]];
        let (mut server, mut client) = connect(&config, w, 17);
        let (y1, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        let (y2, _) = secure_matvec(&mut server, &mut client, &[-1, 1]);
        assert_eq!(y1, vec![80]);
        assert_eq!(y2, vec![1]);
    }

    #[test]
    fn queries_garble_the_served_passes() {
        // Query q garbles pass q of a served matmul, on any unit count
        // (three units for two rows leaves one idle): the same messages
        // and OT pairs, and no table or pair is ever sent twice.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![3i64, -4, 5], vec![-6, 7, 8]];
        let xs = [[1i64, 2, 3], [1, 2, 2]];
        let job = crate::remote::garble_matvec_job(&config, &w, 41, 2).unwrap();
        for units in 1..=3 {
            let (server, mut client) = connect(&config, w.clone(), 41);
            let mut server = server.with_units(units);
            let mut tables = HashSet::new();
            let mut pairs = HashSet::new();
            for (q, x) in xs.iter().enumerate() {
                let mut rows = Vec::new();
                let (y, _) = secure_matvec_tapped(&mut server, &mut client, x, |elem, row| {
                    rows.push((elem, row.clone()));
                });
                assert_eq!(y, plain_matvec(&w, x), "{units} units, query {q}");
                assert_eq!(rows.len(), w.len());
                for (r, (elem, row)) in rows.iter().enumerate() {
                    for table in row.messages.iter().flat_map(|m| &m.tables) {
                        assert!(
                            tables.insert(table.to_bytes()),
                            "{units} units, query {q}, row {r}: a garbled table repeats"
                        );
                    }
                    for pair in &row.pairs {
                        assert!(
                            pairs.insert(*pair),
                            "{units} units, query {q}, row {r}: an OT pair repeats"
                        );
                    }
                    let served = q * w.len() + r;
                    assert_eq!(*elem as usize, served, "{units} units, query {q}");
                    assert_eq!(row.messages, job.rows[served].messages);
                    assert_eq!(row.pairs, job.rows[served].pairs);
                }
            }
        }
    }

    #[test]
    fn empty_model_yields_empty_result() {
        let config = AcceleratorConfig::new(8);
        for units in [1, 3] {
            let (server, mut client) = connect(&config, vec![], 3);
            let mut server = server.with_units(units);
            let (y, t) = secure_matvec(&mut server, &mut client, &[]);
            assert!(y.is_empty());
            assert_eq!(t.elements, 0);
            assert_eq!(t.tables, 0);
            assert_eq!(t.material_bytes, 0);
            assert_eq!(t.fabric_cycles, 0);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one unit")]
    fn zero_units_rejected() {
        let config = AcceleratorConfig::new(8);
        let _ = connect(&config, vec![vec![1]], 1).0.with_units(0);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn wrong_vector_length_rejected() {
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![vec![1, 2]], 1);
        secure_matvec(&mut server, &mut client, &[1]);
    }

    #[test]
    #[should_panic(expected = "ragged model matrix")]
    fn ragged_matrix_rejected() {
        let config = AcceleratorConfig::new(8);
        connect(&config, vec![vec![1, 2], vec![3]], 1);
    }
}
