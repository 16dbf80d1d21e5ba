//! The Figure-1 system: a cloud server (garbler, with the accelerator and
//! the model matrix) serving a client (evaluator, with the input vector).
//!
//! The server's host CPU relays accelerator output and runs the OT with the
//! client — exactly the division of labour in §3: "MAXelerator creates the
//! garbled tables and sends them to the host CPU that later performs the
//! communication with the client including OT."

use max_crypto::Block;
use max_ot::iknp::{self, OtExtReceiver, OtExtSender};
use serde::{Deserialize, Serialize};

use crate::accelerator::{GarbledRow, Maxelerator, ScheduledEvaluator};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;

/// Communication/computation accounting of one secure matrix-vector
/// product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
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
    /// Fabric cycles spent garbling.
    pub fabric_cycles: u64,
    /// Wall-clock the fabric would need at the configured frequency.
    pub fabric_seconds: f64,
}

/// The cloud server: accelerator + model matrix + OT sender.
pub struct CloudServer {
    accelerator: Maxelerator,
    /// Model matrix, row-major.
    weights: Vec<Vec<i64>>,
    ot_sender: OtExtSender,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("rows", &self.weights.len())
            .finish_non_exhaustive()
    }
}

/// The client: scheduled evaluator + OT receiver.
pub struct ClientSession {
    pub(crate) evaluator: ScheduledEvaluator,
    pub(crate) config: AcceleratorConfig,
    pub(crate) ot_receiver: OtExtReceiver,
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession").finish_non_exhaustive()
    }
}

impl ClientSession {
    /// The host-side half of one output element, shared by the single- and
    /// multi-unit in-process servers so their OT state transitions and
    /// byte counts cannot diverge: one OT-extension batch covers every
    /// round of the row (`b` choice bits per round), then the rounds are
    /// evaluated in order. Returns the decoded MAC result.
    pub(crate) fn receive_element(
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

/// Creates a connected server/client pair (the OT base phase runs here).
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
            accelerator: Maxelerator::new(config.clone(), seed),
            weights,
            ot_sender,
        },
        ClientSession {
            evaluator: ScheduledEvaluator::new(config),
            config: config.clone(),
            ot_receiver,
        },
    )
}

impl CloudServer {
    /// Number of model rows (output elements).
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Vector length the client must supply (zero for an empty model).
    pub fn cols(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Direct access to the accelerator's activity report.
    pub fn accelerator_report(&self) -> &crate::accelerator::AcceleratorReport {
        self.accelerator.report()
    }
}

/// Runs a complete privacy-preserving matrix-vector product `y = W·x`
/// between `server` and `client`, with the client's `x` delivered through
/// the full OT-extension stack.
///
/// Returns the decoded result (revealed to the client, per the protocol)
/// and the transcript accounting.
///
/// # Panics
///
/// Panics if `x` length differs from the server's column count or values do
/// not fit the configured bit-width.
pub fn secure_matvec(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x: &[i64],
) -> (Vec<i64>, MatvecTranscript) {
    assert_eq!(x.len(), server.cols(), "vector length mismatch");
    let mut transcript = MatvecTranscript::default();
    let mut result = Vec::with_capacity(server.rows());
    let choices = client.config.encode_choices(x);

    for (row_idx, row) in server.weights.iter().enumerate() {
        let garbled = server
            .accelerator
            .garble_element(row_idx as u32, row)
            .expect("compiled schedule satisfies its own dependencies");
        let decoded = client
            .receive_element(
                row_idx as u32,
                &choices,
                &garbled,
                &mut server.ot_sender,
                &mut transcript,
            )
            .expect("in-process server messages are well-formed");
        result.push(decoded);
    }

    transcript.elements = server.rows();
    let report = server.accelerator.report();
    transcript.fabric_cycles = report.cycles;
    transcript.fabric_seconds = report.cycles as f64 / (server.accelerator.config().freq_mhz * 1e6);
    (result, transcript)
}

/// Runs a complete privacy-preserving matrix product `Y = W·X` (Eq. 3 of
/// the paper) where the client\'s matrix `X` is supplied column by column.
///
/// Returns `Y` row-major (`rows x x_columns.len()`) and the merged
/// transcript. Internally each column is one [`secure_matvec`]; the paper\'s
/// cycle formula `3*M*N*P*b` is exactly this loop on one MAC unit.
///
/// # Panics
///
/// Panics if any column length differs from the server\'s column count.
pub fn secure_matmul(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x_columns: &[Vec<i64>],
) -> (Vec<Vec<i64>>, MatvecTranscript) {
    assert!(!x_columns.is_empty(), "need at least one column");
    let mut result = vec![vec![0i64; x_columns.len()]; server.rows()];
    let mut total = MatvecTranscript::default();
    for (j, column) in x_columns.iter().enumerate() {
        let (y, t) = secure_matvec(server, client, column);
        for (i, value) in y.into_iter().enumerate() {
            result[i][j] = value;
        }
        total.elements += t.elements;
        total.rounds += t.rounds;
        total.tables += t.tables;
        total.material_bytes += t.material_bytes;
        total.ot_bytes += t.ot_bytes;
        total.ot_upload_bytes += t.ot_upload_bytes;
        total.fabric_cycles = t.fabric_cycles; // cumulative clock
        total.fabric_seconds = t.fabric_seconds;
    }
    (result, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_gc::GarbledTable;

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
        // Sequential GC + OT extension: the same session serves multiple
        // queries with fresh labels each time.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, 3]];
        let (mut server, mut client) = connect(&config, w, 17);
        let (y1, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        let (y2, _) = secure_matvec(&mut server, &mut client, &[-1, 1]);
        assert_eq!(y1, vec![80]);
        assert_eq!(y2, vec![1]);
    }

    #[test]
    fn secure_matmul_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64, -2, 3], vec![4, 5, -6]];
        let x_cols = vec![vec![1i64, 0, -1], vec![7, -8, 9]];
        let (mut server, mut client) = connect(&config, w.clone(), 123);
        let (y, t) = secure_matmul(&mut server, &mut client, &x_cols);
        for i in 0..2 {
            for j in 0..2 {
                let want: i64 = w[i].iter().zip(&x_cols[j]).map(|(a, b)| a * b).sum();
                assert_eq!(y[i][j], want, "({i},{j})");
            }
        }
        assert_eq!(t.elements, 4);
        assert_eq!(t.rounds, 12);
    }

    #[test]
    fn empty_model_yields_empty_result() {
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![], 3);
        let (y, t) = secure_matvec(&mut server, &mut client, &[]);
        assert!(y.is_empty());
        assert_eq!(t.elements, 0);
        assert_eq!(t.tables, 0);
        assert_eq!(t.material_bytes, 0);
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
