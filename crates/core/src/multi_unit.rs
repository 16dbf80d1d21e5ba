//! Multiple MAC units on one device, running **concurrently**: each unit
//! garbles its share of the rows on its own thread (§6: "the throughput can
//! be increased linearly by adding more GC cores") and streams the round
//! messages to the host CPU through the `max_gc::channel` layer, so
//! garbling overlaps host-side OT and evaluation instead of barriering per
//! row.
//!
//! Functional output is **bit-identical** to the single-unit
//! [`crate::CloudServer`]: every element's label stream derives from
//! `(base_seed, elem)` alone (see [`Maxelerator::begin_element`]), so the
//! thread/unit assignment cannot leak into the transcript. The host
//! consumes rows in row order, which also keeps the OT-extension state
//! transitions identical to the sequential server's.
//!
//! Timing is reported two ways: the *modeled* fabric cycles (makespan =
//! busiest unit) and the *measured* wall-clock of the host pipeline, so the
//! linear-scaling claim can be checked against real thread-level speedup.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use max_crypto::Block;
use max_gc::channel::Duplex;
use max_ot::iknp::{self, OtExtSender};

use crate::accelerator::{GarbledRow, Maxelerator, RoundMessage, ScheduledEvaluator};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::server::{ClientSession, MatvecTranscript};
use crate::wire::{decode_round_message, encode_round_message};

/// OT label pairs for one row: bit-width pairs per round, concatenated in
/// round order (the [`GarbledRow::pairs`] layout).
pub type RowOtPairs = Vec<(Block, Block)>;

/// A bank of independent MAC units sharing one device.
///
/// All units derive per-element label streams from the **same** base seed,
/// which is what makes the parallel transcript equal to the single-unit
/// one.
pub struct MultiUnitServer {
    units: Vec<Maxelerator>,
    weights: Vec<Vec<i64>>,
    config: AcceleratorConfig,
    /// Present when built via [`connect_multi`]; powers the full OT path.
    ot_sender: Option<OtExtSender>,
}

impl std::fmt::Debug for MultiUnitServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiUnitServer")
            .field("units", &self.units.len())
            .field("rows", &self.weights.len())
            .finish_non_exhaustive()
    }
}

/// Timing summary of a multi-unit matvec: modeled fabric cycles plus the
/// measured wall-clock of the actual threaded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MultiUnitTiming {
    /// Units used.
    pub units: usize,
    /// Fabric cycles of the busiest unit (= the parallel makespan).
    pub makespan_cycles: u64,
    /// Sum of all units' fabric cycles (= the single-unit equivalent).
    pub total_cycles: u64,
    /// Measured wall-clock of the busiest garbling thread.
    pub measured_makespan: Duration,
    /// Sum of all garbling threads' busy time (= single-thread equivalent).
    pub measured_busy_total: Duration,
    /// Measured end-to-end wall-clock of the streamed pipeline (garbling
    /// overlapped with host-side OT/evaluation).
    pub measured_wall: Duration,
    /// Bytes of garbled material streamed unit → host over the channel
    /// layer.
    pub streamed_bytes: u64,
}

impl MultiUnitTiming {
    /// Modeled parallel speedup over one unit.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 1.0;
        }
        self.total_cycles as f64 / self.makespan_cycles as f64
    }

    /// Measured thread-level speedup: total garbling CPU time over the
    /// busiest thread's wall-clock.
    pub fn measured_speedup(&self) -> f64 {
        if self.measured_makespan.is_zero() {
            return 1.0;
        }
        self.measured_busy_total.as_secs_f64() / self.measured_makespan.as_secs_f64()
    }

    /// Publishes this timing into `recorder` as `multi_unit.*` counters,
    /// read back via [`MultiUnitTiming::from_snapshot`]. Meant to be called
    /// once per recorder (counters accumulate).
    pub fn record_into(&self, recorder: &max_telemetry::Recorder) {
        recorder.add("multi_unit.units", self.units as u64);
        recorder.add("multi_unit.makespan_cycles", self.makespan_cycles);
        recorder.add("multi_unit.total_cycles", self.total_cycles);
        recorder.add(
            "multi_unit.measured_makespan_ns",
            self.measured_makespan.as_nanos() as u64,
        );
        recorder.add(
            "multi_unit.measured_busy_total_ns",
            self.measured_busy_total.as_nanos() as u64,
        );
        recorder.add(
            "multi_unit.measured_wall_ns",
            self.measured_wall.as_nanos() as u64,
        );
        recorder.add("multi_unit.streamed_bytes", self.streamed_bytes);
    }

    /// Rebuilds a timing from the `multi_unit.*` counters of `snapshot`;
    /// `None` when no multi-unit run was recorded.
    pub fn from_snapshot(snapshot: &max_telemetry::Snapshot) -> Option<Self> {
        let units = snapshot.counter("multi_unit.units");
        if units == 0 {
            return None;
        }
        Some(MultiUnitTiming {
            units: units as usize,
            makespan_cycles: snapshot.counter("multi_unit.makespan_cycles"),
            total_cycles: snapshot.counter("multi_unit.total_cycles"),
            measured_makespan: Duration::from_nanos(
                snapshot.counter("multi_unit.measured_makespan_ns"),
            ),
            measured_busy_total: Duration::from_nanos(
                snapshot.counter("multi_unit.measured_busy_total_ns"),
            ),
            measured_wall: Duration::from_nanos(snapshot.counter("multi_unit.measured_wall_ns")),
            streamed_bytes: snapshot.counter("multi_unit.streamed_bytes"),
        })
    }
}

/// Per-unit result of one garbling thread, drained after the scope joins.
type UnitStats = (usize, Duration, u64);

impl MultiUnitServer {
    /// Creates `units` MAC units serving model matrix `weights`. An empty
    /// matrix is accepted (the matvec is then the empty vector).
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero, the matrix is ragged, or a non-empty
    /// matrix has zero columns.
    pub fn new(
        config: &AcceleratorConfig,
        weights: Vec<Vec<i64>>,
        units: usize,
        seed: u64,
    ) -> Self {
        assert!(units > 0, "need at least one unit");
        let cols = weights.first().map_or(0, Vec::len);
        assert!(
            weights.is_empty() || cols > 0,
            "model matrix must have columns"
        );
        for row in &weights {
            assert_eq!(row.len(), cols, "ragged model matrix");
        }
        MultiUnitServer {
            units: (0..units)
                .map(|_| Maxelerator::new(config.clone(), seed))
                .collect(),
            weights,
            config: config.clone(),
            ot_sender: None,
        }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// Number of model rows (output elements).
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Vector length the client must supply (zero for an empty model).
    pub fn cols(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Runs the threaded garbling pipeline: every unit garbles rows
    /// `u, u + n, u + 2n, …` on its own thread and streams each round's
    /// encoded [`RoundMessage`] over a [`Duplex`] channel; `on_row` runs on
    /// the host thread, in row order, overlapped with the still-garbling
    /// units. OT pairs travel on a server-internal side channel (they never
    /// leave the garbler's trust domain).
    fn stream_rows<F>(&mut self, mut on_row: F) -> Result<MultiUnitTiming, AcceleratorError>
    where
        F: FnMut(usize, GarbledRow) -> Result<(), AcceleratorError>,
    {
        let started = Instant::now();
        let n_units = self.units.len();
        let rows = self.weights.len();
        if rows == 0 {
            return Ok(MultiUnitTiming {
                units: n_units,
                measured_wall: started.elapsed(),
                ..MultiUnitTiming::default()
            });
        }

        let mut unit_ends = Vec::with_capacity(n_units);
        let mut host_ends = Vec::with_capacity(n_units);
        let mut pair_txs = Vec::with_capacity(n_units);
        let mut pair_rxs = Vec::with_capacity(n_units);
        for _ in 0..n_units {
            let (unit_end, host_end) = Duplex::pair();
            unit_ends.push(unit_end);
            host_ends.push(host_end);
            let (tx, rx) = mpsc::channel::<RowOtPairs>();
            pair_txs.push(tx);
            pair_rxs.push(rx);
        }
        let (stats_tx, stats_rx) = mpsc::channel::<UnitStats>();

        let weights = &self.weights;
        let host_result: Result<(), AcceleratorError> = std::thread::scope(|scope| {
            for ((u, unit), (mut wire, pair_tx)) in self
                .units
                .iter_mut()
                .enumerate()
                .zip(unit_ends.into_iter().zip(pair_txs))
            {
                let stats_tx = stats_tx.clone();
                scope.spawn(move || {
                    let thread_started = Instant::now();
                    let cycles_before = unit.report().cycles;
                    for row_idx in (u..rows).step_by(n_units) {
                        let garbled = unit.garble_element(row_idx as u32, &weights[row_idx]);
                        for msg in &garbled.messages {
                            wire.send_bytes(encode_round_message(msg));
                        }
                        // Receiver only drops early if the host errored out.
                        let _ = pair_tx.send(garbled.pairs);
                    }
                    let unit_cycles = unit.report().cycles - cycles_before;
                    let _ = stats_tx.send((u, thread_started.elapsed(), unit_cycles));
                });
            }
            drop(stats_tx);

            // Host side: consume rows strictly in row order (each unit's
            // stream is FIFO and its rows ascend, so the owner's next frame
            // bundle is exactly the next row we need). Early rows are
            // evaluated while later rows are still being garbled.
            let rounds_per_row = weights[0].len();
            for row_idx in 0..rows {
                let owner = row_idx % n_units;
                let mut messages = Vec::with_capacity(rounds_per_row);
                for _ in 0..rounds_per_row {
                    let frame = host_ends[owner]
                        .recv_bytes()
                        .map_err(|_| AcceleratorError::Disconnected)?;
                    messages.push(decode_round_message(frame)?);
                }
                let pairs = pair_rxs[owner]
                    .recv()
                    .map_err(|_| AcceleratorError::Disconnected)?;
                on_row(row_idx, GarbledRow { messages, pairs })?;
            }
            Ok(())
        });

        let mut busy = vec![Duration::ZERO; n_units];
        let mut cycles = vec![0u64; n_units];
        for (u, elapsed, unit_cycles) in stats_rx.iter() {
            busy[u] = elapsed;
            cycles[u] = unit_cycles;
        }
        host_result?;

        Ok(MultiUnitTiming {
            units: n_units,
            makespan_cycles: cycles.iter().copied().max().unwrap_or(0),
            total_cycles: cycles.iter().sum(),
            measured_makespan: busy.iter().copied().max().unwrap_or(Duration::ZERO),
            measured_busy_total: busy.iter().sum(),
            measured_wall: started.elapsed(),
            streamed_bytes: host_ends.iter().map(|e| e.received().bytes()).sum(),
        })
    }

    /// Garbles every row, row `i` on unit `i % units`, and returns the
    /// per-row messages with their OT pairs (trusted-delivery form for the
    /// in-process client) and the parallel timing. The units run on real
    /// threads; this form gathers everything before returning.
    pub fn garble_matvec(&mut self) -> (Vec<Vec<RoundMessage>>, Vec<RowOtPairs>, MultiUnitTiming) {
        let mut messages = Vec::with_capacity(self.weights.len());
        let mut pairs = Vec::with_capacity(self.weights.len());
        let timing = self
            .stream_rows(|_, row| {
                messages.push(row.messages);
                pairs.push(row.pairs);
                Ok(())
            })
            .expect("in-process units stream well-formed frames");
        (messages, pairs, timing)
    }

    /// Full in-process secure matvec against a client, rows garbled across
    /// the unit bank and evaluated on the host thread while later rows are
    /// still being garbled (trusted label delivery; production uses
    /// [`connect_multi`] + [`secure_matvec_multi`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` length mismatches the model.
    pub fn secure_matvec(&mut self, x: &[i64]) -> (Vec<i64>, MultiUnitTiming) {
        assert_eq!(x.len(), self.cols(), "vector length mismatch");
        let config = self.config.clone();
        let mut client = ScheduledEvaluator::new(&config);
        let mut result = Vec::with_capacity(self.weights.len());
        let timing = self
            .stream_rows(|row_idx, row| {
                client.begin_element(row_idx as u32);
                let mut decoded = None;
                for (msg, round_pairs) in
                    row.messages.iter().zip(row.pairs.chunks(config.bit_width))
                {
                    let bits = config.encode_x(x[msg.round as usize]);
                    let labels: Vec<Block> = round_pairs
                        .iter()
                        .zip(&bits)
                        .map(|(&(m0, m1), &bit)| if bit { m1 } else { m0 })
                        .collect();
                    decoded = client.evaluate_round(msg, &labels)?;
                }
                result.push(decoded.expect("final round decodes"));
                Ok(())
            })
            .expect("in-process units stream well-formed frames");
        (result, timing)
    }
}

/// Creates a connected multi-unit server / client pair, mirroring
/// [`crate::connect`]: same OT base phase, same seeds, so the resulting
/// transcript is byte-identical to the single-unit server's.
///
/// # Panics
///
/// Panics if `units` is zero or the matrix is ragged.
pub fn connect_multi(
    config: &AcceleratorConfig,
    weights: Vec<Vec<i64>>,
    units: usize,
    seed: u64,
) -> (MultiUnitServer, ClientSession) {
    let mut server = MultiUnitServer::new(config, weights, units, seed);
    let (ot_sender, ot_receiver) = iknp::setup_pair(seed ^ 0x0055_aaff);
    server.ot_sender = Some(ot_sender);
    (
        server,
        ClientSession {
            evaluator: ScheduledEvaluator::new(config),
            config: config.clone(),
            ot_receiver,
        },
    )
}

/// Runs a complete privacy-preserving `y = W·x` through the threaded
/// multi-unit pipeline with the client's `x` delivered via the full
/// OT-extension stack — the parallel counterpart of
/// [`crate::secure_matvec`], producing byte-identical results, OT
/// ciphertexts and transcript byte counts.
///
/// # Errors
///
/// Returns a typed [`AcceleratorError`] if a streamed frame is malformed
/// or a unit disconnects mid-protocol.
///
/// # Panics
///
/// Panics if `server` was not built via [`connect_multi`] or `x` length
/// mismatches the model.
pub fn secure_matvec_multi(
    server: &mut MultiUnitServer,
    client: &mut ClientSession,
    x: &[i64],
) -> Result<(Vec<i64>, MatvecTranscript, MultiUnitTiming), AcceleratorError> {
    assert_eq!(x.len(), server.cols(), "vector length mismatch");
    let mut ot_sender = server
        .ot_sender
        .take()
        .expect("server must be built via connect_multi");
    let choices = client.config.encode_choices(x);
    let mut transcript = MatvecTranscript::default();
    let mut result = Vec::with_capacity(server.rows());
    let timing = server.stream_rows(|row_idx, row| {
        result.push(client.receive_element(
            row_idx as u32,
            &choices,
            &row,
            &mut ot_sender,
            &mut transcript,
        )?);
        Ok(())
    });
    server.ot_sender = Some(ot_sender);
    let timing = timing?;

    transcript.elements = server.rows();
    transcript.fabric_cycles = timing.makespan_cycles;
    transcript.fabric_seconds = timing.makespan_cycles as f64 / (client.config.freq_mhz * 1e6);
    Ok((result, transcript, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{connect, secure_matvec};

    fn model(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 5 + c * 3) % 21) as i64 - 10)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn multi_unit_result_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = model(4, 3);
        let x = vec![7i64, -8, 9];
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        for units in [1usize, 2, 4] {
            let mut server = MultiUnitServer::new(&config, w.clone(), units, 99);
            let (got, timing) = server.secure_matvec(&x);
            assert_eq!(got, expected, "{units} units");
            assert_eq!(timing.units, units);
            assert!(timing.streamed_bytes > 0);
        }
    }

    #[test]
    fn parallel_makespan_shrinks_with_units() {
        let config = AcceleratorConfig::new(8);
        let w = model(8, 4);
        let x = vec![1i64, 2, 3, 4];
        let mut one = MultiUnitServer::new(&config, w.clone(), 1, 5);
        let mut four = MultiUnitServer::new(&config, w, 4, 5);
        let (_, t1) = one.secure_matvec(&x);
        let (_, t4) = four.secure_matvec(&x);
        assert!(
            t4.makespan_cycles * 3 < t1.makespan_cycles * 4,
            "4 units gave makespan {} vs {}",
            t4.makespan_cycles,
            t1.makespan_cycles
        );
        assert!(t4.speedup() > 2.5, "speedup {}", t4.speedup());
        assert!((t1.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn units_use_distinct_randomness() {
        let config = AcceleratorConfig::new(8);
        let mut server = MultiUnitServer::new(&config, model(2, 2), 2, 7);
        let (messages, _, _) = server.garble_matvec();
        // Rows on different units must not share tables even for identical
        // model values: each element has its own derived label stream.
        assert_ne!(messages[0][0].tables, messages[1][0].tables);
    }

    #[test]
    fn unit_count_does_not_change_garbled_bytes() {
        // The acceptance invariant at the message level: the exact same
        // RoundMessages (tables, labels, decode bits) come out no matter
        // how many threads garble them.
        let config = AcceleratorConfig::new(8);
        let w = model(5, 3);
        let mut one = MultiUnitServer::new(&config, w.clone(), 1, 42);
        let mut five = MultiUnitServer::new(&config, w, 5, 42);
        let (m1, p1, _) = one.garble_matvec();
        let (m5, p5, _) = five.garble_matvec();
        assert_eq!(m1, m5);
        assert_eq!(p1, p5);
    }

    #[test]
    fn full_protocol_transcript_matches_single_unit_server() {
        // N = 4 threads, full OT stack: outputs and every byte count must
        // equal the sequential CloudServer's.
        let config = AcceleratorConfig::new(8);
        let w = model(6, 4);
        let x = vec![3i64, -1, 0, 7];
        let (mut single, mut single_client) = connect(&config, w.clone(), 77);
        let (want, st) = secure_matvec(&mut single, &mut single_client, &x);

        let (mut multi, mut multi_client) = connect_multi(&config, w, 4, 77);
        let (got, mt, timing) = secure_matvec_multi(&mut multi, &mut multi_client, &x).unwrap();

        assert_eq!(got, want);
        assert_eq!(mt.elements, st.elements);
        assert_eq!(mt.rounds, st.rounds);
        assert_eq!(mt.tables, st.tables);
        assert_eq!(mt.material_bytes, st.material_bytes);
        assert_eq!(mt.ot_bytes, st.ot_bytes);
        assert_eq!(mt.ot_upload_bytes, st.ot_upload_bytes);
        assert_eq!(timing.units, 4);
        assert!(timing.measured_wall > Duration::ZERO);
        assert!(timing.measured_makespan > Duration::ZERO);
        assert!(timing.measured_busy_total >= timing.measured_makespan);
    }

    #[test]
    fn more_units_than_rows_is_fine() {
        let config = AcceleratorConfig::new(8);
        let w = model(2, 3);
        let x = vec![1i64, -2, 3];
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let mut server = MultiUnitServer::new(&config, w, 6, 11);
        let (got, timing) = server.secure_matvec(&x);
        assert_eq!(got, expected);
        assert_eq!(timing.units, 6);
    }

    #[test]
    fn empty_model_is_fine() {
        let config = AcceleratorConfig::new(8);
        let mut server = MultiUnitServer::new(&config, vec![], 3, 11);
        let (got, timing) = server.secure_matvec(&[]);
        assert!(got.is_empty());
        assert_eq!(timing.total_cycles, 0);
        assert_eq!(timing.streamed_bytes, 0);

        let (mut server, mut client) = connect_multi(&config, vec![], 2, 4);
        let (y, t, _) = secure_matvec_multi(&mut server, &mut client, &[]).unwrap();
        assert!(y.is_empty());
        assert_eq!(t.elements, 0);
    }
}
