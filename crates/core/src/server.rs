//! The Figure-1 system: a cloud server (garbler, with the accelerator and
//! the model matrix) serving a client (evaluator, with the input vector),
//! in one process: a served session over an in-memory [`Duplex`], with the
//! handshake, frames and streamer ([`stream_materialized_job_from`]) that
//! `max-serve` runs over TCP.
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
//! job seed and the element id alone
//! ([`Maxelerator::begin_element`](crate::Maxelerator::begin_element)), so
//! the unit count changes no byte the client sees.

use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::mpsc;

use max_crypto::TranscriptDigest;
use max_gc::channel::Duplex;
use max_gc::Transport;
use max_ot::iknp::OtExtSender;
use max_telemetry::TraceContext;

use crate::accelerator::AcceleratorReport;
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::remote::{
    accept_hello, derive_job_seed, derive_seed, deterministic_resume_token, garble_unit,
    materialize_element, recv_control, send_control, stream_materialized_job_from, ControlMsg,
    JobPiece, JobSource, RemoteClient,
};

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

/// The cloud server: MAC units + model matrix + the session's OT sender.
pub struct CloudServer {
    config: AcceleratorConfig,
    /// Model matrix, row-major.
    weights: Vec<Vec<i64>>,
    units: usize,
    /// The seed of session 0 of the server's seed, the only session.
    session_seed: u64,
    /// The OT sender and the client's trace, from HELLO on.
    session: Option<(OtExtSender, TraceContext)>,
    next_job: u64,
    /// Unit 0's report for the last job.
    report: AcceleratorReport,
    /// The server end of the session, taken by each exchange's server
    /// thread and dropped by a failed one, so the client sees a disconnect
    /// instead of waiting. The crate's tests bring their own transport.
    transport: Option<Duplex>,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("units", &self.units)
            .field("rows", &self.weights.len())
            .finish_non_exhaustive()
    }
}

/// The client: a served session's evaluator over the in-memory transport.
pub type ClientSession = RemoteClient<Duplex>;

/// Creates a connected server/client pair with one MAC unit: session 0 of
/// `seed`, handshaken over an in-memory [`Duplex`] (HELLO under
/// [`TraceContext::none`], then ACCEPT, whose `ot_seed` deals the base OT).
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
    let (server_end, client_end) = Duplex::pair();
    let mut server = CloudServer {
        transport: Some(server_end),
        ..CloudServer::new(config, weights, seed)
    };
    let client = server.exchange(|| {
        RemoteClient::connect_with_trace(client_end, config.bit_width, TraceContext::none())
    });
    let client = client.expect("the in-process client accepts its server's ACCEPT");
    (server, client)
}

impl CloudServer {
    /// A server on one unit for session 0 of `seed`, waiting for HELLO.
    pub(crate) fn new(config: &AcceleratorConfig, weights: Vec<Vec<i64>>, seed: u64) -> Self {
        CloudServer {
            config: config.clone(),
            weights,
            units: 1,
            session_seed: derive_seed(seed, 0),
            session: None,
            next_job: 0,
            report: AcceleratorReport::default(),
            transport: None,
        }
    }

    /// The in-process server's loop: answers the client's frames until
    /// HELLO has been accepted or one JOB has streamed (`true`), or the
    /// session ends with a REJECT, BYE or a disconnect (`false`).
    pub(crate) fn serve_next<T: Transport>(
        &mut self,
        transport: &mut T,
    ) -> Result<bool, AcceleratorError> {
        loop {
            match recv_control(transport) {
                Ok(hello @ ControlMsg::Hello { trace, .. }) if self.session.is_none() => {
                    let token = deterministic_resume_token(self.session_seed);
                    let (config, weights) = (&self.config, &self.weights);
                    let accepted = accept_hello(
                        transport,
                        &hello,
                        config,
                        weights,
                        0,
                        self.session_seed,
                        token,
                    )?;
                    self.session = accepted.map(|ot_sender| (ot_sender, trace));
                    return Ok(self.session.is_some());
                }
                Ok(ControlMsg::JobRequest {
                    columns,
                    model_id: None,
                }) => {
                    self.serve_job(transport, columns)?;
                    return Ok(true);
                }
                Ok(ControlMsg::Ping { nonce }) => {
                    send_control(transport, &ControlMsg::Pong { nonce })?;
                }
                Ok(ControlMsg::Bye) | Err(AcceleratorError::Disconnected) => return Ok(false),
                Ok(_) => {
                    return Err(AcceleratorError::Protocol {
                        what: "expected HELLO, then JOB, PING or BYE",
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Streams job `next_job` while the units garble it: a producer thread
    /// hands the elements over in order, then the busiest unit's cycles,
    /// which STATS carries.
    fn serve_job<T: Transport>(
        &mut self,
        transport: &mut T,
        columns: u32,
    ) -> Result<(), AcceleratorError> {
        let Some((ot_sender, trace)) = &mut self.session else {
            return Err(AcceleratorError::Protocol {
                what: "JOB before HELLO",
            });
        };
        let seed = derive_job_seed(self.session_seed, self.next_job);
        let (config, weights, units) = (&self.config, &self.weights, self.units);
        let (pieces, source) = mpsc::channel();
        let source = JobSource::Garbling(source);
        let (streamed, produced) = std::thread::scope(|scope| {
            let producer = scope
                .spawn(move || produce_on_units(config, weights, seed, columns, units, pieces));
            let streamed = stream_materialized_job_from(
                transport,
                &source,
                ot_sender,
                &mut TranscriptDigest::new(),
                self.next_job,
                *trace,
                0,
                |_| {},
            );
            // A failed stream stops the units at their next element.
            drop(source);
            (streamed, producer.join())
        });
        self.report = produced.unwrap_or_else(|panic| resume_unwind(panic));
        streamed?;
        self.next_job += 1;
        Ok(())
    }

    /// Runs `client` on this thread against one [`serve_next`] on a
    /// scoped server thread.
    ///
    /// [`serve_next`]: CloudServer::serve_next
    fn exchange<R>(&mut self, client: impl FnOnce() -> R) -> R {
        let mut transport = self
            .transport
            .take()
            .expect("the session died with an earlier exchange");
        let (served, result) = std::thread::scope(|scope| {
            let served = scope.spawn(|| self.serve_next(&mut transport).map(|_| transport));
            let result = client();
            (served.join(), result)
        });
        let served = served.unwrap_or_else(|panic| resume_unwind(panic));
        self.transport = Some(served.expect("the in-process server answers its client"));
        result
    }

    /// Garbles on `n` MAC units instead of one (§6). Results, transcript
    /// bytes and garbled material are the same for every `n`; only
    /// [`MatvecTranscript::fabric_cycles`], the busiest unit's, shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_units(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one unit");
        self.units = n;
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

    /// Unit 0's activity report for the last query — the only unit unless
    /// [`CloudServer::with_units`] was called.
    pub fn accelerator_report(&self) -> &AcceleratorReport {
        &self.report
    }
}

/// The n-unit producer: unit `u` of `units` garbles elements
/// `u, u + units, …` of a job at `seed` ([`garble_unit`]) on its own thread,
/// and the elements go down `pieces` in element order, rendered to their
/// wire form — [`fill_stream`](crate::remote::fill_stream)'s elements for
/// any unit count, none for an empty model — then the busiest unit's
/// fabric cycles (the units run in parallel). Returns unit 0's report. A
/// hand-off dropped mid-job stops every unit at its next element; a unit's
/// panic is rethrown here.
pub(crate) fn produce_on_units(
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    seed: u64,
    columns: u32,
    units: usize,
    pieces: mpsc::Sender<JobPiece>,
) -> AcceleratorReport {
    let total = weights.len() * columns as usize;
    std::thread::scope(|scope| {
        let (feeds, garblers): (Vec<_>, Vec<_>) = (0..units.min(total))
            .map(|u| {
                let (tx, feed) = mpsc::channel();
                let garbler = scope.spawn(move || {
                    let unit = garble_unit(config, weights, seed, columns, u, units, |row| {
                        let sent = tx.send(materialize_element(&row.messages, row.pairs));
                        sent.map_or(ControlFlow::Break(()), ControlFlow::Continue)
                    });
                    unit.report().clone()
                });
                (feed, garbler)
            })
            .unzip();
        // A unit's elements ascend, so its feed's next element is the next
        // one it owns. A closed feed means the unit panicked; the join
        // rethrows.
        for e in 0..total {
            let Ok(elem) = feeds[e % units].recv() else {
                break;
            };
            if pieces.send(JobPiece::Element(elem)).is_err() {
                break;
            }
        }
        drop(feeds);
        let reports: Vec<AcceleratorReport> = garblers
            .into_iter()
            .map(|garbler| garbler.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect();
        let cycles = reports.iter().map(|report| report.cycles).max();
        let _ = pieces.send(JobPiece::Done(cycles.unwrap_or(0)));
        reports.into_iter().next().unwrap_or_default()
    })
}

/// Runs a complete privacy-preserving matrix-vector product `y = W·x`
/// between `server` and `client`, with the client's `x` delivered through
/// the full OT-extension stack: one served JOB, against the server on a
/// scoped thread. Query `q` of a session is job `q`, garbled at
/// [`derive_job_seed`]`(session_seed, q)`, so no query reuses another's
/// labels.
///
/// Returns the decoded result (revealed to the client, per the protocol)
/// and the transcript accounting.
///
/// # Panics
///
/// Panics if `x` length differs from the server's column count or values
/// do not fit the configured bit-width.
pub fn secure_matvec(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x: &[i64],
) -> (Vec<i64>, MatvecTranscript) {
    assert_eq!(x.len(), server.cols(), "vector length mismatch");
    // Caller errors panic here, before the server thread starts: a client
    // panicking mid-job would leave that thread waiting for its next frame.
    client.config().encode_choices(x);
    let queried = server.exchange(|| client.secure_matvec(x));
    queried.expect("the in-process client evaluates the job")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{decode_round_burst, fill_stream};
    use max_gc::channel::open_frame;
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
        // (fresh labels per query are `units_produce_the_filled_stream`).
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, 3]];
        let (mut server, mut client) = connect(&config, w, 17);
        let (y1, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        let (y2, _) = secure_matvec(&mut server, &mut client, &[-1, 1]);
        assert_eq!(y1, vec![80]);
        assert_eq!(y2, vec![1]);
    }

    #[test]
    fn units_produce_the_filled_stream() {
        // The n-unit producer yields, element for element, what
        // `fill_stream` yields at the same job seed, on any unit count
        // (three units for two rows leaves one idle); two queries' jobs
        // never repeat a garbled table or an OT pair.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![3i64, -4, 5], vec![-6, 7, 8]];
        let session_seed = derive_seed(41, 0);
        for units in 1..=3 {
            let mut tables = HashSet::new();
            let mut pairs = HashSet::new();
            for q in 0..2 {
                let seed = derive_job_seed(session_seed, q);
                let filled = fill_stream(&config, &w, seed, 1);
                let (pieces, handoff) = mpsc::channel();
                let report = produce_on_units(&config, &w, seed, 1, units, pieces);
                let (mut produced, mut cycles) = (Vec::new(), Vec::new());
                for piece in handoff {
                    match piece {
                        JobPiece::Element(elem) => produced.push(elem),
                        JobPiece::Done(done) => cycles.push(done),
                    }
                }
                assert_eq!(produced, filled.elements, "{units} units, query {q}");
                let per_element = filled.fabric_cycles / w.len() as u64;
                let busiest = per_element * w.len().div_ceil(units) as u64;
                assert_eq!(cycles, [busiest], "{units} units, query {q}");
                let cycles = busiest;
                assert_eq!(report.cycles, cycles, "unit 0 is a busiest unit");
                for (r, elem) in produced.iter().enumerate() {
                    let payload = open_frame(elem.sealed_rounds.clone()).unwrap();
                    for msg in decode_round_burst(payload, w[r].len()).unwrap() {
                        for table in &msg.tables {
                            assert!(
                                tables.insert(table.to_bytes()),
                                "{units} units, query {q}, row {r}: a garbled table repeats"
                            );
                        }
                    }
                    for pair in &elem.pairs {
                        assert!(
                            pairs.insert(*pair),
                            "{units} units, query {q}, row {r}: an OT pair repeats"
                        );
                    }
                }
            }
            let (pieces, handoff) = mpsc::channel();
            let report = produce_on_units(&config, &[], 7, 1, units, pieces);
            let pieces: Vec<_> = handoff.into_iter().collect();
            assert!(matches!(pieces[..], [JobPiece::Done(0)]), "no element");
            assert_eq!(report, AcceleratorReport::default());
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
    #[should_panic(expected = "200 does not fit in 8 signed bits")]
    fn a_garbling_panic_reaches_the_caller() {
        // A unit panics on a weight the width cannot encode; the server
        // thread's end goes down with it, so the client stops waiting and
        // the unit's own panic surfaces here.
        let config = AcceleratorConfig::new(8);
        let (server, mut client) = connect(&config, vec![vec![1], vec![200]], 1);
        let mut server = server.with_units(2);
        secure_matvec(&mut server, &mut client, &[1]);
    }

    #[test]
    #[should_panic(expected = "ragged model matrix")]
    fn ragged_matrix_rejected() {
        let config = AcceleratorConfig::new(8);
        connect(&config, vec![vec![1, 2], vec![3]], 1);
    }
}
