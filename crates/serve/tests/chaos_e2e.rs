//! Chaos end-to-end tests: deterministic mid-job kills with RESUME
//! stitching, the self-healing client riding through cuts and lost
//! checkpoints, heartbeats, and a seeded fault soak over real TCP.
//!
//! The headline invariant: a job interrupted by a connection cut and
//! continued over RESUME produces a stitched wire transcript that is
//! **bit-identical** to an uninterrupted run — same frames, same bytes,
//! same order — once the first connection's frames are cut at the client's
//! rollback point, the start of the batch holding its last evaluated
//! element, which the second connection serves again.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use max_gc::channel::{open_frame, Duplex, FrameKind, TransportError};
use max_gc::{FaultSpec, FaultTransport, FramedTcp, Transport};
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, RecordingTransport,
};
use maxelerator::remote::ControlMsg;
use maxelerator::{AcceleratorError, RemoteClient, ResilientClient, RetryPolicy};

mod common;
use common::{demo_service, wait_until, WIDTH};

const ROWS: usize = 3;
const COLS: usize = 3;
const SEED: u64 = 0xC4A0;

/// Client-side frame events per streamed element: 1 CIPHER receive, 1
/// ROUNDS-burst receive (v3 coalesces all rounds into it). Each batch of
/// elements adds its one EXT send (v9).
const EVENTS_PER_ELEMENT: u64 = 2;
/// Handshake + job admission: HELLO send, ACCEPT recv, JOB send, READY recv.
const HANDSHAKE_EVENTS: u64 = 4;

/// Client-side frame events through element `e`'s ROUNDS receive in a job
/// whose batches hold `per_batch` elements: the handshake, one EXT per
/// batch begun, two receives per element.
fn events_through(e: u64, per_batch: u64) -> u64 {
    HANDSHAKE_EVENTS + (e / per_batch + 1) + (e + 1) * EVENTS_PER_ELEMENT
}

/// A deterministic cut that dies partway through element `element` of a
/// one-batch job: the client survives the handshake, the batch's EXT,
/// `element` full elements and the CIPHER of the next one, then loses the
/// connection on the ROUNDS receive.
fn cut_mid_element(element: u64) -> u64 {
    HANDSHAKE_EVENTS + 1 + element * EVENTS_PER_ELEMENT + 1
}

/// A session on `service` whose wire dies after `cut` frame events at
/// both ends (the server's event sequence mirrors the client's), so the
/// server cannot stream the rest of the job into a buffer the client
/// will never read; `wrap` dresses the client's end.
fn mirrored_cut<T: Transport>(
    service: &GcService,
    cut: u64,
    wrap: impl FnOnce(Duplex) -> T,
) -> FaultTransport<T> {
    let spec = FaultSpec::none(SEED).with_cut_after(cut);
    let (server_end, client_end) = Duplex::pair();
    service.serve_transport(FaultTransport::new(server_end, spec));
    FaultTransport::new(wrap(client_end), spec)
}

#[test]
fn killed_mid_job_resumes_bit_identical_to_uninterrupted_run() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();

    // Reference: the same job, uninterrupted, on a fresh service with the
    // same base seed (both runs are session 0, so every derived seed —
    // session, OT, job — is identical; resume tokens are deterministic
    // here too so the ACCEPT frames stay bit-comparable). Both runs pin
    // the same trace context: HELLO carries it on the wire, so minted
    // entropy would make the handshakes diverge byte-for-byte.
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x1D);
    let ref_service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    });
    let mut ref_client = RemoteClient::connect_with_trace(
        RecordingTransport::new(ref_service.connect()),
        WIDTH,
        trace,
    )
    .expect("reference handshake");
    let (ref_ys, _) = ref_client.secure_matmul(&xs).expect("reference job");
    assert_eq!(ref_ys, expected);
    let ref_rec = ref_client.goodbye();
    ref_service.shutdown();
    let ref_sent = ref_rec.sent_frames();
    let ref_recv = ref_rec.received_frames();
    // HELLO, JOB, the one batch's EXT, BYE / ACCEPT, READY, (CIPHER +
    // ROUNDS burst) per element, STATS.
    let elements = xs.len() * ROWS;
    assert_eq!(ref_sent.len(), 2 + 1 + 1);
    assert_eq!(ref_recv.len(), 2 + elements * 2 + 1);

    // Chaos run: the wire dies partway through element 2 of 6, at both
    // ends.
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    });
    let fault = mirrored_cut(&service, cut_mid_element(2), RecordingTransport::new);
    let mut client =
        RemoteClient::connect_with_trace(fault, WIDTH, trace).expect("chaos handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut must kill the run");
    assert_eq!(
        progress.elements_done(),
        2,
        "two elements completed before the cut"
    );
    let (dead, state) = client.into_parts();
    let rec1 = dead.into_inner();
    let conn1_sent = rec1.sent_frames().to_vec();
    let conn1_recv = rec1.received_frames().to_vec();
    // Release the dead connection so the server session observes the
    // disconnect and deposits its round checkpoint.
    drop(rec1);
    wait_until("checkpoint to be saved", || {
        service.stats().checkpoints_saved >= 1
    });
    assert_eq!(service.resume_checkpoints(), 1);

    // Reconnect, RESUME, and finish the job on a second connection.
    let mut client = RemoteClient::reattach(RecordingTransport::new(service.connect()), state);
    client.resume_job(&mut progress).expect("RESUME accepted");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, transcript) = progress.into_result();
    assert_eq!(ys, expected, "resumed job must be correct");
    assert_eq!(ys, ref_ys, "resumed job must match the uninterrupted run");
    assert_eq!(transcript.elements, elements);
    let rec2 = client.goodbye();
    let conn2_sent = rec2.sent_frames();
    let conn2_recv = rec2.received_frames();

    // Stitch the two connections' transcripts and compare bit-for-bit.
    // The client evaluated elements 0 and 1, both in the job's one batch,
    // so it resumes at that batch's start: the batch is served again.
    let rollback = 0;
    //
    // Down direction (server → client): conn1 carries ACCEPT, READY, and
    // the data of the two completed elements plus the CIPHER of the
    // partial one; up to the rollback point that is the reference, and
    // conn2 carries READY and everything from the rollback point on.
    assert_eq!(conn1_recv.len(), 2 + 2 * 2 + 1);
    assert_eq!(conn1_recv[..2 + 2 * 2], ref_recv[..2 + 2 * 2]);
    assert_eq!(conn2_recv[0], ref_recv[1], "resumed READY diverged");
    assert_eq!(
        &conn2_recv[1..],
        &ref_recv[2 + 2 * rollback..],
        "post-resume data (elements 0..6 + STATS) diverged"
    );

    // Up direction (client → server): HELLO, JOB and EXT on conn1 match;
    // conn2 replays the EXT bit-identically and carries the rest of the
    // reference's stream.
    assert_eq!(conn1_sent.len(), 2 + 1, "HELLO, JOB, EXT");
    for (i, frame) in conn1_sent.iter().enumerate() {
        assert_eq!(frame.1, ref_sent[i].1, "conn1 frame {i} diverged");
    }
    assert_eq!(
        conn2_sent[1].1, conn1_sent[2].1,
        "the rolled-back EXT must replay bit-identically"
    );
    for (i, frame) in conn2_sent[1..].iter().enumerate() {
        assert_eq!(frame.1, ref_sent[2 + i].1, "stitched frame {i} diverged");
    }

    let stats = service.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.checkpoints_saved, 1);
    assert_eq!(service.resume_checkpoints(), 0, "checkpoint cleaned up");
}

/// Every frame one dial carried, per direction.
#[derive(Clone, Debug, Default)]
struct Wire {
    sent: Vec<Bytes>,
    received: Vec<Bytes>,
}

/// The dial log a `ResilientClient`'s connect factory writes and the test
/// reads after the client has dropped the connections.
type Wires = Arc<Mutex<Vec<Wire>>>;

/// Logs every frame of one dial into its own slot of a [`Wires`] log and,
/// when armed, flips the low bit of the last byte of the `flip_received`-th
/// inbound frame (counted from ACCEPT = 0).
struct Tap<T> {
    inner: T,
    wires: Wires,
    dial: usize,
    flip_received: Option<usize>,
    received: usize,
}

impl<T> Tap<T> {
    fn new(inner: T, wires: &Wires, flip_received: Option<usize>) -> Tap<T> {
        let mut log = wires.lock().unwrap();
        log.push(Wire::default());
        Tap {
            inner,
            wires: Arc::clone(wires),
            dial: log.len() - 1,
            flip_received,
            received: 0,
        }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        self.wires.lock().unwrap()[self.dial]
            .sent
            .push(frame.clone());
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let mut frame = self.inner.recv_frame()?;
        if self.flip_received == Some(self.received) {
            let mut bytes = frame.to_vec();
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            frame = Bytes::from(bytes);
        }
        self.received += 1;
        self.wires.lock().unwrap()[self.dial]
            .received
            .push(frame.clone());
        Ok(frame)
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// The element boundary a logged RESUME frame asks for.
fn resume_boundary(frame: &Bytes) -> u32 {
    match ControlMsg::decode(open_frame(frame.clone()).unwrap()).unwrap() {
        ControlMsg::Resume { boundary, .. } => boundary,
        other => panic!("expected RESUME, got {other:?}"),
    }
}

/// The multi-batch model: an 8 × 8 matrix at b = 8 takes 64 OT transfers
/// per element, so one extension covers 64 elements and a ten-column job,
/// 80 elements, is two batches of 64 and 16.
const BATCH_DIM: usize = 8;
const BATCH_COLUMNS: usize = 10;
const PER_BATCH: u64 = 64;

/// The multi-batch job's client vectors and their plaintext products.
fn batch_job() -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let weights = demo_weights(BATCH_DIM, BATCH_DIM, WIDTH, SEED);
    let xs: Vec<Vec<i64>> = (0..BATCH_COLUMNS as u64)
        .map(|i| demo_vector(BATCH_DIM, WIDTH, SEED ^ (i + 1)))
        .collect();
    let expected = xs.iter().map(|x| plain_matvec(&weights, x)).collect();
    (xs, expected)
}

/// A service on the multi-batch model with reproducible ACCEPT frames.
fn batch_service() -> GcService {
    demo_service(BATCH_DIM, BATCH_DIM, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    })
}

/// One dial of the lookahead tests: faults outside, the frame log inside.
type TappedWire = FaultTransport<Tap<Duplex>>;

/// A `ResilientClient` whose first dial goes through `first` and whose
/// later dials wait for the first session to end the job — failed with its
/// checkpoint, or streamed to the end with its record kept for the client
/// — so the RESUME never races the dead session's bookkeeping. Every dial
/// is logged into `wires`.
fn lookahead_client(
    service: &GcService,
    wires: &Wires,
    trace: max_telemetry::TraceContext,
    first: impl Fn(&GcService, &Wires) -> TappedWire,
) -> ResilientClient<TappedWire, impl FnMut() -> Result<TappedWire, AcceleratorError>> {
    let svc = service.clone();
    let wires = Arc::clone(wires);
    let mut dials = 0u64;
    ResilientClient::new(
        move || {
            dials += 1;
            if dials == 1 {
                return Ok(first(&svc, &wires));
            }
            wait_until("the first session to end the job", || {
                let stats = svc.stats();
                stats.checkpoints_saved + stats.jobs_completed >= 1
            });
            Ok(FaultTransport::new(
                Tap::new(svc.connect(), &wires, None),
                FaultSpec::none(SEED),
            ))
        },
        WIDTH,
        RetryPolicy {
            base_backoff_ms: 1,
            ..RetryPolicy::default()
        },
    )
    .with_trace(trace)
}

/// The lookahead's own window: the client has received the last ROUNDS of
/// batch 0 and sent the EXT of batch 1, but not yet evaluated element 63,
/// when the wire dies. The client must still finish 63 (it holds its
/// ROUNDS), so its last evaluated element is in batch 0 and the resilient
/// client RESUMEs at that batch's start, two batches behind the server's
/// high-water mark (it answered EXT(1)), and the stitched transcript
/// equals the uninterrupted one frame by frame once batch 0 is taken from
/// the second connection. The cut severs both ends at the same frame
/// event, so the server cannot finish the job into a buffer the client
/// will never read. After the last element, which has no successor
/// batch, the cut lands on STATS and the client resumes batch 1.
#[test]
fn cut_right_after_the_lookahead_ext_resumes_bit_identical() {
    let (xs, expected) = batch_job();
    let elements = expected.len() as u64 * BATCH_DIM as u64;
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x1D);

    let ref_service = batch_service();
    let ref_wires = Wires::default();
    let mut ref_client = RemoteClient::connect_with_trace(
        Tap::new(ref_service.connect(), &ref_wires, None),
        WIDTH,
        trace,
    )
    .expect("reference handshake");
    let (ref_ys, _) = ref_client.secure_matmul(&xs).expect("reference job");
    assert_eq!(ref_ys, expected);
    ref_client.goodbye();
    ref_service.shutdown();
    let reference = ref_wires.lock().unwrap()[0].clone();
    // HELLO, JOB, one EXT per batch, BYE.
    assert_eq!(reference.sent.len(), 2 + 2 + 1);

    for e in [PER_BATCH - 1, elements - 1] {
        let service = batch_service();
        let wires = Wires::default();
        // Survive the handshake, elements 0..=e and the next batch's EXT;
        // die on its first CIPHER (or STATS after the last element).
        let cut = events_through(e, PER_BATCH) + u64::from(e + 1 < elements);
        let spec = FaultSpec::none(SEED).with_cut_after(cut);
        let mut client = lookahead_client(&service, &wires, trace, |svc, wires| {
            let (server_end, client_end) = Duplex::pair();
            svc.serve_transport(FaultTransport::new(server_end, spec));
            FaultTransport::new(Tap::new(client_end, wires, None), spec)
        });
        let (ys, _) = client.secure_matmul(&xs).expect("job survives the cut");
        assert_eq!(ys, expected, "e={e}: W·x");
        let stats = client.stats().clone();
        assert_eq!(
            (stats.resumes, stats.restarts),
            (1, 0),
            "e={e}: must RESUME"
        );
        client.goodbye();
        service.shutdown();

        let log = wires.lock().unwrap().clone();
        let [conn1, conn2] = &log[..] else {
            panic!("e={e}: expected two dials, got {}", log.len());
        };
        let rollback = e - e % PER_BATCH;
        assert_eq!(
            u64::from(resume_boundary(&conn2.sent[0])),
            rollback,
            "e={e}: RESUME must start at the last evaluated element's batch"
        );
        // Up: HELLO, JOB and the EXTs of the batches before the rollback
        // from conn1, then conn2's replay of every EXT conn1 sent from the
        // rollback on (bit-identical) onward.
        let kept = 2 + (rollback / PER_BATCH) as usize;
        assert_eq!(conn1.sent.len(), 2 + 2, "e={e}: EXT(1) left");
        let replayed = conn1.sent.len() - kept;
        assert_eq!(
            conn1.sent[kept..],
            conn2.sent[1..1 + replayed],
            "e={e}: EXT replay"
        );
        let up: Vec<&Bytes> = conn1.sent[..kept].iter().chain(&conn2.sent[1..]).collect();
        assert_eq!(up, reference.sent.iter().collect::<Vec<_>>(), "e={e}: up");
        // Down: ACCEPT, READY and the data of elements before the rollback
        // from conn1, then everything after conn2's READY.
        assert_eq!(conn1.received.len(), 2 + 2 * (e as usize + 1));
        assert_eq!(conn2.received[0], reference.received[1], "e={e}: READY");
        let down: Vec<&Bytes> = conn1.received[..2 + 2 * rollback as usize]
            .iter()
            .chain(&conn2.received[1..])
            .collect();
        assert_eq!(
            down,
            reference.received.iter().collect::<Vec<_>>(),
            "e={e}: down"
        );
    }
}

/// The next batch's EXT leaves only after the batch's last ROUNDS has
/// passed its CRC — the rule the resilient client's checksum healing
/// relies on: a corrupt ROUNDS(e) leaves the server's high-water mark at
/// the end of the batch holding `e` (or the next, when `e` opens one),
/// so the client's rollback point, the start of the batch holding its
/// last evaluated element e − 1 (0 for e = 0), is within reach.
#[test]
fn lookahead_ext_waits_for_the_rounds_crc() {
    let (xs, expected) = batch_job();
    let trace = max_telemetry::TraceContext::from_ids(0xC2C, 0x1D);
    // Both batch ends and both batch starts; after the last ROUNDS the
    // server sends STATS and finishes the job, so there is nothing to
    // resume.
    for e in [0, 1, PER_BATCH - 1, PER_BATCH, PER_BATCH + 1, 78] {
        // Inbound: ACCEPT, READY, then CIPHER + ROUNDS per element.
        let rounds = 3 + 2 * e as usize;

        let service = batch_service();
        let wires = Wires::default();
        let mut client =
            RemoteClient::connect(Tap::new(service.connect(), &wires, Some(rounds)), WIDTH)
                .expect("handshake");
        let mut progress = client.start_job(&xs).expect("job admitted");
        let err = client.run_job(&mut progress).expect_err("flipped ROUNDS");
        assert!(
            matches!(
                err,
                AcceleratorError::Transport(TransportError::Checksum { .. })
            ),
            "e={e}: {err:?}"
        );
        assert_eq!(progress.elements_done() as u64, e);
        assert_eq!(
            client.transport().inner.sent().messages(),
            2 + e / PER_BATCH + 1,
            "e={e}: HELLO, JOB and the EXT of every batch through e's only"
        );
        drop(client);
        service.shutdown();

        let service = batch_service();
        let wires = Wires::default();
        let mut client = lookahead_client(&service, &wires, trace, |svc, wires| {
            mirrored_cut(svc, u64::MAX, |wire| Tap::new(wire, wires, Some(rounds)))
        });
        let (ys, _) = client.secure_matmul(&xs).expect("checksum heals");
        assert_eq!(ys, expected, "e={e}: W·x");
        let stats = client.stats().clone();
        assert_eq!(
            (stats.resumes, stats.restarts, stats.integrity_detected),
            (1, 0, 1),
            "e={e}: heal by RESUME"
        );
        client.goodbye();
        service.shutdown();
        let log = wires.lock().unwrap();
        let last_evaluated = e.saturating_sub(1);
        assert_eq!(
            u64::from(resume_boundary(&log[1].sent[0])),
            last_evaluated - last_evaluated % PER_BATCH,
            "e={e}"
        );
    }
}

/// A multi-batch job, end to end: its transcript is bit-identical over
/// `Duplex` and TCP; a RESUME at the second batch start stitches
/// bit-identically with the uninterrupted run; and a RESUME at a boundary
/// that is no batch start gets `REJECT(resume)` and leaves the checkpoint
/// to the honest one.
#[test]
fn a_two_batch_job_is_one_transcript_on_any_transport_and_resumes_at_a_batch_start() {
    let (xs, expected) = batch_job();
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x2B);
    let run = |transport: Box<dyn Transport>| {
        let mut client =
            RemoteClient::connect_with_trace(RecordingTransport::new(transport), WIDTH, trace)
                .expect("handshake");
        let (ys, _) = client.secure_matmul(&xs).expect("job");
        assert_eq!(ys, expected);
        let rec = client.goodbye();
        let sent: Vec<Bytes> = rec.sent_frames().iter().map(|(_, f)| f.clone()).collect();
        (sent, rec.received_frames().to_vec())
    };
    let service = batch_service();
    let duplex = run(Box::new(service.connect()));
    service.shutdown();
    let handle = listen_tcp(batch_service(), "127.0.0.1:0").expect("bind");
    let tcp = run(Box::new(
        FramedTcp::connect(handle.addr()).expect("connect"),
    ));
    handle.shutdown();
    assert_eq!(
        tcp, duplex,
        "the transcript does not depend on the transport"
    );
    let (ref_sent, ref_recv) = duplex;
    // HELLO, JOB, EXT(0), EXT(1), BYE / ACCEPT, READY, 80 × (CIPHER,
    // ROUNDS), STATS.
    assert_eq!((ref_sent.len(), ref_recv.len()), (5, 2 + 2 * 80 + 1));

    // Cut both ends mid element 70: the client evaluated 0..70, so its
    // rollback point is batch 1's start.
    let service = batch_service();
    let fault = mirrored_cut(
        &service,
        events_through(69, PER_BATCH) + 1,
        RecordingTransport::new,
    );
    let mut client = RemoteClient::connect_with_trace(fault, WIDTH, trace).expect("handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client.run_job(&mut progress).expect_err("the cut");
    assert_eq!(progress.elements_done(), 70);
    let (dead, state) = client.into_parts();
    let rec1 = dead.into_inner();
    let (conn1_sent, conn1_recv) = (rec1.sent_frames().to_vec(), rec1.received_frames().to_vec());
    drop(rec1);
    wait_until("checkpoint to be saved", || {
        service.stats().checkpoints_saved >= 1
    });

    // A RESUME that names no batch start is refused, whatever its digest.
    let ControlMsg::Accept {
        session_id,
        resume_token,
        ..
    } = ControlMsg::decode(open_frame(conn1_recv[0].clone()).unwrap()).unwrap()
    else {
        panic!("expected ACCEPT");
    };
    for boundary in [65, 70, 1] {
        let mut wire = service.connect();
        let resume = ControlMsg::Resume {
            session_id,
            resume_token,
            job_id: progress.job_id(),
            columns: BATCH_COLUMNS as u32,
            boundary,
            digest: ([0; 16], 0),
            trace,
        };
        maxelerator::remote::send_control(&mut wire, &resume).unwrap();
        assert_eq!(
            maxelerator::remote::recv_control(&mut wire).unwrap(),
            ControlMsg::Reject {
                code: maxelerator::remote::REJECT_RESUME,
                detail: 0
            },
            "boundary {boundary}"
        );
    }

    // The honest RESUME, at batch 1's start, stitches bit-identically.
    let mut client = RemoteClient::reattach(RecordingTransport::new(service.connect()), state);
    client.resume_job(&mut progress).expect("RESUME accepted");
    assert_eq!(progress.elements_done() as u64, PER_BATCH);
    client.run_job(&mut progress).expect("resumed run");
    let (ys, _) = progress.into_result();
    assert_eq!(ys, expected);
    let rec2 = client.goodbye();
    let conn2_sent: Vec<&Bytes> = rec2.sent_frames().iter().map(|(_, f)| f).collect();
    let conn2_recv = rec2.received_frames();
    assert_eq!(resume_boundary(conn2_sent[0]), PER_BATCH as u32);
    // Up: HELLO, JOB, EXT(0) from conn1; conn2 replays EXT(1) and says BYE.
    assert_eq!(conn1_sent.len(), 4);
    let up: Vec<&Bytes> = conn1_sent[..3]
        .iter()
        .map(|(_, f)| f)
        .chain(conn2_sent[1..].iter().copied())
        .collect();
    assert_eq!(up, ref_sent.iter().collect::<Vec<_>>(), "up");
    // Down: ACCEPT, READY and batch 0 from conn1, then conn2 from batch 1.
    let kept = 2 + 2 * PER_BATCH as usize;
    assert_eq!(conn1_recv[..kept], ref_recv[..kept]);
    assert_eq!(conn2_recv[0], ref_recv[1], "READY");
    assert_eq!(conn2_recv[1..], ref_recv[kept..], "down");
    let stats = service.shutdown();
    assert_eq!((stats.jobs_resumed, stats.jobs_completed), (1, 1));
}

/// Regression: a cut between the last element's data and STATS leaves
/// `elements_done == total_elements` on the client while the server's
/// high-water mark stands at the final boundary. The client resumes at the
/// last element, and the server must derive its sender there from the
/// job's record — a sender left at the end while the client's receiver
/// rolls back one element would silently desync every later job on the
/// session.
#[test]
fn killed_before_stats_resumes_and_keeps_session_ot_synced() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();
    let elements = (xs.len() * ROWS) as u64;

    // Fault the *server's* transport: its event sequence mirrors the
    // client's (recv HELLO, send ACCEPT, recv JOB, send READY, recv EXT,
    // then CIPHER/ROUNDS per element), so after the handshake plus every
    // element's data the next event — the STATS send — hits the cut. The
    // failed send makes the server checkpoint at the final boundary while
    // the client, which already has all its data, errors waiting on STATS.
    let service = demo_service(ROWS, COLS, SEED, |_| {});
    let (server_end, client_end) = Duplex::pair();
    service.serve_transport(FaultTransport::new(
        server_end,
        FaultSpec::none(SEED).with_cut_after(events_through(elements - 1, elements)),
    ));
    let mut client = RemoteClient::connect(client_end, WIDTH).expect("handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut must kill the STATS wait");
    assert_eq!(
        progress.elements_done(),
        elements as usize,
        "every element completed before the cut"
    );
    let (dead, state) = client.into_parts();
    drop(dead);
    wait_until("checkpoint to be saved", || {
        service.stats().checkpoints_saved >= 1
    });

    // Reconnect and resume: the client evaluated the job's one batch, so
    // it rolls back to the batch's start and the batch is served again.
    let mut client = RemoteClient::reattach(service.connect(), state);
    client.resume_job(&mut progress).expect("RESUME accepted");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, transcript) = progress.into_result();
    assert_eq!(ys, expected, "resumed job must be correct");
    assert_eq!(transcript.elements, elements as usize);

    // The actual regression check: a follow-up job on the same session
    // only decodes correctly if both sides' OT state stayed aligned
    // through the resume.
    let x2 = demo_vector(COLS, WIDTH, SEED ^ 3);
    let (y2, _) = client.secure_matvec(&x2).expect("follow-up job");
    assert_eq!(
        y2,
        plain_matvec(&weights, &x2),
        "post-resume session must stay OT-synced"
    );
    client.goodbye();

    let stats = service.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.checkpoints_saved, 1);
}

#[test]
fn resilient_client_rides_through_a_mid_job_cut() {
    let service = demo_service(ROWS, COLS, SEED, |_| {});
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x = demo_vector(COLS, WIDTH, SEED ^ 9);

    let svc = service.clone();
    let mut dials = 0u64;
    let mut client = ResilientClient::new(
        move || {
            dials += 1;
            // First connection dies partway through element 1 of 3.
            let cut = if dials == 1 {
                cut_mid_element(1)
            } else {
                u64::MAX
            };
            Ok(mirrored_cut(&svc, cut, |wire| wire))
        },
        WIDTH,
        RetryPolicy {
            // Generous first backoff: the server must notice the dead
            // connection and checkpoint before the RESUME arrives.
            base_backoff_ms: 80,
            ..RetryPolicy::default()
        },
    );
    let (y, _) = client.secure_matvec(&x).expect("job survives the cut");
    assert_eq!(y, plain_matvec(&weights, &x));
    let stats = client.stats().clone();
    assert_eq!(stats.resumes, 1, "recovery must go through RESUME");
    assert_eq!(stats.restarts, 0);
    assert_eq!(
        stats.reconnects, 1,
        "initial dial only; recovery reattached"
    );
    client.goodbye();

    let stats = service.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn lost_checkpoint_falls_back_to_a_fresh_restart() {
    // Resumption disabled server-side: the checkpoint is never kept, so
    // RESUME gets a typed REJECT and the client restarts from scratch.
    let service = demo_service(ROWS, COLS, SEED, |cfg| cfg.resume_capacity = 0);
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x = demo_vector(COLS, WIDTH, SEED ^ 3);

    let svc = service.clone();
    let mut dials = 0u64;
    let mut client = ResilientClient::new(
        move || {
            dials += 1;
            let cut = if dials == 1 {
                cut_mid_element(1)
            } else {
                u64::MAX
            };
            Ok(mirrored_cut(&svc, cut, |wire| wire))
        },
        WIDTH,
        RetryPolicy {
            base_backoff_ms: 40,
            ..RetryPolicy::default()
        },
    );
    let (y, _) = client.secure_matvec(&x).expect("restart still delivers");
    assert_eq!(y, plain_matvec(&weights, &x));
    let stats = client.stats().clone();
    assert_eq!(stats.resumes, 0, "no checkpoint to resume from");
    assert_eq!(stats.restarts, 1, "job restarted from scratch");
    client.goodbye();

    let stats = service.shutdown();
    assert_eq!(stats.jobs_resumed, 0);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn heartbeats_keep_a_quiet_session_alive_past_the_idle_deadline() {
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.idle_timeout = Some(Duration::from_millis(150));
    });
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let tcp = FramedTcp::connect(handle.addr()).expect("connect");
    let mut client = RemoteClient::connect(tcp, WIDTH).expect("handshake");
    // Stay quiet for 2.4x the idle deadline, but heartbeat through it.
    for nonce in 0..6u64 {
        std::thread::sleep(Duration::from_millis(60));
        client.ping(nonce).expect("PONG");
    }
    let x = demo_vector(COLS, WIDTH, SEED ^ 6);
    let (y, _) = client.secure_matvec(&x).expect("session still alive");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_errored, 0);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn seeded_soak_over_tcp_under_sustained_faults() {
    // Four concurrent sessions over real TCP, each behind a lossy wire:
    // dropped, truncated, and bit-flipped client frames at fixed seeded
    // rates. Drops and truncations surface as timeouts/disconnects and are
    // healed transparently (reconnect + RESUME/restart). Since v6 every
    // frame is CRC-sealed and the transcript is digest-checked, so a bit
    // flip is *detected* at the framing or integrity layer and healed the
    // same way — it must never reach GC state and decode to wrong
    // plaintext. The soak still verifies every result against plaintext
    // end-to-end and asserts that safety net is never needed.
    const SESSIONS: u64 = 4;
    const JOBS: u64 = 3;
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.workers = 2;
        cfg.idle_timeout = Some(Duration::from_secs(5));
        // Shorter than the clients' step deadline, so a checkpoint exists
        // by the time the reconnect's RESUME arrives.
        cfg.step_timeout = Some(Duration::from_millis(100));
    });
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let recoveries = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for s in 0..SESSIONS {
            let weights = &weights;
            threads.push(scope.spawn(move || {
                let mut dials = 0u64;
                let mut client = ResilientClient::new(
                    move || {
                        dials += 1;
                        // Fresh deterministic schedule per connection.
                        let spec = FaultSpec::none(SEED ^ (s << 32) ^ dials)
                            .with_drops(15)
                            .with_truncation(10)
                            .with_corruption(10)
                            .with_delays(20, 3);
                        Ok(FaultTransport::new(
                            FramedTcp::connect(addr).map_err(AcceleratorError::from)?,
                            spec,
                        ))
                    },
                    WIDTH,
                    RetryPolicy {
                        max_attempts: 25,
                        base_backoff_ms: 10,
                        max_backoff_ms: 200,
                        step_timeout: Some(Duration::from_millis(400)),
                        jitter_seed: SEED ^ s,
                        integrity_retries: 8,
                    },
                );
                let mut wrong_results = 0u64;
                for job in 0..JOBS {
                    let x = demo_vector(COLS, WIDTH, SEED ^ (s << 16) ^ job);
                    let expected = plain_matvec(weights, &x);
                    let mut verified = false;
                    for _try in 0..5 {
                        let (y, _) = client
                            .secure_matvec(&x)
                            .unwrap_or_else(|e| panic!("session {s} job {job}: {e}"));
                        if y == expected {
                            verified = true;
                            break;
                        }
                        // Should be unreachable since v6: flips die at the
                        // CRC seal or the transcript digest, not here.
                        wrong_results += 1;
                    }
                    assert!(verified, "session {s} job {job} never verified");
                }
                let stats = client.stats().clone();
                client.goodbye();
                (stats, wrong_results)
            }));
        }
        let mut total = (0u64, 0u64, 0u64, 0u64);
        for t in threads {
            let (stats, wrong) = t.join().expect("soak session panicked");
            total.0 += stats.resumes;
            total.1 += stats.restarts;
            total.2 += stats.reconnects.saturating_sub(1);
            total.3 += wrong;
        }
        total
    });

    // The service survived the whole storm: a clean session still works.
    let tcp = FramedTcp::connect(addr).expect("connect");
    let mut client = RemoteClient::connect(tcp, WIDTH).expect("post-soak handshake");
    let x = demo_vector(COLS, WIDTH, SEED ^ 0xFF);
    let (y, _) = client.secure_matvec(&x).expect("post-soak job");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();

    let stats = handle.shutdown();
    assert!(
        stats.jobs_completed >= SESSIONS * JOBS,
        "all soak jobs (plus retries) completed: {stats:?}"
    );
    // The headline integrity invariant: with every frame sealed and the
    // transcript digest-checked, no corrupted job may ever decode to
    // silently wrong plaintext — corruption is detected and retried, so
    // the end-to-end plaintext check must never fire.
    assert_eq!(
        recoveries.3, 0,
        "corruption slipped past the integrity ladder and produced wrong plaintext"
    );
    // The chosen seeds do inject faults that force recovery; if this ever
    // fails the schedule went soft and the rates should be raised.
    assert!(
        recoveries.0 + recoveries.1 + recoveries.2 > 0,
        "soak exercised no recovery path at all: {recoveries:?}"
    );
}
