//! End-to-end service tests: transcript parity between transports,
//! concurrent TCP sessions, typed backpressure, hostile peers, drain,
//! and idle reaping.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use max_gc::{FramedTcp, Transport};
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, RecordingTransport, ServeConfig,
};
use maxelerator::remote::{
    recv_control, send_control, ControlMsg, PROTOCOL_VERSION, REJECT_VERSION,
};
use maxelerator::{AcceleratorConfig, AcceleratorError, RemoteClient};

const WIDTH: usize = 8;
const ROWS: usize = 3;
const COLS: usize = 4;
const SEED: u64 = 0xD05E;

fn demo_service(mutate: impl FnOnce(&mut ServeConfig)) -> GcService {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, SEED);
    mutate(&mut cfg);
    GcService::start(cfg)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs the same two jobs through a recording client and returns the full
/// wire transcript (sent frames with kinds, received frames).
///
/// The trace context is pinned: `connect` mints fresh OS entropy into the
/// HELLO frame, which would (correctly) diverge the transcripts this file
/// compares byte-for-byte.
fn run_recorded_session<T: Transport>(transport: T) -> (RecordingTransport<T>, Vec<Vec<i64>>) {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut client = RemoteClient::connect_with_trace(
        RecordingTransport::new(transport),
        WIDTH,
        max_telemetry::TraceContext::from_ids(0xE2E, 7),
    )
    .expect("handshake");
    let mut results = Vec::new();
    for job in 0..2u64 {
        let x = demo_vector(COLS, WIDTH, SEED ^ job);
        let (y, _) = client.secure_matvec(&x).expect("matvec");
        assert_eq!(y, plain_matvec(&weights, &x));
        results.push(y);
    }
    (client.goodbye(), results)
}

#[test]
fn tcp_and_duplex_transcripts_are_bit_identical() {
    // Two fresh services, same seed: each serves exactly one session, so
    // both sessions get id 0 and thus identical derived seeds.
    // Deterministic resume tokens keep the ACCEPT frames comparable
    // (production tokens are fresh OS entropy per session).
    let duplex_service = demo_service(|cfg| cfg.deterministic_resume_tokens = true);
    let (duplex_rec, duplex_results) = run_recorded_session(duplex_service.connect());
    duplex_service.shutdown();

    let tcp_service = demo_service(|cfg| cfg.deterministic_resume_tokens = true);
    let handle = listen_tcp(tcp_service, "127.0.0.1:0").expect("bind");
    let tcp = FramedTcp::connect(handle.addr()).expect("connect");
    let (tcp_rec, tcp_results) = run_recorded_session(tcp);
    handle.shutdown();

    assert_eq!(duplex_results, tcp_results);
    // Same frames, same kinds, same bytes, same order — in both directions.
    assert_eq!(duplex_rec.sent_frames().len(), tcp_rec.sent_frames().len());
    for (d, t) in duplex_rec.sent_frames().iter().zip(tcp_rec.sent_frames()) {
        assert_eq!(d.0, t.0, "sent frame kind diverged");
        assert_eq!(d.1, t.1, "sent frame bytes diverged");
    }
    assert_eq!(
        duplex_rec.received_frames(),
        tcp_rec.received_frames(),
        "received transcript diverged between Duplex and TCP"
    );
    assert!(
        duplex_rec.received_frames().len() >= 2 * (1 + COLS),
        "transcript suspiciously short"
    );
}

#[test]
fn four_concurrent_tcp_sessions_all_correct() {
    let service = demo_service(|cfg| {
        cfg.workers = 2;
    });
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    std::thread::scope(|scope| {
        for s in 0..4u64 {
            let weights = &weights;
            scope.spawn(move || {
                let tcp = FramedTcp::connect(addr).expect("connect");
                let mut client = RemoteClient::connect(tcp, WIDTH).expect("handshake");
                // One matvec and one 2-column matmul per session.
                let x = demo_vector(COLS, WIDTH, SEED ^ (s << 8));
                loop {
                    match client.secure_matvec(&x) {
                        Ok((y, _)) => {
                            assert_eq!(y, plain_matvec(weights, &x));
                            break;
                        }
                        Err(AcceleratorError::Busy { retry_after_ms }) => std::thread::sleep(
                            Duration::from_millis(u64::from(retry_after_ms.max(1))),
                        ),
                        Err(e) => panic!("session {s}: {e}"),
                    }
                }
                let xs = vec![
                    demo_vector(COLS, WIDTH, SEED ^ (s << 8) ^ 1),
                    demo_vector(COLS, WIDTH, SEED ^ (s << 8) ^ 2),
                ];
                loop {
                    match client.secure_matmul(&xs) {
                        Ok((ys, _)) => {
                            for (x, y) in xs.iter().zip(&ys) {
                                assert_eq!(y, &plain_matvec(weights, x));
                            }
                            break;
                        }
                        Err(AcceleratorError::Busy { retry_after_ms }) => std::thread::sleep(
                            Duration::from_millis(u64::from(retry_after_ms.max(1))),
                        ),
                        Err(e) => panic!("session {s}: {e}"),
                    }
                }
                client.goodbye();
            });
        }
    });

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_started, 4);
    assert_eq!(stats.sessions_errored, 0);
    assert_eq!(
        stats.jobs_completed, 8,
        "4 sessions x (1 matvec + 1 matmul)"
    );
}

#[test]
fn overload_returns_typed_busy_and_recovers() {
    let service = demo_service(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        cfg.retry_after_ms = 7;
        cfg.start_paused = true;
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    // Two sessions fill the paused queue...
    let service_ref = &service;
    let weights_ref = &weights;
    std::thread::scope(|scope| {
        for s in 0..2u64 {
            let transport = service_ref.connect();
            scope.spawn(move || {
                let mut client = RemoteClient::connect(transport, WIDTH).expect("handshake");
                let x = demo_vector(COLS, WIDTH, SEED ^ s);
                let (y, _) = client.secure_matvec(&x).expect("queued job");
                assert_eq!(y, plain_matvec(weights_ref, &x));
                client.goodbye();
            });
        }
        wait_until("queue to fill", || service_ref.queue_depth() == 2);

        // ...so the third gets a typed BUSY with the configured retry hint,
        // not an OOM, panic, or hang.
        let mut third = RemoteClient::connect(service_ref.connect(), WIDTH).expect("handshake");
        let x = demo_vector(COLS, WIDTH, SEED ^ 99);
        match third.secure_matvec(&x) {
            Err(AcceleratorError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
            other => panic!("expected Busy, got {other:?}"),
        }

        // After resuming the units, a retry on the same session succeeds
        // (once the woken unit has taken a job off the full queue).
        service_ref.resume_workers();
        wait_until("a queue slot to free", || service_ref.queue_depth() < 2);
        let (y, _) = third.secure_matvec(&x).expect("retry after busy");
        assert_eq!(y, plain_matvec(weights_ref, &x));
        third.goodbye();
    });

    let stats = service.shutdown();
    assert_eq!(stats.busy_rejections, 1);
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.sessions_errored, 0);
}

#[test]
fn hostile_frames_do_not_kill_the_service() {
    let service = demo_service(|_| {});
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Oversized length prefix: header promises 4 GiB; the server must
    // reject it before allocating.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[0u8]).expect("kind");
        stream.write_all(&u32::MAX.to_be_bytes()).expect("len");
        // Server drops the session; our next read sees EOF.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF");
    }

    // Truncated frame: header promises 64 bytes, then the peer vanishes.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[0u8]).expect("kind");
        stream.write_all(&64u32.to_be_bytes()).expect("len");
        stream.write_all(&[0xAB; 10]).expect("partial payload");
    }

    // Mid-job disconnect: complete the handshake, request a job, then
    // vanish right after READY while the server is mid-stream.
    {
        let mut tcp = FramedTcp::connect(addr).expect("connect");
        send_control(
            &mut tcp,
            &ControlMsg::Hello {
                version: PROTOCOL_VERSION,
                bit_width: WIDTH as u32,
                trace: max_telemetry::TraceContext::none(),
            },
        )
        .expect("hello");
        match recv_control(&mut tcp).expect("accept") {
            ControlMsg::Accept { .. } => {}
            other => panic!("expected ACCEPT, got {other:?}"),
        }
        send_control(
            &mut tcp,
            &ControlMsg::JobRequest {
                columns: 1,
                model_id: None,
            },
        )
        .expect("job");
        match recv_control(&mut tcp).expect("ready") {
            ControlMsg::Ready { .. } => {}
            other => panic!("expected READY, got {other:?}"),
        }
        drop(tcp);
    }

    // The service shrugged all three off: a fresh, honest session works.
    wait_until("hostile sessions to be accounted", || {
        handle.service().stats().sessions_errored >= 2
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let tcp = FramedTcp::connect(addr).expect("connect");
    let mut client = RemoteClient::connect(tcp, WIDTH).expect("handshake");
    let x = demo_vector(COLS, WIDTH, SEED ^ 5);
    let (y, _) = client.secure_matvec(&x).expect("honest session");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_started, 4);
    // Oversized frame and mid-job disconnect are session errors; the
    // truncated pre-handshake stream is a clean disconnect.
    assert_eq!(stats.sessions_errored, 2);
    assert_eq!(stats.jobs_completed, 1);
}

/// A peer one protocol version behind folds different things into its
/// transcript digest; it must be turned away at HELLO with the server's
/// version in the detail, not let in to fail an integrity check later.
#[test]
fn previous_protocol_version_is_rejected_at_hello() {
    let service = demo_service(|_| {});
    let mut wire = service.connect();
    send_control(
        &mut wire,
        &ControlMsg::Hello {
            version: PROTOCOL_VERSION - 1,
            bit_width: WIDTH as u32,
            trace: max_telemetry::TraceContext::none(),
        },
    )
    .expect("hello");
    assert_eq!(
        recv_control(&mut wire).expect("reply"),
        ControlMsg::Reject {
            code: REJECT_VERSION,
            detail: u32::from(PROTOCOL_VERSION),
        }
    );
    drop(wire);
    let stats = service.shutdown();
    assert_eq!(stats.integrity_rejects, 0);
    assert_eq!(stats.jobs_completed, 0);
}

#[test]
fn drain_rejects_new_sessions_with_typed_reason() {
    let service = demo_service(|_| {});

    // A pre-drain session works.
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let x = demo_vector(COLS, WIDTH, SEED);
    let (y, _) = client.secure_matvec(&x).expect("pre-drain job");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();

    service.drain();
    assert!(service.is_draining());
    match RemoteClient::connect(service.connect(), WIDTH) {
        Err(AcceleratorError::Rejected { reason }) => {
            assert!(reason.contains("drain"), "unexpected reason: {reason}")
        }
        other => panic!("expected Rejected, got {:?}", other.map(|_| "client")),
    }

    let stats = service.shutdown();
    assert_eq!(stats.sessions_errored, 0);
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn idle_tcp_sessions_are_reaped() {
    let service = demo_service(|cfg| {
        cfg.idle_timeout = Some(Duration::from_millis(100));
    });
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");

    // Connect and say nothing: the server must hang up on us, not leak the
    // session thread forever.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF");

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_started, 1);
    assert_eq!(stats.sessions_errored, 0, "idle reap is a clean close");
}
