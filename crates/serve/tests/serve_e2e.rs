//! End-to-end service tests: transcript parity between transports,
//! concurrent TCP sessions, typed backpressure, hostile peers, drain,
//! and idle reaping.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use max_gc::channel::Duplex;
use max_gc::{FaultSpec, FaultTransport, FramedTcp, Transport};
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, JournalConfig,
    RecordingTransport, ServeConfig, BUSY_RETRY_AFTER_MS,
};
use maxelerator::remote::{
    recv_control, send_control, ControlMsg, PROTOCOL_VERSION, REJECT_VERSION,
};
use maxelerator::{
    connect, secure_matvec, AcceleratorConfig, AcceleratorError, MatvecTranscript, RemoteClient,
    ResilientClient, RetryPolicy,
};

mod common;
use common::{demo_service, wait_until, WIDTH};

const ROWS: usize = 3;
const COLS: usize = 4;
const SEED: u64 = 0xD05E;

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
    let duplex_service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    });
    let (duplex_rec, duplex_results) = run_recorded_session(duplex_service.connect());
    duplex_service.shutdown();

    let tcp_service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    });
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
fn the_in_process_session_is_the_served_session() {
    // `connect` + `secure_matvec` run the served exchange over a Duplex:
    // against session 0 of a service with the same weights and base seed,
    // two queries give the same results, the same STATS cycles (on three
    // units, the busiest unit's share of them) and, in each direction, the
    // same bytes in the same number of frames.
    let config = AcceleratorConfig::new(WIDTH);
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let xs: Vec<Vec<i64>> = (0..2).map(|q| demo_vector(COLS, WIDTH, SEED ^ q)).collect();
    let wire = |duplex: &Duplex| {
        [
            duplex.sent().bytes(),
            duplex.sent().messages(),
            duplex.received().bytes(),
            duplex.received().messages(),
        ]
    };

    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true
    });
    let mut remote = RemoteClient::connect_with_trace(
        service.connect(),
        WIDTH,
        max_telemetry::TraceContext::none(),
    )
    .expect("handshake");
    let served: Vec<(Vec<i64>, MatvecTranscript)> = xs
        .iter()
        .map(|x| remote.secure_matvec(x).expect("matvec"))
        .collect();
    let served_wire = wire(remote.transport());
    remote.goodbye();
    service.shutdown();

    for units in [1, 3] {
        let (server, mut client) = connect(&config, weights.clone(), SEED);
        let mut server = server.with_units(units);
        for (x, (y, stats)) in xs.iter().zip(&served) {
            let (got, transcript) = secure_matvec(&mut server, &mut client, x);
            assert_eq!(&got, y, "{units} units");
            assert_eq!(got, plain_matvec(&weights, x));
            assert_eq!(
                transcript.fabric_cycles * ROWS as u64,
                stats.fabric_cycles * ROWS.div_ceil(units) as u64,
                "{units} units"
            );
            let volumes = MatvecTranscript {
                fabric_cycles: stats.fabric_cycles,
                fabric_seconds: stats.fabric_seconds,
                ..transcript
            };
            assert_eq!(&volumes, stats, "{units} units");
        }
        assert_eq!(wire(client.transport()), served_wire, "{units} units");
    }
}

#[test]
fn four_concurrent_tcp_sessions_all_correct() {
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
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
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        cfg.start_paused = true;
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    // Two sessions fill the paused queue...
    let service_ref = &service;
    let weights_ref = &weights;
    let resilient_backoffs = std::thread::scope(|scope| {
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

        // ...so the third gets a typed BUSY with the fixed retry hint, not
        // an OOM, panic, or hang.
        let mut third = RemoteClient::connect(service_ref.connect(), WIDTH).expect("handshake");
        let x = demo_vector(COLS, WIDTH, SEED ^ 99);
        match third.secure_matvec(&x) {
            Err(AcceleratorError::Busy { retry_after_ms }) => {
                assert_eq!(retry_after_ms, BUSY_RETRY_AFTER_MS)
            }
            other => panic!("expected Busy, got {other:?}"),
        }

        // A resilient client dialing the full, paused pool backs off on the
        // hint until the units resume, then lands.
        let resilient = scope.spawn(move || {
            let mut client = ResilientClient::new(
                || Ok(service_ref.connect()),
                WIDTH,
                RetryPolicy {
                    max_attempts: 1_000,
                    ..RetryPolicy::default()
                },
            );
            let x = demo_vector(COLS, WIDTH, SEED ^ 98);
            let (y, _) = client.secure_matvec(&x).expect("rides out the full queue");
            assert_eq!(y, plain_matvec(weights_ref, &x));
            let busy_backoffs = client.stats().busy_backoffs;
            client.goodbye();
            busy_backoffs
        });
        wait_until("the resilient client's BUSY", || {
            service_ref.stats().busy_rejections >= 2
        });
        service_ref.resume_workers();
        let resilient_backoffs = resilient.join().expect("resilient client");
        assert!(resilient_backoffs >= 1);

        // Its job left the FIFO after both queued ones, so a retry on the
        // same session now finds a free slot.
        let (y, _) = third.secure_matvec(&x).expect("retry after busy");
        assert_eq!(y, plain_matvec(weights_ref, &x));
        third.goodbye();
        resilient_backoffs
    });

    let stats = service.shutdown();
    assert_eq!(stats.busy_rejections, 1 + resilient_backoffs);
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.sessions_errored, 0);
}

/// A unit hands a job's elements to its session through an unbounded
/// channel, so a client that takes READY and then goes silent leaves at
/// most its job's elements in memory, never a garbling unit blocked on it:
/// with one unit, a second session's job still completes.
#[test]
fn a_stalled_client_never_holds_a_garbling_unit() {
    let service = demo_service(ROWS, COLS, SEED, |cfg| cfg.workers = 1);
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let mut stalled = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let xs: Vec<Vec<i64>> = (0..4u64)
        .map(|j| demo_vector(COLS, WIDTH, SEED ^ (j << 5)))
        .collect();
    let _ready = stalled.start_job(&xs).expect("READY");

    let transport = service.connect();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let other = std::thread::spawn(move || {
        let mut client = RemoteClient::connect(transport, WIDTH).expect("handshake");
        let x = demo_vector(COLS, WIDTH, SEED ^ 0xB0B);
        let result = client.secure_matvec(&x);
        client.goodbye();
        let _ = done_tx.send((x, result));
    });
    let (x, result) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a stalled client must not hold the only garbling unit");
    let (y, _) = result.expect("second session's job");
    assert_eq!(y, plain_matvec(&weights, &x));
    other.join().expect("second session");

    drop(stalled);
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
#[should_panic(expected = "weight [0][1] = 200 exceeds the operand width")]
fn default_model_the_garbler_cannot_encode_is_refused_at_start() {
    // 200 does not fit b = 8 signed. Accepted, it would panic a pool
    // worker on every job until no unit was left to answer.
    let weights = vec![vec![1, 200], vec![3, 4]];
    GcService::start(ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        weights,
        SEED,
    ));
}

#[test]
#[should_panic(expected = "invalid default model: an element's frame is")]
fn default_model_too_wide_to_frame_is_refused_at_start() {
    // At b = 8 an element of 11 206 rounds seals to more than
    // MAX_FRAME_BYTES: every job would fail at its first ROUNDS frame.
    GcService::start(ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        vec![vec![0; 11_206]],
        SEED,
    ));
}

#[test]
fn hostile_frames_do_not_kill_the_service() {
    let service = demo_service(ROWS, COLS, SEED, |_| {});
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
    let service = demo_service(ROWS, COLS, SEED, |_| {});
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
    let service = demo_service(ROWS, COLS, SEED, |_| {});

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
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
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

/// One capacity: `resume_capacity = 0` keeps no checkpoint, so with a
/// journal directory it writes none either — no append and no fsync'd
/// barrier for state nothing could resume.
#[test]
fn a_journaled_service_at_capacity_zero_writes_no_checkpoint() {
    let dir = std::env::temp_dir().join(format!("serve-e2e-cap0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.resume_capacity = 0;
        cfg.journal = Some(JournalConfig::new(&dir));
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x = demo_vector(COLS, WIDTH, SEED ^ 9);
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let (y, _) = client.secure_matvec(&x).expect("job");
    assert_eq!(y, plain_matvec(&weights, &x));
    let journal = service.journal().expect("journal configured");
    assert_eq!((journal.appends(), journal.barriers()), (0, 0));
    assert_eq!(service.resume_checkpoints(), 0);
    client.goodbye();
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(journal.appends(), 0, "nor does a BYE write a tombstone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One eviction order, reported by `save`: at capacity 1 another session's
/// first boundary evicts a dead session's window, METRICS counts it as
/// `resume_evicted`, and the dead session's RESUME is refused typed.
#[test]
fn an_evicted_window_is_counted_and_its_resume_refused() {
    let service = demo_service(ROWS, COLS, SEED, |cfg| cfg.resume_capacity = 1);
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x = demo_vector(COLS, WIDTH, SEED ^ 5);
    // HELLO, ACCEPT, JOB, READY, element 0's three frames, then element
    // 1's EXT and CIPHER: the wire dies mid-element 1.
    let cut = FaultSpec::none(SEED).with_cut_after(4 + 3 + 2);
    let mut client =
        RemoteClient::connect(FaultTransport::new(service.connect(), cut), WIDTH).expect("hello");
    let mut progress = client
        .start_job(std::slice::from_ref(&x))
        .expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut kills the run");
    let (dead, state) = client.into_parts();
    drop(dead);
    assert_eq!(service.resume_checkpoints(), 1, "the dead job's window");

    let mut other = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let (y, _) = other.secure_matvec(&x).expect("job");
    assert_eq!(y, plain_matvec(&weights, &x));
    let body = other.metrics().expect("METRICS");
    assert!(body.contains("\"resume_evicted\":1,"), "{body}");
    other.goodbye();

    let mut client = RemoteClient::reattach(service.connect(), state);
    match client.resume_job(&mut progress) {
        Err(AcceleratorError::Rejected { reason }) => assert_eq!(reason, "resume state not found"),
        other => panic!("expected REJECT(resume), got {other:?}"),
    }
    service.shutdown();
}
