//! Fault injection: tamper with every field of the protocol messages and
//! verify the damage is contained the way GC theory says it should be —
//! corrupted ciphertext material yields garbage labels (wrong results),
//! never silent partial corruption of *other* wires.
//!
//! The second half drives faults through the *transport layer* against a
//! live [`GcService`]: oversized, truncated, duplicated, and reordered
//! frames, plus a seeded [`FaultTransport`] chaos session — the service
//! must shrug every one of them off while honest sessions keep completing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use max_crypto::Block;
use max_gc::{FaultSpec, FaultTransport, FramedTcp, Transport};
use max_serve::{demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, ServeConfig};
use maxelerator::remote::{send_control, ControlMsg, PROTOCOL_VERSION};
use maxelerator::{AcceleratorConfig, Maxelerator, RemoteClient, ScheduledEvaluator};

fn one_round(seed: u64) -> (AcceleratorConfig, Maxelerator, maxelerator::RoundMessage) {
    let config = AcceleratorConfig::new(8);
    let mut accel = Maxelerator::new(config.clone(), seed);
    let msg = accel.garble_round(13, true);
    (config, accel, msg)
}

fn evaluate(
    config: &AcceleratorConfig,
    accel: &Maxelerator,
    msg: &maxelerator::RoundMessage,
    x: i64,
) -> Option<i64> {
    let mut client = ScheduledEvaluator::new(config);
    let labels = accel.ot_pairs_for_client(&config.encode_x(x));
    client
        .evaluate_round(msg, &labels)
        .expect("structurally well-formed message")
}

#[test]
fn baseline_round_is_correct() {
    let (config, accel, msg) = one_round(1);
    assert_eq!(evaluate(&config, &accel, &msg, 5), Some(65));
}

#[test]
fn corrupted_tables_change_the_result_when_selected() {
    // Half-gate theory: a tampered ciphertext only matters when the active
    // labels' color bits select it (each of TG/TE is XORed in with
    // probability 1/2). So a single-table tamper flips the result about
    // half the time, and tampering *every* table is essentially certain to.
    let (config, accel, msg) = one_round(2);

    let mut changed = 0usize;
    let probes = 40usize.min(msg.tables.len());
    for idx in 0..probes {
        let mut bad = msg.clone();
        bad.tables[idx].tg ^= Block::new(1 << 77);
        bad.tables[idx].te ^= Block::new(1 << 33);
        if evaluate(&config, &accel, &bad, 5) != Some(65) {
            changed += 1;
        }
    }
    // Each probe trips with probability ≥ 3/4 (either half selected);
    // demand at least half to keep the test robust.
    assert!(
        changed * 2 >= probes,
        "only {changed}/{probes} single-table tampers had an effect"
    );

    let mut all_bad = msg.clone();
    for table in &mut all_bad.tables {
        table.tg ^= Block::new(1 << 9);
        table.te ^= Block::new(1 << 11);
    }
    assert_ne!(
        evaluate(&config, &accel, &all_bad, 5),
        Some(65),
        "wholesale tampering went unnoticed"
    );
}

#[test]
fn corrupting_a_garbler_label_changes_the_result() {
    let (config, accel, msg) = one_round(3);
    let mut bad = msg.clone();
    bad.a_labels[0] ^= Block::new(0xff00);
    assert_ne!(evaluate(&config, &accel, &bad, 5), Some(65));
}

#[test]
fn corrupting_initial_accumulator_labels_changes_the_result() {
    let (config, accel, msg) = one_round(4);
    let mut bad = msg.clone();
    let init = bad.init_acc_labels.as_mut().expect("round 0 carries init");
    init[3] ^= Block::new(0b100);
    assert_ne!(evaluate(&config, &accel, &bad, 5), Some(65));
}

#[test]
fn flipping_decode_bits_flips_exactly_those_output_bits() {
    let (config, accel, msg) = one_round(5);
    let mut bad = msg.clone();
    let decode = bad.decode.as_mut().expect("final round");
    decode[0] = !decode[0];
    // 13·5 = 65 = 0b1000001; flipping decode bit 0 gives 64.
    assert_eq!(evaluate(&config, &accel, &bad, 5), Some(64));
}

#[test]
fn wrong_ot_labels_yield_garbage_not_crash() {
    let (config, accel, msg) = one_round(6);
    let mut client = ScheduledEvaluator::new(&config);
    // Random blocks instead of valid labels.
    let bogus: Vec<Block> = (0..8).map(|i| Block::new(0xbad0 + i as u128)).collect();
    let got = client
        .evaluate_round(&msg, &bogus)
        .expect("valid structure, garbage contents");
    assert!(got.is_some(), "evaluation should complete");
    assert_ne!(got, Some(65));
    let _ = accel;
}

#[test]
fn truncated_tables_rejected_with_typed_error() {
    // A short table stream must be refused up front — a typed error, not a
    // panic: peer-supplied data can never abort the evaluator.
    let (config, accel, msg) = one_round(7);
    let mut bad = msg.clone();
    bad.tables.truncate(bad.tables.len() - 1);
    let mut client = ScheduledEvaluator::new(&config);
    let labels = accel.ot_pairs_for_client(&config.encode_x(5));
    assert_eq!(
        client.evaluate_round(&bad, &labels),
        Err(maxelerator::AcceleratorError::TableCount {
            expected: msg.tables.len(),
            got: msg.tables.len() - 1,
        })
    );
}

const SERVE_WIDTH: usize = 8;
const SERVE_ROWS: usize = 2;
const SERVE_COLS: usize = 2;
const SERVE_SEED: u64 = 0xFA17;

fn live_service() -> GcService {
    let weights = demo_weights(SERVE_ROWS, SERVE_COLS, SERVE_WIDTH, SERVE_SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(SERVE_WIDTH), weights, SERVE_SEED);
    // Bound every hostile session: a wedged peer is reaped, not leaked.
    cfg.idle_timeout = Some(Duration::from_millis(500));
    GcService::start(cfg)
}

fn honest_session_completes(addr: std::net::SocketAddr, tag: u64) {
    let weights = demo_weights(SERVE_ROWS, SERVE_COLS, SERVE_WIDTH, SERVE_SEED);
    let tcp = FramedTcp::connect(addr).expect("honest connect");
    let mut client = RemoteClient::connect(tcp, SERVE_WIDTH).expect("honest handshake");
    let x = demo_vector(SERVE_COLS, SERVE_WIDTH, SERVE_SEED ^ tag);
    let (y, _) = client.secure_matvec(&x).expect("honest job");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();
}

#[test]
fn oversized_and_truncated_frames_leave_the_service_standing() {
    let handle = listen_tcp(live_service(), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Oversized: the length prefix promises 4 GiB. The server must refuse
    // before allocating and hang up on the peer.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[0u8]).expect("kind");
        stream.write_all(&u32::MAX.to_be_bytes()).expect("len");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF");
    }

    // Truncated: the header promises 64 bytes, 10 arrive, the peer closes.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[0u8]).expect("kind");
        stream.write_all(&64u32.to_be_bytes()).expect("len");
        stream.write_all(&[0xAB; 10]).expect("partial payload");
    }

    honest_session_completes(addr, 1);
    let stats = handle.shutdown();
    assert!(stats.sessions_errored >= 1, "oversized frame is an error");
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn duplicated_and_reordered_control_frames_are_typed_protocol_errors() {
    let handle = listen_tcp(live_service(), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Duplicated HELLO: the copy arrives where a JOB/PING/BYE belongs.
    {
        let mut tcp = FramedTcp::connect(addr).expect("connect");
        let hello = ControlMsg::Hello {
            version: PROTOCOL_VERSION,
            bit_width: SERVE_WIDTH as u32,
            trace: max_telemetry::TraceContext::none(),
        };
        send_control(&mut tcp, &hello).expect("hello");
        send_control(&mut tcp, &hello).expect("duplicate hello");
        // ACCEPT still arrives; then the server kills the session.
        tcp.set_idle_timeout(Some(Duration::from_secs(10)));
        let _accept = tcp.recv_frame().expect("accept");
        assert!(tcp.recv_frame().is_err(), "expected the session to die");
    }

    // Reordered opening: a JOB where the HELLO belongs.
    {
        let mut tcp = FramedTcp::connect(addr).expect("connect");
        send_control(
            &mut tcp,
            &ControlMsg::JobRequest {
                columns: 1,
                model_id: None,
            },
        )
        .expect("early job");
        tcp.set_idle_timeout(Some(Duration::from_secs(10)));
        assert!(tcp.recv_frame().is_err(), "expected the session to die");
    }

    honest_session_completes(addr, 2);
    let stats = handle.shutdown();
    assert_eq!(
        stats.sessions_errored, 2,
        "both malformed openings are typed errors"
    );
    assert_eq!(stats.jobs_completed, 1);
}

#[test]
fn seeded_chaos_transport_cannot_panic_the_service() {
    let handle = listen_tcp(live_service(), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // A client behind a heavily faulted wire: duplicated and reordered
    // frames at 30%, drops at 10%, bit flips at 10%. Any *outcome* is
    // acceptable for this client — a typed error, a timeout, even a wrong
    // (garbage) result, since GC promises garbage rather than detection
    // for tampered OT traffic — but nothing may panic, and the service
    // must keep serving everyone else.
    for round in 0..3u64 {
        let tcp = FramedTcp::connect(addr).expect("connect");
        let spec = FaultSpec::none(SERVE_SEED ^ round)
            .with_duplicates(300)
            .with_reordering(300)
            .with_drops(100)
            .with_corruption(100);
        let mut chaos = FaultTransport::new(tcp, spec);
        // Never let a dropped/held frame wedge the client forever.
        chaos.set_idle_timeout(Some(Duration::from_millis(300)));
        if let Ok(mut client) = RemoteClient::connect(chaos, SERVE_WIDTH) {
            let x = demo_vector(SERVE_COLS, SERVE_WIDTH, SERVE_SEED ^ round);
            let _ = client.secure_matvec(&x);
        }
        // An honest session interleaved with every chaos round.
        honest_session_completes(addr, 0x100 ^ round);
    }

    let stats = handle.shutdown();
    assert_eq!(
        stats.jobs_completed, 3,
        "honest traffic was never disturbed"
    );
}
