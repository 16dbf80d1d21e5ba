//! Observability end-to-end: wire-propagated distributed tracing across a
//! chaos recovery, flight-recorder dumps from error-ending sessions, and
//! the live METRICS control frame.

use std::sync::Arc;

use max_gc::channel::Duplex;
use max_gc::{FaultSpec, FaultTransport};
use max_serve::{demo_vector, demo_weights, plain_matvec};
use max_telemetry::{FlightRecorder, Recorder, TraceContext};
use maxelerator::{remote, RemoteClient, ResilientClient, RetryPolicy};

mod common;
use common::{demo_service, wait_until, WIDTH};

const ROWS: usize = 3;
const COLS: usize = 3;
const SEED: u64 = 0x0B5E;

/// Client-side frame events per streamed element: EXT send, CIPHER recv,
/// ROUNDS-burst recv. The server's event sequence mirrors it.
const EVENTS_PER_ELEMENT: u64 = 3;
/// Handshake + job admission: HELLO, ACCEPT, JOB, READY.
const HANDSHAKE_EVENTS: u64 = 4;

/// The acceptance arc of the tracing tentpole: a job killed mid-flight by
/// a connection cut recovers over redial + RESUME, and afterwards the
/// client's and the server's recorders — two independent snapshots on
/// opposite sides of the wire — stitch into one trace: the client side
/// holds the redial and the RESUME, the server side holds the checkpoint
/// restore, and every event on both sides carries the same trace id.
#[test]
fn stitched_trace_spans_both_sides_of_a_chaos_recovery() {
    let server_rec = Arc::new(Recorder::new());
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.recorder = Some(Arc::clone(&server_rec))
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x = demo_vector(COLS, WIDTH, SEED ^ 5);

    let client_rec = Arc::new(Recorder::new());
    let svc = service.clone();
    let mut dials = 0u64;
    let mut client = ResilientClient::new(
        move || {
            dials += 1;
            let spec = if dials == 1 {
                // First connection dies partway through element 1 of 3.
                FaultSpec::none(SEED).with_cut_after(HANDSHAKE_EVENTS + EVENTS_PER_ELEMENT + 2)
            } else {
                FaultSpec::none(SEED)
            };
            Ok(FaultTransport::new(svc.connect(), spec))
        },
        WIDTH,
        RetryPolicy {
            // The server must notice the dead connection and checkpoint
            // before the RESUME arrives.
            base_backoff_ms: 80,
            ..RetryPolicy::default()
        },
    )
    .with_recorder(Arc::clone(&client_rec));
    let trace = client.trace();
    assert!(trace.is_traced(), "ResilientClient mints a real trace");

    let (y, _) = client.secure_matvec(&x).expect("job survives the cut");
    assert_eq!(y, plain_matvec(&weights, &x));
    assert_eq!(client.stats().resumes, 1, "recovery must go through RESUME");
    client.goodbye();
    let stats = service.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    assert_eq!(stats.jobs_completed, 1);

    let client_snap = client_rec.snapshot();
    let server_snap = server_rec.snapshot();

    // Matching trace ids on both snapshots: nothing else was traced, so
    // every recorded event on either side belongs to this one trace.
    assert!(!client_snap.traces.is_empty(), "client side recorded spans");
    assert!(!server_snap.traces.is_empty(), "server side recorded spans");
    for event in client_snap.traces.iter().chain(&server_snap.traces) {
        assert_eq!(
            event.trace_id, trace.trace_id,
            "foreign trace id: {event:?}"
        );
        assert_eq!(event.span_id, trace.span_id);
    }

    let client_names: Vec<&str> = client_snap
        .trace_events(trace.trace_id)
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for needed in [
        "client/connect",
        "client/backoff",
        "client/redial",
        "client/resume",
        "client/job",
    ] {
        assert!(
            client_names.contains(&needed),
            "missing {needed}: {client_names:?}"
        );
    }

    let server_names: Vec<&str> = server_snap
        .trace_events(trace.trace_id)
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for needed in [
        "server/handshake",
        "server/queue_wait",
        "server/garble",
        "server/stream",
        "server/checkpoint",
        "server/resume_restore",
    ] {
        assert!(
            server_names.contains(&needed),
            "missing {needed}: {server_names:?}"
        );
    }
    // Two connections → two garble requests served for the one job.
    assert!(
        server_names
            .iter()
            .filter(|n| **n == "server/garble")
            .count()
            >= 2,
        "both connections' work is in the trace: {server_names:?}"
    );
}

/// An error-ending session under a faulted transport must leave a flight
/// dump whose final events name the injected fault — and the dump is
/// tagged with the trace id the client put in its HELLO.
#[test]
fn error_session_dumps_flight_events_naming_the_injected_fault() {
    let service = demo_service(ROWS, COLS, SEED, |_| {});
    let flight = Arc::new(FlightRecorder::new(64));
    let (server_end, client_end) = Duplex::pair();
    // Fault the server's wire: the shared recorder sees both the frame
    // traffic (via the service's FlightTransport wrapper) and the fault
    // injections, interleaved in arrival order.
    let fault = FaultTransport::new(
        server_end,
        // Survive the handshake, then die on the first EXT receive.
        FaultSpec::none(SEED).with_cut_after(HANDSHAKE_EVENTS + 1),
    )
    .with_flight(Arc::clone(&flight));
    service.serve_transport_with_flight(fault, Arc::clone(&flight));

    let trace = TraceContext::from_ids(0xF11E_DA7A, 9);
    let mut client = RemoteClient::connect_with_trace(client_end, WIDTH, trace).expect("handshake");
    let xs = vec![demo_vector(COLS, WIDTH, SEED ^ 1)];
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the server-side cut must kill the run");

    wait_until("flight dump", || !service.flight_dumps().is_empty());
    let dumps = service.flight_dumps();
    assert_eq!(dumps.len(), 1);
    let dump = &dumps[0];
    assert!(dump.contains("\"maxelerator-flight-v1\""), "{dump}");
    assert!(
        dump.contains(&format!("{:032x}", trace.trace_id)),
        "dump must carry the HELLO's trace id: {dump}"
    );
    assert!(
        dump.contains("\"fault.cut\""),
        "injected fault named: {dump}"
    );
    assert!(dump.contains("\"session.error\""), "{dump}");
    // The narrative ends with the fault and the death, in that order.
    let cut_at = dump.rfind("\"fault.cut\"").expect("cut position");
    let err_at = dump.rfind("\"session.error\"").expect("error position");
    assert!(cut_at < err_at, "fault precedes the session error: {dump}");

    let stats = service.shutdown();
    assert_eq!(stats.sessions_errored, 1);
}

/// The METRICS control frame answers live counters, gauges, and histogram
/// percentiles — mid-session after the handshake, and on a bare
/// connection before any handshake (so an operator can poll a server
/// they cannot authenticate to).
#[test]
fn metrics_frame_serves_counters_gauges_and_percentiles() {
    let server_rec = Arc::new(Recorder::new());
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.recorder = Some(Arc::clone(&server_rec))
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let x = demo_vector(COLS, WIDTH, SEED ^ 2);
    let (y, _) = client.secure_matvec(&x).expect("job");
    assert_eq!(y, plain_matvec(&weights, &x));

    // Feed the recorder a known distribution so the percentile section has
    // something exact to serve.
    for v in 1..=100u64 {
        server_rec.record("demo.latency_ns", v);
    }

    let body = client.metrics().expect("mid-session METRICS");
    assert!(body.contains("\"maxelerator-metrics-v1\""), "{body}");
    assert!(body.contains("\"jobs_completed\":1"), "{body}");
    assert!(body.contains("\"queue_depth\""), "{body}");
    assert!(body.contains("\"demo.latency_ns\""), "{body}");
    // Percentiles of 1..=100 in log-linear buckets: p50 is the upper
    // bound of [50, 52), p95 of [92, 96), p99 of [96, 100).
    assert!(
        body.contains(r#""demo.latency_ns":{"count":100,"p50":51,"p95":95,"p99":99,"max":100}"#),
        "{body}"
    );
    assert!(
        body.len() < 1 << 20,
        "METRICS body stays under the frame cap"
    );
    client.goodbye();

    // Pre-handshake: a bare connection can poll metrics without ever
    // sending HELLO.
    let mut bare = service.connect();
    let body = remote::fetch_metrics(&mut bare).expect("pre-handshake METRICS");
    assert!(body.contains("\"maxelerator-metrics-v1\""), "{body}");
    assert!(body.contains("\"sessions_started\""), "{body}");
    drop(bare);

    // A recorder-less service still answers, with percentiles null.
    let plain = demo_service(ROWS, COLS, SEED, |_| {});
    let mut bare = plain.connect();
    let body = remote::fetch_metrics(&mut bare).expect("recorder-less METRICS");
    assert!(body.contains("\"percentiles\":null"), "{body}");
    drop(bare);
    plain.shutdown();

    service.shutdown();
}

/// Every job's queue wait, garble and stream time lands in a METRICS
/// histogram of the same name — for untraced sessions too, so a production
/// `serve` reports latency percentiles without any client opting in.
#[test]
fn metrics_reports_each_jobs_phase_histograms() {
    const JOBS: u64 = 4;
    let server_rec = Arc::new(Recorder::new());
    let service = demo_service(ROWS, COLS, SEED, |cfg| {
        cfg.recorder = Some(Arc::clone(&server_rec))
    });
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let mut client =
        RemoteClient::connect_with_trace(service.connect(), WIDTH, TraceContext::none())
            .expect("handshake");
    for job in 0..JOBS {
        let x = demo_vector(COLS, WIDTH, SEED ^ job);
        let (y, _) = client.secure_matvec(&x).expect("job");
        assert_eq!(y, plain_matvec(&weights, &x));
    }
    let body = client.metrics().expect("METRICS");
    for phase in ["server/queue_wait", "server/garble", "server/stream"] {
        assert!(
            body.contains(&format!("\"{phase}\":{{\"count\":{JOBS},")),
            "{phase}: {body}"
        );
    }
    assert!(
        server_rec.snapshot().traces.is_empty(),
        "an untraced session leaves no trace events"
    );
    client.goodbye();
    service.shutdown();
}
