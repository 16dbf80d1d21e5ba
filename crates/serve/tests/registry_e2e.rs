//! End-to-end prepared-model registry tests: the v5 model lifecycle over
//! the wire, warm-stock serving with plaintext verification, the typed
//! fallback when stock runs dry, byte-budget eviction, journal replay of
//! models across a restart, and the one-job-path parity proptest (every
//! route a matrix row can take to a wire carries the one producer's bytes
//! and decodes to the plaintext product).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::Bytes;
use max_gc::channel::seal_frame;
use max_gc::FramedTcp;
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, Acquired, GcService, JournalConfig,
    ModelRegistry, RecordingTransport, RegistryConfig, ServeConfig,
};
use max_telemetry::TraceContext;
use maxelerator::remote::{
    derive_seed, encode_round_burst, fill_stream, garble_matvec_job, materialize_job,
    MaterializedElement,
};
use maxelerator::{
    connect, secure_matvec, AcceleratorConfig, AcceleratorError, ModelHandle, MultiUnitServer,
    RemoteClient, ResilientClient, RetryPolicy,
};
use proptest::prelude::*;

const WIDTH: usize = 8;
const ROWS: usize = 3;
const COLS: usize = 4;
const SEED: u64 = 0x4e57;

fn demo_service(mutate: impl FnOnce(&mut ServeConfig)) -> GcService {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(WIDTH), weights, SEED);
    mutate(&mut cfg);
    GcService::start(cfg)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reg-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A second matrix, distinct from the session's demo model, to register.
fn model_weights(rows: usize, cols: usize, tweak: u64) -> Vec<Vec<i64>> {
    demo_weights(rows, cols, WIDTH, SEED ^ 0x0d0d ^ tweak)
}

#[test]
fn model_lifecycle_roundtrip_over_tcp() {
    let service = demo_service(|_| {});
    let handle = listen_tcp(service, "127.0.0.1:0").expect("bind");
    let tcp = FramedTcp::connect(handle.addr()).expect("connect");
    let mut client = RemoteClient::connect(tcp, WIDTH).expect("handshake");

    // PUT answers with the registered shape.
    let weights = model_weights(2, 3, 1);
    let status = client.put_model(7, &weights).expect("put");
    assert_eq!(status.model_id, 7);
    assert_eq!(status.rows, 2);
    assert_eq!(status.cols, 3);

    // INFO sees the same model; an unknown id is a typed rejection that
    // leaves the session usable.
    let info = client.model_info(7).expect("info");
    assert_eq!((info.rows, info.cols), (2, 3));
    match client.model_info(99) {
        Err(AcceleratorError::Rejected { reason }) => {
            assert!(reason.contains("model"), "unexpected reason: {reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Out-of-range weights are a typed rejection, not a dead session.
    match client.put_model(8, &[vec![10_000]]) {
        Err(AcceleratorError::Rejected { .. }) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Re-PUT (replace) and EVICT both answer with status; a second evict
    // is a typed rejection.
    client
        .put_model(7, &model_weights(2, 3, 2))
        .expect("re-put");
    let last = client.evict_model(7).expect("evict");
    assert_eq!(last.model_id, 7);
    assert!(matches!(
        client.evict_model(7),
        Err(AcceleratorError::Rejected { .. })
    ));

    // The session default path still works after all of the above.
    let x = demo_vector(COLS, WIDTH, SEED ^ 3);
    let (y, _) = client.secure_matvec(&x).expect("default job");
    assert_eq!(y, plain_matvec(&demo_weights(ROWS, COLS, WIDTH, SEED), &x));
    client.goodbye();
    handle.shutdown();
}

#[test]
fn warm_stock_serves_prepared_and_verifies_plaintext() {
    let service = demo_service(|cfg| cfg.registry_target_stock = 2);
    let weights = model_weights(4, 3, 7);
    let status = service.put_model(11, weights.clone()).expect("register");
    let handle = status.handle();
    // Fill the stock synchronously so the first job cannot race idle-fill.
    service.prefill_models();
    assert!(service.registry().stats().streams_ready >= 1);

    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    for job in 0..2u64 {
        let x = demo_vector(3, WIDTH, SEED ^ (job << 9));
        let (ys, _) = client
            .secure_matmul_model(handle, std::slice::from_ref(&x))
            .expect("model job");
        assert_eq!(ys[0], plain_matvec(&weights, &x), "prepared result wrong");
    }
    client.goodbye();

    let reg = service.registry().stats();
    assert!(
        reg.served_prepared >= 1,
        "warm stock must serve at least one prepared job, got {reg:?}"
    );
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 2);
    assert!(stats.jobs_prepared >= 1, "prepared serves must be counted");
    assert_eq!(stats.sessions_errored, 0);
}

#[test]
fn stock_exhausted_falls_back_inline_counted_never_an_error() {
    // target_stock = 0: the registry never garbles ahead, so every model
    // job takes the fallback path — and every one must still verify.
    let service = demo_service(|cfg| cfg.registry_target_stock = 0);
    let weights = model_weights(3, 2, 5);
    let handle = service
        .put_model(21, weights.clone())
        .expect("register")
        .handle();

    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let x = demo_vector(2, WIDTH, SEED ^ 0xA);
    let (ys, _) = client
        .secure_matmul_model(handle, std::slice::from_ref(&x))
        .expect("fallback matvec");
    assert_eq!(ys[0], plain_matvec(&weights, &x));

    // Matmul (columns > 1) against a model always falls back: a stocked
    // stream is one matvec's element schedule.
    let xs = vec![
        demo_vector(2, WIDTH, SEED ^ 0xB),
        demo_vector(2, WIDTH, SEED ^ 0xC),
    ];
    let (ys, _) = client
        .secure_matmul_model(handle, &xs)
        .expect("fallback matmul");
    for (x, y) in xs.iter().zip(&ys) {
        assert_eq!(y, &plain_matvec(&weights, x));
    }
    client.goodbye();

    let reg = service.registry().stats();
    assert_eq!(reg.served_prepared, 0);
    assert_eq!(
        reg.served_fallback, 2,
        "both jobs must be counted as fallbacks"
    );
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_prepared, 0);
    assert_eq!(stats.sessions_errored, 0);
}

#[test]
fn a_fallback_answered_with_busy_is_not_counted_as_served() {
    // One paused unit behind a one-slot queue: a session-default job takes
    // the slot, so a model job arriving next gets its fallback ticket cut
    // and is then turned away — first by the full queue, then by the open
    // breaker. Neither served anything.
    let service = demo_service(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        cfg.start_paused = true;
        cfg.registry_target_stock = 0;
        cfg.breaker.open_for = Duration::from_secs(60);
    });
    let weights = model_weights(2, 3, 29);
    let handle = service
        .put_model(71, weights.clone())
        .expect("register")
        .handle();
    let fallbacks = || {
        let global = service.registry().stats().served_fallback;
        let model = service.registry().status(71).expect("registered");
        assert_eq!(global, model.served_fallback);
        global
    };
    let x = demo_vector(3, WIDTH, SEED ^ 0x71);

    std::thread::scope(|scope| {
        let blocker = service.connect();
        scope.spawn(move || {
            let mut client = RemoteClient::connect(blocker, WIDTH).expect("handshake");
            let x = demo_vector(COLS, WIDTH, SEED ^ 0x70);
            client.secure_matvec(&x).expect("queued default job");
            client.goodbye();
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.queue_depth() < 1 {
            assert!(Instant::now() < deadline, "the queue never filled");
            std::thread::yield_now();
        }

        let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
        let xs = std::slice::from_ref(&x);
        assert!(matches!(
            client.start_model_job(handle, xs),
            Err(AcceleratorError::Busy { .. })
        ));
        assert_eq!(fallbacks(), 0, "queue-full BUSY served nothing");
        service.trip_breaker();
        assert!(matches!(
            client.start_model_job(handle, xs),
            Err(AcceleratorError::Busy { .. })
        ));
        assert_eq!(fallbacks(), 0, "breaker-shed BUSY served nothing");

        // The retry that is admitted is the one that counts.
        service.reset_breaker();
        service.resume_workers();
        let (ys, _) = loop {
            match client.secure_matmul_model(handle, xs) {
                Err(AcceleratorError::Busy { .. }) => std::thread::yield_now(),
                other => break other.expect("retry after busy"),
            }
        };
        assert_eq!(ys[0], plain_matvec(&weights, &x));
        assert_eq!(fallbacks(), 1);
        client.goodbye();
    });
    let stats = service.shutdown();
    assert_eq!(stats.sessions_errored, 0);
    assert!(stats.busy_rejections >= 2);
}

#[test]
fn tight_budget_evicts_lru_model_whole() {
    // Size the budget from a real stream so ~2.5 streams fit: stocking
    // model B (2 streams) must push model A's stock out entirely.
    let weights_a = model_weights(2, 2, 11);
    let weights_b = model_weights(2, 2, 13);
    let probe =
        fill_stream(&AcceleratorConfig::new(WIDTH), &weights_a, SEED, 1).expect("probe stream");
    let budget = probe.stored_bytes() * 2 + probe.stored_bytes() / 2;

    let service = demo_service(|cfg| {
        cfg.registry_target_stock = 2;
        cfg.registry_budget_bytes = Some(budget);
    });
    let handle_a = service.put_model(31, weights_a).expect("put A").handle();
    service.prefill_models();
    let handle_b = service
        .put_model(32, weights_b.clone())
        .expect("put B")
        .handle();
    service.prefill_models();

    let reg = service.registry().stats();
    assert!(
        reg.models_evicted_budget >= 1,
        "tight budget must evict: {reg:?}"
    );
    assert!(reg.stock_bytes <= budget, "stock must fit the budget");
    assert!(service.registry().status(handle_b.model_id).is_some());
    assert!(
        service.registry().status(handle_a.model_id).is_none(),
        "LRU victim must be gone entirely"
    );

    // The evicted model is now a typed rejection; the survivor still serves.
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let x = demo_vector(2, WIDTH, SEED ^ 0x31);
    match client.secure_matmul_model(handle_a, std::slice::from_ref(&x)) {
        Err(AcceleratorError::Rejected { reason }) => {
            assert!(reason.contains("model"), "unexpected reason: {reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let (ys, _) = client
        .secure_matmul_model(handle_b, std::slice::from_ref(&x))
        .expect("survivor job");
    assert_eq!(ys[0], plain_matvec(&weights_b, &x));
    client.goodbye();
    service.shutdown();
}

#[test]
fn rotted_prepared_stream_is_rejected_and_healed() {
    // Two streams in stock; rot one bit of the first stream's material
    // *after* its fill-time digest was recorded — exactly what a DRAM
    // fault or cache corruption would do.
    let service = demo_service(|cfg| {
        cfg.registry_target_stock = 2;
        cfg.step_timeout = Some(Duration::from_millis(200));
    });
    let weights = model_weights(3, 3, 23);
    let handle = service
        .put_model(61, weights.clone())
        .expect("register")
        .handle();
    service.prefill_models();
    assert_eq!(service.registry().stats().streams_ready, 2);
    assert!(
        service.registry().rot_first_stream_for_tests(61),
        "a stocked stream must exist to rot"
    );

    // The serving layer re-verifies the fill-time digest before any
    // material frame leaves: the rotted stream becomes a typed
    // REJECT(integrity), which the resilient client heals by restarting
    // the job — landing on the healthy second stream.
    let svc = service.clone();
    let mut client = ResilientClient::new(
        move || Ok(svc.connect()),
        WIDTH,
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 5,
            max_backoff_ms: 50,
            step_timeout: Some(Duration::from_millis(500)),
            jitter_seed: SEED ^ 61,
            integrity_retries: 4,
        },
    )
    .with_model(handle);
    let x = demo_vector(3, WIDTH, SEED ^ 0x61);
    let (y, _) = client.secure_matvec(&x).expect("rot must heal, not fail");
    assert_eq!(y, plain_matvec(&weights, &x), "healed result must verify");
    assert!(
        client.stats().integrity_detected >= 1,
        "the rot must be *detected*, not silently absorbed: {:?}",
        client.stats()
    );
    assert_eq!(client.stats().integrity_healed, 1);
    drop(client);

    let reg = service.registry().stats();
    assert!(
        reg.streams_integrity_dropped >= 1,
        "the dropped stream must be counted: {reg:?}"
    );
    let stats = service.shutdown();
    assert!(
        stats.integrity_rejects >= 1,
        "the server must count the digest mismatch: {stats:?}"
    );
}

fn journaled_service(dir: &Path, mutate: impl FnOnce(&mut ServeConfig)) -> GcService {
    demo_service(|cfg| {
        let mut journal = JournalConfig::new(dir);
        journal.fsync = false;
        cfg.journal = Some(journal);
        mutate(cfg);
    })
}

#[test]
fn models_replay_from_journal_across_restart() {
    let dir = temp_dir("replay");
    let weights = model_weights(3, 3, 17);

    // First life: register two models over the wire, evict one.
    {
        let service = journaled_service(&dir, |_| {});
        let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
        client.put_model(41, &weights).expect("put 41");
        client
            .put_model(42, &model_weights(2, 2, 19))
            .expect("put 42");
        client.evict_model(42).expect("evict 42");
        client.goodbye();
        service.shutdown();
    }

    // Second life: 41 replays (no re-PUT needed), 42's tombstone held.
    let service = journaled_service(&dir, |_| {});
    assert_eq!(
        service.journal_replay().models,
        1,
        "one live model expected"
    );
    let status = service.registry().status(41).expect("model 41 must replay");
    assert_eq!((status.rows, status.cols), (3, 3));
    assert!(
        service.registry().status(42).is_none(),
        "tombstone must hold"
    );

    let handle = ModelHandle {
        model_id: 41,
        rows: 3,
        cols: 3,
    };
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let x = demo_vector(3, WIDTH, SEED ^ 0x41);
    let (ys, _) = client
        .secure_matmul_model(handle, std::slice::from_ref(&x))
        .expect("job against replayed model");
    assert_eq!(ys[0], plain_matvec(&weights, &x));
    client.goodbye();
    let stats = service.shutdown();
    assert_eq!(stats.sessions_errored, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one job over an in-memory session with every frame recorded and
/// returns the sealed ROUNDS frames the server sent, one per element, plus
/// the results. A session receives ACCEPT, READY, then CIPHER and ROUNDS
/// per element, then STATS.
fn served_rounds(
    service: &GcService,
    model: Option<ModelHandle>,
    xs: &[Vec<i64>],
) -> (Vec<Bytes>, Vec<Vec<i64>>) {
    let wire = RecordingTransport::new(service.connect());
    let mut client =
        RemoteClient::connect_with_trace(wire, WIDTH, TraceContext::none()).expect("handshake");
    let (ys, _) = match model {
        Some(handle) => client.secure_matmul_model(handle, xs),
        None => client.secure_matmul(xs),
    }
    .expect("served job");
    let received = client.goodbye().received_frames().to_vec();
    let elements = (received.len() - 3) / 2;
    let rounds = (0..elements).map(|i| received[3 + 2 * i].clone()).collect();
    (rounds, ys)
}

fn sealed_rounds(elements: &[MaterializedElement]) -> Vec<Bytes> {
    elements
        .iter()
        .map(|e| seal_frame(e.rounds_frame.clone()))
        .collect()
}

proptest! {
    // Each case boots three services; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One job path: collected-then-materialized, filled directly, garbled
    /// by an in-process unit bank of any width, or served — as a
    /// session-default job, a starved fallback, or a warm prepared stream —
    /// a matrix row at a given seed becomes the same ROUNDS frame and the
    /// same OT pairs, and every served result is the plaintext product
    /// (the whole offline/online split changes nothing a client can see).
    #[test]
    fn every_path_produces_the_same_elements(
        rows in 1usize..6,
        cols in 1usize..5,
        columns in 1u32..3,
        seed: u64,
    ) {
        let config = AcceleratorConfig::new(WIDTH);
        let weights = demo_weights(rows, cols, WIDTH, seed);
        let xs: Vec<Vec<i64>> = (0..u64::from(columns))
            .map(|j| demo_vector(cols, WIDTH, seed ^ (j << 7)))
            .collect();
        let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();

        // Off the wire: the two forms of the producer, then the in-process
        // servers, which garble one pass (elements 0..rows).
        let filled = fill_stream(&config, &weights, seed, columns).expect("fill");
        let collected = garble_matvec_job(&config, &weights, seed, columns).expect("garble");
        prop_assert_eq!(&materialize_job(&collected), &filled);
        let first_pass = &filled.elements[..rows];
        for units in 1..=3 {
            let mut bank = MultiUnitServer::new(&config, weights.clone(), units, seed);
            let (messages, pairs, _) = bank.garble_matvec();
            for (r, elem) in first_pass.iter().enumerate() {
                prop_assert_eq!(&encode_round_burst(&messages[r]), &elem.rounds_frame);
                prop_assert_eq!(&pairs[r], &elem.pairs);
            }
        }
        // The single-unit server exposes its result and byte accounting.
        let (mut server, mut client) = connect(&config, weights.clone(), seed);
        let (y, transcript) = secure_matvec(&mut server, &mut client, &xs[0]);
        prop_assert_eq!(&y, &expected[0]);
        prop_assert_eq!(
            transcript.material_bytes,
            first_pass.iter().map(|e| e.material_bytes).sum::<u64>()
        );

        // On the wire. A session-default job runs at the session's job
        // seed; a model job at its generation's seed, which a registry
        // with the same base seed reproduces.
        let default_service =
            GcService::start(ServeConfig::new(config.clone(), weights.clone(), seed));
        let (rounds, ys) = served_rounds(&default_service, None, &xs);
        default_service.shutdown();
        let job_seed = derive_seed(derive_seed(seed, 0), 0x100);
        let reference = fill_stream(&config, &weights, job_seed, columns).expect("fill");
        prop_assert_eq!(rounds, sealed_rounds(&reference.elements));
        prop_assert_eq!(&ys, &expected);

        let starved = RegistryConfig { target_stock: 0, ..RegistryConfig::default() };
        let probe = ModelRegistry::new(config.clone(), starved, seed);
        probe.register(51, weights.clone()).expect("register");
        let Some(Acquired::Starved(ticket)) = probe.acquire(51, columns) else {
            panic!("an empty stock cuts a ticket");
        };
        let reference = fill_stream(&config, &weights, ticket.seed, columns).expect("fill");
        // A stocked stream is one matvec, so the warm serve is the first pass.
        for (stock, xs) in [(0, &xs[..]), (1, &xs[..1])] {
            let default_model = demo_weights(ROWS, COLS, WIDTH, SEED);
            let mut cfg = ServeConfig::new(config.clone(), default_model, seed);
            cfg.registry_target_stock = stock;
            let service = GcService::start(cfg);
            let handle = service.put_model(51, weights.clone()).expect("register").handle();
            service.prefill_models();
            let (rounds, ys) = served_rounds(&service, Some(handle), xs);
            let served = service.registry().stats();
            service.shutdown();
            prop_assert_eq!((served.served_fallback, served.served_prepared), (1 - stock as u64, stock as u64));
            prop_assert_eq!(rounds, sealed_rounds(&reference.elements[..rows * xs.len()]));
            prop_assert_eq!(ys, &expected[..xs.len()]);
        }
    }
}
