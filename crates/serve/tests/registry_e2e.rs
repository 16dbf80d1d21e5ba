//! End-to-end prepared-model registry tests: the v5 model lifecycle over
//! the wire, warm-stock serving with plaintext verification, the typed
//! fallback when stock runs dry, byte-budget eviction, journal replay of
//! models across a restart, and a prepared-vs-inline equivalence proptest.

use std::path::{Path, PathBuf};
use std::time::Duration;

use max_gc::FramedTcp;
use max_registry::garble_stream;
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, JournalConfig, ServeConfig,
};
use maxelerator::{
    AcceleratorConfig, AcceleratorError, ModelHandle, RemoteClient, ResilientClient, RetryPolicy,
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
fn tight_budget_evicts_lru_model_whole() {
    // Size the budget from a real stream so ~2.5 streams fit: stocking
    // model B (2 streams) must push model A's stock out entirely.
    let weights_a = model_weights(2, 2, 11);
    let weights_b = model_weights(2, 2, 13);
    let (probe, _) =
        garble_stream(&AcceleratorConfig::new(WIDTH), &weights_a, SEED, 16).expect("probe stream");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A job served from a warm prepared stream and the same job garbled
    /// inline (as the session default model) decode to the same plaintext
    /// — the whole offline/online split changes nothing a client can see.
    #[test]
    fn prepared_and_inline_jobs_agree_on_plaintext(
        rows in 1usize..4,
        cols in 1usize..4,
        tweak: u64,
        tile_rows in 1usize..4,
    ) {
        let weights = demo_weights(rows, cols, WIDTH, SEED ^ tweak);
        let x = demo_vector(cols, WIDTH, SEED ^ tweak ^ 0x77);
        let expected = plain_matvec(&weights, &x);

        // Inline: the matrix is the session's default model.
        let inline_service = GcService::start(ServeConfig::new(
            AcceleratorConfig::new(WIDTH),
            weights.clone(),
            SEED ^ tweak,
        ));
        let mut client =
            RemoteClient::connect(inline_service.connect(), WIDTH).expect("handshake");
        let (y_inline, _) = client.secure_matvec(&x).expect("inline job");
        client.goodbye();
        inline_service.shutdown();

        // Prepared: the same matrix registered as a model, stock filled
        // ahead of the job, served by replaying materialized frames.
        let prepared_service = demo_service(|cfg| {
            cfg.registry_target_stock = 1;
            cfg.registry_tile_rows = tile_rows;
        });
        let handle = prepared_service
            .put_model(51, weights)
            .expect("register")
            .handle();
        prepared_service.prefill_models();
        prop_assert!(prepared_service.registry().stats().streams_ready >= 1);
        let mut client =
            RemoteClient::connect(prepared_service.connect(), WIDTH).expect("handshake");
        let (ys, _) = client
            .secure_matmul_model(handle, std::slice::from_ref(&x))
            .expect("prepared job");
        client.goodbye();
        let reg = prepared_service.registry().stats();
        prop_assert!(reg.served_prepared >= 1, "job must come from warm stock");
        prepared_service.shutdown();

        prop_assert_eq!(&ys[0], &expected);
        prop_assert_eq!(&y_inline, &expected);
    }
}
