//! Property tests over the full stack: random models, random client
//! vectors, random widths — the secure result must always equal plaintext,
//! and the threaded multi-unit pipeline must be transcript-identical to the
//! single-unit server.

use max_serve::{GcService, RecordingTransport, ServeConfig};
use max_telemetry::{Recorder, TraceContext};
use maxelerator::{
    connect, connect_multi, secure_matvec, secure_matvec_multi, AcceleratorConfig,
    AcceleratorError, Maxelerator, ResilientClient, RetryPolicy, ScheduledEvaluator,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn secure_matvec_always_matches(
        rows in 1usize..3,
        cols in 1usize..5,
        seed in 0u64..1_000_000,
        values in prop::collection::vec(-128i64..128, 16),
        xs in prop::collection::vec(-128i64..128, 4),
    ) {
        let config = AcceleratorConfig::new(8);
        let w: Vec<Vec<i64>> = (0..rows)
            .map(|r| (0..cols).map(|c| values[(r * cols + c) % values.len()]).collect())
            .collect();
        let x: Vec<i64> = (0..cols).map(|c| xs[c % xs.len()]).collect();
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let (mut server, mut client) = connect(&config, w, seed);
        let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(transcript.rounds, (rows * cols) as u64);
    }

    #[test]
    fn accelerator_dot_matches_for_random_widths(
        b_choice in 0usize..3,
        seed in 0u64..1_000_000,
        pairs in prop::collection::vec((-100i64..100, -100i64..100), 1..6),
    ) {
        let b = [8usize, 10, 16][b_choice];
        let config = AcceleratorConfig::new(b);
        let a: Vec<i64> = pairs.iter().map(|p| p.0).collect();
        let x: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let expected: i64 = pairs.iter().map(|p| p.0 * p.1).sum();

        let mut accel = Maxelerator::new(config.clone(), seed);
        let mut client = ScheduledEvaluator::new(&config);
        let msgs = accel.garble_job(&a, true);
        let mut result = None;
        for (msg, &xl) in msgs.iter().zip(&x) {
            let labels: Vec<max_crypto::Block> = accel
                .ot_pairs(msg.round)
                .unwrap()
                .iter()
                .zip(config.encode_x(xl))
                .map(|(&(m0, m1), bit)| if bit { m1 } else { m0 })
                .collect();
            result = client.evaluate_round(msg, &labels).unwrap();
        }
        prop_assert_eq!(result, Some(expected));
    }

    #[test]
    fn multi_unit_transcript_identical_to_single_unit(
        rows in 0usize..4,
        cols in 1usize..4,
        units in 1usize..6,
        b_choice in 0usize..2,
        seed in 0u64..1_000_000,
        values in prop::collection::vec(-100i64..100, 16),
        xs in prop::collection::vec(-100i64..100, 4),
    ) {
        // Covers units > rows (rows can be 0..3 with up to 5 units) and the
        // empty matrix (rows = 0 forces an empty x as well).
        let b = [8usize, 10][b_choice];
        let config = AcceleratorConfig::new(b);
        let w: Vec<Vec<i64>> = (0..rows)
            .map(|r| (0..cols).map(|c| values[(r * cols + c) % values.len()]).collect())
            .collect();
        let x: Vec<i64> = if rows == 0 {
            Vec::new()
        } else {
            (0..cols).map(|c| xs[c % xs.len()]).collect()
        };

        let (mut single, mut single_client) = connect(&config, w.clone(), seed);
        let (want, st) = secure_matvec(&mut single, &mut single_client, &x);

        let (mut multi, mut multi_client) = connect_multi(&config, w, units, seed);
        let (got, mt, timing) =
            secure_matvec_multi(&mut multi, &mut multi_client, &x).unwrap();

        prop_assert_eq!(got, want);
        prop_assert_eq!(mt.elements, st.elements);
        prop_assert_eq!(mt.rounds, st.rounds);
        prop_assert_eq!(mt.tables, st.tables);
        prop_assert_eq!(mt.material_bytes, st.material_bytes);
        prop_assert_eq!(mt.ot_bytes, st.ot_bytes);
        prop_assert_eq!(mt.ot_upload_bytes, st.ot_upload_bytes);
        prop_assert_eq!(timing.units, units);
    }
}

/// Runs one served job end-to-end under `trace`, recording every wire
/// frame. With `observed` the full observability stack is live — a server
/// recorder (queue-wait/garble/stream spans), a per-session flight
/// recorder wrapping the transport, and a client recorder on the
/// [`ResilientClient`]; without it, none of the three exist and the
/// session flight ring is disabled outright.
fn served_job_frames(
    rows: usize,
    cols: usize,
    seed: u64,
    x: &[i64],
    trace: TraceContext,
    observed: bool,
) -> (RecordingTransport<max_gc::channel::Duplex>, Vec<i64>) {
    let weights = max_serve::demo_weights(rows, cols, 8, seed);
    let mut cfg = ServeConfig::new(AcceleratorConfig::new(8), weights, seed);
    // Resume tokens are minted from OS entropy by default; pin them so the
    // ACCEPT frames of two independent runs stay bit-comparable.
    cfg.deterministic_resume_tokens = true;
    if observed {
        cfg.recorder = Some(Arc::new(Recorder::new()));
    } else {
        cfg.flight_capacity = 0;
    }
    let service = GcService::start(cfg);
    let svc = service.clone();
    let mut client = ResilientClient::new(
        move || Ok::<_, AcceleratorError>(RecordingTransport::new(svc.connect())),
        8,
        RetryPolicy::default(),
    )
    .with_trace(trace);
    if observed {
        client = client.with_recorder(Arc::new(Recorder::new()));
    }
    let (y, _) = client.secure_matvec(x).expect("served job");
    let recording = client.goodbye().expect("live transport");
    service.shutdown();
    (recording, y)
}

proptest! {
    // Each case boots two full services; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tracing_leaves_served_transcripts_bit_identical(
        rows in 1usize..3,
        cols in 1usize..4,
        seed in 0u64..1_000_000,
        trace_hi in 0u64..u64::MAX,
        trace_lo in 1u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        values in prop::collection::vec(-100i64..100, 4),
    ) {
        // The trace layer must be observably side-effect-free on the wire:
        // with the *same* trace context in the HELLO, a run with recorders
        // and the flight ring attached produces byte-identical frames to a
        // run with all of it absent. (The context itself is on the wire by
        // design, which is why both runs pin the same one.)
        let x: Vec<i64> = (0..cols).map(|c| values[c % values.len()]).collect();
        // `Range<u128>` is not a proptest strategy; assemble the 128-bit id
        // from two independent u64 halves (the low half nonzero keeps the
        // whole id nonzero, i.e. traced).
        let trace =
            TraceContext::from_ids((u128::from(trace_hi) << 64) | u128::from(trace_lo), span_id);
        let (rec_a, y_a) = served_job_frames(rows, cols, seed, &x, trace, false);
        let (rec_b, y_b) = served_job_frames(rows, cols, seed, &x, trace, true);
        prop_assert_eq!(&y_a, &y_b);
        prop_assert_eq!(rec_a.sent_frames(), rec_b.sent_frames());
        prop_assert_eq!(rec_a.received_frames(), rec_b.received_frames());

        // And untraced sessions really do put all-zeros on the wire: between
        // a traced and an untraced run, exactly two frames differ — the HELLO
        // that carries the context out, and the final STATS that echoes the
        // trace id back. Everything in between is byte-identical.
        let (rec_c, y_c) =
            served_job_frames(rows, cols, seed, &x, TraceContext::none(), true);
        prop_assert_eq!(y_c, y_b);
        let n = rec_b.received_frames().len();
        prop_assert_eq!(rec_c.received_frames().len(), n);
        prop_assert_eq!(
            &rec_c.received_frames()[..n - 1],
            &rec_b.received_frames()[..n - 1]
        );
        prop_assert_ne!(
            &rec_c.received_frames()[n - 1],
            &rec_b.received_frames()[n - 1],
            "STATS echoes the trace id"
        );
        prop_assert_ne!(
            &rec_c.sent_frames()[0],
            &rec_b.sent_frames()[0],
            "HELLO carries the context"
        );
        prop_assert_eq!(&rec_c.sent_frames()[1..], &rec_b.sent_frames()[1..]);
    }
}
