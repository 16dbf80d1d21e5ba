use super::client::evaluate_burst;
use super::codec::{
    decode_ext, encode_ext, lend_round_burst, TAG_EXT, TAG_HELLO, TAG_JOB, TAG_METRICS_REPLY,
    TAG_MODEL_PUT,
};
use super::job::stream_intact;
use super::*;
use crate::server::CloudServer;
use crate::{AcceleratorConfig, AcceleratorError};
use bytes::{BufMut, Bytes, BytesMut};
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::{open_frame, seal_frame, Duplex, SEAL_BYTES};
use max_gc::{FaultSpec, FaultTransport, Transport};
use max_ot::iknp;
use max_telemetry::TraceContext;

/// Serves one session on one unit until a REJECT, BYE or a disconnect:
/// the in-process server's own loop, as session 0 of `base_seed`.
fn serve<T: Transport>(
    mut transport: T,
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    base_seed: u64,
) -> Result<(), AcceleratorError> {
    let mut server = CloudServer::new(config, weights.to_vec(), base_seed);
    while server.serve_next(&mut transport)? {}
    Ok(())
}

/// Reads HELLO and answers it with the shared server half as session 0 of
/// `base_seed`: the session seed, the OT sender and the client's trace.
fn accept<T: Transport>(
    transport: &mut T,
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    base_seed: u64,
) -> (u64, iknp::OtExtSender, TraceContext) {
    let hello = recv_control(transport).unwrap();
    let ControlMsg::Hello { trace, .. } = hello else {
        panic!("expected HELLO, got {hello:?}");
    };
    let seed = derive_seed(base_seed, 0);
    let token = deterministic_resume_token(seed);
    let sender = accept_hello(transport, &hello, config, weights, 0, seed, token).unwrap();
    (seed, sender.expect("HELLO accepted"), trace)
}

fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
    w.iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

#[test]
fn remote_matvec_over_duplex_matches_plaintext() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![1i64, -2, 3], vec![-4, 5, 6], vec![7, 0, -8]];
    let x = vec![9i64, -10, 11];
    let expected = plain_matvec(&w, &x);
    let (server_end, client_end) = Duplex::pair();
    let server = {
        let config = config.clone();
        let w = w.clone();
        std::thread::spawn(move || serve(server_end, &config, &w, 42))
    };
    let mut client = RemoteClient::connect(client_end, 8).unwrap();
    assert_eq!(client.rows(), 3);
    assert_eq!(client.cols(), 3);
    let (y, t) = client.secure_matvec(&x).unwrap();
    assert_eq!(y, expected);
    assert_eq!(t.elements, 3);
    assert_eq!(t.rounds, 9);
    assert!(t.tables > 0);
    assert!(t.material_bytes > 0);
    assert!(t.ot_bytes > 0);
    assert!(t.ot_upload_bytes > 0);
    assert!(t.fabric_cycles > 0);
    // Keep-alive between jobs answers with the same nonce.
    client.ping(0xfeed_f00d).unwrap();
    // Second job on the same session still decodes correctly.
    let (y2, _) = client.secure_matvec(&[1, 1, 1]).unwrap();
    assert_eq!(y2, plain_matvec(&w, &[1, 1, 1]));
    client.goodbye();
    server.join().unwrap().unwrap();
}

#[test]
fn remote_matmul_over_duplex_matches_plaintext() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![2i64, -3], vec![4, 5]];
    let cols = vec![vec![1i64, 2], vec![-7, 8], vec![0, -1]];
    let (server_end, client_end) = Duplex::pair();
    let server = {
        let config = config.clone();
        let w = w.clone();
        std::thread::spawn(move || serve(server_end, &config, &w, 7))
    };
    let mut client = RemoteClient::connect(client_end, 8).unwrap();
    let (y, t) = client.secure_matmul(&cols).unwrap();
    for (j, column) in cols.iter().enumerate() {
        assert_eq!(y[j], plain_matvec(&w, column), "column {j}");
    }
    assert_eq!(t.elements, 6);
    client.goodbye();
    server.join().unwrap().unwrap();
}

#[test]
fn version_mismatch_is_rejected() {
    // The previous version (whose digests fold different things, so it
    // must never get as far as an EXT check) and a bogus future one,
    // both spoken by hand.
    for version in [PROTOCOL_VERSION - 1, 999] {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64]];
        let (server_end, mut client_end) = Duplex::pair();
        let server = std::thread::spawn(move || serve(server_end, &config, &w, 1));
        send_control(
            &mut client_end,
            &ControlMsg::Hello {
                version,
                bit_width: 8,
                trace: TraceContext::none(),
            },
        )
        .unwrap();
        match recv_control(&mut client_end).unwrap() {
            ControlMsg::Reject { code, detail } => {
                assert_eq!(code, REJECT_VERSION);
                assert_eq!(detail, u32::from(PROTOCOL_VERSION));
                assert_eq!(reject_reason(code), "protocol version mismatch");
            }
            other => panic!("expected REJECT, got {other:?}"),
        }
        server.join().unwrap().unwrap();
    }
}

#[test]
fn width_mismatch_surfaces_as_rejected_error() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![1i64]];
    let (server_end, client_end) = Duplex::pair();
    let server = std::thread::spawn(move || serve(server_end, &config, &w, 1));
    let err = RemoteClient::connect(client_end, 16).unwrap_err();
    assert_eq!(
        err,
        AcceleratorError::Rejected {
            reason: "unsupported bit width"
        }
    );
    server.join().unwrap().unwrap();
}

#[test]
fn mid_job_disconnect_is_a_typed_error_server_side() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![1i64, 2]];
    let (server_end, client_end) = Duplex::pair();
    let server = {
        let config = config.clone();
        std::thread::spawn(move || serve(server_end, &config, &w, 9))
    };
    let mut client = RemoteClient::connect(client_end, 8).unwrap();
    // Request a job, then vanish before sending EXT.
    send_control(
        &mut client.transport,
        &ControlMsg::JobRequest {
            columns: 1,
            model_id: None,
        },
    )
    .unwrap();
    match recv_control(&mut client.transport).unwrap() {
        ControlMsg::Ready { .. } => {}
        other => panic!("expected READY, got {other:?}"),
    }
    drop(client);
    assert_eq!(server.join().unwrap(), Err(AcceleratorError::Disconnected));
}

/// Streams `job` from `start` with the sender and digest of that boundary;
/// returns the outcome and the newest boundary the server reached.
fn stream_from<T: Transport>(
    transport: &mut T,
    job: &MaterializedJob,
    mut sender: iknp::OtExtSender,
    mut digest: TranscriptDigest,
    trace: TraceContext,
    start: usize,
) -> (Result<(), AcceleratorError>, Option<usize>) {
    let mut reached = None;
    let result = stream_materialized_job_from(
        transport,
        &JobSource::Materialized {
            expected_digest: stream_digest(job),
            job: job.clone(),
        },
        &mut sender,
        &mut digest,
        0,
        trace,
        start,
        |boundary| reached = Some(boundary),
    );
    (result, reached)
}

/// The lookahead's failure path: when EXT(e + 1) cannot be sent, the client
/// still evaluates element `e` (its ROUNDS is in hand) and reports the
/// send error. It resumes at boundary `e`, within the lookahead's reach of
/// the server's newest boundary, with the digest the server verified there;
/// the server derives its sender at `e` from the job's start cursor, and
/// the RESUME finishes with the uninterrupted result.
#[test]
fn a_failed_lookahead_ext_send_finishes_the_element_and_resumes() {
    const SEED: u64 = 0x100C;
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![1i64, -2, 3], vec![-4, 5, 6]];
    let xs = vec![vec![9i64, -10, 11], vec![3, 0, -7]];
    let rows = w.len();
    let total = xs.len() * rows;
    let transfers = w[0].len() * config.bit_width;

    let (server_end, client_end) = Duplex::pair();
    let server = {
        let (config, w) = (config.clone(), w.clone());
        std::thread::spawn(move || serve(server_end, &config, &w, SEED))
    };
    let mut client = RemoteClient::connect(client_end, 8).unwrap();
    let (reference, ref_transcript) = client.secure_matmul(&xs).unwrap();
    client.goodbye();
    server.join().unwrap().unwrap();

    for e in 0..total - 1 {
        let (server_end, client_end) = Duplex::pair();
        let server = {
            let (config, w) = (config.clone(), w.clone());
            std::thread::spawn(move || {
                let mut transport = server_end;
                let (session_seed, sender, trace) = accept(&mut transport, &config, &w, SEED);
                let ControlMsg::JobRequest { columns, .. } = recv_control(&mut transport).unwrap()
                else {
                    panic!("expected JOB");
                };
                let job = fill_stream(&config, &w, derive_job_seed(session_seed, 0), columns);
                let start = sender.export_state();
                let (result, reached) = stream_from(
                    &mut transport,
                    &job,
                    sender.clone(),
                    TranscriptDigest::new(),
                    trace,
                    0,
                );
                assert_eq!(result, Err(AcceleratorError::Disconnected));
                (job, trace, sender, start, reached)
            })
        };
        // HELLO, ACCEPT, JOB, READY, then three frame events per element:
        // the send of EXT(e + 1) is the first event past the cut.
        let cut = 4 + 3 * (e as u64 + 1);
        let wire = FaultTransport::new(client_end, FaultSpec::none(SEED).with_cut_after(cut));
        let mut client = RemoteClient::connect(wire, 8).unwrap();
        let mut progress = client.start_job(&xs).unwrap();
        let err = client.run_job(&mut progress).unwrap_err();
        assert_eq!(err, AcceleratorError::Disconnected, "e={e}");
        assert_eq!(progress.elements_done(), e + 1, "e={e}");
        assert_eq!(
            progress.y[e / rows].last(),
            Some(&reference[e / rows][e % rows]),
            "e={e}: element e evaluated"
        );
        let (dead, state) = client.into_parts();
        drop(dead);
        let (job, trace, mut sender, start, reached) = server.join().unwrap();

        let (server_end, client_end) = Duplex::pair();
        let server = std::thread::spawn(move || {
            let mut transport = server_end;
            let ControlMsg::Resume {
                boundary, digest, ..
            } = recv_control(&mut transport).unwrap()
            else {
                panic!("expected RESUME");
            };
            let (boundary, high_water) = (boundary as usize, reached.expect("READY went out"));
            assert_eq!(boundary, e, "the last evaluated element's boundary");
            assert!(boundary <= high_water && high_water <= boundary + 2);
            sender.import_state(&start.advanced(boundary as u64, transfers));
            let digest = TranscriptDigest::import(digest.0, digest.1);
            stream_from(&mut transport, &job, sender, digest, trace, boundary)
                .0
                .unwrap();
        });
        let mut client = RemoteClient::reattach(client_end, state);
        client.resume_job(&mut progress).unwrap();
        assert_eq!(
            progress.elements_done(),
            e,
            "e={e}: element e is served again"
        );
        client.run_job(&mut progress).unwrap();
        server.join().unwrap();
        let (ys, transcript) = progress.into_result();
        assert_eq!(ys, reference, "e={e}");
        assert_eq!(transcript, ref_transcript, "e={e}");
    }
}

/// Every control message, JOB and METRICS reply in both of their shapes.
fn sample_control_msgs() -> Vec<ControlMsg> {
    vec![
        ControlMsg::Hello {
            version: PROTOCOL_VERSION,
            bit_width: 16,
            trace: TraceContext::from_ids(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, 0x1dea),
        },
        ControlMsg::Accept {
            session_id: 7,
            ot_seed: 0xdead_beef,
            resume_token: 0x5eed_cafe,
            rows: 3,
            cols: 4,
            bit_width: 16,
            acc_width: 40,
            signed: true,
            freq_mhz_bits: 200.0f64.to_bits(),
        },
        ControlMsg::Reject {
            code: REJECT_DRAINING,
            detail: 0,
        },
        ControlMsg::Resume {
            session_id: 7,
            resume_token: 0x5eed_cafe,
            job_id: 2,
            columns: 4,
            boundary: 9,
            digest: {
                let mut digest = TranscriptDigest::new();
                digest.fold(b"EXT(9)");
                digest.export()
            },
            trace: TraceContext::from_ids(u128::MAX, u64::MAX),
        },
        ControlMsg::Ping { nonce: 0xabad_1dea },
        ControlMsg::Pong { nonce: 0xabad_1dea },
        ControlMsg::JobRequest {
            columns: 2,
            model_id: None,
        },
        ControlMsg::JobRequest {
            columns: 1,
            model_id: Some(0x0de1),
        },
        ControlMsg::ModelPut {
            model_id: 3,
            rows: 2,
            cols: 3,
            weights: vec![1, -2, 3, -4, 5, -6],
        },
        ControlMsg::ModelStat {
            status: ModelStatus {
                model_id: 3,
                rows: 2,
                cols: 3,
                stock: 4,
                stock_bytes: 8192,
                served_prepared: 7,
                served_fallback: 1,
                generation: 12,
            },
        },
        ControlMsg::ModelInfo { model_id: 3 },
        ControlMsg::ModelEvict { model_id: u64::MAX },
        ControlMsg::Busy {
            retry_after_ms: 15,
            queue_depth: 9,
        },
        ControlMsg::Ready { job_id: 11 },
        ControlMsg::Stats {
            fabric_cycles: 12345,
            trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            digest: *b"0123456789abcdef",
        },
        ControlMsg::MetricsRequest,
        ControlMsg::MetricsReply {
            body: "{\"schema\":\"maxelerator-metrics-v1\"}".to_string(),
        },
        ControlMsg::MetricsReply {
            body: String::new(),
        },
        ControlMsg::Bye,
    ]
}

#[test]
fn control_frames_round_trip() {
    for msg in &sample_control_msgs() {
        assert_eq!(&ControlMsg::decode(msg.encode()).unwrap(), msg);
    }
}

#[test]
fn every_proper_prefix_is_a_typed_error() {
    // Each decoder reads its fields through the checked reader, so a frame
    // cut anywhere is refused by the field it cut, never read past.
    for msg in &sample_control_msgs() {
        let frame = msg.encode();
        for cut in 0..frame.len() {
            let decoded = ControlMsg::decode(Bytes::from(&frame[..cut]));
            assert!(
                matches!(decoded, Err(AcceleratorError::Protocol { .. })),
                "{msg:?} cut to {cut} of {} bytes: {decoded:?}",
                frame.len()
            );
        }
    }
    let (_, mut receiver) = iknp::setup_pair(0x0e47);
    let (ext, _) = receiver.prepare(&[true, false, true]);
    let mut frame = encode_ext(&ext).to_vec();
    frame.extend_from_slice(b"digest trailer!!");
    assert_eq!(
        decode_ext(Bytes::from(frame.clone())),
        Ok((ext, *b"digest trailer!!"))
    );
    for cut in 0..frame.len() {
        let decoded = decode_ext(Bytes::from(&frame[..cut]));
        assert!(
            matches!(decoded, Err(AcceleratorError::Protocol { .. })),
            "EXT cut to {cut} of {} bytes: {decoded:?}",
            frame.len()
        );
    }
    // A flag byte is 0 or 1: ACCEPT's `signed` refuses 2.
    let accept = sample_control_msgs()
        .into_iter()
        .find(|msg| matches!(msg, ControlMsg::Accept { .. }))
        .unwrap();
    let mut accept = accept.encode().to_vec();
    accept[41] = 2; // tag, three u64 and four u32 fields, then `signed`.
    assert_eq!(
        ControlMsg::decode(Bytes::from(accept)),
        Err(AcceleratorError::Protocol {
            what: "ACCEPT signed flag"
        })
    );
}

#[test]
fn malformed_control_frames_are_typed_errors() {
    let empty = BytesMut::with_capacity(0);
    assert!(matches!(
        ControlMsg::decode(empty.freeze()),
        Err(AcceleratorError::Protocol { .. })
    ));
    let mut unknown = BytesMut::with_capacity(1);
    unknown.put_u8(200);
    assert!(matches!(
        ControlMsg::decode(unknown.freeze()),
        Err(AcceleratorError::Protocol { .. })
    ));
    let mut truncated = BytesMut::with_capacity(2);
    truncated.put_u8(TAG_HELLO);
    truncated.put_u8(1);
    assert!(matches!(
        ControlMsg::decode(truncated.freeze()),
        Err(AcceleratorError::Protocol { .. })
    ));
    let mut trailing = ControlMsg::Bye.encode().to_vec();
    trailing.push(0);
    assert!(matches!(
        ControlMsg::decode(Bytes::from(trailing)),
        Err(AcceleratorError::Protocol { .. })
    ));
    // A v3-sized HELLO (6-byte payload, no trace) is truncated under v4.
    let mut v3_hello = BytesMut::with_capacity(7);
    v3_hello.put_u8(TAG_HELLO);
    v3_hello.put_u16(3);
    v3_hello.put_u32(8);
    assert!(matches!(
        ControlMsg::decode(v3_hello.freeze()),
        Err(AcceleratorError::Protocol {
            what: "HELLO payload"
        })
    ));
}

#[test]
fn hostile_metrics_replies_are_typed_errors() {
    // Declared length beyond the cap dies before allocation.
    let mut big = BytesMut::with_capacity(5);
    big.put_u8(TAG_METRICS_REPLY);
    big.put_u32((MAX_METRICS_BYTES + 1) as u32);
    assert!(matches!(
        ControlMsg::decode(big.freeze()),
        Err(AcceleratorError::Protocol {
            what: "METRICS reply too large"
        })
    ));
    // Declared length longer than the frame.
    let mut short = BytesMut::with_capacity(8);
    short.put_u8(TAG_METRICS_REPLY);
    short.put_u32(5);
    short.put_slice(b"ab");
    assert!(matches!(
        ControlMsg::decode(short.freeze()),
        Err(AcceleratorError::Protocol {
            what: "METRICS reply body"
        })
    ));
    // Body that is not UTF-8.
    let mut bad = BytesMut::with_capacity(8);
    bad.put_u8(TAG_METRICS_REPLY);
    bad.put_u32(2);
    bad.put_slice(&[0xff, 0xfe]);
    assert!(matches!(
        ControlMsg::decode(bad.freeze()),
        Err(AcceleratorError::Protocol {
            what: "METRICS reply is not UTF-8"
        })
    ));
    // Trailing bytes after the declared body.
    let mut trailing = BytesMut::with_capacity(8);
    trailing.put_u8(TAG_METRICS_REPLY);
    trailing.put_u32(1);
    trailing.put_slice(b"xy");
    assert!(matches!(
        ControlMsg::decode(trailing.freeze()),
        Err(AcceleratorError::Protocol {
            what: "control frame trailing bytes"
        })
    ));
}

#[test]
fn hostile_model_frames_are_typed_errors() {
    // Declared shape beyond the element cap dies before allocation.
    let mut big = BytesMut::with_capacity(17);
    big.put_u8(TAG_MODEL_PUT);
    big.put_u64(1);
    big.put_u32(u32::MAX);
    big.put_u32(u32::MAX);
    assert!(matches!(
        ControlMsg::decode(big.freeze()),
        Err(AcceleratorError::Protocol {
            what: "MODEL_PUT shape"
        })
    ));
    // Zero-row and zero-column matrices are refused outright.
    for (rows, cols) in [(0u32, 3u32), (3, 0)] {
        let mut empty = BytesMut::with_capacity(17);
        empty.put_u8(TAG_MODEL_PUT);
        empty.put_u64(1);
        empty.put_u32(rows);
        empty.put_u32(cols);
        assert!(matches!(
            ControlMsg::decode(empty.freeze()),
            Err(AcceleratorError::Protocol {
                what: "MODEL_PUT shape"
            })
        ));
    }
    // Declared shape longer than the payload.
    let mut short = BytesMut::with_capacity(25);
    short.put_u8(TAG_MODEL_PUT);
    short.put_u64(1);
    short.put_u32(2);
    short.put_u32(2);
    short.put_u64(5);
    assert!(matches!(
        ControlMsg::decode(short.freeze()),
        Err(AcceleratorError::Protocol {
            what: "MODEL_PUT weights"
        })
    ));
    // A JOB with an undefined model flag is refused.
    let mut bad_flag = BytesMut::with_capacity(6);
    bad_flag.put_u8(TAG_JOB);
    bad_flag.put_u32(1);
    bad_flag.put_u8(2);
    assert!(matches!(
        ControlMsg::decode(bad_flag.freeze()),
        Err(AcceleratorError::Protocol {
            what: "JOB model flag"
        })
    ));
    // A JOB claiming a model id but truncating it.
    let mut cut = BytesMut::with_capacity(6);
    cut.put_u8(TAG_JOB);
    cut.put_u32(1);
    cut.put_u8(1);
    assert!(matches!(
        ControlMsg::decode(cut.freeze()),
        Err(AcceleratorError::Protocol {
            what: "JOB model id"
        })
    ));
}

#[test]
fn materialized_stream_is_byte_identical_to_direct_garbling() {
    // The prepared-model online path replays pre-rendered frames; they
    // must match what just-in-time encoding would put on the wire.
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
    let job = garble_matvec_job(&config, &w, 0xf00d, 2).unwrap();
    let mat = materialize_job(&job);
    assert_eq!(mat.elements.len(), job.rows.len());
    assert_eq!(mat.fabric_cycles, job.fabric_cycles);
    assert!(mat.stored_bytes() > 0);
    for (row, elem) in job.rows.iter().zip(&mat.elements) {
        assert_eq!(
            elem.sealed_rounds,
            seal_frame(encode_round_burst(&row.messages))
        );
        assert_eq!(elem.pairs, row.pairs);
    }
}

#[test]
fn round_burst_bytes_is_the_sealed_element_frame() {
    for b in [8, 16, 32] {
        let config = AcceleratorConfig::new(b);
        for cols in [1usize, 2, 5] {
            let row: Vec<i64> = (0..cols as i64).map(|c| c * 3 - 4).collect();
            let job = garble_matvec_job(&config, &[row], 0x5eed, 1).unwrap();
            let sealed = seal_frame(encode_round_burst(&job.rows[0].messages));
            assert_eq!(
                round_burst_bytes(&config, cols),
                sealed.len(),
                "b = {b}, cols = {cols}"
            );
        }
    }
}

#[test]
fn a_breaking_sink_stops_the_job_at_that_element() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
    let mut calls = 0;
    let cycles = garble_elements(&config, &w, 0xf00d, 2, |_| {
        calls += 1;
        std::ops::ControlFlow::Break(())
    });
    assert_eq!(calls, 1, "no element is garbled after the sink breaks");
    let whole = garble_matvec_job(&config, &w, 0xf00d, 2).unwrap();
    assert!(cycles > 0 && cycles < whole.fabric_cycles);
}

#[test]
fn a_resumed_producer_skips_the_prefix_but_not_its_cycles() {
    let config = AcceleratorConfig::new(8);
    let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
    let whole = fill_stream(&config, &w, 0xf00d, 2);
    let mut tail = Vec::new();
    let cycles = produce_elements(&config, &w, 0xf00d, 2, 3, |elem| {
        tail.push(elem);
        std::ops::ControlFlow::Continue(())
    });
    assert_eq!(tail, whole.elements[3..]);
    assert_eq!(cycles, whole.fabric_cycles);
}

#[test]
fn a_source_that_fails_before_its_first_element_sends_no_ready() {
    // Garbling cannot fail: a hand-off dropped before its first element
    // (the unit gone) is the one failure a source has.
    let (_, gone) = std::sync::mpsc::channel();
    let (mut server, mut client) = Duplex::pair();
    let (mut sender, _) = iknp::setup_pair(1);
    let err = stream_materialized_job_from(
        &mut server,
        &JobSource::Garbling(gone),
        &mut sender,
        &mut TranscriptDigest::new(),
        0,
        TraceContext::none(),
        0,
        |_| panic!("no boundary is passed before the first element"),
    )
    .unwrap_err();
    assert_eq!(
        err,
        AcceleratorError::Protocol {
            what: "unit pool shut down mid-job"
        }
    );
    drop(server);
    assert!(client.recv_frame().is_err(), "no READY went out");
}

/// A small prepared stream: 2 columns × 2 rows × 3 rounds at b = 8.
fn small_stream() -> MaterializedJob {
    static STREAM: std::sync::OnceLock<MaterializedJob> = std::sync::OnceLock::new();
    STREAM
        .get_or_init(|| {
            let config = AcceleratorConfig::new(8);
            let w = vec![vec![3i64, -1, 4], vec![1, 5, -9]];
            materialize_job(&garble_matvec_job(&config, &w, 0xf00d, 2).unwrap())
        })
        .clone()
}

#[test]
fn stream_digest_value_is_pinned() {
    // Recorded once. Stocks live only in memory, so nothing persists this
    // value; the pin shows any change to the per-element record or to how
    // it is folded. `cargo test` under `MAX_AES_BACKEND=software` (CI's
    // `simd` job) must read the same value.
    assert_eq!(
        u128::from_be_bytes(stream_digest(&small_stream())),
        0x38ef_ff2a_7769_8d13_9300_3562_5214_8353
    );
}

/// A stream's every garbled byte hashed by its bytes: each element's ROUNDS
/// payload, then its OT pairs' canonical bytes, one wide fold each.
fn garbled_bytes_digest(job: &MaterializedJob) -> u128 {
    let mut digest = TranscriptDigest::new();
    for elem in &job.elements {
        digest.fold_wide([&elem.sealed_rounds[SEAL_BYTES..]]);
        digest.fold_wide(
            elem.pairs
                .iter()
                .flat_map(|(zero, one)| [zero.to_bytes(), one.to_bytes()]),
        );
    }
    u128::from_be_bytes(digest.value())
}

#[test]
fn garbled_bytes_are_pinned() {
    // Recorded from the schedule-walk garbler: any rewrite of how tables
    // are garbled must leave every table, label and fabric count as is.
    // The digest reads every byte, not a CRC of it.
    let weights = |offset: i64| -> Vec<Vec<i64>> {
        (0..4i64)
            .map(|r| {
                (0..8i64)
                    .map(|c| (r * 8 + c) * 7 % 256 - 128 + offset)
                    .collect()
            })
            .collect()
    };
    for (config, offset, cycles, digest) in [
        (
            AcceleratorConfig::new(8),
            0,
            4056,
            0xa6ea_7c62_33e7_f940_baa4_7c9e_c426_decf_u128,
        ),
        (
            AcceleratorConfig::new(8).unsigned(),
            128,
            3592,
            0x5bb8_8486_b0f0_4c78_a2d6_222e_c6a3_47a2,
        ),
        (
            AcceleratorConfig::new(16),
            0,
            12000,
            0x7429_7ebe_1981_93fc_31eb_4250_f16a_40ce,
        ),
    ] {
        let job = fill_stream(&config, &weights(offset), 0x5eed, 2);
        assert_eq!(job.fabric_cycles, cycles, "{config:?}");
        assert_eq!(garbled_bytes_digest(&job), digest, "{config:?}");
    }
}

#[test]
fn stream_digest_sees_swaps_and_truncations() {
    let job = small_stream();
    let clean = stream_digest(&job);
    assert_eq!(clean, stream_digest(&job.clone()));
    for (a, b) in [(0, 1), (1, 2), (0, 3)] {
        let mut swapped = job.clone();
        swapped.elements.swap(a, b);
        assert_ne!(
            stream_digest(&swapped),
            clean,
            "elements {a} and {b} swapped"
        );
    }
    let mut short = job.clone();
    short.elements.pop();
    assert_ne!(stream_digest(&short), clean, "last element dropped");
    for idx in 0..job.elements.len() {
        let mut cut = job.clone();
        let frame = &cut.elements[idx].sealed_rounds;
        cut.elements[idx].sealed_rounds = Bytes::from(frame[..frame.len() - 1].to_vec());
        assert_ne!(stream_digest(&cut), clean, "element {idx} frame truncated");
        let mut cut = job.clone();
        cut.elements[idx].pairs.pop();
        assert_ne!(stream_digest(&cut), clean, "element {idx} pair dropped");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    #[test]
    fn stream_digest_sees_any_single_bit_flip(
        elem in 0usize..4,
        in_frame in proptest::prelude::any::<bool>(),
        at in proptest::prelude::any::<usize>(),
        bit in 0u32..128,
    ) {
        let job = small_stream();
        let clean = stream_digest(&job);
        let mut rotted = job.clone();
        let target = &mut rotted.elements[elem];
        // The digest covers the payload; the four prefix bytes are covered
        // by the stored seal, checked beside it.
        let mut in_prefix = false;
        if in_frame {
            let mut frame = target.sealed_rounds.to_vec();
            let at = at % frame.len();
            frame[at] ^= 1 << (bit % 8);
            target.sealed_rounds = Bytes::from(frame);
            in_prefix = at < SEAL_BYTES;
        } else {
            let at = at % target.pairs.len();
            let pair = &mut target.pairs[at];
            if bit % 2 == 0 {
                pair.0 = Block::new(pair.0.bits() ^ (1 << bit));
            } else {
                pair.1 = Block::new(pair.1.bits() ^ (1 << bit));
            }
        }
        proptest::prop_assert_eq!(stream_digest(&rotted) == clean, in_prefix);
        proptest::prop_assert!(!stream_intact(&rotted, &clean));
    }
}

/// Keeps every frame it receives, as received.
struct Tap<T> {
    inner: T,
    received: Vec<Bytes>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send_frame(
        &mut self,
        kind: max_gc::channel::FrameKind,
        frame: Bytes,
    ) -> Result<(), max_gc::channel::TransportError> {
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, max_gc::channel::TransportError> {
        let frame = self.inner.recv_frame()?;
        self.received.push(frame.clone());
        Ok(frame)
    }
}

/// The weights [`small_stream`] was garbled from.
fn small_weights() -> Vec<Vec<i64>> {
    vec![vec![3i64, -1, 4], vec![1, 5, -9]]
}

/// Serves one handshake and one JOB from `job` as warm stock whose
/// fill-time digest was `expected`, the way `max-serve` serves a prepared
/// stream.
fn serve_stock<T: Transport>(
    mut transport: T,
    job: MaterializedJob,
    expected: [u8; 16],
) -> Result<(), AcceleratorError> {
    let config = AcceleratorConfig::new(8);
    let (_, mut sender, trace) = accept(&mut transport, &config, &small_weights(), 0x5eed);
    assert!(matches!(
        recv_control(&mut transport)?,
        ControlMsg::JobRequest { columns: 2, .. }
    ));
    stream_materialized_job_from(
        &mut transport,
        &JobSource::Materialized {
            job,
            expected_digest: expected,
        },
        &mut sender,
        &mut TranscriptDigest::new(),
        0,
        trace,
        0,
        |_| {},
    )
}

/// The two columns [`small_stream`]'s job multiplies.
fn small_xs() -> Vec<Vec<i64>> {
    vec![vec![1i64, 2, 3], vec![-4, 0, 7]]
}

#[test]
fn a_warm_serve_sends_the_stored_rounds_frames() {
    // No user-space copy of a ROUNDS byte on the server: every ROUNDS
    // frame the client receives is the stock's own allocation.
    let job = small_stream();
    let stored: Vec<*const u8> = job
        .elements
        .iter()
        .map(|e| e.sealed_rounds.as_ptr())
        .collect();
    let (server_end, client_end) = Duplex::pair();
    let server = {
        let (job, expected) = (job.clone(), stream_digest(&job));
        std::thread::spawn(move || serve_stock(server_end, job, expected))
    };
    let tap = Tap {
        inner: client_end,
        received: Vec::new(),
    };
    let mut client = RemoteClient::connect_with_trace(tap, 8, TraceContext::none()).unwrap();
    let (ys, _) = client.secure_matmul(&small_xs()).unwrap();
    for (y, x) in ys.iter().zip(small_xs()) {
        assert_eq!(y, &plain_matvec(&small_weights(), &x));
    }
    let received = client.goodbye().received;
    server.join().unwrap().unwrap();
    // ACCEPT, READY, then CIPHER and ROUNDS per element, then STATS.
    assert_eq!(received.len(), 3 + 2 * stored.len());
    for (e, &at) in stored.iter().enumerate() {
        assert_eq!(received[3 + 2 * e], job.elements[e].sealed_rounds);
        assert_eq!(received[3 + 2 * e].as_ptr(), at, "element {e} was copied");
    }
}

#[test]
fn the_client_evaluates_each_rounds_frame_where_it_arrived() {
    // The client-side twin of the test above: no user-space copy of a
    // table byte on the client either. Every table a round view lends lies
    // inside the opened ROUNDS frame's own allocation, and evaluating the
    // views gives the plaintext MACs.
    let job = small_stream();
    let (server_end, client_end) = Duplex::pair();
    let server = {
        let (job, expected) = (job.clone(), stream_digest(&job));
        std::thread::spawn(move || serve_stock(server_end, job, expected))
    };
    let tap = Tap {
        inner: client_end,
        received: Vec::new(),
    };
    let mut client = RemoteClient::connect_with_trace(tap, 8, TraceContext::none()).unwrap();
    let (ys, _) = client.secure_matmul(&small_xs()).unwrap();
    let received = client.goodbye().received;
    server.join().unwrap().unwrap();
    let rows = small_weights().len();
    for (e, elem) in job.elements.iter().enumerate() {
        let opened = open_frame(received[3 + 2 * e].clone()).unwrap();
        let within = opened.as_ptr_range();
        let views = lend_round_burst(&opened, 3).unwrap();
        assert_eq!(views.len(), 3);
        for view in &views {
            let lent = view.tables.as_ptr_range();
            assert!(
                within.start <= lent.start.cast() && lent.end.cast() <= within.end,
                "element {e} round {}: tables copied out of the frame",
                view.round
            );
        }
        // The frame the client opened is the stock's own bytes.
        assert_eq!(within.start, elem.sealed_rounds[SEAL_BYTES..].as_ptr());
        assert_eq!(
            ys[e / rows][e % rows],
            plain_matvec(&small_weights(), &small_xs()[e / rows])[e % rows]
        );
    }
}

/// Element 1 of [`small_weights`] garbled for one column: its ROUNDS burst,
/// the client's OT labels for `small_xs()[0]`, and the plaintext MAC.
fn served_element() -> (Vec<u8>, Vec<Block>, i64) {
    static ELEMENT: std::sync::OnceLock<(Vec<u8>, Vec<Block>, i64)> = std::sync::OnceLock::new();
    ELEMENT
        .get_or_init(|| {
            let config = AcceleratorConfig::new(8);
            let job = garble_matvec_job(&config, &small_weights(), 0xf00d, 1).unwrap();
            let row = &job.rows[1];
            let x = &small_xs()[0];
            let labels = row
                .pairs
                .iter()
                .zip(config.encode_choices(x))
                .map(|(&(zero, one), bit)| if bit { one } else { zero })
                .collect();
            let mac = plain_matvec(&small_weights(), x)[1];
            (encode_round_burst(&row.messages).to_vec(), labels, mac)
        })
        .clone()
}

/// Offsets of every length and count field of a ROUNDS burst: the round
/// count, then per round its body length and the counts of its tables,
/// labels and optional initial accumulator and decode bits.
fn count_fields(burst: &[u8]) -> Vec<usize> {
    let word = |at: usize| u32::from_be_bytes(burst[at..at + 4].try_into().unwrap()) as usize;
    let mut fields = vec![1];
    let mut at = 5;
    while at < burst.len() {
        fields.push(at);
        let body = at + 4;
        let flags = burst[body + 8];
        let mut field = body + 9;
        for (item, present) in [(32, true), (16, true), (16, flags & 1 != 0)] {
            if present {
                fields.push(field);
                field += 4 + item * word(field);
            }
        }
        if flags & 2 != 0 {
            fields.push(field);
        }
        at = body + word(at);
    }
    fields
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

    #[test]
    fn peer_bytes_never_panic_the_client(
        kind in 0u8..4,
        at in proptest::prelude::any::<usize>(),
        delta in proptest::prelude::any::<u32>(),
    ) {
        // A valid burst, then one of: untouched, truncated, one bit
        // flipped, or one length or count field rewritten. The client's
        // parser and evaluator answer each with a typed error — or, for
        // the untouched burst, the plaintext MAC — and never panic.
        let (mut burst, labels, mac) = served_element();
        let len = burst.len();
        match kind {
            1 => burst.truncate(at % len),
            2 => burst[at % len] ^= 1 << (delta % 8),
            3 => {
                let fields = count_fields(&burst);
                let field = fields[at % fields.len()];
                let old = u32::from_be_bytes(burst[field..field + 4].try_into().unwrap());
                // Off by a few half the time: a length that cuts or pads
                // the last vector of a body by a byte or two.
                let new = match delta % 16 {
                    0..=3 => old.wrapping_add(delta % 4 + 1),
                    4..=7 => old.wrapping_sub(delta % 4 + 1),
                    _ => old ^ delta,
                };
                burst[field..field + 4].copy_from_slice(&new.to_be_bytes());
            }
            _ => {}
        }
        let mut evaluator = crate::ScheduledEvaluator::new(&AcceleratorConfig::new(8));
        let outcome = evaluate_burst(
            &mut evaluator,
            1,
            &burst,
            3,
            &labels,
            &mut crate::MatvecTranscript::default(),
        );
        match kind {
            0 => proptest::prop_assert_eq!(outcome, Ok(mac)),
            1 | 3 => proptest::prop_assert!(outcome.is_err(), "kind {kind}: {outcome:?}"),
            _ => {}
        }
    }
}

#[test]
fn a_rotted_stored_seal_is_refused_behind_ready() {
    // The stream digest does not cover an element's four seal bytes; the
    // stored seal does, and the streamer checks it beside the digest
    // before any material frame leaves.
    let job = small_stream();
    let clean = stream_digest(&job);
    let last = job.elements.len() - 1;
    for bit in 0..8 * SEAL_BYTES {
        let mut rotted = job.clone();
        let mut frame = rotted.elements[last].sealed_rounds.to_vec();
        frame[bit / 8] ^= 1 << (bit % 8);
        rotted.elements[last].sealed_rounds = Bytes::from(frame);
        assert_eq!(stream_digest(&rotted), clean, "bit {bit}");
        assert!(!stream_intact(&rotted, &clean), "bit {bit}");
    }
    let mut rotted = job;
    let mut frame = rotted.elements[last].sealed_rounds.to_vec();
    frame[2] ^= 0x10;
    rotted.elements[last].sealed_rounds = Bytes::from(frame);

    let (server_end, client_end) = Duplex::pair();
    let server = std::thread::spawn(move || serve_stock(server_end, rotted, clean));
    let mut client = RemoteClient::connect(client_end, 8).unwrap();
    // Refused at the first EXT as the server's stock failing — never a
    // checksum failure at the last element's ROUNDS, nor the client's own
    // digest divergence.
    assert!(matches!(
        client.secure_matmul(&small_xs()),
        Err(AcceleratorError::Integrity {
            what: STREAM_DIGEST_MISMATCH
        })
    ));
    assert_eq!(
        server.join().unwrap(),
        Err(AcceleratorError::Integrity {
            what: STREAM_DIGEST_MISMATCH
        })
    );
}

#[test]
fn hello_bytes_are_deterministic_only_for_fixed_traces() {
    let hello = |trace: TraceContext| {
        ControlMsg::Hello {
            version: PROTOCOL_VERSION,
            bit_width: 8,
            trace,
        }
        .encode()
    };
    // Fixed contexts (the transcript-parity posture) are bit-stable.
    assert_eq!(hello(TraceContext::none()), hello(TraceContext::none()));
    let pinned = TraceContext::from_ids(42, 7);
    assert_eq!(hello(pinned), hello(pinned));
    // Minted contexts differ — each dial is its own trace.
    assert_ne!(hello(TraceContext::mint()), hello(TraceContext::mint()));
}

#[test]
fn hostile_ext_frames_are_typed_errors() {
    // Oversized batch.
    let mut buf = BytesMut::with_capacity(16);
    buf.put_u8(TAG_EXT);
    buf.put_u32((MAX_OT_BATCH + 1) as u32);
    buf.put_u32(((MAX_OT_BATCH + 1).div_ceil(64)) as u32);
    assert!(matches!(
        decode_ext(buf.freeze()),
        Err(AcceleratorError::Protocol {
            what: "EXT batch size"
        })
    ));
    // Word count inconsistent with the declared batch.
    let mut buf = BytesMut::with_capacity(16);
    buf.put_u8(TAG_EXT);
    buf.put_u32(64);
    buf.put_u32(2);
    assert!(matches!(
        decode_ext(buf.freeze()),
        Err(AcceleratorError::Protocol {
            what: "EXT batch size"
        })
    ));
    // Payload shorter than KAPPA columns.
    let mut buf = BytesMut::with_capacity(24);
    buf.put_u8(TAG_EXT);
    buf.put_u32(64);
    buf.put_u32(1);
    buf.put_u64(0);
    assert!(matches!(
        decode_ext(buf.freeze()),
        Err(AcceleratorError::Protocol {
            what: "EXT payload length"
        })
    ));
}

#[test]
fn transport_error_converts_into_accelerator_error() {
    use max_gc::channel::TransportError;
    assert_eq!(
        AcceleratorError::from(TransportError::Disconnected),
        AcceleratorError::Disconnected
    );
    let err = AcceleratorError::from(TransportError::FrameTooLarge { len: 10, max: 4 });
    assert_eq!(
        err,
        AcceleratorError::Transport(TransportError::FrameTooLarge { len: 10, max: 4 })
    );
    // The source chain reaches the transport error.
    use std::error::Error;
    assert!(err.source().is_some());
}
