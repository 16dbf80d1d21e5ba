use super::codec::{decode_ext, TAG_EXT, TAG_HELLO, TAG_JOB, TAG_METRICS_REPLY, TAG_MODEL_PUT};
use super::*;
use crate::{AcceleratorConfig, AcceleratorError};
use bytes::{BufMut, Bytes, BytesMut};
use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::Duplex;
use max_gc::Transport;
use max_ot::iknp;
use max_telemetry::TraceContext;

/// Minimal single-session server loop over any transport, used by the
/// tests here and in `resilient`, and mirrored (with scheduling) by
/// `max-serve`. The first `busy_first` job requests are answered with
/// `BUSY(busy_hint_ms)` before any is served.
pub(crate) fn serve_one_session<T: Transport>(
    mut transport: T,
    config: &AcceleratorConfig,
    weights: &[Vec<i64>],
    base_seed: u64,
    session_id: u64,
    mut busy_first: u32,
    busy_hint_ms: u32,
) -> Result<(), AcceleratorError> {
    let hello = match recv_control(&mut transport)? {
        ControlMsg::Hello {
            version,
            bit_width,
            trace,
        } => (version, bit_width, trace),
        _ => {
            return Err(AcceleratorError::Protocol {
                what: "expected HELLO",
            })
        }
    };
    if hello.0 != PROTOCOL_VERSION {
        send_control(
            &mut transport,
            &ControlMsg::Reject {
                code: REJECT_VERSION,
                detail: u32::from(PROTOCOL_VERSION),
            },
        )?;
        return Ok(());
    }
    if hello.1 as usize != config.bit_width {
        send_control(
            &mut transport,
            &ControlMsg::Reject {
                code: REJECT_WIDTH,
                detail: config.bit_width as u32,
            },
        )?;
        return Ok(());
    }
    let session_seed = derive_seed(base_seed, session_id);
    let ot_seed = derive_seed(session_seed, 0x07);
    send_control(
        &mut transport,
        &ControlMsg::Accept {
            session_id,
            ot_seed,
            resume_token: derive_seed(session_seed, 0x7e57),
            rows: weights.len() as u32,
            cols: weights.first().map_or(0, Vec::len) as u32,
            bit_width: config.bit_width as u32,
            acc_width: config.acc_width as u32,
            signed: config.signed,
            freq_mhz_bits: config.freq_mhz.to_bits(),
        },
    )?;
    let (mut ot_sender, _receiver) = iknp::setup_pair(ot_seed);
    let mut job_id = 0u64;
    loop {
        match recv_control(&mut transport) {
            Ok(ControlMsg::JobRequest {
                columns,
                model_id: None,
            }) => {
                if busy_first > 0 {
                    busy_first -= 1;
                    send_control(
                        &mut transport,
                        &ControlMsg::Busy {
                            retry_after_ms: busy_hint_ms,
                            queue_depth: 1,
                        },
                    )?;
                    continue;
                }
                let job = fill_stream(
                    config,
                    weights,
                    derive_seed(session_seed, 0x100 + job_id),
                    columns,
                )?;
                stream_materialized_job_from(
                    &mut transport,
                    &job,
                    &mut ot_sender,
                    &mut TranscriptDigest::new(),
                    job_id,
                    hello.2,
                    0,
                    None,
                    |_, _, _| {},
                )?;
                job_id += 1;
            }
            Ok(ControlMsg::Ping { nonce }) => {
                send_control(&mut transport, &ControlMsg::Pong { nonce })?;
            }
            Ok(ControlMsg::Bye) | Err(AcceleratorError::Disconnected) => return Ok(()),
            Ok(_) => {
                return Err(AcceleratorError::Protocol {
                    what: "expected JOB or BYE",
                })
            }
            Err(e) => return Err(e),
        }
    }
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
        std::thread::spawn(move || serve_one_session(server_end, &config, &w, 42, 0, 0, 0))
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
        std::thread::spawn(move || serve_one_session(server_end, &config, &w, 7, 3, 0, 0))
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
        let server =
            std::thread::spawn(move || serve_one_session(server_end, &config, &w, 1, 0, 0, 0));
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
    let server = std::thread::spawn(move || serve_one_session(server_end, &config, &w, 1, 0, 0, 0));
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
        std::thread::spawn(move || serve_one_session(server_end, &config, &w, 9, 0, 0, 0))
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

#[test]
fn control_frames_round_trip() {
    let msgs = [
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
            elements_done: 9,
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
    ];
    for msg in &msgs {
        assert_eq!(&ControlMsg::decode(msg.encode()).unwrap(), msg);
    }
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
    assert_eq!(mat.rows_per_pass, job.rows_per_pass);
    assert_eq!(mat.fabric_cycles, job.fabric_cycles);
    assert!(mat.stored_bytes() > 0);
    for (row, elem) in job.rows.iter().zip(&mat.elements) {
        assert_eq!(elem.rounds_frame, encode_round_burst(&row.messages));
        assert_eq!(elem.pairs, row.pairs);
        assert_eq!(elem.rounds, row.messages.len() as u64);
    }
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
    // Recorded once. `cargo test` under `MAX_AES_BACKEND=software`
    // (CI's `simd` job) must read the same value: what one server
    // digests at fill another build may re-verify from its journal.
    assert_eq!(
        u128::from_be_bytes(stream_digest(&small_stream())),
        0xc7dc_f5ef_0318_d9f2_87bb_8f01_3456_f9e6
    );
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
        let frame = &cut.elements[idx].rounds_frame;
        cut.elements[idx].rounds_frame = Bytes::from(frame[..frame.len() - 1].to_vec());
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
        let mut rotted = job.clone();
        let target = &mut rotted.elements[elem];
        if in_frame {
            let mut frame = target.rounds_frame.to_vec();
            let at = at % frame.len();
            frame[at] ^= 1 << (bit % 8);
            target.rounds_frame = Bytes::from(frame);
        } else {
            let at = at % target.pairs.len();
            let pair = &mut target.pairs[at];
            if bit % 2 == 0 {
                pair.0 = Block::new(pair.0.bits() ^ (1 << bit));
            } else {
                pair.1 = Block::new(pair.1.bits() ^ (1 << bit));
            }
        }
        proptest::prop_assert_ne!(stream_digest(&rotted), stream_digest(&job));
    }
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
