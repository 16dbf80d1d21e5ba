//! The outside-in per-layer cost table: direct timed calls into each
//! layer's public functions at the served job's shape. Every number is the
//! median of the repetitions after warm-up; counts are exact.
//!
//! Nothing here touches program source: the table is built from the same
//! `pub` items an application would call.

use std::hint::black_box;
use std::net::TcpListener;
use std::time::Instant;

use bytes::Bytes;
use max_crypto::{AesPrg, Block, FixedKeyHash, TranscriptDigest, Tweak};
use max_gc::channel::{decode_tables, encode_tables, open_frame, seal_frame, FrameKind};
use max_gc::{Evaluator, FramedTcp, GarbledTable, Garbler, PrgLabelSource, Transport};
use max_ot::iknp;
use max_registry::{Acquired, ModelRegistry, RegistryConfig};
use max_rng::LabelGenerator;
use max_serve::resume::{decode_checkpoint, encode_checkpoint};
use max_serve::{listen_tcp, GcService, Journal, JournalConfig, ServeConfig, SessionCheckpoint};
use maxelerator::remote::{
    decode_round_burst, encode_round_burst, garble_matvec_job, materialize_job, stream_digest,
};
use maxelerator::{
    AcceleratorConfig, Maxelerator, RemoteClient, Schedule, ScheduledEvaluator, TimingModel,
};

use crate::stats::median;
use crate::workload::{Inputs, TempDir, COLS, ROWS, STEP_DEADLINE, WIDTH};
use crate::BenchError;

/// One row of the layer table: metric name and value.
pub type LayerRow = (&'static str, f64);

/// The value of row `name`. Rows are read only after the code that builds
/// them ran, so a miss is a bug in this package.
pub fn row(rows: &[LayerRow], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("layer row {name} is built before it is read"))
}

/// Repetition counts. The table is measured in `passes` whole passes and
/// each row is the median of its per-pass medians, so a row's samples are
/// spread over seconds and a noisy moment on the host cannot own one row.
/// `light` is for calls in the microsecond range, `heavy` for the ones that
/// garble a whole job (≈ 0.1 s each).
#[derive(Clone, Copy, Debug)]
pub struct Reps {
    pub passes: usize,
    pub light: usize,
    pub heavy: usize,
}

impl Reps {
    /// 42 repetitions of every light call, 9 of every heavy one; ≈ 5 s.
    pub const FULL: Reps = Reps {
        passes: 3,
        light: 14,
        heavy: 3,
    };
    /// Smoke-test sizing: counts stay exact, timings are not meaningful.
    pub const QUICK: Reps = Reps {
        passes: 1,
        light: 3,
        heavy: 1,
    };
}

/// Median seconds of `reps` calls after two warm-up calls.
fn time_median<R>(reps: usize, mut call: impl FnMut() -> R) -> f64 {
    for _ in 0..2 {
        black_box(call());
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(call());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

const KIB64: usize = 64 * 1024;
const US: f64 = 1e6;
const MS: f64 = 1e3;

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Builds the whole table. `inputs` supplies the model and seeds, so the
/// program sees only generated inputs here too.
pub fn layer_table(inputs: &Inputs, reps: Reps) -> Result<Vec<LayerRow>, BenchError> {
    let passes = (0..reps.passes)
        .map(|_| measure_pass(inputs, reps))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows: Vec<LayerRow> = passes[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = passes.iter().map(|pass| pass[i].1).collect();
            (*name, median(&values).expect("at least one pass"))
        })
        .collect();

    let row = |name: &str| row(&rows, name);
    // What the accelerator spends per MAC beyond the layer calls it makes:
    // one schedule compile and one generator per row, its labels, and the
    // half-gate garbling itself.
    let garble = row("core.accelerator.garble_us_per_mac");
    let explained = (row("core.schedule.compile_us") + row("rng.generator_new_us")) / COLS as f64
        + row("rng.labels_per_mac") * row("rng.label_us")
        + row("gc.garble_us_per_mac");
    let derived = [
        ("core.accelerator.self_us_per_mac", garble - explained),
        (
            "core.accelerator.overhead_x",
            garble / row("gc.garble_us_per_mac"),
        ),
    ];
    rows.extend(derived);
    Ok(rows)
}

/// One pass over every directly timed row.
fn measure_pass(inputs: &Inputs, reps: Reps) -> Result<Vec<LayerRow>, BenchError> {
    let mut rows: Vec<LayerRow> = Vec::new();
    let config = AcceleratorConfig::new(WIDTH);
    let macs = (ROWS * COLS) as f64;
    let seed = inputs.base_seed;

    // --- netlist -----------------------------------------------------------
    let mac = config.mac_circuit();
    let netlist = mac.netlist();
    let and_gates = netlist.stats().and_gates;
    rows.push((
        "netlist.mac_build_us",
        time_median(reps.light, || config.mac_circuit()) * US,
    ));
    rows.push(("netlist.and_gates_per_mac", and_gates as f64));

    // --- core.schedule -----------------------------------------------------
    let cores = TimingModel::paper(WIDTH).cores();
    let compile_s = time_median(reps.light, || {
        Schedule::compile(netlist, cores, COLS, config.state_range())
    });
    rows.push(("core.schedule.compile_us", compile_s * US));

    // --- rng ---------------------------------------------------------------
    let per_cycle = WIDTH / 2;
    let mut generator = LabelGenerator::new(seed, WIDTH);
    let label_s = time_median(reps.light, || generator.clock(per_cycle)) / per_cycle as f64;
    let gated_clock_s = time_median(reps.light, || generator.clock(0));
    let generator_new_s = time_median(reps.light, || LabelGenerator::new(seed, WIDTH));
    rows.push(("rng.label_us", label_s * US));
    rows.push(("rng.gated_clock_us", gated_clock_s * US));
    rows.push(("rng.generator_new_us", generator_new_s * US));

    // --- crypto ------------------------------------------------------------
    let hash = FixedKeyHash::new();
    let hash_inputs: Vec<(Block, Tweak)> = (0..1024u64)
        .map(|i| {
            (
                Block::new(u128::from(i) << 64 | u128::from(seed)),
                Tweak::from_gate_index(i),
            )
        })
        .collect();
    rows.push((
        "crypto.hash_ns_per_block",
        time_median(reps.light, || hash.hash_slice(&hash_inputs)) * 1e9 / 1024.0,
    ));
    let mut prg = AesPrg::new(Block::new(u128::from(seed)));
    let mut prg_out = vec![Block::ZERO; 1024];
    rows.push((
        "crypto.prg_ns_per_block",
        time_median(reps.light, || prg.fill_blocks(&mut prg_out)) * 1e9 / 1024.0,
    ));
    let mut payload = vec![0u8; KIB64];
    prg.fill_bytes(&mut payload);
    let digest_s = time_median(reps.light, || {
        let mut digest = TranscriptDigest::new();
        digest.fold(&payload);
        digest.value()
    });
    rows.push(("crypto.digest_mb_per_s", mb_per_s(KIB64, digest_s)));

    // --- gc ----------------------------------------------------------------
    let mut label_source = PrgLabelSource::new(Block::new(u128::from(seed)));
    let gc_garble_s = time_median(reps.light, || {
        Garbler::new(&mut label_source).garble(netlist, 0)
    });
    rows.push(("gc.garble_us_per_mac", gc_garble_s * US));
    let circuit = Garbler::new(&mut label_source).garble(netlist, 0);
    let garbler_labels =
        circuit.encode_garbler_inputs(&vec![false; netlist.garbler_inputs().len()]);
    let evaluator_labels =
        circuit.encode_evaluator_inputs(&vec![true; netlist.evaluator_inputs().len()]);
    let evaluator = Evaluator::new();
    let gc_evaluate_s = time_median(reps.light, || {
        evaluator.evaluate(
            netlist,
            circuit.material(),
            &garbler_labels,
            &evaluator_labels,
            0,
        )
    });
    rows.push(("gc.evaluate_us_per_mac", gc_evaluate_s * US));

    // --- gc.channel --------------------------------------------------------
    let frame = Bytes::from(payload.clone());
    let seal_open_s = time_median(reps.light, || {
        open_frame(seal_frame(frame.clone())).expect("a frame just sealed opens")
    });
    rows.push((
        "gc.channel.seal_open_mb_per_s",
        mb_per_s(KIB64, seal_open_s),
    ));
    let tables: Vec<GarbledTable> = (0..KIB64 / GarbledTable::WIRE_BYTES)
        .map(|_| GarbledTable {
            tg: prg.next_block(),
            te: prg.next_block(),
        })
        .collect();
    let tables_s = time_median(reps.light, || {
        decode_tables(encode_tables(&tables)).expect("tables just encoded decode")
    });
    rows.push((
        "gc.channel.tables_codec_mb_per_s",
        mb_per_s(KIB64, tables_s),
    ));

    // --- gc.transport ------------------------------------------------------
    let (rtt_s, one_way_s) = tcp_costs(reps.light, &frame)?;
    rows.push(("gc.transport.tcp_rtt_us", rtt_s * US));
    rows.push(("gc.transport.tcp_mb_per_s", mb_per_s(KIB64, one_way_s)));

    // --- ot ----------------------------------------------------------------
    rows.push((
        "ot.setup_ms",
        time_median(reps.light, || iknp::setup_pair(seed)) * MS,
    ));
    let transfers = COLS * WIDTH;
    let (mut sender, mut receiver) = iknp::setup_pair(seed);
    let choices: Vec<bool> = (0..transfers).map(|i| i % 3 == 0).collect();
    let pairs: Vec<(Block, Block)> = (0..transfers)
        .map(|_| (prg.next_block(), prg.next_block()))
        .collect();
    let extend_s = time_median(reps.light, || {
        let (ext, keys) = receiver.prepare(&choices);
        let cipher = sender.send(&ext, &pairs);
        receiver.receive(&cipher, &keys, &choices)
    });
    rows.push((
        "ot.extend_us_per_transfer",
        extend_s * US / transfers as f64,
    ));

    // --- core.accelerator --------------------------------------------------
    let weights = &inputs.weights;
    let mut accel = Maxelerator::new(config.clone(), seed);
    let mut elem = 0u32;
    let accel_garble_s = time_median(reps.light, || {
        elem += 1;
        accel.begin_element(elem);
        accel
            .try_garble_job(&weights[0], true)
            .expect("compiled schedule satisfies its own dependencies")
    }) / COLS as f64;
    rows.push(("core.accelerator.garble_us_per_mac", accel_garble_s * US));

    let mut counted = Maxelerator::new(config.clone(), seed);
    for (r, row) in weights.iter().enumerate() {
        counted.begin_element(r as u32);
        counted.try_garble_job(row, true)?;
    }
    let labels_per_mac = counted.report().labels_generated as f64 / macs;
    rows.push(("rng.labels_per_mac", labels_per_mac));

    accel.begin_element(0);
    let messages = accel.try_garble_job(&weights[0], true)?;
    let x = inputs.vector(0);
    let mut x_labels = Vec::with_capacity(COLS * WIDTH);
    for (msg, &xl) in messages.iter().zip(&x) {
        let bits = config.encode_x(xl);
        for (&(zero, one), bit) in accel.ot_pairs(msg.round)?.iter().zip(bits) {
            x_labels.push(if bit { one } else { zero });
        }
    }
    let mut client = ScheduledEvaluator::new(&config);
    let accel_evaluate_s = time_median(reps.light, || {
        client.begin_element(0);
        let mut decoded = None;
        for (i, msg) in messages.iter().enumerate() {
            decoded = client
                .evaluate_round(msg, &x_labels[i * WIDTH..(i + 1) * WIDTH])
                .expect("rounds just garbled evaluate");
        }
        decoded
    }) / COLS as f64;
    rows.push((
        "core.accelerator.evaluate_us_per_mac",
        accel_evaluate_s * US,
    ));

    // --- core.remote -------------------------------------------------------
    let mut job_seed = seed;
    let garble_job_s = time_median(reps.heavy, || {
        job_seed += 1;
        garble_matvec_job(&config, weights, job_seed, 1).expect("job garbles")
    });
    rows.push(("core.remote.garble_job_ms", garble_job_s * MS));
    let job = garble_matvec_job(&config, weights, seed, 1)?;
    rows.push((
        "core.remote.materialize_us",
        time_median(reps.light, || materialize_job(&job)) * US,
    ));
    let materialized = materialize_job(&job);
    rows.push((
        "core.remote.stream_digest_us",
        time_median(reps.light, || stream_digest(&materialized)) * US,
    ));
    let burst_s = time_median(reps.light, || {
        decode_round_burst(encode_round_burst(&job.rows[0].messages), COLS)
            .expect("burst just encoded decodes")
    });
    rows.push(("core.remote.burst_codec_us", burst_s * US));
    rows.push((
        "registry.stored_bytes_per_mac",
        materialized.stored_bytes() as f64 / macs,
    ));
    rows.push((
        "core.remote.handshake_ms",
        handshake_cost(inputs, reps.light)? * MS,
    ));

    // --- registry ----------------------------------------------------------
    let registry = ModelRegistry::new(
        config.clone(),
        RegistryConfig {
            target_stock: reps.heavy + 2,
            ..RegistryConfig::default()
        },
        seed,
    );
    registry
        .register(1, weights.clone())
        .map_err(|e| BenchError::Setup(format!("register: {e:?}")))?;
    let fill_s = time_median(reps.heavy, || {
        registry
            .fill_step()
            .expect("stock is below target")
            .expect("fill garbles")
    });
    rows.push(("registry.fill_ms_per_stream", fill_s * MS));
    let acquire_samples: Vec<f64> = (0..reps.heavy + 2)
        .map(|_| {
            let t0 = Instant::now();
            let acquired = registry.acquire(1, 1);
            let elapsed = t0.elapsed().as_secs_f64();
            assert!(
                matches!(acquired, Some(Acquired::Prepared(_))),
                "every timed acquire is served from the stock just filled"
            );
            elapsed
        })
        .collect();
    rows.push((
        "registry.acquire_us",
        median(&acquire_samples).expect("at least one acquire") * US,
    ));

    // --- serve.resume / serve.journal --------------------------------------
    let checkpoint = sample_checkpoint(seed);
    let codec_s = time_median(reps.light, || {
        decode_checkpoint(&encode_checkpoint(&checkpoint)).expect("checkpoint round-trips")
    });
    rows.push(("serve.resume.checkpoint_codec_us", codec_s * US));
    for (name, fsync) in [
        ("serve.journal.append_us", true),
        ("serve.journal.append_nofsync_us", false),
    ] {
        let dir = TempDir::new("layer-journal")?;
        let mut cfg = JournalConfig::new(dir.path());
        cfg.fsync = fsync;
        let (journal, _) =
            Journal::open(cfg).map_err(|e| BenchError::Setup(format!("journal: {e}")))?;
        let append_s = time_median(reps.light, || {
            journal
                .append_checkpoint(&checkpoint)
                .expect("journal append")
        });
        rows.push((name, append_s * US));
    }
    Ok(rows)
}

/// A checkpoint shaped like the ones a session journals at each element
/// boundary: a window of two OT-sender snapshots with their digests.
fn sample_checkpoint(seed: u64) -> SessionCheckpoint {
    let (sender, _) = iknp::setup_pair(seed);
    let mut digest = TranscriptDigest::new();
    digest.fold(&seed.to_le_bytes());
    SessionCheckpoint {
        session_id: 1,
        resume_token: seed ^ 0x5eed,
        session_seed: seed,
        next_job: 2,
        job_id: 1,
        columns: 1,
        job_seed: seed,
        model_id: Some(1),
        snapshots: vec![(1, sender.clone(), digest.clone()), (2, sender, digest)],
    }
}

/// Loopback `FramedTcp` costs: seconds per 64-byte ping-pong, and seconds
/// per one-way 64 KiB frame (a burst of eight, acknowledged once).
fn tcp_costs(reps: usize, big: &Bytes) -> Result<(f64, f64), BenchError> {
    const BURST: usize = 8;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let small = Bytes::from(vec![0x5au8; 64]);
    std::thread::scope(|scope| {
        // The peer echoes small frames and acknowledges every BURST-th big
        // one; it ends when the client hangs up.
        let peer = scope.spawn(move || -> Result<(), BenchError> {
            let (stream, _) = listener.accept()?;
            let mut tcp = FramedTcp::from_stream(stream);
            tcp.set_idle_timeout(Some(STEP_DEADLINE));
            let mut big_seen = 0usize;
            while let Ok(frame) = tcp.recv_frame() {
                if frame.len() <= 64 {
                    tcp.send_frame(FrameKind::Raw, frame)?;
                } else {
                    big_seen += 1;
                    if big_seen.is_multiple_of(BURST) {
                        tcp.send_frame(FrameKind::Raw, Bytes::from(vec![1u8]))?;
                    }
                }
            }
            Ok(())
        });
        let measured = (|| -> Result<(f64, f64), BenchError> {
            let mut tcp = FramedTcp::connect(addr)?;
            tcp.set_idle_timeout(Some(STEP_DEADLINE));
            let mut ping = || -> Result<f64, BenchError> {
                let t0 = Instant::now();
                tcp.send_frame(FrameKind::Raw, small.clone())?;
                tcp.recv_frame()?;
                Ok(t0.elapsed().as_secs_f64())
            };
            for _ in 0..2 {
                ping()?;
            }
            let pings = (0..reps).map(|_| ping()).collect::<Result<Vec<_>, _>>()?;
            let mut burst = || -> Result<f64, BenchError> {
                let t0 = Instant::now();
                for _ in 0..BURST {
                    tcp.send_frame(FrameKind::Raw, big.clone())?;
                }
                tcp.recv_frame()?;
                Ok(t0.elapsed().as_secs_f64() / BURST as f64)
            };
            burst()?;
            let bursts = (0..reps).map(|_| burst()).collect::<Result<Vec<_>, _>>()?;
            Ok((
                median(&pings).expect("at least one ping"),
                median(&bursts).expect("at least one burst"),
            ))
        })();
        // `tcp` dropped with the closure: the peer sees the hang-up.
        peer.join().expect("tcp peer thread")?;
        measured
    })
}

/// Seconds for `FramedTcp::connect` + `RemoteClient::connect` against a
/// live service on loopback.
fn handshake_cost(inputs: &Inputs, reps: usize) -> Result<f64, BenchError> {
    let mut cfg = ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        inputs.weights.clone(),
        inputs.base_seed,
    );
    cfg.workers = 1;
    let handle = listen_tcp(GcService::start(cfg), "127.0.0.1:0")?;
    let addr = handle.addr();
    let connect = || -> Result<f64, BenchError> {
        let t0 = Instant::now();
        let mut tcp = FramedTcp::connect(addr)?;
        tcp.set_idle_timeout(Some(STEP_DEADLINE));
        let client = RemoteClient::connect(tcp, WIDTH)?;
        let elapsed = t0.elapsed().as_secs_f64();
        client.goodbye();
        Ok(elapsed)
    };
    let measured = (|| {
        connect()?;
        let samples = (0..reps)
            .map(|_| connect())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(median(&samples).expect("at least one handshake"))
    })();
    handle.shutdown();
    measured
}
