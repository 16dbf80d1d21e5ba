//! Crash end-to-end tests: process death (not just connection death) with
//! durable-journal recovery.
//!
//! The headline invariant extends chaos_e2e's by one failure class: a
//! server that dies *as a process* — `kill -9`, no drop handlers, no
//! flushes beyond what the write-ahead journal already fsync'd — and
//! restarts on the same journal directory gives a reconnecting client
//! RESUME, not REJECT, and the stitched transcript is **bit-identical
//! frame-by-frame** to an uninterrupted run. Damaged journals degrade
//! gracefully: torn tails replay to the last valid record, corrupt
//! segments are quarantined and the affected session gets a typed
//! `REJECT(resume)` while the server boots and serves everything else.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use max_gc::channel::{FrameKind, TransportError};
use max_gc::{FaultSpec, FaultTransport, FramedTcp, Transport};
use max_serve::{
    demo_vector, demo_weights, plain_matvec, GcService, JournalConfig, RecordingTransport,
    ServeConfig,
};
use maxelerator::{AcceleratorError, RemoteClient, ResilientClient, RetryPolicy};

mod common;
mod power_cut;
use common::{demo_service, wait_until, WIDTH};
use power_cut::{only_segment, power_cut_image, records, KIND_CHECKPOINT};

const ROWS: usize = 3;
const COLS: usize = 3;
const SEED: u64 = 0xC4A0;

/// Client-side frame events per streamed element (EXT, CIPHER, ROUNDS) and
/// for the handshake (HELLO, ACCEPT, JOB, READY) — same accounting as
/// chaos_e2e.
const EVENTS_PER_ELEMENT: u64 = 3;
const HANDSHAKE_EVENTS: u64 = 4;

fn cut_mid_element(element: u64) -> u64 {
    HANDSHAKE_EVENTS + element * EVENTS_PER_ELEMENT + 2
}

fn temp_dir(tag: &str) -> PathBuf {
    power_cut::temp_dir("crash-e2e", tag)
}

fn journaled_service(dir: &Path, mutate: impl FnOnce(&mut ServeConfig)) -> GcService {
    journaled_model(ROWS, dir, mutate)
}

/// [`journaled_service`] on a `rows × COLS` model.
fn journaled_model(rows: usize, dir: &Path, mutate: impl FnOnce(&mut ServeConfig)) -> GcService {
    demo_service(rows, COLS, SEED, |cfg| {
        cfg.deterministic_resume_tokens = true;
        let mut journal = JournalConfig::new(dir);
        journal.fsync = false; // in-process tests exercise bytes, not disks
        cfg.journal = Some(journal);
        mutate(cfg);
    })
}

/// Kill-9 equivalence, deterministically: run a job against a journaled
/// service, cut the wire mid-element, then *abandon the service without
/// any shutdown* — its in-memory registry and all its threads are dead to
/// us, exactly as after `kill -9`. A brand-new service instance on the
/// same journal directory must replay the checkpoints and serve RESUME,
/// and the stitched transcript must be bit-identical to an uninterrupted
/// reference run.
#[test]
fn journal_replay_after_process_loss_resumes_bit_identical() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();
    let elements = xs.len() * ROWS;

    // Reference: uninterrupted run, fresh service, same seeds, same pinned
    // trace — bit-comparable because resume tokens are deterministic.
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x1D);
    let ref_dir = temp_dir("ref");
    let ref_service = journaled_service(&ref_dir, |_| {});
    let mut ref_client = RemoteClient::connect_with_trace(
        RecordingTransport::new(ref_service.connect()),
        WIDTH,
        trace,
    )
    .expect("reference handshake");
    let (ref_ys, _) = ref_client.secure_matmul(&xs).expect("reference job");
    assert_eq!(ref_ys, expected);
    let ref_rec = ref_client.goodbye();
    ref_service.shutdown();
    let ref_sent = ref_rec.sent_frames();
    let ref_recv = ref_rec.received_frames();
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Crash run: wire dies partway through element 2 of 6, then the whole
    // first service instance is abandoned cold.
    let dir = temp_dir("replay");
    let first_incarnation = journaled_service(&dir, |_| {});
    let fault = FaultTransport::new(
        RecordingTransport::new(first_incarnation.connect()),
        FaultSpec::none(SEED).with_cut_after(cut_mid_element(2)),
    );
    let mut client =
        RemoteClient::connect_with_trace(fault, WIDTH, trace).expect("crash handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut must kill the run");
    assert_eq!(progress.elements_done(), 2);
    let (dead, state) = client.into_parts();
    let rec1 = dead.into_inner();
    let conn1_sent = rec1.sent_frames().to_vec();
    let conn1_recv = rec1.received_frames().to_vec();
    drop(rec1);
    // The journal already holds the job's one record — written *before*
    // element 0's frames went out — so there is nothing to wait for. The
    // dead instance is never shut down: no flush, no drain, no BYE.
    let journal = first_incarnation.journal().expect("journal configured");
    assert_eq!(
        journal.appends(),
        1,
        "the job's record, and nothing per element"
    );
    drop(first_incarnation);

    // Second incarnation: same directory, fresh process state.
    let second_incarnation = journaled_service(&dir, |_| {});
    let replay = second_incarnation.journal_replay();
    assert_eq!(replay.records_applied, 1, "replayed the crash run");
    assert_eq!(replay.sessions, 1, "one interrupted session restored");
    assert!(replay.quarantined.is_empty());
    assert_eq!(second_incarnation.resume_checkpoints(), 1);

    let mut client =
        RemoteClient::reattach(RecordingTransport::new(second_incarnation.connect()), state);
    client
        .resume_job(&mut progress)
        .expect("RESUME accepted after restart");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, transcript) = progress.into_result();
    assert_eq!(ys, expected, "resumed job must be correct");
    assert_eq!(ys, ref_ys, "resumed job must match the uninterrupted run");
    assert_eq!(transcript.elements, elements);
    let rec2 = client.goodbye();
    let conn2_sent = rec2.sent_frames();
    let conn2_recv = rec2.received_frames();

    // Stitch and diff, frame by frame, against the uninterrupted run. The
    // client evaluated elements 0 and 1, so it resumed at boundary 1 and
    // element 1 was served again.
    // Down direction: ACCEPT + READY + two completed elements' data (+ the
    // partial element's CIPHER) on conn1; READY + elements 1..6 + STATS on
    // conn2.
    assert_eq!(
        conn1_recv[..2 + 2 * 2],
        ref_recv[..2 + 2 * 2],
        "pre-crash frames diverged"
    );
    assert_eq!(conn2_recv[0], ref_recv[1], "resumed READY diverged");
    assert_eq!(
        &conn2_recv[1..],
        &ref_recv[2 + 2..],
        "post-restart data (elements 1..6 + STATS) diverged"
    );

    // Up direction: HELLO, JOB and EXT(0..3) on conn1 match, the
    // rolled-back EXTs replay bit-identically, and conn2 carries the rest.
    for (i, frame) in conn1_sent.iter().enumerate() {
        assert_eq!(frame.1, ref_sent[i].1, "conn1 frame {i} diverged");
    }
    assert_eq!(
        (&conn2_sent[1].1, &conn2_sent[2].1),
        (&conn1_sent[3].1, &conn1_sent[4].1),
        "rolled-back EXTs must replay bit-identically"
    );
    for (i, frame) in conn2_sent[1..].iter().enumerate() {
        assert_eq!(frame.1, ref_sent[3 + i].1, "stitched frame {i} diverged");
    }

    let stats = second_incarnation.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(
        second_incarnation.resume_checkpoints(),
        0,
        "checkpoint retired after the resumed job"
    );
    assert_eq!(
        second_incarnation
            .journal()
            .expect("journal configured")
            .live_sessions(),
        0,
        "journal tombstoned after the resumed job"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn tail — the classic kill-9-mid-write artifact — replays to the
/// last valid record. The crash tears another session's record mid-write;
/// the interrupted job's record, written before it, replays intact, and
/// RESUME succeeds.
#[test]
fn torn_journal_tail_still_resumes() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();

    let dir = temp_dir("torn");
    let first = journaled_service(&dir, |_| {});
    let mut client = RemoteClient::connect(
        FaultTransport::new(
            first.connect(),
            FaultSpec::none(SEED).with_cut_after(cut_mid_element(2)),
        ),
        WIDTH,
    )
    .expect("handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("cut kills the run");
    assert_eq!(progress.elements_done(), 2);
    let (dead, state) = client.into_parts();
    drop(dead);
    // Another session starts a job: its record is the segment's last.
    let mut other = RemoteClient::connect(first.connect(), WIDTH).expect("handshake");
    let _ready = other.start_job(&xs[..1]).expect("job admitted");
    wait_until("the second job's record", || {
        first.journal().is_some_and(|j| j.appends() == 2)
    });
    drop(first);

    // Tear the last record: chop bytes off the segment's end, mid-record.
    let segment = only_segment(&dir);
    let bytes = std::fs::read(&segment).expect("read segment");
    assert_eq!(records(&bytes).len(), 2);
    std::fs::write(&segment, &bytes[..bytes.len() - 33]).expect("tear tail");

    let second = journaled_service(&dir, |_| {});
    let replay = second.journal_replay();
    assert!(replay.truncated_tail, "the tear must be detected");
    assert!(
        replay.quarantined.is_empty(),
        "a torn tail is not corruption"
    );
    assert_eq!(replay.sessions, 1);

    let mut client = RemoteClient::reattach(second.connect(), state);
    client
        .resume_job(&mut progress)
        .expect("the interrupted job's record survives the tear");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, _) = progress.into_result();
    assert_eq!(ys, expected);
    client.goodbye();
    let stats = second.shutdown();
    assert_eq!(stats.jobs_resumed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit-flip corruption is caught by the CRC, the damaged segment is
/// quarantined (renamed, preserved for forensics), and the server *boots
/// anyway* — the session whose checkpoint was lost gets a typed
/// `REJECT(resume)` and falls back to a fresh restart; new sessions are
/// untouched. Refusing to boot is the one behavior this test forbids.
#[test]
fn corrupt_journal_quarantines_and_rejects_resume_typed() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);

    let dir = temp_dir("corrupt");
    let first = journaled_service(&dir, |_| {});
    let mut client = RemoteClient::connect(
        FaultTransport::new(
            first.connect(),
            FaultSpec::none(SEED).with_cut_after(cut_mid_element(2)),
        ),
        WIDTH,
    )
    .expect("handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("cut kills the run");
    let (dead, state) = client.into_parts();
    drop(dead);
    // The job's record was written before element 0's frames went out.
    assert_eq!(first.journal().map(|j| j.appends()), Some(1));
    drop(first);

    // Flip a bit in the *first* record: every record after it is
    // unreachable (the reader cannot re-synchronize), so the whole
    // segment's state is gone — worst case for this session.
    let segment = only_segment(&dir);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes[20] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("corrupt segment");

    let second = journaled_service(&dir, |_| {});
    let replay = second.journal_replay();
    assert_eq!(replay.quarantined.len(), 1, "segment quarantined");
    assert!(replay.quarantined[0].exists(), "evidence preserved");
    assert_eq!(replay.sessions, 0, "no checkpoint survived");

    // The interrupted session's RESUME is refused with the typed reason…
    let mut client = RemoteClient::reattach(second.connect(), state);
    match client.resume_job(&mut progress) {
        Err(AcceleratorError::Rejected { reason }) => {
            assert_eq!(reason, "resume state not found")
        }
        other => panic!("expected typed REJECT(resume), got {other:?}"),
    }

    // …while the server is fully alive: a fresh session serves jobs.
    let mut fresh = RemoteClient::connect(second.connect(), WIDTH).expect("fresh handshake");
    let x = demo_vector(COLS, WIDTH, SEED ^ 7);
    let (y, _) = fresh.secure_matvec(&x).expect("fresh job");
    assert_eq!(y, plain_matvec(&weights, &x));
    fresh.goodbye();
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Power cuts: what survives when only the synced bytes do.
// ---------------------------------------------------------------------

/// The tombstone record kind, per the documented segment layout.
const KIND_REMOVE: u8 = 2;

/// A journaled job costs 2 appends (its one record, after READY, and the
/// post-STATS tombstone) and exactly 1 barrier, however many elements it
/// has; a BYE after it appends nothing, the record being gone. METRICS
/// reports both counts.
#[test]
fn journaled_job_pays_one_barrier_per_job() {
    let dir = temp_dir("barriers");
    let service = journaled_service(&dir, |_| {});
    let mut client = RemoteClient::connect(service.connect(), WIDTH).expect("handshake");
    let xs: Vec<Vec<i64>> = (1..3).map(|i| demo_vector(COLS, WIDTH, SEED ^ i)).collect();
    let jobs = 2u64;
    for _ in 0..jobs {
        client.secure_matmul(&xs).expect("job");
    }
    // The session thread answers METRICS only after the job's tombstone.
    let body = client.metrics().expect("METRICS");
    assert!(
        body.contains(&format!("\"appends\":{},\"barriers\":{jobs},", 2 * jobs)),
        "{body}"
    );
    let journal = service.journal().expect("journal configured");
    assert_eq!((journal.appends(), journal.barriers()), (2 * jobs, jobs));
    client.goodbye();
    // The job's tombstone already removed the record: the BYE writes none.
    service.shutdown();
    assert_eq!((journal.appends(), journal.barriers()), (2 * jobs, jobs));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Power loss while job 2's record is being synced, right after its READY:
/// the record and job 1's tombstone, an ordered record, both miss the
/// disk. Replay then resurrects job 1's record; the interrupted job's
/// RESUME gets a typed `REJECT(resume)`, never a resume against that
/// record, and a fresh job still returns the plaintext `W·x`.
#[test]
fn power_cut_after_ready_rejects_resume_typed() {
    let weights = demo_weights(ROWS, COLS, WIDTH, SEED);
    let x1 = demo_vector(COLS, WIDTH, SEED ^ 1);
    let x2 = demo_vector(COLS, WIDTH, SEED ^ 2);

    let dir = temp_dir("power-ready");
    let first = journaled_service(&dir, |_| {});
    let mut client = RemoteClient::connect(first.connect(), WIDTH).expect("handshake");
    let (y1, _) = client.secure_matvec(&x1).expect("job 1");
    assert_eq!(y1, plain_matvec(&weights, &x1));
    // Job 2 gets its READY, then the wire is cut.
    let mut progress = client
        .start_job(std::slice::from_ref(&x2))
        .expect("job 2 admitted");
    let (dead, state) = client.into_parts();
    drop(dead);
    // Job 2's record goes out right after its READY.
    let journal = first.journal().expect("journal configured");
    wait_until("job 2's record", || journal.appends() == 3);
    assert_eq!(journal.barriers(), 2);
    drop(first);

    let segment = only_segment(&dir);
    let bytes = std::fs::read(&segment).expect("read segment");
    let records = records(&bytes);
    let kinds: Vec<u8> = records.iter().map(|&(_, kind)| kind).collect();
    assert_eq!(
        kinds,
        [KIND_CHECKPOINT, KIND_REMOVE, KIND_CHECKPOINT],
        "job 1's record and tombstone, then job 2's record"
    );
    // The segment as it stood when job 2's record began to sync, cut to
    // what had reached the disk.
    let image = power_cut_image(&bytes[..records[1].0]);
    assert_eq!(image.len(), records[0].0, "cut at job 1's record");
    std::fs::write(&segment, image).expect("power cut");

    let second = journaled_service(&dir, |_| {});
    let replay = second.journal_replay();
    assert!(replay.quarantined.is_empty() && !replay.truncated_tail);
    assert_eq!(replay.sessions, 1, "job 1's record comes back");
    let live = second.journal().expect("journal").live_checkpoints();
    assert_eq!(live[0].job_id, 0);
    assert_eq!(live[0].snapshots.len(), 1);
    assert_eq!(live[0].snapshots[0].0, 0, "the job's start");

    let mut client = RemoteClient::reattach(second.connect(), state);
    match client.resume_job(&mut progress) {
        Err(AcceleratorError::Rejected { reason }) => {
            assert_eq!(reason, "resume state not found")
        }
        other => panic!("expected typed REJECT(resume), got {other:?}"),
    }
    let mut fresh = RemoteClient::connect(second.connect(), WIDTH).expect("fresh handshake");
    let (y2, _) = fresh.secure_matvec(&x2).expect("fresh job");
    assert_eq!(y2, plain_matvec(&weights, &x2));
    fresh.goodbye();
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Power loss mid-element 2: the job's one record was a barrier, synced
/// before element 0's CIPHER went out, so the power-cut image is the whole
/// kill-9 image and RESUME stitches bit-identically to an uninterrupted
/// run.
#[test]
fn power_cut_mid_element_keeps_the_kill9_image_and_resumes_bit_identical() {
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x2D);
    let ref_dir = temp_dir("power-ref");
    let ref_service = journaled_service(&ref_dir, |_| {});
    let mut ref_client = RemoteClient::connect_with_trace(
        RecordingTransport::new(ref_service.connect()),
        WIDTH,
        trace,
    )
    .expect("reference handshake");
    let (ref_ys, _) = ref_client.secure_matmul(&xs).expect("reference job");
    let ref_recv = ref_client.goodbye().received_frames().to_vec();
    ref_service.shutdown();
    let _ = std::fs::remove_dir_all(&ref_dir);

    let dir = temp_dir("power-mid");
    let first = journaled_service(&dir, |_| {});
    let fault = FaultTransport::new(
        first.connect(),
        FaultSpec::none(SEED).with_cut_after(cut_mid_element(2)),
    );
    let mut client =
        RemoteClient::connect_with_trace(fault, WIDTH, trace).expect("crash handshake");
    let mut progress = client.start_job(&xs).expect("job admitted");
    client
        .run_job(&mut progress)
        .expect_err("the cut must kill the run");
    assert_eq!(progress.elements_done(), 2);
    let (dead, state) = client.into_parts();
    drop(dead);
    // The job's record, and nothing per element.
    let journal = first.journal().expect("journal configured");
    assert_eq!((journal.appends(), journal.barriers()), (1, 1));
    drop(first);

    let segment = only_segment(&dir);
    let bytes = std::fs::read(&segment).expect("read segment");
    assert_eq!(
        power_cut_image(&bytes),
        &bytes[..],
        "the last record written is a barrier"
    );

    let second = journaled_service(&dir, |_| {});
    assert_eq!(second.journal_replay().sessions, 1);
    let mut client = RemoteClient::reattach(RecordingTransport::new(second.connect()), state);
    client
        .resume_job(&mut progress)
        .expect("RESUME accepted after the power cut");
    client.run_job(&mut progress).expect("resumed run");
    let (ys, _) = progress.into_result();
    assert_eq!(ys, ref_ys, "resumed job must match the uninterrupted run");
    let conn2_recv = client.goodbye().received_frames().to_vec();
    assert_eq!(conn2_recv[0], ref_recv[1], "resumed READY diverged");
    assert_eq!(
        conn2_recv[1..],
        ref_recv[2 + 2..],
        "post-restart data (elements 1..6 + STATS) diverged"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keystone of the one-record journal: cut the wire mid-element `k` of
/// a 2-column job, for every `k`, keep only the segment's synced bytes, and
/// restart. The RESUME at the client's last evaluated element returns the
/// plaintext `W·x`, and every frame of the second connection matches the
/// uninterrupted run from that element on.
#[test]
fn a_power_cut_mid_any_element_resumes_bit_identical() {
    const SWEEP_ROWS: usize = 4;
    let xs = vec![
        demo_vector(COLS, WIDTH, SEED ^ 1),
        demo_vector(COLS, WIDTH, SEED ^ 2),
    ];
    let weights = demo_weights(SWEEP_ROWS, COLS, WIDTH, SEED);
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();
    let elements = xs.len() * SWEEP_ROWS;
    assert_eq!(elements, 8);
    let trace = max_telemetry::TraceContext::from_ids(0xB17, 0x3D);

    let ref_dir = temp_dir("sweep-ref");
    let ref_service = journaled_model(SWEEP_ROWS, &ref_dir, |_| {});
    let mut ref_client = RemoteClient::connect_with_trace(
        RecordingTransport::new(ref_service.connect()),
        WIDTH,
        trace,
    )
    .expect("reference handshake");
    let (ref_ys, _) = ref_client.secure_matmul(&xs).expect("reference job");
    assert_eq!(ref_ys, expected);
    let ref_rec = ref_client.goodbye();
    ref_service.shutdown();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (ref_sent, ref_recv) = (ref_rec.sent_frames(), ref_rec.received_frames());

    for k in 0..elements {
        let dir = temp_dir("sweep");
        let first = journaled_model(SWEEP_ROWS, &dir, |_| {});
        let fault = FaultTransport::new(
            first.connect(),
            FaultSpec::none(SEED).with_cut_after(cut_mid_element(k as u64)),
        );
        let mut client = RemoteClient::connect_with_trace(fault, WIDTH, trace).expect("handshake");
        let mut progress = client.start_job(&xs).expect("job admitted");
        client.run_job(&mut progress).expect_err("the cut");
        assert_eq!(progress.elements_done(), k, "k={k}");
        let (dead, state) = client.into_parts();
        drop(dead);
        // The server is done with the job: failed at the cut or, past the
        // last element's frames, finished with its tombstone written.
        wait_until("the first incarnation to end the job", || {
            let stats = first.stats();
            stats.checkpoints_saved + stats.jobs_completed == 1
        });
        drop(first);

        let segment = only_segment(&dir);
        let bytes = std::fs::read(&segment).expect("read segment");
        std::fs::write(&segment, power_cut_image(&bytes)).expect("power cut");

        let second = journaled_model(SWEEP_ROWS, &dir, |_| {});
        assert_eq!(second.journal_replay().sessions, 1, "k={k}");
        let mut client = RemoteClient::reattach(RecordingTransport::new(second.connect()), state);
        client
            .resume_job(&mut progress)
            .expect("RESUME after the power cut");
        let rollback = k.saturating_sub(1);
        assert_eq!(progress.elements_done(), rollback, "k={k}");
        client.run_job(&mut progress).expect("resumed run");
        let (ys, _) = progress.into_result();
        assert_eq!(ys, expected, "k={k}: W·x");
        let rec = client.goodbye();
        // Up: RESUME, then EXT(rollback..) and BYE as the reference sent
        // them. Down: READY, then element `rollback` on and STATS.
        let sent = rec.sent_frames();
        assert_eq!(sent.len(), 1 + ref_sent.len() - (2 + rollback), "k={k}");
        for (i, frame) in sent[1..].iter().enumerate() {
            assert_eq!(frame.1, ref_sent[2 + rollback + i].1, "k={k}: up {i}");
        }
        let recv = rec.received_frames();
        assert_eq!(recv[0], ref_recv[1], "k={k}: READY");
        assert_eq!(recv[1..], ref_recv[2 + 2 * rollback..], "k={k}: down");
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Real child-process tests: the serve binary, killed for real.
// ---------------------------------------------------------------------

struct ServeChild {
    child: Child,
    addr: String,
}

impl ServeChild {
    /// SIGKILLs the child and reaps it (idempotent).
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait(&mut self) -> std::process::ExitStatus {
        self.child.wait().expect("wait on serve child")
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // A panicking test must not leak a server process.
        self.kill();
    }
}

/// Spawns the serve binary and parses its bound address off stdout.
fn spawn_serve(args: &[&str]) -> ServeChild {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("serve printed a line")
        .expect("readable stdout");
    let addr = first
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable serve banner: {first}"))
        .to_string();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
    ServeChild { child, addr }
}

/// Spawns serve bound to `addr`, retrying while the previous incarnation's
/// socket clears.
fn respawn_serve(addr: &str, extra: &[&str]) -> ServeChild {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut args = vec!["--addr", addr];
        args.extend_from_slice(extra);
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        match lines.next() {
            Some(Ok(first)) if first.contains(" on ") => {
                std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
                return ServeChild {
                    child,
                    addr: addr.to_string(),
                };
            }
            _ => {
                // Bind failed (address still in TIME_WAIT-ish limbo) and
                // the child exited; reap it and retry.
                let _ = child.wait();
                assert!(Instant::now() < deadline, "could not rebind {addr}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// The full kill-9 story against the real binary: the server crashes (a
/// deterministic `abort()` planted at the Nth journal append — the
/// process dies with no cleanup, indistinguishable from SIGKILL at that
/// instant), a fresh server process restarts on the same port and journal
/// directory, and the resilient client's job rides through on RESUME —
/// not restart — with a correct result.
#[test]
fn killed_server_process_restarts_and_client_resumes() {
    let dir = temp_dir("child-abort");
    let dir_str = dir.to_string_lossy().to_string();

    // Crash right after the first append, the job's record: its READY
    // has gone out, element 0's CIPHER never does.
    let mut first = spawn_serve(&[
        "--addr",
        "127.0.0.1:0",
        "--journal-dir",
        &dir_str,
        "--crash-after-appends",
        "1",
        "--seed",
        "42",
    ]);
    let addr = first.addr.clone();

    let weights = demo_weights(4, 4, 8, 42);
    let xs: Vec<Vec<i64>> = (0..2).map(|i| demo_vector(4, 8, 42 ^ (i + 1))).collect();
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();

    // The client runs concurrently with the crash + restart. No step
    // timeout: a killed server surfaces as a prompt transport error (RST /
    // EOF), and job admission garbles the whole job before READY — slow in
    // debug builds — so a deadline would only add spurious redials.
    let client_addr = addr.clone();
    let client_thread = std::thread::spawn(move || {
        let mut client = ResilientClient::new(
            move || FramedTcp::connect(&client_addr).map_err(AcceleratorError::from),
            8,
            RetryPolicy {
                max_attempts: 60,
                base_backoff_ms: 50,
                max_backoff_ms: 400,
                step_timeout: None,
                jitter_seed: 7,
                integrity_retries: 4,
            },
        );
        let ys = client.secure_matmul(&xs).expect("job survives the crash").0;
        let stats = client.stats().clone();
        client.goodbye();
        (ys, stats)
    });

    // The crash is self-inflicted and deterministic; wait for the corpse.
    let status = first.wait();
    assert!(
        !status.success(),
        "the server must die by abort, not exit 0"
    );

    // Restart on the same port and journal directory, crash disarmed.
    let second = respawn_serve(&addr, &["--journal-dir", &dir_str, "--seed", "42"]);

    let (ys, stats) = client_thread.join().expect("client thread");
    assert_eq!(ys, expected, "post-crash result must be correct");
    assert!(
        stats.resumes >= 1,
        "recovery must go through RESUME, stats: {stats:?}"
    );
    assert_eq!(
        stats.restarts, 0,
        "a journaled server must never force a restart, stats: {stats:?}"
    );

    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Passes frames through and, once, reports when the `at`-th inbound
/// frame has arrived.
struct Tripwire<T> {
    inner: T,
    received: usize,
    trip: Option<(usize, mpsc::Sender<()>)>,
}

impl<T: Transport> Transport for Tripwire<T> {
    fn send_frame(&mut self, kind: FrameKind, frame: Bytes) -> Result<(), TransportError> {
        self.inner.send_frame(kind, frame)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        self.received += 1;
        if self
            .trip
            .as_ref()
            .is_some_and(|(at, _)| *at == self.received)
        {
            if let Some((_, tripped)) = self.trip.take() {
                let _ = tripped.send(());
            }
        }
        Ok(frame)
    }

    fn set_idle_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_idle_timeout(timeout)
    }
}

/// An actual `SIGKILL` delivered mid-job from outside, once the client
/// holds element data (so the job's record is on disk), then the same
/// restart-and-resume contract.
#[test]
fn sigkill_mid_job_restarts_and_client_resumes() {
    let dir = temp_dir("child-kill9");
    let dir_str = dir.to_string_lossy().to_string();

    let mut first = spawn_serve(&["--addr", "127.0.0.1:0", "--journal-dir", &dir_str]);
    let addr = first.addr.clone();

    let weights = demo_weights(4, 4, 8, 42);
    // A long job — 32 columns × 4 rows = 128 elements — so the kill lands
    // mid-job.
    let xs: Vec<Vec<i64>> = (0..32).map(|i| demo_vector(4, 8, 42 ^ (i + 1))).collect();
    let expected: Vec<Vec<i64>> = xs.iter().map(|x| plain_matvec(&weights, x)).collect();

    // The first connection trips once it holds ACCEPT, READY and five
    // elements' CIPHER + ROUNDS: the record was synced before element 0.
    let (tripped, mid_job) = mpsc::channel();
    let mut trip = Some((2 + 2 * 5, tripped));
    // No step timeout — see killed_server_process_restarts_and_client_resumes.
    let client_addr = addr.clone();
    let client_xs = xs.clone();
    let client_thread = std::thread::spawn(move || {
        let mut client = ResilientClient::new(
            move || {
                Ok(Tripwire {
                    inner: FramedTcp::connect(&client_addr)?,
                    received: 0,
                    trip: trip.take(),
                })
            },
            8,
            RetryPolicy {
                max_attempts: 60,
                base_backoff_ms: 50,
                max_backoff_ms: 400,
                step_timeout: None,
                jitter_seed: 11,
                integrity_retries: 4,
            },
        );
        let ys = client
            .secure_matmul(&client_xs)
            .expect("job survives SIGKILL")
            .0;
        let stats = client.stats().clone();
        client.goodbye();
        (ys, stats)
    });

    // Kill once the client holds element 4's data: mid-job, and long
    // before its end.
    mid_job
        .recv_timeout(Duration::from_secs(60))
        .expect("the job reached element 4");
    first.kill();

    let second = respawn_serve(&addr, &["--journal-dir", &dir_str]);

    let (ys, stats) = client_thread.join().expect("client thread");
    assert_eq!(ys, expected, "post-SIGKILL result must be correct");
    assert!(
        stats.resumes >= 1,
        "recovery must go through RESUME, stats: {stats:?}"
    );
    assert_eq!(stats.restarts, 0, "stats: {stats:?}");

    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM is the *graceful* sibling: the daemon drains (flushes the
/// journal, lets sessions wind down) and exits 0 instead of dying
/// mid-write.
#[test]
fn sigterm_drains_gracefully_and_exits_zero() {
    let dir = temp_dir("child-term");
    let dir_str = dir.to_string_lossy().to_string();

    let mut server = spawn_serve(&[
        "--addr",
        "127.0.0.1:0",
        "--journal-dir",
        &dir_str,
        "--idle-ms",
        "1000",
    ]);

    // A session completes a job cleanly, then disconnects.
    let weights = demo_weights(4, 4, 8, 42);
    let tcp = FramedTcp::connect(&server.addr).expect("connect");
    let mut client = RemoteClient::connect(tcp, 8).expect("handshake");
    let x = demo_vector(4, 8, 43);
    let (y, _) = client.secure_matvec(&x).expect("job");
    assert_eq!(y, plain_matvec(&weights, &x));
    client.goodbye();

    // SIGTERM → drain → exit 0. (std's Child::kill is SIGKILL, so shell
    // out for the graceful signal.)
    let pid = server.child.id().to_string();
    let delivered = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill -TERM")
        .success();
    assert!(delivered, "SIGTERM not delivered");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match server.child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None => {
                assert!(Instant::now() < deadline, "drain never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(status.code(), Some(0), "graceful drain must exit 0");
    let _ = std::fs::remove_dir_all(&dir);
}
