//! Fault-injected crash recovery for the on-disk journal.
//!
//! The harness records one durable reference session (Figure 1, ground-truth
//! oracle, aggressive auto-compaction so checkpoints are exercised), then
//! attacks the byte stream of its one event log:
//!
//! 1. a process **kill or torn write at every byte boundary** — produced by
//!    [`fault::FaultyWriter`] — must recover exactly the record prefix
//!    that reached disk, truncating the rest;
//! 2. rehydrating from **every record boundary** must be bit-identical to an
//!    in-memory replay of that prefix, and driving the recovered session to
//!    completion must land on the exact same final state as the
//!    uninterrupted run (every non-boundary cut reduces to its boundary by
//!    property 1);
//! 3. a proptest over **arbitrary corruption** (flips, truncation, appended
//!    garbage) must always yield a loadable prefix and a servable session;
//! 4. corruption **early in the log** truncates the log at the corrupt
//!    record, and the on-disk repair is idempotent;
//! 5. a `seg-*` file beside the log is refused by name, so its events are
//!    never dropped without an error.

mod common;
#[path = "common/fault.rs"]
mod fault;

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;

use common::{drive_one, figure1_spec, fingerprint, record_ends, TempDir};
use fault::{FaultMode, FaultyWriter};
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy as GdrStrategy;
use gdr_serve::journal::{DiskJournal, FsyncPolicy, JournalConfig, JournalError};
use gdr_serve::store::{Session, SessionJournal, SessionOptions, TranscriptEvent};
use proptest::prelude::*;

type Fingerprint = (Vec<(usize, u64, u64)>, usize, usize, String);

/// One fully recorded durable session, captured as raw bytes so every test
/// can reconstruct (and then damage) its own private copy of the journal.
struct Reference {
    /// The framed `spec.gdrj` contents.
    spec_bytes: Vec<u8>,
    /// The event log, exactly as recorded.
    stream: Vec<u8>,
    /// Byte offset just past each record in `stream`.
    record_ends: Vec<usize>,
    /// The clean decoded transcript.
    events: Vec<TranscriptEvent>,
    /// Engine fingerprint after the uninterrupted run finished.
    final_fp: Fingerprint,
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        // Fsync'ing every record on every test iteration is pure latency;
        // the tests inject faults at the byte level themselves.
        fsync: FsyncPolicy::Never,
        // Aggressive auto-compaction so checkpoints are recorded and must
        // be ignored/validated on recovery.
        compact_every: 5,
    }
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = TempDir::new("fault-ref");
        let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
        let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
        let mut session = SessionOptions::new()
            .journal(journal_config())
            .durable(dir.path())
            .open(spec)
            .expect("open durable");
        while drive_one(&mut session, &oracle) {}
        session.finish().expect("finish");
        let final_fp = fingerprint(session.engine());
        // Drop the session so its append handle syncs and closes.
        drop(session);

        let spec_bytes = fs::read(dir.join("spec.gdrj")).expect("read spec");
        let stream = fs::read(dir.join("seg-000000.gdrj")).expect("read log");
        let logs = fs::read_dir(dir.path())
            .expect("read_dir")
            .filter(|entry| {
                let entry = entry.as_ref().expect("entry");
                entry.file_name().to_string_lossy().starts_with("seg-")
            })
            .count();
        assert_eq!(logs, 1, "the session keeps one log");

        let loaded = DiskJournal::load(dir.path()).expect("load reference");
        assert!(
            loaded.recovery.clean(),
            "reference journal must load clean: {:?}",
            loaded.recovery
        );
        let record_ends = record_ends(&loaded.events);
        assert_eq!(
            record_ends.last().copied(),
            Some(stream.len()),
            "one record per event, and nothing else in the log"
        );
        assert!(
            loaded.checkpoint.is_some(),
            "auto-compaction must have recorded a checkpoint"
        );

        Reference {
            spec_bytes,
            stream,
            record_ends,
            events: loaded.events,
            final_fp,
        }
    })
}

impl Reference {
    /// How many whole records fit in the first `cut` bytes of the stream.
    fn records_before(&self, cut: usize) -> usize {
        self.record_ends.iter().filter(|&&end| end <= cut).count()
    }

    /// Byte offset of the last record boundary at or before `cut`.
    fn boundary_before(&self, cut: usize) -> usize {
        self.record_ends
            .iter()
            .copied()
            .rfind(|&end| end <= cut)
            .unwrap_or(0)
    }

    /// Materialises a journal directory holding the spec plus a log with
    /// exactly `bytes` as its contents.
    fn write_dir(&self, dir: &Path, bytes: &[u8]) {
        fs::write(dir.join("spec.gdrj"), &self.spec_bytes).expect("write spec");
        fs::write(dir.join("seg-000000.gdrj"), bytes).expect("write log");
    }
}

/// Replays the reference recording through a [`FaultyWriter`] with the given
/// byte budget, record by record exactly as the journal appends, returning
/// whatever reached the "disk" before the fault tripped.
fn write_until_fault(reference: &Reference, budget: usize, mode: FaultMode) -> Vec<u8> {
    let mut writer = FaultyWriter::new(Vec::new(), budget, mode);
    let mut start = 0usize;
    for &end in &reference.record_ends {
        if writer.write_all(&reference.stream[start..end]).is_err() {
            break;
        }
        start = end;
    }
    writer.into_inner()
}

/// Property 1: killing or tearing the writer at **every** byte budget leaves
/// a file from which recovery yields exactly the whole records that made it
/// to disk — never a manufactured record, never a lost durable one.
#[test]
fn recovery_from_every_kill_and_torn_prefix() {
    let reference = reference();
    let dir = TempDir::new("fault-kill");
    for budget in 0..=reference.stream.len() {
        // A torn write persists exactly `budget` bytes: the straddling
        // record is written partially before the fault.
        let torn = write_until_fault(reference, budget, FaultMode::Torn);
        assert_eq!(
            torn,
            &reference.stream[..budget],
            "torn write at budget {budget} must persist exactly the budget"
        );
        // A kill rejects the straddling write wholesale: only whole records
        // before the budget persist.
        let killed = write_until_fault(reference, budget, FaultMode::Kill);
        assert_eq!(
            killed,
            &reference.stream[..reference.boundary_before(budget)],
            "kill at budget {budget} must persist whole records only"
        );

        // Recover from the torn file (the harder case: arbitrary byte cut).
        reference.write_dir(dir.path(), &torn);
        let loaded = DiskJournal::load(dir.path()).expect("load survives any prefix");
        let expect_records = reference.records_before(budget);
        assert_eq!(
            loaded.events,
            &reference.events[..expect_records],
            "cut at byte {budget} must recover exactly {expect_records} records"
        );
        let partial = (budget - reference.boundary_before(budget)) as u64;
        assert_eq!(
            loaded.recovery.truncated_bytes, partial,
            "cut at byte {budget} must truncate the partial record"
        );
        assert_eq!(
            loaded.recovery.corruption.is_some(),
            partial > 0,
            "corruption detail accompanies every truncation"
        );
    }
}

/// Property 2: rehydrating from every record boundary is bit-identical to an
/// in-memory replay of that prefix, and the recovered session, driven by the
/// same oracle, finishes in the exact state of the uninterrupted run.
#[test]
fn rehydrated_session_continues_bit_identically() {
    let reference = reference();
    let oracle = {
        let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
        GroundTruthOracle::new(spec.ground_truth.expect("truth"))
    };
    for boundary in 0..=reference.record_ends.len() {
        let cut = if boundary == 0 {
            0
        } else {
            reference.record_ends[boundary - 1]
        };
        let dir = TempDir::new("fault-boundary");
        reference.write_dir(dir.path(), &reference.stream[..cut]);
        let (mut session, recovery) =
            Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
        assert!(
            recovery.clean(),
            "boundary {boundary}: a clean prefix needs no repair: {recovery:?}"
        );

        // Bit-identical to the in-memory replay of the same prefix.
        let twin = SessionJournal::from_events(
            DiskJournal::load(dir.path()).expect("load").spec,
            reference.events[..boundary].to_vec(),
        )
        .replay()
        .expect("in-memory replay");
        assert_eq!(
            fingerprint(session.engine()),
            fingerprint(twin.engine()),
            "boundary {boundary}: disk rehydrate must equal in-memory replay"
        );

        // The same oracle drives the recovered session to the same end.
        while drive_one(&mut session, &oracle) {}
        session.finish().expect("finish");
        assert_eq!(
            fingerprint(session.engine()),
            reference.final_fp,
            "boundary {boundary}: recovered run must finish bit-identically"
        );
    }
}

/// Property 4: a corrupt record early in the log truncates the log at that
/// record, and the repair, being written back to disk, makes the second
/// load clean.
#[test]
fn early_corruption_truncates_the_log_and_repair_is_idempotent() {
    let reference = reference();
    let dir = TempDir::new("fault-early");

    // Flip a byte a quarter of the way into the log.
    let target = reference.stream.len() / 4;
    let mut bytes = reference.stream.clone();
    bytes[target] ^= 0x01;
    reference.write_dir(dir.path(), &bytes);

    let loaded = DiskJournal::load(dir.path()).expect("load survives corruption");
    let kept = reference.boundary_before(target);
    assert_eq!(
        loaded.recovery.truncated_bytes,
        (bytes.len() - kept) as u64,
        "the cut drops the corrupt record and everything after it: {:?}",
        loaded.recovery
    );
    assert!(loaded.recovery.corruption.is_some());
    assert_eq!(
        loaded.events,
        &reference.events[..reference.records_before(target)],
        "recovered events must be the clean prefix"
    );
    assert_eq!(
        fs::read(dir.join("seg-000000.gdrj")).expect("read log"),
        &reference.stream[..kept],
        "the log is cut on disk"
    );

    // The repair was persisted: loading again finds nothing to fix.
    let again = DiskJournal::load(dir.path()).expect("reload");
    assert!(
        again.recovery.clean(),
        "on-disk repair must be idempotent: {:?}",
        again.recovery
    );
    assert_eq!(again.events, loaded.events);

    // And the repaired journal still rehydrates into a servable session.
    let (mut session, _) = Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
    session.next().expect("recovered session must serve");
}

/// Property 5: a `seg-*` file beside the log is refused with an error that
/// names it, and the directory is left as it was.
#[test]
fn a_stray_segment_file_is_refused_by_name() {
    let reference = reference();
    let dir = TempDir::new("fault-stray");
    reference.write_dir(dir.path(), &reference.stream);
    fs::write(dir.join("seg-000001.gdrj"), b"").expect("write stray");

    match DiskJournal::load(dir.path()) {
        Err(JournalError::Corrupt { detail }) => {
            assert!(detail.contains("seg-000001.gdrj"), "{detail}");
        }
        other => panic!("expected a corrupt-journal error, got {other:?}"),
    }
    assert_eq!(
        fs::read(dir.join("seg-000000.gdrj")).expect("read log"),
        reference.stream
    );
    assert!(dir.join("seg-000001.gdrj").exists());
}

/// The corruption a proptest case inflicts on the recorded stream.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut the stream at a byte offset (torn tail / kill).
    Truncate(usize),
    /// XOR one byte with a non-zero mask (bit rot).
    Flip(usize, u8),
    /// Append garbage after the valid stream (allocator scribble).
    Append(Vec<u8>),
}

fn damage_strategy(stream_len: usize) -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0..=stream_len).prop_map(Damage::Truncate),
        ((0..stream_len), (1u8..=255)).prop_map(|(at, mask)| Damage::Flip(at, mask)),
        proptest::collection::vec(0u8..=255, 1..40).prop_map(Damage::Append),
    ]
}

proptest! {
    /// Property 3: **any** single corruption of the stream still loads,
    /// recovers a strict prefix of the clean transcript, and rehydrates
    /// into a session the server could keep driving.
    #[test]
    fn arbitrary_corruption_recovers_a_servable_prefix(
        damage in damage_strategy(reference().stream.len()),
    ) {
        let reference = reference();
        let mut bytes = reference.stream.clone();
        match &damage {
            Damage::Truncate(at) => bytes.truncate(*at),
            Damage::Flip(at, mask) => bytes[*at] ^= mask,
            Damage::Append(garbage) => bytes.extend_from_slice(garbage),
        }

        let dir = TempDir::new("fault-prop");
        reference.write_dir(dir.path(), &bytes);
        let loaded = DiskJournal::load(dir.path()).expect("load survives damage");
        prop_assert!(
            loaded.events.len() <= reference.events.len(),
            "recovery must never manufacture events"
        );
        prop_assert_eq!(
            &loaded.events[..],
            &reference.events[..loaded.events.len()],
            "recovered events must be a prefix of the clean transcript"
        );

        let (mut session, _) =
            Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
        session.next().expect("recovered session must serve");
    }
}
