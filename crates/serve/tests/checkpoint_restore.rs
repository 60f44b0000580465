//! Checkpointed disk recovery: a compacted session's `snap-NNNNNN.gdrs`
//! checkpoint plus the journal tail must rebuild the session bit-identically
//! to a full replay of the whole transcript — at every interruption point —
//! and a damaged checkpoint must *degrade* (older snapshot, then full
//! replay), never lose the clean event prefix, and never fail recovery.
//!
//! The workload is a generated hospital instance large enough for a
//! 500+-event transcript with two compactions mid-stream, driven through
//! the multi-reviewer verbs so every event kind appears on disk.

mod common;

use std::fs;
use std::path::Path;
use std::time::Instant;

use common::{fingerprint, record_ends, TempDir};
use gdr_core::config::GdrConfig;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::strategy::Strategy;
use gdr_core::team::{ConflictPolicy, TeamConfig, TeamPlan};
use gdr_serve::journal::{snapshot_name, DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::store::{OpenSpec, Session, SessionOptions};

fn journal_config() -> JournalConfig {
    JournalConfig {
        // This suite times and compares replay paths, not the disk
        // controller; compaction is triggered manually at chosen points.
        fsync: FsyncPolicy::Never,
        compact_every: 0,
    }
}

fn hospital_spec() -> OpenSpec {
    let data =
        gdr_datagen::hospital::generate_hospital_dataset(&gdr_datagen::hospital::HospitalConfig {
            tuples: 560,
            dirty_fraction: 0.45,
            seed: 7,
            extra_cities: 2,
        });
    let mut spec = OpenSpec::new(data.dirty, data.rules);
    spec.strategy = Strategy::GdrNoLearning;
    spec.config = GdrConfig::fast();
    spec.ground_truth = Some(data.clean);
    spec.team = TeamConfig {
        policy: ConflictPolicy::FirstWins,
        lease_ttl: 32,
    };
    spec
}

/// Drives the session to completion through the team verbs with two
/// reviewers, compacting whenever the journal crosses the next threshold in
/// `compact_at` (ascending event counts).
fn record_session(session: &mut Session, compact_at: &[usize]) {
    let oracle = GroundTruthOracle::new(hospital_spec().ground_truth.expect("truth"));
    let mut pending = compact_at.iter().copied().peekable();
    let mut guard = 0usize;
    'drive: loop {
        for reviewer in ["a", "b"] {
            guard += 1;
            assert!(guard < 20_000, "recording did not converge");
            if pending
                .peek()
                .is_some_and(|&at| session.journal().events_total() >= at)
            {
                pending.next();
                session.compact().expect("compact");
            }
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, update } => {
                    let feedback = {
                        let current = session
                            .engine()
                            .state()
                            .table()
                            .cell(update.tuple, update.attr);
                        oracle.feedback(&update, current)
                    };
                    session.answer_as(reviewer, id, feedback).expect("answer");
                }
                TeamPlan::Fix { id, cell, current } => match oracle.correct_value(cell.0, cell.1) {
                    Some(value) if value != current => {
                        session.supply_as(reviewer, id, value).expect("supply");
                    }
                    _ => session.skip_as(reviewer, id).expect("skip"),
                },
                TeamPlan::Wait => {}
                TeamPlan::Done(_) => break 'drive,
            }
        }
    }
    session.finish().expect("finish");
}

/// Total event count of this workload, measured on a throwaway in-memory
/// session (determinism makes every recording identical).
fn workload_events() -> usize {
    let mut probe = SessionOptions::new().open(hospital_spec()).expect("open");
    record_session(&mut probe, &[]);
    probe.journal().events_total()
}

/// The concatenated journal byte stream and the offset just past each
/// record, from the framed lengths of the decoded events.
fn stream_and_ends(dir: &Path) -> (Vec<u8>, Vec<usize>) {
    let stream = fs::read(dir.join("seg-000000.gdrj")).expect("read log");
    let loaded = DiskJournal::load(dir).expect("load recording");
    assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
    let ends = record_ends(&loaded.events);
    assert_eq!(ends.last().copied(), Some(stream.len()));
    (stream, ends)
}

/// Clones a recorded journal dir with the event stream cut at `cut` bytes.
/// `keep_snapshots` controls whether the checkpoint payloads ride along.
fn trial_dir(recorded: &Path, stream: &[u8], cut: usize, keep_snapshots: bool) -> TempDir {
    let dir = TempDir::new("ckpt-trial");
    for entry in fs::read_dir(recorded).expect("read_dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name().into_string().expect("utf8 name");
        if name.starts_with("seg-") {
            continue;
        }
        if !keep_snapshots && name.ends_with(".gdrs") {
            continue;
        }
        fs::copy(entry.path(), dir.join(&name)).expect("copy");
    }
    fs::write(dir.join("seg-000000.gdrj"), &stream[..cut]).expect("write segment");
    dir
}

fn snapshot_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|n| n.ends_with(".gdrs"))
        .collect();
    names.sort();
    names
}

/// A recorded reference session: the journal dir, the byte stream with its
/// record boundaries, the full transcript, and the compaction points.
struct Recording {
    dir: TempDir,
    stream: Vec<u8>,
    record_ends: Vec<usize>,
    events: usize,
    covered: Vec<usize>,
    final_fp: (Vec<(usize, u64, u64)>, usize, usize, String),
}

fn record_reference() -> Recording {
    let events = workload_events();
    assert!(
        events >= 500,
        "workload too small for the checkpoint suite: {events} events"
    );
    // Compact twice: once mid-stream and once near the end, so the suite
    // covers both the retained-fallback snapshot and a short live tail.
    let compact_at = [events / 2, events - 40];

    let dir = TempDir::new("ckpt-ref");
    let mut live = SessionOptions::new()
        .journal(journal_config())
        .durable(dir.path())
        .open(hospital_spec())
        .expect("open durable");
    record_session(&mut live, &compact_at);
    assert_eq!(
        live.journal().events_total(),
        events,
        "nondeterministic run"
    );
    let covered: Vec<usize> = snapshot_files(dir.path())
        .iter()
        .map(|n| {
            n.trim_start_matches("snap-")
                .trim_end_matches(".gdrs")
                .parse::<usize>()
                .expect("snapshot name")
        })
        .collect();
    assert_eq!(covered.len(), 2, "expected both checkpoints kept");
    assert!(covered[0] >= compact_at[0] && covered[1] >= compact_at[1]);
    let final_fp = fingerprint(live.engine());
    drop(live);

    let (stream, record_ends) = stream_and_ends(dir.path());
    assert_eq!(record_ends.len(), events);
    Recording {
        dir,
        stream,
        record_ends,
        events,
        covered,
        final_fp,
    }
}

impl Recording {
    fn cut(&self, boundary: usize) -> usize {
        if boundary == 0 {
            0
        } else {
            self.record_ends[boundary - 1]
        }
    }
}

#[test]
fn checkpointed_restore_is_bit_identical_to_full_replay_at_every_boundary() {
    let rec = record_reference();
    let [old_cover, new_cover] = [rec.covered[0], rec.covered[1]];

    // Every interruption point past the newest checkpoint: recovery must be
    // clean, restore from the checkpoint, and land bit-identical to the
    // full-replay restore of the same prefix.  Earlier boundaries (journal
    // shorter than the checkpoint — possible because snapshots fsync before
    // lazily-synced segments) are sampled: the too-new checkpoint is
    // discarded, recovery degrades (older snapshot, then full replay), and
    // the clean prefix still restores exactly.
    let boundaries = (new_cover..=rec.events)
        .chain((0..new_cover).step_by(31))
        .chain([old_cover - 1, old_cover, old_cover + 1, new_cover - 1]);
    for boundary in boundaries {
        let cut = rec.cut(boundary);
        let ckpt = trial_dir(rec.dir.path(), &rec.stream, cut, true);
        let (ckpt_session, ckpt_recovery) =
            Session::rehydrate(ckpt.path(), journal_config()).expect("checkpointed rehydrate");
        let full = trial_dir(rec.dir.path(), &rec.stream, cut, false);
        let (full_session, full_recovery) =
            Session::rehydrate(full.path(), journal_config()).expect("full-replay rehydrate");

        // The checkpoint is an accelerator, not an oracle: state, transcript,
        // and digest all equal the full replay's.
        assert!(full_recovery.snapshots_skipped == 0, "boundary {boundary}");
        assert_eq!(
            ckpt_session.journal().transcript().len() + ckpt_session.journal().snapshot_events(),
            boundary,
            "boundary {boundary}: wrong transcript length"
        );
        assert_eq!(
            fingerprint(ckpt_session.engine()),
            fingerprint(full_session.engine()),
            "boundary {boundary}: checkpointed restore diverged from full replay"
        );
        assert_eq!(
            ckpt_session.team().to_snapshot_bytes(),
            full_session.team().to_snapshot_bytes(),
            "boundary {boundary}: coordinator state diverged"
        );

        if boundary >= new_cover {
            assert!(
                ckpt_recovery.clean(),
                "boundary {boundary}: {ckpt_recovery:?}"
            );
            assert_eq!(
                ckpt_session.journal().snapshot_events(),
                new_cover,
                "boundary {boundary}: did not restore from the newest checkpoint"
            );
        } else {
            // The newest snapshot covers events this journal prefix does not
            // have — it must be skipped, not trusted.
            assert!(
                ckpt_recovery.snapshots_skipped >= 1,
                "boundary {boundary}: too-new checkpoint was not skipped"
            );
            let expected_base = if boundary >= old_cover { old_cover } else { 0 };
            assert_eq!(
                ckpt_session.journal().snapshot_events(),
                expected_base,
                "boundary {boundary}: wrong degradation target"
            );
        }
    }

    // The untouched recording restores from the checkpoint to the recorded
    // final state, and measurably faster than replaying all 500+ events.
    let timed = |keep: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), keep);
            let start = Instant::now();
            let (session, recovery) =
                Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(recovery.snapshots_skipped, 0);
            assert_eq!(fingerprint(session.engine()), rec.final_fp);
        }
        best
    };
    let checkpointed = timed(true);
    let full_replay = timed(false);
    println!(
        "cold restore of {} events: checkpointed {:.1} ms vs full replay {:.1} ms",
        rec.events,
        checkpointed * 1e3,
        full_replay * 1e3
    );
    assert!(
        checkpointed < full_replay,
        "checkpointed restore ({checkpointed:.4}s) not faster than full replay ({full_replay:.4}s)"
    );
}

#[test]
fn corrupt_checkpoints_degrade_without_losing_the_clean_prefix() {
    let rec = record_reference();
    let [old_cover, new_cover] = [rec.covered[0], rec.covered[1]];
    let newest = snapshot_name(new_cover as u64);
    let oldest = snapshot_name(old_cover as u64);

    // Reference state: the clean full-journal restore.
    let clean_dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), false);
    let (clean_session, _) =
        Session::rehydrate(clean_dir.path(), journal_config()).expect("clean rehydrate");
    let clean_fp = fingerprint(clean_session.engine());
    assert_eq!(clean_fp, rec.final_fp);
    drop(clean_session);

    // Each mutilation of the checkpoint payloads must degrade exactly one
    // rung down the ladder and still restore the full recorded state.
    #[allow(clippy::type_complexity)]
    let corruptions: Vec<(&str, Box<dyn Fn(&Path)>)> = vec![
        (
            "flip a payload byte mid-snapshot",
            Box::new(|p| {
                let mut bytes = fs::read(p).expect("read snap");
                let at = bytes.len() / 2;
                bytes[at] ^= 0x40;
                fs::write(p, bytes).expect("write snap");
            }),
        ),
        (
            "truncate the snapshot",
            Box::new(|p| {
                let bytes = fs::read(p).expect("read snap");
                fs::write(p, &bytes[..bytes.len() / 3]).expect("write snap");
            }),
        ),
        (
            "empty the snapshot",
            Box::new(|p| fs::write(p, b"").expect("write snap")),
        ),
        (
            "replace with garbage framing",
            Box::new(|p| fs::write(p, b"S1 not a snapshot\n").expect("write snap")),
        ),
    ];

    for (label, corrupt) in &corruptions {
        // Newest checkpoint damaged: recovery falls back to the older one.
        let dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), true);
        corrupt(&dir.join(&newest));
        let (session, recovery) = Session::rehydrate(dir.path(), journal_config())
            .unwrap_or_else(|e| panic!("{label}: rehydrate failed: {e}"));
        assert_eq!(recovery.snapshots_skipped, 1, "{label}: {recovery:?}");
        assert!(!recovery.clean(), "{label}: degradation must be reported");
        assert_eq!(
            session.journal().snapshot_events(),
            old_cover,
            "{label}: expected the fallback checkpoint"
        );
        assert_eq!(fingerprint(session.engine()), rec.final_fp, "{label}");
        // The unusable payload was dropped so the next recovery is clean.
        assert!(!dir.join(&newest).exists(), "{label}: corrupt file kept");

        // Both checkpoints damaged: recovery degrades to full replay of the
        // intact journal — the clean prefix is never lost.
        let dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), true);
        corrupt(&dir.join(&newest));
        corrupt(&dir.join(&oldest));
        let (session, recovery) = Session::rehydrate(dir.path(), journal_config())
            .unwrap_or_else(|e| panic!("{label}: double-corrupt rehydrate failed: {e}"));
        assert_eq!(recovery.snapshots_skipped, 2, "{label}: {recovery:?}");
        assert_eq!(session.journal().snapshot_events(), 0, "{label}");
        assert_eq!(
            session.journal().transcript().len(),
            rec.events,
            "{label}: full replay lost events"
        );
        assert_eq!(fingerprint(session.engine()), rec.final_fp, "{label}");
    }
}

#[test]
fn pre_checkpoint_era_journals_restore_unchanged() {
    // A journal dir without checkpoints: the spec and segments, but no
    // `snap-*.gdrs` files.  Recovery must be a clean full replay — no skips,
    // no complaints, identical state.
    let rec = record_reference();
    let dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), false);
    assert!(snapshot_files(dir.path()).is_empty());

    let (session, recovery) =
        Session::rehydrate(dir.path(), journal_config()).expect("pre-era rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(recovery.snapshots_skipped, 0);
    assert_eq!(session.journal().snapshot_events(), 0);
    assert_eq!(session.journal().transcript().len(), rec.events);
    assert_eq!(fingerprint(session.engine()), rec.final_fp);
}

#[test]
fn torn_checkpoint_temp_files_are_removed_and_recovery_is_unchanged() {
    let rec = record_reference();
    let new_cover = rec.covered[1];
    let reference_dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), true);
    let (reference, reference_recovery) =
        Session::rehydrate(reference_dir.path(), journal_config()).expect("reference rehydrate");

    // A kill between the temp file's create and its rename: the next
    // checkpoint's temp file holds half a frame and was never adopted.
    let dir = trial_dir(rec.dir.path(), &rec.stream, rec.stream.len(), true);
    let newest = fs::read(dir.join(snapshot_name(new_cover as u64))).expect("read snap");
    let torn = format!("{}.tmp", snapshot_name(rec.events as u64));
    fs::write(dir.join(&torn), &newest[..newest.len() / 2]).expect("plant temp file");

    let (session, recovery) =
        Session::rehydrate(dir.path(), journal_config()).expect("rehydrate past a temp file");
    assert!(!dir.join(&torn).exists(), "torn temp file kept");
    assert_eq!(recovery, reference_recovery);
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(session.journal().snapshot_events(), new_cover);
    assert_eq!(
        session.team().to_snapshot_bytes(),
        reference.team().to_snapshot_bytes()
    );
    assert_eq!(fingerprint(session.engine()), rec.final_fp);
}

/// The checkpoint a 1k-row `team_fleet`-style session writes after its
/// first 64 events — `HospitalConfig::at_scale(1000)` at seed 1,
/// `GdrNoLearning`, no ground truth, two reviewers, default journal
/// tunables — stays within 64 KiB, because varint integers keep tuple ids,
/// attributes, lengths, value ids and generation stamps at a byte or two.
#[test]
fn a_1k_row_team_checkpoint_after_64_events_fits_in_64_kib() {
    let data =
        gdr_datagen::hospital::generate_hospital_dataset(&gdr_datagen::hospital::HospitalConfig {
            seed: 1,
            ..gdr_datagen::hospital::HospitalConfig::at_scale(1000)
        });
    let oracle = GroundTruthOracle::new(data.clean);
    let mut spec = OpenSpec::new(data.dirty, data.rules);
    spec.strategy = Strategy::GdrNoLearning;
    let dir = TempDir::new("ckpt-size");
    let mut session = SessionOptions::new()
        .journal(JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::default()
        })
        .durable(dir.path())
        .open(spec)
        .expect("open durable team");
    assert_eq!(JournalConfig::default().compact_every, 64);
    let checkpoint = dir.join(snapshot_name(64));
    while !checkpoint.exists() {
        assert!(session.journal().events_total() < 64, "no checkpoint at 64");
        for reviewer in ["a", "b"] {
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, update } => {
                    let feedback = {
                        let current = session
                            .engine()
                            .state()
                            .table()
                            .cell(update.tuple, update.attr);
                        oracle.feedback(&update, current)
                    };
                    session.answer_as(reviewer, id, feedback).expect("answer");
                }
                TeamPlan::Fix { id, .. } => session.skip_as(reviewer, id).expect("skip"),
                TeamPlan::Wait => {}
                TeamPlan::Done(reason) => panic!("concluded early: {reason:?}"),
            }
        }
    }
    let bytes = fs::metadata(&checkpoint).expect("checkpoint").len();
    assert!(bytes <= 65_536, "the 64-event checkpoint is {bytes} bytes");
}
