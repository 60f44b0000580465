//! Pins the `S2` state format byte for byte, so any change to an encoder's
//! output — a field order, a width, a tag, a section version — fails here
//! first.  Each section decoder accepts only the version it writes, so a
//! format change must bump the changed section's version (durable sessions
//! written before it are then refused, not misread) and re-pin here.
//!
//! Pinned: the exact record payload of one instance of each
//! [`TranscriptEvent`] tag; the FNV-1a 64 of a Figure-1 spec record; the
//! length and FNV-1a 64 of [`gdr_core::team::TeamSession::state_bytes`]
//! after scripted Figure-1 runs (a learning `Gdr` session past two
//! retrains, and team sessions whose leases, votes, escalations, buffered
//! resolutions and resolution logs are non-empty along the way); and the
//! 64-event checkpoint of a 1k-row team session.

mod common;

use std::fs;

use common::{drive_one, figure1_spec, TempDir};
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::strategy::Strategy;
use gdr_core::team::{ConflictPolicy, Resolution, TeamPlan};
use gdr_relation::codec::fnv1a64;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{encode_event, encode_spec, snapshot_name, FsyncPolicy, JournalConfig};
use gdr_serve::store::{OpenSpec, Session, SessionOptions, TranscriptEvent};

/// `(length, FNV-1a 64)` of a payload.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

#[test]
fn every_event_tag_encodes_to_its_pinned_bytes() {
    let resolved = vec![
        (
            0,
            Resolution::Answer {
                cell: (1, 2),
                feedback: Feedback::Confirm,
            },
        ),
        (
            1,
            Resolution::Supply {
                cell: (300, 4),
                value: Value::Str("Fort Wayne".into()),
            },
        ),
        (2, Resolution::Skip { cell: (5, 0) }),
    ];
    let cases: [(TranscriptEvent, &[u8]); 10] = [
        (
            TranscriptEvent::Answered(130, Feedback::Reject),
            &[1, 130, 1, 1],
        ),
        (
            TranscriptEvent::Supplied((2, 3), Value::Int(-65)),
            &[2, 2, 3, 1, 129, 1],
        ),
        (TranscriptEvent::Skipped((7, 1)), &[3, 7, 1]),
        (TranscriptEvent::Finished { pulled: true }, &[4, 1]),
        (
            TranscriptEvent::Leased {
                reviewer: "ann".into(),
                id: 9,
            },
            &[5, 3, b'a', b'n', b'n', 9],
        ),
        (
            TranscriptEvent::Waited {
                reviewer: "bo".into(),
            },
            &[6, 2, b'b', b'o'],
        ),
        (
            TranscriptEvent::AnsweredAs {
                reviewer: "a".into(),
                id: 4,
                feedback: Feedback::Retain,
                resolved: resolved.clone(),
            },
            &[
                7, 1, b'a', 4, 2, 3, 0, 0, 1, 2, 0, 1, 1, 172, 2, 4, 2, 10, b'F', b'o', b'r', b't',
                b' ', b'W', b'a', b'y', b'n', b'e', 2, 2, 5, 0,
            ],
        ),
        (
            TranscriptEvent::SuppliedAs {
                reviewer: "b".into(),
                id: 200,
                value: Value::Null,
                resolved: Vec::new(),
            },
            &[8, 1, b'b', 200, 1, 0, 0],
        ),
        (
            TranscriptEvent::SkippedAs {
                reviewer: "c".into(),
                id: 6,
                resolved: resolved[2..].to_vec(),
            },
            &[9, 1, b'c', 6, 1, 2, 2, 5, 0],
        ),
        (
            TranscriptEvent::Released {
                reviewer: "d".into(),
                id: 11,
            },
            &[10, 1, b'd', 11],
        ),
    ];
    for (event, bytes) in cases {
        assert_eq!(encode_event(&event), bytes, "{event:?}");
    }
}

#[test]
fn the_figure1_spec_record_hashes_to_its_pinned_value() {
    let spec = encode_spec(&figure1_spec(Strategy::Gdr, true));
    assert_eq!(pin(&spec), (1_077, 1_937_874_317_986_582_064));
}

/// Drives a Figure-1 `Gdr` session with ground truth to its end through
/// the solo verbs, folding every visited state into one digest.  `fast()`
/// retrains every five answers, so the forests, their datasets and the
/// evaluation checkpoints are non-empty long before the end.
#[test]
fn a_learning_figure1_session_keeps_its_pinned_state() {
    let (_, clean, _) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean);
    let mut session = SessionOptions::new()
        .open(figure1_spec(Strategy::Gdr, true))
        .expect("open");
    let mut visited = Vec::new();
    while drive_one(&mut session, &oracle) {
        visited.extend_from_slice(&fnv1a64(&session.team().state_bytes()).to_le_bytes());
    }
    // Two retrains at `ns_batch` = 5.
    assert!(session.engine().verifications() >= 10);
    assert_eq!(
        (pin(&session.team().state_bytes()), fnv1a64(&visited)),
        (
            (2_872, 6_350_136_053_719_018_142),
            1_062_978_894_090_767_032
        )
    );
}

/// One scripted multi-reviewer run over Figure 1: three reviewers lease in
/// turn; `c` abandons every lease it is given, `b` answers against the
/// oracle on odd lease ids (disagreements), and fixes are supplied from
/// the ground truth or skipped.  Returns the final state's pin and a digest
/// of every state visited.
fn scripted_team_run(policy: ConflictPolicy) -> ((usize, u64), u64) {
    let (_, clean, _) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean);
    let mut spec = figure1_spec(Strategy::GdrNoLearning, false);
    spec.team.policy = policy;
    spec.team.lease_ttl = 6;
    let mut session = SessionOptions::new().open(spec).expect("open");
    let mut visited = Vec::new();
    'run: for _ in 0..80 {
        for reviewer in ["a", "b", "c"] {
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, update } => {
                    if reviewer == "c" {
                        continue;
                    }
                    let truth = {
                        let current = session
                            .engine()
                            .state()
                            .table()
                            .cell(update.tuple, update.attr);
                        oracle.feedback(&update, current)
                    };
                    let feedback = match (reviewer, id.raw() % 2) {
                        ("b", 1) if truth == Feedback::Confirm => Feedback::Reject,
                        ("b", 1) => Feedback::Confirm,
                        _ => truth,
                    };
                    session.answer_as(reviewer, id, feedback).expect("answer");
                }
                TeamPlan::Fix { id, cell, current } => {
                    if reviewer == "c" {
                        continue;
                    }
                    match oracle.correct_value(cell.0, cell.1) {
                        Some(value) if value != current => {
                            session.supply_as(reviewer, id, value).expect("supply");
                        }
                        _ => session.skip_as(reviewer, id).expect("skip"),
                    }
                }
                TeamPlan::Wait => {}
                TeamPlan::Done(_) => break 'run,
            }
            visited.extend_from_slice(&fnv1a64(&session.team().state_bytes()).to_le_bytes());
        }
    }
    assert!(!session.team().resolutions().is_empty());
    (pin(&session.team().state_bytes()), fnv1a64(&visited))
}

#[test]
fn a_majority_team_run_keeps_its_pinned_states() {
    assert_eq!(
        scripted_team_run(ConflictPolicy::Majority { k: 2 }),
        (
            (1_434, 11_092_411_521_105_438_012),
            17_609_014_262_320_647_755
        )
    );
}

#[test]
fn an_escalating_team_run_keeps_its_pinned_states() {
    assert_eq!(
        scripted_team_run(ConflictPolicy::EscalateToNeedsValue),
        (
            (1_451, 13_514_730_370_145_621_969),
            5_296_474_753_033_989_709
        )
    );
}

/// The checkpoint `checkpoint_restore.rs`'s 64 KiB test writes: a seed-1
/// `at_scale(1000)` `GdrNoLearning` session of two reviewers after 64
/// events.
#[test]
fn a_1k_row_team_checkpoint_keeps_its_pinned_bytes() {
    let data =
        gdr_datagen::hospital::generate_hospital_dataset(&gdr_datagen::hospital::HospitalConfig {
            seed: 1,
            ..gdr_datagen::hospital::HospitalConfig::at_scale(1000)
        });
    let oracle = GroundTruthOracle::new(data.clean);
    let mut spec = OpenSpec::new(data.dirty, data.rules);
    spec.strategy = Strategy::GdrNoLearning;
    let dir = TempDir::new("state-format");
    let mut session: Session = SessionOptions::new()
        .journal(JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::default()
        })
        .durable(dir.path())
        .open(spec)
        .expect("open durable team");
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
    let bytes = fs::read(&checkpoint).expect("checkpoint");
    assert_eq!(pin(&bytes), (51_413, 12_744_765_863_045_091_619));
}
