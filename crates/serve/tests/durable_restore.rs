//! The on-disk twin of `replay_restore`: a scripted session that journals
//! **every** solo event kind — `Answered`, `Supplied` (with values that
//! appear nowhere in the table or the ground truth, including a non-string),
//! `Skipped`, `Finished` — is rehydrated from disk at every event boundary
//! and must be bit-identical to the in-memory replay of the same prefix;
//! compacting the rehydrated session and restoring from its snapshot must
//! change nothing.

mod common;

use std::fs;

use common::{figure1_spec, fingerprint, record_ends, TempDir};
use gdr_core::step::WorkPlan;
use gdr_core::strategy::Strategy;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::store::{Session, SessionJournal, SessionOptions, TranscriptEvent};

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        compact_every: 7,
    }
}

/// A value that appears nowhere in the dirty table or the ground truth, with
/// characters the JSON codec must escape.
fn novel_string() -> Value {
    Value::from("No\"vel \\ City\t—")
}

/// A non-string supplied value: exercises the type-faithful value codec on
/// the journal path (`46360` the string and `46360` the int must not merge).
fn novel_int() -> Value {
    Value::Int(424_242)
}

/// Drives a durable session through a script that is guaranteed to journal
/// every [`TranscriptEvent`] variant: reject every question (forcing the
/// supply sweep), then supply the two novel values and skip the rest.
fn record_scripted_session(session: &mut Session) {
    let mut supplied = 0usize;
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 500, "script did not terminate");
        match session.next().expect("next") {
            WorkPlan::AskUser { id, .. } => {
                session.answer(id, Feedback::Reject).expect("answer");
            }
            WorkPlan::NeedsValue { cell } => {
                match supplied {
                    0 => {
                        session.supply(cell, novel_string()).expect("supply str");
                    }
                    1 => {
                        session.supply(cell, novel_int()).expect("supply int");
                    }
                    _ => session.skip(cell).expect("skip"),
                }
                supplied += 1;
            }
            WorkPlan::Done(_) => break,
        }
    }
    session.finish().expect("finish");
}

#[test]
fn every_event_kind_rehydrates_bit_identically_at_every_boundary() {
    // Record the reference session on disk.
    let recorded = TempDir::new("durable-ref");
    let spec = figure1_spec(Strategy::GdrNoLearning, true);
    let mut live = SessionOptions::new()
        .journal(journal_config())
        .durable(recorded.path())
        .open(spec)
        .expect("open");
    record_scripted_session(&mut live);
    let final_fp = fingerprint(live.engine());
    drop(live);

    // Read back the raw stream and the clean transcript.
    let spec_bytes = fs::read(recorded.join("spec.gdrj")).expect("read spec");
    let stream = fs::read(recorded.join("seg-000000.gdrj")).expect("read log");
    let loaded = DiskJournal::load(recorded.path()).expect("load");
    assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
    let events = loaded.events;

    // The script really did journal every variant, novel values included.
    assert!(events
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Answered(..))));
    assert!(events
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Supplied(_, v) if *v == novel_string())));
    assert!(events
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Supplied(_, v) if *v == novel_int())));
    assert!(events
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Skipped(_))));
    assert_eq!(
        events.last(),
        Some(&TranscriptEvent::Finished { pulled: true })
    );

    // Byte offset just past each record, from the events' framed lengths.
    let record_ends = record_ends(&events);
    assert_eq!(record_ends.last().copied(), Some(stream.len()));

    for boundary in 0..=events.len() {
        let cut = if boundary == 0 {
            0
        } else {
            record_ends[boundary - 1]
        };
        let dir = TempDir::new("durable-boundary");
        fs::write(dir.join("spec.gdrj"), &spec_bytes).expect("write spec");
        fs::write(dir.join("seg-000000.gdrj"), &stream[..cut]).expect("write segment");

        let (mut session, recovery) =
            Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
        assert!(recovery.clean(), "boundary {boundary}: {recovery:?}");
        assert_eq!(session.journal().transcript(), &events[..boundary]);

        // Disk rehydration equals the in-memory replay of the same prefix.
        let twin = SessionJournal::from_events(
            DiskJournal::load(dir.path()).expect("load").spec,
            events[..boundary].to_vec(),
        )
        .replay()
        .expect("in-memory replay");
        let rehydrated_fp = fingerprint(session.engine());
        assert_eq!(
            rehydrated_fp,
            fingerprint(twin.engine()),
            "boundary {boundary}: disk and in-memory replay diverged"
        );

        // Compacting (snapshot adoption) then restoring from the snapshot
        // is invisible: the compacted restore is bit-identical to the
        // full-replay restore at every interruption point.
        session.compact().expect("compact");
        assert!(session.journal().transcript().is_empty());
        session.restore().expect("restore from snapshot");
        assert_eq!(
            fingerprint(session.engine()),
            rehydrated_fp,
            "boundary {boundary}: compacted restore diverged from full replay"
        );
    }

    // Rehydrating the untouched recording lands on the live final state.
    let (full, recovery) =
        Session::rehydrate(recorded.path(), journal_config()).expect("rehydrate full");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(fingerprint(full.engine()), final_fp);
}
