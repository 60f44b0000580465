//! One journal record and one fsync per answer: pulls are never journaled.
//!
//! A durable figure-1 session under [`FsyncPolicy::EveryRecord`] appends and
//! fsyncs exactly once per successful `answer`/`supply`/`skip`/`finish` and
//! never on `next`.  Replay infers the pulls, which these tests pin from
//! both sides: a question served but never journaled stays answerable by
//! its work id after a cold restart, and a `finish` right after a pull that
//! crossed a group boundary rehydrates bit-identically.

mod common;

use common::{drive_one, figure1_spec, fingerprint, TempDir};
use gdr_core::config::GdrConfig;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::WorkPlan;
use gdr_core::strategy::Strategy;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{team_digest, FsyncPolicy, JournalConfig};
use gdr_serve::store::{OpenSpec, Session, SessionJournal, SessionOptions, TranscriptEvent};

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        segment_max_bytes: 1 << 20,
        compact_every: 0,
        validate_compaction: true,
    }
}

fn spec() -> OpenSpec {
    figure1_spec(Strategy::Gdr, true)
}

fn oracle() -> GroundTruthOracle {
    GroundTruthOracle::new(spec().ground_truth.expect("truth"))
}

fn open_durable(dir: &TempDir, spec: OpenSpec) -> Session {
    SessionOptions::new()
        .journal(journal_config())
        .durable(dir.path())
        .open(spec)
        .expect("open durable")
}

/// `(appends, fsyncs)` of the session's disk journal.
fn disk_counts(session: &Session) -> (u64, u64) {
    let disk = session.disk().expect("durable session");
    (disk.appends(), disk.syncs())
}

#[test]
fn each_verb_costs_one_record_and_one_fsync_and_next_costs_none() {
    let dir = TempDir::new("per-answer");
    let mut session = open_durable(&dir, spec());
    assert_eq!(disk_counts(&session), (0, 0), "the spec is not an event");
    // Reject every question, forcing the supply sweep; supply one value
    // and skip the rest, so every solo verb is counted.
    let mut verbs = 0u64;
    let mut supplied = false;
    loop {
        let plan = session.next().expect("next");
        assert_eq!(session.next().expect("re-serve"), plan);
        assert_eq!(
            disk_counts(&session),
            (verbs, verbs),
            "next journals nothing"
        );
        match plan {
            WorkPlan::AskUser { id, .. } => {
                session.answer(id, Feedback::Reject).expect("answer");
            }
            WorkPlan::NeedsValue { cell } if !supplied => {
                session.supply(cell, Value::from("Novel")).expect("supply");
                supplied = true;
            }
            WorkPlan::NeedsValue { cell } => session.skip(cell).expect("skip"),
            WorkPlan::Done(_) => break,
        }
        verbs += 1;
        assert_eq!(disk_counts(&session), (verbs, verbs), "after verb {verbs}");
    }
    assert!(supplied, "the script reached the supply sweep");
    session.finish().expect("finish");
    verbs += 1;
    assert_eq!(disk_counts(&session), (verbs, verbs));
    // `finish` is idempotent and journals once.
    session.finish().expect("finish again");
    assert_eq!(disk_counts(&session), (verbs, verbs));
    assert_eq!(session.journal().transcript().len() as u64, verbs);
}

#[test]
fn a_question_held_across_a_crash_is_answerable_without_next() {
    let dir = TempDir::new("held-question");
    let oracle = oracle();
    let mut live = open_durable(&dir, spec());
    let mut twin = SessionOptions::new().open(spec()).expect("open twin");
    for _ in 0..2 {
        assert!(drive_one(&mut live, &oracle));
        assert!(drive_one(&mut twin, &oracle));
    }
    let plan = live.next().expect("serve a question");
    assert_eq!(twin.next().expect("twin serves"), plan);
    let WorkPlan::AskUser { id, update, .. } = plan else {
        panic!("figure 1 has a third question");
    };
    let current = live
        .engine()
        .state()
        .table()
        .cell(update.tuple, update.attr);
    let feedback = oracle.feedback(&update, current);
    assert!(matches!(
        live.journal().transcript().last(),
        Some(TranscriptEvent::Answered(..))
    ));
    // Crash while the question is held: its serving pull left no record.
    drop(live);

    let (mut rehydrated, recovery) =
        Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert!(rehydrated.engine().outstanding().is_none());
    rehydrated
        .answer(id, feedback)
        .expect("the held id is answerable with no next");
    twin.answer(id, feedback).expect("twin answers");
    assert_eq!(fingerprint(rehydrated.engine()), fingerprint(twin.engine()));
    assert_eq!(team_digest(rehydrated.team()), team_digest(twin.team()));
}

/// The digests `finish` reaches from `session`'s state: as is, and had the
/// last unjournaled pull not run.
fn finish_digests(session: &Session) -> (u64, u64) {
    let mut finished = session.team().clone();
    finished.finish().expect("finish a clone");
    let mut events = session.journal().transcript().to_vec();
    events.push(TranscriptEvent::Finished { pulled: false });
    let unpulled = SessionJournal::from_events(session.journal().spec().clone(), events)
        .replay()
        .expect("replay");
    (team_digest(&finished), team_digest(&unpulled))
}

/// Drives a durable session over `spec` with the oracle until a pull
/// selects a fresh group after at least one answer and `stop` accepts that
/// point, finishes it there, and checks that a cold rehydrate reproduces
/// the live session bit for bit.
fn finish_after_a_boundary_then_rehydrate(spec: OpenSpec, stop: impl Fn(&Session) -> bool) {
    let dir = TempDir::new("boundary-finish");
    let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
    let mut live = open_durable(&dir, spec);
    loop {
        let crossed = match live.next().expect("next") {
            WorkPlan::AskUser {
                group_context: Some(group),
                ..
            } => group.asked == 0 && live.engine().verifications() > 0,
            WorkPlan::Done(reason) => panic!("concluded ({reason:?}) before the boundary"),
            WorkPlan::AskUser { .. } | WorkPlan::NeedsValue { .. } => false,
        };
        if crossed && stop(&live) {
            break;
        }
        assert!(drive_one(&mut live, &oracle));
    }
    live.finish().expect("finish");
    assert_eq!(
        live.journal().transcript().last(),
        Some(&TranscriptEvent::Finished { pulled: true })
    );
    let (live_fp, live_digest) = (fingerprint(live.engine()), team_digest(live.team()));
    drop(live);

    let (rehydrated, recovery) =
        Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(fingerprint(rehydrated.engine()), live_fp);
    assert_eq!(team_digest(rehydrated.team()), live_digest);
}

#[test]
fn finish_after_a_pull_across_a_group_boundary_rehydrates_bit_identically() {
    finish_after_a_boundary_then_rehydrate(spec(), |_| true);
}

/// On figure 1 the learner never decides anything, so finishing with or
/// without the boundary pull lands on the same state.  A larger table
/// trains it: there, the first boundary where the two differ shows that
/// `Finished`'s flag carries the pull across a restart.
#[test]
fn the_finished_flag_replays_a_boundary_pull_that_changes_the_outcome() {
    let data =
        gdr_datagen::hospital::generate_hospital_dataset(&gdr_datagen::hospital::HospitalConfig {
            tuples: 40,
            dirty_fraction: 0.45,
            seed: 7,
            extra_cities: 2,
        });
    let mut spec = OpenSpec::new(data.dirty, data.rules);
    spec.config = GdrConfig::fast();
    spec.ground_truth = Some(data.clean);
    finish_after_a_boundary_then_rehydrate(spec, |session| {
        let (pulled, unpulled) = finish_digests(session);
        pulled != unpulled
    });
}
