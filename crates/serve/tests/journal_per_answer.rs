//! One journal record and one fsync per answer: pulls are never journaled.
//!
//! A durable figure-1 session under [`FsyncPolicy::EveryRecord`] appends and
//! fsyncs exactly once per successful `answer`/`supply`/`skip`/`finish` and
//! never on `next`.  Replay infers the pulls, which these tests pin from
//! both sides: a question served but never journaled stays answerable by
//! its work id after a cold restart, and a `finish` right after a pull that
//! crossed a group boundary rehydrates bit-identically.
//!
//! A team session appends and fsyncs once per state-changing verb: a lease
//! grant, a clock-ticking wait, an accepted `*_as` verb (whose record also
//! carries the resolutions it committed), a release that held, `finish`.
//! Replay cross-checks each carried resolution, so a rewritten one fails.
//! Two reviewer threads contending on one durable store still fsync every
//! record, and the journal reloads complete.

mod common;

use std::fs;
use std::sync::Arc;
use std::thread;

use common::{drive_one, figure1_spec, fingerprint, TempDir};
use gdr_core::config::GdrConfig;
use gdr_core::error::GdrError;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::WorkPlan;
use gdr_core::strategy::Strategy;
use gdr_core::team::{ConflictPolicy, Resolution, TeamConfig, TeamPlan};
use gdr_relation::codec;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{
    decode_event, encode_event, scan_records, team_digest, DiskJournal, FsyncPolicy, JournalConfig,
};
use gdr_serve::store::{
    DurabilityConfig, OpenSpec, Session, SessionJournal, SessionOptions, SessionStore,
    TranscriptEvent,
};

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        compact_every: 0,
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

/// `(records in the log, fsyncs)` of the session's disk journal.
fn disk_counts(session: &Session) -> (u64, u64) {
    let dir = session.disk_dir().expect("durable session");
    let log = fs::read(dir.join("seg-000000.gdrj")).expect("read log");
    let records = scan_records(&log).payloads.len() as u64;
    (records, session.disk().expect("durable session").syncs())
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
    let dir = session.disk_dir().expect("durable session");
    let spec = DiskJournal::load(dir).expect("load").spec;
    let unpulled = SessionJournal::from_events(spec, events)
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

/// The resolutions an `*_as` record carries; `None` for any other event.
fn carried(event: &TranscriptEvent) -> Option<&[(usize, Resolution)]> {
    match event {
        TranscriptEvent::AnsweredAs { resolved, .. }
        | TranscriptEvent::SuppliedAs { resolved, .. }
        | TranscriptEvent::SkippedAs { resolved, .. } => Some(resolved),
        _ => None,
    }
}

/// Drives a durable two-reviewer `Majority { k: 2 }` Figure 1 session to
/// its conclusion, checking after every verb that the disk journal has
/// appended and fsynced exactly once per state-changing verb.  Returns the
/// session directory.
fn record_majority_team_session() -> TempDir {
    let dir = TempDir::new("team-per-verb");
    let mut spec = figure1_spec(Strategy::GdrNoLearning, true);
    spec.team = TeamConfig {
        policy: ConflictPolicy::Majority { k: 2 },
        lease_ttl: 64,
    };
    let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
    let mut session = open_durable(&dir, spec);
    let mut records = 0u64;

    // A release that held is one record; a stale one and a stale answer
    // are none.
    let TeamPlan::Ask { id, .. } = session.lease("a").expect("lease") else {
        panic!("figure 1 opens with a suggestion to lease");
    };
    records += 1;
    assert!(session.release_lease("a", id).expect("release"));
    records += 1;
    assert!(!session.release_lease("a", id).expect("stale release"));
    assert!(session.answer_as("a", id, Feedback::Confirm).is_err());
    assert_eq!(disk_counts(&session), (records, records));

    let (mut grants, mut waits, mut verbs) = (0u64, 0u64, 0u64);
    'drive: loop {
        for reviewer in ["a", "b"] {
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, update } => {
                    let current = session
                        .engine()
                        .state()
                        .table()
                        .cell(update.tuple, update.attr);
                    let feedback = oracle.feedback(&update, current);
                    session
                        .answer_as(reviewer, id, feedback)
                        .expect("answer_as");
                    grants += 1;
                    verbs += 1;
                }
                TeamPlan::Fix { id, cell, current } => {
                    match oracle.correct_value(cell.0, cell.1) {
                        Some(value) if value != current => {
                            session.supply_as(reviewer, id, value).expect("supply_as");
                        }
                        _ => session.skip_as(reviewer, id).expect("skip_as"),
                    }
                    grants += 1;
                    verbs += 1;
                }
                TeamPlan::Wait => waits += 1,
                TeamPlan::Done(_) => break 'drive,
            }
            let expected = records + grants + waits + verbs;
            assert_eq!(disk_counts(&session), (expected, expected));
        }
    }
    session.finish().expect("finish");
    records += grants + waits + verbs + 1;
    assert_eq!(disk_counts(&session), (records, records));
    assert_eq!(session.journal().transcript().len() as u64, records);
    assert!(verbs > 0 && session.team().resolutions().len() > 1);
    dir
}

#[test]
fn each_team_verb_costs_one_record_and_carries_its_resolutions() {
    let dir = record_majority_team_session();
    let (session, recovery) = Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    let events = session.journal().transcript();
    let answers: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TranscriptEvent::AnsweredAs { .. }))
        .collect();
    // The first vote of the quorum commits nothing; the second commits the
    // session's first resolution.
    assert_eq!(carried(answers[0]), Some(&[][..]));
    assert_eq!(
        carried(answers[1]),
        Some(&[(0, session.team().resolutions()[0].clone())][..])
    );
    // Every committed resolution is carried exactly once, in log order.
    let logged: Vec<_> = events.iter().filter_map(carried).flatten().collect();
    assert_eq!(logged.len(), session.team().resolutions().len());
    for (position, (index, resolution)) in logged.into_iter().enumerate() {
        assert_eq!(*index, position);
        assert_eq!(*resolution, session.team().resolutions()[position]);
    }
}

/// Rewrites the first carried resolution of a recorded segment (behind a
/// fresh, valid frame): replay recomputes a different entry and fails with
/// a typed journal error naming the diverged index.
#[test]
fn a_rewritten_carried_resolution_fails_replay() {
    let dir = record_majority_team_session();
    let segment = fs::read(dir.join("seg-000000.gdrj")).expect("read segment");
    let mut tampered = Vec::new();
    let mut rewritten = None;
    for payload in scan_records(&segment).payloads {
        let mut event = decode_event(payload).expect("recorded event");
        if let TranscriptEvent::AnsweredAs { resolved, .. } = &mut event {
            if let (None, Some((index, Resolution::Answer { feedback, .. }))) =
                (rewritten, resolved.first_mut())
            {
                *feedback = match feedback {
                    Feedback::Confirm => Feedback::Reject,
                    _ => Feedback::Confirm,
                };
                rewritten = Some(*index);
            }
        }
        tampered.extend(codec::frame(&encode_event(&event)));
    }
    let index = rewritten.expect("a recorded answer carried a resolution");

    let copy = TempDir::new("team-tampered");
    fs::copy(dir.join("spec.gdrj"), copy.join("spec.gdrj")).expect("copy spec");
    fs::write(copy.join("seg-000000.gdrj"), tampered).expect("write segment");
    match Session::rehydrate(copy.path(), journal_config()) {
        Err(GdrError::Journal { detail }) => assert!(
            detail.contains(&format!("resolution {index} diverged on replay")),
            "{detail}"
        ),
        Err(other) => panic!("expected a journal error, got {other:?}"),
        Ok(_) => panic!("a rewritten resolution replayed cleanly"),
    }
}

#[test]
fn contending_reviewer_threads_fsync_every_record_and_reload_complete() {
    let config = journal_config();
    let root = TempDir::new("contended-verbs");
    let mut durability = DurabilityConfig::new(root.path());
    durability.journal = config;
    let store = Arc::new(SessionStore::durable(durability).expect("durable store"));
    let spec = || figure1_spec(Strategy::GdrNoLearning, true);
    store.open("s", spec()).expect("open");

    let workers: Vec<_> = ["a", "b"]
        .map(|reviewer| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let oracle = GroundTruthOracle::new(spec().ground_truth.expect("truth"));
                for _ in 0..4_000 {
                    let done = store
                        .with_session("s", |s| match s.lease(reviewer)? {
                            TeamPlan::Ask { id, update } => {
                                let feedback = {
                                    let current =
                                        s.engine().state().table().cell(update.tuple, update.attr);
                                    oracle.feedback(&update, current)
                                };
                                s.answer_as(reviewer, id, feedback)?;
                                Ok(false)
                            }
                            TeamPlan::Fix { id, cell, current } => {
                                match oracle.correct_value(cell.0, cell.1) {
                                    Some(value) if value != current => {
                                        s.supply_as(reviewer, id, value)?;
                                    }
                                    _ => s.skip_as(reviewer, id)?,
                                }
                                Ok(false)
                            }
                            TeamPlan::Wait => Ok(false),
                            TeamPlan::Done(_) => Ok(true),
                        })
                        .expect("verb");
                    if done {
                        return;
                    }
                }
                panic!("reviewer {reviewer} did not converge");
            })
        })
        .into_iter()
        .collect();
    for worker in workers {
        worker.join().expect("reviewer thread");
    }

    let (appends, syncs, events, fp, dir) = store
        .with_session("s", |s| {
            s.finish()?;
            let (appends, syncs) = disk_counts(s);
            Ok((
                appends,
                syncs,
                s.journal().events_total(),
                fingerprint(s.engine()),
                s.disk_dir().expect("dir").to_path_buf(),
            ))
        })
        .expect("inspect");
    drop(store);
    assert!(events > 50, "workload too small: {events} events");
    assert!(
        syncs >= appends,
        "every record must be fsynced: {syncs} fsyncs for {appends} appends"
    );

    // Cold reload: the journal is complete and replays to the live state.
    let (session, recovery) = Session::rehydrate(&dir, config).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(session.journal().events_total(), events);
    assert_eq!(fingerprint(session.engine()), fp);
}
