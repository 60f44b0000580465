//! Replay-based persistence: a killed-and-restored session must be
//! **bit-identical** to the live engine it replaces — quality checkpoints
//! compared via `f64::to_bits`, tables compared cell by cell — at every
//! point a session can be interrupted: mid-group, with a question
//! outstanding, mid-supply-sweep, after natural conclusion, and after
//! `finish`.

use gdr_core::config::GdrConfig;
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{GdrEngine, WorkId, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::store::{OpenSpec, Session, SessionOptions, SessionStore, TranscriptEvent};

fn figure1_spec(strategy: Strategy, with_truth: bool) -> OpenSpec {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let mut spec = OpenSpec::new(dirty, rules);
    spec.strategy = strategy;
    spec.config = GdrConfig::fast();
    if with_truth {
        spec.ground_truth = Some(clean);
    }
    spec
}

/// Everything observable about an engine, with floats taken to bits.
fn fingerprint(engine: &GdrEngine) -> (Vec<(usize, u64, u64)>, usize, usize, String) {
    let checkpoints = engine
        .eval_hooks()
        .map(|hooks| {
            hooks
                .checkpoints()
                .iter()
                .map(|c| {
                    (
                        c.verifications,
                        c.loss.to_bits(),
                        c.improvement_pct.to_bits(),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    (
        checkpoints,
        engine.verifications(),
        engine.learner_decisions(),
        format!("{}", engine.state().table()),
    )
}

fn assert_restored_identical(session: &mut Session) {
    let before = fingerprint(session.engine());
    let replayed = session.restore().expect("restore");
    assert_eq!(replayed, session.journal().transcript().len());
    let after = fingerprint(session.engine());
    assert_eq!(before, after, "restored engine diverged from the live one");
}

/// One step of the oracle-driven loop against the store's session API.
/// Returns `false` once the session is done.
fn drive_one(session: &mut Session, oracle: &GroundTruthOracle) -> bool {
    match session.next().expect("next") {
        WorkPlan::AskUser { id, update, .. } => {
            let feedback = {
                let current = session
                    .engine()
                    .state()
                    .table()
                    .cell(update.tuple, update.attr);
                oracle.feedback(&update, current)
            };
            session.answer(id, feedback).expect("answer");
            true
        }
        WorkPlan::NeedsValue { cell } => {
            let current = session
                .engine()
                .state()
                .table()
                .cell(cell.0, cell.1)
                .clone();
            match oracle.correct_value(cell.0, cell.1) {
                Some(value) if value != current => {
                    session.supply(cell, value).expect("supply");
                }
                _ => session.skip(cell).expect("skip"),
            }
            true
        }
        WorkPlan::Done(_) => false,
    }
}

#[test]
fn restore_is_bit_identical_at_every_interruption_point() {
    for strategy in [Strategy::GdrNoLearning, Strategy::Gdr, Strategy::Greedy] {
        let oracle = GroundTruthOracle::new(fixture::figure1_instance().1);
        let mut session = SessionOptions::new()
            .open(figure1_spec(strategy, true))
            .expect("open");
        let mut steps = 0usize;
        loop {
            // Restore after every single protocol step: the replayed engine
            // must match the live one wherever the "crash" happens.
            assert_restored_identical(&mut session);
            if !drive_one(&mut session, &oracle) {
                break;
            }
            steps += 1;
            assert!(steps < 500, "{strategy} did not terminate");
        }
        // After natural conclusion (the concluding pull is journaled)...
        assert_restored_identical(&mut session);
        // ...and after finish.
        session.finish().expect("finish");
        assert_restored_identical(&mut session);
        assert!(steps > 0, "{strategy} served no work");
    }
}

#[test]
fn restore_with_an_outstanding_question_reserves_the_same_plan_and_id() {
    let mut session = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let oracle = GroundTruthOracle::new(fixture::figure1_instance().1);
    for _ in 0..2 {
        assert!(drive_one(&mut session, &oracle));
    }
    // Serve a question but do not answer it — then "crash".
    let served = session.next().expect("next");
    let WorkPlan::AskUser { id, .. } = &served else {
        panic!("figure 1 has a third question");
    };
    let id = *id;
    assert_restored_identical(&mut session);
    // The restored engine re-serves the identical plan with the same id...
    let reserved = session.next().expect("next after restore");
    assert_eq!(reserved, served);
    // ...and answering with the pre-crash id works.
    session.answer(id, Feedback::Confirm).expect("answer");
}

#[test]
fn restore_discards_unjournaled_protocol_errors() {
    let mut session = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let WorkPlan::AskUser { id, .. } = session.next().expect("next") else {
        panic!("expected AskUser");
    };
    // A stale answer and a mismatched supply fail...
    assert!(session
        .answer(WorkId::from_raw(id.raw() + 40), Feedback::Confirm)
        .is_err());
    assert!(session.supply((0, 0), Value::from("x")).is_err());
    // ...and leave no trace in the journal (nor does the serving pull).
    assert!(session.journal().transcript().is_empty());
    assert_restored_identical(&mut session);
    session.answer(id, Feedback::Confirm).expect("answer");
    assert_eq!(session.journal().transcript().len(), 1);
}

#[test]
fn replayed_journal_matches_an_untouched_twin_run() {
    // Drive one session with restores sprinkled in, a twin without any;
    // both must land on the same final state (restore is side-effect-free).
    let oracle = GroundTruthOracle::new(fixture::figure1_instance().1);
    let mut restored = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let mut untouched = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let mut step = 0usize;
    loop {
        if step % 3 == 1 {
            restored.restore().expect("restore");
        }
        let a = drive_one(&mut restored, &oracle);
        let b = drive_one(&mut untouched, &oracle);
        assert_eq!(a, b, "sessions fell out of lockstep at step {step}");
        if !a {
            break;
        }
        step += 1;
        assert!(step < 500, "did not terminate");
    }
    restored.finish().expect("finish");
    untouched.finish().expect("finish");
    assert_eq!(
        fingerprint(restored.engine()),
        fingerprint(untouched.engine())
    );
}

#[test]
fn sweep_events_replay_supplies_and_skips() {
    // Reject everything to force the supply sweep, then skip/supply; the
    // journal must carry Supplied/Skipped events and replay them.
    let truth = fixture::figure1_instance().1;
    let mut session = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let mut saw_sweep = false;
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 500, "did not terminate");
        match session.next().expect("next") {
            WorkPlan::AskUser { id, .. } => {
                session.answer(id, Feedback::Reject).expect("answer");
            }
            WorkPlan::NeedsValue { cell } => {
                saw_sweep = true;
                // Supply the truth for the first wrong cell, skip the rest.
                let current = session
                    .engine()
                    .state()
                    .table()
                    .cell(cell.0, cell.1)
                    .clone();
                let correct = truth.cell(cell.0, cell.1).clone();
                if correct != current
                    && !session
                        .journal()
                        .transcript()
                        .iter()
                        .any(|e| matches!(e, TranscriptEvent::Supplied(..)))
                {
                    session.supply(cell, correct).expect("supply");
                } else {
                    session.skip(cell).expect("skip");
                }
                assert_restored_identical(&mut session);
            }
            WorkPlan::Done(_) => break,
        }
    }
    assert!(saw_sweep, "the reject-everything run must reach the sweep");
    assert!(session
        .journal()
        .transcript()
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Skipped(_))));
    assert!(session
        .journal()
        .transcript()
        .iter()
        .any(|e| matches!(e, TranscriptEvent::Supplied(..))));
    assert_restored_identical(&mut session);
}

/// Regression for a review-confirmed divergence: a `next` pull that crosses
/// a group boundary runs real bookkeeping (the learner decides the previous
/// group's remainder, suggestions refresh, stall counting) *before* serving
/// the new item.  When `finish` follows such a pull with no answer in
/// between, that pull's work must still be in the journal — otherwise the
/// replayed `finish` runs from the pre-pull phase and the restored engine
/// diverges.  Uses the learning strategy on a generated dataset large
/// enough for the learner to actually fire.
#[test]
fn finish_right_after_a_boundary_pull_restores_bit_identical() {
    let data =
        gdr_datagen::hospital::generate_hospital_dataset(&gdr_datagen::hospital::HospitalConfig {
            tuples: 120,
            dirty_fraction: 0.3,
            seed: 13,
            extra_cities: 0,
        });
    let oracle = GroundTruthOracle::new(data.clean.clone());
    for answers_before_finish in [0usize, 5, 12, 20, 28] {
        let mut spec = OpenSpec::new(data.dirty.clone(), data.rules.clone());
        spec.strategy = Strategy::Gdr;
        spec.config = GdrConfig::fast();
        spec.ground_truth = Some(data.clean.clone());
        let mut session = SessionOptions::new().open(spec).expect("open");
        let mut answered = 0usize;
        let mut guard = 0usize;
        while answered < answers_before_finish {
            guard += 1;
            assert!(
                guard < 1000,
                "did not reach {answers_before_finish} answers"
            );
            if !drive_one(&mut session, &oracle) {
                break;
            }
            answered = session.engine().verifications();
        }
        // One more pull — possibly across a group boundary — left
        // unanswered, then finish.
        let _ = session.next().expect("boundary pull");
        session.finish().expect("finish");
        assert_restored_identical(&mut session);
    }
}

#[test]
fn store_keeps_sessions_independent() {
    let store = SessionStore::new();
    store
        .open("a", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open a");
    store
        .open("b", figure1_spec(Strategy::Greedy, true))
        .expect("open b");
    assert_eq!(store.len(), 2);
    // Duplicate open fails; the original session is untouched.
    assert!(store.open("a", figure1_spec(Strategy::Gdr, false)).is_err());
    // Driving `a` does not move `b`.
    store
        .with_session("a", |s| {
            let WorkPlan::AskUser { id, .. } = s.next()? else {
                panic!("expected AskUser");
            };
            s.answer(id, Feedback::Confirm).map(|_| ())
        })
        .expect("drive a");
    store
        .with_session("b", |s| {
            assert_eq!(s.engine().verifications(), 0);
            assert!(s.journal().transcript().is_empty());
            Ok(())
        })
        .expect("inspect b");
    assert!(store.remove("a"));
    assert!(!store.remove("a"));
    assert!(store.get("a").is_err());
    assert_eq!(store.len(), 1);
}
