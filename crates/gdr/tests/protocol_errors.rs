//! Error-path suite for the typed protocol errors: every way a driver can
//! violate the `answer`/`supply_value`/`skip_value` contract must return a
//! structured [`GdrError`] — and, critically, leave the engine *usable*:
//! the same plan is re-served verbatim, and a session peppered with
//! protocol errors ends bit-identical (golden checkpoints included) to one
//! that never misbehaved.

use gdr_core::error::{GdrError, WorkTarget};
use gdr_core::oracle::UserOracle;
use gdr_core::step::{SessionBuilder, WorkId, WorkPlan};
use gdr_core::{fixture, GdrConfig, GdrEngine, GroundTruthOracle, Strategy};
use gdr_relation::Value;
use gdr_repair::Feedback;

fn engine(strategy: Strategy) -> GdrEngine {
    let (dirty, clean, rules) = fixture::figure1_instance();
    SessionBuilder::new(dirty, &rules)
        .strategy(strategy)
        .config(GdrConfig::fast())
        .ground_truth(clean)
        .build()
}

fn checkpoints_bits(engine: &GdrEngine) -> Vec<(usize, u64, u64)> {
    engine
        .report()
        .expect("eval hooks installed")
        .checkpoints
        .iter()
        .map(|c| {
            (
                c.verifications,
                c.loss.to_bits(),
                c.improvement_pct.to_bits(),
            )
        })
        .collect()
}

/// Drives an engine to natural completion with the figure-1 oracle, with an
/// optional chance to misbehave before every legitimate verb.
fn drive_to_done(engine: &mut GdrEngine, mut misbehave: impl FnMut(&mut GdrEngine, &WorkPlan)) {
    let oracle = GroundTruthOracle::new(fixture::figure1_instance().1);
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 1000, "session did not terminate");
        let plan = engine.next_work().expect("next_work");
        misbehave(engine, &plan);
        match engine.next_work().expect("re-pull after misbehaviour") {
            WorkPlan::AskUser { id, update, .. } => {
                let feedback = {
                    let current = engine.state().table().cell(update.tuple, update.attr);
                    oracle.feedback(&update, current)
                };
                engine.answer(id, feedback).expect("answer");
            }
            WorkPlan::NeedsValue { cell } => {
                let current = engine.state().table().cell(cell.0, cell.1).clone();
                match oracle.correct_value(cell.0, cell.1) {
                    Some(value) if value != current => {
                        engine.supply_value(cell, value).expect("supply")
                    }
                    _ => engine.skip_value(cell).expect("skip"),
                }
            }
            WorkPlan::Done(_) => break,
        }
    }
    engine.finish().expect("finish");
}

#[test]
fn stale_id_error_reserves_the_identical_plan() {
    let mut e = engine(Strategy::GdrNoLearning);
    let plan = e.next_work().expect("next_work");
    let WorkPlan::AskUser { id, .. } = plan.clone() else {
        panic!("expected AskUser");
    };
    for offset in [1u64, 7, u64::MAX - id.raw()] {
        let stale = WorkId::from_raw(id.raw() + offset);
        let err = e.answer(stale, Feedback::Confirm).unwrap_err();
        assert_eq!(
            err,
            GdrError::StaleWork {
                got: stale,
                outstanding: id
            }
        );
        assert_eq!(e.next_work().expect("re-serve"), plan);
    }
    assert_eq!(e.verifications(), 0, "failed answers consume nothing");
}

#[test]
fn double_answer_is_no_outstanding_work() {
    let mut e = engine(Strategy::GdrNoLearning);
    let WorkPlan::AskUser { id, .. } = e.next_work().expect("next_work") else {
        panic!("expected AskUser");
    };
    e.answer(id, Feedback::Confirm).expect("first answer");
    // The duplicate delivery of the same answer must not double-apply.
    let err = e.answer(id, Feedback::Confirm).unwrap_err();
    assert_eq!(err, GdrError::NoOutstandingWork { verb: "answer" });
    assert_eq!(e.verifications(), 1);
    // The engine happily serves the next item afterwards.
    assert!(!matches!(
        e.next_work().expect("next_work"),
        WorkPlan::Done(_)
    ));
}

#[test]
fn wrong_cell_and_wrong_kind_errors_name_both_sides() {
    // Drive until the supply sweep serves a NeedsValue item.
    let mut e = engine(Strategy::GdrNoLearning);
    let cell = loop {
        match e.next_work().expect("next_work") {
            WorkPlan::AskUser { id, .. } => e.answer(id, Feedback::Reject).expect("reject"),
            WorkPlan::NeedsValue { cell } => break cell,
            WorkPlan::Done(_) => panic!("reject-everything must reach the sweep"),
        }
    };
    let wrong = (cell.0 + 1, cell.1);
    let err = e.supply_value(wrong, Value::from("x")).unwrap_err();
    assert_eq!(
        err,
        GdrError::WorkMismatch {
            verb: "supply_value",
            got: WorkTarget::Value(wrong),
            outstanding: WorkTarget::Value(cell),
        }
    );
    let err = e.skip_value(wrong).unwrap_err();
    assert_eq!(
        err,
        GdrError::WorkMismatch {
            verb: "skip_value",
            got: WorkTarget::Value(wrong),
            outstanding: WorkTarget::Value(cell),
        }
    );
    // Wrong kind: answering while a NeedsValue is outstanding.
    let err = e
        .answer(WorkId::from_raw(1), Feedback::Confirm)
        .unwrap_err();
    assert_eq!(
        err,
        GdrError::WorkMismatch {
            verb: "answer",
            got: WorkTarget::Ask(WorkId::from_raw(1)),
            outstanding: WorkTarget::Value(cell),
        }
    );
    // The right cell still works after all three failures.
    e.skip_value(cell).expect("skip");
}

#[test]
fn answer_after_finish_is_rejected_and_the_conclusion_stands() {
    let mut e = engine(Strategy::GdrNoLearning);
    let WorkPlan::AskUser { id, .. } = e.next_work().expect("next_work") else {
        panic!("expected AskUser");
    };
    let reason = e.finish().expect("finish");
    let checkpoints = checkpoints_bits(&e);
    // Answering the pre-finish plan — or anything else — is a typed error.
    for err in [
        e.answer(id, Feedback::Confirm).unwrap_err(),
        e.supply_value((0, 0), Value::from("x")).unwrap_err(),
        e.skip_value((0, 0)).unwrap_err(),
    ] {
        assert!(matches!(err, GdrError::NoOutstandingWork { .. }), "{err}");
    }
    // Sealed state is untouched: same conclusion, same checkpoints.
    assert_eq!(e.done(), Some(reason));
    assert_eq!(e.finish().expect("finish again"), reason);
    assert_eq!(checkpoints_bits(&e), checkpoints);
}

#[test]
fn a_misbehaving_driver_ends_bit_identical_to_a_clean_one() {
    for strategy in [Strategy::GdrNoLearning, Strategy::Gdr, Strategy::Greedy] {
        let mut clean_engine = engine(strategy);
        drive_to_done(&mut clean_engine, |_, _| {});

        // Before every single legitimate verb, fire the full battery of
        // protocol violations at the engine.
        let mut abused = engine(strategy);
        drive_to_done(&mut abused, |e, plan| match plan {
            WorkPlan::AskUser { id, .. } => {
                let stale = WorkId::from_raw(id.raw() + 1000);
                assert!(e.answer(stale, Feedback::Confirm).is_err());
                assert!(e.supply_value((0, 0), Value::from("junk")).is_err());
                assert!(e.skip_value((0, 0)).is_err());
            }
            WorkPlan::NeedsValue { cell } => {
                assert!(e.answer(WorkId::from_raw(0), Feedback::Reject).is_err());
                assert!(e.supply_value((cell.0 + 9, cell.1), Value::Null).is_err());
            }
            WorkPlan::Done(_) => {
                assert!(e.answer(WorkId::from_raw(0), Feedback::Reject).is_err());
            }
        });

        assert_eq!(
            checkpoints_bits(&clean_engine),
            checkpoints_bits(&abused),
            "{strategy}: golden checkpoints must be unchanged by error paths"
        );
        assert_eq!(clean_engine.verifications(), abused.verifications());
        assert_eq!(clean_engine.state().table(), abused.state().table());
        assert_eq!(clean_engine.done(), abused.done());
    }
}
