//! Equivalence suite: the step-driven pull API ≡ the legacy `run()` loop.
//!
//! `GdrSession::run` is now *implemented on* the public pull API, so these
//! tests pin the redesign from the outside: a hand-rolled driver using only
//! `next_work` / `answer` / `supply_value` / `skip_value` / `finish` must
//! reproduce the session's report **bit for bit** — verifications,
//! checkpoints (loss and improvement to the last mantissa bit), final loss,
//! and repair accuracy — for all seven strategies, on the Figure 1 fixture
//! and on a generated dataset.  A third test drives the scripted-answer-queue
//! path (`drive_with` + the textual reply syntax of the stdin example) and a
//! fourth branches a cloned engine mid-session.

use gdr_cfd::RuleSet;
use gdr_core::session::{drive, drive_with, parse_reply, Reply, SessionReport};
use gdr_core::step::{GdrEngine, SessionBuilder, WorkPlan};
use gdr_core::{fixture, GdrConfig, GroundTruthOracle, Strategy, UserOracle};
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_relation::Table;
use gdr_relation::Value;

fn builder<'r>(dirty: &Table, rules: &'r RuleSet, strategy: Strategy) -> SessionBuilder<'r> {
    SessionBuilder::new(dirty.clone(), rules)
        .strategy(strategy)
        .config(GdrConfig::fast())
}

/// A driver written against nothing but the public pull API — the loop any
/// service would run, with the budget on the caller's side of the line.
/// Mirrors `session::drive` exactly, including its budget semantics: a
/// declined `NeedsValue` prompt is a user interaction and counts against
/// the budget even though the engine's verification counter never moves.
fn pull_driven(mut engine: GdrEngine, truth: &Table, budget: Option<usize>) -> SessionReport {
    let oracle = GroundTruthOracle::new(truth.clone());
    let mut declined = 0usize;
    loop {
        if budget.is_some_and(|b| engine.verifications() + declined >= b) {
            break;
        }
        match engine.next_work().expect("next_work") {
            WorkPlan::AskUser { id, update, .. } => {
                let feedback = {
                    let current = engine.state().table().cell(update.tuple, update.attr);
                    oracle.feedback(&update, current)
                };
                engine.answer(id, feedback).expect("answer");
            }
            WorkPlan::NeedsValue { cell } => {
                let known = oracle.correct_value(cell.0, cell.1);
                match known {
                    Some(value) if &value != engine.state().table().cell(cell.0, cell.1) => {
                        engine.supply_value(cell, value).expect("supply")
                    }
                    _ => {
                        declined += 1;
                        engine.skip_value(cell).expect("skip")
                    }
                }
            }
            WorkPlan::Done(_) => break,
        }
    }
    engine.finish().expect("finish");
    engine.report().expect("eval hooks installed")
}

fn assert_bit_identical(strategy: Strategy, step: &SessionReport, legacy: &SessionReport) {
    assert_eq!(step.verifications, legacy.verifications, "{strategy}");
    assert_eq!(
        step.learner_decisions, legacy.learner_decisions,
        "{strategy}"
    );
    assert_eq!(
        step.checkpoints.len(),
        legacy.checkpoints.len(),
        "{strategy} checkpoint count"
    );
    for (i, (a, b)) in step.checkpoints.iter().zip(&legacy.checkpoints).enumerate() {
        assert_eq!(
            a.verifications, b.verifications,
            "{strategy} checkpoint {i}"
        );
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{strategy} checkpoint {i} loss"
        );
        assert_eq!(
            a.improvement_pct.to_bits(),
            b.improvement_pct.to_bits(),
            "{strategy} checkpoint {i} improvement"
        );
    }
    assert_eq!(
        step.initial_loss.to_bits(),
        legacy.initial_loss.to_bits(),
        "{strategy}"
    );
    assert_eq!(
        step.final_loss.to_bits(),
        legacy.final_loss.to_bits(),
        "{strategy}"
    );
    assert_eq!(step.accuracy, legacy.accuracy, "{strategy}");
    assert_eq!(
        step.initial_dirty_tuples, legacy.initial_dirty_tuples,
        "{strategy}"
    );
}

#[test]
fn step_driver_matches_legacy_run_on_figure1_for_all_strategies() {
    let (dirty, clean, rules) = fixture::figure1_instance();
    for strategy in Strategy::ALL {
        for budget in [Some(4), Some(12), None] {
            let engine = builder(&dirty, &rules, strategy)
                .ground_truth(clean.clone())
                .build();
            let step = pull_driven(engine, &clean, budget);
            let legacy = builder(&dirty, &rules, strategy)
                .simulated(clean.clone())
                .run(budget)
                .expect("legacy run");
            assert_bit_identical(strategy, &step, &legacy);
        }
    }
}

#[test]
fn step_driver_matches_legacy_run_on_generated_data_for_all_strategies() {
    let data = generate_hospital_dataset(&HospitalConfig {
        tuples: 300,
        dirty_fraction: 0.3,
        seed: 13,
        extra_cities: 0,
    });
    for strategy in Strategy::ALL {
        let engine = builder(&data.dirty, &data.rules, strategy)
            .ground_truth(data.clean.clone())
            .build();
        let step = pull_driven(engine, &data.clean, Some(25));
        let legacy = builder(&data.dirty, &data.rules, strategy)
            .simulated(data.clean.clone())
            .run(Some(25))
            .expect("legacy run");
        assert_bit_identical(strategy, &step, &legacy);
    }
}

/// The stdin example's logic with a scripted answer queue instead of a
/// keyboard: record the oracle's answers as the *textual commands* a user
/// would type, then replay that transcript through `parse_reply` +
/// `drive_with` on a fresh engine and demand the identical outcome.
#[test]
fn scripted_answer_queue_driver_completes_a_session() {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());

    // Pass 1: transcribe a session into text commands.
    let mut transcript: Vec<String> = Vec::new();
    let mut recording = builder(&dirty, &rules, Strategy::GdrNoLearning)
        .ground_truth(clean.clone())
        .build();
    let reason = drive_with(&mut recording, |engine, plan| {
        let reply = match plan {
            WorkPlan::AskUser { update, .. } => {
                let current = engine.state().table().cell(update.tuple, update.attr);
                match oracle.feedback(update, current) {
                    gdr_repair::Feedback::Confirm => "y".to_string(),
                    gdr_repair::Feedback::Reject => "n".to_string(),
                    gdr_repair::Feedback::Retain => "k".to_string(),
                }
            }
            WorkPlan::NeedsValue { cell } => {
                let current = engine.state().table().cell(cell.0, cell.1);
                match oracle.correct_value(cell.0, cell.1) {
                    Some(value) if &value != current => format!("v {}", value.render()),
                    _ => "s".to_string(),
                }
            }
            WorkPlan::Done(_) => unreachable!(),
        };
        transcript.push(reply.clone());
        parse_reply(&reply).expect("transcribed command parses")
    })
    .expect("recording session");
    assert!(recording.verifications() > 0);
    assert!(recording.state().dirty_tuples().is_empty());

    // Pass 2: replay the transcript as a scripted queue.
    let mut queue = transcript.into_iter();
    let mut replayed = builder(&dirty, &rules, Strategy::GdrNoLearning)
        .ground_truth(clean.clone())
        .build();
    let replay_reason = drive_with(&mut replayed, |_, _| {
        queue
            .next()
            .and_then(|line| parse_reply(&line))
            .unwrap_or(Reply::Quit)
    })
    .expect("replayed session");
    assert_eq!(reason, replay_reason);
    assert_eq!(queue.next(), None, "the queue is consumed exactly");
    assert_eq!(replayed.verifications(), recording.verifications());
    assert_eq!(replayed.state().table(), recording.state().table());
    assert!(replayed.state().dirty_tuples().is_empty());
}

/// Regression: a kind-mismatched reply must re-prompt, not silently end the
/// session.  A driver that answers `Supply` to the first three `AskUser`
/// plans (then behaves) must reach the exact same outcome as one that
/// behaved from the start — the mismatches are absorbed as re-prompts.
#[test]
fn drive_with_kind_mismatch_reprompts_instead_of_quitting() {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());
    let honest_reply = |engine: &GdrEngine, plan: &WorkPlan| match plan {
        WorkPlan::AskUser { update, .. } => {
            let current = engine.state().table().cell(update.tuple, update.attr);
            Reply::Answer(oracle.feedback(update, current))
        }
        WorkPlan::NeedsValue { cell } => {
            let current = engine.state().table().cell(cell.0, cell.1);
            match oracle.correct_value(cell.0, cell.1) {
                Some(value) if &value != current => Reply::Supply(value),
                _ => Reply::Skip,
            }
        }
        WorkPlan::Done(_) => unreachable!(),
    };

    let mut clean_run = builder(&dirty, &rules, Strategy::GdrNoLearning)
        .ground_truth(clean.clone())
        .build();
    let clean_reason = drive_with(&mut clean_run, honest_reply).expect("clean run");

    let mut mismatching = builder(&dirty, &rules, Strategy::GdrNoLearning)
        .ground_truth(clean.clone())
        .build();
    let mut mismatches = 0usize;
    let reason = drive_with(&mut mismatching, |engine, plan| {
        if matches!(plan, WorkPlan::AskUser { .. }) && mismatches < 3 {
            mismatches += 1;
            // Wrong kind for an AskUser plan: previously this ended the
            // session (running finish()); now it must re-prompt.
            return Reply::Supply(Value::from("bogus"));
        }
        honest_reply(engine, plan)
    })
    .expect("mismatching run");

    assert_eq!(mismatches, 3);
    assert_eq!(reason, clean_reason);
    assert_eq!(mismatching.verifications(), clean_run.verifications());
    assert_eq!(mismatching.state().table(), clean_run.state().table());
    assert!(mismatching.state().dirty_tuples().is_empty());
}

/// Engines are `Clone`: snapshot a session mid-group, branch it, and both
/// branches continue independently to the same deterministic end the
/// unbranched session reaches.
#[test]
fn cloned_engine_resumes_to_the_same_report() {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let baseline = pull_driven(
        builder(&dirty, &rules, Strategy::GdrNoLearning)
            .ground_truth(clean.clone())
            .build(),
        &clean,
        None,
    );

    let mut engine = builder(&dirty, &rules, Strategy::GdrNoLearning)
        .ground_truth(clean.clone())
        .build();
    let oracle = GroundTruthOracle::new(clean.clone());
    for _ in 0..3 {
        let WorkPlan::AskUser { id, update, .. } = engine.next_work().expect("work") else {
            panic!("figure 1 has at least three questions");
        };
        let feedback = {
            let current = engine.state().table().cell(update.tuple, update.attr);
            oracle.feedback(&update, current)
        };
        engine.answer(id, feedback).expect("answer");
    }
    let snapshot = engine.clone();
    let finished_a = pull_driven(engine, &clean, None);
    let finished_b = pull_driven(snapshot, &clean, None);
    assert_bit_identical(Strategy::GdrNoLearning, &finished_a, &finished_b);
    assert_bit_identical(Strategy::GdrNoLearning, &finished_a, &baseline);
}

/// `GdrSession` is only a driver: interleaving manual pull-API calls with
/// `run()` must land on the same final state as `run()` alone.
#[test]
fn session_facade_and_raw_engine_share_one_state_machine() {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let all_run: SessionReport = builder(&dirty, &rules, Strategy::Greedy)
        .simulated(clean.clone())
        .run(None)
        .expect("run");

    let mut mixed = builder(&dirty, &rules, Strategy::Greedy)
        .ground_truth(clean.clone())
        .build();
    let oracle = GroundTruthOracle::new(clean.clone());
    // Answer the first item by hand through the engine...
    let WorkPlan::AskUser { id, update, .. } = mixed.next_work().expect("work") else {
        panic!("expected AskUser");
    };
    let feedback = {
        let current = mixed.state().table().cell(update.tuple, update.attr);
        oracle.feedback(&update, current)
    };
    mixed.answer(id, feedback).expect("answer");
    // ...then let the driver the facade runs finish.
    drive(&mut mixed, &oracle, None).expect("drive");
    let mixed_report = mixed.report().expect("eval hooks installed");
    assert_bit_identical(Strategy::Greedy, &mixed_report, &all_run);
}
