//! Drivers over the pull-based engine — Procedure 1 of the paper.
//!
//! The interactive loop itself lives in [`crate::step`]: [`GdrEngine`] is a
//! resumable state machine that pauses whenever it needs a human.  This
//! module is the *driver* layer on top:
//!
//! * [`drive`] — the canonical ~30-line loop feeding the engine from any
//!   [`UserOracle`] trait object under an answer budget.  This is all the
//!   code a service needs to serve a session over a transport.
//! * [`drive_with`] — a driver parameterised by a reply closure, plus the
//!   [`Reply`] vocabulary and its [`parse_reply`] text syntax.  The
//!   `interactive_cleaning` example wires it to stdin; tests wire it to a
//!   scripted answer queue.
//! * [`GdrSession`] — the classic simulated session of §5 (evaluation
//!   hooks + a [`GroundTruthOracle`] answering from the ground truth),
//!   whose [`GdrSession::run`] is exactly `drive` + `finish` + `report`.
//!   It reproduces the paper's experiments: quality checkpoints (loss of
//!   Eq. 3) after every answer regenerate the curves of Figures 3–5.
//!
//! Sessions are built with [`crate::step::SessionBuilder`]:
//!
//! ```
//! use gdr_core::fixture;
//! use gdr_core::step::SessionBuilder;
//! use gdr_core::strategy::Strategy;
//!
//! let (dirty, clean, rules) = fixture::figure1_instance();
//! let mut session = SessionBuilder::new(dirty, &rules)
//!     .strategy(Strategy::GdrNoLearning)
//!     .simulated(clean);
//! let report = session.run(None).unwrap();
//! assert!(report.final_loss <= report.initial_loss);
//! ```

use gdr_relation::Value;
use gdr_repair::{Feedback, RepairState};

use crate::metrics::RepairAccuracy;
use crate::oracle::{GroundTruthOracle, UserOracle};
use crate::step::{DoneReason, GdrEngine, WorkPlan};
use crate::strategy::Strategy;
use crate::Result;

/// A quality measurement taken during the session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Number of user verifications performed so far.
    pub verifications: usize,
    /// Loss `L` (Eq. 3) of the current instance against the ground truth.
    pub loss: f64,
    /// Quality improvement in percent relative to the initial instance.
    pub improvement_pct: f64,
}

gdr_relation::state_record! { Checkpoint { verifications, loss, improvement_pct } }

/// Summary of one session run.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The strategy that produced this report.
    pub strategy: Strategy,
    /// Number of dirty tuples in the initial instance (the paper's `E`).
    pub initial_dirty_tuples: usize,
    /// Loss of the initial instance.
    pub initial_loss: f64,
    /// Loss of the final instance.
    pub final_loss: f64,
    /// Quality improvement of the final instance, in percent.
    pub final_improvement_pct: f64,
    /// Number of updates verified by the user.
    pub verifications: usize,
    /// Number of updates decided automatically by the learner.
    pub learner_decisions: usize,
    /// Quality checkpoints in verification order.
    pub checkpoints: Vec<Checkpoint>,
    /// Precision / recall of the applied repairs.
    pub accuracy: RepairAccuracy,
}

impl SessionReport {
    /// The quality improvement reached by the time `verifications` answers
    /// had been given (the last checkpoint at or below that count).
    pub fn improvement_at(&self, verifications: usize) -> f64 {
        self.checkpoints
            .iter()
            .rfind(|c| c.verifications <= verifications)
            .map(|c| c.improvement_pct)
            .unwrap_or(0.0)
    }
}

/// Drives an engine with any user — oracle, human proxy, or service — until
/// the feedback budget (`None` = unlimited) is exhausted or the engine runs
/// out of work, then finishes it.
///
/// The budget counts *user interactions*, not just applied answers: a
/// [`WorkPlan::NeedsValue`] prompt the user declines (`correct_value` is
/// `None`) consumes no verification inside the engine, but it did consume
/// the user's attention — so the supply sweep respects the same budget
/// instead of prompting through every remaining dirty cell after the wallet
/// is empty.
///
/// This is the whole interactive loop: everything strategy-specific already
/// happened inside [`GdrEngine::next_work`].
pub fn drive(
    engine: &mut GdrEngine,
    user: &dyn UserOracle,
    budget: Option<usize>,
) -> Result<DoneReason> {
    // Declined NeedsValue prompts: interactions the engine's verification
    // counter never sees, charged against the budget here.
    let mut declined = 0usize;
    loop {
        if budget.is_some_and(|b| engine.verifications() + declined >= b) {
            break;
        }
        match engine.next_work()? {
            WorkPlan::AskUser { id, update, .. } => {
                let current = engine.state().table().cell(update.tuple, update.attr);
                let feedback = user.feedback(&update, current);
                engine.answer(id, feedback)?;
            }
            WorkPlan::NeedsValue { cell } => match user.correct_value(cell.0, cell.1) {
                Some(value) if &value != engine.state().table().cell(cell.0, cell.1) => {
                    engine.supply_value(cell, value)?;
                }
                _ => {
                    declined += 1;
                    engine.skip_value(cell)?;
                }
            },
            WorkPlan::Done(_) => break,
        }
    }
    engine.finish()
}

/// One reply from an interactive driver (see [`parse_reply`] for the text
/// syntax the stdin example and the scripted-queue tests share).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Feedback on the outstanding [`WorkPlan::AskUser`] update.
    Answer(Feedback),
    /// The correct value for the outstanding [`WorkPlan::NeedsValue`] cell.
    Supply(Value),
    /// Decline the outstanding [`WorkPlan::NeedsValue`] cell.
    Skip,
    /// Stop the session (out of budget or patience).
    Quit,
}

/// Parses one line of the interactive reply syntax:
///
/// * `y` / `c` / `yes` / `confirm` — the suggestion is correct,
/// * `n` / `r` / `no` / `reject` — the suggestion is wrong,
/// * `k` / `keep` / `retain` — the current value is already correct,
/// * `v <text>` / `= <text>` — supply `<text>` as the cell's correct value,
/// * `v "<text>"` — supply `<text>` *verbatim*: the quoted form preserves
///   leading/trailing whitespace the bare form trims away, and escapes
///   `\"` and `\\` — so genuinely whitespace-sensitive values (` x `, a
///   value that is itself `"quoted"`, even the empty string) can be typed,
/// * `s` / `skip` — decline to supply a value,
/// * `q` / `quit` / `exit` — end the session.
///
/// Returns `None` for anything else, including a malformed quoted value
/// (the caller re-prompts).
pub fn parse_reply(line: &str) -> Option<Reply> {
    let line = line.trim();
    let (command, rest) = match line.split_once(char::is_whitespace) {
        Some((command, rest)) => (command, rest.trim()),
        None => (line, ""),
    };
    match (command.to_ascii_lowercase().as_str(), rest) {
        ("y" | "c" | "yes" | "confirm", "") => Some(Reply::Answer(Feedback::Confirm)),
        ("n" | "r" | "no" | "reject", "") => Some(Reply::Answer(Feedback::Reject)),
        ("k" | "keep" | "retain", "") => Some(Reply::Answer(Feedback::Retain)),
        ("v" | "value" | "=", value) if value.starts_with('"') => {
            parse_quoted(value).map(|text| Reply::Supply(Value::Str(text)))
        }
        ("v" | "value" | "=", value) if !value.is_empty() => {
            Some(Reply::Supply(Value::from(value)))
        }
        ("s" | "skip", "") => Some(Reply::Skip),
        ("q" | "quit" | "exit", "") => Some(Reply::Quit),
        _ => None,
    }
}

/// Parses the quoted value form: `"…"` with `\"` and `\\` escapes, nothing
/// after the closing quote.  `None` for an unterminated quote, a bad escape,
/// or trailing garbage.
fn parse_quoted(text: &str) -> Option<String> {
    let mut chars = text.strip_prefix('"')?.chars();
    let mut value = String::new();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => match chars.next()? {
                escaped @ ('"' | '\\') => value.push(escaped),
                _ => return None,
            },
            c => value.push(c),
        }
    }
    chars.as_str().is_empty().then_some(value)
}

/// Drives an engine from a reply closure — the custom-driver hook used by
/// the `interactive_cleaning` stdin example and the scripted-queue tests.
///
/// The closure sees the engine (read-only, e.g. to render the current cell
/// value) and the outstanding plan.  Only an explicit [`Reply::Quit`] ends
/// the session early; a reply that does not fit the outstanding plan (e.g.
/// a [`Reply::Supply`] while an `AskUser` is outstanding) re-serves the same
/// plan — `next_work` is idempotent while an item is outstanding — so the
/// closure is simply asked again, exactly like an interactive re-prompt.
/// Either way the engine is finished so the no-user work completes.
pub fn drive_with(
    engine: &mut GdrEngine,
    mut reply: impl FnMut(&GdrEngine, &WorkPlan) -> Reply,
) -> Result<DoneReason> {
    loop {
        let plan = engine.next_work()?;
        if matches!(plan, WorkPlan::Done(_)) {
            break;
        }
        match (reply(engine, &plan), &plan) {
            (Reply::Answer(feedback), WorkPlan::AskUser { id, .. }) => {
                engine.answer(*id, feedback)?;
            }
            (Reply::Supply(value), WorkPlan::NeedsValue { cell }) => {
                engine.supply_value(*cell, value)?;
            }
            (Reply::Skip, WorkPlan::NeedsValue { cell }) => engine.skip_value(*cell)?,
            (Reply::Quit, _) => break,
            // Kind-mismatched reply: the plan stays outstanding; loop back
            // and re-serve it (re-prompt) instead of silently quitting.
            _ => continue,
        }
    }
    engine.finish()
}

/// The classic simulated session of §5: a pull-based [`GdrEngine`] with
/// evaluation hooks, driven by a [`GroundTruthOracle`].
///
/// Built with [`crate::step::SessionBuilder::simulated`]; everything it does
/// goes through the public pull API — it holds no private side-channel into
/// the engine.
#[derive(Debug, Clone)]
pub struct GdrSession {
    engine: GdrEngine,
    oracle: GroundTruthOracle,
}

impl GdrSession {
    pub(crate) fn from_parts(engine: GdrEngine, oracle: GroundTruthOracle) -> GdrSession {
        GdrSession { engine, oracle }
    }

    /// Read access to the current repair state (database, engine, updates).
    pub fn state(&self) -> &RepairState {
        self.engine.state()
    }

    /// Runs the session until the feedback budget (`None` = unlimited) is
    /// exhausted or no candidate updates remain, and returns the report.
    pub fn run(&mut self, budget: Option<usize>) -> Result<SessionReport> {
        drive(&mut self.engine, &self.oracle, budget)?;
        Ok(self
            .engine
            .report()
            .expect("simulated sessions always install eval hooks"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GdrConfig;
    use crate::fixture;
    use crate::step::SessionBuilder;

    fn run_strategy(strategy: Strategy, budget: Option<usize>) -> SessionReport {
        let (dirty, clean, rules) = fixture::figure1_instance();
        let mut session = SessionBuilder::new(dirty, &rules)
            .strategy(strategy)
            .config(GdrConfig::fast())
            .simulated(clean);
        session.run(budget).expect("session runs")
    }

    #[test]
    fn no_learning_session_reaches_full_quality_with_unlimited_budget() {
        let report = run_strategy(Strategy::GdrNoLearning, None);
        assert!(report.verifications > 0);
        assert_eq!(report.learner_decisions, 0);
        assert!(
            report.final_improvement_pct > 99.0,
            "improvement = {}",
            report.final_improvement_pct
        );
        assert!(report.final_loss <= 1e-9);
        assert!(report.accuracy.precision() > 0.9);
    }

    #[test]
    fn checkpoints_are_monotone_in_verifications() {
        let report = run_strategy(Strategy::GdrNoLearning, None);
        assert!(report
            .checkpoints
            .windows(2)
            .all(|w| w[0].verifications <= w[1].verifications));
        assert_eq!(report.checkpoints.first().unwrap().verifications, 0);
        assert!(report.improvement_at(usize::MAX) >= report.improvement_at(0));
    }

    #[test]
    fn budget_limits_user_effort() {
        let report = run_strategy(Strategy::GdrNoLearning, Some(2));
        assert!(report.verifications <= 2);
    }

    #[test]
    fn heuristic_uses_no_feedback() {
        let report = run_strategy(Strategy::AutomaticHeuristic, None);
        assert_eq!(report.verifications, 0);
        assert_eq!(report.learner_decisions, 0);
        // It repairs something, but not necessarily correctly.
        assert!(report.final_loss <= report.initial_loss);
    }

    #[test]
    fn greedy_and_random_also_converge_given_unlimited_budget() {
        for strategy in [Strategy::Greedy, Strategy::RandomOrder] {
            let report = run_strategy(strategy, None);
            assert!(
                report.final_improvement_pct > 99.0,
                "{strategy} reached only {}",
                report.final_improvement_pct
            );
        }
    }

    #[test]
    fn gdr_with_learning_terminates_and_improves() {
        let report = run_strategy(Strategy::Gdr, Some(10));
        assert!(report.verifications <= 10);
        assert!(report.final_improvement_pct > 0.0);
        assert!(report.initial_dirty_tuples > 0);
    }

    #[test]
    fn active_learning_only_terminates_and_improves() {
        let report = run_strategy(Strategy::ActiveLearningOnly, Some(8));
        assert!(report.verifications <= 8);
        assert!(report.final_improvement_pct > 0.0);
    }

    #[test]
    fn reports_expose_improvement_at_checkpoints() {
        let report = run_strategy(Strategy::GdrNoLearning, None);
        let early = report.improvement_at(1);
        let late = report.improvement_at(report.verifications);
        assert!(late >= early);
        assert!((late - report.final_improvement_pct).abs() < 1e-9);
    }

    #[test]
    fn run_resumes_after_manual_pull_api_steps() {
        // Interleave: answer two items through the public pull API, then let
        // run() finish the same session — the two surfaces share one engine.
        let (dirty, clean, rules) = fixture::figure1_instance();
        let mut session = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .simulated(clean);
        for _ in 0..2 {
            let WorkPlan::AskUser { id, update, .. } = session.engine.next_work().unwrap() else {
                panic!("expected AskUser");
            };
            let feedback = {
                let current = session.state().table().cell(update.tuple, update.attr);
                session.oracle.feedback(&update, current)
            };
            session.engine.answer(id, feedback).unwrap();
        }
        let report = session.run(None).unwrap();
        assert!(report.verifications >= 2);
        assert!(report.final_loss <= 1e-9);
    }

    /// A user who rejects every suggestion and never knows a value, counting
    /// every time they are consulted — the budget must bound *this* number,
    /// not just the engine's verification counter.
    struct CountingNaysayer {
        interactions: std::cell::Cell<usize>,
    }

    impl CountingNaysayer {
        fn new() -> Self {
            CountingNaysayer {
                interactions: std::cell::Cell::new(0),
            }
        }
    }

    impl crate::oracle::UserOracle for CountingNaysayer {
        fn feedback(&self, _: &gdr_repair::Update, _: &Value) -> Feedback {
            self.interactions.set(self.interactions.get() + 1);
            Feedback::Reject
        }

        fn correct_value(&self, _: gdr_relation::TupleId, _: usize) -> Option<Value> {
            self.interactions.set(self.interactions.get() + 1);
            None
        }
    }

    #[test]
    fn drive_budget_bounds_the_supply_sweep_prompts_too() {
        let (dirty, _clean, rules) = fixture::figure1_instance();
        let build = || {
            SessionBuilder::new(dirty.clone(), &rules)
                .strategy(Strategy::GdrNoLearning)
                .config(GdrConfig::fast())
                .build()
        };
        // Unlimited: the naysayer drains the suggestions, then the supply
        // sweep consults them about every remaining dirty cell.
        let unlimited = CountingNaysayer::new();
        let mut engine = build();
        drive(&mut engine, &unlimited, None).expect("drive");
        let rejects = engine.verifications();
        let declines = unlimited.interactions.get() - rejects;
        assert!(
            declines >= 3,
            "fixture must exercise the sweep (got {declines} declined prompts)"
        );
        // Budgeted at two interactions past the rejects: the sweep may
        // consult the user exactly twice more, not once per dirty cell.
        let budgeted = CountingNaysayer::new();
        let mut engine = build();
        drive(&mut engine, &budgeted, Some(rejects + 2)).expect("drive");
        assert_eq!(budgeted.interactions.get(), rejects + 2);
        assert_eq!(engine.verifications(), rejects);
    }

    #[test]
    fn drive_with_reprompts_on_kind_mismatched_replies() {
        // A reply that does not fit the outstanding plan must re-serve the
        // plan (interactive re-prompt), not silently end the session.
        let (dirty, clean, rules) = fixture::figure1_instance();
        let mut engine = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .ground_truth(clean)
            .build();
        let mut mismatches = 0usize;
        let reason = drive_with(&mut engine, |_, plan| match plan {
            WorkPlan::AskUser { .. } if mismatches < 3 => {
                mismatches += 1;
                Reply::Supply(Value::from("nonsense")) // wrong kind: re-prompt
            }
            WorkPlan::AskUser { .. } => Reply::Answer(Feedback::Confirm),
            WorkPlan::NeedsValue { .. } => Reply::Skip,
            WorkPlan::Done(_) => unreachable!(),
        })
        .expect("session");
        assert_eq!(mismatches, 3);
        // The session ran to its natural end instead of quitting at the
        // first mismatch.
        assert_ne!(reason, DoneReason::Finished);
        assert!(engine.verifications() > 0);
    }

    #[test]
    fn parse_reply_covers_the_interactive_syntax() {
        assert_eq!(parse_reply("y"), Some(Reply::Answer(Feedback::Confirm)));
        assert_eq!(
            parse_reply(" CONFIRM "),
            Some(Reply::Answer(Feedback::Confirm))
        );
        assert_eq!(parse_reply("n"), Some(Reply::Answer(Feedback::Reject)));
        assert_eq!(parse_reply("keep"), Some(Reply::Answer(Feedback::Retain)));
        assert_eq!(
            parse_reply("v Fort Wayne"),
            Some(Reply::Supply(Value::from("Fort Wayne")))
        );
        assert_eq!(
            parse_reply("= 46360"),
            Some(Reply::Supply(Value::from("46360")))
        );
        assert_eq!(parse_reply("s"), Some(Reply::Skip));
        assert_eq!(parse_reply("quit"), Some(Reply::Quit));
        assert_eq!(parse_reply("v"), None); // a value command needs a value
        assert_eq!(parse_reply("huh"), None);
        assert_eq!(parse_reply(""), None);
    }

    #[test]
    fn parse_reply_quoted_values_preserve_whitespace_and_specials() {
        // The bare form trims; the quoted form is verbatim.
        assert_eq!(
            parse_reply("v \"  Fort Wayne  \""),
            Some(Reply::Supply(Value::from("  Fort Wayne  ")))
        );
        // Values that look like commands or start with `=` are supplyable.
        assert_eq!(
            parse_reply("= \"= 46360\""),
            Some(Reply::Supply(Value::from("= 46360")))
        );
        assert_eq!(
            parse_reply("v \"v x\""),
            Some(Reply::Supply(Value::from("v x")))
        );
        // Escapes: embedded quotes and backslashes.
        assert_eq!(
            parse_reply(r#"v "say \"hi\"""#),
            Some(Reply::Supply(Value::from("say \"hi\"")))
        );
        assert_eq!(
            parse_reply(r#"v "a\\b""#),
            Some(Reply::Supply(Value::from("a\\b")))
        );
        // The empty string is a real (Str) value, distinct from skipping.
        assert_eq!(parse_reply("v \"\""), Some(Reply::Supply(Value::from(""))));
        // Malformed quoted forms re-prompt instead of supplying garbage.
        assert_eq!(parse_reply("v \"unterminated"), None);
        assert_eq!(parse_reply("v \"x\" trailing"), None);
        assert_eq!(parse_reply(r#"v "bad \escape""#), None);
    }

    #[test]
    fn drive_with_quit_finishes_the_session() {
        let (dirty, clean, rules) = fixture::figure1_instance();
        let mut engine = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .ground_truth(clean)
            .build();
        let mut asked = 0usize;
        let reason = drive_with(&mut engine, |_, _| {
            asked += 1;
            if asked <= 3 {
                Reply::Answer(Feedback::Confirm)
            } else {
                Reply::Quit
            }
        })
        .unwrap();
        assert_eq!(reason, DoneReason::Finished);
        assert_eq!(engine.verifications(), 3);
        // Initial + per-answer + final checkpoints.
        assert_eq!(engine.report().unwrap().checkpoints.len(), 5);
    }
}
