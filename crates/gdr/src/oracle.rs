//! The user, as a trait.
//!
//! The engine ([`crate::step::GdrEngine`]) never talks to a user directly —
//! drivers do ([`crate::session::drive`] takes a `&dyn UserOracle`).
//! [`UserOracle`] is the answering side of that contract; applications plug
//! in anything that can answer, from a web frontend to a rules engine.
//!
//! §5: "We simulated user feedback to suggested updates by providing answers
//! as determined by the ground truth."  [`GroundTruthOracle`] does exactly
//! that — it is *one driver's user* among many, installed by
//! [`crate::step::SessionBuilder::simulated`], and the only place the
//! simulated answers live (the engine carries no ground truth).

use std::sync::Arc;

use gdr_relation::{Table, TupleId, Value};
use gdr_repair::{Feedback, Update};

/// Something that can answer feedback requests about suggested updates.
pub trait UserOracle {
    /// Feedback on a suggested update given the current value of the cell.
    fn feedback(&self, update: &Update, current_value: &Value) -> Feedback;

    /// The correct value of a cell, when the oracle knows it.  GDR uses it to
    /// model the user "suggesting a new value v′" (treated as confirming
    /// `⟨t, A, v′, 1⟩`); oracles without that knowledge return `None`.
    fn correct_value(&self, tuple: TupleId, attr: usize) -> Option<Value> {
        let _ = (tuple, attr);
        None
    }
}

/// An oracle that answers from a ground-truth table.
///
/// * **confirm** when the suggested value equals the ground truth,
/// * **retain** when the *current* value already equals the ground truth
///   (the suggestion is unnecessary),
/// * **reject** otherwise (both the current and the suggested value are
///   wrong).
#[derive(Debug, Clone)]
pub struct GroundTruthOracle {
    /// Shared, immutable: a simulated session's [`crate::step::EvalHooks`]
    /// reads the same copy, and cloning the oracle (or branching an engine)
    /// never duplicates the table.
    truth: Arc<Table>,
}

impl GroundTruthOracle {
    /// Wraps a ground-truth table.
    pub fn new(truth: Table) -> GroundTruthOracle {
        GroundTruthOracle::from_shared(Arc::new(truth))
    }

    /// Wraps an already-shared ground-truth table without copying it.
    pub(crate) fn from_shared(truth: Arc<Table>) -> GroundTruthOracle {
        GroundTruthOracle { truth }
    }
}

impl UserOracle for GroundTruthOracle {
    fn feedback(&self, update: &Update, current_value: &Value) -> Feedback {
        let truth = self.truth.cell(update.tuple, update.attr);
        if &update.value == truth {
            Feedback::Confirm
        } else if current_value == truth {
            Feedback::Retain
        } else {
            Feedback::Reject
        }
    }

    fn correct_value(&self, tuple: TupleId, attr: usize) -> Option<Value> {
        Some(self.truth.cell(tuple, attr).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::Schema;

    fn oracle() -> GroundTruthOracle {
        let mut truth = Table::new("truth", Schema::new(&["CT", "ZIP"]));
        truth.push_text_row(&["Michigan City", "46360"]).unwrap();
        truth.push_text_row(&["Fort Wayne", "46825"]).unwrap();
        GroundTruthOracle::new(truth)
    }

    #[test]
    fn confirms_correct_suggestions() {
        let oracle = oracle();
        let update = Update::new(0, 0, Value::from("Michigan City"), 0.9);
        assert_eq!(
            oracle.feedback(&update, &Value::from("Michigan Cty")),
            Feedback::Confirm
        );
    }

    #[test]
    fn retains_when_current_value_is_already_right() {
        let oracle = oracle();
        let update = Update::new(1, 1, Value::from("46805"), 0.5);
        assert_eq!(
            oracle.feedback(&update, &Value::from("46825")),
            Feedback::Retain
        );
    }

    #[test]
    fn rejects_when_both_are_wrong() {
        let oracle = oracle();
        let update = Update::new(0, 1, Value::from("46391"), 0.5);
        assert_eq!(
            oracle.feedback(&update, &Value::from("46999")),
            Feedback::Reject
        );
    }

    #[test]
    fn exposes_correct_values() {
        let oracle = oracle();
        assert_eq!(oracle.correct_value(1, 0), Some(Value::from("Fort Wayne")));
        assert_eq!(oracle.truth.len(), 2);
    }

    #[test]
    fn default_correct_value_is_none_for_custom_oracles() {
        struct AlwaysConfirm;
        impl UserOracle for AlwaysConfirm {
            fn feedback(&self, _: &Update, _: &Value) -> Feedback {
                Feedback::Confirm
            }
        }
        let oracle = AlwaysConfirm;
        assert_eq!(oracle.correct_value(0, 0), None);
        let update = Update::new(0, 0, Value::from("x"), 1.0);
        assert_eq!(oracle.feedback(&update, &Value::Null), Feedback::Confirm);
    }
}
