//! The updates consistency manager (Appendix A.5).
//!
//! Once feedback on a suggested update `r = ⟨t, B, v, s⟩` arrives — from the
//! user or from the learning component — the consistency manager keeps two
//! invariants:
//!
//! 1. every tuple violating some rule is tracked as dirty, and
//! 2. no pending suggestion depends on data that has since been modified.
//!
//! The implementation follows steps 1–6 of Appendix A.5:
//!
//! * **retain** → the cell is confirmed correct: `Changeable = false`, stop
//!   generating updates for it;
//! * **reject** → `v` joins the cell's `preventedList` and a replacement
//!   suggestion is generated immediately;
//! * **confirm** → the value is written through the violation engine, the
//!   cell becomes unchangeable, and for every rule involving `B` the manager
//!   (a) forces the RHS constant when all LHS cells are already confirmed
//!   (step 3(a)i), (b) queues the cells of conflicting partner tuples for
//!   revisiting (step 3(a)ii), and finally (steps 4–5) drops and regenerates
//!   the suggestions of every revisited cell.

use std::collections::BTreeSet;

use gdr_relation::TupleId;

use crate::state::{FeedbackOutcome, RepairState};
use crate::update::{Cell, Feedback, Update};
use crate::Result;

impl RepairState {
    /// Applies feedback on a suggested update, running the consistency
    /// manager.  Returns the cells written to the database and the cells
    /// whose suggestions were regenerated.
    pub fn apply_feedback(
        &mut self,
        update: &Update,
        feedback: Feedback,
    ) -> Result<FeedbackOutcome> {
        match feedback {
            Feedback::Retain => Ok(self.apply_retain(update)),
            Feedback::Reject => Ok(self.apply_reject(update)),
            Feedback::Confirm => self.apply_confirm(update),
        }
    }

    /// Step 1: retain the current value.
    fn apply_retain(&mut self, update: &Update) -> FeedbackOutcome {
        self.mark_unchangeable(update.cell());
        FeedbackOutcome::default()
    }

    /// Step 2: the suggested value is wrong; prevent it and look for another.
    fn apply_reject(&mut self, update: &Update) -> FeedbackOutcome {
        let cell = update.cell();
        self.mark_prevented(cell, update.value.clone());
        self.drop_pending(cell);
        self.generate_update(update.tuple, update.attr);
        FeedbackOutcome {
            applied: Vec::new(),
            revisited: vec![cell],
        }
    }

    /// Steps 3–6: the suggested value is correct; apply it and propagate.
    /// A value the cell already holds is not written: the cell only becomes
    /// unchangeable, and the rule walk still runs.
    fn apply_confirm(&mut self, update: &Update) -> Result<FeedbackOutcome> {
        let cell = update.cell();
        let writes = self.table.try_cell(update.tuple, update.attr)? != &update.value;
        let mut applied: Vec<Cell> = Vec::new();

        // Record, per rule involving the modified attribute, the tuples that
        // conflict with `t` *before* the change; their suggestions were
        // generated against the old instance and may become inconsistent
        // (invariant (ii) of Appendix A.5).
        let pre_change_partners: Vec<(usize, Vec<TupleId>)> = self
            .engine
            .rules_involving(update.attr)
            .iter()
            .map(|&rule_id| {
                (
                    rule_id,
                    self.engine.conflict_partners(rule_id, update.tuple),
                )
            })
            .collect();

        // Apply the confirmed value through the violation engine and freeze
        // the cell.
        if writes {
            let old_id = self.engine.apply_cell_change(
                &mut self.table,
                update.tuple,
                update.attr,
                update.value.clone(),
            )?;
            self.note_cell_change(update.tuple, update.attr, old_id);
            applied.push(cell);
        }
        self.mark_unchangeable(cell);

        // Step 3: walk the rules involving the modified attribute.
        let mut revisit: BTreeSet<Cell> = BTreeSet::new();
        for (rule_id, pre_partners) in pre_change_partners {
            let rule = self.engine.ruleset().rule(rule_id).clone();
            if !self.engine.tuple_violates(rule_id, update.tuple) {
                // Step 3(b): the rule is now satisfied by t.  Suggestions of
                // the tuples that previously conflicted with t were generated
                // against the old instance and must be revisited.
                for partner in pre_partners {
                    for attr in rule.attrs() {
                        revisit.insert((partner, attr));
                    }
                }
                continue;
            }
            if rule.is_constant() {
                // Step 3(a)i.
                let lhs_all_frozen = rule
                    .lhs()
                    .iter()
                    .all(|&c| !self.is_changeable((update.tuple, c)));
                if lhs_all_frozen {
                    let constant = rule
                        .rhs_pattern()
                        .as_const()
                        .expect("constant rule has constant RHS")
                        .clone();
                    let rhs_cell = (update.tuple, rule.rhs());
                    if self.is_changeable(rhs_cell)
                        && self.table.cell(update.tuple, rule.rhs()) != &constant
                    {
                        self.force_value(update.tuple, rule.rhs(), constant)?;
                        applied.push(rhs_cell);
                        self.mark_unchangeable(rhs_cell);
                    }
                } else {
                    for attr in rule.attrs() {
                        if attr != update.attr {
                            revisit.insert((update.tuple, attr));
                        }
                    }
                }
            } else {
                // Step 3(a)ii: every partner in the conflict — before or
                // after the change — and the tuple itself may need new
                // suggestions for the rule's attributes.
                let mut partners = self.engine.conflict_partners(rule_id, update.tuple);
                partners.extend(pre_partners);
                for partner in partners {
                    for attr in rule.attrs() {
                        revisit.insert((partner, attr));
                    }
                }
                for attr in rule.attrs() {
                    if attr != update.attr {
                        revisit.insert((update.tuple, attr));
                    }
                }
            }
        }

        // Steps 4–5: drop and regenerate suggestions for revisited cells.
        let revisited: Vec<Cell> = revisit.into_iter().collect();
        for &cell in &revisited {
            self.drop_pending(cell);
        }
        for &(tuple, attr) in &revisited {
            if self.is_changeable((tuple, attr)) {
                self.generate_update(tuple, attr);
            }
        }

        // Step 6 is implicit: dirty tuples are derived from the violation
        // engine, so tuples with an empty violation list are no longer dirty.
        Ok(FeedbackOutcome { applied, revisited })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::{parser, RuleSet};
    use gdr_relation::{Schema, Table, Value};

    fn schema() -> Schema {
        Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"])
    }

    fn rules(schema: &Schema) -> RuleSet {
        RuleSet::new(
            parser::parse_rules(
                schema,
                "\
ZIP -> CT, STT : 46360 || Michigan City, IN
ZIP -> CT, STT : 46391 || Westville, IN
ZIP -> CT, STT : 46825 || Fort Wayne, IN
STR, CT -> ZIP : _, Fort Wayne || _
",
            )
            .unwrap(),
        )
    }

    fn state_with_rows(rows: &[[&str; 5]]) -> RepairState {
        let schema = schema();
        let mut table = Table::new("addr", schema.clone());
        for row in rows {
            table.push_text_row(row).unwrap();
        }
        RepairState::new(table, &rules(&schema))
    }

    #[test]
    fn confirm_applies_value_and_freezes_cell() {
        let mut state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        let update = state.pending_update((0, 2)).unwrap().clone();
        let outcome = state.apply_feedback(&update, Feedback::Confirm).unwrap();
        assert_eq!(outcome.applied, vec![(0, 2)]);
        assert_eq!(state.table().cell(0, 2), &Value::from("Michigan City"));
        assert!(!state.is_changeable((0, 2)));
        assert!(state.dirty_tuples().is_empty());
        assert!(state.invariants_hold());
    }

    #[test]
    fn reject_prevents_value_and_regenerates() {
        let mut state = state_with_rows(&[
            ["H2", "Main St", "Westville", "IN", "46360"],
            ["H3", "Colfax Ave", "Westville", "IN", "46391"],
        ]);
        // Suggestion for the ZIP cell is 46391 (scenario 3, from t1).
        let update = state.pending_update((0, 4)).unwrap().clone();
        assert_eq!(update.value, Value::from("46391"));
        state.apply_feedback(&update, Feedback::Reject).unwrap();
        assert!(state.is_prevented((0, 4), &Value::from("46391")));
        // A replacement was generated and differs from the rejected one.
        if let Some(next) = state.pending_update((0, 4)) {
            assert_ne!(next.value, Value::from("46391"));
        }
        assert!(state.invariants_hold());
    }

    #[test]
    fn retain_freezes_cell_without_changes() {
        let mut state = state_with_rows(&[["H2", "Main St", "Westville", "IN", "46360"]]);
        let update = state.pending_update((0, 2)).unwrap().clone();
        let outcome = state.apply_feedback(&update, Feedback::Retain).unwrap();
        assert!(outcome.applied.is_empty());
        assert_eq!(state.table().cell(0, 2), &Value::from("Westville"));
        assert!(!state.is_changeable((0, 2)));
        assert!(state.pending_update((0, 2)).is_none());
        assert!(state.invariants_hold());
    }

    #[test]
    fn cascade_forces_constant_rhs_when_lhs_is_frozen() {
        // Step 3(a)i: confirming the ZIP (the LHS of the constant rule) while
        // the city is still wrong leaves the rule violated with every LHS
        // cell frozen — the consistency manager must force the constant RHS.
        let mut state = state_with_rows(&[["H2", "Main St", "FT Wayne", "IN", "46391"]]);
        // Confirm ZIP := 46360 (a user-supplied correction).
        let supplied = Update::new(0, 4, Value::from("46360"), 1.0);
        let outcome = state.apply_feedback(&supplied, Feedback::Confirm).unwrap();
        // The confirmed zip, then the forced city repair.
        assert_eq!(outcome.applied, vec![(0, 4), (0, 2)]);
        assert_eq!(state.table().cell(0, 4), &Value::from("46360"));
        assert_eq!(state.table().cell(0, 2), &Value::from("Michigan City"));
        assert!(!state.is_changeable((0, 2)));
        assert!(state.dirty_tuples().is_empty());
        assert!(state.invariants_hold());
    }

    #[test]
    fn confirming_the_held_value_writes_nothing() {
        let mut state = state_with_rows(&[["H2", "Main St", "Westville", "IN", "46391"]]);
        let before = state.table().snapshot("before");
        let rules = state.engine().ruleset().len();
        let stats: Vec<u64> = (0..rules)
            .map(|rule| state.engine().stats_generation(rule))
            .collect();
        let row = state.engine().row_generation(0);
        let held = Update::new(0, 4, Value::from("46391"), 1.0);
        let outcome = state.apply_feedback(&held, Feedback::Confirm).unwrap();
        assert!(outcome.applied.is_empty());
        assert!(before.diff_cells(state.table()).unwrap().is_empty());
        for (rule, &generation) in stats.iter().enumerate() {
            assert_eq!(state.engine().stats_generation(rule), generation);
        }
        assert_eq!(state.engine().row_generation(0), row);
        assert!(!state.is_changeable((0, 4)));
        assert!(state.invariants_hold());
    }

    #[test]
    fn confirm_on_variable_rule_revisits_partners() {
        let mut state = state_with_rows(&[
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
        ]);
        // Confirm t1's ZIP := 46825 (the partner's value).
        let update = state.pending_update((1, 4)).unwrap().clone();
        assert_eq!(update.value, Value::from("46825"));
        let outcome = state.apply_feedback(&update, Feedback::Confirm).unwrap();
        assert_eq!(state.table().cell(1, 4), &Value::from("46825"));
        assert!(state.dirty_tuples().is_empty());
        // The partner's cells were revisited (its stale suggestion dropped).
        assert!(outcome.revisited.iter().any(|&(t, _)| t == 0));
        assert!(state.pending_update((0, 4)).is_none());
        assert!(state.invariants_hold());
    }

    #[test]
    fn confirming_an_lhs_change_moves_the_tuple_between_contexts() {
        // The paper's §3 example: t6 has ZIP 46391 with CT "FT Wayne"; after
        // confirming ZIP := 46391 is wrong and should be 46825... here we
        // exercise the simpler direction: confirm a ZIP change that moves the
        // tuple into a different constant context, and check that a new
        // suggestion for CT consistent with the *new* context appears.
        let mut state = state_with_rows(&[["H2", "Sherden RD", "FT Wayne", "IN", "46391"]]);
        // The tuple violates (46391 → Westville).  Confirm ZIP := 46825.
        let zip_update = Update::new(0, 4, Value::from("46825"), 0.6);
        let outcome = state
            .apply_feedback(&zip_update, Feedback::Confirm)
            .unwrap();
        // The tuple now falls in the (46825 → Fort Wayne) context; because
        // its only LHS cell (the just-confirmed ZIP) is frozen, step 3(a)i
        // forces the constant RHS "Fort Wayne" — consistent with the *new*
        // context, not the old Westville one.
        assert_eq!(outcome.applied, vec![(0, 4), (0, 2)]);
        assert_eq!(state.table().cell(0, 2), &Value::from("Fort Wayne"));
        assert!(state.dirty_tuples().is_empty());
        assert!(state.invariants_hold());
    }

    #[test]
    fn feedback_sequence_terminates_with_clean_database() {
        // Drive every suggestion to the ground truth with confirm/reject and
        // check the loop terminates with no dirty tuples.
        let truth = [
            ["H1", "Main St", "Michigan City", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
        ];
        let dirty = [
            ["H1", "Main St", "Westville", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
        ];
        let mut state = state_with_rows(&dirty);
        let mut steps = 0usize;
        while let Some(update) = state.possible_updates_sorted().into_iter().next() {
            steps += 1;
            assert!(steps < 100, "feedback loop did not terminate");
            let correct = Value::from(truth[update.tuple][update.attr]);
            let feedback = if update.value == correct {
                Feedback::Confirm
            } else if state.table().cell(update.tuple, update.attr) == &correct {
                Feedback::Retain
            } else {
                Feedback::Reject
            };
            state.apply_feedback(&update, feedback).unwrap();
            state.refresh_updates();
        }
        assert!(state.dirty_tuples().is_empty());
        for (tid, row) in truth.iter().enumerate() {
            for (attr, want) in row.iter().enumerate() {
                assert_eq!(state.table().cell(tid, attr), &Value::from(*want));
            }
        }
        assert!(state.invariants_hold());
    }
}
