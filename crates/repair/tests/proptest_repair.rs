//! Property-based tests for the repair substrate: arbitrary feedback
//! sequences must preserve the consistency-manager invariants and report
//! exactly the cells they wrote, and an oracle that answers from the ground
//! truth must always drive the database to a consistent state.

use gdr_cfd::{parser, RuleSet};
use gdr_relation::{Schema, Table, Value};
use gdr_repair::{Feedback, RepairState, Update};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"])
}

fn ruleset(schema: &Schema) -> RuleSet {
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

/// The `ZIP` attribute, the left-hand side of the constant rules.
const ZIP: usize = 4;

/// Clean rows consistent with the rules.
const CLEAN_ROWS: &[[&str; 5]] = &[
    ["H1", "Main St", "Michigan City", "IN", "46360"],
    ["H2", "Main St", "Michigan City", "IN", "46360"],
    ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H3", "Sherden RD", "Fort Wayne", "IN", "46835"],
    ["H1", "Colfax Ave", "Westville", "IN", "46391"],
    ["H2", "Colfax Ave", "Westville", "IN", "46391"],
];

/// Wrong values an error can inject per attribute.
fn corruption(attr: usize, pick: usize) -> &'static str {
    let pool: &[&str] = match attr {
        0 => &["H9"],
        1 => &["Main", "Colfax"],
        2 => &["FT Wayne", "Michigan Cty", "Westvile", "Fort Wayne"],
        3 => &["INX"],
        _ => &["46999", "46391", "46360"],
    };
    pool[pick % pool.len()]
}

fn dirty_state(corruptions: &[(usize, usize, usize)]) -> (RepairState, Table) {
    let schema = schema();
    let mut clean = Table::new("clean", schema.clone());
    for row in CLEAN_ROWS {
        clean.push_text_row(row).unwrap();
    }
    let mut dirty = clean.snapshot("dirty");
    for &(row, attr, pick) in corruptions {
        let row = row % dirty.len();
        let attr = attr % dirty.schema().arity();
        dirty
            .set_cell(row, attr, Value::from(corruption(attr, pick)))
            .unwrap();
    }
    let rules = ruleset(&schema);
    (RepairState::new(dirty, &rules), clean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary (even adversarial) feedback sequences keep the invariants:
    /// the engine matches a rebuild and no pending update is vacuous.  Some
    /// answers instead supply a zip for the suggestion's tuple, moving it to
    /// a constant context whose right-hand sides step 3(a)i may force.
    #[test]
    fn random_feedback_preserves_invariants(
        corruptions in proptest::collection::vec((0usize..7, 0usize..5, 0usize..4), 0..6),
        feedback_picks in proptest::collection::vec((0usize..64, 0usize..4), 0..20),
    ) {
        let (mut state, _) = dirty_state(&corruptions);
        for (pick, fb) in feedback_picks {
            let updates = state.possible_updates_sorted();
            if updates.is_empty() {
                break;
            }
            let update = updates[pick % updates.len()].clone();
            let before = state.table().clone();
            let outcome = match fb {
                0 => state.apply_feedback(&update, Feedback::Confirm),
                1 => state.apply_feedback(&update, Feedback::Reject),
                2 => state.apply_feedback(&update, Feedback::Retain),
                _ => {
                    let zip = Value::from(["46360", "46391", "46825"][pick % 3]);
                    let cell = (update.tuple, ZIP);
                    if !state.is_changeable(cell) {
                        continue;
                    }
                    state.apply_feedback(&Update::new(cell.0, cell.1, zip, 1.0), Feedback::Confirm)
                }
            };
            // The outcome names exactly the cells the verb wrote (in write
            // order, so sort before comparing).
            let mut written = outcome.unwrap().applied;
            written.sort_unstable();
            prop_assert_eq!(written, before.diff_cells(state.table()).unwrap());
            prop_assert!(state.invariants_hold());
        }
        state.refresh_updates();
        prop_assert!(state.invariants_hold());
    }

    /// A ground-truth oracle (confirm when the suggestion is right, retain
    /// when the current value is right, reject otherwise) terminates with a
    /// consistent database.
    #[test]
    fn oracle_feedback_terminates_consistently(
        corruptions in proptest::collection::vec((0usize..7, 2usize..5, 0usize..4), 1..6),
    ) {
        let (mut state, clean) = dirty_state(&corruptions);
        let mut steps = 0usize;
        loop {
            state.refresh_updates();
            let updates = state.possible_updates_sorted();
            let Some(update) = updates.into_iter().next() else { break };
            steps += 1;
            prop_assert!(steps < 500, "oracle loop did not terminate");
            let truth = clean.cell(update.tuple, update.attr);
            let current = state.table().cell(update.tuple, update.attr);
            let feedback = if &update.value == truth {
                Feedback::Confirm
            } else if current == truth {
                Feedback::Retain
            } else {
                Feedback::Reject
            };
            let before = state.table().clone();
            let mut written = state.apply_feedback(&update, feedback).unwrap().applied;
            // The outcome names exactly the cells the verb wrote (in write
            // order, so sort before comparing).
            written.sort_unstable();
            prop_assert_eq!(written, before.diff_cells(state.table()).unwrap());
        }
        // Every remaining dirty tuple has no admissible suggestion left; with
        // this rule set and corruption model the database must be consistent.
        prop_assert!(state.invariants_hold());
    }

    /// The automatic heuristic always terminates and never leaves the engine
    /// out of sync.
    #[test]
    fn heuristic_terminates_and_preserves_invariants(
        corruptions in proptest::collection::vec((0usize..7, 2usize..5, 0usize..4), 0..8),
    ) {
        let (mut state, _) = dirty_state(&corruptions);
        let report = gdr_repair::run_heuristic_repair(
            &mut state,
            &gdr_repair::HeuristicConfig::default(),
        ).unwrap();
        prop_assert!(report.passes <= 8);
        prop_assert!(state.invariants_hold());
    }
}
