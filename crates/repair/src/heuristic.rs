//! Fully automatic heuristic repair — the *Automatic-Heuristic* baseline.
//!
//! The GDR paper compares against the `BatchRepair` method of Cong et al.
//! ("Improving data quality: consistency and accuracy", VLDB 2007), which
//! repairs every CFD violation automatically by greedily applying the
//! lowest-cost attribute modifications, with no user in the loop.  This
//! module implements the same contract on top of [`RepairState`]:
//! repeatedly pick, for every dirty tuple, the candidate update with the best
//! evaluation score (Eq. 7) and apply it, until the database is consistent or
//! the pass budget is exhausted.
//!
//! The produced instance is consistent with the rules whenever a fixpoint is
//! reached, but — exactly like the paper's baseline — the *chosen* values may
//! be wrong; its accuracy appears as the flat line of Figure 4.

use gdr_relation::TupleId;

use crate::state::RepairState;
use crate::update::Update;
use crate::Result;

/// Tuning knobs for the automatic heuristic.
#[derive(Debug, Clone)]
pub struct HeuristicConfig {
    /// Maximum number of passes over the dirty tuples.  Each pass applies at
    /// most one repair per dirty tuple; the bound guarantees termination even
    /// if the greedy choices oscillate.
    pub max_passes: usize,
    /// Do not apply suggestions whose evaluation score falls below this
    /// threshold; such repairs are more likely to destroy correct data.
    pub min_score: f64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            max_passes: 8,
            min_score: 0.0,
        }
    }
}

/// Summary of an automatic repair run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicReport {
    /// Number of passes executed.
    pub passes: usize,
    /// Number of cell repairs applied.
    pub repairs_applied: usize,
    /// Number of tuples still dirty when the run stopped.
    pub remaining_dirty: usize,
}

/// Runs the automatic heuristic repair to (near) fixpoint.
pub fn run_heuristic_repair(
    state: &mut RepairState,
    config: &HeuristicConfig,
) -> Result<HeuristicReport> {
    let mut repairs_applied = 0usize;
    let mut passes = 0usize;

    for _ in 0..config.max_passes {
        let dirty = state.dirty_tuples();
        if dirty.is_empty() {
            break;
        }
        passes += 1;
        let mut progressed = false;

        for tuple in dirty {
            // The tuple may have been cleaned as a side effect of repairing a
            // conflict partner earlier in this pass.
            if state.engine().violated_rules(tuple).is_empty() {
                continue;
            }
            let Some(update) = best_update_for(state, tuple) else {
                continue;
            };
            if update.score < config.min_score {
                continue;
            }
            state.force_value(update.tuple, update.attr, update.value)?;
            repairs_applied += 1;
            progressed = true;
        }

        state.refresh_updates();
        if !progressed {
            break;
        }
    }

    Ok(HeuristicReport {
        passes,
        repairs_applied,
        remaining_dirty: state.dirty_tuples().len(),
    })
}

/// The best-scoring candidate update over all attributes of a dirty tuple.
fn best_update_for(state: &mut RepairState, tuple: TupleId) -> Option<Update> {
    let arity = state.table().schema().arity();
    let mut best: Option<Update> = None;
    for attr in 0..arity {
        if let Some(update) = state.generate_update(tuple, attr) {
            let better = match &best {
                None => true,
                Some(current) => {
                    update.score > current.score
                        || (update.score == current.score && update.attr < current.attr)
                }
            };
            if better {
                best = Some(update);
            }
        }
    }
    best
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
    fn heuristic_reaches_a_consistent_instance() {
        let mut state = state_with_rows(&[
            ["H1", "Main St", "Michigan Cty", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
            ["H2", "Colfax Ave", "Westville", "IN", "46391"],
        ]);
        let report = run_heuristic_repair(&mut state, &HeuristicConfig::default()).unwrap();
        assert_eq!(report.remaining_dirty, 0);
        assert!(report.repairs_applied >= 2);
        assert!(state.dirty_tuples().is_empty());
        // The typo repair picks the constant from the rule.
        assert_eq!(state.table().cell(0, 2), &Value::from("Michigan City"));
        assert!(state.invariants_hold());
    }

    #[test]
    fn heuristic_can_choose_the_wrong_value() {
        // ZIP 46360 with CT Westville: the highest-similarity repair is to
        // change the ZIP to the 46391 carried by the other Westville tuple
        // (distance 2) rather than the city (distance 9) — plausible,
        // automatic, and potentially wrong.  This is exactly the risk the
        // paper motivates GDR with.
        let mut state = state_with_rows(&[
            ["H1", "Main St", "Westville", "IN", "46360"],
            ["H3", "Colfax Ave", "Westville", "IN", "46391"],
        ]);
        run_heuristic_repair(&mut state, &HeuristicConfig::default()).unwrap();
        assert!(state.dirty_tuples().is_empty());
        let zip = state.table().cell(0, 4).clone();
        let city = state.table().cell(0, 2).clone();
        // Consistent either way, but the greedy choice keeps Westville.
        assert!(
            (zip == Value::from("46391") && city == Value::from("Westville"))
                || (zip == Value::from("46360") && city == Value::from("Michigan City"))
        );
        assert_eq!(zip, Value::from("46391"));
    }

    #[test]
    fn clean_database_requires_no_passes() {
        let mut state = state_with_rows(&[["H1", "Main St", "Michigan City", "IN", "46360"]]);
        let report = run_heuristic_repair(&mut state, &HeuristicConfig::default()).unwrap();
        assert_eq!(report.passes, 0);
        assert_eq!(report.repairs_applied, 0);
        assert_eq!(report.remaining_dirty, 0);
    }

    #[test]
    fn min_score_threshold_blocks_low_confidence_repairs() {
        let mut state = state_with_rows(&[["H1", "Main St", "Totally Different", "IN", "46360"]]);
        let config = HeuristicConfig {
            min_score: 0.99,
            ..HeuristicConfig::default()
        };
        let report = run_heuristic_repair(&mut state, &config).unwrap();
        assert_eq!(report.repairs_applied, 0);
        assert_eq!(report.remaining_dirty, 1);
    }

    #[test]
    fn pass_budget_bounds_work() {
        let mut state = state_with_rows(&[
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46805"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
            ["H3", "Coliseum Blvd", "Fort Wayne", "IN", "46111"],
        ]);
        let config = HeuristicConfig {
            max_passes: 1,
            ..HeuristicConfig::default()
        };
        let report = run_heuristic_repair(&mut state, &config).unwrap();
        assert!(report.passes <= 1);
    }
}
