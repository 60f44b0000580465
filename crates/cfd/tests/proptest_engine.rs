//! Property-based tests for the incremental violation engine.
//!
//! The central invariant: no matter what sequence of single-cell changes is
//! applied through [`ViolationEngine::apply_cell_change`], the incrementally
//! maintained statistics must agree with a from-scratch rebuild.

use gdr_cfd::{parser, RuleSet, ViolationEngine};
use gdr_relation::{Schema, Table, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&["SRC", "STR", "CT", "ZIP"])
}

fn rules(schema: &Schema) -> RuleSet {
    RuleSet::new(
        parser::parse_rules(
            schema,
            "\
ZIP -> CT : 46360 || Michigan City
ZIP -> CT : 46825 || Fort Wayne
STR, CT -> ZIP : _, _ || _
CT -> ZIP
",
        )
        .unwrap(),
    )
}

/// Small value pools so collisions (and therefore violations) are common.
fn value_pool(attr: usize) -> Vec<&'static str> {
    match attr {
        0 => vec!["H1", "H2", "H3"],
        1 => vec!["Main St", "Coliseum Blvd", "Colfax Ave"],
        2 => vec!["Michigan City", "Fort Wayne", "Westville"],
        _ => vec!["46360", "46825", "46391", "46999"],
    }
}

fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0usize..3, 0usize..3, 0usize..3, 0usize..4), 1..40).prop_map(
        |rows| {
            let schema = schema();
            let mut table = Table::new("prop", schema);
            for (a, b, c, d) in rows {
                table
                    .push_text_row(&[
                        value_pool(0)[a],
                        value_pool(1)[b],
                        value_pool(2)[c],
                        value_pool(3)[d],
                    ])
                    .unwrap();
            }
            table
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental maintenance agrees with a rebuild after arbitrary edits.
    #[test]
    fn incremental_equals_rebuild(
        table in table_strategy(),
        edits in proptest::collection::vec((0usize..40, 0usize..4, 0usize..4), 0..25),
    ) {
        let mut table = table;
        let ruleset = rules(table.schema());
        let mut engine = ViolationEngine::build(&table, &ruleset);
        for (row, attr, val) in edits {
            let row = row % table.len();
            let pool = value_pool(attr);
            let value = Value::from(pool[val % pool.len()]);
            engine.apply_cell_change(&mut table, row, attr, value).unwrap();
            prop_assert!(engine.agrees_with_rebuild(&table));
        }
    }

    /// Edits that introduce brand-new values — growing the per-attribute
    /// dictionaries and forcing the engine's cached constant → id bindings
    /// to re-resolve — still agree with a from-scratch rebuild.
    #[test]
    fn incremental_equals_rebuild_with_novel_values(
        table in table_strategy(),
        edits in proptest::collection::vec((0usize..40, 0usize..4, 0usize..7), 0..25),
    ) {
        let mut table = table;
        let ruleset = rules(table.schema());
        let mut engine = ViolationEngine::build(&table, &ruleset);
        for (i, (row, attr, val)) in edits.into_iter().enumerate() {
            let row = row % table.len();
            let pool = value_pool(attr);
            let value = if val < pool.len() {
                Value::from(pool[val])
            } else {
                // A value never seen in any column (nor in any rule).
                Value::from(format!("novel-{attr}-{i}"))
            };
            engine.apply_cell_change(&mut table, row, attr, value).unwrap();
            prop_assert!(engine.agrees_with_rebuild(&table));
        }
    }

    /// What-if probes with brand-new values intern and revert cleanly.
    #[test]
    fn what_if_with_novel_values_is_pure(
        table in table_strategy(),
        probes in proptest::collection::vec((0usize..40, 0usize..4), 1..12),
    ) {
        let mut table = table;
        let ruleset = rules(table.schema());
        let mut engine = ViolationEngine::build(&table, &ruleset);
        let snapshot = table.clone();
        let before: Vec<_> = (0..ruleset.len()).map(|r| engine.rule_stats(r)).collect();
        for (i, (row, attr)) in probes.into_iter().enumerate() {
            let row = row % table.len();
            let value = Value::from(format!("fresh-{attr}-{i}"));
            engine.stats_if(&mut table, row, attr, &value).unwrap();
            prop_assert!(engine.agrees_with_rebuild(&table));
        }
        let after: Vec<_> = (0..ruleset.len()).map(|r| engine.rule_stats(r)).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(snapshot.diff_cells(&table).unwrap(), vec![]);
        prop_assert!(engine.agrees_with_rebuild(&table));
    }

    /// What-if evaluation never changes observable state.
    #[test]
    fn what_if_is_pure(
        table in table_strategy(),
        probes in proptest::collection::vec((0usize..40, 0usize..4, 0usize..4), 1..15),
    ) {
        let mut table = table;
        let ruleset = rules(table.schema());
        let mut engine = ViolationEngine::build(&table, &ruleset);
        let snapshot = table.clone();
        let before: Vec<_> = (0..ruleset.len()).map(|r| engine.rule_stats(r)).collect();
        for (row, attr, val) in probes {
            let row = row % table.len();
            let pool = value_pool(attr);
            let value = Value::from(pool[val % pool.len()]);
            engine.stats_if(&mut table, row, attr, &value).unwrap();
            prop_assert!(engine.agrees_with_rebuild(&table));
            for rule in engine.rules_involving(attr).to_vec() {
                engine.stats_if_rule_guarded(&mut table, row, attr, &value, rule).unwrap();
                prop_assert!(engine.agrees_with_rebuild(&table));
            }
        }
        let after: Vec<_> = (0..ruleset.len()).map(|r| engine.rule_stats(r)).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(snapshot.diff_cells(&table).unwrap(), vec![]);
    }

    /// For every rule, satisfying + violating tuples = total rows, and the
    /// per-tuple violation counts are consistent with the rule aggregate for
    /// constant rules.
    #[test]
    fn stats_are_internally_consistent(table in table_strategy()) {
        let ruleset = rules(table.schema());
        let engine = ViolationEngine::build(&table, &ruleset);
        for (rule_id, rule) in ruleset.iter() {
            let stats = engine.rule_stats(rule_id);
            let violating: Vec<usize> = (0..table.len())
                .filter(|&t| engine.tuple_violates(rule_id, t))
                .collect();
            prop_assert_eq!(stats.satisfying + violating.len(), table.len());
            if rule.is_constant() {
                let sum: usize = violating.iter().map(|&t| engine.vio_tuple(rule_id, t)).sum();
                prop_assert_eq!(sum, stats.violations);
            } else {
                // Pairwise counting: each violating tuple contributes the
                // number of partners it disagrees with.
                let sum: usize = violating.iter().map(|&t| engine.vio_tuple(rule_id, t)).sum();
                prop_assert_eq!(sum, stats.violations);
            }
            // Context can never be exceeded by constant-rule violations.
            if rule.is_constant() {
                prop_assert!(stats.violations <= stats.context);
            }
        }
    }

    /// Dirty tuples are exactly the tuples with a non-empty violated-rule list.
    #[test]
    fn dirty_tuples_match_violated_rules(table in table_strategy()) {
        let ruleset = rules(table.schema());
        let engine = ViolationEngine::build(&table, &ruleset);
        let dirty = engine.dirty_tuples();
        for tid in table.tuple_ids() {
            let has_violation = !engine.violated_rules(tid).is_empty();
            prop_assert_eq!(dirty.contains(&tid), has_violation);
        }
    }
}
