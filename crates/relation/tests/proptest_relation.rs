//! Property-based tests for the relational substrate.

use gdr_relation::csv::{parse_csv, to_csv};
use gdr_relation::{AttrSetIndex, Schema, Table, Value};
use proptest::prelude::*;

/// Strategy producing CSV-safe-and-unsafe field content alike.
fn field_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}",
        "[a-zA-Z0-9,\"\n ]{0,12}",
        Just(String::new()),
    ]
}

fn table_strategy(max_rows: usize) -> impl Strategy<Value = Table> {
    (2usize..5, 0usize..=max_rows).prop_flat_map(|(arity, rows)| {
        let names: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        proptest::collection::vec(proptest::collection::vec(field_strategy(), arity), rows)
            .prop_map(move |rows| {
                let schema = Schema::new(&names);
                let mut table = Table::new("prop", schema);
                for row in rows {
                    table.push_text_row(&row).unwrap();
                }
                table
            })
    })
}

proptest! {
    /// CSV serialisation followed by parsing yields the identical table.
    #[test]
    fn csv_round_trip(table in table_strategy(40)) {
        let text = to_csv(&table);
        let parsed = parse_csv("prop", &text).unwrap();
        prop_assert_eq!(table.len(), parsed.len());
        for (id, tuple) in table.iter() {
            for attr in table.schema().attr_ids() {
                prop_assert_eq!(tuple.value(attr), parsed.cell(id, attr));
            }
        }
    }

    /// Every tuple appears in exactly one group of an attribute-set index and
    /// the groups partition the tuple ids: the groups of the distinct
    /// projections are disjoint, cover every tuple, and hold only tuples
    /// that agree on the indexed attributes.
    #[test]
    fn attr_set_index_partitions_table(table in table_strategy(40)) {
        let attrs: Vec<usize> = table.schema().attr_ids().take(2).collect();
        let index = AttrSetIndex::build(&table, &attrs);
        let mut keys: Vec<_> = table.tuple_ids().map(|id| table.project_key(id, &attrs)).collect();
        keys.sort();
        keys.dedup();
        let mut seen = vec![false; table.len()];
        for key in &keys {
            let members = index.get_key(key);
            prop_assert!(!members.is_empty(), "a projection with no group");
            for &id in members {
                prop_assert!(!seen[id], "tuple {id} in two groups");
                seen[id] = true;
                // Members of a group agree on the indexed attributes.
                prop_assert_eq!(&table.project_key(id, &attrs), key);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// `set_cell` changes exactly the targeted cell.
    #[test]
    fn set_cell_is_local(
        table in table_strategy(20),
        row_sel in 0usize..20,
        attr_sel in 0usize..5,
        new_value in "[a-z]{1,6}",
    ) {
        if table.is_empty() { return Ok(()); }
        let row = row_sel % table.len();
        let attr = attr_sel % table.schema().arity();
        let before = table.clone();
        let mut after = table;
        after.set_cell(row, attr, Value::from(new_value.as_str())).unwrap();
        for (id, tuple) in before.iter() {
            for a in before.schema().attr_ids() {
                if id == row && a == attr {
                    prop_assert_eq!(after.cell(id, a), &Value::from(new_value.as_str()));
                } else {
                    prop_assert_eq!(after.cell(id, a), tuple.value(a));
                }
            }
        }
    }

    /// `diff_cells` of a table against a snapshot lists exactly the edited cells.
    #[test]
    fn diff_cells_matches_edits(
        table in table_strategy(20),
        edits in proptest::collection::vec((0usize..20, 0usize..5), 0..8),
    ) {
        if table.is_empty() { return Ok(()); }
        let clean = table.clone();
        let mut dirty = table;
        let mut touched = std::collections::BTreeSet::new();
        for (r, a) in edits {
            let row = r % dirty.len();
            let attr = a % dirty.schema().arity();
            // Write a sentinel value guaranteed to differ from any generated field.
            dirty.set_cell(row, attr, Value::from("#EDITED#")).unwrap();
            touched.insert((row, attr));
        }
        let mut diffs = dirty.diff_cells(&clean).unwrap();
        diffs.sort();
        let expected: Vec<(usize, usize)> = touched.into_iter().collect();
        prop_assert_eq!(diffs, expected);
    }
}
