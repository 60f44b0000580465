//! Property-based tests for the interned columnar core: `Value ↔ ValueId`
//! round-trips for all three value types (including `Null`), dictionary
//! append-only semantics under arbitrary edit sequences, and agreement of
//! the id-level accessors with the value-level API.

use gdr_relation::{Schema, SmallKey, Table, Value, ValueId, ValueInterner};
use proptest::prelude::*;

/// Strategy over all three value types, `Null` included.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..50).prop_map(Value::Int),
        "[a-z]{0,5}".prop_map(|s| Value::from_text(&s)),
    ]
}

proptest! {
    /// Interning any sequence of values round-trips every one of them, and
    /// equal values always share an id while distinct values never do.
    #[test]
    fn interner_round_trips_arbitrary_values(
        values in proptest::collection::vec(value_strategy(), 0..60),
    ) {
        let mut dict = ValueInterner::new();
        let ids: Vec<ValueId> = values.iter().map(|v| dict.intern(v.clone())).collect();
        for (value, &id) in values.iter().zip(&ids) {
            prop_assert_eq!(dict.value(id), value);
            prop_assert_eq!(dict.lookup(value), Some(id));
        }
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b, "values {:?} vs {:?}", a, b);
            }
        }
        // The dictionary holds exactly the distinct values.
        let distinct: std::collections::HashSet<&Value> = values.iter().collect();
        prop_assert_eq!(dict.len(), distinct.len());
    }

    /// A table's id-level accessors always agree with its value-level API,
    /// across arbitrary pushes and cell edits.
    #[test]
    fn table_ids_agree_with_values(
        rows in proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 3),
            1..25,
        ),
        edits in proptest::collection::vec(
            (0usize..25, 0usize..3, value_strategy()),
            0..25,
        ),
    ) {
        let mut table = Table::new("prop", Schema::new(&["A", "B", "C"]));
        for row in rows {
            table.push_row(row).unwrap();
        }
        let mut generations = vec![table.dict_generation()];
        for (row, attr, value) in edits {
            let row = row % table.len();
            table.set_cell(row, attr, value).unwrap();
            generations.push(table.dict_generation());
        }
        // Generations are monotone (dictionaries are append-only).
        prop_assert!(generations.windows(2).all(|w| w[0] <= w[1]));

        for id in table.tuple_ids() {
            for attr in table.schema().attr_ids() {
                let vid = table.cell_id(id, attr);
                // Decode agrees with the value-level read.
                prop_assert_eq!(table.id_value(attr, vid), table.cell(id, attr));
                // And the dictionary can find the id again.
                prop_assert_eq!(table.lookup_id(attr, table.cell(id, attr)), Some(vid));
            }
        }
    }

    /// Project keys equal exactly when the projected values equal, for both
    /// inline and spilled key widths.
    #[test]
    fn project_keys_match_value_projections(
        rows in proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 6),
            2..20,
        ),
        width in 1usize..=6,
    ) {
        let schema = Schema::new(&["A", "B", "C", "D", "E", "F"]);
        let mut table = Table::new("prop", schema);
        for row in rows {
            table.push_row(row).unwrap();
        }
        let attrs: Vec<usize> = (0..width).collect();
        for a in table.tuple_ids() {
            for b in table.tuple_ids() {
                let keys_equal = table.project_key(a, &attrs) == table.project_key(b, &attrs);
                let values_equal = attrs.iter().all(|&x| table.cell(a, x) == table.cell(b, x));
                prop_assert_eq!(keys_equal, values_equal);
            }
        }
        // SmallKey stays inline up to 4 ids.
        let key = table.project_key(0, &attrs);
        if width <= 4 {
            prop_assert!(matches!(key, SmallKey::Inline { .. }));
        } else {
            prop_assert!(matches!(key, SmallKey::Spilled(_)));
        }
    }

    /// Snapshots and logical equality survive interleaved edits: a snapshot
    /// equals the original until the original changes, and re-applying the
    /// same values restores equality even though ids may differ.
    #[test]
    fn snapshot_equality_is_logical(
        base in proptest::collection::vec(value_strategy(), 4),
        replacement in value_strategy(),
    ) {
        let mut table = Table::new("prop", Schema::new(&["A", "B", "C", "D"]));
        table.push_row(base.clone()).unwrap();
        let snap = table.snapshot("prop");
        prop_assert_eq!(&snap, &table);

        let original = table.cell(0, 2).clone();
        table.set_cell(0, 2, replacement.clone()).unwrap();
        prop_assert_eq!(snap == table, replacement == original);

        table.set_cell(0, 2, original).unwrap();
        prop_assert_eq!(&snap, &table);
    }
}
