//! Borrowed row views.
//!
//! With columnar storage there is no materialised row inside a
//! [`crate::Table`]; reads go through the lightweight [`TupleRef`] view
//! (a `(table, row)` pair) that decodes values on demand.

use std::fmt;

use crate::schema::AttrId;
use crate::table::{Table, TupleId};
use crate::value::Value;

/// A borrowed view of one row of a [`Table`].
///
/// Copyable and allocation-free: reads decode through the table's
/// per-attribute dictionaries.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    table: &'a Table,
    id: TupleId,
}

impl<'a> TupleRef<'a> {
    /// Builds a view; callers go through [`Table::iter`].
    pub(crate) fn new(table: &'a Table, id: TupleId) -> TupleRef<'a> {
        TupleRef { table, id }
    }

    /// Value of attribute `attr`, decoded through the dictionary.
    ///
    /// The returned reference borrows the *table* (not this view), so it
    /// outlives the `TupleRef` copy it was read through.
    pub fn value(&self, attr: AttrId) -> &'a Value {
        self.table.cell(self.id, attr)
    }

    /// Iterates the row's values in schema order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Value> + use<'a> {
        let table = self.table;
        let id = self.id;
        (0..table.schema().arity()).map(move |attr| table.cell(id, attr))
    }

    /// Projects the row onto the given attributes, cloning the values.
    /// Boundary convenience — hot paths use [`Table::project_key`].
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.value(a).clone()).collect()
    }
}

impl fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleRef")
            .field("id", &self.id)
            .field("values", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table() -> Table {
        let schema = Schema::new(&["STR", "CT", "ZIP"]);
        let mut t = Table::new("addr", schema);
        t.push_text_row(&["Main St", "Westville", "46391"]).unwrap();
        t.push_text_row(&["Main St", "Westville", "46360"]).unwrap();
        t
    }

    #[test]
    fn construction_and_access() {
        let schema = Schema::new(&["NAME", "AC", "STR", "CT", "ST", "ZIP"]);
        let mut table = Table::new("customer", schema);
        table
            .push_text_row(&["Jim", "H2", "Colfax Ave", "Westville", "IN", "46360"])
            .unwrap();
        let (_, t) = table.iter().next().unwrap();
        assert_eq!(t.value(3), &Value::from("Westville"));
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn project_clones_selected_attributes() {
        let table = table();
        let (_, t) = table.iter().next().unwrap();
        assert_eq!(
            t.project(&[2, 0]),
            vec![Value::from("46391"), Value::from("Main St")]
        );
        assert!(t.project(&[]).is_empty());
    }

    #[test]
    fn agreement_on_attribute_sets() {
        let schema = Schema::new(&["ID", "CT", "ZIP"]);
        let mut table = Table::new("t", schema);
        table.push_text_row(&["x", "same", "1"]).unwrap();
        table.push_text_row(&["y", "same", "2"]).unwrap();
        let rows: Vec<_> = table.iter().map(|(_, t)| t).collect();
        assert_eq!(rows[0].project(&[1]), rows[1].project(&[1]));
        assert_ne!(rows[0].project(&[0, 1]), rows[1].project(&[0, 1]));
        assert_eq!(rows[0].project(&[]), rows[1].project(&[]));
    }

    #[test]
    fn display_renders_values() {
        let mut table = Table::new("t", Schema::new(&["A", "B", "C"]));
        table
            .push_row(vec![Value::from("a"), Value::Null, Value::Int(3)])
            .unwrap();
        let (_, t) = table.iter().next().unwrap();
        assert_eq!(t.to_string(), "(a, , 3)");
    }

    #[test]
    fn tuple_ref_reads_and_ids() {
        let table = table();
        let rows: Vec<_> = table.iter().collect();
        let (id0, t0) = rows[0];
        assert_eq!(id0, 0);
        assert_eq!(t0.value(1), &Value::from("Westville"));
        assert_eq!(t0.to_string(), "(Main St, Westville, 46391)");
        assert_eq!(t0.iter().count(), 3);
        assert_eq!(format!("{t0:?}").matches("Main St").count(), 1);
    }
}
