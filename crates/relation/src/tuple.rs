//! Tuples: owned rows (construction boundary) and borrowed row views.
//!
//! With columnar storage there is no materialised row inside a
//! [`crate::Table`]; reads go through the lightweight [`TupleRef`] view
//! (a `(table, row)` pair) that decodes values on demand and exposes the
//! interned ids for hot paths.  The owned [`Tuple`] is convenient for
//! table-free unit tests.  Code that must accept either implements over the
//! [`Row`] trait.

use std::fmt;

use crate::intern::{SmallKey, ValueId};
use crate::schema::AttrId;
use crate::table::{Table, TupleId};
use crate::value::Value;

/// Read access to a row's values by attribute — implemented by the owned
/// [`Tuple`] and the borrowed [`TupleRef`], so rule/pattern matching can be
/// written once for both.
pub trait Row {
    /// Value of attribute `attr`.
    fn value(&self, attr: AttrId) -> &Value;

    /// Number of values in the row.
    fn arity(&self) -> usize;
}

/// An owned row of values.
///
/// The GDR paper (Definition 1) allows scaling a tuple's violations by a
/// weight "denoting its importance for the business to be clean".  This
/// reproduction does not model that weight: every tuple weighs 1, and only
/// the rule weights `w_i` of Eq. 3 scale the loss.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    /// Number of values in the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value of attribute `attr`.
    ///
    /// # Panics
    /// Panics when `attr` is out of bounds; bounds are checked at the
    /// [`crate::Table`] API boundary.
    pub fn value(&self, attr: AttrId) -> &Value {
        &self.values[attr]
    }

    /// All values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projects the tuple onto the given attributes, cloning the values.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.values[a].clone()).collect()
    }

    /// Returns `true` when the tuples agree (are equal) on every attribute in
    /// `attrs`.
    pub fn agrees_with(&self, other: &Tuple, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|&a| self.values[a] == other.values[a])
    }
}

impl Row for Tuple {
    fn value(&self, attr: AttrId) -> &Value {
        Tuple::value(self, attr)
    }

    fn arity(&self) -> usize {
        Tuple::arity(self)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A borrowed view of one row of a [`Table`].
///
/// Copyable and allocation-free: reads decode through the table's
/// per-attribute dictionaries, and id-level accessors ([`TupleRef::value_id`],
/// [`TupleRef::project_key`], [`TupleRef::agrees_with`]) never touch a
/// [`Value`] at all.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    table: &'a Table,
    id: TupleId,
}

impl<'a> TupleRef<'a> {
    /// Builds a view; callers go through [`Table::tuple`] / [`Table::iter`].
    pub(crate) fn new(table: &'a Table, id: TupleId) -> TupleRef<'a> {
        TupleRef { table, id }
    }

    /// The row's id in its table.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// Number of values in the row.
    pub fn arity(&self) -> usize {
        self.table.schema().arity()
    }

    /// Value of attribute `attr`, decoded through the dictionary.
    ///
    /// The returned reference borrows the *table* (not this view), so it
    /// outlives the `TupleRef` copy it was read through.
    pub fn value(&self, attr: AttrId) -> &'a Value {
        self.table.cell(self.id, attr)
    }

    /// Interned id of attribute `attr` (no decoding).
    #[inline]
    pub fn value_id(&self, attr: AttrId) -> ValueId {
        self.table.cell_id(self.id, attr)
    }

    /// Iterates the row's values in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + use<'a> {
        let table = self.table;
        let id = self.id;
        (0..table.schema().arity()).map(move |attr| table.cell(id, attr))
    }

    /// Projects the row onto the given attributes, cloning the values.
    /// Boundary convenience — hot paths use [`TupleRef::project_key`].
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.value(a).clone()).collect()
    }

    /// Projects the row onto the given attributes as an inline id key.
    pub fn project_key(&self, attrs: &[AttrId]) -> SmallKey {
        self.table.project_key(self.id, attrs)
    }

    /// Returns `true` when the rows agree on every attribute in `attrs`.
    ///
    /// Rows of the *same table* compare interned ids (integer equality);
    /// rows of different tables fall back to value comparison.
    pub fn agrees_with(&self, other: &TupleRef<'_>, attrs: &[AttrId]) -> bool {
        if std::ptr::eq(self.table, other.table) {
            attrs.iter().all(|&a| self.value_id(a) == other.value_id(a))
        } else {
            attrs.iter().all(|&a| self.value(a) == other.value(a))
        }
    }
}

impl Row for TupleRef<'_> {
    fn value(&self, attr: AttrId) -> &Value {
        TupleRef::value(self, attr)
    }

    fn arity(&self) -> usize {
        TupleRef::arity(self)
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

    fn tuple(values: &[&str]) -> Tuple {
        Tuple::new(values.iter().map(|v| Value::from(*v)).collect())
    }

    fn table() -> Table {
        let schema = Schema::new(&["STR", "CT", "ZIP"]);
        let mut t = Table::new("addr", schema);
        t.push_text_row(&["Main St", "Westville", "46391"]).unwrap();
        t.push_text_row(&["Main St", "Westville", "46360"]).unwrap();
        t
    }

    #[test]
    fn construction_and_access() {
        let t = tuple(&["Jim", "H2", "Colfax Ave", "Westville", "IN", "46360"]);
        assert_eq!(t.arity(), 6);
        assert_eq!(t.value(3), &Value::from("Westville"));
    }

    #[test]
    fn project_clones_selected_attributes() {
        let t = tuple(&["a", "b", "c"]);
        assert_eq!(t.project(&[2, 0]), vec![Value::from("c"), Value::from("a")]);
        assert!(t.project(&[]).is_empty());
    }

    #[test]
    fn agreement_on_attribute_sets() {
        let t1 = tuple(&["x", "same", "1"]);
        let t2 = tuple(&["y", "same", "2"]);
        assert!(t1.agrees_with(&t2, &[1]));
        assert!(!t1.agrees_with(&t2, &[0, 1]));
        assert!(t1.agrees_with(&t2, &[]));
    }

    #[test]
    fn display_renders_values() {
        let t = Tuple::new(vec![Value::from("a"), Value::Null, Value::Int(3)]);
        assert_eq!(t.to_string(), "(a, , 3)");
    }

    #[test]
    fn from_vec() {
        let t: Tuple = vec![Value::Int(1)].into();
        assert_eq!(t.arity(), 1);
    }

    #[test]
    fn tuple_ref_reads_and_ids() {
        let table = table();
        let t0 = table.tuple(0);
        let t1 = table.tuple(1);
        assert_eq!(t0.id(), 0);
        assert_eq!(t0.arity(), 3);
        assert_eq!(t0.value(1).as_str(), Some("Westville"));
        assert_eq!(t0.value_id(1), t1.value_id(1));
        assert_ne!(t0.value_id(2), t1.value_id(2));
        assert_eq!(t0.to_string(), "(Main St, Westville, 46391)");
        assert_eq!(t0.iter().count(), 3);
    }

    #[test]
    fn tuple_ref_agreement_uses_ids_within_a_table() {
        let table = table();
        let (t0, t1) = (table.tuple(0), table.tuple(1));
        assert!(t0.agrees_with(&t1, &[0, 1]));
        assert!(!t0.agrees_with(&t1, &[2]));

        // Cross-table agreement falls back to value equality.
        let other = {
            let schema = Schema::new(&["STR", "CT", "ZIP"]);
            let mut t = Table::new("other", schema);
            t.push_text_row(&["Main St", "Westville", "46391"]).unwrap();
            t
        };
        assert!(table.tuple(0).agrees_with(&other.tuple(0), &[0, 1, 2]));
    }

    #[test]
    fn row_trait_is_object_agnostic() {
        fn first_value<R: Row>(row: &R) -> &Value {
            row.value(0)
        }
        let owned = tuple(&["a", "b"]);
        assert_eq!(first_value(&owned), &Value::from("a"));
        let table = table();
        let view = table.tuple(0);
        assert_eq!(first_value(&view), &Value::from("Main St"));
        assert_eq!(Row::arity(&view), 3);
        assert_eq!(Row::arity(&owned), 2);
    }
}
