//! Tables: interned, columnar storage behind a row-oriented API.
//!
//! A [`Table`] stores one `Column` per attribute: a dense `Vec<ValueId>`
//! of per-row ids plus the attribute's [`ValueInterner`] dictionary.  Rows
//! are addressed by a stable [`TupleId`] and read through [`TupleRef`]
//! views.
//! See the crate-level docs for the full design rationale and invariants.

use std::fmt;

use crate::codec::{self, CodecError, Dec, Enc, State};
use crate::error::RelationError;
use crate::intern::{SmallKey, ValueId, ValueInterner};
use crate::schema::{AttrId, Schema};
use crate::tuple::TupleRef;
use crate::value::Value;
use crate::Result;

/// Stable identifier of a tuple within a [`Table`].
///
/// Tuple ids are positions in insertion order.  Tables never remove rows —
/// data repair only modifies cell values — so a `TupleId` held by the repair
/// machinery remains valid for the lifetime of the table.
pub type TupleId = usize;

/// One attribute's storage: per-row ids and the dictionary.  The
/// dictionary is append-only, so it may hold values no row holds any more.
#[derive(Debug, Clone, Default)]
struct Column {
    ids: Vec<ValueId>,
    dict: ValueInterner,
}

/// An in-memory relation instance with interned, columnar storage.
///
/// Cell updates go through [`Table::set_cell`] / [`Table::set_cell_id`].
/// Structures derived from the rows (violation groups, agreement indices)
/// are kept current by the owner that routes each write.  The dictionaries
/// expose [`Table::dict_generation`], which moves only when a *new distinct
/// value* enters some column — the trigger for re-resolving cached
/// constant → id bindings.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let columns = (0..schema.arity()).map(|_| Column::default()).collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Creates an empty table and pre-allocates room for `capacity` rows.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, capacity: usize) -> Table {
        let columns = (0..schema.arity())
            .map(|_| Column {
                ids: Vec::with_capacity(capacity),
                dict: ValueInterner::new(),
            })
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Sum of the per-attribute dictionary generations: moves exactly when a
    /// new distinct value enters some column.  Caches holding resolved
    /// `Value → ValueId` bindings re-resolve when this moves.
    pub fn dict_generation(&self) -> u64 {
        self.columns.iter().map(|c| c.dict.generation()).sum()
    }

    /// Appends a row given as raw values, validating arity.  Returns its id.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<TupleId> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                got: values.len(),
                expected: self.schema.arity(),
            });
        }
        let id = self.rows;
        for (column, value) in self.columns.iter_mut().zip(values) {
            let vid = column.dict.intern(value);
            column.ids.push(vid);
        }
        self.rows += 1;
        Ok(id)
    }

    /// Appends a row of text fields (empty fields become `Null`).
    pub fn push_text_row<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<TupleId> {
        let values = fields
            .iter()
            .map(|f| Value::from_text(f.as_ref()))
            .collect();
        self.push_row(values)
    }

    /// Returns a single cell value (decoded through the dictionary).
    pub fn cell(&self, id: TupleId, attr: AttrId) -> &Value {
        let column = &self.columns[attr];
        column.dict.value(column.ids[id])
    }

    /// Returns a single cell's interned id.
    #[inline]
    pub fn cell_id(&self, id: TupleId, attr: AttrId) -> ValueId {
        self.columns[attr].ids[id]
    }

    /// Fallible cell lookup (checks both tuple id and attribute id).
    pub fn try_cell(&self, id: TupleId, attr: AttrId) -> Result<&Value> {
        if id >= self.len() {
            return Err(RelationError::UnknownTuple { tuple: id });
        }
        if attr >= self.schema.arity() {
            return Err(RelationError::AttributeOutOfBounds {
                index: attr,
                arity: self.schema.arity(),
            });
        }
        Ok(self.cell(id, attr))
    }

    /// Overwrites a single cell, returning the previous value.
    ///
    /// The previous value is decoded (cloned) from the dictionary; hot paths
    /// that only need to restore it later should use [`Table::set_cell_id`],
    /// which moves ids without touching any [`Value`].
    pub fn set_cell(&mut self, id: TupleId, attr: AttrId, value: Value) -> Result<Value> {
        if id >= self.len() {
            return Err(RelationError::UnknownTuple { tuple: id });
        }
        if attr >= self.schema.arity() {
            return Err(RelationError::AttributeOutOfBounds {
                index: attr,
                arity: self.schema.arity(),
            });
        }
        let column = &mut self.columns[attr];
        let vid = column.dict.intern(value);
        let old = std::mem::replace(&mut column.ids[id], vid);
        Ok(column.dict.value(old).clone())
    }

    /// Overwrites a single cell by interned id, returning the previous id.
    /// No [`Value`] is hashed, cloned, or decoded.
    ///
    /// # Panics
    /// Panics when `new` did not come from this table's dictionary for
    /// `attr` (debug builds), or when `id`/`attr` are out of bounds.
    pub fn set_cell_id(&mut self, id: TupleId, attr: AttrId, new: ValueId) -> ValueId {
        debug_assert!(new.index() < self.columns[attr].dict.len());
        std::mem::replace(&mut self.columns[attr].ids[id], new)
    }

    /// Interns a value into an attribute's dictionary without touching any
    /// row, returning its id.  Used to resolve externally supplied values
    /// (candidate updates, prevented values) into id space once.
    pub fn intern_value(&mut self, attr: AttrId, value: Value) -> ValueId {
        self.columns[attr].dict.intern(value)
    }

    /// [`Table::intern_value`] by reference: clones only for new values.
    pub fn intern_value_ref(&mut self, attr: AttrId, value: &Value) -> ValueId {
        self.columns[attr].dict.intern_ref(value)
    }

    /// Looks up the id of a value in an attribute's dictionary, without
    /// inserting.  `None` means the value never occurred in the column (and
    /// therefore equals no cell).
    #[inline]
    pub fn lookup_id(&self, attr: AttrId, value: &Value) -> Option<ValueId> {
        self.columns[attr].dict.lookup(value)
    }

    /// Decodes an attribute-local id back to its value.
    #[inline]
    pub fn id_value(&self, attr: AttrId, id: ValueId) -> &Value {
        self.columns[attr].dict.value(id)
    }

    /// Projects a row onto `attrs` as an inline id key (no allocation for
    /// up to 4 attributes) — the violation engine's group key.
    pub fn project_key(&self, id: TupleId, attrs: &[AttrId]) -> SmallKey {
        SmallKey::collect(attrs.iter().map(|&attr| self.columns[attr].ids[id]))
    }

    /// [`Table::project_key`] with `value_id` substituted wherever `attr`
    /// appears in `attrs`.  Index maintainers use this to reconstruct the key
    /// a row projected to *before* a cell write, from the previous id the
    /// write returned.
    pub fn project_key_with(
        &self,
        id: TupleId,
        attrs: &[AttrId],
        attr: AttrId,
        value_id: ValueId,
    ) -> SmallKey {
        SmallKey::collect(attrs.iter().map(|&a| {
            if a == attr {
                value_id
            } else {
                self.columns[a].ids[id]
            }
        }))
    }

    /// Iterates `(TupleId, TupleRef)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, TupleRef<'_>)> {
        (0..self.len()).map(move |id| (id, TupleRef::new(self, id)))
    }

    /// Iterates all tuple ids.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> {
        0..self.len()
    }

    /// Deep-copies the table under a new name.  Used to snapshot the dirty
    /// instance before a repair session so that quality loss can be measured
    /// against the original.
    pub fn snapshot(&self, name: impl Into<String>) -> Table {
        Table {
            name: name.into(),
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
        }
    }

    /// Counts the cells on which two instances of the same schema differ.
    ///
    /// This is the raw ingredient of the precision/recall metrics in the
    /// paper's Appendix B.1.
    pub fn diff_cells(&self, other: &Table) -> Result<Vec<(TupleId, AttrId)>> {
        self.schema.ensure_same_as(&other.schema)?;
        if self.len() != other.len() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "cannot diff tables with {} and {} rows",
                    self.len(),
                    other.len()
                ),
            });
        }
        let mut diffs = Vec::new();
        for attr in self.schema.attr_ids() {
            for id in 0..self.len() {
                if self.cell(id, attr) != other.cell(id, attr) {
                    diffs.push((id, attr));
                }
            }
        }
        diffs.sort_unstable();
        Ok(diffs)
    }
}

/// The table's canonical state: name, schema, row count, then per column its
/// dictionary and id column.  Decoding checks every id against its
/// dictionary.
impl State for Table {
    const MIN_BYTES: usize = codec::section_bytes("table", 2)
        + String::MIN_BYTES
        + Vec::<String>::MIN_BYTES
        + usize::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("table", 2);
        enc.put(&self.name);
        enc.usize(self.schema.arity());
        for attr in self.schema.attributes() {
            enc.put(&attr.name);
        }
        enc.usize(self.rows);
        // Every column holds one id per row: no length prefix.
        for column in &self.columns {
            enc.put(&column.dict);
            enc.fixed(&column.ids);
        }
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<Table> {
        dec.section("table", 2)?;
        let name = dec.get()?;
        let names: Vec<String> = dec.get()?;
        if names.len() != names.iter().collect::<std::collections::HashSet<_>>().len() {
            return Err(CodecError::new("schema payload repeats an attribute name"));
        }
        let schema = Schema::new(&names);
        // Every row takes at least one byte per column, so the payload
        // bounds the count; with no columns nothing would, and such a table
        // holds no rows.
        let rows = dec.usize()?;
        if names.is_empty() && rows > 0 {
            return Err(CodecError::new(format!(
                "a table with no columns claims {rows} rows"
            )));
        }
        let mut columns = Vec::with_capacity(names.len());
        for attr in 0..names.len() {
            let dict: ValueInterner = dec.get()?;
            let ids: Vec<ValueId> = dec.fixed(rows)?;
            if let Some(id) = ids.iter().find(|id| id.index() >= dict.len()) {
                return Err(CodecError::new(format!(
                    "column {attr} references id {} outside its {}-entry dictionary",
                    id.index(),
                    dict.len()
                )));
            }
            columns.push(Column { ids, dict });
        }
        Ok(Table {
            name,
            schema,
            columns,
            rows,
        })
    }
}

/// Logical equality: same name, schema, and cell values.  Interned
/// ids are representation details and deliberately not compared — two tables
/// whose dictionaries grew in different orders can still be equal.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.rows == other.rows
            && self
                .schema
                .attr_ids()
                .all(|attr| (0..self.len()).all(|id| self.cell(id, attr) == other.cell(id, attr)))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} [{} rows]", self.name, self.schema, self.len())?;
        for (id, tuple) in self.iter().take(20) {
            writeln!(f, "  t{id}: {tuple}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more rows)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        let schema = Schema::new(&["CT", "ZIP"]);
        let mut table = Table::new("addr", schema);
        table.push_text_row(&["Michigan City", "46360"]).unwrap();
        table.push_text_row(&["Westville", "46391"]).unwrap();
        table.push_text_row(&["Westville", "46360"]).unwrap();
        table
    }

    #[test]
    fn push_and_read_rows() {
        let table = small_table();
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        assert_eq!(table.cell(0, 1), &Value::from("46360"));
        assert_eq!(table.cell(2, 0), &Value::from("Westville"));
        assert_eq!(table.name(), "addr");
    }

    #[test]
    fn arity_is_validated() {
        let mut table = small_table();
        let err = table.push_text_row(&["only one"]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                got: 1,
                expected: 2
            }
        ));
        let err = table.push_row(vec![Value::Null; 3]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                got: 3,
                expected: 2
            }
        ));
    }

    #[test]
    fn set_cell_updates_value_and_version() {
        let mut table = small_table();
        let old = table.set_cell(2, 0, Value::from("Michigan City")).unwrap();
        assert_eq!(old, Value::from("Westville"));
        assert_eq!(table.cell(2, 0), &Value::from("Michigan City"));
    }

    #[test]
    fn set_cell_bounds_checked() {
        let mut table = small_table();
        assert!(matches!(
            table.set_cell(99, 0, Value::Null),
            Err(RelationError::UnknownTuple { tuple: 99 })
        ));
        assert!(matches!(
            table.set_cell(0, 9, Value::Null),
            Err(RelationError::AttributeOutOfBounds { index: 9, .. })
        ));
    }

    #[test]
    fn try_cell_checks_both_dimensions() {
        let table = small_table();
        assert!(table.try_cell(0, 0).is_ok());
        assert!(table.try_cell(10, 0).is_err());
        assert!(table.try_cell(0, 10).is_err());
    }

    #[test]
    fn snapshot_is_independent() {
        let mut table = small_table();
        let snap = table.snapshot("clean");
        table.set_cell(0, 0, Value::from("X")).unwrap();
        assert_eq!(snap.cell(0, 0), &Value::from("Michigan City"));
        assert_eq!(snap.name(), "clean");
        assert_eq!(snap.len(), table.len());
    }

    #[test]
    fn diff_cells_finds_changed_positions() {
        let mut dirty = small_table();
        let clean = dirty.snapshot("clean");
        dirty.set_cell(1, 0, Value::from("Fort Wayne")).unwrap();
        dirty.set_cell(2, 1, Value::from("46825")).unwrap();
        let mut diffs = dirty.diff_cells(&clean).unwrap();
        diffs.sort();
        assert_eq!(diffs, vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn diff_cells_rejects_mismatched_tables() {
        let table = small_table();
        let other_schema = Table::new("x", Schema::new(&["A", "B"]));
        assert!(table.diff_cells(&other_schema).is_err());
        let mut shorter = Table::new("y", Schema::new(&["CT", "ZIP"]));
        shorter.push_text_row(&["a", "b"]).unwrap();
        assert!(table.diff_cells(&shorter).is_err());
    }

    #[test]
    fn display_contains_name_and_rows() {
        let table = small_table();
        let text = table.to_string();
        assert!(text.contains("addr"));
        assert!(text.contains("t0"));
    }

    #[test]
    fn tuple_ids_cover_all_rows() {
        let table = small_table();
        assert_eq!(table.tuple_ids().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn interned_ids_round_trip_cells() {
        let mut table = small_table();
        // Equal cell values share an id within a column.
        assert_eq!(table.cell_id(1, 0), table.cell_id(2, 0));
        assert_ne!(table.cell_id(0, 0), table.cell_id(1, 0));
        // set_cell_id moves ids without decoding values.
        let westville = table.lookup_id(0, &Value::from("Westville")).unwrap();
        let old = table.set_cell_id(0, 0, westville);
        assert_eq!(table.id_value(0, old), &Value::from("Michigan City"));
        assert_eq!(table.cell(0, 0), &Value::from("Westville"));
        assert!((0..3).all(|row| table.cell_id(row, 0) == westville));
    }

    #[test]
    fn project_key_is_stable_under_equality() {
        let table = small_table();
        let a = table.project_key(1, &[0, 1]);
        let b = table.project_key(1, &[0, 1]);
        assert_eq!(a, b);
        let c = table.project_key(2, &[0, 1]);
        assert_ne!(a, c); // same city, different zip
        assert_eq!(
            table.project_key(1, &[0]).as_slice(),
            table.project_key(2, &[0]).as_slice()
        );
    }

    #[test]
    fn dict_generation_moves_on_new_values_only() {
        let mut table = small_table();
        let g0 = table.dict_generation();
        table.set_cell(0, 0, Value::from("Westville")).unwrap(); // existing value
        assert_eq!(table.dict_generation(), g0);
        table.set_cell(0, 0, Value::from("Fort Wayne")).unwrap(); // new value
        assert!(table.dict_generation() > g0);
    }

    #[test]
    fn codec_round_trip_is_bit_identical() {
        let mut table = small_table();
        table.set_cell(0, 0, Value::from("Westville")).unwrap(); // dead dict entry
        let mut enc = crate::codec::Enc::new();
        table.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Dec::new(&bytes);
        let restored = Table::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, table);
        assert_eq!(restored.dict_generation(), table.dict_generation());
        // Ids and dictionaries, dead entries included, survive unchanged.
        assert_eq!(crate::codec::encode_to_vec(&restored), bytes);
    }

    #[test]
    fn codec_rejects_corrupt_payloads() {
        let table = small_table();
        let mut enc = crate::codec::Enc::new();
        table.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = crate::codec::Dec::new(&bytes[..cut]);
            assert!(Table::decode_state(&mut dec).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn codec_refuses_rows_without_columns() {
        // Only the column ids bound a row count by the payload; a table with
        // no columns that claims rows errs before anything is sized from it.
        let mut enc = crate::codec::Enc::new();
        enc.section("table", 2);
        enc.put(&String::from("t"));
        enc.put(&Vec::<String>::new());
        enc.u64(1 << 40);
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Dec::new(&bytes);
        let err = Table::decode_state(&mut dec).unwrap_err();
        assert!(err.detail.contains("no columns"), "{err}");

        // The empty zero-column table still round-trips.
        let empty = Table::new("t", Schema::new::<&str>(&[]));
        let bytes = crate::codec::encode_to_vec(&empty);
        assert_eq!(crate::codec::decode_exact::<Table>(&bytes).unwrap(), empty);
    }

    #[test]
    fn logical_equality_ignores_id_representation() {
        // Same logical content, different interning orders.
        let schema = Schema::new(&["A"]);
        let mut a = Table::new("t", schema.clone());
        a.push_text_row(&["x"]).unwrap();
        a.push_text_row(&["y"]).unwrap();
        let mut b = Table::new("t", schema);
        b.push_text_row(&["y"]).unwrap();
        b.push_text_row(&["x"]).unwrap();
        b.set_cell(0, 0, Value::from("x")).unwrap();
        b.set_cell(1, 0, Value::from("y")).unwrap();
        assert_ne!(a.cell_id(0, 0), b.cell_id(0, 0));
        assert_eq!(a, b);
    }
}
