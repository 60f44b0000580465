//! Hash indices over table columns.
//!
//! Variable CFDs (standard FDs restricted by a pattern) are violated by
//! *pairs* of tuples that agree on the rule's left-hand side but disagree on
//! its right-hand side.  Detecting and counting such violations naively is
//! quadratic; the [`AttrSetIndex`] groups tuples by their left-hand-side
//! projection so agreement classes can be enumerated once.
//!
//! Both indices are built in **id space**: grouping hashes interned
//! [`crate::ValueId`]s, not values, so building touches no [`Value`] per row.
//! Value-keyed lookups remain available at the public boundary (one
//! dictionary translation per query).
//!
//! An [`AttrSetIndex`] can be used two ways:
//!
//! * as a **snapshot** — build, query, and rebuild when
//!   [`AttrSetIndex::is_stale`] reports the table moved on; or
//! * **incrementally maintained** — an owner that routes every table
//!   mutation through [`AttrSetIndex::note_cell_write`] /
//!   [`AttrSetIndex::note_new_tuple`] keeps the index current at O(group)
//!   cost per write instead of O(table) rebuilds.  Maintenance is entirely
//!   in id space: a write moves the tuple between at most two groups, and a
//!   value never seen before simply keys a fresh group (novel ids need no
//!   special handling because group keys are projections of interned ids,
//!   not values).  `is_stale` is meaningless in this mode — correctness is
//!   the owner's responsibility to notify *every* write; side-effect-free
//!   apply/revert round trips (what-if probes) may be skipped since they
//!   leave the projection of every row unchanged.
//!
//! The single-column [`ValueIndex`] maps each distinct value of one column
//! to the tuples holding it, used by example programs and the dataset
//! generators.

use std::collections::HashMap;

use crate::codec::{self, CodecError};
use crate::intern::{SmallKey, ValueId};
use crate::schema::AttrId;
use crate::table::{Table, TupleId};
use crate::value::Value;

/// An index that groups tuple ids by their projection on a fixed attribute
/// set.  Build once, then either rebuild on staleness (snapshot mode) or
/// feed every write through [`AttrSetIndex::note_cell_write`] (incremental
/// mode) — see the module docs.
#[derive(Debug, Clone)]
pub struct AttrSetIndex {
    attrs: Vec<AttrId>,
    groups: HashMap<SmallKey, Vec<TupleId>>,
    /// Decoded projection per distinct group key ever seen, for value-keyed
    /// lookups.  Entries outlive their group emptying (the mapping stays
    /// valid; an empty group just answers with no tuples).
    by_values: HashMap<Vec<Value>, SmallKey>,
    built_at_version: u64,
}

impl AttrSetIndex {
    /// Builds the index over the given attributes.
    pub fn build(table: &Table, attrs: &[AttrId]) -> AttrSetIndex {
        let mut groups: HashMap<SmallKey, Vec<TupleId>> = HashMap::new();
        for id in table.tuple_ids() {
            groups
                .entry(table.project_key(id, attrs))
                .or_default()
                .push(id);
        }
        let by_values = groups
            .keys()
            .map(|key| {
                let values: Vec<Value> = key
                    .as_slice()
                    .iter()
                    .zip(attrs)
                    .map(|(&vid, &attr)| table.id_value(attr, vid).clone())
                    .collect();
                (values, key.clone())
            })
            .collect();
        AttrSetIndex {
            attrs: attrs.to_vec(),
            groups,
            by_values,
            built_at_version: table.version(),
        }
    }

    /// The attributes the index is keyed on.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Returns the ids of tuples whose projection equals `key`.
    pub fn get(&self, key: &[Value]) -> &[TupleId] {
        self.by_values
            .get(key)
            .and_then(|k| self.groups.get(k))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Returns the ids of tuples whose projection equals the id key.
    pub fn get_key(&self, key: &SmallKey) -> &[TupleId] {
        self.groups.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Returns the group containing a specific tuple of the indexed table.
    pub fn group_of(&self, table: &Table, tuple: TupleId) -> &[TupleId] {
        self.get_key(&table.project_key(tuple, &self.attrs))
    }

    /// Iterates `(projection, member ids)` pairs (projections decoded).
    /// Keys whose group has emptied under incremental maintenance are
    /// skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<TupleId>)> {
        self.by_values
            .iter()
            .filter_map(|(values, key)| self.groups.get(key).map(|group| (values, group)))
    }

    /// Number of distinct projections with at least one member.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Registers a newly appended tuple with the index (incremental mode).
    pub fn note_new_tuple(&mut self, table: &Table, tuple: TupleId) {
        let key = table.project_key(tuple, &self.attrs);
        self.insert_member(table, key, tuple);
        self.built_at_version = table.version();
    }

    /// Updates the index after `table[tuple][attr]` was overwritten (the
    /// write has already happened; `old_id` is the id the cell held before).
    ///
    /// Cost is O(size of the group left) — the tuple is removed from its
    /// previous group and appended to its new one; attributes outside the
    /// indexed set are ignored outright.
    pub fn note_cell_write(
        &mut self,
        table: &Table,
        tuple: TupleId,
        attr: AttrId,
        old_id: ValueId,
    ) {
        if !self.attrs.contains(&attr) {
            self.built_at_version = table.version();
            return;
        }
        let old_key = table.project_key_with(tuple, &self.attrs, attr, old_id);
        let new_key = table.project_key(tuple, &self.attrs);
        if old_key != new_key {
            self.remove_member(&old_key, tuple);
            self.insert_member(table, new_key, tuple);
        }
        self.built_at_version = table.version();
    }

    fn insert_member(&mut self, table: &Table, key: SmallKey, tuple: TupleId) {
        let group = self.groups.entry(key.clone()).or_default();
        group.push(tuple);
        if group.len() == 1 {
            // First member under this key: make the projection addressable by
            // value (idempotent when the key was seen before and emptied).
            let values: Vec<Value> = key
                .as_slice()
                .iter()
                .zip(&self.attrs)
                .map(|(&vid, &attr)| table.id_value(attr, vid).clone())
                .collect();
            self.by_values.insert(values, key);
        }
    }

    fn remove_member(&mut self, key: &SmallKey, tuple: TupleId) {
        let Some(group) = self.groups.get_mut(key) else {
            return;
        };
        if let Some(position) = group.iter().position(|&member| member == tuple) {
            group.swap_remove(position);
        }
        if group.is_empty() {
            self.groups.remove(key);
        }
    }

    /// Returns `true` when the table has been modified since the index was
    /// built or last notified.  Meaningful for snapshot-mode indices only;
    /// an incrementally maintained index may report stale after what-if
    /// apply/revert round trips that left every projection unchanged.
    pub fn is_stale(&self, table: &Table) -> bool {
        table.version() != self.built_at_version
    }

    /// Rejects a decoded index with an empty group: maintenance removes a
    /// group when its last member leaves.
    fn check_decoded(&self) -> codec::Result<()> {
        if self.groups.values().any(Vec::is_empty) {
            return Err(CodecError::new("index payload contains an empty group"));
        }
        Ok(())
    }
}

// The index is encoded **faithfully**, not as a rebuild recipe: incremental
// maintenance (`swap_remove` + append) leaves each group's member order
// dependent on the write history, and `by_values` keeps keys whose group has
// emptied, so both are canonical state.
crate::state_record! {
    "asidx" 1 => AttrSetIndex { attrs, groups, by_values, built_at_version }
    check AttrSetIndex::check_decoded
}

/// An index mapping each distinct value of one column to the tuples holding
/// it, together with occurrence counts.
#[derive(Debug, Clone)]
pub struct ValueIndex {
    attr: AttrId,
    postings: HashMap<Value, Vec<TupleId>>,
    built_at_version: u64,
}

impl ValueIndex {
    /// Builds the index over one attribute.  Postings are accumulated per
    /// interned id (no value hashing per row) and decoded once per distinct
    /// value.
    pub fn build(table: &Table, attr: AttrId) -> ValueIndex {
        let mut by_id: Vec<Vec<TupleId>> = vec![Vec::new(); table.dict_len(attr)];
        for (row, &vid) in table.column_ids(attr).iter().enumerate() {
            by_id[vid.index()].push(row);
        }
        let postings = by_id
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(i, rows)| (table.dict_values(attr)[i].clone(), rows))
            .collect();
        ValueIndex {
            attr,
            postings,
            built_at_version: table.version(),
        }
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Tuples holding `value` in the indexed attribute.
    pub fn tuples_with(&self, value: &Value) -> &[TupleId] {
        self.postings
            .get(value)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of tuples holding `value`.
    pub fn count(&self, value: &Value) -> usize {
        self.tuples_with(value).len()
    }

    /// The most frequent non-null value, if any.  Ties are broken by the
    /// value's natural order so the result is deterministic.
    pub fn most_frequent(&self) -> Option<(&Value, usize)> {
        self.postings
            .iter()
            .filter(|(v, _)| !v.is_null())
            .map(|(v, ids)| (v, ids.len()))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }

    /// Iterates `(value, tuple ids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Vec<TupleId>)> {
        self.postings.iter()
    }

    /// Number of distinct values (including `Null` if present).
    pub fn distinct_count(&self) -> usize {
        self.postings.len()
    }

    /// Returns `true` when the table has been modified since the index was
    /// built.
    pub fn is_stale(&self, table: &Table) -> bool {
        table.version() != self.built_at_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::State;
    use crate::schema::Schema;

    fn table() -> Table {
        let schema = Schema::new(&["STR", "CT", "ZIP"]);
        let mut t = Table::new("addr", schema);
        t.push_text_row(&["Coliseum Blvd", "Fort Wayne", "46805"])
            .unwrap();
        t.push_text_row(&["Coliseum Blvd", "Fort Wayne", "46825"])
            .unwrap();
        t.push_text_row(&["Sherden RD", "Fort Wayne", "46825"])
            .unwrap();
        t.push_text_row(&["Colfax Ave", "Westville", "46391"])
            .unwrap();
        t
    }

    #[test]
    fn attr_set_index_groups_by_projection() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[0, 1]);
        assert_eq!(idx.attrs(), &[0, 1]);
        assert_eq!(idx.group_count(), 3);
        let key = vec![Value::from("Coliseum Blvd"), Value::from("Fort Wayne")];
        assert_eq!(idx.get(&key), &[0, 1]);
        assert_eq!(idx.group_of(&t, 2), &[2]);
        assert!(idx.get(&[Value::from("nope"), Value::Null]).is_empty());
    }

    #[test]
    fn attr_set_index_id_keys_match_value_keys() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[1]);
        let key = t.project_key(0, &[1]);
        assert_eq!(idx.get_key(&key), &[0, 1, 2]);
        assert_eq!(idx.get(&[Value::from("Fort Wayne")]), &[0, 1, 2]);
    }

    #[test]
    fn attr_set_index_staleness() {
        let mut t = table();
        let idx = AttrSetIndex::build(&t, &[1]);
        assert!(!idx.is_stale(&t));
        t.set_cell(0, 1, Value::from("Westville")).unwrap();
        assert!(idx.is_stale(&t));
    }

    #[test]
    fn value_index_postings_and_counts() {
        let t = table();
        let idx = ValueIndex::build(&t, 2);
        assert_eq!(idx.attr(), 2);
        assert_eq!(idx.count(&Value::from("46825")), 2);
        assert_eq!(idx.tuples_with(&Value::from("46391")), &[3]);
        assert_eq!(idx.count(&Value::from("99999")), 0);
        assert_eq!(idx.distinct_count(), 3);
    }

    #[test]
    fn value_index_most_frequent_is_deterministic() {
        let t = table();
        let idx = ValueIndex::build(&t, 1);
        let (value, count) = idx.most_frequent().unwrap();
        assert_eq!(value, &Value::from("Fort Wayne"));
        assert_eq!(count, 3);

        // Tie between two values with count 1 → smaller value wins.
        let schema = Schema::new(&["A"]);
        let mut tie = Table::new("tie", schema);
        tie.push_text_row(&["b"]).unwrap();
        tie.push_text_row(&["a"]).unwrap();
        let idx = ValueIndex::build(&tie, 0);
        assert_eq!(idx.most_frequent().unwrap().0, &Value::from("a"));
    }

    #[test]
    fn value_index_ignores_null_for_most_frequent() {
        let schema = Schema::new(&["A"]);
        let mut t = Table::new("nulls", schema);
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_text_row(&["x"]).unwrap();
        let idx = ValueIndex::build(&t, 0);
        assert_eq!(idx.most_frequent().unwrap().0, &Value::from("x"));
        assert_eq!(idx.distinct_count(), 2);
    }

    #[test]
    fn value_index_omits_zero_count_dictionary_entries() {
        let schema = Schema::new(&["A"]);
        let mut t = Table::new("gone", schema);
        t.push_text_row(&["old"]).unwrap();
        t.set_cell(0, 0, Value::from("new")).unwrap();
        let idx = ValueIndex::build(&t, 0);
        assert_eq!(idx.count(&Value::from("old")), 0);
        assert_eq!(idx.distinct_count(), 1);
    }

    #[test]
    fn value_index_staleness() {
        let mut t = table();
        let idx = ValueIndex::build(&t, 0);
        assert!(!idx.is_stale(&t));
        t.push_text_row(&["New St", "Fort Wayne", "46805"]).unwrap();
        assert!(idx.is_stale(&t));
    }

    #[test]
    fn empty_projection_groups_everything_together() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[]);
        assert_eq!(idx.group_count(), 1);
        assert_eq!(idx.get(&[]).len(), 4);
    }

    /// Sorted members per decoded projection — rebuild-vs-incremental
    /// comparison helper (member order within a group is unspecified).
    fn canonical(idx: &AttrSetIndex) -> Vec<(Vec<Value>, Vec<TupleId>)> {
        let mut all: Vec<(Vec<Value>, Vec<TupleId>)> = idx
            .iter()
            .map(|(values, members)| {
                let mut members = members.clone();
                members.sort_unstable();
                (values.clone(), members)
            })
            .collect();
        all.sort();
        all
    }

    #[test]
    fn incremental_writes_match_rebuild() {
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[1, 2]);
        // Move t0 between groups, re-join, and introduce a novel value.
        for (tuple, attr, value) in [
            (0, 1, Value::from("Westville")),
            (0, 2, Value::from("46391")),
            (3, 1, Value::from("Fort Wayne")),
            (2, 2, Value::from("99999")), // never interned before
            (0, 1, Value::from("Coliseum Blvd")),
        ] {
            let old = t.set_cell(tuple, attr, value).unwrap();
            let old_id = t.lookup_id(attr, &old).unwrap();
            idx.note_cell_write(&t, tuple, attr, old_id);
            assert!(!idx.is_stale(&t));
            assert_eq!(
                canonical(&idx),
                canonical(&AttrSetIndex::build(&t, &[1, 2]))
            );
        }
    }

    #[test]
    fn incremental_write_outside_attr_set_is_a_no_op() {
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[1]);
        let before = canonical(&idx);
        let old = t.set_cell(0, 0, Value::from("Elsewhere")).unwrap();
        let old_id = t.lookup_id(0, &old).unwrap();
        idx.note_cell_write(&t, 0, 0, old_id);
        assert_eq!(canonical(&idx), before);
        assert!(!idx.is_stale(&t));
    }

    #[test]
    fn incremental_novel_value_groups_are_value_addressable() {
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[2]);
        let old = t.set_cell(0, 2, Value::from("11111")).unwrap();
        let old_id = t.lookup_id(2, &old).unwrap();
        idx.note_cell_write(&t, 0, 2, old_id);
        assert_eq!(idx.get(&[Value::from("11111")]), &[0]);
        // t0's old group emptied; the untouched group still answers.
        assert!(idx.get(&[Value::from("46805")]).is_empty());
        let mut group = idx.get(&[Value::from("46825")]).to_vec();
        group.sort_unstable();
        assert_eq!(group, vec![1, 2]);
    }

    #[test]
    fn incremental_new_tuple_joins_its_group() {
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[1]);
        let id = t.push_text_row(&["New St", "Fort Wayne", "46805"]).unwrap();
        idx.note_new_tuple(&t, id);
        assert_eq!(canonical(&idx), canonical(&AttrSetIndex::build(&t, &[1])));
        assert!(!idx.is_stale(&t));
    }

    #[test]
    fn codec_preserves_maintenance_history_exactly() {
        // Incremental writes leave within-group member order different from
        // a rebuild (swap_remove + append) and keep emptied-group value
        // keys; the codec must reproduce both faithfully.
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[1, 2]);
        for (tuple, attr, value) in [
            (0, 1, Value::from("Westville")),
            (3, 2, Value::from("46825")),
            (0, 1, Value::from("Fort Wayne")),
        ] {
            let old = t.set_cell(tuple, attr, value).unwrap();
            let old_id = t.lookup_id(attr, &old).unwrap();
            idx.note_cell_write(&t, tuple, attr, old_id);
        }
        let mut enc = crate::codec::Enc::new();
        idx.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Dec::new(&bytes);
        let restored = AttrSetIndex::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored.attrs(), idx.attrs());
        assert_eq!(restored.group_count(), idx.group_count());
        assert!(!restored.is_stale(&t));
        // Exact member order per group, not just set equality.
        for (values, members) in idx.iter() {
            assert_eq!(restored.get(values), members.as_slice());
        }
        // Emptied-group keys still answer (with no members) by value.
        let emptied = vec![Value::from("Westville"), Value::from("46805")];
        assert!(idx.get(&emptied).is_empty());
        assert!(restored.get(&emptied).is_empty());
        // Re-encoding the restored index is byte-identical.
        let mut enc2 = crate::codec::Enc::new();
        restored.encode_state(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn incremental_group_emptying_and_reforming() {
        let schema = Schema::new(&["A"]);
        let mut t = Table::new("one", schema);
        t.push_text_row(&["x"]).unwrap();
        let mut idx = AttrSetIndex::build(&t, &[0]);
        let old = t.set_cell(0, 0, Value::from("y")).unwrap();
        let old_id = t.lookup_id(0, &old).unwrap();
        idx.note_cell_write(&t, 0, 0, old_id);
        assert_eq!(idx.group_count(), 1);
        assert!(idx.get(&[Value::from("x")]).is_empty());
        // Re-form the emptied group; the by-value mapping still answers.
        let old = t.set_cell(0, 0, Value::from("x")).unwrap();
        let old_id = t.lookup_id(0, &old).unwrap();
        idx.note_cell_write(&t, 0, 0, old_id);
        assert_eq!(idx.get(&[Value::from("x")]), &[0]);
        assert_eq!(idx.iter().count(), 1);
    }
}
