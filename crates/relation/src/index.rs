//! The agreement index over a set of table columns.
//!
//! Variable CFDs (standard FDs restricted by a pattern) are violated by
//! *pairs* of tuples that agree on the rule's left-hand side but disagree on
//! its right-hand side.  Detecting and counting such violations naively is
//! quadratic; the [`AttrSetIndex`] groups tuples by their left-hand-side
//! projection so agreement classes can be enumerated once.
//!
//! The index lives in **id space**: a group key is the projection of a row's
//! interned [`crate::ValueId`]s, so building touches no [`crate::Value`] and
//! a lookup is one hash probe on a [`SmallKey`].
//!
//! The index is **incrementally maintained**: its owner routes every cell
//! write through [`AttrSetIndex::note_cell_write`], which moves the written
//! tuple between at most two groups at O(group) cost instead of an O(table)
//! rebuild.  A value never seen before simply keys a fresh group.  Missing a
//! write is the owner's bug; a side-effect-free apply/revert round trip (a
//! what-if probe) may be skipped, since it leaves every row's projection
//! unchanged.

use std::collections::HashMap;

use crate::codec::{self, CodecError};
use crate::intern::{SmallKey, ValueId};
use crate::schema::AttrId;
use crate::table::{Table, TupleId};

/// An index that groups tuple ids by their projection on a fixed attribute
/// set.  Build once, then feed every write through
/// [`AttrSetIndex::note_cell_write`] — see the module docs.
#[derive(Debug, Clone)]
pub struct AttrSetIndex {
    attrs: Vec<AttrId>,
    groups: HashMap<SmallKey, Vec<TupleId>>,
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
        AttrSetIndex {
            attrs: attrs.to_vec(),
            groups,
        }
    }

    /// The attributes the index is keyed on.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Returns the ids of tuples whose projection equals the id key.
    pub fn get_key(&self, key: &SmallKey) -> &[TupleId] {
        self.groups.get(key).map(|v| v.as_slice()).unwrap_or(&[])
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
            return;
        }
        let old_key = table.project_key_with(tuple, &self.attrs, attr, old_id);
        let new_key = table.project_key(tuple, &self.attrs);
        if old_key == new_key {
            return;
        }
        if let Some(group) = self.groups.get_mut(&old_key) {
            if let Some(position) = group.iter().position(|&member| member == tuple) {
                group.swap_remove(position);
            }
            if group.is_empty() {
                self.groups.remove(&old_key);
            }
        }
        self.groups.entry(new_key).or_default().push(tuple);
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
// dependent on the write history, so that order is canonical state.
crate::state_record! {
    "asidx" 2 => AttrSetIndex { attrs, groups }
    check AttrSetIndex::check_decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::State;
    use crate::schema::Schema;
    use crate::value::Value;

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

    /// The id key of `values` projected on `attrs`, or `None` when some
    /// value never entered its column.
    fn key_of(t: &Table, attrs: &[AttrId], values: &[&str]) -> Option<SmallKey> {
        let ids: Option<Vec<ValueId>> = attrs
            .iter()
            .zip(values)
            .map(|(&attr, &value)| t.lookup_id(attr, &Value::from(value)))
            .collect();
        ids.map(|ids| SmallKey::from_slice(&ids))
    }

    #[test]
    fn attr_set_index_groups_by_projection() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[0, 1]);
        assert_eq!(idx.attrs(), &[0, 1]);
        assert_eq!(idx.groups.len(), 3);
        let key = key_of(&t, &[0, 1], &["Coliseum Blvd", "Fort Wayne"]);
        assert_eq!(idx.get_key(&key.unwrap()), &[0, 1]);
        assert_eq!(idx.get_key(&t.project_key(2, &[0, 1])), &[2]);
        let absent = key_of(&t, &[0, 1], &["Colfax Ave", "Fort Wayne"]);
        assert!(idx.get_key(&absent.unwrap()).is_empty());
    }

    #[test]
    fn attr_set_index_id_keys_match_value_keys() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[1]);
        let key = t.project_key(0, &[1]);
        assert_eq!(idx.get_key(&key), &[0, 1, 2]);
        let by_value = key_of(&t, &[1], &["Fort Wayne"]).unwrap();
        assert_eq!(idx.get_key(&by_value), &[0, 1, 2]);
    }

    #[test]
    fn empty_projection_groups_everything_together() {
        let t = table();
        let idx = AttrSetIndex::build(&t, &[]);
        assert_eq!(idx.groups.len(), 1);
        assert_eq!(idx.get_key(&SmallKey::from_slice(&[])).len(), 4);
    }

    /// Sorted members per group key — rebuild-vs-incremental comparison
    /// helper (member order within a group is unspecified).
    fn canonical(idx: &AttrSetIndex) -> Vec<(SmallKey, Vec<TupleId>)> {
        let mut all: Vec<(SmallKey, Vec<TupleId>)> = idx
            .groups
            .iter()
            .map(|(key, members)| {
                let mut members = members.clone();
                members.sort_unstable();
                (key.clone(), members)
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
    }

    #[test]
    fn incremental_novel_value_groups_are_value_addressable() {
        let mut t = table();
        let mut idx = AttrSetIndex::build(&t, &[2]);
        let old = t.set_cell(0, 2, Value::from("11111")).unwrap();
        let old_id = t.lookup_id(2, &old).unwrap();
        idx.note_cell_write(&t, 0, 2, old_id);
        let key = |zip: &str| key_of(&t, &[2], &[zip]).unwrap();
        assert_eq!(idx.get_key(&key("11111")), &[0]);
        // t0's old group emptied; the untouched group still answers.
        assert!(idx.get_key(&key("46805")).is_empty());
        let mut group = idx.get_key(&key("46825")).to_vec();
        group.sort_unstable();
        assert_eq!(group, vec![1, 2]);
    }

    #[test]
    fn codec_preserves_maintenance_history_exactly() {
        // Incremental writes leave within-group member order different from
        // a rebuild (swap_remove + append); the codec must reproduce it
        // faithfully.
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
        // Exact member order per group, not just set equality.
        assert_eq!(restored.groups, idx.groups);
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
        let x = t.project_key(0, &[0]);
        let old = t.set_cell(0, 0, Value::from("y")).unwrap();
        let old_id = t.lookup_id(0, &old).unwrap();
        idx.note_cell_write(&t, 0, 0, old_id);
        assert_eq!(idx.groups.len(), 1);
        assert!(idx.get_key(&x).is_empty());
        // Re-form the emptied group.
        let old = t.set_cell(0, 0, Value::from("x")).unwrap();
        let old_id = t.lookup_id(0, &old).unwrap();
        idx.note_cell_write(&t, 0, 0, old_id);
        assert_eq!(idx.get_key(&x), &[0]);
        assert_eq!(idx.groups.len(), 1);
    }
}
