//! The agreement-index pool backing index-based update generation.
//!
//! Algorithm 1's `getValueForLHS` needs, for a rule `φ` and an LHS attribute
//! `B`, the tuples that agree with `t` on `attrs(φ) − {B}` — the
//! "semantically related" tuples whose `B` values are candidate repairs.
//! Scanning the table per cell is O(n); the pool instead keeps one
//! incrementally-maintained [`AttrSetIndex`] per distinct such attribute
//! subset across the rule set, so the lookup is a hash probe returning the
//! agreement group directly.
//!
//! The same indices answer the *reverse* question the write-driven refresh
//! asks after a write to `t[A]`: which cells `(t', B)` drew candidates from
//! `t`?  Exactly the members of `t`'s group in the `attrs(φ) − {B}` index
//! (under the pre-write projection for the group `t` left, and the post-write
//! projection for the group it joined).
//!
//! [`RepairState`](crate::RepairState) routes every *real* cell write through
//! [`AttrIndexPool::note_cell_write`]; what-if probes bypass the pool, which
//! is sound because their apply/revert round trips leave every row projection
//! unchanged.
//!
//! Deliberately **no pattern filtering**: groups contain every agreeing
//! tuple, in or out of the rule's pattern context, mirroring the scan
//! semantics the index replaces (and making one index reusable by every rule
//! sharing the attribute subset).

use std::collections::HashMap;

use gdr_cfd::{RuleId, RuleSet};
use gdr_relation::codec::{self, CodecError};
use gdr_relation::{AttrId, AttrSetIndex, Table, TupleId, ValueId};

/// One incrementally-maintained [`AttrSetIndex`] per distinct
/// `attrs(φ) − {B}` subset of the rule set, with per-rule lookup tables.
#[derive(Debug, Clone)]
pub(crate) struct AttrIndexPool {
    /// The distinct indices, deduplicated across rules.
    indexes: Vec<AttrSetIndex>,
    /// For each rule, aligned with `rule.lhs()`: the slot in `indexes`
    /// holding the `attrs(φ) − {B}` index for that LHS attribute.
    lhs_slots: Vec<Vec<usize>>,
}

impl AttrIndexPool {
    /// Builds the pool: enumerates every `attrs(φ) − {B}` subset (for `B`
    /// ranging over each rule's LHS), dedups them, and builds each index
    /// with one table scan.
    pub fn build(table: &Table, ruleset: &RuleSet) -> AttrIndexPool {
        let mut indexes: Vec<AttrSetIndex> = Vec::new();
        let mut by_attrs: HashMap<Vec<AttrId>, usize> = HashMap::new();
        let mut lhs_slots: Vec<Vec<usize>> = Vec::with_capacity(ruleset.len());
        for rule in ruleset.rules() {
            let attrs = rule.attrs();
            let slots = rule
                .lhs()
                .iter()
                .map(|&b| {
                    let subset: Vec<AttrId> = attrs.iter().copied().filter(|&a| a != b).collect();
                    *by_attrs.entry(subset.clone()).or_insert_with(|| {
                        indexes.push(AttrSetIndex::build(table, &subset));
                        indexes.len() - 1
                    })
                })
                .collect();
            lhs_slots.push(slots);
        }
        AttrIndexPool { indexes, lhs_slots }
    }

    /// The `attrs(φ) − {B}` index for LHS position `lhs_pos` of `rule`.
    pub fn lhs_index(&self, rule: RuleId, lhs_pos: usize) -> &AttrSetIndex {
        &self.indexes[self.lhs_slots[rule][lhs_pos]]
    }

    /// The slot in the deduplicated index list backing
    /// [`AttrIndexPool::lhs_index`] — a stable identity for memoising probe
    /// results across the `(rule, lhs_pos)` pairs that share an index.
    pub fn lhs_slot(&self, rule: RuleId, lhs_pos: usize) -> usize {
        self.lhs_slots[rule][lhs_pos]
    }

    /// Propagates one already-applied cell write into every index whose
    /// attribute set contains `attr`.  `old_id` is the id the cell held
    /// before the write.
    pub fn note_cell_write(
        &mut self,
        table: &Table,
        tuple: TupleId,
        attr: AttrId,
        old_id: ValueId,
    ) {
        for index in &mut self.indexes {
            index.note_cell_write(table, tuple, attr, old_id);
        }
    }

    /// Number of distinct indices the pool maintains.
    #[cfg(test)]
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Rejects a decoded slot that names no index.
    fn check_decoded(&self) -> codec::Result<()> {
        match self
            .lhs_slots
            .iter()
            .flatten()
            .find(|&&slot| slot >= self.indexes.len())
        {
            Some(slot) => Err(CodecError::new(format!(
                "index slot {slot} out of range ({} indexes)",
                self.indexes.len()
            ))),
            None => Ok(()),
        }
    }
}

// Every index faithfully (including maintenance-history-dependent member
// order), then the per-rule slot tables.
gdr_relation::state_record! {
    "idxpool" 1 => AttrIndexPool { indexes, lhs_slots }
    check AttrIndexPool::check_decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::parser;
    use gdr_relation::{Schema, Value};

    fn fixture() -> (Table, RuleSet) {
        let schema = Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"]);
        let mut table = Table::new("addr", schema.clone());
        table
            .push_text_row(&["H1", "Main St", "Michigan City", "IN", "46360"])
            .unwrap();
        table
            .push_text_row(&["H2", "Main St", "Westville", "IN", "46360"])
            .unwrap();
        table
            .push_text_row(&["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"])
            .unwrap();
        let rules = RuleSet::new(
            parser::parse_rules(
                &schema,
                "ZIP -> CT, STT : 46360 || Michigan City, IN\nSTR, CT -> ZIP : _, Fort Wayne || _\n",
            )
            .unwrap(),
        );
        (table, rules)
    }

    #[test]
    fn pool_dedups_shared_subsets() {
        let (table, rules) = fixture();
        let pool = AttrIndexPool::build(&table, &rules);
        // Rules: ZIP→CT, ZIP→STT, (STR,CT)→ZIP.  Subsets: {CT} (from ZIP→CT),
        // {STT} (from ZIP→STT), {CT,ZIP} and {STR,ZIP} (from the variable
        // rule) — all distinct here, but the count proves enumeration.
        assert_eq!(pool.index_count(), 4);
        // The variable rule (id 2) has LHS [STR, CT]; wildcarding STR leaves
        // [CT, ZIP].
        assert_eq!(pool.lhs_index(2, 0).attrs(), &[2, 4]);
        assert_eq!(pool.lhs_index(2, 1).attrs(), &[1, 4]);
    }

    #[test]
    fn pool_indices_answer_agreement_probes_and_follow_writes() {
        let (mut table, rules) = fixture();
        let mut pool = AttrIndexPool::build(&table, &rules);
        // Tuples agreeing with t0 on {CT}: only t0 itself.
        let index = pool.lhs_index(0, 0);
        let key = table.project_key(0, index.attrs());
        assert_eq!(index.get_key(&key), &[0]);
        // After t1's city joins t0's, the group has both.
        let old = table.set_cell(1, 2, Value::from("Michigan City")).unwrap();
        let old_id = table.lookup_id(2, &old).unwrap();
        pool.note_cell_write(&table, 1, 2, old_id);
        let index = pool.lhs_index(0, 0);
        let mut group = index.get_key(&key).to_vec();
        group.sort_unstable();
        assert_eq!(group, vec![0, 1]);
    }
}
