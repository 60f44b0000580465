//! Candidate-update generation — `UpdateAttributeTuple` (Algorithm 1).
//!
//! For a dirty tuple `t` and an attribute `B`, the generator explores the
//! three scenarios of Appendix A.4 over the rules `t` currently violates:
//!
//! 1. `B = RHS(φ)` of a violated **constant** CFD — suggest the pattern
//!    constant `tp[A]`.
//! 2. `B = RHS(φ)` of a violated **variable** CFD — suggest the RHS value of
//!    a tuple `t'` that violates `φ` together with `t`
//!    (`getValueForRHS`).
//! 3. `B ∈ LHS(φ)` of a violated CFD — look for a value that maximises the
//!    repair-evaluation score, drawing candidates first from the constants of
//!    the rules and then from the tuples matching `t` on the rule's other
//!    attributes (`getValueForLHS`).
//!
//! The best-scoring candidate that is not in the cell's `preventedList` and
//! differs from the current value becomes the suggestion
//! `⟨t, B, v, sim(t[B], v)⟩` recorded in `PossibleUpdates`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use gdr_cfd::{Cfd, RuleId};
use gdr_relation::{pool, AttrId, SmallKey, TupleId, ValueId};

use crate::similarity::value_similarity;
use crate::state::RepairState;
use crate::update::{Cell, Update};

/// Memo of `getValueForLHS` candidate pools, shared across one generation
/// walk.
///
/// Scenario 3 draws candidates from the tuples agreeing with `t` on
/// `attrs(φ) − {B}`.  Walking a full dirty list re-derives the same pool for
/// every dirty member of the same agreement group, which turns pathological
/// when a broad subset (e.g. `{State}`) collapses the table into one group:
/// the naive walk is O(dirty × group) ≈ O(n²).  The memo keys the *distinct
/// non-null ids of attribute `B` within one group* by `(index slot, B,
/// group key)` so each pool is computed once per walk.  Pure cache: the
/// final candidate list is sorted and deduplicated anyway, so memoised and
/// recomputed pools yield identical suggestions.
#[derive(Debug, Default)]
struct CandidateMemo {
    groups: HashMap<(usize, AttrId, SmallKey), Vec<ValueId>>,
}

impl RepairState {
    /// Generates the initial `PossibleUpdates` list: Algorithm 1 is invoked
    /// for every attribute of every dirty tuple (step 1 of the GDR process).
    ///
    /// Runs as a four-phase walk on the state's thread pool (sequential by
    /// default); see `RepairState::generate_for_dirty`.
    pub fn generate_initial_updates(&mut self) {
        let dirty = self.engine.dirty_tuples_with(&self.threads);
        self.generate_for_dirty(&dirty, false);
    }

    /// The shared full-walk generator behind
    /// [`RepairState::generate_initial_updates`] and
    /// [`RepairState::refresh_updates_full`], parallelised over the state's
    /// thread pool in four phases:
    ///
    /// 1. **Violated rules** (parallel, read-only): each dirty tuple's
    ///    violated-rule list.
    /// 2. **Pre-intern** (sequential): for every cell to be generated, intern
    ///    the rule constants Algorithm 1 may suggest, *in the exact order the
    ///    per-cell generator would* — cells ascending by `(tuple, attr)`,
    ///    rules in violated order, scenario-1 RHS constants before
    ///    scenario-3 LHS constants.  This is the only dictionary-mutating
    ///    step, so `ValueId` assignment is identical at any worker count.
    /// 3. **Candidate search** (parallel, read-only): Algorithm 1's scenario
    ///    exploration and best-candidate selection per cell, with a
    ///    per-worker [`CandidateMemo`].
    /// 4. **Record** (sequential, cell order): journal the suggestions.
    ///
    /// `skip_existing` preserves the full-refresh contract of touching only
    /// cells without a pending suggestion.
    fn generate_for_dirty(&mut self, dirty: &[TupleId], skip_existing: bool) {
        let threads = self.threads;
        let arity = self.table.schema().arity();
        let violated: Vec<Vec<RuleId>> = {
            let engine = &self.engine;
            threads.run(dirty.len(), |i| engine.violated_rules(dirty[i]))
        };
        let mut cells: Vec<(usize, Cell)> = Vec::new();
        for (i, &tuple) in dirty.iter().enumerate() {
            for attr in 0..arity {
                let cell = (tuple, attr);
                if skip_existing && self.possible.contains_key(&cell) {
                    continue;
                }
                if !self.is_changeable(cell) {
                    continue;
                }
                if violated[i].is_empty() {
                    self.drop_pending(cell);
                    continue;
                }
                self.pre_intern_rule_constants(attr, &violated[i]);
                cells.push((i, cell));
            }
        }
        let ranges = pool::partition(cells.len(), threads.workers());
        let chunks: Vec<Vec<(Cell, Option<Update>)>> = {
            let state = &*self;
            threads.run(ranges.len(), |w| {
                let mut memo = CandidateMemo::default();
                ranges[w]
                    .clone()
                    .map(|c| {
                        let (i, (tuple, attr)) = cells[c];
                        let update = state.candidate_update(tuple, attr, &violated[i], &mut memo);
                        ((tuple, attr), update)
                    })
                    .collect()
            })
        };
        for chunk in chunks {
            for (cell, update) in chunk {
                match update {
                    Some(update) => self.record_suggestion(update),
                    None => self.drop_pending(cell),
                }
            }
        }
    }

    /// Runs `UpdateAttributeTuple(t, B)` for every attribute `B` of a tuple.
    pub fn generate_updates_for_tuple(&mut self, tuple: TupleId) {
        for attr in 0..self.table.schema().arity() {
            self.generate_update(tuple, attr);
        }
    }

    /// `UpdateAttributeTuple(t, B)` — Algorithm 1, evaluated in interned-id
    /// space: candidates are gathered as [`ValueId`]s, filtered against the
    /// current id and the prevented-id set, and decoded exactly once (for
    /// the similarity score and the recorded suggestion).
    ///
    /// Returns the recorded suggestion, or `None` when the cell is not
    /// changeable, the tuple violates no rule involving `B`, or no admissible
    /// candidate value exists.
    pub fn generate_update(&mut self, tuple: TupleId, attr: AttrId) -> Option<Update> {
        // Line 1: confirmed-correct cells are never touched again.
        if !self.is_changeable((tuple, attr)) {
            return None;
        }
        let violated = self.engine.violated_rules(tuple);
        if violated.is_empty() {
            self.drop_pending((tuple, attr));
            return None;
        }
        self.pre_intern_rule_constants(attr, &violated);
        let mut memo = CandidateMemo::default();
        match self.candidate_update(tuple, attr, &violated, &mut memo) {
            Some(update) => {
                self.record_suggestion(update.clone());
                Some(update)
            }
            None => {
                self.drop_pending((tuple, attr));
                None
            }
        }
    }

    /// Interns every rule constant Algorithm 1 may propose for `(t, attr)`
    /// across the violated rules — the only dictionary-mutating part of
    /// candidate generation, split out so [`RepairState::candidate_update`]
    /// can run read-only (and therefore in parallel).  The intern order —
    /// rules in violated order, a rule's scenario-1 RHS constant before its
    /// scenario-3 LHS constants in pattern order — matches the in-line
    /// interleaving the generator historically used, so `ValueId` assignment
    /// is unchanged.
    fn pre_intern_rule_constants(&mut self, attr: AttrId, violated: &[RuleId]) {
        for &rule_id in violated {
            let rule = self.engine.ruleset().rule(rule_id);
            if rule.rhs() == attr {
                if rule.is_constant() {
                    if let Some(constant) = rule.rhs_pattern().as_const() {
                        let constant = constant.clone();
                        self.table.intern_value(attr, constant);
                    }
                }
            } else if rule.lhs().contains(&attr) {
                for (lhs_attr, pattern) in rule.lhs().iter().zip(rule.lhs_pattern()) {
                    if *lhs_attr == attr {
                        if let Some(constant) = pattern.as_const() {
                            let constant = constant.clone();
                            self.table.intern_value(attr, constant);
                        }
                    }
                }
            }
        }
    }

    /// The read-only core of `UpdateAttributeTuple(t, B)`: explores the three
    /// scenarios over the violated rules, then picks the best admissible
    /// candidate.  Requires [`RepairState::pre_intern_rule_constants`] to
    /// have run for `(t, B)` first so every rule constant resolves via
    /// lookup.  Returns the suggestion without recording it.
    fn candidate_update(
        &self,
        tuple: TupleId,
        attr: AttrId,
        violated: &[RuleId],
        memo: &mut CandidateMemo,
    ) -> Option<Update> {
        let mut candidates: Vec<ValueId> = Vec::new();
        for &rule_id in violated {
            let rule = self.engine.ruleset().rule(rule_id);
            if rule.rhs() == attr {
                if rule.is_constant() {
                    // Scenario 1: suggest the pattern constant.
                    if let Some(constant) = rule.rhs_pattern().as_const() {
                        let id = self
                            .table
                            .lookup_id(attr, constant)
                            .expect("rule constants are pre-interned before candidate search");
                        candidates.push(id);
                    }
                } else {
                    // Scenario 2: suggest a conflicting partner's RHS value —
                    // the partner buckets' distinct keys, O(#values) instead
                    // of O(group members).
                    candidates.extend(self.engine.conflict_rhs_ids(rule_id, tuple));
                }
            } else if rule.lhs().contains(&attr) {
                // Scenario 3: search rule constants and semantically related
                // tuples for the best-scoring value.
                self.lhs_candidate_ids(rule_id, tuple, attr, memo, &mut candidates);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        let current_id = self.table.cell_id(tuple, attr);
        let mut best: Option<(ValueId, f64)> = None;
        for candidate in candidates {
            if candidate == current_id || self.is_prevented_id((tuple, attr), candidate) {
                continue;
            }
            let score = value_similarity(
                self.table.id_value(attr, current_id),
                self.table.id_value(attr, candidate),
            );
            let better = match best {
                None => true,
                Some((best_id, best_score)) => {
                    score > best_score
                        || (score == best_score
                            && self.table.id_value(attr, candidate)
                                < self.table.id_value(attr, best_id))
                }
            };
            if better {
                best = Some((candidate, score));
            }
        }

        best.map(|(id, score)| {
            let value = self.table.id_value(attr, id).clone();
            Update::with_value_id(tuple, attr, value, score, id)
        })
    }

    /// Ensures every dirty tuple has fresh suggestions: discards suggestions
    /// that became vacuous, forbidden, or clean-tupled, and regenerates the
    /// cells lacking one (step 9 of the GDR process).
    ///
    /// **Journal-driven**: instead of walking every dirty tuple × attribute,
    /// this drains the revisit queue — the write-damage fan-out accumulated
    /// by `RepairState::note_cell_change` plus the cells perturbed by
    /// prevented/unchangeable marks — and touches exactly those cells.
    /// Because `UpdateAttributeTuple` is a deterministic function of the
    /// database, the engine, and the per-cell flags, every cell *outside*
    /// the queue would regenerate to its current state, so skipping it
    /// cannot change the outcome; [`RepairState::refresh_updates_full`] is
    /// the full-walk oracle pinning that equivalence (see
    /// `tests/proptest_refresh.rs`).
    pub fn refresh_updates(&mut self) {
        let queue = std::mem::take(&mut self.revisit_queue);
        for cell in queue {
            self.refresh_cell(cell);
        }
    }

    /// Revisits one cell: keeps a still-valid suggestion untouched (the full
    /// walk never regenerates cells that have one), drops a stale one, and
    /// reruns Algorithm 1 when the cell lacks a suggestion.
    fn refresh_cell(&mut self, cell: Cell) {
        let (tuple, attr) = cell;
        if let Some(update) = self.possible.get(&cell) {
            debug_assert!(
                update.value_id.is_some(),
                "generator-produced suggestions always carry their interned id"
            );
            // Resolve the suggestion to id space once (cached by the
            // generator; the lookup fallback covers hand-built updates).
            let id = update
                .value_id
                .or_else(|| self.table.lookup_id(attr, &update.value));
            let valid = match id {
                Some(id) => {
                    self.table.cell_id(tuple, attr) != id && !self.is_prevented_id(cell, id)
                }
                // A value never interned equals no cell and cannot have been
                // prevented (prevention interns).
                None => true,
            };
            if valid && self.engine.is_dirty(tuple) {
                return;
            }
            self.drop_pending(cell);
        }
        self.generate_update(tuple, attr);
    }

    /// The pre-incremental refresh: walks every dirty tuple × attribute.
    /// Kept as the debug/fallback oracle for the journal-driven
    /// [`RepairState::refresh_updates`]; both must produce the identical
    /// `PossibleUpdates` map.  Supersedes (and therefore clears) any queued
    /// revisit work.
    pub fn refresh_updates_full(&mut self) {
        self.revisit_queue.clear();
        let dirty = self.engine.dirty_tuples_with(&self.threads);
        let dirty_set: BTreeSet<TupleId> = dirty.iter().copied().collect();
        // Discard suggestions for clean tuples and for suggestions that
        // became vacuous (equal to the current value) or forbidden.
        let stale: Vec<_> = self
            .possible
            .iter()
            .filter(|(cell, update)| {
                !dirty_set.contains(&cell.0)
                    || self.table.cell(update.tuple, update.attr) == &update.value
                    || self.is_prevented(**cell, &update.value)
            })
            .map(|(cell, _)| *cell)
            .collect();
        for cell in stale {
            self.drop_pending(cell);
        }
        // Generate suggestions for dirty cells that lack one.
        self.generate_for_dirty(&dirty, true);
    }

    /// `getValueForLHS` (scenario 3): candidate ids for an LHS attribute.
    ///
    /// Candidates are drawn from (a) the constants bound to `attr` in the
    /// violated rule's own pattern ("first using the values in the CFDs") and
    /// (b) the values of `attr` among tuples that agree with `t` on the
    /// rule's remaining attributes (`t[X ∪ A − {B}]`) — the semantically
    /// related tuples, answered by one probe of the pooled agreement index
    /// instead of a table scan.
    /// Candidates are deliberately *not* harvested from unrelated rules: a
    /// constant that merely moves the tuple out of the rule's context would
    /// "resolve" the violation without any evidence that the value is right,
    /// and such suggestions would flood the update groups with incorrect
    /// members.
    fn lhs_candidate_ids(
        &self,
        rule_id: usize,
        tuple: TupleId,
        attr: AttrId,
        memo: &mut CandidateMemo,
        candidates: &mut Vec<ValueId>,
    ) {
        let rule: &Cfd = self.engine.ruleset().rule(rule_id);

        // (a) constants bound to this attribute in the violated rule itself
        // (pre-interned, so lookup cannot miss).
        let mut constants: Vec<ValueId> = Vec::new();
        let mut lhs_pos = usize::MAX;
        for (pos, (lhs_attr, pattern)) in rule.lhs().iter().zip(rule.lhs_pattern()).enumerate() {
            if *lhs_attr == attr {
                lhs_pos = pos;
                if let Some(constant) = pattern.as_const() {
                    let id = self
                        .table
                        .lookup_id(attr, constant)
                        .expect("rule constants are pre-interned before candidate search");
                    constants.push(id);
                }
            }
        }
        debug_assert_ne!(lhs_pos, usize::MAX, "attr must be on the rule's LHS");
        // (b) values of `attr` among tuples agreeing with `t` on the rule's
        // other attributes: one id-keyed probe of the `attrs(φ) − {B}` index,
        // with the group's distinct non-null id pool memoised per walk so
        // large agreement groups are scanned once, not once per dirty member.
        let slot = self.pool.lhs_slot(rule_id, lhs_pos);
        let index = self.pool.lhs_index(rule_id, lhs_pos);
        let key = self.table.project_key(tuple, index.attrs());
        let pool_ids: &Vec<ValueId> = match memo.groups.entry((slot, attr, key)) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let mut ids: Vec<ValueId> = Vec::new();
                for &row in index.get_key(&entry.key().2) {
                    let id = self.table.cell_id(row, attr);
                    if !self.table.id_value(attr, id).is_null() {
                        ids.push(id);
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                entry.insert(ids)
            }
        };
        candidates.extend_from_slice(pool_ids);
        candidates.extend_from_slice(&constants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{ChangeSource, Feedback};
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
        let rules = rules(&schema);
        RepairState::new(table, &rules)
    }

    #[test]
    fn scenario1_suggests_pattern_constant() {
        // t0 violates ZIP 46360 → CT Michigan City.
        let state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        let update = state.pending_update((0, 2)).expect("CT suggestion");
        assert_eq!(update.value, Value::from("Michigan City"));
        // The typo is close to the truth, so the score is high.
        assert!(update.score > 0.8);
    }

    #[test]
    fn scenario2_suggests_partner_value() {
        // Two Fort Wayne tuples on the same street with different zips.
        let state = state_with_rows(&[
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
        ]);
        // Each tuple's ZIP suggestion is its partner's value.
        let u0 = state.pending_update((0, 4)).expect("ZIP suggestion for t0");
        let u1 = state.pending_update((1, 4)).expect("ZIP suggestion for t1");
        assert_eq!(u0.value, Value::from("46999"));
        assert_eq!(u1.value, Value::from("46825"));
    }

    #[test]
    fn scenario3_suggests_lhs_change_from_agreeing_tuples() {
        // t0's zip 46360 requires Michigan City; changing the LHS (ZIP) to
        // the zip carried by other Westville tuples is also a repair.
        let state = state_with_rows(&[
            ["H2", "Main St", "Westville", "IN", "46360"],
            ["H3", "Colfax Ave", "Westville", "IN", "46391"],
        ]);
        let update = state.pending_update((0, 4)).expect("ZIP suggestion");
        // 46391 comes from the semantically related tuple t1 (same city).
        assert_eq!(update.value, Value::from("46391"));
    }

    #[test]
    fn scenario3_does_not_borrow_constants_from_unrelated_rules() {
        // With no other Westville tuple in the database, there is no evidence
        // for any particular zip, so no LHS repair is suggested — constants
        // of unrelated rules (46391, 46825, ...) must not be proposed.
        let state = state_with_rows(&[["H2", "Main St", "Westville", "IN", "46360"]]);
        assert!(state.pending_update((0, 4)).is_none());
        // The RHS repair (scenario 1) is still suggested.
        assert!(state.pending_update((0, 2)).is_some());
    }

    #[test]
    fn unchangeable_cells_are_skipped() {
        let mut state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        state.mark_unchangeable((0, 2));
        assert!(state.generate_update(0, 2).is_none());
        assert!(state.pending_update((0, 2)).is_none());
    }

    #[test]
    fn prevented_values_are_not_resuggested() {
        let mut state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        state.mark_prevented((0, 2), Value::from("Michigan City"));
        let update = state.generate_update(0, 2);
        assert!(update.map(|u| u.value) != Some(Value::from("Michigan City")));
    }

    #[test]
    fn clean_tuples_get_no_suggestions() {
        let state = state_with_rows(&[["H1", "Main St", "Michigan City", "IN", "46360"]]);
        assert_eq!(state.pending_count(), 0);
        assert!(state.dirty_tuples().is_empty());
    }

    #[test]
    fn suggestions_never_equal_current_value() {
        let state = state_with_rows(&[
            ["H2", "Main St", "Westville", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
        ]);
        for update in state.possible_updates() {
            assert_ne!(state.table().cell(update.tuple, update.attr), &update.value);
        }
    }

    #[test]
    fn refresh_discards_suggestions_for_clean_tuples() {
        let mut state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        assert!(state.pending_count() > 0);
        // Repair the tuple out-of-band, then refresh.
        state
            .force_value(0, 2, Value::from("Michigan City"), ChangeSource::Heuristic)
            .unwrap();
        state.refresh_updates();
        assert_eq!(state.pending_count(), 0);
        assert!(state.invariants_hold());
    }

    #[test]
    fn refresh_generates_for_newly_dirty_tuples() {
        let mut state = state_with_rows(&[
            ["H1", "Main St", "Michigan City", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
        ]);
        assert_eq!(state.pending_count(), 0);
        // An out-of-band change makes t0 dirty (wrong city for 46360).
        state
            .force_value(0, 2, Value::from("Fort Wayne"), ChangeSource::Heuristic)
            .unwrap();
        state.refresh_updates();
        assert!(state.pending_count() > 0);
        assert!(state.pending_update((0, 2)).is_some());
    }

    #[test]
    fn write_damage_is_queued_and_drained_by_refresh() {
        let mut state = state_with_rows(&[
            ["H2", "Main St", "Westville", "IN", "46360"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
        ]);
        state.refresh_updates();
        assert!(state.revisit_queue.is_empty());
        // A write queues the damage fan-out: at least the written tuple's own
        // cells and its conflict partner's.
        state
            .force_value(2, 4, Value::from("46825"), ChangeSource::Heuristic)
            .unwrap();
        assert!(state.revisit_queue.iter().any(|&(t, _)| t == 2));
        assert!(state.revisit_queue.iter().any(|&(t, _)| t == 1));
        let mut oracle = state.clone();
        state.refresh_updates();
        oracle.refresh_updates_full();
        assert!(state.revisit_queue.is_empty());
        assert_eq!(
            state.possible_updates_sorted(),
            oracle.possible_updates_sorted()
        );
        assert!(state.invariants_hold());
    }

    #[test]
    fn rejecting_all_candidates_leaves_no_suggestion() {
        let mut state = state_with_rows(&[["H2", "Main St", "Michigan Cty", "IN", "46360"]]);
        // Reject every suggestion the generator can come up with for t0[CT].
        for _ in 0..10 {
            let Some(update) = state.pending_update((0, 2)).cloned() else {
                break;
            };
            state
                .apply_feedback(&update, Feedback::Reject, ChangeSource::UserConfirmed)
                .unwrap();
        }
        // Eventually the generator runs out of admissible values for the cell.
        assert!(state.pending_update((0, 2)).is_none());
        assert!(state.invariants_hold());
    }

    #[test]
    fn scores_are_within_bounds() {
        let state = state_with_rows(&[
            ["H2", "Main St", "Westville", "IN", "46360"],
            ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
            ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
        ]);
        for update in state.possible_updates() {
            assert!(update.score >= 0.0 && update.score <= 1.0);
        }
    }
}
