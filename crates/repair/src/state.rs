//! The mutable repair context shared by update generation, the consistency
//! manager, and the GDR session loop.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use gdr_cfd::{RuleId, RuleSet, RuleStats, ViolationEngine};
use gdr_relation::codec::{self, Dec, Enc, State};
use gdr_relation::{AttrId, Table, TupleId, Value, ValueId};

use crate::index_pool::AttrIndexPool;
use crate::update::{Cell, Update};
use crate::Result;

/// Outcome of applying one piece of feedback through the consistency manager.
#[derive(Debug, Clone, Default)]
pub struct FeedbackOutcome {
    /// Cells written to the database, in write order (the confirmed update
    /// itself plus any cascade repairs forced by step 3(a)i of Appendix A.5).
    pub applied: Vec<Cell>,
    /// Cells whose candidate updates were discarded and regenerated because
    /// they depended on modified data (the `RevisitList` of Appendix A.5).
    pub revisited: Vec<Cell>,
}

/// The repair state: database instance, violation engine, `PossibleUpdates`,
/// `preventedList`, and `Changeable` flags (§3 and Appendix A.4–A.5).
///
/// `RepairState` owns the [`Table`] so that every mutation is forced through
/// the consistency manager and the incremental violation engine stays in sync
/// with the data.  It keeps no history of writes: each [`FeedbackOutcome`]
/// names the cells its feedback wrote, and a session's journal of answers
/// is the record of how the data got here.
#[derive(Debug, Clone)]
pub struct RepairState {
    pub(crate) table: Table,
    pub(crate) engine: ViolationEngine,
    /// At most one pending suggestion per cell, keyed by `(tuple, attr)`.
    pub(crate) possible: HashMap<Cell, Update>,
    /// Values confirmed to be wrong for a cell (`⟨t, B⟩.preventedList`),
    /// stored as interned ids of the cell's attribute.  Prevented values are
    /// interned on insertion, so membership tests are integer hashing.
    pub(crate) prevented: HashMap<Cell, HashSet<ValueId>>,
    /// Cells confirmed to be correct (`⟨t, B⟩.Changeable = false`).
    pub(crate) unchangeable: HashSet<Cell>,
    /// The net suggestion delta since the ranker last synced: for each cell
    /// whose suggestion changed, the suggestion it held at that sync.
    /// Drained by [`RepairState::take_suggestion_delta`]; not checkpointed.
    pub(crate) suggestion_delta: BTreeMap<Cell, Option<Update>>,
    /// One incrementally-maintained agreement index per distinct
    /// `attrs(φ) − {B}` subset, powering `getValueForLHS` probes and the
    /// write-damage fan-out's cohabitant lookups.
    pub(crate) pool: AttrIndexPool,
    /// Cells whose candidate sets may have changed since the last
    /// [`RepairState::refresh_updates`] — the write-damage fan-out computed
    /// at write time, drained by the refresh.  Independent of the suggestion
    /// delta: [`RepairState::take_suggestion_delta`] never touches it.
    pub(crate) revisit_queue: BTreeSet<Cell>,
}

impl RepairState {
    /// Builds the repair state: constructs the violation engine, identifies
    /// the dirty tuples, and generates the initial `PossibleUpdates` list
    /// (step 1 of the GDR process).
    pub fn new(table: Table, ruleset: &RuleSet) -> RepairState {
        let engine = ViolationEngine::build(&table, ruleset);
        let pool = AttrIndexPool::build(&table, ruleset);
        let mut state = RepairState {
            table,
            engine,
            possible: HashMap::new(),
            prevented: HashMap::new(),
            unchangeable: HashSet::new(),
            suggestion_delta: BTreeMap::new(),
            pool,
            revisit_queue: BTreeSet::new(),
        };
        state.generate_initial_updates();
        state
    }

    /// The current database instance.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The violation engine over the current instance.
    pub fn engine(&self) -> &ViolationEngine {
        &self.engine
    }

    /// The rule set driving the repairs.
    pub fn ruleset(&self) -> &RuleSet {
        self.engine.ruleset()
    }

    /// Tuples violating at least one rule, in ascending id order.
    pub fn dirty_tuples(&self) -> Vec<TupleId> {
        self.engine.dirty_tuples()
    }

    /// Iterates the pending candidate updates (the `PossibleUpdates` list).
    pub fn possible_updates(&self) -> impl Iterator<Item = &Update> {
        self.possible.values()
    }

    /// The pending updates as a vector sorted by `(tuple, attr)` for
    /// deterministic downstream processing.
    pub fn possible_updates_sorted(&self) -> Vec<Update> {
        let mut updates: Vec<Update> = self.possible.values().cloned().collect();
        updates.sort_by_key(|u| (u.tuple, u.attr));
        updates
    }

    /// Number of pending candidate updates.
    pub fn pending_count(&self) -> usize {
        self.possible.len()
    }

    /// The pending update for one cell, if any.
    pub fn pending_update(&self, cell: Cell) -> Option<&Update> {
        self.possible.get(&cell)
    }

    /// `⟨t, B⟩.Changeable`: `false` once the cell has been confirmed correct.
    pub fn is_changeable(&self, cell: Cell) -> bool {
        !self.unchangeable.contains(&cell)
    }

    /// Returns `true` when `value` was already confirmed wrong for the cell.
    ///
    /// A value never interned for the cell's attribute cannot have been
    /// prevented (prevention interns), so an absent dictionary entry is a
    /// definitive `false`.
    pub fn is_prevented(&self, cell: Cell, value: &Value) -> bool {
        match self.table.lookup_id(cell.1, value) {
            Some(id) => self.is_prevented_id(cell, id),
            None => false,
        }
    }

    /// Id-space variant of [`RepairState::is_prevented`] for the update
    /// generator's hot path.
    pub(crate) fn is_prevented_id(&self, cell: Cell, id: ValueId) -> bool {
        self.prevented
            .get(&cell)
            .map(|set| set.contains(&id))
            .unwrap_or(false)
    }

    /// Total violation count of the current instance (`vio(D, Σ)`).
    pub fn total_violations(&self) -> usize {
        self.engine.total_violations()
    }

    /// Per-rule statistics of the current instance.
    pub fn rule_stats(&self, rule: RuleId) -> RuleStats {
        self.engine.rule_stats(rule)
    }

    /// Ids of the rules involving an attribute, without allocating.
    pub fn rules_involving(&self, attr: AttrId) -> &[RuleId] {
        self.engine.rules_involving(attr)
    }

    /// The change stamp of one rule's statistics (see
    /// [`ViolationEngine::stats_generation`]).
    pub fn stats_generation(&self, rule: RuleId) -> u64 {
        self.engine.stats_generation(rule)
    }

    /// The combined change stamp of the rules involving `attr` — the validity
    /// key for caches of attribute-local what-if results (see
    /// [`ViolationEngine::attr_stats_generation`]).
    pub fn attr_stats_generation(&self, attr: AttrId) -> u64 {
        self.engine.attr_stats_generation(attr)
    }

    /// Drains the suggestion delta: every cell whose suggestion now differs
    /// from the one it held at the previous take, paired with that old
    /// suggestion, in ascending cell order.  A cell that changed and changed
    /// back is left out.  The current suggestion is
    /// [`RepairState::pending_update`].
    pub fn take_suggestion_delta(&mut self) -> Vec<(Cell, Option<Update>)> {
        let possible = &self.possible;
        std::mem::take(&mut self.suggestion_delta)
            .into_iter()
            .filter(|(cell, old)| old.as_ref() != possible.get(cell))
            .collect()
    }

    /// Records a database write: propagates it into the agreement-index
    /// pool and queues the write's *damage* — every cell whose candidate set
    /// the write may have changed — for the next
    /// [`RepairState::refresh_updates`].  `old_id` is the id the cell held
    /// before the (already applied) write.
    pub(crate) fn note_cell_change(&mut self, tuple: TupleId, attr: AttrId, old_id: ValueId) {
        self.pool.note_cell_write(&self.table, tuple, attr, old_id);
        self.queue_write_damage(tuple, attr, old_id);
    }

    /// Computes which cells a write to `t[attr]` can have perturbed and adds
    /// them to the revisit queue.  Cost is proportional to the sizes of the
    /// agreement groups the written tuple left and joined, not to the table.
    ///
    /// The damage of a write decomposes into:
    ///
    /// 1. **The written tuple itself** — its violated-rule list changed, so
    ///    every one of its cells may gain, lose, or change a suggestion.
    /// 2. **Dirty-status cohabitants** — for each *variable* rule involving
    ///    `attr`, the members of the written tuple's old and new LHS
    ///    agreement groups: their violation status (and with it the
    ///    scenario-2 partner sets) may have flipped, which can perturb the
    ///    suggestion of *any* of their cells.
    /// 3. **Candidate cohabitants** — for each rule `φ` involving `attr` and
    ///    each `B ∈ LHS(φ)`, the tuples agreeing with the written tuple on
    ///    `attrs(φ) − {B}` (old or new projection): their `getValueForLHS`
    ///    candidate pool for `B` drew, or now draws, on the written tuple.
    ///    Members that do not violate `φ` are pruned: Algorithm 1 consults a
    ///    rule's scenarios only for tuples violating it, and any member whose
    ///    violation status the write flipped is already queued by (2).
    ///
    /// The pruning in (3) asks [`ViolationEngine::tuple_violates`] once per
    /// member, which is one bit read in the rule's violation index, so the
    /// walk hashes only to find the groups, never per member.
    fn queue_write_damage(&mut self, tuple: TupleId, attr: AttrId, old_id: ValueId) {
        let RepairState {
            table,
            engine,
            pool,
            revisit_queue,
            ..
        } = self;
        let arity = table.schema().arity();
        for b in 0..arity {
            revisit_queue.insert((tuple, b));
        }
        for &rule_id in engine.rules_involving(attr) {
            let rule = engine.ruleset().rule(rule_id);
            if !rule.is_constant() {
                let new_key = table.project_key(tuple, rule.lhs());
                for member in engine.group_members(rule_id, &new_key) {
                    for b in 0..arity {
                        revisit_queue.insert((member, b));
                    }
                }
                if rule.lhs().contains(&attr) {
                    let old_key = table.project_key_with(tuple, rule.lhs(), attr, old_id);
                    if old_key != new_key {
                        for member in engine.group_members(rule_id, &old_key) {
                            for b in 0..arity {
                                revisit_queue.insert((member, b));
                            }
                        }
                    }
                }
            }
            for (pos, &b_attr) in rule.lhs().iter().enumerate() {
                let index = pool.lhs_index(rule_id, pos);
                let new_key = table.project_key(tuple, index.attrs());
                for &member in index.get_key(&new_key) {
                    if engine.tuple_violates(rule_id, member) {
                        revisit_queue.insert((member, b_attr));
                    }
                }
                if b_attr != attr {
                    // The written attribute is part of the agreement subset,
                    // so the tuple may have left a different group whose
                    // members also drew on it.
                    let old_key = table.project_key_with(tuple, index.attrs(), attr, old_id);
                    if old_key != new_key {
                        for &member in index.get_key(&old_key) {
                            if engine.tuple_violates(rule_id, member) {
                                revisit_queue.insert((member, b_attr));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Per-rule statistics *if* the candidate update were applied, restricted
    /// to the rules that can be affected (those involving the update's
    /// attribute).  This is the primitive the VOI gain formula consumes.
    pub fn what_if_stats(&mut self, update: &Update) -> Result<Vec<(RuleId, RuleStats)>> {
        self.engine
            .stats_if(&mut self.table, update.tuple, update.attr, &update.value)
    }

    /// [`RepairState::what_if_stats`] plus the validity guards the VOI
    /// benefit cache stores (see [`ViolationEngine::stats_if_guarded`]).
    pub fn what_if_stats_guarded(&mut self, update: &Update) -> Result<gdr_cfd::GuardedWhatIf> {
        self.engine
            .stats_if_guarded(&mut self.table, update.tuple, update.attr, &update.value)
    }

    /// Single-rule variant of [`RepairState::what_if_stats_guarded`] (see
    /// [`ViolationEngine::stats_if_rule_guarded`]).
    pub fn what_if_rule_guarded(
        &mut self,
        update: &Update,
        rule: RuleId,
    ) -> Result<(RuleStats, Vec<(gdr_relation::SmallKey, u64)>)> {
        self.engine.stats_if_rule_guarded(
            &mut self.table,
            update.tuple,
            update.attr,
            &update.value,
            rule,
        )
    }

    /// The change stamp of one row (see [`ViolationEngine::row_generation`]).
    pub fn row_generation(&self, tuple: TupleId) -> u64 {
        self.engine.row_generation(tuple)
    }

    /// The change stamp of one agreement group (see
    /// [`ViolationEngine::group_generation`]).
    pub fn group_generation(&self, rule: RuleId, key: &gdr_relation::SmallKey) -> u64 {
        self.engine.group_generation(rule, key)
    }

    /// Applies a cell change directly (bypassing feedback semantics), keeping
    /// the engine in sync.  Used by the automatic heuristic baseline and by
    /// cascade repairs.
    pub fn force_value(&mut self, tuple: TupleId, attr: AttrId, value: Value) -> Result<()> {
        let old_id = self
            .engine
            .apply_cell_change(&mut self.table, tuple, attr, value)?;
        self.note_cell_change(tuple, attr, old_id);
        self.drop_pending((tuple, attr));
        Ok(())
    }

    /// Removes the pending update for a cell, if any, noting the cell's
    /// old suggestion in the delta.
    pub(crate) fn drop_pending(&mut self, cell: Cell) {
        if let Some(old) = self.possible.remove(&cell) {
            self.suggestion_delta.entry(cell).or_insert(Some(old));
        }
    }

    /// Records a suggestion in the `PossibleUpdates` list (replacing any
    /// previous suggestion for the same cell), noting the cell's old
    /// suggestion in the delta.  Re-recording an identical suggestion is a
    /// no-op.
    pub(crate) fn record_suggestion(&mut self, update: Update) {
        let cell = update.cell();
        if self.possible.get(&cell) == Some(&update) {
            return;
        }
        let old = self.possible.insert(cell, update);
        self.suggestion_delta.entry(cell).or_insert(old);
    }

    /// Marks a cell as confirmed-correct.
    pub(crate) fn mark_unchangeable(&mut self, cell: Cell) {
        self.unchangeable.insert(cell);
        self.drop_pending(cell);
        self.revisit_queue.insert(cell);
    }

    /// Adds a value to a cell's prevented list (interning it into the cell's
    /// attribute dictionary so later membership tests are id comparisons).
    pub(crate) fn mark_prevented(&mut self, cell: Cell, value: Value) {
        let id = self.table.intern_value(cell.1, value);
        self.prevented.entry(cell).or_default().insert(id);
        self.revisit_queue.insert(cell);
    }

    /// Checks the two consistency-manager invariants of Appendix A.5 against
    /// the current state; used by tests and debug assertions.
    ///
    /// 1. Every tuple that violates some rule is reported dirty (guaranteed
    ///    by construction since dirtiness is derived from the engine, so this
    ///    checks the engine against a rebuild), and
    /// 2. no pending update targets an unchangeable cell, suggests a
    ///    prevented value, or suggests the value the cell already holds.
    pub fn invariants_hold(&self) -> bool {
        if !self.engine.agrees_with_rebuild(&self.table) {
            return false;
        }
        self.possible.iter().all(|(cell, update)| {
            !self.unchangeable.contains(cell)
                && !self.is_prevented(*cell, &update.value)
                && self.table.cell(update.tuple, update.attr) != &update.value
        })
    }
}

/// The full repair context.  Maps and sets are written in sorted key order
/// so behaviourally identical states encode byte-identically across
/// processes.  The ranker's suggestion delta is not state: a decoded
/// context starts with none.
impl State for RepairState {
    const MIN_BYTES: usize = codec::section_bytes("repair", 3) + Table::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("repair", 3);
        enc.put(&self.table);
        self.engine.encode_state(enc);
        enc.put(&self.possible);
        enc.put(&self.prevented);
        enc.put(&self.unchangeable);
        enc.put(&self.pool);
        enc.put(&self.revisit_queue);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<RepairState> {
        dec.section("repair", 3)?;
        let table: Table = dec.get()?;
        let engine = ViolationEngine::decode_state(dec, &table)?;
        Ok(RepairState {
            table,
            engine,
            possible: dec.get()?,
            prevented: dec.get()?,
            unchangeable: dec.get()?,
            suggestion_delta: BTreeMap::new(),
            pool: dec.get()?,
            revisit_queue: dec.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Feedback;
    use gdr_cfd::parser;
    use gdr_relation::Schema;

    fn fixture() -> RepairState {
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
        table
            .push_text_row(&["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"])
            .unwrap();
        let rules = RuleSet::new(
            parser::parse_rules(
                &schema,
                "ZIP -> CT, STT : 46360 || Michigan City, IN\nSTR, CT -> ZIP : _, Fort Wayne || _\n",
            )
            .unwrap(),
        );
        RepairState::new(table, &rules)
    }

    #[test]
    fn initial_state_identifies_dirty_tuples_and_updates() {
        let state = fixture();
        assert_eq!(state.dirty_tuples(), vec![1, 2, 3]);
        assert!(state.pending_count() > 0);
        assert!(state.invariants_hold());
    }

    #[test]
    fn pending_updates_are_per_cell() {
        let state = fixture();
        // t1's city should have a suggestion toward the constant rule.
        let update = state.pending_update((1, 2)).expect("suggestion for t1[CT]");
        assert_eq!(update.value, Value::from("Michigan City"));
        assert!(update.score >= 0.0 && update.score <= 1.0);
    }

    #[test]
    fn force_value_applies_the_write() {
        let mut state = fixture();
        assert_eq!(state.table().cell(1, 2), &Value::from("Westville"));
        state
            .force_value(1, 2, Value::from("Michigan City"))
            .unwrap();
        assert_eq!(state.table().cell(1, 2), &Value::from("Michigan City"));
        assert!(state.pending_update((1, 2)).is_none());
        assert!(!state.dirty_tuples().contains(&1));
    }

    #[test]
    fn what_if_does_not_mutate() {
        let mut state = fixture();
        let update = Update::new(1, 2, Value::from("Michigan City"), 0.5);
        let before = state.table().clone();
        let stats = state.what_if_stats(&update).unwrap();
        assert!(!stats.is_empty());
        assert_eq!(before.diff_cells(state.table()).unwrap(), vec![]);
        assert!(state.invariants_hold());
    }

    #[test]
    fn changeable_and_prevented_flags() {
        let mut state = fixture();
        assert!(state.is_changeable((1, 2)));
        state.mark_unchangeable((1, 2));
        assert!(!state.is_changeable((1, 2)));
        assert!(state.pending_update((1, 2)).is_none());

        assert!(!state.is_prevented((3, 4), &Value::from("46825")));
        state.mark_prevented((3, 4), Value::from("46825"));
        assert!(state.is_prevented((3, 4), &Value::from("46825")));
    }

    #[test]
    fn journal_records_writes_and_suggestion_churn() {
        let mut state = fixture();
        // Construction recorded every initial suggestion into the delta, each
        // against an empty cell.
        assert_eq!(state.suggestion_delta.len(), state.pending_count());
        assert!(state.suggestion_delta.values().all(Option::is_none));

        // Taking hands the delta over and leaves it empty.
        let delta = state.take_suggestion_delta();
        assert_eq!(delta.len(), state.pending_count());
        assert!(state.suggestion_delta.is_empty());

        // A write records the retired suggestion of the written cell.
        let old = state.pending_update((1, 2)).cloned();
        assert!(old.is_some());
        state
            .force_value(1, 2, Value::from("Michigan City"))
            .unwrap();
        assert_eq!(state.suggestion_delta.get(&(1, 2)), Some(&old));
    }

    /// Applies one take of the delta to a replica of `PossibleUpdates`: each
    /// handed-over cell's old suggestion must be the replica's, and the
    /// cell's current suggestion replaces it.
    fn apply_take(replayed: &mut HashMap<Cell, Update>, state: &mut RepairState) {
        for (cell, old) in state.take_suggestion_delta() {
            assert_eq!(
                replayed.get(&cell),
                old.as_ref(),
                "old suggestion of {cell:?}"
            );
            match state.pending_update(cell) {
                Some(update) => replayed.insert(cell, update.clone()),
                None => replayed.remove(&cell),
            };
        }
    }

    #[test]
    fn replaying_suggestion_events_reconstructs_the_pending_list() {
        let mut state = fixture();
        let mut replayed: HashMap<Cell, Update> = HashMap::new();
        apply_take(&mut replayed, &mut state);
        assert_eq!(replayed, state.possible);

        // Drive a few feedback rounds and keep applying the deltas.  Every
        // suggestion change happens at a cell the round touched: the answered
        // cell, the cells written, the cells the consistency manager
        // revisited, or the cells the refresh drained from its queue.  The
        // delta holds at most one entry per such cell.
        for _ in 0..4 {
            let Some(update) = state.possible_updates_sorted().into_iter().next() else {
                break;
            };
            let outcome = state.apply_feedback(&update, Feedback::Confirm).unwrap();
            let mut touched: BTreeSet<Cell> = outcome.revisited.iter().copied().collect();
            touched.insert(update.cell());
            touched.extend(outcome.applied.iter().copied());
            touched.extend(state.revisit_queue.iter().copied());
            state.refresh_updates();
            assert!(state.suggestion_delta.len() <= touched.len());
            assert!(state.suggestion_delta.keys().all(|c| touched.contains(c)));
            apply_take(&mut replayed, &mut state);
            assert_eq!(replayed, state.possible);
        }
    }

    #[test]
    fn a_cell_that_changes_back_takes_as_empty() {
        let mut state = fixture();
        state.take_suggestion_delta();
        let x = state
            .pending_update((1, 2))
            .cloned()
            .expect("t1[CT] suggestion");
        let y = Update::new(1, 2, Value::from("Fort Wayne"), 0.25);

        // X → Y → X, X → none → X, and none → Y → none all net to nothing.
        state.record_suggestion(y.clone());
        state.record_suggestion(x.clone());
        state.drop_pending((1, 2));
        state.record_suggestion(x.clone());
        let empty = (0, 1);
        assert!(state.pending_update(empty).is_none());
        state.record_suggestion(Update::new(0, 1, Value::from("Main St"), 0.5));
        state.drop_pending(empty);
        assert_eq!(state.suggestion_delta.len(), 2);
        assert!(state.take_suggestion_delta().is_empty());

        // X → Y → Z hands over X once.
        state.record_suggestion(y);
        state.record_suggestion(Update::new(1, 2, Value::from("Westville"), 0.75));
        assert_eq!(state.take_suggestion_delta(), vec![((1, 2), Some(x))]);
    }

    #[test]
    fn what_if_does_not_touch_journal_or_generations() {
        let mut state = fixture();
        state.take_suggestion_delta();
        let gens: Vec<u64> = (0..state.ruleset().len())
            .map(|r| state.stats_generation(r))
            .collect();
        let update = Update::new(1, 2, Value::from("Michigan City"), 0.5);
        state.what_if_stats(&update).unwrap();
        assert!(state.suggestion_delta.is_empty());
        let after: Vec<u64> = (0..state.ruleset().len())
            .map(|r| state.stats_generation(r))
            .collect();
        assert_eq!(gens, after);
    }

    fn encode(state: &RepairState) -> Vec<u8> {
        let mut enc = Enc::new();
        state.encode_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn codec_round_trip_is_bit_identical_and_live() {
        let mut state = fixture();
        // Exercise every serialised component: a write, feedback bookkeeping,
        // and prevented/unchangeable flags.  The suggestion delta left
        // untaken is not serialised.
        state
            .force_value(1, 2, Value::from("Michigan City"))
            .unwrap();
        state.mark_prevented((3, 4), Value::from("46111"));
        state.mark_unchangeable((0, 0));
        state.take_suggestion_delta();
        let update = state.possible_updates_sorted().into_iter().next().unwrap();
        state.apply_feedback(&update, Feedback::Confirm).unwrap();

        let bytes = encode(&state);
        let mut dec = Dec::new(&bytes);
        let mut restored = RepairState::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(encode(&restored), bytes);
        assert!(restored.invariants_hold());
        assert_eq!(restored.dirty_tuples(), state.dirty_tuples());
        assert_eq!(
            restored.possible_updates_sorted(),
            state.possible_updates_sorted()
        );
        assert!(!state.suggestion_delta.is_empty());
        assert!(restored.suggestion_delta.is_empty());

        // Both continue identically through another feedback round.
        for s in [&mut state, &mut restored] {
            s.refresh_updates();
            if let Some(u) = s.possible_updates_sorted().into_iter().next() {
                s.apply_feedback(&u, Feedback::Reject).unwrap();
                s.refresh_updates();
            }
        }
        assert_eq!(encode(&restored), encode(&state));
    }

    #[test]
    fn codec_rejects_corrupt_repair_payloads() {
        let state = fixture();
        let bytes = encode(&state);
        for cut in (0..bytes.len()).step_by(7) {
            let mut dec = Dec::new(&bytes[..cut]);
            let result = RepairState::decode_state(&mut dec).and_then(|_| dec.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn sorted_updates_are_deterministic() {
        let state = fixture();
        let a = state.possible_updates_sorted();
        let b = state.possible_updates_sorted();
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| (w[0].tuple, w[0].attr) <= (w[1].tuple, w[1].attr)));
    }
}
