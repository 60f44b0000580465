//! Incremental CFD violation detection over interned ids.
//!
//! The [`ViolationEngine`] maintains, for every rule of a [`RuleSet`], enough
//! state to answer in (amortised) constant time the quantities the GDR
//! framework needs at every step of its interactive loop:
//!
//! * which tuples are **dirty** (violate at least one rule) — step 1 and step
//!   9 of the GDR process (Procedure 1),
//! * the per-tuple violation count `vio(t, {φ})` of **Definition 1** —
//!   `1` for a violated constant CFD and the number of conflicting partner
//!   tuples for a variable CFD.  Every tuple weighs 1: the paper's optional
//!   per-tuple business weight is not modelled (only the rule weights `w_i`
//!   scale the loss),
//! * the per-rule aggregates used by the VOI formula (Eq. 2–6):
//!   `vio(D, {φ})`, the number of satisfying tuples `|D ⊨ φ|`, and the
//!   context size `|D(φ)|` that defines the default rule weights,
//! * **what-if** evaluation: the same aggregates under a hypothetical
//!   single-cell change, computed by applying the change, reading the
//!   affected rules, and reverting — each step touching only the agreement
//!   groups of the changed tuple.
//!
//! ## Everything below the boundary is a [`ValueId`]
//!
//! The engine works entirely in interned-id space: agreement groups of a
//! variable CFD are keyed by [`SmallKey`]s (inline arrays of the LHS ids, no
//! allocation for rules of up to 4 LHS attributes), group members are
//! bucketed by RHS [`ValueId`], and pattern constants are resolved to ids
//! once and cached.  [`ViolationEngine::apply_cell_change_id`] and
//! [`ViolationEngine::stats_if`] therefore hash and compare only integers —
//! no `String` is cloned, hashed, or even looked at on those paths.
//!
//! The constant-resolution cache is keyed on [`Table::dict_generation`],
//! which moves only when a *new distinct value* enters a column; pattern
//! constants are re-hashed only then.  A constant absent from a column's
//! dictionary can equal no cell (every cell's value is interned), so it
//! resolves to `ResolvedEntry::Absent` and all comparisons against it are
//! `false` — and because dictionaries are append-only, a binding, once made,
//! never changes.
//!
//! Variable CFDs are handled with per-rule hash groups keyed by the LHS
//! projection of the tuples in the rule's context.  For a group with member
//! multiset `{v → c_v}` over RHS values, the pairwise violation count of
//! Definition 1 is `total² − Σ_v c_v²` and the group's tuples all satisfy the
//! rule iff the group holds a single distinct RHS value.

use std::collections::{HashMap, HashSet};

use gdr_relation::codec::{self, CodecError, Dec, Enc};
use gdr_relation::{AttrId, SmallKey, Table, TupleId, Value, ValueId};

use crate::pattern::PatternValue;
use crate::rule::{Cfd, RuleId};
use crate::ruleset::RuleSet;
use crate::Result;

/// Aggregate statistics of one rule over the current database instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// `vio(D, {φ})` — the total violation count of Definition 1.
    pub violations: usize,
    /// `|D ⊨ φ|` — the number of tuples satisfying the rule.
    pub satisfying: usize,
    /// `|D(φ)|` — the number of tuples in the rule's context
    /// (`t[X] ≍ tp[X]`).
    pub context: usize,
}

/// Result of [`ViolationEngine::stats_if_guarded`]: the hypothetical
/// statistics plus the validity guards of the evaluation.
#[derive(Debug, Clone)]
pub struct GuardedWhatIf {
    /// `(rule, stats-if-applied)` for every rule involving the changed
    /// attribute, in `rules_involving` order.
    pub stats: Vec<(RuleId, RuleStats)>,
    /// Aligned with `stats`: the agreement-group keys the change touches in
    /// each variable rule, with their generations at evaluation time (empty
    /// for constant rules).
    pub touched_groups: Vec<Vec<(SmallKey, u64)>>,
}

/// A pattern entry resolved against a table's dictionaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedEntry {
    /// The `'−'` wildcard: matches every cell.
    Wildcard,
    /// A constant bound to its interned id: matches cells holding that id.
    Const(ValueId),
    /// A constant that has never occurred in the column: matches no cell.
    Absent,
}

impl ResolvedEntry {
    #[inline]
    fn matches(self, cell: ValueId) -> bool {
        match self {
            ResolvedEntry::Wildcard => true,
            ResolvedEntry::Const(id) => id == cell,
            ResolvedEntry::Absent => false,
        }
    }
}

/// One rule's pattern resolved to id space.
#[derive(Debug, Clone)]
struct ResolvedRule {
    /// Aligned with the rule's LHS attribute list.
    lhs: Vec<ResolvedEntry>,
    /// The RHS constant for constant rules; `Wildcard` for variable rules.
    rhs: ResolvedEntry,
}

impl ResolvedRule {
    fn resolve(rule: &Cfd, table: &Table) -> ResolvedRule {
        let resolve_entry = |attr: AttrId, entry: &PatternValue| match entry {
            PatternValue::Wildcard => ResolvedEntry::Wildcard,
            PatternValue::Const(value) => match table.lookup_id(attr, value) {
                Some(id) => ResolvedEntry::Const(id),
                None => ResolvedEntry::Absent,
            },
        };
        ResolvedRule {
            lhs: rule
                .lhs()
                .iter()
                .zip(rule.lhs_pattern())
                .map(|(&attr, entry)| resolve_entry(attr, entry))
                .collect(),
            rhs: resolve_entry(rule.rhs(), rule.rhs_pattern()),
        }
    }

    /// `t[X] ≍ tp[X]` in id space.
    #[inline]
    fn in_context(&self, table: &Table, tuple: TupleId, lhs: &[AttrId]) -> bool {
        lhs.iter()
            .zip(&self.lhs)
            .all(|(&attr, entry)| entry.matches(table.cell_id(tuple, attr)))
    }
}

/// A dense set of tuple ids, one bit per row: the per-rule violation index
/// that [`ViolationEngine::tuple_violates`], [`ViolationEngine::is_dirty`],
/// [`ViolationEngine::violating_tuples`] and
/// [`ViolationEngine::dirty_tuples`] read.  Membership is a word read and a
/// mask, with no hashing, and iteration yields ids in ascending order.
/// Inserting past the end grows the set, so rows appended later need no
/// separate resize.
#[derive(Debug, Clone, Default)]
struct TupleBits {
    words: Vec<u64>,
}

impl TupleBits {
    /// An empty set with room for ids `0..rows`.
    fn with_rows(rows: usize) -> TupleBits {
        TupleBits {
            words: vec![0; rows.div_ceil(64)],
        }
    }

    #[inline]
    fn contains(&self, tuple: TupleId) -> bool {
        self.words
            .get(tuple / 64)
            .is_some_and(|word| word >> (tuple % 64) & 1 == 1)
    }

    /// Adds `tuple`; `true` when it was not already present.
    #[inline]
    fn insert(&mut self, tuple: TupleId) -> bool {
        let at = tuple / 64;
        if at >= self.words.len() {
            self.words.resize(at + 1, 0);
        }
        let mask = 1 << (tuple % 64);
        let fresh = self.words[at] & mask == 0;
        self.words[at] |= mask;
        fresh
    }

    /// Removes `tuple`; `true` when it was present.
    #[inline]
    fn remove(&mut self, tuple: TupleId) -> bool {
        let Some(word) = self.words.get_mut(tuple / 64) else {
            return false;
        };
        let mask = 1 << (tuple % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Adds every member of `other`.
    fn union_with(&mut self, other: &TupleBits) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, &more) in self.words.iter_mut().zip(&other.words) {
            *word |= more;
        }
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(at * 64 + bit)
            })
        })
    }
}

/// State kept for a constant CFD.
#[derive(Debug, Clone, Default)]
struct ConstState {
    /// The tuples in context whose RHS misses the pattern constant.  This
    /// is the rule's state, so what-ifs maintain it too: each flips one bit
    /// and flips it back.
    violating: TupleBits,
    /// `violating`'s size, which is the rule's `vio(D, {φ})`.
    violations: usize,
    context: usize,
}

/// One LHS agreement group of a variable CFD.
#[derive(Debug, Clone, Default)]
struct Group {
    /// Members bucketed by their RHS value id.
    members_by_rhs: HashMap<ValueId, HashSet<TupleId>>,
    /// Total number of members (= Σ bucket sizes).
    total: usize,
}

impl Group {
    /// A group violates its rule iff it holds two distinct RHS values, and
    /// then every member violates it.
    fn violating(&self) -> bool {
        self.members_by_rhs.len() > 1
    }

    fn members(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.members_by_rhs.values().flatten().copied()
    }

    fn vio(&self) -> usize {
        let sum_sq: usize = self
            .members_by_rhs
            .values()
            .map(|m| m.len() * m.len())
            .sum();
        self.total * self.total - sum_sq
    }

    fn satisfying(&self) -> usize {
        if self.members_by_rhs.len() <= 1 {
            self.total
        } else {
            0
        }
    }

    fn insert(&mut self, rhs: ValueId, tuple: TupleId) {
        self.members_by_rhs.entry(rhs).or_default().insert(tuple);
        self.total += 1;
    }

    fn remove(&mut self, rhs: ValueId, tuple: TupleId) {
        if let Some(bucket) = self.members_by_rhs.get_mut(&rhs) {
            if bucket.remove(&tuple) {
                self.total -= 1;
                if bucket.is_empty() {
                    self.members_by_rhs.remove(&rhs);
                }
            }
        }
    }

    fn rhs_count(&self, rhs: ValueId) -> usize {
        self.members_by_rhs.get(&rhs).map(|m| m.len()).unwrap_or(0)
    }
}

/// State kept for a variable CFD.
#[derive(Debug, Clone, Default)]
struct VarState {
    /// LHS projection key of every tuple currently in the rule's context.
    tuple_key: HashMap<TupleId, SmallKey>,
    groups: HashMap<SmallKey, Group>,
    /// Cached Σ over groups of `vio(group)`.
    total_vio: usize,
    /// Cached Σ over single-RHS groups of their size.
    satisfying_in_context: usize,
    /// Cached Σ over groups of their size (= context size).
    context: usize,
    /// Change stamp per agreement-group key, moved whenever the group's
    /// membership or bucket structure changes by a *real* mutation.  Keys are
    /// never removed, so a stamp survives the group emptying and re-forming —
    /// downstream caches compare stamps for equality only.
    group_generation: HashMap<SmallKey, u64>,
    /// The members of every group holding two or more RHS values.  Derived
    /// from `groups`, and left untouched by what-ifs: their round trip
    /// restores the groups exactly, so the bits stay right.
    violating: TupleBits,
}

impl VarState {
    /// Removes a group's cached contribution before mutating it.  Takes the
    /// logical id slice so hot paths can probe with a scratch buffer.
    fn retract(&mut self, key: &[ValueId]) {
        if let Some(group) = self.groups.get(key) {
            self.total_vio -= group.vio();
            self.satisfying_in_context -= group.satisfying();
            self.context -= group.total;
        }
    }

    /// Re-adds a group's contribution after mutation, dropping empty groups.
    fn restore(&mut self, key: &[ValueId]) {
        let remove = if let Some(group) = self.groups.get(key) {
            if group.total == 0 {
                true
            } else {
                self.total_vio += group.vio();
                self.satisfying_in_context += group.satisfying();
                self.context += group.total;
                false
            }
        } else {
            false
        };
        if remove {
            self.groups.remove(key);
        }
    }
}

#[derive(Debug, Clone)]
enum RuleState {
    Constant(ConstState),
    Variable(VarState),
}

impl RuleState {
    fn violating(&self) -> &TupleBits {
        match self {
            RuleState::Constant(state) => &state.violating,
            RuleState::Variable(state) => &state.violating,
        }
    }
}

/// Incremental violation-detection engine over one table and one rule set.
#[derive(Debug, Clone)]
pub struct ViolationEngine {
    ruleset: RuleSet,
    states: Vec<RuleState>,
    /// Pattern constants resolved to ids, re-resolved only when the table's
    /// dictionary generation moves.
    resolved: Vec<ResolvedRule>,
    resolved_at_generation: Option<u64>,
    /// Rules involving each attribute, precomputed so the per-change hot
    /// path allocates nothing.
    involving: Vec<Vec<RuleId>>,
    n_rows: usize,
    /// Monotonically increasing per-rule change stamps: `stats_generation[r]`
    /// moves whenever rule `r`'s incremental state (and therefore its
    /// [`RuleStats`]) may have changed.  What-if evaluation suppresses every
    /// stamp, so observers never see a generation move without a real change.
    /// Downstream caches (the VOI benefit memo) key on these.
    stats_generation: Vec<u64>,
    /// Change stamp per row, moved whenever one of the row's cells is
    /// actually written.
    row_generation: Vec<u64>,
    /// Source of all stamps; increases on every real mutation.
    generation_counter: u64,
    /// `true` while a what-if round trip is in flight: the apply/revert pair
    /// leaves every statistic exactly as it found it, so no stamp may move.
    suppress_generations: bool,
}

impl ViolationEngine {
    /// Builds the engine by scanning the whole table once per rule.
    pub fn build(table: &Table, ruleset: &RuleSet) -> ViolationEngine {
        let states = ruleset
            .rules()
            .iter()
            .map(|rule| {
                if rule.is_constant() {
                    RuleState::Constant(ConstState::default())
                } else {
                    RuleState::Variable(VarState::default())
                }
            })
            .collect();
        let involving = (0..table.schema().arity())
            .map(|attr| ruleset.rules_involving(attr))
            .collect();
        let mut engine = ViolationEngine {
            ruleset: ruleset.clone(),
            states,
            resolved: Vec::new(),
            resolved_at_generation: None,
            involving,
            n_rows: 0,
            stats_generation: vec![0; ruleset.len()],
            row_generation: Vec::new(),
            generation_counter: 0,
            suppress_generations: false,
        };
        for tid in table.tuple_ids() {
            engine.note_new_tuple(table, tid);
        }
        engine.refresh_resolution(table);
        engine
    }

    /// The rule set the engine evaluates.
    pub fn ruleset(&self) -> &RuleSet {
        &self.ruleset
    }

    /// Number of rows the engine currently tracks.
    pub fn row_count(&self) -> usize {
        self.n_rows
    }

    /// Ids of the rules involving an attribute, without allocating (the
    /// precomputed per-attribute list the change path itself iterates).
    pub fn rules_involving(&self, attr: AttrId) -> &[RuleId] {
        &self.involving[attr]
    }

    /// The change stamp of one rule's statistics.  Strictly increases every
    /// time the rule's incremental state is perturbed by a *real* change
    /// ([`ViolationEngine::apply_cell_change`] / `note_new_tuple` /
    /// `rebuild`); what-if evaluation ([`ViolationEngine::stats_if`]) leaves
    /// it untouched.  Equal stamps guarantee equal [`RuleStats`] *and* an
    /// unchanged agreement-group structure, so any quantity derived from the
    /// rule's state may be cached under this key.
    pub fn stats_generation(&self, rule: RuleId) -> u64 {
        self.stats_generation[rule]
    }

    /// The combined change stamp of every rule involving `attr` (their
    /// maximum): moves whenever *any* statistic a what-if on `attr` reads may
    /// have changed.  Coarse — the interactive loop uses it to decide which
    /// groups to *rescore*; the fine-grained validity of individual cached
    /// benefit terms is keyed on [`ViolationEngine::row_generation`] and
    /// [`ViolationEngine::group_generation`] instead.
    pub fn attr_stats_generation(&self, attr: AttrId) -> u64 {
        self.involving[attr]
            .iter()
            .map(|&rule| self.stats_generation[rule])
            .max()
            .unwrap_or(0)
    }

    /// The change stamp of one row: moves whenever one of the row's cells is
    /// actually written (what-ifs excluded).
    pub fn row_generation(&self, tuple: TupleId) -> u64 {
        self.row_generation.get(tuple).copied().unwrap_or(0)
    }

    /// The change stamp of one agreement group of a variable rule: moves
    /// whenever the group's membership or bucket structure changes.  A key
    /// that was never touched reports 0.  Constant rules have no groups and
    /// always report 0.
    pub fn group_generation(&self, rule: RuleId, key: &SmallKey) -> u64 {
        match &self.states[rule] {
            RuleState::Variable(state) => state.group_generation.get(key).copied().unwrap_or(0),
            RuleState::Constant(_) => 0,
        }
    }

    /// Stamps every rule involving `attr`, and the row itself, with a fresh
    /// generation (no-op while a what-if is in flight).
    fn bump_generations(&mut self, tuple: TupleId, attr: AttrId) {
        if self.suppress_generations {
            return;
        }
        self.generation_counter += 1;
        let stamp = self.generation_counter;
        for i in 0..self.involving[attr].len() {
            let rule = self.involving[attr][i];
            self.stats_generation[rule] = stamp;
        }
        if tuple >= self.row_generation.len() {
            self.row_generation.resize(tuple + 1, 0);
        }
        self.row_generation[tuple] = stamp;
    }

    /// Re-resolves the pattern constants when (and only when) a new distinct
    /// value has entered some column since the last resolution.
    fn refresh_resolution(&mut self, table: &Table) {
        let generation = table.dict_generation();
        if self.resolved_at_generation == Some(generation) {
            return;
        }
        self.resolved = self
            .ruleset
            .rules()
            .iter()
            .map(|rule| ResolvedRule::resolve(rule, table))
            .collect();
        self.resolved_at_generation = Some(generation);
    }

    /// Registers a newly appended tuple (e.g. from an online data-entry feed,
    /// §3 "Updates Consistency Manager") with every rule.
    pub fn note_new_tuple(&mut self, table: &Table, tuple: TupleId) {
        self.refresh_resolution(table);
        self.n_rows += 1;
        // A new row changes every rule's satisfying/context counts.
        self.generation_counter += 1;
        self.stats_generation.fill(self.generation_counter);
        if tuple >= self.row_generation.len() {
            self.row_generation.resize(tuple + 1, 0);
        }
        self.row_generation[tuple] = self.generation_counter;
        for id in 0..self.ruleset.len() {
            self.add_tuple(id, table, tuple);
        }
    }

    /// Applies a cell change to both the table and the engine, returning the
    /// id of the previous value.  Only rules involving `attr` are touched,
    /// and the whole path works on interned ids — decode the returned id via
    /// [`Table::id_value`] if the old value itself is needed.
    pub fn apply_cell_change(
        &mut self,
        table: &mut Table,
        tuple: TupleId,
        attr: AttrId,
        value: Value,
    ) -> Result<ValueId> {
        table.try_cell(tuple, attr)?;
        let new_id = table.intern_value(attr, value);
        Ok(self.apply_cell_change_id(table, tuple, attr, new_id))
    }

    /// Id-space core of [`ViolationEngine::apply_cell_change`]: removes the
    /// tuple from the affected rules, swaps the cell id, re-adds it, and
    /// returns the previous id.
    pub fn apply_cell_change_id(
        &mut self,
        table: &mut Table,
        tuple: TupleId,
        attr: AttrId,
        new_id: ValueId,
    ) -> ValueId {
        self.refresh_resolution(table);
        // Stamp first so the agreement groups touched by the removes/adds
        // below are marked with this mutation's generation.
        self.bump_generations(tuple, attr);
        for i in 0..self.involving[attr].len() {
            let rule = self.involving[attr][i];
            self.remove_tuple(rule, table, tuple);
        }
        let old_id = table.set_cell_id(tuple, attr, new_id);
        for i in 0..self.involving[attr].len() {
            let rule = self.involving[attr][i];
            self.add_tuple(rule, table, tuple);
        }
        old_id
    }

    /// Evaluates the per-rule statistics that *would* hold if `t[attr]` were
    /// set to `value`, without leaving any permanent change behind.
    ///
    /// Returns `(rule, stats)` for every rule involving `attr` — these are
    /// exactly the rules whose `vio`/`⊨` counts can differ from the current
    /// instance, which is what the VOI gain formula (Eq. 6) needs.  The
    /// apply/revert round trip runs entirely on interned ids.
    pub fn stats_if(
        &mut self,
        table: &mut Table,
        tuple: TupleId,
        attr: AttrId,
        value: &Value,
    ) -> Result<Vec<(RuleId, RuleStats)>> {
        Ok(self.stats_if_guarded(table, tuple, attr, value)?.stats)
    }

    /// [`ViolationEngine::stats_if`] plus, per involved rule, the validity
    /// guards of the result: the agreement-group keys the hypothetical change
    /// touches (the tuple's current group and, for an LHS change, the group
    /// it would move into) with their current generations.  The what-if
    /// result of a *variable* rule is a pure function of those groups'
    /// structure, the tuple's row, and the rule's aggregate statistics, so a
    /// cached result may be reused as a **delta** against fresh aggregates
    /// for as long as every guard generation (and the row generation) is
    /// unchanged.  Constant rules depend only on the row and the aggregates;
    /// their guard list is empty.
    pub fn stats_if_guarded(
        &mut self,
        table: &mut Table,
        tuple: TupleId,
        attr: AttrId,
        value: &Value,
    ) -> Result<GuardedWhatIf> {
        table.try_cell(tuple, attr)?;
        let new_id = table.intern_value_ref(attr, value);
        // The round trip leaves every statistic exactly as it found it, so
        // no generation stamp may move — hypothetical evaluation must never
        // invalidate generation-keyed caches.
        self.suppress_generations = true;
        let keys_before: Vec<Option<SmallKey>> = self.involving[attr]
            .iter()
            .map(|&rule| match &self.states[rule] {
                RuleState::Variable(state) => state.tuple_key.get(&tuple).cloned(),
                RuleState::Constant(_) => None,
            })
            .collect();
        let old_id = self.apply_cell_change_id(table, tuple, attr, new_id);
        let stats: Vec<(RuleId, RuleStats)> = self.involving[attr]
            .iter()
            .map(|&rule| (rule, self.rule_stats(rule)))
            .collect();
        let keys_after: Vec<Option<SmallKey>> = self.involving[attr]
            .iter()
            .map(|&rule| match &self.states[rule] {
                RuleState::Variable(state) => state.tuple_key.get(&tuple).cloned(),
                RuleState::Constant(_) => None,
            })
            .collect();
        self.apply_cell_change_id(table, tuple, attr, old_id);
        self.suppress_generations = false;

        let touched_groups = self.involving[attr]
            .iter()
            .zip(keys_before)
            .zip(keys_after)
            .map(|((&rule, before), after)| {
                let mut guards: Vec<(SmallKey, u64)> = Vec::new();
                for key in [before, after].into_iter().flatten() {
                    if guards.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    let generation = self.group_generation(rule, &key);
                    guards.push((key, generation));
                }
                guards
            })
            .collect();
        Ok(GuardedWhatIf {
            stats,
            touched_groups,
        })
    }

    /// Single-rule variant of [`ViolationEngine::stats_if_guarded`]: the
    /// hypothetical statistics of `rule` alone, touching no other rule's
    /// state.  Used to refresh one stale delta of a cached what-if without
    /// paying for the rules whose guards are still valid; the result is
    /// identical to the corresponding entry of the full evaluation.
    pub fn stats_if_rule_guarded(
        &mut self,
        table: &mut Table,
        tuple: TupleId,
        attr: AttrId,
        value: &Value,
        rule: RuleId,
    ) -> Result<(RuleStats, Vec<(SmallKey, u64)>)> {
        table.try_cell(tuple, attr)?;
        debug_assert!(
            self.involving[attr].contains(&rule),
            "single-rule what-if on a rule not involving the attribute"
        );
        let new_id = table.intern_value_ref(attr, value);
        self.refresh_resolution(table);
        self.suppress_generations = true;
        let key_of = |engine: &ViolationEngine| match &engine.states[rule] {
            RuleState::Variable(state) => state.tuple_key.get(&tuple).cloned(),
            RuleState::Constant(_) => None,
        };
        let key_before = key_of(self);
        self.remove_tuple(rule, table, tuple);
        let old_id = table.set_cell_id(tuple, attr, new_id);
        self.add_tuple(rule, table, tuple);
        let stats = self.rule_stats(rule);
        let key_after = key_of(self);
        self.remove_tuple(rule, table, tuple);
        table.set_cell_id(tuple, attr, old_id);
        self.add_tuple(rule, table, tuple);
        self.suppress_generations = false;

        let mut guards: Vec<(SmallKey, u64)> = Vec::new();
        for key in [key_before, key_after].into_iter().flatten() {
            if guards.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let generation = self.group_generation(rule, &key);
            guards.push((key, generation));
        }
        Ok((stats, guards))
    }

    /// Aggregate statistics for one rule.
    pub fn rule_stats(&self, rule: RuleId) -> RuleStats {
        match &self.states[rule] {
            RuleState::Constant(state) => RuleStats {
                violations: state.violations,
                satisfying: self.n_rows - state.violations,
                context: state.context,
            },
            RuleState::Variable(state) => {
                let violating_tuples = state.context - state.satisfying_in_context;
                RuleStats {
                    violations: state.total_vio,
                    satisfying: self.n_rows - violating_tuples,
                    context: state.context,
                }
            }
        }
    }

    /// `vio(D, Σ)`: the sum of all rules' violation counts (Definition 1).
    pub fn total_violations(&self) -> usize {
        (0..self.ruleset.len())
            .map(|rule| self.rule_stats(rule).violations)
            .sum()
    }

    /// Per-tuple violation count `vio(t, {φ})` of Definition 1.
    pub fn vio_tuple(&self, rule: RuleId, tuple: TupleId) -> usize {
        match &self.states[rule] {
            RuleState::Constant(state) => usize::from(state.violating.contains(tuple)),
            RuleState::Variable(state) => {
                let Some(key) = state.tuple_key.get(&tuple) else {
                    return 0;
                };
                let Some(group) = state.groups.get(key) else {
                    return 0;
                };
                let own_rhs = group
                    .members_by_rhs
                    .iter()
                    .find(|(_, members)| members.contains(&tuple))
                    .map(|(&rhs, _)| rhs);
                match own_rhs {
                    Some(rhs) => group.total - group.rhs_count(rhs),
                    None => 0,
                }
            }
        }
    }

    /// Does the tuple violate the rule?  One bit read in the rule's
    /// violation index: no hashing, whatever the size of the tuple's
    /// agreement group.
    pub fn tuple_violates(&self, rule: RuleId, tuple: TupleId) -> bool {
        self.states[rule].violating().contains(tuple)
    }

    /// The rules violated by a tuple (its `vioRuleList`), in ascending
    /// order: one bit read per rule.
    pub fn violated_rules(&self, tuple: TupleId) -> Vec<RuleId> {
        (0..self.ruleset.len())
            .filter(|&rule| self.tuple_violates(rule, tuple))
            .collect()
    }

    /// `true` when the tuple violates at least one rule.  Allocation-free
    /// variant of `!violated_rules(tuple).is_empty()` for per-cell hot paths
    /// (the write-driven suggestion refresh probes this once per revisited
    /// cell): at most one bit read per rule.
    pub fn is_dirty(&self, tuple: TupleId) -> bool {
        self.states
            .iter()
            .any(|state| state.violating().contains(tuple))
    }

    /// The members of one LHS agreement group of a variable rule, addressed
    /// by group key (unsorted; empty for constant rules and unknown keys).
    ///
    /// This is the engine half of the change-journal event surface: after a
    /// cell write, the consumer reconstructs the written tuple's previous
    /// group key via [`Table::project_key_with`] and probes both the vacated
    /// and the joined group for the cohabitants whose violation status the
    /// write may have flipped.
    pub fn group_members(
        &self,
        rule: RuleId,
        key: &SmallKey,
    ) -> impl Iterator<Item = TupleId> + '_ {
        let group = match &self.states[rule] {
            RuleState::Variable(state) => state.groups.get(key),
            RuleState::Constant(_) => None,
        };
        group
            .into_iter()
            .flat_map(|g| g.members_by_rhs.values().flatten().copied())
    }

    /// All tuples violating a specific rule, in ascending id order: a walk
    /// over the rule's violation index, one word per 64 rows, that comes out
    /// sorted without a sort.
    pub fn violating_tuples(&self, rule: RuleId) -> Vec<TupleId> {
        self.states[rule].violating().iter().collect()
    }

    /// All dirty tuples (violating at least one rule), in ascending id
    /// order: the OR of every rule's violation index, word by word, walked
    /// once.
    pub fn dirty_tuples(&self) -> Vec<TupleId> {
        let mut dirty = TupleBits::default();
        for state in &self.states {
            dirty.union_with(state.violating());
        }
        dirty.iter().collect()
    }

    /// The distinct RHS ids held by `tuple`'s conflict partners under a
    /// variable rule: the keys of the agreement-group buckets other than the
    /// tuple's own.  Exactly the value set of mapping
    /// [`ViolationEngine::conflict_partners`] through the RHS column, but
    /// O(#distinct RHS values) instead of O(group) — the candidate
    /// generator's scenario 2 needs only the values, not the partners.
    /// Unsorted; empty for constant rules or tuples outside the context.
    pub fn conflict_rhs_ids(&self, rule: RuleId, tuple: TupleId) -> Vec<ValueId> {
        let RuleState::Variable(state) = &self.states[rule] else {
            return Vec::new();
        };
        let Some(key) = state.tuple_key.get(&tuple) else {
            return Vec::new();
        };
        let Some(group) = state.groups.get(key) else {
            return Vec::new();
        };
        let own = group
            .members_by_rhs
            .iter()
            .find(|(_, members)| members.contains(&tuple))
            .map(|(&rhs, _)| rhs);
        group
            .members_by_rhs
            .keys()
            .copied()
            .filter(|&rhs| Some(rhs) != own)
            .collect()
    }

    /// For a variable rule, the tuples that violate it *with* `tuple` (same
    /// LHS agreement group, different RHS value).  Empty for constant rules
    /// or tuples outside the rule's context.
    pub fn conflict_partners(&self, rule: RuleId, tuple: TupleId) -> Vec<TupleId> {
        let RuleState::Variable(state) = &self.states[rule] else {
            return Vec::new();
        };
        let Some(key) = state.tuple_key.get(&tuple) else {
            return Vec::new();
        };
        let Some(group) = state.groups.get(key) else {
            return Vec::new();
        };
        let mut partners = Vec::new();
        for members in group.members_by_rhs.values() {
            if members.contains(&tuple) {
                continue;
            }
            partners.extend(members.iter().copied());
        }
        partners.sort_unstable();
        partners
    }

    /// Rebuilds the engine from scratch.  Intended for tests and for callers
    /// that mutated the table behind the engine's back.
    pub fn rebuild(&mut self, table: &Table) {
        // Keep the generation stream monotone across rebuilds so caches keyed
        // on pre-rebuild stamps can never collide with post-rebuild state.
        let stamp = self.generation_counter + 1;
        *self = ViolationEngine::build(table, &self.ruleset);
        self.generation_counter = self.generation_counter.max(stamp);
        let counter = self.generation_counter;
        self.stats_generation.fill(counter);
        self.row_generation.fill(counter);
        for state in &mut self.states {
            if let RuleState::Variable(state) = state {
                for generation in state.group_generation.values_mut() {
                    *generation = counter;
                }
            }
        }
    }

    /// Compares the incrementally maintained statistics against a fresh
    /// rebuild; returns `true` when they agree for every rule.  Used by tests
    /// and debug assertions.
    ///
    /// It also checks every rule's violation index against the hashed state
    /// it summarises: for a variable rule, the members of the groups holding
    /// more than one RHS value; for a constant rule, the tuples in context
    /// whose RHS misses the constant.
    pub fn agrees_with_rebuild(&self, table: &Table) -> bool {
        let fresh = ViolationEngine::build(table, &self.ruleset);
        (0..self.ruleset.len()).all(|rule| {
            self.rule_stats(rule) == fresh.rule_stats(rule)
                && self.index_matches_state(rule, table, &fresh.resolved[rule])
        }) && self.dirty_tuples() == fresh.dirty_tuples()
    }

    /// Whether rule `rule`'s violation index holds exactly the tuples its
    /// hashed state (or, for a constant rule, the table under the fresh
    /// resolution `res`) says violate it.
    fn index_matches_state(&self, rule: RuleId, table: &Table, res: &ResolvedRule) -> bool {
        let mut expected = TupleBits::default();
        match &self.states[rule] {
            RuleState::Constant(state) => {
                let cfd = self.ruleset.rule(rule);
                for tuple in table.tuple_ids() {
                    if res.in_context(table, tuple, cfd.lhs())
                        && !res.rhs.matches(table.cell_id(tuple, cfd.rhs()))
                    {
                        expected.insert(tuple);
                    }
                }
                if state.violations != state.violating.iter().count() {
                    return false;
                }
            }
            RuleState::Variable(state) => {
                for group in state.groups.values().filter(|g| g.violating()) {
                    for tuple in group.members() {
                        expected.insert(tuple);
                    }
                }
            }
        }
        self.states[rule].violating().iter().eq(expected.iter())
    }

    fn add_tuple(&mut self, rule_id: RuleId, table: &Table, tuple: TupleId) {
        let ViolationEngine {
            ruleset,
            states,
            resolved,
            generation_counter,
            suppress_generations,
            ..
        } = self;
        let rule = ruleset.rule(rule_id);
        let res = &resolved[rule_id];
        if !res.in_context(table, tuple, rule.lhs()) {
            return;
        }
        match &mut states[rule_id] {
            RuleState::Constant(state) => {
                state.context += 1;
                if !res.rhs.matches(table.cell_id(tuple, rule.rhs()))
                    && state.violating.insert(tuple)
                {
                    state.violations += 1;
                }
            }
            RuleState::Variable(state) => {
                // Build the key once and probe/store through it.  An A/B at
                // 100k rows (BENCH parallel_scale, build_engine/100000/t1)
                // measured this ~76–85ms vs ~94–96ms for probing via a
                // reused scratch-slice buffer: this loop stores a key per
                // row anyway (`tuple_key`), CFD keys are ≤ 4 ids and stay
                // inline on the stack, so a scratch buffer removes no heap
                // allocation and its per-row fill is pure overhead.  Scratch
                // probing stays in the probe-only paths (`AttrSetIndex`
                // builds and lookups), where no key is stored per row.
                let key = table.project_key(tuple, rule.lhs());
                let rhs = table.cell_id(tuple, rule.rhs());
                if !*suppress_generations {
                    if let Some(stamp) = state.group_generation.get_mut(&key) {
                        *stamp = *generation_counter;
                    } else {
                        state
                            .group_generation
                            .insert(key.clone(), *generation_counter);
                    }
                }
                state.retract(key.as_slice());
                if let Some(group) = state.groups.get_mut(&key) {
                    let was_violating = group.violating();
                    group.insert(rhs, tuple);
                    // A what-if's round trip restores this group exactly, so
                    // its members' bits are only maintained on real changes.
                    if !*suppress_generations {
                        if was_violating {
                            state.violating.insert(tuple);
                        } else if group.violating() {
                            for member in group.members() {
                                state.violating.insert(member);
                            }
                        }
                    }
                } else {
                    let mut group = Group::default();
                    group.insert(rhs, tuple);
                    state.groups.insert(key.clone(), group);
                }
                state.restore(key.as_slice());
                state.tuple_key.insert(tuple, key);
            }
        }
    }

    fn remove_tuple(&mut self, rule_id: RuleId, table: &Table, tuple: TupleId) {
        let ViolationEngine {
            ruleset,
            states,
            resolved,
            generation_counter,
            suppress_generations,
            ..
        } = self;
        let rule = ruleset.rule(rule_id);
        let res = &resolved[rule_id];
        match &mut states[rule_id] {
            RuleState::Constant(state) => {
                if res.in_context(table, tuple, rule.lhs()) {
                    state.context -= 1;
                }
                if state.violating.remove(tuple) {
                    state.violations -= 1;
                }
            }
            RuleState::Variable(state) => {
                let Some(key) = state.tuple_key.remove(&tuple) else {
                    return;
                };
                let rhs = table.cell_id(tuple, rule.rhs());
                if !*suppress_generations {
                    if let Some(stamp) = state.group_generation.get_mut(key.as_slice()) {
                        *stamp = *generation_counter;
                    } else {
                        state
                            .group_generation
                            .insert(key.clone(), *generation_counter);
                    }
                }
                state.retract(key.as_slice());
                if let Some(group) = state.groups.get_mut(&key) {
                    let was_violating = group.violating();
                    group.remove(rhs, tuple);
                    if was_violating && !*suppress_generations {
                        state.violating.remove(tuple);
                        if !group.violating() {
                            for member in group.members() {
                                state.violating.remove(member);
                            }
                        }
                    }
                }
                state.restore(key.as_slice());
            }
        }
    }

    /// Serialises the engine's canonical state into `enc`.
    ///
    /// Hash-map iteration order is randomised per process, so every map and
    /// set is written in sorted key order — two engines that are behaviourally
    /// identical produce byte-identical encodings.  Derivable state (resolved
    /// pattern ids, the per-attribute rule index, the what-if suppression
    /// flag, the variable rules' violation bits) is omitted and rebuilt on
    /// decode.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.section("vioeng", 1);
        enc.put(&self.ruleset);
        enc.put(&self.involving.len());
        enc.put(&self.n_rows);
        enc.usize(self.states.len());
        for state in &self.states {
            match state {
                RuleState::Constant(c) => {
                    enc.u8(0);
                    enc.usize(c.violations);
                    for tuple in c.violating.iter() {
                        enc.put(&tuple);
                    }
                    enc.put(&c.context);
                }
                RuleState::Variable(v) => {
                    enc.u8(1);
                    enc.put(v);
                }
            }
        }
        enc.fixed(&self.stats_generation);
        enc.put(&self.row_generation);
        enc.put(&self.generation_counter);
    }

    /// Rebuilds an engine written by [`ViolationEngine::encode_state`] for
    /// `table`.
    ///
    /// The engine's column and row counts must equal the table's, and every
    /// tuple id it names must be below the row count; each is checked before
    /// anything is sized from it.
    /// The variable rules' violation bits are not encoded: they are filled
    /// from the decoded groups.  Pattern-constant resolution is left empty
    /// (`resolved_at_generation: None`): every read and mutation path
    /// refreshes it lazily against the live table before use.
    pub fn decode_state(dec: &mut Dec<'_>, table: &Table) -> codec::Result<ViolationEngine> {
        let rows = table.len();
        dec.section("vioeng", 1)?;
        let ruleset: RuleSet = dec.get()?;
        let arity: usize = dec.get()?;
        if arity != table.schema().arity() {
            return Err(CodecError::new(format!(
                "engine covers {arity} columns but the table has {}",
                table.schema().arity()
            )));
        }
        for (id, rule) in ruleset.iter() {
            if rule.attrs().iter().any(|&attr| attr >= arity) {
                return Err(CodecError::new(format!(
                    "rule {id} names an attribute outside the {arity}-column table"
                )));
            }
        }
        let n_rows: usize = dec.get()?;
        if n_rows != rows {
            return Err(CodecError::new(format!(
                "engine tracks {n_rows} rows but the table has {rows}"
            )));
        }
        let check_tuple = |tuple: TupleId| {
            if tuple < rows {
                Ok(())
            } else {
                Err(CodecError::new(format!(
                    "tuple id {tuple} outside the {rows}-row table"
                )))
            }
        };
        let n_states = dec.usize()?;
        if n_states != ruleset.len() {
            return Err(CodecError::new(format!(
                "rule-state count {n_states} does not match {} rules",
                ruleset.len()
            )));
        }
        let mut states = Vec::with_capacity(n_states);
        for rule_id in 0..n_states {
            match (dec.u8()?, ruleset.rule(rule_id).is_constant()) {
                (0, true) => {
                    let tuples: Vec<TupleId> = dec.get()?;
                    let mut violating = TupleBits::with_rows(rows);
                    for &tuple in &tuples {
                        check_tuple(tuple)?;
                        if !violating.insert(tuple) {
                            return Err(CodecError::new("duplicate violating tuple"));
                        }
                    }
                    states.push(RuleState::Constant(ConstState {
                        violating,
                        violations: tuples.len(),
                        context: dec.get()?,
                    }));
                }
                (1, false) => {
                    let mut var: VarState = dec.get()?;
                    var.tuple_key
                        .keys()
                        .try_for_each(|&tuple| check_tuple(tuple))?;
                    var.violating = TupleBits::with_rows(rows);
                    for group in var.groups.values() {
                        for member in group.members() {
                            check_tuple(member)?;
                            if group.violating() {
                                var.violating.insert(member);
                            }
                        }
                    }
                    states.push(RuleState::Variable(var));
                }
                (tag, _) => {
                    return Err(CodecError::new(format!(
                        "rule-state tag {tag} does not match rule {rule_id}'s kind"
                    )));
                }
            }
        }
        let stats_generation = dec.fixed(n_states)?;
        let row_generation = dec.get()?;
        let generation_counter = dec.get()?;
        let involving = (0..arity).map(|a| ruleset.rules_involving(a)).collect();
        Ok(ViolationEngine {
            ruleset,
            states,
            resolved: Vec::new(),
            resolved_at_generation: None,
            involving,
            n_rows,
            stats_generation,
            row_generation,
            generation_counter,
            suppress_generations: false,
        })
    }
}

gdr_relation::state_record! { Group { members_by_rhs, total } }

gdr_relation::state_record! {
    VarState { tuple_key, groups, total_vio, satisfying_in_context, context, group_generation }
    ..Default
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use gdr_relation::codec::State;
    use gdr_relation::Schema;

    fn schema() -> Schema {
        Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"])
    }

    fn rules_text() -> &'static str {
        "\
ZIP -> CT, STT : 46360 || Michigan City, IN
ZIP -> CT, STT : 46825 || Fort Wayne, IN
ZIP -> CT, STT : 46391 || Westville, IN
STR, CT -> ZIP : _, Fort Wayne || _
"
    }

    /// A small instance exercising both constant and variable violations.
    ///
    /// * t0 is clean.
    /// * t1 violates the 46360 → Michigan City rule (CT = Westville).
    /// * t2 and t3 agree on (STR, CT) = (Coliseum Blvd, Fort Wayne) but carry
    ///   different zips → both violate the variable rule; t3's zip 46999 also
    ///   falls outside every constant context.
    /// * t4 is clean (Westville).
    fn build_fixture() -> (Table, RuleSet, ViolationEngine) {
        let schema = schema();
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
        table
            .push_text_row(&["H3", "Colfax Ave", "Westville", "IN", "46391"])
            .unwrap();
        let mut ruleset = RuleSet::new(parse_rules(&schema, rules_text()).unwrap());
        ruleset.weights_from_context(&table);
        let engine = ViolationEngine::build(&table, &ruleset);
        (table, ruleset, engine)
    }

    #[test]
    fn dirty_tuples_are_identified() {
        let (_, _, engine) = build_fixture();
        assert_eq!(engine.dirty_tuples(), vec![1, 2, 3]);
        assert_eq!(engine.row_count(), 5);
    }

    fn encode(engine: &ViolationEngine) -> Vec<u8> {
        let mut enc = Enc::new();
        engine.encode_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn codec_round_trip_is_behaviourally_identical() {
        let (mut table, _, mut engine) = build_fixture();
        // Mutate a little first so generation stamps are non-trivial.
        engine
            .apply_cell_change(&mut table, 1, 2, Value::from("Michigan City"))
            .unwrap();

        let bytes = encode(&engine);
        let mut dec = Dec::new(&bytes);
        let mut restored = ViolationEngine::decode_state(&mut dec, &table).unwrap();
        dec.finish().unwrap();

        // Re-encoding the restored engine is byte-identical.
        assert_eq!(encode(&restored), bytes);
        assert_eq!(restored.dirty_tuples(), engine.dirty_tuples());
        assert_eq!(restored.total_violations(), engine.total_violations());
        for rule in 0..engine.ruleset().len() {
            assert_eq!(restored.rule_stats(rule), engine.rule_stats(rule));
        }

        // The restored engine tracks further mutations exactly like the
        // original: identical stamps, identical stats, identical bytes.
        let mut table2 = table.clone();
        engine
            .apply_cell_change(&mut table, 3, 4, Value::from("46825"))
            .unwrap();
        restored
            .apply_cell_change(&mut table2, 3, 4, Value::from("46825"))
            .unwrap();
        assert_eq!(encode(&restored), encode(&engine));
        assert!(restored.agrees_with_rebuild(&table2));
    }

    #[test]
    fn codec_rejects_corrupt_engine_payloads() {
        let (table, _, engine) = build_fixture();
        let bytes = encode(&engine);
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            let result = ViolationEngine::decode_state(&mut dec, &table).and_then(|_| dec.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn codec_rejects_engines_that_do_not_fit_the_table() {
        let (table, ruleset, engine) = build_fixture();
        let bytes = encode(&engine);
        let rows = table.len();
        for other in [0, rows - 1, rows + 1] {
            let mut resized = Table::new("resized", table.schema().clone());
            for tuple in 0..other {
                let row = (0..table.schema().arity())
                    .map(|attr| table.cell(tuple % rows, attr).clone())
                    .collect();
                resized.push_row(row).unwrap();
            }
            let mut dec = Dec::new(&bytes);
            assert!(ViolationEngine::decode_state(&mut dec, &resized).is_err());
        }
        // A table of another width is refused too, and an encoded width of
        // 2^40 columns fails before anything is sized from it.
        let narrow = Table::new("narrow", Schema::new(&["SRC", "STR", "CT", "STT"]));
        assert!(ViolationEngine::decode_state(&mut Dec::new(&bytes), &narrow).is_err());
        let mut huge = Enc::new();
        huge.section("vioeng", 1);
        huge.put(&RuleSet::new(Vec::new()));
        huge.usize(1 << 40);
        let err =
            ViolationEngine::decode_state(&mut Dec::new(&huge.into_bytes()), &table).unwrap_err();
        assert!(err.detail.contains("columns"), "{err:?}");
        // Push rule 0's first violating tuple (t1) to each id at or past the
        // table's end.  Its list sits after the header, the arity, the row
        // count, the state count and the rule's kind tag and list length;
        // each is a varint, so the tuple id is re-spliced at its new width.
        let mut enc = Enc::new();
        enc.section("vioeng", 1);
        ruleset.encode_state(&mut enc);
        enc.usize(engine.involving.len());
        enc.usize(rows);
        enc.usize(ruleset.len());
        enc.u8(0);
        enc.usize(engine.rule_stats(0).violations);
        let at = enc.into_bytes().len();
        assert_eq!(bytes[at], 1, "t1 is one varint byte");
        for tuple in [rows as u64, u64::MAX] {
            let mut id = Enc::new();
            id.u64(tuple);
            let mut damaged = bytes.clone();
            damaged.splice(at..at + 1, id.into_bytes());
            let mut dec = Dec::new(&damaged);
            assert!(ViolationEngine::decode_state(&mut dec, &table).is_err());
        }
    }

    #[test]
    fn constant_rule_stats() {
        let (_, _, engine) = build_fixture();
        // Rule 0 = ZIP 46360 → CT Michigan City: t1 violates.
        let stats = engine.rule_stats(0);
        assert_eq!(stats.violations, 1);
        assert_eq!(stats.satisfying, 4);
        assert_eq!(stats.context, 2);
        // Rule 1 = ZIP 46360 → STT IN: nobody violates.
        assert_eq!(engine.rule_stats(1).violations, 0);
    }

    #[test]
    fn variable_rule_stats_count_pairs() {
        let (_, _, engine) = build_fixture();
        // The variable rule is the last one (index 6 after normalisation:
        // 3 specs × 2 rules + 1).
        let rule = 6;
        assert!(!engine.ruleset().rule(rule).is_constant());
        let stats = engine.rule_stats(rule);
        // One group {t2, t3} with two distinct zips: vio = 2² − (1+1) = 2.
        assert_eq!(stats.violations, 2);
        // Both group members violate; everyone else satisfies.
        assert_eq!(stats.satisfying, 3);
        // Context = tuples with CT = Fort Wayne.
        assert_eq!(stats.context, 2);
        assert_eq!(engine.vio_tuple(rule, 2), 1);
        assert_eq!(engine.vio_tuple(rule, 3), 1);
        assert_eq!(engine.vio_tuple(rule, 0), 0);
    }

    #[test]
    fn violated_rules_per_tuple() {
        let (_, _, engine) = build_fixture();
        assert_eq!(engine.violated_rules(0), Vec::<RuleId>::new());
        assert_eq!(engine.violated_rules(1), vec![0]);
        assert_eq!(engine.violated_rules(2), vec![6]);
        assert_eq!(engine.violated_rules(3), vec![6]);
    }

    #[test]
    fn conflict_partners_and_agreement_groups() {
        let (_, _, engine) = build_fixture();
        let rule = 6;
        assert_eq!(engine.conflict_partners(rule, 2), vec![3]);
        assert_eq!(engine.conflict_partners(rule, 3), vec![2]);
        assert_eq!(engine.conflict_partners(rule, 0), Vec::<TupleId>::new());
        // Constant rules have no conflict partners.
        assert_eq!(engine.conflict_partners(0, 1), Vec::<TupleId>::new());
    }

    #[test]
    fn group_members_and_is_dirty_probes() {
        let (table, _, engine) = build_fixture();
        assert!(engine.is_dirty(1));
        assert!(engine.is_dirty(2));
        assert!(!engine.is_dirty(0));
        // The variable rule's Fort Wayne group, addressed by t2's key.
        let rule = 6;
        let key = table.project_key(2, engine.ruleset().rule(rule).lhs());
        let mut members: Vec<TupleId> = engine.group_members(rule, &key).collect();
        members.sort_unstable();
        assert_eq!(members, vec![2, 3]);
        // Unknown keys and constant rules answer with nothing.
        let other = table.project_key(0, engine.ruleset().rule(rule).lhs());
        assert_eq!(engine.group_members(rule, &other).count(), 0);
        assert_eq!(engine.group_members(0, &key).count(), 0);
    }

    #[test]
    fn total_violations_sums_rules() {
        let (_, _, engine) = build_fixture();
        // 1 (rule 0) + 2 (variable rule) = 3.
        assert_eq!(engine.total_violations(), 3);
    }

    #[test]
    fn applying_a_repair_removes_violations_incrementally() {
        let (mut table, _, mut engine) = build_fixture();
        // Fix t1's city.
        let old = engine
            .apply_cell_change(&mut table, 1, 2, Value::from("Michigan City"))
            .unwrap();
        assert_eq!(table.id_value(2, old), &Value::from("Westville"));
        assert_eq!(engine.rule_stats(0).violations, 0);
        assert_eq!(engine.dirty_tuples(), vec![2, 3]);
        assert!(engine.agrees_with_rebuild(&table));

        // Fix t3's zip; the variable-rule group becomes single-valued.
        engine
            .apply_cell_change(&mut table, 3, 4, Value::from("46825"))
            .unwrap();
        assert_eq!(engine.dirty_tuples(), Vec::<TupleId>::new());
        assert_eq!(engine.total_violations(), 0);
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn applying_a_change_can_create_new_violations() {
        let (mut table, _, mut engine) = build_fixture();
        // Move the clean Westville tuple into the Fort Wayne context with a
        // conflicting zip: the variable rule now has a bigger conflict.
        engine
            .apply_cell_change(&mut table, 4, 2, Value::from("Fort Wayne"))
            .unwrap();
        engine
            .apply_cell_change(&mut table, 4, 1, Value::from("Coliseum Blvd"))
            .unwrap();
        let stats = engine.rule_stats(6);
        // Group {t2, t3, t4} with zips {46825, 46999, 46391}: vio = 9 − 3 = 6.
        assert_eq!(stats.violations, 6);
        assert!(engine.dirty_tuples().contains(&4));
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn what_if_is_side_effect_free() {
        let (mut table, _, mut engine) = build_fixture();
        let before_stats: Vec<RuleStats> = (0..engine.ruleset().len())
            .map(|r| engine.rule_stats(r))
            .collect();

        let what_if = engine
            .stats_if(&mut table, 1, 2, &Value::from("Michigan City"))
            .unwrap();
        // The change touches only rules involving CT.
        let touched: Vec<RuleId> = what_if.iter().map(|(r, _)| *r).collect();
        assert_eq!(touched, engine.ruleset().rules_involving(2));
        // The 46360 → Michigan City rule would have zero violations.
        let rule0 = what_if.iter().find(|(r, _)| *r == 0).unwrap().1;
        assert_eq!(rule0.violations, 0);
        assert_eq!(rule0.satisfying, 5);

        // Nothing stuck: stats and table content identical to before.
        let after_stats: Vec<RuleStats> = (0..engine.ruleset().len())
            .map(|r| engine.rule_stats(r))
            .collect();
        assert_eq!(before_stats, after_stats);
        assert_eq!(table.cell(1, 2), &Value::from("Westville"));
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn what_if_on_lhs_attribute_moves_groups() {
        let (mut table, _, mut engine) = build_fixture();
        // Hypothetically change t3's street: it leaves the conflicting group,
        // so the variable rule would have no violations.
        let what_if = engine
            .stats_if(&mut table, 3, 1, &Value::from("Sherden RD"))
            .unwrap();
        let var = what_if.iter().find(|(r, _)| *r == 6).unwrap().1;
        assert_eq!(var.violations, 0);
        assert_eq!(var.context, 2);
        // And the real state still shows the conflict.
        assert_eq!(engine.rule_stats(6).violations, 2);
    }

    #[test]
    fn what_if_with_a_brand_new_value_resolves_constants() {
        let (mut table, _, mut engine) = build_fixture();
        // "Sherden RD" is not in the STR dictionary yet: the what-if interns
        // it, triggers re-resolution, and must still revert cleanly.
        assert!(table.lookup_id(1, &Value::from("Sherden RD")).is_none());
        let before: Vec<RuleStats> = (0..engine.ruleset().len())
            .map(|r| engine.rule_stats(r))
            .collect();
        engine
            .stats_if(&mut table, 3, 1, &Value::from("Sherden RD"))
            .unwrap();
        let after: Vec<RuleStats> = (0..engine.ruleset().len())
            .map(|r| engine.rule_stats(r))
            .collect();
        assert_eq!(before, after);
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn absent_constants_resolve_once_their_value_appears() {
        // A rule whose constant never occurs in the data is unsatisfiable on
        // the RHS but also context-less; once a cell takes the constant's
        // LHS value, the cached resolution must catch up.
        let schema = schema();
        let mut table = Table::new("addr", schema.clone());
        table
            .push_text_row(&["H1", "Main St", "Michigan City", "IN", "46360"])
            .unwrap();
        let ruleset = RuleSet::new(parse_rules(&schema, "ZIP -> CT : 46999 || Nowhere\n").unwrap());
        let mut engine = ViolationEngine::build(&table, &ruleset);
        assert_eq!(engine.rule_stats(0).context, 0);
        // Move the tuple into the rule's context: CT "Nowhere" still absent,
        // so the tuple violates.
        engine
            .apply_cell_change(&mut table, 0, 4, Value::from("46999"))
            .unwrap();
        assert_eq!(engine.rule_stats(0).context, 1);
        assert_eq!(engine.rule_stats(0).violations, 1);
        assert!(engine.agrees_with_rebuild(&table));
        // Repair to the constant: the constant is interned at this moment.
        engine
            .apply_cell_change(&mut table, 0, 2, Value::from("Nowhere"))
            .unwrap();
        assert_eq!(engine.rule_stats(0).violations, 0);
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn note_new_tuple_extends_tracking() {
        let (mut table, _, mut engine) = build_fixture();
        let tid = table
            .push_text_row(&["H9", "Coliseum Blvd", "Fort Wayne", "IN", "46111"])
            .unwrap();
        engine.note_new_tuple(&table, tid);
        assert_eq!(engine.row_count(), 6);
        // The new tuple conflicts with t2 and t3 on the variable rule.
        assert!(engine.dirty_tuples().contains(&tid));
        assert_eq!(engine.conflict_partners(6, tid), vec![2, 3]);
        assert!(engine.agrees_with_rebuild(&table));
    }

    #[test]
    fn stats_generations_move_only_on_real_changes() {
        let (mut table, _, mut engine) = build_fixture();
        let gens: Vec<u64> = (0..engine.ruleset().len())
            .map(|r| engine.stats_generation(r))
            .collect();
        // What-if evaluation restores every stamp it perturbed.
        engine
            .stats_if(&mut table, 1, 2, &Value::from("Michigan City"))
            .unwrap();
        let after_what_if: Vec<u64> = (0..engine.ruleset().len())
            .map(|r| engine.stats_generation(r))
            .collect();
        assert_eq!(gens, after_what_if);

        // A real change moves exactly the rules involving the attribute.
        engine
            .apply_cell_change(&mut table, 1, 2, Value::from("Michigan City"))
            .unwrap();
        let involved = engine.rules_involving(2).to_vec();
        for (rule, &gen_before) in gens.iter().enumerate() {
            if involved.contains(&rule) {
                assert!(engine.stats_generation(rule) > gen_before, "rule {rule}");
            } else {
                assert_eq!(engine.stats_generation(rule), gen_before, "rule {rule}");
            }
        }
        // The per-attribute stamp is the max over the involving rules.
        let expect = engine
            .rules_involving(2)
            .iter()
            .map(|&r| engine.stats_generation(r))
            .max()
            .unwrap();
        assert_eq!(engine.attr_stats_generation(2), expect);
    }

    #[test]
    fn new_tuples_and_rebuilds_stamp_every_rule() {
        let (mut table, _, mut engine) = build_fixture();
        let before = engine.attr_stats_generation(0);
        let tid = table
            .push_text_row(&["H9", "Main St", "Westville", "IN", "46391"])
            .unwrap();
        engine.note_new_tuple(&table, tid);
        for rule in 0..engine.ruleset().len() {
            assert!(engine.stats_generation(rule) > before);
        }
        let pre_rebuild = engine.stats_generation(0);
        engine.rebuild(&table);
        assert!(engine.stats_generation(0) > pre_rebuild);
    }

    #[test]
    fn rebuild_matches_incremental_state() {
        let (mut table, _, mut engine) = build_fixture();
        engine
            .apply_cell_change(&mut table, 1, 2, Value::from("Michigan City"))
            .unwrap();
        let mut rebuilt = engine.clone();
        rebuilt.rebuild(&table);
        for rule in 0..engine.ruleset().len() {
            assert_eq!(engine.rule_stats(rule), rebuilt.rule_stats(rule));
        }
    }

    #[test]
    fn empty_ruleset_reports_nothing() {
        let schema = schema();
        let mut table = Table::new("addr", schema);
        table
            .push_text_row(&["H1", "Main St", "Michigan City", "IN", "46360"])
            .unwrap();
        let engine = ViolationEngine::build(&table, &RuleSet::new(vec![]));
        assert_eq!(engine.dirty_tuples(), Vec::<TupleId>::new());
        assert_eq!(engine.total_violations(), 0);
    }

    #[test]
    fn conflict_rhs_ids_match_partner_cells() {
        let (table, _, engine) = build_fixture();
        let rule = 6;
        let rhs_attr = engine.ruleset().rule(rule).rhs();
        for tuple in 0..engine.row_count() {
            let mut via_partners: Vec<ValueId> = engine
                .conflict_partners(rule, tuple)
                .into_iter()
                .map(|p| table.cell_id(p, rhs_attr))
                .collect();
            via_partners.sort_unstable();
            via_partners.dedup();
            let mut via_buckets = engine.conflict_rhs_ids(rule, tuple);
            via_buckets.sort_unstable();
            assert_eq!(via_buckets, via_partners, "tuple {tuple}");
        }
        // Constant rules have no buckets.
        assert_eq!(engine.conflict_rhs_ids(0, 1), Vec::<ValueId>::new());
    }

    #[test]
    fn rule_stats_satisfying_plus_violating_tuples_equals_rows() {
        let (_, ruleset, engine) = build_fixture();
        for rule in 0..ruleset.len() {
            let stats = engine.rule_stats(rule);
            let violating = engine.violating_tuples(rule).len();
            assert_eq!(stats.satisfying + violating, engine.row_count());
        }
    }
}
