//! VOI-based ranking of update groups (Eq. 6).
//!
//! The estimated data-quality gain of acquiring user feedback on a group
//! `c = {r_1, …, r_J}` is
//!
//! ```text
//! E[g(c)] = Σ_{φ_i ∈ Σ} w_i · Σ_{r_j ∈ c}
//!              p̃_j · ( vio(D, {φ_i}) − vio(D^{r_j}, {φ_i}) ) / |D^{r_j} ⊨ φ_i|
//! ```
//!
//! where `p̃_j` is the probability the update is correct (the learner's
//! confirm probability once trained, the repair-evaluation score `s_j`
//! before), `D^{r_j}` is the instance with `r_j` applied, and `|D^{r_j} ⊨
//! φ_i|` its number of satisfying tuples.  Only rules involving the update's
//! attribute can change, so each update contributes terms for just those
//! rules — exactly what [`gdr_repair::RepairState::what_if_stats`] returns.
//!
//! # Incremental re-ranking: the invalidation protocol
//!
//! Procedure 1 re-ranks every group after every user answer, but a confirmed
//! update only perturbs the rules involving its attribute, so almost all of
//! that work is redundant.  [`BenefitCache`] and [`VoiRanker`] make the
//! per-answer cost proportional to the *damage* of the answer instead of the
//! size of the candidate pool.  The protocol has three layers:
//!
//! * **Generations** (`gdr-cfd`).  The violation engine stamps, on every
//!   *real* mutation (what-ifs suppress all stamping): each involved rule
//!   (`stats_generation`), the written row (`row_generation`), and each
//!   agreement group whose structure changed (`group_generation`).
//!   `attr_stats_generation(B)` — the max over the rules involving `B` —
//!   moves iff *any* statistic a what-if on `B` reads may have changed; it
//!   is deliberately coarse and only decides which groups to *rescore*.
//!
//! * **Benefit terms** ([`BenefitCache`]).  The expensive part of one Eq. 6
//!   term is the what-if evaluation.  Its absolute result depends on global
//!   aggregates (`vio(D, φ)`, `|D ⊨ φ|`) that move with almost every
//!   answer, so the cache stores the *local deltas* the update would inflict
//!   (`Δvio`, `Δsatisfying` per involved rule) — pure functions of the
//!   tuple's row (constant rules) plus the touched agreement groups
//!   (variable rules).  Entries are guarded by the row generation and the
//!   touched groups' generations; a hit recombines the deltas with the
//!   current aggregates in integer arithmetic, reproducing the fresh
//!   triples — and therefore the fresh benefit — bit for bit.  The
//!   probability `p̃` is not part of the memo: it multiplies back in on
//!   every read, so learner retrains never invalidate anything.
//!
//! * **Ranking epochs** ([`VoiRanker`] + [`crate::grouping::GroupIndex`]).
//!   [`RepairState`] keeps a *net suggestion delta*: for each cell whose
//!   suggestion changed since the ranker last synced, the suggestion the
//!   cell held at that sync.  A cell that goes X → Y → X between two syncs
//!   nets to nothing, so the delta is bounded by the cells touched, not by
//!   the answers given.  On `sync` the ranker takes the delta
//!   (`take_suggestion_delta`), removes each cell's old suggestion from the
//!   persistent group index and inserts its current one, and marks dirty
//!   (a) groups whose membership changed and (b) groups of every attribute
//!   whose generation moved.  `rescore_benefits` then recomputes *only*
//!   dirty groups — a group of an untouched attribute keeps its previous
//!   score without a single `stats_if` call — and re-inserts them into the
//!   max-ordered ranking, which `best`/`ranking` read directly.
//!
//! **Cache-coherence invariants.**  (1) Whatever perturbs a rule's stats
//! bumps its generation in the same mutation; (2) what-if evaluation leaves
//! stats, generations, and the suggestion delta untouched; (3) every
//! mutation of the `PossibleUpdates` list goes through the delta, so at each
//! `sync` the group index holds exactly the list the delta's old values
//! describe — removing them and inserting the current suggestions
//! reconstructs the list exactly, in any cell order, because group members
//! are keyed by tuple; (4) suggestion values are interned before they are
//! recorded, so `(attr, value-id)` group keys are stable for the life of a
//! table.  Strategies whose probabilities depend on mutable state outside
//! this protocol (the learner's committee votes) must pass
//! `mark_all_dirty` before rescoring: the benefit triples stay cached, only
//! the cheap `Σ p̃·w·term` products are recomputed.

use std::collections::HashMap;

use gdr_cfd::RuleId;
use gdr_relation::{AttrId, TupleId, Value, ValueId};
use gdr_repair::{RepairState, Update};

use crate::grouping::{GroupIndex, UpdateGroup};
use crate::Result;

/// One term of Eq. 6: the contribution of a single update to a single rule.
///
/// `vio_before`/`vio_after` are `vio(D, {φ})` and `vio(D^{r_j}, {φ})`;
/// `satisfying_after` is `|D^{r_j} ⊨ φ|`.  A rule nobody satisfies after the
/// update contributes nothing (the paper's formula would divide by zero; such
/// a repair cannot reduce the loss of that rule anyway).
pub fn update_benefit_term(
    probability: f64,
    vio_before: usize,
    vio_after: usize,
    satisfying_after: usize,
) -> f64 {
    if satisfying_after == 0 {
        return 0.0;
    }
    probability * (vio_before as f64 - vio_after as f64) / satisfying_after as f64
}

/// Estimated benefit `E[g(c)]` of a group of updates (Eq. 6).
///
/// `probabilities` supplies `p̃_j` for each member of the group, in the same
/// order as `group.updates`.
pub fn group_benefit(
    state: &mut RepairState,
    group: &UpdateGroup,
    probabilities: &[f64],
) -> Result<f64> {
    assert_eq!(
        group.updates.len(),
        probabilities.len(),
        "one probability per group member is required"
    );
    let mut benefit = 0.0;
    for (update, &p) in group.updates.iter().zip(probabilities) {
        benefit += single_update_benefit(state, update, p)?;
    }
    Ok(benefit)
}

/// The Eq. 6 contribution of one update: `Σ_i w_i · p̃ · (vio − vio') / |D' ⊨ φ_i|`
/// over the rules its attribute participates in.
pub fn single_update_benefit(
    state: &mut RepairState,
    update: &Update,
    probability: f64,
) -> Result<f64> {
    let rows = what_if_rows(state, update)?;
    Ok(benefit_from_rows(state, update.attr, &rows, probability))
}

/// The per-rule what-if triples `(vio, vio', |D' ⊨ φ|)` of one update,
/// aligned with `rules_involving(update.attr)` — the probability-free,
/// cacheable part of Eq. 6.
fn what_if_rows(state: &mut RepairState, update: &Update) -> Result<Vec<(usize, usize, usize)>> {
    let before: Vec<usize> = state
        .rules_involving(update.attr)
        .iter()
        .map(|&rule| state.rule_stats(rule).violations)
        .collect();
    let after = state.what_if_stats(update)?;
    debug_assert_eq!(
        before.len(),
        after.len(),
        "what-if stats must cover exactly the rules involving the attribute"
    );
    Ok(before
        .iter()
        .zip(&after)
        .zip(state.rules_involving(update.attr))
        .map(|((&vio_before, &(rule, stats_after)), &involved)| {
            debug_assert_eq!(rule, involved, "what-if stats out of rule order");
            (vio_before, stats_after.violations, stats_after.satisfying)
        })
        .collect())
}

/// Folds cached what-if triples back into the Eq. 6 benefit with the exact
/// arithmetic of the from-scratch path.
fn benefit_from_rows(
    state: &RepairState,
    attr: AttrId,
    rows: &[(usize, usize, usize)],
    probability: f64,
) -> f64 {
    let rules = state.rules_involving(attr);
    let weights = state.ruleset().weights();
    debug_assert_eq!(rules.len(), rows.len(), "stale what-if row count");
    let mut benefit = 0.0;
    for (&rule, &(vio_before, vio_after, satisfying_after)) in rules.iter().zip(rows) {
        benefit += weights[rule]
            * update_benefit_term(probability, vio_before, vio_after, satisfying_after);
    }
    benefit
}

/// Cache key of one memoized what-if: the update's cell and interned value.
pub type BenefitKey = (TupleId, AttrId, ValueId);

/// Memo of the *local deltas* of Eq. 6's what-if per `(tuple, attr,
/// value-id)`, guarded by row and agreement-group generations (see the
/// module-level invalidation protocol).
///
/// The absolute what-if triples depend on global aggregates (every rule's
/// current `vio` and `|D ⊨ φ|`), which move with almost every answer — so
/// the cache stores what does *not* move: the change the update itself would
/// inflict (`Δvio`, `Δsatisfying` per rule), a pure function of the tuple's
/// row and the agreement groups the change touches.  A hit recombines the
/// deltas with the current aggregates in integer arithmetic, reproducing the
/// fresh triples exactly, and therefore the fresh benefit bit for bit.
#[derive(Debug, Clone, Default)]
pub struct BenefitCache {
    entries: HashMap<BenefitKey, CachedWhatIf>,
}

/// A captured set of cache damage (see [`VoiRanker::damage_snapshot`]).
#[derive(Debug, Clone)]
pub struct BenefitCacheSnapshot {
    stale: Vec<(BenefitKey, CachedWhatIf)>,
    missing: Vec<BenefitKey>,
}

#[derive(Debug, Clone)]
struct CachedWhatIf {
    /// [`RepairState::row_generation`] of the update's tuple at compute
    /// time; any real write to the row invalidates the entry.
    row_generation: u64,
    /// Per rule involving the attribute, in `rules_involving` order.
    rules: Vec<CachedRuleDelta>,
}

#[derive(Debug, Clone)]
struct CachedRuleDelta {
    /// `vio(D^r) − vio(D)` of the rule under the hypothetical update.
    delta_vio: i64,
    /// `|D^r ⊨ φ| − |D ⊨ φ|` under the hypothetical update.
    delta_sat: i64,
    /// Agreement-group keys the what-if touched, with their generations at
    /// compute time; any movement invalidates the entry (empty for constant
    /// rules, whose deltas depend on the row alone).
    guards: Vec<(gdr_relation::SmallKey, u64)>,
}

impl BenefitCache {
    /// Drops one entry, if present.
    pub(crate) fn remove(&mut self, key: &BenefitKey) {
        self.entries.remove(key);
    }

    /// Is the memo for this update present and still valid?
    pub fn entry_valid(&self, state: &RepairState, update: &Update) -> bool {
        let Some(id) = state.table().lookup_id(update.attr, &update.value) else {
            return false;
        };
        let Some(entry) = self.entries.get(&(update.tuple, update.attr, id)) else {
            return false;
        };
        entry_valid(state, update.tuple, update.attr, entry)
    }

    /// [`BenefitCache::update_benefit`] with the update's value id already
    /// resolved (`None` when the value is not interned yet) — the group
    /// index knows it, and skipping the per-member dictionary lookup keeps
    /// the hit path free of string hashing.
    pub(crate) fn update_benefit_keyed(
        &mut self,
        state: &mut RepairState,
        update: &Update,
        value_id: Option<ValueId>,
        probability: f64,
    ) -> Result<f64> {
        let attr = update.attr;
        debug_assert_eq!(value_id, state.table().lookup_id(attr, &update.value));
        if let Some(id) = value_id {
            let key = (update.tuple, attr, id);
            if let Some(entry) = self.entries.get(&key) {
                if state.row_generation(update.tuple) == entry.row_generation {
                    // The row is unchanged: every delta is valid except those
                    // whose agreement-group guards moved — refresh only those
                    // rules, one single-rule what-if each.
                    let any_stale = state
                        .rules_involving(attr)
                        .iter()
                        .zip(&entry.rules)
                        .any(|(&rule, delta)| !guards_hold(state, rule, delta));
                    if !any_stale {
                        return Ok(benefit_from_deltas(state, attr, &entry.rules, probability));
                    }
                    let rules: Vec<RuleId> = state.rules_involving(attr).to_vec();
                    let entry = self.entries.get_mut(&key).expect("entry exists");
                    for (i, &rule) in rules.iter().enumerate() {
                        if guards_hold(state, rule, &entry.rules[i]) {
                            continue;
                        }
                        let (stats_after, guards) = state.what_if_rule_guarded(update, rule)?;
                        let before = state.rule_stats(rule);
                        entry.rules[i] = CachedRuleDelta {
                            delta_vio: stats_after.violations as i64 - before.violations as i64,
                            delta_sat: stats_after.satisfying as i64 - before.satisfying as i64,
                            guards,
                        };
                    }
                    let entry = &self.entries[&key];
                    return Ok(benefit_from_deltas(state, attr, &entry.rules, probability));
                }
            }
        }
        // Full miss: evaluate the what-if once, answer from the fresh
        // triples, and remember the deltas with their guards.
        let guarded = state.what_if_stats_guarded(update)?;
        let involved_len = state.rules_involving(attr).len();
        debug_assert_eq!(guarded.stats.len(), involved_len);
        let mut rows: Vec<(usize, usize, usize)> = Vec::with_capacity(involved_len);
        let mut deltas: Vec<CachedRuleDelta> = Vec::with_capacity(involved_len);
        for ((&(rule, stats_after), guards), &involved) in guarded
            .stats
            .iter()
            .zip(guarded.touched_groups)
            .zip(state.rules_involving(attr))
        {
            debug_assert_eq!(rule, involved, "what-if stats out of rule order");
            let before = state.rule_stats(rule);
            rows.push((
                before.violations,
                stats_after.violations,
                stats_after.satisfying,
            ));
            deltas.push(CachedRuleDelta {
                delta_vio: stats_after.violations as i64 - before.violations as i64,
                delta_sat: stats_after.satisfying as i64 - before.satisfying as i64,
                guards,
            });
        }
        let benefit = benefit_from_rows(state, attr, &rows, probability);
        // The what-if interned the value if it was new, so the id resolves
        // now even when the caller could not supply one.
        let id = match value_id {
            Some(id) => id,
            None => state
                .table()
                .lookup_id(attr, &update.value)
                .expect("what-if evaluation interns the update's value"),
        };
        self.entries.insert(
            (update.tuple, attr, id),
            CachedWhatIf {
                row_generation: state.row_generation(update.tuple),
                rules: deltas,
            },
        );
        Ok(benefit)
    }
}

/// Are one rule-delta's agreement-group guards all unmoved?
fn guards_hold(state: &RepairState, rule: RuleId, delta: &CachedRuleDelta) -> bool {
    delta
        .guards
        .iter()
        .all(|(key, generation)| state.group_generation(rule, key) == *generation)
}

/// Are a memo's guards all unmoved?
fn entry_valid(state: &RepairState, tuple: TupleId, attr: AttrId, entry: &CachedWhatIf) -> bool {
    if state.row_generation(tuple) != entry.row_generation {
        return false;
    }
    let rules = state.rules_involving(attr);
    debug_assert_eq!(rules.len(), entry.rules.len());
    rules
        .iter()
        .zip(&entry.rules)
        .all(|(&rule, delta)| guards_hold(state, rule, delta))
}

/// Recombines cached deltas with the *current* rule aggregates, reproducing
/// exactly the triples a fresh what-if would yield, then folds them into the
/// benefit with the from-scratch arithmetic.
fn benefit_from_deltas(
    state: &RepairState,
    attr: AttrId,
    deltas: &[CachedRuleDelta],
    probability: f64,
) -> f64 {
    let rules = state.rules_involving(attr);
    let weights = state.ruleset().weights();
    debug_assert_eq!(rules.len(), deltas.len(), "stale delta count");
    let mut benefit = 0.0;
    for (&rule, delta) in rules.iter().zip(deltas) {
        let stats = state.rule_stats(rule);
        let vio_before = stats.violations;
        let vio_after = (stats.violations as i64 + delta.delta_vio) as usize;
        let satisfying_after = (stats.satisfying as i64 + delta.delta_sat) as usize;
        benefit += weights[rule]
            * update_benefit_term(probability, vio_before, vio_after, satisfying_after);
    }
    benefit
}

/// The incremental group ranker: a persistent [`GroupIndex`] kept in sync
/// with the repair state's suggestion delta, plus a [`BenefitCache`] so
/// rescoring a dirty group reuses every still-valid Eq. 6 term.
#[derive(Debug, Clone, Default)]
pub struct VoiRanker {
    index: GroupIndex,
    cache: BenefitCache,
    /// Last attribute generation folded into group scores, per attribute.
    seen_attr_generation: HashMap<AttrId, u64>,
    initialized: bool,
}

impl VoiRanker {
    /// A ranker that will lazily build its index on the first `sync`.
    pub fn new() -> VoiRanker {
        VoiRanker::default()
    }

    /// Brings the group index in line with the repair state: builds it from
    /// the current `PossibleUpdates` list on first use, afterwards applies
    /// the suggestion delta accumulated since the previous sync, and marks
    /// dirty every group invalidated by membership churn or by rule-stats
    /// generation movement.
    pub fn sync(&mut self, state: &mut RepairState) {
        let delta = state.take_suggestion_delta();
        let table = state.table();
        let lookup = |attr: AttrId, value: &Value| table.lookup_id(attr, value);
        if !self.initialized {
            self.index = GroupIndex::from_updates(lookup, state.possible_updates());
            self.initialized = true;
        } else {
            for (cell, old) in delta {
                let current = state.pending_update(cell);
                if let Some(old) = old {
                    self.index.remove(lookup, &old);
                    // A retired suggestion's memo is dead weight: evict it so
                    // the cache tracks the live suggestion set instead of
                    // growing with every what-if ever evaluated.  A cell
                    // still suggesting the same value keeps its memo.
                    if current.map(|u| &u.value) != Some(&old.value) {
                        if let Some(id) = lookup(old.attr, &old.value) {
                            self.cache.remove(&(old.tuple, old.attr, id));
                        }
                    }
                }
                if let Some(current) = current {
                    self.index.insert(lookup, current.clone());
                }
            }
        }
        let attrs: Vec<AttrId> = self.index.attrs().collect();
        for attr in attrs {
            let generation = state.attr_stats_generation(attr);
            if self.seen_attr_generation.get(&attr) != Some(&generation) {
                self.seen_attr_generation.insert(attr, generation);
                self.index.mark_attr_dirty(attr);
            }
        }
    }

    /// Marks every group's score stale (required before rescoring with
    /// probabilities that may have changed outside the delta, e.g. the
    /// learner's committee votes).
    pub(crate) fn mark_all_dirty(&mut self) {
        self.index.mark_all_dirty();
    }

    /// Recomputes the Eq. 6 benefit of every dirty group — and only those —
    /// using `probability` for the members' `p̃_j`.
    pub fn rescore_benefits<P>(&mut self, state: &mut RepairState, mut probability: P) -> Result<()>
    where
        P: FnMut(&RepairState, &Update) -> f64,
    {
        let keys = self.index.take_dirty();
        for (i, &key) in keys.iter().enumerate() {
            let Some(group) = self.index.group(key) else {
                continue;
            };
            let mut benefit = 0.0;
            let mut failed = None;
            for update in group.updates() {
                let p = probability(state, update);
                // The group key carries the members' shared value id, so the
                // cache's hit path never hashes the value itself.
                match self
                    .cache
                    .update_benefit_keyed(state, update, Some(key.1), p)
                {
                    Ok(term) => benefit += term,
                    Err(error) => {
                        failed = Some(error);
                        break;
                    }
                }
            }
            if let Some(error) = failed {
                // Groups not yet rescored must stay dirty, or an error a
                // caller recovers from would silently truncate the ranking.
                for &unprocessed in &keys[i..] {
                    self.index.mark_dirty(unprocessed);
                }
                return Err(error);
            }
            self.index.set_score(key, benefit);
        }
        Ok(())
    }

    /// Scores every dirty group by its size (the Greedy strategy).
    pub(crate) fn rescore_sizes(&mut self) {
        for key in self.index.take_dirty() {
            let len = self.index.group(key).map(|g| g.len()).unwrap_or(0);
            self.index.set_score(key, len as f64);
        }
    }

    /// Scores every dirty group 0.0 (strategies that ignore scores but must
    /// keep the ranked structure drained).
    pub(crate) fn rescore_zero(&mut self) {
        for key in self.index.take_dirty() {
            self.index.set_score(key, 0.0);
        }
    }

    /// The best-ranked group (materialised) and its score.
    pub fn best_group(&self) -> Option<(UpdateGroup, f64)> {
        self.index.best().map(|(g, s)| (g.to_group(), s))
    }

    /// The highest group score floored at zero (`g_max`).
    pub fn max_benefit(&self) -> f64 {
        self.index.max_score()
    }

    /// The full ranking, best first: the oracle `proptest_incremental_rank`
    /// compares against a from-scratch ranking.
    pub fn ranking(&self) -> Vec<(UpdateGroup, f64)> {
        self.index
            .ranking()
            .into_iter()
            .map(|(g, s)| (g.to_group(), s))
            .collect()
    }

    /// Every group in the deterministic `(attr, value)` order.
    pub(crate) fn groups_in_default_order(&self) -> Vec<UpdateGroup> {
        self.index.groups_in_default_order()
    }

    /// The groups currently marked dirty (bench/test introspection).
    pub fn dirty_keys(&self) -> Vec<crate::grouping::GroupKey> {
        self.index.dirty_keys()
    }

    /// Re-marks specific groups dirty (bench support: replay the same
    /// rescore work repeatedly without re-applying the suggestion delta).
    pub fn mark_groups_dirty(&mut self, keys: &[crate::grouping::GroupKey]) {
        for &key in keys {
            self.index.mark_dirty(key);
        }
    }

    /// Captures the cache damage of the last answer over the currently dirty
    /// groups: memos the answer left stale (to restore) and member keys with
    /// no memo yet (to drop again).  Restoring the snapshot re-inflicts
    /// exactly that damage, so a re-rank can be replayed honestly (bench
    /// support).
    pub fn damage_snapshot(&self, state: &RepairState) -> BenefitCacheSnapshot {
        let mut stale = Vec::new();
        let mut missing = Vec::new();
        for group_key in self.index.dirty_keys() {
            let Some(group) = self.index.group(group_key) else {
                continue;
            };
            for update in group.updates() {
                let key = (update.tuple, update.attr, group_key.1);
                match self.cache.entries.get(&key) {
                    Some(entry) if entry_valid(state, update.tuple, update.attr, entry) => {}
                    Some(entry) => stale.push((key, entry.clone())),
                    None => missing.push(key),
                }
            }
        }
        BenefitCacheSnapshot { stale, missing }
    }

    /// Re-inflicts a [`VoiRanker::damage_snapshot`] on the cache.
    pub fn restore_damage(&mut self, snapshot: &BenefitCacheSnapshot) {
        for (key, entry) in &snapshot.stale {
            self.cache.entries.insert(*key, entry.clone());
        }
        for key in &snapshot.missing {
            self.cache.entries.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_updates;
    use gdr_cfd::{parser, RuleSet};
    use gdr_relation::{Schema, Table, Value};

    /// §4.1 worked example: three updates with p̃ = 0.9, 0.6, 0.6, each
    /// removing one violation of a rule with weight 4/8 and leaving exactly
    /// one satisfying tuple in the denominator, give a benefit of 1.05.
    #[test]
    fn paper_worked_example() {
        let weight: f64 = 4.0 / 8.0;
        let terms = [
            update_benefit_term(0.9, 4, 3, 1),
            update_benefit_term(0.6, 4, 3, 1),
            update_benefit_term(0.6, 4, 3, 1),
        ];
        let benefit: f64 = weight * terms.iter().sum::<f64>();
        assert!((benefit - 1.05).abs() < 1e-12, "benefit = {benefit}");
    }

    #[test]
    fn term_is_zero_when_nothing_satisfies_after() {
        assert_eq!(update_benefit_term(0.9, 4, 3, 0), 0.0);
    }

    #[test]
    fn term_can_be_negative_for_harmful_updates() {
        assert!(update_benefit_term(0.5, 2, 5, 10) < 0.0);
    }

    fn fixture() -> (RepairState, Schema) {
        let schema = Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"]);
        let mut table = Table::new("addr", schema.clone());
        // Three tuples whose city is wrong for zip 46360 and one clean tuple.
        table
            .push_text_row(&["H2", "Main St", "Westville", "IN", "46360"])
            .unwrap();
        table
            .push_text_row(&["H2", "Wabash St", "Westvile", "IN", "46360"])
            .unwrap();
        table
            .push_text_row(&["H2", "Ohio St", "Michigan Cty", "IN", "46360"])
            .unwrap();
        table
            .push_text_row(&["H1", "Franklin St", "Michigan City", "IN", "46360"])
            .unwrap();
        // A separate, smaller problem: one Fort Wayne zip conflict.
        table
            .push_text_row(&["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"])
            .unwrap();
        table
            .push_text_row(&["H3", "Coliseum Blvd", "Fort Wayne", "IN", "46999"])
            .unwrap();
        let mut rules = RuleSet::new(
            parser::parse_rules(
                &schema,
                "ZIP -> CT : 46360 || Michigan City\nSTR, CT -> ZIP : _, Fort Wayne || _\n",
            )
            .unwrap(),
        );
        rules.weights_from_context(&table);
        (RepairState::new(table, &rules), schema)
    }

    #[test]
    fn better_groups_get_higher_benefit() {
        let (mut state, _) = fixture();
        let updates = state.possible_updates_sorted();
        let groups = group_updates(&updates);
        // Find the "CT := Michigan City" group (3 members) and the
        // "ZIP := 46825" group (1 member).
        let city_group = groups
            .iter()
            .find(|g| g.attr == 2 && g.value == Value::from("Michigan City"))
            .expect("city group");
        // The three zip-46360 tuples are in the group (LHS repairs of the
        // Fort Wayne tuples may add members, which only raises its benefit).
        assert!(city_group.len() >= 3);
        for tuple in [0, 1, 2] {
            assert!(city_group.updates.iter().any(|u| u.tuple == tuple));
        }
        let zip_group = groups
            .iter()
            .find(|g| g.attr == 4 && g.value == Value::from("46825"))
            .expect("zip group");

        let city_probs = vec![0.9; city_group.len()];
        let zip_probs = vec![0.9; zip_group.len()];
        let city_benefit = group_benefit(&mut state, city_group, &city_probs).unwrap();
        let zip_benefit = group_benefit(&mut state, zip_group, &zip_probs).unwrap();
        assert!(
            city_benefit > zip_benefit,
            "city {city_benefit} should beat zip {zip_benefit}"
        );
        assert!(city_benefit > 0.0);
    }

    #[test]
    fn probability_scales_the_benefit() {
        let (mut state, _) = fixture();
        let updates = state.possible_updates_sorted();
        let groups = group_updates(&updates);
        let city_group = groups
            .iter()
            .find(|g| g.attr == 2 && g.value == Value::from("Michigan City"))
            .unwrap()
            .clone();
        let high = group_benefit(&mut state, &city_group, &vec![1.0; city_group.len()]).unwrap();
        let low = group_benefit(&mut state, &city_group, &vec![0.1; city_group.len()]).unwrap();
        assert!(high > low);
        assert!((high * 0.1 - low).abs() < 1e-9);
    }

    #[test]
    fn benefit_evaluation_leaves_no_side_effects() {
        let (mut state, _) = fixture();
        let before = state.table().clone();
        let updates = state.possible_updates_sorted();
        let groups = group_updates(&updates);
        for group in &groups {
            let probs = vec![0.5; group.len()];
            group_benefit(&mut state, group, &probs).unwrap();
        }
        assert_eq!(before.diff_cells(state.table()).unwrap(), vec![]);
        assert!(state.invariants_hold());
    }

    #[test]
    fn cache_hit_skips_the_what_if_round_trip() {
        let (mut state, _) = fixture();
        let update = state.possible_updates_sorted().remove(0);
        let mut cache = BenefitCache::default();

        let fresh = single_update_benefit(&mut state, &update, 0.7).unwrap();
        let id = state.table().lookup_id(update.attr, &update.value);
        let miss = cache
            .update_benefit_keyed(&mut state, &update, id, 0.7)
            .unwrap();
        assert_eq!(fresh.to_bits(), miss.to_bits());
        assert_eq!(cache.entries.len(), 1);

        let hit = cache
            .update_benefit_keyed(&mut state, &update, id, 0.7)
            .unwrap();
        assert_eq!(hit.to_bits(), fresh.to_bits());

        // A different probability multiplies back in without recomputing.
        let scaled = cache
            .update_benefit_keyed(&mut state, &update, id, 0.35)
            .unwrap();
        let fresh_scaled = single_update_benefit(&mut state, &update, 0.35).unwrap();
        assert_eq!(scaled.to_bits(), fresh_scaled.to_bits());
    }

    #[test]
    fn cache_invalidates_when_a_rule_of_the_attribute_moves() {
        let (mut state, _) = fixture();
        let update = state.possible_updates_sorted().remove(0);
        let mut cache = BenefitCache::default();
        let id = state.table().lookup_id(update.attr, &update.value);
        cache
            .update_benefit_keyed(&mut state, &update, id, 0.5)
            .unwrap();
        let generation = state.attr_stats_generation(update.attr);

        // A real change to the same attribute moves the generation …
        let other = Update::new(2, update.attr, Value::from("Michigan City"), 0.9);
        state
            .apply_feedback(&other, gdr_repair::Feedback::Confirm)
            .unwrap();
        assert_ne!(state.attr_stats_generation(update.attr), generation);

        // … so the cached entry is stale and the next read recomputes: the
        // result must again equal the from-scratch benefit bit for bit.
        let fresh = single_update_benefit(&mut state, &update, 0.5).unwrap();
        let id = state.table().lookup_id(update.attr, &update.value);
        let recomputed = cache
            .update_benefit_keyed(&mut state, &update, id, 0.5)
            .unwrap();
        assert_eq!(recomputed.to_bits(), fresh.to_bits());
    }

    #[test]
    fn ranker_tracks_feedback_incrementally() {
        let (mut state, _) = fixture();
        let mut ranker = VoiRanker::new();
        ranker.sync(&mut state);
        ranker.rescore_benefits(&mut state, |_, u| u.score).unwrap();
        let (best, benefit) = ranker.best_group().expect("groups exist");
        assert_eq!(best.attr, 2);
        assert_eq!(best.value, Value::from("Michigan City"));
        assert!(benefit > 0.0);
        assert_eq!(ranker.max_benefit(), benefit);

        // Confirm one member; the suggestion delta drives the index update.
        let update = best.updates[0].clone();
        state
            .apply_feedback(&update, gdr_repair::Feedback::Confirm)
            .unwrap();
        state.refresh_updates();
        ranker.sync(&mut state);
        ranker.rescore_benefits(&mut state, |_, u| u.score).unwrap();

        // The ranking now matches a from-scratch recomputation exactly.
        let incremental = ranker.ranking();
        let updates = state.possible_updates_sorted();
        let mut scratch: Vec<(UpdateGroup, f64)> = Vec::new();
        for group in group_updates(&updates) {
            let probs: Vec<f64> = group.updates.iter().map(|u| u.score).collect();
            let benefit = group_benefit(&mut state, &group, &probs).unwrap();
            scratch.push((group, benefit));
        }
        scratch.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0.attr, &a.0.value).cmp(&(b.0.attr, &b.0.value)))
        });
        assert_eq!(incremental.len(), scratch.len());
        for ((ig, is), (sg, ss)) in incremental.iter().zip(&scratch) {
            assert_eq!(ig, sg);
            assert_eq!(is.to_bits(), ss.to_bits());
        }
    }

    #[test]
    fn untouched_groups_keep_their_score_without_rescoring() {
        let (mut state, _) = fixture();
        let mut ranker = VoiRanker::new();
        ranker.sync(&mut state);
        ranker.rescore_benefits(&mut state, |_, u| u.score).unwrap();
        // Everything is scored: a re-sync with no changes leaves nothing
        // dirty and the ranking readable as-is.
        ranker.sync(&mut state);
        assert!(ranker.dirty_keys().is_empty());
        assert!(ranker.best_group().is_some());
    }

    #[test]
    #[should_panic(expected = "one probability per group member")]
    fn mismatched_probability_vector_panics() {
        let (mut state, _) = fixture();
        let updates = state.possible_updates_sorted();
        let groups = group_updates(&updates);
        let _ = group_benefit(&mut state, &groups[0], &[]);
    }
}
