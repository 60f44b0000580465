//! Data-quality loss (Eq. 2–3) measured against the desired clean database.
//!
//! The paper defines, for a rule `φ` with user weight `w`,
//!
//! ```text
//! ql(D, φ) = (|D_opt ⊨ φ| − |D ⊨ φ|) / |D_opt ⊨ φ|        (Eq. 2)
//! L(D)     = Σ_i  w_i · ql(D, φ_i)                          (Eq. 3)
//! ```
//!
//! Every tuple weighs 1 in these counts: Definition 1's optional per-tuple
//! weight on `vio(t)` is not modelled, and only the rule weights `w_i`
//! scale the loss.
//!
//! The paper reports experiment progress as the *quality improvement* — how
//! much of the initial loss has been recovered.  During an experiment `D_opt`
//! is the ground truth (§5, "Data quality state metric"), so the evaluator
//! pre-computes `|D_opt ⊨ φ|` once and derives the loss of any instance from
//! its [`gdr_cfd::ViolationEngine`] statistics in `O(|Σ|)`.
//!
//! Sessions checkpoint the loss after every answer, and one answer only
//! perturbs the rules involving the attributes it wrote, so even the `O(|Σ|)`
//! walk is mostly redundant.  [`LossTracker`] caches the per-rule loss terms
//! and recomputes only the rules a checkpoint's caller reports as damaged;
//! the total is re-summed in rule order so it is *bit-identical* to the
//! from-scratch [`QualityEvaluator::loss_of_engine`], which survives as the
//! debug oracle (the two are asserted equal in tests and, in debug builds, on
//! every read).

use gdr_cfd::{RuleId, RuleSet, ViolationEngine};
use gdr_relation::Table;

/// Evaluator of the loss function `L` (Eq. 3) against a fixed ground truth.
#[derive(Debug, Clone)]
pub struct QualityEvaluator {
    /// `|D_opt ⊨ φ_i|` for every rule.
    opt_satisfying: Vec<usize>,
    /// The rule weights `w_i`.
    weights: Vec<f64>,
    /// Loss of the initial dirty instance, fixed at construction.
    initial_loss: f64,
}

impl QualityEvaluator {
    /// Builds the evaluator from the ground truth, the rules, and the initial
    /// dirty instance (whose loss becomes the 0 %-improvement reference).
    pub fn new(ground_truth: &Table, ruleset: &RuleSet, initial_dirty: &Table) -> QualityEvaluator {
        let opt_engine = ViolationEngine::build(ground_truth, ruleset);
        let opt_satisfying: Vec<usize> = (0..ruleset.len())
            .map(|r| opt_engine.rule_stats(r).satisfying)
            .collect();
        let weights = ruleset.weights().to_vec();
        let mut evaluator = QualityEvaluator {
            opt_satisfying,
            weights,
            initial_loss: 0.0,
        };
        let initial_engine = ViolationEngine::build(initial_dirty, ruleset);
        evaluator.initial_loss = evaluator.loss_of_engine(&initial_engine);
        evaluator
    }

    /// The loss of the initial dirty instance (the 0 %-improvement baseline).
    pub fn initial_loss(&self) -> f64 {
        self.initial_loss
    }

    /// Number of rules the evaluator was built over.
    pub fn rule_count(&self) -> usize {
        self.opt_satisfying.len()
    }

    /// The weighted Eq. 2 term of a single rule, `w_i · ql(D, φ_i)`, read
    /// from the engine's statistics.  Both the from-scratch
    /// [`QualityEvaluator::loss_of_engine`] and the incremental
    /// [`LossTracker`] are sums of exactly these terms.
    pub fn rule_loss_term(&self, rule: RuleId, engine: &ViolationEngine) -> f64 {
        let opt = self.opt_satisfying[rule];
        if opt == 0 {
            return 0.0;
        }
        let satisfied = engine.rule_stats(rule).satisfying.min(opt);
        self.weights[rule] * (opt - satisfied) as f64 / opt as f64
    }

    /// Eq. 3 evaluated from an engine's per-rule statistics — the
    /// from-scratch path, kept as the debug oracle for [`LossTracker`].
    pub fn loss_of_engine(&self, engine: &ViolationEngine) -> f64 {
        (0..self.opt_satisfying.len())
            .map(|rule| self.rule_loss_term(rule, engine))
            .sum()
    }

    /// Eq. 3 for an arbitrary table (builds a throwaway engine; use
    /// [`QualityEvaluator::loss_of_engine`] on hot paths).
    pub fn loss_of_table(&self, table: &Table, ruleset: &RuleSet) -> f64 {
        self.loss_of_engine(&ViolationEngine::build(table, ruleset))
    }

    /// Quality improvement in percent relative to the initial dirty instance:
    /// `100 · (L(D_dirty) − L(D)) / L(D_dirty)`.
    ///
    /// 0 % means "as dirty as the start", 100 % means "loss fully recovered".
    /// The value is clamped below at 0 so a (rare) regression reads as 0 %.
    pub fn improvement_pct(&self, current_loss: f64) -> f64 {
        if self.initial_loss <= f64::EPSILON {
            return 100.0;
        }
        (100.0 * (self.initial_loss - current_loss) / self.initial_loss).max(0.0)
    }
}

/// Incrementally-maintained Eq. 3 loss.
///
/// The tracker caches one weighted loss term per rule.  Callers report the
/// *damage* of each database write — the rules involving the written
/// attribute, exactly what `RepairState` journals per cell change — via
/// [`LossTracker::invalidate_rule`]; a [`LossTracker::loss`] read then
/// refreshes only the invalidated terms and re-sums the cached vector in
/// rule order.  Summing in rule order makes the result bit-identical to the
/// from-scratch [`QualityEvaluator::loss_of_engine`] (same addends, same
/// fold order), which is kept as the debug oracle: debug builds compare the
/// two on every read.
#[derive(Debug, Clone)]
pub struct LossTracker {
    per_rule: Vec<f64>,
    stale: Vec<bool>,
    /// Rules whose cached term must be refreshed before the next read.
    dirty: Vec<RuleId>,
    all_dirty: bool,
}

impl LossTracker {
    /// A tracker over `rules` rules with every term initially stale.
    pub fn new(rules: usize) -> LossTracker {
        LossTracker {
            per_rule: vec![0.0; rules],
            stale: vec![false; rules],
            dirty: Vec::new(),
            all_dirty: true,
        }
    }

    /// Marks one rule's cached term stale (idempotent within an epoch).
    pub fn invalidate_rule(&mut self, rule: RuleId) {
        if self.all_dirty || self.stale[rule] {
            return;
        }
        self.stale[rule] = true;
        self.dirty.push(rule);
    }

    /// Marks every term stale — the escape hatch for bulk mutations that
    /// bypass per-change damage reporting (e.g. the automatic heuristic).
    pub fn invalidate_all(&mut self) {
        self.all_dirty = true;
        self.dirty.clear();
        for flag in &mut self.stale {
            *flag = false;
        }
    }

    /// The current Eq. 3 loss: refreshes the invalidated terms from the
    /// engine's statistics and sums the per-rule vector in rule order.
    pub fn loss(&mut self, evaluator: &QualityEvaluator, engine: &ViolationEngine) -> f64 {
        debug_assert_eq!(self.per_rule.len(), evaluator.rule_count());
        if self.all_dirty {
            for (rule, term) in self.per_rule.iter_mut().enumerate() {
                *term = evaluator.rule_loss_term(rule, engine);
            }
            self.all_dirty = false;
        } else {
            for rule in self.dirty.drain(..) {
                self.per_rule[rule] = evaluator.rule_loss_term(rule, engine);
                self.stale[rule] = false;
            }
        }
        let loss: f64 = self.per_rule.iter().sum();
        debug_assert_eq!(
            loss.to_bits(),
            evaluator.loss_of_engine(engine).to_bits(),
            "incremental loss diverged from the from-scratch oracle"
        );
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::parser;
    use gdr_relation::{Schema, Value};

    fn schema() -> Schema {
        Schema::new(&["CT", "ZIP"])
    }

    fn rules(schema: &Schema) -> RuleSet {
        let mut rules = RuleSet::new(
            parser::parse_rules(
                schema,
                "ZIP -> CT : 46360 || Michigan City\nZIP -> CT : 46391 || Westville\n",
            )
            .unwrap(),
        );
        rules.set_weight(0, 0.5).unwrap();
        rules.set_weight(1, 0.25).unwrap();
        rules
    }

    fn clean() -> Table {
        let mut t = Table::new("clean", schema());
        t.push_text_row(&["Michigan City", "46360"]).unwrap();
        t.push_text_row(&["Michigan City", "46360"]).unwrap();
        t.push_text_row(&["Westville", "46391"]).unwrap();
        t.push_text_row(&["Fort Wayne", "46825"]).unwrap();
        t
    }

    fn dirty() -> Table {
        let mut t = clean().snapshot("dirty");
        t.set_cell(0, 0, Value::from("Westville")).unwrap(); // violates rule 0
        t.set_cell(2, 0, Value::from("Fort Wayne")).unwrap(); // violates rule 1
        t
    }

    #[test]
    fn clean_database_has_zero_loss() {
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let evaluator = QualityEvaluator::new(&clean, &rules, &clean);
        assert_eq!(evaluator.initial_loss(), 0.0);
        assert_eq!(evaluator.loss_of_table(&clean, &rules), 0.0);
        assert_eq!(evaluator.improvement_pct(0.0), 100.0);
    }

    #[test]
    fn loss_matches_hand_computation() {
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let dirty = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &dirty);
        // Rule 0: |Dopt ⊨ φ| = 4, dirty satisfies 3 → ql = 1/4, weighted 0.5·0.25.
        // Rule 1: |Dopt ⊨ φ| = 4, dirty satisfies 3 → ql = 1/4, weighted 0.25·0.25.
        let expected = 0.5 * 0.25 + 0.25 * 0.25;
        assert!((evaluator.initial_loss() - expected).abs() < 1e-12);
    }

    #[test]
    fn improvement_percentage_tracks_partial_repairs() {
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let dirty = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &dirty);

        // Repair one of the two errors.
        let mut half = dirty.snapshot("half");
        half.set_cell(0, 0, Value::from("Michigan City")).unwrap();
        let loss = evaluator.loss_of_table(&half, &rules);
        let pct = evaluator.improvement_pct(loss);
        // The repaired rule carried 2/3 of the weighted loss.
        assert!((pct - 66.6667).abs() < 0.1, "pct = {pct}");

        // Full repair → 100 %.
        let loss = evaluator.loss_of_table(&clean, &rules);
        assert_eq!(evaluator.improvement_pct(loss), 100.0);
        // No repair → 0 %.
        assert_eq!(evaluator.improvement_pct(evaluator.initial_loss()), 0.0);
    }

    #[test]
    fn improvement_never_goes_negative() {
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let dirty = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &dirty);
        // Make things even worse than the initial instance.
        let mut worse = dirty.snapshot("worse");
        worse.set_cell(1, 0, Value::from("Nowhere")).unwrap();
        let loss = evaluator.loss_of_table(&worse, &rules);
        assert!(loss > evaluator.initial_loss());
        assert_eq!(evaluator.improvement_pct(loss), 0.0);
    }

    #[test]
    fn loss_tracker_matches_from_scratch_oracle_under_damage_reports() {
        use gdr_cfd::ViolationEngine;
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let mut current = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &current);
        let mut engine = ViolationEngine::build(&current, &rules);
        let mut tracker = LossTracker::new(rules.len());
        assert_eq!(
            tracker.loss(&evaluator, &engine).to_bits(),
            evaluator.loss_of_engine(&engine).to_bits()
        );

        // Repair cell (0, 0) and report only the damaged rules.
        engine
            .apply_cell_change(&mut current, 0, 0, Value::from("Michigan City"))
            .unwrap();
        for &rule in engine.rules_involving(0) {
            tracker.invalidate_rule(rule);
        }
        assert_eq!(
            tracker.loss(&evaluator, &engine).to_bits(),
            evaluator.loss_of_engine(&engine).to_bits()
        );

        // Worsen a cell, then use the bulk invalidation escape hatch.
        engine
            .apply_cell_change(&mut current, 1, 0, Value::from("Nowhere"))
            .unwrap();
        tracker.invalidate_all();
        assert_eq!(
            tracker.loss(&evaluator, &engine).to_bits(),
            evaluator.loss_of_engine(&engine).to_bits()
        );
    }

    #[test]
    fn loss_tracker_with_unreported_damage_serves_the_cached_term() {
        use gdr_cfd::ViolationEngine;
        let schema = schema();
        let rules = rules(&schema);
        let clean = clean();
        let mut current = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &current);
        let mut engine = ViolationEngine::build(&current, &rules);
        let mut tracker = LossTracker::new(rules.len());
        let before = tracker.loss(&evaluator, &engine);

        // A write nobody reports: the tracker must keep serving the cached
        // value (this is exactly why every engine write path must report its
        // damage).  Only meaningful in release builds — the debug_assert
        // oracle catches the divergence in debug builds by design.
        if cfg!(not(debug_assertions)) {
            engine
                .apply_cell_change(&mut current, 0, 0, Value::from("Michigan City"))
                .unwrap();
            assert_eq!(
                tracker.loss(&evaluator, &engine).to_bits(),
                before.to_bits()
            );
            tracker.invalidate_all();
            assert_eq!(
                tracker.loss(&evaluator, &engine).to_bits(),
                evaluator.loss_of_engine(&engine).to_bits()
            );
        } else {
            assert_eq!(
                before.to_bits(),
                evaluator.loss_of_engine(&engine).to_bits()
            );
        }
    }

    #[test]
    fn rules_with_empty_optimal_context_contribute_nothing() {
        let schema = schema();
        // A rule whose context never occurs in the ground truth.
        let mut rules = rules(&schema);
        let extra = parser::parse_rules(&schema, "ZIP -> CT : 99999 || Nowhere\n").unwrap();
        for rule in extra {
            rules.push(rule, 1.0);
        }
        let clean = clean();
        let dirty = dirty();
        let evaluator = QualityEvaluator::new(&clean, &rules, &dirty);
        assert!(evaluator.initial_loss().is_finite());
    }
}
