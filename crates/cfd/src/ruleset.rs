//! Weighted collections of CFD rules.
//!
//! The quality-loss function (Eq. 3 of the paper) weights each rule by a
//! user-defined importance `w_i`.  The paper's experiments use
//! `w_i = |D(φ_i)| / |D|` — the fraction of tuples that fall in the rule's
//! context — "the more tuples fall in the context of a rule, the more
//! important it is to satisfy this rule".  [`RuleSet::weights_from_context`]
//! computes exactly that; callers may also override weights explicitly.

use std::fmt;

use gdr_relation::codec::{self, Dec, Enc, State};
use gdr_relation::Table;

use crate::rule::{Cfd, RuleId};

/// An ordered collection of normal-form CFDs with per-rule weights.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    rules: Vec<Cfd>,
    weights: Vec<f64>,
}

impl RuleSet {
    /// Builds a rule set with unit weights.
    pub fn new(rules: Vec<Cfd>) -> RuleSet {
        let weights = vec![1.0; rules.len()];
        RuleSet { rules, weights }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules in order.
    pub fn rules(&self) -> &[Cfd] {
        &self.rules
    }

    /// Iterates `(RuleId, &Cfd)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Cfd)> {
        self.rules.iter().enumerate()
    }

    /// Returns a rule by id.
    pub fn rule(&self, id: RuleId) -> &Cfd {
        &self.rules[id]
    }

    /// All weights, parallel to [`RuleSet::rules`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sets every rule's weight to `|D(φ_i)| / |D|`, the default of the
    /// paper's experiments (§4.1).  Rules whose context is empty get weight 0.
    pub fn weights_from_context(&mut self, table: &Table) {
        let n = table.len().max(1) as f64;
        for (id, rule) in self.rules.iter().enumerate() {
            let context = table
                .iter()
                .filter(|(_, tuple)| rule.in_context(tuple))
                .count();
            self.weights[id] = context as f64 / n;
        }
    }

    /// Ids of the rules that involve a given attribute (`attr ∈ X ∪ {A}`).
    /// The consistency manager iterates exactly this set after a cell of that
    /// attribute changes.
    pub(crate) fn rules_involving(&self, attr: usize) -> Vec<RuleId> {
        self.iter()
            .filter(|(_, rule)| rule.involves(attr))
            .map(|(id, _)| id)
            .collect()
    }
}

/// The rules, then one weight per rule (no second length prefix).
impl State for RuleSet {
    const MIN_BYTES: usize = codec::section_bytes("rules", 1) + Vec::<Cfd>::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("rules", 1);
        enc.put(&self.rules);
        enc.fixed(&self.weights);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<RuleSet> {
        dec.section("rules", 1)?;
        let rules: Vec<Cfd> = dec.get()?;
        let weights = dec.fixed(rules.len())?;
        Ok(RuleSet { rules, weights })
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RuleSet [{} rules]", self.rules.len())?;
        for (id, rule) in self.iter() {
            writeln!(f, "  [{id}] w={:.3} {rule}", self.weights[id])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use gdr_relation::{Schema, Table};

    fn schema() -> Schema {
        Schema::new(&["CT", "ZIP"])
    }

    fn rules() -> Vec<Cfd> {
        parse_rules(
            &schema(),
            "ZIP -> CT : 46360 || Michigan City\nZIP -> CT : 46391 || Westville\n",
        )
        .unwrap()
    }

    fn table() -> Table {
        let mut t = Table::new("addr", schema());
        t.push_text_row(&["Michigan City", "46360"]).unwrap();
        t.push_text_row(&["Westville", "46360"]).unwrap();
        t.push_text_row(&["Westville", "46391"]).unwrap();
        t.push_text_row(&["Fort Wayne", "46825"]).unwrap();
        t
    }

    #[test]
    fn construction_and_access() {
        let set = RuleSet::new(rules());
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.weights()[0], 1.0);
        assert_eq!(set.rule(1).name(), "phi2");
    }

    #[test]
    fn context_weights_follow_the_paper() {
        let mut set = RuleSet::new(rules());
        set.weights_from_context(&table());
        // Two of four tuples have ZIP 46360, one has 46391.
        assert!((set.weights()[0] - 0.5).abs() < 1e-12);
        assert!((set.weights()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn context_weights_on_empty_table_are_zero() {
        let mut set = RuleSet::new(rules());
        set.weights_from_context(&Table::new("empty", schema()));
        assert_eq!(set.weights(), &[0.0, 0.0]);
    }

    #[test]
    fn rules_involving_filters_by_attribute() {
        let schema = Schema::new(&["STR", "CT", "ZIP"]);
        let rules = parse_rules(
            &schema,
            "ZIP -> CT : 46360 || Michigan City\nSTR, CT -> ZIP : _, Fort Wayne || _\n",
        )
        .unwrap();
        let set = RuleSet::new(rules);
        assert_eq!(set.rules_involving(0), vec![1]); // STR only in phi2
        assert_eq!(set.rules_involving(1), vec![0, 1]); // CT in both
        assert_eq!(set.rules_involving(2), vec![0, 1]); // ZIP in both
    }

    #[test]
    fn display_lists_rules() {
        let set = RuleSet::new(rules());
        let text = set.to_string();
        assert!(text.contains("2 rules"));
        assert!(text.contains("phi1"));
    }

    #[test]
    fn codec_round_trip_preserves_rules_and_weights() {
        let schema = Schema::new(&["STR", "CT", "ZIP"]);
        let parsed = parse_rules(
            &schema,
            "ZIP -> CT : 46360 || Michigan City\nSTR, CT -> ZIP : _, Fort Wayne || _\n",
        )
        .unwrap();
        let mut set = RuleSet::new(parsed);
        set.weights_from_context(&{
            let mut t = Table::new("addr", schema);
            t.push_text_row(&["Main St", "Michigan City", "46360"])
                .unwrap();
            t.push_text_row(&["Oak Ave", "Fort Wayne", "46825"])
                .unwrap();
            t
        });

        let mut enc = gdr_relation::Enc::new();
        set.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = gdr_relation::Dec::new(&bytes);
        let restored = RuleSet::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, set);

        // Re-encoding the restored set is byte-identical.
        let mut enc2 = gdr_relation::Enc::new();
        restored.encode_state(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_corrupt_rule_payloads() {
        let set = RuleSet::new(rules());
        let mut enc = gdr_relation::Enc::new();
        set.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = gdr_relation::Dec::new(&bytes[..cut]);
            let result = RuleSet::decode_state(&mut dec).and_then(|_| dec.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }
}
