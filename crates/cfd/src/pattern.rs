//! Pattern tuples and the `≍` match operator.
//!
//! A CFD `(X → A, tp)` carries a *pattern tuple* `tp` over `X ∪ {A}`.  Each
//! entry is either a constant `a ∈ dom(A)` or the wildcard `'−'` (written `_`
//! in the textual syntax).  A data value `v` matches a pattern entry `p`,
//! written `v ≍ p`, iff `p` is the wildcard or `v = p` (Appendix A.1).

use std::fmt;

use gdr_relation::{AttrId, Row, Value};

/// One entry of a pattern tuple: a constant or the `'−'` wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternValue {
    /// The wildcard `'−'`, matching any value.
    Wildcard,
    /// A constant that must be matched exactly.
    Const(Value),
}

gdr_relation::state_enum! { PatternValue, "pattern" {
    0 => Wildcard,
    1 => Const { 0 },
} }

impl PatternValue {
    /// Builds a constant pattern entry from anything convertible to a value.
    pub fn constant(value: impl Into<Value>) -> PatternValue {
        PatternValue::Const(value.into())
    }

    /// The `≍` operator on a single value: `v ≍ '−'` always holds, and
    /// `v ≍ a` holds iff `v = a`.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(c) => c == value,
        }
    }

    /// Returns `true` for the wildcard entry.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PatternValue::Wildcard)
    }

    /// Returns the constant when the entry is not a wildcard.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            PatternValue::Wildcard => None,
            PatternValue::Const(v) => Some(v),
        }
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Wildcard => write!(f, "_"),
            PatternValue::Const(v) => write!(f, "{v}"),
        }
    }
}

impl From<Value> for PatternValue {
    fn from(value: Value) -> Self {
        PatternValue::Const(value)
    }
}

/// A pattern over an explicit list of attributes.
///
/// The pattern stores `(attribute, entry)` pairs so it can be evaluated
/// against a [`Tuple`](gdr_relation::Tuple) without knowing the full schema; the attribute list is
/// the rule's `X` (for the LHS pattern) or `X ∪ {A}` (for the full pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    entries: Vec<(AttrId, PatternValue)>,
}

impl Pattern {
    /// Builds a pattern from `(attribute, entry)` pairs.
    pub fn new(entries: Vec<(AttrId, PatternValue)>) -> Pattern {
        Pattern { entries }
    }

    /// The `(attribute, entry)` pairs of the pattern.
    pub fn entries(&self) -> &[(AttrId, PatternValue)] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the pattern has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for a given attribute.
    pub fn entry(&self, attr: AttrId) -> Option<&PatternValue> {
        self.entries
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, p)| p)
    }

    /// The `≍` operator lifted to tuples: `t ≍ tp` iff every entry matches.
    pub fn matches<R: Row>(&self, tuple: &R) -> bool {
        self.entries
            .iter()
            .all(|(attr, entry)| entry.matches(tuple.value(*attr)))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (_, entry)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{entry}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Tuple, Value};

    fn tuple(values: &[&str]) -> Tuple {
        Tuple::new(values.iter().map(|v| Value::from(*v)).collect())
    }

    #[test]
    fn pattern_value_matching() {
        let wild = PatternValue::Wildcard;
        let city = PatternValue::constant("Fort Wayne");
        assert!(wild.matches(&Value::from("anything")));
        assert!(wild.matches(&Value::Null));
        assert!(city.matches(&Value::from("Fort Wayne")));
        assert!(!city.matches(&Value::from("Westville")));
        assert!(wild.is_wildcard());
        assert!(!city.is_wildcard());
        assert_eq!(city.as_const(), Some(&Value::from("Fort Wayne")));
        assert_eq!(wild.as_const(), None);
    }

    #[test]
    fn pattern_matches_tuple() {
        // Attributes: 0=STR, 1=CT, 2=ZIP.  Pattern (−, Fort Wayne) over (STR, CT).
        let pattern = Pattern::new(vec![
            (0, PatternValue::Wildcard),
            (1, PatternValue::constant("Fort Wayne")),
        ]);
        assert!(pattern.matches(&tuple(&["Sherden RD", "Fort Wayne", "46825"])));
        assert!(!pattern.matches(&tuple(&["Sherden RD", "Westville", "46391"])));
    }

    #[test]
    fn entry_lookup() {
        let pattern = Pattern::new(vec![(3, PatternValue::constant("46360"))]);
        assert_eq!(
            pattern.entry(3),
            Some(&PatternValue::Const(Value::from("46360")))
        );
        assert_eq!(pattern.entry(1), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PatternValue::Wildcard.to_string(), "_");
        assert_eq!(PatternValue::constant("46360").to_string(), "46360");
        let pattern = Pattern::new(vec![
            (0, PatternValue::constant("46360")),
            (1, PatternValue::Wildcard),
        ]);
        assert_eq!(pattern.to_string(), "(46360, _)");
    }

    #[test]
    fn from_value_builds_constant() {
        let p: PatternValue = Value::Int(5).into();
        assert_eq!(p.as_const(), Some(&Value::Int(5)));
    }
}
