//! Pattern tuples and the `≍` match operator.
//!
//! A CFD `(X → A, tp)` carries a *pattern tuple* `tp` over `X ∪ {A}`.  Each
//! entry is either a constant `a ∈ dom(A)` or the wildcard `'−'` (written `_`
//! in the textual syntax).  A data value `v` matches a pattern entry `p`,
//! written `v ≍ p`, iff `p` is the wildcard or `v = p` (Appendix A.1).

use std::fmt;

use gdr_relation::Value;

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
    pub(crate) fn constant(value: impl Into<Value>) -> PatternValue {
        PatternValue::Const(value.into())
    }

    /// The `≍` operator on a single value: `v ≍ '−'` always holds, and
    /// `v ≍ a` holds iff `v = a`.
    pub(crate) fn matches(&self, value: &Value) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::Const(c) => c == value,
        }
    }

    /// Returns `true` for the wildcard entry.
    pub(crate) fn is_wildcard(&self) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn display_forms() {
        assert_eq!(PatternValue::Wildcard.to_string(), "_");
        assert_eq!(PatternValue::constant("46360").to_string(), "46360");
    }

    #[test]
    fn from_value_builds_constant() {
        let p: PatternValue = Value::Int(5).into();
        assert_eq!(p.as_const(), Some(&Value::Int(5)));
    }
}
