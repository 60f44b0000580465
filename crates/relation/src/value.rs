//! Dynamically typed cell values.
//!
//! Data-repair workloads are dominated by string-valued categorical
//! attributes (cities, zip codes, diagnosis codes, ...), so [`Value`] keeps
//! the representation simple: a tri-state of `Null`, 64-bit integer, and
//! owned string.  Values are totally ordered and hashable so they can key
//! the per-attribute interning dictionaries and sort deterministically.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A single relational cell value.
///
/// Equality is *strict*: `Int(46360)` and `Str("46360")` are different values.
/// Datasets loaded from CSV therefore default to `Str` for every non-empty
/// field unless the caller opts into numeric parsing; this matches the GDR
/// paper, where all repairs are string value modifications.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// Missing / unknown value.
    #[default]
    Null,
    /// Integer value.
    Int(i64),
    /// String value.
    Str(String),
}

impl Value {
    /// Returns `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the string contents when the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Renders the value as text.
    ///
    /// `Null` renders as the empty string, which is also how it round-trips
    /// through the CSV reader/writer.  For string values this borrows.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Str(s) => Cow::Borrowed(s.as_str()),
        }
    }

    /// Parses a text field the way the CSV loader does: an empty field is
    /// `Null`, everything else is a `Str`.
    pub fn from_text(text: &str) -> Value {
        if text.is_empty() {
            Value::Null
        } else {
            Value::Str(text.to_string())
        }
    }
}

impl fmt::Display for Value {
    /// Displays exactly what [`Value::render`] produces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<Option<&str>> for Value {
    fn from(o: Option<&str>) -> Self {
        match o {
            Some(s) => Value::from(s),
            None => Value::Null,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: `Null < Int < Str`; within a type, natural order.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_empty_is_null() {
        assert_eq!(Value::from_text(""), Value::Null);
        assert!(Value::from_text("").is_null());
    }

    #[test]
    fn from_text_keeps_digits_as_string() {
        // Zip codes must stay strings so leading zeros and CFD pattern
        // constants compare correctly.
        assert_eq!(Value::from_text("46360"), Value::Str("46360".into()));
    }

    #[test]
    fn render_round_trips() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(5).render(), "5");
        assert_eq!(Value::from("Fort Wayne").render(), "Fort Wayne");
    }

    #[test]
    fn display_matches_render() {
        assert_eq!(Value::Int(12).to_string(), "12");
        assert_eq!(Value::from("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn strict_equality_between_types() {
        assert_ne!(Value::Int(46360), Value::from("46360"));
    }

    #[test]
    fn ordering_is_total_and_by_type() {
        let mut values = vec![
            Value::from("b"),
            Value::Int(10),
            Value::Null,
            Value::from("a"),
            Value::Int(2),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::Int(2),
                Value::Int(10),
                Value::from("a"),
                Value::from("b"),
            ]
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::default(), Value::Null);
    }
}
