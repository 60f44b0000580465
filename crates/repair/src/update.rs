//! Candidate updates and user feedback.
//!
//! A suggested update is the tuple `r = ⟨t, A, v, s⟩` of §3: tuple `t`,
//! attribute `A`, suggested value `v`, and the update-evaluation score
//! `s ∈ [0, 1]` produced by Eq. 7.  Feedback on an update is one of
//! *confirm*, *reject*, or *retain* (§4.2, "Learning User Feedback").

use std::fmt;

use gdr_relation::{AttrId, Schema, Table, TupleId, Value, ValueId};

/// A cell position `(t, A)` — the unit the consistency manager tracks
/// `preventedList` / `Changeable` state for.
pub type Cell = (TupleId, AttrId);

/// A candidate update `r = ⟨t, A, v, s⟩`.
#[derive(Debug, Clone)]
pub struct Update {
    /// The tuple to modify.
    pub tuple: TupleId,
    /// The attribute to modify.
    pub attr: AttrId,
    /// The suggested new value for `t[A]`.
    pub value: Value,
    /// Update-evaluation score `s ∈ [0, 1]` (Eq. 7) — the repairing
    /// algorithm's certainty about the suggestion.
    pub score: f64,
    /// Interned id of `value` in the attribute's dictionary, carried by
    /// updates the generator produced so the hot-path staleness checks
    /// (`value == current?`, `value prevented?`) compare plain integers.
    ///
    /// `None` for updates constructed outside the generator (user-supplied
    /// corrections, tests).  A representation detail: excluded from equality,
    /// exactly like interned ids are excluded from [`Table`] equality.
    pub value_id: Option<ValueId>,
}

/// Logical equality — `⟨t, A, v, s⟩` only; the cached interned id is a
/// representation detail (two logically equal updates may disagree on
/// whether the id was cached).
impl PartialEq for Update {
    fn eq(&self, other: &Self) -> bool {
        self.tuple == other.tuple
            && self.attr == other.attr
            && self.value == other.value
            && self.score == other.score
    }
}

impl Update {
    /// Builds an update.
    pub fn new(tuple: TupleId, attr: AttrId, value: Value, score: f64) -> Update {
        Update {
            tuple,
            attr,
            value,
            score,
            value_id: None,
        }
    }

    /// Builds an update whose value is already interned (the generator's
    /// constructor — every suggestion in `PossibleUpdates` carries its id).
    pub(crate) fn with_value_id(
        tuple: TupleId,
        attr: AttrId,
        value: Value,
        score: f64,
        value_id: ValueId,
    ) -> Update {
        Update {
            tuple,
            attr,
            value,
            score,
            value_id: Some(value_id),
        }
    }

    /// The `(tuple, attribute)` cell this update targets.
    pub fn cell(&self) -> Cell {
        (self.tuple, self.attr)
    }

    /// Renders the update against a schema and table for human consumption.
    pub fn describe(&self, schema: &Schema, table: &Table) -> String {
        format!(
            "t{}[{}]: '{}' -> '{}' (score {:.2})",
            self.tuple,
            schema.attr_name(self.attr),
            table.cell(self.tuple, self.attr).render(),
            self.value.render(),
            self.score
        )
    }
}

// The cached interned id is encoded too, so decoded updates are
// representation-identical, not just logically equal.
gdr_relation::state_record! { Update { tuple, attr, value, score, value_id } }

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨t{}, #{}, {}, {:.2}⟩",
            self.tuple,
            self.attr,
            self.value.render(),
            self.score
        )
    }
}

/// User (or learner) feedback on a suggested update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feedback {
    /// The value of `t[A]` should be the suggested `v`.
    Confirm,
    /// `v` is not a valid value for `t[A]`; another update must be found.
    Reject,
    /// `t[A]` is already correct; no further updates should be generated.
    Retain,
}

impl Feedback {
    /// All feedback labels, in a stable order (used as the classifier's label
    /// alphabet).
    pub const ALL: [Feedback; 3] = [Feedback::Confirm, Feedback::Reject, Feedback::Retain];

    /// Stable index of the label in [`Feedback::ALL`].
    pub fn index(self) -> usize {
        match self {
            Feedback::Confirm => 0,
            Feedback::Reject => 1,
            Feedback::Retain => 2,
        }
    }

    /// Inverse of [`Feedback::index`].
    pub fn from_index(index: usize) -> Option<Feedback> {
        Feedback::ALL.get(index).copied()
    }
}

// One byte: the label's index in `Feedback::ALL`.
gdr_relation::state_enum! { Feedback, "feedback" {
    0 => Confirm,
    1 => Reject,
    2 => Retain,
} }

impl fmt::Display for Feedback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feedback::Confirm => write!(f, "confirm"),
            Feedback::Reject => write!(f, "reject"),
            Feedback::Retain => write!(f, "retain"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Schema, Table};

    #[test]
    fn update_cell_and_display() {
        let u = Update::new(3, 1, Value::from("Fort Wayne"), 0.25);
        assert_eq!(u.cell(), (3, 1));
        let text = u.to_string();
        assert!(text.contains("t3"));
        assert!(text.contains("Fort Wayne"));
        assert!(text.contains("0.25"));
    }

    #[test]
    fn describe_uses_schema_names() {
        let schema = Schema::new(&["CT", "ZIP"]);
        let mut table = Table::new("addr", schema.clone());
        table.push_text_row(&["Westville", "46360"]).unwrap();
        let u = Update::new(0, 0, Value::from("Michigan City"), 1.0);
        let text = u.describe(&schema, &table);
        assert!(text.contains("[CT]"));
        assert!(text.contains("Westville"));
        assert!(text.contains("Michigan City"));
    }

    #[test]
    fn equality_ignores_cached_value_id() {
        use gdr_relation::ValueId;
        let plain = Update::new(3, 1, Value::from("Fort Wayne"), 0.25);
        let interned = Update::with_value_id(
            3,
            1,
            Value::from("Fort Wayne"),
            0.25,
            ValueId::from_index(9),
        );
        assert_eq!(plain, interned);
        assert_eq!(plain.value_id, None);
        assert_eq!(interned.value_id, Some(ValueId::from_index(9)));
        let other = Update::new(3, 1, Value::from("Fort Wayne"), 0.5);
        assert_ne!(plain, other);
    }

    #[test]
    fn feedback_round_trips_through_index() {
        for (i, f) in Feedback::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
            assert_eq!(Feedback::from_index(i), Some(*f));
        }
        assert_eq!(Feedback::from_index(3), None);
    }

    #[test]
    fn feedback_display() {
        assert_eq!(Feedback::Confirm.to_string(), "confirm");
        assert_eq!(Feedback::Reject.to_string(), "reject");
        assert_eq!(Feedback::Retain.to_string(), "retain");
    }
}
