//! Relation schemas: ordered, named attribute lists.

use std::collections::HashMap;
use std::fmt;

use crate::error::RelationError;
use crate::Result;

/// Index of an attribute inside a [`Schema`].
///
/// Attribute ids are plain `usize` positions; they are stable for the life of
/// the schema (attributes are never removed) and are used pervasively by the
/// CFD and repair layers to avoid string lookups on hot paths.
pub type AttrId = usize;

/// A single attribute (column) of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as it appears in CSV headers and CFD specifications.
    pub name: String,
    /// Position of the attribute within its schema.
    pub id: AttrId,
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// An ordered list of named attributes with constant-time name lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attributes: Vec<Attribute>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Builds a schema from attribute names, in order.
    ///
    /// # Panics
    /// Panics if two attributes share a name — schemas are small, static
    /// descriptions of a dataset, so a duplicate is a programming error.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Schema {
        let mut schema = Schema::default();
        for name in names {
            schema.push_attribute(name.as_ref());
        }
        schema
    }

    /// Appends an attribute and returns its id.
    ///
    /// # Panics
    /// Panics on duplicate attribute names.
    pub(crate) fn push_attribute(&mut self, name: &str) -> AttrId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate attribute name `{name}`"
        );
        let id = self.attributes.len();
        self.attributes.push(Attribute {
            name: name.to_string(),
            id,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// All attributes, in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Iterator over attribute ids `0..arity`.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        0..self.attributes.len()
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelationError::UnknownAttribute {
                name: name.to_string(),
            })
    }

    /// Returns the name of the attribute with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attributes[id].name
    }

    /// Returns `true` if both schemas have the same attribute names in the
    /// same order.
    pub fn same_as(&self, other: &Schema) -> bool {
        self.attributes.len() == other.attributes.len()
            && self
                .attributes
                .iter()
                .zip(other.attributes.iter())
                .all(|(a, b)| a.name == b.name)
    }

    /// Checks that another schema matches this one, returning a descriptive
    /// error otherwise.
    pub(crate) fn ensure_same_as(&self, other: &Schema) -> Result<()> {
        if self.same_as(other) {
            Ok(())
        } else {
            Err(RelationError::SchemaMismatch {
                detail: format!(
                    "expected attributes {:?}, found {:?}",
                    self.attributes
                        .iter()
                        .map(|a| a.name.as_str())
                        .collect::<Vec<_>>(),
                    other
                        .attributes
                        .iter()
                        .map(|a| a.name.as_str())
                        .collect::<Vec<_>>()
                ),
            })
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", attr.name)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_schema() -> Schema {
        Schema::new(&["Name", "SRC", "STR", "CT", "STT", "ZIP"])
    }

    #[test]
    fn build_and_lookup() {
        let schema = customer_schema();
        assert_eq!(schema.arity(), 6);
        assert_eq!(schema.attr_id("ZIP").unwrap(), 5);
        assert_eq!(schema.attr_name(3), "CT");
        assert_eq!(schema.attributes()[0].name, "Name");
    }

    #[test]
    fn unknown_attribute_errors() {
        let schema = customer_schema();
        let err = schema.attr_id("Country").unwrap_err();
        assert_eq!(
            err,
            RelationError::UnknownAttribute {
                name: "Country".to_string()
            }
        );
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_panic() {
        Schema::new(&["A", "B", "A"]);
    }

    #[test]
    fn same_as_compares_names_in_order() {
        let a = Schema::new(&["X", "Y"]);
        let b = Schema::new(&["X", "Y"]);
        let c = Schema::new(&["Y", "X"]);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
        assert!(a.ensure_same_as(&b).is_ok());
        assert!(matches!(
            a.ensure_same_as(&c),
            Err(RelationError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn display_formats_attribute_list() {
        let schema = Schema::new(&["A", "B"]);
        assert_eq!(schema.to_string(), "(A, B)");
        assert_eq!(schema.attributes()[1].to_string(), "B");
    }

    #[test]
    fn attr_ids_iterates_all_positions() {
        let schema = customer_schema();
        let ids: Vec<_> = schema.attr_ids().collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }
}
