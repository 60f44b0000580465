//! Error type shared by all relational-substrate operations.

use std::fmt;

/// Errors produced by the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// An attribute name was not found in the schema.
    UnknownAttribute {
        /// The attribute name that was looked up.
        name: String,
    },
    /// An attribute index was out of bounds for the schema.
    AttributeOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of attributes in the schema.
        arity: usize,
    },
    /// A tuple id did not refer to an existing row.
    UnknownTuple {
        /// The offending tuple id.
        tuple: usize,
    },
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of values supplied.
        got: usize,
        /// Number of values expected (schema arity).
        expected: usize,
    },
    /// Two schemas that were expected to be identical differ.
    SchemaMismatch {
        /// Human-readable description of the difference.
        detail: String,
    },
    /// A CSV document could not be parsed.
    Csv {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownAttribute { name } => {
                write!(f, "unknown attribute `{name}`")
            }
            RelationError::AttributeOutOfBounds { index, arity } => {
                write!(f, "attribute index {index} out of bounds for arity {arity}")
            }
            RelationError::UnknownTuple { tuple } => write!(f, "unknown tuple id {tuple}"),
            RelationError::ArityMismatch { got, expected } => {
                write!(f, "row has {got} values but the schema expects {expected}")
            }
            RelationError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            RelationError::Csv { line, detail } => write!(f, "CSV error at line {line}: {detail}"),
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_attribute() {
        let err = RelationError::UnknownAttribute {
            name: "Zip".to_string(),
        };
        assert_eq!(err.to_string(), "unknown attribute `Zip`");
    }

    #[test]
    fn display_arity_mismatch() {
        let err = RelationError::ArityMismatch {
            got: 3,
            expected: 5,
        };
        assert!(err.to_string().contains("3 values"));
        assert!(err.to_string().contains("expects 5"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = RelationError::UnknownTuple { tuple: 7 };
        let b = RelationError::UnknownTuple { tuple: 7 };
        assert_eq!(a, b);
    }
}
