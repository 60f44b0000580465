//! CFD rules in normal form, and the human-facing multi-RHS specification.

use std::fmt;

use gdr_relation::codec::{self, CodecError, Dec, Enc, State};
use gdr_relation::{AttrId, Row, Schema};

use crate::error::CfdError;
use crate::pattern::PatternValue;
use crate::Result;

/// Identifier of a rule inside a [`crate::RuleSet`] (its position).
pub type RuleId = usize;

/// A CFD in normal form: `φ : (X → A, tp)` with a single RHS attribute.
///
/// The paper assumes rules are given in this normal form (§1.2); the
/// multi-RHS convenience form is [`CfdSpec`], which splits into one `Cfd` per
/// RHS attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfd {
    /// Human-readable rule name (e.g. `φ1,1`); informational only.
    name: String,
    /// Left-hand-side attributes `X`.
    lhs: Vec<AttrId>,
    /// Right-hand-side attribute `A`.
    rhs: AttrId,
    /// Pattern entries for the LHS attributes, aligned with `lhs`.
    lhs_pattern: Vec<PatternValue>,
    /// Pattern entry for the RHS attribute.
    rhs_pattern: PatternValue,
}

impl Cfd {
    /// Builds a normal-form CFD, validating structural invariants.
    pub fn new(
        name: impl Into<String>,
        lhs: Vec<AttrId>,
        lhs_pattern: Vec<PatternValue>,
        rhs: AttrId,
        rhs_pattern: PatternValue,
    ) -> Result<Cfd> {
        if lhs.is_empty() {
            return Err(CfdError::EmptyLhs);
        }
        if lhs_pattern.len() != lhs.len() {
            return Err(CfdError::PatternArityMismatch {
                got: lhs_pattern.len(),
                expected: lhs.len(),
            });
        }
        if lhs.contains(&rhs) {
            return Err(CfdError::RhsOverlapsLhs {
                name: format!("attr#{rhs}"),
            });
        }
        Ok(Cfd {
            name: name.into(),
            lhs,
            lhs_pattern,
            rhs,
            rhs_pattern,
        })
    }

    /// Convenience constructor resolving attribute names against a schema.
    ///
    /// `lhs_pattern` and `rhs_pattern` use `None` for the wildcard and
    /// `Some(text)` for constants.
    pub fn with_names(
        name: impl Into<String>,
        schema: &Schema,
        lhs: &[&str],
        lhs_pattern: &[Option<&str>],
        rhs: &str,
        rhs_pattern: Option<&str>,
    ) -> Result<Cfd> {
        let lhs_ids: Vec<AttrId> = lhs
            .iter()
            .map(|n| {
                schema.attr_id(n).map_err(|_| CfdError::UnknownAttribute {
                    name: n.to_string(),
                })
            })
            .collect::<Result<_>>()?;
        let rhs_id = schema
            .attr_id(rhs)
            .map_err(|_| CfdError::UnknownAttribute {
                name: rhs.to_string(),
            })?;
        if lhs_pattern.len() != lhs.len() {
            return Err(CfdError::PatternArityMismatch {
                got: lhs_pattern.len(),
                expected: lhs.len(),
            });
        }
        let lhs_pat = lhs_pattern
            .iter()
            .map(|p| match p {
                None => PatternValue::Wildcard,
                Some(text) => PatternValue::constant(*text),
            })
            .collect();
        let rhs_pat = match rhs_pattern {
            None => PatternValue::Wildcard,
            Some(text) => PatternValue::constant(text),
        };
        Cfd::new(name, lhs_ids, lhs_pat, rhs_id, rhs_pat)
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Left-hand-side attributes `X = LHS(φ)`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// Right-hand-side attribute `A = RHS(φ)`.
    pub fn rhs(&self) -> AttrId {
        self.rhs
    }

    /// Pattern entry for an LHS attribute.
    pub fn lhs_pattern(&self) -> &[PatternValue] {
        &self.lhs_pattern
    }

    /// Pattern entry for the RHS attribute.
    pub fn rhs_pattern(&self) -> &PatternValue {
        &self.rhs_pattern
    }

    /// A constant CFD has a constant RHS pattern (`tp[A] ≠ '−'`); otherwise
    /// the rule is a *variable* CFD, behaving like an FD restricted to the
    /// tuples matching the LHS pattern.
    pub fn is_constant(&self) -> bool {
        !self.rhs_pattern.is_wildcard()
    }

    /// Returns `true` if `attr` appears anywhere in the rule (`X ∪ {A}`).
    pub fn involves(&self, attr: AttrId) -> bool {
        self.rhs == attr || self.lhs.contains(&attr)
    }

    /// All attributes of the rule, LHS first then RHS.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut attrs = self.lhs.clone();
        attrs.push(self.rhs);
        attrs
    }

    /// `t[X] ≍ tp[X]`: the tuple falls in the rule's context.  Generic over
    /// [`Row`] so owned [`gdr_relation::Tuple`]s and borrowed
    /// [`gdr_relation::TupleRef`]s both work.
    pub fn in_context<R: Row>(&self, tuple: &R) -> bool {
        self.lhs
            .iter()
            .zip(self.lhs_pattern.iter())
            .all(|(attr, entry)| entry.matches(tuple.value(*attr)))
    }
}

/// The name, the left-hand side as `(attribute, pattern)` pairs, then the
/// right-hand side's attribute and pattern.  A decoded rule is re-validated
/// through [`Cfd::new`], so a payload that decodes but does not describe a
/// well-formed CFD is rejected rather than trusted.
impl State for Cfd {
    const MIN_BYTES: usize = String::MIN_BYTES
        + Vec::<(AttrId, PatternValue)>::MIN_BYTES
        + AttrId::MIN_BYTES
        + PatternValue::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.put(&self.name);
        enc.usize(self.lhs.len());
        for (attr, pattern) in self.lhs.iter().zip(&self.lhs_pattern) {
            enc.put(attr);
            enc.put(pattern);
        }
        enc.put(&self.rhs);
        enc.put(&self.rhs_pattern);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<Cfd> {
        let name: String = dec.get()?;
        let (lhs, lhs_pattern) = dec
            .get::<Vec<(AttrId, PatternValue)>>()?
            .into_iter()
            .unzip();
        Cfd::new(name, lhs, lhs_pattern, dec.get()?, dec.get()?)
            .map_err(|e| CodecError::new(format!("invalid rule in snapshot: {e}")))
    }
}

impl fmt::Display for Cfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [", self.name)?;
        for (i, attr) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "#{attr}")?;
        }
        write!(f, "] -> #{} : (", self.rhs)?;
        for (i, p) in self.lhs_pattern.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " || {})", self.rhs_pattern)
    }
}

/// A CFD specification in the paper's (possibly multi-RHS) surface form:
/// `φ : (X → Y, tp)` with `Y = {A1, A2, …}`.
///
/// Normalisation (§1.2) splits it into one [`Cfd`] per RHS attribute, e.g.
/// `φ1 : (ZIP → CT, STT, {46360 ‖ Michigan City, IN})` becomes
/// `φ1,1 : (ZIP → CT, {46360 ‖ Michigan City})` and
/// `φ1,2 : (ZIP → STT, {46360 ‖ IN})`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfdSpec {
    /// Specification name (e.g. `φ1`).
    pub name: String,
    /// LHS attribute names.
    pub lhs: Vec<String>,
    /// RHS attribute names.
    pub rhs: Vec<String>,
    /// LHS pattern entries (`None` = wildcard), aligned with `lhs`.
    pub lhs_pattern: Vec<Option<String>>,
    /// RHS pattern entries (`None` = wildcard), aligned with `rhs`.
    pub rhs_pattern: Vec<Option<String>>,
}

impl CfdSpec {
    /// Splits the specification into normal-form rules against a schema.
    pub fn normalize(&self, schema: &Schema) -> Result<Vec<Cfd>> {
        if self.lhs.is_empty() {
            return Err(CfdError::EmptyLhs);
        }
        if self.rhs.is_empty() {
            return Err(CfdError::EmptyRhs);
        }
        if self.lhs_pattern.len() != self.lhs.len() {
            return Err(CfdError::PatternArityMismatch {
                got: self.lhs_pattern.len(),
                expected: self.lhs.len(),
            });
        }
        if self.rhs_pattern.len() != self.rhs.len() {
            return Err(CfdError::PatternArityMismatch {
                got: self.rhs_pattern.len(),
                expected: self.rhs.len(),
            });
        }
        let lhs_names: Vec<&str> = self.lhs.iter().map(|s| s.as_str()).collect();
        let lhs_pattern: Vec<Option<&str>> =
            self.lhs_pattern.iter().map(|p| p.as_deref()).collect();
        let mut rules = Vec::with_capacity(self.rhs.len());
        for (i, (rhs_name, rhs_pattern)) in self.rhs.iter().zip(self.rhs_pattern.iter()).enumerate()
        {
            let name = if self.rhs.len() == 1 {
                self.name.clone()
            } else {
                format!("{},{}", self.name, i + 1)
            };
            rules.push(Cfd::with_names(
                name,
                schema,
                &lhs_names,
                &lhs_pattern,
                rhs_name,
                rhs_pattern.as_deref(),
            )?);
        }
        Ok(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(&["Name", "SRC", "STR", "CT", "STT", "ZIP"])
    }

    fn tuple(values: &[&str]) -> Tuple {
        Tuple::new(values.iter().map(|v| Value::from(*v)).collect())
    }

    /// φ1,1 : (ZIP → CT, {46360 ‖ Michigan City})
    fn phi_1_1() -> Cfd {
        Cfd::with_names(
            "phi1,1",
            &schema(),
            &["ZIP"],
            &[Some("46360")],
            "CT",
            Some("Michigan City"),
        )
        .unwrap()
    }

    /// φ5 : (STR, CT → ZIP, {−, Fort Wayne ‖ −})
    fn phi_5() -> Cfd {
        Cfd::with_names(
            "phi5",
            &schema(),
            &["STR", "CT"],
            &[None, Some("Fort Wayne")],
            "ZIP",
            None,
        )
        .unwrap()
    }

    #[test]
    fn constant_vs_variable_classification() {
        assert!(phi_1_1().is_constant());
        assert!(!phi_5().is_constant());
    }

    #[test]
    fn involvement_and_attrs() {
        let rule = phi_5();
        assert!(rule.involves(2)); // STR
        assert!(rule.involves(3)); // CT
        assert!(rule.involves(5)); // ZIP
        assert!(!rule.involves(0)); // Name
        assert_eq!(rule.attrs(), vec![2, 3, 5]);
        assert_eq!(rule.lhs(), &[2, 3]);
        assert_eq!(rule.rhs(), 5);
    }

    #[test]
    fn context_membership() {
        let rule = phi_1_1();
        let in_ctx = tuple(&["Jim", "H2", "Colfax", "Westville", "IN", "46360"]);
        let out_ctx = tuple(&["Tom", "H3", "Colfax", "Westville", "IN", "46391"]);
        assert!(rule.in_context(&in_ctx));
        assert!(!rule.in_context(&out_ctx));
    }

    #[test]
    fn structural_validation() {
        let schema = schema();
        assert!(matches!(
            Cfd::with_names("bad", &schema, &[], &[], "CT", None),
            Err(CfdError::EmptyLhs)
        ));
        assert!(matches!(
            Cfd::with_names("bad", &schema, &["ZIP"], &[None, None], "CT", None),
            Err(CfdError::PatternArityMismatch { .. })
        ));
        assert!(matches!(
            Cfd::with_names("bad", &schema, &["CT"], &[None], "CT", None),
            Err(CfdError::RhsOverlapsLhs { .. })
        ));
        assert!(matches!(
            Cfd::with_names("bad", &schema, &["Nope"], &[None], "CT", None),
            Err(CfdError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            Cfd::with_names("bad", &schema, &["ZIP"], &[None], "Nope", None),
            Err(CfdError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn spec_normalization_splits_rhs() {
        // φ1 : (ZIP → CT, STT, {46360 ‖ Michigan City, IN})
        let spec = CfdSpec {
            name: "phi1".to_string(),
            lhs: vec!["ZIP".to_string()],
            rhs: vec!["CT".to_string(), "STT".to_string()],
            lhs_pattern: vec![Some("46360".to_string())],
            rhs_pattern: vec![Some("Michigan City".to_string()), Some("IN".to_string())],
        };
        let rules = spec.normalize(&schema()).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name(), "phi1,1");
        assert_eq!(rules[1].name(), "phi1,2");
        assert_eq!(rules[0].rhs(), 3); // CT
        assert_eq!(rules[1].rhs(), 4); // STT
        assert!(rules.iter().all(|r| r.is_constant()));
    }

    #[test]
    fn spec_normalization_single_rhs_keeps_name() {
        let spec = CfdSpec {
            name: "phi5".to_string(),
            lhs: vec!["STR".to_string(), "CT".to_string()],
            rhs: vec!["ZIP".to_string()],
            lhs_pattern: vec![None, Some("Fort Wayne".to_string())],
            rhs_pattern: vec![None],
        };
        let rules = spec.normalize(&schema()).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name(), "phi5");
        assert!(!rules[0].is_constant());
    }

    #[test]
    fn spec_normalization_validates_shapes() {
        let base = CfdSpec {
            name: "x".to_string(),
            lhs: vec!["ZIP".to_string()],
            rhs: vec!["CT".to_string()],
            lhs_pattern: vec![None],
            rhs_pattern: vec![None],
        };
        let mut no_rhs = base.clone();
        no_rhs.rhs.clear();
        no_rhs.rhs_pattern.clear();
        assert!(matches!(
            no_rhs.normalize(&schema()),
            Err(CfdError::EmptyRhs)
        ));

        let mut bad_pattern = base.clone();
        bad_pattern.lhs_pattern.push(None);
        assert!(matches!(
            bad_pattern.normalize(&schema()),
            Err(CfdError::PatternArityMismatch { .. })
        ));

        let mut bad_rhs_pattern = base;
        bad_rhs_pattern.rhs_pattern.push(None);
        assert!(matches!(
            bad_rhs_pattern.normalize(&schema()),
            Err(CfdError::PatternArityMismatch { .. })
        ));
    }

    #[test]
    fn display_contains_name_and_pattern() {
        let rule = phi_1_1();
        let text = rule.to_string();
        assert!(text.contains("phi1,1"));
        assert!(text.contains("46360"));
        assert!(text.contains("Michigan City"));
        assert!(phi_5().to_string().contains("_"));
    }
}
