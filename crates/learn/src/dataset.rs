//! Feature vectors, examples, and growing training sets.
//!
//! The GDR training examples (§4.2, "Data Representation") have the form
//! `⟨t[A1], …, t[An], v, R(t[Ai], v), F⟩`: the original tuple's attribute
//! values and the suggested value are *categorical* features, the
//! relationship function `R` (a string similarity) is a *numeric* feature,
//! and the label `F` is the expected feedback.  [`FeatureValue`] models that
//! mix; labels are plain `usize` indices so the crate stays independent of
//! the repair vocabulary.

use std::fmt;

use gdr_relation::codec::{self, CodecError, Dec, Enc, State};

/// One feature of an example: categorical, symbolic, numeric, or missing.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureValue {
    /// Unknown / not applicable.  Equality tests treat it as "not equal";
    /// numeric threshold tests route it to the right branch.
    Missing,
    /// A categorical value compared only by equality, carried as text.
    Categorical(String),
    /// A categorical value compared only by equality, carried as an opaque
    /// `u32` symbol — e.g. an interned `ValueId` from the relation layer.
    /// Symbols are only meaningful *within one feature position*: equal
    /// symbols at the same position mean equal values; symbols at different
    /// positions are unrelated.  Building a `Symbol` feature allocates
    /// nothing, which is why the GDR session featurises with these instead
    /// of re-rendering strings per training round.
    Symbol(u32),
    /// A numeric value compared against learned thresholds.
    Numeric(f64),
}

impl FeatureValue {
    /// Convenience constructor for categorical features.
    pub fn categorical(value: impl Into<String>) -> FeatureValue {
        FeatureValue::Categorical(value.into())
    }

    /// Returns the categorical contents, if any.
    pub fn as_categorical(&self) -> Option<&str> {
        match self {
            FeatureValue::Categorical(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the symbol contents, if any.
    pub fn as_symbol(&self) -> Option<u32> {
        match self {
            FeatureValue::Symbol(s) => Some(*s),
            _ => None,
        }
    }

    /// Returns the numeric contents, if any.
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            FeatureValue::Numeric(x) => Some(*x),
            _ => None,
        }
    }
}

gdr_relation::state_enum! { FeatureValue, "feature" {
    0 => Missing,
    1 => Categorical { 0 },
    2 => Symbol { 0 },
    3 => Numeric { 0 },
} }

impl fmt::Display for FeatureValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureValue::Missing => write!(f, "?"),
            FeatureValue::Categorical(s) => write!(f, "{s}"),
            FeatureValue::Symbol(s) => write!(f, "#{s}"),
            FeatureValue::Numeric(x) => write!(f, "{x}"),
        }
    }
}

/// A labelled training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// The feature vector; its length must match the dataset's feature count.
    pub features: Vec<FeatureValue>,
    /// The class label as an index in `0..label_count`.
    pub label: usize,
}

impl Example {
    /// Builds an example.
    pub fn new(features: Vec<FeatureValue>, label: usize) -> Example {
        Example { features, label }
    }
}

/// A growing set of labelled examples with a fixed feature/label arity.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    feature_count: usize,
    label_count: usize,
    examples: Vec<Example>,
}

impl Dataset {
    /// Creates an empty dataset for `feature_count` features and
    /// `label_count` classes.
    pub fn new(feature_count: usize, label_count: usize) -> Dataset {
        Dataset {
            feature_count,
            label_count,
            examples: Vec::new(),
        }
    }

    /// Number of features per example.
    pub(crate) fn feature_count(&self) -> usize {
        self.feature_count
    }

    /// Number of classes.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` when no examples have been added.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Adds an example.
    ///
    /// # Panics
    /// Panics if the feature arity or the label is out of range — both are
    /// programming errors in the caller's feature mapping.
    pub fn push(&mut self, example: Example) {
        assert_eq!(
            example.features.len(),
            self.feature_count,
            "example has wrong feature arity"
        );
        assert!(
            example.label < self.label_count,
            "label {} out of range (label_count = {})",
            example.label,
            self.label_count
        );
        self.examples.push(example);
    }

    /// One example by index.
    pub fn example(&self, index: usize) -> &Example {
        &self.examples[index]
    }

    /// Label histogram over a subset of example indices.
    pub(crate) fn label_counts(&self, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.label_count];
        for &i in indices {
            counts[self.examples[i].label] += 1;
        }
        counts
    }

    /// The majority label over a subset (ties resolved toward the smaller
    /// label index for determinism); `None` when the subset is empty.
    pub(crate) fn majority_label(&self, indices: &[usize]) -> Option<usize> {
        if indices.is_empty() {
            return None;
        }
        let counts = self.label_counts(indices);
        counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(label, _)| label)
    }
}

/// The arity, then every example in order: its `feature_count` features with
/// no length prefix, then its label.  Labels are range-checked so a corrupt
/// payload fails decoding instead of tripping the [`Dataset::push`]
/// assertions.
impl State for Dataset {
    const MIN_BYTES: usize = codec::section_bytes("dataset", 1) + 3 * usize::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("dataset", 1);
        enc.put(&self.feature_count);
        enc.put(&self.label_count);
        enc.usize(self.examples.len());
        for example in &self.examples {
            enc.fixed(&example.features);
            enc.put(&example.label);
        }
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<Dataset> {
        dec.section("dataset", 1)?;
        let feature_count: usize = dec.get()?;
        let label_count: usize = dec.get()?;
        if feature_count > (1 << 20) || label_count > (1 << 20) {
            return Err(CodecError::new(format!(
                "implausible dataset arity ({feature_count} features, {label_count} labels)"
            )));
        }
        // An example is `feature_count` one-byte features and a label.
        let n = dec.seq_len(feature_count + 1)?;
        let mut dataset = Dataset::new(feature_count, label_count);
        for _ in 0..n {
            let features = dec.fixed(feature_count)?;
            let label: usize = dec.get()?;
            if label >= label_count {
                return Err(CodecError::new(format!(
                    "label {label} out of range (label_count = {label_count})"
                )));
            }
            dataset.push(Example::new(features, label));
        }
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2, 3);
        d.push(Example::new(
            vec![FeatureValue::categorical("a"), FeatureValue::Numeric(1.0)],
            0,
        ));
        d.push(Example::new(
            vec![FeatureValue::categorical("b"), FeatureValue::Numeric(2.0)],
            1,
        ));
        d.push(Example::new(
            vec![FeatureValue::categorical("a"), FeatureValue::Missing],
            0,
        ));
        d
    }

    #[test]
    fn feature_value_accessors() {
        assert_eq!(FeatureValue::categorical("x").as_categorical(), Some("x"));
        assert_eq!(FeatureValue::Numeric(2.5).as_numeric(), Some(2.5));
        assert_eq!(FeatureValue::Missing.as_numeric(), None);
        assert_eq!(FeatureValue::Missing.as_categorical(), None);
        assert_eq!(FeatureValue::categorical("x").as_numeric(), None);
        assert_eq!(FeatureValue::Missing.to_string(), "?");
        assert_eq!(FeatureValue::categorical("x").to_string(), "x");
        assert_eq!(FeatureValue::Symbol(4).as_symbol(), Some(4));
        assert_eq!(FeatureValue::Symbol(4).as_categorical(), None);
        assert_eq!(FeatureValue::categorical("x").as_symbol(), None);
        assert_eq!(FeatureValue::Symbol(4).to_string(), "#4");
    }

    #[test]
    fn push_and_count() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.feature_count(), 2);
        assert_eq!(d.label_count(), 3);
        assert_eq!(d.example(1).label, 1);
    }

    #[test]
    #[should_panic(expected = "wrong feature arity")]
    fn arity_is_checked() {
        let mut d = Dataset::new(2, 2);
        d.push(Example::new(vec![FeatureValue::Missing], 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_range_is_checked() {
        let mut d = Dataset::new(1, 2);
        d.push(Example::new(vec![FeatureValue::Missing], 5));
    }

    #[test]
    fn label_counts_and_majority() {
        let d = sample();
        assert_eq!(d.label_counts(&[0, 1, 2]), vec![2, 1, 0]);
        assert_eq!(d.majority_label(&[0, 1, 2]), Some(0));
        assert_eq!(d.majority_label(&[1]), Some(1));
        assert_eq!(d.majority_label(&[]), None);
        // Tie goes to the smaller label.
        assert_eq!(d.majority_label(&[0, 1]), Some(0));
    }
}
