//! Incremental active learning on top of the random forest.
//!
//! §4.2: "Active learning starts with a preliminary classifier learned from a
//! small set of labeled training examples.  The classifier is applied to the
//! unlabeled examples and a scoring mechanism is used to estimate the most
//! valuable example to label next" — the score being the committee
//! disagreement of [`RandomForest`].
//!
//! [`ActiveLearner`] owns a growing training set and a (re)trained forest.
//! GDR keeps one learner per attribute of the relation and retrains it after
//! every batch of user feedback.

use crate::dataset::{Dataset, Example, FeatureValue};
use crate::forest::{ForestConfig, RandomForest};

/// A classifier that accumulates labelled examples and retrains on demand.
#[derive(Debug, Clone)]
pub struct ActiveLearner {
    dataset: Dataset,
    config: ForestConfig,
    forest: Option<RandomForest>,
    seed: u64,
    retrains: usize,
}

impl ActiveLearner {
    /// Creates an untrained learner for the given feature/label arity.
    pub fn new(feature_count: usize, label_count: usize, config: ForestConfig, seed: u64) -> Self {
        ActiveLearner {
            dataset: Dataset::new(feature_count, label_count),
            config,
            forest: None,
            seed,
            retrains: 0,
        }
    }

    /// Number of labelled examples accumulated so far.
    pub fn training_size(&self) -> usize {
        self.dataset.len()
    }

    /// Whether a model has been trained yet.
    pub fn is_trained(&self) -> bool {
        self.forest.is_some()
    }

    /// Number of times the forest has been retrained.
    pub fn retrain_count(&self) -> usize {
        self.retrains
    }

    /// The underlying forest, if trained.
    pub fn forest(&self) -> Option<&RandomForest> {
        self.forest.as_ref()
    }

    /// Adds a labelled example *without* retraining (retraining after every
    /// single example would dominate the session cost; GDR retrains once per
    /// feedback batch).
    pub fn add_example(&mut self, features: Vec<FeatureValue>, label: usize) {
        self.dataset.push(Example::new(features, label));
    }

    /// Retrains the forest on all accumulated examples.  A learner with no
    /// examples stays untrained.
    pub fn retrain(&mut self) {
        if self.dataset.is_empty() {
            self.forest = None;
            return;
        }
        self.retrains += 1;
        // Vary the seed across retrains so bags differ, but deterministically.
        let seed = self.seed.wrapping_add(self.retrains as u64);
        self.forest = Some(RandomForest::train(&self.dataset, &self.config, seed));
    }

    /// Predicted label for a feature vector; `None` while untrained.
    pub fn predict(&self, features: &[FeatureValue]) -> Option<usize> {
        self.forest.as_ref().map(|f| f.predict(features))
    }

    /// The probability (committee vote fraction) of a specific label; `None`
    /// while untrained.
    pub fn label_probability(&self, features: &[FeatureValue], label: usize) -> Option<f64> {
        self.forest
            .as_ref()
            .map(|f| f.label_probability(features, label))
    }

    /// Committee-disagreement uncertainty of a prediction.  An untrained
    /// learner is maximally uncertain (`1.0`) — every unlabeled example is
    /// equally valuable before any feedback exists.
    pub fn uncertainty(&self, features: &[FeatureValue]) -> f64 {
        match &self.forest {
            Some(forest) => forest.uncertainty(features),
            None => 1.0,
        }
    }
}

// The forest is written explicitly rather than re-derived from the dataset
// on decode: examples may have been added since the last retrain, so
// "dataset + retrain" would not reproduce this forest.
gdr_relation::state_record! {
    "learner" 1 => ActiveLearner { dataset, config, forest, seed, retrains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::codec::{Dec, Enc, State};

    fn cat(s: &str) -> FeatureValue {
        FeatureValue::categorical(s)
    }

    fn learner() -> ActiveLearner {
        ActiveLearner::new(2, 2, ForestConfig::default(), 42)
    }

    fn feed_pattern(l: &mut ActiveLearner, n: usize) {
        // Label 1 iff feature0 == "H2".
        for i in 0..n {
            let src = if i % 2 == 0 { "H1" } else { "H2" };
            l.add_example(
                vec![cat(src), FeatureValue::Numeric((i % 5) as f64)],
                usize::from(src == "H2"),
            );
        }
    }

    #[test]
    fn untrained_learner_is_maximally_uncertain() {
        let l = learner();
        assert!(!l.is_trained());
        assert_eq!(l.predict(&[cat("H1"), FeatureValue::Numeric(0.0)]), None);
        assert_eq!(l.uncertainty(&[cat("H1"), FeatureValue::Numeric(0.0)]), 1.0);
        assert_eq!(
            l.label_probability(&[cat("H1"), FeatureValue::Numeric(0.0)], 1),
            None
        );
    }

    #[test]
    fn retrain_on_empty_stays_untrained() {
        let mut l = learner();
        l.retrain();
        assert!(!l.is_trained());
        assert_eq!(l.retrain_count(), 0);
    }

    #[test]
    fn learns_after_retrain() {
        let mut l = learner();
        feed_pattern(&mut l, 30);
        assert_eq!(l.training_size(), 30);
        assert!(!l.is_trained());
        l.retrain();
        assert!(l.is_trained());
        assert_eq!(l.retrain_count(), 1);
        assert_eq!(l.predict(&[cat("H2"), FeatureValue::Numeric(1.0)]), Some(1));
        assert_eq!(l.predict(&[cat("H1"), FeatureValue::Numeric(1.0)]), Some(0));
        let p = l
            .label_probability(&[cat("H2"), FeatureValue::Numeric(1.0)], 1)
            .unwrap();
        assert!(p > 0.5);
        assert!(l.forest().is_some());
    }

    #[test]
    fn uncertainty_drops_with_training() {
        let mut l = learner();
        let probe = [cat("H2"), FeatureValue::Numeric(2.0)];
        assert_eq!(l.uncertainty(&probe), 1.0);
        feed_pattern(&mut l, 40);
        l.retrain();
        assert!(l.uncertainty(&probe) < 1.0);
    }

    fn encode(learner: &ActiveLearner) -> Vec<u8> {
        let mut enc = Enc::new();
        learner.encode_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn codec_round_trip_preserves_learner_behaviour() {
        let mut l = learner();
        feed_pattern(&mut l, 30);
        l.retrain();
        // One example added after the retrain: the forest must come back
        // as-trained, not as "retrain of the current dataset".
        l.add_example(vec![cat("H9"), FeatureValue::Missing], 0);

        let bytes = encode(&l);
        let mut dec = Dec::new(&bytes);
        let mut restored = ActiveLearner::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(encode(&restored), bytes);
        assert_eq!(restored.training_size(), l.training_size());
        assert_eq!(restored.retrain_count(), l.retrain_count());
        let probe = [cat("H2"), FeatureValue::Numeric(1.0)];
        assert_eq!(restored.predict(&probe), l.predict(&probe));
        assert_eq!(
            restored.forest().unwrap().votes(&probe),
            l.forest().unwrap().votes(&probe)
        );

        // Future retrains diverge identically: the seed schedule survives.
        l.retrain();
        restored.retrain();
        assert_eq!(encode(&restored), encode(&l));
    }

    #[test]
    fn codec_round_trips_untrained_learner() {
        let l = learner();
        let bytes = encode(&l);
        let mut dec = Dec::new(&bytes);
        let restored = ActiveLearner::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert!(!restored.is_trained());
        assert_eq!(restored.training_size(), 0);
    }

    #[test]
    fn codec_rejects_corrupt_learner_payloads() {
        let mut l = learner();
        feed_pattern(&mut l, 12);
        l.retrain();
        let bytes = encode(&l);
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            let result = ActiveLearner::decode_state(&mut dec).and_then(|_| dec.finish());
            assert!(result.is_err(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn repeated_retrains_vary_seed_but_stay_deterministic() {
        let mut a = learner();
        let mut b = learner();
        feed_pattern(&mut a, 20);
        feed_pattern(&mut b, 20);
        a.retrain();
        a.retrain();
        b.retrain();
        b.retrain();
        assert_eq!(a.retrain_count(), 2);
        let probe = [cat("H2"), FeatureValue::Numeric(0.0)];
        assert_eq!(a.predict(&probe), b.predict(&probe));
    }
}
