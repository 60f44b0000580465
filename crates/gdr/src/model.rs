//! The learning component: one classifier per attribute.
//!
//! §4.2, "Learning User Feedback": GDR learns a set of models
//! `{M_A1, …, M_An}`, one per attribute.  For a suggested update
//! `r = ⟨t, A_i, v, s⟩` with feedback `F`, the training example for `M_Ai` is
//! `⟨t[A_1], …, t[A_n], v, R(t[A_i], v), F⟩` — the original tuple's values
//! (categorical features), the suggested value (categorical), and the string
//! similarity `R` between the current and suggested value (numeric).
//!
//! [`ModelStore`] owns the per-attribute [`gdr_learn::ActiveLearner`]s, maps
//! updates to feature vectors, and exposes the three quantities the GDR
//! session needs: the predicted feedback, the *confirm probability* `p̃_j`
//! used by the VOI ranking's user model, and the committee uncertainty used
//! by the active-learning ordering.

use gdr_learn::{ActiveLearner, FeatureValue, ForestConfig};
use gdr_relation::codec::{self, Dec, Enc, State};
use gdr_relation::Table;
use gdr_repair::{value_similarity, Feedback, Update};

/// Per-attribute random-forest models over user feedback.
#[derive(Debug, Clone)]
pub struct ModelStore {
    learners: Vec<ActiveLearner>,
    /// Examples added since the last retrain, per attribute.
    pending_since_retrain: Vec<usize>,
}

impl ModelStore {
    /// Creates untrained models for a relation with the given arity.
    ///
    /// Feature layout per example: `arity` categorical features for the
    /// original tuple, one categorical feature for the suggested value, and
    /// one numeric feature for `R(t[A], v)`.
    pub fn new(arity: usize, forest: ForestConfig, seed: u64) -> ModelStore {
        let learners = (0..arity)
            .map(|attr| {
                ActiveLearner::new(
                    arity + 2,
                    Feedback::ALL.len(),
                    forest.clone(),
                    seed.wrapping_add(attr as u64),
                )
            })
            .collect();
        ModelStore {
            learners,
            pending_since_retrain: vec![0; arity],
        }
    }

    /// Number of per-attribute models.
    pub fn arity(&self) -> usize {
        self.learners.len()
    }

    /// Builds the feature vector `⟨t[A_1..A_n], v, R(t[A_i], v)⟩` for an
    /// update against the *current* table instance.
    ///
    /// The tuple features are the row's interned [`gdr_relation::ValueId`]s
    /// carried as [`FeatureValue::Symbol`]s — no string is rendered or
    /// cloned for them, and feature `i` always draws from attribute `i`'s
    /// dictionary, so a symbol keeps its meaning across training rounds
    /// (dictionaries are append-only).  The suggested value `v` is carried
    /// as canonical text instead: it may not be interned yet at feedback
    /// time, and an id-or-text mix would make equal suggestions look
    /// distinct to the learner once the value is interned later.  Its
    /// rendering is shared work with the similarity feature, so this costs
    /// one small allocation per example.
    pub fn features_for(&self, table: &Table, update: &Update) -> Vec<FeatureValue> {
        let arity = table.schema().arity();
        let mut features: Vec<FeatureValue> = Vec::with_capacity(arity + 2);
        for attr in 0..arity {
            let id = table.cell_id(update.tuple, attr);
            if table.id_value(attr, id).is_null() {
                features.push(FeatureValue::Missing);
            } else {
                features.push(FeatureValue::Symbol(id.raw()));
            }
        }
        features.push(FeatureValue::categorical(
            update.value.render().into_owned(),
        ));
        features.push(FeatureValue::Numeric(value_similarity(
            table.cell(update.tuple, update.attr),
            &update.value,
        )));
        features
    }

    /// Records a labelled example for the update's attribute model.  Does not
    /// retrain; call [`ModelStore::retrain`] (typically once per feedback
    /// batch of size `n_s`).
    pub fn add_feedback(&mut self, table: &Table, update: &Update, feedback: Feedback) {
        let features = self.features_for(table, update);
        self.learners[update.attr].add_example(features, feedback.index());
        self.pending_since_retrain[update.attr] += 1;
    }

    /// Retrains the model of one attribute.
    pub fn retrain(&mut self, attr: usize) {
        self.learners[attr].retrain();
        self.pending_since_retrain[attr] = 0;
    }

    /// Retrains every attribute model that has accumulated new examples.
    pub fn retrain_all(&mut self) {
        for attr in 0..self.learners.len() {
            if self.pending_since_retrain[attr] > 0 {
                self.retrain(attr);
            }
        }
    }

    /// The `n_s` retrain schedule of §4.2, driven by the engine: retrains
    /// all stale models when `answers` completes a batch of `ns_batch` user
    /// answers.  Returns whether a retrain ran.
    pub fn retrain_if_due(&mut self, answers: usize, ns_batch: usize) -> bool {
        if ns_batch == 0 || !answers.is_multiple_of(ns_batch) {
            return false;
        }
        self.retrain_all();
        true
    }

    /// Number of labelled examples accumulated for one attribute.
    pub fn training_size(&self, attr: usize) -> usize {
        self.learners[attr].training_size()
    }

    /// Whether the model of this attribute has been trained at least once.
    pub fn is_trained(&self, attr: usize) -> bool {
        self.learners[attr].is_trained()
    }

    /// Predicted feedback for an update; `None` while the attribute model is
    /// untrained.
    pub fn predict(&self, table: &Table, update: &Update) -> Option<Feedback> {
        let features = self.features_for(table, update);
        self.learners[update.attr]
            .predict(&features)
            .and_then(Feedback::from_index)
    }

    /// The user-model probability `p̃_j` that the update is correct: the
    /// committee's confirm-vote fraction when trained, the repair-evaluation
    /// score `s_j` otherwise (§4.1, "User Model").
    pub fn confirm_probability(&self, table: &Table, update: &Update) -> f64 {
        let features = self.features_for(table, update);
        self.learners[update.attr]
            .label_probability(&features, Feedback::Confirm.index())
            .unwrap_or(update.score)
    }

    /// Committee-disagreement uncertainty of the prediction for an update
    /// (1.0 while untrained).
    pub fn uncertainty(&self, table: &Table, update: &Update) -> f64 {
        let features = self.features_for(table, update);
        self.learners[update.attr].uncertainty(&features)
    }
}

/// Every per-attribute learner (datasets, trained forests, seed schedules),
/// then one pending-example count per learner (no second length prefix).
impl State for ModelStore {
    const MIN_BYTES: usize = codec::section_bytes("models", 1) + Vec::<ActiveLearner>::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("models", 1);
        enc.put(&self.learners);
        enc.fixed(&self.pending_since_retrain);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<ModelStore> {
        dec.section("models", 1)?;
        let learners: Vec<ActiveLearner> = dec.get()?;
        let pending_since_retrain = dec.fixed(learners.len())?;
        Ok(ModelStore {
            learners,
            pending_since_retrain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(&["SRC", "CT", "ZIP"]);
        let mut t = Table::new("addr", schema);
        // Source H2 systematically has a wrong city; source H1 is fine.
        for i in 0..30 {
            let src = if i % 2 == 0 { "H2" } else { "H1" };
            let city = if src == "H2" {
                "Westville"
            } else {
                "Michigan City"
            };
            t.push_text_row(&[src, city, "46360"]).unwrap();
        }
        t
    }

    fn store() -> ModelStore {
        ModelStore::new(3, ForestConfig::default(), 42)
    }

    #[test]
    fn feature_vector_shape_and_content() {
        let table = table();
        let store = store();
        let update = Update::new(0, 1, Value::from("Michigan City"), 0.4);
        let features = store.features_for(&table, &update);
        assert_eq!(features.len(), 5); // 3 attrs + suggested value + similarity
                                       // Tuple features carry the interned ids of the row's cells...
        assert_eq!(features[0].as_symbol(), Some(table.cell_id(0, 0).raw()));
        // ...while the suggested value is canonical text, so examples taken
        // before and after the value is interned stay comparable.
        assert_eq!(features[3].as_categorical(), Some("Michigan City"));
        let sim = features[4].as_numeric().unwrap();
        assert!((0.0..=1.0).contains(&sim));
    }

    #[test]
    fn suggested_value_feature_is_stable_across_interning() {
        let mut table = table();
        let store = store();
        let update = Update::new(0, 1, Value::from("Nowhere Else"), 0.1);
        // Not interned yet...
        let before = store.features_for(&table, &update);
        // ...now interned (e.g. the update was applied elsewhere)...
        table.intern_value(1, Value::from("Nowhere Else"));
        let after = store.features_for(&table, &update);
        // ...and the suggested-value feature must not change representation.
        assert_eq!(before[3], after[3]);
        assert_eq!(before[3].as_categorical(), Some("Nowhere Else"));
    }

    #[test]
    fn equal_cells_share_feature_symbols() {
        let table = table();
        let store = store();
        // Rows 0 and 2 both come from source H2 with city Westville.
        let a = store.features_for(&table, &Update::new(0, 1, Value::from("X"), 0.4));
        let b = store.features_for(&table, &Update::new(2, 1, Value::from("X"), 0.4));
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn null_cells_become_missing_features() {
        let schema = Schema::new(&["A", "B"]);
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Null, Value::from("x")]).unwrap();
        let store = ModelStore::new(2, ForestConfig::default(), 0);
        let update = Update::new(0, 1, Value::from("y"), 0.5);
        let features = store.features_for(&t, &update);
        assert!(features[0].is_missing());
    }

    #[test]
    fn untrained_model_falls_back_to_update_score() {
        let table = table();
        let store = store();
        let update = Update::new(0, 1, Value::from("Michigan City"), 0.37);
        assert!(!store.is_trained(1));
        assert_eq!(store.predict(&table, &update), None);
        assert_eq!(store.confirm_probability(&table, &update), 0.37);
        assert_eq!(store.uncertainty(&table, &update), 1.0);
    }

    #[test]
    fn learns_source_correlated_feedback() {
        let table = table();
        let mut store = store();
        // Simulate feedback: city suggestions for H2 tuples are confirmed,
        // for H1 tuples they are retained (already correct).
        for (tid, tuple) in table.iter() {
            let update = Update::new(tid, 1, Value::from("Michigan City"), 0.4);
            let feedback = if tuple.value(0) == &Value::from("H2") {
                Feedback::Confirm
            } else {
                Feedback::Retain
            };
            store.add_feedback(&table, &update, feedback);
        }
        assert_eq!(store.training_size(1), 30);
        store.retrain_all();
        assert!(store.is_trained(1));
        assert!(!store.is_trained(2)); // no examples for ZIP

        let h2_update = Update::new(0, 1, Value::from("Michigan City"), 0.4);
        let h1_update = Update::new(1, 1, Value::from("Michigan City"), 0.4);
        assert_eq!(store.predict(&table, &h2_update), Some(Feedback::Confirm));
        assert_eq!(store.predict(&table, &h1_update), Some(Feedback::Retain));
        assert!(store.confirm_probability(&table, &h2_update) > 0.7);
        assert!(store.confirm_probability(&table, &h1_update) < 0.3);
        // Confident on both → low uncertainty.
        assert!(store.uncertainty(&table, &h2_update) < 0.6);
    }

    #[test]
    fn retrain_if_due_fires_only_on_batch_boundaries() {
        let table = table();
        let mut store = store();
        let update = Update::new(0, 2, Value::from("46391"), 0.5);
        store.add_feedback(&table, &update, Feedback::Reject);
        assert!(!store.retrain_if_due(3, 2));
        assert!(!store.is_trained(2));
        assert!(store.retrain_if_due(4, 2));
        assert!(store.is_trained(2));
        // Degenerate schedule: never due.
        assert!(!store.retrain_if_due(4, 0));
    }

    #[test]
    fn retrain_all_only_touches_attributes_with_new_examples() {
        let table = table();
        let mut store = store();
        let update = Update::new(0, 2, Value::from("46391"), 0.5);
        store.add_feedback(&table, &update, Feedback::Reject);
        store.retrain_all();
        assert!(store.is_trained(2));
        assert!(!store.is_trained(0));
        assert!(!store.is_trained(1));
        assert_eq!(store.arity(), 3);
    }
}
