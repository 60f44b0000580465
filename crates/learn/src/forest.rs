//! Random forests: bagged decision trees with majority vote.
//!
//! §4.2: "each model `M_Ai` is a random forest which is an ensemble of
//! decision trees that are built in a similar way to construct a committee of
//! classifiers.  Random forest learns a set of k decision trees … randomly
//! sample with replacement a set S of size N' < N from the original data,
//! then learn a decision tree with the set S."  The paper uses the WEKA
//! implementation with `k = 10`; this module reproduces that behaviour.

use gdr_relation::codec::{self, CodecError};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, FeatureValue};
use crate::tree::{DecisionTree, TreeConfig};
use crate::uncertainty::{committee_entropy, vote_fractions};

/// Hyper-parameters of a random forest.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees `k` in the committee (the paper uses 10).
    pub trees: usize,
    /// Bag size as a fraction of the training set (`N' = fraction · N`,
    /// sampled with replacement).
    pub sample_fraction: f64,
    /// Per-tree configuration (depth limit, features per split, ...).
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            trees: 10,
            sample_fraction: 0.8,
            tree: TreeConfig::default(),
        }
    }
}

gdr_relation::state_record! { ForestConfig { trees, sample_fraction, tree } }

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    label_count: usize,
}

impl RandomForest {
    /// Trains `config.trees` bagged trees.  The `seed` makes training fully
    /// deterministic, which the experiment harness relies on.
    ///
    /// # Panics
    /// Panics when the dataset is empty — callers are expected to guard with
    /// [`Dataset::is_empty`] (the active learner does).
    pub fn train(dataset: &Dataset, config: &ForestConfig, seed: u64) -> RandomForest {
        assert!(
            !dataset.is_empty(),
            "cannot train a forest on an empty dataset"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = dataset.len();
        let bag_size = ((n as f64 * config.sample_fraction).round() as usize).clamp(1, n);
        let trees = (0..config.trees.max(1))
            .map(|_| {
                let bag: Vec<usize> = (0..bag_size).map(|_| rng.gen_range(0..n)).collect();
                let tree_seed = rng.gen::<u64>();
                DecisionTree::train_on(dataset, &bag, &config.tree, tree_seed)
            })
            .collect();
        RandomForest {
            trees,
            label_count: dataset.label_count(),
        }
    }

    /// The individual predictions of every committee member.
    pub fn votes(&self, features: &[FeatureValue]) -> Vec<usize> {
        self.trees.iter().map(|t| t.predict(features)).collect()
    }

    /// The fraction of committee members voting for each label.
    pub fn vote_distribution(&self, features: &[FeatureValue]) -> Vec<f64> {
        vote_fractions(&self.votes(features), self.label_count)
    }

    /// Majority-vote prediction (ties resolved toward the smaller label).
    pub fn predict(&self, features: &[FeatureValue]) -> usize {
        let votes = self.votes(features);
        let mut counts = vec![0usize; self.label_count];
        for v in votes {
            counts[v] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(label, _)| label)
            .unwrap_or(0)
    }

    /// The probability the forest assigns to a specific label (its vote
    /// fraction).  GDR uses the fraction voting *confirm* as the prediction
    /// probability `p̃ⱼ` of the user model.
    pub(crate) fn label_probability(&self, features: &[FeatureValue], label: usize) -> f64 {
        self.vote_distribution(features)
            .get(label)
            .copied()
            .unwrap_or(0.0)
    }

    /// The committee-disagreement uncertainty of a prediction (§4.2), in
    /// `[0, 1]`.
    pub fn uncertainty(&self, features: &[FeatureValue]) -> f64 {
        committee_entropy(&self.votes(features), self.label_count)
    }

    /// Rejects a decoded forest whose trees disagree with its label count.
    fn check_decoded(&self) -> codec::Result<()> {
        match self
            .trees
            .iter()
            .find(|tree| tree.label_count() != self.label_count)
        {
            Some(tree) => Err(CodecError::new(format!(
                "tree label count {} disagrees with forest label count {}",
                tree.label_count(),
                self.label_count
            ))),
            None => Ok(()),
        }
    }
}

// Every tree, in committee order.
gdr_relation::state_record! {
    "forest" 1 => RandomForest { label_count, trees }
    check RandomForest::check_decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;

    /// Classification accuracy over a labelled dataset.
    fn accuracy(forest: &RandomForest, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let correct = (0..dataset.len())
            .map(|i| dataset.example(i))
            .filter(|e| forest.predict(&e.features) == e.label)
            .count();
        correct as f64 / dataset.len() as f64
    }

    fn cat(s: &str) -> FeatureValue {
        FeatureValue::categorical(s)
    }

    /// Label is 1 iff feature0 == "H2" (a learnable systematic pattern, like
    /// the paper's "when SRC = H2 the city is usually wrong").
    fn systematic_dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(3, 2);
        for i in 0..n {
            let src = if i % 2 == 0 { "H1" } else { "H2" };
            let label = usize::from(src == "H2");
            d.push(Example::new(
                vec![
                    cat(src),
                    cat(if i % 3 == 0 {
                        "Fort Wayne"
                    } else {
                        "Westville"
                    }),
                    FeatureValue::Numeric((i % 7) as f64),
                ],
                label,
            ));
        }
        d
    }

    #[test]
    fn forest_learns_systematic_pattern() {
        let d = systematic_dataset(60);
        let forest = RandomForest::train(&d, &ForestConfig::default(), 11);
        assert_eq!(forest.label_count, 2);
        assert_eq!(
            forest.predict(&[cat("H2"), cat("Westville"), FeatureValue::Numeric(1.0)]),
            1
        );
        assert_eq!(
            forest.predict(&[cat("H1"), cat("Fort Wayne"), FeatureValue::Numeric(2.0)]),
            0
        );
        assert!(accuracy(&forest, &d) > 0.9);
    }

    #[test]
    fn votes_and_distribution_are_consistent() {
        let d = systematic_dataset(40);
        let forest = RandomForest::train(&d, &ForestConfig::default(), 5);
        let features = vec![cat("H2"), cat("Fort Wayne"), FeatureValue::Numeric(0.0)];
        let votes = forest.votes(&features);
        assert_eq!(votes.len(), 10);
        let dist = forest.vote_distribution(&features);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let p1 = forest.label_probability(&features, 1);
        assert!((p1 - dist[1]).abs() < 1e-12);
        assert_eq!(forest.label_probability(&features, 9), 0.0);
    }

    #[test]
    fn uncertainty_reflects_disagreement() {
        let d = systematic_dataset(60);
        let forest = RandomForest::train(&d, &ForestConfig::default(), 7);
        // A clear-cut case: low uncertainty.
        let clear = vec![cat("H2"), cat("Westville"), FeatureValue::Numeric(1.0)];
        assert!(forest.uncertainty(&clear) < 0.5);
        // Uncertainty is always within [0, 1].
        let odd = vec![FeatureValue::Missing, cat("Nowhere"), FeatureValue::Missing];
        let u = forest.uncertainty(&odd);
        assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let d = systematic_dataset(30);
        let a = RandomForest::train(&d, &ForestConfig::default(), 99);
        let b = RandomForest::train(&d, &ForestConfig::default(), 99);
        let probe = vec![cat("H2"), cat("Fort Wayne"), FeatureValue::Numeric(3.0)];
        assert_eq!(a.votes(&probe), b.votes(&probe));
    }

    #[test]
    fn single_example_dataset_trains() {
        let mut d = Dataset::new(1, 3);
        d.push(Example::new(vec![cat("x")], 2));
        let forest = RandomForest::train(&d, &ForestConfig::default(), 0);
        assert_eq!(forest.predict(&[cat("anything")]), 2);
        assert_eq!(forest.uncertainty(&[cat("anything")]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(1, 2);
        RandomForest::train(&d, &ForestConfig::default(), 0);
    }

    #[test]
    fn accuracy_of_empty_eval_set_is_zero() {
        let d = systematic_dataset(10);
        let forest = RandomForest::train(&d, &ForestConfig::default(), 1);
        assert_eq!(accuracy(&forest, &Dataset::new(3, 2)), 0.0);
    }

    #[test]
    fn forest_with_one_tree_still_works() {
        let d = systematic_dataset(30);
        let config = ForestConfig {
            trees: 1,
            ..ForestConfig::default()
        };
        let forest = RandomForest::train(&d, &config, 3);
        let probe = vec![cat("H1"), cat("Westville"), FeatureValue::Numeric(0.0)];
        assert!(forest.predict(&probe) < 2);
    }
}
