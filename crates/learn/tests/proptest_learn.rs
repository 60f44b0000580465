//! Property-based tests for the learning substrate.

use gdr_learn::{
    committee_entropy, vote_fractions, Dataset, Example, FeatureValue, ForestConfig, RandomForest,
    TreeConfig,
};
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    // Labels are a deterministic function of the categorical feature with a
    // pinch of label noise controlled by the generated bit.
    proptest::collection::vec((0usize..4, 0usize..5, proptest::bool::weighted(0.1)), 4..60)
        .prop_map(|rows| {
            let mut d = Dataset::new(2, 3);
            for (cat, num, noise) in rows {
                let base_label = cat % 3;
                let label = if noise {
                    (base_label + 1) % 3
                } else {
                    base_label
                };
                d.push(Example::new(
                    vec![
                        FeatureValue::categorical(format!("v{cat}")),
                        FeatureValue::Numeric(num as f64),
                    ],
                    label,
                ));
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forest predictions are always valid labels and the vote distribution
    /// is a probability distribution.
    #[test]
    fn predictions_are_valid_labels(d in dataset_strategy(), seed in 0u64..1000) {
        let forest = RandomForest::train(&d, &ForestConfig::default(), seed);
        for e in (0..d.len()).map(|i| d.example(i)) {
            let p = forest.predict(&e.features);
            prop_assert!(p < d.label_count());
            let dist = forest.vote_distribution(&e.features);
            prop_assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(dist.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let u = forest.uncertainty(&e.features);
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// The majority prediction always matches the arg-max of the vote
    /// distribution.
    #[test]
    fn majority_matches_vote_distribution(d in dataset_strategy(), seed in 0u64..1000) {
        let forest = RandomForest::train(&d, &ForestConfig::default(), seed);
        for e in (0..d.len().min(10)).map(|i| d.example(i)) {
            let dist = forest.vote_distribution(&e.features);
            let max = dist.iter().cloned().fold(f64::MIN, f64::max);
            let predicted = forest.predict(&e.features);
            prop_assert!((dist[predicted] - max).abs() < 1e-12);
        }
    }

    /// Training twice with the same seed yields identical committees.
    #[test]
    fn training_is_deterministic(d in dataset_strategy(), seed in 0u64..1000) {
        let a = RandomForest::train(&d, &ForestConfig::default(), seed);
        let b = RandomForest::train(&d, &ForestConfig::default(), seed);
        for e in (0..d.len().min(10)).map(|i| d.example(i)) {
            prop_assert_eq!(a.votes(&e.features), b.votes(&e.features));
        }
    }

    /// A single unrestricted tree fits noise-free training data perfectly
    /// when every feature is allowed at every split.
    #[test]
    fn tree_fits_clean_training_data(rows in proptest::collection::vec((0usize..4, 0usize..5), 4..40)) {
        let mut d = Dataset::new(2, 3);
        for (cat, num) in rows {
            d.push(Example::new(
                vec![
                    FeatureValue::categorical(format!("v{cat}")),
                    FeatureValue::Numeric(num as f64),
                ],
                cat % 3,
            ));
        }
        let config = ForestConfig {
            trees: 1,
            sample_fraction: 1.0,
            tree: TreeConfig { max_depth: 32, min_samples_split: 2, features_per_split: Some(2) },
        };
        // A bag sampled with replacement may omit examples, so train a single
        // tree directly instead.
        let tree = gdr_learn::DecisionTree::train_on(&d, &(0..d.len()).collect::<Vec<_>>(), &config.tree, 7);
        for e in (0..d.len()).map(|i| d.example(i)) {
            prop_assert_eq!(tree.predict(&e.features), e.label);
        }
    }

    /// Committee entropy is zero iff the committee is unanimous, and never
    /// exceeds 1.
    #[test]
    fn entropy_bounds(votes in proptest::collection::vec(0usize..3, 1..20)) {
        let u = committee_entropy(&votes, 3);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&u));
        let unanimous = votes.iter().all(|&v| v == votes[0]);
        prop_assert_eq!(u == 0.0, unanimous);
        let fractions = vote_fractions(&votes, 3);
        prop_assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
