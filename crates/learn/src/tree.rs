//! Decision-tree learning with random attribute subsampling.
//!
//! The trees follow the construction sketched in §4.2 of the paper: a
//! standard top-down, entropy-based decision-tree learner, "with the
//! exception that at each attribute split, the algorithm selects the best
//! attribute from a random subsample of M' < M attributes" — the ingredient
//! that turns a bagged ensemble into a random forest.
//!
//! Splits are binary:
//!
//! * categorical feature `f` → test `f == value` for every value observed at
//!   the node,
//! * numeric feature `f` → test `f <= threshold` for thresholds halfway
//!   between consecutive observed values.
//!
//! Missing values fail both kinds of test (they go to the "else" branch).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{Dataset, Example, FeatureValue};

/// Hyper-parameters of a single tree.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of examples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features examined at each split; `None` means
    /// `ceil(sqrt(feature_count))`, the usual random-forest default.
    pub features_per_split: Option<usize>,
}

gdr_relation::state_record! { TreeConfig { max_depth, min_samples_split, features_per_split } }

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            features_per_split: None,
        }
    }
}

impl TreeConfig {}

/// A binary split test on one feature.
#[derive(Debug, Clone, PartialEq)]
enum SplitTest {
    /// `feature == value` over text-carried categoricals.
    CategoricalEquals(usize, String),
    /// `feature == symbol` over symbol-carried categoricals.
    SymbolEquals(usize, u32),
    /// `feature <= threshold` (missing values fail the test).
    NumericAtMost(usize, f64),
}

impl SplitTest {
    fn passes(&self, features: &[FeatureValue]) -> bool {
        match self {
            SplitTest::CategoricalEquals(feature, value) => {
                features[*feature].as_categorical() == Some(value.as_str())
            }
            SplitTest::SymbolEquals(feature, symbol) => {
                features[*feature].as_symbol() == Some(*symbol)
            }
            SplitTest::NumericAtMost(feature, threshold) => features[*feature]
                .as_numeric()
                .map(|x| x <= *threshold)
                .unwrap_or(false),
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        label: usize,
    },
    Split {
        test: SplitTest,
        pass: Box<Node>,
        fail: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    label_count: usize,
}

impl DecisionTree {
    /// Trains a tree on a subset of example indices (the bag drawn by the
    /// random forest).
    pub fn train_on(
        dataset: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        seed: u64,
    ) -> DecisionTree {
        assert!(
            dataset.label_count() > 0,
            "dataset needs at least one class"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let root = build_node(dataset, indices, config, &mut rng, 0);
        DecisionTree {
            root,
            label_count: dataset.label_count(),
        }
    }

    /// Predicts the label of a feature vector.
    pub fn predict(&self, features: &[FeatureValue]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { test, pass, fail } => {
                    node = if test.passes(features) { pass } else { fail };
                }
            }
        }
    }

    /// Number of classes the tree was trained for.
    pub(crate) fn label_count(&self) -> usize {
        self.label_count
    }
}

gdr_relation::state_record! { "tree" 1 => DecisionTree { label_count, root } }

// A tree nests one `Box` per split level, so the codec's nesting limit
// keeps a corrupt payload from recursing the decoder off the stack.
gdr_relation::state_enum! { Node, "tree-node" {
    0 => Leaf { label },
    1 => Split { test, pass, fail },
} }

gdr_relation::state_enum! { SplitTest, "split-test" {
    0 => CategoricalEquals { 0, 1 },
    1 => SymbolEquals { 0, 1 },
    2 => NumericAtMost { 0, 1 },
} }

fn build_node(
    dataset: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
    depth: usize,
) -> Node {
    let majority = dataset.majority_label(indices).unwrap_or(0);
    let counts = dataset.label_counts(indices);
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
        return Node::Leaf { label: majority };
    }

    let Some((test, pass_idx, fail_idx)) = best_split(dataset, indices, config, rng) else {
        return Node::Leaf { label: majority };
    };

    let pass = build_node(dataset, &pass_idx, config, rng, depth + 1);
    let fail = build_node(dataset, &fail_idx, config, rng, depth + 1);
    Node::Split {
        test,
        pass: Box::new(pass),
        fail: Box::new(fail),
    }
}

/// Shannon entropy (natural log) of a label multiset given by counts.
fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Finds the best split over a random subsample of features, returning the
/// test and the pass/fail index partitions.  `None` when no split separates
/// the examples.
#[allow(clippy::type_complexity)]
fn best_split(
    dataset: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
) -> Option<(SplitTest, Vec<usize>, Vec<usize>)> {
    let feature_count = dataset.feature_count();
    if feature_count == 0 {
        return None;
    }
    let default_mtry = (feature_count as f64).sqrt().ceil() as usize;
    let mtry = config
        .features_per_split
        .unwrap_or(default_mtry)
        .clamp(1, feature_count);

    let mut features: Vec<usize> = (0..feature_count).collect();
    features.shuffle(rng);
    features.truncate(mtry);

    let parent_entropy = entropy(&dataset.label_counts(indices));
    let mut best: Option<(f64, SplitTest)> = None;

    for &feature in &features {
        for test in candidate_tests(dataset, indices, feature) {
            let (pass_counts, fail_counts, pass_n, fail_n) =
                partition_counts(dataset, indices, &test);
            if pass_n == 0 || fail_n == 0 {
                continue;
            }
            let total = (pass_n + fail_n) as f64;
            let weighted = (pass_n as f64 / total) * entropy(&pass_counts)
                + (fail_n as f64 / total) * entropy(&fail_counts);
            let gain = parent_entropy - weighted;
            let better = match &best {
                None => true,
                Some((best_gain, _)) => gain > *best_gain + 1e-12,
            };
            if better {
                best = Some((gain, test));
            }
        }
    }

    let (gain, test) = best?;
    if gain <= 1e-12 {
        return None;
    }
    let mut pass_idx = Vec::new();
    let mut fail_idx = Vec::new();
    for &i in indices {
        if test.passes(&dataset.example(i).features) {
            pass_idx.push(i);
        } else {
            fail_idx.push(i);
        }
    }
    Some((test, pass_idx, fail_idx))
}

/// Enumerates the candidate binary tests for one feature at one node.
fn candidate_tests(dataset: &Dataset, indices: &[usize], feature: usize) -> Vec<SplitTest> {
    let mut categorical: Vec<String> = Vec::new();
    let mut symbols: Vec<u32> = Vec::new();
    let mut numeric: Vec<f64> = Vec::new();
    for &i in indices {
        match &dataset.example(i).features[feature] {
            FeatureValue::Categorical(s) => {
                if !categorical.iter().any(|c| c == s) {
                    categorical.push(s.clone());
                }
            }
            FeatureValue::Symbol(s) => symbols.push(*s),
            FeatureValue::Numeric(x) => numeric.push(*x),
            FeatureValue::Missing => {}
        }
    }
    let mut tests: Vec<SplitTest> = categorical
        .into_iter()
        .map(|v| SplitTest::CategoricalEquals(feature, v))
        .collect();
    symbols.sort_unstable();
    symbols.dedup();
    tests.extend(
        symbols
            .into_iter()
            .map(|s| SplitTest::SymbolEquals(feature, s)),
    );
    numeric.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    numeric.dedup();
    for pair in numeric.windows(2) {
        tests.push(SplitTest::NumericAtMost(feature, (pair[0] + pair[1]) / 2.0));
    }
    tests
}

/// Label counts of the pass/fail partitions induced by a test.
fn partition_counts(
    dataset: &Dataset,
    indices: &[usize],
    test: &SplitTest,
) -> (Vec<usize>, Vec<usize>, usize, usize) {
    let mut pass = vec![0usize; dataset.label_count()];
    let mut fail = vec![0usize; dataset.label_count()];
    let mut pass_n = 0usize;
    let mut fail_n = 0usize;
    for &i in indices {
        let example: &Example = dataset.example(i);
        if test.passes(&example.features) {
            pass[example.label] += 1;
            pass_n += 1;
        } else {
            fail[example.label] += 1;
            fail_n += 1;
        }
    }
    (pass, fail, pass_n, fail_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains a tree on the full dataset (no bagging).
    fn train(dataset: &Dataset, config: &TreeConfig, seed: u64) -> DecisionTree {
        let indices: Vec<usize> = (0..dataset.len()).collect();
        DecisionTree::train_on(dataset, &indices, config, seed)
    }

    /// Number of decision nodes (excluding leaves).
    fn split_count(tree: &DecisionTree) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { pass, fail, .. } => 1 + count(pass) + count(fail),
            }
        }
        count(&tree.root)
    }

    fn cat(s: &str) -> FeatureValue {
        FeatureValue::categorical(s)
    }

    /// Label 1 iff feature0 == "b".
    fn simple_dataset() -> Dataset {
        let mut d = Dataset::new(2, 2);
        for (f, label) in [
            ("a", 0),
            ("b", 1),
            ("a", 0),
            ("b", 1),
            ("c", 0),
            ("b", 1),
            ("a", 0),
        ] {
            d.push(Example::new(
                vec![cat(f), FeatureValue::Numeric(0.0)],
                label,
            ));
        }
        d
    }

    #[test]
    fn learns_a_categorical_rule() {
        let d = simple_dataset();
        let config = TreeConfig {
            features_per_split: Some(2),
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 1);
        assert!(split_count(&tree) >= 1);
        assert_eq!(tree.predict(&[cat("b"), FeatureValue::Numeric(9.0)]), 1);
        assert_eq!(tree.predict(&[cat("a"), FeatureValue::Numeric(9.0)]), 0);
        // Unseen value: falls to the "fail" side of the b-test → majority 0.
        assert_eq!(tree.predict(&[cat("z"), FeatureValue::Numeric(9.0)]), 0);
        assert_eq!(tree.label_count(), 2);
    }

    #[test]
    fn learns_a_numeric_threshold() {
        let mut d = Dataset::new(1, 2);
        for x in 0..10 {
            d.push(Example::new(
                vec![FeatureValue::Numeric(x as f64)],
                usize::from(x >= 5),
            ));
        }
        let config = TreeConfig {
            features_per_split: Some(1),
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 3);
        assert_eq!(tree.predict(&[FeatureValue::Numeric(1.0)]), 0);
        assert_eq!(tree.predict(&[FeatureValue::Numeric(8.5)]), 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(1, 2);
        for _ in 0..5 {
            d.push(Example::new(vec![cat("x")], 1));
        }
        let tree = train(&d, &TreeConfig::default(), 0);
        assert_eq!(split_count(&tree), 0);
        assert_eq!(tree.predict(&[cat("anything")]), 1);
    }

    #[test]
    fn depth_limit_is_respected() {
        let d = simple_dataset();
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 0);
        assert_eq!(split_count(&tree), 0);
        // Majority label of the whole set is 0 (4 vs 3).
        assert_eq!(tree.predict(&[cat("b"), FeatureValue::Numeric(0.0)]), 0);
    }

    #[test]
    fn min_samples_split_is_respected() {
        let d = simple_dataset();
        let config = TreeConfig {
            min_samples_split: 100,
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 0);
        assert_eq!(split_count(&tree), 0);
    }

    #[test]
    fn missing_values_fail_tests() {
        let d = simple_dataset();
        let config = TreeConfig {
            features_per_split: Some(2),
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 1);
        // Missing routes to the non-"b" side → label 0.
        assert_eq!(
            tree.predict(&[FeatureValue::Missing, FeatureValue::Missing]),
            0
        );
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let d = simple_dataset();
        let config = TreeConfig::default();
        let t1 = train(&d, &config, 42);
        let t2 = train(&d, &config, 42);
        for f in ["a", "b", "c", "z"] {
            let features = vec![cat(f), FeatureValue::Numeric(0.0)];
            assert_eq!(t1.predict(&features), t2.predict(&features));
        }
    }

    #[test]
    fn conflicting_labels_do_not_split_forever() {
        // Identical feature vectors with different labels: no split has gain,
        // so the tree must stop at a leaf with the majority label.
        let mut d = Dataset::new(1, 2);
        for label in [0, 0, 0, 1, 1] {
            d.push(Example::new(vec![cat("same")], label));
        }
        let tree = train(&d, &TreeConfig::default(), 9);
        assert_eq!(split_count(&tree), 0);
        assert_eq!(tree.predict(&[cat("same")]), 0);
    }

    #[test]
    fn train_on_subset_uses_only_those_examples() {
        let d = simple_dataset();
        // Subset containing only label-1 examples.
        let tree = DecisionTree::train_on(&d, &[1, 3, 5], &TreeConfig::default(), 0);
        assert_eq!(tree.predict(&[cat("a"), FeatureValue::Numeric(0.0)]), 1);
    }

    #[test]
    fn learns_a_symbol_rule() {
        // Same shape as the categorical rule, but with interned symbols.
        let mut d = Dataset::new(1, 2);
        for (s, label) in [(7u32, 0), (9, 1), (7, 0), (9, 1), (3, 0), (9, 1)] {
            d.push(Example::new(vec![FeatureValue::Symbol(s)], label));
        }
        let config = TreeConfig {
            features_per_split: Some(1),
            ..TreeConfig::default()
        };
        let tree = train(&d, &config, 5);
        assert!(split_count(&tree) >= 1);
        assert_eq!(tree.predict(&[FeatureValue::Symbol(9)]), 1);
        assert_eq!(tree.predict(&[FeatureValue::Symbol(7)]), 0);
        // Unseen symbol falls to the majority side.
        assert_eq!(tree.predict(&[FeatureValue::Symbol(1000)]), 0);
        // Missing fails every symbol test.
        assert_eq!(tree.predict(&[FeatureValue::Missing]), 0);
    }

    #[test]
    fn entropy_helper_behaves() {
        assert_eq!(entropy(&[0, 0]), 0.0);
        assert_eq!(entropy(&[5, 0]), 0.0);
        let h = entropy(&[5, 5]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
