//! # gdr-bench — experiment harness for the GDR reproduction
//!
//! Every figure of the paper's evaluation section (§5 and Appendix B.1) has a
//! function here that regenerates it on the synthetic stand-in datasets:
//!
//! * [`figure3`] — quality improvement vs. amount of feedback for the
//!   no-learning ranking strategies (GDR-NoLearning, Greedy, Random),
//! * [`figure4`] — the overall evaluation (GDR, GDR-S-Learning,
//!   Active-Learning, GDR-NoLearning, Automatic-Heuristic) at increasing
//!   feedback budgets expressed as a percentage of the initial dirty tuples,
//! * [`figure5`] — precision and recall of GDR's applied repairs vs. the
//!   user-effort budget.
//!
//! The `experiments` binary wraps these functions behind a small CLI and
//! prints CSV so the series can be compared with the paper's curves; the
//! Criterion benchmarks in `benches/` measure the cost of the underlying
//! primitives (violation detection, update generation, VOI ranking, forest
//! training, the consistency manager, and one end-to-end round).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gdr_core::{GdrConfig, SessionBuilder, SessionReport, Strategy};
use gdr_datagen::census::{generate_census_dataset, CensusConfig};
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_datagen::GeneratedDataset;

/// Which of the paper's two datasets to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// The hospital-visits dataset with systematic, source-correlated errors.
    Dataset1,
    /// The census-like dataset with random errors and discovered rules.
    Dataset2,
}

impl DatasetId {
    /// Parses `1` / `2`.
    pub fn parse(text: &str) -> Option<DatasetId> {
        match text.trim() {
            "1" => Some(DatasetId::Dataset1),
            "2" => Some(DatasetId::Dataset2),
            _ => None,
        }
    }
}

/// Generates the requested dataset at a given size (seeded, deterministic).
pub fn generate(dataset: DatasetId, tuples: usize, seed: u64) -> GeneratedDataset {
    match dataset {
        DatasetId::Dataset1 => generate_hospital_dataset(&HospitalConfig {
            tuples,
            dirty_fraction: 0.3,
            seed,
            extra_cities: 0,
        }),
        DatasetId::Dataset2 => generate_census_dataset(&CensusConfig {
            tuples,
            dirty_fraction: 0.3,
            discovery_support: 0.05,
            seed,
        }),
    }
}

/// One point of a result series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X value (percentage of feedback / user effort).
    pub x: f64,
    /// Y value (quality improvement %, precision, or recall).
    pub y: f64,
}

/// One labelled curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (strategy name, or "Precision"/"Recall").
    pub label: String,
    /// The points of the curve in x order.
    pub points: Vec<Point>,
}

/// A reproduced figure: a set of labelled curves plus axis descriptions.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. `Figure 3(a)`.
    pub name: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as CSV (`figure,series,x,y` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,series,x,y\n");
        for series in &self.series {
            for point in &series.points {
                out.push_str(&format!(
                    "{},{},{:.2},{:.4}\n",
                    self.name, series.label, point.x, point.y
                ));
            }
        }
        out
    }
}

/// A session configuration sized for the experiment harness.
fn experiment_config(seed: u64) -> GdrConfig {
    GdrConfig {
        seed,
        ..GdrConfig::default()
    }
}

fn run_session(
    data: &GeneratedDataset,
    strategy: Strategy,
    budget: Option<usize>,
    seed: u64,
) -> SessionReport {
    let mut session = SessionBuilder::new(data.dirty.clone(), &data.rules)
        .strategy(strategy)
        .config(experiment_config(seed))
        .simulated(data.clean.clone());
    session.run(budget).expect("session run")
}

/// Figure 3: VOI-ranking evaluation.  Quality improvement as a function of
/// the amount of feedback (percentage of the total updates each approach
/// needs to verify to finish), for GDR-NoLearning, Greedy, and Random.
pub fn figure3(dataset: DatasetId, tuples: usize, seed: u64) -> Figure {
    let data = generate(dataset, tuples, seed);
    let strategies = [
        Strategy::GdrNoLearning,
        Strategy::Greedy,
        Strategy::RandomOrder,
    ];
    let mut series = Vec::new();
    for strategy in strategies {
        let report = run_session(&data, strategy, None, seed);
        let total = report.verifications.max(1);
        let points = (0..=20)
            .map(|step| {
                let pct = step as f64 * 5.0;
                let verifications = ((pct / 100.0) * total as f64).round() as usize;
                Point {
                    x: pct,
                    y: report.improvement_at(verifications),
                }
            })
            .collect();
        series.push(Series {
            label: strategy.label().to_string(),
            points,
        });
    }
    Figure {
        name: format!(
            "Figure 3({})",
            if dataset == DatasetId::Dataset1 {
                "a"
            } else {
                "b"
            }
        ),
        x_label: "Feedback (% of verified updates)".to_string(),
        y_label: "Quality improvement (%)".to_string(),
        series,
    }
}

/// Figure 4: overall evaluation.  Quality improvement as a function of the
/// feedback budget, expressed as a percentage of the initial number of dirty
/// tuples, for GDR, GDR-S-Learning, Active-Learning, GDR-NoLearning, and the
/// automatic heuristic.
pub fn figure4(dataset: DatasetId, tuples: usize, seed: u64, budget_steps: &[f64]) -> Figure {
    let data = generate(dataset, tuples, seed);
    let initial_dirty = gdr_cfd::ViolationEngine::build(&data.dirty, &data.rules)
        .dirty_tuples()
        .len();
    let strategies = [
        Strategy::Gdr,
        Strategy::GdrSLearning,
        Strategy::ActiveLearningOnly,
        Strategy::GdrNoLearning,
        Strategy::AutomaticHeuristic,
    ];
    let mut series = Vec::new();
    for strategy in strategies {
        let mut points = Vec::new();
        if strategy == Strategy::AutomaticHeuristic {
            // No user involvement: a flat line across the whole x range.
            let report = run_session(&data, strategy, None, seed);
            for &pct in budget_steps {
                points.push(Point {
                    x: pct,
                    y: report.final_improvement_pct,
                });
            }
        } else {
            for &pct in budget_steps {
                let budget = ((pct / 100.0) * initial_dirty as f64).round() as usize;
                let report = run_session(&data, strategy, Some(budget), seed);
                points.push(Point {
                    x: pct,
                    y: report.final_improvement_pct,
                });
            }
        }
        series.push(Series {
            label: strategy.label().to_string(),
            points,
        });
    }
    Figure {
        name: format!(
            "Figure 4({})",
            if dataset == DatasetId::Dataset1 {
                "a"
            } else {
                "b"
            }
        ),
        x_label: "Feedback (% of initial dirty tuples)".to_string(),
        y_label: "Quality improvement (%)".to_string(),
        series,
    }
}

/// Figure 5: user effort vs. repair accuracy.  Precision and recall of GDR's
/// applied repairs as the feedback budget grows.
pub fn figure5(dataset: DatasetId, tuples: usize, seed: u64, budget_steps: &[f64]) -> Figure {
    let data = generate(dataset, tuples, seed);
    let initial_dirty = gdr_cfd::ViolationEngine::build(&data.dirty, &data.rules)
        .dirty_tuples()
        .len();
    let mut precision = Vec::new();
    let mut recall = Vec::new();
    for &pct in budget_steps {
        let budget = ((pct / 100.0) * initial_dirty as f64).round() as usize;
        let report = run_session(&data, Strategy::Gdr, Some(budget), seed);
        precision.push(Point {
            x: pct,
            y: report.accuracy.precision(),
        });
        recall.push(Point {
            x: pct,
            y: report.accuracy.recall(),
        });
    }
    Figure {
        name: format!(
            "Figure 5({})",
            if dataset == DatasetId::Dataset1 {
                "a"
            } else {
                "b"
            }
        ),
        x_label: "Feedback (% of initial dirty tuples)".to_string(),
        y_label: "Precision / Recall".to_string(),
        series: vec![
            Series {
                label: "Precision".to_string(),
                points: precision,
            },
            Series {
                label: "Recall".to_string(),
                points: recall,
            },
        ],
    }
}

/// The default budget grid used by Figures 4 and 5 (percent of initial dirty
/// tuples).
pub const DEFAULT_BUDGET_STEPS: &[f64] = &[0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_ids_parse() {
        assert_eq!(DatasetId::parse("1"), Some(DatasetId::Dataset1));
        assert_eq!(DatasetId::parse(" 2 "), Some(DatasetId::Dataset2));
        assert_eq!(DatasetId::parse("3"), None);
    }

    #[test]
    fn figure_csv_has_header_and_rows() {
        let figure = Figure {
            name: "Test".to_string(),
            x_label: "x".to_string(),
            y_label: "y".to_string(),
            series: vec![Series {
                label: "S".to_string(),
                points: vec![Point { x: 1.0, y: 2.0 }],
            }],
        };
        let csv = figure.to_csv();
        assert!(csv.starts_with("figure,series,x,y\n"));
        assert!(csv.contains("Test,S,1.00,2.0000"));
    }

    #[test]
    fn tiny_figure3_runs_and_orders_strategies_sensibly() {
        let figure = figure3(DatasetId::Dataset1, 300, 3);
        assert_eq!(figure.series.len(), 3);
        for series in &figure.series {
            assert_eq!(series.points.len(), 21);
            // Curves are non-decreasing in feedback and end at (or near) 100%.
            assert!(series.points.windows(2).all(|w| w[1].y >= w[0].y - 1e-9));
            assert!(series.points.last().unwrap().y > 90.0);
        }
    }

    #[test]
    fn tiny_figure4_includes_flat_heuristic_line() {
        let figure = figure4(DatasetId::Dataset1, 250, 5, &[0.0, 50.0, 100.0]);
        let heuristic = figure
            .series
            .iter()
            .find(|s| s.label == "Heuristic")
            .unwrap();
        let first = heuristic.points[0].y;
        assert!(heuristic.points.iter().all(|p| (p.y - first).abs() < 1e-9));
        assert_eq!(figure.series.len(), 5);
    }

    #[test]
    fn tiny_figure5_reports_bounded_metrics() {
        let figure = figure5(DatasetId::Dataset1, 250, 5, &[0.0, 100.0]);
        for series in &figure.series {
            for point in &series.points {
                assert!((0.0..=1.0).contains(&point.y));
            }
        }
    }
}
