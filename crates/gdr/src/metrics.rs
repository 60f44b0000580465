//! Precision / recall of the applied repairs (Appendix B.1).
//!
//! "precision is defined as the ratio of the number of values that have been
//! correctly updated to the total number of values that were updated, while
//! recall is defined as the ratio of the number of values that have been
//! correctly updated to the number of incorrect values in the entire
//! database."

use gdr_relation::Table;

/// Precision / recall of a repair run, measured against the ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairAccuracy {
    /// Number of cells whose value was changed by the repair process.
    pub updated: usize,
    /// Number of changed cells whose final value equals the ground truth.
    pub correctly_updated: usize,
    /// Number of cells that were wrong in the initial dirty instance.
    pub initially_incorrect: usize,
}

impl RepairAccuracy {
    /// Computes the metrics by comparing the initial dirty instance, the
    /// repaired instance, and the ground truth cell by cell.
    pub fn compute(initial: &Table, repaired: &Table, truth: &Table) -> RepairAccuracy {
        let changed = repaired
            .diff_cells(initial)
            .expect("repaired and initial instances share schema and size");
        let initially_incorrect = initial
            .diff_cells(truth)
            .expect("initial instance and ground truth share schema and size")
            .len();
        let correctly_updated = changed
            .iter()
            .filter(|&&(tuple, attr)| repaired.cell(tuple, attr) == truth.cell(tuple, attr))
            .count();
        RepairAccuracy {
            updated: changed.len(),
            correctly_updated,
            initially_incorrect,
        }
    }

    /// Precision: correctly updated / updated (1.0 when nothing was updated,
    /// i.e. no harm was done).
    pub fn precision(&self) -> f64 {
        if self.updated == 0 {
            1.0
        } else {
            self.correctly_updated as f64 / self.updated as f64
        }
    }

    /// Recall: correctly updated / initially incorrect (1.0 when the input
    /// was already clean).
    pub fn recall(&self) -> f64 {
        if self.initially_incorrect == 0 {
            1.0
        } else {
            self.correctly_updated as f64 / self.initially_incorrect as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Schema, Value};

    fn truth() -> Table {
        let mut t = Table::new("truth", Schema::new(&["CT", "ZIP"]));
        t.push_text_row(&["Michigan City", "46360"]).unwrap();
        t.push_text_row(&["Fort Wayne", "46825"]).unwrap();
        t.push_text_row(&["Westville", "46391"]).unwrap();
        t
    }

    fn dirty() -> Table {
        let mut t = truth().snapshot("dirty");
        t.set_cell(0, 0, Value::from("Michigan Cty")).unwrap();
        t.set_cell(1, 1, Value::from("46999")).unwrap();
        t.set_cell(2, 0, Value::from("Westvile")).unwrap();
        t
    }

    #[test]
    fn perfect_repair_scores_one() {
        let truth = truth();
        let dirty = dirty();
        let acc = RepairAccuracy::compute(&dirty, &truth, &truth);
        assert_eq!(acc.updated, 3);
        assert_eq!(acc.correctly_updated, 3);
        assert_eq!(acc.initially_incorrect, 3);
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.recall(), 1.0);
    }

    #[test]
    fn partial_repair_with_one_mistake() {
        let truth = truth();
        let dirty = dirty();
        let mut repaired = dirty.snapshot("repaired");
        // One correct repair, one wrong "repair", one error untouched.
        repaired
            .set_cell(0, 0, Value::from("Michigan City"))
            .unwrap();
        repaired.set_cell(1, 1, Value::from("46805")).unwrap();
        let acc = RepairAccuracy::compute(&dirty, &repaired, &truth);
        assert_eq!(acc.updated, 2);
        assert_eq!(acc.correctly_updated, 1);
        assert_eq!(acc.initially_incorrect, 3);
        assert!((acc.precision() - 0.5).abs() < 1e-12);
        assert!((acc.recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn destroying_correct_values_hurts_precision_not_recall_delta() {
        let truth = truth();
        let dirty = dirty();
        let mut repaired = dirty.snapshot("repaired");
        // "Repair" a cell that was already correct, making it wrong.
        repaired.set_cell(2, 1, Value::from("46000")).unwrap();
        let acc = RepairAccuracy::compute(&dirty, &repaired, &truth);
        assert_eq!(acc.updated, 1);
        assert_eq!(acc.correctly_updated, 0);
        assert_eq!(acc.precision(), 0.0);
        assert_eq!(acc.recall(), 0.0);
    }

    #[test]
    fn doing_nothing_has_perfect_precision_zero_recall() {
        let truth = truth();
        let dirty = dirty();
        let acc = RepairAccuracy::compute(&dirty, &dirty, &truth);
        assert_eq!(acc.updated, 0);
        assert_eq!(acc.precision(), 1.0);
        assert_eq!(acc.recall(), 0.0);
    }

    #[test]
    fn clean_input_scores_full_recall() {
        let truth = truth();
        let acc = RepairAccuracy::compute(&truth, &truth, &truth);
        assert_eq!(acc.recall(), 1.0);
        assert_eq!(acc.precision(), 1.0);
    }
}
