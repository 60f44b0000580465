//! # gdr-datagen — synthetic stand-ins for the GDR evaluation datasets
//!
//! The paper evaluates GDR on two ~20 000-record datasets:
//!
//! * **Dataset 1** — emergency-room visits integrated from 74 Indiana
//!   hospitals (proprietary patient data, manually repaired by the authors to
//!   obtain ground truth).  Its errors are *systematic*: they correlate with
//!   the source hospital / data-entry operator, which is what makes the
//!   learning component effective.
//! * **Dataset 2** — the UCI *adult* census dataset (assumed clean and used
//!   as ground truth), with errors injected *at random* into 30 % of the
//!   tuples, and CFDs discovered automatically with a 5 % support threshold.
//!
//! Neither dataset can ship with this reproduction (the first is private
//! patient data, the second requires network access), so this crate generates
//! synthetic equivalents that preserve the properties the paper's evaluation
//! depends on:
//!
//! * [`hospital`] — a visit table with the paper's schema, a realistic
//!   Indiana ZIP/City/Street domain, hospital-correlated systematic errors,
//!   hand-written CFDs mirroring Figure 1, and widely varying update-group
//!   sizes;
//! * [`census`] — a categorical census-like table with embedded functional
//!   dependencies, uniformly random errors, and rules obtained through
//!   [`gdr_cfd::discovery`];
//! * [`errors`] — the error-injection primitives (typos, abbreviations,
//!   domain swaps) shared by both generators;
//! * [`GeneratedDataset`] — the bundle of clean table (ground truth), dirty
//!   table, rules, and the list of corrupted cells.
//!
//! ```
//! use gdr_datagen::hospital::{HospitalConfig, generate_hospital_dataset};
//!
//! let data = generate_hospital_dataset(&HospitalConfig { tuples: 500, ..Default::default() });
//! assert_eq!(data.clean.len(), 500);
//! assert_eq!(data.dirty.len(), 500);
//! assert!(!data.corrupted_cells.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod domains;
pub mod errors;
pub mod hospital;

use gdr_cfd::RuleSet;
use gdr_relation::{AttrId, Table, TupleId};

/// A generated benchmark dataset: ground truth, dirty instance, rules, and
/// the exact set of corrupted cells.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The clean instance, used as the ground truth `D_opt` by the simulated
    /// user and the quality metrics.
    pub clean: Table,
    /// The dirty instance handed to the repair framework.
    pub dirty: Table,
    /// The data-quality rules for the dataset.
    pub rules: RuleSet,
    /// Cells whose value differs between `dirty` and `clean`, i.e. the
    /// injected errors.
    pub corrupted_cells: Vec<(TupleId, AttrId)>,
}

impl GeneratedDataset {
    /// Fraction of tuples that carry at least one corrupted cell.
    pub fn dirty_tuple_fraction(&self) -> f64 {
        if self.clean.is_empty() {
            return 0.0;
        }
        let mut tuples: Vec<TupleId> = self.corrupted_cells.iter().map(|&(t, _)| t).collect();
        tuples.sort_unstable();
        tuples.dedup();
        tuples.len() as f64 / self.clean.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::GeneratedDataset;

    /// Every listed corrupted cell really differs from the ground truth, and
    /// no unlisted cell does.
    pub(crate) fn corruption_is_consistent(data: &GeneratedDataset) -> bool {
        let mut diff = data.dirty.diff_cells(&data.clean).unwrap();
        diff.sort_unstable();
        let mut listed = data.corrupted_cells.clone();
        listed.sort_unstable();
        listed.dedup();
        diff == listed
    }
}
