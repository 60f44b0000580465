//! # gdr-cfd — Conditional Functional Dependencies
//!
//! This crate implements the data-quality-rule machinery of the GDR paper
//! ("Guided Data Repair", Yakout et al., PVLDB 2011, §1.2 and Appendix A.1):
//!
//! * [`PatternValue`] — pattern-tuple entries mixing constants and the
//!   `'−'` wildcard, with the `≍` match operator,
//! * [`Cfd`] — a CFD in normal form `(X → A, tp)`, classified as *constant*
//!   (`tp[A]` is a constant) or *variable* (`tp[A] = '−'`),
//! * [`CfdSpec`] — the human-facing, possibly multi-RHS form
//!   `(X → Y, tp)` that normalises into one [`Cfd`] per RHS attribute,
//! * [`parser`] — a compact text syntax for writing rules in examples and
//!   configuration files,
//! * [`RuleSet`] — a weighted collection of rules (`w_i = |D(φ_i)|/|D|` by
//!   default, §4.1),
//! * [`ViolationEngine`] — incremental violation detection: per-tuple
//!   violation counts (Definition 1), dirty-tuple identification, per-rule
//!   aggregates (`vio(D, {φ})`, `|D ⊨ φ|`, `|D(φ)|`), and cheap *what-if*
//!   evaluation of a single-cell change — the primitive the VOI ranking
//!   (Eq. 6) is built on,
//! * [`discovery`] — support-thresholded discovery of constant and variable
//!   CFDs from data, standing in for the technique of Fan et al. (ICDE'09)
//!   that the paper uses to obtain rules for its Dataset 2.
//!
//! ```
//! use gdr_relation::{Schema, Table};
//! use gdr_cfd::{parser, RuleSet, ViolationEngine};
//!
//! let schema = Schema::new(&["CT", "ZIP"]);
//! let mut table = Table::new("addr", schema.clone());
//! table.push_text_row(&["Michigan City", "46360"]).unwrap();
//! table.push_text_row(&["Westville", "46360"]).unwrap(); // violates the rule
//!
//! let rules = parser::parse_rules(&schema, "ZIP -> CT : 46360 || Michigan City").unwrap();
//! let ruleset = RuleSet::new(rules);
//! let engine = ViolationEngine::build(&table, &ruleset);
//! assert_eq!(engine.dirty_tuples(), vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod engine;
pub mod error;
pub mod parser;
pub mod pattern;
pub mod rule;
pub mod ruleset;

pub use discovery::{discover_cfds, DiscoveryConfig};
pub use engine::{GuardedWhatIf, RuleStats, ViolationEngine};
pub use error::CfdError;
pub use pattern::PatternValue;
pub use rule::{Cfd, CfdSpec, RuleId};
pub use ruleset::RuleSet;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CfdError>;
