//! # gdr-repair — candidate-update generation and the consistency manager
//!
//! This crate is the constraint-repair substrate of the GDR reproduction
//! (§3 and Appendix A of "Guided Data Repair", Yakout et al., PVLDB 2011):
//!
//! * [`similarity`] — the update-evaluation function of Eq. 7
//!   (`sim(v, v') = 1 − dist(v, v')/max(|v|, |v'|)`),
//! * [`Update`] / [`Feedback`] — suggested updates `⟨t, A, v, s⟩` and the
//!   *confirm / reject / retain* feedback alphabet,
//! * [`RepairState`] — the mutable repair context: it owns the database
//!   instance and its [`gdr_cfd::ViolationEngine`], the `PossibleUpdates`
//!   list, the per-cell `preventedList` and `Changeable` flags, and exposes
//!   - `UpdateAttributeTuple` (Algorithm 1: the three repair scenarios);
//!     the initial walk over every dirty cell runs sequentially and scores
//!     each `(current, candidate)` value pair once,
//!   - the consistency manager of Appendix A.5 (feedback application,
//!     cascade repairs, revisit bookkeeping),
//!   - what-if evaluation of a candidate update for the VOI ranking, and
//!   - the *suggestion delta* the VOI ranker syncs from: for each cell whose
//!     suggestion changed since the last sync, the suggestion it held then
//!     (`RepairState::take_suggestion_delta`).  A cell that changes and
//!     changes back nets to nothing, so the delta is bounded by the cells
//!     touched, not by the answers given.  It is a cache of the ranker's
//!     view and is not checkpointed: a decoded state starts with an empty
//!     delta, and a fresh ranker builds its index from `PossibleUpdates`,
//! * [`heuristic`] — the fully automatic `BatchRepair`-style baseline used as
//!   the *Automatic-Heuristic* comparison point in the paper's Figure 4.
//!
//! ## The refresh pipeline: write → affected cells → regeneration
//!
//! Step 9 of the GDR process re-derives the `PossibleUpdates` list after
//! every batch of feedback.  Done naively that is a walk over every dirty
//! tuple × attribute with an O(n) candidate scan per cell; here the whole
//! pipeline is *write-driven* and index-backed so its cost is proportional
//! to the damage of the answers, not to the table:
//!
//! 1. **Write.**  Every real cell write flows through
//!    `RepairState::note_cell_change`, which propagates the write into a
//!    pool of incrementally-maintained agreement indices (one
//!    [`gdr_relation::AttrSetIndex`] per distinct `attrs(φ) − {B}` subset of
//!    the rule set) and fans the write out into the set of **affected
//!    cells**: the written tuple's own cells, the cells of tuples sharing
//!    (before or after the write) one of its variable-rule agreement groups
//!    — their violation status may have flipped — and, per rule and LHS
//!    attribute `B`, the `B`-cells of tuples agreeing with it on
//!    `attrs(φ) − {B}` — their `getValueForLHS` candidate pools drew on the
//!    written value.  Prevented/unchangeable marks queue their own cell.
//! 2. **Affected cells.**  The union of those cells accumulates in a revisit
//!    queue that the suggestion delta never touches and that is drained by
//!    `RepairState::refresh_updates`.
//! 3. **Regeneration.**  Each queued cell is revisited exactly once: a
//!    still-valid suggestion is kept untouched, a vacuous/forbidden/
//!    clean-tupled one is dropped, and Algorithm 1 reruns where a suggestion
//!    is missing — itself index-backed, so regeneration probes agreement
//!    groups instead of scanning the table.
//!
//! `UpdateAttributeTuple` is a deterministic function of the database, the
//! violation engine, and the per-cell flags, so cells outside the affected
//! set would regenerate to their current state; skipping them cannot change
//! the outcome.  `RepairState::refresh_updates_full` keeps the
//! pre-incremental full walk as the oracle, and `tests/proptest_refresh.rs`
//! pins the two paths to the bit-identical `PossibleUpdates` map under
//! random feedback/forced-value/novel-value interleavings.
//!
//! ```
//! use gdr_relation::{Schema, Table, Value};
//! use gdr_cfd::{parser, RuleSet};
//! use gdr_repair::{Feedback, RepairState};
//!
//! let schema = Schema::new(&["CT", "ZIP"]);
//! let mut table = Table::new("addr", schema.clone());
//! table.push_text_row(&["Michigan Cty", "46360"]).unwrap();
//! let rules = RuleSet::new(
//!     parser::parse_rules(&schema, "ZIP -> CT : 46360 || Michigan City").unwrap());
//!
//! let mut state = RepairState::new(table, &rules);
//! let update = state.possible_updates().next().unwrap().clone();
//! assert_eq!(update.value, Value::from("Michigan City"));
//! state.apply_feedback(&update, Feedback::Confirm).unwrap();
//! assert!(state.dirty_tuples().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consistency;
pub mod generation;
pub mod heuristic;
mod index_pool;
pub mod similarity;
pub mod state;
pub mod update;

pub use heuristic::{run_heuristic_repair, HeuristicConfig, HeuristicReport};
pub use similarity::{edit_distance, string_similarity, value_similarity};
pub use state::{FeedbackOutcome, RepairState};
pub use update::{Cell, Feedback, Update};

/// Result alias re-using the CFD error type (repairs are driven by rules).
pub type Result<T> = std::result::Result<T, gdr_cfd::CfdError>;
