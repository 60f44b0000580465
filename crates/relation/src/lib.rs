//! # gdr-relation — in-memory relational substrate (interned, columnar)
//!
//! The GDR paper ("Guided Data Repair", Yakout et al., PVLDB 2011) stores its
//! records in MySQL and queries them through JDBC.  This crate is the Rust
//! replacement for that substrate: a small, dependency-free, in-memory
//! relational layer purpose-built for constraint-based data repair.
//!
//! ## Storage model: per-attribute interning + columnar ids
//!
//! GDR's interactive loop regenerates violations, candidate updates, and VOI
//! rankings after every user answer, so cell reads and equality tests are the
//! latency floor of the whole system.  A [`Table`] therefore stores, per
//! attribute:
//!
//! * a [`ValueInterner`] **dictionary** mapping each distinct [`Value`] to a
//!   dense [`ValueId`] (`u32`) and back,
//! * a columnar `Vec<ValueId>` with one id per row, and
//! * a per-id **occurrence count**, making [`Table::count_value`] O(1)
//!   instead of O(rows).
//!
//! Hot paths (violation-engine group keys, agreement tests, what-if
//! evaluation, learning features) work entirely in id space: integer
//! comparison and hashing, no string hashing, no clone-on-read.  [`Value`]
//! remains the public boundary type — CSV I/O, rule constants, candidate
//! updates, and display all speak values, which are interned exactly once at
//! the boundary.
//!
//! ### Invariants
//!
//! 1. Dictionaries are **append-only**: ids are never re-numbered, so an id
//!    captured by a downstream structure (violation group, prevented list,
//!    feature vector) stays valid and keeps its meaning for the table's
//!    lifetime.  A dictionary entry whose occurrence count drops to zero
//!    merely leaves the active domain.
//! 2. Within one attribute, `id == id' ⟺ value == value'` (strict [`Value`]
//!    equality: `Int(46360) ≠ Str("46360")`).  Ids from different attributes
//!    are incomparable.
//! 3. [`Table::dict_generation`] moves only when a *new distinct value*
//!    enters some column — the re-resolution signal for caches binding
//!    external constants to ids.  Structures derived from the rows
//!    (violation groups, agreement indices) are kept current by the owner
//!    that routes each write.  Every tuple weighs 1: the paper's optional
//!    per-tuple weight is not modelled.
//! 4. Rows are append-only and addressed by a stable [`TupleId`]; reads go
//!    through the `Copy`able [`TupleRef`] view, whose id-level accessors
//!    ([`TupleRef::value_id`], [`TupleRef::project_key`],
//!    [`TupleRef::agrees_with`]) never materialise a [`Value`].
//!
//! ## Module map
//!
//! * [`Value`] — a dynamically typed cell value (`Null`, `Int`, `Str`),
//! * [`intern`] — [`ValueId`], [`ValueInterner`], and the inline
//!   [`SmallKey`] used for agreement-group keys,
//! * [`Schema`] / [`Attribute`] — a named, ordered attribute list,
//! * [`Tuple`] / [`TupleRef`] / [`Row`] — owned rows (construction) and
//!   borrowed row views (reads),
//! * [`Table`] — schema + interned columns with cell-level read/write access,
//! * [`index`] — the [`AttrSetIndex`] agreement index, grouping tuples by
//!   their id projection on an attribute set,
//! * [`codec`] — the versioned, checksummed state codec every layer uses to
//!   serialise canonical state for checkpointed recovery: one [`State`]
//!   trait, implemented per record by [`state_record!`] and per tagged enum
//!   by [`state_enum!`], so each layout is stated once and the decoder's
//!   allocation bound is derived from it,
//! * [`csv`] — a minimal CSV reader/writer.
//!
//! ```
//! use gdr_relation::{Schema, Table, Value};
//!
//! let schema = Schema::new(&["Name", "City", "Zip"]);
//! let mut table = Table::new("customer", schema);
//! let t0 = table.push_row(vec![
//!     Value::from("Alice"),
//!     Value::from("Michigan City"),
//!     Value::from("46360"),
//! ]).unwrap();
//! let t1 = table.push_row(vec![
//!     Value::from("Bob"),
//!     Value::from("Michigan City"),
//!     Value::from("46391"),
//! ]).unwrap();
//! assert_eq!(table.cell(t0, 1).as_str(), Some("Michigan City"));
//! // Equal values share an interned id within a column:
//! assert_eq!(table.cell_id(t0, 1), table.cell_id(t1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod csv;
pub mod error;
pub mod index;
pub mod intern;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;

pub use codec::{CodecError, Dec, Enc, State};
pub use error::RelationError;
pub use index::AttrSetIndex;
pub use intern::{SmallKey, ValueId, ValueInterner};
pub use schema::{AttrId, Attribute, Schema};
pub use table::{Table, TupleId};
pub use tuple::{Row, Tuple, TupleRef};
pub use value::Value;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationError>;
