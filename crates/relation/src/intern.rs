//! Per-attribute value interning.
//!
//! Data-repair workloads read the same categorical values (cities, zip
//! codes, hospital names, ...) millions of times: every violation check,
//! group key, candidate comparison, and feature vector used to clone or
//! re-hash an owned [`Value`].  Interning replaces those with [`ValueId`]s —
//! dense `u32` indices into a per-attribute dictionary — so the hot paths
//! compare and hash plain integers while [`Value`] remains the public
//! boundary type for CSV I/O, rule specification, and display.
//!
//! # Invariants
//!
//! * **Append-only**: a dictionary never removes or re-numbers entries, so a
//!   `ValueId` obtained once stays valid (and means the same [`Value`]) for
//!   the life of the owning [`crate::Table`].  A dictionary may therefore
//!   contain values that no longer occur in the column; occurrence counts
//!   are tracked separately by the table.
//! * **Bijective per attribute**: within one dictionary, `intern` returns
//!   equal ids for equal values and distinct ids for distinct values —
//!   `id == id'  ⟺  value == value'`.  Ids from *different* attributes are
//!   not comparable; callers key composite structures by `(attr, id)` or use
//!   per-attribute containers.
//! * **Generation counter**: every insertion of a *new* distinct value bumps
//!   a generation counter ([`ValueInterner::generation`]).  Caches that
//!   resolve external constants (e.g. CFD pattern constants) to ids can
//!   re-resolve only when the generation moves, keeping re-hashing of
//!   strings off steady-state hot paths.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::codec::{self, CodecError, Dec, Enc, State};
use crate::value::Value;

/// Dense index of a distinct [`Value`] within one attribute's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// Builds an id from a dictionary slot index.
    #[inline]
    pub fn from_index(index: usize) -> ValueId {
        ValueId(u32::try_from(index).expect("dictionary exceeds u32::MAX distinct values"))
    }

    /// The dictionary slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32`, for use as an opaque symbol (e.g. learning features).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only dictionary mapping distinct [`Value`]s of one attribute to
/// dense [`ValueId`]s and back.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    by_value: HashMap<Value, ValueId>,
    values: Vec<Value>,
    generation: u64,
}

impl ValueInterner {
    /// Creates an empty dictionary.
    pub fn new() -> ValueInterner {
        ValueInterner::default()
    }

    /// Interns a value, returning its id (allocating a new slot for a value
    /// not seen before).  This is the only operation that hashes a [`Value`];
    /// everything downstream works on the returned id.
    pub fn intern(&mut self, value: Value) -> ValueId {
        if let Some(&id) = self.by_value.get(&value) {
            return id;
        }
        let id = ValueId::from_index(self.values.len());
        self.values.push(value.clone());
        self.by_value.insert(value, id);
        self.generation += 1;
        id
    }

    /// Interns by reference, cloning only when the value is new.
    pub fn intern_ref(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.by_value.get(value) {
            return id;
        }
        self.intern(value.clone())
    }

    /// Looks up the id of a value without inserting.
    #[inline]
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.by_value.get(value).copied()
    }

    /// Decodes an id back to its value.
    ///
    /// # Panics
    /// Panics when the id did not come from this dictionary.
    #[inline]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of distinct values interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All distinct values, in first-interned order (ids are indices).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Monotone counter bumped whenever a *new* distinct value is interned.
    /// Constant-resolution caches compare this to decide when to re-resolve.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

crate::state_record! { ValueId { 0 } }

/// The dictionary: the distinct values in id order.  The reverse map and
/// the generation counter are derivable (the dictionary is append-only, so
/// `generation == values.len()` invariantly); decoding re-interns each value
/// in order, which reproduces ids, the reverse map, and the generation
/// bit-identically.
impl State for ValueInterner {
    const MIN_BYTES: usize = codec::section_bytes("dict", 1) + Vec::<Value>::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("dict", 1);
        enc.put(&self.values);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<ValueInterner> {
        dec.section("dict", 1)?;
        let values: Vec<Value> = dec.get()?;
        let n = values.len();
        let mut interner = ValueInterner::new();
        for value in values {
            interner.intern(value);
        }
        if interner.len() != n {
            return Err(CodecError::new(
                "dictionary payload contains duplicate values",
            ));
        }
        Ok(interner)
    }
}

/// Number of [`ValueId`]s a [`SmallKey`] stores without heap allocation.
pub const SMALL_KEY_INLINE: usize = 4;

/// An inline small-vector of [`ValueId`]s used as a hash-map key.
///
/// CFD left-hand sides are almost always 1–4 attributes, so agreement-group
/// keys fit inline; longer keys spill to a `Vec`.  Equality and hashing are
/// over the logical id slice only, so an inline key and a spilled key with
/// the same ids compare equal.
#[derive(Debug, Clone)]
pub enum SmallKey {
    /// Up to [`SMALL_KEY_INLINE`] ids stored inline (no allocation).
    Inline {
        /// Number of ids in use.
        len: u8,
        /// Storage; slots at `len..` are padding.
        ids: [ValueId; SMALL_KEY_INLINE],
    },
    /// More than [`SMALL_KEY_INLINE`] ids, heap-allocated.
    Spilled(Vec<ValueId>),
}

impl SmallKey {
    /// Builds a key from a slice of ids.
    pub fn from_slice(ids: &[ValueId]) -> SmallKey {
        if ids.len() <= SMALL_KEY_INLINE {
            let mut storage = [ValueId::from_index(0); SMALL_KEY_INLINE];
            storage[..ids.len()].copy_from_slice(ids);
            SmallKey::Inline {
                len: ids.len() as u8,
                ids: storage,
            }
        } else {
            SmallKey::Spilled(ids.to_vec())
        }
    }

    /// Collects a key from an iterator of ids without intermediate
    /// allocation for keys that fit inline.
    pub fn collect(ids: impl Iterator<Item = ValueId>) -> SmallKey {
        let mut storage = [ValueId::from_index(0); SMALL_KEY_INLINE];
        let mut len = 0usize;
        let mut spill: Option<Vec<ValueId>> = None;
        for id in ids {
            match &mut spill {
                Some(vec) => vec.push(id),
                None => {
                    if len < SMALL_KEY_INLINE {
                        storage[len] = id;
                        len += 1;
                    } else {
                        let mut vec = Vec::with_capacity(len + 4);
                        vec.extend_from_slice(&storage[..len]);
                        vec.push(id);
                        spill = Some(vec);
                    }
                }
            }
        }
        match spill {
            Some(vec) => SmallKey::Spilled(vec),
            None => SmallKey::Inline {
                len: len as u8,
                ids: storage,
            },
        }
    }

    /// The logical id slice.
    #[inline]
    pub fn as_slice(&self) -> &[ValueId] {
        match self {
            SmallKey::Inline { len, ids } => &ids[..*len as usize],
            SmallKey::Spilled(vec) => vec,
        }
    }

    /// Number of ids in the key.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` for the empty key.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// The logical id slice, as a `Vec<ValueId>` encodes.  Inline-versus-spilled
/// is a representation detail ([`SmallKey::from_slice`] re-chooses it by
/// length) and is not encoded.
impl State for SmallKey {
    const MIN_BYTES: usize = Vec::<ValueId>::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.seq(self.as_slice());
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<SmallKey> {
        Ok(SmallKey::from_slice(&dec.get::<Vec<ValueId>>()?))
    }
}

impl PartialEq for SmallKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SmallKey {}

impl PartialOrd for SmallKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the logical id slice, like equality.
impl Ord for SmallKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for SmallKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<&[ValueId]> for SmallKey {
    fn from(ids: &[ValueId]) -> Self {
        SmallKey::from_slice(ids)
    }
}

/// Lets hash maps keyed by [`SmallKey`] be probed with a plain `&[ValueId]`
/// slice — e.g. a reused projection scratch buffer — without materialising a
/// key.  Sound because `Eq` and `Hash` are defined over [`SmallKey::as_slice`]
/// already, so the borrowed form hashes and compares identically.
impl std::borrow::Borrow<[ValueId]> for SmallKey {
    fn borrow(&self) -> &[ValueId] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips_all_value_types() {
        let mut dict = ValueInterner::new();
        for value in [
            Value::Null,
            Value::Int(0),
            Value::Int(-7),
            Value::from(""),
            Value::from("Fort Wayne"),
        ] {
            let id = dict.intern(value.clone());
            assert_eq!(dict.value(id), &value);
            assert_eq!(dict.lookup(&value), Some(id));
        }
        assert_eq!(dict.len(), 5);
    }

    #[test]
    fn intern_is_idempotent_and_strict() {
        let mut dict = ValueInterner::new();
        let a = dict.intern(Value::from("46360"));
        let b = dict.intern(Value::from("46360"));
        assert_eq!(a, b);
        // Strict typing: Int(46360) is a different value from Str("46360").
        let c = dict.intern(Value::Int(46360));
        assert_ne!(a, c);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn intern_ref_clones_only_new_values() {
        let mut dict = ValueInterner::new();
        let v = Value::from("x");
        let a = dict.intern_ref(&v);
        let b = dict.intern_ref(&v);
        assert_eq!(a, b);
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn generation_moves_only_on_new_values() {
        let mut dict = ValueInterner::new();
        let g0 = dict.generation();
        dict.intern(Value::from("a"));
        let g1 = dict.generation();
        assert!(g1 > g0);
        dict.intern(Value::from("a"));
        assert_eq!(dict.generation(), g1);
        dict.intern(Value::Null);
        assert!(dict.generation() > g1);
    }

    #[test]
    fn values_keep_first_interned_order() {
        let mut dict = ValueInterner::new();
        dict.intern(Value::from("b"));
        dict.intern(Value::from("a"));
        dict.intern(Value::from("b"));
        assert_eq!(dict.values(), &[Value::from("b"), Value::from("a")]);
    }

    #[test]
    fn small_key_inline_vs_spilled_equality_and_hash() {
        use std::collections::HashSet;
        let ids: Vec<ValueId> = (0..4).map(ValueId::from_index).collect();
        let inline = SmallKey::from_slice(&ids);
        assert!(matches!(inline, SmallKey::Inline { .. }));
        let spilled = SmallKey::Spilled(ids.clone());
        assert_eq!(inline, spilled);

        let mut set = HashSet::new();
        set.insert(inline);
        assert!(set.contains(&spilled));

        let long: Vec<ValueId> = (0..9).map(ValueId::from_index).collect();
        let key = SmallKey::from_slice(&long);
        assert!(matches!(key, SmallKey::Spilled(_)));
        assert_eq!(key.as_slice(), long.as_slice());
        assert_eq!(key.len(), 9);
    }

    #[test]
    fn small_key_collect_matches_from_slice() {
        for n in 0..8 {
            let ids: Vec<ValueId> = (0..n).map(ValueId::from_index).collect();
            let collected = SmallKey::collect(ids.iter().copied());
            assert_eq!(collected, SmallKey::from_slice(&ids));
            assert_eq!(collected.is_empty(), n == 0);
        }
    }

    #[test]
    fn padding_does_not_leak_into_equality() {
        let a = SmallKey::from_slice(&[ValueId::from_index(1)]);
        let b = SmallKey::from_slice(&[ValueId::from_index(1), ValueId::from_index(0)]);
        assert_ne!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn value_id_display_and_raw() {
        let id = ValueId::from_index(3);
        assert_eq!(id.to_string(), "#3");
        assert_eq!(id.raw(), 3);
        assert_eq!(id.index(), 3);
    }
}
