//! The versioned state codec: byte-level primitives shared by every
//! state-bearing layer.
//!
//! A GDR engine is deterministic, so the journal layers above persist it by
//! **replay**.  Replay cost grows with session length, though, and the
//! durable tier wants checkpoints it can load in O(state) instead.  This
//! module is the foundation of those checkpoints: a small, dependency-free
//! binary encoding ([`Enc`]/[`Dec`]) that every crate in the stack uses to
//! serialise its *canonical* state (dictionaries, columns, violation
//! statistics, forests, repair journals) while derivable caches are rebuilt
//! on decode.
//!
//! ## Encoding rules
//!
//! * Every integer (`u16`, `u32`, `u64`, `usize`) is an unsigned LEB128
//!   varint: seven bits per byte, least significant group first, the high
//!   bit set on every byte but the last.  `i64` is zigzag-mapped first
//!   (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so small magnitudes of either
//!   sign stay short.  Tuple ids, attribute ids, lengths, value ids and
//!   generation stamps are small, so most take one byte.
//! * Varints are **canonical**: [`Dec`] rejects an overlong encoding (a
//!   final `0x00` byte after the first, e.g. `[0x80, 0x00]` for 0), a
//!   tenth byte above 1 or an eleventh byte (more than 64 bits), a value
//!   that overflows the field's width, and a varint cut short by the end
//!   of the payload — each a [`CodecError`].  So every payload that
//!   decodes re-encodes to exactly its own bytes, which the checkpoint
//!   layers check.
//! * `f64` travels as its raw [`f64::to_bits`] in 8 little-endian bytes,
//!   so restored floats are **bit-identical** (NaN payloads and signed
//!   zeros included).  `u8` and `bool` are one byte.
//! * Strings are length-prefixed.
//! * Every struct opens a *section*: an ASCII tag plus a `u16` version
//!   ([`Enc::section`] / [`Dec::section`]).  Decoders reject unknown tags
//!   and any version but the one they write with a typed [`CodecError`]
//!   instead of misinterpreting bytes.
//! * Hash maps and sets are encoded in **sorted key order** (behaviour never
//!   depends on map iteration order — replay equivalence across processes
//!   already proves that) and rebuilt into fresh maps on decode.
//! * Collection lengths are validated against the remaining payload
//!   ([`Dec::seq_len`]) before any allocation, so a corrupt length cannot
//!   balloon memory — it fails the decode, and recovery falls back to
//!   replay.  The fewest bytes one element can take is its type's
//!   [`State::MIN_BYTES`], derived from the type's fields, so no caller
//!   works it out by hand.
//! * A [`Box`] nests one level deeper, and past [`MAX_NESTING`] levels the
//!   decode fails, so a corrupt recursive value cannot exhaust the stack.
//!
//! ## One declaration per layout
//!
//! Every encoded type implements [`State`]: how it encodes, how it
//! decodes, and the fewest bytes it takes.  The integers, `f64`, `bool`,
//! `String`, [`Value`], tuples, fixed arrays, `Option`, `Box`, `Vec` and the
//! maps and sets implement it here.  A struct states its encoded fields once
//! with [`state_record!`](crate::state_record), optionally behind a section
//! header and with a check on the decoded value; an enum states each
//! variant's tag once with [`state_enum!`](crate::state_enum).  A type
//! whose decoder needs context (a row count, a rule set) keeps a
//! hand-written decoder, but its fields still decode through [`Dec::get`].
//! [`encode_to_vec`] and [`decode_exact`] turn one value into a payload and
//! back.
//!
//! ## `S2` framing
//!
//! Every durable record — a journal event, a session spec, a checkpoint —
//! is framed as `S2 <len> <fnv64-hex> ` followed by exactly `len` payload
//! bytes.  [`frame`] writes a frame; [`read_frame`] validates the frame at
//! the start of a byte stream and returns its payload plus the bytes it
//! spans, so a reader walks a stream of concatenated frames and stops at
//! the first torn or corrupt one.  [`unframe`] reads a buffer that must
//! hold exactly one frame.  A checksum mismatch, a short buffer, or a
//! length claiming more bytes than follow is a [`CodecError`], never a
//! panic and never an allocation.
//!
//! The magic names the payload encoding.  `S1` payloads wrote every
//! integer at a fixed width; `S2` payloads write varints.  There is no
//! compatibility decoder: [`read_frame`] refuses an `S1` frame with an
//! error naming both magics, so a file of the old format fails its load
//! instead of being misread.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

use crate::value::Value;

/// Magic token opening every frame: `S2`, varint integers (see the
/// [module docs](self)).
pub const FRAME_MAGIC: &str = "S2";

/// 64-bit FNV-1a over a byte slice — the workspace's standard integrity
/// hash (frame checksums, session digests, store sharding).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A decode failure: truncated payload, bad checksum, unknown section,
/// unsupported version, or an out-of-range value.  Always an error, never a
/// panic — the recovery layers degrade to journal replay on any of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to decode.
    pub detail: String,
}

impl CodecError {
    /// A new error with the given detail.
    pub fn new(detail: impl Into<String>) -> CodecError {
        CodecError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state codec: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Convenience result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// The byte-oriented encoder.  Infallible: encoding canonical state cannot
/// fail, only decoding foreign bytes can.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Consumes the encoder, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Opens a versioned section: tag + version, checked by
    /// [`Dec::section`] on the way back in.
    pub fn section(&mut self, tag: &str, version: u16) {
        self.str(tag);
        self.u16(version);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// An unsigned LEB128 varint: the low seven bits per byte, the high
    /// bit set on every byte but the last.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A `u16` as a varint.
    pub(crate) fn u16(&mut self, v: u16) {
        self.varint(v.into());
    }

    /// A `u32` as a varint.
    pub(crate) fn u32(&mut self, v: u32) {
        self.varint(v.into());
    }

    /// A `u64` as a varint.
    pub fn u64(&mut self, v: u64) {
        self.varint(v);
    }

    /// A `usize`, widened to `u64` for a platform-independent encoding.
    pub fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    /// An `i64` as the varint of its zigzag mapping.
    pub(crate) fn i64(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// An `f64` as its raw bits, 8 little-endian bytes — restored values
    /// are bit-identical.
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A boolean as one byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// A cell [`Value`] (tag + payload).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(2);
                self.str(s);
            }
        }
    }

    /// Any [`State`] value.
    pub fn put<T: State>(&mut self, v: &T) {
        v.encode_state(self);
    }

    /// A slice as a [`Vec`] of its elements encodes: a length, then each
    /// element.
    pub(crate) fn seq<T: State>(&mut self, items: &[T]) {
        self.usize(items.len());
        self.fixed(items);
    }

    /// Each element back to back, with no length prefix: for a run whose
    /// length the reader knows from context ([`Dec::fixed`]).
    pub fn fixed<T: State>(&mut self, items: &[T]) {
        for item in items {
            item.encode_state(self);
        }
    }
}

/// The byte-oriented decoder over a borrowed payload.  Every read is
/// bounds-checked and returns a [`CodecError`] on malformed input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// [`Box`] nesting of the value being decoded, against
    /// [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over the full payload.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after the last section",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "truncated payload: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Opens a section: checks the tag and that the version is exactly
    /// `version`.  Formats carry no compatibility decoders, so any other
    /// version — older or newer — is an error naming the section and both
    /// versions.
    pub fn section(&mut self, tag: &str, version: u16) -> Result<()> {
        let got = self.str()?;
        if got != tag {
            return Err(CodecError::new(format!(
                "expected section `{tag}`, found `{got}`"
            )));
        }
        let found = self.u16()?;
        if found != version {
            return Err(CodecError::new(format!(
                "section `{tag}` has version {found}, this build reads version {version}"
            )));
        }
        Ok(())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A canonical unsigned LEB128 varint of at most 64 bits.
    fn varint(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(CodecError::new(format!(
                    "truncated varint at offset {start}: the payload ends after {} bytes",
                    self.pos - start
                )));
            };
            self.pos += 1;
            // The tenth byte holds bit 63 alone; anything more overflows.
            if shift == 63 && byte > 1 {
                return Err(CodecError::new(format!(
                    "varint at offset {start} overflows 64 bits"
                )));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError::new(format!(
                        "overlong varint at offset {start}"
                    )));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint that must fit `T` (a `u16`, `u32` or `usize`).
    fn varint_as<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T> {
        let start = self.pos;
        let value = self.varint()?;
        T::try_from(value).map_err(|_| {
            CodecError::new(format!(
                "varint {value} at offset {start} does not fit a {what}"
            ))
        })
    }

    /// A `u16` varint.
    pub fn u16(&mut self) -> Result<u16> {
        self.varint_as("u16")
    }

    /// A `u32` varint.
    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.varint_as("u32")
    }

    /// A `u64` varint.
    pub fn u64(&mut self) -> Result<u64> {
        self.varint()
    }

    /// A `usize` varint (fails if it does not fit this platform).
    pub fn usize(&mut self) -> Result<usize> {
        self.varint_as("usize on this platform")
    }

    /// A zigzag-mapped `i64` varint.
    pub(crate) fn i64(&mut self) -> Result<i64> {
        let zigzag = self.varint()?;
        Ok((zigzag >> 1) as i64 ^ -((zigzag & 1) as i64))
    }

    /// An `f64` from its 8 raw little-endian bytes.
    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// A boolean (strictly 0 or 1).
    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid boolean byte {other}"))),
        }
    }

    /// A collection length, validated against the remaining payload assuming
    /// at least `min_elem_bytes` per element — a corrupt length fails here
    /// instead of driving a huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        self.check_room(n, min_elem_bytes)?;
        Ok(n)
    }

    /// Fails unless `n` elements of at least `min_elem_bytes` each fit in
    /// the remaining payload.
    fn check_room(&self, n: usize, min_elem_bytes: usize) -> Result<()> {
        match n.checked_mul(min_elem_bytes.max(1)) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(CodecError::new(format!(
                "implausible collection length {n} with {} bytes remaining",
                self.remaining()
            ))),
        }
    }

    /// `n` values written back to back by [`Enc::fixed`]: `n` comes from
    /// context (a row count, a rule count), and is checked against the
    /// remaining payload before anything is allocated.
    pub fn fixed<T: State>(&mut self, n: usize) -> Result<Vec<T>> {
        const { assert!(T::MIN_BYTES >= 1, "every element takes at least one byte") };
        self.check_room(n, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(self.get()?);
        }
        Ok(items)
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::new("string payload is not valid UTF-8"))
    }

    /// A cell [`Value`].
    pub(crate) fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Str(self.str()?)),
            tag => Err(CodecError::new(format!("invalid value tag {tag}"))),
        }
    }

    /// Any [`State`] value.
    pub fn get<T: State>(&mut self) -> Result<T> {
        T::decode_state(self)
    }
}

/// The deepest [`Box`] nesting a decoder accepts.  Real values nest far
/// less (a decision tree is bounded by its `max_depth`, default 12); the
/// limit exists so a corrupt payload cannot recurse the decoder off the
/// stack.
pub const MAX_NESTING: usize = 512;

/// A value with one canonical byte encoding: the state codec's unit.
///
/// [`State::MIN_BYTES`] is the fewest bytes any encoding of the type takes.
/// [`Vec`], the maps and sets, and [`Dec::fixed`] check a claimed length
/// against the remaining payload with it before they allocate, so no byte
/// sequence makes a decoder allocate more than its input.  Implementations
/// for records and tagged enums come from
/// [`state_record!`](crate::state_record) and
/// [`state_enum!`](crate::state_enum), which derive the bound from the
/// fields.
pub trait State: Sized {
    /// The fewest bytes an encoded value of this type takes.
    const MIN_BYTES: usize;

    /// Appends the value's encoding to `enc`.
    fn encode_state(&self, enc: &mut Enc);

    /// Reads one value back, or fails with a typed [`CodecError`].
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self>;
}

/// Bytes of the varint of `v`.
const fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// Bytes of an [`Enc::section`] header.
#[doc(hidden)]
pub const fn section_bytes(tag: &str, version: u16) -> usize {
    varint_len(tag.len() as u64) + tag.len() + varint_len(version as u64)
}

/// `T::MIN_BYTES` of the field a projection reads; lets the macros derive a
/// bound without naming field types.
#[doc(hidden)]
pub const fn field_bytes<S, T: State>(_: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// The smallest entry of `bytes`: the bound of an enum is its tag plus its
/// cheapest variant.
#[doc(hidden)]
pub const fn min_of(bytes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] < min {
            min = bytes[i];
        }
        i += 1;
    }
    min
}

macro_rules! scalar_state {
    ($($ty:ident),+) => {$(
        impl State for $ty {
            const MIN_BYTES: usize = 1;
            fn encode_state(&self, enc: &mut Enc) {
                enc.$ty(*self);
            }
            fn decode_state(dec: &mut Dec<'_>) -> Result<$ty> {
                dec.$ty()
            }
        }
    )+};
}

scalar_state!(u8, u16, u32, u64, usize, i64, bool);

impl State for f64 {
    const MIN_BYTES: usize = 8;
    fn encode_state(&self, enc: &mut Enc) {
        enc.f64(*self);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<f64> {
        dec.f64()
    }
}

impl State for String {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<String> {
        dec.str()
    }
}

impl State for Value {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        enc.value(self);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Value> {
        dec.value()
    }
}

macro_rules! tuple_state {
    ($(($($name:ident . $index:tt),+))+) => {$(
        impl<$($name: State),+> State for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            fn encode_state(&self, enc: &mut Enc) {
                $(self.$index.encode_state(enc);)+
            }
            fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
                Ok(($($name::decode_state(dec)?,)+))
            }
        }
    )+};
}

tuple_state! {
    (A.0, B.1)
    (A.0, B.1, C.2)
}

/// A fixed-length array: its elements back to back, no length prefix.
impl<T: State, const N: usize> State for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn encode_state(&self, enc: &mut Enc) {
        enc.fixed(self);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        let items: Vec<T> = dec.fixed(N)?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N items")))
    }
}

/// A presence byte, then the value if present.
impl<T: State> State for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        enc.bool(self.is_some());
        if let Some(inner) = self {
            inner.encode_state(enc);
        }
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        if dec.bool()? {
            Ok(Some(dec.get()?))
        } else {
            Ok(None)
        }
    }
}

/// The boxed value itself.  Decoding one nests a level deeper, and past
/// [`MAX_NESTING`] levels it fails; the bound is one byte rather than the
/// inner type's, so recursive types can state theirs.
impl<T: State> State for Box<T> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        (**self).encode_state(enc);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        const { assert!(T::MIN_BYTES >= 1, "a boxed value takes at least one byte") };
        if dec.depth == MAX_NESTING {
            return Err(CodecError::new(format!(
                "nesting exceeds the decoder's limit of {MAX_NESTING} levels"
            )));
        }
        dec.depth += 1;
        let value = dec.get();
        dec.depth -= 1;
        value.map(Box::new)
    }
}

/// A length, then each element.
impl<T: State> State for Vec<T> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        enc.seq(self);
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        let n = dec.usize()?;
        dec.fixed(n)
    }
}

/// Encodes `entries` as a sequence in ascending key order.
fn encode_sorted<'a, K: State + Ord + 'a, V: State + 'a>(
    enc: &mut Enc,
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) {
    enc.usize(entries.len());
    let mut sorted: Vec<(&K, &V)> = entries.collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (key, value) in sorted {
        key.encode_state(enc);
        value.encode_state(enc);
    }
}

/// Decodes a sequence of `(K, V)` entries into a fresh collection through
/// `insert`, which reports whether the key was new; a repeated key fails.
fn decode_entries<K: State, V: State, C>(
    dec: &mut Dec<'_>,
    with_capacity: impl FnOnce(usize) -> C,
    mut insert: impl FnMut(&mut C, K, V) -> bool,
) -> Result<C> {
    const {
        assert!(
            <(K, V)>::MIN_BYTES >= 1,
            "every entry takes at least one byte"
        )
    };
    let n = dec.seq_len(<(K, V)>::MIN_BYTES)?;
    let mut collection = with_capacity(n);
    for _ in 0..n {
        let (key, value) = dec.get()?;
        if !insert(&mut collection, key, value) {
            return Err(CodecError::new("payload repeats a key"));
        }
    }
    Ok(collection)
}

/// A map, in ascending key order.
impl<K: State + Ord + Hash, V: State> State for HashMap<K, V> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        encode_sorted(enc, self.iter());
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        decode_entries(dec, HashMap::with_capacity, |map, k, v| {
            map.insert(k, v).is_none()
        })
    }
}

/// A set, in ascending order.
impl<T: State + Ord + Hash> State for HashSet<T> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        encode_sorted(enc, self.iter().map(|item| (item, &())));
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        decode_entries(dec, HashSet::with_capacity, |set, item, ()| {
            set.insert(item)
        })
    }
}

/// A set, in ascending order.
impl<T: State + Ord> State for BTreeSet<T> {
    const MIN_BYTES: usize = 1;
    fn encode_state(&self, enc: &mut Enc) {
        encode_sorted(enc, self.iter().map(|item| (item, &())));
    }
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self> {
        decode_entries(dec, |_| BTreeSet::new(), |set, item, ()| set.insert(item))
    }
}

/// The unit value: no bytes.  It fills the value slot of a set's entries.
impl State for () {
    const MIN_BYTES: usize = 0;
    fn encode_state(&self, _: &mut Enc) {}
    fn decode_state(_: &mut Dec<'_>) -> Result<()> {
        Ok(())
    }
}

/// `value`'s encoding on its own.
pub fn encode_to_vec<T: State>(value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    value.encode_state(&mut enc);
    enc.into_bytes()
}

/// Decodes one `T` that spans `payload` exactly.
pub fn decode_exact<T: State>(payload: &[u8]) -> Result<T> {
    let mut dec = Dec::new(payload);
    let value = dec.get()?;
    dec.finish()?;
    Ok(value)
}

/// Implements [`State`] for a struct by stating its encoded fields once, in
/// encoding order, optionally behind a versioned section header:
///
/// ```text
/// state_record! { "tree" 1 => DecisionTree { label_count, root } }
/// state_record! { TreeConfig { max_depth, min_samples_split, features_per_split } }
/// ```
///
/// Each field encodes and decodes through its own [`State`] impl, and the
/// struct's [`State::MIN_BYTES`] is the header's plus the fields'.  A field
/// may be a tuple index (`ValueId { 0 }`).  A trailing `..Default` fills
/// the fields left out (derivable caches) from the struct's `Default`, and
/// a trailing `check path` names a `fn(&Self) -> codec::Result<()>` run on
/// every decoded value.
#[macro_export]
macro_rules! state_record {
    ($($tag:literal $version:literal =>)? $ty:ident { $($field:tt),* $(,)? }
     $(.. $default:ident)? $(check $check:path)?) => {
        impl $crate::codec::State for $ty {
            const MIN_BYTES: usize = 0
                $(+ $crate::codec::section_bytes($tag, $version))?
                $(+ $crate::codec::field_bytes(|s: &$ty| &s.$field))*;

            fn encode_state(&self, enc: &mut $crate::codec::Enc) {
                $(enc.section($tag, $version);)?
                $(enc.put(&self.$field);)*
            }

            fn decode_state(dec: &mut $crate::codec::Dec<'_>) -> $crate::codec::Result<$ty> {
                $(dec.section($tag, $version)?;)?
                let value = $ty {
                    $($field: dec.get()?,)*
                    $(..$default::default())?
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`State`] for an enum by stating each variant's one-byte tag
/// and its encoded fields once:
///
/// ```text
/// state_enum! { Resolution, "resolution" {
///     0 => Answer { cell, feedback },
///     1 => Supply { cell, value },
///     2 => Skip { cell },
/// } }
/// ```
///
/// A unit variant lists no fields; a tuple variant lists its indices
/// (`Categorical { 0 }`).  An unknown tag fails as
/// ``invalid <what> tag <tag>``.  The enum's [`State::MIN_BYTES`] is the tag
/// byte plus its cheapest variant.
#[macro_export]
macro_rules! state_enum {
    ($ty:ident, $what:literal { $($tag:literal => $variant:ident $({ $($field:tt),* $(,)? })?),+ $(,)? }) => {
        impl $crate::codec::State for $ty {
            const MIN_BYTES: usize = 1 + $crate::codec::min_of(&[$(
                0 $($(+ $crate::codec::field_bytes(|s: &$ty| match s {
                    $ty::$variant { $field: x, .. } => x,
                    #[allow(unreachable_patterns)]
                    _ => unreachable!(),
                }))*)?
            ),+]);

            fn encode_state(&self, enc: &mut $crate::codec::Enc) {
                match self {
                    $(this @ $ty::$variant { .. } => {
                        let _ = this;
                        enc.u8($tag);
                        $($(match this {
                            $ty::$variant { $field: x, .. } => enc.put(x),
                            #[allow(unreachable_patterns)]
                            _ => unreachable!(),
                        })*)?
                    })+
                }
            }

            fn decode_state(dec: &mut $crate::codec::Dec<'_>) -> $crate::codec::Result<$ty> {
                match dec.u8()? {
                    $($tag => Ok($ty::$variant { $($($field: dec.get()?),*)? }),)+
                    tag => Err($crate::codec::CodecError::new(format!(
                        concat!("invalid ", $what, " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

/// Frames `payload` as `S2 <len> <fnv64-hex> ` + payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let header = format!("{FRAME_MAGIC} {} {:016x} ", payload.len(), fnv1a64(payload));
    let mut framed = Vec::with_capacity(header.len() + payload.len());
    framed.extend_from_slice(header.as_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Longest header field the writer emits: a `u64` length in decimal.
const MAX_HEADER_FIELD: usize = 20;

/// Validates the frame at the start of `bytes` and returns its payload and
/// the number of bytes the frame spans; bytes after it are left alone.
/// Only the canonical header the writer emits is accepted (decimal length
/// without leading zeros, 16 lowercase hex digits), so every single-bit
/// flip in a header is rejected.  Any defect — wrong magic, malformed
/// header, a length claiming more bytes than follow, checksum mismatch —
/// is a [`CodecError`].
pub fn read_frame(bytes: &[u8]) -> Result<(&[u8], usize)> {
    // Header fields are ASCII and space-terminated; the payload is binary
    // and starts right after the third space.
    let mut fields = [""; 3];
    let mut start = 0usize;
    for field in &mut fields {
        let rest = &bytes[start..];
        let space = rest
            .iter()
            .take(MAX_HEADER_FIELD + 1)
            .position(|&b| b == b' ')
            .ok_or_else(|| CodecError::new("frame header is truncated or malformed"))?;
        *field = std::str::from_utf8(&rest[..space])
            .map_err(|_| CodecError::new("frame header is not ASCII"))?;
        start += space + 1;
    }
    let [magic, len_text, sum_text] = fields;
    if magic != FRAME_MAGIC {
        return Err(CodecError::new(format!(
            "bad frame magic `{}`: this build reads `{FRAME_MAGIC}` frames only",
            magic.escape_default()
        )));
    }
    let len = len_text
        .parse::<usize>()
        .ok()
        .filter(|len| len.to_string() == len_text)
        .ok_or_else(|| CodecError::new(format!("bad frame length field `{len_text}`")))?;
    let checksum = u64::from_str_radix(sum_text, 16)
        .ok()
        .filter(|sum| format!("{sum:016x}") == sum_text)
        .ok_or_else(|| CodecError::new(format!("bad frame checksum field `{sum_text}`")))?;
    let available = bytes.len() - start;
    if len > available {
        return Err(CodecError::new(format!(
            "frame declares {len} payload bytes, {available} follow"
        )));
    }
    let payload = &bytes[start..start + len];
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(CodecError::new(format!(
            "frame checksum mismatch: header says {checksum:016x}, payload hashes to \
             {actual:016x}"
        )));
    }
    Ok((payload, start + len))
}

/// [`read_frame`] for a buffer that must hold exactly one frame (a
/// checkpoint file): trailing bytes are an error.
pub fn unframe(bytes: &[u8]) -> Result<&[u8]> {
    let (payload, used) = read_frame(bytes)?;
    if used != bytes.len() {
        return Err(CodecError::new(format!(
            "{} bytes after the frame",
            bytes.len() - used
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Enc::new();
        enc.section("test", 3);
        enc.u8(7);
        enc.u16(300);
        enc.u32(70_000);
        enc.u64(u64::MAX);
        enc.usize(12);
        enc.i64(-5);
        enc.f64(-0.0);
        enc.f64(f64::NAN);
        enc.bool(true);
        enc.str("héllo");
        enc.value(&Value::Null);
        enc.value(&Value::Int(-9));
        enc.value(&Value::Str("x".into()));
        enc.put(&Some(42u64));
        enc.put(&None::<u64>);
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        dec.section("test", 3).unwrap();
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 300);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.usize().unwrap(), 12);
        assert_eq!(dec.i64().unwrap(), -5);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.f64().unwrap().is_nan());
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.value().unwrap(), Value::Null);
        assert_eq!(dec.value().unwrap(), Value::Int(-9));
        assert_eq!(dec.value().unwrap(), Value::Str("x".into()));
        assert_eq!(dec.get::<Option<u64>>().unwrap(), Some(42));
        assert_eq!(dec.get::<Option<u64>>().unwrap(), None);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut enc = Enc::new();
        enc.str("hello world");
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            assert!(dec.str().is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn implausible_lengths_are_rejected_before_allocation() {
        let mut enc = Enc::new();
        enc.usize(usize::MAX / 2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.seq_len(1).is_err());
        let mut dec = Dec::new(&bytes);
        assert!(dec.str().is_err());
    }

    #[test]
    fn section_mismatches_are_typed_errors() {
        let mut enc = Enc::new();
        enc.section("alpha", 2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.section("beta", 2).is_err());
        for other in [1, 3] {
            let mut dec = Dec::new(&bytes);
            let err = dec.section("alpha", other).unwrap_err();
            assert!(err.detail.contains("`alpha`"), "{err:?}");
            assert!(err
                .detail
                .contains(&format!("version 2, this build reads version {other}")));
        }
        let mut dec = Dec::new(&bytes);
        dec.section("alpha", 2).unwrap();
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut dec = Dec::new(&[9]);
        assert!(dec.bool().is_err());
        let mut dec = Dec::new(&[9]);
        assert!(dec.value().is_err());
        let mut dec = Dec::new(&[1]); // value tag Int but no payload
        assert!(dec.value().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut dec = Dec::new(&[0, 1]);
        dec.u8().unwrap();
        assert!(dec.finish().is_err());
        dec.u8().unwrap();
        dec.finish().unwrap();
    }

    #[test]
    fn snapshot_frame_round_trips_binary_payloads() {
        for payload in [
            &b""[..],
            &b"hello"[..],
            &[0u8, 255, 10, 32, 13][..], // newline/space/NUL-ish bytes
        ] {
            let framed = frame(payload);
            assert_eq!(unframe(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn snapshot_frame_rejects_every_single_byte_flip() {
        let framed = frame(b"payload bytes here");
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert!(unframe(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn snapshot_frame_rejects_truncation_and_extension() {
        let framed = frame(b"data");
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "cut {cut}");
        }
        let mut long = framed.clone();
        long.push(b'x');
        assert!(unframe(&long).is_err());
    }

    #[test]
    fn read_frame_walks_concatenated_frames() {
        let payloads: [&[u8]; 3] = [b"first", b"", &[b' ', b'\n', 0, 255]];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        let mut offset = 0;
        for payload in payloads {
            let (read, used) = read_frame(&stream[offset..]).unwrap();
            assert_eq!(read, payload);
            offset += used;
        }
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn read_frame_rejects_lengths_beyond_the_buffer_and_noncanonical_headers() {
        let huge = format!("S2 {} {:016x} abc", usize::MAX, fnv1a64(b"abc"));
        assert!(read_frame(huge.as_bytes()).is_err());
        let overflow = format!("S2 99999999999999999999999 {:016x} abc", fnv1a64(b"abc"));
        assert!(read_frame(overflow.as_bytes()).is_err());
        let padded = format!("S2 03 {:016x} abc", fnv1a64(b"abc"));
        assert!(read_frame(padded.as_bytes()).is_err());
        let upper = format!("S2 3 {:016X} abc", fnv1a64(b"abc"));
        assert!(read_frame(upper.as_bytes()).is_err());
        let good = format!("S2 3 {:016x} abc", fnv1a64(b"abc"));
        assert_eq!(
            read_frame(good.as_bytes()).unwrap(),
            (&b"abc"[..], good.len())
        );
    }

    #[test]
    fn varints_round_trip_at_their_width_boundaries() {
        for (value, width) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut enc = Enc::new();
            enc.u64(value);
            let bytes = enc.into_bytes();
            assert_eq!(bytes.len(), width, "{value}");
            let mut dec = Dec::new(&bytes);
            assert_eq!(dec.u64().unwrap(), value);
            dec.finish().unwrap();
        }
        let mut enc = Enc::new();
        enc.u32(u32::MAX);
        enc.u16(u16::MAX);
        enc.usize(128);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 5 + 3 + 2);
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u32().unwrap(), u32::MAX);
        assert_eq!(dec.u16().unwrap(), u16::MAX);
        assert_eq!(dec.usize().unwrap(), 128);
        dec.finish().unwrap();
    }

    #[test]
    fn i64_zigzags_so_small_magnitudes_stay_short() {
        for (value, width) in [
            (0i64, 1),
            (-1, 1),
            (63, 1),
            (-64, 1),
            (64, 2),
            (i64::MAX, 10),
            (i64::MIN, 10),
        ] {
            let mut enc = Enc::new();
            enc.i64(value);
            let bytes = enc.into_bytes();
            assert_eq!(bytes.len(), width, "{value}");
            assert_eq!(Dec::new(&bytes).i64().unwrap(), value);
        }
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        let cases: [(&[u8], &str); 5] = [
            (&[0x80, 0x00], "overlong"),
            (
                &[0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
                "overlong",
            ),
            (&[0xff; 11], "overflows 64 bits"),
            (
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
                "overflows 64 bits",
            ),
            (&[0x80], "truncated varint"),
        ];
        for (bytes, expected) in cases {
            let err = Dec::new(bytes).u64().unwrap_err();
            assert!(err.detail.contains(expected), "{bytes:?}: {err:?}");
        }
        assert!(Dec::new(&[])
            .u64()
            .unwrap_err()
            .detail
            .contains("truncated"));
        let mut enc = Enc::new();
        enc.u64(u64::from(u32::MAX) + 1);
        enc.u32(u32::from(u16::MAX) + 1);
        let bytes = enc.into_bytes();
        let err = Dec::new(&bytes).u32().unwrap_err();
        assert!(err.detail.contains("does not fit a u32"), "{err:?}");
        let err = Dec::new(&bytes[5..]).u16().unwrap_err();
        assert!(err.detail.contains("does not fit a u16"), "{err:?}");
    }

    #[test]
    fn read_frame_refuses_an_s1_frame_naming_the_magic() {
        let old = format!("S1 3 {:016x} abc", fnv1a64(b"abc"));
        let err = read_frame(old.as_bytes()).unwrap_err();
        assert!(err.detail.contains("`S1`"), "{err:?}");
        assert!(err.detail.contains("`S2`"), "{err:?}");
        assert!(frame(b"abc").starts_with(b"S2 3 "));
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        id: u64,
        weight: f64,
    }

    impl Pair {
        fn check_decoded(&self) -> Result<()> {
            if self.weight.is_nan() {
                return Err(CodecError::new("NaN weight"));
            }
            Ok(())
        }
    }

    crate::state_record! { "pair" 1 => Pair { id, weight } check Pair::check_decoded }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Point(u64),
        Span { from: u64, to: u64 },
    }

    crate::state_enum! { Shape, "shape" {
        2 => Empty,
        4 => Point { 0 },
        7 => Span { from, to },
    } }

    /// A recursive value: each link nests one `Box` deeper.
    #[derive(Debug)]
    struct Chain(Option<Box<Chain>>);

    crate::state_record! { Chain { 0 } }

    #[test]
    fn the_macros_state_each_layout_once_and_derive_its_bound() {
        assert_eq!(<(u64, f64)>::MIN_BYTES, 9);
        assert_eq!(Pair::MIN_BYTES, section_bytes("pair", 1) + 9);
        assert_eq!(Shape::MIN_BYTES, 1, "the tag of the field-less variant");
        let pair = Pair {
            id: 300,
            weight: 0.5,
        };
        let mut expected = Enc::new();
        expected.section("pair", 1);
        expected.u64(300);
        expected.f64(0.5);
        assert_eq!(encode_to_vec(&pair), expected.into_bytes());
        assert_eq!(decode_exact::<Pair>(&encode_to_vec(&pair)).unwrap(), pair);
        let nan = encode_to_vec(&Pair {
            id: 1,
            weight: f64::NAN,
        });
        assert_eq!(decode_exact::<Pair>(&nan).unwrap_err().detail, "NaN weight");

        for (shape, bytes) in [
            (Shape::Empty, vec![2]),
            (Shape::Point(9), vec![4, 9]),
            (Shape::Span { from: 1, to: 128 }, vec![7, 1, 128, 1]),
        ] {
            assert_eq!(encode_to_vec(&shape), bytes);
            assert_eq!(decode_exact::<Shape>(&bytes).unwrap(), shape);
        }
        let err = decode_exact::<Shape>(&[3]).unwrap_err();
        assert_eq!(err.detail, "invalid shape tag 3");
    }

    #[test]
    fn collections_size_their_allocation_by_the_element_bound() {
        // Two f64s need 16 bytes; 15 remain.
        let mut enc = Enc::new();
        enc.usize(2);
        enc.fixed(&[0u8; 15]);
        let err = decode_exact::<Vec<f64>>(&enc.into_bytes()).unwrap_err();
        assert!(
            err.detail.contains("implausible collection length 2"),
            "{err:?}"
        );
        let err = Dec::new(&[0; 7]).fixed::<f64>(1).unwrap_err();
        assert!(err.detail.contains("implausible"), "{err:?}");
        assert_eq!(
            decode_exact::<[u64; 3]>(&encode_to_vec(&[1u64, 200, 3])).unwrap(),
            [1, 200, 3]
        );
    }

    #[test]
    fn maps_and_sets_encode_sorted_and_reject_a_repeated_key() {
        let map: HashMap<u64, String> = (0..50).map(|k| (k * 7 % 50, k.to_string())).collect();
        let bytes = encode_to_vec(&map);
        let mut sorted: Vec<(u64, String)> = map.clone().into_iter().collect();
        sorted.sort();
        assert_eq!(bytes, encode_to_vec(&sorted));
        assert_eq!(decode_exact::<HashMap<u64, String>>(&bytes).unwrap(), map);
        let set: HashSet<u64> = [5, 1, 3].into();
        assert_eq!(encode_to_vec(&set), [3, 1, 3, 5]);
        let repeated = [2, 1, 1];
        for err in [
            decode_exact::<HashSet<u64>>(&repeated).unwrap_err(),
            decode_exact::<BTreeSet<u64>>(&repeated).unwrap_err(),
        ] {
            assert!(err.detail.contains("repeats a key"), "{err:?}");
        }
    }

    #[test]
    fn boxes_nest_only_to_the_limit() {
        let chain = |links: usize| {
            let mut bytes = vec![1; links];
            bytes.push(0);
            bytes
        };
        assert!(decode_exact::<Chain>(&chain(MAX_NESTING)).is_ok());
        let err = decode_exact::<Chain>(&chain(MAX_NESTING + 1)).unwrap_err();
        assert!(err.detail.contains("nesting"), "{err:?}");
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
