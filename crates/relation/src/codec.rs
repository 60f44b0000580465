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
//! * Strings and byte blobs are length-prefixed.
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
//!   replay.  Each caller passes the fewest bytes one element can take:
//!   one per integer, string or [`Value`], eight per `f64`, and
//!   `tag.len() + 2` for a section header with a short tag and a version
//!   below 128.
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

use std::fmt;

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

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
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
    pub fn u16(&mut self, v: u16) {
        self.varint(v.into());
    }

    /// A `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
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
    pub fn i64(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// An `f64` as its raw bits, 8 little-endian bytes — restored values
    /// are bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// A length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
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

    /// An `Option<T>` via a presence byte and a closure for the payload.
    pub fn option<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Enc, &T)) {
        match v {
            Some(inner) => {
                self.bool(true);
                f(self, inner);
            }
            None => self.bool(false),
        }
    }
}

/// The byte-oriented decoder over a borrowed payload.  Every read is
/// bounds-checked and returns a [`CodecError`] on malformed input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over the full payload.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
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
    pub fn u32(&mut self) -> Result<u32> {
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
    pub fn i64(&mut self) -> Result<i64> {
        let zigzag = self.varint()?;
        Ok((zigzag >> 1) as i64 ^ -((zigzag & 1) as i64))
    }

    /// An `f64` from its 8 raw little-endian bytes.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// A boolean (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
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
        let need = n.checked_mul(min_elem_bytes.max(1));
        if need.is_none() || need.unwrap() > self.remaining() {
            return Err(CodecError::new(format!(
                "implausible collection length {n} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::new("string payload is not valid UTF-8"))
    }

    /// A length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.seq_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// A cell [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Str(self.str()?)),
            tag => Err(CodecError::new(format!("invalid value tag {tag}"))),
        }
    }

    /// An `Option<T>` via a presence byte and a closure for the payload.
    pub fn option<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> Result<T>) -> Result<Option<T>> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
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
        enc.bytes(&[1, 2, 3]);
        enc.value(&Value::Null);
        enc.value(&Value::Int(-9));
        enc.value(&Value::Str("x".into()));
        enc.option(Some(&42u64), |e, v| e.u64(*v));
        enc.option::<u64>(None, |e, v| e.u64(*v));
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
        assert_eq!(dec.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.value().unwrap(), Value::Null);
        assert_eq!(dec.value().unwrap(), Value::Int(-9));
        assert_eq!(dec.value().unwrap(), Value::Str("x".into()));
        assert_eq!(dec.option(|d| d.u64()).unwrap(), Some(42));
        assert_eq!(dec.option(|d| d.u64()).unwrap(), None);
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
        let mut dec = Dec::new(&bytes);
        assert!(dec.bytes().is_err());
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

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
