//! Memcomparable encoding of [`Value`]s.
//!
//! Guarantee: for values `a`, `b` of any (possibly different) types,
//! `encode(a).cmp(encode(b)) == a.canonical_cmp(b)` — bytewise comparison
//! of encodings equals BSON canonical comparison. Composite keys written
//! through [`KeyWriter`] preserve this field-by-field, which is exactly
//! the ordering contract a compound index needs.
//!
//! Numeric caveat: all numeric types are compared (and therefore encoded)
//! through `f64`, like MongoDB's cross-type numeric comparison. Integers
//! with magnitude above 2^53 would collide with their neighbours; the
//! store's numeric index keys (Hilbert values ≤ 2^32, coordinates,
//! speeds) are far below that.

use crate::varint::{read_uvarint, write_uvarint};
use sts_document::{DateTime, Document, ObjectId, Value, ValueKind};

/// Sentinel rank that sorts before every encoded value (open lower bound).
pub const RANK_MIN: u8 = 0x00;
/// Sentinel rank that sorts after every encoded value (open upper bound).
pub const RANK_MAX: u8 = 0xFF;

const RANK_NULL: u8 = 0x08;
const RANK_NUMBER: u8 = 0x10;
const RANK_STRING: u8 = 0x18;
const RANK_DOCUMENT: u8 = 0x20;
const RANK_ARRAY: u8 = 0x28;
const RANK_OBJECT_ID: u8 = 0x30;
const RANK_BOOL: u8 = 0x38;
const RANK_DATETIME: u8 = 0x40;

fn rank_byte(kind: ValueKind) -> u8 {
    match kind {
        ValueKind::Null => RANK_NULL,
        ValueKind::Number => RANK_NUMBER,
        ValueKind::String => RANK_STRING,
        ValueKind::Document => RANK_DOCUMENT,
        ValueKind::Array => RANK_ARRAY,
        ValueKind::ObjectId => RANK_OBJECT_ID,
        ValueKind::Bool => RANK_BOOL,
        ValueKind::DateTime => RANK_DATETIME,
    }
}

/// Encode one value, appending to `out`.
pub fn encode_value_into(v: &Value, out: &mut Vec<u8>) {
    out.push(rank_byte(v.kind()));
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::Int32(_) | Value::Int64(_) | Value::Double(_) => {
            let x = v.as_f64().unwrap();
            out.extend_from_slice(&encode_f64(x).to_be_bytes());
        }
        Value::DateTime(d) => {
            out.extend_from_slice(&flip_i64(d.millis()).to_be_bytes());
        }
        Value::ObjectId(id) => out.extend_from_slice(id.bytes()),
        Value::String(s) => encode_terminated_bytes(s.as_bytes(), out),
        Value::Document(d) => {
            for (k, val) in d.iter() {
                out.push(0x01);
                encode_terminated_bytes(k.as_bytes(), out);
                encode_value_into(val, out);
            }
            out.push(0x00);
        }
        Value::Array(a) => {
            for val in a {
                out.push(0x01);
                encode_value_into(val, out);
            }
            out.push(0x00);
        }
    }
}

/// Encode one value to a fresh buffer.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_value_into(v, &mut out);
    out
}

/// Map an `f64` to a `u64` whose unsigned order equals the numeric order,
/// with NaN canonicalized to sort below `-inf` (MongoDB's rule).
fn encode_f64(x: f64) -> u64 {
    if x.is_nan() {
        return 0;
    }
    // Canonicalize -0.0: the comparison order treats the zeros as equal
    // (MongoDB semantics), so their index keys must be identical too.
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 1 {
        // Negative: flip all bits. -inf → 0x000FFF… (> 0, above NaN).
        !bits
    } else {
        // Positive (incl. +0): set the sign bit.
        bits | (1 << 63)
    }
}

fn flip_i64(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so that prefix
/// strings sort before their extensions.
fn encode_terminated_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0x00);
    out.push(0x00);
}

fn decode_terminated_bytes(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if b != 0 {
            out.push(b);
            continue;
        }
        let next = *buf.get(*pos)?;
        *pos += 1;
        match next {
            0x00 => return Some(out),
            0xFF => out.push(0x00),
            _ => return None,
        }
    }
}

/// Decode one value from `buf` starting at `pos`, advancing it.
///
/// NaN-canonicalized doubles decode as NaN; numeric types all decode to
/// `Double` (their type identity is not part of the ordering contract).
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Option<Value> {
    let rank = *buf.get(*pos)?;
    *pos += 1;
    Some(match rank {
        RANK_NULL => Value::Null,
        RANK_BOOL => {
            let b = *buf.get(*pos)?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        RANK_NUMBER => {
            let raw = read_be_u64(buf, pos)?;
            Value::Double(decode_f64(raw))
        }
        RANK_DATETIME => {
            let raw = read_be_u64(buf, pos)?;
            Value::DateTime(DateTime::from_millis((raw ^ (1 << 63)) as i64))
        }
        RANK_OBJECT_ID => {
            let s = buf.get(*pos..*pos + 12)?;
            *pos += 12;
            Value::ObjectId(ObjectId::from_bytes(s.try_into().ok()?))
        }
        RANK_STRING => {
            let bytes = decode_terminated_bytes(buf, pos)?;
            Value::String(String::from_utf8(bytes).ok()?)
        }
        RANK_DOCUMENT => {
            let mut d = Document::new();
            loop {
                let marker = *buf.get(*pos)?;
                *pos += 1;
                if marker == 0x00 {
                    break;
                }
                let name = decode_terminated_bytes(buf, pos)?;
                let val = decode_value(buf, pos)?;
                d.set(String::from_utf8(name).ok()?, val);
            }
            Value::Document(d)
        }
        RANK_ARRAY => {
            let mut a = Vec::new();
            loop {
                let marker = *buf.get(*pos)?;
                *pos += 1;
                if marker == 0x00 {
                    break;
                }
                a.push(decode_value(buf, pos)?);
            }
            Value::Array(a)
        }
        _ => return None,
    })
}

/// Length in bytes of the encoded value at the start of `buf`, without
/// decoding it — how a scan finds a composite key's field boundaries
/// while comparing the fields as bytes. `None` on malformed input,
/// exactly where [`decode_value`] returns `None` (UTF-8 aside).
pub fn encoded_len(buf: &[u8]) -> Option<usize> {
    let mut pos = 1;
    match *buf.first()? {
        RANK_NULL => {}
        RANK_BOOL => pos += 1,
        RANK_NUMBER | RANK_DATETIME => pos += 8,
        RANK_OBJECT_ID => pos += 12,
        RANK_STRING => pos += terminated_len(&buf[pos..])?,
        rank @ (RANK_DOCUMENT | RANK_ARRAY) => loop {
            let marker = *buf.get(pos)?;
            pos += 1;
            if marker == 0x00 {
                break;
            }
            if rank == RANK_DOCUMENT {
                pos += terminated_len(buf.get(pos..)?)?;
            }
            pos += encoded_len(buf.get(pos..)?)?;
        },
        _ => return None,
    }
    (pos <= buf.len()).then_some(pos)
}

/// Length of an escaped, `0x00 0x00`-terminated byte string at the
/// start of `buf`, terminator included.
fn terminated_len(buf: &[u8]) -> Option<usize> {
    let mut pos = 0;
    loop {
        let b = *buf.get(pos)?;
        pos += 1;
        if b == 0 {
            match *buf.get(pos)? {
                0x00 => return Some(pos + 1),
                0xFF => pos += 1,
                _ => return None,
            }
        }
    }
}

fn decode_f64(raw: u64) -> f64 {
    if raw == 0 {
        return f64::NAN;
    }
    if raw >> 63 == 1 {
        f64::from_bits(raw & !(1 << 63))
    } else {
        f64::from_bits(!raw)
    }
}

fn read_be_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let s = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_be_bytes(s.try_into().ok()?))
}

/// Incrementally builds a composite (multi-field) key.
#[derive(Default, Clone)]
pub struct KeyWriter {
    buf: Vec<u8>,
}

impl KeyWriter {
    /// Start an empty key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one field value.
    pub fn push(&mut self, v: &Value) -> &mut Self {
        encode_value_into(v, &mut self.buf);
        self
    }

    /// Append a sentinel that sorts before any value in this position.
    pub fn push_min(&mut self) -> &mut Self {
        self.buf.push(RANK_MIN);
        self
    }

    /// Append a sentinel that sorts after any value in this position.
    pub fn push_max(&mut self) -> &mut Self {
        self.buf.push(RANK_MAX);
        self
    }

    /// Append a raw big-endian u64 (used for record-id suffixes that make
    /// duplicate index keys unique).
    pub fn push_raw_u64(&mut self, v: u64) -> &mut Self {
        // Varint-framing is unnecessary here: the suffix is always the
        // final component and fixed width keeps order.
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a length-prefixed blob (kept for framed payloads in tests).
    pub fn push_framed(&mut self, bytes: &[u8]) -> &mut Self {
        write_uvarint(bytes.len() as u64, &mut self.buf);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Finish, returning the key bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Reads composite keys produced by [`KeyWriter`].
pub struct KeyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> KeyReader<'a> {
    /// Wrap a key buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        KeyReader { buf, pos: 0 }
    }

    /// Read the next field value.
    pub fn next_value(&mut self) -> Option<Value> {
        decode_value(self.buf, &mut self.pos)
    }

    /// Read a raw big-endian u64 suffix.
    pub fn next_raw_u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_be_bytes(s.try_into().ok()?))
    }

    /// Read a length-prefixed blob.
    pub fn next_framed(&mut self) -> Option<&'a [u8]> {
        let len = read_uvarint(self.buf, &mut self.pos)? as usize;
        let s = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(s)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use sts_document::doc;

    fn assert_order(a: &Value, b: &Value) {
        let (ea, eb) = (encode_value(a), encode_value(b));
        assert_eq!(
            ea.cmp(&eb),
            a.canonical_cmp(b),
            "encode order mismatch for {a:?} vs {b:?}"
        );
    }

    #[test]
    fn cross_type_order_matches_canonical() {
        let vals = [
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::Int64(-5),
            Value::Int32(0),
            Value::Double(0.5),
            Value::Int64(7),
            Value::Double(f64::INFINITY),
            Value::from(""),
            Value::from("abc"),
            Value::from("abd"),
            Value::Document(doc! {"a" => 1}),
            Value::Array(vec![Value::Int32(1)]),
            Value::ObjectId(ObjectId::with_timestamp(3)),
            Value::Bool(false),
            Value::Bool(true),
            Value::DateTime(DateTime::from_millis(-1)),
            Value::DateTime(DateTime::from_millis(1)),
        ];
        for a in &vals {
            for b in &vals {
                assert_order(a, b);
            }
        }
    }

    #[test]
    fn string_prefix_sorts_first() {
        assert_order(&Value::from("ab"), &Value::from("abc"));
        // Embedded NULs must not break ordering.
        let a = Value::from("a\0");
        let b = Value::from("a\0\0");
        let c = Value::from("a\u{1}");
        assert_order(&a, &b);
        assert_order(&b, &c);
        assert_order(&a, &c);
    }

    #[test]
    fn sentinels_bracket_everything() {
        let v = encode_value(&Value::from("zzz"));
        assert!(vec![RANK_MIN] < v);
        assert!(vec![RANK_MAX] > v);
        let dt = encode_value(&Value::DateTime(DateTime::from_millis(i64::MAX)));
        assert!(vec![RANK_MAX] > dt);
    }

    #[test]
    fn composite_key_field_order() {
        // (hilbertIndex, date) compound ordering.
        let key = |h: i64, t: i64| {
            let mut w = KeyWriter::new();
            w.push(&Value::Int64(h))
                .push(&Value::DateTime(DateTime::from_millis(t)));
            w.finish()
        };
        assert!(key(5, 999) < key(6, 0));
        assert!(key(5, 1) < key(5, 2));
        let mut lower = KeyWriter::new();
        lower.push(&Value::Int64(5)).push_min();
        let mut upper = KeyWriter::new();
        upper.push(&Value::Int64(5)).push_max();
        assert!(lower.finish() < key(5, i64::MIN));
        assert!(upper.finish() > key(5, i64::MAX));
    }

    #[test]
    fn record_id_suffix_keeps_order() {
        let mut a = KeyWriter::new();
        a.push(&Value::Int64(1)).push_raw_u64(9);
        let mut b = KeyWriter::new();
        b.push(&Value::Int64(1)).push_raw_u64(10);
        assert!(a.finish() < b.finish());
    }

    #[test]
    fn decode_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Double(1.25),
            Value::from("hello\0world"),
            Value::DateTime(DateTime::from_millis(1_538_383_680_067)),
            Value::ObjectId(ObjectId::with_timestamp(77)),
            Value::Array(vec![Value::from("x"), Value::Double(2.0)]),
            Value::Document(doc! {"k" => "v", "n" => 4.0}),
        ];
        for v in &vals {
            let enc = encode_value(v);
            let mut pos = 0;
            let back = decode_value(&enc, &mut pos).unwrap();
            assert_eq!(pos, enc.len());
            assert_eq!(back.canonical_cmp(v), Ordering::Equal, "{v:?}");
        }
    }

    #[test]
    fn encoded_len_finds_every_field_boundary() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int64(-7),
            Value::Double(1.25),
            Value::from(""),
            Value::from("hello\0world"),
            Value::DateTime(DateTime::from_millis(1_538_383_680_067)),
            Value::ObjectId(ObjectId::with_timestamp(77)),
            Value::Array(vec![Value::from("x\0"), Value::Array(vec![]), Value::Null]),
            Value::Document(doc! {"k\0" => "v", "n" => doc! {"m" => 4.0}}),
        ];
        for v in &vals {
            let mut enc = encode_value(v);
            let len = enc.len();
            // Whatever follows (the next field, the record id) is not
            // part of the value.
            enc.extend_from_slice(&[0xFF; 9]);
            assert_eq!(encoded_len(&enc), Some(len), "{v:?}");
            // A truncated encoding is malformed, never out of bounds.
            for cut in 0..len {
                assert_eq!(encoded_len(&enc[..cut]), None, "{v:?} cut at {cut}");
            }
        }
        assert_eq!(encoded_len(&[RANK_MAX]), None);
        assert_eq!(encoded_len(&[RANK_STRING, b'a', 0x00, 0x07]), None);
    }

    #[test]
    fn reader_walks_composite() {
        let mut w = KeyWriter::new();
        w.push(&Value::Int64(42))
            .push(&Value::from("k"))
            .push_raw_u64(7);
        let key = w.finish();
        let mut r = KeyReader::new(&key);
        assert_eq!(r.next_value().unwrap().as_f64(), Some(42.0));
        assert_eq!(r.next_value().unwrap().as_str(), Some("k"));
        assert_eq!(r.next_raw_u64(), Some(7));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn framed_roundtrip() {
        let mut w = KeyWriter::new();
        w.push_framed(b"abc").push_framed(b"");
        let key = w.finish();
        let mut r = KeyReader::new(&key);
        assert_eq!(r.next_framed(), Some(&b"abc"[..]));
        assert_eq!(r.next_framed(), Some(&b""[..]));
    }

    proptest! {
        #[test]
        fn prop_f64_order(a in proptest::num::f64::NORMAL | proptest::num::f64::ZERO,
                          b in proptest::num::f64::NORMAL | proptest::num::f64::ZERO) {
            assert_order(&Value::Double(a), &Value::Double(b));
        }

        #[test]
        fn prop_i64_order(a in -(1i64 << 52)..(1i64 << 52), b in -(1i64 << 52)..(1i64 << 52)) {
            assert_order(&Value::Int64(a), &Value::Int64(b));
        }

        #[test]
        fn prop_string_order(a in ".{0,12}", b in ".{0,12}") {
            assert_order(&Value::from(a.as_str()), &Value::from(b.as_str()));
        }

        #[test]
        fn prop_datetime_order(a in proptest::num::i64::ANY, b in proptest::num::i64::ANY) {
            assert_order(
                &Value::DateTime(DateTime::from_millis(a)),
                &Value::DateTime(DateTime::from_millis(b)),
            );
        }

        #[test]
        fn prop_varint_roundtrip(v in proptest::num::u64::ANY) {
            let mut buf = Vec::new();
            write_uvarint(v, &mut buf);
            let mut pos = 0;
            prop_assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
        }
    }
}
