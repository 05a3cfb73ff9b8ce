//! Binary serialization of documents (a compact BSON dialect).
//!
//! The wire/storage format matters for two experiments in the paper: the
//! stored collection sizes of Table 6 (bsl documents lack the
//! `hilbertIndex` field and are marginally smaller) and the compressed
//! block accounting in `sts-storage`. The layout follows BSON closely:
//!
//! ```text
//! document := u32 total_len | element* | 0x00
//! element  := type_tag u8 | cstring field_name | payload
//! ```
//!
//! Payloads: doubles/i32/i64/datetime are little-endian fixed width;
//! strings are `u32 len | bytes | 0x00`; arrays serialize as documents with
//! index keys, exactly like BSON.

use crate::error::{DocError, Result};
use crate::{DateTime, Document, ObjectId, Value};

const TAG_DOUBLE: u8 = 0x01;
const TAG_STRING: u8 = 0x02;
const TAG_DOCUMENT: u8 = 0x03;
const TAG_ARRAY: u8 = 0x04;
const TAG_OBJECT_ID: u8 = 0x07;
const TAG_BOOL: u8 = 0x08;
const TAG_DATETIME: u8 = 0x09;
const TAG_NULL: u8 = 0x0A;
const TAG_INT32: u8 = 0x10;
const TAG_INT64: u8 = 0x12;

/// Serialize a document to bytes.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    write_document(doc, &mut out);
    out
}

/// Serialized size in bytes without materializing the encoding.
pub fn encoded_size(doc: &Document) -> usize {
    document_size(doc)
}

fn document_size(doc: &Document) -> usize {
    // 4-byte length prefix + elements + trailing 0x00.
    5 + doc
        .iter()
        .map(|(k, v)| 1 + k.len() + 1 + value_size(v))
        .sum::<usize>()
}

fn value_size(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int32(_) => 4,
        Value::Int64(_) | Value::Double(_) | Value::DateTime(_) => 8,
        Value::ObjectId(_) => 12,
        Value::String(s) => 4 + s.len() + 1,
        Value::Document(d) => document_size(d),
        Value::Array(a) => {
            5 + a
                .iter()
                .enumerate()
                .map(|(i, v)| 1 + index_key_len(i) + 1 + value_size(v))
                .sum::<usize>()
        }
    }
}

fn index_key_len(i: usize) -> usize {
    if i == 0 {
        1
    } else {
        (i.ilog10() + 1) as usize
    }
}

fn write_document(doc: &Document, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes()); // patched below
    for (k, v) in doc.iter() {
        write_element(k, v, out);
    }
    out.push(0);
    let len = (out.len() - start) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn write_element(key: &str, v: &Value, out: &mut Vec<u8>) {
    out.push(tag_of(v));
    out.extend_from_slice(key.as_bytes());
    out.push(0);
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::Int32(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Int64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Double(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::DateTime(d) => out.extend_from_slice(&d.millis().to_le_bytes()),
        Value::ObjectId(id) => out.extend_from_slice(id.bytes()),
        Value::String(s) => {
            out.extend_from_slice(&((s.len() + 1) as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            out.push(0);
        }
        Value::Document(d) => write_document(d, out),
        Value::Array(a) => {
            let as_doc: Document = a
                .iter()
                .enumerate()
                .map(|(i, v)| (i.to_string(), v.clone()))
                .collect();
            write_document(&as_doc, out);
        }
    }
}

fn tag_of(v: &Value) -> u8 {
    match v {
        Value::Null => TAG_NULL,
        Value::Bool(_) => TAG_BOOL,
        Value::Int32(_) => TAG_INT32,
        Value::Int64(_) => TAG_INT64,
        Value::Double(_) => TAG_DOUBLE,
        Value::String(_) => TAG_STRING,
        Value::Array(_) => TAG_ARRAY,
        Value::Document(_) => TAG_DOCUMENT,
        Value::DateTime(_) => TAG_DATETIME,
        Value::ObjectId(_) => TAG_OBJECT_ID,
    }
}

/// Check that [`encode_document`] can store `doc`: field names are
/// NUL-terminated in the encoding, so a NUL byte inside one, at any
/// depth, would cut the name short and leave the rest of the record
/// unreadable. Every document that passes decodes back to an equal one.
pub fn check_encodable(doc: &Document) -> Result<()> {
    for (k, v) in doc.iter() {
        if k.contains('\0') {
            return Err(DocError::BadFieldName(k.to_string()));
        }
        check_value(v)?;
    }
    Ok(())
}

fn check_value(v: &Value) -> Result<()> {
    match v {
        Value::Document(d) => check_encodable(d),
        Value::Array(a) => a.iter().try_for_each(check_value),
        _ => Ok(()),
    }
}

/// Deserialize a document from bytes.
pub fn decode_document(bytes: &[u8]) -> Result<Document> {
    let mut pos = 0usize;
    let doc = read_document(bytes, &mut pos)?;
    Ok(doc)
}

fn corrupt(offset: usize, what: &'static str) -> DocError {
    DocError::Corrupt { offset, what }
}

fn read_u32(b: &[u8], pos: &mut usize) -> Result<u32> {
    let s = b
        .get(*pos..*pos + 4)
        .ok_or_else(|| corrupt(*pos, "truncated u32"))?;
    *pos += 4;
    Ok(u32::from_le_bytes(s.try_into().unwrap()))
}

fn read_i64(b: &[u8], pos: &mut usize) -> Result<i64> {
    let s = b
        .get(*pos..*pos + 8)
        .ok_or_else(|| corrupt(*pos, "truncated i64"))?;
    *pos += 8;
    Ok(i64::from_le_bytes(s.try_into().unwrap()))
}

fn read_cstring<'a>(b: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    let rest = &b[*pos..];
    let nul = rest
        .iter()
        .position(|&c| c == 0)
        .ok_or_else(|| corrupt(*pos, "unterminated cstring"))?;
    let s = std::str::from_utf8(&rest[..nul]).map_err(|_| corrupt(*pos, "non-utf8 cstring"))?;
    *pos += nul + 1;
    Ok(s)
}

fn read_document(b: &[u8], pos: &mut usize) -> Result<Document> {
    let start = *pos;
    let total = read_u32(b, pos)? as usize;
    let end = start
        .checked_add(total)
        .filter(|&e| e <= b.len() && total >= 5)
        .ok_or_else(|| corrupt(start, "bad document length"))?;
    let mut doc = Document::new();
    while *pos < end - 1 {
        let tag = b[*pos];
        *pos += 1;
        let key = read_cstring(b, pos)?.to_string();
        let v = read_value(tag, b, pos)?;
        doc.set(key, v);
    }
    if b.get(end - 1) != Some(&0) {
        return Err(corrupt(end - 1, "missing document terminator"));
    }
    *pos = end;
    Ok(doc)
}

fn read_value(tag: u8, b: &[u8], pos: &mut usize) -> Result<Value> {
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => {
            let v = *b.get(*pos).ok_or_else(|| corrupt(*pos, "truncated bool"))?;
            *pos += 1;
            Value::Bool(v != 0)
        }
        TAG_INT32 => {
            let v = read_u32(b, pos)? as i32;
            Value::Int32(v)
        }
        TAG_INT64 => Value::Int64(read_i64(b, pos)?),
        TAG_DOUBLE => Value::Double(f64::from_bits(read_i64(b, pos)? as u64)),
        TAG_DATETIME => Value::DateTime(DateTime::from_millis(read_i64(b, pos)?)),
        TAG_OBJECT_ID => {
            let s = b
                .get(*pos..*pos + 12)
                .ok_or_else(|| corrupt(*pos, "truncated objectid"))?;
            *pos += 12;
            Value::ObjectId(ObjectId::from_bytes(s.try_into().unwrap()))
        }
        TAG_STRING => {
            let len = read_u32(b, pos)? as usize;
            if len == 0 {
                return Err(corrupt(*pos, "zero string length"));
            }
            let s = b
                .get(*pos..*pos + len - 1)
                .ok_or_else(|| corrupt(*pos, "truncated string"))?;
            let s = std::str::from_utf8(s).map_err(|_| corrupt(*pos, "non-utf8 string"))?;
            *pos += len;
            Value::String(s.to_string())
        }
        TAG_DOCUMENT => Value::Document(read_document(b, pos)?),
        TAG_ARRAY => {
            let d = read_document(b, pos)?;
            Value::Array(d.iter().map(|(_, v)| v.clone()).collect())
        }
        _ => return Err(corrupt(*pos, "unknown type tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn sample() -> Document {
        let mut d = doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![Value::from(23.727539), Value::from(37.983810)],
            },
            "date" => DateTime::parse_iso("2018-10-01T08:34:40.067Z").unwrap(),
            "hilbertIndex" => 59_207_919i64,
            "speed" => 54.5f64,
            "flag" => true,
            "note" => Value::Null,
        };
        d.ensure_id(1_538_383_680);
        d
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let bytes = encode_document(&d);
        let back = decode_document(&bytes).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn encoded_size_matches_encoding() {
        let d = sample();
        assert_eq!(encoded_size(&d), encode_document(&d).len());
    }

    #[test]
    fn size_grows_with_hilbert_field() {
        let mut without = sample();
        without.remove("hilbertIndex");
        // `hilbertIndex` costs tag(1) + name(12+1) + i64(8) = 22 bytes.
        assert_eq!(encoded_size(&sample()) - encoded_size(&without), 22);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_document(&sample());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(decode_document(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = encode_document(&doc! {"a" => 1});
        bytes[4] = 0x7F; // clobber the element tag
        assert!(decode_document(&bytes).is_err());
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        let bytes = encode_document(&d);
        assert_eq!(bytes.len(), 5);
        assert_eq!(decode_document(&bytes).unwrap(), d);
    }

    #[test]
    fn nul_in_a_field_name_is_not_encodable() {
        assert!(check_encodable(&sample()).is_ok());
        let top = doc! {"a\0b" => 1};
        let nested = doc! {"a" => vec![Value::Document(doc! {"\0" => 1})]};
        for d in [top, nested] {
            assert!(matches!(
                check_encodable(&d),
                Err(DocError::BadFieldName(_))
            ));
            assert_ne!(decode_document(&encode_document(&d)).ok(), Some(d));
        }
        // NUL inside a string *value* is length-prefixed and fine.
        let value = doc! {"a" => "x\0y"};
        assert!(check_encodable(&value).is_ok());
        assert_eq!(decode_document(&encode_document(&value)).unwrap(), value);
    }

    #[test]
    fn nested_arrays_roundtrip() {
        let d = doc! {
            "a" => vec![
                Value::Array(vec![Value::Int32(1), Value::Int32(2)]),
                Value::from("x"),
            ]
        };
        let back = decode_document(&encode_document(&d)).unwrap();
        assert_eq!(d, back);
    }
}
