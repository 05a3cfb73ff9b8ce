//! Order-preserving key encodings for the store's B+tree indexes.
//!
//! Every index in the store is a B+tree over raw byte strings; this crate
//! defines the *memcomparable* encoding that maps typed index keys to
//! bytes such that `encode(a) < encode(b)` (bytewise) iff `a < b` under
//! BSON canonical ordering. Composite keys concatenate per-field
//! encodings, each prefixed with the value's type rank, so compound
//! indexes order exactly like MongoDB's.
//!
//! Also provided: LEB128-style varints (used by the snappy-lite block
//! compressor) and the GeoHash base32 alphabet.

mod base32;
mod keys;
mod varint;

pub use base32::{base32_decode, base32_encode, curve_cell_code, GEOHASH_ALPHABET};
pub use keys::{
    decode_value, encode_value, encode_value_into, encoded_len, KeyReader, KeyWriter, RANK_MAX,
    RANK_MIN,
};
pub use varint::{read_uvarint, write_uvarint};
