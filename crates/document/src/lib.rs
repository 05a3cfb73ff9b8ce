//! BSON-like document model for the spatio-temporal NoSQL store.
//!
//! This crate provides the data model that every other layer of the store
//! builds on: dynamically-typed [`Value`]s, ordered field maps
//! ([`Document`]), MongoDB-compatible [`ObjectId`]s (4-byte timestamp,
//! 5-byte random, 3-byte counter), millisecond-precision [`DateTime`]s and
//! a compact binary serialization used for on-"disk" size accounting.
//!
//! The model intentionally mirrors the subset of BSON that the EDBT 2021
//! paper exercises: scalar types, arrays, nested documents, GeoJSON-style
//! point values and ISO dates.
//!
//! # Example
//!
//! ```
//! use sts_document::{doc, Document, Value, DateTime};
//!
//! let d = doc! {
//!     "location" => doc! {
//!         "type" => "Point",
//!         "coordinates" => vec![Value::from(23.727539), Value::from(37.983810)],
//!     },
//!     "date" => DateTime::parse_iso("2018-10-01T08:34:40Z").unwrap(),
//! };
//! assert_eq!(d.get_path("location.type").unwrap().as_str(), Some("Point"));
//! ```

mod datetime;
mod document;
mod error;
mod object_id;
mod ser;
mod value;

pub use datetime::DateTime;
pub use document::Document;
pub use error::{DocError, Result};
pub use object_id::ObjectId;
pub use ser::{check_encodable, decode_document, encode_document, encoded_size};
pub use value::{Value, ValueKind};

/// Construct a [`Document`] from `key => value` pairs.
///
/// Values may be anything convertible via [`Value::from`].
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut d = $crate::Document::new();
        $( d.set($k, $crate::Value::from($v)); )+
        d
    }};
}
