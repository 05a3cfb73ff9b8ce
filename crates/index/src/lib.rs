//! Secondary indexes over documents.
//!
//! MongoDB-style indexing (§3.1–3.2 of the paper): every index is a
//! B+tree over composite keys extracted from documents. Supported field
//! kinds:
//!
//! * ascending value fields (`{date: 1}`, `{hilbertIndex: 1}`),
//! * 2dsphere fields — the document's GeoJSON point is encoded as a
//!   26-bit GeoHash cell id, reproducing MongoDB's built-in spatial
//!   indexing,
//! * hashed fields (for hashed sharding).
//!
//! Compound indexes concatenate per-field encodings in declaration
//! order, which is precisely why `{location, date}` and
//! `{date, location}` behave so differently in the paper's evaluation.

mod bounds;
mod extract;
mod index;
mod manager;
mod spec;

pub use bounds::{key_for_values, ScanRange, EXCLUSIVE_TAIL};
pub use extract::{extract_key_values, geo_point_of};
pub use index::{Index, ScanScratch, ScanStats};
pub use manager::IndexManager;
pub use spec::{CurveCells, FieldKind, IndexField, IndexSpec};
