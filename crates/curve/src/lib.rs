//! Space-filling curves and query-rectangle decomposition.
//!
//! The paper's approach (§4.2) replaces MongoDB's built-in spatial index
//! with a single `hilbertIndex` field: the 1D Hilbert value of each
//! point's grid cell, indexed by a plain B-tree and used as the leading
//! shard-key field. This crate supplies:
//!
//! * [`hilbert`] — the 2D Hilbert curve (`xy2d`/`d2xy`), any order ≤ 31;
//! * [`zorder`] — Z-order (bit interleaving), the curve Hilbert is
//!   compared against;
//! * [`CurveGrid`] — either curve ([`CurveKind`]) laid over a lon/lat
//!   extent: the world extent gives the paper's `hil` method, the
//!   data-MBR extent gives `hil*`;
//! * [`CurveGrid::decompose_rect`] — the query-side algorithm of Table 8:
//!   turn a query rectangle into sorted, merged 1D index ranges;
//! * [`locality`] — clustering metrics in the spirit of Moon et al. (ref. \[14\] of the paper),
//!   whose tests and the `curve_explorer` example show *why* Hilbert
//!   beats Z-order.
//!
//! # Example
//!
//! ```
//! use sts_curve::{CurveGrid, RangeBudget, PAPER_CURVE_ORDER};
//! use sts_geo::{GeoPoint, GeoRect};
//!
//! let grid = CurveGrid::world(PAPER_CURVE_ORDER);
//! let athens = GeoPoint::new(23.727539, 37.983810);
//! let h = grid.index_of(athens); // the document's `hilbertIndex`
//! assert!(h < grid.total_cells());
//!
//! // Query side: a rectangle becomes a few 1D index intervals.
//! let rect = GeoRect::new(23.6, 37.9, 23.9, 38.1);
//! let ranges = grid.decompose_rect(&rect, RangeBudget::default());
//! assert!(!ranges.is_empty());
//! assert!(ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&h)));
//! ```

pub mod hilbert;
pub mod locality;
pub mod zorder;

mod grid;
mod ranges;

pub use grid::{CurveGrid, CurveKind};
pub use ranges::{CoveringScratch, RangeBudget};

/// The paper's curve precision: 13 bits per axis (§5.1 methodology).
pub const PAPER_CURVE_ORDER: u32 = 13;
