//! A space-filling curve laid over a lon/lat extent.

use crate::curve::{Curve, CurveFamily};
use crate::hilbert;
use crate::ranges::{decompose_blocks_into, RangeBudget};
use crate::zorder;
use crate::CoveringScratch;
use sts_geo::{GeoPoint, GeoRect, WORLD};

/// Shared constructor validation for uniform-grid curves.
pub(crate) fn validate_grid(extent: &GeoRect, order: u32) {
    assert!(extent.is_valid(), "invalid grid extent {extent:?}");
    assert!(
        extent.lon_span() > 0.0 && extent.lat_span() > 0.0,
        "degenerate grid extent {extent:?}"
    );
    assert!(
        (1..=hilbert::MAX_ORDER).contains(&order),
        "unsupported curve order {order}"
    );
}

/// Cell containing `p` on a uniform `2^order` grid over `extent`
/// (out-of-extent points clamp to the border cells).
pub(crate) fn cell_of_uniform(extent: &GeoRect, order: u32, p: GeoPoint) -> (u64, u64) {
    let n = 1u64 << order;
    let fx = (p.lon - extent.min_lon) / extent.lon_span();
    let fy = (p.lat - extent.min_lat) / extent.lat_span();
    let clamp = |f: f64| -> u64 {
        let v = (f * n as f64).floor();
        if v < 0.0 {
            0
        } else if v >= n as f64 {
            n - 1
        } else {
            v as u64
        }
    };
    (clamp(fx), clamp(fy))
}

/// Geographic bounding box of cell `(x, y)` on a uniform grid.
pub(crate) fn cell_rect_uniform(extent: &GeoRect, order: u32, x: u64, y: u64) -> GeoRect {
    let n = (1u64 << order) as f64;
    let w = extent.lon_span() / n;
    let h = extent.lat_span() / n;
    GeoRect::new(
        extent.min_lon + x as f64 * w,
        extent.min_lat + y as f64 * h,
        extent.min_lon + (x as f64 + 1.0) * w,
        extent.min_lat + (y as f64 + 1.0) * h,
    )
}

/// The grid-cell span overlapping `rect` on a uniform grid, or `None`
/// when the rectangle misses the extent entirely.
pub(crate) fn cell_span_uniform(
    extent: &GeoRect,
    order: u32,
    rect: &GeoRect,
) -> Option<(u64, u64, u64, u64)> {
    if !rect.intersects(extent) {
        return None;
    }
    let lo = cell_of_uniform(extent, order, GeoPoint::new(rect.min_lon, rect.min_lat));
    // The closed upper boundary belongs to the previous cell when it
    // falls exactly on a grid line and the rect is non-degenerate;
    // clamping inside `cell_of_uniform` already handles the extent
    // border.
    let hi = cell_of_uniform(extent, order, GeoPoint::new(rect.max_lon, rect.max_lat));
    Some((lo.0, hi.0, lo.1, hi.1))
}

/// Which curve orders the grid cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CurveKind {
    /// Hilbert curve — the paper's choice (§4.2).
    Hilbert,
    /// Z-order (Morton) — the comparison baseline.
    ZOrder,
}

/// A `2^order × 2^order` grid over `extent`, each cell addressed by its
/// 1D curve index.
///
/// * `CurveGrid::world(order)` reproduces the paper's `hil` method (the
///   curve covers the whole globe);
/// * `CurveGrid::fitted(data_mbr, order)` reproduces `hil*` (same bit
///   budget spent on the data's bounding box only, i.e. higher effective
///   precision).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurveGrid {
    extent: GeoRect,
    order: u32,
    kind: CurveKind,
}

impl CurveGrid {
    /// A Hilbert grid over the whole world (the `hil` configuration).
    pub fn world(order: u32) -> Self {
        Self::new(WORLD, order, CurveKind::Hilbert)
    }

    /// A Hilbert grid fitted to a data MBR (the `hil*` configuration).
    pub fn fitted(extent: GeoRect, order: u32) -> Self {
        Self::new(extent, order, CurveKind::Hilbert)
    }

    /// Fully custom grid.
    pub fn new(extent: GeoRect, order: u32, kind: CurveKind) -> Self {
        validate_grid(&extent, order);
        CurveGrid {
            extent,
            order,
            kind,
        }
    }

    /// Bits per axis.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// The covered extent.
    pub fn extent(&self) -> &GeoRect {
        &self.extent
    }

    /// The curve in use.
    pub fn kind(&self) -> CurveKind {
        self.kind
    }

    /// Cells per axis.
    pub fn cells_per_axis(&self) -> u64 {
        1 << self.order
    }

    /// Total number of distinct 1D values.
    pub fn total_cells(&self) -> u64 {
        1 << (2 * self.order)
    }

    /// Grid coordinates of the cell containing `p` (points outside the
    /// extent clamp to the border cells, like MongoDB clamps GeoHash
    /// inputs at the domain edge).
    pub fn cell_of(&self, p: GeoPoint) -> (u64, u64) {
        cell_of_uniform(&self.extent, self.order, p)
    }

    /// The 1D curve index of the cell containing `p` — the value stored
    /// in the `hilbertIndex` document field.
    pub fn index_of(&self, p: GeoPoint) -> u64 {
        let (x, y) = self.cell_of(p);
        self.index_of_cell(x, y)
    }

    /// The 1D curve index of a grid cell.
    pub fn index_of_cell(&self, x: u64, y: u64) -> u64 {
        match self.kind {
            CurveKind::Hilbert => hilbert::xy2d(self.order, x, y),
            CurveKind::ZOrder => zorder::xy2z(self.order, x, y),
        }
    }

    /// Grid cell of a 1D curve index.
    pub fn cell_of_index(&self, d: u64) -> (u64, u64) {
        match self.kind {
            CurveKind::Hilbert => hilbert::d2xy(self.order, d),
            CurveKind::ZOrder => zorder::z2xy(self.order, d),
        }
    }

    /// Geographic bounding box of a grid cell.
    pub fn cell_rect(&self, x: u64, y: u64) -> GeoRect {
        cell_rect_uniform(&self.extent, self.order, x, y)
    }

    /// The grid-cell span `[x0..=x1] × [y0..=y1]` overlapping `rect`,
    /// or `None` when the rectangle misses the extent entirely.
    pub fn cell_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        cell_span_uniform(&self.extent, self.order, rect)
    }

    /// Decompose a query rectangle into sorted, merged, inclusive 1D
    /// index ranges (§4.2.1: "consecutive values of cells are expressed
    /// as ranges, whereas non-consecutive cell values are included as
    /// individual values").
    ///
    /// `budget` bounds the number of ranges; excess ranges are coalesced
    /// with their nearest neighbours (introducing false-positive cells
    /// that document-level refinement later discards).
    pub fn decompose_rect(&self, rect: &GeoRect, budget: RangeBudget) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.decompose_rect_into(rect, budget, &mut CoveringScratch::new(), &mut out);
        out
    }

    /// Like [`decompose_rect`](Self::decompose_rect), but appends the
    /// ranges to `out` and reuses `scratch` — the allocation-free form
    /// the query hot path uses.
    pub fn decompose_rect_into(
        &self,
        rect: &GeoRect,
        budget: RangeBudget,
        scratch: &mut CoveringScratch,
        out: &mut Vec<(u64, u64)>,
    ) {
        if let Some(span) = self.cell_span(rect) {
            decompose_blocks_into(self.order, self.kind, span, budget, scratch, out);
        }
    }
}

/// [`CurveGrid`] is the trait's reference implementation; the inherent
/// methods above remain for callers holding a concrete grid.
impl Curve for CurveGrid {
    fn family(&self) -> CurveFamily {
        match self.kind {
            CurveKind::Hilbert => CurveFamily::Hilbert,
            CurveKind::ZOrder => CurveFamily::ZOrder,
        }
    }

    fn order(&self) -> u32 {
        self.order
    }

    fn extent(&self) -> &GeoRect {
        &self.extent
    }

    fn cell_of(&self, p: GeoPoint) -> (u64, u64) {
        CurveGrid::cell_of(self, p)
    }

    fn index_of_cell(&self, x: u64, y: u64) -> u64 {
        CurveGrid::index_of_cell(self, x, y)
    }

    fn cell_of_index(&self, d: u64) -> (u64, u64) {
        CurveGrid::cell_of_index(self, d)
    }

    fn cell_rect(&self, x: u64, y: u64) -> GeoRect {
        CurveGrid::cell_rect(self, x, y)
    }

    fn cell_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        CurveGrid::cell_span(self, rect)
    }

    fn decompose_cells_into(
        &self,
        span: (u64, u64, u64, u64),
        budget: RangeBudget,
        scratch: &mut CoveringScratch,
        out: &mut Vec<(u64, u64)>,
    ) {
        decompose_blocks_into(self.order, self.kind, span, budget, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_CURVE_ORDER;

    const ATHENS: GeoPoint = GeoPoint::new(23.727539, 37.983810);

    fn greece_mbr() -> GeoRect {
        GeoRect::new(19.632533, 34.929233, 28.245285, 41.757797)
    }

    #[test]
    fn world_grid_contains_athens() {
        let g = CurveGrid::world(PAPER_CURVE_ORDER);
        let (x, y) = g.cell_of(ATHENS);
        assert!(g.cell_rect(x, y).contains(ATHENS));
        let d = g.index_of(ATHENS);
        assert_eq!(g.cell_of_index(d), (x, y));
        assert!(d < g.total_cells());
    }

    #[test]
    fn fitted_grid_has_higher_precision() {
        let world = CurveGrid::world(PAPER_CURVE_ORDER);
        let fitted = CurveGrid::fitted(greece_mbr(), PAPER_CURVE_ORDER);
        let (wx, wy) = world.cell_of(ATHENS);
        let (fx, fy) = fitted.cell_of(ATHENS);
        let warea = world.cell_rect(wx, wy).area_km2();
        let farea = fitted.cell_rect(fx, fy).area_km2();
        // hil* spends the same bits on ~0.05% of the globe: much smaller cells.
        assert!(farea < warea / 100.0, "fitted {farea} vs world {warea}");
    }

    #[test]
    fn clamping_outside_extent() {
        let g = CurveGrid::fitted(greece_mbr(), 8);
        let (x, y) = g.cell_of(GeoPoint::new(-100.0, -80.0));
        assert_eq!((x, y), (0, 0));
        let (x, y) = g.cell_of(GeoPoint::new(100.0, 80.0));
        assert_eq!((x, y), (255, 255));
    }

    #[test]
    fn cell_span_of_disjoint_rect_is_none() {
        let g = CurveGrid::fitted(greece_mbr(), 8);
        let far = GeoRect::new(100.0, 10.0, 101.0, 11.0);
        assert!(g.cell_span(&far).is_none());
        assert!(g.decompose_rect(&far, RangeBudget::default()).is_empty());
    }

    #[test]
    fn zorder_grid_works_too() {
        let g = CurveGrid::new(greece_mbr(), 10, CurveKind::ZOrder);
        let d = g.index_of(ATHENS);
        let (x, y) = g.cell_of_index(d);
        assert!(g.cell_rect(x, y).contains(ATHENS));
    }

    #[test]
    #[should_panic(expected = "unsupported curve order")]
    fn rejects_order_zero() {
        CurveGrid::world(0);
    }
}
