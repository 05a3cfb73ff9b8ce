//! A space-filling curve laid over a lon/lat extent.

use crate::hilbert;
use crate::ranges::{decompose_blocks_into, RangeBudget};
use crate::zorder;
use crate::CoveringScratch;
use sts_geo::{GeoPoint, GeoRect, WORLD};

/// Which curve orders the grid cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum CurveKind {
    /// Hilbert curve — the paper's choice (§4.2).
    #[default]
    Hilbert,
    /// Z-order (Morton) — the comparison baseline.
    ZOrder,
}

impl CurveKind {
    /// Both curves, the paper's Hilbert first.
    pub const ALL: [CurveKind; 2] = [CurveKind::Hilbert, CurveKind::ZOrder];
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
        assert!(extent.is_valid(), "invalid grid extent {extent:?}");
        assert!(
            extent.lon_span() > 0.0 && extent.lat_span() > 0.0,
            "degenerate grid extent {extent:?}"
        );
        assert!(
            (1..=hilbert::MAX_ORDER).contains(&order),
            "unsupported curve order {order}"
        );
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
        let n = self.cells_per_axis();
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
        let e = &self.extent;
        (
            clamp((p.lon - e.min_lon) / e.lon_span()),
            clamp((p.lat - e.min_lat) / e.lat_span()),
        )
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
        let e = &self.extent;
        let n = self.cells_per_axis() as f64;
        let w = e.lon_span() / n;
        let h = e.lat_span() / n;
        GeoRect::new(
            e.min_lon + x as f64 * w,
            e.min_lat + y as f64 * h,
            e.min_lon + (x as f64 + 1.0) * w,
            e.min_lat + (y as f64 + 1.0) * h,
        )
    }

    /// The grid-cell span `[x0..=x1] × [y0..=y1]` overlapping `rect`,
    /// or `None` when the rectangle misses the extent entirely.
    pub fn cell_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        if !rect.intersects(&self.extent) {
            return None;
        }
        let lo = self.cell_of(GeoPoint::new(rect.min_lon, rect.min_lat));
        // A closed upper edge that falls exactly on a grid line floors
        // into the next cell, as a point on that line does in
        // `cell_of`, so that cell must be covered too; at the extent
        // border the clamp keeps it inside the grid.
        let hi = self.cell_of(GeoPoint::new(rect.max_lon, rect.max_lat));
        Some((lo.0, hi.0, lo.1, hi.1))
    }

    /// The cells of [`cell_span`](Self::cell_span) without its border
    /// rows and columns, as an inclusive `(x0, x1, y0, y1)`: every point
    /// whose cell lies in it is inside `rect`, edges included. `None`
    /// when no cell qualifies, or when `rect` has a non-finite or
    /// inverted side.
    ///
    /// Exact because [`cell_of`](Self::cell_of) is monotone on each
    /// axis (subtraction, division and multiplication by positive
    /// constants, floor and clamp all preserve order, rounding
    /// included): a point west of `rect.min_lon` lands in the span's
    /// first column or before it, one east of `rect.max_lon` in its last
    /// column or after it, and likewise for latitude.
    pub fn interior_span(&self, rect: &GeoRect) -> Option<(u64, u64, u64, u64)> {
        let sides = [rect.min_lon, rect.min_lat, rect.max_lon, rect.max_lat];
        if !sides.iter().all(|v| v.is_finite())
            || rect.min_lon > rect.max_lon
            || rect.min_lat > rect.max_lat
        {
            return None;
        }
        let (x0, x1, y0, y1) = self.cell_span(rect)?;
        (x0 + 1 < x1 && y0 + 1 < y1).then(|| (x0 + 1, x1 - 1, y0 + 1, y1 - 1))
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

    /// A stable fingerprint of the grid's geometry and curve, suitable
    /// as a plan-cache key component: two grids with equal fingerprints
    /// produce identical coverings for every rectangle. FNV-1a over the
    /// curve kind's discriminant, the order and the extent's bits.
    pub fn fingerprint(&self) -> u64 {
        let e = &self.extent;
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, self.kind as u64);
        h = fnv1a(h, u64::from(self.order));
        for v in [e.min_lon, e.min_lat, e.max_lon, e.max_lat] {
            h = fnv1a(h, v.to_bits());
        }
        h
    }
}

/// One FNV-1a style mixing step over a `u64` word.
fn fnv1a(state: u64, word: u64) -> u64 {
    let mut h = state;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

    /// The fingerprint is a plan-cache key component and shows in
    /// explain output as `curveFingerprint`, so its recipe must not
    /// drift: these are the values of the `hil` and `hil*` grids and of
    /// Z-order over the same two extents.
    #[test]
    fn fingerprints_are_pinned() {
        let z = |extent| CurveGrid::new(extent, PAPER_CURVE_ORDER, CurveKind::ZOrder);
        let pinned = [
            (CurveGrid::world(PAPER_CURVE_ORDER), 0x1c2e_e53c_9281_3ec8),
            (
                CurveGrid::fitted(greece_mbr(), PAPER_CURVE_ORDER),
                0x2b1e_58c4_97f6_6c1c,
            ),
            (z(WORLD), 0xb8b4_4bfb_bea6_b0c9),
            (z(greece_mbr()), 0x3a91_8ed1_660c_e0b5),
        ];
        for (grid, fp) in pinned {
            assert_eq!(grid.fingerprint(), fp, "{grid:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported curve order")]
    fn rejects_order_zero() {
        CurveGrid::world(0);
    }
}
