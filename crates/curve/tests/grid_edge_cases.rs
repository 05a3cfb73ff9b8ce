//! Curve-grid edge cases: extreme budgets, order-1 grids, rects that
//! clip the extent.

use sts_curve::{CurveGrid, CurveKind, RangeBudget};
use sts_geo::{GeoPoint, GeoRect};

fn unit(order: u32) -> CurveGrid {
    CurveGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), order, CurveKind::Hilbert)
}

#[test]
fn budget_of_one_yields_single_superset_range() {
    let g = unit(8);
    let rect = GeoRect::new(0.1, 0.1, 0.9, 0.15); // fragmented strip
    let exact = g.decompose_rect(&rect, RangeBudget::UNLIMITED);
    assert!(exact.len() > 1);
    let one = g.decompose_rect(&rect, RangeBudget::new(1));
    assert_eq!(one.len(), 1);
    assert!(one[0].0 <= exact[0].0);
    assert!(one[0].1 >= exact.last().unwrap().1);
}

#[test]
fn order_one_grid_works() {
    let g = unit(1);
    assert_eq!(g.total_cells(), 4);
    let all = g.decompose_rect(&GeoRect::new(0.0, 0.0, 1.0, 1.0), RangeBudget::UNLIMITED);
    assert_eq!(all, vec![(0, 3)]);
    for (x, y) in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)] {
        let d = g.index_of(GeoPoint::new(x, y));
        assert!(d < 4);
    }
}

#[test]
fn rect_clipping_the_extent_clamps() {
    let g = unit(6);
    // Rect half outside the extent: decomposition covers the inside part.
    let rect = GeoRect::new(-0.5, -0.5, 0.25, 0.25);
    let ranges = g.decompose_rect(&rect, RangeBudget::UNLIMITED);
    assert!(!ranges.is_empty());
    let span: u64 = ranges.iter().map(|(lo, hi)| hi - lo + 1).sum();
    // Covers exactly the intersected quarter-ish of cells: 16×16 = 256.
    assert_eq!(span, 17 * 17, "16 interior cells + clamped border row/col");
}

#[test]
fn zero_budget_is_clamped_to_one() {
    let g = unit(5);
    let rect = GeoRect::new(0.1, 0.1, 0.9, 0.2);
    let r = g.decompose_rect(&rect, RangeBudget::new(0));
    assert_eq!(r.len(), 1);
}

#[test]
fn ranges_always_cover_contained_points() {
    let g = unit(9);
    let rect = GeoRect::new(0.33, 0.41, 0.57, 0.66);
    for budget in [1usize, 2, 7, 64, usize::MAX] {
        let ranges = g.decompose_rect(&rect, RangeBudget::new(budget.min(1 << 20)));
        for i in 0..10 {
            for j in 0..10 {
                let p = GeoPoint::new(
                    0.33 + 0.24 * f64::from(i) / 9.0,
                    0.41 + 0.25 * f64::from(j) / 9.0,
                );
                let d = g.index_of(p);
                assert!(
                    ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&d)),
                    "budget {budget}: point {p:?} uncovered"
                );
            }
        }
    }
}

/// The interior span holds only points inside the rectangle. Grids of
/// both curves over the world and over a fitted extent, orders 2–6 and
/// the paper's 13; rectangle sides anywhere from a quarter of the extent
/// before it to a quarter after it, optionally snapped onto grid lines;
/// probe points on the rectangle's sides, on grid lines, and outside the
/// extent, where `cell_of` clamps them into the border cells.
mod interior_span {
    use proptest::prelude::*;
    use sts_curve::{CurveGrid, CurveKind, PAPER_CURVE_ORDER};
    use sts_geo::{GeoPoint, GeoRect, WORLD};

    const FITTED: GeoRect = GeoRect::new(19.632533, 34.929233, 28.245285, 41.757797);
    const ORDERS: [u32; 6] = [2, 3, 4, 5, 6, PAPER_CURVE_ORDER];

    fn grid(z_order: bool, world: bool, order: u32) -> CurveGrid {
        let kind = if z_order {
            CurveKind::ZOrder
        } else {
            CurveKind::Hilbert
        };
        CurveGrid::new(if world { WORLD } else { FITTED }, order, kind)
    }

    /// The coordinate a fraction `f` of the way along one axis of the
    /// grid's extent, moved onto the nearest grid line when `snap`.
    fn along(g: &CurveGrid, lon_axis: bool, f: f64, snap: bool) -> f64 {
        let e = g.extent();
        let (lo, span) = if lon_axis {
            (e.min_lon, e.lon_span())
        } else {
            (e.min_lat, e.lat_span())
        };
        let n = g.cells_per_axis() as f64;
        let f = if snap { (f * n).round() / n } else { f };
        lo + f * span
    }

    fn in_span(span: (u64, u64, u64, u64), (x, y): (u64, u64)) -> bool {
        (span.0..=span.1).contains(&x) && (span.2..=span.3).contains(&y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn points_in_interior_cells_are_inside_the_rectangle(
            z_order in any::<bool>(),
            world in any::<bool>(),
            order in 0..ORDERS.len(),
            lons in (-0.25f64..1.25, -0.25f64..1.25),
            lats in (-0.25f64..1.25, -0.25f64..1.25),
            snap_rect in any::<bool>(),
            probes in prop::collection::vec(
                (0u8..4, -0.5f64..1.5, -0.5f64..1.5, any::<bool>()),
                64..65,
            ),
        ) {
            let g = grid(z_order, world, ORDERS[order]);
            let rect = GeoRect::new(
                along(&g, true, lons.0.min(lons.1), snap_rect),
                along(&g, false, lats.0.min(lats.1), snap_rect),
                along(&g, true, lons.0.max(lons.1), snap_rect),
                along(&g, false, lats.0.max(lats.1), snap_rect),
            );
            if let Some(span) = g.interior_span(&rect) {
                for (place, u, v, snap) in probes {
                    let p = match place {
                        // On a west or east side of the rectangle.
                        0 => GeoPoint::new(
                            if snap { rect.min_lon } else { rect.max_lon },
                            along(&g, false, v, false),
                        ),
                        // On a south or north side.
                        1 => GeoPoint::new(
                            along(&g, true, u, false),
                            if snap { rect.min_lat } else { rect.max_lat },
                        ),
                        // On grid lines (or anywhere), possibly outside the
                        // extent.
                        _ => GeoPoint::new(along(&g, true, u, snap), along(&g, false, v, snap)),
                    };
                    if in_span(span, g.cell_of(p)) {
                        prop_assert!(rect.contains(p), "{:?} {:?}: {:?} in {:?}", g, rect, p, span);
                    }
                }
                // The span is inside the cell span, and its corner cells'
                // centres really are inside the rectangle.
                let (x0, x1, y0, y1) = g.cell_span(&rect).unwrap();
                prop_assert!(x0 < span.0 && span.1 < x1 && y0 < span.2 && span.3 < y1);
                for (x, y) in [(span.0, span.2), (span.1, span.3)] {
                    prop_assert!(rect.contains(g.cell_rect(x, y).center()));
                }
            }
        }
    }

    #[test]
    fn nan_infinite_and_inverted_rectangles_have_no_span() {
        for z_order in [false, true] {
            for world in [false, true] {
                for order in ORDERS {
                    let g = grid(z_order, world, order);
                    let e = *g.extent();
                    let whole = GeoRect::new(
                        e.min_lon - 1.0,
                        e.min_lat - 1.0,
                        e.max_lon + 1.0,
                        e.max_lat + 1.0,
                    );
                    assert!(g.interior_span(&whole).is_some(), "{g:?}");
                    let bad = [
                        GeoRect {
                            min_lon: f64::NAN,
                            ..whole
                        },
                        GeoRect {
                            max_lat: f64::NAN,
                            ..whole
                        },
                        GeoRect {
                            min_lat: f64::NEG_INFINITY,
                            ..whole
                        },
                        GeoRect {
                            max_lon: f64::INFINITY,
                            ..whole
                        },
                        GeoRect::new(e.max_lon, e.min_lat, e.min_lon, e.max_lat),
                        GeoRect::new(e.min_lon, e.max_lat, e.max_lon, e.min_lat),
                    ];
                    for rect in bad {
                        assert_eq!(g.interior_span(&rect), None, "{g:?} {rect:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn spans_of_fewer_than_three_cells_a_side_have_no_interior() {
        let g = grid(false, false, 6);
        let a = g.cell_rect(10, 10);
        let b = g.cell_rect(11, 12);
        // Two columns by three rows: no column is strictly inside.
        let rect = GeoRect::new(a.min_lon, a.min_lat, b.max_lon - 1e-9, b.max_lat - 1e-9);
        assert_eq!(g.cell_span(&rect), Some((10, 11, 10, 12)));
        assert_eq!(g.interior_span(&rect), None);
        // A zero-area rectangle has none either.
        let c = g.cell_rect(20, 20).center();
        assert_eq!(g.interior_span(&GeoRect::from_corners(c, c)), None);
    }
}
