//! A key whose curve cell lies wholly inside the query rectangle skips
//! the fetched document's point-in-rectangle check. Whole-stack proof
//! that this never admits a point outside the rectangle nor drops one
//! inside: on `hil` and `hil*`, each with Hilbert and Z-order, degenerate
//! and border-hugging rectangles through `StStore::st_query` return
//! exactly the full-scan oracle's answer, on points placed on the
//! rectangles' edges, on the grid's cell lines, and just beside both.

mod support;

use sts::core::{Approach, StQuery};
use sts::curve::{CurveGrid, CurveKind, PAPER_CURVE_ORDER};
use sts::document::{doc, DateTime, Document, Value};
use sts::geo::{GeoPoint, GeoRect};
use support::oracle::{result_id_set, Oracle};
use support::store_for_curve;

const MBR: GeoRect = GeoRect {
    min_lon: 20.0,
    min_lat: 35.0,
    max_lon: 28.0,
    max_lat: 41.5,
};

/// The rectangles under test, named, for the grid `g` the store uses.
fn rectangles(g: &CurveGrid) -> Vec<(&'static str, GeoRect)> {
    let (cx, cy) = g.cell_of(GeoPoint::new(23.71, 37.97));
    let cells = |x0: u64, y0: u64, x1: u64, y1: u64| {
        let (lo, hi) = (g.cell_rect(x0, y0), g.cell_rect(x1, y1));
        GeoRect::new(lo.min_lon, lo.min_lat, hi.max_lon, hi.max_lat)
    };
    let e = *g.extent();
    let athens = GeoRect::new(23.6, 37.9, 23.9, 38.1);
    vec![
        ("zero-area", GeoRect::new(23.71, 37.97, 23.71, 37.97)),
        ("zero-width", GeoRect::new(23.71, 37.5, 23.71, 38.5)),
        ("single cell", cells(cx, cy, cx, cy)),
        ("three cells a side", cells(cx - 1, cy - 1, cx + 1, cy + 1)),
        (
            "edges on grid lines",
            cells(cx - 40, cy - 30, cx + 50, cy + 20),
        ),
        ("city", athens),
        (
            "inverted longitude",
            GeoRect::new(
                athens.max_lon,
                athens.min_lat,
                athens.min_lon,
                athens.max_lat,
            ),
        ),
        (
            "inverted latitude",
            GeoRect::new(
                athens.min_lon,
                athens.max_lat,
                athens.max_lon,
                athens.min_lat,
            ),
        ),
        (
            "NaN side",
            GeoRect {
                min_lon: f64::NAN,
                ..athens
            },
        ),
        (
            "infinite side",
            GeoRect {
                max_lat: f64::INFINITY,
                ..athens
            },
        ),
        ("the data's MBR", MBR),
        (
            "larger than the extent",
            GeoRect::new(
                e.min_lon - 5.0,
                e.min_lat - 5.0,
                e.max_lon + 5.0,
                e.max_lat + 5.0,
            ),
        ),
        (
            "partly outside the MBR",
            GeoRect::new(17.0, 32.0, 22.5, 37.25),
        ),
    ]
}

/// Points on every finite rectangle's corners and edge midpoints, on
/// the grid lines bounding its corner cells, a hair either side of
/// those, and a lattice over the MBR; only valid points are kept.
fn corpus(g: &CurveGrid) -> Vec<Document> {
    let mut points = Vec::new();
    for (_, r) in rectangles(g) {
        if ![r.min_lon, r.min_lat, r.max_lon, r.max_lat]
            .iter()
            .all(|v| v.is_finite())
        {
            continue;
        }
        let mid = r.center();
        let (lo, hi) = (
            g.cell_rect(g.cell_of(GeoPoint::new(r.min_lon, r.min_lat)).0, 0),
            g.cell_rect(g.cell_of(GeoPoint::new(r.max_lon, r.max_lat)).0, 0),
        );
        let lons = [
            r.min_lon, mid.lon, r.max_lon, lo.min_lon, lo.max_lon, hi.min_lon, hi.max_lon,
        ];
        let (lo, hi) = (
            g.cell_rect(0, g.cell_of(GeoPoint::new(r.min_lon, r.min_lat)).1),
            g.cell_rect(0, g.cell_of(GeoPoint::new(r.max_lon, r.max_lat)).1),
        );
        let lats = [
            r.min_lat, mid.lat, r.max_lat, lo.min_lat, lo.max_lat, hi.min_lat, hi.max_lat,
        ];
        for lon in lons {
            for lat in lats {
                for (dx, dy) in [
                    (0.0, 0.0),
                    (-1e-9, 0.0),
                    (1e-9, 0.0),
                    (0.0, -1e-9),
                    (0.0, 1e-9),
                ] {
                    points.push(GeoPoint::new(lon + dx, lat + dy));
                }
            }
        }
    }
    for i in 0..40 {
        for j in 0..40 {
            points.push(GeoPoint::new(
                MBR.min_lon + f64::from(i) * 0.2 + 0.013,
                MBR.min_lat + f64::from(j) * 0.16 + 0.007,
            ));
        }
    }
    points.retain(|p| p.is_valid());
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mut d = doc! {
                "location" => doc! {
                    "type" => "Point",
                    "coordinates" => vec![Value::from(p.lon), Value::from(p.lat)],
                },
                "date" => DateTime::from_millis(i as i64 * 1_000),
            };
            d.ensure_id(i as u32);
            d
        })
        .collect()
}

#[test]
fn degenerate_rectangles_match_the_full_scan_oracle() {
    for approach in [Approach::Hil, Approach::HilStar] {
        for kind in CurveKind::ALL {
            let grid = approach.curve(kind, PAPER_CURVE_ORDER, &MBR).unwrap();
            let docs = corpus(&grid);
            let store = store_for_curve(approach, kind, &docs, MBR, 4);
            assert_eq!(store.curve(), Some(&grid));
            let oracle = Oracle::new(docs);
            for (name, rect) in rectangles(&grid) {
                let q = StQuery {
                    rect,
                    t0: DateTime::from_millis(0),
                    t1: DateTime::from_millis(i64::MAX / 4),
                };
                let (got, _) = store.st_query(&q);
                let want = oracle.id_set(&q);
                assert_eq!(
                    result_id_set(&got),
                    want,
                    "{approach} {kind:?} {name} {rect:?}"
                );
                let has_interior = grid.interior_span(&rect).is_some();
                if matches!(name, "edges on grid lines" | "city" | "the data's MBR") {
                    assert!(
                        has_interior && !want.is_empty(),
                        "{approach} {kind:?} {name}"
                    );
                }
                let no_interior = [
                    "zero-area",
                    "zero-width",
                    "single cell",
                    "inverted longitude",
                    "inverted latitude",
                    "NaN side",
                    "infinite side",
                ];
                if no_interior.contains(&name) {
                    assert!(!has_interior, "{approach} {kind:?} {name}");
                }
            }
        }
    }
}
