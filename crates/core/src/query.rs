//! Spatio-temporal query construction per approach.

use crate::{DATE_FIELD, HILBERT_FIELD, LOCATION_FIELD};
use std::time::{Duration, Instant};
use sts_curve::{CoveringScratch, Curve, RangeBudget};
use sts_document::{DateTime, Value};
use sts_geo::GeoRect;
use sts_query::Filter;

/// Reusable Hilbert-decomposition buffers: the curve layer's scratch plus
/// the covering-range list. A store owns one so repeated queries reuse
/// the same high-water-mark allocations instead of rebuilding them.
#[derive(Default)]
pub struct CoverBuffers {
    pub(crate) scratch: CoveringScratch,
    pub(crate) ranges: Vec<(u64, u64)>,
}

impl CoverBuffers {
    /// Empty buffers; they grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ranges produced by the last [`compute_covering`] call.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }
}

/// Run the curve's range decomposition for `rect` into `cover.ranges`,
/// returning the decomposition cost. This is the expensive half of
/// [`build_filter_with`], split out so the router's plan cache can skip
/// it on a hit (and compute it for a *quantized* rectangle on a miss)
/// while filter assembly stays exact.
pub fn compute_covering(
    rect: &GeoRect,
    grid: &dyn Curve,
    budget: RangeBudget,
    cover: &mut CoverBuffers,
) -> Duration {
    let start = Instant::now();
    cover.ranges.clear();
    grid.decompose_rect_into(rect, budget, &mut cover.scratch, &mut cover.ranges);
    start.elapsed()
}

/// Assemble the store-level filter from a query plus precomputed
/// covering ranges — the cheap half of [`build_filter_with`]. The
/// residual clauses (exact `$geoWithin` rectangle, exact `$gte`/`$lte`
/// date window) always come from `query` itself, so callers may pass
/// ranges computed for a *superset* rectangle (the router's quantized
/// plan keys) without affecting results. `ranges = None` builds the
/// curve-less baseline filter.
pub fn assemble_filter(query: &StQuery, ranges: Option<&[(u64, u64)]>) -> Filter {
    let mut clauses = vec![
        Filter::GeoWithin {
            path: LOCATION_FIELD.into(),
            rect: query.rect,
        },
        Filter::gte(DATE_FIELD, query.t0),
        Filter::lte(DATE_FIELD, query.t1),
    ];
    if let Some(ranges) = ranges {
        clauses.push(hilbert_clause(ranges));
    }
    Filter::And(clauses)
}

/// A spatio-temporal range query: "every point inside `rect` between
/// `t0` and `t1`" (both endpoints inclusive, like the paper's
/// `$gte`/`$lte`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StQuery {
    /// Spatial constraint.
    pub rect: GeoRect,
    /// Temporal lower bound (inclusive).
    pub t0: DateTime,
    /// Temporal upper bound (inclusive).
    pub t1: DateTime,
}

impl StQuery {
    /// Does a `(point, time)` pair satisfy the query?
    pub fn matches(&self, lon: f64, lat: f64, t: DateTime) -> bool {
        self.rect.contains(sts_geo::GeoPoint::new(lon, lat)) && t >= self.t0 && t <= self.t1
    }
}

/// Build the store-level filter for a query.
///
/// Baselines get `{location: $geoWithin, date: $gte/$lte}`. The Hilbert
/// methods additionally run the curve's range decomposition and attach
/// the `$or` of interval clauses / `$in` of single cells that §4.2.2
/// describes. Returns the filter plus the decomposition cost (the
/// quantity Table 8 reports) and the number of ranges produced.
pub fn build_filter(
    query: &StQuery,
    curve: Option<&dyn Curve>,
    budget: RangeBudget,
) -> (Filter, Duration, usize) {
    build_filter_with(query, curve, budget, &mut CoverBuffers::new())
}

/// [`build_filter`] with caller-owned decomposition buffers — the
/// store's hot path threads one [`CoverBuffers`] through every query so
/// the covering computation itself allocates nothing after warm-up.
pub fn build_filter_with(
    query: &StQuery,
    curve: Option<&dyn Curve>,
    budget: RangeBudget,
    cover: &mut CoverBuffers,
) -> (Filter, Duration, usize) {
    match curve {
        None => (assemble_filter(query, None), Duration::ZERO, 0),
        Some(grid) => {
            let hilbert_time = compute_covering(&query.rect, grid, budget, cover);
            let n = cover.ranges.len();
            (assemble_filter(query, Some(&cover.ranges)), hilbert_time, n)
        }
    }
}

/// Build the filter for a **polygonal** spatio-temporal query — the
/// paper's §6 future-work data type. The polygon's bounding box drives
/// index covering and Hilbert decomposition; the exact polygon runs as
/// the document-level refinement predicate.
pub fn build_polygon_filter(
    polygon: &sts_geo::GeoPolygon,
    t0: DateTime,
    t1: DateTime,
    curve: Option<&dyn Curve>,
    budget: RangeBudget,
) -> (Filter, Duration, usize) {
    build_polygon_filter_with(polygon, t0, t1, curve, budget, &mut CoverBuffers::new())
}

/// [`build_polygon_filter`] with caller-owned decomposition buffers.
pub fn build_polygon_filter_with(
    polygon: &sts_geo::GeoPolygon,
    t0: DateTime,
    t1: DateTime,
    curve: Option<&dyn Curve>,
    budget: RangeBudget,
    cover: &mut CoverBuffers,
) -> (Filter, Duration, usize) {
    let mut clauses = vec![
        Filter::GeoWithinPolygon {
            path: LOCATION_FIELD.into(),
            polygon: polygon.clone(),
        },
        Filter::gte(DATE_FIELD, t0),
        Filter::lte(DATE_FIELD, t1),
    ];
    let (hilbert_time, n_ranges) = match curve {
        None => (Duration::ZERO, 0),
        Some(grid) => {
            let start = Instant::now();
            cover.ranges.clear();
            grid.decompose_rect_into(
                polygon.bbox(),
                budget,
                &mut cover.scratch,
                &mut cover.ranges,
            );
            let elapsed = start.elapsed();
            let n = cover.ranges.len();
            clauses.push(hilbert_clause(&cover.ranges));
            (elapsed, n)
        }
    };
    (Filter::And(clauses), hilbert_time, n_ranges)
}

/// §4.2.2: consecutive cell values become `$gte`/`$lte` ranges inside an
/// `$or`; isolated single cells are gathered into one `$in`.
fn hilbert_clause(ranges: &[(u64, u64)]) -> Filter {
    let mut branches = Vec::new();
    let mut singles = Vec::new();
    for &(lo, hi) in ranges {
        if lo == hi {
            singles.push(Value::Int64(lo as i64));
        } else {
            branches.push(Filter::And(vec![
                Filter::gte(HILBERT_FIELD, lo as i64),
                Filter::lte(HILBERT_FIELD, hi as i64),
            ]));
        }
    }
    if !singles.is_empty() {
        branches.push(Filter::In {
            path: HILBERT_FIELD.into(),
            values: singles,
        });
    }
    if branches.is_empty() {
        // A query disjoint from the curve extent matches nothing via the
        // hilbert constraint; emit an impossible interval so routing
        // still targets (zero shards would also be fine, but MongoDB
        // sends such queries to one shard and gets nothing back).
        branches.push(Filter::eq(HILBERT_FIELD, -1i64));
    }
    Filter::Or(branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_curve::CurveGrid;
    use sts_query::QueryShape;

    fn q() -> StQuery {
        StQuery {
            rect: GeoRect::new(23.7, 37.9, 23.8, 38.0),
            t0: DateTime::from_millis(1_000),
            t1: DateTime::from_millis(9_000),
        }
    }

    #[test]
    fn baseline_filter_has_no_hilbert_clause() {
        let (f, t, n) = build_filter(&q(), None, RangeBudget::default());
        assert_eq!(t, Duration::ZERO);
        assert_eq!(n, 0);
        let shape = QueryShape::analyze(&f);
        assert!(shape.geo.is_some());
        assert!(shape.int_intervals.is_none());
        assert!(shape.range_for(DATE_FIELD).is_some());
    }

    #[test]
    fn hilbert_filter_carries_intervals() {
        let grid = CurveGrid::world(13);
        let (f, _, n) = build_filter(&q(), Some(&grid as &dyn Curve), RangeBudget::default());
        assert!(n >= 1);
        let shape = QueryShape::analyze(&f);
        let (path, ivs) = shape.int_intervals.expect("hilbert intervals");
        assert_eq!(path, HILBERT_FIELD);
        assert_eq!(ivs.len(), n);
        assert!(shape.fully_captured);
    }

    #[test]
    fn disjoint_rect_yields_impossible_clause() {
        let grid = CurveGrid::fitted(GeoRect::new(0.0, 0.0, 1.0, 1.0), 8);
        let far = StQuery {
            rect: GeoRect::new(50.0, 50.0, 51.0, 51.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(1),
        };
        let (f, _, n) = build_filter(&far, Some(&grid as &dyn Curve), RangeBudget::default());
        assert_eq!(n, 0);
        let shape = QueryShape::analyze(&f);
        let (_, ivs) = shape.int_intervals.unwrap();
        assert_eq!(ivs, vec![(-1, -1)]);
    }

    #[test]
    fn st_query_matches() {
        let query = q();
        assert!(query.matches(23.75, 37.95, DateTime::from_millis(5_000)));
        assert!(!query.matches(23.75, 37.95, DateTime::from_millis(10_000)));
        assert!(!query.matches(23.0, 37.95, DateTime::from_millis(5_000)));
    }
}
