//! Physical query plans.

use crate::filter::Filter;
use std::cmp::Ordering;
use std::sync::Arc;
use sts_curve::CurveGrid;
use sts_document::Value;
use sts_index::ScanRange;

/// How the chosen index is traversed.
#[derive(Clone, Debug)]
pub enum IndexAccess {
    /// Sequential scan of each range, examining every key.
    ///
    /// This is what MongoDB's 2dsphere stages do: the spatial covering
    /// produces the bounds and every other predicate (e.g. the date
    /// interval) is applied as an index-level *filter* — keys still
    /// count as examined. The paper's baselines pay exactly this cost.
    Sequential,
    /// Two-field skip-scan: trailing field constrained to
    /// `[t_lo, t_hi]` with in-bounds seeking (see
    /// [`sts_index::Index::skip_scan_2d`]). Available to plain
    /// ascending compound indexes — i.e. the Hilbert methods'
    /// `(hilbertIndex, date)` index — where MongoDB performs true
    /// interval intersection.
    SkipScan {
        /// Inclusive lower trailing bound.
        t_lo: Value,
        /// Inclusive upper trailing bound.
        t_hi: Value,
    },
}

/// Index-level filter over decoded key values: the value at `field_pos`
/// must fall into one of the sorted, disjoint inclusive `ranges`
/// (GeoHash cell membership, date intervals, Hilbert intervals).
#[derive(Clone, Debug)]
pub struct KeyFilter {
    /// Which decoded key field to test.
    pub field_pos: usize,
    /// Sorted, disjoint inclusive value ranges.
    pub ranges: Vec<(Value, Value)>,
}

impl KeyFilter {
    /// Build from integer ranges.
    pub fn from_int_ranges(field_pos: usize, ranges: &[(i64, i64)]) -> Self {
        KeyFilter {
            field_pos,
            ranges: ranges
                .iter()
                .map(|&(lo, hi)| (Value::Int64(lo), Value::Int64(hi)))
                .collect(),
        }
    }

    /// Build from a single inclusive value interval.
    pub fn from_interval(field_pos: usize, lo: Value, hi: Value) -> Self {
        KeyFilter {
            field_pos,
            ranges: vec![(lo, hi)],
        }
    }

    /// Test a decoded key.
    pub fn matches(&self, values: &[Value]) -> bool {
        let Some(v) = values.get(self.field_pos) else {
            return false;
        };
        // Binary search over disjoint sorted ranges: first range whose
        // upper endpoint is not below v.
        let idx = self
            .ranges
            .partition_point(|(_, hi)| hi.canonical_cmp(v) == Ordering::Less);
        self.ranges.get(idx).is_some_and(|(lo, hi)| {
            lo.canonical_cmp(v) != Ordering::Greater && v.canonical_cmp(hi) != Ordering::Greater
        })
    }
}

/// The curve cells wholly inside a query's `$geoWithin` rectangle, for
/// a plan whose index leads with a curve-cell field (see
/// [`sts_index::CurveCells`]). A key whose cell lies here belongs to a
/// document whose point is inside the rectangle, so its fetch is checked
/// against `residual`, which is the plan's residual minus the rectangle.
/// Only the planner builds one: the span must come from the rectangle
/// the residual lost.
#[derive(Clone, Debug)]
pub struct InteriorCells {
    /// The grid the leading key field's cells are on.
    pub(crate) grid: CurveGrid,
    /// Inclusive cell span `(x0, x1, y0, y1)`, from
    /// [`CurveGrid::interior_span`].
    pub(crate) span: (u64, u64, u64, u64),
    /// What is left to check on a document whose key is in the span.
    pub(crate) residual: Arc<Filter>,
}

impl InteriorCells {
    /// Whether a decoded key's leading value is a cell of the span.
    /// Index keys decode every number as a double; the planner builds
    /// a span only for grids whose cell indexes a double holds exactly.
    pub(crate) fn contains(&self, values: &[Value]) -> bool {
        let Some(d) = values.first().and_then(Value::as_f64) else {
            return false;
        };
        if !(0.0..self.grid.total_cells() as f64).contains(&d) || d.fract() != 0.0 {
            return false;
        }
        let (x, y) = self.grid.cell_of_index(d as u64);
        let (x0, x1, y0, y1) = self.span;
        (x0..=x1).contains(&x) && (y0..=y1).contains(&y)
    }
}

/// A fully-determined access path for one shard-local execution.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Name of the index to traverse; shared with the
    /// [`ExecutionStats`](crate::ExecutionStats) of every run.
    pub index_name: Arc<str>,
    /// B+tree intervals over the leading field(s).
    pub ranges: Vec<ScanRange>,
    /// Traversal mode.
    pub access: IndexAccess,
    /// Index-level filters on decoded keys (applied before fetching).
    pub key_filters: Vec<KeyFilter>,
    /// What is left to check on a fetched document: the query's filter
    /// minus the conjuncts `ranges`, `access` and `key_filters` already
    /// prove for every key they let through (see
    /// [`QueryShape::residual`](crate::QueryShape::residual)). `None`
    /// when nothing is proven — the whole filter is checked. Shared
    /// with the [`ExecutionStats`](crate::ExecutionStats) of every run
    /// of the plan, hence the `Arc`.
    pub residual: Option<Arc<Filter>>,
    /// The keys whose documents skip the `$geoWithin` rectangle of
    /// `residual`; `None` when the index holds no curve cells or the
    /// rectangle has no interior cells.
    pub interior: Option<InteriorCells>,
    /// True when this plan is an unbounded fallback scan (no usable
    /// index constraint — MongoDB's COLLSCAN equivalent through `_id`).
    pub is_fallback: bool,
}

impl QueryPlan {
    /// Short human-readable description (for Table 7-style reporting).
    pub fn describe(&self) -> String {
        let mode = match self.access {
            IndexAccess::Sequential => "seq",
            IndexAccess::SkipScan { .. } => "skip",
        };
        let kf = if self.key_filters.is_empty() {
            ""
        } else {
            "+keyFilter"
        };
        format!(
            "{} [{} range(s), {mode}{kf}{}]",
            self.index_name,
            self.ranges.len(),
            if self.is_fallback { ", fallback" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::DateTime;

    #[test]
    fn int_key_filter_membership() {
        let kf = KeyFilter::from_int_ranges(1, &[(10, 20), (30, 30), (40, 50)]);
        let v = |x: i64| vec![Value::Null, Value::Int64(x)];
        for hit in [10, 15, 20, 30, 40, 50] {
            assert!(kf.matches(&v(hit)), "{hit}");
        }
        for miss in [9, 25, 31, 39, 51] {
            assert!(!kf.matches(&v(miss)), "{miss}");
        }
        assert!(!kf.matches(&[Value::Null]));
        assert!(!kf.matches(&[Value::Null, Value::from("x")]));
    }

    #[test]
    fn datetime_interval_filter() {
        let kf = KeyFilter::from_interval(
            0,
            Value::DateTime(DateTime::from_millis(100)),
            Value::DateTime(DateTime::from_millis(200)),
        );
        let v = |ms: i64| vec![Value::DateTime(DateTime::from_millis(ms))];
        assert!(kf.matches(&v(100)));
        assert!(kf.matches(&v(150)));
        assert!(kf.matches(&v(200)));
        assert!(!kf.matches(&v(99)));
        assert!(!kf.matches(&v(201)));
    }

    #[test]
    fn describe_mentions_mode() {
        let p = QueryPlan {
            index_name: "st".into(),
            ranges: vec![],
            access: IndexAccess::Sequential,
            key_filters: vec![],
            residual: None,
            interior: None,
            is_fallback: false,
        };
        assert!(p.describe().contains("seq"));
        assert!(p.describe().contains("st"));
    }
}
