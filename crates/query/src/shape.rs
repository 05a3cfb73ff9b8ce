//! Normalizing filters into planner-friendly shapes.

use crate::filter::{CmpOp, Filter};
use std::cmp::Ordering;
use sts_document::{Value, ValueKind};
use sts_geo::GeoRect;

/// An interval over one field's values; `None` endpoints are unbounded.
/// Present endpoints are inclusive (strict predicates widen to inclusive
/// index bounds and rely on residual filtering).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValueInterval {
    /// Inclusive lower endpoint, if bounded.
    pub lo: Option<Value>,
    /// Inclusive upper endpoint, if bounded.
    pub hi: Option<Value>,
}

impl ValueInterval {
    /// Intersect with another lower endpoint (keep the larger).
    fn tighten_lo(&mut self, v: Value) {
        match &self.lo {
            Some(cur) if v.canonical_cmp(cur) != Ordering::Greater => {}
            _ => self.lo = Some(v),
        }
    }

    /// Intersect with another upper endpoint (keep the smaller).
    fn tighten_hi(&mut self, v: Value) {
        match &self.hi {
            Some(cur) if v.canonical_cmp(cur) != Ordering::Less => {}
            _ => self.hi = Some(v),
        }
    }

    /// Whether any endpoint is set.
    pub fn is_constrained(&self) -> bool {
        self.lo.is_some() || self.hi.is_some()
    }
}

/// The planner's view of a query: per-dimension constraints pulled out of
/// the `$and` tree.
///
/// This intentionally covers the paper's query class — conjunctions of a
/// spatial rectangle, a temporal interval and (for the Hilbert methods)
/// an `$or` of 1D intervals on one integer field. Anything outside that
/// class clears `fully_captured` and is handled by residual filtering on
/// fetched documents (which always runs anyway for exactness).
///
/// A shape borrows the filter it was analyzed from, so the two cannot
/// be paired wrongly: [`residual`](Self::residual) drops conjuncts of
/// that filter and no other.
#[derive(Clone, Debug)]
pub struct QueryShape<'f> {
    /// The analyzed filter.
    filter: &'f Filter,
    /// `$geoWithin` rectangle (path, rect).
    pub geo: Option<(String, GeoRect)>,
    /// Interval constraint (path, interval) from `$gte`/`$lte`/`$eq`.
    pub range: Option<(String, ValueInterval)>,
    /// Disjunctive integer intervals on one path (`$or` of range clauses
    /// plus `$in` singletons — the Hilbert constraint of §4.2.2),
    /// sorted and merged.
    pub int_intervals: Option<(String, Vec<(i64, i64)>)>,
    /// Whether every predicate was absorbed into the fields above.
    pub fully_captured: bool,
    /// Position, among the filter's top-level conjuncts, of the one
    /// `$or`/`$in` that admits *exactly* `int_intervals`. `None` when
    /// several were unioned (the filter intersects them) or merging
    /// bridged two neighbouring integers (a fractional double between
    /// them is inside the merged interval, outside the filter's).
    int_conjunct: Option<usize>,
}

/// The leaves of a filter's top-level `$and` tree, in order.
fn conjuncts(filter: &Filter) -> Vec<&Filter> {
    fn walk<'a>(filter: &'a Filter, out: &mut Vec<&'a Filter>) {
        match filter {
            Filter::And(fs) => fs.iter().for_each(|f| walk(f, out)),
            leaf => out.push(leaf),
        }
    }
    let mut out = Vec::new();
    walk(filter, &mut out);
    out
}

impl<'f> QueryShape<'f> {
    /// Analyze a filter.
    pub fn analyze(filter: &'f Filter) -> QueryShape<'f> {
        let mut shape = QueryShape {
            filter,
            geo: None,
            range: None,
            int_intervals: None,
            fully_captured: true,
            int_conjunct: None,
        };
        for (at, conjunct) in conjuncts(filter).into_iter().enumerate() {
            shape.absorb(at, conjunct);
        }
        if let Some((_, ivs)) = &mut shape.int_intervals {
            ivs.sort_unstable();
            let mut merged: Vec<(i64, i64)> = Vec::with_capacity(ivs.len());
            for &(lo, hi) in ivs.iter() {
                match merged.last_mut() {
                    Some((_, ph)) if lo <= ph.saturating_add(1) => {
                        if lo > *ph {
                            shape.int_conjunct = None;
                        }
                        *ph = (*ph).max(hi);
                    }
                    _ => merged.push((lo, hi)),
                }
            }
            *ivs = merged;
        }
        shape
    }

    /// The filter this shape was analyzed from.
    pub fn filter(&self) -> &'f Filter {
        self.filter
    }

    /// The filter minus the top-level conjuncts an index access has
    /// already proven for every key it emits — what is left to check
    /// on the fetched document.
    ///
    /// `intervals_proven`: the B+tree bounds are `int_intervals` on
    /// their path, so the one `$or`/`$in` they came from is dropped.
    /// `range_proven`: the keys' value on the `range` path is held
    /// inside `[lo, hi]`; then every inclusive comparison on that path
    /// is dropped, provided both endpoints and the comparison's own
    /// value share one type bracket other than null — only then does
    /// "inside the window" imply the comparison under MongoDB's type
    /// bracketing, and only then is a missing field (indexed as null)
    /// outside it. Strict comparisons (bounds are widened), geometry
    /// (coverings are supersets) and everything unabsorbed stay.
    pub fn residual(&self, intervals_proven: bool, range_proven: bool) -> Filter {
        let window = self
            .range
            .as_ref()
            .filter(|_| range_proven)
            .and_then(|(path, iv)| match (&iv.lo, &iv.hi) {
                (Some(lo), Some(hi)) if lo.kind() == hi.kind() && lo.kind() != ValueKind::Null => {
                    Some((path, lo.kind()))
                }
                _ => None,
            });
        let mut kept: Vec<Filter> = conjuncts(self.filter)
            .into_iter()
            .enumerate()
            .filter(|&(at, conjunct)| match conjunct {
                Filter::Cmp { path, op, value } => {
                    matches!(op, CmpOp::Gt | CmpOp::Lt) || window != Some((path, value.kind()))
                }
                Filter::Or(_) | Filter::In { .. } => {
                    !(intervals_proven && self.int_conjunct == Some(at))
                }
                _ => true,
            })
            .map(|(_, conjunct)| conjunct.clone())
            .collect();
        if kept.len() == 1 {
            kept.remove(0)
        } else {
            Filter::And(kept)
        }
    }

    /// The interval constraint for `path`, if any.
    pub fn range_for(&self, path: &str) -> Option<&ValueInterval> {
        match &self.range {
            Some((p, iv)) if p == path => Some(iv),
            _ => None,
        }
    }

    /// Absorb the top-level conjunct at position `at`.
    fn absorb(&mut self, at: usize, conjunct: &Filter) {
        match conjunct {
            Filter::And(_) => unreachable!("`conjuncts` flattens nested conjunctions"),
            Filter::GeoWithin { path, rect } => {
                if self.geo.is_none() {
                    self.geo = Some((path.clone(), *rect));
                } else {
                    self.fully_captured = false;
                }
            }
            Filter::GeoWithinPolygon { path, polygon } => {
                // Plan through the bounding box; the box is a superset of
                // the polygon, so document-level refinement must run.
                if self.geo.is_none() {
                    self.geo = Some((path.clone(), *polygon.bbox()));
                }
                self.fully_captured = false;
            }
            Filter::Cmp { path, op, value } => {
                if matches!(op, CmpOp::Gt | CmpOp::Lt) {
                    self.fully_captured = false;
                }
                let iv = self.interval_for(path);
                let Some(iv) = iv else {
                    self.fully_captured = false;
                    return;
                };
                match op {
                    CmpOp::Gte | CmpOp::Gt => iv.tighten_lo(value.clone()),
                    CmpOp::Lte | CmpOp::Lt => iv.tighten_hi(value.clone()),
                    CmpOp::Eq => {
                        iv.tighten_lo(value.clone());
                        iv.tighten_hi(value.clone());
                    }
                }
            }
            Filter::Or(branches) => {
                if self.int_intervals.is_some() || !self.absorb_or(at, branches) {
                    self.fully_captured = false;
                }
            }
            Filter::In { path, values } => {
                if !values.is_empty() && values.iter().all(|v| v.as_i64().is_some()) {
                    let ivs = values
                        .iter()
                        .map(|v| {
                            let x = v.as_i64().unwrap();
                            (x, x)
                        })
                        .collect();
                    self.push_int_intervals(at, path, ivs);
                } else {
                    self.fully_captured = false;
                }
            }
        }
    }

    /// Mutable interval for `path` — only one ranged path is tracked.
    fn interval_for(&mut self, path: &str) -> Option<&mut ValueInterval> {
        match &mut self.range {
            None => {
                self.range = Some((path.to_string(), ValueInterval::default()));
                Some(&mut self.range.as_mut().unwrap().1)
            }
            Some((p, _)) if p == path => Some(&mut self.range.as_mut().unwrap().1),
            Some(_) => None,
        }
    }

    /// Try to absorb an `$or` of interval clauses over a single integer
    /// path. Returns `false` when the disjunction has any other form.
    /// Absorption is exact — `residual` may drop the `$or` on the
    /// strength of it: repeated bounds inside a branch intersect, and a
    /// branch they leave empty contributes no interval.
    fn absorb_or(&mut self, at: usize, branches: &[Filter]) -> bool {
        let mut path: Option<String> = None;
        let mut ivs: Vec<(i64, i64)> = Vec::new();
        for b in branches {
            match b {
                Filter::And(parts) => {
                    let (mut lo, mut hi) = (None, None);
                    for p in parts {
                        let Filter::Cmp {
                            path: pp,
                            op,
                            value,
                        } = p
                        else {
                            return false;
                        };
                        let Some(x) = value.as_i64() else {
                            return false;
                        };
                        if path.get_or_insert_with(|| pp.clone()) != pp {
                            return false;
                        }
                        // `None < Some(_)`: `max` keeps the larger lower
                        // bound; the upper one needs the explicit `min`.
                        let at_most = |hi: Option<i64>| Some(hi.map_or(x, |h| h.min(x)));
                        match op {
                            CmpOp::Gte => lo = lo.max(Some(x)),
                            CmpOp::Lte => hi = at_most(hi),
                            CmpOp::Eq => {
                                lo = lo.max(Some(x));
                                hi = at_most(hi);
                            }
                            CmpOp::Gt | CmpOp::Lt => return false,
                        }
                    }
                    let (Some(lo), Some(hi)) = (lo, hi) else {
                        return false;
                    };
                    if lo <= hi {
                        ivs.push((lo, hi));
                    }
                }
                Filter::Cmp {
                    path: pp,
                    op: CmpOp::Eq,
                    value,
                } => {
                    let Some(x) = value.as_i64() else {
                        return false;
                    };
                    if path.get_or_insert_with(|| pp.clone()) != pp {
                        return false;
                    }
                    ivs.push((x, x));
                }
                Filter::In { path: pp, values } => {
                    if values.is_empty() || !values.iter().all(|v| v.as_i64().is_some()) {
                        return false;
                    }
                    if path.get_or_insert_with(|| pp.clone()) != pp {
                        return false;
                    }
                    ivs.extend(values.iter().map(|v| {
                        let x = v.as_i64().unwrap();
                        (x, x)
                    }));
                }
                _ => return false,
            }
        }
        // `ivs` may be empty — every branch emptied by its own bounds:
        // the `$or` admits nothing, and neither do zero scan ranges.
        match path {
            Some(p) => {
                self.push_int_intervals(at, &p, ivs);
                true
            }
            None => false,
        }
    }

    fn push_int_intervals(&mut self, at: usize, path: &str, ivs: Vec<(i64, i64)>) {
        match &mut self.int_intervals {
            None => {
                self.int_intervals = Some((path.to_string(), ivs));
                self.int_conjunct = Some(at);
            }
            Some((p, existing)) if p == path => {
                existing.extend(ivs);
                self.int_conjunct = None;
            }
            Some(_) => self.fully_captured = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::DateTime;

    fn dt(ms: i64) -> Value {
        Value::DateTime(DateTime::from_millis(ms))
    }

    #[test]
    fn paper_hilbert_query_shape() {
        let q = Filter::And(vec![
            Filter::GeoWithin {
                path: "location".into(),
                rect: GeoRect::new(23.7, 37.9, 23.8, 38.0),
            },
            Filter::gte("date", DateTime::from_millis(1_000)),
            Filter::lte("date", DateTime::from_millis(9_000)),
            Filter::Or(vec![
                Filter::And(vec![
                    Filter::gte("hilbertIndex", 40i64),
                    Filter::lte("hilbertIndex", 45i64),
                ]),
                Filter::In {
                    path: "hilbertIndex".into(),
                    values: vec![Value::Int64(99), Value::Int64(47)],
                },
            ]),
        ]);
        let s = QueryShape::analyze(&q);
        assert!(s.fully_captured);
        assert_eq!(s.geo.as_ref().unwrap().0, "location");
        let iv = s.range_for("date").unwrap();
        assert_eq!(iv.lo, Some(dt(1_000)));
        assert_eq!(iv.hi, Some(dt(9_000)));
        assert_eq!(
            s.int_intervals,
            Some(("hilbertIndex".into(), vec![(40, 45), (47, 47), (99, 99)]))
        );
    }

    #[test]
    fn adjacent_intervals_merge() {
        let q = Filter::Or(vec![
            Filter::eq("h", 5i64),
            Filter::eq("h", 6i64),
            Filter::And(vec![Filter::gte("h", 7i64), Filter::lte("h", 9i64)]),
        ]);
        let s = QueryShape::analyze(&q);
        assert_eq!(s.int_intervals, Some(("h".into(), vec![(5, 9)])));
    }

    #[test]
    fn repeated_bounds_in_an_or_branch_intersect() {
        let branch = |parts| Filter::Or(vec![Filter::And(parts)]);
        let q = branch(vec![
            Filter::gte("h", 5i64),
            Filter::gte("h", 3i64),
            Filter::lte("h", 10i64),
            Filter::lte("h", 12i64),
        ]);
        let s = QueryShape::analyze(&q);
        assert_eq!(s.int_intervals, Some(("h".into(), vec![(5, 10)])));
        // A branch its own bounds leave empty contributes no interval;
        // an `$or` of only such branches admits nothing.
        let empty = vec![Filter::gte("h", 7i64), Filter::eq("h", 5i64)];
        let q = Filter::Or(vec![Filter::And(empty.clone()), Filter::eq("h", 9i64)]);
        let s = QueryShape::analyze(&q);
        assert_eq!(s.int_intervals, Some(("h".into(), vec![(9, 9)])));
        let q = branch(empty);
        let s = QueryShape::analyze(&q);
        assert_eq!(s.int_intervals, Some(("h".into(), vec![])));
        assert!(s.fully_captured);
    }

    #[test]
    fn conflicting_bounds_intersect() {
        let q = Filter::And(vec![
            Filter::gte("date", DateTime::from_millis(100)),
            Filter::gte("date", DateTime::from_millis(200)),
            Filter::lte("date", DateTime::from_millis(900)),
            Filter::lte("date", DateTime::from_millis(800)),
        ]);
        let s = QueryShape::analyze(&q);
        let iv = s.range_for("date").unwrap();
        assert_eq!(iv.lo, Some(dt(200)));
        assert_eq!(iv.hi, Some(dt(800)));
        assert!(s.fully_captured);
    }

    #[test]
    fn half_open_interval() {
        let q = Filter::gte("date", DateTime::from_millis(5));
        let s = QueryShape::analyze(&q);
        let iv = s.range_for("date").unwrap();
        assert_eq!(iv.lo, Some(dt(5)));
        assert_eq!(iv.hi, None);
        assert!(iv.is_constrained());
    }

    #[test]
    fn heterogeneous_or_is_not_captured() {
        let q = Filter::Or(vec![Filter::eq("h", 5i64), Filter::eq("speed", 1i64)]);
        let s = QueryShape::analyze(&q);
        assert!(!s.fully_captured);
        assert!(s.int_intervals.is_none());
    }

    #[test]
    fn strict_ops_widen_and_flag_residual() {
        let q = Filter::And(vec![Filter::Cmp {
            path: "date".into(),
            op: CmpOp::Gt,
            value: dt(100),
        }]);
        let s = QueryShape::analyze(&q);
        assert!(!s.fully_captured);
        assert_eq!(s.range_for("date").unwrap().lo, Some(dt(100)));
    }

    #[test]
    fn second_ranged_path_is_residual() {
        let q = Filter::And(vec![
            Filter::gte("date", DateTime::from_millis(1)),
            Filter::gte("speed", 10.0),
        ]);
        let s = QueryShape::analyze(&q);
        assert!(!s.fully_captured);
        // First path keeps its constraint.
        assert!(s.range_for("date").is_some());
    }
}
