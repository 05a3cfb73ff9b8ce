//! Candidate plan generation and MongoDB-style trial ranking.

use crate::collection::LocalCollection;
use crate::executor::{execute_plan, ExecBudget};
use crate::filter::Filter;
use crate::plan::{IndexAccess, KeyFilter, QueryPlan};
use crate::shape::QueryShape;
use std::sync::Arc;
use sts_document::Value;
use sts_geo::{cells_to_ranges, cover_rect};
use sts_index::{FieldKind, IndexSpec, ScanRange};

/// The query planner.
///
/// Plan *generation* is rule-based (which indexes can serve which
/// constraints, §3.1's leading-field rule); plan *selection* runs every
/// candidate for a bounded trial and keeps the most productive one —
/// the same strategy as MongoDB's multi-planner, and the mechanism that
/// reproduces Table 7's observed index choices without special-casing.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    /// Cell budget for `$geoWithin` coverings on 2dsphere scans.
    /// MongoDB keeps query coverings coarse (its S2 coverer defaults to
    /// ~20 cells), trading false positives for fewer seeks.
    pub geo_scan_cells: usize,
    /// Cell budget when the covering only feeds an index-level filter.
    /// MongoDB reuses the query's (coarse) covering for filters too, so
    /// this defaults to the same value as `geo_scan_cells`; raise it to
    /// ablate how much a finer filter covering would save.
    pub geo_filter_cells: usize,
    /// Trial execution budget per candidate plan.
    pub trial_works: u64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            geo_scan_cells: 20,
            geo_filter_cells: 20,
            trial_works: 512,
        }
    }
}

impl Planner {
    /// Generate every candidate plan for `filter` over the collection's
    /// indexes. Always returns at least one plan (the fallback scan).
    pub fn candidates(&self, coll: &LocalCollection, filter: &Filter) -> Vec<QueryPlan> {
        self.candidates_for(coll, &QueryShape::analyze(filter))
    }

    /// [`candidates`](Self::candidates) for an already analyzed filter.
    fn candidates_for(&self, coll: &LocalCollection, shape: &QueryShape) -> Vec<QueryPlan> {
        let mut plans = Vec::new();
        for index in coll.indexes().iter() {
            if let Some(plan) = self.plan_for_index(index.spec(), shape) {
                plans.push(plan);
            }
        }
        if plans.is_empty() {
            plans.push(self.fallback(coll));
        }
        plans
    }

    /// Unbounded scan through whichever index exists (prefer `_id`).
    fn fallback(&self, coll: &LocalCollection) -> QueryPlan {
        let name = coll
            .indexes()
            .get("_id")
            .map(|i| i.spec().name.clone())
            .or_else(|| coll.indexes().iter().next().map(|i| i.spec().name.clone()))
            .unwrap_or_else(|| "_id".to_string());
        QueryPlan {
            index_name: name,
            ranges: vec![ScanRange::whole()],
            access: IndexAccess::Sequential,
            key_filters: vec![],
            residual: None,
            is_fallback: true,
        }
    }

    /// Rule-based bounds derivation for one index. The plan's residual
    /// drops exactly what its bounds prove: the `$or`/`$in` that became
    /// B+tree intervals on the leading path, and the inclusive range
    /// held by the leading bounds, a skip-scan or an interval key
    /// filter. GeoHash cells only ever narrow the scan.
    fn plan_for_index(&self, spec: &IndexSpec, shape: &QueryShape) -> Option<QueryPlan> {
        let lead = &spec.fields[0];
        match lead.kind {
            FieldKind::Geo2dSphere { bits } => {
                // Usable only with a $geoWithin on the same path (§3.1:
                // a compound index needs its leading field constrained).
                let (gpath, rect) = shape.geo.as_ref()?;
                if gpath != &lead.path {
                    return None;
                }
                let cells = cover_rect(rect, bits, self.geo_scan_cells);
                let ranges = int_ranges_to_scan(&cells_to_ranges(&cells, bits));
                // Trailing predicates become index-level filters: the
                // 2dsphere stage does not seek on them (see
                // `IndexAccess::Sequential` docs).
                let (key_filters, range_proven) = self.trailing_filters(spec, shape);
                Some(QueryPlan {
                    index_name: spec.name.clone(),
                    ranges,
                    access: IndexAccess::Sequential,
                    key_filters,
                    residual: Some(Arc::new(shape.residual(false, range_proven))),
                    is_fallback: false,
                })
            }
            FieldKind::Asc => {
                if let Some((ipath, intervals)) = &shape.int_intervals {
                    if ipath == &lead.path {
                        // Hilbert-style disjunctive intervals.
                        let ranges: Vec<ScanRange> = intervals
                            .iter()
                            .map(|&(lo, hi)| {
                                ScanRange::with_prefix(
                                    &[],
                                    Some((&Value::Int64(lo), true)),
                                    Some((&Value::Int64(hi), true)),
                                )
                            })
                            .collect();
                        let access = self.trailing_skip(spec, shape);
                        let (key_filters, range_proven) =
                            if matches!(access, IndexAccess::SkipScan { .. }) {
                                (vec![], true)
                            } else {
                                self.trailing_filters(spec, shape)
                            };
                        return Some(QueryPlan {
                            index_name: spec.name.clone(),
                            ranges,
                            access,
                            key_filters,
                            residual: Some(Arc::new(shape.residual(true, range_proven))),
                            is_fallback: false,
                        });
                    }
                }
                let iv = shape.range_for(&lead.path)?;
                if !iv.is_constrained() {
                    return None;
                }
                let ranges = vec![ScanRange::with_prefix(
                    &[],
                    iv.lo.as_ref().map(|v| (v, true)),
                    iv.hi.as_ref().map(|v| (v, true)),
                )];
                let (key_filters, _) = self.trailing_filters(spec, shape);
                Some(QueryPlan {
                    index_name: spec.name.clone(),
                    ranges,
                    access: IndexAccess::Sequential,
                    key_filters,
                    residual: Some(Arc::new(shape.residual(false, true))),
                    is_fallback: false,
                })
            }
            // Hashed indexes serve only equality; the paper's workload
            // never issues one, so they are not planned for.
            FieldKind::Hashed => None,
        }
    }

    /// Skip-scan access when the second field has a two-sided interval.
    fn trailing_skip(&self, spec: &IndexSpec, shape: &QueryShape) -> IndexAccess {
        if let Some(f1) = spec.fields.get(1) {
            if matches!(f1.kind, FieldKind::Asc) {
                if let Some(iv) = shape.range_for(&f1.path) {
                    if let (Some(lo), Some(hi)) = (&iv.lo, &iv.hi) {
                        return IndexAccess::SkipScan {
                            t_lo: lo.clone(),
                            t_hi: hi.clone(),
                        };
                    }
                }
            }
        }
        IndexAccess::Sequential
    }

    /// Index-level filters for the compound fields after the leading
    /// one, and whether one of them holds the shape's range to its
    /// inclusive `[lo, hi]` interval.
    fn trailing_filters(&self, spec: &IndexSpec, shape: &QueryShape) -> (Vec<KeyFilter>, bool) {
        let mut filters = Vec::new();
        let mut range_proven = false;
        for (pos, field) in spec.fields.iter().enumerate().skip(1) {
            match field.kind {
                FieldKind::Asc => {
                    if let Some((ipath, intervals)) = &shape.int_intervals {
                        if ipath == &field.path {
                            filters.push(KeyFilter::from_int_ranges(pos, intervals));
                            continue;
                        }
                    }
                    if let Some(iv) = shape.range_for(&field.path) {
                        if let (Some(lo), Some(hi)) = (&iv.lo, &iv.hi) {
                            filters.push(KeyFilter::from_interval(pos, lo.clone(), hi.clone()));
                            range_proven = true;
                        }
                    }
                }
                FieldKind::Geo2dSphere { bits } => {
                    if let Some((gpath, rect)) = &shape.geo {
                        if gpath == &field.path {
                            let cells = cover_rect(rect, bits, self.geo_filter_cells);
                            let ranges = cells_to_ranges(&cells, bits);
                            filters.push(KeyFilter::from_int_ranges(pos, &to_i64_ranges(&ranges)));
                        }
                    }
                }
                FieldKind::Hashed => {}
            }
        }
        (filters, range_proven)
    }

    /// Choose a plan by trial execution (multi-planner).
    pub fn choose(&self, coll: &LocalCollection, filter: &Filter) -> QueryPlan {
        self.choose_for(coll, &QueryShape::analyze(filter))
    }

    /// [`choose`](Self::choose) for an already analyzed filter — the
    /// router analyzes once per query, not once per shard.
    pub fn choose_for(&self, coll: &LocalCollection, shape: &QueryShape) -> QueryPlan {
        let filter = shape.filter();
        let mut plans = self.candidates_for(coll, shape);
        if plans.len() == 1 {
            return plans.pop().unwrap();
        }
        let budget = Some(ExecBudget {
            max_works: self.trial_works,
        });
        let mut best: Option<(f64, u64, QueryPlan)> = None;
        for plan in plans {
            let (_, stats) = execute_plan(coll, filter, &plan, budget, false);
            let score = stats.productivity();
            let works = stats.works();
            let better = match &best {
                None => true,
                Some((bscore, bworks, _)) => {
                    score > *bscore || (score == *bscore && works < *bworks)
                }
            };
            if better {
                best = Some((score, works, plan));
            }
        }
        best.expect("candidates is never empty").2
    }
}

fn int_ranges_to_scan(ranges: &[(u64, u64)]) -> Vec<ScanRange> {
    ranges
        .iter()
        .map(|&(lo, hi)| {
            ScanRange::with_prefix(
                &[],
                Some((&Value::Int64(lo as i64), true)),
                Some((&Value::Int64(hi as i64), true)),
            )
        })
        .collect()
}

fn to_i64_ranges(ranges: &[(u64, u64)]) -> Vec<(i64, i64)> {
    ranges
        .iter()
        .map(|&(lo, hi)| (lo as i64, hi as i64))
        .collect()
}
