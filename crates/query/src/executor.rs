//! Shard-local plan execution.

use crate::collection::LocalCollection;
use crate::explain::ExecutionStats;
use crate::filter::Filter;
use crate::plan::{IndexAccess, QueryPlan};
use std::ops::ControlFlow;
use std::time::Instant;
use sts_document::Document;
use sts_obs::AllocSpan;

/// Work budget for trial executions (MongoDB's multi-planner runs each
/// candidate for a bounded number of works).
#[derive(Clone, Copy, Debug)]
pub struct ExecBudget {
    /// Maximum closure invocations (≈ in-bounds keys examined) before the
    /// scan aborts with `completed == false`.
    pub max_works: u64,
}

/// Reusable per-executor buffers: result staging plus the index layer's
/// decode/seek-key scratch. Owning one across queries is what makes the
/// warmed-up hot path allocation-free — every buffer a query needs
/// already exists at its high-water capacity.
#[derive(Default)]
pub struct QueryScratch {
    /// Staged `(record id, document)` results; drained by the caller
    /// *outside* the measured hot section.
    out: Vec<(u64, Document)>,
    /// Value-decode and seek-key buffers threaded into `sts-index`.
    scan: sts_index::ScanScratch,
}

impl QueryScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the results staged by the last [`execute_plan_into`] call,
    /// leaving capacity in place for the next query.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (u64, Document)> {
        self.out.drain(..)
    }

    /// Results staged by the last [`execute_plan_into`] call.
    pub fn results(&self) -> &[(u64, Document)] {
        &self.out
    }
}

/// Execute `plan` against one shard's collection.
///
/// Every emitted index entry passes through the plan's key filters; the
/// survivors are fetched (counted in `docs_examined`) and checked against
/// the plan's residual — `filter` minus what the index access already
/// proved — or against all of `filter` when the plan carries none. That
/// refinement step is what keeps results exact however lossy the rest of
/// the bounds were. Matching documents are returned when `collect` is
/// true (routers set it false for trials).
pub fn execute_plan(
    coll: &LocalCollection,
    filter: &Filter,
    plan: &QueryPlan,
    budget: Option<ExecBudget>,
    collect: bool,
) -> (Vec<Document>, ExecutionStats) {
    let (pairs, stats) = execute_plan_with_rids(coll, filter, plan, budget, collect);
    (pairs.into_iter().map(|(_, d)| d).collect(), stats)
}

/// Like [`execute_plan`], but returns `(record id, document)` pairs —
/// what mutation paths (delete) need to act on the matches.
pub fn execute_plan_with_rids(
    coll: &LocalCollection,
    filter: &Filter,
    plan: &QueryPlan,
    budget: Option<ExecBudget>,
    collect: bool,
) -> (Vec<(u64, Document)>, ExecutionStats) {
    let mut scratch = QueryScratch::new();
    let stats = execute_plan_into(coll, filter, plan, budget, collect, &mut scratch);
    (std::mem::take(&mut scratch.out), stats)
}

/// The allocation-free core: execute `plan` staging matches into
/// `scratch` instead of a fresh `Vec`.
///
/// The section between the first index seek and the last staged result
/// is measured with an [`AllocSpan`]; on a warmed-up scratch (buffers at
/// their high-water capacity) the reported `stats.allocations` is zero.
/// The unavoidable allocations — `stats.index_used` and
/// `stats.residual`, cloned from the plan for explain output — happen
/// *before* the measured window on purpose: they are explain metadata,
/// not query work.
pub fn execute_plan_into(
    coll: &LocalCollection,
    filter: &Filter,
    plan: &QueryPlan,
    budget: Option<ExecBudget>,
    collect: bool,
    scratch: &mut QueryScratch,
) -> ExecutionStats {
    let start = Instant::now();
    let mut stats = ExecutionStats {
        index_used: plan.index_name.clone(),
        residual: plan.residual.clone(),
        completed: true,
        ..Default::default()
    };
    let residual = plan.residual.as_deref().unwrap_or(filter);
    // Split-borrow the scratch: the handler stages into `out` while the
    // index layer owns `scan` for the duration of the walk.
    let QueryScratch { out, scan } = scratch;
    out.clear();
    let Some(index) = coll.indexes().get(&plan.index_name) else {
        // Planner bug or dropped index; report an empty, failed scan.
        stats.completed = false;
        stats.duration = start.elapsed();
        return stats;
    };

    // Snapshot the committed epoch once: the whole scan reads "as of"
    // this instant, so a batch committed mid-scan is either entirely
    // visible (committed before this load) or entirely invisible.
    let snapshot = coll.snapshot();
    let max_works = budget.map_or(u64::MAX, |b| b.max_works);
    let mut works = 0u64;
    // Signals a budget abort out of the closure without borrowing
    // `stats` across the scan-loop check below.
    let aborted = std::cell::Cell::new(false);

    // Shared per-entry handler: key filters → fetch → residual filter.
    let mut handle = |values: &[sts_document::Value], rid: u64| -> ControlFlow<()> {
        works += 1;
        if works > max_works {
            aborted.set(true);
            return ControlFlow::Break(());
        }
        if !plan.key_filters.iter().all(|kf| kf.matches(values)) {
            return ControlFlow::Continue(());
        }
        // Everything from here is the FetchFilter stage: heap fetch plus
        // residual-filter evaluation (two clock reads per fetched doc).
        let fetch_start = Instant::now();
        let Some(doc) = coll.get_visible(rid, snapshot) else {
            // Tombstoned, or staged by a batch newer than our snapshot —
            // either way the record does not exist for this reader.
            stats.fetch_time += fetch_start.elapsed();
            return ControlFlow::Continue(());
        };
        stats.docs_examined += 1;
        if residual.matches(&doc) {
            stats.n_returned += 1;
            if collect {
                out.push((rid, doc));
            }
        }
        stats.fetch_time += fetch_start.elapsed();
        ControlFlow::Continue(())
    };

    let alloc_span = AllocSpan::start();
    let scan_stats = match &plan.access {
        IndexAccess::Sequential => index.scan_ranges_with(scan, &plan.ranges, &mut handle),
        IndexAccess::SkipScan { t_lo, t_hi } => {
            let mut acc = sts_index::ScanStats::default();
            for r in &plan.ranges {
                acc.merge(index.skip_scan_2d_with(scan, r, t_lo, t_hi, &mut handle));
                if aborted.get() {
                    break;
                }
            }
            acc
        }
    };
    // `handle` borrows `stats`/`out` mutably; the borrow ends here.
    let _ = &mut handle;
    stats.allocations = alloc_span.allocations();
    stats.completed = !aborted.get();
    stats.keys_examined = scan_stats.keys_examined;
    stats.seeks = scan_stats.seeks;
    stats.duration = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KeyFilter;
    use std::time::Duration;
    use sts_document::{doc, DateTime, Value};
    use sts_geo::GeoRect;
    use sts_index::{IndexField, IndexSpec, ScanRange};

    fn collection() -> LocalCollection {
        let mut c = LocalCollection::new();
        c.create_index(IndexSpec::single("_id"));
        c.create_index(IndexSpec::new(
            "hil",
            vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
        ));
        for h in 0..20i64 {
            for t in 0..20i64 {
                let mut d = doc! {
                    "location" => doc! {
                        "type" => "Point",
                        "coordinates" => vec![
                            Value::from(23.0 + h as f64 * 0.01),
                            Value::from(37.0 + t as f64 * 0.01),
                        ],
                    },
                    "hilbertIndex" => h,
                    "date" => DateTime::from_millis(t * 100),
                };
                d.ensure_id(0);
                c.insert(&d).unwrap();
            }
        }
        c
    }

    fn st_filter() -> Filter {
        Filter::And(vec![
            Filter::gte("hilbertIndex", 5i64),
            Filter::lte("hilbertIndex", 9i64),
            Filter::gte("date", DateTime::from_millis(300)),
            Filter::lte("date", DateTime::from_millis(700)),
        ])
    }

    fn hil_plan(access: IndexAccess) -> QueryPlan {
        QueryPlan {
            index_name: "hil".into(),
            ranges: vec![ScanRange::with_prefix(
                &[],
                Some((&Value::Int64(5), true)),
                Some((&Value::Int64(9), true)),
            )],
            access,
            key_filters: vec![],
            residual: None,
            is_fallback: false,
        }
    }

    #[test]
    fn sequential_and_skip_return_same_results() {
        let c = collection();
        let f = st_filter();
        let seq = execute_plan(&c, &f, &hil_plan(IndexAccess::Sequential), None, true);
        let skip = execute_plan(
            &c,
            &f,
            &hil_plan(IndexAccess::SkipScan {
                t_lo: Value::DateTime(DateTime::from_millis(300)),
                t_hi: Value::DateTime(DateTime::from_millis(700)),
            }),
            None,
            true,
        );
        assert_eq!(seq.1.n_returned, 5 * 5);
        assert_eq!(skip.1.n_returned, 5 * 5);
        // Residual filtering makes sequential fetch every key in the
        // hilbert range; skip-scan fetches only in-bounds ones.
        assert_eq!(seq.1.docs_examined, 5 * 20);
        assert_eq!(skip.1.docs_examined, 5 * 5);
        assert!(skip.1.keys_examined < seq.1.keys_examined);
    }

    #[test]
    fn key_filter_avoids_fetches() {
        let c = collection();
        let f = st_filter();
        let mut plan = hil_plan(IndexAccess::Sequential);
        plan.key_filters = vec![KeyFilter::from_interval(
            1,
            Value::DateTime(DateTime::from_millis(300)),
            Value::DateTime(DateTime::from_millis(700)),
        )];
        let (_, stats) = execute_plan(&c, &f, &plan, None, true);
        assert_eq!(stats.n_returned, 25);
        assert_eq!(stats.docs_examined, 25, "filtered keys are not fetched");
        assert_eq!(stats.keys_examined, 5 * 20 + 1, "but still examined");
    }

    #[test]
    fn budget_aborts_marked_incomplete() {
        let c = collection();
        let f = st_filter();
        let (_, stats) = execute_plan(
            &c,
            &f,
            &hil_plan(IndexAccess::Sequential),
            Some(ExecBudget { max_works: 10 }),
            false,
        );
        assert!(!stats.completed);
        assert!(stats.works() < 60);
    }

    #[test]
    fn residual_geo_filter_applies() {
        let c = collection();
        // Index gives hilbert range; residual restricts location too.
        let f = Filter::And(vec![
            Filter::gte("hilbertIndex", 0i64),
            Filter::lte("hilbertIndex", 19i64),
            Filter::GeoWithin {
                path: "location".into(),
                rect: GeoRect::new(23.0, 37.0, 23.05, 37.05),
            },
        ]);
        let plan = QueryPlan {
            index_name: "hil".into(),
            ranges: vec![ScanRange::whole()],
            access: IndexAccess::Sequential,
            key_filters: vec![],
            residual: None,
            is_fallback: false,
        };
        let (docs, stats) = execute_plan(&c, &f, &plan, None, true);
        assert_eq!(docs.len(), 6 * 6);
        assert_eq!(stats.n_returned, 36);
        assert_eq!(stats.docs_examined, 400, "no key filter: all fetched");
    }

    #[test]
    fn fetch_time_stays_within_the_execution_window() {
        let c = collection();
        let f = st_filter();
        let (_, stats) = execute_plan(&c, &f, &hil_plan(IndexAccess::Sequential), None, true);
        assert!(stats.fetch_time <= stats.duration);
        assert_eq!(stats.scan_time() + stats.fetch_time, stats.duration);
        assert!(stats.fetch_time > Duration::ZERO, "100 docs were fetched");
    }

    #[test]
    fn missing_index_reports_incomplete() {
        let c = collection();
        let plan = QueryPlan {
            index_name: "nope".into(),
            ranges: vec![],
            access: IndexAccess::Sequential,
            key_filters: vec![],
            residual: None,
            is_fallback: false,
        };
        let (docs, stats) = execute_plan(&c, &st_filter(), &plan, None, true);
        assert!(docs.is_empty());
        assert!(!stats.completed);
    }
}
