//! Allocation hygiene for the query hot path.
//!
//! This binary installs [`sts::obs::CountingAllocator`] as the global
//! allocator, so the executor's `AllocSpan` instrumentation measures
//! real allocations. The contract under test: after a warm-up pass
//! (scratch buffers at their high-water capacity), executing the same
//! spatio-temporal query performs **zero** heap allocations inside the
//! executor hot section on every shard — the scan, fetch, residual
//! filter and result staging all run out of reused buffers. The
//! planning stages before it are held too: a warmed covering allocates
//! nothing, routing allocates no more for more intervals, and the
//! candidate plans are built once per query, not once per target shard.
//! On the write side, a batch commit's allocations do not grow with the
//! balancer's history.

mod support;

use sts::core::{Approach, RouterConfig, StQuery, StoreConfig};
use sts::document::{doc, DateTime, Value};
use sts::geo::GeoRect;
use sts::obs::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn corpus_store(approach: Approach) -> sts::core::StStore {
    corpus_store_on(approach, RouterConfig::default())
}

fn corpus_store_on(approach: Approach, router: RouterConfig) -> sts::core::StStore {
    let mut store = sts::core::StStore::new(StoreConfig {
        approach,
        num_shards: 4,
        max_chunk_bytes: 24 * 1024,
        data_mbr: GeoRect::new(20.0, 35.0, 28.0, 41.5),
        router,
        ..Default::default()
    });
    let mut i = 0u32;
    for x in 0..40 {
        for y in 0..40 {
            let mut d = doc! {
                "location" => doc! {
                    "type" => "Point",
                    "coordinates" => vec![
                        Value::from(20.0 + f64::from(x) * 0.2),
                        Value::from(35.0 + f64::from(y) * 0.15),
                    ],
                },
                "date" => DateTime::from_millis(i64::from(i) * 60_000),
            };
            d.ensure_id(i);
            store.insert(d).unwrap();
            i += 1;
        }
    }
    store
}

fn query() -> StQuery {
    StQuery {
        rect: GeoRect::new(22.0, 36.0, 25.0, 38.5),
        t0: DateTime::from_millis(10_000_000),
        t1: DateTime::from_millis(60_000_000),
    }
}

#[test]
fn warmed_up_executor_hot_path_allocates_nothing() {
    // Sanity: the counting allocator really is installed — building the
    // store must move the thread-local counter.
    let before = sts::obs::alloc::thread_allocations();
    let mut store = corpus_store(Approach::Hil);
    assert!(
        sts::obs::alloc::thread_allocations() > before,
        "CountingAllocator not installed: store build reported no allocations"
    );
    // Its own registry: the skip-scan test below runs beside this one
    // and would otherwise warm up into the same global counter.
    store.set_metrics_registry(std::sync::Arc::new(sts::obs::Registry::new()));

    let q = query();
    // Warm-up: grows every scratch buffer (covering tree, seek keys,
    // decode values, result staging) to its high-water capacity, and
    // registers every metric so later lookups don't allocate entries.
    let (warm_docs, _) = store.st_query(&q);
    assert!(!warm_docs.is_empty(), "query must do real work");
    store.st_query(&q);

    // Steady state: every shard's executor hot section must report a
    // zero allocation delta, several runs in a row.
    for run in 0..3 {
        let (docs, report) = store.st_query(&q);
        assert_eq!(docs.len(), warm_docs.len());
        assert!(!report.cluster.per_shard.is_empty());
        for shard in &report.cluster.per_shard {
            assert_eq!(
                shard.stats.allocations, 0,
                "run {run}: shard {} allocated {} time(s) in the hot section",
                shard.shard, shard.stats.allocations
            );
        }
    }

    // And the published counter agrees: it stops growing once warm.
    let obs = store.metrics_registry().snapshot();
    let after_warm = obs.counter("shard.exec_allocs").unwrap_or(0);
    store.st_query(&q);
    let obs = store.metrics_registry().snapshot();
    assert_eq!(obs.counter("shard.exec_allocs").unwrap_or(0), after_warm);
}

/// The same contract holds for the skip-scan access path: a hil* plan
/// serves its whole covering — several ranges — through one batch
/// cursor (`skip_scan_2d_ranges_with`).
#[test]
fn skip_scan_hot_path_allocates_nothing_after_warm_up() {
    let store = corpus_store(Approach::HilStar);
    let q = query();
    let (warm_docs, _) = store.st_query(&q);
    assert!(!warm_docs.is_empty());
    store.st_query(&q);

    let (docs, report) = store.st_query(&q);
    assert_eq!(docs.len(), warm_docs.len());
    assert!(
        report.hilbert_ranges > 1,
        "the covering must be multi-range"
    );
    for shard in &report.cluster.per_shard {
        // At least one seek per range: the shard walked the whole list.
        assert!(shard.stats.seeks >= report.hilbert_ranges as u64);
        assert_eq!(
            shard.stats.allocations, 0,
            "shard {} allocated in the hot section",
            shard.shard
        );
    }
}

/// A warmed covering allocates nothing: Hilbert and Z-order descend
/// straight into the caller's range list, and every budget coalesces
/// through the reused gap buffer.
#[test]
fn warmed_covering_allocates_nothing() {
    use sts::curve::{CoveringScratch, CurveGrid, CurveKind, RangeBudget};

    let mbr = GeoRect::new(20.0, 35.0, 28.0, 41.5);
    let rects = [
        GeoRect::new(23.70, 37.95, 23.76, 38.01), // city-sized
        GeoRect::new(22.0, 36.0, 25.0, 38.5),     // region-sized
    ];
    for kind in CurveKind::ALL {
        let curve = CurveGrid::new(mbr, sts::curve::PAPER_CURVE_ORDER, kind);
        let mut scratch = CoveringScratch::new();
        let mut out = Vec::new();
        let mut cover = |out: &mut Vec<(u64, u64)>| {
            for rect in &rects {
                for budget in [RangeBudget::default(), RangeBudget::UNLIMITED] {
                    out.clear();
                    curve.decompose_rect_into(rect, budget, &mut scratch, out);
                    assert!(!out.is_empty());
                }
            }
        };
        cover(&mut out);
        let before = sts::obs::alloc::thread_allocations();
        cover(&mut out);
        let allocated = sts::obs::alloc::thread_allocations() - before;
        assert_eq!(
            allocated, 0,
            "{kind:?}: warmed coverings allocated {allocated} time(s)"
        );
    }
}

/// Routing walks the covering's intervals through reused key buffers:
/// beyond the filter's own `QueryShape::analyze`, routing a 64-interval
/// hil* filter allocates no more than routing a 4-interval one (which
/// touches a superset of its chunks).
#[test]
fn routing_allocations_do_not_grow_with_the_interval_count() {
    use sts::curve::RangeBudget;
    use sts::obs::alloc::thread_allocations;
    use sts::query::QueryShape;

    let mut store = corpus_store(Approach::HilStar);
    let mut route_allocations = |budget: usize| {
        store.set_range_budget(RangeBudget::new(budget));
        let filter = store.filter_for(&query());
        let before = thread_allocations();
        let shape = QueryShape::analyze(&filter);
        let analyze = thread_allocations() - before;
        let (_, ivs) = shape
            .int_intervals
            .expect("a hil* filter carries intervals");
        assert_eq!(ivs.len(), budget, "the covering must fill its budget");
        let before = thread_allocations();
        let plan = store.cluster().route_plan(&filter);
        let route = thread_allocations() - before - analyze;
        assert!(!plan.broadcast && !plan.targets.is_empty());
        route
    };
    let (few, many) = (route_allocations(4), route_allocations(64));
    assert!(
        many <= few,
        "routing 64 intervals allocated {many} time(s), 4 intervals {few}"
    );
}

/// The router builds a query's candidate plans once and every target
/// shard ranks the same list, and a shard's explain stats share the
/// plan's index name and residual, so one more target shard costs a
/// fan-out no allocation at all, at 4 intervals and at 64. The fan-out
/// runs inline on this thread, and the query's time window lies past
/// the data, so no shard returns a document (an empty result list does
/// not allocate).
#[test]
fn planning_allocations_do_not_grow_with_the_target_shard_count() {
    use sts::cluster::{ExecutorConfig, QueryExecOptions, RoutePlan};
    use sts::curve::RangeBudget;
    use sts::obs::alloc::thread_allocations;

    let router = RouterConfig {
        executor: ExecutorConfig { workers: 1 },
        ..RouterConfig::default()
    };
    let mut store = corpus_store_on(Approach::HilStar, router);
    let q = StQuery {
        t0: DateTime::from_millis(200_000_000),
        t1: DateTime::from_millis(300_000_000),
        ..query()
    };
    let mut three_more_shards = |budget: usize| {
        store.set_range_budget(RangeBudget::new(budget));
        let filter = store.filter_for(&q);
        let routed = store.cluster().route_plan(&filter);
        let fan_out = |targets: Vec<usize>| {
            let route = RoutePlan {
                targets,
                ..routed.clone()
            };
            let opts = QueryExecOptions {
                route: Some(&route),
                recovery: None,
            };
            for _ in 0..2 {
                store.cluster().query_exec(&filter, opts); // warm-up
            }
            let before = thread_allocations();
            let (docs, report) = store.cluster().query_exec(&filter, opts);
            let allocated = thread_allocations() - before;
            assert!(docs.is_empty() && report.nodes() == route.targets.len());
            allocated
        };
        let (one, four) = (fan_out(vec![0]), fan_out(vec![0, 1, 2, 3]));
        four - one
    };
    let (few, many) = (three_more_shards(4), three_more_shards(64));
    assert_eq!(
        (few, many),
        (0, 0),
        "allocations for three more target shards at 4 and at 64 intervals"
    );
}

/// A batch commit costs the same on a store with a long balancer
/// history as on a fresh one: with nothing staged, publishing the epoch
/// and running the balancer's size-split sweep and chunk-count round
/// allocates the same number of times whether the routing table holds
/// one chunk or a dozen and the event log is empty or long.
#[test]
fn commit_allocations_do_not_grow_with_history() {
    use sts::obs::alloc::thread_allocations;

    let commit_allocations = |store: &mut sts::core::StStore| {
        store.commit_batch(); // warm-up
        let before = thread_allocations();
        store.commit_batch();
        thread_allocations() - before
    };
    let mut fresh = sts::core::StStore::new(StoreConfig {
        approach: Approach::Hil,
        num_shards: 4,
        max_chunk_bytes: 24 * 1024,
        ..Default::default()
    });
    let mut grown = corpus_store(Approach::Hil);
    let stats = grown.cluster().migration_stats();
    assert!(
        grown.cluster().chunk_map().len() > 10 && stats.chunks_moved > 5,
        "the grown store needs a history: {} chunks, {} migrations",
        grown.cluster().chunk_map().len(),
        stats.chunks_moved
    );
    assert_eq!(
        commit_allocations(&mut grown),
        commit_allocations(&mut fresh),
        "allocations of one empty commit: grown store vs fresh store"
    );
}
