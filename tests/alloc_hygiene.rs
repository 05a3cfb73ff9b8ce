//! Allocation hygiene for the query hot path.
//!
//! This binary installs [`sts::obs::CountingAllocator`] as the global
//! allocator, so the executor's `AllocSpan` instrumentation measures
//! real allocations. The contract under test: after a warm-up pass
//! (scratch buffers at their high-water capacity), executing the same
//! spatio-temporal query performs **zero** heap allocations inside the
//! executor hot section on every shard — the scan, fetch, residual
//! filter and result staging all run out of reused buffers.

mod support;

use sts::core::{Approach, StQuery, StoreConfig};
use sts::document::{doc, DateTime, Value};
use sts::geo::GeoRect;
use sts::obs::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn corpus_store(approach: Approach) -> sts::core::StStore {
    let mut store = sts::core::StStore::new(StoreConfig {
        approach,
        num_shards: 4,
        max_chunk_bytes: 24 * 1024,
        data_mbr: GeoRect::new(20.0, 35.0, 28.0, 41.5),
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

/// The same contract holds for the skip-scan access path (hil* plans
/// drive `skip_scan_2d` through the shared batch cursor).
#[test]
fn skip_scan_hot_path_allocates_nothing_after_warm_up() {
    let store = corpus_store(Approach::HilStar);
    let q = query();
    let (warm_docs, _) = store.st_query(&q);
    assert!(!warm_docs.is_empty());
    store.st_query(&q);

    let (docs, report) = store.st_query(&q);
    assert_eq!(docs.len(), warm_docs.len());
    for shard in &report.cluster.per_shard {
        assert_eq!(
            shard.stats.allocations, 0,
            "shard {} allocated in the hot section",
            shard.shard
        );
    }
}
