//! Router-tier integration tests: covering-plan cache reuse,
//! result-page cache correctness and executor metric attribution.

mod support;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use sts::core::{Approach, CacheOutcome, RouterConfig, StQuery, StStore, StoreConfig};
use sts::document::{doc, DateTime, Document, Value};
use sts::geo::GeoRect;
use sts::obs::Registry;
use support::oracle::Oracle;

const MBR: GeoRect = GeoRect::new(20.0, 35.0, 28.0, 41.5);

fn point(i: u32, lon: f64, lat: f64, ms: i64) -> Document {
    let mut d = doc! {
        "location" => doc! {
            "type" => "Point",
            "coordinates" => vec![Value::from(lon), Value::from(lat)],
        },
        "date" => DateTime::from_millis(ms),
    };
    d.ensure_id(i);
    d
}

/// A deterministic grid corpus over the MBR.
fn grid_corpus(n_side: u32, id_base: u32) -> Vec<Document> {
    let mut docs = Vec::new();
    for x in 0..n_side {
        for y in 0..n_side {
            let i = x * n_side + y;
            docs.push(point(
                id_base + i,
                20.2 + f64::from(x) * 7.4 / f64::from(n_side),
                35.2 + f64::from(y) * 6.0 / f64::from(n_side),
                i64::from(i) * 50_000,
            ));
        }
    }
    docs
}

/// Held by every test in this file: the other tests' stores record into
/// the process-global registry, and a query they ran concurrently would
/// move the global counter the metric-attribution test compares.
static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

fn global_registry_lock() -> MutexGuard<'static, ()> {
    GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn q() -> StQuery {
    StQuery {
        rect: GeoRect::new(21.0, 36.0, 24.5, 39.0),
        t0: DateTime::from_millis(0),
        t1: DateTime::from_millis(100_000_000),
    }
}

/// Satellite: work executed by the shard executor's worker threads —
/// including stolen work — lands in the *owning store's* scoped
/// registry, never in the process-global one.
#[test]
fn executor_metrics_land_in_the_owning_stores_registry() {
    let _serial = global_registry_lock();
    let corpus = grid_corpus(25, 0);
    let mut store = support::store_for(Approach::Hil, &corpus, MBR, 4);
    let private = Arc::new(Registry::new());
    store.set_metrics_registry(private.clone());

    let global_before = sts::obs::global()
        .snapshot()
        .counter("executor.tasks")
        .unwrap_or(0);
    for _ in 0..4 {
        store.st_query(&q());
    }
    let snap = private.snapshot();
    let tasks = snap.counter("executor.tasks").unwrap_or(0);
    assert!(
        tasks > 0,
        "fan-out work must be attributed to the scoped registry"
    );
    assert!(
        snap.counter("router.plancache.hit").unwrap_or(0) > 0,
        "plan-cache counters are scoped too"
    );
    let global_after = sts::obs::global()
        .snapshot()
        .counter("executor.tasks")
        .unwrap_or(0);
    assert_eq!(
        global_before, global_after,
        "a scoped store must not bleed executor metrics into the global registry"
    );
}

/// Plan-cache hits skip the covering computation, replay the routing
/// decision while it is valid, refresh it after a chunk split — and
/// stay exact throughout.
#[test]
fn plan_cache_reuses_coverings_and_refreshes_stale_routes() {
    let _serial = global_registry_lock();
    let corpus = grid_corpus(30, 0);
    let mut store = support::store_for(Approach::Hil, &corpus, MBR, 4);
    let oracle = Oracle::new(corpus);
    let query = q();

    let (docs1, r1) = store.st_query(&query);
    assert_eq!(r1.router.plan_cache, CacheOutcome::Miss);
    assert!(!r1.router.route_reused);
    assert!(r1.hilbert_ranges > 0);

    let (docs2, r2) = store.st_query(&query);
    assert_eq!(r2.router.plan_cache, CacheOutcome::Hit);
    assert!(r2.router.route_reused, "routing generation unchanged");
    assert_eq!(r2.hilbert_time, Duration::ZERO, "no decomposition on hit");
    assert_eq!(r2.hilbert_ranges, r1.hilbert_ranges);
    assert_eq!(docs1.len(), docs2.len());

    // A chunk split bumps the routing generation: the covering stays
    // cached but the routing decision must be recomputed, not replayed.
    store.split_chunk(0);
    let (docs3, r3) = store.st_query(&query);
    assert_eq!(r3.router.plan_cache, CacheOutcome::Hit);
    assert!(
        !r3.router.route_reused,
        "stale routing generation must not be replayed"
    );
    let (docs4, r4) = store.st_query(&query);
    assert!(r4.router.route_reused, "refreshed route is replayed again");

    for docs in [&docs1, &docs2, &docs3, &docs4] {
        assert_eq!(docs.len() as u64, oracle.count(&query), "exact results");
    }
}

/// The result-page cache serves identical pages with preserved result
/// counters, and every kind of write — synchronous insert, staged
/// batch commit, delete — invalidates affected entries.
#[test]
fn result_cache_serves_pages_and_never_goes_stale() {
    let _serial = global_registry_lock();
    let corpus = grid_corpus(20, 0);
    let mut store = StStore::new(StoreConfig {
        approach: Approach::Hil,
        num_shards: 4,
        max_chunk_bytes: 24 * 1024,
        data_mbr: MBR,
        router: RouterConfig {
            result_cache_entries: 64,
            ..RouterConfig::default()
        },
        ..Default::default()
    });
    store.bulk_load(corpus.iter().cloned()).unwrap();
    let query = q();
    let mut reference = corpus.clone();

    let (docs1, r1) = store.st_query(&query);
    assert_eq!(r1.router.result_cache, CacheOutcome::Miss);
    let (docs2, r2) = store.st_query(&query);
    assert_eq!(r2.router.result_cache, CacheOutcome::Hit);
    assert_eq!(docs1.len(), docs2.len());
    assert_eq!(
        r2.cluster.n_returned(),
        r1.cluster.n_returned(),
        "hits preserve the fill execution's result counters"
    );
    assert!(
        r2.cluster.fault_free(),
        "a served page reports a clean execution"
    );

    // Synchronous insert inside the query window → stale, then exact.
    let extra = point(90_000, 22.0, 37.0, 1_000_000);
    reference.push(extra.clone());
    store.insert(extra).unwrap();
    let (docs3, r3) = store.st_query(&query);
    assert_eq!(
        r3.router.result_cache,
        CacheOutcome::Stale,
        "a write must invalidate the cached page"
    );
    assert_eq!(docs3.len(), docs1.len() + 1, "the new document is visible");
    let oracle = Oracle::new(reference.clone());
    assert_eq!(docs3.len() as u64, oracle.count(&query));

    // Staged batch: staging alone already invalidates (conservative —
    // the write generation moved), commit keeps it invalid until the
    // refill; after refill the commit's documents are in the page.
    let staged = point(90_001, 22.1, 37.1, 1_100_000);
    reference.push(staged.clone());
    store.stage(staged).unwrap();
    let (docs4, r4) = store.st_query(&query);
    assert_ne!(r4.router.result_cache, CacheOutcome::Hit);
    assert_eq!(docs4.len(), docs3.len(), "staged docs stay invisible");
    store.commit_batch();
    let (docs5, r5) = store.st_query(&query);
    assert_ne!(r5.router.result_cache, CacheOutcome::Hit);
    let oracle = Oracle::new(reference.clone());
    assert_eq!(docs5.len() as u64, oracle.count(&query));
    let (docs6, r6) = store.st_query(&query);
    assert_eq!(r6.router.result_cache, CacheOutcome::Hit);
    assert_eq!(docs6.len(), docs5.len());

    // Deletion invalidates too.
    let victim = StQuery {
        rect: GeoRect::new(21.9, 36.9, 22.2, 37.2),
        t0: DateTime::from_millis(0),
        t1: DateTime::from_millis(2_000_000),
    };
    let removed = store.st_delete(&victim);
    assert!(removed > 0);
    let (docs7, r7) = store.st_query(&query);
    assert_ne!(
        r7.router.result_cache,
        CacheOutcome::Hit,
        "deletes must invalidate cached pages"
    );
    assert_eq!(docs7.len(), docs6.len() - removed as usize);
}

/// `st_explain` surfaces the cache counters next to the per-query
/// outcomes.
#[test]
fn explain_surfaces_router_tier() {
    let _serial = global_registry_lock();
    let corpus = grid_corpus(12, 0);
    let mut store = StStore::new(StoreConfig {
        approach: Approach::Hil,
        num_shards: 4,
        data_mbr: MBR,
        router: RouterConfig {
            result_cache_entries: 16,
            ..RouterConfig::default()
        },
        ..Default::default()
    });
    store.bulk_load(corpus).unwrap();
    store.st_query(&q()); // plan miss, result miss (fills both)
    store.insert(point(90_000, 22.0, 37.0, 1_000_000)).unwrap();
    store.st_query(&q()); // plan hit, result stale → refill
    let e = store.st_explain(&q()); // result hit
    let router = match e.get("router") {
        Some(Value::Document(d)) => d,
        other => panic!("router: {other:?}"),
    };
    assert_eq!(
        router.get("resultCache"),
        Some(&Value::String("hit".into()))
    );
    let plan = match e.get("planCacheCounters") {
        Some(Value::Document(d)) => d,
        other => panic!("planCacheCounters: {other:?}"),
    };
    match plan.get("hits") {
        Some(&Value::Int64(n)) => assert!(n >= 1),
        other => panic!("hits: {other:?}"),
    }
    assert!(matches!(
        e.get("resultCacheCounters"),
        Some(Value::Document(_))
    ));
}
