//! Metric parity: a fixed sequence of queries, ingest batches, splits
//! and migrations leaves exactly these counters and histogram sample
//! counts in a store's private registry. The tables were recorded with
//! every metric still looked up by name on each call, so a metric handle
//! resolved on the wrong registry, or left on the old one after
//! `set_metrics_registry`, shows up here as a moved or missing value.
//!
//! Both stores run their fan-outs inline (`workers: 1`), which makes
//! the executor counters deterministic.

use std::sync::Arc;
use sts::cluster::{ExecutorConfig, FailPoint, FailPointMode};
use sts::core::{Approach, RouterConfig, StQuery, StStore, StoreConfig};
use sts::document::{DateTime, Document};
use sts::obs::{Registry, RegistrySnapshot};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};

fn corpus() -> Vec<Document> {
    generate(&FleetConfig {
        records: 2_400,
        vehicles: 20,
        ..Default::default()
    })
    .iter()
    .map(Record::to_document)
    .collect()
}

fn workload() -> Vec<StQuery> {
    full_workload(DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0))
        .into_iter()
        .map(|(_, _, q)| q)
        .collect()
}

fn store(approach: Approach, router: RouterConfig) -> StStore {
    StStore::new(StoreConfig {
        approach,
        num_shards: 4,
        max_chunk_bytes: 24 * 1024,
        data_mbr: R_MBR,
        router: RouterConfig {
            executor: ExecutorConfig { workers: 1 },
            ..router
        },
        ..Default::default()
    })
}

/// The sequence both stores run on their private registries: two
/// passes over the workload, an ingest batch (a new epoch, balancer
/// rounds, stale cached routes and pages), and two more passes.
fn run_sequence(store: &mut StStore, batch: &[Document]) {
    let queries = workload();
    for _ in 0..2 {
        queries.iter().for_each(|q| drop(store.st_query(q)));
    }
    store.insert_batch(batch.iter().cloned()).unwrap();
    for _ in 0..2 {
        queries.iter().for_each(|q| drop(store.st_query(q)));
    }
}

/// Every counter `(name, value)` and every histogram `(name, samples)`,
/// sorted by name.
type Observed<'a> = (Vec<(&'a str, u64)>, Vec<(&'a str, u64)>);

fn observed(snap: &RegistrySnapshot) -> Observed<'_> {
    let counters = snap.counters.iter().map(|(n, v)| (n.as_str(), *v));
    let histograms = snap.histograms.iter().map(|(n, h)| (n.as_str(), h.count));
    (counters.collect(), histograms.collect())
}

#[test]
fn hil_star_with_the_plan_cache_records_the_same_metrics() {
    let docs = corpus();
    let (load, batch) = docs.split_at(2_000);
    let mut store = store(Approach::HilStar, RouterConfig::default());
    // Rescoped right after construction, before any write.
    let obs = Arc::new(Registry::new());
    store.set_metrics_registry(obs.clone());
    store.bulk_load(load.iter().cloned()).unwrap();
    run_sequence(&mut store, batch);

    let snap = obs.snapshot();
    let want = (HIL_STAR_COUNTERS.to_vec(), HIL_STAR_HISTOGRAMS.to_vec());
    assert_eq!(observed(&snap), want);
}

#[test]
fn bsl_ts_with_the_result_cache_records_the_same_metrics_after_a_late_rescope() {
    let docs = corpus();
    let (load, batch) = docs.split_at(2_000);
    let mut store = store(
        Approach::BslTS,
        RouterConfig {
            result_cache_entries: 64,
            ..RouterConfig::default()
        },
    );
    // Loaded and queried on the process-wide registry first, so the
    // handles have resolved there before the store is rescoped. Half the
    // workload is cached by then: the private registry sees result-cache
    // misses, hits and (after the batch) stale pages.
    store.bulk_load(load.iter().cloned()).unwrap();
    workload()[..4].iter().for_each(|q| drop(store.st_query(q)));
    let obs = Arc::new(Registry::new());
    store.set_metrics_registry(obs.clone());
    run_sequence(&mut store, batch);

    let snap = obs.snapshot();
    let want = (BSL_TS_COUNTERS.to_vec(), BSL_TS_HISTOGRAMS.to_vec());
    assert_eq!(observed(&snap), want);
}

/// The write path on its own: a bulk load, an ingest batch the live
/// balancer reacts to, a staged document committed through the facade,
/// an explicit split, and three explicit migrations — one retried after
/// a transient fault, one aborted by a node failure, one clean.
#[test]
fn hil_star_writes_splits_and_migrations_record_the_same_metrics() {
    let docs = corpus();
    let (load, batch) = docs.split_at(2_000);
    let mut store = store(Approach::HilStar, RouterConfig::default());
    let obs = Arc::new(Registry::new());
    store.set_metrics_registry(obs.clone());
    store.bulk_load(load.iter().cloned()).unwrap();
    let (batch, last) = batch.split_at(batch.len() - 1);
    store.insert_batch(batch.iter().cloned()).unwrap();
    store.stage(last[0].clone()).unwrap();
    store.commit_batch();

    let fullest = |store: &StStore| {
        let chunks = store.cluster().chunk_map().chunks();
        (0..chunks.len()).max_by_key(|&i| chunks[i].docs).unwrap()
    };
    store.split_chunk(fullest(&store));
    let cidx = fullest(&store);
    let src = store.cluster().chunk_map().chunks()[cidx].shard;
    let dst = (src + 1) % 4;
    store.arm_failpoint(
        "once",
        FailPoint::transient(src).with_mode(FailPointMode::Times(1)),
    );
    assert!(
        store.migrate_chunk(cidx, dst),
        "one transient fault is retried"
    );
    store.disarm_all_failpoints();
    store.arm_failpoint("down", FailPoint::hard_failure(dst));
    assert!(!store.migrate_chunk(cidx, src), "a dead donor aborts");
    store.disarm_all_failpoints();
    assert!(store.migrate_chunk(cidx, src));

    let snap = obs.snapshot();
    let want = (WRITE_COUNTERS.to_vec(), WRITE_HISTOGRAMS.to_vec());
    assert_eq!(observed(&snap), want);
}

// Recorded with by-name lookups on every call.
const HIL_STAR_COUNTERS: &[(&str, u64)] = &[
    ("balancer.migrations", 95),
    ("balancer.splits", 197),
    ("executor.inline", 32),
    ("executor.tasks", 80),
    ("ingest.batches", 1),
    ("ingest.docs", 400),
    ("router.hedges", 0),
    ("router.plancache.hit", 30),
    ("router.plancache.miss", 2),
    ("router.plancache.route_refresh", 2),
    ("router.queries", 32),
    ("router.retries", 0),
    ("router.route_reused", 32),
    ("router.shard_executions", 80),
    ("router.timeouts", 0),
    ("shard.exec_allocs", 0),
];
const HIL_STAR_HISTOGRAMS: &[(&str, u64)] = &[
    ("balancer.migrations", 95),
    ("query.covering", 32),
    ("query.covering_ranges", 32),
    ("router.merge", 32),
    ("router.routing", 32),
    ("router.wall", 32),
    ("shard.fetch_filter", 80),
    ("shard.index_scan", 80),
    ("shard.planning", 80),
];
const BSL_TS_COUNTERS: &[(&str, u64)] = &[
    ("balancer.migrations", 23),
    ("balancer.splits", 31),
    ("executor.inline", 12),
    ("executor.tasks", 30),
    ("ingest.batches", 1),
    ("ingest.docs", 400),
    ("router.hedges", 0),
    ("router.plancache.hit", 8),
    ("router.plancache.miss", 4),
    ("router.plancache.route_refresh", 8),
    ("router.queries", 12),
    ("router.resultcache.hit", 20),
    ("router.resultcache.miss", 4),
    ("router.resultcache.stale", 8),
    ("router.retries", 0),
    ("router.route_reused", 12),
    ("router.shard_executions", 30),
    ("router.timeouts", 0),
    ("shard.exec_allocs", 0),
];
const BSL_TS_HISTOGRAMS: &[(&str, u64)] = &[
    ("balancer.migrations", 23),
    ("router.merge", 12),
    ("router.routing", 12),
    ("router.wall", 12),
    ("shard.fetch_filter", 30),
    ("shard.index_scan", 30),
    ("shard.planning", 30),
];
const WRITE_COUNTERS: &[(&str, u64)] = &[
    ("balancer.migration_retries", 1),
    ("balancer.migrations", 97),
    ("balancer.migrations_aborted", 1),
    ("balancer.splits", 198),
    ("ingest.batches", 2),
    ("ingest.docs", 400),
];
const WRITE_HISTOGRAMS: &[(&str, u64)] = &[("balancer.migrations", 97)];
