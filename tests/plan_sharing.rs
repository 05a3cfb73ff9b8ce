//! Plan sharing: the router builds each query's candidate plans once
//! and every target shard ranks that one list. On every approach and
//! every query of the paper workload, each shard must still pick the
//! index its own planner picks (`Planner::choose` on that shard's
//! collection, bslST's trials included) and examine exactly the keys
//! and documents its own planned find examines.

use sts::core::{Approach, RouterConfig, StQuery, StStore, StoreConfig};
use sts::document::{DateTime, Document};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};

fn corpus() -> Vec<Document> {
    generate(&FleetConfig {
        records: 3_000,
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

/// A store whose `st_query` runs exactly `filter_for`'s filter: with
/// the plan cache off, the covering is the query's own, not its
/// quantized key's.
fn store(approach: Approach, docs: &[Document]) -> StStore {
    let mut store = StStore::new(StoreConfig {
        approach,
        num_shards: 6,
        max_chunk_bytes: 24 * 1024,
        data_mbr: R_MBR,
        router: RouterConfig {
            plan_cache_entries: 0,
            ..RouterConfig::default()
        },
        ..Default::default()
    });
    store.bulk_load(docs.iter().cloned()).unwrap();
    store
}

#[test]
fn every_shard_ranks_the_shared_plans_as_its_own_planner_would() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store(approach, &docs);
        let planner = store.config().planner;
        let mut trials = 0;
        for (i, q) in workload().iter().enumerate() {
            let filter = store.filter_for(q);
            let (_, report) = store.st_query(q);
            assert!(!report.cluster.per_shard.is_empty());
            for s in &report.cluster.per_shard {
                let ctx = format!("{approach} query {i} shard {}", s.shard);
                let coll = store.cluster().shards()[s.shard].collection();
                trials += usize::from(planner.candidates(coll, &filter).len() > 1);
                let own = planner.choose(coll, &filter);
                assert_eq!(s.stats.index_used, own.index_name, "{ctx}: index");
                let (found, stats) = coll.find_with_planner(&planner, &filter);
                assert_eq!(s.stats.index_used, stats.index_used, "{ctx}: find's index");
                assert_eq!(s.stats.keys_examined, stats.keys_examined, "{ctx}: keys");
                assert_eq!(s.stats.docs_examined, stats.docs_examined, "{ctx}: docs");
                assert_eq!(s.stats.n_returned, found.len() as u64, "{ctx}: returned");
            }
        }
        // bslST's 2dsphere compound and its shard-key `date` index make
        // its visits trials; every other approach has one candidate.
        assert_eq!(
            trials > 0,
            approach == Approach::BslST,
            "{approach}: {trials}"
        );
    }
}
