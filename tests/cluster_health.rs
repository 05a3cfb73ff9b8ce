//! Cluster-health telemetry invariants at the store level: shard-load
//! accounting agrees with the per-query reports, the balancer event
//! history matches the migration counters, and the Hilbert approaches
//! spread a temporally clustered workload across shards measurably
//! more evenly than the date-sharded baselines (the §4.2 locality
//! claim, quantified).

mod support;

use sts::cluster::BalancerEventKind;
use sts::core::{Approach, StQuery};
use sts::document::{DateTime, Document};
use sts::geo::GeoRect;
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::{Record, R_MBR};
use support::store_for;

const NUM_SHARDS: usize = 6;

fn corpus() -> Vec<Document> {
    generate(&FleetConfig {
        records: 2_500,
        vehicles: 25,
        ..Default::default()
    })
    .iter()
    .map(Record::to_document)
    .collect()
}

/// A temporally clustered workload: spatially varied hotspot
/// rectangles, all asking about the same hot three-day window (around
/// day 90 of the fleet's 153-day span).
fn hot_window_batch(n: usize, seed: u64) -> Vec<StQuery> {
    let centers = [
        (23.7275, 37.9838),
        (22.9446, 40.6401),
        (21.7346, 38.2466),
        (25.1442, 35.3387),
        (22.4191, 39.6390),
    ];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let start = DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0);
    let t0 = start.plus_millis(90 * 86_400_000);
    let t1 = DateTime::from_millis(t0.millis() + 3 * 86_400_000);
    (0..n)
        .map(|_| {
            let (clon, clat) = centers[(next() % centers.len() as u64) as usize];
            let dx = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let dy = (next() % 1_000) as f64 / 10_000.0 - 0.05;
            let w = 0.02 + (next() % 600) as f64 / 10_000.0;
            StQuery {
                rect: GeoRect::new(clon + dx, clat + dy, clon + dx + w, clat + dy + w),
                t0,
                t1,
            }
        })
        .collect()
}

#[test]
fn health_counters_agree_with_query_reports() {
    let docs = corpus();
    let batch = hot_window_batch(30, 0xC0FFEE);
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        let mut routed = 0u64;
        let mut returned = 0u64;
        let mut keys = 0u64;
        for q in &batch {
            let (found, report) = store.st_query(q);
            routed += report.cluster.nodes() as u64;
            returned += found.len() as u64;
            keys += report.cluster.total_keys_examined();
        }
        let health = store.health_snapshot();
        assert_eq!(health.total_queries(), routed, "{approach}");
        assert_eq!(
            health.shards.iter().map(|s| s.docs_returned).sum::<u64>(),
            returned,
            "{approach}"
        );
        assert_eq!(
            health.shards.iter().map(|s| s.keys_examined).sum::<u64>(),
            keys,
            "{approach}"
        );
        // Every stored document is accounted to exactly one shard.
        assert_eq!(
            health.shards.iter().map(|s| s.docs_stored).sum::<u64>(),
            docs.len() as u64,
            "{approach}"
        );
        // The routing table covers all stored docs.
        let chunks = store.cluster().chunk_map().chunks();
        assert_eq!(
            chunks.iter().map(|c| c.docs).sum::<u64>(),
            docs.len() as u64,
            "{approach}"
        );
    }
}

#[test]
fn balancer_event_history_matches_migration_counters() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        let health = store.health_snapshot();
        let stats = store.cluster().migration_stats();

        // Loading far more data than one chunk holds forces splits.
        assert!(
            health
                .events
                .iter()
                .any(|e| e.kind == BalancerEventKind::Split),
            "{approach}: no split events recorded"
        );
        // The Migrate events replay the migration counters exactly.
        let (moves, docs_moved) = health
            .events
            .iter()
            .filter_map(|e| match e.kind {
                BalancerEventKind::Migrate { docs, .. } => Some(docs),
                _ => None,
            })
            .fold((0u64, 0u64), |(n, d), docs| (n + 1, d + docs));
        assert_eq!(moves, stats.chunks_moved, "{approach}");
        assert_eq!(docs_moved, stats.docs_moved, "{approach}");
        // History is ordered.
        for (i, e) in health.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "{approach}: event order");
        }
    }
}

#[test]
fn hilbert_sharding_spreads_the_hot_window_more_evenly() {
    // The paper-regime configuration (chunks hold many documents, so a
    // three-day hot window concentrates on few date-range chunks): a
    // larger corpus and 64 KB chunks. With tiny chunks every hot day
    // already spans several chunks and the comparison washes out.
    let docs: Vec<Document> = generate(&FleetConfig {
        records: 7_600,
        vehicles: 500,
        ..Default::default()
    })
    .iter()
    .map(Record::to_document)
    .collect();
    let batch = hot_window_batch(40, 0x5137_2021);
    let gini_of = |approach: Approach| -> f64 {
        let mut store = sts::core::StStore::new(sts::core::StoreConfig {
            approach,
            num_shards: NUM_SHARDS,
            max_chunk_bytes: 64 * 1024,
            data_mbr: R_MBR,
            ..Default::default()
        });
        store.bulk_load(docs.iter().cloned()).unwrap();
        for q in &batch {
            store.st_query(q);
        }
        store.health_snapshot().queries_skew().gini
    };
    let bsl_st = gini_of(Approach::BslST);
    let bsl_ts = gini_of(Approach::BslTS);
    let hil = gini_of(Approach::Hil);
    let hil_star = gini_of(Approach::HilStar);
    for (name, h) in [("hil", hil), ("hil*", hil_star)] {
        for (bname, b) in [("bslST", bsl_st), ("bslTS", bsl_ts)] {
            assert!(
                h + 0.05 < b,
                "gini({name}) = {h:.3} not measurably below gini({bname}) = {b:.3}"
            );
        }
    }
}
