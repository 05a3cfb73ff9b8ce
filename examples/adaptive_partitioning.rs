//! Adaptive, workload-aware partitioning (§6 future work, implemented):
//! record a query log, re-zone the cluster by access frequency, and
//! watch the hottest shard's load drop. Also demonstrates a polygon
//! query.
//!
//! ```text
//! cargo run --release --example adaptive_partitioning
//! ```

use sts::core::{Approach, StQuery, StStore, StoreConfig};
use sts::document::DateTime;
use sts::geo::{GeoPoint, GeoPolygon, GeoRect};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::Record;

fn build_store(records: &[Record]) -> StStore {
    let mut s = StStore::new(StoreConfig {
        approach: Approach::Hil,
        num_shards: 6,
        max_chunk_bytes: 128 * 1024,
        ..Default::default()
    });
    s.bulk_load(records.iter().map(Record::to_document))
        .unwrap();
    s
}

fn main() {
    let records = generate(&FleetConfig {
        records: 30_000,
        vehicles: 150,
        ..Default::default()
    });

    // A realistic dispatcher workload: 9 of 10 queries probe Athens.
    let athens = GeoRect::new(23.60, 37.85, 23.90, 38.10);
    let crete = GeoRect::new(24.8, 35.0, 25.6, 35.6);
    let t0 = DateTime::parse_iso("2018-07-01T00:00:00Z").unwrap();
    let log: Vec<StQuery> = (0..30)
        .map(|i| StQuery {
            rect: if i % 10 == 9 { crete } else { athens },
            t0: t0.plus_millis(i64::from(i) * 4 * 86_400_000),
            t1: t0.plus_millis((i64::from(i) * 4 + 14) * 86_400_000),
        })
        .collect();

    // Baseline: count-balanced zones (§4.2.4).
    let mut plain = build_store(&records);
    plain.apply_zones();
    // Adaptive: weight documents by logged access frequency.
    let mut aware = build_store(&records);
    aware.apply_workload_aware_zones(&log);

    let mut plain_hot = 0u64;
    let mut aware_hot = 0u64;
    for q in &log {
        let (a, ra) = plain.st_query(q);
        let (b, rb) = aware.st_query(q);
        assert_eq!(a.len(), b.len());
        plain_hot += ra.cluster.max_docs_examined();
        aware_hot += rb.cluster.max_docs_examined();
    }
    println!("replaying the 30-query log:");
    println!("  count-balanced zones: hottest-shard work = {plain_hot} doc fetches");
    println!("  workload-aware zones: hottest-shard work = {aware_hot} doc fetches");
    println!(
        "  -> {:.0}% less load on the hottest shard\n",
        100.0 * (1.0 - aware_hot as f64 / plain_hot.max(1) as f64)
    );

    // A polygonal Attica region on the re-zoned store, one month.
    let attica = GeoPolygon::new(vec![
        GeoPoint::new(23.45, 37.85),
        GeoPoint::new(23.80, 37.80),
        GeoPoint::new(24.05, 38.05),
        GeoPoint::new(23.75, 38.25),
        GeoPoint::new(23.45, 38.10),
    ])
    .unwrap();
    let (region_docs, _) = aware.polygon_query(
        &attica,
        DateTime::parse_iso("2018-08-01T00:00:00Z").unwrap(),
        DateTime::parse_iso("2018-09-01T00:00:00Z").unwrap(),
    );
    println!(
        "polygonal Attica probe: {} traces in August",
        region_docs.len()
    );
}
