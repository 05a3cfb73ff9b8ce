//! The shipped shard executor under real OS threads.
//!
//! `concurrent_oracle` replays deterministic schedules on one thread;
//! here eight reader threads share one store per approach and race each
//! other through `st_query`, so fan-outs overlap on the executor's
//! parked workers: some get the helpers, some find them busy and drain
//! alone, single-shard queries run inline. Every answer must equal the
//! full-scan oracle, before and after a batch commit between two reader
//! phases. One `#[test]` on purpose: the closing thread-count check
//! needs the process to itself.

mod support;

use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::RwLock;
use std::time::{Duration, Instant};
use sts::core::{Approach, StQuery, StStore};
use sts::document::{Document, ObjectId};
use sts::geo::GeoRect;
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::{Record, R_MBR};
use support::oracle::{result_id_set, Oracle};
use support::store_for;

const NUM_SHARDS: usize = 6;
const READERS: u64 = 8;
const QUERIES_PER_READER: usize = 500;

/// Seeded query shapes: half small squares over a day or two (one or
/// two shards), half regions over weeks (a fan-out to most shards).
fn shapes(config: &FleetConfig, seed: u64) -> Vec<StQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let day = 24 * 3_600_000i64;
    (0..96)
        .map(|i| {
            let (side, days) = if i % 2 == 0 {
                (rng.gen_range(0.02..0.2), rng.gen_range(1..3i64))
            } else {
                (rng.gen_range(1.0..5.0), rng.gen_range(7..40i64))
            };
            let lon = rng.gen_range(R_MBR.min_lon..R_MBR.max_lon - side);
            let lat = rng.gen_range(R_MBR.min_lat..R_MBR.max_lat - side);
            let start = rng.gen_range(0..i64::from(config.span_days) - days);
            let t0 = config.start.plus_millis(start * day);
            StQuery {
                rect: GeoRect::new(lon, lat, lon + side, lat + side),
                t0,
                t1: t0.plus_millis(days * day),
            }
        })
        .collect()
}

/// Eight threads, each issuing its own seeded draw of the shapes
/// against the shared store, every answer checked against the oracle.
fn reader_phase(store: &RwLock<StStore>, oracle: &Oracle, shapes: &[StQuery], seed: u64) {
    let want: Vec<BTreeSet<ObjectId>> = shapes.iter().map(|q| oracle.id_set(q)).collect();
    let want = &want;
    std::thread::scope(|s| {
        for reader in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (reader << 32));
                for _ in 0..QUERIES_PER_READER {
                    let i = rng.gen_range(0..shapes.len());
                    let (docs, report) = store.read().unwrap().st_query(&shapes[i]);
                    assert!(!report.cluster.partial, "reader {reader} shape {i}");
                    assert_eq!(result_id_set(&docs), want[i], "reader {reader} shape {i}");
                }
            });
        }
    });
}

/// OS threads in this process (`None` off Linux).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn readers_on_real_threads_match_the_oracle_on_every_approach() {
    let baseline = os_threads();
    let config = FleetConfig {
        records: 3_000,
        vehicles: 20,
        extra_fields: 4,
        ..Default::default()
    };
    let docs: Vec<Document> = generate(&config).iter().map(Record::to_document).collect();
    // Every fifth document arrives later, in one batch commit.
    let late: Vec<Document> = docs.iter().step_by(5).cloned().collect();
    let early: Vec<Document> = docs.chunks(5).flat_map(|five| five[1..].to_vec()).collect();
    let shapes = shapes(&config, 0xE7EC);
    let multi_core = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);

    for approach in Approach::ALL {
        let store = RwLock::new(store_for(approach, &early, R_MBR, NUM_SHARDS));
        reader_phase(&store, &Oracle::new(early.clone()), &shapes, 1);
        let ingested = store.write().unwrap().insert_batch(late.iter().cloned());
        assert_eq!(ingested, Ok(late.len() as u64), "{approach}");
        reader_phase(&store, &Oracle::new(docs.clone()), &shapes, 2);

        // Non-vacuous: fan-outs reached the helpers, and single-shard
        // queries stayed on their caller.
        let stats = store.read().unwrap().executor_stats();
        assert!(stats.inline_runs > 0, "{approach}: {stats:?}");
        assert!(stats.tasks > stats.inline_runs, "{approach}: {stats:?}");
        assert!(
            !multi_core || stats.helper_tasks > 0,
            "{approach}: {stats:?}"
        );
    }

    // Every store is dropped, so every executor joined its helpers: the
    // process is back to the threads it started with. (The kernel drops
    // a joined thread from the count a moment after the join returns.)
    if let Some(baseline) = baseline {
        let deadline = Instant::now() + Duration::from_secs(5);
        while os_threads() != Some(baseline) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            os_threads(),
            Some(baseline),
            "helper threads outlived their stores"
        );
    }
}
