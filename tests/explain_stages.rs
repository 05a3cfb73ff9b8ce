//! Stage-timing invariants of `explain()`, checked across every
//! approach on the paper's workload:
//!
//! * every per-shard stage duration (`planningMicros`, `indexScanMicros`,
//!   `fetchFilterMicros`, `recoveryMicros`) is present and non-negative,
//! * per shard, the stage micros sum to at most the shard's
//!   `totalMicros`, and the slowest shard's total is at most the
//!   cluster `executionTimeMicros` + recovery,
//! * with a latency failpoint armed, the injected delay lands in the
//!   recovery stage and never inflates the wall-clock scan stages.

mod support;

use std::time::Duration;
use sts::cluster::FailPoint;
use sts::core::{Approach, StQuery};
use sts::document::{DateTime, Document, Value};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};
use support::store_for;

const NUM_SHARDS: usize = 6;
const STAGE_KEYS: [&str; 4] = [
    "planningMicros",
    "indexScanMicros",
    "fetchFilterMicros",
    "recoveryMicros",
];

fn corpus() -> Vec<Document> {
    generate(&FleetConfig {
        records: 2_000,
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

fn int_field(doc: &Document, key: &str) -> i64 {
    match doc.get(key) {
        Some(&Value::Int64(v)) => v,
        other => panic!("{key}: expected Int64, got {other:?}"),
    }
}

#[test]
fn every_stage_present_and_partitioned() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for q in workload() {
            let explain = store.st_explain(&q);
            let shards = match explain.get("shards") {
                Some(Value::Array(a)) => a,
                other => panic!("{approach}: shards missing: {other:?}"),
            };
            assert!(!shards.is_empty(), "{approach}: no shard entries");
            let cluster_total = int_field(&explain, "executionTimeMicros");
            assert!(cluster_total >= 0, "{approach}");
            for (key, lower) in [
                ("routingMicros", 0),
                ("planningMicros", 0),
                ("mergeMicros", 0),
            ] {
                assert!(int_field(&explain, key) >= lower, "{approach} {key}");
            }
            for entry in shards {
                let shard = match entry {
                    Value::Document(d) => d,
                    other => panic!("{approach}: shard entry {other:?}"),
                };
                let stages = match shard.get("stages") {
                    Some(Value::Document(d)) => d,
                    other => panic!("{approach}: stages missing: {other:?}"),
                };
                let mut sum = 0i64;
                for key in STAGE_KEYS {
                    let v = int_field(stages, key);
                    assert!(v >= 0, "{approach} {key} negative");
                    sum += v;
                }
                let total = int_field(shard, "totalMicros");
                assert!(
                    sum <= total,
                    "{approach} shard {}: stage sum {sum}us > total {total}us",
                    int_field(shard, "shard"),
                );
            }
        }
    }
}

#[test]
fn covering_stage_reported_for_hilbert_only() {
    let docs = corpus();
    let q = workload().remove(0);
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        let explain = store.st_explain(&q);
        let covering = match explain.get("covering") {
            Some(Value::Document(d)) => d,
            other => panic!("{approach}: covering missing: {other:?}"),
        };
        let ranges = int_field(covering, "ranges");
        if approach.uses_hilbert() {
            assert!(ranges > 0, "{approach}: no covering ranges");
        } else {
            assert_eq!(ranges, 0, "{approach}: baselines have no decomposition");
            assert_eq!(int_field(covering, "micros"), 0, "{approach}");
        }
    }
}

#[test]
fn injected_latency_lands_in_the_recovery_stage() {
    let docs = corpus();
    let q = workload().remove(0);
    // 100ms stays under the default 250ms shard timeout, so the shard
    // still answers on the first attempt — the delay is purely virtual.
    let injected = Duration::from_millis(100);
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);

        // Fault-free reference: recovery is zero everywhere.
        let clean = store.st_query(&q).1;
        for s in &clean.cluster.per_shard {
            assert_eq!(
                s.stage_breakdown().recovery,
                Duration::ZERO,
                "{approach}: recovery without faults"
            );
        }
        let clean_scan_max = clean
            .cluster
            .per_shard
            .iter()
            .map(|s| s.stats.scan_time())
            .max()
            .unwrap();

        store.arm_failpoint("lag", FailPoint::latency(0, injected).on_all_shards());
        let (_, faulted) = store.st_query(&q);
        store.disarm_all_failpoints();

        let mut saw_recovery = false;
        for s in &faulted.cluster.per_shard {
            let b = s.stage_breakdown();
            if b.recovery >= injected {
                saw_recovery = true;
            }
            // The virtual delay must appear in its own stage, and the
            // shard's total must account for it on top of wall time.
            assert_eq!(
                b.total(),
                s.total_time(),
                "{approach}: breakdown total drifted"
            );
            // Wall-clock scan stages stay in the fault-free ballpark:
            // nowhere near the injected 100ms (tolerate 50x scheduler
            // noise over the clean run's slowest scan).
            assert!(
                b.index_scan < clean_scan_max * 50 + Duration::from_millis(20),
                "{approach}: injected latency leaked into scan time ({:?})",
                b.index_scan
            );
        }
        assert!(saw_recovery, "{approach}: no shard recorded the delay");

        // And explain() surfaces it under recoveryMicros.
        store.arm_failpoint("lag", FailPoint::latency(0, injected).on_all_shards());
        let explain = store.st_explain(&q);
        store.disarm_all_failpoints();
        let shards = match explain.get("shards") {
            Some(Value::Array(a)) => a,
            other => panic!("{approach}: {other:?}"),
        };
        let max_recovery = shards
            .iter()
            .map(|e| match e {
                Value::Document(d) => match d.get("stages") {
                    Some(Value::Document(s)) => int_field(s, "recoveryMicros"),
                    other => panic!("{approach}: {other:?}"),
                },
                other => panic!("{approach}: {other:?}"),
            })
            .max()
            .unwrap();
        assert!(
            max_recovery >= injected.as_micros() as i64,
            "{approach}: recoveryMicros {max_recovery} < injected {}",
            injected.as_micros()
        );
    }
}
