//! Invariants of the cluster explain report, checked over the paper's
//! workload on every approach:
//!
//! * per shard, `keys_examined ≥ n_returned` and
//!   `docs_examined ≥ n_returned` (every match was found and fetched),
//! * `nodes() ≤ num_shards`, with equality on broadcasts,
//! * `broadcast` exactly when the filter carries no shard-key
//!   constraint,
//! * all retry/hedge/timeout counters stay zero while no failpoint is
//!   armed,
//! * the executor dispatch: a single-shard query runs inline, and
//!   helpers never run more than `nodes − 1` of a fan-out's tasks.

mod support;

use sts::core::{Approach, StQuery};
use sts::document::{DateTime, Document};
use sts::query::Filter;
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};
use support::oracle::Oracle;
use support::store_for;

const NUM_SHARDS: usize = 6;

fn corpus() -> Vec<Document> {
    generate(&FleetConfig {
        records: 3_000,
        vehicles: 20,
        extra_fields: 4,
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

#[test]
fn per_shard_examination_bounds_hold() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for q in workload() {
            let (_, report) = store.st_query(&q);
            for s in &report.cluster.per_shard {
                assert!(
                    s.stats.keys_examined >= s.stats.n_returned,
                    "{approach} shard {}: {} keys < {} returned",
                    s.shard,
                    s.stats.keys_examined,
                    s.stats.n_returned
                );
                assert!(
                    s.stats.docs_examined >= s.stats.n_returned,
                    "{approach} shard {}: {} docs < {} returned",
                    s.shard,
                    s.stats.docs_examined,
                    s.stats.n_returned
                );
                assert!(s.stats.completed, "{approach} shard {}", s.shard);
            }
        }
    }
}

#[test]
fn nodes_bounded_by_shard_count() {
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for q in workload() {
            let (res, report) = store.st_query(&q);
            assert!(report.cluster.nodes() <= NUM_SHARDS, "{approach}");
            if report.cluster.broadcast {
                assert_eq!(report.cluster.nodes(), NUM_SHARDS, "{approach}");
            }
            // Shard ids are valid and unique.
            let mut seen = std::collections::BTreeSet::new();
            for s in &report.cluster.per_shard {
                assert!(s.shard < NUM_SHARDS);
                assert!(seen.insert(s.shard), "duplicate shard {}", s.shard);
            }
            // The per-shard tallies sum to the gathered result.
            assert_eq!(report.cluster.n_returned(), res.len() as u64);
            assert_eq!(report.cluster.n_returned(), oracle.count(&q));
        }
    }
}

#[test]
fn broadcast_iff_no_shard_key_constraint() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        // The paper's queries always constrain the shard key (date for
        // the baselines, hilbertIndex + date for the Hilbert methods).
        for q in workload() {
            let (_, report) = store.st_query(&q);
            assert!(
                !report.cluster.broadcast,
                "{approach}: shard-key-constrained query must target, not broadcast"
            );
        }
        // A filter with no shard-key constraint must broadcast to all
        // shards.
        let off_key = Filter::gte("vehicleId", "veh-00000");
        let (_, report) = store.cluster().query(&off_key);
        assert!(report.broadcast, "{approach}");
        assert_eq!(report.nodes(), NUM_SHARDS, "{approach}");
    }
}

#[test]
fn recovery_counters_zero_without_failpoints() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        assert!(!store.cluster().fault_injector().is_active());
        for q in workload() {
            let (_, report) = store.st_query(&q);
            let c = &report.cluster;
            assert!(c.fault_free(), "{approach}");
            assert!(!c.partial);
            assert_eq!(c.total_retries(), 0);
            assert_eq!(c.total_hedges(), 0);
            assert_eq!(c.total_timeouts(), 0);
            assert!(c.timed_out_shards().is_empty());
            assert!(c.failed_shards().is_empty());
            assert!(c.hedge_served_shards().is_empty());
            assert_eq!(c.max_virtual_delay(), std::time::Duration::ZERO);
            for s in &c.per_shard {
                assert_eq!(s.recovery.attempts, 1, "{approach} shard {}", s.shard);
                assert!(!s.recovery.served_by_replica);
                assert!(!s.recovery.gave_up);
            }
        }
    }
}

/// `st_explain()` renders each shard's residual. On hil* the index
/// proves the `$or` of curve intervals (B+tree bounds) and the date
/// window (skip-scan), so only the `$geoWithin` is left to check.
#[test]
fn hil_star_explain_reports_the_geo_within_alone_as_residual() {
    use sts::document::Value;
    let store = store_for(Approach::HilStar, &corpus(), R_MBR, NUM_SHARDS);
    let mut shards_seen = 0;
    for q in workload() {
        let want = format!(
            "{:?}",
            Filter::GeoWithin {
                path: "location".into(),
                rect: q.rect,
            }
        );
        let explain = store.st_explain(&q);
        let Some(Value::Array(shards)) = explain.get("shards") else {
            panic!("explain lacks shards: {explain:?}");
        };
        for shard in shards {
            let Value::Document(shard) = shard else {
                panic!("shard entry is not a document");
            };
            assert_eq!(
                shard.get("indexUsed").and_then(Value::as_str),
                Some("hilbertIndex_1_date_1")
            );
            assert_eq!(
                shard.get("residual").and_then(Value::as_str),
                Some(want.as_str())
            );
            shards_seen += 1;
        }
    }
    assert!(shards_seen > 0, "no shard was ever targeted");
}

/// `st_explain()` shows how the shard executor dispatched the fan-out.
/// The caller always takes a task itself, so helpers run at most
/// `nodes − 1`; one shard never leaves the caller's thread.
#[test]
fn explain_reports_the_executor_dispatch() {
    use sts::document::Value;
    let docs = corpus();
    let mut single_shard = 0;
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for q in workload() {
            let explain = store.st_explain(&q);
            let nodes = explain.get("nodes").and_then(Value::as_i64).unwrap();
            let Some(Value::Document(exec)) = explain.get("executor") else {
                panic!("explain lacks executor: {explain:?}");
            };
            let mode = exec.get("mode").and_then(Value::as_str).unwrap();
            let woken = exec.get("helpersWoken").and_then(Value::as_i64).unwrap();
            let helper_tasks = exec.get("helperTasks").and_then(Value::as_i64).unwrap();
            assert_eq!(mode, if woken == 0 { "inline" } else { "pool" });
            assert!(
                woken <= (nodes - 1).max(0),
                "{approach}: {woken} of {nodes}"
            );
            assert!(helper_tasks <= (nodes - 1).max(0), "{approach}");
            assert!(woken > 0 || helper_tasks == 0, "{approach}");
            if nodes == 1 {
                assert_eq!((mode, woken, helper_tasks), ("inline", 0, 0), "{approach}");
                single_shard += 1;
            }
        }
    }
    assert!(single_shard > 0, "no query ever targeted a single shard");
}
