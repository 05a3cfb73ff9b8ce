//! Distributed-trace invariants, checked across every approach on the
//! paper's workload:
//!
//! * every query yields exactly one root span (`stQuery`) and every
//!   child span nests strictly within its parent's interval,
//! * per-shard `planning`/`indexScan`/`fetchFilter` children partition
//!   their `shardExec` span exactly; `covering` appears iff the
//!   approach decomposes a Hilbert range,
//! * `recovery` spans appear iff the fault machinery engaged on that
//!   shard — never on clean runs, always when a failpoint fired, and
//!   exactly matching the per-shard recovery reports under random
//!   chaos,
//! * the Chrome trace-event export round-trips through the
//!   `serde_json` shim with the same structure.

mod support;

use std::time::Duration;
use sts::cluster::{FailPoint, FailPointMode};
use sts::core::{Approach, StQuery, TraceId};
use sts::document::{DateTime, Document};
use sts::obs::Trace;
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};
use support::store_for;

const NUM_SHARDS: usize = 6;

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

/// The structural invariants every trace must satisfy, asserted
/// explicitly (not only via `validate()`): exactly one root, and every
/// child's interval inside its parent's.
fn assert_nesting(trace: &Trace, ctx: &str) {
    trace.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut roots = 0usize;
    for s in trace.spans() {
        match s.parent {
            None => roots += 1,
            Some(pid) => {
                let p = trace.get(pid).expect("parent span exists");
                assert!(
                    s.start >= p.start && s.end() <= p.end(),
                    "{ctx}: span `{}` [{:?}, {:?}] escapes parent `{}` [{:?}, {:?}]",
                    s.name,
                    s.start,
                    s.end(),
                    p.name,
                    p.start,
                    p.end()
                );
            }
        }
    }
    assert_eq!(roots, 1, "{ctx}: expected exactly one root span");
}

fn spans_named<'t>(trace: &'t Trace, name: &str) -> Vec<&'t sts::obs::TraceSpan> {
    trace.spans().iter().filter(|s| s.name == name).collect()
}

#[test]
fn clean_traces_have_one_root_and_stage_children() {
    let docs = corpus();
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for (i, q) in workload().iter().enumerate() {
            let (_, report) = store.st_query(q);
            let trace = report.trace(TraceId(i as u64));
            let ctx = format!("{approach} query {i}");
            assert_nesting(&trace, &ctx);
            let root = trace.root().unwrap();
            assert_eq!(root.name, "stQuery", "{ctx}");

            // Fault-free runs never emit recovery spans.
            assert!(spans_named(&trace, "recovery").is_empty(), "{ctx}");

            // The router pipeline is always present, the candidate
            // plans built once on the router's track.
            assert_eq!(spans_named(&trace, "routing").len(), 1, "{ctx}");
            let planned = spans_named(&trace, "planning");
            let on_router = planned.iter().filter(|s| s.parent == Some(root.id));
            assert_eq!(on_router.count(), 1, "{ctx}");
            assert_eq!(spans_named(&trace, "merge").len(), 1, "{ctx}");

            // Covering appears iff the approach decomposes the query
            // rectangle into Hilbert ranges.
            let covering = spans_named(&trace, "covering").len();
            assert_eq!(covering, usize::from(approach.uses_hilbert()), "{ctx}");

            // Each shardExec span is exactly partitioned by its three
            // wall-clock stage children.
            let execs = spans_named(&trace, "shardExec");
            assert_eq!(execs.len(), report.cluster.nodes(), "{ctx}");
            for exec in execs {
                let mut staged = Duration::ZERO;
                for stage in ["planning", "indexScan", "fetchFilter"] {
                    let child = trace
                        .spans()
                        .iter()
                        .find(|s| s.name == stage && s.parent == Some(exec.id))
                        .unwrap_or_else(|| panic!("{ctx}: shardExec missing `{stage}`"));
                    staged += child.duration;
                }
                assert_eq!(
                    staged, exec.duration,
                    "{ctx}: stages do not partition shardExec"
                );
            }
        }
    }
}

#[test]
fn injected_latency_produces_recovery_spans() {
    let docs = corpus();
    let q = workload().remove(0);
    let injected = Duration::from_millis(100);
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        store.arm_failpoint("lag", FailPoint::latency(0, injected).on_all_shards());
        let (_, report) = store.st_query(&q);
        store.disarm_all_failpoints();

        let trace = report.trace(TraceId(0));
        let ctx = format!("{approach} faulted");
        assert_nesting(&trace, &ctx);

        // Every touched shard fired the failpoint, so every shardExec
        // carries a recovery child at least as long as the injection.
        let dirty = report
            .cluster
            .per_shard
            .iter()
            .filter(|s| !s.recovery.clean())
            .count();
        assert_eq!(dirty, report.cluster.nodes(), "{ctx}: all shards faulted");
        let recoveries = spans_named(&trace, "recovery");
        assert_eq!(recoveries.len(), dirty, "{ctx}");
        for rec in recoveries {
            assert!(rec.duration >= injected, "{ctx}: {:?}", rec.duration);
            let parent = trace
                .get(rec.parent.expect("recovery has a parent"))
                .unwrap();
            assert_eq!(parent.name, "shardExec", "{ctx}");
            assert_eq!(parent.track, rec.track, "{ctx}: recovery crossed tracks");
        }
    }
}

#[test]
fn chaos_recovery_spans_match_fault_reports() {
    let docs = corpus();
    let store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    store.arm_failpoint(
        "chaos",
        FailPoint::transient(0)
            .on_all_shards()
            .with_mode(FailPointMode::Random { probability: 0.4 }),
    );
    let mut fired_total = 0usize;
    for (i, q) in workload().iter().enumerate() {
        let (_, report) = store.st_query(q);
        let trace = report.trace(TraceId(i as u64));
        let ctx = format!("chaos query {i}");
        assert_nesting(&trace, &ctx);
        // Recovery spans appear on exactly the shards whose recovery
        // machinery engaged — no more, no fewer.
        let dirty: Vec<usize> = report
            .cluster
            .per_shard
            .iter()
            .filter(|s| !s.recovery.clean())
            .map(|s| s.shard)
            .collect();
        let mut traced: Vec<usize> = spans_named(&trace, "recovery")
            .iter()
            .map(|r| match r.track {
                sts::obs::Track::Shard(s) => s,
                sts::obs::Track::Router => panic!("{ctx}: recovery on router track"),
            })
            .collect();
        traced.sort_unstable();
        let mut expected = dirty.clone();
        expected.sort_unstable();
        assert_eq!(traced, expected, "{ctx}");
        fired_total += dirty.len();
    }
    store.disarm_all_failpoints();
    assert!(fired_total > 0, "chaos failpoint never fired");
}

#[test]
fn chrome_export_round_trips_through_the_shim() {
    let docs = corpus();
    let q = workload().remove(0);
    let store = store_for(Approach::HilStar, &docs, R_MBR, NUM_SHARDS);
    // Fault one shard so the export includes a recovery span too.
    store.arm_failpoint("lag", FailPoint::latency(0, Duration::from_millis(5)));
    let (_, report) = store.st_query(&q);
    store.disarm_all_failpoints();
    let trace = report.trace(TraceId(42));
    assert_nesting(&trace, "export");

    let json = trace.to_chrome_json();
    let v = serde_json::from_str(&json).expect("chrome JSON parses through the shim");
    let events = v
        .get("traceEvents")
        .and_then(serde::Json::as_array)
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(serde::Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), trace.len());
    let roots = complete
        .iter()
        .filter(|e| {
            e.get("args")
                .map(|a| a.get("parent").is_none())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(roots, 1, "exactly one root event in the export");
    // The router track is labelled for the Perfetto UI.
    let labels: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(serde::Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(serde::Json::as_str)
        })
        .collect();
    assert!(labels.contains(&"router"), "{labels:?}");
}

#[test]
fn st_trace_exports_the_query_it_just_ran() {
    let docs = corpus();
    let q = workload().remove(0);
    let store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    let trace = store.st_trace(&q);
    assert_nesting(&trace, "st_trace");
    let root = trace.root().unwrap();
    assert_eq!(root.name, "stQuery");
    assert!(trace.len() >= 4, "root + routing + shardExec(s) + merge");
}
