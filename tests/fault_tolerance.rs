//! Fault drills for the scatter/gather router: with failpoints armed,
//! queries still return the complete, oracle-verified result set, and
//! the report's recovery observables are deterministic under a fixed
//! seed.
//!
//! Determinism note: all assertions are on *virtual* quantities
//! (attempt counts, injected latency sums) — never on wall-clock
//! durations. Set `STS_CHAOS=1` to run the full generated chaos suite
//! (the CI chaos job does); by default a subset runs.

mod support;

use std::time::Duration;
use sts::cluster::{FailPoint, FailPointMode, QueryExecOptions, RecoveryPolicy, ShardRecovery};
use sts::core::{Approach, QueryError, StQuery, StStore};
use sts::document::{DateTime, Document};
use sts::workload::chaos::{default_profile, scenarios, ChaosConfig};
use sts::workload::fleet::{generate, FleetConfig};
use sts::workload::queries::full_workload;
use sts::workload::{Record, R_MBR};
use support::oracle::{result_id_set, Oracle};
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

/// The three single-shard fault kinds of the acceptance criterion.
fn single_shard_faults(shard: usize) -> Vec<(&'static str, FailPoint)> {
    vec![
        // Latency far beyond the per-shard timeout: every primary
        // attempt times out.
        (
            "latency",
            FailPoint::latency(shard, Duration::from_secs(3600)),
        ),
        ("transient", FailPoint::transient(shard)),
        ("hard-failure", FailPoint::hard_failure(shard)),
    ]
}

/// Run the workload and check every result against the oracle.
fn assert_complete_and_correct(store: &StStore, oracle: &Oracle, label: &str) {
    for q in workload() {
        let (docs, report) = store.st_query(&q);
        assert!(!report.cluster.partial, "{label}: partial result");
        assert_eq!(
            result_id_set(&docs),
            oracle.id_set(&q),
            "{label}: wrong result set for {q:?}"
        );
    }
}

#[test]
fn single_shard_faults_preserve_correctness_for_every_approach() {
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    // Afflict a middle shard: chunks land on it for every approach.
    let shard = NUM_SHARDS / 2;
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        for (kind, point) in single_shard_faults(shard) {
            store.arm_failpoint("drill", point);
            assert_complete_and_correct(&store, &oracle, &format!("{approach}/{kind}"));
            store.disarm_all_failpoints();
        }
    }
}

#[test]
fn recovery_observables_reflect_the_armed_fault() {
    let docs = corpus();
    let shard = NUM_SHARDS / 2;
    let store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    let hits = |rec: &ShardRecovery| rec.attempts > 1;

    // Timeout-inducing latency: the afflicted shard hedges.
    store.arm_failpoint(
        "drill",
        FailPoint::latency(shard, Duration::from_secs(3600)),
    );
    let mut saw_shard = false;
    for q in workload() {
        let (_, report) = store.st_query(&q);
        for s in &report.cluster.per_shard {
            if s.shard == shard {
                saw_shard = true;
                assert!(hits(&s.recovery));
                assert_eq!(s.recovery.timeouts, 1);
                assert_eq!(s.recovery.hedges, 1);
                assert!(s.recovery.served_by_replica);
                assert_eq!(
                    s.recovery.injected_latency,
                    store.cluster().recovery_policy().shard_timeout
                );
            } else {
                assert!(s.recovery.clean(), "healthy shard {} touched", s.shard);
            }
        }
    }
    assert!(saw_shard, "workload never targeted the afflicted shard");
    store.disarm_all_failpoints();

    // Transient errors: retries exhaust on the primary, hedge succeeds.
    store.arm_failpoint("drill", FailPoint::transient(shard));
    let policy = *store.cluster().recovery_policy();
    for q in workload() {
        let (_, report) = store.st_query(&q);
        for s in &report.cluster.per_shard {
            if s.shard == shard {
                assert_eq!(s.recovery.retries, policy.max_retries);
                assert_eq!(s.recovery.transient_errors, 1 + policy.max_retries);
                assert_eq!(s.recovery.hedges, 1);
                assert!(s.recovery.backoff_wait > Duration::ZERO);
            }
        }
    }
    store.disarm_all_failpoints();

    // Hard failure: no retries against the dead primary, one hedge.
    store.arm_failpoint("drill", FailPoint::hard_failure(shard));
    for q in workload() {
        let (_, report) = store.st_query(&q);
        for s in &report.cluster.per_shard {
            if s.shard == shard {
                assert_eq!(s.recovery.retries, 0);
                assert_eq!(s.recovery.hedges, 1);
                assert_eq!(s.recovery.attempts, 2);
                assert!(s.recovery.served_by_replica);
            }
        }
    }
}

/// Strip a report down to its deterministic recovery content (wall
/// times and per-shard durations are measurements, not replayable).
fn recovery_trace(store: &StStore) -> Vec<(usize, ShardRecovery, u64)> {
    let mut out = Vec::new();
    for q in workload() {
        let (_, report) = store.st_query(&q);
        for s in &report.cluster.per_shard {
            out.push((s.shard, s.recovery, s.stats.n_returned));
        }
    }
    out
}

#[test]
fn recovery_reports_are_deterministic_across_runs() {
    let docs = corpus();
    let build = || {
        let store = store_for(Approach::HilStar, &docs, R_MBR, NUM_SHARDS);
        // A probabilistic failpoint everywhere — the hardest case for
        // determinism: outcomes must be a pure function of the seed and
        // the attempt coordinates, not of thread scheduling.
        store.arm_failpoint(
            "flaky-everywhere",
            FailPoint::transient(0)
                .on_all_shards()
                .with_mode(FailPointMode::Random { probability: 0.4 }),
        );
        store
    };
    let first = recovery_trace(&build());
    let second = recovery_trace(&build());
    assert_eq!(first, second, "two identical runs must replay identically");
    assert!(
        first.iter().any(|(_, rec, _)| rec.attempts > 1),
        "the drill should actually inject faults"
    );
}

#[test]
fn both_copies_down_yields_partial_results_and_errors() {
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    let shard = NUM_SHARDS / 2;
    let store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    store.arm_failpoint("gone", FailPoint::hard_failure(shard).on_replica_too());
    let mut lost_any = false;
    for q in workload() {
        let (docs_got, report) = store.st_query(&q);
        let targeted = report.cluster.per_shard.iter().any(|s| s.shard == shard);
        if targeted {
            assert!(report.cluster.partial);
            assert_eq!(report.cluster.failed_shards(), vec![shard]);
            assert!(docs_got.len() as u64 <= oracle.count(&q));
            match store.try_st_query(&q) {
                Err(QueryError::ShardsUnavailable { shards }) => {
                    assert_eq!(shards, vec![shard]);
                }
                other => panic!("expected ShardsUnavailable, got {other:?}"),
            }
            lost_any = true;
        } else {
            assert!(!report.cluster.partial);
        }
    }
    assert!(lost_any, "workload never targeted the dead shard");
}

#[test]
fn fail_fast_policy_documents_what_recovery_buys() {
    let docs = corpus();
    let shard = NUM_SHARDS / 2;
    let mut store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    store.set_recovery_policy(RecoveryPolicy::fail_fast());
    store.arm_failpoint("drill", FailPoint::transient(shard));
    let mut dropped = false;
    for q in workload() {
        let (_, report) = store.st_query(&q);
        if report.cluster.per_shard.iter().any(|s| s.shard == shard) {
            assert!(report.cluster.partial, "fail-fast keeps no shard alive");
            dropped = true;
        }
    }
    assert!(dropped);
}

/// `QueryExecOptions::recovery` overrides the store's policy for one
/// query: under fail-fast a dead primary drops its shard, while the
/// default policy passed per query hedges to the replica and returns
/// the full-scan answer.
#[test]
fn per_query_recovery_override_rescues_a_fail_fast_store() {
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    let shard = NUM_SHARDS / 2;
    let mut store = store_for(Approach::Hil, &docs, R_MBR, NUM_SHARDS);
    store.set_recovery_policy(RecoveryPolicy::fail_fast());
    store.arm_failpoint("drill", FailPoint::hard_failure(shard));
    let mut targeted_any = false;
    for q in workload() {
        let filter = store.filter_for(&q);
        let (_, plain) = store
            .cluster()
            .query_exec(&filter, QueryExecOptions::default());
        if !plain.per_shard.iter().any(|s| s.shard == shard) {
            continue;
        }
        targeted_any = true;
        assert!(plain.partial, "fail-fast drops the dead shard");
        let (got, rescued) = store.cluster().query_exec(
            &filter,
            QueryExecOptions {
                route: None,
                recovery: Some(RecoveryPolicy::default()),
            },
        );
        assert!(!rescued.partial, "the override hedges to the replica");
        assert_eq!(result_id_set(&got), oracle.id_set(&q), "{q:?}");
        assert_eq!(rescued.total_hedges(), 1, "exactly the dead shard hedges");
    }
    assert!(targeted_any, "workload never targeted the dead shard");
}

#[test]
fn chaos_default_profile_preserves_correctness() {
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    let profile = default_profile(NUM_SHARDS);
    for approach in Approach::ALL {
        let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
        profile.arm(&store);
        assert_complete_and_correct(&store, &oracle, &format!("{approach}/{}", profile.name));
    }
}

#[test]
fn chaos_generated_scenarios_preserve_correctness() {
    // The CI chaos job sets STS_CHAOS=1 for the full generated suite;
    // the default run keeps a fast subset.
    let full = std::env::var("STS_CHAOS").is_ok();
    let cfg = ChaosConfig {
        num_shards: NUM_SHARDS,
        scenarios: if full { 12 } else { 3 },
        ..Default::default()
    };
    let docs = corpus();
    let oracle = Oracle::new(docs.clone());
    let approaches: &[Approach] = if full {
        &Approach::ALL
    } else {
        &[Approach::Hil]
    };
    for scenario in scenarios(&cfg) {
        for &approach in approaches {
            let store = store_for(approach, &docs, R_MBR, NUM_SHARDS);
            scenario.arm(&store);
            assert_complete_and_correct(&store, &oracle, &format!("{approach}/{}", scenario.name));
        }
    }
}
