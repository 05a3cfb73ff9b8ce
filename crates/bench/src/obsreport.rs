//! Observability collection for the `obs-report` binary.
//!
//! Runs the same fixed-seed workload against every approach in the
//! paper's evaluation matrix with a *private* metrics registry and an
//! always-on slow-query profiler per store, then packages what came
//! back three ways:
//!
//! * [`ObsReport::dashboard`] — a human-readable cluster-health table
//!   (per-shard load skew, balancer history),
//! * [`ObsReport::to_json`] — the same data machine-readable,
//! * [`ObsReport::slowest`] — the slowest profiled query, whose
//!   [`ProfileEntry::trace`] exports as Chrome trace-event JSON.
//!
//! [`verify_chrome_trace`] is the CI gate: it re-parses an exported
//! trace through the `serde_json` shim and checks the structural
//! invariants Perfetto relies on (one root, complete events with
//! `ts`/`dur`, metadata present).

use crate::{
    build_store, clustered_query_batch, dataset_records, small_query_batch, Dataset, HarnessConfig,
};
use serde::Json;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use sts_core::{Approach, HealthSnapshot, ProfileEntry, ProfilerConfig, Skew};
use sts_obs::{Registry, RegistrySnapshot};

/// Knobs for one `obs-report` collection run.
#[derive(Clone, Copy, Debug)]
pub struct ObsReportConfig {
    /// Queries per approach.
    pub queries: usize,
    /// Slow-query profiler threshold (0 profiles everything).
    pub threshold: Duration,
    /// Use the temporally clustered hot-window workload
    /// ([`clustered_query_batch`]) instead of the uniform dispatcher
    /// batch ([`small_query_batch`]).
    pub clustered: bool,
}

impl Default for ObsReportConfig {
    fn default() -> Self {
        ObsReportConfig {
            queries: 40,
            threshold: Duration::ZERO,
            clustered: true,
        }
    }
}

/// Everything one approach's store observed over the workload.
pub struct ApproachObservability {
    /// Which approach ran.
    pub approach: Approach,
    /// The slow-query profile (every query over the threshold).
    pub profiled: Vec<ProfileEntry>,
    /// Cluster-health snapshot after the workload.
    pub health: HealthSnapshot,
    /// The store's private metrics registry, snapshotted.
    pub metrics: RegistrySnapshot,
    /// Total documents the workload returned.
    pub results: u64,
}

/// One full collection run across [`Approach::ALL`].
pub struct ObsReport {
    /// Queries each approach ran.
    pub queries: usize,
    /// Whether the clustered hot-window workload was used.
    pub clustered: bool,
    /// Profiler threshold used.
    pub threshold: Duration,
    /// Per-approach observations, in [`Approach::ALL`] order.
    pub approaches: Vec<ApproachObservability>,
}

impl ObsReport {
    /// Build each approach's store on the fixed-seed R set, give it a
    /// private metrics registry and an always-sampling profiler, run
    /// the workload, and snapshot what the store observed.
    pub fn collect(cfg: &ObsReportConfig, harness: &HarnessConfig) -> ObsReport {
        let records = dataset_records(Dataset::R, harness, 1);
        let batch = if cfg.clustered {
            clustered_query_batch(cfg.queries, harness.seed)
        } else {
            small_query_batch(cfg.queries, harness.seed)
        };
        let approaches = Approach::ALL
            .iter()
            .map(|&approach| {
                let mut store = build_store(approach, Dataset::R, &records, harness, false);
                store.set_metrics_registry(Arc::new(Registry::new()));
                store.set_profiler(ProfilerConfig {
                    enabled: true,
                    threshold: cfg.threshold,
                    sample_rate: 1.0,
                    capacity: cfg.queries.max(16),
                });
                let mut results = 0u64;
                for q in &batch {
                    let (docs, _) = store.st_query(q);
                    results += docs.len() as u64;
                }
                ApproachObservability {
                    approach,
                    profiled: store.profiler().entries(),
                    health: store.health_snapshot(),
                    metrics: store.metrics_registry().snapshot(),
                    results,
                }
            })
            .collect();
        ObsReport {
            queries: cfg.queries,
            clustered: cfg.clustered,
            threshold: cfg.threshold,
            approaches,
        }
    }

    /// The slowest profiled query across all approaches (ties broken
    /// by op id, mirroring `Profiler::slowest`).
    pub fn slowest(&self) -> Option<(&ApproachObservability, &ProfileEntry)> {
        self.approaches
            .iter()
            .flat_map(|a| a.profiled.iter().map(move |e| (a, e)))
            .max_by_key(|(_, e)| (e.latency, e.op))
    }

    /// Human-readable cluster-health dashboard.
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        let workload = if self.clustered {
            "clustered hot-window"
        } else {
            "uniform dispatcher"
        };
        let _ = writeln!(
            out,
            "cluster observability — {} queries/approach ({workload} workload), \
             profiler threshold {} µs",
            self.queries,
            self.threshold.as_micros()
        );
        let _ = writeln!(
            out,
            "{:<9} {:>7} {:>9} {:>8} {:>7} {:>8} {:>10} {:>10} {:>9} {:>12} {:>7}",
            "approach",
            "routed",
            "max/shard",
            "mean",
            "imbal",
            "gini(q)",
            "gini(keys)",
            "gini(docs)",
            "profiled",
            "slowest(µs)",
            "events"
        );
        for a in &self.approaches {
            let q = a.health.queries_skew();
            let slowest = a
                .profiled
                .iter()
                .map(|e| e.latency)
                .max()
                .unwrap_or(Duration::ZERO);
            let _ = writeln!(
                out,
                "{:<9} {:>7} {:>9.0} {:>8.1} {:>7.2} {:>8.3} {:>10.3} {:>10.3} {:>9} {:>12} {:>7}",
                a.approach.name(),
                a.health.total_queries(),
                q.max,
                q.mean,
                q.imbalance,
                q.gini,
                a.health.keys_skew().gini,
                a.health.docs_skew().gini,
                a.profiled.len(),
                slowest.as_micros(),
                a.health.events.len()
            );
        }
        for a in &self.approaches {
            let allocs = a.metrics.counter("shard.exec_allocs").unwrap_or(0);
            if let Some(h) = a.metrics.histogram("query.covering_ranges") {
                let (p50, p95, _, _, max) = h.value_percentiles();
                let _ = writeln!(
                    out,
                    "covering ranges — {:<6} n={} p50={} p95={} max={}  exec allocs {}",
                    a.approach.name(),
                    h.count,
                    p50,
                    p95,
                    max,
                    allocs
                );
            } else {
                let _ = writeln!(
                    out,
                    "covering ranges — {:<6} (no decomposition)  exec allocs {}",
                    a.approach.name(),
                    allocs
                );
            }
        }
        if let Some((a, e)) = self.slowest() {
            let _ = writeln!(
                out,
                "slowest query: op {} on {} ({}, {} µs, {} shard(s), {} returned)",
                e.op,
                a.approach.name(),
                e.kind.name(),
                e.latency.as_micros(),
                e.report.cluster.nodes(),
                e.report.cluster.n_returned()
            );
        }
        out
    }

    /// Machine-readable counterpart of [`Self::dashboard`].
    pub fn to_json(&self) -> Json {
        let approaches: Vec<Json> = self
            .approaches
            .iter()
            .map(|a| {
                let shards: Vec<Json> = a
                    .health
                    .shards
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("shard".into(), Json::UInt(s.shard as u64)),
                            ("queriesRouted".into(), Json::UInt(s.queries_routed)),
                            ("keysExamined".into(), Json::UInt(s.keys_examined)),
                            ("docsExamined".into(), Json::UInt(s.docs_examined)),
                            ("docsReturned".into(), Json::UInt(s.docs_returned)),
                            ("docsStored".into(), Json::UInt(s.docs_stored)),
                        ])
                    })
                    .collect();
                let slowest = a
                    .profiled
                    .iter()
                    .map(|e| e.latency)
                    .max()
                    .unwrap_or(Duration::ZERO);
                Json::Obj(vec![
                    ("approach".into(), Json::Str(a.approach.name().into())),
                    ("results".into(), Json::UInt(a.results)),
                    (
                        "routedExecutions".into(),
                        Json::UInt(a.health.total_queries()),
                    ),
                    (
                        "skew".into(),
                        Json::Obj(vec![
                            ("queries".into(), skew_json(&a.health.queries_skew())),
                            ("keysExamined".into(), skew_json(&a.health.keys_skew())),
                            ("docsExamined".into(), skew_json(&a.health.docs_skew())),
                        ]),
                    ),
                    ("shards".into(), Json::Arr(shards)),
                    (
                        "balancerEvents".into(),
                        Json::UInt(a.health.events.len() as u64),
                    ),
                    ("profiled".into(), Json::UInt(a.profiled.len() as u64)),
                    (
                        "slowestMicros".into(),
                        Json::UInt(slowest.as_micros() as u64),
                    ),
                    (
                        "routerQueries".into(),
                        Json::UInt(a.metrics.counter("router.queries").unwrap_or(0)),
                    ),
                    (
                        "execAllocs".into(),
                        Json::UInt(a.metrics.counter("shard.exec_allocs").unwrap_or(0)),
                    ),
                    (
                        "coveringRanges".into(),
                        match a.metrics.histogram("query.covering_ranges") {
                            None => Json::Null,
                            Some(h) => {
                                let (p50, p95, p99, mean, max) = h.value_percentiles();
                                Json::Obj(vec![
                                    ("count".into(), Json::UInt(h.count)),
                                    ("p50".into(), Json::UInt(p50)),
                                    ("p95".into(), Json::UInt(p95)),
                                    ("p99".into(), Json::UInt(p99)),
                                    ("mean".into(), Json::UInt(mean)),
                                    ("max".into(), Json::UInt(max)),
                                ])
                            }
                        },
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("sts-obsreport/1".into())),
            ("queries".into(), Json::UInt(self.queries as u64)),
            ("clustered".into(), Json::Bool(self.clustered)),
            (
                "thresholdMicros".into(),
                Json::UInt(self.threshold.as_micros() as u64),
            ),
            ("approaches".into(), Json::Arr(approaches)),
        ]);
        // Canonical form: recursively sorted keys, so exported reports
        // diff cleanly run-to-run and across schema consumers.
        sort_json_keys(doc)
    }
}

/// Recursively sort every object's keys, so exported reports diff
/// cleanly run to run.
fn sort_json_keys(v: Json) -> Json {
    match v {
        Json::Obj(mut entries) => {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(
                entries
                    .into_iter()
                    .map(|(k, v)| (k, sort_json_keys(v)))
                    .collect(),
            )
        }
        Json::Arr(items) => Json::Arr(items.into_iter().map(sort_json_keys).collect()),
        other => other,
    }
}

fn skew_json(s: &Skew) -> Json {
    Json::Obj(vec![
        ("max".into(), Json::Float(s.max)),
        ("mean".into(), Json::Float(s.mean)),
        ("imbalance".into(), Json::Float(s.imbalance)),
        ("gini".into(), Json::Float(s.gini)),
    ])
}

/// Re-parse an exported Chrome trace through the `serde_json` shim and
/// check the structural invariants `chrome://tracing`/Perfetto rely on:
/// `expected_spans` complete (`ph: "X"`) events carrying `name`, float
/// `ts`/`dur`, `pid`/`tid` and an `args` object; exactly one root span
/// (no `parent` arg); `displayTimeUnit` and the virtual-clock marker
/// present. This is the CI round-trip gate.
pub fn verify_chrome_trace(json: &str, expected_spans: usize) -> Result<(), String> {
    let v = serde_json::from_str(json).map_err(|e| format!("trace JSON does not parse: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing `traceEvents` array")?;
    let mut spans = 0usize;
    let mut roots = 0usize;
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            Some("M") => continue,
            other => return Err(format!("unexpected event phase {other:?}")),
        }
        spans += 1;
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err("span event missing `name`".into());
        }
        for key in ["ts", "dur"] {
            if e.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("span event missing numeric `{key}`"));
            }
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("span event missing integer `{key}`"));
            }
        }
        let args = e.get("args").ok_or("span event missing `args`")?;
        if args.as_object().is_none() {
            return Err("span `args` is not an object".into());
        }
        if args.get("spanId").and_then(Json::as_u64).is_none() {
            return Err("span `args` missing `spanId`".into());
        }
        if args.get("parent").is_none() {
            roots += 1;
        }
    }
    if spans != expected_spans {
        return Err(format!("expected {expected_spans} spans, found {spans}"));
    }
    if roots != 1 {
        return Err(format!("expected exactly one root span, found {roots}"));
    }
    if v.get("displayTimeUnit").and_then(Json::as_str) != Some("ms") {
        return Err("missing `displayTimeUnit: \"ms\"`".into());
    }
    let virtual_clock = v
        .get("otherData")
        .and_then(|o| o.get("virtualClock"))
        .and_then(Json::as_bool);
    if virtual_clock != Some(true) {
        return Err("missing `otherData.virtualClock: true` marker".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_harness(num_shards: usize) -> HarnessConfig {
        HarnessConfig {
            scale: 0.0005,
            num_shards,
            ..Default::default()
        }
    }

    #[test]
    fn json_keys_sort_recursively() {
        let doc = serde_json::from_str(r#"{"b":[{"z":1,"y":2}],"a":true}"#).unwrap();
        let sorted = serde_json::to_string(&sort_json_keys(doc)).unwrap();
        assert_eq!(sorted, r#"{"a":true,"b":[{"y":2,"z":1}]}"#);
    }

    /// Per-store registries keep approach metrics isolated — running a
    /// workload on one store must not move another store's counters or
    /// histograms.
    #[test]
    fn metrics_registries_do_not_bleed_across_stores() {
        let cfg = HarnessConfig {
            scale: 0.0002,
            num_shards: 3,
            ..Default::default()
        };
        let records = dataset_records(Dataset::R, &cfg, 1);
        let reg_a = Arc::new(Registry::new());
        let reg_b = Arc::new(Registry::new());
        let mut store_a = build_store(Approach::Hil, Dataset::R, &records, &cfg, false);
        store_a.set_metrics_registry(reg_a.clone());
        let mut store_b = build_store(Approach::BslST, Dataset::R, &records, &cfg, false);
        store_b.set_metrics_registry(reg_b.clone());

        let batch = small_query_batch(10, cfg.seed);
        for q in &batch {
            store_a.st_query(q);
        }
        let snap_a = reg_a.snapshot();
        assert_eq!(snap_a.counter("router.queries"), Some(10));
        let planning = snap_a
            .histogram("shard.planning")
            .expect("store A recorded shard stages");
        assert!(planning.count > 0);
        // Store B's registry saw nothing — including the worker-thread
        // shard histograms.
        let snap_b = reg_b.snapshot();
        assert_eq!(snap_b.counter("router.queries"), None);
        assert!(snap_b.histogram("shard.planning").is_none());

        // And the reverse direction leaves A's totals untouched.
        for q in &batch {
            store_b.st_query(q);
        }
        let snap_a2 = reg_a.snapshot();
        assert_eq!(snap_a2.counter("router.queries"), Some(10));
        assert_eq!(
            snap_a2.histogram("shard.planning").map(|h| h.count),
            Some(planning.count)
        );
        assert_eq!(reg_b.snapshot().counter("router.queries"), Some(10));
    }

    /// The PR's acceptance criteria on a fixed seed: (a) the slowest
    /// profiled query's trace validates and round-trips as Chrome
    /// trace-event JSON, (b) the profiler captured every query with
    /// exact stage breakdowns, (c) the Hilbert methods spread the
    /// clustered workload measurably more evenly than the baselines.
    #[test]
    fn obs_report_meets_acceptance_criteria() {
        let harness = small_harness(6);
        let report = ObsReport::collect(
            &ObsReportConfig {
                queries: 40,
                threshold: Duration::ZERO,
                clustered: true,
            },
            &harness,
        );
        assert_eq!(report.approaches.len(), Approach::ALL.len());

        // (b) Every query lands in the profile, with the entry latency
        // equal to the report's total virtual-clock time and the stage
        // breakdown partitioning each shard's execution exactly.
        for a in &report.approaches {
            assert_eq!(
                a.profiled.len(),
                40,
                "{} profile incomplete",
                a.approach.name()
            );
            let mut routed = 0u64;
            for e in &a.profiled {
                assert_eq!(e.latency, e.report.total_time());
                for s in &e.report.cluster.per_shard {
                    assert_eq!(s.stage_breakdown().total(), s.total_time());
                }
                routed += e.report.cluster.nodes() as u64;
            }
            // Health counters agree with the profiled shard executions.
            assert_eq!(a.health.total_queries(), routed, "{}", a.approach.name());
            assert_eq!(
                a.metrics.counter("router.queries"),
                Some(40),
                "{}",
                a.approach.name()
            );
        }

        // Covering-size visibility: the Hilbert methods record one
        // histogram sample per query; baselines never decompose, so the
        // histogram must not exist on their registries.
        for a in &report.approaches {
            let h = a.metrics.histogram("query.covering_ranges");
            if a.approach.uses_hilbert() {
                let h = h.expect("hilbert approaches record covering sizes");
                assert_eq!(h.count, 40, "{}", a.approach.name());
                let (p50, p95, _, _, max) = h.value_percentiles();
                assert!(p50 >= 1 && p50 <= p95 && p95 <= max);
            } else {
                assert!(h.is_none(), "{} should not decompose", a.approach.name());
            }
        }

        // (a) Slowest trace validates and survives the chrome round-trip.
        let (_, slowest) = report.slowest().expect("profile is non-empty");
        let trace = slowest.trace();
        trace.validate().expect("span nesting invariants");
        verify_chrome_trace(&trace.to_chrome_json(), trace.len()).expect("chrome trace round-trip");

        // (c) Hilbert sharding beats date sharding on shard-load
        // imbalance for the clustered workload.
        let gini = |name: &str| {
            report
                .approaches
                .iter()
                .find(|a| a.approach.name() == name)
                .unwrap()
                .health
                .queries_skew()
                .gini
        };
        for hil in ["hil", "hil*"] {
            for bsl in ["bslST", "bslTS"] {
                assert!(
                    gini(hil) + 0.05 < gini(bsl),
                    "gini({hil}) = {:.3} not measurably below gini({bsl}) = {:.3}",
                    gini(hil),
                    gini(bsl)
                );
            }
        }

        // The machine-readable dump round-trips through the shim too.
        let json = serde_json::to_string_pretty(&report.to_json()).unwrap();
        let parsed = serde_json::from_str(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("sts-obsreport/1")
        );
        assert_eq!(
            parsed
                .get("approaches")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
        let dash = report.dashboard();
        for a in Approach::ALL {
            assert!(dash.contains(a.name()), "dashboard missing {}", a.name());
        }
    }

    /// A hand-broken trace fails the round-trip gate.
    #[test]
    fn verify_chrome_trace_rejects_malformed_input() {
        assert!(verify_chrome_trace("not json", 1).is_err());
        assert!(verify_chrome_trace(r#"{"traceEvents": 3}"#, 0).is_err());
        // Two roots.
        let two_roots = r#"{
            "traceEvents": [
                {"ph":"X","name":"a","ts":0.0,"dur":1.0,"pid":1,"tid":0,"args":{"spanId":0}},
                {"ph":"X","name":"b","ts":0.0,"dur":1.0,"pid":1,"tid":0,"args":{"spanId":1}}
            ],
            "displayTimeUnit": "ms",
            "otherData": {"virtualClock": true}
        }"#;
        let err = verify_chrome_trace(two_roots, 2).unwrap_err();
        assert!(err.contains("one root"), "{err}");
    }
}
