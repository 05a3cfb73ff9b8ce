//! Per-query reports combining cluster metrics and curve overhead.

use crate::router::RouterReport;
use std::time::Duration;
use sts_cluster::{ClusterQueryReport, ShardExecution};
use sts_document::{doc, Document, Value};
use sts_obs::{Stage, Trace, TraceId, Track};

/// Everything the paper measures for one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Scatter/gather metrics: nodes, per-shard keys/docs examined,
    /// wall time.
    pub cluster: ClusterQueryReport,
    /// Time spent decomposing the query rectangle into 1D Hilbert
    /// ranges (Table 8; zero for the baselines).
    pub hilbert_time: Duration,
    /// Number of 1D ranges the decomposition produced.
    pub hilbert_ranges: usize,
    /// Fingerprint of the exact fitted curve that served the query
    /// (`Curve::fingerprint`; `None` for the curve-less baselines).
    /// Surfaced in `explain()` and trace metadata so every report
    /// identifies the curve geometry — and, for data-fitted curves,
    /// the boundary fit — behind its covering; this is the plan-cache
    /// key component the router tier will reuse.
    pub curve_fingerprint: Option<u64>,
    /// What the router tier did for this query: plan/result cache
    /// outcomes, routing reuse, and policy-forced hedging.
    pub router: RouterReport,
}

impl QueryReport {
    /// §5.1 execution-time metric: the query's end-to-end wall time
    /// (the paper *excludes* the Hilbert decomposition here and reports
    /// it separately in Table 8, and so do we).
    pub fn execution_time(&self) -> Duration {
        self.cluster.wall
    }

    /// Cluster latency as a concurrent deployment would see it: the
    /// slowest shard bounds the response. The harness plots this (the
    /// recording machine may have fewer cores than the paper's cluster
    /// has nodes, so `cluster.wall` can degenerate to a serial sum).
    pub fn cluster_latency(&self) -> Duration {
        self.cluster.max_shard_time()
    }

    /// The query's full cost including the curve decomposition the
    /// paper reports separately (Table 8) and any virtual recovery
    /// delay fault injection charged to the slowest shard.
    pub fn total_time(&self) -> Duration {
        self.hilbert_time + self.cluster.wall + self.cluster.max_virtual_delay()
    }

    /// MongoDB-`executionStats`-style explain document: the §5.1
    /// metrics plus a per-stage timing breakdown on every touched
    /// shard. All durations are integer microseconds (truncated), so
    /// stage sums never exceed their reported totals. Virtual
    /// recovery delay appears only under its own `recoveryMicros`
    /// stage — never folded into scan time.
    pub fn explain(&self) -> Document {
        let shards: Vec<Value> = self
            .cluster
            .per_shard
            .iter()
            .map(|s| Value::Document(shard_explain(s)))
            .collect();
        let dispatch = self.cluster.dispatch;
        let mut d = doc! {
            "nReturned" => self.cluster.n_returned() as i64,
            "executionTimeMicros" => micros(self.cluster.wall),
            "clusterLatencyMicros" => micros(self.cluster.max_shard_total_time()),
            "nodes" => self.cluster.nodes() as i64,
            "broadcast" => self.cluster.broadcast,
            "partial" => self.cluster.partial,
            "covering" => doc! {
                "micros" => micros(self.hilbert_time),
                "ranges" => self.hilbert_ranges as i64,
            },
            "routingMicros" => micros(self.cluster.routing),
            "executor" => doc! {
                "mode" => if dispatch.helpers_woken == 0 { "inline" } else { "pool" },
                "helpersWoken" => i64::from(dispatch.helpers_woken),
                "helperTasks" => i64::from(dispatch.helper_tasks),
            },
            "mergeMicros" => micros(self.cluster.merge),
            "router" => doc! {
                "planCache" => self.router.plan_cache.name(),
                "resultCache" => self.router.result_cache.name(),
                "routeReused" => self.router.route_reused,
                "hedgedByPolicy" => self.router.hedged_by_policy,
            },
            "shards" => shards,
        };
        if let Some(fp) = self.curve_fingerprint {
            d.set("curveFingerprint", format!("{fp:016x}"));
        }
        d
    }

    /// Fold this query's stage breakdown into a cross-query
    /// [`sts_obs::FoldedStacks`] aggregate (semicolon-joined frame paths, values
    /// in nanoseconds of virtual stage time) — rendered by
    /// `obs-report --timeline` for `flamegraph.pl`/inferno.
    pub fn fold_stages(&self, out: &mut sts_obs::FoldedStacks) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        out.add_frames(&["stQuery", Stage::Covering.name()], ns(self.hilbert_time));
        out.add_frames(
            &["stQuery", Stage::Routing.name()],
            ns(self.cluster.routing),
        );
        out.add_frames(&["stQuery", Stage::Merge.name()], ns(self.cluster.merge));
        for s in &self.cluster.per_shard {
            let b = s.stage_breakdown();
            for (stage, d) in [
                (Stage::Recovery, b.recovery),
                (Stage::Planning, b.planning),
                (Stage::IndexScan, b.index_scan),
                (Stage::FetchFilter, b.fetch_filter),
            ] {
                out.add_frames(&["stQuery", "shardExec", stage.name()], ns(d));
            }
        }
    }

    /// Build the query's causal span tree on the virtual clock.
    ///
    /// The timeline models the *concurrent* deployment: the router runs
    /// `covering` then `routing` serially; every shard's execution then
    /// starts at the same instant on its own track and lasts that
    /// shard's `total_time()` (measured stages plus virtual recovery
    /// delay); the router's `merge` starts once the slowest shard is
    /// done. Within a shard, `recovery` (iff the fault machinery
    /// engaged) then `planning`/`indexScan`/`fetchFilter` partition the
    /// `shardExec` interval exactly.
    pub fn trace(&self, id: TraceId) -> Trace {
        let mut t = Trace::new(id);
        let covering = self.hilbert_time;
        let routing = self.cluster.routing;
        let merge = self.cluster.merge;
        let shards_start = covering + routing;
        let shard_window = self.cluster.max_shard_total_time();
        let root = t.add_root(
            "stQuery",
            Track::Router,
            Duration::ZERO,
            shards_start + shard_window + merge,
        );
        t.set_arg(root, "nReturned", self.cluster.n_returned());
        t.set_arg(root, "nodes", self.cluster.nodes());
        t.set_arg(root, "broadcast", self.cluster.broadcast);
        t.set_arg(root, "partial", self.cluster.partial);
        if let Some(fp) = self.curve_fingerprint {
            t.set_arg(root, "curveFingerprint", format!("{fp:016x}"));
        }
        if covering > Duration::ZERO || self.hilbert_ranges > 0 {
            let cov = t.add_child(
                root,
                Stage::Covering.name(),
                Track::Router,
                Duration::ZERO,
                covering,
            );
            t.set_arg(cov, "ranges", self.hilbert_ranges);
        }
        t.add_child(
            root,
            Stage::Routing.name(),
            Track::Router,
            covering,
            routing,
        );
        for s in &self.cluster.per_shard {
            let b = s.stage_breakdown();
            let track = Track::Shard(s.shard);
            let exec = t.add_child(root, "shardExec", track, shards_start, s.total_time());
            t.set_arg(exec, "shard", s.shard);
            t.set_arg(exec, "keysExamined", s.stats.keys_examined);
            t.set_arg(exec, "docsExamined", s.stats.docs_examined);
            t.set_arg(exec, "nReturned", s.stats.n_returned);
            t.set_arg(exec, "indexUsed", s.stats.index_used.as_str());
            t.set_arg(exec, "completed", s.stats.completed);
            t.set_arg(exec, "servedByReplica", s.recovery.served_by_replica);
            let mut cursor = shards_start;
            if !s.recovery.clean() {
                // The recovery stage leads: injected latency, backoff
                // waits, hedges — the time before (and around) the
                // attempt that finally answered. Zero-width when a
                // fault fired without adding virtual delay.
                let rec = t.add_child(exec, Stage::Recovery.name(), track, cursor, b.recovery);
                t.set_arg(rec, "attempts", u64::from(s.recovery.attempts));
                t.set_arg(rec, "retries", u64::from(s.recovery.retries));
                t.set_arg(rec, "hedges", u64::from(s.recovery.hedges));
                t.set_arg(rec, "timeouts", u64::from(s.recovery.timeouts));
                t.set_arg(rec, "gaveUp", s.recovery.gave_up);
                cursor += b.recovery;
            }
            t.add_child(exec, Stage::Planning.name(), track, cursor, b.planning);
            cursor += b.planning;
            t.add_child(exec, Stage::IndexScan.name(), track, cursor, b.index_scan);
            cursor += b.index_scan;
            t.add_child(
                exec,
                Stage::FetchFilter.name(),
                track,
                cursor,
                b.fetch_filter,
            );
        }
        t.add_child(
            root,
            Stage::Merge.name(),
            Track::Router,
            shards_start + shard_window,
            merge,
        );
        t
    }
}

/// One shard's explain sub-document.
fn shard_explain(s: &ShardExecution) -> Document {
    let b = s.stage_breakdown();
    doc! {
        "shard" => s.shard as i64,
        "indexUsed" => s.stats.index_used.clone(),
        // What the shard still checked on each fetched document; every
        // conjunct of the query absent here was proven by the index.
        "residual" => match &s.stats.residual {
            Some(f) => format!("{f:?}"),
            None => "<whole filter>".to_string(),
        },
        "keysExamined" => s.stats.keys_examined as i64,
        "docsExamined" => s.stats.docs_examined as i64,
        "seeks" => s.stats.seeks as i64,
        "nReturned" => s.stats.n_returned as i64,
        "completed" => s.stats.completed,
        "servedByReplica" => s.recovery.served_by_replica,
        "totalMicros" => micros(s.total_time()),
        "stages" => doc! {
            "planningMicros" => micros(b.planning),
            "indexScanMicros" => micros(b.index_scan),
            "fetchFilterMicros" => micros(b.fetch_filter),
            "recoveryMicros" => micros(b.recovery),
        },
    }
}

/// Truncating micros conversion: `Σ floor(xᵢ) ≤ floor(Σ xᵢ)`, so stage
/// sums stay within reported totals.
fn micros(d: Duration) -> i64 {
    i64::try_from(d.as_micros()).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_cluster::ShardExecution;
    use sts_query::ExecutionStats;

    #[test]
    fn latency_is_the_slowest_shard() {
        let mk = |ms: u64| {
            ShardExecution::clean(
                0,
                ExecutionStats {
                    duration: Duration::from_millis(ms),
                    ..Default::default()
                },
            )
        };
        let r = QueryReport {
            cluster: ClusterQueryReport {
                per_shard: vec![mk(3), mk(11), mk(7)],
                broadcast: false,
                partial: false,
                wall: Duration::from_millis(25),
                ..Default::default()
            },
            hilbert_time: Duration::from_micros(5),
            hilbert_ranges: 4,
            curve_fingerprint: None,
            router: RouterReport::default(),
        };
        assert_eq!(r.cluster_latency(), Duration::from_millis(11));
        assert_eq!(r.execution_time(), Duration::from_millis(25));
    }

    #[test]
    fn default_report_is_empty() {
        let r = QueryReport::default();
        assert_eq!(r.cluster_latency(), Duration::ZERO);
        assert_eq!(r.hilbert_ranges, 0);
    }

    #[test]
    fn explain_carries_stage_breakdowns() {
        let mut slow = ShardExecution::clean(
            2,
            ExecutionStats {
                duration: Duration::from_micros(100),
                planning: Duration::from_micros(10),
                fetch_time: Duration::from_micros(40),
                keys_examined: 7,
                docs_examined: 3,
                n_returned: 2,
                completed: true,
                ..Default::default()
            },
        );
        slow.recovery.injected_latency = Duration::from_millis(5);
        let r = QueryReport {
            cluster: ClusterQueryReport {
                per_shard: vec![slow],
                wall: Duration::from_micros(150),
                routing: Duration::from_micros(4),
                merge: Duration::from_micros(6),
                ..Default::default()
            },
            hilbert_time: Duration::from_micros(9),
            hilbert_ranges: 4,
            curve_fingerprint: Some(0xdead_beef_0042_cafe),
            router: RouterReport::default(),
        };
        let e = r.explain();
        assert_eq!(e.get("nReturned"), Some(&Value::Int64(2)));
        assert_eq!(
            e.get("curveFingerprint"),
            Some(&Value::String("deadbeef0042cafe".into()))
        );
        assert_eq!(e.get("routingMicros"), Some(&Value::Int64(4)));
        assert_eq!(e.get("mergeMicros"), Some(&Value::Int64(6)));
        let cov = match e.get("covering") {
            Some(Value::Document(d)) => d,
            other => panic!("covering: {other:?}"),
        };
        assert_eq!(cov.get("micros"), Some(&Value::Int64(9)));
        assert_eq!(cov.get("ranges"), Some(&Value::Int64(4)));
        let shards = match e.get("shards") {
            Some(Value::Array(a)) => a,
            other => panic!("shards: {other:?}"),
        };
        assert_eq!(shards.len(), 1);
        let shard = match &shards[0] {
            Value::Document(d) => d,
            other => panic!("shard doc: {other:?}"),
        };
        let stages = match shard.get("stages") {
            Some(Value::Document(d)) => d,
            other => panic!("stages: {other:?}"),
        };
        // Every stage is present, non-negative, and the stage micros
        // sum to no more than the shard's reported total.
        let mut sum = 0i64;
        for key in [
            "planningMicros",
            "indexScanMicros",
            "fetchFilterMicros",
            "recoveryMicros",
        ] {
            match stages.get(key) {
                Some(&Value::Int64(v)) => {
                    assert!(v >= 0, "{key} negative");
                    sum += v;
                }
                other => panic!("{key}: {other:?}"),
            }
        }
        let total = match shard.get("totalMicros") {
            Some(&Value::Int64(v)) => v,
            other => panic!("totalMicros: {other:?}"),
        };
        assert!(sum <= total, "stage sum {sum} exceeds total {total}");
        // Recovery's injected delay lands in its own stage.
        assert_eq!(stages.get("recoveryMicros"), Some(&Value::Int64(5_000)));
        assert_eq!(stages.get("indexScanMicros"), Some(&Value::Int64(60)));
    }

    #[test]
    fn fold_stages_aggregates_across_queries() {
        let shard = ShardExecution::clean(
            1,
            ExecutionStats {
                duration: Duration::from_micros(100),
                planning: Duration::from_micros(10),
                fetch_time: Duration::from_micros(40),
                ..Default::default()
            },
        );
        let r = QueryReport {
            cluster: ClusterQueryReport {
                per_shard: vec![shard],
                routing: Duration::from_micros(4),
                merge: Duration::from_micros(6),
                ..Default::default()
            },
            hilbert_time: Duration::from_micros(9),
            hilbert_ranges: 4,
            curve_fingerprint: None,
            router: RouterReport::default(),
        };
        let mut f = sts_obs::FoldedStacks::new();
        r.fold_stages(&mut f);
        r.fold_stages(&mut f); // second query merges into the same stacks
        let rendered = f.render();
        assert!(rendered.contains("stQuery;covering 18000\n"), "{rendered}");
        assert!(
            rendered.contains("stQuery;shardExec;indexScan 120000\n"),
            "{rendered}"
        );
        assert!(
            rendered.contains("stQuery;shardExec;fetchFilter 80000\n"),
            "{rendered}"
        );
        // Clean shard: no recovery frame at all.
        assert!(!rendered.contains("recovery"), "{rendered}");
    }
}
