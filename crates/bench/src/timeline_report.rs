//! Live-ingest telemetry-timeline collection for `obs-report --timeline`.
//!
//! Runs a live workload per approach — batched
//! `insert_batch` ingest with the online balancer enabled, interleaved
//! with dispatcher queries — with the store's telemetry timeline armed:
//! windowed metric deltas ride the virtual clock, balancer
//! splits/migrations land as event annotations, query latencies feed a
//! p99 SLO whose burn rate is tracked per window, and every query's
//! stage breakdown folds into a cross-query flamegraph.
//!
//! The collected [`TimelineReport`] renders a time-series dashboard and
//! exports all four artifact formats (Prometheus text, `sts-timeline/1`
//! JSON, Perfetto counter tracks, folded stacks), with a [`verify`]
//! gate that re-checks every invariant the exporters rely on —
//! `obs-report --timeline` exits non-zero when it fails.
//!
//! [`verify`]: TimelineReport::verify

use std::sync::Arc;
use std::time::Duration;

use serde::Json;
use sts_core::{Approach, StQuery, StStore, StoreConfig};
use sts_obs::{
    perfetto_timeline, prometheus_text, timeline_json, validate_timeline_json, BurnRule,
    FoldedStacks, Registry, RegistrySnapshot, SloPolicy, Timeline, TimelineConfig, TIMELINE_SCHEMA,
};
use sts_workload::fleet::{FleetConfig, FleetStream};
use sts_workload::Record;

use crate::{small_query_batch, utc_date_string, Dataset, HarnessConfig};

/// Knobs for the live-ingest timeline run.
#[derive(Clone, Copy, Debug)]
pub struct TimelineReportConfig {
    /// Documents per ingest batch.
    pub batch_size: usize,
    /// Queries interleaved after each committed batch.
    pub queries_per_batch: usize,
    /// Timeline window width (virtual clock).
    pub window: Duration,
    /// Ring capacity (windows retained).
    pub capacity: usize,
    /// SLO latency threshold: a query counts against the error budget
    /// when its end-to-end virtual latency exceeds this.
    pub threshold: Duration,
    /// SLO objective (fraction of queries that must meet `threshold`).
    pub objective: f64,
}

impl Default for TimelineReportConfig {
    fn default() -> Self {
        TimelineReportConfig {
            batch_size: 250,
            queries_per_batch: 8,
            window: Duration::from_millis(2),
            capacity: 512,
            threshold: Duration::from_micros(500),
            objective: 0.95,
        }
    }
}

impl TimelineReportConfig {
    /// The burn-rate policy the run tracks: a fast-burn rule over
    /// (2, 8) windows and a slow-burn rule over (4, 16) windows, both
    /// multi-window (alert iff short *and* long views exceed the
    /// factor) so a single bad window cannot page.
    pub fn policy(&self) -> SloPolicy {
        SloPolicy {
            name: "query-p99".into(),
            objective: self.objective,
            threshold: self.threshold,
            rules: vec![
                BurnRule {
                    short_windows: 2,
                    long_windows: 8,
                    factor: 10.0,
                },
                BurnRule {
                    short_windows: 4,
                    long_windows: 16,
                    factor: 4.0,
                },
            ],
        }
    }
}

/// One approach's finished timeline run.
pub struct ApproachTimeline {
    /// Which §5.1 approach ran.
    pub approach: Approach,
    /// The finished (sealed) timeline.
    pub timeline: Timeline,
    /// Cross-query aggregate stage flamegraph.
    pub folded: FoldedStacks,
    /// Final cumulative registry snapshot.
    pub metrics: RegistrySnapshot,
    /// Total query results over the interleaved workload.
    pub results: u64,
    /// Documents ingested.
    pub docs: u64,
}

/// The `--timeline` mode's collected report.
pub struct TimelineReport {
    /// Curve family the curve approaches ran on.
    pub curve: String,
    /// Workload seed.
    pub seed: u64,
    /// Collection knobs (window width, SLO policy…).
    pub cfg: TimelineReportConfig,
    /// One finished run per approach, in `Approach::ALL` order.
    pub approaches: Vec<ApproachTimeline>,
}

impl TimelineReport {
    /// Run the live-ingest workload per approach with telemetry armed
    /// and collect the finished timelines.
    pub fn collect(cfg: &TimelineReportConfig, harness: &HarnessConfig) -> TimelineReport {
        let fleet = FleetConfig {
            records: harness.r_records(1),
            vehicles: 500,
            seed: harness.seed,
            ..Default::default()
        };
        // Fit data-adaptive curves on a deterministic prefix of the
        // same stream, as a deployment would before going live.
        let sample_records = sts_workload::fleet::generate(&FleetConfig {
            records: fleet.records.min(2_048),
            ..fleet.clone()
        });
        let approaches = Approach::ALL
            .iter()
            .map(|&approach| run_one(approach, &fleet, &sample_records, cfg, harness))
            .collect();
        TimelineReport {
            curve: harness.curve.name().to_string(),
            seed: harness.seed,
            cfg: *cfg,
            approaches,
        }
    }

    /// Render the time-series dashboard: per approach, the windowed
    /// p99 series, SLO budget burn, alerts, and correlated balancer /
    /// ingest events.
    pub fn dashboard(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== telemetry timeline (window {:.1} ms, SLO p99 \u{2264} {} \u{00b5}s @ {:.0}%) ==\n",
            self.cfg.window.as_secs_f64() * 1e3,
            self.cfg.threshold.as_micros(),
            self.cfg.objective * 100.0
        ));
        s.push_str(&format!(
            "{:<6} {:>7} {:>7} {:>8} {:>6} {:>8} {:>7} {:>7} {:>8}\n",
            "appr", "windows", "dropped", "queries", "bad", "budget%", "alerts", "events", "docs"
        ));
        for a in &self.approaches {
            let tl = &a.timeline;
            let (total, bad, budget, alerts) = match tl.slo() {
                Some(slo) => {
                    let (t, b) = slo.totals();
                    (t, b, slo.budget_consumed() * 100.0, slo.alerts().len())
                }
                None => (0, 0, 0.0, 0),
            };
            let events: usize = tl.windows().map(|w| w.events.len()).sum();
            s.push_str(&format!(
                "{:<6} {:>7} {:>7} {:>8} {:>6} {:>8.1} {:>7} {:>7} {:>8}\n",
                a.approach.name(),
                tl.len(),
                tl.dropped(),
                total,
                bad,
                budget,
                alerts,
                events,
                a.docs
            ));
        }
        for a in &self.approaches {
            s.push_str(&format!("\n-- {} --\n", a.approach.name()));
            s.push_str(&series_line(&a.timeline));
            s.push_str(&event_lines(&a.timeline));
        }
        s
    }

    /// The `sts-timeline/1` JSON bundle: one run document per approach
    /// (each individually valid under [`validate_timeline_json`])
    /// under `"runs"`, with sorted keys throughout.
    pub fn bundle_json(&self) -> Json {
        let window_us = format!("{}", self.cfg.window.as_micros());
        let runs: Vec<Json> = self
            .approaches
            .iter()
            .map(|a| {
                timeline_json(
                    &a.timeline,
                    &[
                        ("approach", a.approach.name()),
                        ("curve", self.curve.as_str()),
                        ("dataset", Dataset::R.label()),
                        ("windowMicros", window_us.as_str()),
                    ],
                )
            })
            .collect();
        sts_obs::sort_json_keys(Json::Obj(vec![
            ("schema".into(), Json::Str(TIMELINE_SCHEMA.into())),
            ("generatedAt".into(), Json::Str(utc_date_string())),
            ("curve".into(), Json::Str(self.curve.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("runs".into(), Json::Arr(runs)),
        ]))
    }

    /// Prometheus text exposition of every approach's final cumulative
    /// registry, labelled `{approach,curve}`. `# TYPE`/`# HELP` lines
    /// are deduplicated across approaches so the output stays valid
    /// exposition format.
    pub fn prometheus(&self) -> String {
        let mut seen = std::collections::HashSet::new();
        let mut out = String::new();
        for a in &self.approaches {
            let text = prometheus_text(
                &a.metrics,
                &[
                    ("approach", a.approach.name()),
                    ("curve", self.curve.as_str()),
                ],
            );
            for line in text.lines() {
                if line.starts_with("# ") && !seen.insert(line.to_string()) {
                    continue;
                }
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// A single Perfetto (Chrome trace-event) document overlaying all
    /// approaches: each approach's counter tracks and event instants
    /// keep their own `pid` so Perfetto renders them as separate
    /// process groups on the shared virtual-clock axis.
    pub fn perfetto(&self) -> Json {
        let mut events = Vec::new();
        for (i, a) in self.approaches.iter().enumerate() {
            let pid = i as u64 + 1;
            let doc = perfetto_timeline(
                &a.timeline,
                &format!("{} ({})", a.approach.name(), self.curve),
            );
            if let Some(Json::Arr(evs)) = doc.get("traceEvents") {
                for ev in evs {
                    events.push(retag_pid(ev.clone(), pid));
                }
            }
        }
        sts_obs::sort_json_keys(Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            (
                "otherData".into(),
                Json::Obj(vec![
                    (
                        "schema".into(),
                        Json::Str(format!("{TIMELINE_SCHEMA}+perfetto")),
                    ),
                    ("virtualClock".into(), Json::Bool(true)),
                ]),
            ),
            ("traceEvents".into(), Json::Arr(events)),
        ]))
    }

    /// The cross-approach folded-stacks aggregate: every approach's
    /// flamegraph with the approach name as the root frame, rendered
    /// in the format `flamegraph.pl` / inferno consume.
    pub fn folded(&self) -> String {
        let mut merged = FoldedStacks::new();
        for a in &self.approaches {
            for (stack, nanos) in a.folded.iter() {
                merged.add(&format!("{};{stack}", a.approach.name()), nanos);
            }
        }
        merged.render()
    }

    /// Re-check every invariant the exports rely on: each timeline's
    /// structural validation (window tiling, delta telescoping, SLO
    /// accounting), the JSON round-trip through the schema validator,
    /// and non-empty flamegraphs for runs that executed queries.
    pub fn verify(&self) -> Result<(), String> {
        if self.approaches.is_empty() {
            return Err("no approaches collected".into());
        }
        for a in &self.approaches {
            let name = a.approach.name();
            a.timeline
                .validate()
                .map_err(|e| format!("{name}: timeline invariant: {e}"))?;
            if !a.timeline.is_finished() {
                return Err(format!("{name}: timeline was not finished"));
            }
            let doc = timeline_json(&a.timeline, &[("approach", name)]);
            let text =
                serde_json::to_string(&doc).map_err(|e| format!("{name}: serialize: {e}"))?;
            let parsed = serde_json::from_str(&text)
                .map_err(|e| format!("{name}: round-trip parse: {e}"))?;
            validate_timeline_json(&parsed).map_err(|e| format!("{name}: schema: {e}"))?;
            if a.results > 0 && a.folded.is_empty() {
                return Err(format!("{name}: queries ran but the flamegraph is empty"));
            }
            let merged = a.timeline.merged_counter("ingest.docs");
            if a.timeline.dropped() == 0 && merged != a.docs {
                return Err(format!(
                    "{name}: windowed ingest.docs deltas sum to {merged}, ingested {}",
                    a.docs
                ));
            }
        }
        validate_bundle(&self.bundle_json())
    }
}

/// Validate the bundle document `obs-report --timeline` writes: the
/// schema tag plus every per-approach run under `"runs"`.
pub fn validate_bundle(v: &Json) -> Result<(), String> {
    if v.get("schema").and_then(Json::as_str) != Some(TIMELINE_SCHEMA) {
        return Err(format!("bundle schema tag != {TIMELINE_SCHEMA:?}"));
    }
    let runs = v
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("bundle has no runs array")?;
    if runs.is_empty() {
        return Err("bundle has zero runs".into());
    }
    for (i, run) in runs.iter().enumerate() {
        validate_timeline_json(run).map_err(|e| format!("run {i}: {e}"))?;
    }
    Ok(())
}

fn run_one(
    approach: Approach,
    fleet: &FleetConfig,
    sample_records: &[Record],
    cfg: &TimelineReportConfig,
    harness: &HarnessConfig,
) -> ApproachTimeline {
    let mut store = StStore::new(StoreConfig {
        approach,
        num_shards: harness.num_shards,
        max_chunk_bytes: harness.max_chunk_bytes(),
        data_mbr: crate::dataset_mbr(Dataset::R),
        curve: harness.curve,
        curve_sample: crate::curve_training_sample(sample_records),
        ..Default::default()
    });
    store.set_metrics_registry(Arc::new(Registry::new()));
    store.enable_timeline(
        TimelineConfig {
            window: cfg.window,
            capacity: cfg.capacity,
        },
        Some(cfg.policy()),
    );

    // One endless deterministic query stream, drawn down between
    // batches so queries and ingest interleave on the virtual clock.
    let est_batches = (fleet.records as usize).div_ceil(cfg.batch_size.max(1));
    let queries: Vec<StQuery> =
        small_query_batch(est_batches * cfg.queries_per_batch + 1, harness.seed);
    let mut next_q = 0usize;

    let mut docs = 0u64;
    let mut results = 0u64;
    for batch in FleetStream::new(fleet, cfg.batch_size) {
        docs += store
            .insert_batch(batch.iter().map(Record::to_document))
            .expect("generated records are always ingestible");
        for _ in 0..cfg.queries_per_batch {
            let q = &queries[next_q % queries.len()];
            next_q += 1;
            let (found, report) = store.st_query(q);
            assert!(!report.cluster.partial, "no faults armed, never partial");
            results += found.len() as u64;
        }
    }
    let metrics = store.metrics_registry().snapshot();
    let (timeline, folded) = store
        .finish_timeline()
        .expect("timeline was enabled before the run");
    ApproachTimeline {
        approach,
        timeline,
        folded,
        metrics,
        results,
        docs,
    }
}

/// The windowed `query.total` p99 series as one dashboard line,
/// elided in the middle when the run spans many windows.
fn series_line(tl: &Timeline) -> String {
    let p99s: Vec<String> = tl
        .windows()
        .map(|w| match w.histogram("query.total") {
            Some(h) if !h.is_empty() => format!("{}", h.percentile(0.99).as_micros()),
            _ => "-".into(),
        })
        .collect();
    const SHOWN: usize = 24;
    let series = if p99s.len() > SHOWN {
        let head = p99s[..SHOWN / 2].join(" ");
        let tail = p99s[p99s.len() - SHOWN / 2..].join(" ");
        format!("{head} \u{2026} {tail}")
    } else {
        p99s.join(" ")
    };
    format!("p99/window (\u{00b5}s): {series}\n")
}

/// Event annotations grouped by kind, with the windows they landed in.
fn event_lines(tl: &Timeline) -> String {
    let mut by_kind: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for w in tl.windows() {
        for e in &w.events {
            by_kind.entry(e.kind.as_str()).or_default().push(w.index);
        }
    }
    let mut s = String::new();
    for (kind, mut windows) in by_kind {
        windows.dedup();
        let shown: Vec<String> = windows.iter().take(12).map(|w| format!("w{w}")).collect();
        let ell = if windows.len() > 12 { " \u{2026}" } else { "" };
        s.push_str(&format!(
            "{kind}: \u{00d7}{} ({}{ell})\n",
            windows.len(),
            shown.join(" ")
        ));
    }
    for a in tl.slo().map(|s| s.alerts()).unwrap_or_default() {
        s.push_str(&format!(
            "burn-alert @w{}: short {:.1}x / long {:.1}x over factor {:.1}\n",
            a.window, a.short_burn, a.long_burn, a.rule.factor
        ));
    }
    s
}

fn retag_pid(ev: Json, pid: u64) -> Json {
    match ev {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k == "pid" {
                        (k, Json::UInt(pid))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (TimelineReportConfig, HarnessConfig) {
        (
            TimelineReportConfig {
                batch_size: 120,
                queries_per_batch: 4,
                window: Duration::from_micros(500),
                threshold: Duration::from_micros(300),
                ..Default::default()
            },
            HarnessConfig {
                scale: 0.0003,
                num_shards: 4,
                ..Default::default()
            },
        )
    }

    #[test]
    fn live_run_collects_and_verifies() {
        let (cfg, harness) = small();
        let report = TimelineReport::collect(&cfg, &harness);
        assert_eq!(report.approaches.len(), Approach::ALL.len());
        report.verify().expect("all invariants hold");
        for a in &report.approaches {
            assert!(a.docs > 0, "{}: ingested nothing", a.approach.name());
            assert!(!a.timeline.is_empty(), "{}: no windows", a.approach.name());
            let (total, _) = a.timeline.slo().unwrap().totals();
            assert!(total > 0, "{}: SLO saw no queries", a.approach.name());
            assert!(
                a.timeline
                    .windows()
                    .any(|w| w.events.iter().any(|e| e.kind == "ingest.commit")),
                "{}: no ingest.commit annotations",
                a.approach.name()
            );
        }
        let dash = report.dashboard();
        assert!(dash.contains("telemetry timeline"));
        assert!(dash.contains("p99/window"));
        assert!(dash.contains("ingest.commit"));
    }

    #[test]
    fn exports_are_coherent() {
        let (cfg, harness) = small();
        let report = TimelineReport::collect(&cfg, &harness);

        let bundle = report.bundle_json();
        validate_bundle(&bundle).expect("bundle validates");
        let text = serde_json::to_string_pretty(&bundle).unwrap();
        let parsed: Json = serde_json::from_str(&text).unwrap();
        validate_bundle(&parsed).expect("bundle survives a round trip");

        let prom = report.prometheus();
        assert!(prom.contains("sts_router_queries_total"));
        assert!(prom.contains("approach=\"hil\""));
        let type_lines: Vec<&str> = prom.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut dedup = type_lines.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(type_lines.len(), dedup.len(), "TYPE lines are unique");

        let perfetto = report.perfetto();
        let evs = perfetto
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap();
        let pids: std::collections::BTreeSet<u64> = evs
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.len(), Approach::ALL.len(), "one pid per approach");
        assert!(
            evs.iter()
                .any(|e| { e.get("name").and_then(Json::as_str) == Some("ingest.commit") }),
            "ingest annotations survive the merge"
        );

        let folded = report.folded();
        assert!(folded.contains("hil;stQuery;"));
        assert!(folded.lines().all(|l| l.rsplit_once(' ').is_some()));
    }

    #[test]
    fn broken_bundles_are_rejected() {
        let (cfg, harness) = small();
        let report = TimelineReport::collect(&cfg, &harness);
        let bundle = report.bundle_json();
        // Tamper with the schema tag.
        if let Json::Obj(mut fields) = bundle.clone() {
            for (k, v) in &mut fields {
                if k == "schema" {
                    *v = Json::Str("sts-timeline/0".into());
                }
            }
            assert!(validate_bundle(&Json::Obj(fields)).is_err());
        } else {
            panic!("bundle is an object");
        }
        // Empty runs are rejected too.
        if let Json::Obj(mut fields) = bundle {
            for (k, v) in &mut fields {
                if k == "runs" {
                    *v = Json::Arr(Vec::new());
                }
            }
            assert!(validate_bundle(&Json::Obj(fields)).is_err());
        }
    }
}
