//! The public store facade.

use crate::approach::Approach;
use crate::config::StoreConfig;
use crate::profiler::{Profiler, ProfilerConfig, QueryKind};
use crate::query::{assemble_filter, build_filter_with, compute_covering, CoverBuffers, StQuery};
use crate::report::QueryReport;
use crate::router::{
    Admission, AdmissionDecision, CacheCounters, CacheOutcome, PlanCache, PlanEntry, PlanKey,
    ResultCache, ResultEntry, ResultKey, RouterConfig, RouterReport, Shed,
};
use crate::{HILBERT_FIELD, LOCATION_FIELD};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sts_cluster::{
    Cluster, ClusterConfig, ClusterQueryReport, ExecutorStats, FailPoint, HealthSnapshot,
    QueryExecOptions, RecoveryPolicy, RoutePlan,
};
use sts_curve::Curve;
use sts_document::Document;
use sts_index::geo_point_of;
use sts_obs::{FoldedStacks, Registry, SloPolicy, Timeline, TimelineConfig, Trace, TraceId};
use sts_query::Filter;
use sts_storage::CollectionStats;

/// Continuous-telemetry state: the windowed timeline plus the
/// cross-query flamegraph aggregate and the balancer-event cursor used
/// to annotate splits/migrations incrementally.
struct Telemetry {
    timeline: Timeline,
    folded: FoldedStacks,
    /// Next balancer-event `seq` to drain from the health ledger.
    last_event_seq: u64,
}

/// A deployed spatio-temporal store: one approach, one sharded cluster.
pub struct StStore {
    config: StoreConfig,
    curve: Option<Arc<dyn Curve>>,
    /// The active curve's fingerprint, cached at deploy time — the
    /// plan/result cache key component identifying the exact fit.
    fingerprint: Option<u64>,
    cluster: Cluster,
    profiler: Profiler,
    /// Reusable Hilbert-decomposition buffers (block-list scratch +
    /// covering list). Queries take `&self`, hence the mutex; it is
    /// uncontended in the single-router simulator.
    cover: Mutex<CoverBuffers>,
    /// Covering-plan cache (`None` when disabled). `Arc` so one cache
    /// can front several stores — entries are fingerprint-keyed.
    plan_cache: Option<Arc<PlanCache>>,
    /// Result-page cache (`None` when disabled, the default).
    result_cache: Option<Arc<ResultCache>>,
    /// Admission control + load shedding.
    admission: Admission,
    /// Continuous telemetry (disabled until
    /// [`StStore::enable_timeline`]). `&self` recording, like the
    /// profiler.
    telemetry: Mutex<Option<Telemetry>>,
}

/// What [`StStore::plan_query`] hands the execution paths.
struct PlannedQuery {
    filter: Filter,
    hilbert_time: Duration,
    hilbert_ranges: usize,
    route: Option<Arc<RoutePlan>>,
    router: RouterReport,
}

impl StStore {
    /// Deploy a fresh (empty) store for the configured approach.
    pub fn new(config: StoreConfig) -> Self {
        let curve = config.approach.curve_for(
            config.curve,
            config.curve_order,
            &config.data_mbr,
            &config.curve_sample,
        );
        let cluster = Cluster::new(
            ClusterConfig {
                num_shards: config.num_shards,
                max_chunk_bytes: config.max_chunk_bytes,
                planner: config.planner,
                recovery: config.recovery,
                fault_seed: config.fault_seed,
                balancer: config.balancer,
                executor: config.router.executor,
            },
            config.approach.shard_key(),
            config.approach.index_specs(config.geo_bits),
        );
        let fingerprint = curve.as_ref().map(|c| c.fingerprint());
        let router = config.router;
        StStore {
            config,
            curve,
            fingerprint,
            cluster,
            profiler: Profiler::default(),
            cover: Mutex::new(CoverBuffers::new()),
            plan_cache: (router.plan_cache_entries > 0).then(|| {
                Arc::new(PlanCache::new(
                    router.plan_cache_entries,
                    router.plan_cache_shards,
                ))
            }),
            result_cache: (router.result_cache_entries > 0).then(|| {
                Arc::new(ResultCache::new(
                    router.result_cache_entries,
                    router.plan_cache_shards,
                ))
            }),
            admission: Admission::new(router.admission),
            telemetry: Mutex::new(None),
        }
    }

    /// Replace the router-tier configuration: caches are rebuilt empty
    /// at the new sizes, admission buckets reset, and the executor
    /// retuned.
    pub fn set_router_config(&mut self, router: RouterConfig) {
        self.config.router = router;
        self.plan_cache = (router.plan_cache_entries > 0).then(|| {
            Arc::new(PlanCache::new(
                router.plan_cache_entries,
                router.plan_cache_shards,
            ))
        });
        self.result_cache = (router.result_cache_entries > 0).then(|| {
            Arc::new(ResultCache::new(
                router.result_cache_entries,
                router.plan_cache_shards,
            ))
        });
        self.admission = Admission::new(router.admission);
        self.cluster.set_executor_config(router.executor);
    }

    /// Share a covering-plan cache with other stores (a router process
    /// fronting many collections). Entries are keyed by approach +
    /// curve fingerprint + budget, so stores with different fitted
    /// curves coexist in one cache without ever sharing entries.
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// The live covering-plan cache, if enabled.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Plan-cache counters (zeroed `CacheCounters` when disabled).
    pub fn plan_cache_counters(&self) -> CacheCounters {
        self.plan_cache
            .as_ref()
            .map(|c| c.counters())
            .unwrap_or_default()
    }

    /// Result-cache counters (zeroed `CacheCounters` when disabled).
    pub fn result_cache_counters(&self) -> CacheCounters {
        self.result_cache
            .as_ref()
            .map(|c| c.counters())
            .unwrap_or_default()
    }

    /// Shard-executor counters: tasks, inline fan-outs, helper-run tasks.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.cluster.executor_stats()
    }

    /// Queries refused by admission control so far.
    pub fn shed_count(&self) -> u64 {
        self.admission.sheds()
    }

    /// Queries escalated to hedged reads by the latency policy so far.
    pub fn hedge_count(&self) -> u64 {
        self.admission.hedges()
    }

    /// Replace the covering-range budget (per-query decompositions pick
    /// it up immediately). Benchmarks use this to ablate budgets against
    /// one loaded store instead of rebuilding it per configuration.
    pub fn set_range_budget(&mut self, budget: sts_curve::RangeBudget) {
        self.config.range_budget = budget;
    }

    /// Build the approach's filter for `query` using the store's
    /// reusable decomposition buffers.
    fn cover_filter(&self, query: &StQuery) -> (Filter, std::time::Duration, usize) {
        if self.config.approach == Approach::StHash {
            crate::sthash::build_filter(query, self.config.range_budget.max_ranges.min(1 << 20))
        } else {
            let mut cover = self
                .cover
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            build_filter_with(
                query,
                self.curve.as_deref(),
                self.config.range_budget,
                &mut cover,
            )
        }
    }

    /// Plan a query through the covering-plan cache: on a hit the
    /// filter is assembled from the cached coalesced ranges (skipping
    /// the curve decomposition entirely) and the cached routing
    /// decision is replayed if its generation still matches the chunk
    /// map; on a miss the covering is computed for the *quantized*
    /// plan-key rectangle and the entry filled. StHash bypasses the
    /// cache (its composite-hash filter has its own construction).
    fn plan_query(&self, query: &StQuery) -> PlannedQuery {
        if self.config.approach == Approach::StHash {
            let (filter, hilbert_time, hilbert_ranges) = crate::sthash::build_filter(
                query,
                self.config.range_budget.max_ranges.min(1 << 20),
            );
            return PlannedQuery {
                filter,
                hilbert_time,
                hilbert_ranges,
                route: None,
                router: RouterReport::default(),
            };
        }
        let Some(cache) = &self.plan_cache else {
            let (filter, hilbert_time, hilbert_ranges) = self.cover_filter(query);
            return PlannedQuery {
                filter,
                hilbert_time,
                hilbert_ranges,
                route: None,
                router: RouterReport::default(),
            };
        };
        let (key, qrect) = PlanKey::new(
            self.config.approach,
            self.fingerprint,
            self.config.range_budget.max_ranges,
            query,
            &self.config.router,
        );
        let obs = self.metrics_registry();
        if let Some(entry) = cache.get(&key) {
            obs.counter("router.plancache.hit").inc();
            let filter = assemble_filter(query, self.curve.is_some().then_some(&entry.ranges[..]));
            let mut router = RouterReport {
                plan_cache: CacheOutcome::Hit,
                ..RouterReport::default()
            };
            let route = if entry.route.generation == self.cluster.routing_generation() {
                router.route_reused = true;
                entry.route.clone()
            } else {
                // The covering is still good; only the routing half
                // went stale (split/migration/zones since the fill).
                obs.counter("router.plancache.route_refresh").inc();
                let fresh = Arc::new(self.cluster.route_plan(&filter));
                cache.insert(
                    key,
                    PlanEntry {
                        ranges: entry.ranges.clone(),
                        route: fresh.clone(),
                    },
                );
                fresh
            };
            return PlannedQuery {
                filter,
                hilbert_time: Duration::ZERO,
                hilbert_ranges: entry.ranges.len(),
                route: Some(route),
                router,
            };
        }
        obs.counter("router.plancache.miss").inc();
        let (ranges, hilbert_time) = match self.curve.as_deref() {
            None => (Arc::new(Vec::new()), Duration::ZERO),
            Some(grid) => {
                let mut cover = self
                    .cover
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let t = compute_covering(&qrect, grid, self.config.range_budget, &mut cover);
                (Arc::new(cover.ranges().to_vec()), t)
            }
        };
        let filter = assemble_filter(query, self.curve.is_some().then_some(&ranges[..]));
        let route = Arc::new(self.cluster.route_plan(&filter));
        let hilbert_ranges = ranges.len();
        cache.insert(
            key,
            PlanEntry {
                ranges,
                route: route.clone(),
            },
        );
        PlannedQuery {
            filter,
            hilbert_time,
            hilbert_ranges,
            route: Some(route),
            router: RouterReport {
                plan_cache: CacheOutcome::Miss,
                ..RouterReport::default()
            },
        }
    }

    /// Rescope every metric this store records (router stages, shard
    /// stage timers, the covering histogram) onto `obs` instead of the
    /// process-wide registry, so concurrent stores never bleed
    /// counters into each other.
    pub fn set_metrics_registry(&mut self, obs: Arc<Registry>) {
        self.cluster.set_metrics_registry(obs);
    }

    /// The registry this store records metrics into.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        self.cluster.metrics_registry()
    }

    /// The slow-query profiler (disabled until
    /// [`StStore::set_profiler`] enables it).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Reconfigure the slow-query profiler. Takes `&self`, like
    /// `db.setProfilingLevel()` against a live server.
    pub fn set_profiler(&self, config: ProfilerConfig) {
        self.profiler.configure(config);
    }

    /// The captured slow-query log as `system.profile`-style
    /// documents, oldest first — the query-able mirror of
    /// [`StStore::st_explain`].
    pub fn profile(&self) -> Vec<Document> {
        self.profiler
            .entries()
            .iter()
            .map(crate::profiler::ProfileEntry::to_document)
            .collect()
    }

    /// Execute a query and return its causal span tree on the virtual
    /// clock (trace id = the store's operation sequence number). Load
    /// `trace.to_chrome_json()` in `chrome://tracing`/Perfetto.
    pub fn st_trace(&self, query: &StQuery) -> Trace {
        let (_, report) = self.st_query(query);
        report.trace(TraceId(self.profiler.last_op().unwrap_or(0)))
    }

    /// Cluster-health telemetry: per-shard/per-chunk load, skew
    /// metrics and the balancer event history.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.cluster.health_snapshot()
    }

    /// Turn on continuous telemetry: a windowed [`Timeline`] over this
    /// store's metrics registry (optionally tracking `slo`), plus the
    /// cross-query folded-stacks flamegraph aggregate. Every query
    /// advances the timeline's virtual clock by its
    /// `QueryReport::total_time()`; every batch commit advances it by
    /// the batch's measured wall time and stamps balancer
    /// split/migration events from the health ledger as timeline
    /// annotations. Re-enabling restarts from a fresh base sample.
    pub fn enable_timeline(&self, cfg: TimelineConfig, slo: Option<SloPolicy>) {
        let mut timeline = Timeline::new(self.metrics_registry().clone(), cfg);
        if let Some(policy) = slo {
            timeline.set_slo(policy);
        }
        *self
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Telemetry {
            timeline,
            folded: FoldedStacks::new(),
            last_event_seq: self.cluster.balancer_event_count(),
        });
    }

    /// Whether continuous telemetry is currently recording.
    pub fn timeline_enabled(&self) -> bool {
        self.telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    /// Inspect the live timeline without stopping it (mid-run probes
    /// in tests and benches).
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> Option<R> {
        let guard = self
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.as_ref().map(|tel| f(&tel.timeline))
    }

    /// Stop continuous telemetry: drain any still-unseen balancer
    /// events, seal the final partial window, and hand back the
    /// finished timeline plus the cross-query flamegraph aggregate.
    pub fn finish_timeline(&self) -> Option<(Timeline, FoldedStacks)> {
        let taken = self
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        taken.map(|mut tel| {
            for e in self.cluster.balancer_events_since(tel.last_event_seq) {
                tel.timeline.annotate(e.kind.name(), e.detail());
            }
            tel.timeline.finish();
            (tel.timeline, tel.folded)
        })
    }

    /// Annotate the timeline after a write-path operation: an optional
    /// leading event, then every balancer event the operation appended
    /// to the health ledger, then advance the virtual clock by the
    /// operation's measured wall time.
    fn timeline_note_write(&self, lead: Option<(&str, String)>, wall: std::time::Duration) {
        let mut guard = self
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(tel) = guard.as_mut() else {
            return;
        };
        if let Some((kind, detail)) = lead {
            tel.timeline.annotate(kind, detail);
        }
        let events = self.cluster.balancer_events_since(tel.last_event_seq);
        tel.last_event_seq += events.len() as u64;
        for e in events {
            tel.timeline.annotate(e.kind.name(), e.detail());
        }
        tel.timeline.advance(wall);
    }

    /// Drop one annotation on the live timeline (no-op when telemetry
    /// is off).
    fn timeline_annotate(&self, kind: &str, detail: String) {
        let mut guard = self
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(tel) = guard.as_mut() {
            tel.timeline.annotate(kind, detail);
        }
    }

    /// Post-execution bookkeeping shared by every query path: the
    /// covering histogram (Hilbert methods decompose on every query),
    /// the end-to-end latency histogram, the continuous timeline (SLO
    /// accounting + flamegraph folding + virtual-clock advance) and
    /// the slow-query profiler.
    fn observe_query(&self, kind: QueryKind, query: StQuery, report: &QueryReport) {
        let obs = self.metrics_registry();
        if self.curve.is_some() {
            obs.record("query.covering", report.hilbert_time);
            // Distribution of covering sizes, not just a running total:
            // obs-report renders p50/p95/max so a budget regression (or a
            // pathological query shape) is visible at a glance.
            obs.histogram("query.covering_ranges")
                .record_value(report.hilbert_ranges as u64);
        }
        let total = report.total_time();
        // End-to-end virtual latency (covering + cluster wall + injected
        // recovery delay) — the histogram the timeline windows and the
        // SLO threshold judge.
        obs.record("query.total", total);
        {
            let mut guard = self
                .telemetry
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(tel) = guard.as_mut() {
                tel.timeline.observe_latency(total);
                report.fold_stages(&mut tel.folded);
                tel.timeline.advance(total);
            }
        }
        self.profiler
            .observe(kind, self.config.approach, query, report);
    }

    /// The configured approach.
    pub fn approach(&self) -> Approach {
        self.config.approach
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The active curve (curve-based methods only).
    pub fn curve(&self) -> Option<&dyn Curve> {
        self.curve.as_deref()
    }

    /// The underlying cluster (read access for diagnostics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (zone management, balancing).
    pub(crate) fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Arm (or re-arm) a named failpoint on the router — chaos testing
    /// through the read-only facade, like `configureFailPoint`.
    pub fn arm_failpoint(&self, name: impl Into<String>, point: FailPoint) {
        self.cluster.arm_failpoint(name, point);
    }

    /// Disarm one failpoint; `true` if it was armed.
    pub fn disarm_failpoint(&self, name: &str) -> bool {
        self.cluster.disarm_failpoint(name)
    }

    /// Disarm every failpoint.
    pub fn disarm_all_failpoints(&self) {
        self.cluster.disarm_all_failpoints();
    }

    /// Replace the router's recovery policy.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.cluster.set_recovery_policy(policy);
    }

    /// Augment one document with the approach's derived fields: the
    /// Hilbert methods add the 1D curve value as `hilbertIndex`
    /// (§4.2.1), StHash its composite hash. Shared by the synchronous
    /// insert path and the batched ingest path.
    fn augment(&self, doc: &mut Document) -> Result<(), String> {
        if let Some(grid) = &self.curve {
            let p = geo_point_of(doc, LOCATION_FIELD)
                .ok_or_else(|| "document lacks a valid GeoJSON location".to_string())?;
            doc.set(HILBERT_FIELD, grid.index_of(p) as i64);
        }
        if self.config.approach == Approach::StHash {
            let p = geo_point_of(doc, LOCATION_FIELD)
                .ok_or_else(|| "document lacks a valid GeoJSON location".to_string())?;
            let t = doc
                .get(crate::DATE_FIELD)
                .and_then(sts_document::Value::as_datetime)
                .ok_or_else(|| "document lacks a datetime `date` field".to_string())?;
            doc.set(crate::sthash::STHASH_FIELD, crate::sthash::sthash_of(p, t));
        }
        Ok(())
    }

    /// Augment (for Hilbert methods) and insert one document.
    ///
    /// The document must carry a GeoJSON point under `location` and a
    /// datetime under `date`; the Hilbert methods add the 1D value as a
    /// new `hilbertIndex` field (§4.2.1) before routing.
    pub fn insert(&mut self, mut doc: Document) -> Result<(), String> {
        self.augment(&mut doc)?;
        self.cluster.insert(&doc)
    }

    /// Bulk load documents, returning how many were stored.
    pub fn bulk_load<I: IntoIterator<Item = Document>>(&mut self, docs: I) -> Result<u64, String> {
        let mut n = 0;
        for d in docs {
            self.insert(d)?;
            n += 1;
        }
        Ok(n)
    }

    /// Batched concurrent ingest: augment and stage every document,
    /// then commit the batch with one atomic epoch publish — queries
    /// racing the batch see all of it or none of it. The live balancer
    /// (splits + fault-tolerant migrations) runs at the commit point.
    /// Returns how many documents were ingested; on error the batch is
    /// rolled back and nothing becomes visible.
    pub fn insert_batch<I: IntoIterator<Item = Document>>(
        &mut self,
        docs: I,
    ) -> Result<u64, String> {
        let augmented: Result<Vec<Document>, String> = docs
            .into_iter()
            .map(|mut d| self.augment(&mut d).map(|()| d))
            .collect();
        let started = std::time::Instant::now();
        let n = self.cluster.ingest(augmented?)?;
        self.timeline_note_write(
            Some(("ingest.commit", format!("{n} docs"))),
            started.elapsed(),
        );
        Ok(n)
    }

    /// Stage one document into the in-flight ingest batch without
    /// committing it (invisible to queries until
    /// [`StStore::commit_batch`]). Schedule-driven tests use this to
    /// interleave staging, queries and balancer actions explicitly.
    pub fn stage(&mut self, mut doc: Document) -> Result<(), String> {
        self.augment(&mut doc)?;
        self.cluster.stage(&doc).map(|_| ())
    }

    /// Publish the in-flight staged batch and run the live balancer.
    pub fn commit_batch(&mut self) {
        let started = std::time::Instant::now();
        self.cluster.commit_batch();
        self.timeline_note_write(
            Some(("ingest.commit", "staged batch".to_string())),
            started.elapsed(),
        );
    }

    /// Split chunk `cidx` at its median shard key (jumbo marking
    /// applies as usual). Schedule-driven tests use this to interleave
    /// balancer actions with ingest and queries at exact points.
    pub fn split_chunk(&mut self, cidx: usize) {
        let started = std::time::Instant::now();
        self.cluster.split_chunk(cidx);
        self.timeline_note_write(None, started.elapsed());
    }

    /// Migrate chunk `cidx` to shard `dst` through the fault-aware
    /// two-phase protocol; `false` means the migration rolled back and
    /// the chunk stayed on its donor.
    pub fn migrate_chunk(&mut self, cidx: usize, dst: usize) -> bool {
        let started = std::time::Instant::now();
        let moved = self.cluster.migrate_chunk(cidx, dst);
        self.timeline_note_write(None, started.elapsed());
        moved
    }

    /// Execute a spatio-temporal range query.
    pub fn st_query(&self, query: &StQuery) -> (Vec<Document>, QueryReport) {
        self.st_query_exec(query, None, false)
    }

    /// Execute a query through admission control: the tenant's token
    /// bucket is charged, and when the health ledger's p99 exceeds the
    /// latency budget the query is hedged (burn still tolerable) or
    /// shed (SLO burning fast — see [`crate::router::AdmissionConfig`]).
    /// Every shed and forced hedge lands on the timeline as an event
    /// and in the `router.sheds`/`router.hedges_forced` counters.
    pub fn st_query_admitted(
        &self,
        tenant: &str,
        query: &StQuery,
    ) -> Result<(Vec<Document>, QueryReport), Shed> {
        let (p99, observations) = self.cluster.health_latency_percentile(0.99);
        // `budget_consumed` folds the open window in, so the signal is
        // live even before the timeline seals its first window.
        let burn = self
            .with_timeline(|t| t.slo().map(|s| s.budget_consumed()))
            .flatten();
        match self.admission.decide(tenant, p99, observations, burn) {
            AdmissionDecision::Admit => Ok(self.st_query(query)),
            AdmissionDecision::AdmitHedged => {
                self.metrics_registry()
                    .counter("router.hedges_forced")
                    .inc();
                self.timeline_annotate(
                    "router.hedge",
                    format!("tenant={tenant} p99={}us over budget", p99.as_micros()),
                );
                let hedged = RecoveryPolicy {
                    hedge_reads: true,
                    ..self.config.recovery
                };
                Ok(self.st_query_exec(query, Some(hedged), true))
            }
            AdmissionDecision::Shed(shed) => {
                self.metrics_registry().counter("router.sheds").inc();
                self.timeline_annotate("router.shed", shed.to_string());
                Err(shed)
            }
        }
    }

    /// The shared find path: result-cache probe, plan-cache-assisted
    /// covering + routing, execution, result-cache fill.
    fn st_query_exec(
        &self,
        query: &StQuery,
        recovery: Option<RecoveryPolicy>,
        hedged_by_policy: bool,
    ) -> (Vec<Document>, QueryReport) {
        let started = Instant::now();
        let rkey = self
            .result_cache
            .as_ref()
            .filter(|_| self.config.approach != Approach::StHash)
            .map(|_| {
                ResultKey::new(
                    self.config.approach,
                    self.fingerprint,
                    self.config.range_budget.max_ranges,
                    query,
                )
            });
        let mut result_outcome = CacheOutcome::Bypass;
        if let (Some(cache), Some(key)) = (&self.result_cache, rkey.as_ref()) {
            let epoch = self.cluster.snapshot_epoch();
            let writes = self.cluster.write_generation();
            match cache.get(key) {
                Some(entry) if entry.valid_at(epoch, writes) => {
                    self.metrics_registry()
                        .counter("router.resultcache.hit")
                        .inc();
                    let report = QueryReport {
                        cluster: entry.hit_report(started.elapsed()),
                        hilbert_time: Duration::ZERO,
                        hilbert_ranges: entry.ranges,
                        curve_fingerprint: self.fingerprint,
                        router: RouterReport {
                            result_cache: CacheOutcome::Hit,
                            hedged_by_policy,
                            ..RouterReport::default()
                        },
                    };
                    self.observe_query(QueryKind::Find, *query, &report);
                    return ((*entry.docs).clone(), report);
                }
                Some(_) => {
                    // A page exists but the data moved on; drop it and
                    // recompute (the fill below re-stamps it).
                    cache.invalidate(key);
                    self.metrics_registry()
                        .counter("router.resultcache.stale")
                        .inc();
                    result_outcome = CacheOutcome::Stale;
                }
                None => {
                    self.metrics_registry()
                        .counter("router.resultcache.miss")
                        .inc();
                    result_outcome = CacheOutcome::Miss;
                }
            }
        }
        let planned = self.plan_query(query);
        let epoch = self.cluster.snapshot_epoch();
        let writes = self.cluster.write_generation();
        let (docs, cluster) = self.cluster.query_exec(
            &planned.filter,
            QueryExecOptions {
                route: planned.route.as_deref(),
                recovery,
            },
        );
        if result_outcome != CacheOutcome::Bypass {
            if let (Some(cache), Some(key)) = (&self.result_cache, rkey) {
                // Cache only complete pages whose data version did not
                // move during execution — a concurrent commit between
                // the stamp and the scan could otherwise freeze a torn
                // batch into the cache.
                if !cluster.partial
                    && docs.len() <= self.config.router.result_cache_max_docs
                    && self.cluster.snapshot_epoch() == epoch
                    && self.cluster.write_generation() == writes
                {
                    cache.insert(
                        key,
                        ResultEntry {
                            docs: Arc::new(docs.clone()),
                            report: Arc::new(cluster.clone()),
                            ranges: planned.hilbert_ranges,
                            epoch,
                            writes,
                        },
                    );
                }
            }
        }
        let report = QueryReport {
            cluster,
            hilbert_time: planned.hilbert_time,
            hilbert_ranges: planned.hilbert_ranges,
            curve_fingerprint: self.fingerprint,
            router: RouterReport {
                result_cache: result_outcome,
                hedged_by_policy,
                ..planned.router
            },
        };
        self.observe_query(QueryKind::Find, *query, &report);
        (docs, report)
    }

    /// MongoDB-style `explain("executionStats")`: execute the query and
    /// return the stage-timing document instead of the result set —
    /// per-shard planning/indexScan/fetchFilter/recovery micros plus the
    /// router's covering/routing/merge stages and the router-tier
    /// cache counters.
    pub fn st_explain(&self, query: &StQuery) -> Document {
        let mut d = self.st_query(query).1.explain();
        if let Some(cache) = &self.plan_cache {
            d.set("planCacheCounters", counters_doc(cache.counters()));
        }
        if let Some(cache) = &self.result_cache {
            d.set("resultCacheCounters", counters_doc(cache.counters()));
        }
        d
    }

    /// Like [`StStore::st_query`], but a shard abandoned by the
    /// fault-tolerant router is an error instead of a silently partial
    /// result set.
    pub fn try_st_query(
        &self,
        query: &StQuery,
    ) -> Result<(Vec<Document>, QueryReport), sts_query::QueryError> {
        let (docs, report) = self.st_query(query);
        if report.cluster.partial {
            Err(sts_query::QueryError::ShardsUnavailable {
                shards: report.cluster.failed_shards(),
            })
        } else {
            Ok((docs, report))
        }
    }

    /// Execute a **polygonal** spatio-temporal query (§6 extension):
    /// every point inside `polygon` between `t0` and `t1` inclusive.
    pub fn polygon_query(
        &self,
        polygon: &sts_geo::GeoPolygon,
        t0: sts_document::DateTime,
        t1: sts_document::DateTime,
    ) -> (Vec<Document>, QueryReport) {
        let (filter, hilbert_time, hilbert_ranges) = {
            let mut cover = self
                .cover
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            crate::query::build_polygon_filter_with(
                polygon,
                t0,
                t1,
                self.curve.as_deref(),
                self.config.range_budget,
                &mut cover,
            )
        };
        let (docs, cluster) = self.cluster.query(&filter);
        let report = QueryReport {
            cluster,
            hilbert_time,
            hilbert_ranges,
            curve_fingerprint: self.fingerprint,
            router: RouterReport::default(),
        };
        // The profiler records the polygon's bounding box as the shape.
        let shape = StQuery {
            rect: *polygon.bbox(),
            t0,
            t1,
        };
        self.observe_query(QueryKind::Polygon, shape, &report);
        (docs, report)
    }

    /// The store-level filter a query translates to (for explain-style
    /// inspection and tests).
    pub fn filter_for(&self, query: &StQuery) -> Filter {
        self.cover_filter(query).0
    }

    /// Run an arbitrary filter through the router.
    pub fn find(&self, filter: &Filter) -> (Vec<Document>, ClusterQueryReport) {
        self.cluster.query(filter)
    }

    /// Spatio-temporal query with result shaping (sort + limit):
    /// distributed top-k across the targeted shards.
    pub fn st_query_with_options(
        &self,
        query: &StQuery,
        options: &sts_query::FindOptions,
    ) -> (Vec<Document>, QueryReport) {
        let planned = self.plan_query(query);
        let (docs, cluster) = self.cluster.query_with_options(&planned.filter, options);
        let report = QueryReport {
            cluster,
            hilbert_time: planned.hilbert_time,
            hilbert_ranges: planned.hilbert_ranges,
            curve_fingerprint: self.fingerprint,
            router: planned.router,
        };
        self.observe_query(QueryKind::TopK, *query, &report);
        (docs, report)
    }

    /// Distributed `$group` aggregation over a spatio-temporal query —
    /// the analytical workloads of §1 (fuel consumption, movement
    /// patterns) run through this.
    pub fn st_aggregate(
        &self,
        query: &StQuery,
        spec: &sts_query::GroupBy,
    ) -> (Vec<Document>, QueryReport) {
        let planned = self.plan_query(query);
        let (docs, cluster) = self.cluster.aggregate(&planned.filter, spec);
        let report = QueryReport {
            cluster,
            hilbert_time: planned.hilbert_time,
            hilbert_ranges: planned.hilbert_ranges,
            curve_fingerprint: self.fingerprint,
            router: planned.router,
        };
        self.observe_query(QueryKind::Aggregate, *query, &report);
        (docs, report)
    }

    /// Configure zones per §4.2.4: `$bucketAuto` boundaries on the
    /// approach's zone field (`hilbertIndex` for Hilbert methods, `date`
    /// for the baselines), one zone per shard, data migrated to match.
    pub fn apply_zones(&mut self) {
        let field = self.config.approach.zone_field();
        let boundaries = self
            .cluster
            .bucket_auto_boundaries(field, self.config.num_shards);
        self.cluster.apply_zones(&boundaries);
    }

    /// Delete every document matching a spatio-temporal query (e.g. GDPR
    /// erasure of a region/time window). Returns the number removed.
    pub fn st_delete(&mut self, query: &StQuery) -> u64 {
        let filter = self.filter_for(query);
        self.cluster.delete(&filter)
    }

    /// Total documents stored.
    pub fn doc_count(&self) -> u64 {
        self.cluster.doc_count()
    }

    /// Aggregated collection statistics (Table 6).
    pub fn collection_stats(&self) -> CollectionStats {
        self.cluster.collection_stats()
    }

    /// Per-index cluster-wide sizes (Fig. 14).
    pub fn index_sizes(&self) -> Vec<(String, sts_btree::SizeReport)> {
        self.cluster.index_sizes()
    }
}

/// Render cache counters as an explain sub-document.
fn counters_doc(c: CacheCounters) -> sts_document::Value {
    sts_document::Value::Document(sts_document::doc! {
        "hits" => c.hits as i64,
        "misses" => c.misses as i64,
        "evictions" => c.evictions as i64,
        "insertions" => c.insertions as i64,
        "stale" => c.stale as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::{doc, DateTime, Value};
    use sts_geo::GeoRect;

    fn record(i: u32, lon: f64, lat: f64, ms: i64) -> Document {
        let mut d = doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![Value::from(lon), Value::from(lat)],
            },
            "date" => DateTime::from_millis(ms),
            "vehicle" => format!("veh-{}", i % 7),
        };
        d.ensure_id(i);
        d
    }

    fn small_store(approach: Approach) -> StStore {
        let mut store = StStore::new(StoreConfig {
            approach,
            num_shards: 4,
            max_chunk_bytes: 16 * 1024,
            ..Default::default()
        });
        // A 40×40 grid over part of Greece, one point per minute.
        let mut i = 0;
        for x in 0..40 {
            for y in 0..40 {
                let lon = 20.0 + f64::from(x) * 0.2;
                let lat = 35.0 + f64::from(y) * 0.15;
                store
                    .insert(record(i, lon, lat, i64::from(i) * 60_000))
                    .unwrap();
                i += 1;
            }
        }
        store
    }

    fn truth(store: &StStore, q: &StQuery) -> usize {
        store
            .cluster()
            .shards()
            .iter()
            .map(|s| {
                s.collection()
                    .iter()
                    .filter(|(_, d)| {
                        let p = geo_point_of(d, LOCATION_FIELD).unwrap();
                        q.matches(p.lon, p.lat, d.get("date").unwrap().as_datetime().unwrap())
                    })
                    .count()
            })
            .sum()
    }

    #[test]
    fn all_approaches_agree_on_results() {
        let q = StQuery {
            rect: GeoRect::new(22.0, 36.0, 25.0, 38.5),
            t0: DateTime::from_millis(10_000_000),
            t1: DateTime::from_millis(60_000_000),
        };
        let mut counts = Vec::new();
        for approach in Approach::ALL {
            let store = small_store(approach);
            let expected = truth(&store, &q);
            let (docs, report) = store.st_query(&q);
            assert_eq!(docs.len(), expected, "{approach}");
            assert_eq!(report.cluster.n_returned() as usize, expected, "{approach}");
            if approach.uses_hilbert() {
                assert!(report.hilbert_ranges > 0, "{approach}");
            } else {
                assert_eq!(report.hilbert_ranges, 0, "{approach}");
            }
            counts.push(docs.len());
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
        assert!(counts[0] > 0);
    }

    #[test]
    fn hilbert_docs_carry_index_field() {
        let store = small_store(Approach::Hil);
        let (docs, _) = store.st_query(&StQuery {
            rect: GeoRect::new(20.0, 35.0, 28.0, 41.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(1_000_000_000),
        });
        assert!(!docs.is_empty());
        assert!(docs.iter().all(|d| d.get(HILBERT_FIELD).is_some()));
        // Baselines must NOT carry it (Table 6's size difference).
        let store = small_store(Approach::BslST);
        let (docs, _) = store.st_query(&StQuery {
            rect: GeoRect::new(20.0, 35.0, 28.0, 41.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(1_000_000_000),
        });
        assert!(docs.iter().all(|d| d.get(HILBERT_FIELD).is_none()));
    }

    #[test]
    fn zones_preserve_results_for_every_approach() {
        let q = StQuery {
            rect: GeoRect::new(21.0, 35.5, 24.0, 39.0),
            t0: DateTime::from_millis(5_000_000),
            t1: DateTime::from_millis(80_000_000),
        };
        for approach in Approach::ALL {
            let mut store = small_store(approach);
            let (before, _) = store.st_query(&q);
            store.apply_zones();
            let (after, _) = store.st_query(&q);
            assert_eq!(before.len(), after.len(), "{approach}");
            assert_eq!(store.doc_count(), 1_600, "{approach}");
        }
    }

    #[test]
    fn batched_ingest_matches_synchronous_inserts() {
        let q = StQuery {
            rect: GeoRect::new(20.0, 35.0, 28.0, 41.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(1_000_000_000),
        };
        for approach in Approach::ALL {
            let mut store = small_store(approach);
            let (before, _) = store.st_query(&q);
            // Stage a batch through the facade: augmented (hilbertIndex
            // etc.) but invisible until the commit.
            let batch: Vec<Document> = (0..50)
                .map(|i| record(10_000 + i, 21.0 + f64::from(i) * 0.01, 36.0, 5_000_000))
                .collect();
            for d in batch.iter().take(25) {
                store.stage(d.clone()).unwrap();
            }
            let (during, _) = store.st_query(&q);
            assert_eq!(during.len(), before.len(), "{approach}: staged leak");
            store.commit_batch();
            let (mid, _) = store.st_query(&q);
            assert_eq!(mid.len(), before.len() + 25, "{approach}");
            // And the one-call batch path.
            store.insert_batch(batch[25..].to_vec()).unwrap();
            let (after, _) = store.st_query(&q);
            assert_eq!(after.len(), before.len() + 50, "{approach}");
            assert_eq!(store.doc_count(), 1_650, "{approach}");
        }
    }

    #[test]
    fn insert_rejects_geo_less_documents() {
        let mut store = StStore::new(StoreConfig {
            approach: Approach::Hil,
            num_shards: 2,
            ..Default::default()
        });
        let bad = doc! {"date" => DateTime::from_millis(0)};
        assert!(store.insert(bad).is_err());
    }

    #[test]
    fn baseline_keeps_two_extra_indexes() {
        // §A.3: bsl maintains _id + compound + date; hil only _id +
        // shard-key compound.
        let bsl = small_store(Approach::BslST);
        assert_eq!(bsl.index_sizes().len(), 3);
        let hil = small_store(Approach::Hil);
        assert_eq!(hil.index_sizes().len(), 2);
    }
}
