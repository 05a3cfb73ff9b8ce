//! The cluster: shards + routing table + balancer + mongos front-end.

use crate::chunk::ChunkMap;
use crate::executor::{ExecutorConfig, ExecutorStats, ShardExecutor};
use crate::faults::{AttemptCtx, FailPoint, FaultInjector, FaultKind};
use crate::health::{skew, BalancerEventKind, ClusterHealth, HealthSnapshot};
use crate::report::{ClusterQueryReport, ShardExecution};
use crate::retry::{run_with_recovery, RecoveryPolicy};
use crate::shard::Shard;
use crate::shardkey::{ShardKey, ShardStrategy};
use crate::zones::{zones_from_boundaries, Zone};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_btree::SizeReport;
use sts_document::{encoded_size, Document, Value};
use sts_index::{IndexField, IndexSpec};
use sts_obs::Registry;
use sts_query::{ExecutionStats, Filter, Planner, QueryError, QueryShape};
use sts_storage::CollectionStats;

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards (the paper deploys 12).
    pub num_shards: usize,
    /// Chunk split threshold in bytes. MongoDB defaults to 64 MB; the
    /// harness scales this with the data so chunk counts per shard match
    /// the paper's regime.
    pub max_chunk_bytes: u64,
    /// Planner used by every shard (per-shard planning, like MongoDB).
    pub planner: Planner,
    /// Router fault tolerance: timeouts, retries, hedged reads.
    pub recovery: RecoveryPolicy,
    /// Seed for the failpoint registry's deterministic draws.
    pub fault_seed: u64,
    /// Live-balancer policy applied at every batch commit.
    pub balancer: LiveBalancerConfig,
    /// Shard-executor tunables (threads per fan-out).
    pub executor: ExecutorConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_shards: 12,
            max_chunk_bytes: 640 * 1024,
            planner: Planner::default(),
            recovery: RecoveryPolicy::default(),
            fault_seed: 0x5EED_FA17,
            balancer: LiveBalancerConfig::default(),
            executor: ExecutorConfig::default(),
        }
    }
}

/// A routing decision a plan cache can hold and replay: the target
/// shards, the broadcast flag, the routing-table chunk indices the
/// decision touched, and the routing generation it was computed
/// against. A plan whose `generation` no longer matches
/// [`Cluster::routing_generation`] is stale — the chunk map changed
/// under it (split, migration, zone application) — and must be
/// recomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutePlan {
    /// Shards the query must visit, ascending.
    pub targets: Vec<usize>,
    /// Whether that is a broadcast (no shard-key constraint).
    pub broadcast: bool,
    /// Chunk indices the routing decision touched (heat accounting).
    pub touched: Vec<usize>,
    /// The routing generation this plan is valid for.
    pub generation: u64,
}

/// Per-query execution overrides for [`Cluster::query_exec`]: an
/// optional cached routing decision and an optional recovery-policy
/// override (the router's shed/hedge machinery forces hedged reads
/// through the latter).
#[derive(Clone, Copy, Default)]
pub struct QueryExecOptions<'a> {
    /// A previously computed routing decision; used only while its
    /// generation matches the live routing table.
    pub route: Option<&'a RoutePlan>,
    /// Recovery-policy override for this query alone.
    pub recovery: Option<RecoveryPolicy>,
}

/// Policy for the live balancer that runs at batch-commit time,
/// turning the health ledger's chunk-heat and document-skew signals
/// into splits and migrations while ingest is in flight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveBalancerConfig {
    /// Master switch. Off reduces [`Cluster::commit_batch`] to the
    /// epoch publish alone.
    pub enabled: bool,
    /// Split the hottest chunk when it absorbed more than this share of
    /// all chunk-routing decisions (query heat, PR-3 ledger).
    pub heat_split_ratio: f64,
    /// Minimum routed-query observations before heat splitting engages
    /// (avoids reacting to the first few queries).
    pub heat_min_queries: u64,
    /// Migrate from the document-heaviest shard while the per-shard
    /// document Gini coefficient exceeds this.
    pub docs_gini_threshold: f64,
    /// Upper bound on skew-driven migrations per commit — the balancer
    /// does bounded work per batch so ingest latency stays predictable.
    pub max_moves_per_round: usize,
}

impl Default for LiveBalancerConfig {
    fn default() -> Self {
        LiveBalancerConfig {
            enabled: true,
            heat_split_ratio: 0.5,
            heat_min_queries: 16,
            docs_gini_threshold: 0.4,
            max_moves_per_round: 2,
        }
    }
}

/// A sharded collection: the whole deployment the paper evaluates.
pub struct Cluster {
    config: ClusterConfig,
    shard_key: ShardKey,
    shard_key_index: String,
    shards: Vec<Shard>,
    chunks: ChunkMap,
    zones: Option<Vec<Zone>>,
    migrations: MigrationStats,
    faults: FaultInjector,
    health: ClusterHealth,
    /// The shared committed-epoch counter every shard's collection is
    /// bound to. One atomic store here is the cluster-wide commit point
    /// of a staged ingest batch.
    epoch: Arc<AtomicU64>,
    /// Routing generation: bumped whenever the chunk map changes shape
    /// or ownership (split, committed migration, zone application).
    /// Cached [`RoutePlan`]s are valid only while their generation
    /// matches.
    routing_gen: AtomicU64,
    /// Write generation: bumped on every synchronous insert, staged
    /// insert and delete. Together with the committed epoch it stamps
    /// result-cache entries, so a cached page is invalidated by *any*
    /// mutation that could change a result set — epoch-published
    /// batches and non-epoch writes alike.
    writes: AtomicU64,
    /// The shard executor (parked workers) behind every scatter/gather.
    executor: ShardExecutor,
    /// Metric sink for router/shard observables. Defaults to the
    /// process-wide registry; [`Cluster::set_metrics_registry`] rescopes
    /// the whole deployment (router + every shard) onto a private one.
    obs: Arc<Registry>,
}

/// Balancer bookkeeping: how much data the cluster has shuffled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Chunk migrations performed (committed; aborted ones don't count).
    pub chunks_moved: u64,
    /// Documents physically moved between shards.
    pub docs_moved: u64,
    /// Migration attempts retried after a transient mid-transfer fault.
    pub migration_retries: u64,
    /// Migrations rolled back for good (hard failure, or transient
    /// faults exhausting the retry budget). The chunk stayed put.
    pub migrations_aborted: u64,
}

impl Cluster {
    /// Create a sharded collection.
    ///
    /// `index_specs` are the user-defined indexes created on every shard
    /// (e.g. the baseline's `(location 2dsphere, date)` compound). If no
    /// index has the shard-key fields as an ascending prefix, one is
    /// auto-created — exactly MongoDB's behaviour, and the reason the
    /// baseline methods carry an extra `date` index (§4.1.2).
    pub fn new(
        config: ClusterConfig,
        shard_key: ShardKey,
        mut index_specs: Vec<IndexSpec>,
    ) -> Self {
        assert!(config.num_shards >= 1, "need at least one shard");
        if !index_specs.iter().any(|s| s.name == "_id") {
            index_specs.insert(0, IndexSpec::single("_id"));
        }
        let shard_key_index = match index_specs.iter().find(|s| covers_shard_key(s, &shard_key)) {
            Some(s) => s.name.clone(),
            None => {
                // Auto-create the backing index. Its key space must match
                // the chunk key space: ascending fields for range keys,
                // hashed fields for hashed keys (MongoDB does the same).
                let (name, fields) = match shard_key.strategy {
                    ShardStrategy::Range => (
                        shard_key
                            .fields
                            .iter()
                            .map(|f| format!("{f}_1"))
                            .collect::<Vec<_>>()
                            .join("_"),
                        shard_key
                            .fields
                            .iter()
                            .map(IndexField::asc)
                            .collect::<Vec<_>>(),
                    ),
                    ShardStrategy::Hashed => (
                        format!("{}_hashed", shard_key.fields[0]),
                        shard_key.fields.iter().map(IndexField::hashed).collect(),
                    ),
                };
                index_specs.push(IndexSpec::new(name.clone(), fields));
                name
            }
        };
        let mut shards: Vec<Shard> = (0..config.num_shards)
            .map(|id| Shard::new(id, &index_specs))
            .collect();
        // Bind every shard to one committed-epoch counter so a staged
        // batch spanning shards commits at a single atomic store.
        let epoch = shards[0].collection().share_epoch();
        for shard in shards.iter_mut().skip(1) {
            shard.collection_mut().set_epoch_handle(Arc::clone(&epoch));
        }
        let faults = FaultInjector::new(config.fault_seed);
        let health = ClusterHealth::new(config.num_shards);
        Cluster {
            executor: ShardExecutor::new(config.executor),
            config,
            shard_key,
            shard_key_index,
            shards,
            chunks: ChunkMap::new_single(0),
            zones: None,
            migrations: MigrationStats::default(),
            faults,
            health,
            epoch,
            routing_gen: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            obs: sts_obs::global_handle(),
        }
    }

    /// Replace the executor tunables (takes effect on the next query).
    pub fn set_executor_config(&mut self, config: ExecutorConfig) {
        self.config.executor = config;
        self.executor.set_config(config);
    }

    /// Cumulative executor counters: tasks, inline fan-outs, helper-run tasks.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.executor.stats()
    }

    /// Rescope every metric this deployment records — the router's
    /// scatter/gather observables and every shard's stage timers —
    /// onto `obs` instead of the process-wide registry. Benchmarks use
    /// this so one approach's counters can never bleed into another's.
    pub fn set_metrics_registry(&mut self, obs: Arc<Registry>) {
        for shard in &mut self.shards {
            shard.collection_mut().set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The registry this deployment records metrics into.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Point-in-time cluster-health telemetry: per-shard and per-chunk
    /// load counters plus the balancer event history, aggregated
    /// against the current routing table.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot(&self.chunks, &self.docs_per_shard())
    }

    /// A percentile of the health ledger's per-query cluster latency
    /// (slowest shard's total cost, virtual recovery delay included)
    /// plus the number of queries backing it — the tail signal the
    /// router tier's shed/hedge decision consumes.
    pub fn health_latency_percentile(&self, q: f64) -> (Duration, u64) {
        self.health.latency_percentile(q)
    }

    /// Balancer events with `seq >= from`, in order — the incremental
    /// read the telemetry timeline uses to annotate splits/migrations
    /// right after a batch commit without cloning the whole ledger.
    pub fn balancer_events_since(&self, from: u64) -> Vec<crate::health::BalancerEvent> {
        self.health.events_since(from)
    }

    /// Total balancer events recorded so far (the next event's `seq`).
    pub fn balancer_event_count(&self) -> u64 {
        self.health.event_count()
    }

    /// The failpoint registry. Arming takes `&self` (interior
    /// mutability), like `configureFailPoint` against a live server.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Arm (or re-arm) a named failpoint.
    pub fn arm_failpoint(&self, name: impl Into<String>, point: FailPoint) {
        self.faults.arm(name, point);
    }

    /// Disarm one failpoint; `true` if it was armed.
    pub fn disarm_failpoint(&self, name: &str) -> bool {
        self.faults.disarm(name)
    }

    /// Disarm every failpoint.
    pub fn disarm_all_failpoints(&self) {
        self.faults.disarm_all();
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> &RecoveryPolicy {
        &self.config.recovery
    }

    /// Replace the recovery policy.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.config.recovery = policy;
    }

    /// The shard key.
    pub fn shard_key(&self) -> &ShardKey {
        &self.shard_key
    }

    /// Name of the index backing the shard key.
    pub fn shard_key_index(&self) -> &str {
        &self.shard_key_index
    }

    /// The routing table.
    pub fn chunk_map(&self) -> &ChunkMap {
        &self.chunks
    }

    /// The shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Active zones, if configured.
    pub fn zones(&self) -> Option<&[Zone]> {
        self.zones.as_deref()
    }

    /// Total live documents.
    pub fn doc_count(&self) -> u64 {
        self.shards.iter().map(|s| s.len() as u64).sum()
    }

    /// The routing generation cached [`RoutePlan`]s are checked against.
    pub fn routing_generation(&self) -> u64 {
        self.routing_gen.load(Ordering::Acquire)
    }

    /// The write generation result-cache entries are stamped with (see
    /// the field docs: every insert/stage/delete bumps it).
    pub fn write_generation(&self) -> u64 {
        self.writes.load(Ordering::Acquire)
    }

    /// Route a document and insert it, splitting/balancing as needed.
    pub fn insert(&mut self, doc: &Document) -> Result<(), String> {
        self.writes.fetch_add(1, Ordering::Release);
        let key = self.shard_key.key_bytes(doc);
        let cidx = self.chunks.route(&key);
        let shard_id = self.chunks.chunks()[cidx].shard;
        self.shards[shard_id].insert(doc)?;
        let size = encoded_size(doc) as u64;
        {
            let c = &mut self.chunks.chunks_mut()[cidx];
            c.bytes += size;
            c.docs += 1;
        }
        let c = &self.chunks.chunks()[cidx];
        if c.bytes > self.config.max_chunk_bytes && !c.jumbo {
            self.try_split(cidx);
            self.balance();
        }
        Ok(())
    }

    /// Bulk insertion in batches (the paper loads with 15k-document
    /// batches, §A.1 — batching here just amortizes the balancer checks).
    pub fn bulk_insert<I: IntoIterator<Item = Document>>(
        &mut self,
        docs: I,
    ) -> Result<u64, String> {
        let mut n = 0u64;
        for doc in docs {
            self.insert(&doc)?;
            n += 1;
        }
        Ok(n)
    }

    /// The committed epoch — the snapshot queries starting now read at.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Stage one document into the in-flight ingest batch: routed and
    /// physically inserted (stored + indexed, chunk counters bumped)
    /// but stamped `committed + 1`, so concurrent snapshot readers do
    /// not see it until [`commit_batch`](Self::commit_batch). Returns
    /// the `(shard, record id)` the document landed on, which
    /// [`ingest`](Self::ingest) uses to roll a failed batch back.
    pub fn stage(&mut self, doc: &Document) -> Result<(usize, u64), String> {
        self.writes.fetch_add(1, Ordering::Release);
        let key = self.shard_key.key_bytes(doc);
        let cidx = self.chunks.route(&key);
        let shard_id = self.chunks.chunks()[cidx].shard;
        let epoch = self.snapshot_epoch() + 1;
        let rid = self.shards[shard_id]
            .collection_mut()
            .insert_at_epoch(doc, epoch)?;
        let size = encoded_size(doc) as u64;
        let c = &mut self.chunks.chunks_mut()[cidx];
        c.bytes += size;
        c.docs += 1;
        self.obs.counter("ingest.docs").inc();
        Ok((shard_id, rid))
    }

    /// Publish the in-flight batch: one atomic store on the shared
    /// epoch counter flips every staged record — on every shard —
    /// visible at once, then the live balancer reacts to the new state.
    /// A scan overlapping the commit observes the batch entirely or
    /// not at all, never a torn prefix.
    pub fn commit_batch(&mut self) {
        let next = self.snapshot_epoch() + 1;
        self.epoch.store(next, Ordering::Release);
        self.obs.counter("ingest.batches").inc();
        self.maybe_rebalance();
    }

    /// Batched concurrent ingest: stage every document, then commit.
    /// All-or-nothing — if any document fails validation the batch's
    /// staged records are physically removed (they were never visible)
    /// and the epoch does not advance. Returns the number ingested.
    pub fn ingest<I: IntoIterator<Item = Document>>(&mut self, docs: I) -> Result<u64, String> {
        let mut staged: Vec<(usize, u64, Document)> = Vec::new();
        for doc in docs {
            match self.stage(&doc) {
                Ok((shard, rid)) => staged.push((shard, rid, doc)),
                Err(e) => {
                    for (shard, rid, doc) in staged.drain(..) {
                        self.shards[shard].collection_mut().remove(rid);
                        let cidx = self.chunks.route(&self.shard_key.key_bytes(&doc));
                        let c = &mut self.chunks.chunks_mut()[cidx];
                        c.docs = c.docs.saturating_sub(1);
                        c.bytes = c.bytes.saturating_sub(encoded_size(&doc) as u64);
                    }
                    return Err(e);
                }
            }
        }
        let n = staged.len() as u64;
        self.commit_batch();
        Ok(n)
    }

    /// The live balancer, run at every batch commit: size splits for
    /// overflowing chunks, a heat split when the health ledger shows
    /// one chunk absorbing most of the query routing, then bounded
    /// skew-driven migrations (chunk-count spread + document Gini).
    fn maybe_rebalance(&mut self) {
        if !self.config.balancer.enabled {
            return;
        }
        // 1. Size splits — same overflow rule the synchronous insert
        // path applies, swept across the whole map because staging
        // defers them to the commit point.
        while let Some(cidx) = self
            .chunks
            .chunks()
            .iter()
            .position(|c| c.bytes > self.config.max_chunk_bytes && !c.jumbo)
        {
            self.try_split(cidx);
        }
        // 2. Heat split: one chunk soaking up more than the configured
        // share of routing decisions gets split so its halves can then
        // migrate apart.
        let policy = self.config.balancer;
        let snap = self.health_snapshot();
        let total_heat: u64 = snap.chunks.iter().map(|c| c.queries_routed).sum();
        if total_heat >= policy.heat_min_queries {
            if let Some(hot) = snap.hottest_chunks(1).first() {
                let share = hot.queries_routed as f64 / total_heat as f64;
                if share > policy.heat_split_ratio && !hot.jumbo {
                    if let Some(cidx) = self.chunks.chunks().iter().position(|c| c.min == hot.min) {
                        self.try_split(cidx);
                    }
                }
            }
        }
        // 3. Chunk-count spread, as the background balancer round.
        self.balance();
        // 4. Document-skew migrations: while the per-shard document
        // Gini stays above threshold, move chunks off the heaviest
        // shard — bounded per round so a commit does bounded work.
        let mut moves = 0usize;
        while moves < policy.max_moves_per_round {
            let docs: Vec<u64> = self.docs_per_shard().iter().map(|&d| d as u64).collect();
            if skew(&docs).gini < policy.docs_gini_threshold {
                break;
            }
            let donor = (0..docs.len()).max_by_key(|&i| docs[i]).unwrap();
            let recipient = (0..docs.len()).min_by_key(|&i| docs[i]).unwrap();
            if donor == recipient {
                break;
            }
            let donor_chunks: Vec<usize> = (0..self.chunks.len())
                .filter(|&i| self.chunks.chunks()[i].shard == donor)
                .collect();
            let idx = match donor_chunks.len() {
                0 => break,
                1 => {
                    // A one-chunk donor must split before it can shed
                    // load; a jumbo chunk cannot, so give up.
                    let only = donor_chunks[0];
                    self.try_split(only);
                    if self.chunks.chunks()[only].jumbo {
                        break;
                    }
                    only + 1
                }
                _ => *donor_chunks.last().unwrap(),
            };
            if !self.migrate(idx, recipient) {
                break;
            }
            moves += 1;
        }
    }

    /// Split chunk `cidx` at its median shard key (public hook for
    /// schedule-driven tests; jumbo marking applies as usual).
    pub fn split_chunk(&mut self, cidx: usize) {
        assert!(cidx < self.chunks.len(), "chunk index out of range");
        self.try_split(cidx);
    }

    /// Migrate chunk `cidx` to shard `dst` through the fault-aware
    /// two-phase protocol. Returns whether the migration committed
    /// (`false` = rolled back; the chunk stayed on its donor).
    pub fn migrate_chunk(&mut self, cidx: usize, dst: usize) -> bool {
        assert!(cidx < self.chunks.len(), "chunk index out of range");
        assert!(dst < self.config.num_shards, "shard out of range");
        self.migrate(cidx, dst)
    }

    /// Split an oversized chunk at its median shard key.
    fn try_split(&mut self, cidx: usize) {
        let (min, max, shard_id) = {
            let c = &self.chunks.chunks()[cidx];
            (c.min.clone(), c.max.clone(), c.shard)
        };
        let keys = self.shards[shard_id].shard_keys_in_range(
            &self.shard_key,
            &self.shard_key_index,
            &min,
            max.as_deref(),
        );
        if keys.len() < 2 {
            self.mark_jumbo(cidx);
            return;
        }
        let mut split = keys[keys.len() / 2].clone();
        if split == keys[0] {
            // Median collides with the lowest key — advance to the first
            // distinct key; if none exists the chunk is jumbo (§4.1.2).
            match keys.iter().find(|k| **k > split) {
                Some(k) => split = k.clone(),
                None => {
                    self.mark_jumbo(cidx);
                    return;
                }
            }
        }
        if split <= min {
            self.mark_jumbo(cidx);
            return;
        }
        // A rejected split (key outside the chunk after a concurrent
        // map change) is routed, not fatal: the chunk is left whole
        // and flagged jumbo so the balancer stops retrying it.
        if self.chunks.split(cidx, split).is_err() {
            self.mark_jumbo(cidx);
            return;
        }
        self.routing_gen.fetch_add(1, Ordering::Release);
        self.health.record_event(min, BalancerEventKind::Split);
        self.obs.counter("balancer.splits").inc();
    }

    /// Flag a chunk as unsplittable and log the event.
    fn mark_jumbo(&mut self, cidx: usize) {
        let c = &mut self.chunks.chunks_mut()[cidx];
        c.jumbo = true;
        let min = c.min.clone();
        self.health.record_event(min, BalancerEventKind::Jumbo);
    }

    /// Even out chunk counts (and enforce zone pinning when configured)
    /// by migrating chunks — physically moving their documents.
    pub fn balance(&mut self) {
        // Zone enforcement first: every chunk must live on its zone's shard.
        if let Some(zones) = self.zones.clone() {
            loop {
                let misplaced = self.chunks.chunks().iter().position(|c| {
                    zones
                        .iter()
                        .find(|z| z.contains(&c.min))
                        .is_some_and(|z| z.shard != c.shard)
                });
                match misplaced {
                    Some(idx) => {
                        let dst = zones
                            .iter()
                            .find(|z| z.contains(&self.chunks.chunks()[idx].min))
                            .unwrap()
                            .shard;
                        if !self.migrate(idx, dst) {
                            // Migration rolled back (injected fault);
                            // leave enforcement to a later round rather
                            // than spinning on the same chunk.
                            break;
                        }
                    }
                    None => break,
                }
            }
            // With one zone per shard there is nothing further to even out.
            return;
        }
        // Default balancer: migrate from the most- to the least-loaded
        // shard while the spread exceeds one chunk.
        loop {
            let counts = self.chunks.counts_per_shard(self.config.num_shards);
            let (max_shard, &max_count) =
                counts.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
            let (min_shard, &min_count) =
                counts.iter().enumerate().min_by_key(|(_, c)| **c).unwrap();
            if max_count <= min_count + 1 {
                break;
            }
            // Move the donor's last chunk (MongoDB picks from the top of
            // the range; any deterministic choice works for the model).
            let idx = self
                .chunks
                .chunks()
                .iter()
                .rposition(|c| c.shard == max_shard)
                .expect("max shard has chunks");
            if !self.migrate(idx, min_shard) {
                break;
            }
        }
    }

    /// Move one chunk's documents to another shard through a two-phase
    /// protocol that survives injected faults:
    ///
    /// 1. **Copy**: every record in the chunk's key range is inserted on
    ///    the recipient, *preserving its insert-epoch stamp* (a staged
    ///    document stays staged on the new shard).
    /// 2. **Commit or roll back**: the transfer then draws from the
    ///    failpoint registry. A transient fault rolls the copies back
    ///    and retries (up to the recovery policy's retry budget); a hard
    ///    failure rolls back and aborts. On success the originals are
    ///    deleted and the routing table flips ownership — the only point
    ///    where queries start routing the range to the recipient.
    ///
    /// Returns whether the migration committed. Aborted migrations
    /// leave the cluster exactly as before (no lost or duplicated
    /// records) and count in `migrations_aborted`, not `chunks_moved`.
    fn migrate(&mut self, chunk_idx: usize, dst: usize) -> bool {
        let (min, max, src) = {
            let c = &self.chunks.chunks()[chunk_idx];
            (c.min.clone(), c.max.clone(), c.shard)
        };
        if src == dst {
            return true;
        }
        let start = Instant::now();
        let records =
            self.shards[src].records_in_key_range(&self.shard_key_index, &min, max.as_deref());
        let migration_id = self.faults.begin_query();
        let max_attempts = 1 + self.config.recovery.max_retries;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.migrations.migration_retries += 1;
                self.obs.counter("balancer.migration_retries").inc();
            }
            // Phase 1: copy. Epoch stamps ride along so a staged batch
            // straddling the migration still commits atomically.
            let mut copied = Vec::with_capacity(records.len());
            for (_, doc, epoch) in &records {
                let rid = self.shards[dst]
                    .collection_mut()
                    .insert_at_epoch(doc, *epoch)
                    .expect("migrated documents were already validated");
                copied.push(rid);
            }
            // Phase 2: the transfer itself may fault.
            let fault = self.faults.draw(&AttemptCtx {
                query_id: migration_id,
                shard: src,
                attempt,
                replica: false,
            });
            match fault {
                Some(FaultKind::TransientError) | Some(FaultKind::HardFailure) => {
                    // Mid-transfer loss: undo the copies. The donor
                    // still holds every original, so no record is lost;
                    // removing the copies means none is duplicated.
                    for rid in copied {
                        self.shards[dst].collection_mut().remove(rid);
                    }
                    if matches!(fault, Some(FaultKind::HardFailure)) {
                        break; // node down: retrying cannot help
                    }
                    continue;
                }
                // Injected latency is virtual time: the transfer is
                // slow, not wrong.
                Some(FaultKind::Latency(_)) | None => {}
            }
            // Commit: drop the originals, flip routing-table ownership.
            for (rid, _, _) in &records {
                self.shards[src].collection_mut().remove(*rid);
            }
            self.chunks.assign(chunk_idx, dst);
            self.routing_gen.fetch_add(1, Ordering::Release);
            self.migrations.chunks_moved += 1;
            self.migrations.docs_moved += records.len() as u64;
            self.health.record_event(
                min,
                BalancerEventKind::Migrate {
                    from: src,
                    to: dst,
                    docs: records.len() as u64,
                },
            );
            self.obs.counter("balancer.migrations").inc();
            self.obs.record("balancer.migrations", start.elapsed());
            return true;
        }
        self.migrations.migrations_aborted += 1;
        self.obs.counter("balancer.migrations_aborted").inc();
        self.health.record_event(
            min,
            BalancerEventKind::MigrateAborted { from: src, to: dst },
        );
        false
    }

    /// Balancer bookkeeping so far.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migrations
    }

    /// Compute `$bucketAuto` boundaries over one document field: the
    /// encoded field values split into `n` near-equal-count buckets
    /// (§4.2.4's zone construction).
    pub fn bucket_auto_boundaries(&self, path: &str, n: usize) -> Vec<Vec<u8>> {
        let mut keys = Vec::with_capacity(self.doc_count() as usize);
        for shard in &self.shards {
            for (_, doc) in shard.collection().iter() {
                let v = doc.get_path(path).cloned().unwrap_or(Value::Null);
                keys.push(sts_encoding::encode_value(&v));
            }
        }
        crate::zones::bucket_boundaries(keys, n)
    }

    /// Weighted `$bucketAuto` boundaries over one field: each document
    /// contributes `weight(doc)` instead of 1 — the workload-aware
    /// partitioning hook (§6 future work).
    pub fn bucket_auto_weighted_boundaries(
        &self,
        path: &str,
        n: usize,
        weight: impl Fn(&sts_document::Document) -> u64,
    ) -> Vec<Vec<u8>> {
        let mut pairs = Vec::with_capacity(self.doc_count() as usize);
        for shard in &self.shards {
            for (_, doc) in shard.collection().iter() {
                let v = doc.get_path(path).cloned().unwrap_or(Value::Null);
                pairs.push((sts_encoding::encode_value(&v), weight(&doc)));
            }
        }
        crate::zones::weighted_bucket_boundaries(pairs, n)
    }

    /// Define one zone per shard from interior boundaries (in shard-key
    /// space), split chunks at the boundaries, and migrate data to its
    /// pinned shard.
    pub fn apply_zones(&mut self, boundaries: &[Vec<u8>]) {
        let zones = zones_from_boundaries(boundaries, self.config.num_shards);
        self.chunks.split_at_boundaries(boundaries);
        self.routing_gen.fetch_add(1, Ordering::Release);
        self.zones = Some(zones);
        self.balance();
    }

    /// Which shards a query must visit, and whether that's a broadcast.
    pub fn target_shards(&self, filter: &Filter) -> (Vec<usize>, bool) {
        let (shards, broadcast, _) = self.route(&QueryShape::analyze(filter));
        (shards, broadcast)
    }

    /// Full routing decision: target shards, broadcast flag, and the
    /// routing-table chunk indices the decision touched (all chunks on
    /// a broadcast — the router consults the whole table).
    fn route(&self, shape: &QueryShape) -> (Vec<usize>, bool, Vec<usize>) {
        let lead = &self.shard_key.fields[0];
        let intervals: Option<Vec<KeyInterval>> = match self.shard_key.strategy {
            ShardStrategy::Hashed => None, // ranges cannot target hashed keys
            ShardStrategy::Range => {
                if let Some((path, ivs)) = &shape.int_intervals {
                    (path == lead).then(|| {
                        ivs.iter()
                            .map(|&(lo, hi)| {
                                (
                                    sts_encoding::encode_value(&Value::Int64(lo)),
                                    Some(upper_bytes(&Value::Int64(hi))),
                                )
                            })
                            .collect()
                    })
                } else if let Some(iv) = shape.range_for(lead) {
                    iv.is_constrained().then(|| {
                        let lo = iv
                            .lo
                            .as_ref()
                            .map(sts_encoding::encode_value)
                            .unwrap_or_default();
                        let hi = iv.hi.as_ref().map(upper_bytes);
                        vec![(lo, hi)]
                    })
                } else {
                    None
                }
            }
        };
        match intervals {
            None => (
                (0..self.config.num_shards).collect(),
                true,
                (0..self.chunks.chunks().len()).collect(),
            ),
            Some(ivs) => {
                let mut shards = BTreeSet::new();
                let mut touched = BTreeSet::new();
                for (lo, hi) in ivs {
                    for idx in self.chunks.overlapping(&lo, hi.as_deref()) {
                        shards.insert(self.chunks.chunks()[idx].shard);
                        touched.insert(idx);
                    }
                }
                (
                    shards.into_iter().collect(),
                    false,
                    touched.into_iter().collect(),
                )
            }
        }
    }

    /// Compute (and stamp) a reusable routing decision for `filter` —
    /// what the router tier's plan cache holds next to the covering.
    pub fn route_plan(&self, filter: &Filter) -> RoutePlan {
        // Read the generation *before* routing: if the map changes
        // mid-computation the plan self-invalidates rather than
        // claiming a freshness it doesn't have.
        let generation = self.routing_generation();
        let (targets, broadcast, touched) = self.route(&QueryShape::analyze(filter));
        RoutePlan {
            targets,
            broadcast,
            touched,
            generation,
        }
    }

    /// The unified scatter/gather: analyze the filter once — routing
    /// and every shard's planner read the same [`QueryShape`] — route
    /// (or replay a cached, generation-checked [`RoutePlan`]), fan out
    /// on the shard executor's parked workers under the recovery policy
    /// (failpoint draws, timeouts, backoff retries, hedged reads),
    /// gather in shard order. Abandoned shards contribute an incomplete
    /// [`ShardExecution`] and flip the report's `partial` flag instead
    /// of losing the whole query.
    fn scatter_gather<R: Send>(
        &self,
        filter: &Filter,
        opts: QueryExecOptions,
        run: impl Fn(usize, &QueryShape) -> (R, ExecutionStats) + Sync,
    ) -> (Vec<R>, ClusterQueryReport) {
        let start = Instant::now();
        let shape = QueryShape::analyze(filter);
        let cached_route = opts
            .route
            .filter(|p| p.generation == self.routing_generation());
        let computed;
        let (targets, broadcast, touched_chunks): (&[usize], bool, &[usize]) = match cached_route {
            Some(p) => {
                self.obs.counter("router.route_reused").inc();
                (&p.targets, p.broadcast, &p.touched)
            }
            None => {
                if opts.route.is_some() {
                    // A plan was offered but the chunk map moved on.
                    self.obs.counter("router.route_stale").inc();
                }
                computed = self.route(&shape);
                (&computed.0, computed.1, &computed.2)
            }
        };
        let routing = start.elapsed();
        let query_id = self.faults.begin_query();
        let policy = opts.recovery.unwrap_or(self.config.recovery);
        // One row per target, in target (= ascending shard) order: the
        // answer (`None` once recovery gave the shard up) and what it took.
        let (results, dispatch) = self.executor.execute(&self.obs, targets, |&sid| {
            run_with_recovery(&policy, &self.faults, query_id, sid, || run(sid, &shape))
        });
        let mut payloads = Vec::with_capacity(results.len());
        let mut per_shard = Vec::with_capacity(results.len());
        let mut partial = false;
        for (&sid, (out, recovery)) in targets.iter().zip(results) {
            let stats = match out {
                Some((payload, stats)) => {
                    payloads.push(payload);
                    stats
                }
                None => {
                    partial = true;
                    ExecutionStats {
                        completed: false,
                        ..ExecutionStats::default()
                    }
                }
            };
            per_shard.push(ShardExecution {
                shard: sid,
                stats,
                recovery,
            });
        }
        let report = ClusterQueryReport {
            per_shard,
            broadcast,
            partial,
            wall: start.elapsed(),
            routing,
            merge: Duration::ZERO,
            dispatch,
        };
        self.health.record_query(&report);
        self.health.record_chunk_access(
            touched_chunks
                .iter()
                .map(|&idx| self.chunks.chunks()[idx].min.as_slice()),
        );
        record_scatter_metrics(&self.obs, &report);
        (payloads, report)
    }

    /// Route, scatter, execute in parallel, gather.
    pub fn query(&self, filter: &Filter) -> (Vec<Document>, ClusterQueryReport) {
        self.query_exec(filter, QueryExecOptions::default())
    }

    /// [`Cluster::query`] with per-query overrides: a cached routing
    /// decision to replay and/or a recovery-policy override (the
    /// router tier's hedge escalation).
    pub fn query_exec(
        &self,
        filter: &Filter,
        opts: QueryExecOptions,
    ) -> (Vec<Document>, ClusterQueryReport) {
        let planner = self.config.planner;
        let (chunks, mut report) = self.scatter_gather(filter, opts, |sid, shape| {
            self.shards[sid].collection().find_shaped(&planner, shape)
        });
        let merge_start = Instant::now();
        // `Flatten` has no useful size hint; pre-size the merge vector
        // from the per-shard counts so the gather does one allocation.
        let total: usize = chunks.iter().map(Vec::len).sum();
        let mut docs: Vec<Document> = Vec::with_capacity(total);
        for chunk in chunks {
            docs.extend(chunk);
        }
        finish_merge(&self.obs, &mut report, merge_start.elapsed());
        (docs, report)
    }

    /// Like [`Cluster::query`], but an abandoned shard is an error
    /// instead of a silently partial result set.
    pub fn try_query(
        &self,
        filter: &Filter,
    ) -> Result<(Vec<Document>, ClusterQueryReport), QueryError> {
        let (docs, report) = self.query(filter);
        check_complete(report).map(|report| (docs, report))
    }

    /// Route, scatter, execute, shape: every shard returns its own
    /// sorted top-k, the router merge-shapes the union — distributed
    /// top-k semantics.
    pub fn query_with_options(
        &self,
        filter: &Filter,
        options: &sts_query::FindOptions,
    ) -> (Vec<Document>, ClusterQueryReport) {
        let planner = self.config.planner;
        let (chunks, mut report) =
            self.scatter_gather(filter, QueryExecOptions::default(), |sid, shape| {
                let coll = self.shards[sid].collection();
                let (mut docs, stats) = coll.find_shaped(&planner, shape);
                options.shape(&mut docs);
                (docs, stats)
            });
        let merge_start = Instant::now();
        let total: usize = chunks.iter().map(Vec::len).sum();
        let mut docs: Vec<Document> = Vec::with_capacity(total);
        for chunk in chunks {
            docs.extend(chunk);
        }
        options.shape(&mut docs);
        finish_merge(&self.obs, &mut report, merge_start.elapsed());
        (docs, report)
    }

    /// Like [`Cluster::query_with_options`], erroring on partial results.
    pub fn try_query_with_options(
        &self,
        filter: &Filter,
        options: &sts_query::FindOptions,
    ) -> Result<(Vec<Document>, ClusterQueryReport), QueryError> {
        let (docs, report) = self.query_with_options(filter, options);
        check_complete(report).map(|report| (docs, report))
    }

    /// Delete every document matching `filter` across the targeted
    /// shards, keeping indexes and chunk counters consistent. Returns
    /// the number removed.
    pub fn delete(&mut self, filter: &Filter) -> u64 {
        self.writes.fetch_add(1, Ordering::Release);
        let (targets, _) = self.target_shards(filter);
        let mut removed_docs: Vec<Document> = Vec::new();
        for sid in targets {
            removed_docs.extend(self.shards[sid].collection_mut().delete_matching(filter));
        }
        // Maintain routing metadata: each removed document decrements
        // its chunk's counters (saturating — counters after splits are
        // estimates, §3.3).
        for d in &removed_docs {
            let key = self.shard_key.key_bytes(d);
            let cidx = self.chunks.route(&key);
            let c = &mut self.chunks.chunks_mut()[cidx];
            c.docs = c.docs.saturating_sub(1);
            c.bytes = c.bytes.saturating_sub(encoded_size(d) as u64);
        }
        removed_docs.len() as u64
    }

    /// Distributed aggregation: `$match` + `$group` scattered to the
    /// targeted shards; partials merge exactly at the router.
    pub fn aggregate(
        &self,
        filter: &Filter,
        spec: &sts_query::GroupBy,
    ) -> (Vec<Document>, ClusterQueryReport) {
        let (partials, mut report) =
            self.scatter_gather(filter, QueryExecOptions::default(), |sid, _| {
                sts_query::aggregate_local(self.shards[sid].collection(), filter, spec)
            });
        let merge_start = Instant::now();
        let mut merged = sts_query::PartialAggregation::default();
        for partial in partials {
            merged.merge(partial);
        }
        let docs = merged.finalize(spec);
        finish_merge(&self.obs, &mut report, merge_start.elapsed());
        (docs, report)
    }

    /// Like [`Cluster::aggregate`], erroring on partial results.
    pub fn try_aggregate(
        &self,
        filter: &Filter,
        spec: &sts_query::GroupBy,
    ) -> Result<(Vec<Document>, ClusterQueryReport), QueryError> {
        let (docs, report) = self.aggregate(filter, spec);
        check_complete(report).map(|report| (docs, report))
    }

    /// Aggregated collection statistics (Table 6).
    pub fn collection_stats(&self) -> CollectionStats {
        let mut total = CollectionStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Per-index total sizes across shards: `(index name, merged
    /// report)` — Fig. 14's breakdown.
    pub fn index_sizes(&self) -> Vec<(String, SizeReport)> {
        let mut acc: Vec<(String, SizeReport)> = Vec::new();
        for shard in &self.shards {
            for (name, report) in shard.index_sizes() {
                match acc.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, r)) => r.merge(&report),
                    None => acc.push((name, report)),
                }
            }
        }
        acc
    }

    /// Per-shard document counts (load-balance diagnostics).
    pub fn docs_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::len).collect()
    }
}

/// A `[lo, hi)` interval in shard-key byte space (`None` = +∞).
type KeyInterval = (Vec<u8>, Option<Vec<u8>>);

/// Record router-level observables for one scatter/gather into the
/// cluster's metrics registry: routing latency, per-query fan-out and
/// the recovery counters. Virtual recovery delay goes to its own
/// histogram — it is injected, not measured, time.
fn record_scatter_metrics(obs: &Registry, report: &ClusterQueryReport) {
    obs.counter("router.queries").inc();
    if report.broadcast {
        obs.counter("router.broadcasts").inc();
    }
    if report.partial {
        obs.counter("router.partials").inc();
    }
    obs.counter("router.shard_executions")
        .add(report.per_shard.len() as u64);
    obs.counter("router.retries")
        .add(u64::from(report.total_retries()));
    obs.counter("router.hedges")
        .add(u64::from(report.total_hedges()));
    obs.counter("router.timeouts")
        .add(u64::from(report.total_timeouts()));
    obs.record("router.routing", report.routing);
    let recovery = report.stage_totals().recovery;
    if recovery > Duration::ZERO {
        obs.record("router.recovery_virtual", recovery);
    }
}

/// Fold the router-side merge stage into the report: the merge runs
/// after the scatter wall-clock window closed, so it extends `wall`.
fn finish_merge(obs: &Registry, report: &mut ClusterQueryReport, merge: Duration) {
    report.merge = merge;
    report.wall += merge;
    obs.record("router.merge", merge);
    obs.record("router.wall", report.wall);
}

/// Turn a partial gather into `QueryError::ShardsUnavailable`.
fn check_complete(report: ClusterQueryReport) -> Result<ClusterQueryReport, QueryError> {
    if report.partial {
        Err(QueryError::ShardsUnavailable {
            shards: report.failed_shards(),
        })
    } else {
        Ok(report)
    }
}

/// Bytes sorting strictly after every key whose leading value is `v`.
fn upper_bytes(v: &Value) -> Vec<u8> {
    let mut b = sts_encoding::encode_value(v);
    b.push(0xFF);
    b
}

/// Does `spec` start with the shard key's fields as plain ascending
/// columns? (2dsphere fields cannot back a shard key — §4.1.2.)
fn covers_shard_key(spec: &IndexSpec, key: &ShardKey) -> bool {
    if key.strategy != ShardStrategy::Range || spec.fields.len() < key.fields.len() {
        return false;
    }
    key.fields
        .iter()
        .zip(&spec.fields)
        .all(|(path, field)| field.path == *path && matches!(field.kind, sts_index::FieldKind::Asc))
}
