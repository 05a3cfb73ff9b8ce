//! One shard's collection slice: records + indexes + find.

use crate::executor::{execute_plan_into, QueryScratch};
use crate::explain::ExecutionStats;
use crate::filter::Filter;
use crate::plan::QueryPlan;
use crate::planner::Planner;
use crate::shape::QueryShape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use sts_document::Document;
use sts_index::{extract_key_values, IndexManager, IndexSpec};
use sts_obs::Registry;
use sts_storage::{CollectionStats, CollectionStore, RecordId};

/// A shard-local collection: the unit a `mongod` process manages.
///
/// ## Snapshot visibility
///
/// The collection carries a **committed-epoch** counter. Ordinary
/// inserts stamp epoch 0 (immediately visible). A batched ingest
/// instead *stages* documents at `committed + 1` — they are stored and
/// indexed, but [`get_visible`](Self::get_visible) (and therefore the
/// executor's fetch stage) treats them as absent until
/// [`commit_batch`](Self::commit_batch) publishes the epoch with a
/// single atomic store. A scan that overlaps a batch thus sees either
/// none or all of it, never a torn prefix. In a cluster every shard
/// shares one counter (see [`share_epoch`](Self::share_epoch)), making
/// the commit point global across shards.
pub struct LocalCollection {
    store: CollectionStore,
    indexes: IndexManager,
    /// Where stage timers land. Defaults to the process-wide registry;
    /// a cluster can rescope all its shards onto a private one so
    /// concurrent stores (benchmark approaches, parallel tests) never
    /// bleed metrics into each other.
    obs: Arc<Registry>,
    /// Highest published insert epoch; records stamped above it are
    /// staged and invisible. Shared across shards of a cluster so one
    /// store is the whole batch's commit point.
    committed: Arc<AtomicU64>,
    /// Reusable execution buffers. A shard serves one query at a time,
    /// so the mutex is uncontended — it exists only because the cluster
    /// fans queries out to shards from its executor's worker threads
    /// (`&self` + `Sync`).
    scratch: Mutex<QueryScratch>,
}

impl Default for LocalCollection {
    fn default() -> Self {
        LocalCollection {
            store: CollectionStore::default(),
            indexes: IndexManager::default(),
            obs: sts_obs::global_handle(),
            committed: Arc::new(AtomicU64::new(0)),
            scratch: Mutex::new(QueryScratch::new()),
        }
    }
}

impl LocalCollection {
    /// Empty collection with no indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Redirect this collection's stage metrics to `obs`.
    pub fn set_obs(&mut self, obs: Arc<Registry>) {
        self.obs = obs;
    }

    /// Create an index over existing and future documents.
    ///
    /// Panics if documents already exist (the simulator always creates
    /// indexes before loading, as the paper's methodology does).
    pub fn create_index(&mut self, spec: IndexSpec) {
        assert!(
            self.store.is_empty(),
            "create indexes before loading data (paper methodology §5.1)"
        );
        self.indexes.create_index(spec);
    }

    /// The index set.
    pub fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    /// Insert a document; all indexes must accept it (2dsphere fields
    /// must hold valid points, like MongoDB's insert-time validation).
    pub fn insert(&mut self, doc: &Document) -> Result<RecordId, String> {
        self.insert_at_epoch(doc, 0)
    }

    /// Insert a document stamped with an explicit epoch. Epoch 0 is
    /// immediately visible; anything above the committed epoch stays
    /// invisible to snapshot readers until published. Migrations use
    /// this to carry a record's stamp across shards unchanged.
    pub fn insert_at_epoch(&mut self, doc: &Document, epoch: u64) -> Result<RecordId, String> {
        for index in self.indexes.iter() {
            if extract_key_values(index.spec(), doc).is_none() {
                return Err(format!(
                    "document not indexable by {}: invalid or missing geo field",
                    index.spec()
                ));
            }
        }
        let rid = self.store.insert_at(doc, epoch);
        let ok = self.indexes.insert_doc(doc, rid);
        debug_assert!(ok, "validated above");
        Ok(rid)
    }

    /// Stage a document into the in-flight batch (epoch `committed + 1`):
    /// stored and indexed now, visible only after [`commit_batch`].
    ///
    /// [`commit_batch`]: Self::commit_batch
    pub fn stage(&mut self, doc: &Document) -> Result<RecordId, String> {
        let epoch = self.snapshot() + 1;
        self.insert_at_epoch(doc, epoch)
    }

    /// Publish the in-flight batch: one atomic store advances the
    /// committed epoch, flipping every staged record visible at once.
    pub fn commit_batch(&self) {
        let next = self.snapshot() + 1;
        self.committed.store(next, Ordering::Release);
    }

    /// The current committed epoch — the snapshot a query starting now
    /// executes against.
    pub fn snapshot(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Handle to the committed-epoch counter, for sharing one commit
    /// point across every shard of a cluster.
    pub fn share_epoch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.committed)
    }

    /// Rebind this collection onto a shared committed-epoch counter.
    pub fn set_epoch_handle(&mut self, epoch: Arc<AtomicU64>) {
        self.committed = epoch;
    }

    /// Remove by record id, unindexing along the way.
    pub fn remove(&mut self, rid: RecordId) -> Option<Document> {
        let doc = self.store.remove(rid)?;
        self.indexes.remove_doc(&doc, rid);
        Some(doc)
    }

    /// Fetch a document (snapshot-blind; staged records are served too).
    pub fn get(&self, rid: RecordId) -> Option<Document> {
        self.store.get(rid)
    }

    /// Fetch a document only if it is visible at `snapshot`.
    pub fn get_visible(&self, rid: RecordId, snapshot: u64) -> Option<Document> {
        self.store.get_visible(rid, snapshot)
    }

    /// The insert epoch a live record carries.
    pub fn epoch_of(&self, rid: RecordId) -> Option<u64> {
        self.store.epoch_of(rid)
    }

    /// Live document count, staged records included (what storage
    /// accounting and chunk sizing care about).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Documents visible at the current committed epoch.
    pub fn visible_len(&self) -> usize {
        self.store.visible_len(self.snapshot())
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterate all `(record id, document)` pairs, staged included.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, Document)> + '_ {
        self.store.iter()
    }

    /// Iterate `(record id, document)` pairs visible at the current
    /// committed epoch — what a reader starting now observes.
    pub fn iter_visible(&self) -> impl Iterator<Item = (RecordId, Document)> + '_ {
        self.store.iter_visible(self.snapshot())
    }

    /// Storage statistics (Table 6).
    pub fn stats(&self) -> CollectionStats {
        self.store.stats()
    }

    /// Plan a query with the default planner.
    pub fn plan(&self, filter: &Filter) -> QueryPlan {
        Planner::default().choose(self, filter)
    }

    /// Plan and execute, returning matching documents and explain stats.
    /// Planning time (trial executions included) is reported in
    /// `stats.planning`, separately from the execution window.
    pub fn find(&self, filter: &Filter) -> (Vec<Document>, ExecutionStats) {
        self.find_with_planner(&Planner::default(), filter)
    }

    /// Plan, execute and shape (sort/limit) — the shard-local half of a
    /// distributed top-k find.
    pub fn find_with_options(
        &self,
        filter: &Filter,
        options: &crate::FindOptions,
    ) -> (Vec<Document>, ExecutionStats) {
        let (mut docs, stats) = self.find(filter);
        options.shape(&mut docs);
        (docs, stats)
    }

    /// Execute with an explicit planner configuration.
    pub fn find_with_planner(
        &self,
        planner: &Planner,
        filter: &Filter,
    ) -> (Vec<Document>, ExecutionStats) {
        self.find_shaped(planner, &QueryShape::analyze(filter))
    }

    /// [`find_with_planner`](Self::find_with_planner) for a filter the
    /// caller (the cluster router) has already analyzed.
    pub fn find_shaped(
        &self,
        planner: &Planner,
        shape: &QueryShape,
    ) -> (Vec<Document>, ExecutionStats) {
        let filter = shape.filter();
        let planning_start = std::time::Instant::now();
        let plan = planner.choose_for(self, shape);
        let planning = planning_start.elapsed();
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut stats = execute_plan_into(self, filter, &plan, None, true, &mut scratch);
        // Draining into the caller's Vec happens outside the measured
        // hot section: handing results upward costs one (amortized)
        // reallocation here, not per-key work inside the scan loop.
        let docs = scratch.drain().map(|(_, d)| d).collect();
        drop(scratch);
        stats.planning = planning;
        self.obs.record("shard.planning", stats.planning);
        self.obs.record("shard.index_scan", stats.scan_time());
        self.obs.record("shard.fetch_filter", stats.fetch_time);
        self.obs.counter("shard.exec_allocs").add(stats.allocations);
        (docs, stats)
    }

    /// Delete every matching document, returning the removed documents
    /// (callers use them to maintain routing metadata).
    pub fn delete_matching(&mut self, filter: &Filter) -> Vec<Document> {
        let plan = self.plan(filter);
        let (pairs, _) = crate::executor::execute_plan_with_rids(self, filter, &plan, None, true);
        let mut removed = Vec::with_capacity(pairs.len());
        for (rid, _) in pairs {
            if let Some(d) = self.remove(rid) {
                removed.push(d);
            }
        }
        removed
    }

    /// Brute-force evaluation over every *visible* document — the ground
    /// truth the tests compare indexed execution against. Visibility
    /// matters: a correct indexed find must return exactly the committed
    /// records, so the reference scan applies the same snapshot.
    pub fn find_collscan(&self, filter: &Filter) -> Vec<Document> {
        self.iter_visible()
            .map(|(_, d)| d)
            .filter(|d| filter.matches(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_document::{doc, DateTime, Value};
    use sts_geo::GeoRect;
    use sts_index::IndexField;

    fn geo_doc(lon: f64, lat: f64, ms: i64) -> Document {
        let mut d = doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![Value::from(lon), Value::from(lat)],
            },
            "date" => DateTime::from_millis(ms),
        };
        d.ensure_id((ms / 1_000) as u32);
        d
    }

    fn st_collection() -> LocalCollection {
        let mut c = LocalCollection::new();
        c.create_index(IndexSpec::single("_id"));
        c.create_index(IndexSpec::new(
            "location_1_date_1",
            vec![IndexField::geo("location"), IndexField::asc("date")],
        ));
        c.create_index(IndexSpec::single("date"));
        for i in 0..500i64 {
            let lon = 23.0 + (i % 25) as f64 * 0.04;
            let lat = 37.0 + (i / 25) as f64 * 0.04;
            c.insert(&geo_doc(lon, lat, i * 60_000)).unwrap();
        }
        c
    }

    #[test]
    fn find_matches_collscan_ground_truth() {
        let c = st_collection();
        let f = Filter::And(vec![
            Filter::GeoWithin {
                path: "location".into(),
                rect: GeoRect::new(23.2, 37.2, 23.6, 37.6),
            },
            Filter::gte("date", DateTime::from_millis(0)),
            Filter::lte("date", DateTime::from_millis(500 * 60_000)),
        ]);
        let (docs, stats) = c.find(&f);
        let truth = c.find_collscan(&f);
        assert_eq!(docs.len(), truth.len());
        assert!(stats.n_returned as usize == truth.len());
        assert!(!truth.is_empty(), "query should match something");
        assert!(stats.completed);
    }

    #[test]
    fn find_reports_stage_timings() {
        let c = st_collection();
        let f = Filter::And(vec![
            Filter::gte("date", DateTime::from_millis(0)),
            Filter::lte("date", DateTime::from_millis(100 * 60_000)),
        ]);
        let (_, stats) = c.find(&f);
        assert!(stats.fetch_time <= stats.duration);
        assert_eq!(stats.scan_time() + stats.fetch_time, stats.duration);
        assert_eq!(stats.total_time(), stats.planning + stats.duration);
        assert!(stats.docs_examined > 0);
    }

    #[test]
    fn insert_rejects_bad_geo() {
        let mut c = st_collection();
        let bad = doc! {"date" => DateTime::from_millis(0), "location" => "oops"};
        assert!(c.insert(&bad).is_err());
    }

    #[test]
    fn remove_unindexes() {
        let mut c = LocalCollection::new();
        c.create_index(IndexSpec::single("date"));
        let d = geo_doc(23.0, 37.0, 1_000);
        let rid = c.insert(&d).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.remove(rid).unwrap(), d);
        assert_eq!(c.len(), 0);
        assert_eq!(c.indexes().get("date").unwrap().len(), 0);
        assert!(c.remove(rid).is_none());
    }

    #[test]
    #[should_panic(expected = "before loading data")]
    fn create_index_after_load_panics() {
        let mut c = LocalCollection::new();
        c.create_index(IndexSpec::single("date"));
        c.insert(&geo_doc(23.0, 37.0, 0)).unwrap();
        c.create_index(IndexSpec::single("x"));
    }

    #[test]
    fn staged_batch_invisible_until_commit() {
        let mut c = st_collection();
        let f = Filter::And(vec![
            Filter::gte("date", DateTime::from_millis(0)),
            Filter::lte("date", DateTime::from_millis(500 * 60_000)),
        ]);
        let (before, _) = c.find(&f);
        // Stage a batch: indexed immediately, but invisible to find and
        // to the reference collscan alike.
        for i in 0..10i64 {
            c.stage(&geo_doc(23.3, 37.3, 1_000 + i)).unwrap();
        }
        assert_eq!(c.len(), 510);
        assert_eq!(c.visible_len(), 500);
        let (during, _) = c.find(&f);
        assert_eq!(during.len(), before.len(), "staged docs leaked into find");
        assert_eq!(c.find_collscan(&f).len(), before.len());
        // One atomic commit flips the whole batch visible.
        c.commit_batch();
        let (after, _) = c.find(&f);
        assert_eq!(after.len(), before.len() + 10);
        assert_eq!(c.find_collscan(&f).len(), before.len() + 10);
        assert_eq!(c.visible_len(), 510);
    }

    #[test]
    fn unindexable_query_falls_back_to_full_scan() {
        let c = st_collection();
        let f = Filter::gte("speed", 10.0); // no index on speed
        let plan = c.plan(&f);
        assert!(plan.is_fallback);
        let (docs, stats) = c.find(&f);
        assert!(docs.is_empty());
        assert_eq!(stats.docs_examined, 500);
    }
}
