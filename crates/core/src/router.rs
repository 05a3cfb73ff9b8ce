//! The router tier: covering-plan cache and hot result-page cache.
//!
//! At "millions of users" scale the same query shapes repeat
//! constantly, and the router — which recomputes the curve covering
//! and fans out on every query — becomes the bottleneck. This module
//! gives [`crate::StStore`] two production pieces:
//!
//! * a **covering-plan cache** ([`PlanCache`]): a sharded LRU keyed by
//!   `(approach, curve fingerprint, range budget, quantized query
//!   MBR/time window)`, holding the coalesced covering ranges and the
//!   routing decision ([`sts_cluster::RoutePlan`], generation-stamped).
//!   Each store owns its cache: the key does not name the cluster, so a
//!   cached routing decision is only meaningful to the store that made
//!   it;
//! * a **result-page cache** ([`ResultCache`]): exact-keyed pages of
//!   result documents stamped with the committed epoch *and* the write
//!   generation at fill time. A page is served only while both still
//!   match, so a cached page can never expose a torn or stale batch.
//!
//! Quantization makes near-identical rectangles share one plan: the
//! MBR is snapped *outward* to a `2^-quant_frac_bits`-degree grid (and
//! the time window outward to `quant_time_ms`), the covering is
//! computed for the snapped rectangle, and the exact rectangle/time
//! still run as the per-document refinement predicate — a superset
//! covering can only add false-positive index keys, never lose a
//! result.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use sts_cluster::{ClusterQueryReport, ExecutorConfig, RoutePlan};
use sts_document::{DateTime, Document};
use sts_geo::GeoRect;

use crate::approach::Approach;
use crate::query::StQuery;

/// Router-tier configuration, carried in
/// [`StoreConfig::router`](crate::StoreConfig).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterConfig {
    /// Covering-plan cache capacity in entries; `0` disables it.
    pub plan_cache_entries: usize,
    /// Number of independently locked LRU shards in the plan cache.
    pub plan_cache_shards: usize,
    /// Result-page cache capacity in entries; `0` disables it.
    /// Disabled by default: serving pages changes what a query
    /// *executes* (nothing), so turning it on is a deployment choice.
    pub result_cache_entries: usize,
    /// Pages holding more documents than this are never cached (the
    /// cache holds *hot* pages, not bulk exports).
    pub result_cache_max_docs: usize,
    /// Fractional bits of the plan-key MBR quantization grid: cells of
    /// `2^-n` degrees, snapped outward. `0` keys on the exact
    /// coordinate bits (no sharing across nearby rectangles).
    pub quant_frac_bits: u32,
    /// Time-window quantization step in milliseconds (snapped
    /// outward); `0` keys on exact millis.
    pub quant_time_ms: i64,
    /// Shard-executor tunables (parked workers), passed to the cluster.
    pub executor: ExecutorConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            plan_cache_entries: 1024,
            plan_cache_shards: 8,
            result_cache_entries: 0,
            result_cache_max_docs: 4096,
            quant_frac_bits: 8,
            quant_time_ms: 60_000,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Per-query cache outcome, carried in
/// [`RouterReport`] and rendered by `explain()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cache was disabled or the query shape is uncacheable.
    #[default]
    Bypass,
    /// No entry; the query computed and filled one.
    Miss,
    /// Served from the cache.
    Hit,
    /// An entry existed but was invalidated (epoch/write-generation
    /// moved on); the query recomputed and refilled it.
    Stale,
}

impl CacheOutcome {
    /// Stable lowercase name for explain documents and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Stale => "stale",
        }
    }
}

/// What the router tier did for one query — stitched into
/// [`QueryReport`](crate::QueryReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Covering-plan cache outcome.
    pub plan_cache: CacheOutcome,
    /// Result-page cache outcome.
    pub result_cache: CacheOutcome,
    /// Whether a cached routing decision was replayed (vs recomputed).
    pub route_reused: bool,
}

// ---------------------------------------------------------------------
// Sharded LRU
// ---------------------------------------------------------------------

/// Hit/miss/evict counters for one cache, cheap to snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries inserted (fills + refreshes).
    pub insertions: u64,
    /// Entries found but invalidated by their stamp (result cache).
    pub stale: u64,
}

const NIL: usize = usize::MAX;

struct LruSlot<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// One independently locked LRU shard: intrusive doubly linked list
/// over a slot arena, `HashMap` for key lookup.
struct LruShard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<LruSlot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].val.clone())
    }

    /// Insert or overwrite; returns whether an LRU eviction happened.
    fn insert(&mut self, key: K, val: V) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].val = val;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = LruSlot {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(LruSlot {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                true
            }
            None => false,
        }
    }
}

/// A sharded LRU cache: `shards` independently locked LRUs, keys
/// hashed to a shard, atomic hit/miss/evict counters. `&self`
/// throughout, so stores can consult it on the read path.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    stale: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of ~`capacity` total entries across `shards` locks.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look a key up, refreshing its recency. Counts a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key);
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert (or refresh) an entry, evicting the shard's LRU entry if
    /// the shard is full.
    pub fn insert(&self, key: K, val: V) {
        let evicted = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, val);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop an entry (stamp invalidation). Converts the preceding
    /// `get`'s hit into a stale count, so hit ratios reflect *served*
    /// pages only.
    pub fn invalidate(&self, key: &K) {
        let removed = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(key);
        if removed {
            self.stale.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Live entry count (sums every shard; diagnostic, not hot-path).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Covering-plan cache key: the full identity of a covering plan. Two
/// stores agree on an entry only when the approach, the curve grid
/// (its fingerprint: curve kind, order and extent), the range budget
/// and the quantized query window all match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    approach: u8,
    fingerprint: u64,
    max_ranges: usize,
    /// Quantized MBR corner coordinates as `f64` bit patterns.
    rect: [u64; 4],
    /// Quantized time window in millis; `[0, 0]` for approaches whose
    /// covering and routing ignore time (the curve methods route on
    /// `hilbertIndex`, and a rect covering is time-independent).
    time: [i64; 2],
}

impl PlanKey {
    /// Build the key and the (outward-)quantized rectangle the
    /// covering must be computed for.
    pub fn new(
        approach: Approach,
        fingerprint: Option<u64>,
        max_ranges: usize,
        query: &StQuery,
        cfg: &RouterConfig,
    ) -> (PlanKey, GeoRect) {
        let rect = quantize_rect(&query.rect, cfg.quant_frac_bits);
        let time = if approach.uses_hilbert() {
            [0, 0]
        } else {
            quantize_time(query.t0, query.t1, cfg.quant_time_ms)
        };
        (
            PlanKey {
                approach: approach as u8,
                fingerprint: fingerprint.unwrap_or(0),
                max_ranges,
                rect: [
                    rect.min_lon.to_bits(),
                    rect.min_lat.to_bits(),
                    rect.max_lon.to_bits(),
                    rect.max_lat.to_bits(),
                ],
                time,
            },
            rect,
        )
    }
}

/// Snap a rectangle *outward* to the `2^-bits`-degree grid. `bits = 0`
/// keys on the exact rectangle.
fn quantize_rect(rect: &GeoRect, bits: u32) -> GeoRect {
    if bits == 0 {
        return *rect;
    }
    let scale = f64::from(1u32 << bits.min(30));
    GeoRect::new(
        (rect.min_lon * scale).floor() / scale,
        (rect.min_lat * scale).floor() / scale,
        (rect.max_lon * scale).ceil() / scale,
        (rect.max_lat * scale).ceil() / scale,
    )
}

/// Snap a time window *outward* to `step_ms` boundaries.
fn quantize_time(t0: DateTime, t1: DateTime, step_ms: i64) -> [i64; 2] {
    if step_ms <= 0 {
        return [t0.millis(), t1.millis()];
    }
    [
        t0.millis().div_euclid(step_ms) * step_ms,
        t1.millis().div_euclid(step_ms) * step_ms + (step_ms - 1),
    ]
}

/// A cached covering plan: the coalesced ranges for the quantized
/// rectangle, plus the generation-stamped routing decision.
#[derive(Clone)]
pub struct PlanEntry {
    /// Coalesced covering ranges (empty for the curve-less baselines).
    pub ranges: Arc<Vec<(u64, u64)>>,
    /// The routing decision computed for this plan's filter. Replayed
    /// only while its generation matches the live chunk map.
    pub route: Arc<RoutePlan>,
}

/// The covering-plan cache. Shareable across stores (`Arc`): one
/// router process fronting many collections keys everything by
/// approach + curve fingerprint, so distinct fits never collide.
pub type PlanCache = ShardedLru<PlanKey, PlanEntry>;

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

/// Result-page cache key: the *exact* query identity (no
/// quantization — pages are verbatim result sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    approach: u8,
    fingerprint: u64,
    max_ranges: usize,
    rect: [u64; 4],
    time: [i64; 2],
}

impl ResultKey {
    /// Build the exact-identity key for a find query.
    pub fn new(
        approach: Approach,
        fingerprint: Option<u64>,
        max_ranges: usize,
        query: &StQuery,
    ) -> ResultKey {
        ResultKey {
            approach: approach as u8,
            fingerprint: fingerprint.unwrap_or(0),
            max_ranges,
            rect: [
                query.rect.min_lon.to_bits(),
                query.rect.min_lat.to_bits(),
                query.rect.max_lon.to_bits(),
                query.rect.max_lat.to_bits(),
            ],
            time: [query.t0.millis(), query.t1.millis()],
        }
    }
}

/// A cached result page: the documents, the execution's counter
/// template, and the data-version stamp it is valid for.
#[derive(Clone)]
pub struct ResultEntry {
    /// The page.
    pub docs: Arc<Vec<Document>>,
    /// The fill execution's cluster report. Served hits replay its
    /// *counters* (keys/docs examined, nReturned — they describe the
    /// page) with all timing and recovery zeroed (no shard ran).
    pub report: Arc<ClusterQueryReport>,
    /// Number of covering ranges behind the page (report metadata).
    pub ranges: usize,
    /// Committed epoch at fill time.
    pub epoch: u64,
    /// Write generation at fill time.
    pub writes: u64,
}

impl ResultEntry {
    /// Is the entry still valid at the given data version?
    pub fn valid_at(&self, epoch: u64, writes: u64) -> bool {
        self.epoch == epoch && self.writes == writes
    }

    /// The cluster report a served hit carries: the fill execution's
    /// counters with zeroed timing, clean recovery, and the lookup's
    /// wall time.
    pub fn hit_report(&self, wall: Duration) -> ClusterQueryReport {
        let mut r = (*self.report).clone();
        for s in &mut r.per_shard {
            s.stats.duration = Duration::ZERO;
            s.stats.planning = Duration::ZERO;
            s.stats.fetch_time = Duration::ZERO;
            s.stats.allocations = 0;
            s.recovery = Default::default();
            s.recovery.attempts = 1;
        }
        r.wall = wall;
        r.routing = Duration::ZERO;
        r.planning = Duration::ZERO;
        r.merge = Duration::ZERO;
        r.dispatch = Default::default();
        r
    }
}

/// The result-page cache.
pub type ResultCache = ShardedLru<ResultKey, ResultEntry>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 2 is now LRU
        c.insert(3, 30);
        assert_eq!(c.get(&2), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        let n = c.counters();
        assert_eq!(n.evictions, 1);
        assert_eq!(n.insertions, 3);
        assert_eq!(n.hits, 3);
        assert_eq!(n.misses, 1);
    }

    #[test]
    fn lru_overwrite_refreshes_without_evicting() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // overwrite, no eviction
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_reclassifies_the_hit_as_stale() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(4, 2);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        c.invalidate(&1);
        assert_eq!(c.get(&1), None);
        let n = c.counters();
        assert_eq!(n.hits, 0);
        assert_eq!(n.stale, 1);
        assert_eq!(n.misses, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn quantized_rect_contains_the_original() {
        let r = GeoRect::new(23.7213, 37.9838, 24.0031, 38.1007);
        for bits in [0, 4, 8, 12] {
            let q = quantize_rect(&r, bits);
            assert!(q.min_lon <= r.min_lon);
            assert!(q.min_lat <= r.min_lat);
            assert!(q.max_lon >= r.max_lon);
            assert!(q.max_lat >= r.max_lat);
            let cell = 1.0 / f64::from(1u32 << bits.min(30));
            assert!(q.max_lon - r.max_lon <= cell);
        }
        assert_eq!(quantize_rect(&r, 0), r);
    }

    #[test]
    fn quantized_time_contains_the_original_window() {
        let [lo, hi] = quantize_time(
            DateTime::from_millis(61_500),
            DateTime::from_millis(178_200),
            60_000,
        );
        assert_eq!(lo, 60_000);
        assert_eq!(hi, 179_999);
        // Negative millis snap downward too (div_euclid).
        let [lo, _] = quantize_time(
            DateTime::from_millis(-1_500),
            DateTime::from_millis(0),
            60_000,
        );
        assert_eq!(lo, -60_000);
    }

    #[test]
    fn plan_keys_separate_fingerprints_budgets_and_approaches() {
        let q = StQuery {
            rect: GeoRect::new(23.0, 37.0, 24.0, 38.0),
            t0: DateTime::from_millis(0),
            t1: DateTime::from_millis(1_000),
        };
        let cfg = RouterConfig::default();
        let (a, _) = PlanKey::new(Approach::Hil, Some(1), 64, &q, &cfg);
        let (b, _) = PlanKey::new(Approach::Hil, Some(2), 64, &q, &cfg);
        let (c, _) = PlanKey::new(Approach::Hil, Some(1), 32, &q, &cfg);
        let (d, _) = PlanKey::new(Approach::HilStar, Some(1), 64, &q, &cfg);
        assert_ne!(a, b, "fingerprint must separate entries");
        assert_ne!(a, c, "budget must separate entries");
        assert_ne!(a, d, "approach must separate entries");
        let (a2, _) = PlanKey::new(Approach::Hil, Some(1), 64, &q, &cfg);
        assert_eq!(a, a2);
    }

    #[test]
    fn baseline_plan_keys_fold_the_time_window_in() {
        // Baselines route on `date`: different (quantized) windows must
        // not share a routing plan. Curve methods route on the curve
        // value: the window is irrelevant and deliberately excluded.
        let mk = |t0: i64, t1: i64| StQuery {
            rect: GeoRect::new(23.0, 37.0, 24.0, 38.0),
            t0: DateTime::from_millis(t0),
            t1: DateTime::from_millis(t1),
        };
        let cfg = RouterConfig::default();
        let (a, _) = PlanKey::new(Approach::BslST, None, 64, &mk(0, 1_000), &cfg);
        let (b, _) = PlanKey::new(Approach::BslST, None, 64, &mk(7_200_000, 9_000_000), &cfg);
        assert_ne!(a, b);
        let (h1, _) = PlanKey::new(Approach::Hil, Some(9), 64, &mk(0, 1_000), &cfg);
        let (h2, _) = PlanKey::new(Approach::Hil, Some(9), 64, &mk(7_200_000, 9_000_000), &cfg);
        assert_eq!(h1, h2);
    }
}
