//! Slow-query profiler: a MongoDB-`system.profile`-style ring buffer
//! on the store.
//!
//! Every spatio-temporal query the store executes is offered to the
//! profiler; entries whose **total cost** — wall time plus the curve
//! decomposition plus any *virtual* recovery delay fault injection
//! charged to the critical path ([`QueryReport::total_time`]) — meets
//! the configured threshold are (subject to sampling) captured into a
//! bounded ring, newest-last. Each entry keeps the query shape, the
//! approach, the full [`QueryReport`] (exact per-shard stage
//! breakdowns, recovery counters) and can replay itself as a
//! [`Trace`].
//!
//! Because the threshold is judged against virtual time, chaos tests
//! profile deterministically: inject 2 s of virtual latency against a
//! 1 s threshold and the query *will* be captured, no matter how fast
//! the box is.

use crate::approach::Approach;
use crate::query::StQuery;
use crate::report::QueryReport;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use sts_document::{doc, Document, Value};
use sts_obs::{Trace, TraceId};

/// What kind of operation a profile entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// A plain spatio-temporal range query.
    Find,
    /// A query shaped by sort/limit options (distributed top-k).
    TopK,
    /// A polygonal spatio-temporal query.
    Polygon,
}

impl QueryKind {
    /// Stable lowercase name (used in profile documents and reports).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Find => "find",
            QueryKind::TopK => "topk",
            QueryKind::Polygon => "polygon",
        }
    }
}

/// Profiler configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerConfig {
    /// Master switch; disabled by default so the query path stays free
    /// of the ring's mutex unless observability is wanted.
    pub enabled: bool,
    /// Capture queries whose [`QueryReport::total_time`] is at least
    /// this (virtual time: injected fault delay counts).
    pub threshold: Duration,
    /// Fraction of above-threshold queries to keep, in `[0, 1]`.
    /// Sampling draws are deterministic in the operation sequence
    /// number, so a fixed workload profiles identically across runs.
    pub sample_rate: f64,
    /// Ring capacity; the oldest entry is evicted at the cap.
    pub capacity: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            enabled: false,
            threshold: Duration::from_millis(10),
            sample_rate: 1.0,
            capacity: 64,
        }
    }
}

/// One captured slow query.
#[derive(Clone, Debug)]
pub struct ProfileEntry {
    /// Operation sequence number (doubles as the trace id).
    pub op: u64,
    /// Operation kind.
    pub kind: QueryKind,
    /// The approach the store was built with.
    pub approach: Approach,
    /// The query's spatio-temporal shape (a polygon query records its
    /// bounding box).
    pub query: StQuery,
    /// The cost that was judged against the threshold:
    /// [`QueryReport::total_time`] at capture.
    pub latency: Duration,
    /// The full execution report, stage breakdowns included.
    pub report: QueryReport,
}

impl ProfileEntry {
    /// Render as a `system.profile`-style document: operation
    /// metadata, the query shape, per-shard recovery counters and the
    /// full `explain()` output.
    pub fn to_document(&self) -> Document {
        let recovery: Vec<Value> = self
            .report
            .cluster
            .per_shard
            .iter()
            .map(|s| {
                Value::Document(doc! {
                    "shard" => s.shard as i64,
                    "attempts" => i64::from(s.recovery.attempts),
                    "retries" => i64::from(s.recovery.retries),
                    "hedges" => i64::from(s.recovery.hedges),
                    "timeouts" => i64::from(s.recovery.timeouts),
                    "gaveUp" => s.recovery.gave_up,
                })
            })
            .collect();
        doc! {
            "op" => self.op as i64,
            "type" => self.kind.name(),
            "approach" => self.approach.name(),
            "micros" => i64::try_from(self.latency.as_micros()).unwrap_or(i64::MAX),
            "query" => doc! {
                "minLon" => self.query.rect.min_lon,
                "minLat" => self.query.rect.min_lat,
                "maxLon" => self.query.rect.max_lon,
                "maxLat" => self.query.rect.max_lat,
                "t0" => self.query.t0.millis(),
                "t1" => self.query.t1.millis(),
            },
            "recovery" => recovery,
            "execution" => self.report.explain(),
        }
    }

    /// Rebuild the entry's causal trace (trace id = operation number).
    pub fn trace(&self) -> Trace {
        self.report.trace(TraceId(self.op))
    }
}

struct Inner {
    config: ProfilerConfig,
    ring: VecDeque<ProfileEntry>,
}

/// The store's slow-query profiler. All methods take `&self`: the
/// query path is `&self` end to end, so capture must be too.
pub struct Profiler {
    seq: AtomicU64,
    /// `config.enabled`, readable without the ring's mutex: a disabled
    /// profiler never locks on the query path.
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(ProfilerConfig::default())
    }
}

impl Profiler {
    /// A profiler with the given configuration.
    pub fn new(config: ProfilerConfig) -> Self {
        Profiler {
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(config.enabled),
            inner: Mutex::new(Inner {
                config,
                ring: VecDeque::new(),
            }),
        }
    }

    /// Replace the configuration (existing entries are kept; the ring
    /// is trimmed if the new capacity is smaller).
    pub fn configure(&self, config: ProfilerConfig) {
        let mut inner = self.inner.lock().unwrap();
        inner.config = config;
        self.enabled.store(config.enabled, Ordering::Relaxed);
        while inner.ring.len() > inner.config.capacity {
            inner.ring.pop_front();
        }
    }

    /// The current configuration.
    pub fn config(&self) -> ProfilerConfig {
        self.inner.lock().unwrap().config
    }

    /// Offer one executed query. Always advances the operation
    /// counter; captures the entry iff the profiler is enabled, the
    /// report's total time meets the threshold and the (deterministic)
    /// sampling draw keeps it. Returns the operation number.
    pub fn observe(
        &self,
        kind: QueryKind,
        approach: Approach,
        query: StQuery,
        report: &QueryReport,
    ) -> u64 {
        let op = self.seq.fetch_add(1, Ordering::Relaxed);
        if !self.enabled.load(Ordering::Relaxed) {
            return op;
        }
        let latency = report.total_time();
        let mut inner = self.inner.lock().unwrap();
        let cfg = inner.config;
        if !cfg.enabled || cfg.capacity == 0 || latency < cfg.threshold {
            return op;
        }
        if cfg.sample_rate < 1.0 && sample_draw(op) >= cfg.sample_rate {
            return op;
        }
        if inner.ring.len() == cfg.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(ProfileEntry {
            op,
            kind,
            approach,
            query,
            latency,
            report: report.clone(),
        });
        op
    }

    /// The captured entries, oldest first.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// The slowest captured entry.
    pub fn slowest(&self) -> Option<ProfileEntry> {
        self.inner
            .lock()
            .unwrap()
            .ring
            .iter()
            .max_by_key(|e| (e.latency, e.op))
            .cloned()
    }

    /// Drop every captured entry (the operation counter keeps going).
    pub fn clear(&self) {
        self.inner.lock().unwrap().ring.clear();
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// True when nothing is captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The operation number most recently handed out (`None` before
    /// the first query).
    pub fn last_op(&self) -> Option<u64> {
        self.seq.load(Ordering::Relaxed).checked_sub(1)
    }
}

/// Deterministic uniform draw in `[0, 1)` from the operation number
/// (SplitMix64 finalizer — same mixing the fault injector uses).
fn sample_draw(op: u64) -> f64 {
    let mut z = op.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_geo::GeoRect;

    fn q() -> StQuery {
        StQuery {
            rect: GeoRect::new(23.7, 37.9, 23.8, 38.0),
            t0: sts_document::DateTime::from_millis(0),
            t1: sts_document::DateTime::from_millis(1_000),
        }
    }

    fn report_with_wall(us: u64) -> QueryReport {
        QueryReport {
            cluster: sts_cluster::ClusterQueryReport {
                wall: Duration::from_micros(us),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn disabled_profiler_captures_nothing() {
        let p = Profiler::default();
        p.observe(
            QueryKind::Find,
            Approach::Hil,
            q(),
            &report_with_wall(1_000_000),
        );
        assert!(p.is_empty());
        assert_eq!(p.last_op(), Some(0));
    }

    #[test]
    fn disabled_profiler_never_takes_the_ring_lock() {
        let p = Profiler::default();
        // Poison the ring's mutex: any later `lock().unwrap()` panics.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = p.inner.lock().unwrap();
            panic!("poison the ring");
        }));
        assert!(poisoned.is_err());
        for _ in 0..3 {
            p.observe(QueryKind::Find, Approach::Hil, q(), &report_with_wall(10));
        }
        assert_eq!(p.last_op(), Some(2), "op numbers advance while disabled");
    }

    #[test]
    fn threshold_splits_captures() {
        let p = Profiler::new(ProfilerConfig {
            enabled: true,
            threshold: Duration::from_micros(500),
            ..Default::default()
        });
        p.observe(QueryKind::Find, Approach::Hil, q(), &report_with_wall(499));
        p.observe(QueryKind::Find, Approach::Hil, q(), &report_with_wall(500));
        p.observe(
            QueryKind::Find,
            Approach::Hil,
            q(),
            &report_with_wall(9_000),
        );
        let entries = p.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].op, 1);
        assert_eq!(p.slowest().unwrap().op, 2);
    }

    #[test]
    fn virtual_delay_counts_toward_the_threshold() {
        let p = Profiler::new(ProfilerConfig {
            enabled: true,
            threshold: Duration::from_secs(1),
            ..Default::default()
        });
        let mut r = report_with_wall(10);
        let mut slow = sts_cluster::ShardExecution::clean(0, Default::default());
        slow.recovery.injected_latency = Duration::from_secs(2);
        r.cluster.per_shard.push(slow);
        p.observe(QueryKind::Find, Approach::BslST, q(), &r);
        assert_eq!(p.len(), 1);
        assert!(p.entries()[0].latency >= Duration::from_secs(2));
    }

    #[test]
    fn ring_evicts_oldest() {
        let p = Profiler::new(ProfilerConfig {
            enabled: true,
            threshold: Duration::ZERO,
            capacity: 3,
            ..Default::default()
        });
        for i in 0..5 {
            p.observe(
                QueryKind::Find,
                Approach::Hil,
                q(),
                &report_with_wall(i + 1),
            );
        }
        let ops: Vec<u64> = p.entries().iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![2, 3, 4]);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let run = |rate: f64| {
            let p = Profiler::new(ProfilerConfig {
                enabled: true,
                threshold: Duration::ZERO,
                sample_rate: rate,
                capacity: 10_000,
            });
            for _ in 0..1_000 {
                p.observe(QueryKind::Find, Approach::Hil, q(), &report_with_wall(10));
            }
            p.entries().iter().map(|e| e.op).collect::<Vec<u64>>()
        };
        let a = run(0.3);
        let b = run(0.3);
        assert_eq!(a, b, "same ops sampled across runs");
        assert!(a.len() > 200 && a.len() < 400, "got {}", a.len());
        assert_eq!(run(1.0).len(), 1_000);
        assert!(run(0.0).is_empty());
    }

    #[test]
    fn profile_document_has_shape_and_stages() {
        let p = Profiler::new(ProfilerConfig {
            enabled: true,
            threshold: Duration::ZERO,
            ..Default::default()
        });
        p.observe(
            QueryKind::TopK,
            Approach::HilStar,
            q(),
            &report_with_wall(77),
        );
        let d = p.entries()[0].to_document();
        assert_eq!(d.get("type"), Some(&Value::String("topk".into())));
        assert_eq!(d.get("approach"), Some(&Value::String("hil*".into())));
        assert_eq!(d.get("micros"), Some(&Value::Int64(77)));
        let shape = match d.get("query") {
            Some(Value::Document(d)) => d,
            other => panic!("query: {other:?}"),
        };
        assert_eq!(shape.get("minLon"), Some(&Value::Double(23.7)));
        assert!(matches!(d.get("execution"), Some(Value::Document(_))));
    }
}
