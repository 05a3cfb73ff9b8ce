//! Name → metric registry with a process-wide default instance.
//!
//! Recording through a registered metric is a plain atomic op; the
//! registry's `RwLock` is only touched to *resolve* a name (a shared
//! read lock and a map walk, or an exclusive lock once per metric to
//! create it). The query path resolves each metric once per owner: a
//! shard, the router, the executor and the store facade each hold a
//! small struct of [`Handle`]s, built when the owner is and rebuilt
//! when its registry is rescoped.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, live shard counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of counters, gauges and histograms.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry (tests and scoped instrumentation; most code
    /// uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (or create) a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Resolve (or create) a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Resolve (or create) a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric, keeping registrations (benchmarks reset
    /// between phases so each approach reports its own numbers).
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().unwrap().values() {
            g.set(0);
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
    }
}

/// A metric handle: resolved by name on its first record, then held,
/// so later records touch neither the lock nor the map. Until that
/// first record the registry lists no such metric — exactly what a
/// by-name call at the same site would leave.
pub struct Handle<T> {
    obs: Arc<Registry>,
    name: &'static str,
    metric: OnceLock<Arc<T>>,
}

impl<T> Handle<T> {
    /// The metric `name` of `obs`, not yet resolved.
    pub fn new(obs: &Arc<Registry>, name: &'static str) -> Self {
        Handle {
            obs: Arc::clone(obs),
            name,
            metric: OnceLock::new(),
        }
    }
}

/// Declare a struct of metric [`Handle`]s, one `field: Kind = "name"`
/// line per metric (`Kind` is `Counter` or `Histogram`), with a private
/// `new(obs: &Arc<Registry>)` that binds every handle to `obs`.
///
/// ```
/// sts_obs::handles! {
///     /// What one owner records.
///     struct Metrics {
///         queries: Counter = "router.queries",
///         wall: Histogram = "router.wall",
///     }
/// }
/// let obs = std::sync::Arc::new(sts_obs::Registry::new());
/// Metrics::new(&obs).queries.inc();
/// assert_eq!(obs.snapshot().counter("router.queries"), Some(1));
/// assert!(obs.snapshot().histogram("router.wall").is_none());
/// ```
#[macro_export]
macro_rules! handles {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $kind:ident = $metric:literal),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($field: $crate::Handle<$crate::$kind>,)*
        }

        impl $name {
            fn new(obs: &::std::sync::Arc<$crate::Registry>) -> Self {
                $name {
                    $($field: $crate::Handle::new(obs, $metric),)*
                }
            }
        }
    };
}

impl std::ops::Deref for Handle<Counter> {
    type Target = Counter;

    fn deref(&self) -> &Counter {
        self.metric.get_or_init(|| self.obs.counter(self.name))
    }
}

impl std::ops::Deref for Handle<Histogram> {
    type Target = Histogram;

    fn deref(&self) -> &Histogram {
        self.metric.get_or_init(|| self.obs.histogram(self.name))
    }
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return m.clone();
    }
    map.write()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .clone()
}

/// Point-in-time dump of a [`Registry`].
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, crate::histogram::HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&crate::histogram::HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

fn global_cell() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// The process-wide registry the store's query path records into by
/// default (stores can be rescoped onto their own registry — see
/// `StStore::set_metrics_registry` in `sts-core`).
pub fn global() -> &'static Registry {
    global_cell().as_ref()
}

/// A shared handle to the [`global`] registry, for call sites that
/// store an `Arc<Registry>` and default it to the process-wide one.
pub fn global_handle() -> Arc<Registry> {
    global_cell().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(4);
        r.counter("b").inc();
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(5));
        assert_eq!(s.counter("b"), Some(1));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn same_name_resolves_to_same_metric() {
        let r = Registry::new();
        let h1 = r.histogram("lat");
        let h2 = r.histogram("lat");
        h1.record(Duration::from_micros(10));
        assert_eq!(h2.count(), 1);
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = Registry::new();
        r.counter("c").add(9);
        r.histogram("h").record(Duration::from_millis(1));
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(0));
        assert_eq!(s.histogram("h").unwrap().count, 0);
    }

    #[test]
    fn a_handle_registers_its_metric_on_first_record_only() {
        let r = Arc::new(Registry::new());
        let (hits, lat) = (
            Handle::<Counter>::new(&r, "hits"),
            Handle::<Histogram>::new(&r, "lat"),
        );
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.histograms.is_empty());
        hits.add(2);
        hits.inc();
        lat.record(Duration::from_micros(5));
        let s = r.snapshot();
        assert_eq!(s.counter("hits"), Some(3));
        assert_eq!(s.histogram("lat").map(|h| h.count), Some(1));
        assert!(Arc::ptr_eq(hits.metric.get().unwrap(), &r.counter("hits")));
    }

    #[test]
    fn global_is_a_singleton() {
        let name = "obs.test.global_is_a_singleton";
        global().counter(name).inc();
        assert!(global().snapshot().counter(name).unwrap() >= 1);
    }
}
