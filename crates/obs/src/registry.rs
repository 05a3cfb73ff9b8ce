//! Name → metric registry with a process-wide default instance.
//!
//! Recording through a registered metric is a plain atomic op; the
//! registry's `RwLock` is only touched to *resolve* a name (shared
//! read lock on the hot path, exclusive lock once per metric to create
//! it). Call sites that care can resolve once and cache the `Arc`.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

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

    /// Record a duration into a named histogram (resolve + record).
    pub fn record(&self, name: &str, d: Duration) {
        self.histogram(name).record(d);
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
        r.record("h", Duration::from_millis(1));
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(0));
        assert_eq!(s.histogram("h").unwrap().count, 0);
    }

    #[test]
    fn global_is_a_singleton() {
        let name = "obs.test.global_is_a_singleton";
        global().counter(name).inc();
        assert!(global().snapshot().counter(name).unwrap() >= 1);
    }
}
