//! Cluster-health telemetry: per-shard load counters, skew metrics and
//! balancer event history.
//!
//! The paper's Hilbert-sharding claim is a *locality* claim: a
//! spatio-temporal workload should spread across shards instead of
//! hammering whichever shard owns the hot time window (§4.2, and the
//! load-balance concern the related GeoHash/HOC-Tree systems
//! optimize). This module gives that claim numbers: every routed
//! query bumps its target shards' access counters, the balancer logs
//! every split/migration/jumbo event, and a [`HealthSnapshot`]
//! aggregates the counters into max/mean shard load and a Gini-style
//! imbalance coefficient.
//!
//! A query records with relaxed atomic adds on `&self`: no lock, and
//! no exclusive access to the cluster.

use crate::report::ClusterQueryReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Live per-shard load counters (wait-free to bump).
#[derive(Default)]
struct ShardLoad {
    queries: AtomicU64,
    keys: AtomicU64,
    docs: AtomicU64,
    returned: AtomicU64,
}

/// One balancer action, in the order it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalancerEvent {
    /// Position in the event history (0-based).
    pub seq: u64,
    /// Lower bound (shard-key bytes) of the chunk acted on.
    pub chunk_min: Vec<u8>,
    /// What happened.
    pub kind: BalancerEventKind,
}

/// The kinds of balancer action the cluster records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalancerEventKind {
    /// An oversized chunk was split at its median shard key.
    Split,
    /// A chunk's documents physically moved between shards.
    Migrate {
        /// Donor shard.
        from: usize,
        /// Recipient shard.
        to: usize,
        /// Documents moved.
        docs: u64,
    },
    /// A migration rolled back after exhausting its fault-retry budget
    /// (the chunk stayed on its donor; no documents moved).
    MigrateAborted {
        /// Donor shard the chunk stayed on.
        from: usize,
        /// Intended recipient.
        to: usize,
    },
    /// A chunk was marked jumbo (unsplittable at one shard key).
    Jumbo,
}

impl BalancerEventKind {
    /// Dotted event name, as the observability report prints it.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerEventKind::Split => "balancer.split",
            BalancerEventKind::Migrate { .. } => "balancer.migrate",
            BalancerEventKind::MigrateAborted { .. } => "balancer.migrate-aborted",
            BalancerEventKind::Jumbo => "balancer.jumbo",
        }
    }
}

/// Interior-mutable health ledger owned by the cluster.
pub(crate) struct ClusterHealth {
    shards: Vec<ShardLoad>,
    events: Mutex<Vec<BalancerEvent>>,
}

impl ClusterHealth {
    pub(crate) fn new(num_shards: usize) -> Self {
        ClusterHealth {
            shards: (0..num_shards).map(|_| ShardLoad::default()).collect(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Fold one gathered query into the per-shard counters.
    pub(crate) fn record_query(&self, report: &ClusterQueryReport) {
        for s in &report.per_shard {
            let Some(load) = self.shards.get(s.shard) else {
                continue;
            };
            load.queries.fetch_add(1, Ordering::Relaxed);
            load.keys
                .fetch_add(s.stats.keys_examined, Ordering::Relaxed);
            load.docs
                .fetch_add(s.stats.docs_examined, Ordering::Relaxed);
            load.returned
                .fetch_add(s.stats.n_returned, Ordering::Relaxed);
        }
    }

    /// Append a balancer event.
    pub(crate) fn record_event(&self, chunk_min: Vec<u8>, kind: BalancerEventKind) {
        let mut events = self.events.lock().unwrap();
        let seq = events.len() as u64;
        events.push(BalancerEvent {
            seq,
            chunk_min,
            kind,
        });
    }

    /// Total balancer events recorded so far (== the next `seq`).
    pub(crate) fn event_count(&self) -> u64 {
        self.events.lock().unwrap().len() as u64
    }

    /// Events with `seq >= from`, in order, without cloning the whole
    /// history.
    pub(crate) fn events_since(&self, from: u64) -> Vec<BalancerEvent> {
        let events = self.events.lock().unwrap();
        let start = (from as usize).min(events.len());
        events[start..].to_vec()
    }

    /// Point-in-time aggregation, beside each shard's stored documents.
    pub(crate) fn snapshot(&self, docs_per_shard: &[usize]) -> HealthSnapshot {
        HealthSnapshot {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardLoadSnapshot {
                    shard: i,
                    queries_routed: s.queries.load(Ordering::Relaxed),
                    keys_examined: s.keys.load(Ordering::Relaxed),
                    docs_examined: s.docs.load(Ordering::Relaxed),
                    docs_returned: s.returned.load(Ordering::Relaxed),
                    docs_stored: docs_per_shard.get(i).copied().unwrap_or(0) as u64,
                })
                .collect(),
            events: self.events.lock().unwrap().clone(),
        }
    }
}

/// One shard's accumulated load.
#[derive(Clone, Debug)]
pub struct ShardLoadSnapshot {
    /// Shard id.
    pub shard: usize,
    /// Queries the router sent this shard.
    pub queries_routed: u64,
    /// Index keys this shard examined.
    pub keys_examined: u64,
    /// Documents this shard fetched and filtered.
    pub docs_examined: u64,
    /// Documents this shard returned.
    pub docs_returned: u64,
    /// Documents currently stored on this shard.
    pub docs_stored: u64,
}

/// Point-in-time cluster-health dump.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Per-shard load, indexed by shard id.
    pub shards: Vec<ShardLoadSnapshot>,
    /// Balancer history, in the order it happened.
    pub events: Vec<BalancerEvent>,
}

impl HealthSnapshot {
    /// Skew of queries routed per shard.
    pub fn queries_skew(&self) -> Skew {
        skew(&self.loads(|s| s.queries_routed))
    }

    /// Skew of index keys examined per shard.
    pub fn keys_skew(&self) -> Skew {
        skew(&self.loads(|s| s.keys_examined))
    }

    /// Skew of documents examined per shard.
    pub fn docs_skew(&self) -> Skew {
        skew(&self.loads(|s| s.docs_examined))
    }

    /// Total queries routed (shard executions, summed over shards).
    pub fn total_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.queries_routed).sum()
    }

    fn loads(&self, f: impl Fn(&ShardLoadSnapshot) -> u64) -> Vec<u64> {
        self.shards.iter().map(f).collect()
    }
}

/// Imbalance summary of a load vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Skew {
    /// Largest per-shard load.
    pub max: f64,
    /// Mean per-shard load.
    pub mean: f64,
    /// `max / mean` — 1.0 is perfectly even; `num_shards` is
    /// everything-on-one-shard.
    pub imbalance: f64,
    /// Gini coefficient in `[0, 1)`: 0 is perfectly even,
    /// `(n-1)/n` is everything on one shard.
    pub gini: f64,
}

/// Compute the [`Skew`] of a load vector. A zero-total vector (no
/// load yet) reports all zeros.
pub fn skew(loads: &[u64]) -> Skew {
    let n = loads.len();
    let total: u64 = loads.iter().sum();
    if n == 0 || total == 0 {
        return Skew::default();
    }
    let max = *loads.iter().max().unwrap() as f64;
    let mean = total as f64 / n as f64;
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable();
    // Gini over the sorted vector (1-indexed ranks):
    //   G = 2·Σᵢ i·xᵢ / (n·Σ x) − (n+1)/n
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    let gini = 2.0 * weighted / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64;
    Skew {
        max,
        mean,
        imbalance: max / mean,
        gini: gini.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_of_even_load_is_zero() {
        let s = skew(&[10, 10, 10, 10]);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean, 10.0);
        assert_eq!(s.imbalance, 1.0);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn skew_of_concentrated_load_approaches_the_bound() {
        // Everything on one of four shards: imbalance = n, gini = (n-1)/n.
        let s = skew(&[0, 0, 40, 0]);
        assert_eq!(s.imbalance, 4.0);
        assert!((s.gini - 0.75).abs() < 1e-12);
    }

    #[test]
    fn skew_is_monotone_in_concentration() {
        let even = skew(&[25, 25, 25, 25]).gini;
        let mild = skew(&[40, 30, 20, 10]).gini;
        let harsh = skew(&[70, 20, 5, 5]).gini;
        assert!(even < mild && mild < harsh);
    }

    #[test]
    fn empty_or_idle_loads_report_zeros() {
        assert_eq!(skew(&[]), Skew::default());
        assert_eq!(skew(&[0, 0, 0]), Skew::default());
    }
}
