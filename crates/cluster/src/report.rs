//! Cluster-level query reports: the paper's four metrics in one place,
//! plus the fault-tolerance observables (retries, hedges, timeouts).

use crate::retry::ShardRecovery;
use std::time::Duration;
use sts_obs::StageBreakdown;
use sts_query::ExecutionStats;

/// One shard's contribution to a scatter/gather query.
#[derive(Debug, Clone)]
pub struct ShardExecution {
    /// Shard id.
    pub shard: usize,
    /// That shard's explain statistics. Defaulted (with
    /// `completed: false`) when the shard was abandoned.
    pub stats: ExecutionStats,
    /// What it took to get (or fail to get) this shard's answer.
    pub recovery: ShardRecovery,
}

impl ShardExecution {
    /// A fault-free execution record.
    pub fn clean(shard: usize, stats: ExecutionStats) -> Self {
        ShardExecution {
            shard,
            stats,
            recovery: ShardRecovery {
                attempts: 1,
                ..ShardRecovery::default()
            },
        }
    }

    /// Per-stage timing breakdown for this shard. The wall-clock
    /// stages (planning, index scan, fetch + residual filter)
    /// partition the shard's measured time exactly; the recovery stage
    /// carries the *virtual* delay fault injection added (injected
    /// latency + backoff waits), attributed here and never conflated
    /// with scan time.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            planning: self.stats.planning,
            index_scan: self.stats.scan_time(),
            fetch_filter: self.stats.fetch_time,
            recovery: self.recovery.virtual_delay(),
        }
    }

    /// The shard's total cost: measured wall time plus virtual
    /// recovery delay. Equals `stage_breakdown().total()` exactly.
    pub fn total_time(&self) -> Duration {
        self.stats.total_time() + self.recovery.virtual_delay()
    }
}

/// How the shard executor dispatched one fan-out (`Copy`: cache hits clone reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dispatch {
    /// Helpers handed the job; `0` = the caller ran every task itself.
    pub helpers_woken: u8,
    /// Tasks that ran on a helper instead of the caller's thread.
    pub helper_tasks: u16,
}

/// The merged result of routing one query through `mongos`.
#[derive(Debug, Clone, Default)]
pub struct ClusterQueryReport {
    /// Per-shard executions, one entry per *targeted* shard — including
    /// shards that were abandoned after recovery ran out.
    pub per_shard: Vec<ShardExecution>,
    /// Whether the router had to broadcast (no shard-key constraint).
    pub broadcast: bool,
    /// True when at least one targeted shard never answered, so the
    /// gathered result set may be incomplete.
    pub partial: bool,
    /// End-to-end wall time of the scatter/gather, including the merge.
    pub wall: Duration,
    /// Router-side routing stage: chunk-map targeting time.
    pub routing: Duration,
    /// Router-side planning stage: building the candidate plans once
    /// for every target shard. Each shard's own `stats.planning` is
    /// only its trial ranking of them.
    pub planning: Duration,
    /// Router-side merge stage: gathering, flattening, shaping and/or
    /// partial-aggregation merging after the shards answered.
    pub merge: Duration,
    /// How the shard executor dispatched the fan-out.
    pub dispatch: Dispatch,
}

impl ClusterQueryReport {
    /// Number of nodes accessed (§5.1 "Nodes" metric).
    pub fn nodes(&self) -> usize {
        self.per_shard.len()
    }

    /// Maximum keys examined on any node (§5.1 "Keys examined").
    pub fn max_keys_examined(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.stats.keys_examined)
            .max()
            .unwrap_or(0)
    }

    /// Maximum documents examined on any node (§5.1 "Documents examined").
    pub fn max_docs_examined(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.stats.docs_examined)
            .max()
            .unwrap_or(0)
    }

    /// Total matching documents across shards.
    pub fn n_returned(&self) -> u64 {
        self.per_shard.iter().map(|s| s.stats.n_returned).sum()
    }

    /// Sum of keys examined across shards (not a paper metric, but
    /// useful for total-work comparisons in the ablations).
    pub fn total_keys_examined(&self) -> u64 {
        self.per_shard.iter().map(|s| s.stats.keys_examined).sum()
    }

    /// Names of indexes used per shard (Table 7's observable).
    pub fn indexes_used(&self) -> Vec<(usize, String)> {
        self.per_shard
            .iter()
            .map(|s| (s.shard, s.stats.index_used.to_string()))
            .collect()
    }

    /// The slowest shard's execution time (what bounds latency).
    pub fn max_shard_time(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.stats.duration)
            .max()
            .unwrap_or_default()
    }

    /// Backoff retries issued across all shards.
    pub fn total_retries(&self) -> u32 {
        self.per_shard.iter().map(|s| s.recovery.retries).sum()
    }

    /// Hedged reads issued across all shards.
    pub fn total_hedges(&self) -> u32 {
        self.per_shard.iter().map(|s| s.recovery.hedges).sum()
    }

    /// Attempts that hit the per-shard timeout, across all shards.
    pub fn total_timeouts(&self) -> u32 {
        self.per_shard.iter().map(|s| s.recovery.timeouts).sum()
    }

    /// Shards that timed out at least once (they may still have
    /// answered after a hedge or retry).
    pub fn timed_out_shards(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .filter(|s| s.recovery.timeouts > 0)
            .map(|s| s.shard)
            .collect()
    }

    /// Shards whose answers came from the replica.
    pub fn hedge_served_shards(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .filter(|s| s.recovery.served_by_replica)
            .map(|s| s.shard)
            .collect()
    }

    /// Shards the router abandoned (empty unless `partial`).
    pub fn failed_shards(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .filter(|s| s.recovery.gave_up)
            .map(|s| s.shard)
            .collect()
    }

    /// True when no recovery machinery engaged anywhere: every shard
    /// answered on its first attempt with no faults.
    pub fn fault_free(&self) -> bool {
        !self.partial && self.per_shard.iter().all(|s| s.recovery.clean())
    }

    /// The slowest shard's *virtual* delay (injected latency plus
    /// backoff) — what fault injection added to the critical path.
    pub fn max_virtual_delay(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.recovery.virtual_delay())
            .max()
            .unwrap_or_default()
    }

    /// The slowest shard's total cost including virtual recovery delay
    /// (what bounds latency once injected faults are charged).
    pub fn max_shard_total_time(&self) -> Duration {
        self.per_shard
            .iter()
            .map(ShardExecution::total_time)
            .max()
            .unwrap_or_default()
    }

    /// Element-wise sum of every shard's stage breakdown — the
    /// cluster's total work per stage (not a latency: shards run
    /// concurrently).
    pub fn stage_totals(&self) -> StageBreakdown {
        let mut acc = StageBreakdown::default();
        for s in &self.per_shard {
            let b = s.stage_breakdown();
            acc.planning += b.planning;
            acc.index_scan += b.index_scan;
            acc.fetch_filter += b.fetch_filter;
            acc.recovery += b.recovery;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(shard: usize, keys: u64, docs: u64, ret: u64) -> ShardExecution {
        ShardExecution::clean(
            shard,
            ExecutionStats {
                keys_examined: keys,
                docs_examined: docs,
                n_returned: ret,
                completed: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn aggregates() {
        let r = ClusterQueryReport {
            per_shard: vec![exec(0, 100, 50, 10), exec(3, 500, 20, 5)],
            broadcast: false,
            partial: false,
            wall: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(r.nodes(), 2);
        assert_eq!(r.max_keys_examined(), 500);
        assert_eq!(r.max_docs_examined(), 50);
        assert_eq!(r.n_returned(), 15);
        assert_eq!(r.total_keys_examined(), 600);
        assert_eq!(r.indexes_used().len(), 2);
        assert!(r.fault_free());
        assert_eq!(r.total_retries(), 0);
        assert_eq!(r.total_hedges(), 0);
        assert_eq!(r.total_timeouts(), 0);
        assert!(r.failed_shards().is_empty());
        assert_eq!(r.max_virtual_delay(), Duration::ZERO);
    }

    #[test]
    fn empty_report() {
        let r = ClusterQueryReport::default();
        assert_eq!(r.nodes(), 0);
        assert_eq!(r.max_keys_examined(), 0);
        assert_eq!(r.n_returned(), 0);
        assert!(r.fault_free());
    }

    #[test]
    fn recovery_rollups() {
        let mut slow = exec(1, 10, 10, 2);
        slow.recovery = ShardRecovery {
            attempts: 3,
            retries: 1,
            hedges: 1,
            timeouts: 1,
            injected_latency: Duration::from_millis(250),
            backoff_wait: Duration::from_millis(10),
            served_by_replica: true,
            ..ShardRecovery::default()
        };
        let mut dead = ShardExecution::clean(2, ExecutionStats::default());
        dead.stats.completed = false;
        dead.recovery.attempts = 2;
        dead.recovery.hedges = 1;
        dead.recovery.gave_up = true;
        let r = ClusterQueryReport {
            per_shard: vec![exec(0, 5, 5, 5), slow, dead],
            broadcast: true,
            partial: true,
            wall: Duration::from_millis(1),
            ..Default::default()
        };
        assert!(!r.fault_free());
        assert_eq!(r.total_retries(), 1);
        assert_eq!(r.total_hedges(), 2);
        assert_eq!(r.total_timeouts(), 1);
        assert_eq!(r.timed_out_shards(), vec![1]);
        assert_eq!(r.hedge_served_shards(), vec![1]);
        assert_eq!(r.failed_shards(), vec![2]);
        assert_eq!(r.max_virtual_delay(), Duration::from_millis(260));
    }

    #[test]
    fn stage_breakdown_attributes_recovery_separately() {
        let mut s = ShardExecution::clean(
            0,
            ExecutionStats {
                duration: Duration::from_micros(100),
                planning: Duration::from_micros(10),
                fetch_time: Duration::from_micros(30),
                completed: true,
                ..Default::default()
            },
        );
        s.recovery.injected_latency = Duration::from_millis(250);
        s.recovery.backoff_wait = Duration::from_millis(10);
        let b = s.stage_breakdown();
        assert_eq!(b.planning, Duration::from_micros(10));
        assert_eq!(b.index_scan, Duration::from_micros(70));
        assert_eq!(b.fetch_filter, Duration::from_micros(30));
        assert_eq!(b.recovery, Duration::from_millis(260));
        // Injected delay never inflates the wall-clock scan stages.
        assert_eq!(b.wall(), Duration::from_micros(110));
        assert_eq!(b.total(), s.total_time());
    }

    #[test]
    fn stage_totals_sum_across_shards() {
        let mk = |p: u64, d: u64, f: u64| {
            ShardExecution::clean(
                0,
                ExecutionStats {
                    planning: Duration::from_micros(p),
                    duration: Duration::from_micros(d),
                    fetch_time: Duration::from_micros(f),
                    ..Default::default()
                },
            )
        };
        let r = ClusterQueryReport {
            per_shard: vec![mk(1, 10, 4), mk(2, 20, 6)],
            ..Default::default()
        };
        let t = r.stage_totals();
        assert_eq!(t.planning, Duration::from_micros(3));
        assert_eq!(t.index_scan, Duration::from_micros(20));
        assert_eq!(t.fetch_filter, Duration::from_micros(10));
        assert_eq!(t.recovery, Duration::ZERO);
        assert_eq!(r.max_shard_total_time(), Duration::from_micros(22));
    }
}
