//! Execution statistics — the simulator's `explain("executionStats")`.

use std::time::Duration;

/// What one shard-local execution cost. Field names follow MongoDB's
/// explain output, which is where the paper's metrics (§5.1) come from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionStats {
    /// Which index served the query (Table 7); the plan's own name.
    pub index_used: std::sync::Arc<str>,
    /// The plan's residual: what was checked on each fetched document.
    /// `None` when the whole filter was (fallback scans, hand-built
    /// plans, abandoned shards). An `Arc` because reports are cloned
    /// whole on the result-cache hit path.
    pub residual: Option<std::sync::Arc<crate::Filter>>,
    /// Index entries touched (`totalKeysExamined`).
    pub keys_examined: u64,
    /// Documents fetched from the record store (`totalDocsExamined`).
    pub docs_examined: u64,
    /// Documents matching the full filter (`nReturned`).
    pub n_returned: u64,
    /// B+tree descents performed.
    pub seeks: u64,
    /// Wall-clock execution time on this shard (index scan + fetch +
    /// residual filtering; excludes planning).
    pub duration: Duration,
    /// Wall-clock time spent choosing the plan, trial executions
    /// included (the `Planning` stage).
    pub planning: Duration,
    /// The slice of `duration` spent fetching documents and running the
    /// residual filter (the `FetchFilter` stage); the remainder is pure
    /// index scanning.
    pub fetch_time: Duration,
    /// Heap allocations performed inside the execution hot section
    /// (scan + fetch + residual filter + result staging). Always 0
    /// unless the process installs `sts_obs::CountingAllocator`; the
    /// warmed-up hot path keeps it 0 even then.
    pub allocations: u64,
    /// False when a trial budget aborted the scan early.
    pub completed: bool,
}

impl ExecutionStats {
    /// The `IndexScan` stage: execution time not spent on fetch +
    /// residual filtering. The fetch phase is the tail of the execution
    /// window, read off the same monotonic clock, so this never
    /// underflows in practice; saturate anyway.
    pub fn scan_time(&self) -> Duration {
        self.duration.saturating_sub(self.fetch_time)
    }

    /// Total shard-local wall time: planning plus execution.
    pub fn total_time(&self) -> Duration {
        self.planning + self.duration
    }
    /// Work units in the MongoDB multi-planner sense: one per key
    /// examined plus one per fetch.
    pub fn works(&self) -> u64 {
        self.keys_examined + self.docs_examined + self.seeks
    }

    /// Productivity score for plan ranking: results per unit of work,
    /// with a completion bonus (MongoDB's ranker similarly rewards EOF).
    pub fn productivity(&self) -> f64 {
        let base = self.n_returned as f64 / (self.works() + 1) as f64;
        if self.completed {
            base + 1.0
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_plans_outrank_aborted_ones() {
        let done = ExecutionStats {
            n_returned: 1,
            keys_examined: 100,
            completed: true,
            ..Default::default()
        };
        let partial = ExecutionStats {
            n_returned: 50,
            keys_examined: 100,
            completed: false,
            ..Default::default()
        };
        assert!(done.productivity() > partial.productivity());
    }

    #[test]
    fn more_selective_completed_plan_wins() {
        let tight = ExecutionStats {
            n_returned: 10,
            keys_examined: 20,
            completed: true,
            ..Default::default()
        };
        let loose = ExecutionStats {
            n_returned: 10,
            keys_examined: 2_000,
            completed: true,
            ..Default::default()
        };
        assert!(tight.productivity() > loose.productivity());
    }

    #[test]
    fn stage_split_partitions_the_execution_window() {
        let s = ExecutionStats {
            duration: Duration::from_micros(100),
            planning: Duration::from_micros(7),
            fetch_time: Duration::from_micros(40),
            ..Default::default()
        };
        assert_eq!(s.scan_time(), Duration::from_micros(60));
        assert_eq!(s.scan_time() + s.fetch_time, s.duration);
        assert_eq!(s.total_time(), Duration::from_micros(107));
        // A transiently inconsistent pair must not panic.
        let odd = ExecutionStats {
            duration: Duration::from_micros(1),
            fetch_time: Duration::from_micros(5),
            ..Default::default()
        };
        assert_eq!(odd.scan_time(), Duration::ZERO);
    }
}
