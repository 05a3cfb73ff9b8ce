//! The query-path stage model shared by the executor, the router and
//! `explain()`.
//!
//! One spatio-temporal query decomposes into these stages:
//!
//! | stage         | where it runs | clock |
//! |---------------|---------------|-------|
//! | `Covering`    | mongos (curve range generation) | wall |
//! | `Routing`     | mongos (chunk-map targeting)    | wall |
//! | `Planning`    | mongos (candidate plans, built once per query), then each shard (trial ranking of those plans) | wall |
//! | `IndexScan`   | each shard (B+tree range/skip scan)   | wall |
//! | `FetchFilter` | each shard (doc fetch + residual filter) | wall |
//! | `Recovery`    | router, per shard (injected latency + backoff) | **virtual** |
//! | `Merge`       | mongos (gather/flatten/shape/merge)  | wall |
//!
//! Every shard of a collection has the same index specs, so the router
//! builds one candidate list per query and hands it to every target;
//! a shard's own `Planning` time is only its trial ranking of that
//! list, zero trials when there is one candidate. `explain()` reports
//! the router's part as a top-level `planningMicros`.
//!
//! The `Recovery` stage is the virtual-time bridge: under fault
//! injection the router *sums* injected latency and backoff instead of
//! sleeping, and that sum is attributed here — never to the wall-clock
//! scan stages — so breakdowns stay exact during chaos testing.

use std::time::Duration;

/// One stage of the distributed query path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Curve covering-range generation (Hilbert methods only).
    Covering,
    /// Router chunk-map targeting.
    Routing,
    /// Plan selection: the router builds the candidate plans once,
    /// then each shard ranks them by trial execution.
    Planning,
    /// B+tree index scanning (keys examined, seeks).
    IndexScan,
    /// Document fetch plus residual-filter evaluation.
    FetchFilter,
    /// Fault recovery: virtual injected latency and backoff waits.
    Recovery,
    /// Router-side gather and merge.
    Merge,
}

impl Stage {
    /// Every stage, in query-path order.
    pub const ALL: [Stage; 7] = [
        Stage::Covering,
        Stage::Routing,
        Stage::Planning,
        Stage::IndexScan,
        Stage::FetchFilter,
        Stage::Recovery,
        Stage::Merge,
    ];

    /// The stages that run (and are reported) per shard.
    pub const PER_SHARD: [Stage; 4] = [
        Stage::Planning,
        Stage::IndexScan,
        Stage::FetchFilter,
        Stage::Recovery,
    ];

    /// Stable machine-readable name (used as explain keys and metric
    /// name segments).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Covering => "covering",
            Stage::Routing => "routing",
            Stage::Planning => "planning",
            Stage::IndexScan => "indexScan",
            Stage::FetchFilter => "fetchFilter",
            Stage::Recovery => "recovery",
            Stage::Merge => "merge",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-shard stage timing breakdown. The wall-clock stages partition
/// the shard's measured execution window exactly; `recovery` is the
/// shard's virtual delay on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// The shard's trial ranking of the router's candidate plans.
    pub planning: Duration,
    /// B+tree scanning.
    pub index_scan: Duration,
    /// Document fetch + residual filtering.
    pub fetch_filter: Duration,
    /// Virtual recovery delay (injected latency + backoff waits).
    pub recovery: Duration,
}

impl StageBreakdown {
    /// `(stage, duration)` pairs in [`Stage::PER_SHARD`] order.
    pub fn entries(&self) -> [(Stage, Duration); 4] {
        [
            (Stage::Planning, self.planning),
            (Stage::IndexScan, self.index_scan),
            (Stage::FetchFilter, self.fetch_filter),
            (Stage::Recovery, self.recovery),
        ]
    }

    /// Sum of all stages — the shard's total (wall + virtual) cost.
    pub fn total(&self) -> Duration {
        self.planning + self.index_scan + self.fetch_filter + self.recovery
    }

    /// Sum of the wall-clock stages only.
    pub fn wall(&self) -> Duration {
        self.planning + self.index_scan + self.fetch_filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_cover_all_per_shard_stages() {
        let b = StageBreakdown {
            planning: Duration::from_micros(1),
            index_scan: Duration::from_micros(2),
            fetch_filter: Duration::from_micros(3),
            recovery: Duration::from_micros(4),
        };
        let entries = b.entries();
        assert_eq!(
            entries.map(|(s, _)| s),
            Stage::PER_SHARD,
            "entries follow the canonical stage order"
        );
        let sum: Duration = entries.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, b.total());
        assert_eq!(b.wall(), Duration::from_micros(6));
        assert_eq!(b.total(), Duration::from_micros(10));
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
