//! Sharded-cluster simulator: the distributed half of the store.
//!
//! Reproduces the MongoDB machinery §3.3 of the paper describes:
//!
//! * **shard keys** (range or hashed) extracted from documents,
//! * **chunks** — contiguous shard-key ranges with a configurable
//!   maximum size, split at their median key when they overflow (jumbo
//!   detection included),
//! * a **balancer** that keeps per-shard chunk counts even by migrating
//!   chunks (physically moving documents between shards),
//! * **zones** — operator-pinned shard-key ranges per shard, including a
//!   `$bucketAuto`-style boundary calculator (§4.2.4),
//! * the **mongos router**: inserts route by shard key; queries target
//!   only the shards whose chunks intersect the filter's shard-key
//!   constraints (else broadcast), execute in parallel, and merge
//!   results with per-shard explain statistics,
//! * **fault tolerance** — a deterministic failpoint registry
//!   ([`faults`]) injects per-shard latency, transient errors and hard
//!   failures; the router recovers via per-shard timeouts, bounded
//!   backoff retries and hedged reads to a replica ([`retry`]), and the
//!   query report records every retry, hedge and timeout,
//! * **live ingestion** — a batched write-while-read path
//!   ([`Cluster::stage`] / [`Cluster::ingest`]): staged documents are
//!   stored and indexed immediately but stamped one epoch ahead of the
//!   committed snapshot, so concurrent scans observe a batch entirely
//!   or not at all; [`Cluster::commit_batch`] publishes the epoch with
//!   one atomic store and then runs a *live balancer* that turns the
//!   health ledger's chunk-heat/Gini signals into splits and two-phase,
//!   fault-tolerant chunk migrations (copy, then commit-or-roll-back).

//! # Example
//!
//! ```
//! use sts_cluster::{Cluster, ClusterConfig, ShardKey};
//! use sts_document::{doc, DateTime};
//! use sts_query::Filter;
//!
//! let mut cluster = Cluster::new(
//!     ClusterConfig { num_shards: 3, max_chunk_bytes: 8 * 1024, ..Default::default() },
//!     ShardKey::range(&["hilbertIndex", "date"]),
//!     vec![], // shard-key index auto-created, like MongoDB
//! );
//! for i in 0..500i64 {
//!     let mut d = doc! {"hilbertIndex" => i % 50, "date" => DateTime::from_millis(i * 1_000)};
//!     d.ensure_id(i as u32);
//!     cluster.insert(&d).unwrap();
//! }
//! // A shard-key constraint routes to a subset of shards.
//! let f = Filter::And(vec![
//!     Filter::gte("hilbertIndex", 10i64),
//!     Filter::lte("hilbertIndex", 12i64),
//! ]);
//! let (docs, report) = cluster.query(&f);
//! assert_eq!(docs.len(), 30);
//! assert!(!report.broadcast);
//! ```

mod chunk;
mod cluster;
pub mod executor;
pub mod faults;
pub mod health;
mod report;
pub mod retry;
mod shard;
mod shardkey;
mod zones;

pub use chunk::{Chunk, ChunkMap, SplitError};
pub use cluster::{
    Cluster, ClusterConfig, LiveBalancerConfig, MigrationStats, QueryExecOptions, RoutePlan,
};
pub use executor::{ExecutorConfig, ExecutorStats, ShardExecutor};
pub use faults::{AttemptCtx, FailPoint, FailPointMode, FaultInjector, FaultKind};
pub use health::{
    skew, BalancerEvent, BalancerEventKind, ChunkHeatSnapshot, HealthSnapshot, ShardLoadSnapshot,
    Skew,
};
pub use report::{ClusterQueryReport, Dispatch, ShardExecution};
pub use retry::{run_with_recovery, RecoveryPolicy, ShardRecovery};
pub use shard::Shard;
pub use shardkey::{ShardKey, ShardStrategy};
pub use zones::{bucket_boundaries, weighted_bucket_boundaries, Zone};
