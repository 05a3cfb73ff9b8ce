//! Observability for the store: metrics and stage tracing.
//!
//! The paper's evaluation (§5.1/§6) is built on per-query execution
//! time broken down per node; this crate supplies the instrumentation
//! layer the rest of the workspace threads through the query path:
//!
//! * [`Counter`] / [`Gauge`] — single atomics, wait-free to record;
//! * [`Histogram`] — an HDR-style log-linear latency histogram with
//!   lock-free recording and p50/p95/p99 readout ([`histogram`]);
//! * [`Registry`] — a process-wide name → metric table. Recording is
//!   an atomic op; the registry lock is only taken to *look up* a
//!   metric (shared read lock) or create it on first use, and a
//!   [`Handle`] looks its metric up once;
//! * [`Span`] — a drop-guard timer that records its elapsed wall time
//!   into a histogram ([`span`]);
//! * [`Stage`] / [`StageBreakdown`] — the query-path stage model
//!   shared by the executor, the router and `explain()` ([`stage`]).
//!
//! # Virtual time
//!
//! Wall-clock timers and fault injection compose carefully: injected
//! latency and backoff waits are *virtual* (summed, never slept — see
//! `sts-cluster`'s fault model), so they must never be measured with a
//! wall clock. The stage model keeps the two apart: every stage a span
//! timer measures is real compute, while the `Recovery` stage is
//! *copied* from the router's virtual `ShardRecovery` accounting. A
//! per-shard breakdown therefore stays exact under chaos testing:
//! recovery-injected delay lands in its own stage instead of inflating
//! scan time.
//!
//! # Example
//!
//! ```
//! use sts_obs::{global, Histogram, Span};
//! use std::time::Duration;
//!
//! let hist = global().histogram("example.latency");
//! {
//!     let _span = Span::enter(&hist); // records on drop
//! }
//! hist.record(Duration::from_micros(250));
//! let snap = hist.snapshot();
//! assert_eq!(snap.count, 2);
//! assert!(snap.p99 >= snap.p50);
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod histogram;
pub mod registry;
pub mod span;
pub mod stage;
pub mod trace;

pub use alloc::{AllocSpan, CountingAllocator};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{global, global_handle, Counter, Gauge, Handle, Registry, RegistrySnapshot};
pub use span::Span;
pub use stage::{Stage, StageBreakdown};
pub use trace::{SpanId, SpanValue, Trace, TraceError, TraceId, TraceSpan, Track};
