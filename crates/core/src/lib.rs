//! The paper's contribution: spatio-temporal indexing and partitioning
//! approaches over a document-oriented NoSQL store.
//!
//! Four methods from §4/§5.1 of Koutroumanis & Doulkeridis (EDBT 2021):
//!
//! | approach | shard key              | local index                      |
//! |----------|------------------------|----------------------------------|
//! | `bslST`  | `{date}`               | `(location 2dsphere, date)` + auto `date` |
//! | `bslTS`  | `{date}`               | `(date, location 2dsphere)` + auto `date` |
//! | `hil`    | `{hilbertIndex, date}` | auto `(hilbertIndex, date)` — world-extent Hilbert curve |
//! | `hil*`   | `{hilbertIndex, date}` | auto `(hilbertIndex, date)` — data-MBR-extent curve |
//!
//! [`StStore`] is the public facade a downstream application uses:
//! configure an approach, bulk-load GeoJSON-point documents (the Hilbert
//! methods augment each with its `hilbertIndex` value at load time,
//! §4.2.1), optionally pin zones (§4.2.4), and issue spatio-temporal
//! range queries that return both the matching documents and the
//! cluster-level metrics the paper plots (keys/docs examined, nodes,
//! time).
//!
//! # Quickstart
//!
//! ```
//! use sts_core::{Approach, StQuery, StStore, StoreConfig};
//! use sts_document::{doc, DateTime, Document, Value};
//! use sts_geo::GeoRect;
//!
//! let mut store = StStore::new(StoreConfig {
//!     approach: Approach::Hil,
//!     num_shards: 4,
//!     ..Default::default()
//! });
//! let mut d = doc! {
//!     "location" => doc! {
//!         "type" => "Point",
//!         "coordinates" => vec![Value::from(23.72), Value::from(37.98)],
//!     },
//!     "date" => DateTime::parse_iso("2018-10-01T08:34:40Z").unwrap(),
//! };
//! d.ensure_id(0);
//! store.insert(d).unwrap();
//!
//! let (docs, report) = store.st_query(&StQuery {
//!     rect: GeoRect::new(23.0, 37.0, 24.0, 38.5),
//!     t0: DateTime::parse_iso("2018-10-01T00:00:00Z").unwrap(),
//!     t1: DateTime::parse_iso("2018-10-02T00:00:00Z").unwrap(),
//! });
//! assert_eq!(docs.len(), 1);
//! assert_eq!(report.cluster.n_returned(), 1);
//! ```

mod adaptive;
mod api;
mod approach;
mod config;
pub mod profiler;
mod query;
mod report;
pub mod router;
pub mod sthash;

pub use adaptive::access_weight;
pub use api::StStore;
pub use approach::Approach;
pub use config::StoreConfig;
pub use profiler::{ProfileEntry, Profiler, ProfilerConfig, QueryKind};
pub use query::{
    assemble_filter, build_filter, build_filter_with, build_polygon_filter,
    build_polygon_filter_with, compute_covering, CoverBuffers, StQuery,
};
pub use report::QueryReport;
pub use router::{CacheCounters, CacheOutcome, RouterConfig, RouterReport};
pub use sts_cluster::{
    ExecutorConfig, ExecutorStats, FailPoint, FailPointMode, FaultKind, HealthSnapshot,
    RecoveryPolicy, ShardRecovery, Skew,
};
pub use sts_obs::{Trace, TraceError, TraceId};
pub use sts_query::QueryError;

/// Document field holding the GeoJSON point.
pub const LOCATION_FIELD: &str = "location";
/// Document field holding the timestamp.
pub const DATE_FIELD: &str = "date";
/// Document field holding the 1D curve value (Hilbert methods).
pub const HILBERT_FIELD: &str = "hilbertIndex";
