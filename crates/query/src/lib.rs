//! Query representation, planning and per-shard execution.
//!
//! This crate is the `mongod` query layer of the simulator:
//!
//! * [`Filter`] — the query AST (`$and`/`$or`/`$in`/`$gte`/`$lte`/
//!   `$geoWithin`), matching the document representations shown in
//!   §4.1–4.2 of the paper;
//! * [`QueryShape`] — normalized constraint extraction (spatial
//!   rectangle, temporal interval, explicit 1D-value intervals);
//! * [`Planner`] — candidate index plans plus MongoDB-style **trial
//!   execution ranking**: each candidate runs with a small work budget
//!   and the most productive plan wins. This is what organically
//!   reproduces Table 7, where bslST's optimizer sometimes prefers the
//!   plain `date` index over the spatio-temporal compound;
//! * [`execute_plan`] — index scan (sequential, skip-scan, or
//!   key-filtered), document fetch, residual filtering, with MongoDB
//!   `explain()`-equivalent [`ExecutionStats`];
//! * [`LocalCollection`] — one shard's collection slice: record store +
//!   indexes + find/explain entry points.
//!
//! # Example
//!
//! ```
//! use sts_document::{doc, DateTime};
//! use sts_index::{IndexField, IndexSpec};
//! use sts_query::{Filter, LocalCollection};
//!
//! let mut coll = LocalCollection::new();
//! coll.create_index(IndexSpec::new(
//!     "hilbertIndex_1_date_1",
//!     vec![IndexField::asc("hilbertIndex"), IndexField::asc("date")],
//! ));
//! for i in 0..100i64 {
//!     let mut d = doc! {"hilbertIndex" => i % 10, "date" => DateTime::from_millis(i * 1_000)};
//!     d.ensure_id(i as u32);
//!     coll.insert(&d).unwrap();
//! }
//! let filter = Filter::And(vec![
//!     Filter::gte("hilbertIndex", 3i64),
//!     Filter::lte("hilbertIndex", 4i64),
//!     Filter::gte("date", DateTime::from_millis(0)),
//!     Filter::lte("date", DateTime::from_millis(50_000)),
//! ]);
//! let (docs, stats) = coll.find(&filter);
//! assert_eq!(docs.len() as u64, stats.n_returned);
//! assert!(stats.keys_examined < 100, "index scan, not a full scan");
//! ```

mod collection;
mod error;
mod executor;
mod explain;
mod filter;
mod options;
mod plan;
mod planner;
mod shape;

pub use collection::LocalCollection;
pub use error::QueryError;
pub use executor::{
    execute_plan, execute_plan_into, execute_plan_with_rids, ExecBudget, QueryScratch,
};
pub use explain::ExecutionStats;
pub use filter::{CmpOp, Filter};
pub use options::{FindOptions, SortOrder};
pub use plan::{IndexAccess, InteriorCells, KeyFilter, QueryPlan};
pub use planner::Planner;
pub use shape::QueryShape;
