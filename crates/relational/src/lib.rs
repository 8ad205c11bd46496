//! # fdb-relational — the relational substrate
//!
//! Flat-relation types and baseline main-memory engines used by the FDB
//! reproduction:
//!
//! * [`Value`], [`Catalog`]/[`AttrId`], [`Schema`], [`Relation`] — the data
//!   model shared with the factorised engine (`fdb-core`);
//! * [`ops`] — physical operators (selection, projection, hash / sort-merge
//!   joins, grouped aggregation with sort- and hash-based strategies,
//!   ordering, limit);
//! * [`planner`] — lazy ("naive") and eager (Yan–Larson) aggregation
//!   planners over [`planner::JoinAggTask`]s;
//! * [`engine::RdbEngine`] — the RDB baseline of the paper's Experiment 5,
//!   configurable to model SQLite (sort-based grouping) or PostgreSQL
//!   (hash-based grouping).
//!
//! The factorised query engine lives in `fdb-core`; this crate is the
//! comparison substrate and the source of ground-truth results in tests.

pub mod agg;
pub mod attr;
pub mod csv;
pub mod engine;
pub mod error;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod planner;
pub mod relation;
pub mod schema;
pub mod value;

pub use agg::{AggFunc, AggSpec};
pub use attr::{AttrId, Catalog, CatalogMark};
pub use error::RelError;
pub use expr::{CmpOp, Predicate};
pub use ops::GroupStrategy;
pub use relation::{dedup_sort_keys, Relation, SortDir, SortKey};
pub use schema::Schema;
pub use value::{Number, Value};
