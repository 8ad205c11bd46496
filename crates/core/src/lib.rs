//! # fdb-core — factorised databases with aggregation and ordering
//!
//! A from-scratch Rust implementation of the FDB query engine extended
//! with aggregates and ordering, reproducing *Aggregation and Ordering in
//! Factorised Databases* (Bakibayev, Kočiský, Olteanu, Závodný; VLDB
//! 2013).
//!
//! A **factorised database** represents a relation as a relational algebra
//! expression of unions, products and singletons whose nesting structure
//! is a **factorisation tree** ([`ftree::FTree`]); the representation
//! ([`frep::FRep`]) can be exponentially smaller than the relation it
//! denotes. This crate provides:
//!
//! * the f-plan operators of the FDB engine — product, constant
//!   selections, merge/absorb (equality selections), swap (restructuring),
//!   projection and constant-time renaming — each a rewrite of the
//!   representation in place that shares untouched fragments ([`ops`]);
//! * the paper's contribution: the **aggregation operator** `γ_F(U)` with
//!   linear-time recursive evaluators for `count`/`sum`/`min`/`max` and
//!   composite functions such as `avg` ([`agg`], [`mod@ops::aggregate`]),
//!   composing under the rules of Proposition 2;
//! * **constant-delay enumeration** of tuples, plain, grouped (Theorem 1)
//!   and in given asc/desc lexicographic orders (Theorem 2), plus the
//!   group cursor for on-the-fly aggregate combination ([`enumerate`]);
//! * the **plan executor** ([`pipeline`]): one loop over a plan's
//!   operators on one shared arena, consecutive constant selections
//!   fused into one walk, with at most one compaction pass per plan;
//! * the **optimiser** ([`optim`]): the greedy heuristic of §5.2, the
//!   one planner, which restructures for group-by/order-by clauses via
//!   swaps and consolidates the aggregate into a single attribute when
//!   needed (§5.2 step 7), driven by tight factorisation size bounds
//!   from fractional edge covers. The tests hold its plans against the
//!   exhaustive Dijkstra search over the f-plan space (§5.1);
//! * a high-level engine executing SQL-lowered
//!   [`fdb_relational::planner::JoinAggTask`]s end to end
//!   ([`engine::FdbEngine`]).
//!
//! ## Quickstart
//!
//! ```
//! use fdb_core::engine::FdbEngine;
//! use fdb_relational::planner::JoinAggTask;
//! use fdb_relational::{AggFunc, AggSpec, Catalog, Relation, Schema, Value};
//!
//! let mut catalog = Catalog::new();
//! let item = catalog.intern("item");
//! let price = catalog.intern("price");
//! let items = Relation::from_rows(
//!     Schema::new(vec![item, price]),
//!     [("base", 6), ("ham", 1)].into_iter()
//!         .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
//! );
//! let mut engine = FdbEngine::new(catalog);
//! engine.register_relation("Items", items);
//! let total = engine.catalog.intern("total");
//! let task = JoinAggTask {
//!     inputs: vec!["Items".into()],
//!     aggregates: vec![AggSpec::new(AggFunc::Sum(price), total)],
//!     ..Default::default()
//! };
//! let result = engine.run_default(&task).unwrap();
//! let rel = result.to_relation().unwrap();
//! assert_eq!(rel.row(0)[0], Value::Int(7));
//! ```

pub mod agg;
mod dense;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod frep;
pub mod ftree;
pub mod io;
pub mod ops;
pub mod optim;
pub mod pipeline;
pub mod plan;
pub mod topk;
pub mod update;

pub use engine::{FdbEngine, FdbResult, OrderRunStats, OrderStrategy, RunOptions};
pub use error::{FdbError, Result};
pub use frep::{Entry, EntryRef, FRep, FRepStats, Union, UnionId, UnionRef};
pub use ftree::{AggLabel, AggOp, FTree, NodeId, NodeLabel};
pub use optim::{QuerySpec, Stats};
pub use pipeline::ExecStats;
pub use plan::{FOp, FPlan};
