//! # fdb-bench — harness regenerating the paper's evaluation (§6)
//!
//! Everything the `figures` binary (Figures 4–8, one per `--fig N`) and
//! the operator micro-benches share:
//!
//! * [`queries`] — the thirteen queries of Figure 3 (AGG: Q1–Q5, AGG+ORD:
//!   Q6–Q9, ORD: Q10–Q13) and the extended aggregate surface, parsed from
//!   their SQL ([`fdb_workload::orders::QUERIES`]) into engine-neutral
//!   tasks;
//! * [`setup`] — paired engine construction over the scalable Orders/
//!   Packages/Items dataset: the factorised view `R1` for FDB, the
//!   materialised flat views `R1`/`R2`/`R3` for the relational baselines;
//! * [`harness`] — timing, flags, the row format of every figure
//!   (`figure=<n> scale=<s> query=<q> engine=<e> seconds=<t>`) and the
//!   check of a figure's claims, ratios between rows of the same run
//!   (`claim=<name> ratio=<r> bound=<b> ok|FAIL`).
//!
//! Engine naming follows the paper: `FDB` (flat output), `FDB f/o`
//! (factorised output), `RDB sort` (SQLite-like sort-based grouping),
//! `RDB hash` (PostgreSQL-like hash grouping), with `man` marking eager-
//! aggregation plans (Figure 6). Every run is serial; the engine's
//! end-to-end and multi-core numbers are the benchmark's (`suite/`).

pub mod harness;
pub mod queries;
pub mod setup;

pub use harness::{check, exit_code, median_of, median_secs, time_secs, Args, Claim, Emitter};
pub use queries::{extended_agg_queries, figure5_queries, paper_queries, PaperQuery, QueryClass};
pub use setup::{BenchEnv, BenchSetup};
