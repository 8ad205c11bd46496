//! # fdb-exec — an empty package
//!
//! This package held a scoped thread pool with deterministic data-parallel
//! maps. Query execution is serial (DESIGN.md §3.2, "One query, one
//! thread"), and no crate of the workspace calls it any more, so its code
//! is gone. The package stays a workspace member only because the
//! benchmark under `suite/` still names it as a path dependency; it goes
//! when the benchmark drops that dependency.
