//! Physical relational operators.
//!
//! These implement the baseline ("RDB") engine of Experiment 5: selection,
//! projection, joins (hash and sort-merge), cross product, grouped
//! aggregation (hash- and sort-based, standing in for PostgreSQL's and
//! SQLite's grouping strategies respectively), ordering and limit.

pub mod aggregate;
mod join;
mod project;
mod select;
mod sort;

pub use aggregate::{group_aggregate, GroupStrategy};
pub use join::{hash_join, product, sort_merge_join};
pub use project::project;
pub use select::select;
pub use sort::{limit, order_by, page, top_k};
