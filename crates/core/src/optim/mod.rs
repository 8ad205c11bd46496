//! Query optimisation for f-plans (§5).
//!
//! * [`cost`] — the paper's cost metric: tight factorisation size bounds
//!   from fractional edge covers of root paths;
//! * [`lp`] — the small simplex solver behind the bounds;
//! * [`mod@greedy`] — the polynomial-time heuristic of §5.2, the
//!   crate's one planner, including the restructuring for group-by and
//!   order-by (steps 4–5) and the consolidation of step 7. The tests
//!   hold it against the exhaustive search of §5.1 (Dijkstra over the
//!   space of f-trees, exact but exponential), which the library does
//!   not ship;
//! * [`ordering`] — the cost-based choice among the physical `ORDER BY`
//!   strategies (restructure+stream vs collect-sort-cut vs heap top-k).

pub mod cost;
pub mod greedy;
pub mod lp;
pub mod ordering;

pub use cost::{tree_cost, Stats};
pub use greedy::{greedy, QuerySpec};
pub use ordering::{choose_order_strategy, OrderCostInputs, OrderStrategy};
