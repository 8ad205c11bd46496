//! Query optimisation for f-plans (§5).
//!
//! * [`cost`] — the paper's cost metric: tight factorisation size bounds
//!   from fractional edge covers of root paths;
//! * [`lp`] — the small simplex solver behind the bounds;
//! * [`mod@greedy`] — the polynomial-time heuristic of §5.2, the
//!   engine's one planner, including the restructuring for group-by and
//!   order-by (steps 4–5) and the consolidation of step 7;
//! * [`mod@exhaustive`] — Dijkstra over the space of f-trees with permissible
//!   operators as edges (Prop. 3), exact but exponential; a library
//!   search (§5.1) that the engine does not call;
//! * [`ordering`] — the cost-based choice among the physical `ORDER BY`
//!   strategies (restructure+stream vs collect-sort-cut vs heap top-k).

pub mod cost;
pub mod exhaustive;
pub mod greedy;
pub mod lp;
pub mod ordering;

pub use cost::{tree_cost, Stats};
pub use exhaustive::{exhaustive, ExhaustiveConfig};
pub use greedy::{greedy, QuerySpec};
pub use ordering::{choose_order_strategy, OrderCostInputs, OrderStrategy};
