//! Cost-based choice among the physical `ORDER BY` strategies.
//!
//! Four ways exist to produce ordered (and LIMIT-truncated) output from
//! a factorisation:
//!
//! 1. **restructure + stream** — swap until Theorem 2 holds, then
//!    enumerate with constant delay (§4.2). Pays the swaps' intermediate
//!    representations up front; streaming `k` rows afterwards is free.
//! 2. **collect-sort-cut** — enumerate the unrestructured result into a
//!    flat relation, stable-sort, truncate. Pays `O(N · log N)` time and
//!    `O(N)` memory in the *flat* result size `N`.
//! 3. **heap top-k** ([`crate::topk`]) — fold the unordered enumeration
//!    through a size-`k` heap. Pays `O(N · log k)` time and `O(k)`
//!    memory; needs a LIMIT to be meaningful. With an OFFSET `m` the
//!    heap widens to `m + k` and the first `m` rows are dropped.
//! 4. **direct access** — when the factorisation realises the order,
//!    seek straight to the `m`-th tuple by binary-searching the
//!    memoised subtree-count annotations (`O(depth · log fanout)`),
//!    then stream the `k` requested rows with constant delay. The only
//!    strategy whose cost is independent of the offset depth.
//!
//! Not every strategy serves every query ([`OrderCostInputs::feasible`]):
//! streaming needs an order-realising plan, direct access additionally an
//! OFFSET, no HAVING and a tuple cursor, the heap a LIMIT; the sort always
//! works. The chooser prices each feasible strategy in the paper's
//! currency — the size bounds of the representations a plan materialises
//! ([`tree_cost`]) plus the enumeration-side work — and picks the
//! cheapest. Estimates use only
//! the f-tree and the base-relation [`Stats`], so the choice is
//! deterministic (a property the differential suites rely on).

use crate::ftree::{FTree, NodeLabel};
use crate::optim::cost::{tree_cost, Stats};
use crate::plan::{apply_to_tree, FPlan};
use fdb_relational::AttrId;

/// The physical ordering strategy a result executes: the cheapest
/// feasible one ([`choose_order_strategy`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderStrategy {
    /// No `ORDER BY`: the order is unspecified.
    #[default]
    Unordered,
    /// The factorisation realises the order; enumeration streams it.
    StreamInTree,
    /// Streaming after a seek past the `OFFSET` on the subtree-count
    /// annotations ([`crate::enumerate::DirectCursor`]).
    DirectAccess,
    /// Bounded-heap top-(m+k) over the unrestructured enumeration (LIMIT k).
    HeapTopK,
    /// Full enumeration into a flat relation, stable sort, cut.
    CollectSortCut,
}

/// Everything the chooser looks at. The prices (plan costs, row and seek
/// estimates) are read only for a page ([`is_page`]); an unpaged order is
/// chosen by feasibility alone, so a caller may leave them at zero.
#[derive(Clone, Copy, Debug)]
pub struct OrderCostInputs {
    /// Cost of the plan that realises the order in-tree ([`plan_cost`]),
    /// or `None` when no such plan exists (e.g. ordering by a derived
    /// `avg` column, or consolidation failed).
    pub stream_plan_cost: Option<f64>,
    /// Cost of the plan that leaves the order unrealised.
    pub unordered_plan_cost: f64,
    /// Estimated enumerated rows of the unordered plan ([`estimate_rows`]).
    pub est_rows: f64,
    /// The LIMIT, if any.
    pub k: Option<usize>,
    /// The OFFSET (rows skipped before the first returned row; 0 = none).
    pub offset: usize,
    /// Seek cost of the count-annotated direct-access path
    /// (≈ depth · log fanout), or `None` when direct access is
    /// ineligible: no order-realising plan, a `HAVING` clause (the counts
    /// would include filtered rows), a result shape without a tuple
    /// cursor (grouped on-the-fly aggregation), or no offset to skip
    /// (plain streaming is then strictly cheaper).
    pub direct_seek_cost: Option<f64>,
    /// Output row width in columns (weights the per-row materialisation).
    pub row_width: usize,
}

impl OrderCostInputs {
    /// Whether `strategy` can produce the query's ordered page at all:
    /// streaming needs an order-realising plan; direct access that plan,
    /// an OFFSET to seek past and a quoted seek cost; the heap a LIMIT.
    /// Collect-sort-cut always works; leaving the order out never does.
    pub fn feasible(&self, strategy: OrderStrategy) -> bool {
        match strategy {
            OrderStrategy::Unordered => false,
            OrderStrategy::StreamInTree => self.stream_plan_cost.is_some(),
            OrderStrategy::DirectAccess => {
                self.stream_plan_cost.is_some()
                    && self.direct_seek_cost.is_some()
                    && self.offset > 0
            }
            OrderStrategy::HeapTopK => self.k.is_some(),
            OrderStrategy::CollectSortCut => true,
        }
    }
}

/// Whether a LIMIT or an OFFSET cuts the ordered output: only then do the
/// strategies' prices decide between them.
pub fn is_page(k: Option<usize>, offset: usize) -> bool {
    k.is_some() || offset > 0
}

/// Picks the cheapest feasible strategy. Without a LIMIT or OFFSET the
/// in-tree realisation always wins when it exists (the full output must
/// be produced anyway, and streaming it sorted beats an extra
/// `O(N · log N)` sort); with a LIMIT the swap overhead competes against
/// `N · log(m+k)` heap work and `N · log N + N` sort work. With an
/// OFFSET `m`, sequential streaming additionally enumerates-and-discards
/// `m` rows, so for deep offsets the count-annotated seek (whose cost is
/// independent of `m`) takes over.
pub fn choose_order_strategy(inputs: &OrderCostInputs) -> OrderStrategy {
    if !is_page(inputs.k, inputs.offset) {
        return if inputs.feasible(OrderStrategy::StreamInTree) {
            OrderStrategy::StreamInTree
        } else {
            OrderStrategy::CollectSortCut
        };
    }
    let w = inputs.row_width.max(1) as f64;
    let lg = |x: f64| x.max(2.0).log2();
    let n = inputs.est_rows.max(1.0);
    let m = (inputs.offset as f64).min(n);
    // Rows the page actually returns.
    let kf = match inputs.k {
        Some(k) => (k as f64).min((n - m).max(0.0)),
        None => (n - m).max(0.0),
    };
    // Each enumerated row costs its width (the emit into the row buffer)
    // before the heap can reject it or the sort can store it — charging
    // only the comparison term would overprice a swap (one materialised
    // record ≈ one emitted value, in the size-bound currency) and push
    // the chooser to a heap pass even when streaming after one cheap
    // swap is several times faster end to end.
    let heap = inputs.unordered_plan_cost + n * (lg(m + kf + 1.0) + w) + (m + kf) * w;
    let sort = inputs.unordered_plan_cost + n * (lg(n) + w) + n * w;
    let mut best = if inputs.feasible(OrderStrategy::HeapTopK) && heap <= sort {
        (OrderStrategy::HeapTopK, heap)
    } else {
        (OrderStrategy::CollectSortCut, sort)
    };
    if let Some(cs) = inputs.stream_plan_cost {
        // Sequential streaming enumerates (and discards) the m skipped
        // rows before the kf returned ones.
        let stream = cs + (m + kf) * w;
        if stream <= best.1 {
            best = (OrderStrategy::StreamInTree, stream);
        }
        if let Some(seek) = inputs.direct_seek_cost {
            let direct = cs + seek + kf * w;
            if inputs.feasible(OrderStrategy::DirectAccess) && direct < best.1 {
                best = (OrderStrategy::DirectAccess, direct);
            }
        }
    }
    best.0
}

/// Prices a plan by the representations it materialises: the sum of the
/// f-tree size bound after every operator (the paper's §5.1 metric, the
/// one the tests compare greedy's plans with the exhaustive search's
/// optimum on).
pub fn plan_cost(tree0: &FTree, plan: &FPlan, stats: &Stats) -> f64 {
    let mut tree = tree0.clone();
    let mut total = 0.0;
    for op in &plan.ops {
        if apply_to_tree(&mut tree, op).is_err() {
            // A plan that cannot even be simulated prices as unusable.
            return f64::MAX;
        }
        total += tree_cost(&tree, stats);
    }
    total
}

/// Estimated number of enumerated output rows for a result over `tree`:
/// the tight flat-size bound from the fractional edge cover of the
/// relevant attribute classes — the group-by classes for grouped
/// aggregates (one row per group), all atomic classes otherwise.
pub fn estimate_rows(tree: &FTree, stats: &Stats, group_by: &[AttrId], is_aggregate: bool) -> f64 {
    if is_aggregate && group_by.is_empty() {
        return 1.0;
    }
    let mut classes: Vec<Vec<AttrId>> = Vec::new();
    if is_aggregate {
        let mut nodes = Vec::new();
        for &g in group_by {
            match tree.node_of_attr(g) {
                Some(n) if !nodes.contains(&n) => {
                    nodes.push(n);
                    if let NodeLabel::Atomic(class) = &tree.node(n).label {
                        classes.push(class.clone());
                    } else {
                        classes.push(vec![g]);
                    }
                }
                Some(_) => {}
                // Defensive: an attribute the plan lost prices as its own
                // singleton class.
                None => classes.push(vec![g]),
            }
        }
    } else {
        for n in tree.live_nodes() {
            if let NodeLabel::Atomic(class) = &tree.node(n).label {
                classes.push(class.clone());
            }
        }
    }
    stats.bound_for_classes(&classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(stream: Option<f64>, unordered: f64, n: f64, k: Option<usize>) -> OrderCostInputs {
        OrderCostInputs {
            stream_plan_cost: stream,
            unordered_plan_cost: unordered,
            est_rows: n,
            k,
            offset: 0,
            direct_seek_cost: None,
            row_width: 3,
        }
    }

    fn paged(
        stream: Option<f64>,
        unordered: f64,
        n: f64,
        k: Option<usize>,
        offset: usize,
        seek: Option<f64>,
    ) -> OrderCostInputs {
        OrderCostInputs {
            offset,
            direct_seek_cost: seek,
            ..inputs(stream, unordered, n, k)
        }
    }

    #[test]
    fn no_limit_prefers_stream_when_realisable() {
        assert_eq!(
            choose_order_strategy(&inputs(Some(1e9), 1.0, 1e6, None)),
            OrderStrategy::StreamInTree
        );
        assert_eq!(
            choose_order_strategy(&inputs(None, 1.0, 1e6, None)),
            OrderStrategy::CollectSortCut
        );
        // Whatever the prices (unpaged inputs may leave them at zero).
        for i in grid().iter().filter(|i| !is_page(i.k, i.offset)) {
            let want = match i.stream_plan_cost {
                Some(_) => OrderStrategy::StreamInTree,
                None => OrderStrategy::CollectSortCut,
            };
            assert_eq!(choose_order_strategy(i), want, "{i:?}");
        }
    }

    #[test]
    fn expensive_restructuring_loses_to_heap_under_limit() {
        // Swaps would materialise ~100x the unordered plan: with a small
        // k the heap pass over N rows is far cheaper.
        let choice = choose_order_strategy(&inputs(Some(1e8), 1e6, 1e5, Some(10)));
        assert_eq!(choice, OrderStrategy::HeapTopK);
    }

    #[test]
    fn free_realisation_beats_heap_under_limit() {
        // The order is already realised (no extra swaps: equal plan
        // costs): streaming k rows beats an N-row heap pass.
        let choice = choose_order_strategy(&inputs(Some(1e4), 1e4, 1e5, Some(10)));
        assert_eq!(choice, OrderStrategy::StreamInTree);
    }

    #[test]
    fn heap_beats_sort_whenever_k_is_small() {
        for n in [10.0, 1e3, 1e6] {
            let choice = choose_order_strategy(&inputs(None, 0.0, n, Some(5)));
            assert_eq!(choice, OrderStrategy::HeapTopK, "n={n}");
        }
    }

    #[test]
    fn deep_offset_prefers_direct_seek_over_streaming() {
        // OFFSET 90k of 100k rows, LIMIT 10: discarding 90k enumerated
        // rows dwarfs a logarithmic seek.
        let choice =
            choose_order_strategy(&paged(Some(1e4), 1e4, 1e5, Some(10), 90_000, Some(60.0)));
        assert_eq!(choice, OrderStrategy::DirectAccess);
        // Same page without the seek option: streaming still beats the
        // flat passes (they enumerate all N rows either way).
        let choice = choose_order_strategy(&paged(Some(1e4), 1e4, 1e5, Some(10), 90_000, None));
        assert_eq!(choice, OrderStrategy::StreamInTree);
    }

    #[test]
    fn zero_offset_never_picks_direct() {
        // With nothing to skip the seek is pure overhead; the engine
        // passes `None`, but even a quoted seek cost must lose to the
        // tie-broken stream.
        let choice = choose_order_strategy(&paged(Some(1e4), 1e4, 1e5, Some(10), 0, Some(60.0)));
        assert_eq!(choice, OrderStrategy::StreamInTree);
    }

    #[test]
    fn offset_without_limit_is_priced() {
        // OFFSET-only page at 99% depth: direct access returns the 1%
        // tail without enumerating the 99% prefix.
        let choice = choose_order_strategy(&paged(Some(1e4), 1e4, 1e5, None, 99_000, Some(60.0)));
        assert_eq!(choice, OrderStrategy::DirectAccess);
        // No realising plan at all: only the sort can serve the page.
        let choice = choose_order_strategy(&paged(None, 1e4, 1e5, None, 99_000, None));
        assert_eq!(choice, OrderStrategy::CollectSortCut);
    }

    #[test]
    fn expensive_restructuring_still_loses_to_flat_passes_with_offset() {
        // The order-realising plan costs 100× the flat plan: even a free
        // seek cannot amortise it for a shallow page over few rows.
        let choice = choose_order_strategy(&paged(Some(1e8), 1e6, 1e5, Some(10), 50, Some(10.0)));
        assert_eq!(choice, OrderStrategy::HeapTopK);
    }

    /// Inputs spanning cheap and dear plans, with and without a realising
    /// plan, a seek quote, an OFFSET and a LIMIT.
    fn grid() -> Vec<OrderCostInputs> {
        let mut all = Vec::new();
        for stream in [None, Some(1.0), Some(1e4), Some(1e9)] {
            for unordered in [0.0, 1e4, 1e8] {
                for n in [1.0, 1e3, 1e6] {
                    for k in [None, Some(0), Some(10), Some(1_000_000)] {
                        for offset in [0, 1, 500, 999_999] {
                            for seek in [None, Some(0.0), Some(60.0)] {
                                all.push(paged(stream, unordered, n, k, offset, seek));
                            }
                        }
                    }
                }
            }
        }
        all
    }

    #[test]
    fn heap_is_never_chosen_without_a_limit() {
        for inputs in grid().into_iter().filter(|i| i.k.is_none()) {
            assert!(!inputs.feasible(OrderStrategy::HeapTopK), "{inputs:?}");
            assert_ne!(
                choose_order_strategy(&inputs),
                OrderStrategy::HeapTopK,
                "{inputs:?}"
            );
        }
    }

    #[test]
    fn direct_is_never_chosen_outside_its_conditions() {
        // Direct needs a realising plan, an OFFSET and a seek quote (the
        // engine quotes one only without HAVING and with a tuple cursor).
        let outside = |i: &OrderCostInputs| {
            i.stream_plan_cost.is_none() || i.offset == 0 || i.direct_seek_cost.is_none()
        };
        for inputs in grid().into_iter().filter(outside) {
            assert!(!inputs.feasible(OrderStrategy::DirectAccess), "{inputs:?}");
            assert_ne!(
                choose_order_strategy(&inputs),
                OrderStrategy::DirectAccess,
                "{inputs:?}"
            );
        }
    }

    #[test]
    fn estimate_rows_bounds_groups() {
        use fdb_relational::AttrId;
        let a = AttrId(0);
        let b = AttrId(1);
        let mut stats = Stats::new();
        stats.add_relation([a, b], 100);
        let tree = FTree::path(&[a, b]);
        // Grouping by `a`: at most 100 groups.
        let g = estimate_rows(&tree, &stats, &[a], true);
        assert!((g - 100.0).abs() < 1e-6, "got {g}");
        // Full aggregation: one row.
        assert_eq!(estimate_rows(&tree, &stats, &[], true), 1.0);
        // SPJ: the flat bound.
        assert!(estimate_rows(&tree, &stats, &[], false) >= 100.0);
    }
}
