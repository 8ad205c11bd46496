//! Planning: the greedy candidates (§5.2) and the ordering decision.
//! An ordered query plans one candidate that realises the order in the
//! factorisation and one that leaves it to enumeration, prices every
//! feasible strategy on them ([`crate::optim::ordering`]) and keeps the
//! cheapest as its [`Chosen`] plan.

use super::lower::Lowered;
use crate::error::{FdbError, Result};
use crate::optim::ordering::{
    choose_order_strategy, estimate_rows, is_page, plan_cost, OrderCostInputs, OrderStrategy,
};
use crate::optim::{greedy, QuerySpec};
use crate::plan::FPlan;
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{Catalog, Predicate, SortKey};

/// A planned candidate; for the chosen one, how its result is ordered.
#[derive(Clone)]
pub(super) struct Chosen {
    /// The lowered spec with `consolidate` set, and `order_by` holding
    /// the order keys when the plan realises them (empty otherwise).
    pub(super) spec: QuerySpec,
    pub(super) plan: FPlan,
    pub(super) strategy: OrderStrategy,
    /// The chooser's pick with the order-realising strategies excluded:
    /// what runs if the executed tree fails to realise the order.
    pub(super) fallback: OrderStrategy,
}

impl Chosen {
    /// Plans `low` consolidating or not, realising the order (only if
    /// *all* keys are realisable: a prefix would still need a sort) or
    /// not. Partial aggregates pinned under *different* group nodes along
    /// a path cannot be consolidated by upward swaps; the candidate is
    /// then planned unconsolidated and emission handles the aggregate.
    fn plan(
        low: &Lowered,
        catalog: &mut Catalog,
        consolidate: bool,
        realise: bool,
    ) -> Result<Self> {
        let spec = &low.spec;
        // Keys on group attributes can always be realised (after
        // restructuring); keys on aggregate outputs need consolidation;
        // keys on `AVG` outputs are computed columns and never can be.
        let realisable = |k: &SortKey| {
            !spec.is_aggregate()
                || spec.group_by.contains(&k.attr)
                || (consolidate && spec.final_outputs.contains(&k.attr))
        };
        let realised =
            realise && !low.order_keys.is_empty() && low.order_keys.iter().all(realisable);
        let order_by = if realised {
            low.order_keys.clone()
        } else {
            Vec::new()
        };
        let spec = QuerySpec {
            order_by,
            consolidate,
            ..spec.clone()
        };
        match greedy(low.rep.ftree(), &spec, &low.stats, catalog) {
            Err(FdbError::PlanningFailed(_)) if consolidate => {
                Self::plan(low, catalog, false, realise)
            }
            plan => Ok(Chosen {
                spec,
                plan: plan?,
                strategy: OrderStrategy::Unordered,
                fallback: OrderStrategy::Unordered,
            }),
        }
    }

    fn realised(&self) -> bool {
        !self.spec.order_by.is_empty()
    }
}

/// Plans `low` and decides its ordering (§4): plans the order-realising
/// and the flat candidate once, prices every feasible strategy, takes
/// the cheapest — or `force`, when it is feasible.
pub(super) fn choose(
    low: &Lowered,
    task: &JoinAggTask,
    catalog: &mut Catalog,
    force: Option<OrderStrategy>,
) -> Result<Chosen> {
    let spec = &low.spec;
    let on_output = |a| spec.final_outputs.contains(a);
    let order_on_output = low.order_keys.iter().any(|k| on_output(&k.attr));
    let having_on_node = task.having.iter().any(|p| match p {
        Predicate::AttrCmp(a, _, _) => on_output(a) || spec.group_by.contains(a),
        Predicate::AttrEq(_, _) => false,
    });
    // A function over a group attribute reads the group's value, which
    // only the grouped evaluation has at hand: such a query never
    // consolidates, and its HAVING filters rows at emission. The flat
    // candidate evaluates the aggregate at emission, so only HAVING can
    // demand consolidation there.
    let over_group = spec
        .final_funcs
        .iter()
        .any(|f| f.attr().is_some_and(|a| spec.group_by.contains(&a)));
    let consolidable = spec.is_aggregate() && !over_group;
    let stream_consolidate = consolidable && (order_on_output || having_on_node);
    let flat_consolidate = consolidable && having_on_node;
    if low.order_keys.is_empty() {
        return Chosen::plan(low, catalog, stream_consolidate, false);
    }
    let stream = Chosen::plan(low, catalog, stream_consolidate, true)?;
    // When no key is realisable and the consolidation choice matches,
    // the two candidate specs are identical: skip the second search.
    let flat = if !stream.realised() && stream_consolidate == flat_consolidate {
        stream.clone()
    } else {
        Chosen::plan(low, catalog, flat_consolidate, false)?
    };
    let inputs = cost_inputs(low, task, &stream, &flat)?;
    let strategy = match force {
        Some(s) if inputs.feasible(s) => s,
        _ => choose_order_strategy(&inputs),
    };
    let mut chosen = match strategy {
        OrderStrategy::StreamInTree | OrderStrategy::DirectAccess => stream,
        _ => flat,
    };
    chosen.strategy = strategy;
    chosen.fallback = choose_order_strategy(&OrderCostInputs {
        stream_plan_cost: None,
        direct_seek_cost: None,
        ..inputs
    });
    Ok(chosen)
}

/// Prices the candidates of an ordered query. Prices decide only a page:
/// an unpaged order is chosen by feasibility alone, so its plans go
/// unpriced.
fn cost_inputs(
    low: &Lowered,
    task: &JoinAggTask,
    stream: &Chosen,
    flat: &Chosen,
) -> Result<OrderCostInputs> {
    let (tree, stats) = (low.rep.ftree(), &low.stats);
    let paged = is_page(task.limit, task.offset);
    let price = |plan| {
        if paged {
            plan_cost(tree, plan, stats)
        } else {
            0.0
        }
    };
    let is_aggregate = low.spec.is_aggregate();
    let est_rows = if paged {
        let mut scratch = tree.clone();
        flat.plan.simulate(&mut scratch)?;
        estimate_rows(&scratch, stats, &low.spec.group_by, is_aggregate)
    } else {
        0.0
    };
    // The direct seek is quoted only for a realised order on a tuple
    // cursor, with no HAVING (the counts count unfiltered tuples) and an
    // OFFSET to seek past: d·log f, with d the result tree's live node
    // count and the fanout bounded by the row estimate.
    let direct_seek_cost = (stream.realised()
        && task.offset > 0
        && task.having.is_empty()
        && (!is_aggregate || stream.spec.consolidate))
        .then(|| {
            let mut scratch = tree.clone();
            let d = match stream.plan.simulate(&mut scratch) {
                Ok(()) => scratch.live_nodes().len(),
                Err(_) => tree.live_nodes().len(),
            };
            d.max(1) as f64 * est_rows.max(2.0).log2()
        });
    Ok(OrderCostInputs {
        stream_plan_cost: stream.realised().then(|| price(&stream.plan)),
        unordered_plan_cost: price(&flat.plan),
        est_rows,
        k: task.limit,
        offset: task.offset,
        direct_seek_cost,
        row_width: low.schema.arity(),
    })
}
