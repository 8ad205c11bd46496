//! Planning: the greedy candidates (§5.2) and the ordering decision.
//! An ordered query plans one candidate that realises the order in the
//! factorisation, when its spec lets one ([`realisable`]), and one that
//! leaves it to enumeration, prices every feasible strategy on them
//! ([`crate::optim::ordering`]) and keeps the cheapest as its [`Chosen`]
//! plan. Execution verifies the result's tree.

use super::lower::Lowered;
use crate::enumerate::composite_realises;
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

/// Whether a candidate consolidating or not can realise all of `keys`
/// (a prefix would still need a sort). Keys on group attributes can;
/// keys on aggregate outputs need consolidation, whose `γ` gives its
/// node exactly `spec.final_outputs`, and must follow that tuple's order
/// ([`composite_realises`]); keys on `AVG` outputs never can.
fn realisable(spec: &QuerySpec, keys: &[SortKey], consolidate: bool) -> bool {
    let on_output = |k: &SortKey| spec.final_outputs.contains(&k.attr);
    let on_node = |k: &SortKey| {
        !spec.is_aggregate() || spec.group_by.contains(&k.attr) || (consolidate && on_output(k))
    };
    !keys.is_empty()
        && keys.iter().all(on_node)
        && (keys.iter().position(on_output))
            .is_none_or(|i| composite_realises(&spec.final_outputs, &keys[i..]))
}

impl Chosen {
    /// Plans `low` consolidating or not, realising the order when asked
    /// and [`realisable`]. Partial aggregates pinned under *different*
    /// group nodes along a path cannot be consolidated by upward swaps;
    /// the candidate is then planned unconsolidated and emission handles
    /// the aggregate.
    fn plan(
        low: &Lowered,
        catalog: &mut Catalog,
        consolidate: bool,
        realise: bool,
    ) -> Result<Self> {
        let keys = &low.order_keys;
        let order_by = if realise && realisable(&low.spec, keys, consolidate) {
            keys.clone()
        } else {
            Vec::new()
        };
        let spec = QuerySpec {
            order_by,
            consolidate,
            ..low.spec.clone()
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
}

/// Plans `low` and decides its ordering (§4): plans the order-realising
/// candidate, when the spec lets one realise the order, and the flat
/// one, once each; prices every feasible strategy and takes the
/// cheapest — or `force`, when it is feasible.
pub(super) fn choose(
    low: &Lowered,
    task: &JoinAggTask,
    catalog: &mut Catalog,
    force: Option<OrderStrategy>,
) -> Result<Chosen> {
    let spec = &low.spec;
    let keys = &low.order_keys;
    let on_output = |a| spec.final_outputs.contains(a);
    // A group attribute is a node with or without consolidation; an
    // aggregate output is one only in a consolidated tree.
    let having_on_node = task.having.iter().any(|p| match p {
        Predicate::AttrCmp(a, _, _) => on_output(a),
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
    let order_on_output = keys.iter().any(|k| on_output(&k.attr));
    let stream_consolidate =
        consolidable && ((order_on_output && realisable(spec, keys, true)) || having_on_node);
    let flat_consolidate = consolidable && having_on_node;
    if keys.is_empty() {
        return Chosen::plan(low, catalog, flat_consolidate, false);
    }
    // The candidate that streams the order exists only where the spec
    // lets one realise it; one whose consolidation failed no longer does.
    let stream = (realisable(spec, keys, stream_consolidate))
        .then(|| Chosen::plan(low, catalog, stream_consolidate, true))
        .transpose()?
        .filter(|s| !s.spec.order_by.is_empty());
    let flat = Chosen::plan(low, catalog, flat_consolidate, false)?;
    let inputs = cost_inputs(low, task, stream.as_ref(), &flat)?;
    let strategy = match force {
        Some(s) if inputs.feasible(s) => s,
        _ => choose_order_strategy(&inputs),
    };
    let mut chosen = match (strategy, stream) {
        (OrderStrategy::StreamInTree | OrderStrategy::DirectAccess, Some(stream)) => stream,
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

/// Prices the candidates of an ordered query. Prices decide only a
/// page: an unpaged order is chosen by feasibility alone, so its plans
/// go unpriced.
fn cost_inputs(
    low: &Lowered,
    task: &JoinAggTask,
    stream: Option<&Chosen>,
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
    // count and the fanout bounded by the row estimate. Only then is the
    // stream candidate's tree simulated.
    let direct_seek_cost = match stream {
        Some(s)
            if task.offset > 0
                && task.having.is_empty()
                && (!is_aggregate || s.spec.consolidate) =>
        {
            let mut scratch = tree.clone();
            s.plan.simulate(&mut scratch)?;
            Some(scratch.live_nodes().len().max(1) as f64 * est_rows.max(2.0).log2())
        }
        _ => None,
    };
    Ok(OrderCostInputs {
        stream_plan_cost: stream.map(|s| price(&s.plan)),
        unordered_plan_cost: price(&flat.plan),
        est_rows,
        k: task.limit,
        offset: task.offset,
        direct_seek_cost,
        row_width: low.schema.arity(),
    })
}

#[cfg(test)]
mod tests {
    //! The paper's claim for its heuristic as a gate: on every query of
    //! the reproduction, the exhaustive search of §5.1 finds a plan that
    //! costs no more than greedy's, and greedy's costs at most its
    //! recorded bound times that optimum. Cost is `plan_cost`, the sum
    //! of the f-tree size bounds after every operator.
    use super::*;
    use crate::engine::FdbEngine;
    use crate::frep::FRep;
    use crate::ftree::{AggOp, FTree, NodeLabel};
    use crate::optim::greedy::exhaustive::{exhaustive, MAX_STATES};
    use crate::optim::Stats;
    use fdb_workload::orders::{generate, over_base_relations, OrdersConfig, QUERIES};
    use fdb_workload::pizzeria::pizzeria;

    /// Greedy's cost over the optimum where the two planners disagree,
    /// as measured and rounded up in the fourth decimal; every other
    /// query must plan at the optimum. Lower a bound when greedy
    /// improves; never raise one.
    const GAPS: &[(&str, f64)] = &[
        // Figure 6. Q1–Q3: greedy merges `package` with its shadow
        // before it lifts `item`, then swaps on the merged tree; Q4, Q5:
        // a partial `γ` over `price` that the last aggregate reads anyway.
        ("flat Q1", 111.1132),
        ("flat Q2", 94.3546),
        ("flat Q3", 111.334),
        ("flat Q4", 1.064),
        ("flat Q5", 1.0666),
        // The long variant's `GROUP BY` subsets of R1: where the group
        // fold needs a swap first, greedy's step 2 runs partial `γ`s
        // before it.
        ("R1 GROUP BY date, item", 2.25),
        ("R1 GROUP BY date, item (ordered)", 2.25),
        ("R1 GROUP BY package, date, item", 1.1112),
        ("R1 GROUP BY package, date, item (ordered)", 1.1112),
        ("R1 GROUP BY customer, item", 2.875),
        ("R1 GROUP BY customer, item (ordered)", 2.875),
        ("R1 GROUP BY package, customer, item", 1.6667),
        ("R1 GROUP BY package, customer, item (ordered)", 1.6667),
        ("R1 GROUP BY date, customer, item", 2.1112),
        ("R1 GROUP BY date, customer, item (ordered)", 2.1112),
        ("R1 GROUP BY date, price", 1.625),
        ("R1 GROUP BY date, price (ordered)", 1.625),
        ("R1 GROUP BY package, date, price", 1.6667),
        ("R1 GROUP BY package, date, price (ordered)", 1.6667),
        ("R1 GROUP BY customer, price", 1.3847),
        ("R1 GROUP BY customer, price (ordered)", 1.3847),
        ("R1 GROUP BY package, customer, price", 1.4286),
        ("R1 GROUP BY package, customer, price (ordered)", 1.4286),
        ("R1 GROUP BY date, customer, price", 1.7143),
        ("R1 GROUP BY date, customer, price (ordered)", 1.7143),
        ("R1 GROUP BY item, price", 1.375),
        ("R1 GROUP BY item, price (ordered)", 1.375),
        ("R1 GROUP BY date, item, price", 1.5556),
        ("R1 GROUP BY date, item, price (ordered)", 1.5556),
        ("R1 GROUP BY customer, item, price", 1.3572),
        ("R1 GROUP BY customer, item, price (ordered)", 1.3572),
        ("R1 GROUP BY date, customer, item, price", 1.3334),
        ("R1 GROUP BY date, customer, item, price (ordered)", 1.6667),
    ];

    /// What both planners are given: the input's f-tree and statistics
    /// and the spec of the plan the engine runs.
    struct Case {
        name: String,
        tree: FTree,
        stats: Stats,
        spec: QuerySpec,
    }

    /// The reproduction's engine at s=1, seed `0xFDB` and 100 customers
    /// (figure 6's set-up): `R1` over the paper's f-tree, `R3` as the
    /// `date → customer → package` trie of `Orders`, and the three base
    /// relations, which a multi-relation `FROM` factorises as tries.
    fn engine() -> FdbEngine {
        let mut catalog = Catalog::new();
        let ds = generate(&mut catalog, &OrdersConfig::default());
        let a = ds.attrs;
        let mut t = FTree::new();
        let package = t.add_node(NodeLabel::Atomic(vec![a.package]), None);
        let date = t.add_node(NodeLabel::Atomic(vec![a.date]), Some(package));
        t.add_node(NodeLabel::Atomic(vec![a.customer]), Some(date));
        let item = t.add_node(NodeLabel::Atomic(vec![a.item]), Some(package));
        t.add_node(NodeLabel::Atomic(vec![a.price]), Some(item));
        t.add_dep([a.customer, a.date, a.package]);
        t.add_dep([a.package, a.item]);
        t.add_dep([a.item, a.price]);
        let r1 = FRep::from_relation(&ds.join(), t).unwrap();
        let r3 = FRep::from_relation(&ds.orders, FTree::path(&[a.date, a.customer, a.package]));
        let mut e = FdbEngine::new(catalog);
        e.register_view("R1", r1);
        e.register_view("R3", r3.unwrap());
        e.register_relation("Orders", ds.orders);
        e.register_relation("Packages", ds.packages);
        e.register_relation("Items", ds.items);
        e
    }

    /// `sql` as the engine plans it: the input the lowering builds and
    /// the spec of the candidate the chooser keeps, one case per
    /// grouping set.
    fn cases(e: &mut FdbEngine, name: &str, sql: &str) -> Vec<Case> {
        let schemas = e.schemas();
        let task = fdb_query::parse(sql, &mut e.catalog, &schemas)
            .unwrap_or_else(|err| panic!("{name}: {err}"))
            .to_task();
        let sets: Vec<(String, JoinAggTask)> = if task.grouping_sets.is_empty() {
            vec![(name.to_string(), task)]
        } else {
            let sets = task.grouping_sets.iter();
            sets.map(|set| {
                let names: Vec<&str> = set.iter().map(|&a| e.catalog.name(a)).collect();
                let sub = JoinAggTask {
                    grouping_sets: Vec::new(),
                    group_by: set.clone(),
                    ..task.clone()
                };
                (format!("{name} ({})", names.join(", ")), sub)
            })
            .collect()
        };
        sets.into_iter()
            .map(|(name, task)| {
                let low = e.lower(&task).unwrap();
                let chosen = choose(&low, &task, &mut e.catalog, None).unwrap();
                Case {
                    name,
                    tree: low.rep.ftree().clone(),
                    stats: low.stats.clone(),
                    spec: chosen.spec,
                }
            })
            .collect()
    }

    /// `plan_explorer`'s scenarios: a consolidated `SUM(price)` per
    /// customer, per (customer, pizza) and in total over the pizzeria's
    /// f-tree T1, with the base relations' sizes as statistics.
    fn pizzeria_cases(catalog: &mut Catalog) -> Vec<Case> {
        let db = pizzeria(catalog);
        let a = db.attrs;
        let mut t = FTree::new();
        let pizza = t.add_node(NodeLabel::Atomic(vec![a.pizza]), None);
        let date = t.add_node(NodeLabel::Atomic(vec![a.date]), Some(pizza));
        t.add_node(NodeLabel::Atomic(vec![a.customer]), Some(date));
        let item = t.add_node(NodeLabel::Atomic(vec![a.item]), Some(pizza));
        t.add_node(NodeLabel::Atomic(vec![a.price]), Some(item));
        t.add_dep([a.customer, a.date, a.pizza]);
        t.add_dep([a.pizza, a.item]);
        t.add_dep([a.item, a.price]);
        let mut stats = Stats::new();
        stats.add_relation([a.customer, a.date, a.pizza], db.orders.len());
        stats.add_relation([a.pizza, a.item], db.pizzas.len());
        stats.add_relation([a.item, a.price], db.items.len());
        let scenarios = [
            ("revenue per customer", vec![a.customer]),
            ("revenue per (customer, pizza)", vec![a.customer, a.pizza]),
            ("total revenue", vec![]),
        ];
        scenarios
            .into_iter()
            .map(|(name, group_by)| Case {
                name: format!("pizzeria {name}"),
                tree: t.clone(),
                stats: stats.clone(),
                spec: QuerySpec {
                    group_by,
                    final_funcs: vec![AggOp::Sum(a.price)],
                    final_outputs: vec![catalog.fresh("revenue")],
                    consolidate: true,
                    ..Default::default()
                },
            })
            .collect()
    }

    /// Plans every case with both planners, prints a row per case
    /// (`--nocapture` shows them) and fails naming every broken claim.
    fn assert_greedy_within_bounds(cases: &[Case], catalog: &mut Catalog, max_states: usize) {
        println!("case | greedy | optimum | ratio | states popped");
        let mut broken = Vec::new();
        for case in cases {
            let name = &case.name;
            let (tree, stats, spec) = (&case.tree, &case.stats, &case.spec);
            let plan = greedy(tree, spec, stats, catalog).unwrap();
            let optimum = match exhaustive(tree, spec, stats, catalog, max_states) {
                Ok(optimum) => optimum,
                Err(err) => {
                    broken.push(format!("{name}: the search failed: {err}"));
                    continue;
                }
            };
            let g = plan_cost(tree, &plan, stats);
            let x = plan_cost(tree, &optimum.plan, stats);
            // Two empty plans (an order the input already has) agree.
            let ratio = if g == x { 1.0 } else { g / x };
            println!("{name} | {g:.0} | {x:.0} | {ratio:.3} | {}", optimum.popped);
            if x > g * (1.0 + 1e-9) {
                broken.push(format!(
                    "{name}: the search's plan costs {x} > greedy's {g}"
                ));
            }
            let bound = GAPS.iter().find(|(n, _)| n == name).map_or(1.0, |g| g.1);
            if ratio > bound {
                broken.push(format!(
                    "{name}: greedy costs {ratio}× the optimum, over its bound {bound}×\n\
                     greedy:\n{}optimum:\n{}",
                    plan.display(catalog, tree),
                    optimum.plan.display(catalog, tree)
                ));
            }
        }
        assert!(broken.is_empty(), "{}", broken.join("\n"));
    }

    #[test]
    fn greedy_stays_within_its_recorded_gap_to_the_optimum() {
        let mut e = engine();
        let mut all = Vec::new();
        // The paper's queries (Figure 3 and the extended aggregate
        // surface), then figure 6's flat-input variants of Q1–Q5.
        for &(name, sql) in QUERIES {
            all.extend(cases(&mut e, name, sql));
        }
        for &(name, sql) in &QUERIES[..5] {
            let sql = over_base_relations(sql);
            all.extend(cases(&mut e, &format!("flat {name}"), &sql));
        }
        all.extend(pizzeria_cases(&mut e.catalog));
        assert_greedy_within_bounds(&all, &mut e.catalog, MAX_STATES);
    }

    /// Every `GROUP BY` subset of R1's five attributes, with and without
    /// an order on the group keys, at a larger state budget.
    #[test]
    #[ignore = "long budget; run with --ignored in release"]
    fn greedy_stays_within_its_recorded_gap_to_the_optimum_long() {
        let mut e = engine();
        let attrs = ["package", "date", "customer", "item", "price"];
        let mut all = Vec::new();
        for mask in 0u32..1 << attrs.len() {
            let group: Vec<&str> = (attrs.iter().enumerate())
                .filter(|(i, _)| mask & 1 << i != 0)
                .map(|(_, a)| *a)
                .collect();
            let keys = group.join(", ");
            if group.is_empty() {
                all.extend(cases(&mut e, "R1 total", "SELECT SUM(price) AS s FROM R1"));
                continue;
            }
            let sql = format!("SELECT {keys}, SUM(price) AS s FROM R1 GROUP BY {keys}");
            all.extend(cases(&mut e, &format!("R1 GROUP BY {keys}"), &sql));
            let sql = format!("{sql} ORDER BY {keys}");
            all.extend(cases(
                &mut e,
                &format!("R1 GROUP BY {keys} (ordered)"),
                &sql,
            ));
        }
        assert_greedy_within_bounds(&all, &mut e.catalog, 200_000);
    }
}
