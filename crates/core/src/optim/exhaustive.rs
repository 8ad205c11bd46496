//! Exhaustive f-plan search: Dijkstra over the graph of f-trees (§5.1).
//!
//! "We can represent the space of all f-plans as a graph whose nodes are
//! f-trees and whose edges are operators between them. […] we can utilise
//! Dijkstra's algorithm to find the minimum-cost f-plan" — with
//! Proposition 3 characterising the outgoing edges (permissible
//! operators): applicable selections, permissible aggregation operators,
//! and any swap — plus the group fold where its shape rule holds. Edge cost is the size bound of the operator's output tree
//! (the paper's metric), so the path cost estimates total intermediate
//! size.
//!
//! The space is exponential in the query size; [`ExhaustiveConfig`] bounds
//! the number of explored states and the search degrades to an error the
//! caller can answer with the greedy heuristic.

use crate::agg::partial_funcs;
use crate::error::{FdbError, Result};
use crate::ftree::{FTree, NodeLabel};
use crate::optim::cost::{tree_cost, Stats};
use crate::optim::greedy::{
    applicable_selection, best_aggregate, finish, group_fold, group_violation, order_violation,
    QuerySpec,
};
use crate::plan::{apply_to_tree, FOp, FPlan};
use fdb_relational::{AttrId, Catalog};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Search budget.
#[derive(Clone, Copy, Debug)]
pub struct ExhaustiveConfig {
    /// Maximum number of popped states before giving up.
    pub max_states: usize,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig { max_states: 20_000 }
    }
}

struct State {
    cost: f64,
    seq: usize,
    tree: FTree,
    pending: Vec<(AttrId, AttrId)>,
    plan: FPlan,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost (BinaryHeap is a max-heap): reverse.
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Finds a minimum-cost f-plan under the size-bound metric.
pub fn exhaustive(
    tree0: &FTree,
    spec: &QuerySpec,
    stats: &Stats,
    catalog: &mut Catalog,
    cfg: ExhaustiveConfig,
) -> Result<FPlan> {
    // Constant selections are applied up front, outside the search (§5.1:
    // they are evaluated in one traversal of the product).
    let mut base_tree = tree0.clone();
    let mut base_plan = FPlan::new();
    for (attr, op, value) in &spec.const_preds {
        let op = FOp::SelectConst {
            attr: *attr,
            op: *op,
            value: value.clone(),
        };
        apply_to_tree(&mut base_tree, &op)?;
        base_plan.push(op);
    }

    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    let mut visited: HashMap<String, f64> = HashMap::new();
    let mut seq = 0usize;
    heap.push(State {
        cost: 0.0,
        seq,
        tree: base_tree,
        pending: spec.selections.clone(),
        plan: base_plan,
    });
    let mut popped = 0usize;
    while let Some(state) = heap.pop() {
        popped += 1;
        if popped > cfg.max_states {
            return Err(FdbError::PlanningFailed(format!(
                "exhaustive search exceeded {} states",
                cfg.max_states
            )));
        }
        let key = state_key(&state);
        match visited.get(&key) {
            Some(&c) if c <= state.cost => continue,
            _ => {
                visited.insert(key, state.cost);
            }
        }
        if is_goal(&state.tree, &state.pending, spec) {
            let mut tree = state.tree;
            let mut plan = state.plan;
            finish(&mut tree, &mut plan, spec)?;
            return Ok(plan);
        }
        // --- Successors (permissible operators, Prop. 3) ---
        let mut push = |tree: FTree,
                        pending: Vec<(AttrId, AttrId)>,
                        plan: FPlan,
                        base: f64,
                        heap: &mut BinaryHeap<State>| {
            seq += 1;
            let cost = base + tree_cost(&tree, stats);
            heap.push(State {
                cost,
                seq,
                tree,
                pending,
                plan,
            });
        };
        // Applicable selections (each pending one that fits structurally).
        for i in 0..state.pending.len() {
            let one = [state.pending[i]];
            if let Some((_, op)) = applicable_selection(&state.tree, &one) {
                let mut tree = state.tree.clone();
                if apply_to_tree(&mut tree, &op).is_err() {
                    continue;
                }
                let mut pending = state.pending.clone();
                pending.remove(i);
                pending.retain(|&(x, y)| tree.node_of_attr(x) != tree.node_of_attr(y));
                let mut plan = state.plan.clone();
                plan.push(op);
                push(tree, pending, plan, state.cost, &mut heap);
            }
        }
        // Permissible aggregation operators: the maximal target set per
        // position (smaller subsets are dominated by Prop. 2 composition).
        if spec.is_aggregate() {
            if let Some((parent, targets)) = best_aggregate(&state.tree, spec, &state.pending) {
                let funcs = partial_funcs(&state.tree, &targets, &spec.final_funcs);
                let outputs: Vec<AttrId> = funcs
                    .iter()
                    .map(|f| catalog.fresh(&format!("partial_{}", f.display(catalog))))
                    .collect();
                let op = FOp::Aggregate {
                    parent,
                    targets,
                    funcs,
                    outputs,
                };
                let mut tree = state.tree.clone();
                if apply_to_tree(&mut tree, &op).is_ok() {
                    let mut plan = state.plan.clone();
                    plan.push(op);
                    push(tree, state.pending.clone(), plan, state.cost, &mut heap);
                }
            }
        }
        // The group fold, where its shape rule holds.
        if let Some(op) = group_fold(&state.tree, spec, &state.pending, catalog)? {
            let mut tree = state.tree.clone();
            if apply_to_tree(&mut tree, &op).is_ok() {
                let mut plan = state.plan.clone();
                plan.push(op);
                push(tree, state.pending.clone(), plan, state.cost, &mut heap);
            }
        }
        // Every swap.
        for n in state.tree.live_nodes() {
            if let Some(p) = state.tree.node(n).parent {
                let op = FOp::Swap {
                    parent: p,
                    child: n,
                };
                let mut tree = state.tree.clone();
                if apply_to_tree(&mut tree, &op).is_ok() {
                    let mut plan = state.plan.clone();
                    plan.push(op);
                    push(tree, state.pending.clone(), plan, state.cost, &mut heap);
                }
            }
        }
    }
    Err(FdbError::PlanningFailed(
        "exhaustive search exhausted the state space without a goal".into(),
    ))
}

fn state_key(state: &State) -> String {
    let mut key = state.tree.search_key();
    let mut pend: Vec<(u32, u32)> = state
        .pending
        .iter()
        .map(|&(a, b)| (a.0.min(b.0), a.0.max(b.0)))
        .collect();
    pend.sort_unstable();
    key.push_str(&format!("§{pend:?}"));
    key
}

/// Goal test per §5.1: selections done; for aggregate queries every atomic
/// attribute outside `G` aggregated away and group support established;
/// order support for keys already present (final-output keys are handled
/// by the shared finish phase).
fn is_goal(tree: &FTree, pending: &[(AttrId, AttrId)], spec: &QuerySpec) -> bool {
    if !pending.is_empty() {
        return false;
    }
    if spec.is_aggregate() {
        for n in tree.live_nodes() {
            if let NodeLabel::Atomic(attrs) = &tree.node(n).label {
                if attrs.iter().any(|a| !spec.group_by.contains(a)) {
                    return false;
                }
            }
        }
        if group_violation(tree, &spec.group_by).is_some() {
            return false;
        }
    }
    order_violation(tree, &spec.order_by).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frep::FRep;
    use crate::ftree::AggOp;
    use crate::optim::greedy::greedy;
    use crate::optim::ordering::plan_cost;
    use fdb_relational::{Relation, Schema, SortKey, Value};

    fn t1_rep() -> (Catalog, FRep, Stats) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let customer = c.intern("customer");
        let item = c.intern("item");
        let price = c.intern("price");
        let rows: Vec<(&str, i64, &str, &str, i64)> = vec![
            ("Capricciosa", 1, "Mario", "base", 6),
            ("Capricciosa", 1, "Mario", "ham", 1),
            ("Capricciosa", 1, "Mario", "mushrooms", 1),
            ("Capricciosa", 5, "Mario", "base", 6),
            ("Capricciosa", 5, "Mario", "ham", 1),
            ("Capricciosa", 5, "Mario", "mushrooms", 1),
            ("Hawaii", 5, "Lucia", "base", 6),
            ("Hawaii", 5, "Lucia", "ham", 1),
            ("Hawaii", 5, "Lucia", "pineapple", 2),
            ("Hawaii", 5, "Pietro", "base", 6),
            ("Hawaii", 5, "Pietro", "ham", 1),
            ("Hawaii", 5, "Pietro", "pineapple", 2),
            ("Margherita", 2, "Mario", "base", 6),
        ];
        let rel = Relation::from_rows(
            Schema::new(vec![pizza, date, customer, item, price]),
            rows.into_iter().map(|(p, d, cu, i, pr)| {
                vec![
                    Value::str(p),
                    Value::Int(d),
                    Value::str(cu),
                    Value::str(i),
                    Value::Int(pr),
                ]
            }),
        );
        let mut t = FTree::new();
        let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
        let n_date = t.add_node(NodeLabel::Atomic(vec![date]), Some(n_pizza));
        t.add_node(NodeLabel::Atomic(vec![customer]), Some(n_date));
        let n_item = t.add_node(NodeLabel::Atomic(vec![item]), Some(n_pizza));
        t.add_node(NodeLabel::Atomic(vec![price]), Some(n_item));
        t.add_dep([customer, date, pizza]);
        t.add_dep([pizza, item]);
        t.add_dep([item, price]);
        let rep = FRep::from_relation(&rel, t).unwrap();
        let mut stats = Stats::new();
        stats.add_relation([customer, date, pizza], 5);
        stats.add_relation([pizza, item], 7);
        stats.add_relation([item, price], 4);
        (c, rep, stats)
    }

    /// Pizzas(pizza, item) × Items(item2, price), the input of
    /// `greedy_join_by_selection`: the join condition `item = item2` is
    /// still pending.
    fn join_rep() -> (Catalog, FRep, Stats) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let item = c.intern("item");
        let item2 = c.intern("item2");
        let price = c.intern("price");
        let pizzas = Relation::from_rows(
            Schema::new(vec![pizza, item]),
            [
                ("Hawaii", "base"),
                ("Hawaii", "ham"),
                ("Margherita", "base"),
            ]
            .into_iter()
            .map(|(p, i)| vec![Value::str(p), Value::str(i)]),
        );
        let items = Relation::from_rows(
            Schema::new(vec![item2, price]),
            [("base", 6), ("ham", 1)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let rp = FRep::from_relation(&pizzas, FTree::path(&[pizza, item])).unwrap();
        let ri = FRep::from_relation(&items, FTree::path(&[item2, price])).unwrap();
        let mut stats = Stats::new();
        stats.add_relation([pizza, item], 3);
        stats.add_relation([item2, price], 2);
        (c, crate::ops::product(rp, ri), stats)
    }

    #[test]
    fn exhaustive_matches_greedy_results() {
        // `plan_explorer`'s three group-bys, an order on the consolidated
        // aggregate and a join by selection: both optimisers' plans must
        // compute the same result.
        let mut cases: Vec<(&str, Catalog, FRep, Stats, QuerySpec)> = Vec::new();
        let groups: [(&str, &[&str]); 3] = [
            ("revenue per customer", &["customer"]),
            ("revenue per (customer, pizza)", &["customer", "pizza"]),
            ("total revenue", &[]),
        ];
        for (name, group) in groups {
            let (mut c, rep, stats) = t1_rep();
            let spec = QuerySpec {
                group_by: group.iter().map(|a| c.lookup(a).unwrap()).collect(),
                final_funcs: vec![AggOp::Sum(c.lookup("price").unwrap())],
                final_outputs: vec![c.intern("revenue")],
                consolidate: true,
                ..Default::default()
            };
            cases.push((name, c, rep, stats, spec));
        }
        let (mut c, rep, stats) = t1_rep();
        let revenue = c.intern("revenue");
        let spec = QuerySpec {
            group_by: vec![c.lookup("customer").unwrap()],
            final_funcs: vec![AggOp::Sum(c.lookup("price").unwrap())],
            final_outputs: vec![revenue],
            order_by: vec![SortKey::desc(revenue)],
            consolidate: true,
            ..Default::default()
        };
        cases.push(("revenue per customer by revenue", c, rep, stats, spec));
        let (mut c, rep, stats) = join_rep();
        let spec = QuerySpec {
            selections: vec![(c.lookup("item").unwrap(), c.lookup("item2").unwrap())],
            group_by: vec![c.lookup("pizza").unwrap()],
            final_funcs: vec![AggOp::Sum(c.lookup("price").unwrap())],
            final_outputs: vec![c.intern("total")],
            consolidate: true,
            ..Default::default()
        };
        cases.push(("join by selection", c, rep, stats, spec));

        for (name, mut c, rep, stats, spec) in cases {
            let gplan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
            let xplan = exhaustive(
                rep.ftree(),
                &spec,
                &stats,
                &mut c,
                ExhaustiveConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut cols = spec.group_by.clone();
            cols.extend(&spec.final_outputs);
            let run = |plan: &FPlan| {
                let out = plan.execute(rep.clone()).unwrap().flatten();
                out.project_cols(&cols).canonical()
            };
            assert_eq!(run(&gplan), run(&xplan), "{name}");
        }
    }

    #[test]
    fn exhaustive_cost_not_worse_than_greedy() {
        // Compare total plan cost (sum of intermediate tree bounds) —
        // Dijkstra must never exceed the heuristic.
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let spec = QuerySpec {
            group_by: vec![customer],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![c.intern("rev_cost")],
            consolidate: false,
            ..Default::default()
        };
        let gplan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        let xplan = exhaustive(
            rep.ftree(),
            &spec,
            &stats,
            &mut c,
            ExhaustiveConfig::default(),
        )
        .unwrap();
        let x = plan_cost(rep.ftree(), &xplan, &stats);
        assert!(x <= plan_cost(rep.ftree(), &gplan, &stats) + 1e-6);
    }

    #[test]
    fn tiny_budget_fails_gracefully() {
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let spec = QuerySpec {
            group_by: vec![c.lookup("customer").unwrap()],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![c.intern("rev_tiny")],
            ..Default::default()
        };
        let err = exhaustive(
            rep.ftree(),
            &spec,
            &stats,
            &mut c,
            ExhaustiveConfig { max_states: 1 },
        );
        assert!(matches!(err, Err(FdbError::PlanningFailed(_))));
    }
}
