//! The polynomial-time greedy heuristic of §5.2.
//!
//! Repeatedly, in priority order: (1) execute a permissible selection
//! operator on a highest-placed node; then, once no selection is pending,
//! fold a single non-root group attribute in one pass where the group
//! fold's shape rule holds (`group_fold`) — it stands for steps 2 and
//! 4; (2) execute a permissible aggregation
//! operator with maximal subject; (3) restructure for a pending selection,
//! choosing the cheapest of lifting one side, the other, or both; (4) lift
//! group-by attributes above non-group parents; (5) fix order-by
//! contradictions; then stop. Step (7) — consolidating the remaining
//! partial aggregates into a single attribute — runs when requested
//! (needed for HAVING and for ordering by the aggregation result); its
//! swaps and target are planned by `plan_consolidation`.
//!
//! The heuristic plans on a scratch f-tree; every emitted operator is
//! simulated immediately so later operators reference valid node ids.
//!
//! Its test oracle is the exhaustive search of §5.1 (`exhaustive`, test
//! builds only), which explores the same operators and shares the
//! finishing phase; the engine's tests gate greedy's cost against the
//! optimum it finds.

use crate::agg::{fold_funcs, partial_funcs};
use crate::error::{FdbError, Result};
use crate::ftree::{AggOp, FTree, NodeId, NodeLabel};
use crate::optim::cost::{tree_cost, Stats};
use crate::plan::{apply_to_tree, FOp, FPlan};
use fdb_relational::{AttrId, Catalog, CmpOp, SortKey, Value};
use std::collections::BTreeSet;

/// What the optimiser must achieve, independent of any engine plumbing.
#[derive(Clone, Debug, Default)]
pub struct QuerySpec {
    /// Pending equality selections `Ai = Bi` (e.g. natural-join conditions).
    pub selections: Vec<(AttrId, AttrId)>,
    /// Constant selections `A θ c`, applied up front (§5.1).
    pub const_preds: Vec<(AttrId, CmpOp, Value)>,
    /// For aggregate-free queries: the attributes to keep.
    pub projection: Option<Vec<AttrId>>,
    /// Group-by attributes `G`.
    pub group_by: Vec<AttrId>,
    /// Final aggregation functions (avg already desugared to sum + count).
    pub final_funcs: Vec<AggOp>,
    /// Output attribute per final function.
    pub final_outputs: Vec<AttrId>,
    /// Order-by keys (over `G` attributes and/or final outputs).
    pub order_by: Vec<SortKey>,
    /// Reduce the aggregate to a single node (§5.2 step 7); required when
    /// ordering/filtering by the aggregation result.
    pub consolidate: bool,
}

impl QuerySpec {
    pub fn is_aggregate(&self) -> bool {
        !self.final_funcs.is_empty()
    }
}

/// Runs the greedy heuristic, returning an executable [`FPlan`].
pub fn greedy(
    tree0: &FTree,
    spec: &QuerySpec,
    stats: &Stats,
    catalog: &mut Catalog,
) -> Result<FPlan> {
    let mut tree = tree0.clone();
    let mut plan = FPlan::new();
    let emit = |tree: &mut FTree, plan: &mut FPlan, op: FOp| -> Result<()> {
        apply_to_tree(tree, &op)?;
        plan.push(op);
        Ok(())
    };

    // Constant selections run on the input factorisation directly.
    for (attr, op, value) in &spec.const_preds {
        emit(
            &mut tree,
            &mut plan,
            FOp::SelectConst {
                attr: *attr,
                op: *op,
                value: value.clone(),
            },
        )?;
    }

    let mut pending: Vec<(AttrId, AttrId)> = spec.selections.clone();
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 10_000 {
            return Err(FdbError::PlanningFailed("greedy did not converge".into()));
        }
        // Drop selections already satisfied by earlier merges/absorbs.
        pending.retain(|&(x, y)| tree.node_of_attr(x) != tree.node_of_attr(y));

        // Step 1: permissible selection operators, highest-placed first.
        if let Some((i, op)) = applicable_selection(&tree, &pending) {
            emit(&mut tree, &mut plan, op)?;
            pending.remove(i);
            continue;
        }
        // The group fold, in place of steps 2 and 4 for its shape: every
        // group's aggregate read off in one pass over the input, instead
        // of partial γs rewriting the spine and swaps lifting the group.
        if let Some(op) = group_fold(&tree, spec, &pending, catalog)? {
            emit(&mut tree, &mut plan, op)?;
            continue;
        }
        // Step 2: permissible aggregation operator with maximal subject.
        if spec.is_aggregate() {
            if let Some((parent, targets)) = best_aggregate(&tree, spec, &pending) {
                let funcs = partial_funcs(&tree, &targets, &spec.final_funcs);
                let outputs: Vec<AttrId> = funcs
                    .iter()
                    .map(|f| catalog.fresh(&format!("partial_{}", f.display(catalog))))
                    .collect();
                emit(
                    &mut tree,
                    &mut plan,
                    FOp::Aggregate {
                        parent,
                        targets,
                        funcs,
                        outputs,
                    },
                )?;
                continue;
            }
        }
        // Step 3: restructure for the first pending selection.
        if let Some(&(x, y)) = pending.first() {
            let swaps = cheapest_selection_restructuring(&tree, x, y, stats)?;
            for (p, n) in swaps {
                emit(
                    &mut tree,
                    &mut plan,
                    FOp::Swap {
                        parent: p,
                        child: n,
                    },
                )?;
            }
            continue;
        }
        // Step 4: lift a group attribute above a non-group parent.
        if let Some((p, n)) = group_violation(&tree, &spec.group_by) {
            emit(
                &mut tree,
                &mut plan,
                FOp::Swap {
                    parent: p,
                    child: n,
                },
            )?;
            continue;
        }
        // Step 5: fix an order-by contradiction (keys present in the tree).
        if let Some((p, n)) = order_violation(&tree, &spec.order_by) {
            emit(
                &mut tree,
                &mut plan,
                FOp::Swap {
                    parent: p,
                    child: n,
                },
            )?;
            continue;
        }
        break;
    }

    finish(&mut tree, &mut plan, spec)?;
    Ok(plan)
}

/// The finishing phase, shared with the exhaustive search of the tests:
/// step 7 consolidation and the final aggregation for aggregate queries;
/// projection for SPJ queries; then re-established group/order support
/// (steps 4–5).
fn finish(tree: &mut FTree, plan: &mut FPlan, spec: &QuerySpec) -> Result<()> {
    let emit = |tree: &mut FTree, plan: &mut FPlan, op: FOp| -> Result<()> {
        apply_to_tree(tree, &op)?;
        plan.push(op);
        Ok(())
    };
    if spec.is_aggregate() && spec.consolidate {
        // Step 7: single-attribute result.
        let (swaps, parent, targets) = plan_consolidation(tree, &spec.group_by)?;
        for (p, n) in swaps {
            emit(
                tree,
                plan,
                FOp::Swap {
                    parent: p,
                    child: n,
                },
            )?;
        }
        emit(
            tree,
            plan,
            FOp::Aggregate {
                parent,
                targets,
                funcs: spec.final_funcs.clone(),
                outputs: spec.final_outputs.clone(),
            },
        )?;
        // The consolidated output may participate in ordering (e.g. Q7
        // orders by the revenue aggregate): re-establish Theorem 2. The
        // Theorem 1 check is intentionally absent here — after the final
        // aggregation every group holds exactly one tuple, so grouping is
        // trivial and must not fight the order restructuring (ordering by
        // the aggregate puts its node *above* the group attributes).
        let mut guard = 0usize;
        while let Some((p, n)) = order_violation(tree, &spec.order_by) {
            guard += 1;
            if guard > 10_000 {
                return Err(FdbError::PlanningFailed(
                    "post-consolidation restructuring did not converge".into(),
                ));
            }
            emit(
                tree,
                plan,
                FOp::Swap {
                    parent: p,
                    child: n,
                },
            )?;
        }
    }

    if !spec.is_aggregate() {
        if let Some(proj) = &spec.projection {
            // Remove unwanted attributes, deepest nodes first so most
            // removals are plain leaf drops.
            loop {
                let mut victims: Vec<(usize, AttrId)> = Vec::new();
                for n in tree.live_nodes() {
                    for a in tree.node(n).label.exposed_attrs() {
                        if !proj.contains(&a) {
                            victims.push((tree.depth(n), a));
                        }
                    }
                }
                match victims.into_iter().max_by_key(|&(d, _)| d) {
                    None => break,
                    Some((_, a)) => {
                        emit(tree, plan, FOp::ProjectAway { attr: a })?;
                    }
                }
            }
            // Projection may have disturbed the order support.
            let mut guard = 0usize;
            while let Some((p, n)) = order_violation(tree, &spec.order_by) {
                guard += 1;
                if guard > 10_000 {
                    return Err(FdbError::PlanningFailed(
                        "post-projection restructuring did not converge".into(),
                    ));
                }
                emit(
                    tree,
                    plan,
                    FOp::Swap {
                        parent: p,
                        child: n,
                    },
                )?;
            }
        }
    }
    Ok(())
}

/// Step 1: a merge/absorb whose condition already holds structurally,
/// preferring operators touching the highest-placed (shallowest) node.
fn applicable_selection(tree: &FTree, pending: &[(AttrId, AttrId)]) -> Option<(usize, FOp)> {
    let mut best: Option<(usize, usize, FOp)> = None; // (depth, idx, op)
    for (i, &(x, y)) in pending.iter().enumerate() {
        let (Some(nx), Some(ny)) = (tree.node_of_attr(x), tree.node_of_attr(y)) else {
            continue;
        };
        if nx == ny {
            continue;
        }
        let op = if tree.node(nx).parent == tree.node(ny).parent {
            Some(FOp::Merge { a: nx, b: ny })
        } else if tree.is_ancestor(nx, ny) {
            Some(FOp::Absorb { anc: nx, desc: ny })
        } else if tree.is_ancestor(ny, nx) {
            Some(FOp::Absorb { anc: ny, desc: nx })
        } else {
            None
        };
        if let Some(op) = op {
            let depth = tree.depth(nx).min(tree.depth(ny));
            if best.as_ref().is_none_or(|(d, _, _)| depth < *d) {
                best = Some((depth, i, op));
            }
        }
    }
    best.map(|(_, i, op)| (i, op))
}

/// The group fold on `tree` when its shape rule holds: every pending
/// selection done, one root, the group attributes on atomic nodes of one
/// root path, and some other atomic node. Every function folds. Two
/// shapes keep the swap plan, as their `γ` plan never rewrites per
/// group: the root alone, and group nodes that are — or, once the
/// topmost is lifted to the root, become — a prefix of the root path
/// that ends in a leaf. The group nodes chain in the order of the
/// `ORDER BY` keys that lead it and are group attributes, then in
/// root-path order, so an order by the group attributes needs no swap
/// after the fold. Its functions are the partial ones of the `γ` it
/// stands for.
fn group_fold(
    tree: &FTree,
    spec: &QuerySpec,
    pending: &[(AttrId, AttrId)],
    catalog: &mut Catalog,
) -> Result<Option<FOp>> {
    if !pending.is_empty() || !spec.is_aggregate() || tree.roots().len() != 1 {
        return Ok(None);
    }
    let Some(nodes) = spec
        .group_by
        .iter()
        .map(|&a| tree.node_of_attr(a))
        .collect::<Option<BTreeSet<NodeId>>>()
    else {
        return Ok(None);
    };
    let Some(deepest) = nodes.iter().copied().max_by_key(|&g| tree.depth(g)) else {
        return Ok(None);
    };
    let path = tree.root_path(deepest);
    let on_path = nodes.iter().all(|n| path.contains(n));
    let is_atomic = |n: NodeId| matches!(tree.node(n).label, NodeLabel::Atomic(_));
    let atomic = nodes.iter().all(|&n| is_atomic(n));
    // Nothing left to aggregate: the fold (or a `γ`) already ran.
    let done = tree
        .live_nodes()
        .into_iter()
        .all(|n| nodes.contains(&n) || !is_atomic(n));
    if !on_path || !atomic || done || path.len() == 1 || leaf_prefix(tree, &nodes) {
        return Ok(None);
    }
    let lead = spec
        .order_by
        .iter()
        .map_while(|k| tree.node_of_attr(k.attr).filter(|n| nodes.contains(n)));
    let mut groups: Vec<NodeId> = Vec::new();
    for n in lead.chain(path.iter().copied().filter(|n| nodes.contains(n))) {
        if !groups.contains(&n) {
            groups.push(n);
        }
    }
    let funcs = fold_funcs(tree, &groups, &spec.final_funcs);
    let outputs: Vec<AttrId> = funcs
        .iter()
        .map(|f| catalog.fresh(&format!("partial_{}", f.display(catalog))))
        .collect();
    Ok(Some(FOp::GroupFold {
        groups,
        funcs,
        outputs,
    }))
}

/// Whether the swaps lifting the topmost of the group nodes `nodes` (on
/// one root path) to the root leave them a prefix of the root path that
/// ends in a leaf: then the `γ` plan that follows collapses only the
/// subtrees beside them and never rewrites per group.
fn leaf_prefix(tree: &FTree, nodes: &BTreeSet<NodeId>) -> bool {
    let mut lifted = tree.clone();
    let top = nodes.iter().copied().min_by_key(|&n| tree.depth(n));
    let top = top.expect("at least one group node");
    while let Some(p) = lifted.node(top).parent {
        if lifted.swap(p, top).is_err() {
            return false;
        }
    }
    let deepest = nodes.iter().copied().max_by_key(|&n| lifted.depth(n));
    let path = lifted.root_path(deepest.expect("at least one group node"));
    path.iter().all(|n| nodes.contains(n)) && lifted.node(path[path.len() - 1]).children.is_empty()
}

/// Step 2: the permissible aggregation target with the most atomic
/// attributes. Returns `(parent, sibling subtrees)`.
fn best_aggregate(
    tree: &FTree,
    spec: &QuerySpec,
    pending: &[(AttrId, AttrId)],
) -> Option<(Option<NodeId>, Vec<NodeId>)> {
    // Attributes that must survive: group-by, pending selections, any
    // order-by attribute still atomic in the tree, and the input of a
    // final count(distinct), whose result cannot be recovered from
    // partial-aggregate singletons.
    let mut blocked: BTreeSet<AttrId> = spec.group_by.iter().copied().collect();
    for &(x, y) in pending {
        blocked.insert(x);
        blocked.insert(y);
    }
    for k in &spec.order_by {
        blocked.insert(k.attr);
    }
    for f in &spec.final_funcs {
        if f.needs_raw_input() {
            blocked.extend(f.attr());
        }
    }
    let mut best: Option<(usize, Option<NodeId>, Vec<NodeId>)> = None;
    let mut consider = |parent: Option<NodeId>, siblings: &[NodeId]| {
        let mut targets = Vec::new();
        let mut atomic_attrs = 0usize;
        let mut useful = false;
        for &c in siblings {
            let attrs = tree.subtree_attrs(c);
            if attrs.iter().any(|a| blocked.contains(a)) {
                continue;
            }
            for m in tree.subtree_nodes(c) {
                match &tree.node(m).label {
                    NodeLabel::Atomic(class) => {
                        atomic_attrs += class.len();
                        useful = true;
                    }
                    NodeLabel::Agg(_) => {
                        if !tree.node(m).children.is_empty() {
                            useful = true;
                        }
                    }
                }
            }
            targets.push(c);
        }
        // Re-aggregating a lone bare aggregate leaf is a no-op; several
        // bare leaves are the consolidation step's job, not step 2's.
        if targets.is_empty() || !useful {
            return;
        }
        if best.as_ref().is_none_or(|(n, _, _)| atomic_attrs > *n) {
            best = Some((atomic_attrs, parent, targets));
        }
    };
    consider(None, tree.roots());
    for n in tree.live_nodes() {
        consider(Some(n), &tree.node(n).children);
    }
    best.map(|(_, p, t)| (p, t))
}

/// Step 3: the cheapest of (a) lifting `x`'s node, (b) lifting `y`'s node,
/// (c) lifting both, until a selection operator becomes applicable. Cost
/// is the sum of intermediate f-tree size bounds, the paper's metric.
fn cheapest_selection_restructuring(
    tree: &FTree,
    x: AttrId,
    y: AttrId,
    stats: &Stats,
) -> Result<Vec<(NodeId, NodeId)>> {
    let nx = tree
        .node_of_attr(x)
        .ok_or_else(|| FdbError::Unresolved(format!("attribute {x} not in f-tree")))?;
    let ny = tree
        .node_of_attr(y)
        .ok_or_else(|| FdbError::Unresolved(format!("attribute {y} not in f-tree")))?;
    let options: [Vec<NodeId>; 3] = [vec![nx], vec![ny], vec![nx, ny]];
    let mut best: Option<(f64, Vec<(NodeId, NodeId)>)> = None;
    for lift_set in options {
        if let Some((cost, swaps)) = simulate_lifting(tree, nx, ny, &lift_set, stats) {
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, swaps));
            }
        }
    }
    best.map(|(_, s)| s)
        .ok_or_else(|| FdbError::PlanningFailed("no restructuring lifts the selection".into()))
}

/// Lifts the nodes of `lift_set` round-robin until `nx`/`ny` are siblings
/// or in ancestor-descendant position; returns `(Σ intermediate costs,
/// swap list)` or `None` if this option stalls.
fn simulate_lifting(
    tree: &FTree,
    nx: NodeId,
    ny: NodeId,
    lift_set: &[NodeId],
    stats: &Stats,
) -> Option<(f64, Vec<(NodeId, NodeId)>)> {
    let mut scratch = tree.clone();
    let mut swaps = Vec::new();
    let mut cost = 0.0;
    let applicable = |t: &FTree| {
        t.node(nx).parent == t.node(ny).parent || t.is_ancestor(nx, ny) || t.is_ancestor(ny, nx)
    };
    let mut i = 0usize;
    let mut stalled = 0usize;
    while !applicable(&scratch) {
        if swaps.len() > 2 * scratch.live_nodes().len() + 4 {
            return None;
        }
        let n = lift_set[i % lift_set.len()];
        i += 1;
        match scratch.node(n).parent {
            None => {
                stalled += 1;
                if stalled > lift_set.len() {
                    return None; // every liftee is a root and still nothing
                }
            }
            Some(p) => {
                stalled = 0;
                scratch.swap(p, n).ok()?;
                swaps.push((p, n));
                cost += tree_cost(&scratch, stats);
            }
        }
    }
    Some((cost, swaps))
}

/// Step 4 condition: a node exposing a group attribute whose parent
/// exposes none.
fn group_violation(tree: &FTree, group: &[AttrId]) -> Option<(NodeId, NodeId)> {
    let in_group = |n: NodeId| {
        tree.node(n)
            .label
            .exposed_attrs()
            .iter()
            .any(|a| group.contains(a))
    };
    tree.live_nodes().into_iter().find_map(|n| {
        if in_group(n) {
            tree.node(n)
                .parent
                .filter(|&p| !in_group(p))
                .map(|p| (p, n))
        } else {
            None
        }
    })
}

/// Step 5 condition: an order-by node whose parent is not an earlier
/// order-by node (keys whose attributes are not yet in the tree — pending
/// final outputs — are skipped).
fn order_violation(tree: &FTree, keys: &[SortKey]) -> Option<(NodeId, NodeId)> {
    let nodes: Vec<Option<NodeId>> = keys.iter().map(|k| tree.node_of_attr(k.attr)).collect();
    for (i, &n) in nodes.iter().enumerate() {
        let Some(n) = n else { continue };
        if nodes[..i].contains(&Some(n)) {
            continue; // same class as an earlier key
        }
        if let Some(p) = tree.node(n).parent {
            if !nodes[..i].contains(&Some(p)) {
                return Some((p, n));
            }
        }
    }
    None
}

/// What [`plan_consolidation`] computes: the swap sequence, then the
/// target parent and sibling subtrees for the consolidating `γ`.
type ConsolidationPlan = (Vec<(NodeId, NodeId)>, Option<NodeId>, Vec<NodeId>);

/// Plans §5.2 step 7: swaps that gather every node *not* exposing a
/// `group` attribute under a single parent, returning the swaps plus the
/// final target (parent, sibling subtrees) for the consolidating `γ`.
///
/// Fails when the non-group nodes live in different trees of the forest
/// with group roots in between — callers fall back to materialising.
fn plan_consolidation(tree: &FTree, group: &[AttrId]) -> Result<ConsolidationPlan> {
    let mut scratch = tree.clone();
    let mut swaps: Vec<(NodeId, NodeId)> = Vec::new();
    let group_nodes = nodes_of(&scratch, group)?;
    let value_nodes: Vec<NodeId> = scratch
        .live_nodes()
        .into_iter()
        .filter(|n| !group_nodes.contains(n))
        .collect();
    // `PlanningFailed`, not `InvalidOperator`: callers fall back to the
    // grouped (scenario-3) evaluation, which is exact here — with every
    // node a group node there are no partial aggregates left to gather
    // (e.g. `GROUP BY` over all attributes with only `COUNT(*)`).
    if value_nodes.is_empty() {
        return Err(FdbError::PlanningFailed(
            "nothing to consolidate: every node is a group node".into(),
        ));
    }
    // Iterate: find the LCA of all value nodes; while it is a group node
    // with group children on the paths to value nodes, lift those group
    // children above it.
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 10_000 {
            return Err(FdbError::PlanningFailed(
                "consolidation did not converge".into(),
            ));
        }
        let value_nodes: Vec<NodeId> = scratch
            .live_nodes()
            .into_iter()
            .filter(|n| !group_nodes.contains(n))
            .collect();
        // Roots of the value forest: value nodes whose parent is a group
        // node or absent.
        let value_roots: Vec<NodeId> = value_nodes
            .iter()
            .copied()
            .filter(|&n| match scratch.node(n).parent {
                None => true,
                Some(p) => group_nodes.contains(&p),
            })
            .collect();
        let parents: Vec<Option<NodeId>> = value_roots
            .iter()
            .map(|&n| scratch.node(n).parent)
            .collect();
        if parents.iter().all(|p| p.is_none()) {
            return Ok((swaps, None, value_roots));
        }
        if parents.windows(2).all(|w| w[0] == w[1]) {
            // All value subtrees already hang under one parent.
            if let Some(Some(p)) = parents.first().copied() {
                // The parent must not have *group* children below which
                // more value nodes hide — value_roots covers all of them
                // by construction, so we are done.
                return Ok((swaps, Some(p), value_roots));
            }
        }
        // Mixed parents: lift a group node that sits on the path between
        // the deepest common region and a value root — concretely, lift
        // the deepest group parent of a value root above its own parent,
        // funnelling value subtrees towards a common ancestor.
        let deepest = value_roots
            .iter()
            .filter_map(|&n| scratch.node(n).parent.map(|p| (p, scratch.depth(p))))
            .max_by_key(|&(_, d)| d);
        match deepest {
            None => {
                return Err(FdbError::PlanningFailed(
                    "value subtrees split across forest roots".into(),
                ))
            }
            Some((gp, _)) => {
                match scratch.node(gp).parent {
                    None => {
                        return Err(FdbError::PlanningFailed(
                            "value subtrees split across forest roots".into(),
                        ))
                    }
                    Some(gpp) => {
                        // χ_{gpp, gp}: lift the group parent; its value
                        // children that depend on gpp sink to gpp,
                        // merging value regions.
                        scratch.swap(gpp, gp)?;
                        swaps.push((gpp, gp));
                    }
                }
            }
        }
    }
}

fn nodes_of(tree: &FTree, attrs: &[AttrId]) -> Result<Vec<NodeId>> {
    let mut nodes = Vec::new();
    for &a in attrs {
        let n = tree
            .node_of_attr(a)
            .ok_or_else(|| FdbError::Unresolved(format!("attribute {a} not in f-tree")))?;
        if !nodes.contains(&n) {
            nodes.push(n);
        }
    }
    Ok(nodes)
}

#[cfg(test)]
pub(crate) mod exhaustive {
    //! Exhaustive f-plan search, greedy's test oracle: Dijkstra over the
    //! graph of f-trees (§5.1).
    //!
    //! "We can represent the space of all f-plans as a graph whose nodes are
    //! f-trees and whose edges are operators between them. […] we can utilise
    //! Dijkstra's algorithm to find the minimum-cost f-plan" — with
    //! Proposition 3 characterising the outgoing edges (permissible
    //! operators): applicable selections, permissible aggregation operators,
    //! and any swap — plus the group fold where its shape rule holds. Edge
    //! cost is the size bound of the operator's output tree (the paper's
    //! metric), so the path cost estimates total intermediate size.
    //!
    //! The space is exponential in the query size; `max_states` bounds the
    //! number of popped states. The engine never calls the search: the tests
    //! hold greedy's plans against it (`engine::choose`'s gate).

    use super::{
        applicable_selection, best_aggregate, finish, group_fold, group_violation, order_violation,
        QuerySpec,
    };
    use crate::agg::partial_funcs;
    use crate::error::{FdbError, Result};
    use crate::ftree::{FTree, NodeId, NodeLabel};
    use crate::optim::cost::{tree_cost, Stats};
    use crate::plan::{apply_to_tree, FOp, FPlan};
    use fdb_relational::{AttrId, Catalog};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};

    /// The budget the tests search with unless they need more.
    pub(crate) const MAX_STATES: usize = 20_000;

    /// A minimum-cost plan and the number of states popped to find it.
    pub(crate) struct Optimum {
        pub(crate) plan: FPlan,
        pub(crate) popped: usize,
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

    /// Finds a minimum-cost f-plan under the size-bound metric, popping
    /// at most `max_states` states.
    pub(crate) fn exhaustive(
        tree0: &FTree,
        spec: &QuerySpec,
        stats: &Stats,
        catalog: &mut Catalog,
        max_states: usize,
    ) -> Result<Optimum> {
        // Constant selections are applied up front, outside the search
        // (§5.1: they are evaluated in one traversal of the product).
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
            if popped > max_states {
                return Err(FdbError::PlanningFailed(format!(
                    "exhaustive search exceeded {max_states} states"
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
                return Ok(Optimum { plan, popped });
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
            // Applicable selections (each pending one that fits
            // structurally).
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
            // Permissible aggregation operators: the maximal target set
            // per position (smaller subsets are dominated by Prop. 2
            // composition).
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

    /// The visited-set key of a state: its f-tree up to sibling order and
    /// the fresh names of aggregate outputs — so two search paths that
    /// built the same aggregate structure under different names collide —
    /// and its pending selections.
    fn state_key(state: &State) -> String {
        fn node_key(tree: &FTree, n: NodeId) -> String {
            let label = match &tree.node(n).label {
                NodeLabel::Atomic(attrs) => {
                    let mut ids: Vec<u32> = attrs.iter().map(|a| a.0).collect();
                    ids.sort_unstable();
                    format!("a{ids:?}")
                }
                NodeLabel::Agg(l) => format!("g{:?}/{:?}", l.funcs, l.over),
            };
            let node = tree.node(n);
            let mut children: Vec<String> =
                node.children.iter().map(|&c| node_key(tree, c)).collect();
            children.sort();
            format!("({label}[{}])", children.join(","))
        }
        let tree = &state.tree;
        let mut roots: Vec<String> = tree.roots().iter().map(|&r| node_key(tree, r)).collect();
        roots.sort();
        let mut pend: Vec<(u32, u32)> = state
            .pending
            .iter()
            .map(|&(a, b)| (a.0.min(b.0), a.0.max(b.0)))
            .collect();
        pend.sort_unstable();
        format!("{}§{pend:?}", roots.join("|"))
    }

    /// Goal test per §5.1: selections done; for aggregate queries every
    /// atomic node exposing a group attribute (the rest aggregated away;
    /// a class may also hold attributes merged into a group attribute)
    /// and group support established; order support for keys already
    /// present (final-output keys are handled by the shared finish
    /// phase).
    fn is_goal(tree: &FTree, pending: &[(AttrId, AttrId)], spec: &QuerySpec) -> bool {
        if !pending.is_empty() {
            return false;
        }
        if spec.is_aggregate() {
            for n in tree.live_nodes() {
                if let NodeLabel::Atomic(attrs) = &tree.node(n).label {
                    if !attrs.iter().any(|a| spec.group_by.contains(a)) {
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

    mod tests {
        use super::*;
        use crate::frep::FRep;
        use crate::ftree::AggOp;
        use crate::optim::greedy::greedy;
        use crate::optim::greedy::tests::{join_rep, t1_rep};
        use crate::optim::ordering::plan_cost;
        use fdb_relational::SortKey;

        #[test]
        fn exhaustive_matches_greedy_results() {
            // `plan_explorer`'s three group-bys, an order on the
            // consolidated aggregate and a join by selection: both
            // optimisers' plans must compute the same result.
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
                let xplan = exhaustive(rep.ftree(), &spec, &stats, &mut c, MAX_STATES)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .plan;
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
            let xplan = exhaustive(rep.ftree(), &spec, &stats, &mut c, MAX_STATES)
                .unwrap()
                .plan;
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
            let err = exhaustive(rep.ftree(), &spec, &stats, &mut c, 1);
            assert!(matches!(err, Err(FdbError::PlanningFailed(_))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{supports_group, supports_order, EnumSpec, TupleIter};
    use crate::frep::FRep;
    use fdb_relational::{Relation, Schema, SortDir};

    /// T1 rep + stats for the pizzeria join.
    pub(super) fn t1_rep() -> (Catalog, FRep, Stats) {
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

    #[test]
    fn greedy_revenue_per_customer() {
        // Query P of Example 1: ̟customer;sum(price)(R) with a single
        // consolidated output attribute.
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let revenue = c.intern("revenue");
        let spec = QuerySpec {
            group_by: vec![customer],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![revenue],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        // One group attribute on a non-root node of a single-rooted tree:
        // the plan starts with the group fold and swaps nothing.
        assert!(
            matches!(plan.ops[0], FOp::GroupFold { .. })
                && !plan.ops.iter().any(|op| matches!(op, FOp::Swap { .. })),
            "plan: {}",
            plan.display(&c, rep.ftree())
        );
        let out = plan.execute(rep).unwrap();
        out.check_invariants().unwrap();
        let flat = out.flatten();
        let rows: Vec<(String, i64)> = flat
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Lucia".to_string(), 9),
                ("Mario".to_string(), 22),
                ("Pietro".to_string(), 9)
            ]
        );
    }

    #[test]
    fn greedy_group_without_consolidation() {
        // ̟customer,pizza;sum(price): scenario 3 — leave partial
        // aggregates for on-the-fly combination.
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let pizza = c.lookup("pizza").unwrap();
        let spec = QuerySpec {
            group_by: vec![customer, pizza],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![c.intern("rev")],
            consolidate: false,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        let out = plan.execute(rep).unwrap();
        // Group nodes satisfy Theorem 1 afterwards.
        assert!(crate::enumerate::supports_group(
            out.ftree(),
            &[customer, pizza]
        ));
        // Atomic non-group attributes are gone.
        for n in out.ftree().live_nodes() {
            if let NodeLabel::Atomic(attrs) = &out.ftree().node(n).label {
                for a in attrs {
                    assert!([customer, pizza].contains(a));
                }
            }
        }
    }

    #[test]
    fn greedy_full_aggregate_to_scalar() {
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let total = c.intern("total");
        let spec = QuerySpec {
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![total],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        let out = plan.execute(rep).unwrap();
        assert_eq!(out.tuple_count(), 1);
        assert_eq!(*out.root(0).entry(0).value(), Value::Int(40));
    }

    #[test]
    fn greedy_order_by_aggregate_output() {
        // Q7-style: order by the aggregation result — requires
        // consolidation plus a swap lifting the aggregate node.
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let revenue = c.intern("revenue2");
        let spec = QuerySpec {
            group_by: vec![customer],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![revenue],
            order_by: vec![SortKey::desc(revenue)],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        let out = plan.execute(rep).unwrap();
        assert!(crate::enumerate::supports_order(
            out.ftree(),
            &[SortKey::desc(revenue)]
        ));
        let spec2 =
            crate::enumerate::EnumSpec::ordered(out.ftree(), &[SortKey::desc(revenue)]).unwrap();
        let rel = crate::enumerate::TupleIter::new(&out, &spec2)
            .unwrap()
            .projected(&[customer, revenue], None)
            .unwrap();
        let revs: Vec<i64> = rel.rows().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(revs, vec![22, 9, 9]);
    }

    #[test]
    fn greedy_spj_projection_and_order() {
        let (mut c, rep, stats) = t1_rep();
        let pizza = c.lookup("pizza").unwrap();
        let item = c.lookup("item").unwrap();
        let spec = QuerySpec {
            projection: Some(vec![pizza, item]),
            order_by: vec![SortKey::asc(item), SortKey::asc(pizza)],
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        let out = plan.execute(rep).unwrap();
        let keys = [SortKey::asc(item), SortKey::asc(pizza)];
        assert!(crate::enumerate::supports_order(out.ftree(), &keys));
        let espec = crate::enumerate::EnumSpec::ordered(out.ftree(), &keys).unwrap();
        let rel = crate::enumerate::TupleIter::new(&out, &espec)
            .unwrap()
            .projected(&[item, pizza], None)
            .unwrap();
        assert_eq!(rel.len(), 7);
        assert!(rel.is_sorted_by(&keys));
    }

    /// Pizzas(pizza, item) × Items(item2, price), two path reps: the
    /// join condition `item = item2` is still pending.
    pub(super) fn join_rep() -> (Catalog, FRep, Stats) {
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
    fn greedy_join_by_selection() {
        // The product of two path reps + selection item = item2 (the FDB
        // join).
        let (mut c, joined, stats) = join_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let (pizza, item, item2, price) = (a("pizza"), a("item"), a("item2"), a("price"));
        let total = c.intern("total");
        let spec = QuerySpec {
            selections: vec![(item, item2)],
            group_by: vec![pizza],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![total],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(joined.ftree(), &spec, &stats, &mut c).unwrap();
        let out = plan.execute(joined).unwrap();
        let flat = out.flatten();
        let rows: Vec<(String, i64)> = flat
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![("Hawaii".to_string(), 7), ("Margherita".to_string(), 6)]
        );
    }

    #[test]
    fn greedy_with_const_predicates() {
        let (mut c, rep, stats) = t1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let rev = c.intern("rev_cheap");
        let spec = QuerySpec {
            const_preds: vec![(price, CmpOp::Le, Value::Int(2))],
            group_by: vec![customer],
            final_funcs: vec![AggOp::Sum(price)],
            final_outputs: vec![rev],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut c).unwrap();
        assert!(matches!(plan.ops[0], FOp::SelectConst { .. }));
        let out = plan.execute(rep).unwrap();
        let flat = out.flatten();
        // Cheap toppings only: Mario 2·(1+1)=4, Lucia 3, Pietro 3.
        let rows: Vec<(String, i64)> = flat
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Lucia".to_string(), 3),
                ("Mario".to_string(), 4),
                ("Pietro".to_string(), 3)
            ]
        );
    }

    /// Applies the swap `violation` names (greedy step 4 or 5) through
    /// `ops::swap` until there is none; returns the result and the
    /// number of swaps.
    fn restructure(
        mut rep: FRep,
        violation: impl Fn(&FTree) -> Option<(NodeId, NodeId)>,
    ) -> (FRep, usize) {
        let mut swaps = 0;
        while let Some((p, n)) = violation(rep.ftree()) {
            rep = crate::ops::swap(rep, p, n).unwrap();
            swaps += 1;
        }
        (rep, swaps)
    }

    #[test]
    fn example2_customer_order_restructuring() {
        // Example 2: the order (customer, pizza, item, price) is obtained
        // by pushing customer up past date and pizza; the item/price
        // branch is untouched.
        let (c, rep, _) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![
            SortKey::asc(a("customer")),
            SortKey::asc(a("pizza")),
            SortKey::asc(a("item")),
            SortKey::asc(a("price")),
        ];
        assert!(!supports_order(rep.ftree(), &keys));
        let before = rep.tuple_count();
        let (out, swaps) = restructure(rep, |t| order_violation(t, &keys));
        assert_eq!(swaps, 2); // customer past date, then past pizza
        out.check_invariants().unwrap();
        assert!(supports_order(out.ftree(), &keys));
        assert_eq!(out.tuple_count(), before);
        // And the enumeration really is sorted.
        let spec = EnumSpec::ordered(out.ftree(), &keys).unwrap();
        let rel = TupleIter::new(&out, &spec)
            .unwrap()
            .projected(&[a("customer"), a("pizza"), a("item"), a("price")], None)
            .unwrap();
        assert!(rel.is_sorted_by(&keys));
    }

    #[test]
    fn group_restructuring_lifts_group_nodes() {
        let (c, rep, _) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let group = vec![a("customer"), a("pizza")];
        assert!(!supports_group(rep.ftree(), &group));
        let (out, _) = restructure(rep, |t| group_violation(t, &group));
        assert!(supports_group(out.ftree(), &group));
        out.check_invariants().unwrap();
    }

    #[test]
    fn already_supported_order_needs_no_swaps() {
        let (c, rep, _) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![
            SortKey {
                attr: a("pizza"),
                dir: SortDir::Asc,
            },
            SortKey {
                attr: a("date"),
                dir: SortDir::Desc,
            },
        ];
        assert!(order_violation(rep.ftree(), &keys).is_none());
    }

    #[test]
    fn consolidation_under_single_group_node() {
        // Group by pizza: date-customer and item-price subtrees both hang
        // under pizza already; consolidation targets them directly.
        let (c, rep, _) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let (swaps, parent, targets) = plan_consolidation(rep.ftree(), &[a("pizza")]).unwrap();
        assert!(swaps.is_empty());
        assert_eq!(parent, rep.ftree().node_of_attr(a("pizza")));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn consolidation_with_scattered_value_nodes() {
        // Group by customer after restructuring: the date node sits between
        // customer and the leaves; consolidation must lift group nodes so
        // that the value subtrees share a parent.
        let (c, rep, _) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let group = [a("customer")];
        let (mut rep, _) = restructure(rep, |t| group_violation(t, &group));
        let (swaps, parent, targets) = plan_consolidation(rep.ftree(), &group).unwrap();
        for (p, n) in swaps {
            rep = crate::ops::swap(rep, p, n).unwrap();
        }
        rep.check_invariants().unwrap();
        // All value subtrees now under the customer node.
        let cust_node = rep.ftree().node_of_attr(a("customer")).unwrap();
        assert_eq!(parent, Some(cust_node));
        for &t in &targets {
            assert_eq!(rep.ftree().node(t).parent, Some(cust_node));
        }
    }

    #[test]
    fn full_aggregation_consolidates_at_root() {
        let (_, rep, _) = t1_rep();
        let (swaps, parent, targets) = plan_consolidation(rep.ftree(), &[]).unwrap();
        assert!(swaps.is_empty());
        assert_eq!(parent, None);
        assert_eq!(targets, rep.ftree().roots().to_vec());
    }
}

#[cfg(test)]
mod consolidation_failure_tests {
    use super::*;
    use crate::ftree::AggLabel;

    /// Value subtrees in different *trees of the forest* cannot be
    /// consolidated by upward swaps: the planner must report failure so
    /// the engine can fall back to grouped evaluation.
    #[test]
    fn forest_split_value_nodes_fail_gracefully() {
        let mut c = Catalog::new();
        let g1 = c.intern("g1");
        let g2 = c.intern("g2");
        let v1 = c.intern("v1");
        let v2 = c.intern("v2");
        let mut t = FTree::new();
        let n1 = t.add_node(NodeLabel::Atomic(vec![g1]), None);
        let n2 = t.add_node(NodeLabel::Atomic(vec![g2]), None);
        let mk_leaf = |t: &mut FTree, parent, out: AttrId, over: AttrId| {
            t.add_node(
                NodeLabel::Agg(AggLabel {
                    funcs: vec![AggOp::Count],
                    over: [over].into_iter().collect(),
                    outputs: vec![out],
                }),
                Some(parent),
            )
        };
        let x1 = c.intern("x1");
        let x2 = c.intern("x2");
        mk_leaf(&mut t, n1, v1, x1);
        mk_leaf(&mut t, n2, v2, x2);
        t.add_dep([g1, v1]);
        t.add_dep([g2, v2]);
        let err = plan_consolidation(&t, &[g1, g2]);
        assert!(matches!(err, Err(FdbError::PlanningFailed(_))));
    }

    /// Partial aggregates pinned under different group nodes on one path
    /// (the R⋈S⋈T `GROUP BY b, c` shape) also fail — the swap loop must
    /// hit its guard, not spin forever.
    #[test]
    fn path_split_value_nodes_fail_gracefully() {
        let mut c = Catalog::new();
        let b = c.intern("b");
        let d = c.intern("d");
        let cnt_a = c.intern("count_a");
        let sum_d = c.intern("sum_d");
        let a_attr = c.intern("a");
        let d_over = c.intern("d_over");
        let mut t = FTree::new();
        let nb = t.add_node(NodeLabel::Atomic(vec![b]), None);
        let nc = t.add_node(NodeLabel::Atomic(vec![d]), Some(nb));
        t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Count],
                over: [a_attr].into_iter().collect(),
                outputs: vec![cnt_a],
            }),
            Some(nb),
        );
        t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Sum(d_over)],
                over: [d_over].into_iter().collect(),
                outputs: vec![sum_d],
            }),
            Some(nc),
        );
        t.add_dep([b, cnt_a]);
        t.add_dep([d, sum_d]);
        t.add_dep([b, d]);
        let result = plan_consolidation(&t, &[b, d]);
        assert!(matches!(result, Err(FdbError::PlanningFailed(_))));
    }
}
