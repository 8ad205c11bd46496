//! The aggregation operator `γ_F(U)` — §3 of the paper.
//!
//! Given a set `U` of sibling subtrees (children of one parent, or roots),
//! the operator replaces, in every context, the product of the `U`-unions
//! by a single aggregate singleton `⟨F(U):v⟩`, where `v` is computed by the
//! linear-time recursive algorithms of §3.2 ([`crate::agg`]). The f-tree
//! gets a fresh aggregate node in place of the `U` subtrees, and the
//! dependency sets are extended per Example 5.
//!
//! Each function is compiled once per operator against the target nodes
//! (`agg::CompiledAgg`) and evaluated in every context through
//! cursors over the arena; the rewritten parent entries — untouched
//! siblings shared by id plus the new aggregate leaf — are appended to
//! the same arena. The consumed target subtrees are never copied.

use crate::agg::{eval_compiled, CompiledAgg, FoldWindow, NoMask, Sieve};
use crate::error::{FdbError, Result};
use crate::frep::{Arena, FRep, UnionId, UnionRef};
use crate::ftree::{AggOp, NodeId};
use crate::ops::rewrite_spine;
use fdb_relational::{AttrId, Value};
use std::ops::Range;

/// Where the operator applies: sibling subtrees under `parent`, or root
/// subtrees when `parent` is `None`.
#[derive(Clone, Debug)]
pub struct AggTarget {
    pub parent: Option<NodeId>,
    pub nodes: Vec<NodeId>,
}

impl AggTarget {
    /// Targets the subtree rooted at a single node.
    pub fn subtree(tree: &crate::ftree::FTree, node: NodeId) -> Self {
        AggTarget {
            parent: tree.node(node).parent,
            nodes: vec![node],
        }
    }
}

/// Applies `γ` with functions `funcs` (named `outputs`) over the target
/// subtrees. With `k > 1` functions the new node holds composite values
/// (§3.2.4); identical functions should be deduplicated by the caller
/// ([`crate::agg::partial_funcs`] does).
///
/// Each occurrence of the parent union is evaluated group by group
/// against the arena, then its rewritten entries — untouched siblings
/// shared by id plus the new aggregate leaf — are appended in order. The
/// consumed target subtrees simply become unreachable.
pub fn aggregate(
    rep: FRep,
    target: &AggTarget,
    funcs: Vec<AggOp>,
    outputs: Vec<AttrId>,
) -> Result<FRep> {
    aggregate_in(rep, target, funcs, outputs, &mut NoMask)
}

/// [`aggregate`] with the target unions read through `m`. With a
/// [`Mask`](crate::ops::select::Mask) this runs its selections and the
/// `γ` in one pass: a parent entry none of whose tuples passes is
/// dropped (pruning up the spine), so nothing is rewritten but the
/// parent unions, and a root-level `γ` whose mask leaves nothing gives
/// the empty relation.
pub(crate) fn aggregate_in<M: Sieve>(
    rep: FRep,
    target: &AggTarget,
    funcs: Vec<AggOp>,
    outputs: Vec<AttrId>,
    m: &mut M,
) -> Result<FRep> {
    if funcs.is_empty() || funcs.len() != outputs.len() {
        return Err(FdbError::InvalidOperator(
            "aggregate needs parallel funcs/outputs".into(),
        ));
    }
    let (tree, mut arena, roots) = rep.into_arena_parts();
    let mut new_tree = tree.clone();
    let new_node = new_tree.aggregate(target.parent, &target.nodes, funcs.clone(), outputs)?;

    // Validated by the tree's aggregate: every target is a child of the
    // parent (or a root).
    let positions: Vec<usize> = target
        .nodes
        .iter()
        .map(|&t| tree.child_position(t))
        .collect();
    let mut aggs: Vec<CompiledAgg> = funcs
        .iter()
        .map(|&f| CompiledAgg::new(&tree, &target.nodes, f))
        .collect();
    // One product's value; `None` when the mask leaves it no tuple.
    let mut eval = |unions: &[UnionRef<'_>]| eval_compiled(&mut aggs, &tree, unions, m);
    // A `γ` over every child of the only root consumes all the arena
    // holds: that is noted at once, and exactly, below. Otherwise each
    // consumed target union is noted, not the subtree under it.
    let consumes_all = target
        .parent
        .is_some_and(|p| tree.roots() == [p] && tree.node(p).children.len() == target.nodes.len());
    let mark = arena.entry_mark();

    let new_roots = match target.parent {
        Some(p) => rewrite_spine(&tree, &mut arena, &roots, p, &mut |arena, uid| {
            // Read-only: every group of this occurrence against the arena.
            let values = {
                let a: &Arena = arena;
                let mut unions: Vec<UnionRef<'_>> = Vec::with_capacity(positions.len());
                let groups = a.union(uid).entries().map(|e| {
                    unions.clear();
                    unions.extend(positions.iter().map(|&pos| e.child(pos)));
                    eval(&unions)
                });
                groups.collect::<Result<Vec<_>>>()?
            };
            let rec = arena.urec(uid);
            let mut specs = Vec::with_capacity(rec.len as usize);
            let mut kids: Vec<UnionId> = Vec::new();
            for (i, value) in (rec.start..rec.start + rec.len).zip(values) {
                let Some(value) = value else {
                    continue;
                };
                let e = arena.erec(i);
                kids.clear();
                kids.extend_from_slice(arena.kids_of(e));
                if !consumes_all {
                    for &pos in &positions {
                        arena.note_replaced(kids[pos]);
                    }
                }
                let leaf = leaf_union(arena, new_node, value);
                splice_leaf(arena, &mut kids, &positions, leaf);
                specs.push(arena.entry_shared_val(e.val, &kids));
            }
            Ok(Some(arena.push_union(rec.node, &specs)))
        })?,
        None => {
            if roots.iter().any(|&u| arena.union_len(u) == 0) {
                // Empty input: the aggregate of an empty relation is the
                // empty relation (no groups exist).
                return Ok(FRep::empty(new_tree));
            }
            let unions: Vec<UnionRef<'_>> = positions
                .iter()
                .map(|&pos| arena.union(roots[pos]))
                .collect();
            let Some(value) = eval(&unions)? else {
                return Ok(FRep::empty(new_tree));
            };
            if positions.len() == roots.len() {
                arena.note_all_dead();
            } else {
                for &pos in &positions {
                    arena.note_replaced(roots[pos]);
                }
            }
            let leaf = leaf_union(&mut arena, new_node, value);
            let mut out = roots;
            splice_leaf(&mut arena, &mut out, &positions, leaf);
            out
        }
    };
    if consumes_all {
        arena.note_dead_before(mark);
    }
    let out = FRep::from_arena(new_tree, arena, new_roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// The group fold on the nodes `groups`, which lie on one root path: a
/// chain of the group nodes in the given order with one aggregate leaf
/// under each group ([`crate::ftree::FTree::group_fold`]), built afresh
/// from one top-down pass over the input ([`crate::agg`]'s group fold).
/// For one group node this is what the swaps lifting it to the root and
/// `γ` with `funcs` (named `outputs`) over all its children would
/// produce. The input must have a single root.
pub fn group_fold(
    rep: FRep,
    groups: &[NodeId],
    funcs: Vec<AggOp>,
    outputs: Vec<AttrId>,
) -> Result<FRep> {
    Ok(group_fold_page(rep, groups, funcs, outputs, None)?.0)
}

/// [`group_fold`] read for the groups `page` (positions in the chain's
/// group order, the end saturated for a page without a limit): when the
/// group nodes are the first two or more nodes of the root path, in path
/// order, the
/// result holds only the groups of the root entries that overlap the
/// page, and the [`FoldWindow`] says which, and how many groups came
/// before them. Any other chain folds every group, and no window is
/// returned.
pub fn group_fold_page(
    rep: FRep,
    groups: &[NodeId],
    funcs: Vec<AggOp>,
    outputs: Vec<AttrId>,
    page: Option<Range<usize>>,
) -> Result<(FRep, Option<FoldWindow>)> {
    if funcs.is_empty() || funcs.len() != outputs.len() {
        return Err(FdbError::InvalidOperator(
            "group fold needs parallel funcs/outputs".into(),
        ));
    }
    let mut tree = rep.ftree().clone();
    let node = tree.group_fold(groups, funcs.clone(), outputs)?;
    if rep.is_empty() {
        return Ok((FRep::empty(tree), None));
    }
    let (folded, window) = crate::agg::fold_groups(rep.ftree(), rep.root(0), groups, &funcs, page)?;
    if folded.values.is_empty() {
        // A page past the last group.
        return Ok((FRep::empty(tree), window));
    }
    // Bottom-up: the aggregate leaves, then per level one entry per group
    // over the union below it, and one union per run of groups that
    // share their enclosing group.
    let mut arena = Arena::default();
    let n = folded.values.len();
    let mut below = arena.push_runs(node, folded.values, std::iter::repeat_n(1, n), None);
    for (&group, (parents, values)) in groups.iter().zip(folded.levels).rev() {
        let runs = parents.chunk_by(|a, b| a == b).map(|run| run.len() as u32);
        below = arena.push_runs(group, values, runs, Some(below));
    }
    arena.seal();
    let out = FRep::from_arena(tree, arena, vec![below]);
    debug_assert!(out.check_invariants().is_ok());
    Ok((out, window))
}

/// A one-entry, zero-children aggregate leaf `⟨F(U):v⟩`.
fn leaf_union(dst: &mut Arena, node: NodeId, value: Value) -> UnionId {
    let spec = dst.entry(node, value, &[]);
    dst.push_union(node, &[spec])
}

/// Replaces the targets at `positions` of `kids` by `leaf`, at the first
/// of them; the other kids stay, shared by id.
fn splice_leaf(arena: &mut Arena, kids: &mut Vec<UnionId>, positions: &[usize], leaf: UnionId) {
    let insert_at = *positions.iter().min().expect("at least one target");
    arena.note_shared((kids.len() - positions.len()) as u64);
    kids[insert_at] = leaf;
    let mut j = 0;
    kids.retain(|_| {
        j += 1;
        j - 1 == insert_at || !positions.contains(&(j - 1))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::{FTree, NodeLabel};
    use crate::ops::reference::assert_represents;
    use fdb_relational::ops::aggregate::PhysAggSpec;
    use fdb_relational::{
        ops as rel_ops, AggFunc, AggSpec, Catalog, GroupStrategy, Relation, Schema, Value,
    };

    /// R = Orders ⋈ Pizzas ⋈ Items over T1, built directly from the flat
    /// join (which satisfies T1's join dependencies).
    fn fig1_rep() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let customer = c.intern("customer");
        let item = c.intern("item");
        let price = c.intern("price");
        // Dates as integers: Monday=1, Tuesday=2, Friday=5.
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
        (c, rep)
    }

    #[test]
    fn fig1_factorisation_size() {
        let (_, rep) = fig1_rep();
        // Fig. 1's factorisation: 3 pizzas + 4 dates + 4 customers + 7
        // items + 7 prices... counted as singletons of the example: the
        // factorisation has 25 singletons.
        assert_eq!(rep.tuple_count(), 13);
        assert!(rep.singleton_count() < 13 * 5);
    }

    #[test]
    fn gamma_sum_price_gives_t2() {
        // Example 1, query S: replace each item-price subtree by
        // sum(price): Capricciosa 8, Hawaii 9, Margherita 6.
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let item_node = rep.ftree().node_of_attr(c.lookup("item").unwrap()).unwrap();
        let out_attr = c.intern("sumprice");
        let target = AggTarget::subtree(rep.ftree(), item_node);
        let out = aggregate(rep, &target, vec![AggOp::Sum(price)], vec![out_attr]).unwrap();
        // For each pizza, the aggregate leaf holds the pizza's price sum.
        let root = out.root(0);
        let sums: Vec<(String, Value)> = root
            .entries()
            .map(|e| {
                // children: [date-subtree, sum-leaf]
                (
                    e.value().as_str().unwrap().to_string(),
                    e.child(1).entry(0).value().clone(),
                )
            })
            .collect();
        assert_eq!(
            sums,
            vec![
                ("Capricciosa".to_string(), Value::Int(8)),
                ("Hawaii".to_string(), Value::Int(9)),
                ("Margherita".to_string(), Value::Int(6)),
            ]
        );
    }

    #[test]
    fn full_query_p_revenue_per_customer() {
        // Example 1, query P = ̟customer;sum(price)(R): partial sum per
        // pizza, swap customer up, count dates, final sum — the f-plan of
        // Example 11. Expected: Lucia 9, Mario 22, Pietro 9.
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let customer = c.lookup("customer").unwrap();
        let item_node = rep.ftree().node_of_attr(c.lookup("item").unwrap()).unwrap();
        let sum_out = c.intern("sumprice");

        // γ_sum(price) over the item subtree (T1 → T2).
        let target = AggTarget::subtree(rep.ftree(), item_node);
        let rep = aggregate(rep, &target, vec![AggOp::Sum(price)], vec![sum_out]).unwrap();

        // Swap customer above date, then above pizza (T2 → T3).
        let n_cust = rep.ftree().node_of_attr(customer).unwrap();
        let n_date = rep.ftree().node(n_cust).parent.unwrap();
        let rep = crate::ops::swap(rep, n_date, n_cust).unwrap();
        let n_pizza = rep.ftree().node(n_cust).parent.unwrap();
        let rep = crate::ops::swap(rep, n_pizza, n_cust).unwrap();
        rep.check_invariants().unwrap();

        // γ_count(date) (T3 → T4).
        let n_date = rep.ftree().node_of_attr(c.lookup("date").unwrap()).unwrap();
        let cnt_out = c.intern("countdate");
        let target = AggTarget::subtree(rep.ftree(), n_date);
        let rep = aggregate(rep, &target, vec![AggOp::Count], vec![cnt_out]).unwrap();

        // Final γ_sum over everything under customer.
        let n_cust = rep.ftree().node_of_attr(customer).unwrap();
        let below: Vec<NodeId> = rep.ftree().node(n_cust).children.clone();
        let rev_out = c.intern("revenue");
        let rep = aggregate(
            rep,
            &AggTarget {
                parent: Some(n_cust),
                nodes: below,
            },
            vec![AggOp::Sum(price)],
            vec![rev_out],
        )
        .unwrap();

        let flat = rep.flatten();
        let rows: Vec<(String, i64)> = flat
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Lucia".to_string(), 9),
                ("Mario".to_string(), 22),
                ("Pietro".to_string(), 9),
            ]
        );
    }

    #[test]
    fn root_level_aggregate_reduces_to_scalar() {
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let out_attr = c.intern("total");
        let roots = rep.ftree().roots().to_vec();
        let out = aggregate(
            rep,
            &AggTarget {
                parent: None,
                nodes: roots,
            },
            vec![AggOp::Sum(price)],
            vec![out_attr],
        )
        .unwrap();
        assert_eq!(out.tuple_count(), 1);
        // Full sum over the join: 8+8+9+9+6 = 40.
        assert_eq!(*out.root(0).entry(0).value(), Value::Int(40));
    }

    #[test]
    fn aggregate_empty_relation_is_empty() {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let out_attr = c.intern("n");
        let rel = Relation::empty(Schema::new(vec![a]));
        let rep = FRep::from_relation(&rel, FTree::path(&[a])).unwrap();
        let roots = rep.ftree().roots().to_vec();
        let out = aggregate(
            rep,
            &AggTarget {
                parent: None,
                nodes: roots,
            },
            vec![AggOp::Count],
            vec![out_attr],
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn composite_avg_as_sum_count() {
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let item_node = rep.ftree().node_of_attr(c.lookup("item").unwrap()).unwrap();
        let s_out = c.intern("s");
        let n_out = c.intern("n");
        let target = AggTarget::subtree(rep.ftree(), item_node);
        let out = aggregate(
            rep,
            &target,
            vec![AggOp::Sum(price), AggOp::Count],
            vec![s_out, n_out],
        )
        .unwrap();
        // Capricciosa: (8, 3).
        let leaf = out.root(0).entry(0).child(1).entry(0).value().clone();
        assert_eq!(leaf, Value::tup(vec![Value::Int(8), Value::Int(3)]));
    }

    #[test]
    fn mismatched_funcs_outputs_rejected() {
        let (c, rep) = fig1_rep();
        let item_node = rep.ftree().node_of_attr(c.lookup("item").unwrap()).unwrap();
        let target = AggTarget::subtree(rep.ftree(), item_node);
        let err = aggregate(rep, &target, vec![AggOp::Count], vec![]);
        assert!(matches!(err, Err(FdbError::InvalidOperator(_))));
    }

    /// The relational reference of `γ`: group the flattening by every
    /// attribute outside the target subtrees (for a fixed context those
    /// rows are exactly the target subtrees' tuples), over the simulated
    /// f-tree.
    fn check_aggregate(rep: &FRep, target: &AggTarget, funcs: &[(AggOp, AggFunc, AttrId)]) {
        let consumed: Vec<AttrId> = target
            .nodes
            .iter()
            .flat_map(|&n| rep.ftree().subtree_attrs(n))
            .collect();
        let group: Vec<AttrId> = rep
            .ftree()
            .all_attrs()
            .into_iter()
            .filter(|a| !consumed.contains(a))
            .collect();
        let specs: Vec<PhysAggSpec> = funcs
            .iter()
            .map(|&(_, f, out)| AggSpec::new(f, out).into())
            .collect();
        let want = rel_ops::group_aggregate(&rep.flatten(), &group, &specs, GroupStrategy::Sort);
        let (ops, outs): (Vec<AggOp>, Vec<AttrId>) = funcs.iter().map(|(o, _, a)| (*o, *a)).unzip();
        let mut tree = rep.ftree().clone();
        tree.aggregate(target.parent, &target.nodes, ops.clone(), outs.clone())
            .unwrap();
        let got = aggregate(rep.clone(), target, ops, outs).unwrap();
        assert_represents(&got, &want, &tree);
    }

    #[test]
    fn inplace_aggregate_matches_legacy() {
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let item_node = rep.ftree().node_of_attr(c.lookup("item").unwrap()).unwrap();
        let target = AggTarget::subtree(rep.ftree(), item_node);
        let funcs = [
            (AggOp::Sum(price), AggFunc::Sum(price), c.intern("sumprice")),
            (AggOp::Count, AggFunc::Count, c.intern("n")),
        ];
        check_aggregate(&rep, &target, &funcs);
    }

    #[test]
    fn inplace_root_aggregate_matches_legacy() {
        let (mut c, rep) = fig1_rep();
        let price = c.lookup("price").unwrap();
        let out_attr = c.intern("total");
        let roots = rep.ftree().roots().to_vec();
        let target = AggTarget {
            parent: None,
            nodes: roots,
        };
        check_aggregate(
            &rep,
            &target,
            &[(AggOp::Sum(price), AggFunc::Sum(price), out_attr)],
        );
        let out = aggregate(rep, &target, vec![AggOp::Sum(price)], vec![out_attr]).unwrap();
        assert_eq!(*out.root(0).entry(0).value(), Value::Int(40));
    }

    #[test]
    fn inplace_aggregate_of_empty_relation_is_empty() {
        // Below the root: the empty relation has no parent entry to
        // rewrite.
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let out_attr = c.intern("n");
        let rel = Relation::empty(Schema::new(vec![a, b]));
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let target = AggTarget::subtree(rep.ftree(), nb);
        let out = aggregate(rep, &target, vec![AggOp::Count], vec![out_attr]).unwrap();
        out.check_invariants().unwrap();
        assert!(out.is_empty());
    }
}
