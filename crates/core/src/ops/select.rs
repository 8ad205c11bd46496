//! Constant selections `A θ c` on factorisations.
//!
//! A constant selection filters the entries of the attribute's unions in
//! one traversal of the relevant fragment (§5.1); entries whose subtrees
//! become empty are pruned on the way back up. The surviving entries'
//! subtrees are shared by id, never copied.

use crate::error::{FdbError, Result};
use crate::frep::{value_for_attr, Arena, FRep, UnionId};
use crate::ftree::{FTree, NodeId, NodeLabel};
use fdb_relational::{AttrId, CmpOp, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One resolved constant selection: the node it filters and the
/// entry-level predicate.
struct NodeFilter {
    label: NodeLabel,
    attr: AttrId,
    op: CmpOp,
    value: Value,
}

impl NodeFilter {
    fn passes(&self, arena: &Arena, node: NodeId, val: u32) -> bool {
        let v = value_for_attr(&self.label, arena.value_at(node, val), self.attr)
            .expect("node exposes the selected attribute");
        self.op.eval(v.cmp(&self.value))
    }
}

/// Filters the factorised relation to tuples with `attr θ value`.
///
/// Works on atomic attributes and on aggregate outputs alike — the latter
/// is how `HAVING` clauses execute after aggregation (§2). The surviving
/// fragment is appended to the same arena; untouched subtrees and
/// all-pass unions are shared by id.
pub fn select_const(rep: FRep, attr: AttrId, op: CmpOp, value: &Value) -> Result<FRep> {
    apply_filters(rep, &[(attr, op, value.clone())])
}

/// A run of consecutive `SelectConst` operators **fused into one
/// arena walk**: the staged pipeline executor compiles each stage's
/// selections into per-node entry filters and applies them all in a
/// single pass from the roots. Filters are resolved in plan
/// order (first unresolved attribute wins the error, exactly as in
/// sequential execution); because constant selections only remove
/// entries and never create them, simultaneous application reaches the
/// same pruning fixpoint as applying them one at a time.
pub(crate) fn apply_filters(rep: FRep, filters: &[(AttrId, CmpOp, Value)]) -> Result<FRep> {
    let (tree, mut arena, roots) = rep.into_arena_parts();
    let mut per_node: BTreeMap<NodeId, Vec<NodeFilter>> = BTreeMap::new();
    for (attr, op, value) in filters {
        let node = tree
            .node_of_attr(*attr)
            .ok_or_else(|| FdbError::Unresolved(format!("attribute {attr} not in f-tree")))?;
        per_node.entry(node).or_default().push(NodeFilter {
            label: tree.node(node).label.clone(),
            attr: *attr,
            op: *op,
            value: value.clone(),
        });
    }
    // A union must be entered iff its subtree contains a filtered node:
    // precisely the nodes on some filtered node's root path.
    let mut active: BTreeSet<NodeId> = BTreeSet::new();
    for &n in per_node.keys() {
        active.extend(tree.root_path(n));
    }
    // Memoised over source union ids: fragments shared by earlier
    // operators are filtered once and re-shared (`None` =
    // pruned), keeping the DAG a DAG.
    let mut memo: BTreeMap<u32, Option<UnionId>> = BTreeMap::new();
    let mut new_roots = Vec::with_capacity(roots.len());
    for (&r, &rn) in roots.iter().zip(tree.roots()) {
        if active.contains(&rn) {
            let nu = filter_walk(&tree, &mut arena, r, rn, &per_node, &active, &mut memo)?;
            new_roots.push(nu.unwrap_or_else(|| arena.empty_union(rn)));
        } else {
            arena.note_shared(1);
            new_roots.push(r);
        }
    }
    let out = FRep::from_arena(tree, arena, new_roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// Rewrites one union under the fused filter set; `None` prunes it.
fn filter_walk(
    tree: &FTree,
    arena: &mut Arena,
    uid: UnionId,
    node: NodeId,
    per_node: &BTreeMap<NodeId, Vec<NodeFilter>>,
    active: &BTreeSet<NodeId>,
    memo: &mut BTreeMap<u32, Option<UnionId>>,
) -> Result<Option<UnionId>> {
    if let Some(&m) = memo.get(&uid.0) {
        if m.is_some() {
            arena.note_shared(1);
        }
        return Ok(m);
    }
    let rec = arena.urec(uid);
    debug_assert_eq!(rec.node, node);
    let filters = per_node.get(&node);
    let children = &tree.node(node).children;
    let mut specs = Vec::with_capacity(rec.len as usize);
    let mut kid_ids: Vec<UnionId> = Vec::new();
    let mut unchanged = true;
    // Kid shares are tallied locally and committed only when the
    // rewritten union is actually emitted — the unchanged-wholesale
    // path discards its specs and must not count them.
    let mut shared_here: u64 = 0;
    'entry: for i in rec.start..rec.start + rec.len {
        let e = arena.erec(i);
        if let Some(fs) = filters {
            if !fs.iter().all(|f| f.passes(arena, node, e.val)) {
                unchanged = false;
                continue;
            }
        }
        kid_ids.clear();
        for (k, &cn) in children.iter().enumerate() {
            let old = arena.kid_at(e.kids_start + k as u32);
            if active.contains(&cn) {
                match filter_walk(tree, arena, old, cn, per_node, active, memo)? {
                    None => {
                        unchanged = false;
                        continue 'entry;
                    }
                    Some(nu) => {
                        unchanged &= nu == old;
                        kid_ids.push(nu);
                    }
                }
            } else {
                shared_here += 1;
                kid_ids.push(old);
            }
        }
        specs.push(arena.entry_shared_val(e.val, &kid_ids));
    }
    if unchanged {
        arena.note_shared(1);
        memo.insert(uid.0, Some(uid));
        return Ok(Some(uid));
    }
    if specs.is_empty() {
        memo.insert(uid.0, None);
        return Ok(None);
    }
    arena.note_shared(shared_here);
    let nu = arena.push_union(node, &specs);
    memo.insert(uid.0, Some(nu));
    Ok(Some(nu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::FTree;
    use crate::ops::reference::assert_represents;
    use fdb_relational::{ops as rel_ops, Catalog, Predicate, Relation, Schema};

    fn items() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let item = c.intern("item");
        let price = c.intern("price");
        let rel = Relation::from_rows(
            Schema::new(vec![item, price]),
            [("base", 6), ("ham", 1), ("mushrooms", 1), ("pineapple", 2)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[item, price])).unwrap();
        (c, rep)
    }

    #[test]
    fn select_on_root_attribute() {
        let (c, rep) = items();
        let item = c.lookup("item").unwrap();
        let out = select_const(rep, item, CmpOp::Eq, &Value::str("ham")).unwrap();
        assert_eq!(out.tuple_count(), 1);
        let flat = out.flatten();
        assert_eq!(flat.row(0)[1], Value::Int(1));
    }

    #[test]
    fn select_on_leaf_prunes_upwards() {
        let (c, rep) = items();
        let price = c.lookup("price").unwrap();
        // price > 10 matches nothing: all item entries must be pruned.
        let out = select_const(rep, price, CmpOp::Gt, &Value::Int(10)).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.singleton_count(), 0);
    }

    #[test]
    fn select_keeps_matching_branches_only() {
        let (c, rep) = items();
        let price = c.lookup("price").unwrap();
        let out = select_const(rep, price, CmpOp::Le, &Value::Int(2)).unwrap();
        out.check_invariants().unwrap();
        assert_eq!(out.tuple_count(), 3);
        // "base" (price 6) disappeared from the item union.
        let names: Vec<String> = out
            .root(0)
            .entries()
            .map(|e| e.value().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["ham", "mushrooms", "pineapple"]);
    }

    #[test]
    fn select_ne_and_ranges_compose() {
        let (c, rep) = items();
        let price = c.lookup("price").unwrap();
        let step1 = select_const(rep, price, CmpOp::Ne, &Value::Int(1)).unwrap();
        let step2 = select_const(step1, price, CmpOp::Lt, &Value::Int(6)).unwrap();
        assert_eq!(step2.tuple_count(), 1);
        assert_eq!(*step2.root(0).entry(0).value(), Value::str("pineapple"));
    }

    #[test]
    fn unknown_attribute_errors() {
        let (_, rep) = items();
        let err = select_const(rep, AttrId(99), CmpOp::Eq, &Value::Int(0));
        assert!(matches!(err, Err(FdbError::Unresolved(_))));
    }

    #[test]
    fn inplace_select_matches_legacy() {
        // The reference is the relational selection of the flattening,
        // refactorised over the unchanged f-tree.
        for (attr_name, op, v) in [
            ("price", CmpOp::Le, Value::Int(2)),
            ("price", CmpOp::Gt, Value::Int(10)), // prunes everything
            ("item", CmpOp::Eq, Value::str("ham")),
            ("price", CmpOp::Ge, Value::Int(0)), // all-pass: shared wholesale
        ] {
            let (c, rep) = items();
            let attr = c.lookup(attr_name).unwrap();
            let want = rel_ops::select(&rep.flatten(), &[Predicate::AttrCmp(attr, op, v.clone())]);
            let tree = rep.ftree().clone();
            let got = select_const(rep, attr, op, &v).unwrap();
            assert_represents(&got, &want, &tree);
        }
    }

    #[test]
    fn all_pass_select_shares_and_counts() {
        let (c, rep) = items();
        let price = c.lookup("price").unwrap();
        let before = rep.stats();
        let out = select_const(rep, price, CmpOp::Ge, &Value::Int(0)).unwrap();
        let after = out.stats();
        // Nothing filtered: the whole representation is shared, no new
        // union appended, and the share is recorded.
        assert_eq!(after.unions, before.unions);
        assert!(after.copies_avoided > before.copies_avoided);
    }

    #[test]
    fn fused_filter_batch_matches_sequential_selects() {
        let (c, rep) = items();
        let item = c.lookup("item").unwrap();
        let price = c.lookup("price").unwrap();
        let filters = vec![
            (price, CmpOp::Le, Value::Int(6)),
            (item, CmpOp::Ne, Value::str("base")),
            (price, CmpOp::Ge, Value::Int(2)),
        ];
        let mut sequential = rep.clone();
        for (a, o, v) in &filters {
            sequential = select_const(sequential, *a, *o, v).unwrap();
        }
        let fused = apply_filters(rep, &filters).unwrap();
        fused.check_invariants().unwrap();
        assert!(fused.same_data(&sequential));
        assert_eq!(fused.tuple_count(), 1); // pineapple only
    }
}
