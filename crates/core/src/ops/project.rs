//! Projection and renaming on factorisations.
//!
//! A projection removes attributes that are not wanted: attributes shared
//! with the rest of their equivalence class are just dropped from the label
//! (no data change); a node whose class empties must first become a leaf —
//! implemented, as in FDB, by swapping its children above it — and is then
//! removed (§2.1). Renaming is a constant-time label edit.

use crate::error::Result;
use crate::frep::{FRep, UnionId};
use crate::ftree::{NodeId, Projection};
use crate::ops::{rewrite_spine, swap};
use fdb_relational::AttrId;

/// Removes a leaf node's union everywhere (the data-level step of
/// projection): the parent level is re-emitted with the leaf's kid
/// position dropped; every kept fragment is shared by id.
pub fn remove_leaf(rep: FRep, node: NodeId) -> Result<FRep> {
    let (tree, mut arena, roots) = rep.into_arena_parts();
    let parent = tree.node(node).parent;
    let mut new_tree = tree.clone();
    let pos = new_tree.remove_leaf(node)?;
    let roots = match parent {
        Some(p) => rewrite_spine(&tree, &mut arena, &roots, p, &mut |arena, uid| {
            let rec = arena.urec(uid);
            let mut specs = Vec::with_capacity(rec.len as usize);
            let mut kid_ids: Vec<UnionId> = Vec::new();
            for i in rec.start..rec.start + rec.len {
                let e = arena.erec(i);
                kid_ids.clear();
                for j in 0..e.kids_len {
                    if j as usize != pos {
                        arena.note_shared(1);
                        kid_ids.push(arena.kid_at(e.kids_start + j));
                    } else {
                        arena.note_replaced(arena.kid_at(e.kids_start + j));
                    }
                }
                specs.push(arena.entry_shared_val(e.val, &kid_ids));
            }
            Ok(Some(arena.push_union(rec.node, &specs)))
        })?,
        // An empty root union makes the whole relation empty; dropping
        // it must not bring the other roots' tuples back.
        None if arena.union_len(roots[pos]) == 0 => return Ok(FRep::empty(new_tree)),
        None => {
            arena.note_replaced(roots[pos]);
            let mut out = Vec::with_capacity(roots.len() - 1);
            for (i, &r) in roots.iter().enumerate() {
                if i != pos {
                    arena.note_shared(1);
                    out.push(r);
                }
            }
            out
        }
    };
    let out = FRep::from_arena(new_tree, arena, roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// Projects away one attribute.
///
/// [`crate::ftree::FTree::projection`] decides the f-tree step. If the
/// attribute shares its node with other class members, only the label
/// changes. Otherwise the node is pushed down to a leaf with swaps (each
/// swap lifts one child above it, so this terminates within the tree
/// height) and removed. Projection on factorised *sets* needs no
/// deduplication: the remaining structure keys distinct combinations.
pub fn project_away(mut rep: FRep, attr: AttrId) -> Result<FRep> {
    match rep.ftree().projection(attr)? {
        Projection::ShrinkClass(node) => {
            // The representative value stays; the dependency edges are
            // rewritten to a remaining member.
            rep.ftree_mut().shrink_class(node, attr)?;
            Ok(rep)
        }
        Projection::PushDownAndRemove(node) => {
            while let Some(&c) = rep.ftree().node(node).children.first() {
                rep = swap(rep, node, c)?;
            }
            remove_leaf(rep, node)
        }
    }
}

/// Renames an output attribute (constant time, §2.1: names live in the
/// f-tree, not in singletons).
pub fn rename(mut rep: FRep, from: AttrId, to: AttrId) -> Result<FRep> {
    rep.ftree_mut().rename_attr(from, to)?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::FTree;
    use crate::ops::reference::assert_represents;
    use crate::plan::{apply_to_tree, FOp};
    use fdb_relational::{ops as rel_ops, Catalog, Relation, Schema, Value};

    fn abc_rep() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let x = c.intern("x");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b, x]),
            [(1, 10, 7), (1, 20, 7), (2, 10, 8), (2, 10, 9)]
                .into_iter()
                .map(|(p, q, r)| vec![Value::Int(p), Value::Int(q), Value::Int(r)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b, x])).unwrap();
        (c, rep)
    }

    #[test]
    fn remove_leaf_projects() {
        let (c, rep) = abc_rep();
        let x = c.lookup("x").unwrap();
        let leaf = rep.ftree().node_of_attr(x).unwrap();
        let out = remove_leaf(rep, leaf).unwrap();
        // π_{a,b}: three distinct pairs.
        assert_eq!(out.tuple_count(), 3);
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn project_away_internal_node() {
        let (c, rep) = abc_rep();
        let b = c.lookup("b").unwrap();
        let out = project_away(rep, b).unwrap();
        out.check_invariants().unwrap();
        // π_{a,x}: (1,7), (2,8), (2,9).
        assert_eq!(out.tuple_count(), 3);
        let names: Vec<AttrId> = out.schema().attrs().to_vec();
        assert!(!names.contains(&b));
    }

    #[test]
    fn project_away_root() {
        let (c, rep) = abc_rep();
        let a = c.lookup("a").unwrap();
        let out = project_away(rep, a).unwrap();
        out.check_invariants().unwrap();
        // π_{b,x}: (10,7), (20,7), (10,8), (10,9).
        assert_eq!(out.tuple_count(), 4);
    }

    #[test]
    fn inplace_project_matches_legacy() {
        // Leaf removal, internal-node push-down and root projection,
        // each against the relational projection of the flattening over
        // the simulated f-tree.
        for attr_name in ["x", "b", "a"] {
            let (c, rep) = abc_rep();
            let attr = c.lookup(attr_name).unwrap();
            let keep: Vec<AttrId> = rep
                .ftree()
                .all_attrs()
                .into_iter()
                .filter(|&a| a != attr)
                .collect();
            let want = rel_ops::project(&rep.flatten(), &keep, true);
            let mut tree = rep.ftree().clone();
            apply_to_tree(&mut tree, &FOp::ProjectAway { attr }).unwrap();
            let got = project_away(rep, attr).unwrap();
            assert_represents(&got, &want, &tree);
        }
    }

    #[test]
    fn inplace_remove_leaf_matches_legacy() {
        let (c, rep) = abc_rep();
        let x = c.lookup("x").unwrap();
        let leaf = rep.ftree().node_of_attr(x).unwrap();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let want = rel_ops::project(&rep.flatten(), &[a, b], true);
        let mut tree = rep.ftree().clone();
        tree.remove_leaf(leaf).unwrap();
        let got = remove_leaf(rep, leaf).unwrap();
        assert_represents(&got, &want, &tree);
        assert_eq!(got.tuple_count(), 3);
    }

    #[test]
    fn removing_an_empty_root_keeps_the_relation_empty() {
        // A product with an empty relation is empty even though the
        // other root's union is not.
        let (mut c, rep) = abc_rep();
        let w = c.intern("w");
        let empty = FRep::from_relation(&Relation::empty(Schema::new(vec![w])), FTree::path(&[w]));
        let joined = crate::ops::product(rep, empty.unwrap());
        assert!(joined.is_empty());
        let out = project_away(joined, w).unwrap();
        out.check_invariants().unwrap();
        assert!(out.is_empty());
        assert_eq!(out.tuple_count(), 0);
    }

    #[test]
    fn rename_keeps_data() {
        let (mut c, rep) = abc_rep();
        let a = c.lookup("a").unwrap();
        let z = c.intern("z");
        let before = rep.tuple_count();
        let out = rename(rep, a, z).unwrap();
        assert_eq!(out.tuple_count(), before);
        assert!(out.schema().contains(z));
        assert!(!out.schema().contains(a));
    }
}
