//! Restructuring operators: swap `χ_{A,B}`, merge, absorb (§2.1, §4.2).
//!
//! * `swap` exchanges a node with its parent while preserving the path
//!   constraint: `⋃_a (⟨A:a⟩×E_a×⋃_b (⟨B:b⟩×F_b×G_ab))` becomes
//!   `⋃_b (⟨B:b⟩×F_b×⋃_a (⟨A:a⟩×E_a×G_ab))`. The independent subtrees
//!   `F_b` are deduplicated (first occurrence kept, the rest dropped) and
//!   every `E_a`/`F_b`/`G_ab` fragment is shared by id, so the
//!   factorisation can only shrink here; `Regroup` is the kernel.
//! * `merge` implements a selection `A = B` on sibling nodes as a linear
//!   intersection of their sorted unions.
//! * `absorb` implements `A = B` when `B`'s node is a descendant of `A`'s:
//!   each `B`-union below an `A`-value is restricted to that value.

use crate::dense::DenseIds;
use crate::error::{FdbError, Result};
use crate::frep::{Arena, Col, EntryRec, EntrySpec, FRep, UnionId};
use crate::ftree::{FTree, NodeId};
use crate::ops::rewrite_spine;
use fdb_relational::Value;

/// Swap `χ_{A,B}`: `b` (a child of `a`) becomes `a`'s parent.
///
/// The regrouped `b`-over-`a` levels are appended to the same arena
/// while the `E_a`, `F_b` and `G_ab` fragments are shared by id — the
/// shared `E_a` fragments are referenced from every b-branch without any
/// copy at all.
pub fn swap(rep: FRep, a: NodeId, b: NodeId) -> Result<FRep> {
    let (tree, mut arena, roots) = rep.into_arena_parts();
    if tree.node(b).parent != Some(a) {
        return Err(FdbError::InvalidOperator(format!(
            "swap requires {b:?} to be a child of {a:?}"
        )));
    }
    let b_children_before = tree.node(b).children.clone();
    let mut new_tree = tree.clone();
    let outcome = new_tree.swap(a, b)?;
    let pos_of = |n: NodeId| {
        b_children_before
            .iter()
            .position(|&c| c == n)
            .expect("partitioned child came from b") as u32
    };
    let mut regroup = Regroup::new(
        a,
        b,
        outcome.b_pos_in_a as u32,
        outcome.moved_up.iter().map(|&n| pos_of(n)).collect(),
        outcome.stayed.iter().map(|&n| pos_of(n)).collect(),
    );
    let roots = rewrite_spine(&tree, &mut arena, &roots, a, &mut |arena, uid| {
        Ok(Some(regroup.run(arena, uid)))
    })?;
    let out = FRep::from_arena(new_tree, arena, roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// The regroup kernel of one `χ_{A,B}` operator, with scratch reused
/// across every `a`-union the operator rewrites — after the first
/// union, regrouping one allocates nothing.
///
/// Per `a`-union of `n` (a-entry, b-entry) pairs with `D` distinct
/// b-values, in O(n + D log D):
/// 1. walk the pairs in a-order, giving equal b-values one dense id
///    through a seeded [`DenseIds`] table (sized by `D`, not `n`);
/// 2. sort the `D` distinct values (`Value::cmp`, so every comparison
///    is between *distinct* values);
/// 3. walk the pairs again and counting-scatter them into b-order —
///    stable, so a stays ascending within each b-group, and the first
///    occurrence of a b-value (the one whose `F_b` is kept) leads its
///    group;
/// 4. append the kid lists straight into the arena's kid table, its
///    tables reserved from the exact output counts.
///
/// Not a k-way merge of the sorted b-unions: under a typical a-entry
/// those runs are about one entry long, so a merge degenerates into a
/// full comparison sort of all `n` pairs. Setup scales with `n`, never
/// with the column or arena size.
struct Regroup {
    a: NodeId,
    b: NodeId,
    /// Position of `b` among `a`'s children before the swap.
    b_pos: u32,
    /// Kid positions of `b`'s children that move up with it (`F_b`)
    /// and that stay under `a` (`G_ab`).
    moved: Vec<u32>,
    stayed: Vec<u32>,
    /// Dense ids of the b-values, seeded per operator.
    table: DenseIds,
    /// Per pair, in a-order: the dense id of its b-value.
    ids: Vec<u32>,
    /// Per pair, grouped by b-value rank: its a-entry and b-entry.
    grouped: Vec<[u32; 2]>,
    /// Per dense id: the first occurrence's b-entry record (its value
    /// index and `F_b` are the ones kept).
    first: Vec<EntryRec>,
    /// Per dense id: its pair count, then its group's scatter cursor
    /// (its group's end once the scatter is done).
    cursor: Vec<u32>,
    /// Dense ids in ascending b-value order.
    order: Vec<u32>,
    a_specs: Vec<EntrySpec>,
    b_specs: Vec<EntrySpec>,
}

impl Regroup {
    fn new(a: NodeId, b: NodeId, b_pos: u32, moved: Vec<u32>, stayed: Vec<u32>) -> Regroup {
        Regroup {
            a,
            b,
            b_pos,
            moved,
            stayed,
            table: DenseIds::new(),
            ids: Vec::new(),
            grouped: Vec::new(),
            first: Vec::new(),
            cursor: Vec::new(),
            order: Vec::new(),
            a_specs: Vec::new(),
            b_specs: Vec::new(),
        }
    }

    /// Regroups the `a`-union `uid` into a `b`-union appended to `arena`;
    /// the `b`-unions under it are noted dead (the `a`-union itself is
    /// noted by `rewrite_spine`).
    fn run(&mut self, arena: &mut Arena, uid: UnionId) -> UnionId {
        self.collect(arena, uid);
        arena.note_dead(self.ids.len() as u64);
        if self.ids.is_empty() {
            return arena.empty_union(self.b);
        }
        self.rank(arena.col(self.b));
        self.scatter(arena, uid);
        self.emit(arena)
    }

    /// The `b`-union under a-entry `ea`.
    fn b_union(&self, arena: &Arena, ea: EntryRec) -> std::ops::Range<u32> {
        let ub = arena.urec(arena.kid_at(ea.kids_start + self.b_pos));
        ub.start..ub.start + ub.len
    }

    /// Step 1: the dense id of every pair's b-value, in a-order.
    fn collect(&mut self, arena: &Arena, uid: UnionId) {
        let ua = arena.urec(uid);
        let a_range = ua.start..ua.start + ua.len;
        let n = a_range
            .clone()
            .map(|i| self.b_union(arena, arena.erec(i)).len())
            .sum();
        self.ids.clear();
        self.ids.reserve(n);
        self.table.clear();
        self.first.clear();
        self.cursor.clear();
        if n == 0 {
            return;
        }
        let col = arena.col(self.b);
        for i in a_range {
            for j in self.b_union(arena, arena.erec(i)) {
                let id = self.intern(col, arena.erec(j));
                self.cursor[id as usize] += 1;
                self.ids.push(id);
            }
        }
    }

    /// The dense id of `eb`'s b-value, assigned on first sight.
    fn intern(&mut self, col: Col<'_>, eb: EntryRec) -> u32 {
        let id = self.table.intern(&col, eb.val);
        if id as usize == self.first.len() {
            self.first.push(eb);
            self.cursor.push(0);
        }
        id
    }

    /// Step 2: the distinct b-values in ascending order; each id's
    /// cursor becomes the start of its group.
    fn rank(&mut self, col: Col<'_>) {
        let first = &self.first;
        self.order.clear();
        self.order.extend(0..first.len() as u32);
        self.order.sort_unstable_by(|&x, &y| {
            col.get(first[x as usize].val)
                .cmp(col.get(first[y as usize].val))
        });
        let mut at = 0u32;
        for &id in &self.order {
            let count = std::mem::replace(&mut self.cursor[id as usize], at);
            at += count;
        }
    }

    /// Step 3: a second walk over the pairs, in the same a-order,
    /// scattering each into its group.
    fn scatter(&mut self, arena: &Arena, uid: UnionId) {
        self.grouped.clear();
        self.grouped.resize(self.ids.len(), [0; 2]);
        let ua = arena.urec(uid);
        let mut k = 0;
        for i in ua.start..ua.start + ua.len {
            for j in self.b_union(arena, arena.erec(i)) {
                let c = &mut self.cursor[self.ids[k] as usize];
                self.grouped[*c as usize] = [i, j];
                *c += 1;
                k += 1;
            }
        }
    }

    /// Step 4: one `b`-entry per distinct value (kids `F_b` of its
    /// first occurrence, then the inner `a`-union), one inner `a`-entry
    /// per pair (kids `E_a` without the b-union, then `G_ab`).
    fn emit(&mut self, arena: &mut Arena) -> UnionId {
        let (n, d) = (self.ids.len(), self.order.len());
        // Every a-entry of one union has the arity of `a`'s child list.
        let a_kids = arena.erec(self.grouped[0][0]).kids_len;
        let per_a = (a_kids as usize - 1) + self.stayed.len();
        let per_b = self.moved.len() + 1;
        arena.reserve(d + 1, n + d, n * per_a + d * per_b);
        // The kid tally of the map-based regroup this replaced: every
        // kid but the inner a-union is a shared fragment.
        arena.note_shared((n * per_a + d * self.moved.len()) as u64);
        self.b_specs.clear();
        let mut start = 0usize;
        for &id in &self.order {
            let end = self.cursor[id as usize] as usize;
            self.a_specs.clear();
            for &[ia, ib] in &self.grouped[start..end] {
                let ea = arena.erec(ia);
                let mark = arena.kids_mark();
                for k in (0..a_kids).filter(|&k| k != self.b_pos) {
                    arena.push_kid(arena.kid_at(ea.kids_start + k));
                }
                if !self.stayed.is_empty() {
                    let eb = arena.erec(ib);
                    for &k in &self.stayed {
                        arena.push_kid(arena.kid_at(eb.kids_start + k));
                    }
                }
                self.a_specs.push(arena.entry_since(ea.val, mark));
            }
            let inner = arena.push_union(self.a, &self.a_specs);
            let fb = self.first[id as usize];
            let mark = arena.kids_mark();
            for &k in &self.moved {
                arena.push_kid(arena.kid_at(fb.kids_start + k));
            }
            arena.push_kid(inner);
            self.b_specs.push(arena.entry_since(fb.val, mark));
            start = end;
        }
        arena.push_union(self.b, &self.b_specs)
    }
}

/// Merge: implements a selection `A = B` for sibling nodes by intersecting
/// their sorted unions (linear in the union sizes). The intersected union
/// is appended to the same arena; matched entries share both sides' child
/// fragments by id and untouched siblings are never copied.
pub fn merge(rep: FRep, a: NodeId, b: NodeId) -> Result<FRep> {
    let (tree, mut arena, roots) = rep.into_arena_parts();
    let parent = tree.node(a).parent;
    let mut new_tree = tree.clone();
    let outcome = new_tree.merge(a, b)?;
    let (a_pos, b_pos) = (outcome.a_pos, outcome.b_pos);
    let new_roots = match parent {
        None => {
            let mut out = Vec::with_capacity(roots.len() - 1);
            for (i, &r) in roots.iter().enumerate() {
                if i == b_pos {
                    continue;
                }
                if i == a_pos {
                    out.push(intersect_unions(&mut arena, roots[a_pos], roots[b_pos], a));
                    arena.note_replaced(roots[a_pos]);
                    arena.note_replaced(roots[b_pos]);
                } else {
                    arena.note_shared(1);
                    out.push(r);
                }
            }
            if out.iter().any(|&u| arena.union_len(u) == 0) {
                // Empty relation: normalise every root to a fresh empty
                // union (the source arena stays as garbage for the
                // per-plan compaction).
                arena.note_all_dead();
                out = new_tree
                    .roots()
                    .iter()
                    .map(|&r| arena.empty_union(r))
                    .collect();
            }
            out
        }
        Some(p) => rewrite_spine(&tree, &mut arena, &roots, p, &mut |arena, uid| {
            let rec = arena.urec(uid);
            let mut specs = Vec::with_capacity(rec.len as usize);
            let mut kid_ids: Vec<UnionId> = Vec::new();
            for i in rec.start..rec.start + rec.len {
                let e = arena.erec(i);
                let ua = arena.kid_at(e.kids_start + a_pos as u32);
                let ub = arena.kid_at(e.kids_start + b_pos as u32);
                let merged = intersect_unions(arena, ua, ub, a);
                arena.note_replaced(ua);
                arena.note_replaced(ub);
                if arena.union_len(merged) == 0 {
                    continue; // dangling combination: prune this entry
                }
                kid_ids.clear();
                for j in 0..e.kids_len {
                    if j as usize == b_pos {
                        continue;
                    }
                    if j as usize == a_pos {
                        kid_ids.push(merged);
                    } else {
                        arena.note_shared(1);
                        kid_ids.push(arena.kid_at(e.kids_start + j));
                    }
                }
                specs.push(arena.entry_shared_val(e.val, &kid_ids));
            }
            Ok(Some(arena.push_union(rec.node, &specs)))
        })?,
    };
    let out = FRep::from_arena(new_tree, arena, new_roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// Sorted intersection of two unions; matched entries concatenate both
/// sides' kid ids (shared, never copied), so the merged node keeps `a`'s
/// children then `b`'s.
fn intersect_unions(arena: &mut Arena, ua: UnionId, ub: UnionId, node: NodeId) -> UnionId {
    // Phase 1 (read-only): the sorted intersection as value indices of
    // `a`'s column plus the concatenated shared kid lists.
    let matched: Vec<(u32, Vec<UnionId>)> = {
        let ra = arena.urec(ua);
        let rb = arena.urec(ub);
        let mut out = Vec::new();
        let mut j = rb.start;
        for i in ra.start..ra.start + ra.len {
            let ea = arena.erec(i);
            let va = arena.value_at(ra.node, ea.val);
            while j < rb.start + rb.len && arena.value_at(rb.node, arena.erec(j).val) < va {
                j += 1;
            }
            if j < rb.start + rb.len {
                let eb = arena.erec(j);
                if arena.value_at(rb.node, eb.val) == va {
                    j += 1;
                    let kids: Vec<UnionId> = (0..ea.kids_len)
                        .map(|k| arena.kid_at(ea.kids_start + k))
                        .chain((0..eb.kids_len).map(|k| arena.kid_at(eb.kids_start + k)))
                        .collect();
                    out.push((ea.val, kids));
                }
            }
        }
        out
    };
    let mut specs = Vec::with_capacity(matched.len());
    for (val, kids) in matched {
        arena.note_shared(kids.len() as u64);
        specs.push(arena.entry_shared_val(val, &kids));
    }
    arena.push_union(node, &specs)
}

/// Absorb: implements a selection `A = B` when `desc` (holding `B`) is a
/// strict descendant of `anc` (holding `A`). The restricted levels
/// between `anc` and `desc` are appended to the same arena; the matching
/// `desc` entry's children and every untouched sibling are shared by id.
pub fn absorb(rep: FRep, anc: NodeId, desc: NodeId) -> Result<FRep> {
    let (tree, mut arena, roots) = rep.into_arena_parts();
    if !tree.is_ancestor(anc, desc) {
        return Err(FdbError::InvalidOperator(format!(
            "absorb requires {desc:?} below {anc:?}"
        )));
    }
    let mut new_tree = tree.clone();
    let outcome = new_tree.absorb(anc, desc)?;
    let full = tree.root_path(desc);
    let anc_i = full
        .iter()
        .position(|&n| n == anc)
        .expect("anc on desc's root path");
    // Path from anc down to desc's parent, inclusive.
    let inner: Vec<NodeId> = full[anc_i..full.len() - 1].to_vec();
    let desc_pos = outcome.pos;
    let roots = rewrite_spine(&tree, &mut arena, &roots, anc, &mut |arena, uid| {
        let rec = arena.urec(uid);
        let mut specs = Vec::with_capacity(rec.len as usize);
        for i in rec.start..rec.start + rec.len {
            let e = arena.erec(i);
            let v = arena.value_at(rec.node, e.val).clone();
            if let Some(kids) = restrict_entry(&tree, arena, e, &inner, desc_pos, &v) {
                specs.push(arena.entry_shared_val(e.val, &kids));
            }
        }
        Ok(Some(arena.push_union(rec.node, &specs)))
    })?;
    let out = FRep::from_arena(new_tree, arena, roots);
    debug_assert!(out.check_invariants().is_ok());
    Ok(out)
}

/// Restricts the `desc` unions below one `anc` entry to the value `v`,
/// splicing the matching entry's children in place of the `desc` union.
/// Returns the rewritten kid list for the entry (fragments shared, the
/// rewritten inner level appended), or `None` when the restriction
/// empties it (pruning).
fn restrict_entry(
    tree: &FTree,
    arena: &mut Arena,
    e: EntryRec,
    path: &[NodeId],
    desc_pos: usize,
    v: &Value,
) -> Option<Vec<UnionId>> {
    if path.len() == 1 {
        // `e` is an entry of desc's parent: restrict the desc child union.
        let du = arena.kid_at(e.kids_start + desc_pos as u32);
        arena.note_replaced(du);
        let i = arena.find_entry(du, v)?;
        let de = arena.erec(i);
        let mut kids = Vec::with_capacity(e.kids_len as usize - 1 + de.kids_len as usize);
        for j in 0..e.kids_len {
            if j as usize == desc_pos {
                for k in 0..de.kids_len {
                    arena.note_shared(1);
                    kids.push(arena.kid_at(de.kids_start + k));
                }
            } else {
                arena.note_shared(1);
                kids.push(arena.kid_at(e.kids_start + j));
            }
        }
        Some(kids)
    } else {
        let child_idx = tree
            .node(path[0])
            .children
            .iter()
            .position(|&c| c == path[1])
            .expect("path step is a child");
        let cu = arena.kid_at(e.kids_start + child_idx as u32);
        arena.note_replaced(cu);
        let curec = arena.urec(cu);
        let mut specs = Vec::with_capacity(curec.len as usize);
        for i in curec.start..curec.start + curec.len {
            let ce = arena.erec(i);
            if let Some(ce_kids) = restrict_entry(tree, arena, ce, &path[1..], desc_pos, v) {
                specs.push(arena.entry_shared_val(ce.val, &ce_kids));
            }
        }
        if specs.is_empty() {
            return None;
        }
        let new_cu = arena.push_union(curec.node, &specs);
        let mut kids = Vec::with_capacity(e.kids_len as usize);
        for j in 0..e.kids_len {
            if j as usize == child_idx {
                kids.push(new_cu);
            } else {
                arena.note_shared(1);
                kids.push(arena.kid_at(e.kids_start + j));
            }
        }
        Some(kids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::product;
    use crate::ops::reference::assert_represents;
    use fdb_relational::{ops as rel_ops, Catalog, Predicate, Relation, Schema};
    use std::hash::{Hash, Hasher};

    /// Pizzas and Items from Figure 1 as path factorisations.
    fn pizzeria() -> (Catalog, FRep, FRep) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let item = c.intern("item");
        let item2 = c.intern("item2");
        let price = c.intern("price");
        let pizzas = Relation::from_rows(
            Schema::new(vec![pizza, item]),
            [
                ("Margherita", "base"),
                ("Capricciosa", "base"),
                ("Capricciosa", "ham"),
                ("Capricciosa", "mushrooms"),
                ("Hawaii", "base"),
                ("Hawaii", "ham"),
                ("Hawaii", "pineapple"),
            ]
            .into_iter()
            .map(|(p, i)| vec![Value::str(p), Value::str(i)]),
        );
        let items = Relation::from_rows(
            Schema::new(vec![item2, price]),
            [("base", 6), ("ham", 1), ("mushrooms", 1), ("pineapple", 2)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let rp = FRep::from_relation(&pizzas, FTree::path(&[pizza, item])).unwrap();
        let ri = FRep::from_relation(&items, FTree::path(&[item2, price])).unwrap();
        (c, rp, ri)
    }

    #[test]
    fn swap_preserves_semantics() {
        let (c, rp, _) = pizzeria();
        let cols = [c.lookup("pizza").unwrap(), c.lookup("item").unwrap()];
        let before = rp.flatten().project_cols(&cols).canonical();
        let root = rp.ftree().roots()[0];
        let child = rp.ftree().node(root).children[0];
        let swapped = swap(rp, root, child).unwrap();
        // Same set of tuples, re-grouped: compare in a fixed column order.
        assert_eq!(swapped.flatten().project_cols(&cols).canonical(), before);
        // item is now the root.
        assert_eq!(swapped.ftree().roots().len(), 1);
        assert_eq!(swapped.ftree().depth(root), 1);
    }

    #[test]
    fn swap_regroups_by_child_value() {
        let (_, rp, _) = pizzeria();
        let root = rp.ftree().roots()[0];
        let child = rp.ftree().node(root).children[0];
        let swapped = swap(rp, root, child).unwrap();
        // The item union at the top has 4 distinct items; "base" lists 3
        // pizzas beneath it.
        let u = swapped.root(0);
        assert_eq!(u.len(), 4);
        let base = u.entry(0);
        assert_eq!(*base.value(), Value::str("base"));
        assert_eq!(base.child(0).len(), 3);
    }

    #[test]
    fn double_swap_is_identity_on_paths() {
        let (_, rp, _) = pizzeria();
        let before = rp.clone();
        let root = rp.ftree().roots()[0];
        let child = rp.ftree().node(root).children[0];
        let once = swap(rp, root, child).unwrap();
        let twice = swap(once, child, root).unwrap();
        assert_eq!(twice.flatten().canonical(), before.flatten().canonical());
        assert_eq!(twice.singleton_count(), before.singleton_count());
    }

    #[test]
    fn merge_implements_join() {
        // FDB's join: product, swap item to the top of the Pizzas tree,
        // merge with the Items root — then compare against the relational
        // natural join.
        let (c, rp, ri) = pizzeria();
        let pizza_root = rp.ftree().roots()[0];
        let item_node = rp.ftree().node(pizza_root).children[0];
        let rp = swap(rp, pizza_root, item_node).unwrap();
        let joined = product(rp, ri);
        let item2_node = joined.ftree().roots()[1];
        let merged = merge(joined, item_node, item2_node).unwrap();
        merged.check_invariants().unwrap();
        assert_eq!(merged.tuple_count(), 7);
        // Schema: item (class {item,item2}) → {pizza, price}.
        let root = merged.ftree().roots()[0];
        assert_eq!(merged.ftree().node(root).label.exposed_attrs().len(), 2);
        let price = c.lookup("price").unwrap();
        let s = crate::agg::eval_op(
            merged.ftree(),
            &[merged.root(0)],
            &crate::ftree::AggOp::Sum(price),
        )
        .unwrap();
        // Sum of prices over the join: base 6×3 + ham 1×2 + mushrooms 1 +
        // pineapple 2 = 23.
        assert_eq!(s, Value::Int(23));
    }

    #[test]
    fn merge_prunes_dangling_values() {
        let (_, rp, ri) = pizzeria();
        // Restrict Items to just "ham": the merge must prune pizzas that
        // only join with other items... (Margherita has only "base").
        let ri = crate::ops::select_const(
            ri,
            fdb_relational::AttrId(3),
            fdb_relational::CmpOp::Eq,
            &Value::Int(1),
        )
        .unwrap(); // price = 1: ham, mushrooms
        let pizza_root = rp.ftree().roots()[0];
        let item_node = rp.ftree().node(pizza_root).children[0];
        let rp = swap(rp, pizza_root, item_node).unwrap();
        let joined = product(rp, ri);
        let item2_node = joined.ftree().roots()[1];
        let merged = merge(joined, item_node, item2_node).unwrap();
        assert_eq!(merged.tuple_count(), 3); // Capricciosa×{ham,mushrooms}, Hawaii×ham
    }

    #[test]
    fn absorb_restricts_descendant() {
        // Self-join-style condition pizza = item2 would be type-odd; build
        // a small numeric example instead: R(a,b) with tree a → b, absorb
        // b into a implements σ_{a=b}(R).
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [(1, 1), (1, 2), (2, 2), (3, 1)]
                .into_iter()
                .map(|(x, y)| vec![Value::Int(x), Value::Int(y)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let na = rep.ftree().roots()[0];
        let nb = rep.ftree().node(na).children[0];
        let out = absorb(rep, na, nb).unwrap();
        out.check_invariants().unwrap();
        // σ_{a=b} keeps (1,1) and (2,2).
        assert_eq!(out.tuple_count(), 2);
        let flat = out.flatten();
        // Class {a, b} exposes both columns with the same value.
        assert_eq!(flat.arity(), 2);
        assert_eq!(flat.row(0), &[Value::Int(1), Value::Int(1)]);
        assert_eq!(flat.row(1), &[Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn absorb_through_intermediate_level() {
        // Tree a → x → b; absorb b into a must restrict every b-union two
        // levels down and prune dead x-branches.
        let mut c = Catalog::new();
        let a = c.intern("a");
        let x = c.intern("x");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, x, b]),
            [(1, 10, 1), (1, 20, 2), (2, 10, 2), (2, 30, 1)]
                .into_iter()
                .map(|(p, q, r)| vec![Value::Int(p), Value::Int(q), Value::Int(r)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, x, b])).unwrap();
        let na = rep.ftree().roots()[0];
        let nb = rep.ftree().node_of_attr(c.lookup("b").unwrap()).unwrap();
        let out = absorb(rep, na, nb).unwrap();
        out.check_invariants().unwrap();
        // Rows with a = b: (1,10,1) and (2,10,2).
        assert_eq!(out.tuple_count(), 2);
        let na_children = out.ftree().node(na).children.clone();
        assert_eq!(na_children.len(), 1); // x remains, b absorbed
    }

    #[test]
    fn swap_requires_parent_child_relation() {
        let (_, rp, _) = pizzeria();
        let root = rp.ftree().roots()[0];
        assert!(swap(rp, root, root).is_err());
    }

    #[test]
    fn inplace_swap_matches_legacy() {
        let (_, rp, _) = pizzeria();
        let root = rp.ftree().roots()[0];
        let child = rp.ftree().node(root).children[0];
        let swapped = check_swap(rp, root, child).unwrap();
        // Compacting keeps the data; swapping back restores it.
        assert!(swapped.clone().compact().same_data(&swapped));
        check_swap(swapped, child, root).unwrap();
    }

    /// The naive reference of χ: flatten, then regroup from scratch over
    /// the swapped f-tree.
    fn swap_reference(rep: &FRep, a: NodeId, b: NodeId) -> FRep {
        let mut tree = rep.ftree().clone();
        tree.swap(a, b).unwrap();
        FRep::from_relation(&rep.flatten(), tree).unwrap()
    }

    /// The `copies_avoided` a swap adds, by the tally of the map-based
    /// regroup the kernel replaced: per (a, b) pair every kid of the new
    /// a-entry (`E_a` without the b-union, then `G_ab`), per distinct
    /// b-value of a union its `F_b` — plus what the root-path rewrite
    /// shares, measured by running it with a stand-in kernel.
    fn expected_copies_avoided(rep: &FRep, a: NodeId, b: NodeId) -> u64 {
        let b_pos = rep.ftree().child_position(b) as u32;
        let outcome = rep.ftree().clone().swap(a, b).unwrap();
        let (moved, stayed) = (outcome.moved_up.len() as u64, outcome.stayed.len() as u64);
        let (tree, mut arena, roots) = rep.clone().into_arena_parts();
        let before = arena.copies_avoided();
        let mut kernel = 0u64;
        rewrite_spine(&tree, &mut arena, &roots, a, &mut |arena, uid| {
            let ua = arena.urec(uid);
            let mut distinct = std::collections::BTreeSet::new();
            for i in ua.start..ua.start + ua.len {
                let ea = arena.erec(i);
                let ub = arena.urec(arena.kid_at(ea.kids_start + b_pos));
                for j in ub.start..ub.start + ub.len {
                    distinct.insert(arena.value_at(b, arena.erec(j).val).clone());
                    kernel += u64::from(ea.kids_len) - 1 + stayed;
                }
            }
            kernel += distinct.len() as u64 * moved;
            let spec = arena.entry_shared_val(0, &[]);
            Ok(Some(arena.push_union(b, &[spec])))
        })
        .unwrap();
        arena.copies_avoided() - before + kernel
    }

    /// Runs [`swap`] and holds it to the reference: same data in
    /// the same entry order, same f-tree, invariants, and the old
    /// `copies_avoided` tally.
    fn check_swap(rep: FRep, a: NodeId, b: NodeId) -> std::result::Result<FRep, String> {
        let want = swap_reference(&rep, a, b);
        let shares = expected_copies_avoided(&rep, a, b);
        let before = rep.stats().copies_avoided;
        let got = swap(rep, a, b).map_err(|e| e.to_string())?;
        got.check_invariants().map_err(|e| e.to_string())?;
        if !got.same_data(&want) {
            return Err(format!(
                "swap χ({a:?}, {b:?}) differs from the reference:\n{:?}\nvs\n{:?}",
                got.flatten(),
                want.flatten()
            ));
        }
        if got.ftree().canonical_key() != want.ftree().canonical_key() {
            return Err("swapped f-tree differs from the reference".into());
        }
        let added = got.stats().copies_avoided - before;
        if added != shares {
            return Err(format!(
                "copies_avoided +{added}, the old tally is +{shares}"
            ));
        }
        Ok(got)
    }

    /// One differential scenario: `[p →] a → {e?, b → {c_0..c_k}}`, where
    /// `c_i` depends on `a` (stays under it) unless bit `i` of `moved`
    /// is set (then it depends on `b` and `p` only, and moves up).
    struct Scenario {
        /// `(p, a, b)` triples; `p` is ignored for a root swap.
        pab: Vec<(i64, i64, i64)>,
        root_swap: bool,
        with_e: bool,
        e_first: bool,
        kids: usize,
        moved: u8,
        /// How `a`/`b` values are encoded: Int, Str, Float (with `-0.0`
        /// and `NaN`), Null, mixed variants.
        kind: usize,
        /// Seed of the pseudo-random `e`/`c_i` value sets.
        salt: u64,
    }

    fn encode(kind: usize, x: i64) -> Value {
        match (kind, x % 4) {
            (0, _) => Value::Int(x),
            (1, _) => Value::str(format!("s{x}")),
            (2, i) => Value::Float([-0.0, 0.0, f64::NAN, 1.5][i as usize]),
            (3, 0) => Value::Null,
            (3, _) => Value::Int(x),
            (_, 0) => Value::Int(x),
            (_, 1) => Value::str(format!("s{x}")),
            (_, 2) => Value::Float(x as f64 * 0.5),
            _ => Value::Null,
        }
    }

    impl Scenario {
        /// Builds the input representation; returns it with the `a` and
        /// `b` nodes.
        fn build(&self) -> (FRep, NodeId, NodeId) {
            use crate::ftree::NodeLabel;
            // Two thirds of the candidate values, fixed by the salt.
            let keep = |key: &[i64]| {
                let mut s = std::collections::hash_map::DefaultHasher::new();
                (self.salt, key).hash(&mut s);
                s.finish() % 3 != 0
            };
            let mut c = Catalog::new();
            let p = c.intern("p");
            let a = c.intern("a");
            let e = c.intern("e");
            let b = c.intern("b");
            let cs: Vec<_> = (0..self.kids).map(|i| c.intern(&format!("c{i}"))).collect();
            let is_moved = |i: usize| self.moved >> i & 1 == 1;
            let mut t = FTree::new();
            let np = (!self.root_swap).then(|| t.add_node(NodeLabel::Atomic(vec![p]), None));
            let na = t.add_node(NodeLabel::Atomic(vec![a]), np);
            let add_e = |t: &mut FTree| t.add_node(NodeLabel::Atomic(vec![e]), Some(na));
            if self.with_e && self.e_first {
                add_e(&mut t);
            }
            let nb = t.add_node(NodeLabel::Atomic(vec![b]), Some(na));
            if self.with_e && !self.e_first {
                add_e(&mut t);
            }
            for &ci in &cs {
                t.add_node(NodeLabel::Atomic(vec![ci]), Some(nb));
            }
            let with_p = |edge: &[fdb_relational::AttrId]| {
                let mut v = edge.to_vec();
                if !self.root_swap {
                    v.push(p);
                }
                v
            };
            t.add_dep(with_p(&[a, b]));
            if self.with_e {
                t.add_dep(with_p(&[a, e]));
            }
            for (i, &ci) in cs.iter().enumerate() {
                t.add_dep(with_p(&if is_moved(i) {
                    vec![b, ci]
                } else {
                    vec![a, b, ci]
                }));
            }
            let mut attrs = Vec::new();
            if !self.root_swap {
                attrs.push(p);
            }
            attrs.push(a);
            if self.with_e {
                attrs.push(e);
            }
            attrs.push(b);
            attrs.extend(&cs);
            let mut rows: Vec<Vec<Value>> = Vec::new();
            for &(pv, av, bv) in &self.pab {
                let pv = if self.root_swap { 0 } else { pv };
                let mut prefix: Vec<Vec<Value>> = Vec::new();
                let head = |ev: Option<i64>| {
                    let mut r = Vec::new();
                    if !self.root_swap {
                        r.push(Value::Int(pv));
                    }
                    r.push(encode(self.kind, av));
                    r.extend(ev.map(Value::Int));
                    r.push(encode(self.kind, bv));
                    r
                };
                if self.with_e {
                    for ev in (0..3).filter(|&ev| keep(&[-1, pv, av, ev])) {
                        prefix.push(head(Some(ev)));
                    }
                } else {
                    prefix.push(head(None));
                }
                for i in 0..self.kids {
                    let vals: Vec<i64> = (0..3)
                        .filter(|&cv| {
                            let i = i as i64;
                            if is_moved(i as usize) {
                                keep(&[i, pv, bv, cv])
                            } else {
                                keep(&[i, pv, av, bv, cv])
                            }
                        })
                        .collect();
                    prefix = prefix
                        .iter()
                        .flat_map(|r| {
                            vals.iter().map(move |&cv| {
                                let mut r = r.clone();
                                r.push(Value::Int(cv));
                                r
                            })
                        })
                        .collect();
                }
                rows.extend(prefix);
            }
            let rel = Relation::from_rows(Schema::new(attrs), rows).canonical();
            (FRep::from_relation(&rel, t).unwrap(), na, nb)
        }
    }

    fn pab_grid() -> Vec<(i64, i64, i64)> {
        (0..18).map(|i| (i % 2, i % 3, (i * 7) % 4)).collect()
    }

    #[test]
    fn swap_kernel_edge_shapes_match_reference() {
        let base = Scenario {
            pab: pab_grid(),
            root_swap: true,
            with_e: true,
            e_first: true,
            kids: 3,
            moved: 0b101,
            kind: 0,
            salt: 7,
        };
        // Every value encoding, root and inner swaps, E_a on either side
        // of the b-union.
        for kind in 0..5 {
            for root_swap in [true, false] {
                for e_first in [true, false] {
                    let sc = Scenario {
                        kind,
                        root_swap,
                        e_first,
                        pab: base.pab.clone(),
                        ..base
                    };
                    let (rep, a, b) = sc.build();
                    check_swap(rep, a, b).unwrap();
                }
            }
        }
        // b with 0..=3 children, every moved/stayed split.
        for kids in 0..=3 {
            for moved in 0..1u8 << kids {
                let sc = Scenario {
                    kids,
                    moved,
                    pab: base.pab.clone(),
                    ..base
                };
                let (rep, a, b) = sc.build();
                check_swap(rep, a, b).unwrap();
            }
        }
        // Empty and single-entry results.
        for pab in [vec![], vec![(1, 2, 3)]] {
            for root_swap in [true, false] {
                let sc = Scenario {
                    pab: pab.clone(),
                    root_swap,
                    with_e: false,
                    kids: 0,
                    ..base
                };
                let (rep, a, b) = sc.build();
                let out = check_swap(rep, a, b).unwrap();
                assert_eq!(out.tuple_count(), pab.len());
            }
        }
    }

    #[test]
    fn swap_kernel_groups_equal_values_stored_apart() {
        // Each b-value recurs under several a-entries, each occurrence at
        // its own index of b's column: grouping goes by value, not index.
        let sc = Scenario {
            pab: pab_grid(),
            root_swap: true,
            with_e: false,
            e_first: false,
            kids: 1,
            moved: 1,
            kind: 1,
            salt: 3,
        };
        let (rep, a, b) = sc.build();
        let col = rep.arena_ref().col(b);
        let distinct = (0..col.len() as u32)
            .map(|i| col.get(i))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(distinct < col.len(), "b-values are stored apart");
        let out = check_swap(rep, a, b).unwrap();
        assert_eq!(out.root(0).len(), distinct);
    }

    #[test]
    fn swap_kernel_on_dag_input() {
        // a → {e → f, b}: χ(a, b) shares each E_a (an e-union) across the
        // b-branches, so the follow-up χ(e, f) reaches the same e-union
        // from several parents and must regroup it once.
        let mut c = Catalog::new();
        let [a, e, f, b] = ["a", "e", "f", "b"].map(|n| c.intern(n));
        let rel = Relation::from_rows(
            Schema::new(vec![a, e, f, b]),
            (0..36i64).map(|i| {
                let av = i % 3;
                vec![
                    Value::Int(av),
                    Value::Int(i / 3 % 2),
                    Value::Int((av + i / 6) % 3),
                    Value::Int(i / 12 + av),
                ]
            }),
        )
        .canonical();
        let mut t = FTree::new();
        let na = t.add_node(crate::ftree::NodeLabel::Atomic(vec![a]), None);
        let ne = t.add_node(crate::ftree::NodeLabel::Atomic(vec![e]), Some(na));
        let nf = t.add_node(crate::ftree::NodeLabel::Atomic(vec![f]), Some(ne));
        let nb = t.add_node(crate::ftree::NodeLabel::Atomic(vec![b]), Some(na));
        t.add_dep([a, e, f]);
        t.add_dep([a, b]);
        // Grouping over the branching tree closes the rows under its
        // join dependency.
        let rep = FRep::from_relation(&rel, t).unwrap();
        let rep = check_swap(rep, na, nb).unwrap();
        let rep = check_swap(rep, ne, nf).unwrap();
        // And back through a garbage-laden, shared arena.
        let rep = check_swap(rep, nf, ne).unwrap();
        check_swap(rep, nb, na).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn swap_kernel_matches_naive_reference(
            pab in proptest::collection::vec((0i64..3, 0i64..4, 0i64..4), 0..12),
            shape in (0u8..2, 0u8..2, 0u8..2, 0usize..4, 0u8..8),
            kind in 0usize..5,
            salt in 0u64..1000,
            dag in 0u8..2,
        ) {
            let (root_swap, with_e, e_first, kids, moved) = shape;
            let sc = Scenario {
                pab,
                root_swap: root_swap == 1,
                with_e: with_e == 1,
                e_first: e_first == 1,
                kids,
                moved,
                kind,
                salt,
            };
            let (mut rep, a, b) = sc.build();
            if dag == 1 {
                // A swap after other in-place swaps: shared fragments and
                // garbage in the input arena.
                rep = swap(swap(rep, a, b).unwrap(), b, a).unwrap();
            }
            check_swap(rep, a, b).map_err(proptest::prelude::TestCaseError::fail)?;
        }
    }

    /// Runs [`merge`] on two sibling roots and holds it to the
    /// relational selection `a = b` of the flattening, over the simulated
    /// f-tree.
    fn check_merge(rep: FRep, a: NodeId, b: NodeId) -> FRep {
        let eq = |n: NodeId| rep.ftree().node(n).label.exposed_attrs()[0];
        let want = rel_ops::select(&rep.flatten(), &[Predicate::AttrEq(eq(a), eq(b))]);
        let mut tree = rep.ftree().clone();
        tree.merge(a, b).unwrap();
        let got = merge(rep, a, b).unwrap();
        assert_represents(&got, &want, &tree);
        got
    }

    #[test]
    fn inplace_merge_matches_legacy() {
        let (_, rp, ri) = pizzeria();
        let pizza_root = rp.ftree().roots()[0];
        let item_node = rp.ftree().node(pizza_root).children[0];
        let rp = swap(rp, pizza_root, item_node).unwrap();
        let joined = product(rp, ri);
        let item2_node = joined.ftree().roots()[1];
        let got = check_merge(joined, item_node, item2_node);
        assert_eq!(got.tuple_count(), 7);
    }

    #[test]
    fn inplace_merge_empty_result_normalises_roots() {
        let (_, rp, ri) = pizzeria();
        // Restrict Items to a price matching nothing, so the merge
        // empties the relation.
        let ri = crate::ops::select_const(
            ri,
            fdb_relational::AttrId(3),
            fdb_relational::CmpOp::Gt,
            &Value::Int(100),
        )
        .unwrap();
        let pizza_root = rp.ftree().roots()[0];
        let item_node = rp.ftree().node(pizza_root).children[0];
        let rp = swap(rp, pizza_root, item_node).unwrap();
        let joined = product(rp, ri);
        let item2_node = joined.ftree().roots()[1];
        let got = check_merge(joined, item_node, item2_node);
        assert!(got.is_empty());
    }

    #[test]
    fn inplace_absorb_matches_legacy() {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let x = c.intern("x");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, x, b]),
            [(1, 10, 1), (1, 20, 2), (2, 10, 2), (2, 30, 1), (3, 5, 9)]
                .into_iter()
                .map(|(p, q, r)| vec![Value::Int(p), Value::Int(q), Value::Int(r)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, x, b])).unwrap();
        let na = rep.ftree().roots()[0];
        let nb = rep.ftree().node_of_attr(b).unwrap();
        // The reference: the relational selection a = b of the
        // flattening, over the simulated f-tree.
        let want = rel_ops::select(&rep.flatten(), &[Predicate::AttrEq(a, b)]);
        let mut tree = rep.ftree().clone();
        tree.absorb(na, nb).unwrap();
        let got = absorb(rep, na, nb).unwrap();
        assert_represents(&got, &want, &tree);
        assert_eq!(got.tuple_count(), 2);
    }
}
