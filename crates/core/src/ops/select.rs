//! Constant selections `A θ c` on factorisations.
//!
//! A constant selection filters the entries of the attribute's unions in
//! one traversal of the relevant fragment (§5.1) — the unions on the
//! root paths of the filtered nodes — and prunes, on the way back up,
//! entries whose subtrees became empty. It rewrites only what it
//! changes. A filtered union of an atomic node answers each filter on
//! its sorted values: one binary search gives the runs of entries that
//! pass, for every `θ`, so a union all of whose entries pass costs
//! `O(log n)` and is shared as it is, with no append. An aggregate
//! node's union, sorted by its whole value rather than by the selected
//! output, is scanned. A rewritten union carries each kept entry whose
//! subtree did not change over as it is — its value and its kids by id
//! — so nothing below it is copied.
//!
//! A run of selections right before a `γ` over their (atomic) nodes is
//! not applied at all: `Mask` hands the same passing runs to the
//! `γ`'s walk, which reads them as a 0/1 factor of its product.

use crate::agg::Sieve;
use crate::error::{FdbError, Result};
use crate::frep::{Arena, Col, EntryRec, EntrySpec, FRep, UnionId, UnionRef};
use crate::ftree::{FTree, NodeId, NodeLabel};
use fdb_relational::{AttrId, CmpOp, Value};
use std::collections::HashMap;
use std::ops::Range;

/// One resolved constant selection: the entry-level predicate of the
/// node exposing `attr`.
struct NodeFilter {
    attr: AttrId,
    op: CmpOp,
    value: Value,
}

impl NodeFilter {
    /// The (at most two, possibly empty) runs `[from, to)` of positions of
    /// the sorted atomic `entries` whose values in `col` pass, around the
    /// entry equal to the constant, found by binary search.
    fn kept(&self, entries: &[EntryRec], col: Col<'_>) -> [(u32, u32); 2] {
        let len = entries.len() as u32;
        // Values are strictly ascending: at most one entry equals `c`.
        let c = &self.value;
        let lo = entries.partition_point(|e| col.get(e.val).cmp(c).is_lt()) as u32;
        let hit = entries
            .get(lo as usize)
            .is_some_and(|e| col.get(e.val).cmp(c).is_eq());
        let hi = lo + u32::from(hit);
        match self.op {
            CmpOp::Eq => [(lo, hi), (len, len)],
            CmpOp::Ne => [(0, lo), (hi, len)],
            CmpOp::Lt => [(0, lo), (len, len)],
            CmpOp::Le => [(0, hi), (len, len)],
            CmpOp::Gt => [(hi, len), (len, len)],
            CmpOp::Ge => [(lo, len), (len, len)],
        }
    }

    /// Whether a value of a node labelled `label` passes.
    fn passes(&self, label: &NodeLabel, v: &Value) -> bool {
        let v = match label {
            NodeLabel::Agg(l) if l.arity() > 1 => {
                let i = l.outputs.iter().position(|&o| o == self.attr);
                let i = i.expect("node exposes the selected attribute");
                &v.as_tup().expect("composite aggregate holds a Tup")[i]
            }
            _ => v,
        };
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
    let slots = tree
        .live_nodes()
        .iter()
        .map(|n| n.idx() + 1)
        .max()
        .unwrap_or(0);
    let mut per_node: Vec<Vec<NodeFilter>> = (0..slots).map(|_| Vec::new()).collect();
    for (attr, op, value) in filters {
        let node = tree
            .node_of_attr(*attr)
            .ok_or_else(|| FdbError::Unresolved(format!("attribute {attr} not in f-tree")))?;
        per_node[node.idx()].push(NodeFilter {
            attr: *attr,
            op: *op,
            value: value.clone(),
        });
    }
    // A union must be entered iff its subtree contains a filtered node:
    // precisely the nodes on some filtered node's root path. Per such
    // node, the positions of its children that are entered too.
    let mut active: Vec<Option<Vec<usize>>> = vec![None; slots];
    for n in tree.live_nodes() {
        if !per_node[n.idx()].is_empty() {
            let path = tree.root_path(n);
            for (k, &p) in path.iter().enumerate() {
                let kids = active[p.idx()].get_or_insert_with(Vec::new);
                if let Some(&c) = path.get(k + 1) {
                    let j = tree.child_position(c);
                    if !kids.contains(&j) {
                        kids.push(j);
                    }
                }
            }
        }
    }
    let mut walk = FilterWalk {
        tree: &tree,
        per_node,
        active,
        memo: HashMap::new(),
        runs: Vec::new(),
        scratch: Vec::new(),
    };
    let mut new_roots = Vec::with_capacity(roots.len());
    for (&r, &rn) in roots.iter().zip(tree.roots()) {
        if walk.active[rn.idx()].is_some() {
            let nu = walk.union(&mut arena, r, rn)?;
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

/// The state of one fused filter walk.
struct FilterWalk<'t> {
    tree: &'t FTree,
    /// Per node id, its filters.
    per_node: Vec<Vec<NodeFilter>>,
    /// Per node id, the positions of its entered children; `None` for a
    /// node the walk never enters.
    active: Vec<Option<Vec<usize>>>,
    /// The rewrites of the source unions that changed or hold entered
    /// children (`None` = pruned): fragments shared by earlier operators
    /// are filtered once and re-shared, keeping the DAG a DAG. Sized by
    /// the unions walked, never by the arena.
    memo: HashMap<u32, Option<UnionId>>,
    /// The runs of passing entry positions of the unions being filtered,
    /// one stack of them per walk: a union's runs sit above its
    /// ancestors' and are popped when it returns. Scratch intersects them.
    runs: Vec<(u32, u32)>,
    scratch: Vec<(u32, u32)>,
}

impl FilterWalk<'_> {
    /// Rewrites union `uid` of `node`; `None` prunes it. A union none of
    /// whose children is entered is decided by its passing runs alone
    /// when they hold every entry (shared as it is) or none (pruned).
    fn union(&mut self, arena: &mut Arena, uid: UnionId, node: NodeId) -> Result<Option<UnionId>> {
        let base = self.runs.len();
        let out = self.union_above(arena, uid, node, base);
        self.runs.truncate(base);
        out
    }

    /// The positions of `node`'s entered children.
    fn entered(&self, node: NodeId) -> &[usize] {
        self.active[node.idx()].as_deref().expect("an entered node")
    }

    /// [`Self::union`] with `uid`'s runs pushed from `runs[base]` on.
    fn union_above(
        &mut self,
        arena: &mut Arena,
        uid: UnionId,
        node: NodeId,
        base: usize,
    ) -> Result<Option<UnionId>> {
        let rec = arena.urec(uid);
        debug_assert_eq!(rec.node, node);
        self.passing(arena, uid, node);
        let end = self.runs.len();
        let n_entered = self.entered(node).len();
        if n_entered == 0 {
            let kept: u32 = self.runs[base..].iter().map(|r| r.1 - r.0).sum();
            if kept == rec.len {
                arena.note_shared(1);
                return Ok(Some(uid));
            }
            if kept == 0 {
                arena.note_replaced(uid);
                return Ok(None);
            }
        }
        if let Some(&m) = self.memo.get(&uid.0) {
            if m.is_some() {
                arena.note_shared(1);
            }
            return Ok(m);
        }
        let tree = self.tree;
        let children = &tree.node(node).children;
        // The rewritten entries, from the first change on (before it,
        // every entry is kept as it is).
        let mut specs: Option<Vec<EntrySpec>> = None;
        let keep_first = |specs: &mut Option<Vec<EntrySpec>>, arena: &Arena, upto: u32| {
            if specs.is_none() {
                let recs = &arena.entries_of(rec)[..upto as usize];
                *specs = Some(recs.iter().map(|&e| EntrySpec::from_rec(e)).collect());
            }
        };
        let mut new_kids: Vec<UnionId> = Vec::new();
        // The kids the kept entries share, committed only when the
        // rewritten union is emitted.
        let mut shared_here: u64 = 0;
        // Children's runs are pushed above `end` and popped again, so
        // `runs[base..end]` stays this union's.
        let mut run = base;
        'entry: for i in 0..rec.len {
            while run < end && self.runs[run].1 <= i {
                run += 1;
            }
            if run == end || self.runs[run].0 > i {
                keep_first(&mut specs, arena, i);
                continue;
            }
            let e = arena.erec(rec.start + i);
            let mut changed = 0;
            for j in 0..n_entered {
                let k = self.entered(node)[j];
                let old = arena.kid_at(e.kids_start + k as u32);
                match self.union(arena, old, children[k])? {
                    None => {
                        keep_first(&mut specs, arena, i);
                        continue 'entry;
                    }
                    Some(nu) if nu != old => {
                        if changed == 0 {
                            new_kids.clear();
                            new_kids.extend_from_slice(arena.kids_of(e));
                        }
                        new_kids[k] = nu;
                        changed += 1;
                    }
                    Some(_) => {}
                }
            }
            shared_here += u64::from(e.kids_len) - changed;
            if changed > 0 {
                keep_first(&mut specs, arena, i);
                let spec = arena.entry_shared_val(e.val, &new_kids);
                specs.as_mut().expect("rewritten").push(spec);
            } else if let Some(specs) = &mut specs {
                specs.push(EntrySpec::from_rec(e));
            }
        }
        let out = match specs {
            None => {
                arena.note_shared(1);
                Some(uid)
            }
            Some(specs) if specs.is_empty() => {
                arena.note_replaced(uid);
                None
            }
            Some(specs) => {
                arena.note_shared(shared_here);
                arena.note_replaced(uid);
                Some(arena.push_union(node, &specs))
            }
        };
        self.memo.insert(uid.0, out);
        Ok(out)
    }

    /// Pushes onto `runs` the runs of positions of union `uid`'s entries
    /// that pass every filter of `node`, ascending. An aggregate node's
    /// union is scanned; an atomic node's answers by binary search
    /// ([`push_passing_runs`]).
    fn passing(&mut self, arena: &Arena, uid: UnionId, node: NodeId) {
        let rec = arena.urec(uid);
        let entries = arena.entries_of(rec);
        let col = arena.col(node);
        let label = &self.tree.node(node).label;
        let filters = &self.per_node[node.idx()];
        if !matches!(label, NodeLabel::Agg(_)) {
            push_passing_runs(entries, col, filters, &mut self.runs, &mut self.scratch);
            return;
        }
        let base = self.runs.len();
        for (i, e) in (0..).zip(entries) {
            let v = col.get(e.val);
            if filters.iter().all(|f| f.passes(label, v)) {
                match self.runs[base..].last_mut() {
                    Some(r) if r.1 == i => r.1 += 1,
                    _ => self.runs.push((i, i + 1)),
                }
            }
        }
    }
}

/// Pushes onto `runs`, above what it holds, the non-empty runs `[from,
/// to)` of positions of the sorted atomic `entries` whose values in `col`
/// pass every filter, ascending — the whole union when there is none.
/// Each filter keeps at most two runs around the entry equal to its
/// constant ([`NodeFilter::kept`]); `scratch` intersects them.
fn push_passing_runs(
    entries: &[EntryRec],
    col: Col<'_>,
    filters: &[NodeFilter],
    runs: &mut Vec<(u32, u32)>,
    scratch: &mut Vec<(u32, u32)>,
) {
    let len = entries.len() as u32;
    if len == 0 {
        return;
    }
    let base = runs.len();
    runs.push((0, len));
    for f in filters {
        let keep = f.kept(entries, col);
        scratch.clear();
        for &(a, b) in &runs[base..] {
            for &(c, d) in &keep {
                let (from, to) = (a.max(c), b.min(d));
                if from < to {
                    scratch.push((from, to));
                }
            }
        }
        runs.truncate(base);
        runs.extend_from_slice(scratch);
    }
}

/// A run of constant selections read as a 0/1 factor by the `γ` that
/// follows it (the [`Sieve`] of `agg`'s walks): every filter is on an
/// atomic node inside the `γ`'s target subtrees, and a union of a
/// filtered node is read through its passing runs, found by the binary
/// search the filter walk uses. Nothing is rewritten.
pub(crate) struct Mask {
    /// Per node id, its filters.
    per_node: Vec<Vec<NodeFilter>>,
    /// Per node id, whether its subtree holds a filtered node.
    touched: Vec<bool>,
    /// The passing runs of the unions being read, one stack of them per
    /// walk, as in the filter walk.
    runs: Vec<(u32, u32)>,
    scratch: Vec<(u32, u32)>,
}

impl Mask {
    /// The mask of `filters` for a `γ` over `targets`; `None` when some
    /// filter's attribute is not exposed by an atomic node inside the
    /// targets' subtrees (that run is applied as a filter walk instead).
    pub(crate) fn new(
        tree: &FTree,
        filters: &[(AttrId, CmpOp, Value)],
        targets: &[NodeId],
    ) -> Option<Mask> {
        let slots = tree.live_nodes().iter().map(|n| n.idx() + 1).max()?;
        let mut mask = Mask {
            per_node: (0..slots).map(|_| Vec::new()).collect(),
            touched: vec![false; slots],
            runs: Vec::new(),
            scratch: Vec::new(),
        };
        for (attr, op, value) in filters {
            let node = tree.node_of_attr(*attr)?;
            if !matches!(tree.node(node).label, NodeLabel::Atomic(_)) {
                return None;
            }
            let path = tree.root_path(node);
            let from = path.iter().position(|n| targets.contains(n))?;
            for n in &path[from..] {
                mask.touched[n.idx()] = true;
            }
            mask.per_node[node.idx()].push(NodeFilter {
                attr: *attr,
                op: *op,
                value: value.clone(),
            });
        }
        Some(mask)
    }
}

impl Sieve for Mask {
    const MASKS: bool = true;

    #[inline]
    fn touches(&self, node: NodeId) -> bool {
        self.touched.get(node.idx()).copied().unwrap_or(false)
    }

    /// The runs of a union of a node with no filter of its own hold every
    /// entry.
    fn with_runs<T>(&mut self, u: UnionRef<'_>, f: impl FnOnce(&mut Self, Range<usize>) -> T) -> T {
        let base = self.runs.len();
        let (entries, col) = u.records();
        let filters = &self.per_node[u.node().idx()];
        push_passing_runs(entries, col, filters, &mut self.runs, &mut self.scratch);
        let out = f(self, base..self.runs.len());
        self.runs.truncate(base);
        out
    }

    #[inline]
    fn run(&self, _u: UnionRef<'_>, r: usize) -> Range<usize> {
        let (from, to) = self.runs[r];
        from as usize..to as usize
    }

    #[inline]
    fn passing(&mut self, u: UnionRef<'_>) -> usize {
        let (entries, col) = u.records();
        match (&self.per_node[u.node().idx()][..], entries) {
            // Most unions of a low leaf hold one entry.
            ([f], [e]) => usize::from(f.op.eval(col.get(e.val).cmp(&f.value))),
            ([f], _) => f
                .kept(entries, col)
                .iter()
                .map(|(a, b)| (b - a) as usize)
                .sum(),
            _ => self.with_runs(u, |mask, runs| runs.map(|r| mask.run(u, r).len()).sum()),
        }
    }
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
