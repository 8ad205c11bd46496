//! Delta maintenance: single-tuple `INSERT`/`DELETE` on an [`FRep`]
//! without rebuilding it.
//!
//! [`FRep::from_relation`] is *purely syntactic* recursive grouping: at
//! every f-tree node the rows are partitioned by that node's attribute
//! value (in a sorted map) and each group recurses into the children.
//! Consequently the factorisation of `rel ∪ {t}` differs from the
//! factorisation of `rel` only along the root-to-leaf **spine** that
//! `t`'s attribute values select — at each level either `t`'s value
//! already has an entry (recurse into its children) or a fresh entry is
//! spliced into the sorted run with a singleton chain for the rest of
//! the subtree. Deletion is the mirror image. The mutators below edit
//! exactly that spine:
//!
//! * every level of the spine appends one **new union record** whose
//!   untouched entries are carried over **by id** (`EntrySpec::from_rec`
//!   — same value index, same kid range, no value clones), reusing the
//!   staged pipeline executor's append-only in-place machinery;
//! * everything off the spine — the overwhelming majority of the arena —
//!   is shared untouched, and `Arena::note_shared` accounts the
//!   avoided copies just like the in-place f-plan operators do;
//! * the memoised count annotations are dropped on the mutated wrapper
//!   only (`FRep::update_parts`); an `Arc`-shared snapshot the wrapper
//!   was cloned from keeps serving its own index;
//! * every union record a rewrite supersedes, and every fragment a
//!   delete drops, adds its entry records to the arena's dead count
//!   (`Arena::note_dead`), so a writer learns when compaction pays
//!   ([`FRep::settle`]) from work proportional to the write instead of
//!   a walk over the view.
//!
//! Because the edit mimics `from_relation`'s grouping step by step, the
//! mutated representation is **structurally identical** (same unions,
//! same entry order, same shapes — [`FRep::same_data`]) to a full
//! rebuild from the updated relation; the differential suite
//! (`tests/update_differential.rs`) holds the engine to that bar
//! byte-for-byte.
//!
//! ## Set semantics and branching trees
//!
//! The f-rep denotes a *set* of tuples. `insert` of a represented tuple
//! and `delete` of an absent one are no-ops returning `false`.
//!
//! At a branching node the entry's child unions form a product, so a
//! tuple's sub-values cannot be removed independently: single-row
//! deletion recurses into child `i` only when every *sibling* subtree
//! is a singleton (for the root list: into root `i` only when every
//! other root is a singleton), and drops an entry only when **all** its
//! child subtrees are singletons. Under the join dependencies the
//! f-tree asserts (the same precondition [`FRep::from_relation`] needs
//! to be exact, Prop. 1 of the paper), this reproduces the rebuilt
//! grouping exactly. When one row's removal violates those dependencies
//! the f-tree cannot represent the result; [`FRep::delete`] and a
//! rebuild then over-approximate by the identical grouping. That
//! agreement is a property of *one* row: a sequence of single-row
//! deletes passes through such states and cannot recover, which is why
//! predicate deletes never loop over [`FRep::delete`]. Path f-trees —
//! tries, the shape the engine builds for base relations — never hit
//! this case.
//!
//! ## Predicate deletes
//!
//! [`FRep::delete_where`] is the paper's constant selection (§5.1) run
//! backwards: instead of keeping the entries that pass `A θ c` it drops
//! them, and it never flattens the view. When every predicate is a
//! comparison with a constant and all their nodes lie on one
//! root-to-leaf path, one walk from the root toward the deepest
//! predicate node does the delete:
//!
//! * at a predicate node, entries failing one of its predicates are
//!   kept whole, by id; the candidates are cut by binary search
//!   (`Arena::search_entry`) — `=` finds its one entry, `<`/`<=`/`>`/
//!   `>=` a contiguous run — so a delete matching nothing appends no
//!   record;
//! * passing entries descend toward the next predicate node, through
//!   the one child on the path (its siblings are shared by id); at the
//!   deepest predicate node they are dropped;
//! * unions that empty out prune their entry upward; other roots of a
//!   forest are shared unless the whole product empties;
//! * the removed-tuple count is taken from the dropped fragments —
//!   their subtree counts times the sibling-subtree counts along the
//!   spine (and the other roots'), counted over just those fragments;
//!   no count index is built or read and nothing is enumerated;
//! * an empty predicate list is one level at the first root with
//!   nothing to fail: every entry goes and the product empties.
//!
//! Deleting a selection on one path keeps every product intact, so the
//! result is exact, and equal to a rebuild, whenever the view satisfies
//! its f-tree's join dependencies. Cost: O(matching spine + dropped
//! fragments), not O(|flat view|).
//!
//! Predicates the walk cannot express — attribute equalities, or
//! comparisons on independent branches, whose result can break a
//! product — fall back to one scan of the tuples and a rebuild of the
//! survivors. If the rebuild holds more tuples than survived, the
//! result is not representable over the view's f-tree and the delete is
//! refused with a typed error, leaving the representation untouched:
//! no predicate delete over-approximates.

use fdb_relational::{CmpOp, Predicate, Relation, Value};

use crate::error::{FdbError, Result};
use crate::frep::{Arena, EntryRec, EntrySpec, FRep, UnionId, UnionRec};
use crate::ftree::{FTree, NodeId, NodeLabel};

/// Per f-tree node (indexed by `NodeId::idx`): the position of the
/// node's attribute in an update row laid out per [`FRep::schema`].
fn col_map(rep: &FRep) -> Result<Vec<usize>> {
    let schema = rep.schema();
    let ftree = rep.ftree();
    let live = ftree.live_nodes();
    let size = live.iter().map(|n| n.idx() + 1).max().unwrap_or(0);
    let mut map = vec![usize::MAX; size];
    for n in live {
        match &ftree.node(n).label {
            NodeLabel::Atomic(attrs) if attrs.len() == 1 => {
                let pos = schema.position(attrs[0]).ok_or_else(|| {
                    FdbError::Unresolved(format!(
                        "f-tree attribute {} missing from the view schema",
                        attrs[0]
                    ))
                })?;
                map[n.idx()] = pos;
            }
            _ => {
                return Err(FdbError::InvalidOperator(
                    "insert/delete need single-attribute atomic nodes".into(),
                ))
            }
        }
    }
    Ok(map)
}

fn check_arity(rep: &FRep, row: &[Value]) -> Result<()> {
    let arity = rep.schema().arity();
    if row.len() != arity {
        return Err(FdbError::InvalidOperator(format!(
            "update row has {} values, view schema has {arity}",
            row.len()
        )));
    }
    Ok(())
}

impl FRep {
    /// True iff `row` (laid out per [`FRep::schema`]) is in the
    /// represented relation: one binary search per f-tree node down the
    /// spine — O(depth · log fanout), no enumeration.
    pub fn contains(&self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        let cols = col_map(self)?;
        let arena = self.arena_ref();
        Ok(self
            .root_ids()
            .iter()
            .all(|&r| contains_union(arena, r, row, &cols)))
    }

    /// Inserts `row` (laid out per [`FRep::schema`]); returns `true` if
    /// it was new, `false` if already represented (set semantics).
    ///
    /// Cost is O(depth · (log fanout + spine width)): one rewritten
    /// union per level, every untouched fragment shared by id. Any
    /// memoised count index on *this wrapper* is dropped; snapshots
    /// this wrapper was cloned from are untouched (copy-on-write).
    pub fn insert(&mut self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        let cols = col_map(self)?;
        let (tree, arena, roots) = self.update_parts();
        let mut changed = false;
        for r in roots.iter_mut() {
            if let Some(new_id) = insert_union(arena, tree, *r, row, &cols) {
                *r = new_id;
                changed = true;
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(changed)
    }

    /// Deletes `row` (laid out per [`FRep::schema`]); returns `true` if
    /// it was represented, `false` otherwise (set semantics, no-op on
    /// absent rows). Same spine-rewrite cost and copy-on-write
    /// discipline as [`FRep::insert`]; see the module docs for the
    /// branching-tree rule.
    pub fn delete(&mut self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        if !self.contains(row)? {
            return Ok(false);
        }
        let cols = col_map(self)?;
        let (_tree, arena, roots) = self.update_parts();
        let sing: Vec<bool> = roots.iter().map(|&r| is_singleton(arena, r)).collect();
        let n = roots.len();
        for (i, root) in roots.iter_mut().enumerate() {
            if !(0..n).filter(|&j| j != i).all(|j| sing[j]) {
                continue;
            }
            match delete_union(arena, *root, row, &cols) {
                Deleted::Emptied => {
                    let node = arena.urec(*root).node;
                    *root = arena.empty_union(node);
                }
                Deleted::Rewritten(id) => *root = id,
                Deleted::Unchanged => {}
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(true)
    }

    /// Deletes every tuple satisfying all `preds` (an empty list deletes
    /// everything); returns how many went.
    ///
    /// Comparisons with constants whose nodes share one root-to-leaf
    /// path are pushed into the factorisation: one walk along that path,
    /// O(matching spine + dropped fragments), exact whenever the view
    /// satisfies its f-tree's join dependencies. Anything else is
    /// answered by a scan and a rebuild of the survivors, or refused
    /// with [`FdbError::InvalidOperator`] when the f-tree cannot
    /// represent the result — the representation is then left as it
    /// was. See the module docs. Same copy-on-write discipline as
    /// [`FRep::insert`].
    pub fn delete_where(&mut self, preds: &[Predicate]) -> Result<usize> {
        col_map(self)?;
        let (root, levels) = match plan_delete(self.ftree(), preds)? {
            DeletePlan::Scan => return self.delete_where_by_rebuild(preds),
            DeletePlan::Spine { root, levels } => (root, levels),
        };
        if self.is_empty() {
            return Ok(0);
        }
        let (tree, arena, roots) = self.update_parts();
        let mut removed = 0u64;
        let rewritten = match delete_walk(arena, roots[root], &levels, &mut removed) {
            Deleted::Unchanged => return Ok(0),
            Deleted::Rewritten(id) => Some(id),
            Deleted::Emptied => None,
        };
        // Each removed tuple of the walked root pairs with every tuple
        // of the other roots.
        for (j, &r) in roots.iter().enumerate() {
            if j != root {
                removed = removed.saturating_mul(subtree_count(arena, r));
            }
        }
        if let Some(id) = rewritten {
            roots[root] = id;
            arena.note_shared(roots.len() as u64 - 1);
        } else {
            // The product emptied.
            arena.note_all_dead();
            for (r, &node) in roots.iter_mut().zip(tree.roots()) {
                *r = arena.empty_union(node);
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(usize::try_from(removed).unwrap_or(usize::MAX))
    }

    /// The fallback of [`FRep::delete_where`]: one pass keeps the
    /// surviving tuples, which are rebuilt over the view's f-tree —
    /// exactly, or not at all.
    fn delete_where_by_rebuild(&mut self, preds: &[Predicate]) -> Result<usize> {
        let schema = self.schema();
        let mut survivors = Relation::empty(schema.clone());
        let mut removed = 0usize;
        self.for_each_tuple(|row| {
            if preds.iter().all(|p| p.eval(&schema, row)) {
                removed += 1;
            } else {
                survivors.push_row(row);
            }
        });
        if removed == 0 {
            return Ok(0);
        }
        let rebuilt = FRep::from_relation(&survivors, self.ftree().clone())?;
        if rebuilt.tuple_count() != survivors.len() {
            return Err(FdbError::InvalidOperator(format!(
                "delete result not representable over the view's f-tree: the {} surviving \
                 tuples break its join dependencies (a rebuild would hold {})",
                survivors.len(),
                rebuilt.tuple_count()
            )));
        }
        *self = rebuilt;
        Ok(removed)
    }
}

/// How [`FRep::delete_where`] answers a predicate list.
enum DeletePlan {
    /// Pushed into the factorisation: walk root `root` (a position in
    /// the f-tree's root list) along `levels`.
    Spine { root: usize, levels: Vec<Level> },
    /// Not expressible as one walk: scan and rebuild.
    Scan,
}

/// One node on the pushed delete's path, root first; the last level is
/// the deepest predicate node.
struct Level {
    /// `(θ, c)` of every predicate `A θ c` on this node's attribute.
    preds: Vec<(CmpOp, Value)>,
    /// Position of the next level's node among this node's children.
    next: usize,
}

fn plan_delete(tree: &FTree, preds: &[Predicate]) -> Result<DeletePlan> {
    let mut cmps: Vec<(NodeId, CmpOp, &Value)> = Vec::with_capacity(preds.len());
    let mut pushable = true;
    for p in preds {
        let nodes = p
            .attrs()
            .into_iter()
            .map(|a| {
                tree.node_of_attr(a).ok_or_else(|| {
                    FdbError::Unresolved(format!(
                        "predicate attribute {a} is not in the view's f-tree"
                    ))
                })
            })
            .collect::<Result<Vec<NodeId>>>()?;
        match p {
            Predicate::AttrCmp(_, op, c) => cmps.push((nodes[0], *op, c)),
            Predicate::AttrEq(..) => pushable = false,
        }
    }
    if !pushable {
        return Ok(DeletePlan::Scan);
    }
    // No predicate deletes everything: one level at the first root with
    // nothing to fail drops all its entries, which empties the product.
    let Some(deepest) = cmps
        .iter()
        .map(|c| c.0)
        .max_by_key(|&n| tree.depth(n))
        .or_else(|| tree.roots().first().copied())
    else {
        return Ok(DeletePlan::Scan);
    };
    let path = tree.root_path(deepest);
    if !cmps.iter().all(|c| path.contains(&c.0)) {
        return Ok(DeletePlan::Scan);
    }
    let levels = path
        .iter()
        .enumerate()
        .map(|(i, &node)| Level {
            preds: cmps
                .iter()
                .filter(|c| c.0 == node)
                .map(|c| (c.1, c.2.clone()))
                .collect(),
            next: path.get(i + 1).map_or(0, |&n| tree.child_position(n)),
        })
        .collect();
    Ok(DeletePlan::Spine {
        root: tree.child_position(path[0]),
        levels,
    })
}

/// Deletes from the subtree under `uid` every tuple whose values on the
/// path `levels` pass their predicates; adds the number of this
/// subtree's tuples that went to `removed`. Appends nothing when
/// nothing matches.
fn delete_walk(arena: &mut Arena, uid: UnionId, levels: &[Level], removed: &mut u64) -> Deleted {
    let (level, below) = levels.split_first().expect("a spine has a level");
    let rec = arena.urec(uid);
    let (lo, hi) = candidates(arena, uid, rec, &level.preds);
    // Per changed entry (ascending position): the replacement kid on the
    // path, or `None` to drop the entry.
    let mut changes: Vec<(u32, Option<UnionId>)> = Vec::new();
    for phys in lo..hi {
        let e = arena.erec(rec.start + phys);
        let v = arena.value_at(rec.node, e.val);
        if !level.preds.iter().all(|(op, c)| op.eval(v.cmp(c))) {
            continue;
        }
        if below.is_empty() {
            *removed = removed.saturating_add(kids_product(arena, e, None));
            note_dropped_kids(arena, e);
            changes.push((phys, None));
            continue;
        }
        let mut gone = 0u64;
        let kid = arena.kid_at(e.kids_start + level.next as u32);
        let outcome = delete_walk(arena, kid, below, &mut gone);
        if gone > 0 {
            let siblings = kids_product(arena, e, Some(level.next));
            *removed = removed.saturating_add(gone.saturating_mul(siblings));
        }
        match outcome {
            Deleted::Unchanged => {}
            Deleted::Emptied => changes.push((phys, None)),
            Deleted::Rewritten(id) => changes.push((phys, Some(id))),
        }
    }
    if changes.is_empty() {
        return Deleted::Unchanged;
    }
    arena.note_dead(u64::from(rec.len));
    if changes.len() == rec.len as usize && changes.iter().all(|c| c.1.is_none()) {
        return Deleted::Emptied;
    }
    let mut specs = Vec::with_capacity(rec.len as usize);
    let mut kids: Vec<UnionId> = Vec::new();
    let mut shared = 0u64;
    let mut changes = changes.into_iter().peekable();
    for phys in 0..rec.len {
        let e = arena.erec(rec.start + phys);
        match changes.next_if(|c| c.0 == phys) {
            None => {
                specs.push(EntrySpec::from_rec(e));
                shared += 1;
            }
            Some((_, None)) => {}
            Some((_, Some(id))) => {
                kids.clear();
                kids.extend((0..e.kids_len).map(|k| arena.kid_at(e.kids_start + k)));
                kids[level.next] = id;
                specs.push(arena.entry_shared_val(e.val, &kids));
                shared += u64::from(e.kids_len) - 1;
            }
        }
    }
    arena.note_shared(shared);
    Deleted::Rewritten(arena.push_union(rec.node, &specs))
}

/// Counts the subtrees under entry `e`, which a delete drops, as dead.
fn note_dropped_kids(arena: &mut Arena, e: EntryRec) {
    for k in 0..e.kids_len {
        let n = arena.subtree_entries(arena.kid_at(e.kids_start + k));
        arena.note_dead(n);
    }
}

/// The physical range of `uid`'s entries that can pass every predicate.
/// Entries ascend strictly, so `=`, `<`, `<=`, `>` and `>=` each cut a
/// contiguous run with one binary search; `<>` cuts nothing.
fn candidates(arena: &Arena, uid: UnionId, rec: UnionRec, preds: &[(CmpOp, Value)]) -> (u32, u32) {
    let (mut lo, mut hi) = (0, rec.len);
    for (op, c) in preds {
        let (at, hit) = match arena.search_entry(uid, c) {
            Ok(abs) => (abs - rec.start, 1),
            Err(ins) => (ins, 0),
        };
        let (l, h) = match op {
            CmpOp::Eq => (at, at + hit),
            CmpOp::Ne => (0, rec.len),
            CmpOp::Lt => (0, at),
            CmpOp::Le => (0, at + hit),
            CmpOp::Gt => (at + hit, rec.len),
            CmpOp::Ge => (at, rec.len),
        };
        lo = lo.max(l);
        hi = hi.min(h);
    }
    (lo, hi.max(lo))
}

/// Tuples in the subtree under `uid`, counted over just that subtree.
fn subtree_count(arena: &Arena, uid: UnionId) -> u64 {
    let rec = arena.urec(uid);
    (0..rec.len).fold(0u64, |acc, phys| {
        acc.saturating_add(kids_product(arena, arena.erec(rec.start + phys), None))
    })
}

/// Tuples under entry `e`: the product of its kids' subtree counts,
/// leaving out kid `skip`.
fn kids_product(arena: &Arena, e: EntryRec, skip: Option<usize>) -> u64 {
    (0..e.kids_len)
        .filter(|&k| Some(k as usize) != skip)
        .fold(1u64, |acc, k| {
            acc.saturating_mul(subtree_count(arena, arena.kid_at(e.kids_start + k)))
        })
}

fn contains_union(arena: &Arena, uid: UnionId, row: &[Value], cols: &[usize]) -> bool {
    let rec = arena.urec(uid);
    let Some(abs) = arena.find_entry(uid, &row[cols[rec.node.idx()]]) else {
        return false;
    };
    let e = arena.erec(abs);
    (0..e.kids_len).all(|k| contains_union(arena, arena.kid_at(e.kids_start + k), row, cols))
}

/// One union and every subtree below it represent exactly one tuple.
fn is_singleton(arena: &Arena, uid: UnionId) -> bool {
    let rec = arena.urec(uid);
    if rec.len != 1 {
        return false;
    }
    let e = arena.erec(rec.start);
    (0..e.kids_len).all(|k| is_singleton(arena, arena.kid_at(e.kids_start + k)))
}

/// Inserts `row`'s projection into the subtree under `uid`. Returns the
/// rewritten union's id, or `None` when the projection was already
/// fully represented (nothing changed).
fn insert_union(
    arena: &mut Arena,
    tree: &FTree,
    uid: UnionId,
    row: &[Value],
    cols: &[usize],
) -> Option<UnionId> {
    let rec = arena.urec(uid);
    let node = rec.node;
    let v = &row[cols[node.idx()]];
    match arena.search_entry(uid, v) {
        Ok(abs) => {
            // Value present: recurse into the children; rewrite this
            // union only if some child actually changed.
            let phys = abs - rec.start;
            let e = arena.erec(abs);
            let mut new_kids: Vec<UnionId> = (0..e.kids_len)
                .map(|k| arena.kid_at(e.kids_start + k))
                .collect();
            let mut any = false;
            for nk in new_kids.iter_mut() {
                if let Some(id) = insert_union(arena, tree, *nk, row, cols) {
                    *nk = id;
                    any = true;
                }
            }
            if !any {
                return None;
            }
            let mut specs = Vec::with_capacity(rec.len as usize);
            for i in 0..rec.len {
                if i == phys {
                    specs.push(arena.entry_shared_val(e.val, &new_kids));
                } else {
                    specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
                }
            }
            arena.note_shared(rec.len.saturating_sub(1) as u64);
            arena.note_dead(u64::from(rec.len));
            Some(arena.push_union(node, &specs))
        }
        Err(ins) => {
            // Fresh value: splice a new entry (with a singleton chain
            // below it) into the sorted run. Handles the empty union of
            // an empty representation's root as the `ins == len == 0`
            // case.
            let fresh = fresh_entry(arena, tree, node, row, cols);
            let mut specs = Vec::with_capacity(rec.len as usize + 1);
            for i in 0..ins {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
            specs.push(fresh);
            for i in ins..rec.len {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
            arena.note_shared(rec.len as u64);
            arena.note_dead(u64::from(rec.len));
            Some(arena.push_union(node, &specs))
        }
    }
}

/// A brand-new entry for `node` carrying `row`'s projection as a chain
/// of singleton unions — the shape `from_relation` gives a one-row
/// group.
fn fresh_entry(
    arena: &mut Arena,
    tree: &FTree,
    node: NodeId,
    row: &[Value],
    cols: &[usize],
) -> EntrySpec {
    let children = tree.node(node).children.clone();
    let kids: Vec<UnionId> = children
        .iter()
        .map(|&c| {
            let spec = fresh_entry(arena, tree, c, row, cols);
            arena.push_union(c, &[spec])
        })
        .collect();
    arena.entry(node, row[cols[node.idx()]].clone(), &kids)
}

enum Deleted {
    /// The union lost its last entry (representable only at a root).
    Emptied,
    Rewritten(UnionId),
    Unchanged,
}

/// Deletes `row`'s projection from the subtree under `uid`, assuming it
/// is present (checked by [`FRep::contains`] up front — a partial
/// recursive edit on an absent tuple would corrupt the spine).
fn delete_union(arena: &mut Arena, uid: UnionId, row: &[Value], cols: &[usize]) -> Deleted {
    let rec = arena.urec(uid);
    let node = rec.node;
    let v = &row[cols[node.idx()]];
    let Some(abs) = arena.find_entry(uid, v) else {
        debug_assert!(
            false,
            "delete_union: entry vanished under a contains() check"
        );
        return Deleted::Unchanged;
    };
    let phys = abs - rec.start;
    let e = arena.erec(abs);
    let kids: Vec<UnionId> = (0..e.kids_len)
        .map(|k| arena.kid_at(e.kids_start + k))
        .collect();
    let sing: Vec<bool> = kids.iter().map(|&k| is_singleton(arena, k)).collect();
    if sing.iter().all(|&s| s) {
        // The entry's whole group is this one tuple: drop the entry.
        note_dropped_kids(arena, e);
        arena.note_dead(u64::from(rec.len));
        if rec.len == 1 {
            return Deleted::Emptied;
        }
        let mut specs = Vec::with_capacity(rec.len as usize - 1);
        for i in 0..rec.len {
            if i != phys {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
        }
        arena.note_shared(rec.len as u64 - 1);
        return Deleted::Rewritten(arena.push_union(node, &specs));
    }
    // Group survives: recurse into exactly the children whose siblings
    // are all singletons (see module docs).
    let mut new_kids = kids.clone();
    let mut any = false;
    for k in 0..kids.len() {
        if !(0..kids.len()).filter(|&j| j != k).all(|j| sing[j]) {
            continue;
        }
        match delete_union(arena, kids[k], row, cols) {
            Deleted::Rewritten(id) => {
                new_kids[k] = id;
                any = true;
            }
            Deleted::Unchanged => {}
            Deleted::Emptied => {
                // A recursion target is the unique non-singleton child,
                // which cannot lose its last entry.
                debug_assert!(false, "delete_union: non-singleton child emptied");
            }
        }
    }
    if !any {
        return Deleted::Unchanged;
    }
    let mut specs = Vec::with_capacity(rec.len as usize);
    for i in 0..rec.len {
        if i == phys {
            specs.push(arena.entry_shared_val(e.val, &new_kids));
        } else {
            specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
        }
    }
    arena.note_shared(rec.len.saturating_sub(1) as u64);
    arena.note_dead(u64::from(rec.len));
    Deleted::Rewritten(arena.push_union(node, &specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{AttrId, Catalog, Schema};

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    /// R(a, b, c) as a path trie a → b → c.
    fn path_fixture(rows: &[[i64; 3]]) -> (FRep, Relation) {
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let c = catalog.intern("c");
        let schema = Schema::new(vec![a, b, c]);
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().copied().map(v).collect()),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b, c])).unwrap();
        (rep, rel)
    }

    /// Branching tree a → {b, c}: groups must satisfy the join
    /// dependency a →→ b | c for exactness.
    fn branch_fixture(rows: &[[i64; 3]]) -> (FRep, Relation) {
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let c = catalog.intern("c");
        let schema = Schema::new(vec![a, b, c]);
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().copied().map(v).collect()),
        );
        let mut tree = FTree::new();
        let na = tree.add_node(NodeLabel::Atomic(vec![a]), None);
        tree.add_node(NodeLabel::Atomic(vec![b]), Some(na));
        tree.add_node(NodeLabel::Atomic(vec![c]), Some(na));
        tree.add_dep([a, b, c]);
        let rep = FRep::from_relation(&rel, tree).unwrap();
        (rep, rel)
    }

    fn rebuild(rep: &FRep, rel: &Relation) -> FRep {
        FRep::from_relation(rel, rep.ftree().clone()).unwrap()
    }

    #[test]
    fn insert_matches_rebuild_on_path() {
        let (mut rep, rel) = path_fixture(&[[1, 10, 100], [1, 20, 200], [3, 10, 100]]);
        for row in [[2i64, 15, 150], [1, 10, 101], [0, 1, 2], [9, 9, 9]] {
            let row: Vec<Value> = row.iter().copied().map(v).collect();
            assert!(rep.insert(&row).unwrap());
            assert!(rep.contains(&row).unwrap());
        }
        let mut rel2 = rel.clone();
        for row in [[2i64, 15, 150], [1, 10, 101], [0, 1, 2], [9, 9, 9]] {
            rel2.push_row(&row.iter().copied().map(v).collect::<Vec<_>>());
        }
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "delta insert diverged from rebuild");
        assert_eq!(rep.flatten(), fresh.flatten());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn insert_of_present_row_is_noop() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        let before = rep.flatten();
        let row: Vec<Value> = [1, 10, 100].iter().map(|&i| v(i)).collect();
        assert!(!rep.insert(&row).unwrap());
        assert_eq!(rep.flatten(), before);
    }

    #[test]
    fn insert_into_empty_rep() {
        let (seed, _) = path_fixture(&[[1, 1, 1]]);
        let mut rep = FRep::empty(seed.ftree().clone());
        assert!(rep.is_empty());
        let row: Vec<Value> = [5, 6, 7].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&row).unwrap());
        assert!(!rep.is_empty());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&row).unwrap());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn delete_matches_rebuild_on_path() {
        let rows = [[1i64, 10, 100], [1, 10, 101], [1, 20, 200], [3, 30, 300]];
        let (mut rep, rel) = path_fixture(&rows);
        // Delete one leaf of a shared prefix, then a whole chain.
        for (kill, keep) in [(1usize, 3usize), (3, 2)] {
            let row: Vec<Value> = rows[kill].iter().map(|&i| v(i)).collect();
            assert!(rep.delete(&row).unwrap());
            assert!(!rep.contains(&row).unwrap());
            assert_eq!(rep.tuple_count(), keep);
        }
        let rel2 = Relation::from_rows(
            rel.schema().clone(),
            [rows[0], rows[2]]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "delta delete diverged from rebuild");
        assert_eq!(rep.flatten(), fresh.flatten());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn delete_of_absent_row_is_noop() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100]]);
        let before = rep.flatten();
        // Absent at every level of the spine.
        for row in [[2i64, 10, 100], [1, 11, 100], [1, 10, 99]] {
            let row: Vec<Value> = row.iter().copied().map(v).collect();
            assert!(!rep.delete(&row).unwrap());
        }
        assert_eq!(rep.flatten(), before);
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100]]);
        let row: Vec<Value> = [1, 10, 100].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&row).unwrap());
        assert!(rep.is_empty());
        assert_eq!(rep.tuple_count(), 0);
        rep.check_invariants().unwrap();
        assert!(rep.insert(&row).unwrap());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&row).unwrap());
    }

    #[test]
    fn branching_tree_insert_and_jd_safe_delete() {
        // Two groups, each a product: a=1 → {10,20}×{100}, a=2 → {30}×{300}.
        let (mut rep, rel) = branch_fixture(&[[1, 10, 100], [1, 20, 100], [2, 30, 300]]);
        // Insert keeps the group a product: add b=15 under a=1.
        let ins: Vec<Value> = [1, 15, 100].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&ins).unwrap());
        let mut rel2 = rel.clone();
        rel2.push_row(&ins);
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh));
        // JD-safe delete: removing (2,30,300) kills a singleton group.
        let del: Vec<Value> = [2, 30, 300].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&del).unwrap());
        assert!(!rep.contains(&del).unwrap());
        let rel3 = Relation::from_rows(
            rel.schema().clone(),
            [[1i64, 10, 100], [1, 20, 100], [1, 15, 100]]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = rebuild(&rep, &rel3);
        assert!(rep.same_data(&fresh));
        rep.check_invariants().unwrap();
    }

    #[test]
    fn branching_delete_matches_rebuild_even_off_product() {
        // 2×2 product under a=1; deleting one tuple leaves a set the
        // tree cannot represent — delta and rebuild must over-
        // approximate identically (module docs).
        let rows = [[1i64, 10, 100], [1, 10, 200], [1, 20, 100], [1, 20, 200]];
        let (mut rep, rel) = branch_fixture(&rows);
        let del: Vec<Value> = rows[0].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&del).unwrap());
        let rel2 = Relation::from_rows(
            rel.schema().clone(),
            rows[1..]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = FRep::from_relation(&rel2, rep.ftree().clone()).unwrap();
        assert!(rep.same_data(&fresh));
    }

    #[test]
    fn cow_snapshot_unaffected_by_mutation() {
        let (rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        // Memoise the snapshot's count index, then mutate a clone.
        let snapshot = std::sync::Arc::new(rep);
        assert_eq!(snapshot.tuple_count(), 2);
        let _ = snapshot.flatten();
        let mut next = FRep::clone(&snapshot);
        let row: Vec<Value> = [3, 30, 300].iter().map(|&i| v(i)).collect();
        assert!(next.insert(&row).unwrap());
        // Old snapshot still serves the pre-write state.
        assert_eq!(snapshot.tuple_count(), 2);
        assert!(!snapshot.contains(&row).unwrap());
        assert_eq!(next.tuple_count(), 3);
        assert!(next.contains(&row).unwrap());
    }

    #[test]
    fn mutation_invalidates_memoised_counts() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        // Force the count index (seek path builds it).
        let spec = crate::enumerate::EnumSpec::all_preorder(rep.ftree());
        let _ = crate::enumerate::DirectCursor::new(&rep, &spec, 1).unwrap();
        assert!(rep.has_count_index());
        let row: Vec<Value> = [3, 30, 300].iter().map(|&i| v(i)).collect();
        rep.insert(&row).unwrap();
        assert!(
            !rep.has_count_index(),
            "stale count index survived a mutation"
        );
        assert_eq!(rep.tuple_count(), 3);
        // And the rebuilt index reflects the post-write state.
        let spec = crate::enumerate::EnumSpec::all_preorder(rep.ftree());
        let mut cur = crate::enumerate::DirectCursor::new(&rep, &spec, 2).unwrap();
        assert_eq!(cur.next_row().unwrap()[0], v(3));
    }

    #[test]
    fn spine_rewrite_shares_untouched_fragments() {
        let rows: Vec<[i64; 3]> = (0..100).map(|i| [i, i * 10, i * 100]).collect();
        let (mut rep, _) = path_fixture(&rows);
        let before = rep.stats();
        let row: Vec<Value> = [50, 505, 5050].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&row).unwrap());
        let after = rep.stats();
        // One new union record per spine level (plus the fresh chain),
        // not a rebuilt arena: the union table grows by O(depth).
        assert!(
            after.unions <= before.unions + 6,
            "union table grew by {} records for one insert",
            after.unions - before.unions
        );
        assert!(
            after.copies_avoided > before.copies_avoided,
            "no fragment sharing recorded"
        );
        // Only the spine's values are fresh: one new value at the
        // mutated level plus the fresh chain below it.
        assert!(after.values <= before.values + 3);
    }

    #[test]
    fn multi_root_forest_insert_delete() {
        // Forest {a} ⊥ {b}: the rep is the product of two root unions.
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let mut tree = FTree::new();
        tree.add_node(NodeLabel::Atomic(vec![a]), None);
        tree.add_node(NodeLabel::Atomic(vec![b]), None);
        tree.add_dep([a]);
        tree.add_dep([b]);
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [[1i64, 10]]
                .iter()
                .map(|r| r.iter().map(|&i| v(i)).collect()),
        );
        let mut rep = FRep::from_relation(&rel, tree).unwrap();
        // Insert (1, 20): b-root gains an entry, a-root is unchanged.
        let row: Vec<Value> = vec![v(1), v(20)];
        assert!(rep.insert(&row).unwrap());
        assert_eq!(rep.tuple_count(), 2);
        // Delete (1, 20): the other root is a singleton, so the b-side
        // entry goes.
        assert!(rep.delete(&row).unwrap());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&[v(1), v(10)]).unwrap());
        rep.check_invariants().unwrap();
    }

    /// The fixtures intern `a`, `b`, `c` in that order.
    fn attr(name: &str) -> AttrId {
        AttrId(["a", "b", "c"].iter().position(|&n| n == name).unwrap() as u32)
    }

    fn cmp(name: &str, op: CmpOp, c: i64) -> Predicate {
        Predicate::AttrCmp(attr(name), op, v(c))
    }

    /// `rel` minus the rows satisfying every predicate, and how many went.
    fn mirror_delete(rel: &Relation, preds: &[Predicate]) -> (Relation, usize) {
        let mut out = rel.clone();
        let schema = rel.schema().clone();
        let n = out.delete_where(|row| preds.iter().all(|p| p.eval(&schema, row)));
        (out, n)
    }

    #[test]
    fn pushed_delete_on_a_branch_keeps_the_product() {
        // a=1 → {10,20}×{100,200}, a=2 → {30}×{300}: deleting b = 10
        // removes the (1,10,·) row pair and leaves a=1 → {20}×{100,200}.
        let rows = [
            [1i64, 10, 100],
            [1, 10, 200],
            [1, 20, 100],
            [1, 20, 200],
            [2, 30, 300],
        ];
        let (mut rep, rel) = branch_fixture(&rows);
        let preds = [cmp("b", CmpOp::Eq, 10)];
        let (want, n) = mirror_delete(&rel, &preds);
        assert_eq!(rep.delete_where(&preds).unwrap(), n);
        assert_eq!(n, 2);
        assert_eq!(rep.tuple_count(), 3);
        assert!(rep.same_data(&rebuild(&rep, &want)));
        rep.check_invariants().unwrap();
    }

    #[test]
    fn pushed_delete_on_every_op_and_level_matches_rebuild() {
        let rows: Vec<[i64; 3]> = (0..60).map(|i| [i % 5, i % 7, i % 11]).collect();
        for attr in ["a", "b", "c"] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                for c in [-1, 0, 3, 6, 20] {
                    let (mut rep, rel) = path_fixture(&rows);
                    let preds = [cmp("a", CmpOp::Ge, 1), cmp(attr, op, c)];
                    let (want, n) = mirror_delete(&rel, &preds);
                    assert_eq!(rep.delete_where(&preds).unwrap(), n, "{attr} {op} {c}");
                    assert!(rep.same_data(&rebuild(&rep, &want)), "{attr} {op} {c}");
                    rep.check_invariants().unwrap();
                }
            }
        }
    }

    #[test]
    fn cross_branch_delete_is_exact_or_refused() {
        let rows = [
            [1i64, 10, 100],
            [1, 10, 200],
            [1, 20, 100],
            [1, 20, 200],
            [2, 30, 300],
        ];
        // Deleting one cell of the 2×2 product breaks it: refused, and
        // the representation is untouched.
        let (mut rep, _) = branch_fixture(&rows);
        let before = rep.clone();
        let preds = [cmp("b", CmpOp::Eq, 10), cmp("c", CmpOp::Eq, 100)];
        let err = rep.delete_where(&preds).unwrap_err();
        assert!(
            matches!(&err, FdbError::InvalidOperator(m) if m.contains("not representable")),
            "{err}"
        );
        assert!(rep.same_data(&before));
        // Deleting a whole group across both branches is representable.
        let (mut rep, rel) = branch_fixture(&rows);
        let preds = [cmp("b", CmpOp::Eq, 30), cmp("c", CmpOp::Ge, 300)];
        let (want, n) = mirror_delete(&rel, &preds);
        assert_eq!(rep.delete_where(&preds).unwrap(), n);
        assert!(rep.same_data(&rebuild(&rep, &want)));
        // An attribute equality takes the same exact-or-refuse route.
        let (mut rep, rel) = path_fixture(&[[1, 1, 2], [2, 2, 2], [3, 1, 1]]);
        let preds = [Predicate::AttrEq(attr("a"), attr("b"))];
        let (want, n) = mirror_delete(&rel, &preds);
        assert_eq!(rep.delete_where(&preds).unwrap(), n);
        assert!(rep.same_data(&rebuild(&rep, &want)));
        // An attribute the view lacks is an error, not a no-op.
        let unknown = [Predicate::AttrCmp(AttrId(99), CmpOp::Eq, v(0))];
        assert!(matches!(
            rep.delete_where(&unknown),
            Err(FdbError::Unresolved(_))
        ));
    }

    #[test]
    fn pushed_delete_on_a_forest_touches_one_root() {
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let mut tree = FTree::new();
        tree.add_node(NodeLabel::Atomic(vec![a]), None);
        tree.add_node(NodeLabel::Atomic(vec![b]), None);
        tree.add_dep([a]);
        tree.add_dep([b]);
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [1i64, 2, 3]
                .iter()
                .flat_map(|&x| [10i64, 20].map(|y| vec![v(x), v(y)])),
        );
        let mut rep = FRep::from_relation(&rel, tree).unwrap();
        let b_root = rep.root_ids()[1];
        let preds = [Predicate::AttrCmp(a, CmpOp::Le, v(2))];
        assert_eq!(rep.delete_where(&preds).unwrap(), 4);
        assert_eq!(rep.root_ids()[1], b_root, "the other root is shared");
        assert_eq!(rep.tuple_count(), 2);
        // Emptying one root empties the product.
        let preds = [Predicate::AttrCmp(b, CmpOp::Gt, v(0))];
        assert_eq!(rep.delete_where(&preds).unwrap(), 2);
        assert!(rep.is_empty());
        assert!(rep.same_data(&FRep::empty(rep.ftree().clone())));
        assert_eq!(rep.delete_where(&[]).unwrap(), 0);
    }

    #[test]
    fn pushed_delete_costs_the_spine_not_the_view() {
        let rows: Vec<[i64; 3]> = (0..100_000)
            .map(|i| [i / 100, (i / 10) % 10, i % 10])
            .collect();
        let (mut rep, rel) = path_fixture(&rows);
        let depth = rep.ftree().live_nodes().len();
        // A delete that matches nothing appends nothing.
        let before = rep.stats();
        for miss in [
            cmp("a", CmpOp::Eq, 5_000),
            cmp("a", CmpOp::Gt, 999),
            cmp("a", CmpOp::Lt, 0),
        ] {
            assert_eq!(rep.delete_where(&[miss]).unwrap(), 0);
        }
        assert_eq!(rep.stats().unions, before.unions);
        // One root key: one new root record, every other entry by id.
        let preds = [cmp("a", CmpOp::Eq, 500)];
        assert_eq!(rep.delete_where(&preds).unwrap(), 100);
        let after = rep.stats();
        assert!(
            after.unions <= before.unions + depth + 1,
            "union table grew by {} records for one root key",
            after.unions - before.unions
        );
        assert!(after.copies_avoided > before.copies_avoided);
        let (want, _) = mirror_delete(&rel, &preds);
        assert!(rep.same_data(&rebuild(&rep, &want)));
    }

    #[test]
    fn random_churn_stays_byte_identical_to_rebuild() {
        let (mut rep, rel) = path_fixture(&[[1, 10, 100]]);
        let mut truth: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        let mut seed = 0x5eedu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for step in 0..200 {
            let insert = truth.is_empty() || rng() % 3 != 0;
            if insert {
                let row: Vec<Value> = vec![
                    v((rng() % 7) as i64),
                    v((rng() % 7) as i64),
                    v((rng() % 7) as i64),
                ];
                let fresh = !truth.contains(&row);
                assert_eq!(rep.insert(&row).unwrap(), fresh, "step {step}");
                if fresh {
                    truth.push(row);
                }
            } else {
                let victim = truth.remove(rng() % truth.len());
                assert!(rep.delete(&victim).unwrap(), "step {step}");
            }
            assert_eq!(rep.tuple_count(), truth.len(), "step {step}");
        }
        let rel2 = Relation::from_rows(rel.schema().clone(), truth.iter().cloned());
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "churn diverged from rebuild");
        assert_eq!(rep.flatten().canonical(), fresh.flatten().canonical());
        rep.check_invariants().unwrap();
    }
}
