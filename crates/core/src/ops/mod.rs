//! F-plan operators on factorised representations (§2.1, §3, §4.2).
//!
//! Each operator transforms an [`crate::frep::FRep`] into another one, changing the
//! f-tree and mirroring the change on the data in one pass:
//!
//! | operator | implements | module |
//! |---|---|---|
//! | `product` | cross product (cheapest op: forest union) | [`mod@product`] |
//! | `select_const` | `A θ c` selections, by binary search on atomic unions; a run right before a `γ` over its nodes is that `γ`'s mask instead | [`select`] |
//! | `merge` / `absorb` | `A = B` selections (siblings / path) | [`restructure`] |
//! | `swap` | restructuring `χ_{A,B}` | [`restructure`] |
//! | `aggregate` | the new aggregation operator `γ_F(U)`, optionally reading a selection run as a 0/1 mask (entries it empties skipped, never scaled by zero) | [`mod@aggregate`] |
//! | `group_fold` | `γ_F` grouped by nodes on one root path, every function in one pass | [`mod@aggregate`] |
//! | `project_away` | projection (leaf removal, with push-down) | [`project`] |
//! | `rename` | constant-time attribute renaming | [`project`] |
//!
//! Every operator is a **rewrite of the representation in place**
//! (the FDB engine paper's reading of an f-plan operator): it appends
//! only the fragment it rewrites to the arena of [`crate::frep`] the
//! representation already lives in and **shares** every untouched
//! subtree by id (`rewrite_spine`), recording each share in the arena's
//! `copies_avoided` counter. No operator materialises the whole
//! representation; the superseded records along a rewritten root path
//! become unreachable garbage, which each operator notes in the arena's
//! dead count as it replaces them (`Arena::note_replaced`) and the
//! staged pipeline executor ([`crate::pipeline`]) sheds in at most one
//! compaction pass per plan.
//! A caller that applies operators by hand and wants a tight arena calls
//! [`crate::frep::FRep::compact`] itself.
//!
//! `product` splices the right arena onto the left in one wholesale
//! table append without touching the left side at all.
//!
//! All operators preserve the sortedness invariant of unions and prune
//! entries whose subtrees become empty, cascading towards the roots.

pub mod aggregate;
pub mod product;
pub mod project;
pub mod restructure;
pub mod select;

pub use aggregate::{aggregate, group_fold, AggTarget};
pub use product::product;
pub use project::{project_away, remove_leaf, rename};
pub use restructure::{absorb, merge, swap};
pub use select::select_const;

use crate::error::Result;
use crate::frep::{Arena, UnionId};
use crate::ftree::{FTree, NodeId};

/// Rewrites every occurrence of `target`'s union by **appending** to
/// the arena the representation lives in, returning the new root ids.
///
/// The unions of a node occur once per combination of its ancestors'
/// values; this walks the unique root path (computed on the f-tree
/// *before* any structural change) and calls `f` on each occurrence. If
/// `f` returns `None` — or a union with no entries — the containing
/// entry is pruned and pruning cascades upward; at the root an empty
/// union denotes the empty relation.
///
/// Untouched sibling fragments and off-path roots are *shared* by id
/// rather than deep-copied (each share is recorded in the arena's
/// `copies_avoided` counter), so the cost of one operator is the size
/// of the rewritten root-path spine plus whatever `f` appends — not
/// the size of the arena. When nothing below an occurrence changes
/// (`f` returned the input id for every occurrence and no entry was
/// pruned) the containing union is shared wholesale too.
///
/// Every union the walk replaces — each occurrence `f` rewrites or
/// prunes, and each spine union re-emitted or pruned above one — is
/// noted dead in the arena ([`Arena::note_replaced`]); `f` notes what
/// else it supersedes.
///
/// The closure receives `(&mut Arena, UnionId)` instead of a cursor:
/// rewrites read records by index (they are `Copy`) because a cursor
/// would borrow the arena across the appends.
pub(crate) fn rewrite_spine(
    tree: &FTree,
    arena: &mut Arena,
    roots: &[UnionId],
    target: NodeId,
    f: &mut dyn FnMut(&mut Arena, UnionId) -> Result<Option<UnionId>>,
) -> Result<Vec<UnionId>> {
    let path = tree.root_path(target);
    let root_idx = tree
        .roots()
        .iter()
        .position(|&r| r == path[0])
        .expect("target's root is a forest root");
    // Earlier in-place operators share fragments, so the walk runs over
    // a DAG: a union referenced from several parents must be rewritten
    // once and re-shared, not expanded per parent. Rewrites are
    // deterministic functions of the input union, so memoising by
    // source id is sound (`None` = pruned).
    let mut memo: std::collections::HashMap<u32, Option<UnionId>> =
        std::collections::HashMap::new();
    let mut out = Vec::with_capacity(roots.len());
    for (i, &r) in roots.iter().enumerate() {
        if i == root_idx {
            let nu = rewrite_spine_rec(tree, arena, r, &path, f, &mut memo)?;
            out.push(nu.unwrap_or_else(|| arena.empty_union(path[0])));
        } else {
            arena.note_shared(1);
            out.push(r);
        }
    }
    Ok(out)
}

fn rewrite_spine_rec(
    tree: &FTree,
    arena: &mut Arena,
    uid: UnionId,
    path: &[NodeId],
    f: &mut dyn FnMut(&mut Arena, UnionId) -> Result<Option<UnionId>>,
    memo: &mut std::collections::HashMap<u32, Option<UnionId>>,
) -> Result<Option<UnionId>> {
    debug_assert_eq!(arena.urec(uid).node, path[0]);
    if let Some(&m) = memo.get(&uid.0) {
        if m.is_some() {
            arena.note_shared(1);
        }
        return Ok(m);
    }
    if path.len() == 1 {
        let nu = f(arena, uid)?.filter(|&nu| arena.union_len(nu) > 0);
        if nu != Some(uid) {
            arena.note_replaced(uid);
        }
        memo.insert(uid.0, nu);
        return Ok(nu);
    }
    let child_idx = tree
        .node(path[0])
        .children
        .iter()
        .position(|&c| c == path[1])
        .expect("path step is a child");
    let rec = arena.urec(uid);
    let mut specs = Vec::with_capacity(rec.len as usize);
    let mut kid_ids: Vec<UnionId> = Vec::new();
    let mut unchanged = true;
    // Kid shares are tallied locally and committed only when the
    // rewritten spine level is actually emitted -- the
    // unchanged-wholesale path discards its specs and must not count
    // them.
    let mut shared_here: u64 = 0;
    for i in rec.start..rec.start + rec.len {
        let e = arena.erec(i);
        let old_kid = arena.kid_at(e.kids_start + child_idx as u32);
        let Some(nu) = rewrite_spine_rec(tree, arena, old_kid, &path[1..], f, memo)? else {
            unchanged = false;
            continue;
        };
        unchanged &= nu == old_kid;
        kid_ids.clear();
        for k in 0..e.kids_len {
            if k as usize == child_idx {
                kid_ids.push(nu);
            } else {
                shared_here += 1;
                kid_ids.push(arena.kid_at(e.kids_start + k));
            }
        }
        specs.push(arena.entry_shared_val(e.val, &kid_ids));
    }
    if unchanged {
        // Nothing below this occurrence changed: share it wholesale
        // (the spec kid-ranges appended above become garbage for the
        // per-plan compaction pass to shed).
        arena.note_shared(1);
        memo.insert(uid.0, Some(uid));
        return Ok(Some(uid));
    }
    arena.note_replaced(uid);
    if specs.is_empty() {
        memo.insert(uid.0, None);
        return Ok(None);
    }
    arena.note_shared(shared_here);
    let nu = arena.push_union(path[0], &specs);
    memo.insert(uid.0, Some(nu));
    Ok(Some(nu))
}

/// The independent reference the operator unit tests hold every
/// operator to: its relational counterpart applied to the input's
/// flattening.
#[cfg(test)]
pub(crate) mod reference {
    use crate::frep::FRep;
    use crate::ftree::FTree;
    use fdb_relational::Relation;

    /// Asserts that `got` is the factorisation of `want` over `tree`,
    /// the f-tree the tree-level operator simulates. Over
    /// single-attribute atomic nodes the reference is
    /// `FRep::from_relation(want, tree)`, compared structurally. Class
    /// and aggregate nodes have no `from_relation` form; there the
    /// flattenings must agree, which with the invariants pins the same
    /// thing (over a fixed f-tree a relation has one factorisation with
    /// sorted, non-empty unions).
    pub(crate) fn assert_represents(got: &FRep, want: &Relation, tree: &FTree) {
        got.check_invariants().unwrap();
        assert_eq!(got.ftree().canonical_key(), tree.canonical_key(), "f-tree");
        let want = want.project_cols(got.schema().attrs());
        assert_eq!(got.flatten().canonical(), want.canonical(), "tuples");
        if let Ok(rebuilt) = FRep::from_relation(&want, tree.clone()) {
            assert!(got.same_data(&rebuilt), "factorisation");
            assert_eq!(got.singleton_count(), rebuilt.singleton_count());
        }
    }
}
