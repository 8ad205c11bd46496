//! F-plan operators on factorised representations (§2.1, §3, §4.2).
//!
//! Each operator transforms an [`crate::frep::FRep`] into another one, changing the
//! f-tree and mirroring the change on the data in one pass:
//!
//! | operator | implements | module |
//! |---|---|---|
//! | `product` | cross product (cheapest op: forest union) | [`mod@product`] |
//! | `select_const` | `A θ c` selections | [`select`] |
//! | `merge` / `absorb` | `A = B` selections (siblings / path) | [`restructure`] |
//! | `swap` | restructuring `χ_{A,B}` | [`restructure`] |
//! | `aggregate` | the new aggregation operator `γ_F(U)` | [`mod@aggregate`] |
//! | `project_away` | projection (leaf removal, with push-down) | [`project`] |
//! | `rename` | constant-time attribute renaming | [`project`] |
//!
//! Every operator exists in **two physical forms** over the arena
//! storage of [`crate::frep`]:
//!
//! * the **legacy copy transform** (`select_const`, `merge`, …): walks
//!   the source arena through [`crate::frep::UnionRef`] cursors and
//!   appends the rewritten representation into a fresh destination
//!   arena, deep-copying every untouched fragment record by record
//!   (`Arena::copy_union_from`). One full arena materialisation per
//!   operator — the reference semantics the differential suites pin.
//! * the **in-place rewrite** (`select_const_inplace`,
//!   `swap_inplace`, …): appends only the rewritten fragment to the
//!   *same* arena the representation lives in and **shares** untouched
//!   subtrees by id (`rewrite_at_inplace`). No per-operator
//!   materialisation; superseded records along the rewritten root path
//!   become unreachable garbage that the staged pipeline executor
//!   ([`crate::pipeline`]) sheds in one compaction pass per plan.
//!
//! `product` is the exception in both forms: it splices the right
//! arena onto the left in one wholesale table append without touching
//! the left side at all. `swap` has one regroup kernel: its copying
//! form is the in-place rewrite followed by one sharing-preserving
//! compaction (`swap_inplace(..)?.compact()`).
//!
//! All operators preserve the sortedness invariant of unions and prune
//! entries whose subtrees become empty, cascading towards the roots.

pub mod aggregate;
pub mod product;
pub mod project;
pub mod restructure;
pub mod select;

pub use aggregate::{aggregate, aggregate_par, aggregate_par_inplace, AggTarget};
pub use product::product;
pub use project::{project_away, project_away_inplace, remove_leaf, remove_leaf_inplace, rename};
pub use restructure::{absorb, absorb_inplace, merge, merge_inplace, swap, swap_inplace};
pub use select::{select_const, select_const_inplace};

use crate::error::Result;
use crate::frep::{Arena, UnionId, UnionRef};
use crate::ftree::{FTree, NodeId};

/// Rewrites every occurrence of `target`'s union, copying everything
/// else from `src` into `dst` unchanged.
///
/// The unions of a node occur once per combination of its ancestors'
/// values; this walks the unique root path (computed on the f-tree *before*
/// any structural change) and calls `f` on each occurrence, passing the
/// source cursor and the destination arena. If `f` returns `None` — or a
/// union with no entries — the containing entry is pruned and pruning
/// cascades upward; at the root an empty union denotes the empty
/// relation.
pub(crate) fn rewrite_at(
    tree: &FTree,
    src: &Arena,
    roots: &[UnionId],
    target: NodeId,
    dst: &mut Arena,
    f: &mut dyn FnMut(UnionRef<'_>, &mut Arena) -> Result<Option<UnionId>>,
) -> Result<Vec<UnionId>> {
    let path = tree.root_path(target);
    let root_idx = tree
        .roots()
        .iter()
        .position(|&r| r == path[0])
        .expect("target's root is a forest root");
    let mut out = Vec::with_capacity(roots.len());
    for (i, &r) in roots.iter().enumerate() {
        if i == root_idx {
            let nu = rewrite_rec(tree, src, r, &path, f, dst)?;
            out.push(nu.unwrap_or_else(|| dst.empty_union(path[0])));
        } else {
            out.push(dst.copy_union_from(src, r));
        }
    }
    Ok(out)
}

fn rewrite_rec(
    tree: &FTree,
    src: &Arena,
    uid: UnionId,
    path: &[NodeId],
    f: &mut dyn FnMut(UnionRef<'_>, &mut Arena) -> Result<Option<UnionId>>,
    dst: &mut Arena,
) -> Result<Option<UnionId>> {
    let u = src.union(uid);
    debug_assert_eq!(u.node(), path[0]);
    if path.len() == 1 {
        return Ok(f(u, dst)?.filter(|&nu| dst.union_len(nu) > 0));
    }
    let child_idx = tree
        .node(path[0])
        .children
        .iter()
        .position(|&c| c == path[1])
        .expect("path step is a child");
    let mut specs = Vec::with_capacity(u.len());
    let mut kid_ids: Vec<UnionId> = Vec::new();
    for e in u.entries() {
        // Rewrite the on-path child first: a pruned subtree skips the
        // sibling copies entirely.
        let Some(nu) = rewrite_rec(tree, src, e.child_id(child_idx), &path[1..], f, dst)? else {
            continue;
        };
        kid_ids.clear();
        for (j, c) in e.child_ids().enumerate() {
            kid_ids.push(if j == child_idx {
                nu
            } else {
                dst.copy_union_from(src, c)
            });
        }
        specs.push(dst.entry(u.node(), e.value().clone(), &kid_ids));
    }
    Ok((!specs.is_empty()).then(|| dst.push_union(u.node(), &specs)))
}

/// In-place analog of [`rewrite_at`]: rewrites every occurrence of
/// `target`'s union by **appending** to the same arena the
/// representation lives in, returning the new root ids.
///
/// Untouched sibling fragments and off-path roots are *shared* by id
/// rather than deep-copied (each share is recorded in the arena's
/// `copies_avoided` counter), so the cost of one operator is the size
/// of the rewritten root-path spine plus whatever `f` appends — not
/// the size of the arena. When nothing below an occurrence changes
/// (`f` returned the input id for every occurrence and no entry was
/// pruned) the containing union is shared wholesale too.
///
/// The closure receives `(&mut Arena, UnionId)` instead of a cursor:
/// in-place rewrites read records by index (they are `Copy`) because a
/// cursor would borrow the arena across the appends.
pub(crate) fn rewrite_at_inplace(
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
            let nu = rewrite_rec_inplace(tree, arena, r, &path, f, &mut memo)?;
            out.push(nu.unwrap_or_else(|| arena.empty_union(path[0])));
        } else {
            arena.note_shared(1);
            out.push(r);
        }
    }
    Ok(out)
}

fn rewrite_rec_inplace(
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
        let Some(nu) = rewrite_rec_inplace(tree, arena, old_kid, &path[1..], f, memo)? else {
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
    if specs.is_empty() {
        memo.insert(uid.0, None);
        return Ok(None);
    }
    arena.note_shared(shared_here);
    let nu = arena.push_union(path[0], &specs);
    memo.insert(uid.0, Some(nu));
    Ok(Some(nu))
}
