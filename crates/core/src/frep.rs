//! Factorised representations over f-trees (Definition 1), stored in a
//! flat **arena**.
//!
//! A factorisation over an f-tree is stored in its canonical grouped form:
//! for a node `n` with children `c1…ck`, the data under one group is
//! `⋃_a (⟨n:a⟩ × E1(a) × … × Ek(a))` — a union of entries, each holding
//! the singleton value and one child union per child of `n`.
//!
//! ## Physical layout
//!
//! The nesting structure is *not* a tree of heap-allocated nodes. One
//! [`Arena`] per representation holds four flat tables:
//!
//! * `unions`  — one 12-byte record per union: its f-tree node and the
//!   range of its entries in the entry table ([`UnionId`] addresses);
//! * `entries` — one 12-byte record per entry (= per singleton): the
//!   index of its value in the per-node column and the range of its
//!   child unions in the kid table;
//! * `kids`    — child [`UnionId`]s, one contiguous range per entry;
//! * `cols`    — per f-tree node, a columnar buffer of the values of
//!   every singleton tagged with that node.
//!
//! A union's entries and an entry's children are therefore index
//! *ranges*, not owned vectors: traversal is array indexing, and
//! constructing or transforming a representation is append-only table
//! building with no per-node allocation. Traversal goes through the
//! cheap copyable cursors [`UnionRef`]/[`EntryRef`]; operators append
//! the fragments they rewrite to the same arena and share the rest by
//! id (see [`crate::ops`]).
//!
//! The tables come in two parts: a frozen **base**, shared through an
//! [`Arc`] by every clone, and a private append **tail**. Ids address
//! `base ++ tail`, every append goes to the tail, and nothing ever
//! writes the base, so cloning a representation — a query's private
//! input, a writer's next version — copies the tail alone. A
//! registered view is sealed (its tail moved into the base), and a
//! written version folds its tail into a fresh base only once the
//! tail outgrows an eighth of the base ([`FRep::settle`]).
//!
//! The nested [`Union`]/[`Entry`] structs survive as a *builder-side*
//! convenience for callers that assemble factorisations by hand (data
//! generators, tests); [`FRep::new`] freezes them into an arena.
//!
//! Invariants maintained by every operator:
//! * entries of every union are sorted by **strictly ascending** value
//!   (§4.1: "singletons within each union are kept sorted");
//! * an entry's kid range is parallel to the f-tree's child list;
//! * unions are non-empty everywhere except at the roots (empty unions are
//!   pruned bottom-up, so emptiness is only representable at the top).

use crate::error::{FdbError, Result};
use crate::ftree::{FTree, NodeId, NodeLabel};
use crate::update::col_map;
use fdb_relational::{AttrId, Catalog, Relation, Schema, Value};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------
// Arena storage
// ---------------------------------------------------------------------

/// Index of a union in an [`Arena`]'s union table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnionId(pub u32);

/// One union: the f-tree node it ranges over and its entry range.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UnionRec {
    pub(crate) node: NodeId,
    /// First entry in [`Arena::entries`].
    pub(crate) start: u32,
    /// Number of entries.
    pub(crate) len: u32,
}

/// One entry (singleton occurrence): value index into the node's column
/// and the kid range.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EntryRec {
    /// Index into `cols[node]` of the owning union's node.
    pub(crate) val: u32,
    /// First kid in [`Arena::kids`].
    pub(crate) kids_start: u32,
    /// Number of child unions (= arity of the f-tree node's child list).
    pub(crate) kids_len: u32,
}

/// An entry under construction: value already pushed to the node column,
/// kids already pushed to the kid table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EntrySpec {
    val: u32,
    kids_start: u32,
    kids_len: u32,
}

impl EntrySpec {
    /// Re-emits an existing entry record verbatim — the delta-update
    /// spine rewrite ([`crate::update`]) carries every untouched entry
    /// of a rewritten union over by id: same value index, same kid
    /// range, zero copies.
    pub(crate) fn from_rec(r: EntryRec) -> EntrySpec {
        EntrySpec {
            val: r.val,
            kids_start: r.kids_start,
            kids_len: r.kids_len,
        }
    }
}

/// One set of arena tables: the frozen base or the private tail of an
/// [`Arena`].
#[derive(Clone, Debug, Default)]
struct Tables {
    unions: Vec<UnionRec>,
    entries: Vec<EntryRec>,
    kids: Vec<UnionId>,
    /// Per f-tree node id: the values of every entry tagged with it.
    cols: Vec<Vec<Value>>,
}

impl Tables {
    /// `node`'s value column (empty when nothing was pushed for it).
    fn col(&self, node: usize) -> &[Value] {
        self.cols.get(node).map_or(&[], Vec::as_slice)
    }

    /// Records of every kind, values included — the unit of the fold
    /// rule ([`FOLD_FRACTION`]).
    fn records(&self) -> usize {
        self.unions.len()
            + self.entries.len()
            + self.kids.len()
            + self.cols.iter().map(Vec::len).sum::<usize>()
    }

    fn is_empty(&self) -> bool {
        self.unions.is_empty()
            && self.entries.is_empty()
            && self.kids.is_empty()
            && self.cols.iter().all(Vec::is_empty)
    }

    /// This table set followed by `next`, whose ids continue this
    /// one's, in tables of exactly that size.
    fn concat(&self, next: &Tables) -> Tables {
        fn join<T: Clone>(a: &[T], b: &[T]) -> Vec<T> {
            let mut v = Vec::with_capacity(a.len() + b.len());
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            v
        }
        Tables {
            unions: join(&self.unions, &next.unions),
            entries: join(&self.entries, &next.entries),
            kids: join(&self.kids, &next.kids),
            cols: (0..self.cols.len().max(next.cols.len()))
                .map(|n| join(self.col(n), next.col(n)))
                .collect(),
        }
    }

    /// Appends `next`, whose ids continue this table set's.
    fn extend_from(&mut self, next: &Tables) {
        self.unions.extend_from_slice(&next.unions);
        self.entries.extend_from_slice(&next.entries);
        self.kids.extend_from_slice(&next.kids);
        if self.cols.len() < next.cols.len() {
            self.cols.resize_with(next.cols.len(), Vec::new);
        }
        for (col, more) in self.cols.iter_mut().zip(&next.cols) {
            col.extend_from_slice(more);
        }
    }
}

/// The frozen base of an [`Arena`]: its tables and, built on first use,
/// their count annotations. Every representation over the base — every
/// clone, and every version written over it — reads the one build.
#[derive(Debug, Default)]
struct Base {
    tables: Tables,
    counts: OnceLock<Arc<Counts>>,
}

/// A published view folds its tail into a fresh base once the tail
/// holds more than one record per this many base records: a snapshot
/// then copies at most an eighth of the view, and each fold — one copy
/// of the view — is paid for by the writes that grew the tail by an
/// eighth of it.
const FOLD_FRACTION: usize = 8;

/// One table of an [`Arena`] as the two slices its id space spans: an
/// id below the base's length addresses the base, the rest the tail.
#[derive(Debug)]
pub(crate) struct Split<'a, T> {
    base: &'a [T],
    tail: &'a [T],
}

impl<T> Clone for Split<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Split<'_, T> {}

impl<'a, T> Split<'a, T> {
    /// The element at id `i`.
    #[inline]
    pub(crate) fn get(self, i: u32) -> &'a T {
        let i = i as usize;
        match self.base.get(i) {
            Some(x) => x,
            None => &self.tail[i - self.base.len()],
        }
    }

    /// The run of `len` ids from `start`. Every run the arena hands out
    /// was pushed in one go, so it lies in the base or in the tail.
    #[inline]
    fn run(self, start: u32, len: u32) -> &'a [T] {
        let s = start as usize;
        let (part, s) = match s.checked_sub(self.base.len()) {
            None => (self.base, s),
            Some(t) => (self.tail, t),
        };
        &part[s..s + len as usize]
    }

    pub(crate) fn len(self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// The `n` elements from id `start` as one slice, unless they
    /// straddle the base/tail boundary.
    fn slice(self, start: usize, n: usize) -> Option<&'a [T]> {
        let b = self.base.len();
        if start + n <= b {
            Some(&self.base[start..start + n])
        } else if start >= b {
            Some(&self.tail[start - b..start - b + n])
        } else {
            None
        }
    }
}

impl<T> std::ops::Index<usize> for Split<'_, T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i as u32)
    }
}

/// One node's value column, addressed by [`EntryRec::val`].
pub(crate) type Col<'a> = Split<'a, Value>;

/// A read-only borrow of every table of an [`Arena`], base and tail
/// side by side. A walk that only reads holds one, so each record it
/// reads is one slice away instead of behind the base's [`Arc`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tabs<'a> {
    unions: Split<'a, UnionRec>,
    entries: Split<'a, EntryRec>,
    kids: Split<'a, UnionId>,
    cols: (&'a [Vec<Value>], &'a [Vec<Value>]),
}

impl<'a> Tabs<'a> {
    /// The record of union `id`.
    #[inline]
    pub(crate) fn urec(self, id: UnionId) -> UnionRec {
        *self.unions.get(id.0)
    }

    /// The record of the entry at absolute index `i` in the entry table.
    #[inline]
    pub(crate) fn erec(self, i: u32) -> EntryRec {
        *self.entries.get(i)
    }

    /// The kid at absolute index `k` in the kid table.
    #[inline]
    pub(crate) fn kid_at(self, k: u32) -> UnionId {
        *self.kids.get(k)
    }

    /// The entry records of union `rec`, in order.
    #[inline]
    pub(crate) fn entries_of(self, rec: UnionRec) -> &'a [EntryRec] {
        self.entries.run(rec.start, rec.len)
    }

    /// The child union ids of entry `e`, in f-tree child order.
    #[inline]
    pub(crate) fn kids_of(self, e: EntryRec) -> &'a [UnionId] {
        self.kids.run(e.kids_start, e.kids_len)
    }

    /// `node`'s whole value column (indexed by [`EntryRec::val`]).
    #[inline]
    pub(crate) fn col(self, node: NodeId) -> Col<'a> {
        let n = node.0 as usize;
        let part = |cols: &'a [Vec<Value>]| cols.get(n).map_or(&[][..], Vec::as_slice);
        Split {
            base: part(self.cols.0),
            tail: part(self.cols.1),
        }
    }

    /// Entry records of the subtree under `uid`, `uid`'s own included.
    fn subtree_entries(self, uid: UnionId) -> u64 {
        let mut stack = vec![uid];
        let mut n = 0u64;
        while let Some(uid) = stack.pop() {
            let u = self.urec(uid);
            n += u64::from(u.len);
            for &e in self.entries_of(u) {
                for &k in self.kids_of(e) {
                    stack.push(k);
                }
            }
        }
        n
    }

    /// Tuples in the subtree under `uid`, counted over just that subtree:
    /// per entry the product of its kids' counts, summed (saturating).
    pub(crate) fn tuple_count(&self, uid: UnionId) -> u64 {
        self.entries_of(self.urec(uid))
            .iter()
            .map(|&e| {
                self.kids_of(e)
                    .iter()
                    .map(|&k| self.tuple_count(k))
                    .fold(1, u64::saturating_mul)
            })
            .fold(0, u64::saturating_add)
    }
}

/// Flat storage for one factorised representation (see module docs):
/// a frozen, [`Arc`]-shared **base** and a private append **tail**.
///
/// Ids (of unions, entries, kids, and per node of values) address the
/// concatenation `base ++ tail`: an id below the base table's length
/// addresses the base, the rest the tail. Every append goes to the
/// tail, so the base is never written and clones share it: cloning
/// costs the tail, not the representation. A union's entries and an
/// entry's kids are pushed together, so each such run lies in one of
/// the two. A union's kids are older than it — they exist when its
/// entries name them — so every kid id is below its union's id (the
/// count index counts in one pass in id order).
#[derive(Clone, Debug, Default)]
pub struct Arena {
    base: Arc<Base>,
    tail: Tables,
    /// Untouched fragments *shared* by id (instead of deep-copied) by
    /// the f-plan operators — see [`crate::ops`]. Purely diagnostic; carried through
    /// [`Arena::append`] and compaction.
    copies_avoided: u64,
    /// Entry records noted dead — unlinked by the delta mutators
    /// ([`crate::update`]), or replaced by the f-plan operators
    /// ([`crate::ops`]): counted as they go instead of found by a walk
    /// (see [`FRep::dead_outnumber_live`]).
    dead: u64,
}

impl Arena {
    fn n_unions(&self) -> usize {
        self.base.tables.unions.len() + self.tail.unions.len()
    }

    fn n_entries(&self) -> usize {
        self.base.tables.entries.len() + self.tail.entries.len()
    }

    fn n_kids(&self) -> usize {
        self.base.tables.kids.len() + self.tail.kids.len()
    }

    /// Appends `v` to `node`'s column; returns its index therein.
    pub(crate) fn push_value(&mut self, node: NodeId, v: Value) -> u32 {
        let n = node.0 as usize;
        if self.tail.cols.len() <= n {
            self.tail.cols.resize_with(n + 1, Vec::new);
        }
        let col = &mut self.tail.cols[n];
        col.push(v);
        (self.base.tables.col(n).len() + col.len() - 1) as u32
    }

    /// Appends one union of `node` per run of `runs` (their lengths, in
    /// order) over `values`: entry `i` holds `values[i]` over the kid
    /// union `first_kid + i` (over none when `first_kid` is `None`). The
    /// bulk form of [`Arena::entry`] and [`Arena::push_union`] for unions
    /// built level by level, bottom-up: each table grows by one append.
    /// Returns the first new union's id, the others following in order.
    pub(crate) fn push_runs(
        &mut self,
        node: NodeId,
        values: Vec<Value>,
        runs: impl IntoIterator<Item = u32>,
        first_kid: Option<UnionId>,
    ) -> UnionId {
        let n = node.0 as usize;
        let first = UnionId(self.n_unions() as u32);
        let val = (self.base.tables.col(n).len() + self.tail.col(n).len()) as u32;
        let (kid, mut start) = (self.n_kids() as u32, self.n_entries() as u32);
        let tail = &mut self.tail;
        if tail.cols.len() <= n {
            tail.cols.resize_with(n + 1, Vec::new);
        }
        let len = values.len() as u32;
        let kids_len = u32::from(first_kid.is_some());
        tail.entries.extend((0..len).map(|i| EntryRec {
            val: val + i,
            kids_start: kid + i * kids_len,
            kids_len,
        }));
        if let Some(k) = first_kid {
            tail.kids.extend((0..len).map(|i| UnionId(k.0 + i)));
        }
        tail.unions.extend(runs.into_iter().map(|len| {
            start += len;
            UnionRec {
                node,
                start: start - len,
                len,
            }
        }));
        let col = &mut tail.cols[n];
        if col.is_empty() {
            *col = values;
        } else {
            col.extend(values);
        }
        first
    }

    /// Appends a kid list; returns an [`EntrySpec`] once paired with a
    /// value via [`Arena::entry`].
    pub(crate) fn push_kids(&mut self, kids: &[UnionId]) -> (u32, u32) {
        let start = self.n_kids() as u32;
        self.tail.kids.extend_from_slice(kids);
        (start, kids.len() as u32)
    }

    /// Builds one entry spec: pushes the value and the kid list.
    pub(crate) fn entry(&mut self, node: NodeId, value: Value, kids: &[UnionId]) -> EntrySpec {
        let (kids_start, kids_len) = self.push_kids(kids);
        let val = self.push_value(node, value);
        EntrySpec {
            val,
            kids_start,
            kids_len,
        }
    }

    /// Builds one entry spec *reusing* an existing value index of the
    /// owning node's column — the in-place rewrites re-emit entries of
    /// the same node within the same arena, so the singleton value need
    /// not be cloned or re-pushed (a tail entry may reuse a base value).
    pub(crate) fn entry_shared_val(&mut self, val: u32, kids: &[UnionId]) -> EntrySpec {
        let (kids_start, kids_len) = self.push_kids(kids);
        EntrySpec {
            val,
            kids_start,
            kids_len,
        }
    }

    /// Reserves room for `unions`, `entries` and `kids` more records —
    /// a rewrite that knows its exact output counts appends without
    /// regrowing the tables mid-way.
    pub(crate) fn reserve(&mut self, unions: usize, entries: usize, kids: usize) {
        self.tail.unions.reserve(unions);
        self.tail.entries.reserve(entries);
        self.tail.kids.reserve(kids);
    }

    /// Where the next kid list starts: append its kids with
    /// [`Arena::push_kid`], then close it with [`Arena::entry_since`].
    /// Builds an entry without staging its kid list in a temporary
    /// vector.
    pub(crate) fn kids_mark(&self) -> u32 {
        self.n_kids() as u32
    }

    /// Appends one kid to the open kid list.
    pub(crate) fn push_kid(&mut self, kid: UnionId) {
        self.tail.kids.push(kid);
    }

    /// Closes the kid list opened at `mark` into an entry spec reusing
    /// value index `val` of the owning node's column.
    pub(crate) fn entry_since(&self, val: u32, mark: u32) -> EntrySpec {
        EntrySpec {
            val,
            kids_start: mark,
            kids_len: self.n_kids() as u32 - mark,
        }
    }

    /// Appends a union with the given entries (laid out contiguously in
    /// the entry table, in slice order).
    pub(crate) fn push_union(&mut self, node: NodeId, entries: &[EntrySpec]) -> UnionId {
        let start = self.n_entries() as u32;
        self.tail.entries.extend(entries.iter().map(|s| EntryRec {
            val: s.val,
            kids_start: s.kids_start,
            kids_len: s.kids_len,
        }));
        self.tail.unions.push(UnionRec {
            node,
            start,
            len: entries.len() as u32,
        });
        UnionId(self.n_unions() as u32 - 1)
    }

    /// An empty union for `node` (representable only at the roots).
    pub(crate) fn empty_union(&mut self, node: NodeId) -> UnionId {
        self.push_union(node, &[])
    }

    /// Retags the empty union `id` to `node`: in place when it sits in
    /// the tail; a base record is never written, so an empty union of
    /// the base is replaced by a fresh one.
    fn retag_empty(&mut self, id: UnionId, node: NodeId) -> UnionId {
        match (id.0 as usize).checked_sub(self.base.tables.unions.len()) {
            Some(t) => {
                self.tail.unions[t].node = node;
                id
            }
            None => self.empty_union(node),
        }
    }

    /// Cursor over union `id`.
    pub(crate) fn union(&self, id: UnionId) -> UnionRef<'_> {
        UnionRef { arena: self, id }
    }

    pub(crate) fn union_len(&self, id: UnionId) -> usize {
        self.urec(id).len as usize
    }

    // -----------------------------------------------------------------
    // Index-based record access — the f-plan operators read and append
    // to the *same* arena, so they cannot hold `UnionRef` cursors
    // (which borrow the arena) across appends. Records are `Copy`; reads through `&self` reborrows of a
    // `&mut Arena` are always safe because the tables are append-only.
    // -----------------------------------------------------------------

    /// All tables, borrowed for a read-only walk.
    #[inline]
    pub(crate) fn tabs(&self) -> Tabs<'_> {
        let (b, t) = (&self.base.tables, &self.tail);
        Tabs {
            unions: Split {
                base: &b.unions,
                tail: &t.unions,
            },
            entries: Split {
                base: &b.entries,
                tail: &t.entries,
            },
            kids: Split {
                base: &b.kids,
                tail: &t.kids,
            },
            cols: (&b.cols, &t.cols),
        }
    }

    /// The record of union `id`.
    #[inline]
    pub(crate) fn urec(&self, id: UnionId) -> UnionRec {
        self.tabs().urec(id)
    }

    /// The record of the entry at absolute index `i` in the entry table.
    #[inline]
    pub(crate) fn erec(&self, i: u32) -> EntryRec {
        self.tabs().erec(i)
    }

    /// The kid at absolute index `k` in the kid table.
    #[inline]
    pub(crate) fn kid_at(&self, k: u32) -> UnionId {
        self.tabs().kid_at(k)
    }

    /// The entry records of union `rec`, in order.
    #[inline]
    pub(crate) fn entries_of(&self, rec: UnionRec) -> &[EntryRec] {
        self.tabs().entries_of(rec)
    }

    /// The child union ids of entry `e`, in f-tree child order.
    #[inline]
    pub(crate) fn kids_of(&self, e: EntryRec) -> &[UnionId] {
        self.tabs().kids_of(e)
    }

    /// The value at index `val` of `node`'s column.
    #[inline]
    pub(crate) fn value_at(&self, node: NodeId, val: u32) -> &Value {
        self.col(node).get(val)
    }

    /// `node`'s whole value column (indexed by [`EntryRec::val`]).
    #[inline]
    pub(crate) fn col(&self, node: NodeId) -> Col<'_> {
        self.tabs().col(node)
    }

    /// Binary search of union `uid` for `v`; returns the *absolute*
    /// entry-table index of the match (entries are sorted ascending).
    pub(crate) fn find_entry(&self, uid: UnionId, v: &Value) -> Option<u32> {
        self.search_entry(uid, v).ok()
    }

    /// Binary search of union `uid` for `v` with the insertion point on
    /// a miss: `Ok(abs)` is the *absolute* entry-table index of the
    /// match, `Err(phys)` the *physical* position within the union
    /// where `v` would keep the entries strictly ascending. The delta
    /// insert ([`crate::update`]) splices a fresh entry run there.
    pub(crate) fn search_entry(&self, uid: UnionId, v: &Value) -> std::result::Result<u32, u32> {
        let rec = self.urec(uid);
        // An empty root of an empty representation: its node may not
        // even have a value column yet.
        let col = self.col(rec.node);
        self.entries_of(rec)
            .binary_search_by(|e| col.get(e.val).cmp(v))
            .map(|i| rec.start + i as u32)
            .map_err(|i| i as u32)
    }

    /// Physical entry records reachable from `roots`, counting shared
    /// unions once (iterative walk with a visited set — O(live); the
    /// oracle the tests hold the dead-record accounting to).
    fn live_entry_count(&self, roots: &[UnionId]) -> usize {
        let t = self.tabs();
        let mut seen = vec![false; self.n_unions()];
        let mut stack: Vec<UnionId> = roots.to_vec();
        let mut live = 0usize;
        while let Some(uid) = stack.pop() {
            let seen_slot = &mut seen[uid.0 as usize];
            if *seen_slot {
                continue;
            }
            *seen_slot = true;
            let u = t.urec(uid);
            live += u.len as usize;
            for &e in t.entries_of(u) {
                for &k in t.kids_of(e) {
                    stack.push(k);
                }
            }
        }
        live
    }

    /// Records `n` fragments shared by id instead of deep-copied.
    pub(crate) fn note_shared(&mut self, n: u64) {
        self.copies_avoided += n;
    }

    /// Total fragments shared by id instead of deep-copied so far.
    pub(crate) fn copies_avoided(&self) -> u64 {
        self.copies_avoided
    }

    /// Records `n` entry records a delta mutator unlinked.
    pub(crate) fn note_dead(&mut self, n: u64) {
        self.dead = self.dead.saturating_add(n);
    }

    /// Records the entry records of union `uid` as dead: an operator
    /// replaced it.
    pub(crate) fn note_replaced(&mut self, uid: UnionId) {
        self.note_dead(u64::from(self.urec(uid).len));
    }

    /// Counts every entry record as dead: nothing the arena holds is
    /// reachable any more (a delete emptied the product).
    pub(crate) fn note_all_dead(&mut self) {
        self.note_dead_before(self.entry_mark());
    }

    /// The entry records so far: the mark [`Arena::note_dead_before`]
    /// takes.
    pub(crate) fn entry_mark(&self) -> u64 {
        self.n_entries() as u64
    }

    /// Counts every entry record older than `mark` as dead and none
    /// since: an operator consumed all the arena held when it started.
    pub(crate) fn note_dead_before(&mut self, mark: u64) {
        self.dead = mark;
    }

    /// Entry records of the subtree under `uid`, `uid`'s own included —
    /// what unlinking `uid` kills.
    pub(crate) fn subtree_entries(&self, uid: UnionId) -> u64 {
        self.tabs().subtree_entries(uid)
    }

    /// Moves the tail into the base when that copies no base record:
    /// when the base is empty or owned by this arena alone. Otherwise
    /// leaves the arena as it is.
    pub(crate) fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        if let Some(base) = Arc::get_mut(&mut self.base) {
            base.counts = OnceLock::new();
            if base.tables.is_empty() {
                base.tables = std::mem::take(&mut self.tail);
            } else {
                base.tables.extend_from(&self.tail);
                self.tail = Tables::default();
            }
        }
    }

    /// Folds the tail into a fresh base, copying the base when other
    /// arenas share it; ids do not change.
    pub(crate) fn fold(&mut self) {
        self.seal();
        if self.tail.is_empty() {
            return;
        }
        self.base = Arc::new(Base {
            tables: self.base.tables.concat(&self.tail),
            counts: OnceLock::new(),
        });
        self.tail = Tables::default();
    }

    /// Whether the tail holds more than one record per
    /// [`FOLD_FRACTION`] base records.
    pub(crate) fn tail_outgrew_base(&self) -> bool {
        self.tail.records() * FOLD_FRACTION > self.base.tables.records()
    }

    /// Copies the live data reachable from `roots` into a fresh, sealed
    /// arena, **preserving sharing**: a union referenced from several
    /// parents (the f-plan operators share untouched fragments by id)
    /// is copied exactly once and re-referenced. This
    /// is the single per-plan "garbage collection" pass of the staged
    /// executor — everything unreachable (superseded path spines of the
    /// in-place rewrites) is shed.
    pub(crate) fn compact(&self, roots: &[UnionId]) -> (Arena, Vec<UnionId>) {
        let mut dst = Arena {
            copies_avoided: self.copies_avoided,
            ..Arena::default()
        };
        // Flat memo table indexed by source union id (u32::MAX = not
        // yet copied): O(1) sharing detection without hashing.
        let mut memo: Vec<u32> = vec![u32::MAX; self.n_unions()];
        let mut kid_scratch: Vec<UnionId> = Vec::new();
        let mut spec_scratch: Vec<EntrySpec> = Vec::new();
        let new_roots = roots
            .iter()
            .map(|&r| self.compact_rec(r, &mut dst, &mut memo, &mut kid_scratch, &mut spec_scratch))
            .collect();
        dst.seal();
        (dst, new_roots)
    }

    fn compact_rec(
        &self,
        uid: UnionId,
        dst: &mut Arena,
        memo: &mut Vec<u32>,
        kid_scratch: &mut Vec<UnionId>,
        spec_scratch: &mut Vec<EntrySpec>,
    ) -> UnionId {
        let m = memo[uid.0 as usize];
        if m != u32::MAX {
            return UnionId(m);
        }
        let rec = self.urec(uid);
        let col = self.col(rec.node);
        let spec_base = spec_scratch.len();
        for &e in self.entries_of(rec) {
            let kid_base = kid_scratch.len();
            for &kid in self.kids_of(e) {
                let cid = self.compact_rec(kid, dst, memo, kid_scratch, spec_scratch);
                kid_scratch.push(cid);
            }
            let spec = dst.entry(rec.node, col.get(e.val).clone(), &kid_scratch[kid_base..]);
            kid_scratch.truncate(kid_base);
            spec_scratch.push(spec);
        }
        let out = dst.push_union(rec.node, &spec_scratch[spec_base..]);
        spec_scratch.truncate(spec_base);
        memo[uid.0 as usize] = out.0;
        out
    }

    /// Appends another arena wholesale — its base and its tail, both
    /// into this arena's tail — shifting its f-tree node ids by
    /// `node_offset`; returns the [`UnionId`] offset to add to `sub` ids.
    ///
    /// Every entry reachable from a union of `sub` is re-based exactly
    /// once (each live entry belongs to exactly one union); unreachable
    /// garbage keeps stale value indices but is never read.
    pub(crate) fn append(&mut self, sub: Arena, node_offset: u32) -> u32 {
        let off = node_offset as usize;
        let union_base = self.n_unions() as u32;
        let entry_base = self.n_entries() as u32;
        let kid_base = self.n_kids() as u32;
        let sub_cols = sub.base.tables.cols.len().max(sub.tail.cols.len());
        if self.tail.cols.len() < sub_cols + off {
            self.tail.cols.resize_with(sub_cols + off, Vec::new);
        }
        let col_base: Vec<u32> = (0..sub_cols)
            .map(|n| self.col(NodeId((n + off) as u32)).len() as u32)
            .collect();
        let segments = [&sub.base.tables, &sub.tail];
        for seg in segments {
            for (n, col) in seg.cols.iter().enumerate() {
                self.tail.cols[n + off].extend_from_slice(col);
            }
        }
        for seg in segments {
            self.tail
                .kids
                .extend(seg.kids.iter().map(|k| UnionId(k.0 + union_base)));
        }
        let first_entry = self.tail.entries.len();
        for seg in segments {
            self.tail
                .entries
                .extend(seg.entries.iter().map(|e| EntryRec {
                    val: e.val,
                    kids_start: e.kids_start + kid_base,
                    kids_len: e.kids_len,
                }));
        }
        for seg in segments {
            for u in &seg.unions {
                // An empty union's node may have no column at all.
                let shift = col_base.get(u.node.0 as usize).copied().unwrap_or(0);
                let at = first_entry + u.start as usize;
                for e in &mut self.tail.entries[at..at + u.len as usize] {
                    e.val += shift;
                }
                self.tail.unions.push(UnionRec {
                    node: NodeId(u.node.0 + node_offset),
                    start: u.start + entry_base,
                    len: u.len,
                });
            }
        }
        self.copies_avoided += sub.copies_avoided;
        self.dead += sub.dead;
        union_base
    }

    /// Physical footprint in bytes, capacity-aware: table capacities plus
    /// the heap behind every stored [`Value`], of the base and the tail.
    fn bytes(&self) -> usize {
        let tables = |t: &Tables| {
            let mut total = t.unions.capacity() * std::mem::size_of::<UnionRec>()
                + t.entries.capacity() * std::mem::size_of::<EntryRec>()
                + t.kids.capacity() * std::mem::size_of::<UnionId>()
                + t.cols.capacity() * std::mem::size_of::<Vec<Value>>();
            for col in &t.cols {
                total += col.capacity() * std::mem::size_of::<Value>();
                total += col.iter().map(value_heap_bytes).sum::<usize>();
            }
            total
        };
        std::mem::size_of::<Self>() + tables(&self.base.tables) + tables(&self.tail)
    }

    /// Size-based footprint in bytes: stored records plus the inline
    /// size of every stored value, ignoring unused vector capacity and
    /// value heap payloads, and where the records sit. Computed in
    /// O(#nodes) — table lengths only — so the executors can difference
    /// it at every stage boundary to account *intermediate allocation*
    /// without a full arena walk (allocator rounding and `Arc`-shared
    /// string payloads would only obscure how many records an operator
    /// actually materialised). The header is that of one table set and
    /// the sharing counter.
    fn bytes_used(&self) -> usize {
        let cols = self.base.tables.cols.len().max(self.tail.cols.len());
        std::mem::size_of::<Tables>()
            + std::mem::size_of::<u64>()
            + self.n_unions() * std::mem::size_of::<UnionRec>()
            + self.n_entries() * std::mem::size_of::<EntryRec>()
            + self.n_kids() * std::mem::size_of::<UnionId>()
            + cols * std::mem::size_of::<Vec<Value>>()
            + self.value_count() * std::mem::size_of::<Value>()
    }

    fn value_count(&self) -> usize {
        [&self.base.tables, &self.tail]
            .iter()
            .flat_map(|t| &t.cols)
            .map(Vec::len)
            .sum()
    }
}

/// Estimated heap allocation behind one value (`Arc` payloads; shared
/// `Arc`s are counted at every holder — an upper bound on the footprint).
fn value_heap_bytes(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Float(_) | Value::Null => 0,
        // Arc<str>: payload + strong/weak counts.
        Value::Str(s) => s.len() + 16,
        Value::Tup(vs) => {
            16 + vs.len() * std::mem::size_of::<Value>()
                + vs.iter().map(value_heap_bytes).sum::<usize>()
        }
    }
}

// ---------------------------------------------------------------------
// Count annotations (direct ordered access)
// ---------------------------------------------------------------------

/// Per-entry subtree tuple counts — the annotated-access layer that makes
/// the i-th tuple of a sort-order-realising f-tree reachable without
/// enumerating past it (direct access in the sense of Eldar, Carmeli &
/// Kimelfeld).
///
/// Layout: two columns keyed by the arena's absolute ids. `union_total`
/// holds per union the tuple count of the subtree hanging off it;
/// `entry_prefix` per entry the *inclusive* prefix sum, within the
/// owning union's entry range, of subtree tuple counts (an entry's count
/// is the product of its child-union totals; a leaf entry counts 1).
/// Like the arena, each column comes in two parts: the counts of the
/// **base**, built once per base and shared by every representation over
/// it — clones, query results that keep the base, later written
/// versions — and the counts of this representation's **tail**, which
/// read the totals of base kids from the base part. A page over a
/// swapped view counts what the swap appended, not the view.
///
/// Counts saturate at `u64::MAX`. A saturated count reaches every union
/// above it (a saturating product or sum with a non-empty union stays
/// saturated), so the index saturated exactly when a root's total reads
/// `u64::MAX`: its prefix sums then no longer tell where an entry's
/// block starts (a descending seek subtracts two of them), so a seek
/// must stream instead ([`CountIndex::saturated`]).
#[derive(Debug)]
pub(crate) struct CountIndex {
    base: Arc<Counts>,
    tail: Counts,
    saturated: bool,
}

/// The count annotations of one part of an arena (its base or its
/// tail), indexed from the part's first union and entry id.
#[derive(Debug, Default)]
struct Counts {
    union_total: Vec<u64>,
    entry_prefix: Vec<u64>,
}

impl Counts {
    /// Counts the unions of `t` from the first id `below` does not cover
    /// up to `unions`, whose entries end at id `entries`. A union's kids
    /// are older than it, so one pass in id order meets every kid's
    /// total counted before — in `below` or earlier in this pass —
    /// whether or not the union is reachable from a root.
    fn build(t: Tabs<'_>, below: &Counts, unions: usize, entries: usize) -> Counts {
        let (u0, e0) = (below.union_total.len(), below.entry_prefix.len());
        let mut union_total = Vec::with_capacity(unions - u0);
        let mut entry_prefix = vec![0u64; entries - e0];
        for id in u0..unions {
            let u = t.urec(UnionId(id as u32));
            let at = u.start as usize - e0;
            let mut running = 0u64;
            for (slot, &e) in entry_prefix[at..at + u.len as usize]
                .iter_mut()
                .zip(t.entries_of(u))
            {
                let cnt = t.kids_of(e).iter().fold(1u64, |cnt, &k| {
                    debug_assert!((k.0 as usize) < id, "a kid is older than its union");
                    let total = Split {
                        base: &below.union_total,
                        tail: &union_total,
                    };
                    cnt.saturating_mul(*total.get(k.0))
                });
                running = running.saturating_add(cnt);
                *slot = running;
            }
            union_total.push(running);
        }
        Counts {
            union_total,
            entry_prefix,
        }
    }
}

impl CountIndex {
    /// Whether some count overflowed `u64` and was clamped: the prefix
    /// sums are then not exact and cannot place a seek.
    pub(crate) fn saturated(&self) -> bool {
        self.saturated
    }

    /// Tuple count of the subtree hanging off union `u`.
    pub(crate) fn total(&self, u: UnionId) -> u64 {
        let totals = Split {
            base: &self.base.union_total,
            tail: &self.tail.union_total,
        };
        *totals.get(u.0)
    }

    /// Inclusive prefix sum at absolute entry index `e` (within the
    /// owning union's entry range, in physical = ascending-value order).
    pub(crate) fn prefix_incl(&self, e: u32) -> u64 {
        let prefixes = Split {
            base: &self.base.entry_prefix,
            tail: &self.tail.entry_prefix,
        };
        *prefixes.get(e)
    }

    /// Number of tuples enumerated before logical position `l` of a
    /// union (direction-aware: `Desc` walks the physical entries
    /// backwards, so the cumulative count counts from the high end).
    pub(crate) fn cum_before(&self, rec: UnionRec, l: usize, dir: fdb_relational::SortDir) -> u64 {
        match dir {
            fdb_relational::SortDir::Asc => {
                if l == 0 {
                    0
                } else {
                    self.prefix_incl(rec.start + (l as u32 - 1))
                }
            }
            fdb_relational::SortDir::Desc => {
                // Logical position l is physical len−1−l; everything at
                // higher physical positions was already enumerated.
                let phys = rec.len as usize - 1 - l;
                let total = if rec.len == 0 {
                    0
                } else {
                    self.prefix_incl(rec.start + rec.len - 1)
                };
                total.saturating_sub(self.prefix_incl(rec.start + phys as u32))
            }
        }
    }

    /// Subtree tuple count of the physical entry at offset `phys` within
    /// `rec`'s range (difference of adjacent prefix sums).
    pub(crate) fn entry_count_at(&self, rec: UnionRec, phys: usize) -> u64 {
        let abs = rec.start + phys as u32;
        let incl = self.prefix_incl(abs);
        if phys == 0 {
            incl
        } else {
            incl.saturating_sub(self.prefix_incl(abs - 1))
        }
    }
}

impl Arena {
    /// The [`CountIndex`] of the representation rooted at `roots`: the
    /// base's counts — built by the first caller over this base, then
    /// shared — and this arena's tail counted against them.
    pub(crate) fn count_index(&self, roots: &[UnionId]) -> CountIndex {
        let t = self.tabs();
        let base = self.base.counts.get_or_init(|| {
            let b = &self.base.tables;
            Arc::new(Counts::build(
                t,
                &Counts::default(),
                b.unions.len(),
                b.entries.len(),
            ))
        });
        let tail = Counts::build(t, base, self.n_unions(), self.n_entries());
        let mut idx = CountIndex {
            base: Arc::clone(base),
            tail,
            saturated: false,
        };
        idx.saturated = roots.iter().any(|&r| idx.total(r) == u64::MAX);
        idx
    }
}

// ---------------------------------------------------------------------
// Traversal cursors
// ---------------------------------------------------------------------

/// Cheap copyable cursor over one union in an arena.
#[derive(Clone, Copy, Debug)]
pub struct UnionRef<'a> {
    arena: &'a Arena,
    id: UnionId,
}

impl<'a> UnionRef<'a> {
    pub fn id(&self) -> UnionId {
        self.id
    }

    fn rec(&self) -> UnionRec {
        self.arena.urec(self.id)
    }

    /// The f-tree node this union ranges over.
    pub fn node(&self) -> NodeId {
        self.rec().node
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rec().len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.rec().len == 0
    }

    /// The `i`-th entry (entries are sorted by strictly ascending value).
    pub fn entry(&self, i: usize) -> EntryRef<'a> {
        let rec = self.rec();
        debug_assert!(i < rec.len as usize);
        EntryRef {
            arena: self.arena,
            col: self.arena.col(rec.node),
            rec: self.arena.erec(rec.start + i as u32),
        }
    }

    /// Iterates the entries in order (the union's entry run and value
    /// column are resolved once).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntryRef<'a>> + 'a {
        let rec = self.rec();
        let arena = self.arena;
        let col = arena.col(rec.node);
        arena
            .entries_of(rec)
            .iter()
            .map(move |&rec| EntryRef { arena, col, rec })
    }

    /// Iterates the entries at positions `run` in order.
    #[inline]
    pub(crate) fn entries_in(
        &self,
        run: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = EntryRef<'a>> + 'a {
        let (recs, col) = self.records();
        let arena = self.arena;
        recs[run]
            .iter()
            .map(move |&rec| EntryRef { arena, col, rec })
    }

    /// The entry records, in order, and the value column they index.
    #[inline]
    pub(crate) fn records(&self) -> (&'a [EntryRec], Col<'a>) {
        let rec = self.rec();
        (self.arena.entries_of(rec), self.arena.col(rec.node))
    }

    /// The entries' values as one contiguous slice of the node's value
    /// column, when the entries reference back-to-back column positions
    /// — true for freshly built unions, whose values are pushed in
    /// entry order. Rewrites that share or reorder values, and runs
    /// that straddle the base/tail boundary, return `None`, and callers
    /// fall back to per-entry cursors. The slice is what the
    /// `fdb_core::agg` leaf kernels iterate.
    pub fn contiguous_values(&self) -> Option<&'a [Value]> {
        let rec = self.rec();
        let ents = self.arena.entries_of(rec);
        let Some(first) = ents.first() else {
            return Some(&[]);
        };
        let base = first.val as usize;
        if ents
            .iter()
            .enumerate()
            .any(|(i, e)| e.val as usize != base + i)
        {
            return None;
        }
        self.arena.col(rec.node).slice(base, ents.len())
    }

    /// The length of `node`'s value column in this union's arena.
    pub(crate) fn column_len(&self, node: NodeId) -> usize {
        self.arena.col(node).len()
    }

    /// The node's value column and, in entry order, the index of each
    /// entry's value in it: the keys of a `DenseIds` table, which holds
    /// no borrow of the arena.
    pub(crate) fn value_indices(&self) -> (Col<'a>, impl ExactSizeIterator<Item = u32> + 'a) {
        let rec = self.rec();
        (
            self.arena.col(rec.node),
            self.arena.entries_of(rec).iter().map(|e| e.val),
        )
    }

    /// Binary search for an entry by value.
    pub fn find(&self, value: &Value) -> Option<usize> {
        let rec = self.rec();
        let col = self.arena.col(rec.node);
        self.arena
            .entries_of(rec)
            .binary_search_by(|e| col.get(e.val).cmp(value))
            .ok()
    }

    /// Number of singletons in this union and all its descendants
    /// (iterative walk over the index tables).
    pub fn singleton_count(&self) -> usize {
        self.arena.subtree_entries(self.id) as usize
    }

    /// Number of tuples this union represents (saturating).
    fn tuple_count(&self) -> usize {
        let n = self.arena.tabs().tuple_count(self.id);
        usize::try_from(n).unwrap_or(usize::MAX)
    }
}

/// Structural equality: same node, values and (recursively) children.
/// Arena-internal id layout is irrelevant.
impl PartialEq for UnionRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.node() != other.node() || self.len() != other.len() {
            return false;
        }
        self.entries().zip(other.entries()).all(|(a, b)| {
            a.value() == b.value()
                && a.child_count() == b.child_count()
                && a.children().zip(b.children()).all(|(x, y)| x == y)
        })
    }
}

/// Cheap copyable cursor over one entry.
#[derive(Clone, Copy, Debug)]
pub struct EntryRef<'a> {
    arena: &'a Arena,
    /// The value column of the owning union's node.
    col: Col<'a>,
    rec: EntryRec,
}

impl<'a> EntryRef<'a> {
    /// The singleton value.
    pub fn value(&self) -> &'a Value {
        self.col.get(self.rec.val)
    }

    /// The value's column and its index there: a key of a `DenseIds`
    /// table, which holds no borrow of the arena.
    pub(crate) fn value_index(&self) -> (Col<'a>, u32) {
        (self.col, self.rec.val)
    }

    /// Number of child unions (f-tree child arity).
    pub fn child_count(&self) -> usize {
        self.rec.kids_len as usize
    }

    /// The `k`-th child union, in f-tree child order.
    pub fn child(&self, k: usize) -> UnionRef<'a> {
        UnionRef {
            arena: self.arena,
            id: self.child_id(k),
        }
    }

    /// The `k`-th child union's id.
    pub fn child_id(&self, k: usize) -> UnionId {
        self.kids()[k]
    }

    fn kids(&self) -> &'a [UnionId] {
        self.arena.kids_of(self.rec)
    }

    /// Iterates the child unions in order.
    pub fn children(&self) -> impl ExactSizeIterator<Item = UnionRef<'a>> + 'a {
        let arena = self.arena;
        self.kids().iter().map(move |&id| UnionRef { arena, id })
    }
}

// ---------------------------------------------------------------------
// Builder-side nested form
// ---------------------------------------------------------------------

/// One singleton value plus the factorisations of the child subtrees
/// (builder-side nested form; storage is the [`Arena`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub value: Value,
    /// One union per child of this entry's node, in f-tree child order.
    pub children: Vec<Union>,
}

/// A union of singleton-rooted products for one f-tree node
/// (builder-side nested form; storage is the [`Arena`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Union {
    /// The f-tree node this union ranges over.
    pub node: NodeId,
    /// Entries sorted by strictly ascending value.
    pub entries: Vec<Entry>,
}

impl Union {
    /// An empty union for `node`.
    pub fn empty(node: NodeId) -> Self {
        Union {
            node,
            entries: Vec::new(),
        }
    }
}

/// Freezes a nested union into the arena.
fn freeze_union(arena: &mut Arena, u: Union) -> UnionId {
    let Union { node, entries } = u;
    let mut specs = Vec::with_capacity(entries.len());
    for Entry { value, children } in entries {
        let mut kid_ids = Vec::with_capacity(children.len());
        for c in children {
            kid_ids.push(freeze_union(arena, c));
        }
        specs.push(arena.entry(node, value, &kid_ids));
    }
    arena.push_union(node, &specs)
}

// ---------------------------------------------------------------------
// FRep
// ---------------------------------------------------------------------

/// Size report for a factorised representation (see [`FRep::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FRepStats {
    /// Singletons reachable from the roots — the paper's size measure.
    pub singletons: usize,
    /// Union records in the arena (including unreachable leftovers of
    /// pruning operators).
    pub unions: usize,
    /// Entry records in the arena.
    pub entries: usize,
    /// Values across all node columns.
    pub values: usize,
    /// Physical arena footprint in bytes, capacity-aware.
    pub bytes: usize,
    /// Deep copies of untouched fragments avoided by the in-place
    /// rewrites that produced this representation (0 for freshly built
    /// ones; carried through compaction).
    pub copies_avoided: u64,
}

/// A factorised representation: an f-tree plus one arena-stored union
/// per root.
#[derive(Clone, Debug)]
pub struct FRep {
    ftree: FTree,
    arena: Arena,
    roots: Vec<UnionId>,
    /// Lazily built, memoised count annotations (see [`CountIndex`]).
    /// The cell itself is shared: a clone shares it with its original,
    /// so the first build by any of them — a query's private snapshot of
    /// a registered view, say — serves the view and every later snapshot
    /// of that version too. Whatever changes the arena or the roots gets
    /// a cell of its own: every structural transformation rebuilds the
    /// representation through [`FRep::from_arena`], and the delta
    /// mutators install a fresh cell ([`FRep::update_parts`]) rather than
    /// clear the shared one, which the pre-write snapshots keep. A fresh
    /// cell counts only its tail: the base's counts live with the base.
    counts: Arc<OnceLock<Arc<CountIndex>>>,
}

impl FRep {
    /// Wraps pre-built arena parts (crate-internal; operators use this).
    ///
    /// Empty root unions are re-tagged to the (possibly restructured)
    /// f-tree's root ids: an operator on an empty relation changes the
    /// tree but has no entries to carry the new node ids. A root in the
    /// shared base is replaced by a fresh empty union, not rewritten.
    pub(crate) fn from_arena(ftree: FTree, mut arena: Arena, mut roots: Vec<UnionId>) -> Self {
        for (u, &rid) in roots.iter_mut().zip(ftree.roots()) {
            if arena.union_len(*u) == 0 && arena.urec(*u).node != rid {
                *u = arena.retag_empty(*u, rid);
            }
        }
        FRep {
            ftree,
            arena,
            roots,
            counts: Arc::default(),
        }
    }

    /// Builds a representation from externally constructed nested unions,
    /// validating the structural invariants (sorted distinct entries,
    /// child arity, correct node tags, no empty inner unions).
    ///
    /// This is the constructor for callers that assemble factorisations
    /// directly — e.g. data generators that know the grouping structure
    /// and can emit the factorised form in linear time. Unlike the
    /// operator-internal constructor, no empty-root re-tagging happens
    /// before validation: a root union tagged with the wrong node is an
    /// error here, not something to paper over.
    pub fn new(ftree: FTree, roots: Vec<Union>) -> Result<FRep> {
        let mut arena = Arena::default();
        let root_ids = roots
            .into_iter()
            .map(|u| freeze_union(&mut arena, u))
            .collect();
        arena.seal();
        let rep = FRep {
            ftree,
            arena,
            roots: root_ids,
            counts: Arc::default(),
        };
        rep.check_invariants()?;
        Ok(rep)
    }

    /// The empty relation over `ftree`'s schema.
    pub fn empty(ftree: FTree) -> Self {
        let mut arena = Arena::default();
        let roots = ftree
            .roots()
            .iter()
            .map(|&r| arena.empty_union(r))
            .collect();
        arena.seal();
        FRep {
            ftree,
            arena,
            roots,
            counts: Arc::default(),
        }
    }

    /// Builds the factorisation of `rel` over `ftree` by recursive grouping:
    /// each node sorts its rows by its value and splits them into runs.
    ///
    /// Every f-tree node must be an atomic single-attribute node and the
    /// exposed attributes must be exactly `rel`'s schema. For a *path*
    /// f-tree the result always represents `rel` exactly (a sorted trie);
    /// for branching f-trees it represents `rel` exactly iff `rel`
    /// satisfies the join dependencies the branching asserts (Prop. 1) —
    /// `debug_assert`ed here, and guaranteed by construction when the
    /// f-plan operators build the branching themselves.
    pub fn from_relation(rel: &Relation, ftree: FTree) -> Result<FRep> {
        let cols = col_map(&ftree, rel.schema())?;
        let mut covered = vec![false; rel.arity()];
        for n in ftree.live_nodes() {
            covered[cols[n.idx()]] = true;
        }
        if covered.contains(&false) {
            return Err(FdbError::Unresolved(
                "f-tree does not cover the relation schema".into(),
            ));
        }
        let mut rows: Vec<usize> = (0..rel.len()).collect();
        let mut arena = Arena::default();
        let mut kid_scratch = Vec::new();
        let mut spec_scratch = Vec::new();
        let roots = ftree
            .roots()
            .iter()
            .map(|&r| {
                build_union(
                    rel,
                    &ftree,
                    r,
                    &mut rows,
                    &cols,
                    &mut arena,
                    &mut kid_scratch,
                    &mut spec_scratch,
                )
            })
            .collect();
        arena.seal();
        let rep = FRep {
            ftree,
            arena,
            roots,
            counts: Arc::default(),
        };
        debug_assert!(rep.check_invariants().is_ok());
        Ok(rep)
    }

    /// [`FRep::from_relation`] under its former name, for callers outside
    /// the workspace. The thread count is ignored: construction is serial.
    pub fn from_relation_with(rel: &Relation, ftree: FTree, _threads: usize) -> Result<FRep> {
        Self::from_relation(rel, ftree)
    }

    /// The nesting structure.
    pub fn ftree(&self) -> &FTree {
        &self.ftree
    }

    pub(crate) fn ftree_mut(&mut self) -> &mut FTree {
        &mut self.ftree
    }

    /// Root union ids, parallel to `ftree().roots()`.
    pub fn root_ids(&self) -> &[UnionId] {
        &self.roots
    }

    /// Number of root unions.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Cursor over the `i`-th root union.
    pub fn root(&self, i: usize) -> UnionRef<'_> {
        self.arena.union(self.roots[i])
    }

    /// Cursors over the root unions, parallel to `ftree().roots()`.
    pub fn root_unions(&self) -> impl ExactSizeIterator<Item = UnionRef<'_>> + '_ {
        self.roots.iter().map(|&r| self.arena.union(r))
    }

    /// Cursor over an arbitrary union id of this representation.
    pub fn union(&self, id: UnionId) -> UnionRef<'_> {
        self.arena.union(id)
    }

    /// Decomposes into parts (crate-internal).
    pub(crate) fn into_arena_parts(self) -> (FTree, Arena, Vec<UnionId>) {
        (self.ftree, self.arena, self.roots)
    }

    /// Split borrow for the delta mutators ([`crate::update`]): the
    /// f-tree read-only, the arena and root list writable. Installs a
    /// fresh count-index cell first: a clone of a snapshot shares the
    /// snapshot's cell, and a mutation must neither leave a pre-mutation
    /// index behind nor take the snapshot's away.
    pub(crate) fn update_parts(&mut self) -> (&FTree, &mut Arena, &mut Vec<UnionId>) {
        self.counts = Arc::default();
        (&self.ftree, &mut self.arena, &mut self.roots)
    }

    /// True when a count index is currently memoised (test hook for the
    /// staleness-invariant suite).
    pub fn has_count_index(&self) -> bool {
        self.counts.get().is_some()
    }

    /// Whether `self` and `other` read one built count index (one is a
    /// clone of the other, and neither was written since).
    pub fn shares_count_index_with(&self, other: &FRep) -> bool {
        match (self.counts.get(), other.counts.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether the built count indexes of `self` and `other` read one
    /// count of a shared base (a version written over the other's base,
    /// or a query result that kept it, say).
    pub fn shares_base_counts_with(&self, other: &FRep) -> bool {
        match (self.counts.get(), other.counts.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.base, &b.base),
            _ => false,
        }
    }

    /// Test oracle: the unions reachable from the roots whose totals or
    /// entry prefix sums in the memoised count index differ from a
    /// recount of their subtrees, each such union once.
    #[doc(hidden)]
    pub fn count_index_mismatches(&self) -> Vec<UnionId> {
        let idx = self.count_index();
        let t = self.arena.tabs();
        let mut seen = vec![false; self.arena.n_unions()];
        let mut stack = self.roots.clone();
        let mut bad = Vec::new();
        while let Some(uid) = stack.pop() {
            if std::mem::replace(&mut seen[uid.0 as usize], true) {
                continue;
            }
            let u = t.urec(uid);
            let mut running = 0u64;
            let mut agrees = true;
            for (i, &e) in (u.start..).zip(t.entries_of(u)) {
                let cnt = t.kids_of(e).iter().map(|&k| t.tuple_count(k));
                running = running.saturating_add(cnt.fold(1, u64::saturating_mul));
                agrees &= idx.prefix_incl(i) == running;
                stack.extend_from_slice(t.kids_of(e));
            }
            if !agrees || idx.total(uid) != running {
                bad.push(uid);
            }
        }
        bad
    }

    /// Shared borrow of the arena (crate-internal; read-only walks).
    pub(crate) fn arena_ref(&self) -> &Arena {
        &self.arena
    }

    /// True if the represented relation is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.iter().any(|&u| self.arena.union_len(u) == 0)
    }

    /// Total number of singletons — the paper's size measure for
    /// factorisations (§6 reports sizes in singletons). Counts only
    /// entries reachable from the roots.
    pub fn singleton_count(&self) -> usize {
        self.root_unions().map(|u| u.singleton_count()).sum()
    }

    /// The count annotations, built on first use and memoised in the cell
    /// this representation shares with its clones: they compute the
    /// index once and all read the same buffers.
    pub(crate) fn count_index(&self) -> &Arc<CountIndex> {
        self.counts
            .get_or_init(|| Arc::new(self.arena.count_index(&self.roots)))
    }

    /// Number of tuples in the represented relation. Served from the
    /// memoised `CountIndex` when one has been built (O(#roots));
    /// otherwise a quick recursive walk — cheap relative to enumeration,
    /// and avoiding the index's whole-arena allocation for one-off calls.
    /// Both saturate at `usize::MAX`.
    pub fn tuple_count(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        if let Some(c) = self.counts.get() {
            let n: u128 = self
                .roots
                .iter()
                .map(|&r| c.total(r) as u128)
                .fold(1u128, u128::saturating_mul);
            return n.min(usize::MAX as u128) as usize;
        }
        self.root_unions()
            .map(|u| u.tuple_count())
            .fold(1, usize::saturating_mul)
    }

    /// Size report: logical singleton count plus the arena's physical
    /// table sizes and byte footprint (capacity-aware).
    pub fn stats(&self) -> FRepStats {
        FRepStats {
            singletons: self.singleton_count(),
            unions: self.arena.n_unions(),
            entries: self.arena.n_entries(),
            values: self.arena.value_count(),
            bytes: self.memory_bytes(),
            copies_avoided: self.arena.copies_avoided(),
        }
    }

    /// Copies the live data into a fresh arena, shedding everything
    /// unreachable from the roots while **preserving sharing** (a
    /// union referenced from several parents is copied once, via a
    /// flat memo table): this is the one full arena pass the staged
    /// pipeline executor performs per plan, and what a caller applying
    /// operators by hand runs when it wants a tight arena.
    pub fn compact(self) -> FRep {
        let (tree, arena, roots) = self.into_arena_parts();
        let (arena, roots) = arena.compact(&roots);
        FRep::from_arena(tree, arena, roots)
    }

    /// Physical arena footprint in bytes (capacity-aware: counts table
    /// capacities and the heap behind every stored value).
    pub fn memory_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Size-based arena footprint in bytes: stored records only, no
    /// allocator slack or value heap payloads, computed in O(#nodes)
    /// (see [`FRep::memory_bytes`] for the full capacity-aware figure).
    /// The executors difference this at stage boundaries to account
    /// intermediate allocation.
    pub fn data_bytes(&self) -> usize {
        self.arena.bytes_used()
    }

    /// Raw copies-avoided counter of the arena — executors snapshot it
    /// before and after a run to report the per-plan delta.
    pub(crate) fn stats_counter_base(&self) -> u64 {
        self.arena.copies_avoided()
    }

    /// True when the entry records noted dead outnumber the rest: the
    /// cue that a [`FRep::compact`] pass pays for itself, read without a
    /// walk — by the plan executor at the end of a plan and by a writer
    /// about to publish a version. Delta mutators note the subtrees they
    /// unlink; f-plan operators note the unions they replace, but not
    /// the subtrees below an entry they drop or a target they consume,
    /// which they do not walk (an operator that consumes all the arena
    /// held notes all of it). A union shared by several parents is
    /// noted once per parent that lets go of it.
    pub fn dead_outnumber_live(&self) -> bool {
        self.arena.dead.saturating_mul(2) > self.arena.n_entries() as u64
    }

    /// Test oracle for [`FRep::dead_outnumber_live`]: the entry records
    /// noted dead so far.
    #[doc(hidden)]
    pub fn noted_dead_entries(&self) -> u64 {
        self.arena.dead
    }

    /// Test oracle for [`FRep::dead_outnumber_live`]: the entry records
    /// reachable from the roots, shared unions counted once — one walk
    /// over the live entries.
    #[doc(hidden)]
    pub fn live_entry_count(&self) -> usize {
        self.arena.live_entry_count(&self.roots)
    }

    /// Readies a written version for publication, in time proportional
    /// to the writes except when it compacts or folds: compacts it when
    /// the entry records the delta mutators unlinked outnumber the
    /// rest, and otherwise folds its tail into a fresh base once the
    /// tail outgrows an eighth of the base. A version that does neither
    /// keeps sharing the base of the version it was cloned from.
    pub fn settle(self) -> FRep {
        if self.dead_outnumber_live() {
            return self.compact();
        }
        let mut rep = self;
        if rep.arena.tail_outgrew_base() {
            rep.arena.fold();
        }
        rep
    }

    /// Moves the private tail into the base when no other
    /// representation shares the base (the tail is moved or appended,
    /// the base never copied); otherwise does nothing. Registering a
    /// view seals it, so its snapshots copy no records.
    pub(crate) fn seal(&mut self) {
        self.arena.seal();
    }

    /// Whether `self` and `other` share one base (one is a snapshot of
    /// the other, or both of a third).
    pub fn shares_base_with(&self, other: &FRep) -> bool {
        Arc::ptr_eq(&self.arena.base, &other.arena.base)
    }

    /// Records in the private tail — what a clone copies.
    pub fn tail_records(&self) -> usize {
        self.arena.tail.records()
    }

    /// Structural data equality: same root unions (node, values, shape),
    /// ignoring arena-internal id layout. The f-trees are compared via
    /// their root lists implicitly; callers wanting full equivalence
    /// should also compare [`FRep::ftree`].
    pub fn same_data(&self, other: &FRep) -> bool {
        self.roots.len() == other.roots.len()
            && self
                .root_unions()
                .zip(other.root_unions())
                .all(|(a, b)| a == b)
    }

    /// Output schema in f-tree pre-order: every atomic class contributes
    /// all its attributes, every aggregate node its output columns.
    pub fn schema(&self) -> Schema {
        Schema::new(self.ftree.all_attrs())
    }

    /// Flattens into a relation laid out per [`FRep::schema`].
    ///
    /// This is the `FDB` (flat output) mode of the experiments; `FDB f/o`
    /// keeps the `FRep`.
    pub fn flatten(&self) -> Relation {
        let schema = self.schema();
        let mut out = Relation::empty(schema);
        self.for_each_tuple(|row| {
            out.push_row(row);
        });
        out
    }

    /// Invokes `f` once per represented tuple, laid out per
    /// [`FRep::schema`]. Implemented as an iterative cursor walk (the
    /// odometer of [`crate::enumerate`]) — no recursion over the data.
    pub fn for_each_tuple(&self, mut f: impl FnMut(&[Value])) {
        let spec = crate::enumerate::EnumSpec::all_preorder(&self.ftree);
        let mut it = crate::enumerate::TupleIter::new(self, &spec)
            .expect("pre-order visit sequence is parent-first");
        while let Some(row) = it.next_row() {
            f(row);
        }
    }

    /// Structural invariant check (used by tests and `debug_assert`s).
    pub fn check_invariants(&self) -> Result<()> {
        if self.roots.len() != self.ftree.roots().len() {
            return Err(FdbError::InvalidOperator(
                "root union count mismatch".into(),
            ));
        }
        for (u, &r) in self.root_unions().zip(self.ftree.roots()) {
            self.check_union(u, r, true)?;
        }
        Ok(())
    }

    fn check_union(&self, u: UnionRef<'_>, node: NodeId, at_root: bool) -> Result<()> {
        if u.node() != node {
            return Err(FdbError::InvalidOperator(format!(
                "union node {:?} does not match f-tree node {:?}",
                u.node(),
                node
            )));
        }
        if !at_root && u.is_empty() {
            return Err(FdbError::InvalidOperator(
                "empty union below the roots".into(),
            ));
        }
        let children = &self.ftree.node(node).children;
        let mut prev: Option<&Value> = None;
        for e in u.entries() {
            if let Some(p) = prev {
                if p >= e.value() {
                    return Err(FdbError::InvalidOperator(format!(
                        "union entries not strictly ascending at {node:?}"
                    )));
                }
            }
            prev = Some(e.value());
            if e.child_count() != children.len() {
                return Err(FdbError::InvalidOperator(format!(
                    "entry has {} child unions, f-tree node has {} children",
                    e.child_count(),
                    children.len()
                )));
            }
            for (cu, &cn) in e.children().zip(children) {
                self.check_union(cu, cn, false)?;
            }
        }
        Ok(())
    }

    /// Renders the factorisation in the paper's nested notation.
    pub fn display(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        for (i, u) in self.root_unions().enumerate() {
            if i > 0 {
                out.push_str(" × ");
            }
            self.display_union(u, catalog, &mut out);
        }
        out
    }

    fn display_union(&self, u: UnionRef<'_>, catalog: &Catalog, out: &mut String) {
        if u.len() != 1 {
            out.push('(');
        }
        for (i, e) in u.entries().enumerate() {
            if i > 0 {
                out.push_str(" ∪ ");
            }
            let label = &self.ftree.node(u.node()).label;
            let name = match label {
                NodeLabel::Atomic(attrs) => catalog.name(attrs[0]).to_string(),
                NodeLabel::Agg(l) => {
                    let fs: Vec<String> = l.funcs.iter().map(|f| f.display(catalog)).collect();
                    fs.join(",")
                }
            };
            let _ = write!(out, "⟨{name}:{}⟩", e.value());
            for cu in e.children() {
                out.push_str(" × ");
                self.display_union(cu, catalog, out);
            }
        }
        if u.len() != 1 {
            out.push(')');
        }
    }
}

/// Extracts the output value of `attr` from an entry of `label`.
pub fn value_for_attr(label: &NodeLabel, value: &Value, attr: AttrId) -> Option<Value> {
    match label {
        NodeLabel::Atomic(attrs) => attrs.contains(&attr).then(|| value.clone()),
        NodeLabel::Agg(l) => {
            let i = l.outputs.iter().position(|&o| o == attr)?;
            if l.arity() == 1 {
                Some(value.clone())
            } else {
                value.as_tup().map(|t| t[i].clone())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Construction from relations
// ---------------------------------------------------------------------

/// Builds `node`'s union over `rows` into `arena`: sorts the row ids by
/// the node's column, emits one entry per run of equal values, in value
/// order, and builds each child union on that run's sub-slice. The
/// scratch buffers are shared by every level, so a level allocates
/// nothing of its own.
fn build_union(
    rel: &Relation,
    ftree: &FTree,
    node: NodeId,
    rows: &mut [usize],
    cols: &[usize],
    arena: &mut Arena,
    kid_scratch: &mut Vec<UnionId>,
    spec_scratch: &mut Vec<EntrySpec>,
) -> UnionId {
    let col = cols[node.idx()];
    let value = |r: usize| &rel.row(r)[col];
    rows.sort_unstable_by(|&a, &b| value(a).cmp(value(b)));
    let spec_base = spec_scratch.len();
    for run in rows.chunk_by_mut(|&a, &b| value(a).cmp(value(b)).is_eq()) {
        let kid_base = kid_scratch.len();
        for &c in &ftree.node(node).children {
            let cid = build_union(rel, ftree, c, run, cols, arena, kid_scratch, spec_scratch);
            kid_scratch.push(cid);
        }
        let spec = arena.entry(node, value(run[0]).clone(), &kid_scratch[kid_base..]);
        kid_scratch.truncate(kid_base);
        spec_scratch.push(spec);
    }
    let out = arena.push_union(node, &spec_scratch[spec_base..]);
    spec_scratch.truncate(spec_base);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-column relation of Example 3.
    fn example3() -> (Catalog, Relation) {
        let mut c = Catalog::new();
        let a = c.intern("A");
        let b = c.intern("B");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
                .into_iter()
                .map(|(x, y)| vec![Value::Int(x), Value::Int(y)]),
        );
        (c, rel)
    }

    #[test]
    fn path_factorisation_round_trips() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let t = FTree::path(&[a, b]);
        let rep = FRep::from_relation(&rel, t).unwrap();
        rep.check_invariants().unwrap();
        assert_eq!(rep.flatten().canonical(), rel.canonical());
        assert_eq!(rep.tuple_count(), 6);
        // Trie: 2 A-singletons + 2×3 B-singletons.
        assert_eq!(rep.singleton_count(), 8);
    }

    #[test]
    fn count_index_totals_agree_with_tuple_count() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let slow = rep.tuple_count(); // counts lazily, index not built yet
        let idx = rep.count_index();
        let fast: u64 = rep.root_ids().iter().map(|&r| idx.total(r)).product();
        assert_eq!(fast as usize, slow);
        assert_eq!(rep.tuple_count(), slow); // fast path agrees
    }

    #[test]
    fn count_index_is_memoised_and_shared_by_clones() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let first = Arc::as_ptr(rep.count_index());
        assert_eq!(first, Arc::as_ptr(rep.count_index()));
        let cloned = rep.clone();
        assert_eq!(first, Arc::as_ptr(cloned.count_index()));
    }

    #[test]
    fn count_index_per_entry_prefixes() {
        // Forest {A} {B}: each of A's 2 entries covers 1 tuple of its own
        // union; same for B's 3. cum_before walks them in either
        // direction.
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut t = FTree::new();
        t.add_node(NodeLabel::Atomic(vec![a]), None);
        t.add_node(NodeLabel::Atomic(vec![b]), None);
        let rep = FRep::from_relation(&rel, t).unwrap();
        let idx = rep.count_index().clone();
        let roots = rep.root_ids().to_vec();
        let arena = rep.arena_ref();
        let totals: Vec<u64> = roots.iter().map(|&r| idx.total(r)).collect();
        assert_eq!(totals.iter().product::<u64>(), 6);
        for &r in &roots {
            let rec = arena.urec(r);
            let len = rec.len as usize;
            for dir in [fdb_relational::SortDir::Asc, fdb_relational::SortDir::Desc] {
                assert_eq!(idx.cum_before(rec, 0, dir), 0);
                for l in 1..len {
                    // Every entry here covers exactly one tuple.
                    assert_eq!(idx.cum_before(rec, l, dir), l as u64);
                }
            }
            for phys in 0..len {
                assert_eq!(idx.entry_count_at(rec, phys), 1);
            }
        }
    }

    #[test]
    fn independent_branches_factorise_succinctly() {
        // Example 3: A and B are independent, so the forest {A} {B}
        // represents R with 2 + 3 = 5 singletons instead of 12.
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut t = FTree::new();
        t.add_node(NodeLabel::Atomic(vec![a]), None);
        t.add_node(NodeLabel::Atomic(vec![b]), None);
        let rep = FRep::from_relation(&rel, t).unwrap();
        assert_eq!(rep.singleton_count(), 5);
        assert_eq!(rep.flatten().canonical(), rel.canonical());
    }

    #[test]
    fn empty_relation_representation() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let empty = Relation::empty(rel.schema().clone());
        let rep = FRep::from_relation(&empty, FTree::path(&[a, b])).unwrap();
        assert!(rep.is_empty());
        assert_eq!(rep.tuple_count(), 0);
        assert_eq!(rep.singleton_count(), 0);
        assert!(rep.flatten().is_empty());
    }

    #[test]
    fn branching_tree_with_valid_join_dependency() {
        // pizza → {date, item}: valid when date and item are independent
        // given pizza.
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let item = c.intern("item");
        let rel = Relation::from_rows(
            Schema::new(vec![pizza, date, item]),
            [
                ("Hawaii", 1, "base"),
                ("Hawaii", 1, "ham"),
                ("Hawaii", 2, "base"),
                ("Hawaii", 2, "ham"),
                ("Margherita", 1, "base"),
            ]
            .into_iter()
            .map(|(p, d, i)| vec![Value::str(p), Value::Int(d), Value::str(i)]),
        );
        let mut t = FTree::new();
        let np = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
        t.add_node(NodeLabel::Atomic(vec![date]), Some(np));
        t.add_node(NodeLabel::Atomic(vec![item]), Some(np));
        t.add_dep([pizza, date]);
        t.add_dep([pizza, item]);
        let rep = FRep::from_relation(&rel, t).unwrap();
        assert_eq!(rep.flatten().canonical(), rel.canonical());
        // 2 pizzas + (2 dates + 2 items) + (1 date + 1 item).
        assert_eq!(rep.singleton_count(), 8);
    }

    #[test]
    fn sortedness_invariant_detected() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        // Rebuild by hand with the order corrupted: `new` must reject it.
        let mut t2 = FTree::new();
        let na = t2.add_node(NodeLabel::Atomic(vec![a]), None);
        let bad = Union {
            node: na,
            entries: vec![
                Entry {
                    value: Value::Int(2),
                    children: vec![],
                },
                Entry {
                    value: Value::Int(1),
                    children: vec![],
                },
            ],
        };
        assert!(FRep::new(t2, vec![bad]).is_err());
        let _ = rep;
    }

    #[test]
    fn find_binary_search() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let u = rep.root(0);
        assert_eq!(u.find(&Value::Int(2)), Some(1));
        assert_eq!(u.find(&Value::Int(9)), None);
    }

    #[test]
    fn display_uses_paper_notation() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut t = FTree::new();
        t.add_node(NodeLabel::Atomic(vec![a]), None);
        t.add_node(NodeLabel::Atomic(vec![b]), None);
        let rep = FRep::from_relation(&rel, t).unwrap();
        let s = rep.display(&c);
        assert!(s.contains("⟨A:1⟩ ∪ ⟨A:2⟩"));
        assert!(s.contains('×'));
    }

    #[test]
    fn flatten_layout_matches_schema() {
        let mut c = Catalog::new();
        let x = c.intern("x");
        let y = c.intern("y");
        let rel = Relation::from_rows(
            Schema::new(vec![y, x]), // note: relation order differs
            [(10, 1), (20, 2)]
                .into_iter()
                .map(|(b, a)| vec![Value::Int(b), Value::Int(a)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[x, y])).unwrap();
        let schema = rep.schema();
        assert_eq!(schema.attrs(), &[x, y]);
        let flat = rep.flatten();
        assert_eq!(flat.row(0), &[Value::Int(1), Value::Int(10)]);
    }

    #[test]
    fn stats_report_physical_footprint() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let s = rep.stats();
        assert_eq!(s.singletons, 8);
        assert_eq!(s.entries, 8); // freshly built: no garbage
        assert_eq!(s.values, 8);
        assert_eq!(s.unions, 3); // A-union + two B-unions
        assert!(s.bytes >= 8 * (std::mem::size_of::<Value>() + 12));
        assert_eq!(rep.memory_bytes(), s.bytes);
    }

    /// Example 3's trie over `a → b`, sealed: every record in the base.
    fn sealed_example3() -> (FRep, NodeId, NodeId) {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let na = rep.ftree().roots()[0];
        let nb = rep.ftree().node(na).children[0];
        assert_eq!(rep.tail_records(), 0, "a fresh build is sealed");
        (rep, na, nb)
    }

    #[test]
    fn a_tail_union_reads_base_values_and_straddling_runs_are_split() {
        let (rep, _, nb) = sealed_example3();
        let (_, mut arena, roots) = rep.into_arena_parts();
        // The last b-union holds B = 1, 2, 3 at the end of b's base
        // column.
        let first_a = arena.erec(arena.urec(roots[0]).start + 1);
        let b_union = arena.urec(arena.kid_at(first_a.kids_start));
        let base_vals: Vec<u32> = arena.entries_of(b_union).iter().map(|e| e.val).collect();
        let base_len = arena.col(nb).len() as u32;
        assert_eq!(*base_vals.last().unwrap(), base_len - 1);
        // A tail union over the last base value and a fresh tail value:
        // back-to-back column positions across the boundary.
        let shared = arena.entry_shared_val(base_len - 1, &[]);
        let fresh = arena.entry(nb, Value::Int(4), &[]);
        let straddling = arena.push_union(nb, &[shared, fresh]);
        // A tail union reusing base values only, and one of tail values.
        let reused: Vec<EntrySpec> = base_vals
            .iter()
            .map(|&v| arena.entry_shared_val(v, &[]))
            .collect();
        let over_base = arena.push_union(nb, &reused);
        let more = arena.entry(nb, Value::Int(5), &[]);
        let over_tail = arena.push_union(nb, &[more]);
        let values = |id| -> Vec<Value> {
            arena
                .union(id)
                .entries()
                .map(|e| e.value().clone())
                .collect()
        };
        assert_eq!(values(straddling), [Value::Int(3), Value::Int(4)]);
        assert_eq!(values(over_base), [1, 2, 3].map(Value::Int));
        assert_eq!(arena.union(straddling).contiguous_values(), None);
        assert_eq!(
            arena.union(over_base).contiguous_values(),
            Some(&[1, 2, 3].map(Value::Int)[..])
        );
        assert_eq!(
            arena.union(over_tail).contiguous_values(),
            Some(&[Value::Int(5)][..])
        );
        assert_eq!(arena.union(straddling).find(&Value::Int(4)), Some(1));
    }

    #[test]
    fn clones_share_the_base_and_seal_and_fold_keep_ids() {
        let (rep, na, _) = sealed_example3();
        let mut next = rep.clone();
        assert!(next.shares_base_with(&rep));
        assert_eq!(next.tail_records(), 0);
        // A write goes to the clone's tail; the base stays shared.
        assert!(next.insert(&[Value::Int(3), Value::Int(1)]).unwrap());
        assert!(next.shares_base_with(&rep) && next.tail_records() > 0);
        assert_eq!((rep.tuple_count(), next.tuple_count()), (6, 7));
        // Sealing a shared base copies nothing and changes nothing.
        let tail = next.tail_records();
        next.seal();
        assert_eq!(next.tail_records(), tail);
        // Folding copies the base once; ids and data stay put.
        let (roots, entries) = (next.root_ids().to_vec(), next.stats().entries);
        next.arena.fold();
        assert!(!next.shares_base_with(&rep));
        assert_eq!(next.tail_records(), 0);
        assert_eq!(
            (next.root_ids(), next.stats().entries),
            (&roots[..], entries)
        );
        assert_eq!(next.root(0).node(), na);
        let want = FRep::from_relation(&next.flatten(), next.ftree().clone()).unwrap();
        assert!(next.same_data(&want));
        // A clone of the folded version is free again, and sealing a
        // base nobody shares moves the tail in place.
        let mut only = next;
        assert!(only.insert(&[Value::Int(4), Value::Int(4)]).unwrap());
        only.seal();
        assert_eq!(only.tail_records(), 0);
        assert_eq!(only.tuple_count(), 8);
    }

    #[test]
    fn settling_folds_a_grown_tail_and_compacts_a_dead_one() {
        let (rep, _, _) = sealed_example3();
        // One insert grows the tail past an eighth of this small base.
        let mut next = rep.clone();
        assert!(next.insert(&[Value::Int(3), Value::Int(1)]).unwrap());
        assert!(!next.dead_outnumber_live());
        let next = next.settle();
        assert_eq!(next.tail_records(), 0);
        assert!(!next.shares_base_with(&rep));
        // Rewrites that unlink more entries than stay live: compacted.
        let mut churned = next.clone();
        for round in 0..3 {
            for v in 0..4 {
                let row = [Value::Int(v), Value::Int(10 + round)];
                assert!(churned.insert(&row).unwrap());
                assert!(churned.delete(&row).unwrap());
            }
        }
        assert!(churned.dead_outnumber_live());
        let entries = churned.stats().entries;
        let settled = churned.clone().settle();
        assert!(settled.same_data(&churned));
        assert!(settled.stats().entries < entries);
        assert!(!settled.dead_outnumber_live());
    }

    #[test]
    fn arena_append_rebases_ids_and_columns() {
        let (c, rel) = example3();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let one = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let two = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        let (_, mut arena, mut roots) = one.into_arena_parts();
        let (tree2, sub, sub_roots) = two.into_arena_parts();
        let off = arena.append(sub, 0);
        roots.extend(sub_roots.iter().map(|r| UnionId(r.0 + off)));
        // Both copies must still flatten to the same data.
        let u0 = arena.union(roots[0]);
        let u1 = arena.union(roots[1]);
        assert!(u0 == u1);
        assert_eq!(u1.singleton_count(), 8);
        let _ = tree2;
    }
}
