//! Constant-delay enumeration of factorised data — §4 of the paper.
//!
//! Tuples are enumerated with an *odometer* over an explicit node visit
//! sequence (each node after its parent). The union a node iterates over is
//! determined by its parent's current entry, so advancing the odometer
//! touches at most one union per f-tree node — delay between consecutive
//! tuples is constant in the data size (linear in the schema, as in the
//! paper).
//!
//! * [`EnumSpec::ordered`] realises Theorem 2: enumeration in a given
//!   lexicographic order `O` (asc/desc per attribute) is possible iff every
//!   attribute of `O` is a root or a child of an earlier `O`-attribute —
//!   then the visit sequence starts with the `O`-nodes in `O`-order.
//! * [`EnumSpec::group_prefix`] realises Theorem 1: grouped enumeration
//!   needs every group-by node to be a root or the child of another group
//!   node.
//! * [`GroupCursor`] walks group combinations and exposes the *dangling*
//!   subtree unions below each group, on which the caller evaluates
//!   aggregates on the fly (scenario 3 of the introduction).

use crate::error::{FdbError, Result};
use crate::frep::{Col, FRep, Tabs, UnionId, UnionRec, UnionRef};
use crate::ftree::{FTree, NodeId, NodeLabel};
use fdb_relational::{AttrId, SortDir, SortKey, Value};

/// A node visit sequence with per-node directions.
#[derive(Clone, Debug)]
pub struct EnumSpec {
    pub visit: Vec<NodeId>,
    pub dirs: Vec<SortDir>,
}

impl EnumSpec {
    /// Pre-order visit of every node (the "no particular order" case).
    pub fn all_preorder(tree: &FTree) -> Self {
        let visit = tree.live_nodes();
        let dirs = vec![SortDir::Asc; visit.len()];
        EnumSpec { visit, dirs }
    }

    /// Visit sequence for lexicographic enumeration by `keys` (Theorem 2).
    ///
    /// Fails with [`FdbError::OrderUnsupported`] when the f-tree does not
    /// support the order; restructure first (greedy step 5,
    /// [`mod@crate::optim::greedy`]).
    pub fn ordered(tree: &FTree, keys: &[SortKey]) -> Result<Self> {
        let mut visit: Vec<NodeId> = Vec::new();
        let mut dirs: Vec<SortDir> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let node = tree.node_of_attr(key.attr).ok_or_else(|| {
                FdbError::Unresolved(format!("order attribute {} not in f-tree", key.attr))
            })?;
            if visit.contains(&node) {
                // Duplicate key, or the same equivalence class as an
                // earlier key: the FIRST occurrence (and its direction)
                // decides, exactly as in `Relation::sort_by_keys` —
                // tuple-wise the values are identical, so the later key
                // could never break a tie the earlier one left (§4; see
                // `fdb_relational::dedup_sort_keys`).
                continue;
            }
            let ok = match tree.node(node).parent {
                None => true,
                Some(p) => visit.contains(&p),
            };
            if !ok {
                return Err(FdbError::OrderUnsupported(format!(
                    "attribute {} is neither a root nor a child of an \
                     earlier order attribute (Theorem 2)",
                    key.attr
                )));
            }
            if !composite_realises(tree, node, &keys[i..]) {
                return Err(FdbError::OrderUnsupported(format!(
                    "a composite aggregate's entries are sorted by its whole \
                     tuple, which does not order by attribute {}",
                    key.attr
                )));
            }
            visit.push(node);
            dirs.push(key.dir);
        }
        complete_preorder(tree, &mut visit, &mut dirs);
        Ok(EnumSpec { visit, dirs })
    }

    /// Group-node prefix visiting the order keys first: grouped
    /// enumeration that is additionally sorted by `keys` (which must
    /// reference group attributes). Used by the engine for ordered
    /// group-by output without consolidation.
    pub fn group_prefix_ordered(tree: &FTree, group: &[AttrId], keys: &[SortKey]) -> Result<Self> {
        let base = Self::group_prefix(tree, group)?;
        let mut visit: Vec<NodeId> = Vec::new();
        let mut dirs: Vec<SortDir> = Vec::new();
        for key in keys {
            let node = tree.node_of_attr(key.attr).ok_or_else(|| {
                FdbError::Unresolved(format!("order attribute {} not in f-tree", key.attr))
            })?;
            if visit.contains(&node) {
                // First occurrence decides (see `EnumSpec::ordered`).
                continue;
            }
            if !base.visit.contains(&node) {
                return Err(FdbError::OrderUnsupported(format!(
                    "order attribute {} is not a group attribute",
                    key.attr
                )));
            }
            let ok = match tree.node(node).parent {
                None => true,
                Some(p) => visit.contains(&p),
            };
            if !ok {
                return Err(FdbError::OrderUnsupported(format!(
                    "attribute {} violates Theorem 2 within the group prefix",
                    key.attr
                )));
            }
            visit.push(node);
            dirs.push(key.dir);
        }
        for &n in &base.visit {
            if !visit.contains(&n) {
                visit.push(n);
                dirs.push(SortDir::Asc);
            }
        }
        Ok(EnumSpec { visit, dirs })
    }

    /// Only the group nodes (the prefix used by [`GroupCursor`]).
    pub fn group_prefix(tree: &FTree, group: &[AttrId]) -> Result<Self> {
        let mut nodes: Vec<NodeId> = Vec::new();
        for &g in group {
            let node = tree.node_of_attr(g).ok_or_else(|| {
                FdbError::Unresolved(format!("group attribute {g} not in f-tree"))
            })?;
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        for &n in &nodes {
            let ok = match tree.node(n).parent {
                None => true,
                Some(p) => nodes.contains(&p),
            };
            if !ok {
                return Err(FdbError::OrderUnsupported(format!(
                    "group node {n:?} is neither a root nor a child of \
                     another group node (Theorem 1)"
                )));
            }
        }
        // Topological order: parents before children.
        nodes.sort_by_key(|&n| tree.depth(n));
        let dirs = vec![SortDir::Asc; nodes.len()];
        Ok(EnumSpec { visit: nodes, dirs })
    }
}

/// Whether visiting `node` realises the order `keys`, which starts at
/// its first key. The entries of a composite aggregate node are sorted by
/// their whole tuple, so its keys must be its outputs in order, in one
/// direction, and either all of them or the last keys of the order —
/// else its tuple order, not the next key, would break their ties.
fn composite_realises(tree: &FTree, node: NodeId, keys: &[SortKey]) -> bool {
    let NodeLabel::Agg(l) = &tree.node(node).label else {
        return true;
    };
    if l.outputs.len() == 1 {
        return true;
    }
    let run = keys
        .iter()
        .take_while(|k| tree.node_of_attr(k.attr) == Some(node))
        .count();
    let in_order = keys[..run]
        .iter()
        .zip(&l.outputs)
        .all(|(k, &o)| k.attr == o && k.dir == keys[0].dir);
    in_order && (run == l.outputs.len() || run == keys.len())
}

/// Appends the unvisited nodes in pre-order (parents first).
fn complete_preorder(tree: &FTree, visit: &mut Vec<NodeId>, dirs: &mut Vec<SortDir>) {
    for n in tree.live_nodes() {
        if !visit.contains(&n) {
            visit.push(n);
            dirs.push(SortDir::Asc);
        }
    }
}

/// True iff the f-tree supports constant-delay enumeration in `keys` order
/// without restructuring (Theorem 2).
pub fn supports_order(tree: &FTree, keys: &[SortKey]) -> bool {
    EnumSpec::ordered(tree, keys).is_ok()
}

/// Where a visited node finds its union.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// `roots[i]`.
    Root(usize),
    /// Child `child_pos` of the entry currently selected at visit index
    /// `parent_visit`.
    Inner {
        parent_visit: usize,
        child_pos: usize,
    },
}

/// What [`Odometer::value`] points at before the first step.
static UNSET: Value = Value::Null;

/// The shared odometer over a visit sequence: an iterative cursor walk
/// over the arena's index tables — no recursion, no per-step allocation.
///
/// Per visited node it caches the open union's entry range, the current
/// entry's table index and a *borrow* of the current value, and a step
/// refreshes only the positions it moved: [`Odometer::step`] reports the
/// shallowest of them, everything before it is untouched. While the
/// deepest position has entries left a step is one index bump over that
/// union's contiguous entry run. Consumers that copy values out (the
/// lending cursors below, the engine's result emitter) therefore clone
/// each value once, when it changes or when it is emitted — never to
/// rebuild an unchanged prefix.
pub(crate) struct Odometer<'a> {
    rep: &'a FRep,
    tabs: Tabs<'a>,
    visit: Vec<NodeId>,
    /// Value column of the node visited at each position.
    cols: Vec<Col<'a>>,
    dirs: Vec<SortDir>,
    slots: Vec<Slot>,
    /// Entry range of the union open at each position.
    open: Vec<UnionRec>,
    /// Logical index per position (0 = first in direction order).
    idxs: Vec<usize>,
    /// Entry-table index of the entry selected at each position.
    ents: Vec<u32>,
    /// The selected entry's value at each position.
    cur: Vec<&'a Value>,
    started: bool,
    /// A seek parked the odometer *on* a combination that the next
    /// [`Odometer::step`] must report instead of moving past it.
    parked: bool,
    done: bool,
}

impl<'a> Odometer<'a> {
    pub(crate) fn new(rep: &'a FRep, spec: &EnumSpec) -> Result<Self> {
        let tree = rep.ftree();
        let n = spec.visit.len();
        let mut slots = Vec::with_capacity(n);
        for (i, &node) in spec.visit.iter().enumerate() {
            let slot = match tree.node(node).parent {
                None => Slot::Root(
                    tree.roots()
                        .iter()
                        .position(|&r| r == node)
                        .expect("root registered"),
                ),
                Some(p) => {
                    let parent_visit =
                        spec.visit[..i]
                            .iter()
                            .position(|&v| v == p)
                            .ok_or_else(|| {
                                FdbError::OrderUnsupported(format!(
                                    "visit sequence places {node:?} before its parent"
                                ))
                            })?;
                    let child_pos = tree
                        .node(p)
                        .children
                        .iter()
                        .position(|&c| c == node)
                        .expect("child registered");
                    Slot::Inner {
                        parent_visit,
                        child_pos,
                    }
                }
            };
            slots.push(slot);
        }
        let tabs = rep.arena_ref().tabs();
        Ok(Odometer {
            rep,
            tabs,
            cols: spec.visit.iter().map(|&node| tabs.col(node)).collect(),
            open: spec
                .visit
                .iter()
                .map(|&node| UnionRec {
                    node,
                    start: 0,
                    len: 0,
                })
                .collect(),
            visit: spec.visit.clone(),
            dirs: spec.dirs.clone(),
            slots,
            idxs: vec![0; n],
            ents: vec![0; n],
            cur: vec![&UNSET; n],
            started: false,
            parked: false,
            done: false,
        })
    }

    /// Label of the node visited at position `i`.
    fn label(&self, i: usize) -> &'a NodeLabel {
        &self.rep.ftree().node(self.visit[i]).label
    }

    /// Value of the entry currently selected at visit position `i`.
    #[inline]
    pub(crate) fn value(&self, i: usize) -> &'a Value {
        self.cur[i]
    }

    /// Child union `child_pos` of the entry selected at position `i`.
    fn child_id(&self, i: usize, child_pos: usize) -> UnionId {
        let e = self.tabs.erec(self.ents[i]);
        debug_assert!(child_pos < e.kids_len as usize);
        self.tabs.kid_at(e.kids_start + child_pos as u32)
    }

    /// The union position `i` iterates under the current choices above it.
    fn union_at(&self, i: usize) -> UnionId {
        match self.slots[i] {
            Slot::Root(r) => self.rep.root_ids()[r],
            Slot::Inner {
                parent_visit,
                child_pos,
            } => self.child_id(parent_visit, child_pos),
        }
    }

    /// Selects logical index `idx` of the union open at position `i`.
    #[inline]
    fn select(&mut self, i: usize, idx: usize) {
        let rec = self.open[i];
        let phys = match self.dirs[i] {
            SortDir::Asc => idx,
            SortDir::Desc => rec.len as usize - 1 - idx,
        };
        let e = rec.start + phys as u32;
        self.idxs[i] = idx;
        self.ents[i] = e;
        self.cur[i] = self.cols[i].get(self.tabs.erec(e).val);
    }

    /// (Re)opens position `i` at its first entry. Returns `false` when the
    /// union is empty (possible only at the roots of an empty relation).
    fn reopen(&mut self, i: usize) -> bool {
        let rec = self.tabs.urec(self.union_at(i));
        if rec.len == 0 {
            return false;
        }
        self.open[i] = rec;
        self.select(i, 0);
        true
    }

    /// Moves to the first/next combination and returns the shallowest
    /// visit position whose entry changed (`0` for the first combination:
    /// every position is new); `None` at the end.
    pub(crate) fn step(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        if self.parked {
            self.parked = false;
            return Some(0);
        }
        let n = self.visit.len();
        if !self.started {
            self.started = true;
            // Emptiness is only representable at the roots; an empty
            // relation yields no tuples and no groups (even with an empty
            // visit sequence, where the single nullary group must not
            // appear).
            if self.rep.is_empty() || !(0..n).all(|i| self.reopen(i)) {
                self.done = true;
                return None;
            }
            return Some(0);
        }
        // Advance the deepest position with entries left; everything after
        // it reopens. At most |visit| unions are touched: constant delay.
        // While the deepest position itself has entries left this is one
        // bump along its union's contiguous run.
        for i in (0..n).rev() {
            if self.idxs[i] + 1 < self.open[i].len as usize {
                self.select(i, self.idxs[i] + 1);
                for j in i + 1..n {
                    let ok = self.reopen(j);
                    debug_assert!(ok, "inner unions are never empty");
                }
                return Some(i);
            }
        }
        self.done = true;
        None
    }

    /// Exact number of combinations a full walk enumerates (saturating):
    /// what a sink reserves before the first row. Walks only the entries
    /// of positions that have a visited child — a position nothing hangs
    /// off contributes its union lengths without being entered — so the
    /// cost is a fraction of the enumeration it sizes.
    pub(crate) fn combinations(&self) -> usize {
        if self.rep.is_empty() {
            return 0;
        }
        let mut below: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.visit.len()];
        let mut total = 1usize;
        for (i, slot) in self.slots.iter().enumerate().rev() {
            match *slot {
                Slot::Inner {
                    parent_visit,
                    child_pos,
                } => below[parent_visit].push((i, child_pos)),
                Slot::Root(r) => {
                    let n = self.count_under(self.rep.root_ids()[r], i, &below);
                    total = total.saturating_mul(n);
                }
            }
        }
        total
    }

    fn count_under(&self, u: UnionId, pos: usize, below: &[Vec<(usize, usize)>]) -> usize {
        let rec = self.tabs.urec(u);
        if below[pos].is_empty() {
            return rec.len as usize;
        }
        let mut sum = 0usize;
        for e in rec.start..rec.start + rec.len {
            let e = self.tabs.erec(e);
            let mut prod = 1usize;
            for &(child, child_pos) in &below[pos] {
                let kid = self.tabs.kid_at(e.kids_start + child_pos as u32);
                prod = prod.saturating_mul(self.count_under(kid, child, below));
            }
            sum = sum.saturating_add(prod);
        }
        sum
    }

    /// Where an output attribute is read from: the visit position exposing
    /// it and, for a composite aggregate node, the component of its `Tup`
    /// value (class members share the value; a single-function aggregate
    /// is the value itself).
    pub(crate) fn source_of(&self, attr: AttrId) -> Option<(usize, Option<usize>)> {
        (0..self.visit.len()).find_map(|i| match self.label(i) {
            NodeLabel::Atomic(attrs) => attrs.contains(&attr).then_some((i, None)),
            NodeLabel::Agg(l) => {
                let k = l.outputs.iter().position(|&o| o == attr)?;
                Some((i, (l.arity() > 1).then_some(k)))
            }
        })
    }

    /// Positions the odometer *directly on* the `skip`-th combination
    /// (0-based) of the enumeration order, without stepping through the
    /// skipped prefix; the next [`Odometer::step`] reports it. A `skip`
    /// past the end leaves the odometer exhausted.
    ///
    /// The walk follows the visit sequence once. After the first `i`
    /// positions are chosen, the tuples sharing those choices factorise
    /// as the product of the subtree tuple counts of the *dangling*
    /// unions — unions whose parent entry is already chosen but which
    /// have not been entered (the visit sequence is parent-first, so the
    /// unvisited positions partition into exactly those subtrees, even
    /// when sort-key nodes interleave subtrees). At each position the
    /// entry containing the target index is found by binary-searching
    /// the union's count prefix sums scaled by the product of the other
    /// dangling totals: O(depth · log fanout) union-entry probes total.
    ///
    /// Returns `false`, leaving the odometer untouched, when the count
    /// annotations saturated: their prefix sums cannot place the seek, so
    /// the caller reaches row `skip` by stepping past the prefix instead.
    pub(crate) fn seek(&mut self, skip: u64) -> bool {
        debug_assert!(!self.started);
        if self.rep.is_empty() {
            self.started = true;
            self.done = true;
            return true;
        }
        let counts = self.rep.count_index().clone();
        if counts.saturated() {
            return false;
        }
        self.started = true;
        let total: u128 = self
            .rep
            .root_ids()
            .iter()
            .map(|&r| counts.total(r) as u128)
            .fold(1u128, u128::saturating_mul);
        if skip as u128 >= total {
            self.done = true;
            return true;
        }
        let mut remaining = skip as u128;
        // Dangling unions, in no particular order (the product below is
        // order-free). Bounded by the f-tree width: O(depth) long.
        let mut dangling: Vec<UnionId> = self.rep.root_ids().to_vec();
        for i in 0..self.visit.len() {
            let u = self.union_at(i);
            let pos = dangling
                .iter()
                .position(|&d| d == u)
                .expect("visited union dangles off a chosen entry");
            dangling.swap_remove(pos);
            // Tuples per single entry choice here, besides the entry's
            // own subtree: the product of the other dangling totals.
            let rest: u128 = dangling
                .iter()
                .map(|&d| counts.total(d) as u128)
                .fold(1u128, u128::saturating_mul);
            let rec = self.tabs.urec(u);
            let dir = self.dirs[i];
            let len = rec.len as usize;
            debug_assert!(len > 0, "inner unions are never empty");
            // Largest logical l with cum_before(l)·rest ≤ remaining. The
            // counts are exact; a product saturating u128 exceeds any
            // remaining < 2^64, so it compares on the correct side.
            let (mut lo, mut hi) = (0usize, len - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                let before = (counts.cum_before(rec, mid, dir) as u128).saturating_mul(rest);
                if before <= remaining {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            self.open[i] = rec;
            self.select(i, lo);
            remaining -= (counts.cum_before(rec, lo, dir) as u128).saturating_mul(rest);
            debug_assert!(
                remaining
                    < (counts.entry_count_at(rec, (self.ents[i] - rec.start) as usize) as u128)
                        .saturating_mul(rest)
            );
            let e = self.tabs.erec(self.ents[i]);
            dangling.extend((0..e.kids_len).map(|k| self.tabs.kid_at(e.kids_start + k)));
        }
        debug_assert_eq!(remaining, 0, "seek must land exactly on the target");
        debug_assert!(dangling.is_empty(), "full visit enters every union");
        self.parked = true;
        true
    }
}

/// An owned copy of the odometer's current values in visit-order column
/// layout, kept current by rewriting only the positions a step moved —
/// the row the lending cursors hand out.
struct RowBuf<'a> {
    labels: Vec<&'a NodeLabel>,
    offsets: Vec<usize>,
    row: Vec<Value>,
}

impl<'a> RowBuf<'a> {
    fn new(odo: &Odometer<'a>) -> Self {
        let labels: Vec<&NodeLabel> = (0..odo.visit.len()).map(|i| odo.label(i)).collect();
        let mut offsets = Vec::with_capacity(labels.len());
        let mut width = 0;
        for label in &labels {
            offsets.push(width);
            width += label.exposed_attrs().len();
        }
        RowBuf {
            labels,
            offsets,
            row: vec![Value::Int(0); width],
        }
    }

    /// Output attributes in visit order.
    fn schema(&self) -> Vec<AttrId> {
        self.labels.iter().flat_map(|l| l.exposed_attrs()).collect()
    }

    /// Column positions of `attrs` within [`RowBuf::schema`].
    fn positions(&self, attrs: &[AttrId]) -> Result<Vec<usize>> {
        let schema = self.schema();
        attrs
            .iter()
            .map(|a| {
                schema
                    .iter()
                    .position(|x| x == a)
                    .ok_or_else(|| FdbError::Unresolved(format!("attribute {a} not enumerated")))
            })
            .collect()
    }

    /// Rewrites the columns of positions `from..` — the suffix a step
    /// reported as moved.
    fn refresh(&mut self, odo: &Odometer<'a>, from: usize) -> &[Value] {
        for i in from..self.labels.len() {
            write_entry_values(
                self.labels[i],
                odo.value(i),
                &mut self.row[self.offsets[i]..],
            );
        }
        &self.row
    }
}

/// Constant-delay tuple enumeration following an [`EnumSpec`].
///
/// `next_row` is a lending-iterator: the returned slice is valid until the
/// next call. Column layout follows the visit sequence ([`TupleIter::schema`]);
/// use [`TupleIter::projected`] for a caller-chosen column order.
pub struct TupleIter<'a> {
    odo: Odometer<'a>,
    buf: RowBuf<'a>,
}

impl<'a> TupleIter<'a> {
    pub fn new(rep: &'a FRep, spec: &EnumSpec) -> Result<Self> {
        let odo = Odometer::new(rep, spec)?;
        let buf = RowBuf::new(&odo);
        Ok(TupleIter { odo, buf })
    }

    /// Output attributes in visit order.
    pub fn schema(&self) -> Vec<AttrId> {
        self.buf.schema()
    }

    /// Next tuple, or `None` when exhausted.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        let from = self.odo.step()?;
        Some(self.buf.refresh(&self.odo, from))
    }

    /// Column positions of `attrs` within [`TupleIter::schema`].
    pub fn positions(&self, attrs: &[AttrId]) -> Result<Vec<usize>> {
        self.buf.positions(attrs)
    }

    /// Materialises up to `limit` tuples projected onto `attrs`.
    pub fn projected(
        mut self,
        attrs: &[AttrId],
        limit: Option<usize>,
    ) -> Result<fdb_relational::Relation> {
        let positions = self.positions(attrs)?;
        let schema = fdb_relational::Schema::new(attrs.to_vec());
        let mut out = fdb_relational::Relation::empty(schema);
        let mut buf: Vec<Value> = Vec::with_capacity(attrs.len());
        let mut n = 0usize;
        while let Some(row) = self.next_row() {
            if let Some(k) = limit {
                if n >= k {
                    break;
                }
            }
            buf.clear();
            buf.extend(positions.iter().map(|&p| row[p].clone()));
            out.push_row(&buf);
            n += 1;
        }
        Ok(out)
    }
}

/// Direct ordered access: a cursor that *seeks* to the `skip`-th tuple
/// of the enumeration order realised by an [`EnumSpec`] — binary
/// searches over the [`FRep`]'s memoised subtree-count annotations, no
/// enumeration of the skipped prefix — then streams forward with the
/// constant-delay odometer.
///
/// This is the engine's `OFFSET m` fast path: where every sequential
/// strategy pays Ω(m + k) enumeration (or a full sort), the seek costs
/// O(depth · log fanout) and the stream then emits exactly the k
/// requested rows. The first `next_row` yields the seeked-to tuple
/// itself; subsequent calls continue in order.
pub struct DirectCursor<'a>(TupleIter<'a>);

impl<'a> DirectCursor<'a> {
    /// Seeks `rep` to the `skip`-th tuple of `spec`'s order. Builds (or
    /// reuses) the representation's count annotations. A `skip` at or
    /// past the end yields an exhausted cursor, not an error. When the
    /// counts saturated (more than `u64::MAX` tuples) the cursor streams
    /// past the first `skip` tuples instead: slower, never wrong.
    pub fn new(rep: &'a FRep, spec: &EnumSpec, skip: u64) -> Result<Self> {
        let mut it = TupleIter::new(rep, spec)?;
        if !it.odo.seek(skip) {
            for _ in 0..skip {
                if it.next_row().is_none() {
                    break;
                }
            }
        }
        Ok(DirectCursor(it))
    }

    /// Output attributes in visit order (same layout as [`TupleIter`]).
    pub fn schema(&self) -> Vec<AttrId> {
        self.0.schema()
    }

    /// Column positions of `attrs` within [`DirectCursor::schema`].
    pub fn positions(&self, attrs: &[AttrId]) -> Result<Vec<usize>> {
        self.0.positions(attrs)
    }

    /// Next tuple, or `None` when exhausted. The first call returns the
    /// seeked-to tuple.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        self.0.next_row()
    }
}

/// Writes an entry's value into output slots (class members repeat the
/// value; composite aggregates expand their components).
fn write_entry_values(label: &NodeLabel, value: &Value, slots: &mut [Value]) {
    match label {
        NodeLabel::Atomic(attrs) => {
            for slot in slots.iter_mut().take(attrs.len()) {
                *slot = value.clone();
            }
        }
        NodeLabel::Agg(l) => {
            if l.arity() == 1 {
                slots[0] = value.clone();
            } else {
                let comps = value.as_tup().expect("composite aggregate holds a Tup");
                for (i, comp) in comps.iter().enumerate() {
                    slots[i] = comp.clone();
                }
            }
        }
    }
}

/// One dangling union of a [`GroupCursor`]: where it hangs and the f-tree
/// node it ranges over.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DanglingSlot {
    /// Visit position of the parent entry; `None` for a free root, which
    /// never changes between groups.
    pub(crate) parent: Option<usize>,
    /// Root index (free root) or child position under the parent entry.
    index: usize,
    pub(crate) node: NodeId,
}

/// Iterates over group combinations, exposing the group values and the
/// dangling subtree unions below them (for on-the-fly aggregation).
///
/// Both are kept in buffers owned by the cursor: a step rewrites only
/// the group columns and the dangling unions of the positions it moved.
pub struct GroupCursor<'a> {
    odo: Odometer<'a>,
    /// Dangling unions in buffer order: free roots first, then every
    /// visit position's uncovered children, position by position.
    slots: Vec<DanglingSlot>,
    /// `first[i]` = index of the first slot hanging off a position ≥ `i`.
    first: Vec<usize>,
    dangling: Vec<UnionRef<'a>>,
    buf: RowBuf<'a>,
}

impl<'a> GroupCursor<'a> {
    /// `spec` must cover an up-closed node set (e.g. from
    /// [`EnumSpec::group_prefix`]).
    pub fn new(rep: &'a FRep, spec: &EnumSpec) -> Result<Self> {
        let tree = rep.ftree();
        let odo = Odometer::new(rep, spec)?;
        let mut slots: Vec<DanglingSlot> = tree
            .roots()
            .iter()
            .enumerate()
            .filter(|(_, r)| !spec.visit.contains(r))
            .map(|(index, &node)| DanglingSlot {
                parent: None,
                index,
                node,
            })
            .collect();
        let mut first = Vec::with_capacity(spec.visit.len());
        for (i, &n) in spec.visit.iter().enumerate() {
            first.push(slots.len());
            let children = tree.node(n).children.iter().enumerate();
            slots.extend(children.filter(|(_, c)| !spec.visit.contains(c)).map(
                |(index, &node)| DanglingSlot {
                    parent: Some(i),
                    index,
                    node,
                },
            ));
        }
        let buf = RowBuf::new(&odo);
        Ok(GroupCursor {
            odo,
            dangling: Vec::with_capacity(slots.len()),
            slots,
            first,
            buf,
        })
    }

    /// Group-value attributes in visit order.
    pub fn schema(&self) -> Vec<AttrId> {
        self.buf.schema()
    }

    pub(crate) fn ftree(&self) -> &'a FTree {
        self.odo.rep.ftree()
    }

    /// The dangling unions' static layout, parallel to
    /// [`GroupCursor::dangling`].
    pub(crate) fn slots(&self) -> &[DanglingSlot] {
        &self.slots
    }

    /// See [`Odometer::source_of`].
    pub(crate) fn source_of(&self, attr: AttrId) -> Option<(usize, Option<usize>)> {
        self.odo.source_of(attr)
    }

    /// See [`Odometer::combinations`]: the exact number of groups.
    pub(crate) fn combinations(&self) -> usize {
        self.odo.combinations()
    }

    /// Group value at visit position `i`, borrowed from the arena.
    #[inline]
    pub(crate) fn value(&self, i: usize) -> &'a Value {
        self.odo.value(i)
    }

    /// The current group's dangling unions.
    pub(crate) fn dangling(&self) -> &[UnionRef<'a>] {
        &self.dangling
    }

    /// Advances to the next group without copying its values: refreshes
    /// the dangling unions of the moved positions and returns the
    /// shallowest of them (see [`Odometer::step`]).
    pub(crate) fn advance(&mut self) -> Option<usize> {
        let from = self.odo.step()?;
        let keep = if self.dangling.len() < self.slots.len() {
            // The first group: nothing is current yet, free roots included.
            0
        } else {
            self.first.get(from).copied().unwrap_or(self.slots.len())
        };
        self.dangling.truncate(keep);
        for slot in &self.slots[keep..] {
            let u = match slot.parent {
                None => self.odo.rep.root_ids()[slot.index],
                Some(p) => self.odo.child_id(p, slot.index),
            };
            self.dangling.push(self.odo.rep.union(u));
        }
        Some(from)
    }

    /// Advances to the next group; returns the group values and the
    /// dangling unions — both valid until the next call — or `None` when
    /// exhausted.
    pub fn next_group(&mut self) -> Option<(&[Value], &[UnionRef<'a>])> {
        let from = self.advance()?;
        Some((self.buf.refresh(&self.odo, from), &self.dangling))
    }
}

/// The deliberately naive enumerator the odometer and the engine's result
/// emitter are differentially tested against: plain recursion over the
/// visit sequence, every combination materialised, every row and every
/// dangling list rebuilt from scratch.
#[cfg(test)]
pub(crate) mod naive {
    use super::EnumSpec;
    use crate::frep::{EntryRef, FRep, UnionRef};
    use crate::ftree::NodeLabel;
    use fdb_relational::{AttrId, SortDir, Value};

    /// Every combination of `spec`'s visit sequence, in enumeration
    /// order, as the entry chosen at each position.
    pub(crate) fn combinations<'a>(rep: &'a FRep, spec: &EnumSpec) -> Vec<Vec<EntryRef<'a>>> {
        fn rec<'a>(
            rep: &'a FRep,
            spec: &EnumSpec,
            chosen: &mut Vec<EntryRef<'a>>,
            out: &mut Vec<Vec<EntryRef<'a>>>,
        ) {
            let i = chosen.len();
            let Some(&node) = spec.visit.get(i) else {
                out.push(chosen.clone());
                return;
            };
            let tree = rep.ftree();
            let union = match tree.node(node).parent {
                None => rep.root(tree.roots().iter().position(|&r| r == node).unwrap()),
                Some(p) => {
                    let above = spec.visit[..i].iter().position(|&v| v == p).unwrap();
                    let child = tree.node(p).children.iter().position(|&c| c == node);
                    chosen[above].child(child.unwrap())
                }
            };
            for l in 0..union.len() {
                let phys = match spec.dirs[i] {
                    SortDir::Asc => l,
                    SortDir::Desc => union.len() - 1 - l,
                };
                chosen.push(union.entry(phys));
                rec(rep, spec, chosen, out);
                chosen.pop();
            }
        }
        let mut out = Vec::new();
        if !rep.is_empty() {
            rec(rep, spec, &mut Vec::new(), &mut out);
        }
        out
    }

    /// Column layout of [`row`]: the visited nodes' exposed attributes.
    pub(crate) fn schema(rep: &FRep, spec: &EnumSpec) -> Vec<AttrId> {
        let labels = spec.visit.iter().map(|&n| &rep.ftree().node(n).label);
        labels.flat_map(|l| l.exposed_attrs()).collect()
    }

    /// The full row of one combination, rebuilt value by value.
    pub(crate) fn row(rep: &FRep, spec: &EnumSpec, chosen: &[EntryRef<'_>]) -> Vec<Value> {
        let mut row = Vec::new();
        for (&n, e) in spec.visit.iter().zip(chosen) {
            match &rep.ftree().node(n).label {
                NodeLabel::Atomic(attrs) => row.extend(attrs.iter().map(|_| e.value().clone())),
                NodeLabel::Agg(l) if l.arity() == 1 => row.push(e.value().clone()),
                NodeLabel::Agg(_) => row.extend(e.value().as_tup().unwrap().iter().cloned()),
            }
        }
        row
    }

    /// A fresh list of the unions dangling below one combination: the
    /// roots outside the visit sequence, then every chosen entry's
    /// children outside it.
    pub(crate) fn dangling<'a>(
        rep: &'a FRep,
        spec: &EnumSpec,
        chosen: &[EntryRef<'a>],
    ) -> Vec<UnionRef<'a>> {
        let tree = rep.ftree();
        let mut out = Vec::new();
        for (i, r) in tree.roots().iter().enumerate() {
            if !spec.visit.contains(r) {
                out.push(rep.root(i));
            }
        }
        for (&n, e) in spec.visit.iter().zip(chosen) {
            for (k, c) in tree.node(n).children.iter().enumerate() {
                if !spec.visit.contains(c) {
                    out.push(e.child(k));
                }
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ftree::AggOp;
    use fdb_relational::{Catalog, Relation, Schema};

    /// T1-shaped rep: pizza → {date → customer, item → price}.
    fn t1_rep() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let customer = c.intern("customer");
        let item = c.intern("item");
        let price = c.intern("price");
        let rows: Vec<(&str, i64, &str, &str, i64)> = vec![
            ("Capricciosa", 1, "Mario", "base", 6),
            ("Capricciosa", 1, "Mario", "ham", 1),
            ("Capricciosa", 5, "Mario", "base", 6),
            ("Capricciosa", 5, "Mario", "ham", 1),
            ("Hawaii", 5, "Lucia", "base", 6),
            ("Hawaii", 5, "Pietro", "base", 6),
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
        let mut t = crate::ftree::FTree::new();
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
    fn plain_enumeration_matches_flatten() {
        let (_, rep) = t1_rep();
        let spec = EnumSpec::all_preorder(rep.ftree());
        let mut it = TupleIter::new(&rep, &spec).unwrap();
        let mut n = 0;
        while it.next_row().is_some() {
            n += 1;
        }
        assert_eq!(n, rep.tuple_count());
    }

    #[test]
    fn theorem2_supported_orders() {
        // Example 9: T1 supports (pizza), (pizza,date), (pizza,date,
        // customer), (pizza,item), (pizza,item,price), (pizza,date,item);
        // but not (pizza,customer,date) or (customer,pizza).
        let (c, rep) = t1_rep();
        let t = rep.ftree();
        let a = |n: &str| c.lookup(n).unwrap();
        let k = |n: &str| SortKey::asc(a(n));
        assert!(supports_order(t, &[k("pizza")]));
        assert!(supports_order(t, &[k("pizza"), k("date")]));
        assert!(supports_order(t, &[k("pizza"), k("date"), k("customer")]));
        assert!(supports_order(t, &[k("pizza"), k("item")]));
        assert!(supports_order(t, &[k("pizza"), k("item"), k("price")]));
        assert!(supports_order(t, &[k("pizza"), k("date"), k("item")]));
        assert!(!supports_order(t, &[k("pizza"), k("customer"), k("date")]));
        assert!(!supports_order(t, &[k("customer"), k("pizza")]));
    }

    #[test]
    fn a_composite_aggregate_orders_by_its_whole_tuple() {
        // `(v, n)` over `g`: its entries sort by `v`, then `n`.
        let mut c = Catalog::new();
        let [g, v, n, x] = ["g", "v", "n", "x"].map(|a| c.intern(a));
        let mut t = FTree::new();
        let top = t.add_node(
            NodeLabel::Agg(crate::ftree::AggLabel {
                funcs: vec![AggOp::Sum(x), AggOp::Count],
                over: [x].into(),
                outputs: vec![v, n],
            }),
            None,
        );
        t.add_node(NodeLabel::Atomic(vec![g]), Some(top));
        let (asc, desc) = (SortKey::asc, SortKey::desc);
        assert!(supports_order(&t, &[asc(v)]));
        assert!(supports_order(&t, &[asc(v), asc(n), asc(g)]));
        assert!(supports_order(&t, &[desc(v), desc(n)]));
        // Ties on `v` are broken by `n`, not by the next key.
        assert!(!supports_order(&t, &[asc(v), asc(g)]));
        assert!(!supports_order(&t, &[asc(n), asc(g)]));
        assert!(!supports_order(&t, &[asc(n)]));
        assert!(!supports_order(&t, &[asc(v), desc(n)]));
    }

    #[test]
    fn theorem1_grouping_allows_permutations() {
        // Example 10: grouping tolerates any permutation of a supported
        // order's attributes.
        let (c, rep) = t1_rep();
        let t = rep.ftree();
        let a = |n: &str| c.lookup(n).unwrap();
        let supports = |group: &[AttrId]| EnumSpec::group_prefix(t, group).is_ok();
        assert!(supports(&[a("date"), a("pizza")]));
        assert!(supports(&[a("item"), a("pizza"), a("date")]));
        assert!(!supports(&[a("customer"), a("pizza")]));
        assert!(!supports(&[a("date")]));
    }

    #[test]
    fn ordered_enumeration_is_sorted() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![
            SortKey::asc(a("pizza")),
            SortKey::asc(a("date")),
            SortKey::asc(a("item")),
        ];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = TupleIter::new(&rep, &spec).unwrap();
        let rel = it
            .projected(&[a("pizza"), a("date"), a("item")], None)
            .unwrap();
        assert_eq!(rel.len(), rep.tuple_count());
        assert!(rel.is_sorted_by(&keys));
    }

    #[test]
    fn descending_enumeration() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![SortKey::desc(a("pizza")), SortKey::desc(a("date"))];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = TupleIter::new(&rep, &spec).unwrap();
        let rel = it.projected(&[a("pizza"), a("date")], None).unwrap();
        assert!(rel.is_sorted_by(&keys));
        assert_eq!(rel.row(0)[0], Value::str("Hawaii"));
    }

    #[test]
    fn limit_stops_early() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![SortKey::asc(a("pizza"))];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = TupleIter::new(&rep, &spec).unwrap();
        let rel = it.projected(&[a("pizza"), a("customer")], Some(3)).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn duplicate_key_with_conflicting_direction_honours_first() {
        // ORDER BY pizza DESC, pizza ASC, date ASC: the ASC duplicate is
        // redundant and must not override the first occurrence — the
        // enumeration agrees with the flat stable sort on the raw list.
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![
            SortKey::desc(a("pizza")),
            SortKey::asc(a("pizza")),
            SortKey::asc(a("date")),
        ];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = TupleIter::new(&rep, &spec).unwrap();
        let streamed = it.projected(&[a("pizza"), a("date")], None).unwrap();
        let mut flat = rep.flatten().project_cols(&[a("pizza"), a("date")]);
        flat.sort_by_keys(&keys);
        assert_eq!(streamed, flat);
        assert!(streamed.is_sorted_by(&fdb_relational::dedup_sort_keys(&keys)));
        assert_eq!(streamed.row(0)[0], Value::str("Hawaii"));
        // The same discipline for the grouped variant.
        let gkeys = [SortKey::desc(a("pizza")), SortKey::asc(a("pizza"))];
        let gspec = EnumSpec::group_prefix_ordered(rep.ftree(), &[a("pizza")], &gkeys).unwrap();
        let mut cur = GroupCursor::new(&rep, &gspec).unwrap();
        let mut pizzas = Vec::new();
        while let Some((vals, _)) = cur.next_group() {
            pizzas.push(vals[0].as_str().unwrap().to_string());
        }
        let mut expect = pizzas.clone();
        expect.sort_by(|x, y| y.cmp(x)); // DESC: the first occurrence
        assert_eq!(pizzas, expect);
    }

    #[test]
    fn unsupported_order_is_rejected() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let err = EnumSpec::ordered(rep.ftree(), &[SortKey::asc(a("customer"))]);
        assert!(matches!(err, Err(FdbError::OrderUnsupported(_))));
    }

    #[test]
    fn group_cursor_on_the_fly_aggregation() {
        // Scenario 3: revenue per pizza without materialising the
        // aggregate — walk pizza groups, evaluate sum(price) on the
        // dangling subtrees.
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let spec = EnumSpec::group_prefix(rep.ftree(), &[a("pizza")]).unwrap();
        let mut cur = GroupCursor::new(&rep, &spec).unwrap();
        let mut got: Vec<(String, Value)> = Vec::new();
        while let Some((vals, dangling)) = cur.next_group() {
            let v =
                crate::agg::eval_funcs(rep.ftree(), dangling, &[AggOp::Sum(a("price"))]).unwrap();
            got.push((vals[0].as_str().unwrap().to_string(), v));
        }
        // Capricciosa: prices (6+1) × 2 dates = 14; Hawaii: 6 × 2
        // customers = 12.
        assert_eq!(
            got,
            vec![
                ("Capricciosa".to_string(), Value::Int(14)),
                ("Hawaii".to_string(), Value::Int(12)),
            ]
        );
    }

    #[test]
    fn group_cursor_empty_group_list_single_group() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let spec = EnumSpec::group_prefix(rep.ftree(), &[]).unwrap();
        let mut cur = GroupCursor::new(&rep, &spec).unwrap();
        let mut groups = 0;
        while let Some((vals, dangling)) = cur.next_group() {
            assert!(vals.is_empty());
            let v = crate::agg::eval_funcs(rep.ftree(), dangling, &[AggOp::Count]).unwrap();
            assert_eq!(v, Value::Int(6));
            groups += 1;
        }
        assert_eq!(groups, 1);
        let _ = a("pizza");
    }

    #[test]
    fn empty_rep_yields_nothing() {
        let mut c = Catalog::new();
        let x = c.intern("x");
        let rel = Relation::empty(Schema::new(vec![x]));
        let rep = FRep::from_relation(&rel, crate::ftree::FTree::path(&[x])).unwrap();
        let spec = EnumSpec::all_preorder(rep.ftree());
        let mut it = TupleIter::new(&rep, &spec).unwrap();
        assert!(it.next_row().is_none());
        let gspec = EnumSpec::group_prefix(rep.ftree(), &[]).unwrap();
        let mut cur = GroupCursor::new(&rep, &gspec).unwrap();
        assert!(cur.next_group().is_none());
    }

    #[test]
    fn group_prefix_ordered_respects_keys() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        // Group by {pizza, date} ordered by (pizza DESC, date ASC).
        let keys = [SortKey::desc(a("pizza")), SortKey::asc(a("date"))];
        let spec =
            EnumSpec::group_prefix_ordered(rep.ftree(), &[a("date"), a("pizza")], &keys).unwrap();
        let mut cur = GroupCursor::new(&rep, &spec).unwrap();
        let mut groups: Vec<(String, i64)> = Vec::new();
        while let Some((vals, _)) = cur.next_group() {
            groups.push((
                vals[0].as_str().unwrap().to_string(),
                vals[1].as_int().unwrap(),
            ));
        }
        let mut expected = groups.clone();
        expected.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        assert_eq!(groups, expected);
        assert!(groups.len() >= 2);
        // A key outside the group set is rejected.
        let err = EnumSpec::group_prefix_ordered(
            rep.ftree(),
            &[a("pizza")],
            &[SortKey::asc(a("customer"))],
        );
        assert!(matches!(err, Err(FdbError::OrderUnsupported(_))));
    }

    #[test]
    fn group_cursor_exposes_free_roots_as_dangling() {
        // A forest with one grouped root and one free root: the free
        // root's union must appear in every group's dangling list.
        let mut c = Catalog::new();
        let g = c.intern("g");
        let w = c.intern("w");
        let rel_g = Relation::from_rows(
            Schema::new(vec![g]),
            [1, 2].into_iter().map(|v| vec![Value::Int(v)]),
        );
        let rel_w = Relation::from_rows(
            Schema::new(vec![w]),
            [10, 20, 30].into_iter().map(|v| vec![Value::Int(v)]),
        );
        let rep_g =
            crate::frep::FRep::from_relation(&rel_g, crate::ftree::FTree::path(&[g])).unwrap();
        let rep_w =
            crate::frep::FRep::from_relation(&rel_w, crate::ftree::FTree::path(&[w])).unwrap();
        let rep = crate::ops::product(rep_g, rep_w);
        let spec = EnumSpec::group_prefix(rep.ftree(), &[g]).unwrap();
        let mut cur = GroupCursor::new(&rep, &spec).unwrap();
        let mut n_groups = 0;
        while let Some((vals, dangling)) = cur.next_group() {
            assert_eq!(vals.len(), 1);
            assert_eq!(dangling.len(), 1);
            let count =
                crate::agg::eval_funcs(rep.ftree(), dangling, &[crate::ftree::AggOp::Count])
                    .unwrap();
            assert_eq!(count, Value::Int(3));
            n_groups += 1;
        }
        assert_eq!(n_groups, 2);
    }

    /// Reference: enumerate with the plain odometer and skip `m` rows.
    fn skip_enumerate(rep: &FRep, spec: &EnumSpec, skip: usize) -> Vec<Vec<Value>> {
        let mut it = TupleIter::new(rep, spec).unwrap();
        let mut rows = Vec::new();
        let mut i = 0;
        while let Some(r) = it.next_row() {
            if i >= skip {
                rows.push(r.to_vec());
            }
            i += 1;
        }
        rows
    }

    fn direct_enumerate(rep: &FRep, spec: &EnumSpec, skip: u64) -> Vec<Vec<Value>> {
        let mut cur = DirectCursor::new(rep, spec, skip).unwrap();
        let mut rows = Vec::new();
        while let Some(r) = cur.next_row() {
            rows.push(r.to_vec());
        }
        rows
    }

    #[test]
    fn direct_cursor_matches_skip_enumeration_at_every_offset() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let key_sets: Vec<Vec<SortKey>> = vec![
            vec![SortKey::asc(a("pizza"))],
            vec![SortKey::asc(a("pizza")), SortKey::asc(a("date"))],
            vec![SortKey::desc(a("pizza")), SortKey::desc(a("date"))],
            vec![
                SortKey::asc(a("pizza")),
                SortKey::desc(a("item")),
                SortKey::asc(a("date")),
            ],
        ];
        for keys in key_sets {
            let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
            let total = rep.tuple_count();
            for skip in 0..=total + 2 {
                let want = skip_enumerate(&rep, &spec, skip);
                let got = direct_enumerate(&rep, &spec, skip as u64);
                assert_eq!(got, want, "keys {keys:?} skip {skip}");
            }
        }
    }

    /// a → {b0 … b6}. Entries a=1 and a=2 each carry seven 512-value
    /// kids (2^63 tuples apiece), a=3 carries 5 tuples: 2^64 + 5 in all,
    /// so the count prefix sums saturate.
    pub(crate) fn saturated_rep() -> (Catalog, FRep) {
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let a = c.intern("a");
        let mut tree = FTree::new();
        let na = tree.add_node(NodeLabel::Atomic(vec![a]), None);
        let nbs: Vec<NodeId> = (0..7)
            .map(|i| {
                let b = c.intern(&format!("b{i}"));
                tree.add_node(NodeLabel::Atomic(vec![b]), Some(na))
            })
            .collect();
        let leaves = |node, n: i64| Union {
            node,
            entries: (0..n)
                .map(|v| Entry {
                    value: Value::Int(v),
                    children: Vec::new(),
                })
                .collect(),
        };
        let entry = |v: i64, widths: [i64; 7]| Entry {
            value: Value::Int(v),
            children: nbs.iter().zip(widths).map(|(&n, w)| leaves(n, w)).collect(),
        };
        let root = Union {
            node: na,
            entries: vec![
                entry(1, [512; 7]),
                entry(2, [512; 7]),
                entry(3, [5, 1, 1, 1, 1, 1, 1]),
            ],
        };
        (c, FRep::new(tree, vec![root]).unwrap())
    }

    #[test]
    fn direct_cursor_over_saturated_counts_matches_skip_enumeration() {
        // A descending seek that subtracted two saturated prefix sums
        // landed on a=2 for skips 0–4.
        let (c, rep) = saturated_rep();
        let a = c.lookup("a").unwrap();
        let bs: Vec<AttrId> = (0..7)
            .map(|i| c.lookup(&format!("b{i}")).unwrap())
            .collect();
        let skip_take = |spec: &EnumSpec, skip: u64| {
            let mut it = TupleIter::new(&rep, spec).unwrap();
            for _ in 0..skip {
                it.next_row().unwrap();
            }
            (0..3)
                .map(|_| it.next_row().unwrap().to_vec())
                .collect::<Vec<_>>()
        };
        for dir in [SortKey::asc, SortKey::desc] {
            let mut keys = vec![dir(a)];
            keys.extend(bs.iter().map(|&b| SortKey::asc(b)));
            let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
            for skip in [0, 3, 4, 5, 7, 1_000_000] {
                let mut cur = DirectCursor::new(&rep, &spec, skip).unwrap();
                let got: Vec<Vec<Value>> =
                    (0..3).map(|_| cur.next_row().unwrap().to_vec()).collect();
                assert_eq!(got, skip_take(&spec, skip), "{keys:?} skip {skip}");
            }
        }
    }

    #[test]
    fn direct_cursor_schema_matches_tuple_iter() {
        let (c, rep) = t1_rep();
        let a = |n: &str| c.lookup(n).unwrap();
        let keys = vec![SortKey::asc(a("pizza"))];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = TupleIter::new(&rep, &spec).unwrap();
        let cur = DirectCursor::new(&rep, &spec, 0).unwrap();
        assert_eq!(it.schema(), cur.schema());
        assert_eq!(
            it.positions(&[a("price"), a("pizza")]).unwrap(),
            cur.positions(&[a("price"), a("pizza")]).unwrap()
        );
    }

    #[test]
    fn direct_cursor_on_empty_rep_is_exhausted() {
        let mut c = Catalog::new();
        let x = c.intern("x");
        let rel = Relation::empty(Schema::new(vec![x]));
        let rep = FRep::from_relation(&rel, crate::ftree::FTree::path(&[x])).unwrap();
        let spec = EnumSpec::ordered(rep.ftree(), &[SortKey::asc(x)]).unwrap();
        let mut cur = DirectCursor::new(&rep, &spec, 0).unwrap();
        assert!(cur.next_row().is_none());
    }

    #[test]
    fn direct_cursor_over_product_forest() {
        // Two free roots (a cartesian product): seeks must distribute the
        // offset across both root unions.
        let mut c = Catalog::new();
        let g = c.intern("g");
        let w = c.intern("w");
        let rel_g = Relation::from_rows(
            Schema::new(vec![g]),
            [1, 2, 3].into_iter().map(|v| vec![Value::Int(v)]),
        );
        let rel_w = Relation::from_rows(
            Schema::new(vec![w]),
            [10, 20].into_iter().map(|v| vec![Value::Int(v)]),
        );
        let rep_g =
            crate::frep::FRep::from_relation(&rel_g, crate::ftree::FTree::path(&[g])).unwrap();
        let rep_w =
            crate::frep::FRep::from_relation(&rel_w, crate::ftree::FTree::path(&[w])).unwrap();
        let rep = crate::ops::product(rep_g, rep_w);
        let keys = vec![SortKey::asc(g), SortKey::desc(w)];
        let spec = EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        for skip in 0..=7 {
            let want = skip_enumerate(&rep, &spec, skip);
            let got = direct_enumerate(&rep, &spec, skip as u64);
            assert_eq!(got, want, "skip {skip}");
        }
    }
    /// Random small representations over (w, x, y, z): `a_rows ⋈ b_rows`
    /// on `w` as a path in some attribute order or as the branching tree
    /// w → {x, y → z} the join licenses, or the product forest
    /// (w → x) × (y → z).
    fn random_rep(
        shape: usize,
        a_rows: &[(i64, i64)],
        b_rows: &[(i64, i64, i64)],
    ) -> (Vec<AttrId>, FRep) {
        let mut c = Catalog::new();
        let attrs = c.intern_all(["w", "x", "y", "z"]);
        let (w, x, y, z) = (attrs[0], attrs[1], attrs[2], attrs[3]);
        let ints = |vals: &[i64]| vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        let a = Relation::from_rows(
            Schema::new(vec![w, x]),
            a_rows.iter().map(|&(p, q)| ints(&[p, q])),
        )
        .canonical();
        let rep = if shape == 7 {
            let yz = b_rows.iter().map(|&(_, q, r)| ints(&[q, r]));
            let b = Relation::from_rows(Schema::new(vec![y, z]), yz).canonical();
            crate::ops::product(
                FRep::from_relation(&a, FTree::path(&[w, x])).unwrap(),
                FRep::from_relation(&b, FTree::path(&[y, z])).unwrap(),
            )
        } else {
            let joined = a_rows.iter().flat_map(|&(p, q)| {
                let matches = b_rows.iter().filter(move |b| b.0 == p);
                matches.map(move |&(_, r, t)| (p, q, r, t))
            });
            let rel = Relation::from_rows(
                Schema::new(attrs.clone()),
                joined.map(|(p, q, r, t)| ints(&[p, q, r, t])),
            )
            .canonical();
            let tree = match shape {
                0 => FTree::path(&[w, x, y, z]),
                1 => FTree::path(&[z, y, x, w]),
                2 => FTree::path(&[x, w, z, y]),
                3 => FTree::path(&[y, z, w, x]),
                _ => {
                    let mut t = FTree::new();
                    let nw = t.add_node(NodeLabel::Atomic(vec![w]), None);
                    t.add_node(NodeLabel::Atomic(vec![x]), Some(nw));
                    let ny = t.add_node(NodeLabel::Atomic(vec![y]), Some(nw));
                    t.add_node(NodeLabel::Atomic(vec![z]), Some(ny));
                    t.add_dep([w, x]);
                    t.add_dep([w, y, z]);
                    t
                }
            };
            FRep::from_relation(&rel, tree).unwrap()
        };
        (attrs, rep)
    }

    /// The suffix-rewriting cursors against the naive enumerator on
    /// `spec`: same rows in the same order, `step` reporting exactly the
    /// shallowest position whose entry changed, seeks landing on the
    /// right row, and the exact combination count.
    fn assert_tuples_match_naive(rep: &FRep, spec: &EnumSpec) {
        let want = naive::combinations(rep, spec);
        let want_rows: Vec<Vec<Value>> = want.iter().map(|c| naive::row(rep, spec, c)).collect();
        let mut it = TupleIter::new(rep, spec).unwrap();
        assert_eq!(it.schema(), naive::schema(rep, spec));
        let mut got = Vec::new();
        while let Some(r) = it.next_row() {
            got.push(r.to_vec());
        }
        assert_eq!(got, want_rows, "{spec:?}");
        assert!(it.next_row().is_none(), "exhaustion is sticky");

        let mut odo = Odometer::new(rep, spec).unwrap();
        assert_eq!(odo.combinations(), want.len(), "{spec:?}");
        for (n, chosen) in want.iter().enumerate() {
            let from = odo.step().expect("as many steps as combinations");
            let moved = match n.checked_sub(1) {
                None => 0,
                Some(prev) => (0..chosen.len())
                    .find(|&i| !std::ptr::eq(want[prev][i].value(), chosen[i].value()))
                    .expect("consecutive combinations differ"),
            };
            assert_eq!(from, moved, "step {n} of {spec:?}");
            for (i, e) in chosen.iter().enumerate() {
                assert!(
                    std::ptr::eq(odo.value(i), e.value()),
                    "borrowed, not copied"
                );
            }
        }
        assert!(odo.step().is_none());

        for skip in [
            0,
            1,
            want.len() / 2,
            want.len().saturating_sub(1),
            want.len(),
            want.len() + 3,
        ] {
            let mut cur = DirectCursor::new(rep, spec, skip as u64).unwrap();
            let mut tail = Vec::new();
            while let Some(r) = cur.next_row() {
                tail.push(r.to_vec());
            }
            assert_eq!(
                tail,
                want_rows[skip.min(want.len())..],
                "skip {skip} of {spec:?}"
            );
        }
    }

    fn assert_groups_match_naive(rep: &FRep, spec: &EnumSpec) {
        let want = naive::combinations(rep, spec);
        let mut cur = GroupCursor::new(rep, spec).unwrap();
        assert_eq!(cur.combinations(), want.len(), "{spec:?}");
        assert_eq!(cur.schema(), naive::schema(rep, spec));
        let nodes: Vec<NodeId> = cur.slots().iter().map(|s| s.node).collect();
        for chosen in &want {
            let (vals, dangling) = cur.next_group().expect("as many groups as combinations");
            assert_eq!(vals, naive::row(rep, spec, chosen));
            let ids = |us: &[UnionRef<'_>]| us.iter().map(|u| u.id()).collect::<Vec<_>>();
            assert_eq!(
                ids(dangling),
                ids(&naive::dangling(rep, spec, chosen)),
                "{spec:?}"
            );
            let at: Vec<NodeId> = dangling.iter().map(|u| u.node()).collect();
            assert_eq!(at, nodes, "the static layout names the dangling nodes");
        }
        assert!(cur.next_group().is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn cursors_match_the_naive_enumerator_on_random_reps(
            shape in 0usize..8,
            a_rows in proptest::collection::vec((0i64..4, 0i64..4), 0..10),
            b_rows in proptest::collection::vec((0i64..4, 0i64..3, 0i64..3), 0..12),
            picks in proptest::collection::vec((0usize..4, 0u8..2), 0..5),
        ) {
            let (attrs, rep) = random_rep(shape, &a_rows, &b_rows);
            let tree = rep.ftree();
            assert_tuples_match_naive(&rep, &EnumSpec::all_preorder(tree));
            // Whatever prefix of the random key list the tree supports.
            let keys: Vec<SortKey> = picks
                .iter()
                .map(|&(a, desc)| SortKey {
                    attr: attrs[a],
                    dir: if desc == 1 { SortDir::Desc } else { SortDir::Asc },
                })
                .collect();
            for n in 0..=keys.len() {
                if let Ok(spec) = EnumSpec::ordered(tree, &keys[..n]) {
                    assert_tuples_match_naive(&rep, &spec);
                }
                let group: Vec<AttrId> = keys[..n].iter().map(|k| k.attr).collect();
                if let Ok(spec) = EnumSpec::group_prefix(tree, &group) {
                    assert_groups_match_naive(&rep, &spec);
                    // Group nodes first, then the rest.
                    let EnumSpec { mut visit, mut dirs } = spec;
                    complete_preorder(tree, &mut visit, &mut dirs);
                    assert_tuples_match_naive(&rep, &EnumSpec { visit, dirs });
                }
                if let Ok(spec) = EnumSpec::group_prefix_ordered(tree, &group, &keys[..n]) {
                    assert_groups_match_naive(&rep, &spec);
                }
            }
        }
    }
}
