//! The result side of the engine: turning an [`FdbResult`] into flat
//! tuples (`FDB` mode), ordered, filtered and cut per the query.
//!
//! Every strategy draws its rows from one **emitter compiled once per
//! result**. Compilation resolves each output column to a fixed source —
//! a visit position of the odometer (plus a component, for a composite
//! aggregate node), the index of a per-group aggregate, or the quotient
//! of two of those (`avg`) — and, for grouped results, resolves each
//! aggregate against the dangling subtrees below the group nodes
//! ([`CompiledAgg`]). The loop then does no lookups: the odometer keeps
//! *borrows* of the current values and refreshes only the positions a
//! step moved ([`crate::enumerate`]), an aggregate is re-evaluated only
//! when a union it reads changed, and each emitted value is cloned
//! exactly once, from the arena straight into the output relation's
//! row-major buffer. A grouping-sets result chains its sets' emitters in
//! set order, each writing the output layout (NULL outside its set).

use super::execute::{DeadlinePoll, ResultKind};
use super::lower::EmitCol;
use super::{FdbResult, OrderStrategy};
use crate::agg::{CompiledAgg, NoMask};
use crate::enumerate::{EnumSpec, GroupCursor, Odometer};
use crate::error::{FdbError, Result};
use crate::ftree::NodeId;
use crate::topk::TopK;
use fdb_relational::{AttrId, Relation, Schema, SortDir, Value};

/// Most bytes of output buffer reserved before the first row. A result
/// of ordinary size gets its one exact allocation; a larger one — a cross
/// product whose row count may have saturated — grows past this as it
/// fills, so it streams until the deadline poll stops it rather than
/// asking the allocator for the whole of it up front.
const RESERVE_CAP_BYTES: usize = 64 << 20;

/// Reserves room for `rows` rows of `width` values, up to
/// [`RESERVE_CAP_BYTES`].
fn reserve_rows(data: &mut Vec<Value>, rows: usize, width: usize) {
    let cap = RESERVE_CAP_BYTES / std::mem::size_of::<Value>();
    data.reserve(rows.saturating_mul(width).min(cap));
}

/// Report of one enumeration pass ([`FdbResult::to_relation_counted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderRunStats {
    /// The strategy that executed.
    pub strategy: OrderStrategy,
    /// Rows that passed the row filters and reached the ordering stage
    /// (for streamed strategies: rows emitted).
    pub rows_enumerated: usize,
    /// Peak bytes of ordering-side state — the heap payload for top-k,
    /// the buffer for collect-sort-cut, zero when streamed. Size-based,
    /// like [`crate::frep::FRep::data_bytes`], so it gates tightly.
    pub order_bytes: usize,
}

/// Where one value of an output row is read.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// The entry selected at a visit position; `comp` picks one component
    /// of a composite aggregate node's `Tup`.
    Slot { pos: usize, comp: Option<usize> },
    /// The current group's `i`-th evaluated aggregate.
    Agg(usize),
}

/// How one output column is produced.
#[derive(Clone, Copy, Debug)]
enum Col {
    Copy(Src),
    /// `num / den` as a float — finalises `avg = (sum, count)` (§3.2.4).
    Div {
        num: Src,
        den: Src,
    },
    /// NULL: a group column outside the grouping set.
    Null,
}

/// One final aggregate of a grouped result, with the deepest visit
/// position it depends on (`None`: free roots only, one value for every
/// group) — a step that moved nothing at or above that position leaves
/// its value standing — and, when it aggregates a group attribute, the
/// visit position holding that attribute's value.
struct GroupAgg {
    agg: CompiledAgg,
    deepest: Option<usize>,
    group: Option<usize>,
}

/// The per-group half of a grouped result: the cursor plus each final
/// aggregate and its current value.
struct Groups<'a> {
    cur: GroupCursor<'a>,
    aggs: Vec<GroupAgg>,
    vals: Vec<Value>,
}

enum Rows<'a> {
    /// Select-project-join and consolidated aggregates: plain tuples.
    Tuples(Odometer<'a>),
    /// Aggregates evaluated on the fly per group.
    Groups(Groups<'a>),
}

/// One factorised result's rows and how its output columns are read.
struct Source<'a> {
    rows: Rows<'a>,
    cols: Vec<Col>,
}

/// The compiled emitter: appends the result's rows — those that pass the
/// row filters — one at a time to a row-major buffer.
struct Emitter<'a> {
    /// The rows being drawn: the result's own, or a grouping set's …
    rows: Rows<'a>,
    /// … and how their output columns are read.
    cols: Vec<Col>,
    /// The grouping sets after the current one, in set order.
    rest: std::vec::IntoIter<Source<'a>>,
    /// The result, for its row filters over its output schema.
    result: &'a FdbResult,
    clock: DeadlinePoll,
    /// Names the pass in a deadline error.
    what: &'static str,
    /// Whether a requested seek landed; if not (saturated counts), the
    /// caller streams past the prefix under the deadline poll.
    seeked: bool,
}

/// Component `comp` of a composite aggregate value, or the value itself.
#[inline]
fn pick(v: &Value, comp: Option<usize>) -> &Value {
    match comp {
        None => v,
        Some(i) => &v.as_tup().expect("composite aggregate holds a Tup")[i],
    }
}

/// Appends one output row: each column cloned (or computed) from its
/// source, straight into the output buffer.
#[inline]
fn emit<'v>(cols: &[Col], out: &mut Vec<Value>, get: impl Fn(Src) -> &'v Value) {
    for col in cols {
        out.push(match *col {
            Col::Copy(src) => get(src).clone(),
            Col::Div { num, den } => {
                let n = get(num).as_number().expect("numeric sum").to_f64();
                let d = get(den).as_number().expect("numeric count").to_f64();
                Value::Float(n / d)
            }
            Col::Null => Value::Null,
        });
    }
}

impl Rows<'_> {
    /// Exact number of rows a full pass enumerates before filtering.
    fn total(&self) -> usize {
        match self {
            Rows::Tuples(odo) => odo.combinations(),
            Rows::Groups(g) => g.cur.combinations(),
        }
    }
}

impl Emitter<'_> {
    /// Appends the next row that passes the row filters to `out`;
    /// `false` when the result is exhausted. The producing run's deadline
    /// is polled per enumerated row (see [`DeadlinePoll`]) by one clock
    /// across every source, so a slow enumeration cannot wedge a serving
    /// worker.
    fn next_into(&mut self, out: &mut Vec<Value>) -> Result<bool> {
        loop {
            let start = out.len();
            match &mut self.rows {
                Rows::Tuples(odo) => {
                    if odo.step().is_none() {
                        if self.next_set() {
                            continue;
                        }
                        return Ok(false);
                    }
                    self.clock.poll(self.what)?;
                    let odo = &*odo;
                    emit(&self.cols, out, |src| match src {
                        Src::Slot { pos, comp } => pick(odo.value(pos), comp),
                        Src::Agg(_) => unreachable!("tuple results carry no group aggregates"),
                    });
                }
                Rows::Groups(g) => {
                    let Some(from) = g.cur.advance() else {
                        if self.next_set() {
                            continue;
                        }
                        return Ok(false);
                    };
                    self.clock.poll(self.what)?;
                    let first = g.vals.is_empty();
                    if first {
                        g.vals.resize(g.aggs.len(), Value::Null);
                    }
                    let tree = g.cur.ftree();
                    for (a, val) in g.aggs.iter_mut().zip(&mut g.vals) {
                        if first || a.deepest.is_some_and(|d| d >= from) {
                            let dangling = g.cur.dangling();
                            *val = match a.group {
                                Some(p) => {
                                    a.agg.eval_on_group_value(tree, dangling, g.cur.value(p))
                                }
                                None => a.agg.eval(tree, dangling, &mut NoMask),
                            }?;
                        }
                    }
                    let g = &*g;
                    emit(&self.cols, out, |src| match src {
                        Src::Slot { pos, comp } => pick(g.cur.value(pos), comp),
                        Src::Agg(i) => &g.vals[i],
                    });
                }
            }
            let (filters, schema) = (&self.result.row_filters, &self.result.schema);
            if filters.iter().all(|p| p.eval(schema, &out[start..])) {
                return Ok(true);
            }
            out.truncate(start);
        }
    }

    /// Moves on to the next grouping set; `false` after the last.
    #[cold]
    fn next_set(&mut self) -> bool {
        let Some(next) = self.rest.next() else {
            return false;
        };
        (self.rows, self.cols) = (next.rows, next.cols);
        true
    }

    /// Exact number of rows a full pass enumerates before filtering.
    fn total_rows(&self) -> usize {
        let rest = self.rest.as_slice().iter();
        rest.fold(self.rows.total(), |n, s| n.saturating_add(s.rows.total()))
    }
}

impl FdbResult {
    /// Compiles the emitter. `ordered` selects the Theorem-2 visit
    /// sequence (sorted streaming), otherwise pre-order tuples /
    /// unordered groups; `seek` additionally parks a tuple cursor on that
    /// row of the order via the count annotations, unless they saturated
    /// (`Emitter::seeked`).
    fn emitter(&self, ordered: bool, seek: Option<u64>) -> Result<Emitter<'_>> {
        let (first, rest, seeked, what) = match &self.kind {
            ResultKind::Sets(sets) => {
                debug_assert!(!ordered && seek.is_none(), "grouping sets order by a sort");
                let sources = sets.iter().map(|(_, set)| Ok(set.source(false, None)?.0));
                let mut rest = sources.collect::<Result<Vec<_>>>()?.into_iter();
                let first = rest.next().expect("a grouping-sets result has a set");
                (first, rest, false, "grouping-sets enumeration")
            }
            _ => {
                let (source, seeked) = self.source(ordered, seek)?;
                let what = match (&source.rows, seeked) {
                    (Rows::Tuples(_), true) => "direct-access enumeration",
                    (Rows::Tuples(_), false) => "enumeration",
                    (Rows::Groups(_), _) => "group enumeration",
                };
                (source, Vec::new().into_iter(), seeked, what)
            }
        };
        Ok(Emitter {
            rows: first.rows,
            cols: first.cols,
            rest,
            result: self,
            clock: DeadlinePoll::new(self.deadline_at),
            what,
            seeked,
        })
    }

    /// Compiles this result's own row source (see [`FdbResult::emitter`])
    /// and whether a requested seek landed.
    fn source(&self, ordered: bool, seek: Option<u64>) -> Result<(Source<'_>, bool)> {
        let tree = self.rep.ftree();
        let slot = |(pos, comp)| Src::Slot { pos, comp };
        let mut seeked = false;
        let (rows, cols) = match &self.kind {
            ResultKind::Spj | ResultKind::AggConsolidated => {
                let spec = if ordered {
                    EnumSpec::ordered(tree, &self.order_by)?
                } else {
                    EnumSpec::all_preorder(tree)
                };
                let mut odo = Odometer::new(&self.rep, &spec)?;
                let cols = self.compile_cols(|a| {
                    odo.source_of(a).map(slot).ok_or_else(|| {
                        FdbError::Unresolved(format!("attribute {a} not enumerated"))
                    })
                })?;
                seeked = seek.is_some_and(|skip| odo.seek(skip));
                (Rows::Tuples(odo), cols)
            }
            ResultKind::AggGrouped {
                group_attrs,
                final_funcs,
                func_outputs,
            } => {
                debug_assert!(seek.is_none(), "count annotations count tuples, not groups");
                let spec = if ordered {
                    EnumSpec::group_prefix_ordered(tree, group_attrs, &self.order_by)?
                } else {
                    EnumSpec::group_prefix(tree, group_attrs)?
                };
                let cur = GroupCursor::new(&self.rep, &spec)?;
                let nodes: Vec<NodeId> = cur.slots().iter().map(|s| s.node).collect();
                let aggs = final_funcs
                    .iter()
                    .map(|&f| {
                        let agg = CompiledAgg::new(tree, &nodes, f);
                        // No factor below the groups provides a group
                        // attribute: the group's own value does.
                        let group = f
                            .attr()
                            .filter(|_| !agg.provided())
                            .and_then(|a| cur.source_of(a))
                            .map(|(pos, _)| pos);
                        let read = cur.slots().iter().enumerate();
                        let deepest = read
                            .filter(|(k, _)| agg.reads(*k))
                            .filter_map(|(_, s)| s.parent)
                            .chain(group)
                            .max();
                        GroupAgg {
                            agg,
                            deepest,
                            group,
                        }
                    })
                    .collect();
                let cols = self.compile_cols(|a| {
                    if let Some(i) = func_outputs.iter().position(|&o| o == a) {
                        return Ok(Src::Agg(i));
                    }
                    cur.source_of(a).map(slot).ok_or_else(|| {
                        FdbError::Unresolved(format!("output attribute {a} missing"))
                    })
                })?;
                let groups = Groups {
                    cur,
                    aggs,
                    vals: Vec::new(),
                };
                (Rows::Groups(groups), cols)
            }
            ResultKind::Sets(_) => unreachable!("a grouping set is a single result"),
        };
        Ok((Source { rows, cols }, seeked))
    }

    /// Resolves every output column through `resolve`.
    fn compile_cols(&self, mut resolve: impl FnMut(AttrId) -> Result<Src>) -> Result<Vec<Col>> {
        self.emit
            .iter()
            .map(|col| {
                Ok(match *col {
                    EmitCol::Raw(a) => Col::Copy(resolve(a)?),
                    EmitCol::Div { num, den } => Col::Div {
                        num: resolve(num)?,
                        den: resolve(den)?,
                    },
                    EmitCol::Null => Col::Null,
                })
            })
            .collect()
    }

    /// Enumerates the result into a flat relation (`FDB` mode): ordered,
    /// filtered and truncated per the query.
    pub fn to_relation(&self) -> Result<Relation> {
        Ok(self.to_relation_counted()?.0)
    }

    /// [`FdbResult::to_relation`] plus the enumeration report: which
    /// ordering strategy executed, how many filtered rows reached it, and
    /// the peak ordering-side allocation — `O(k·row)` for heap top-k vs
    /// `O(N·row)` for collect-sort-cut.
    pub fn to_relation_counted(&self) -> Result<(Relation, OrderRunStats)> {
        let width = self.schema.arity();
        let mut stats = OrderRunStats {
            strategy: self.order_strategy,
            ..OrderRunStats::default()
        };
        // The output's row-major buffer and the number of rows in it.
        let mut data: Vec<Value> = Vec::new();
        let mut rows = 0usize;
        match self.order_strategy {
            // Streamed strategies: rows arrive in final order (or no
            // order was asked for), an OFFSET discards its prefix as it
            // streams past, and LIMIT stops enumeration once the page is
            // full. Direct access is the same loop behind a
            // count-annotated seek: the skipped prefix is never
            // enumerated, so the page costs O(seek + k). Plan-time
            // verification guarantees it an order-realising tuple cursor
            // and no residual row filters; over saturated counts the seek
            // does not land and the prefix streams past like an OFFSET.
            OrderStrategy::Unordered
            | OrderStrategy::StreamInTree
            | OrderStrategy::DirectAccess => {
                let ordered = !matches!(self.order_strategy, OrderStrategy::Unordered);
                let direct = matches!(self.order_strategy, OrderStrategy::DirectAccess);
                debug_assert!(!direct || self.row_filters.is_empty());
                if self.limit != Some(0) {
                    let seek = direct.then_some(self.offset as u64);
                    let mut em = self.emitter(ordered, seek)?;
                    let skip = if em.seeked { 0 } else { self.offset };
                    match self.limit {
                        // A page stops after `k` rows: counting the result
                        // to size it would cost a walk the page never makes.
                        Some(k) => reserve_rows(&mut data, k, width),
                        None if self.row_filters.is_empty() => {
                            let rest = em.total_rows().saturating_sub(self.offset);
                            reserve_rows(&mut data, rest, width);
                        }
                        None => {}
                    }
                    let mut seen = 0usize;
                    while em.next_into(&mut data)? {
                        seen += 1;
                        if seen <= skip {
                            data.truncate(data.len() - width);
                            continue;
                        }
                        rows += 1;
                        if self.limit == Some(rows) {
                            break;
                        }
                    }
                    stats.rows_enumerated = seen;
                }
            }
            OrderStrategy::CollectSortCut => {
                let mut em = self.emitter(false, None)?;
                if self.row_filters.is_empty() {
                    reserve_rows(&mut data, em.total_rows(), width);
                }
                while em.next_into(&mut data)? {
                    rows += 1;
                }
                let mut out = finish(self.schema.clone(), data, rows);
                stats.rows_enumerated = out.len();
                stats.order_bytes = out.len() * out.arity() * std::mem::size_of::<Value>();
                if !self.order_by.is_empty() {
                    out.sort_by_keys(&self.order_by);
                }
                if self.offset > 0 || self.limit.is_some_and(|k| out.len() > k) {
                    out = fdb_relational::ops::page(&out, self.offset, self.limit);
                }
                return Ok((out, stats));
            }
            // With an OFFSET the heap widens to m+k and the first m of
            // the sorted pop-out are dropped — still O((m+k)·row)
            // auxiliary memory, independent of the flat result size.
            OrderStrategy::HeapTopK => {
                let keys: Vec<(usize, SortDir)> = self
                    .order_by
                    .iter()
                    .map(|key| {
                        self.schema
                            .position(key.attr)
                            .map(|p| (p, key.dir))
                            .ok_or_else(|| {
                                FdbError::Unresolved(format!(
                                    "order attribute {} not in the output schema",
                                    key.attr
                                ))
                            })
                    })
                    .collect::<Result<_>>()?;
                let page_end = self.offset.saturating_add(self.limit.unwrap_or(usize::MAX));
                let mut topk = TopK::new(page_end, keys);
                let mut em = self.emitter(false, None)?;
                let mut row: Vec<Value> = Vec::with_capacity(width);
                while em.next_into(&mut row)? {
                    topk.push(&row);
                    row.clear();
                }
                stats.rows_enumerated = topk.rows_seen();
                stats.order_bytes = topk.peak_bytes();
                for kept in topk.into_rows().into_iter().skip(self.offset) {
                    data.extend(kept);
                    rows += 1;
                }
            }
        }
        Ok((finish(self.schema.clone(), data, rows), stats))
    }
}

/// Wraps a filled row-major buffer of `rows` rows (the nullary schema
/// keeps no values: its one possible tuple is pushed by hand).
fn finish(schema: Schema, data: Vec<Value>, rows: usize) -> Relation {
    if schema.arity() > 0 {
        return Relation::from_flat(schema, data);
    }
    let mut out = Relation::empty(schema);
    if rows > 0 {
        out.push_row(&[]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FdbEngine, RunOptions};
    use crate::enumerate::naive;
    use crate::frep::FRep;
    use crate::ftree::{FTree, NodeLabel};
    use fdb_relational::planner::JoinAggTask;
    use fdb_relational::{Catalog, SortKey};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};
    use std::time::{Duration, Instant};

    // -----------------------------------------------------------------
    // The reference: the row-at-a-time result side this module replaced,
    // at its most naive. Every combination of the visit sequence is
    // materialised by plain recursion, every row is rebuilt in full,
    // every output column searches the row's attribute list, every group
    // gets a fresh dangling list and a fresh attribute map and compiles
    // every function afresh (`eval_op`, provider search and all), and every
    // row is pushed on its own. Strategies then cut the complete list.
    // -----------------------------------------------------------------

    /// The filtered output rows in enumeration order.
    fn naive_rows(r: &FdbResult, ordered: bool, schema: &Schema) -> Result<Vec<Vec<Value>>> {
        let tree = r.rep.ftree();
        let div = |n: &Value, d: &Value| {
            let n = n.as_number().expect("numeric sum").to_f64();
            let d = d.as_number().expect("numeric count").to_f64();
            Value::Float(n / d)
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        match &r.kind {
            ResultKind::Spj | ResultKind::AggConsolidated => {
                let spec = if ordered {
                    EnumSpec::ordered(tree, &r.order_by)?
                } else {
                    EnumSpec::all_preorder(tree)
                };
                let attrs = naive::schema(&r.rep, &spec);
                for chosen in naive::combinations(&r.rep, &spec) {
                    let raw = naive::row(&r.rep, &spec, &chosen);
                    let get = |a: AttrId| &raw[attrs.iter().position(|&x| x == a).unwrap()];
                    let cols = r.emit.iter().map(|col| match *col {
                        EmitCol::Raw(a) => get(a).clone(),
                        EmitCol::Div { num, den } => div(get(num), get(den)),
                        EmitCol::Null => Value::Null,
                    });
                    rows.push(cols.collect());
                }
            }
            ResultKind::AggGrouped {
                group_attrs,
                final_funcs,
                func_outputs,
            } => {
                let spec = if ordered {
                    EnumSpec::group_prefix_ordered(tree, group_attrs, &r.order_by)?
                } else {
                    EnumSpec::group_prefix(tree, group_attrs)?
                };
                let attrs = naive::schema(&r.rep, &spec);
                for chosen in naive::combinations(&r.rep, &spec) {
                    let dangling = naive::dangling(&r.rep, &spec, &chosen);
                    let mut raw: HashMap<AttrId, Value> = HashMap::new();
                    raw.extend(
                        attrs
                            .iter()
                            .copied()
                            .zip(naive::row(&r.rep, &spec, &chosen)),
                    );
                    for (f, o) in final_funcs.iter().zip(func_outputs) {
                        let v = match f.attr().filter(|a| group_attrs.contains(a)) {
                            Some(a) => {
                                let nodes: Vec<NodeId> =
                                    dangling.iter().map(|u| u.node()).collect();
                                let agg = CompiledAgg::new(tree, &nodes, *f);
                                agg.eval_on_group_value(tree, &dangling, &raw[&a])
                            }
                            None => crate::agg::eval_op(tree, &dangling, f),
                        };
                        raw.insert(*o, v?);
                    }
                    let cols = r.emit.iter().map(|col| match col {
                        EmitCol::Raw(a) => raw[a].clone(),
                        EmitCol::Div { num, den } => div(&raw[num], &raw[den]),
                        EmitCol::Null => Value::Null,
                    });
                    rows.push(cols.collect());
                }
            }
            ResultKind::Sets(sets) => {
                for (_, set) in sets {
                    rows.extend(naive_rows(set, false, schema)?);
                }
            }
        }
        rows.retain(|row| r.row_filters.iter().all(|p| p.eval(schema, row)));
        Ok(rows)
    }

    /// What `to_relation_counted` must return, from the complete row list.
    fn naive_counted(r: &FdbResult) -> Result<(Relation, OrderRunStats)> {
        let schema = r.schema.clone();
        let ordered = matches!(
            r.order_strategy,
            OrderStrategy::StreamInTree | OrderStrategy::DirectAccess
        );
        let all = naive_rows(r, ordered, &schema)?;
        let mut stats = OrderRunStats {
            strategy: r.order_strategy,
            ..OrderRunStats::default()
        };
        let mut out = Relation::empty(schema.clone());
        let page = |from: &[Vec<Value>]| -> Vec<Vec<Value>> {
            let rest = from.iter().skip(r.offset);
            rest.take(r.limit.unwrap_or(usize::MAX)).cloned().collect()
        };
        let kept = match r.order_strategy {
            // A streamed pass stops at the row that fills the page.
            OrderStrategy::Unordered | OrderStrategy::StreamInTree => {
                stats.rows_enumerated = match r.limit {
                    Some(0) => 0,
                    Some(k) => all.len().min(r.offset + k),
                    None => all.len(),
                };
                page(&all)
            }
            OrderStrategy::DirectAccess => {
                let kept = page(&all);
                stats.rows_enumerated = kept.len();
                kept
            }
            OrderStrategy::CollectSortCut => {
                stats.rows_enumerated = all.len();
                stats.order_bytes = all.len() * schema.arity() * std::mem::size_of::<Value>();
                let mut sorted = Relation::from_rows(schema.clone(), all);
                sorted.sort_by_keys(&r.order_by);
                page(&sorted.rows().map(|row| row.to_vec()).collect::<Vec<_>>())
            }
            OrderStrategy::HeapTopK => {
                let keys = r.order_by.iter().map(|key| {
                    let p = schema.position(key.attr).expect("order key in the output");
                    (p, key.dir)
                });
                let mut topk = TopK::new(r.offset + r.limit.unwrap(), keys.collect());
                for row in &all {
                    topk.push(row);
                }
                stats.rows_enumerated = topk.rows_seen();
                stats.order_bytes = topk.peak_bytes();
                topk.into_rows().into_iter().skip(r.offset).collect()
            }
        };
        for row in &kept {
            out.push_row(row);
        }
        Ok((out, stats))
    }

    // -----------------------------------------------------------------
    // Databases and queries.
    // -----------------------------------------------------------------

    type Pairs = [(i64, i64)];

    /// The chain R(a,b), S(b,c), T(c,d) as flat relations, P(a,p) with a
    /// float column, and two factorised views of the same data: V over
    /// the branching tree b → {a, c} that R ⋈ S licenses, W = T as the
    /// path d → c.
    fn chain_engine(r: &Pairs, s: &Pairs, t: &Pairs, p: &Pairs) -> FdbEngine {
        let mut catalog = Catalog::new();
        let ids = catalog.intern_all(["a", "b", "c", "d", "p"]);
        let (a, b, c, d, pp) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let rel = |x, y, rows: &Pairs| {
            let rows = rows
                .iter()
                .map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]);
            Relation::from_rows(Schema::new(vec![x, y]), rows).canonical()
        };
        let floats = [0.5, -0.0, 2.25, 1e10, -3.5];
        let p_rows = p
            .iter()
            .map(|&(u, v)| vec![Value::Int(u), Value::Float(floats[v as usize % 5])]);
        let p_rel = Relation::from_rows(Schema::new(vec![a, pp]), p_rows).canonical();
        let joined = r.iter().flat_map(|&(x, y)| {
            let partners = s.iter().filter(move |s| s.0 == y);
            partners.map(move |&(_, z)| vec![Value::Int(x), Value::Int(y), Value::Int(z)])
        });
        let rs = Relation::from_rows(Schema::new(vec![a, b, c]), joined).canonical();
        let mut tree = FTree::new();
        let nb = tree.add_node(NodeLabel::Atomic(vec![b]), None);
        tree.add_node(NodeLabel::Atomic(vec![a]), Some(nb));
        tree.add_node(NodeLabel::Atomic(vec![c]), Some(nb));
        tree.add_dep([a, b]);
        tree.add_dep([b, c]);
        let t_rel = rel(c, d, t);
        let mut e = FdbEngine::new(catalog);
        e.register_view("V", FRep::from_relation(&rs, tree).unwrap());
        e.register_view(
            "W",
            FRep::from_relation(&t_rel, FTree::path(&[d, c])).unwrap(),
        );
        e.register_relation("R", rel(a, b, r));
        e.register_relation("S", rel(b, c, s));
        e.register_relation("T", t_rel);
        e.register_relation("P", p_rel);
        e
    }

    /// Select-project-join, plain and composite aggregates (`AVG`,
    /// `TOP_K`, the multiplicity-sensitive and -invariant families),
    /// HAVING on group columns, aggregates and computed columns, mixed
    /// `ASC`/`DESC` orders on group columns, aggregates and `AVG`,
    /// grouping sets, flat inputs and views, and results empty by
    /// construction.
    const CORPUS: &[&str] = &[
        "SELECT a, b FROM R",
        "SELECT a, c FROM R, S ORDER BY c DESC, a",
        "SELECT a, b, c FROM V ORDER BY b, a DESC, c",
        "SELECT a, c FROM V ORDER BY a, c DESC",
        "SELECT a, d FROM R, S, T ORDER BY a DESC, d",
        "SELECT c, d FROM W ORDER BY c DESC, d DESC",
        "SELECT a, b FROM R WHERE b > 100 ORDER BY a",
        "SELECT SUM(b) AS s FROM R",
        "SELECT COUNT(*) AS n FROM R, S, T",
        "SELECT a, COUNT(*) AS n FROM R GROUP BY a",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a ORDER BY a DESC",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a ORDER BY s DESC, a",
        "SELECT a, b, SUM(c) AS s, COUNT(*) AS n FROM R, S GROUP BY a, b ORDER BY b DESC, a",
        "SELECT b, a, SUM(c) AS s FROM V GROUP BY b, a ORDER BY b, a DESC",
        "SELECT b, SUM(a) AS sa, SUM(c) AS sc, COUNT(*) AS n FROM V GROUP BY b ORDER BY b DESC",
        "SELECT a, SUM(d) AS s FROM R, S, T GROUP BY a HAVING s >= 3 ORDER BY a",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a HAVING s > 1",
        "SELECT a, SUM(c) AS s, AVG(c) AS m FROM R, S GROUP BY a HAVING s > 1 AND m >= 1",
        "SELECT a, MIN(c) AS lo, MAX(c) AS hi FROM R, S GROUP BY a ORDER BY hi, a DESC",
        "SELECT a, AVG(c) AS m FROM R, S GROUP BY a ORDER BY a",
        "SELECT a, AVG(d) AS m FROM R, S, T GROUP BY a ORDER BY m DESC, a",
        "SELECT a, AVG(c) AS m, COUNT(*) AS n FROM R, S GROUP BY a HAVING m >= 1 ORDER BY a DESC",
        "SELECT b, AVG(a) AS m FROM V GROUP BY b HAVING m < 3",
        "SELECT a, SUM(p) AS s, AVG(p) AS m FROM P GROUP BY a ORDER BY a",
        "SELECT a, SUM(p) AS s FROM R, P GROUP BY a ORDER BY s, a",
        "SELECT a, TOP_K(c, 2) AS t FROM R, S GROUP BY a ORDER BY a DESC",
        "SELECT b, TOP_K(d, 3) AS t, COUNT(*) AS n FROM S, T GROUP BY b",
        "SELECT a, COUNT(DISTINCT c) AS u, PRODUCT(c) AS x FROM R, S GROUP BY a ORDER BY a",
        "SELECT a, b, COUNT(DISTINCT a) AS u, TOP_K(b, 2) AS t, SUM(b) AS s FROM R, S GROUP BY a, b",
        "SELECT a, EXISTS(c > 1) AS e, FORALL(c <= 2) AS f FROM R, S GROUP BY a ORDER BY a",
        "SELECT d, COUNT(*) AS n FROM W GROUP BY d HAVING n > 1 ORDER BY n DESC, d",
        "SELECT a, b, COUNT(*) AS n FROM R GROUP BY ROLLUP (a, b)",
        "SELECT a, b, COUNT(*) AS n FROM R GROUP BY ROLLUP (a, b) ORDER BY a, b DESC, n",
        "SELECT a, c, SUM(b) AS s FROM R, S GROUP BY CUBE (a, c) HAVING s > 1 ORDER BY s DESC, a, c",
        "SELECT a, c, AVG(b) AS m, COUNT(DISTINCT b) AS u, TOP_K(b, 2) AS t FROM R, S \
         GROUP BY GROUPING SETS ((c, a), (a), (a), ()) HAVING m >= 1",
        "SELECT a, SUM(c) AS s FROM R, S WHERE b > 100 GROUP BY a ORDER BY a",
    ];

    fn kind_name(r: &FdbResult) -> &'static str {
        match r.kind {
            ResultKind::Spj => "spj",
            ResultKind::AggConsolidated => "consolidated",
            ResultKind::AggGrouped { .. } => "grouped",
            ResultKind::Sets(_) => "sets",
        }
    }

    fn strategy_name(s: OrderStrategy) -> &'static str {
        match s {
            OrderStrategy::Unordered => "unordered",
            OrderStrategy::StreamInTree => "stream",
            OrderStrategy::DirectAccess => "direct",
            OrderStrategy::HeapTopK => "heap",
            OrderStrategy::CollectSortCut => "sort",
        }
    }

    type Coverage = BTreeSet<(&'static str, &'static str, bool)>;

    /// Runs `sql` under the cost model's choice and every forced ordering
    /// strategy × page, holding the emitter to the
    /// naive reference: same rows in the same order, same `OrderRunStats`
    /// — or the same error.
    fn assert_emitter_matches_naive(e: &mut FdbEngine, sql: &str, seen: &mut Coverage) {
        let schemas = e.schemas();
        let base: JoinAggTask = fdb_query::parse(sql, &mut e.catalog, &schemas)
            .unwrap_or_else(|err| panic!("`{sql}`: {err}"))
            .to_task();
        let unlimited = e
            .run_default(&base)
            .and_then(|r| r.to_relation())
            .unwrap_or_else(|err| panic!("`{sql}`: {err}"))
            .len();
        let choices: &[Option<OrderStrategy>] = if base.order_by.is_empty() {
            &[None]
        } else {
            &[
                None,
                Some(OrderStrategy::StreamInTree),
                Some(OrderStrategy::DirectAccess),
                Some(OrderStrategy::HeapTopK),
                Some(OrderStrategy::CollectSortCut),
            ]
        };
        // LIMIT/OFFSET ∈ {none, 0, 1, mid, past-end}, crossed sparsely.
        let mid = unlimited / 2;
        let pages = [
            (None, 0),
            (Some(0), 0),
            (Some(1), 0),
            (Some(1), 1),
            (Some(mid.max(2)), mid),
            (None, mid),
            (Some(3), unlimited + 2),
            (Some(unlimited + 5), 1),
            (None, unlimited + 2),
        ];
        for &(limit, offset) in &pages {
            let task = JoinAggTask {
                limit,
                offset,
                ..base.clone()
            };
            for &choice in choices {
                let opts = RunOptions::new();
                let ctx = format!("`{sql}` LIMIT {limit:?} OFFSET {offset} {choice:?}");
                let result = match choice {
                    Some(c) => e.run_forcing(&task, opts, c),
                    None => e.run(&task, opts),
                };
                let result = result.unwrap_or_else(|err| panic!("{ctx}: {err}"));
                seen.insert((
                    kind_name(&result),
                    strategy_name(result.order_strategy),
                    result.row_filters.is_empty(),
                ));
                match (result.to_relation_counted(), naive_counted(&result)) {
                    (Ok((rows, stats)), Ok((want_rows, want_stats))) => {
                        assert_eq!(rows, want_rows, "{ctx}\n{}", result.explain(&e.catalog));
                        assert_eq!(stats, want_stats, "{ctx}");
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{ctx}: emitter {got:?}, reference {want:?}"),
                }
            }
        }
    }

    /// Every (kind, strategy) the engine can produce: direct access needs
    /// a tuple cursor, and a grouping-sets result streams its sets in
    /// turn (unordered) or sorts them (collect-sort-cut).
    fn reachable() -> Vec<(&'static str, &'static str)> {
        let mut all = Vec::new();
        for kind in ["spj", "consolidated", "grouped"] {
            for strategy in ["unordered", "stream", "heap", "sort"] {
                all.push((kind, strategy));
            }
        }
        all.extend([("spj", "direct"), ("consolidated", "direct")]);
        all.extend([("sets", "unordered"), ("sets", "sort")]);
        all
    }

    fn assert_covered(seen: &Coverage) {
        for (kind, strategy) in reachable() {
            assert!(
                seen.iter().any(|&(k, s, _)| (k, s) == (kind, strategy)),
                "no {kind} result ran {strategy}: {seen:?}"
            );
        }
        // A grouping-sets result streams and sorts with and without a
        // HAVING row filter.
        for (strategy, unfiltered) in [
            ("unordered", true),
            ("unordered", false),
            ("sort", true),
            ("sort", false),
        ] {
            assert!(
                seen.contains(&("sets", strategy, unfiltered)),
                "no sets result ran {strategy} with unfiltered = {unfiltered}: {seen:?}"
            );
        }
        for kind in ["consolidated", "grouped"] {
            assert!(
                seen.iter()
                    .any(|&(k, _, unfiltered)| k == kind && !unfiltered),
                "no {kind} result carried a HAVING row filter: {seen:?}"
            );
        }
    }

    #[test]
    fn emitter_matches_naive_reference_on_the_corpus() {
        let r = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 0), (3, 3)];
        let s = [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 1)];
        let t = [(0, 2), (1, 1), (1, 4), (2, 0), (2, 2), (3, 3)];
        let p = [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 4), (3, 1)];
        let mut e = chain_engine(&r, &s, &t, &p);
        let mut seen = Coverage::new();
        for sql in CORPUS {
            assert_emitter_matches_naive(&mut e, sql, &mut seen);
        }
        assert_covered(&seen);
    }

    #[test]
    fn emitter_matches_naive_reference_on_empty_inputs() {
        let mut e = chain_engine(&[], &[(1, 1)], &[], &[]);
        let mut seen = Coverage::new();
        for sql in CORPUS {
            assert_emitter_matches_naive(&mut e, sql, &mut seen);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn emitter_matches_naive_reference_on_random_databases(
            r in prop::collection::vec((0i64..4, 0i64..4), 0..10),
            s in prop::collection::vec((0i64..4, 0i64..4), 0..10),
            t in prop::collection::vec((0i64..4, 0i64..5), 0..10),
            p in prop::collection::vec((0i64..4, 0i64..5), 0..8),
            first in 0usize..3,
        ) {
            let mut e = chain_engine(&r, &s, &t, &p);
            let mut seen = Coverage::new();
            // A third of the corpus per case keeps the sweep quick; the
            // cases rotate through all of it.
            for sql in CORPUS.iter().skip(first).step_by(3) {
                assert_emitter_matches_naive(&mut e, sql, &mut seen);
            }
        }
    }

    // -----------------------------------------------------------------
    // Deadlines on the new loop.
    // -----------------------------------------------------------------

    #[test]
    fn an_expired_deadline_fails_on_the_first_row_of_every_kind() {
        let pairs: Vec<(i64, i64)> = (0..40).map(|i| (i % 8, i)).collect();
        let mut e = chain_engine(&pairs, &[(0, 0)], &[], &[]);
        let mut kinds = BTreeSet::new();
        // (query, whether a pass enumerates any row). A HAVING on the
        // aggregate consolidates it; without one it stays grouped.
        for (sql, enumerates) in [
            ("SELECT a, b FROM R", true),
            (
                "SELECT a, SUM(b) AS s FROM R GROUP BY a HAVING s >= 0",
                true,
            ),
            ("SELECT a, SUM(b) AS s FROM R GROUP BY a", true),
            ("SELECT a, COUNT(*) AS n FROM R GROUP BY ROLLUP (a)", true),
            // Every group is enumerated, then filtered away: polled.
            (
                "SELECT a, AVG(b) AS m FROM R GROUP BY a HAVING m > 9000",
                true,
            ),
            // No row, no poll: an empty result is never late.
            ("SELECT a, b FROM R WHERE b > 9000", false),
            (
                "SELECT a, SUM(b) AS s FROM R WHERE b > 9000 GROUP BY a",
                false,
            ),
        ] {
            let mut result = e.run_sql_result(sql).unwrap();
            kinds.insert(kind_name(&result));
            result.deadline_at = Some(Instant::now());
            match result.to_relation_counted() {
                Ok((out, _)) => assert!(out.is_empty() && !enumerates, "{sql}"),
                Err(err) => {
                    assert!(matches!(err, FdbError::DeadlineExceeded(_)), "{sql}: {err}");
                    assert!(enumerates, "{sql}");
                }
            }
        }
        assert_eq!(kinds.len(), 4, "{kinds:?}");
    }

    #[test]
    fn a_deadline_passing_mid_enumeration_cuts_at_the_next_poll() {
        // 4 096 rows; the clock is read on the first row and then every
        // `DEADLINE_CHECK_EVERY` rows, so a budget that runs out after the
        // first row is noticed exactly at row 1 024 — not before, and not
        // at the end.
        let every = crate::engine::execute::DEADLINE_CHECK_EVERY;
        let pairs: Vec<(i64, i64)> = (0..4 * every as i64).map(|i| (i % 7, i)).collect();
        let mut e = chain_engine(&pairs, &[], &[], &[]);
        for sql in [
            "SELECT a, b FROM R",
            "SELECT b, SUM(a) AS s FROM R GROUP BY b",
            "SELECT b, COUNT(*) AS n FROM R GROUP BY ROLLUP (b) HAVING n > 0",
            // The first set has 7 rows: one clock spans the chain, so the
            // second set's first row is not polled afresh.
            "SELECT a, b, COUNT(*) AS n FROM R GROUP BY GROUPING SETS ((a), (b))",
        ] {
            let mut result = e.run_sql_result(sql).unwrap();
            let budget = Duration::from_millis(300);
            result.deadline_at = Some(Instant::now() + budget);
            let width = result.schema.arity();
            let mut em = result.emitter(false, None).unwrap();
            let mut data = Vec::new();
            assert!(
                em.next_into(&mut data).unwrap(),
                "{sql}: first row in budget"
            );
            std::thread::sleep(budget + Duration::from_millis(20));
            for row in 1..every {
                assert!(
                    em.next_into(&mut data).unwrap(),
                    "{sql}: row {row} is not polled"
                );
            }
            let err = em.next_into(&mut data).unwrap_err();
            assert!(matches!(err, FdbError::DeadlineExceeded(_)), "{sql}: {err}");
            assert_eq!(data.len(), every * width);
        }
    }

    #[test]
    fn reservation_is_exact_for_an_unfiltered_uncut_result() {
        let pairs: Vec<(i64, i64)> = (0..500).map(|i| (i % 9, i)).collect();
        let mut e = chain_engine(&pairs, &[(0, 0)], &[], &[]);
        for sql in [
            "SELECT a, b FROM R",
            "SELECT a, b, COUNT(*) AS n FROM R GROUP BY a, b",
            "SELECT b, SUM(a) AS s FROM R GROUP BY b HAVING s >= 0",
        ] {
            let result = e.run_sql_result(sql).unwrap();
            let em = result.emitter(false, None).unwrap();
            assert_eq!(em.total_rows(), 500, "{sql}");
            let flat = result.to_relation().unwrap().into_flat();
            assert_eq!(flat.len(), flat.capacity(), "{sql}: one exact allocation");
        }
    }

    #[test]
    fn a_page_reserves_its_limit_and_no_reservation_exceeds_the_cap() {
        let mut e = chain_engine(&[(0, 1), (1, 0), (2, 2)], &[], &[], &[]);
        let width = 2;
        // A page larger than the old fixed 1 024-row reserve: one allocation.
        let page = e.run_sql_result("SELECT a, b FROM R LIMIT 5000").unwrap();
        let flat = page.to_relation().unwrap().into_flat();
        assert_eq!((flat.len(), flat.capacity()), (3 * width, 5000 * width));
        // A LIMIT standing in for "everything" is cut at the cap.
        let all = e
            .run_sql_result("SELECT a, b FROM R LIMIT 4000000000000")
            .unwrap();
        let cap = RESERVE_CAP_BYTES / std::mem::size_of::<Value>();
        assert_eq!(all.to_relation().unwrap().into_flat().capacity(), cap);
        // A saturated row count never reaches the allocator as it is.
        let mut data = Vec::new();
        reserve_rows(&mut data, usize::MAX, 4);
        assert_eq!(data.capacity(), cap);
    }

    #[test]
    fn a_huge_cross_product_streams_until_the_deadline() {
        // Four unary relations of 2^16 rows: the product has 2^64 rows, so
        // the exact row count saturates. Sizing the output from it would
        // overflow `Vec`'s capacity before the first row; the pass must
        // instead start streaming and stop at a deadline poll.
        let mut catalog = Catalog::new();
        let attrs = catalog.intern_all(["a", "b", "c", "d"]);
        let mut e = FdbEngine::new(catalog);
        for (name, &attr) in ["A", "B", "C", "D"].into_iter().zip(&attrs) {
            let rows = (0..1i64 << 16).map(|i| vec![Value::Int(i)]);
            e.register_relation(name, Relation::from_rows(Schema::new(vec![attr]), rows));
        }
        for (sql, strategy) in [
            (
                "SELECT a, b, c, d FROM A, B, C, D",
                OrderStrategy::Unordered,
            ),
            (
                "SELECT a, b, c, d FROM A, B, C, D LIMIT 4000000000000",
                OrderStrategy::Unordered,
            ),
            (
                "SELECT a, b, c, d FROM A, B, C, D ORDER BY d, c, b, a",
                OrderStrategy::CollectSortCut,
            ),
        ] {
            let schemas = e.schemas();
            let task = fdb_query::parse(sql, &mut e.catalog, &schemas)
                .unwrap()
                .to_task();
            let mut result = e
                .run_forcing(&task, RunOptions::new(), OrderStrategy::CollectSortCut)
                .unwrap();
            assert_eq!(result.order_strategy, strategy, "{sql}");
            let total = result.emitter(false, None).unwrap().total_rows();
            assert_eq!(total, usize::MAX, "{sql}: the row count saturates");
            result.deadline_at = Some(Instant::now() + Duration::from_millis(20));
            let err = result.to_relation_counted().unwrap_err();
            assert!(matches!(err, FdbError::DeadlineExceeded(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn key_dirs_reach_the_emitter() {
        // Guards the corpus itself: ASC and DESC keys both stream.
        let mut e = chain_engine(&[(0, 1), (1, 0), (2, 2)], &[], &[], &[]);
        let result = e
            .run_sql_result("SELECT a, b FROM R ORDER BY a DESC, b")
            .unwrap();
        assert_eq!(result.order_strategy, OrderStrategy::StreamInTree);
        let a = e.catalog.lookup("a").unwrap();
        let rows = result.to_relation().unwrap();
        assert!(rows.is_sorted_by(&[SortKey::desc(a)]));
        assert_eq!(rows.row(0)[0], Value::Int(2));
    }
}
