//! Recursive aggregation on factorised data — §3.2 of the paper.
//!
//! The evaluators run in time linear in the *factorisation* size, even
//! though the represented relation can be exponentially larger: a count
//! over a union is the sum of its entries' counts, over a product the
//! product of the factors' counts. Aggregate singletons carry their special
//! semantics (§3.1): `⟨count(X):c⟩` counts as `c`, `⟨sumA(X):s⟩` sums as
//! `s`; compositions outside Proposition 2 — e.g. a `count` over a `sum`
//! singleton, whose cardinality is unrecoverable — are reported as
//! [`FdbError::InvalidComposition`].
//!
//! Which factor provides a function's attribute, and the spine down to
//! it, depend on the f-tree alone, so each function is resolved once:
//! `CompiledAgg` is the one evaluator of a function over a product of
//! factors — compiled once per `γ`, once per grouped result, once per
//! [`eval_op`] call — and the group fold resolves its readers once per
//! walk. Every function but `count(distinct)` is a `Fold` (an identity,
//! `combine`, `scale` by a multiplicity — never called for `min`/`max`/
//! `exists`/`forall` — reads of an atomic value and of a partial
//! component, and a `leaf` fast path), found through one dispatch and
//! evaluated by one walk, `fold_union`: a union combines its entries'
//! terms, and an entry's term is its providing child's value scaled by
//! the multiplicity of everything else under the entry. The walks over a
//! product are generic over a `Sieve`: `NoMask` reads every entry, a
//! selection run fused into the `γ` reads only the entries it passes.
//! The group fold
//! (`fold_groups`, behind `FOp::GroupFold`) evaluates every function for
//! every group of its nodes at once, in one walk down the root path: the
//! folds through one table of accumulators each (`Table`), and
//! `count(distinct)` through its own (`Distinct`). Read for a page, a
//! fold on the top nodes of the root path walks only the root entries
//! whose groups the page shows ([`FoldWindow`]).
//!
//! `count(distinct)` does not compose — which values occur is lost in a
//! count — so no partial `γ` computes it and its attribute stays atomic
//! until one evaluation reads it: over a product, a walk of the providing
//! spine that interns each value into one dense-id table; in the group
//! fold, a table of `(group, value id)` pairs. The fold's count is final:
//! a later `γ` or the emitter reads it from each group's one singleton,
//! and refuses to combine several.
//!
//! Multiplicities are exact or refused: every count and product of counts
//! is checked, and one that leaves `i64` is an
//! [`FdbError::InvalidOperator`], never a wrapped value.

use crate::dense::{direct_cap, DenseIds, PairIds, ValueIds};
use crate::error::{FdbError, Result};
use crate::frep::{Col, EntryRef, UnionRef};
use crate::ftree::{AggLabel, AggOp, FTree, NodeId, NodeLabel};
use fdb_relational::{CmpOp, Number, Value};
use std::ops::Range;

/// True when the union is a leaf of the f-tree with an atomic label:
/// entries carry multiplicity 1 and no children, so aggregates over it
/// reduce to scans of the value buffer.
fn is_atomic_leaf(ftree: &FTree, u: UnionRef<'_>) -> bool {
    let node = ftree.node(u.node());
    matches!(node.label, NodeLabel::Atomic(_)) && node.children.is_empty()
}

/// Wrapping sum when every value is an `Int`; `None` otherwise.
fn sum_int_slice(vals: &[Value]) -> Option<i64> {
    vals.iter().try_fold(0i64, |acc, v| match v {
        Value::Int(x) => Some(acc.wrapping_add(*x)),
        _ => None,
    })
}

/// Min or max when the slice is non-empty and every value is an `Int`;
/// `None` otherwise.
fn extremum_int_slice(vals: &[Value], is_min: bool) -> Option<i64> {
    let (Value::Int(first), rest) = vals.split_first()? else {
        return None;
    };
    rest.iter().try_fold(*first, |best, v| match v {
        Value::Int(x) if is_min => Some(best.min(*x)),
        Value::Int(x) => Some(best.max(*x)),
        _ => None,
    })
}

/// True if the node itself exposes `op`'s attribute atomically or holds a
/// partial-aggregate component computing `op`.
fn node_provides(label: &NodeLabel, op: &AggOp) -> bool {
    match label {
        NodeLabel::Atomic(attrs) => op.attr().is_some_and(|a| attrs.contains(&a)),
        NodeLabel::Agg(l) => l.component_of(op).is_some(),
    }
}

/// True if the subtree rooted at `node` can feed the aggregation `op`:
/// it exposes the aggregated attribute atomically, or holds a compatible
/// partial-aggregate component (e.g. `sum(a)` feeding a later `sum(a)`).
pub fn subtree_provides(ftree: &FTree, node: NodeId, op: &AggOp) -> bool {
    op.attr().is_none() || providing_spine(ftree, node, op).is_some()
}

/// The providing spine of `op` below `node`: the child position to
/// descend at each level (exactly one child subtree provides — attributes
/// partition the schema), down to the first node that provides `op`,
/// which is returned with it; `None` when no node of the subtree does.
fn providing_spine(ftree: &FTree, node: NodeId, op: &AggOp) -> Option<(Vec<usize>, NodeId)> {
    if node_provides(&ftree.node(node).label, op) {
        return Some((Vec::new(), node));
    }
    let mut children = ftree.node(node).children.iter().enumerate();
    children.find_map(|(j, &c)| {
        let (mut spine, n) = providing_spine(ftree, c, op)?;
        spine.insert(0, j);
        Some((spine, n))
    })
}

/// The first of `nodes` (each with its position) whose subtree provides
/// `op`: its position, the spine below it and the providing node. `None`
/// for `count`, which reads no attribute, and when none provides. It
/// depends on the f-tree alone, so a function resolves it when it is
/// compiled ([`CompiledAgg::new`], [`Reader::resolve`]), never per entry.
fn first_provider(
    ftree: &FTree,
    nodes: impl IntoIterator<Item = (usize, NodeId)>,
    op: &AggOp,
) -> Option<(usize, Vec<usize>, NodeId)> {
    op.attr()?;
    nodes
        .into_iter()
        .find_map(|(k, n)| providing_spine(ftree, n, op).map(|(spine, p)| (k, spine, p)))
}

/// Tuple multiplicity of one entry: how many tuples of the represented
/// relation one singleton stands for, *excluding* its children.
fn entry_multiplicity(label: &NodeLabel, value: &Value) -> Result<i64> {
    match label {
        NodeLabel::Atomic(_) => Ok(1),
        NodeLabel::Agg(l) => match l.count_component() {
            Some(i) => Ok(component(l, value, i)
                .as_int()
                .expect("count component is integral")),
            None => Err(FdbError::InvalidComposition(format!(
                "cardinality of an aggregate singleton without a count \
                 component ({:?}) is unrecoverable",
                l.funcs
            ))),
        },
    }
}

/// Reads component `i` of a (possibly composite) aggregate value.
fn component<'v>(label: &AggLabel, value: &'v Value, i: usize) -> &'v Value {
    if label.arity() == 1 {
        value
    } else {
        &value.as_tup().expect("composite aggregate holds a Tup")[i]
    }
}

/// What a walk reads each union through. [`NoMask`] reads every entry:
/// it touches no node, so every check below folds to a constant and the
/// unmasked walk compiles to the plain loop over the entries. A `Mask`
/// ([`crate::ops::select::Mask`]) — a run of constant selections fused
/// into the `γ` that follows it (`pipeline::execute`), one more 0/1
/// factor of the product — reads a union of a node it touches through
/// its passing runs, and hands every union it does not touch to the
/// unmasked walk (one check per union), so an unfiltered subtree costs
/// what it costs without a mask. An entry the mask leaves with no tuple
/// is skipped for every function, scaling or not — never scaled by zero,
/// which would turn a float's `±inf` into NaN and flip `-0.0`.
pub(crate) trait Sieve {
    /// Whether some node can be touched: `false` for [`NoMask`].
    const MASKS: bool;
    /// Whether the subtree of `node` holds a filtered node: only then do
    /// its unions need reading through the mask.
    fn touches(&self, node: NodeId) -> bool;
    /// Runs `f` over the passing runs of `u`, given as indices for
    /// [`Sieve::run`].
    fn with_runs<T>(&mut self, u: UnionRef<'_>, f: impl FnOnce(&mut Self, Range<usize>) -> T) -> T;
    /// The entry positions of `u`'s passing run at index `r`.
    fn run(&self, u: UnionRef<'_>, r: usize) -> Range<usize>;
    /// The number of passing entries of `u`, a union of a node it
    /// touches.
    fn passing(&mut self, u: UnionRef<'_>) -> usize;
}

/// Every entry passes: one run per union, the whole of it.
pub(crate) struct NoMask;

impl Sieve for NoMask {
    const MASKS: bool = false;
    #[inline]
    fn touches(&self, _node: NodeId) -> bool {
        false
    }
    #[inline]
    fn with_runs<T>(
        &mut self,
        _u: UnionRef<'_>,
        f: impl FnOnce(&mut Self, Range<usize>) -> T,
    ) -> T {
        f(self, 0..1)
    }
    #[inline]
    fn run(&self, u: UnionRef<'_>, _r: usize) -> Range<usize> {
        0..u.len()
    }
    #[inline]
    fn passing(&mut self, u: UnionRef<'_>) -> usize {
        u.len()
    }
}

/// `init` times the tuple counts of `unions` other than the one at
/// position `skip`, read through `m` and multiplied in order; refused
/// once it leaves `i64`.
fn count_product<'a, M: Sieve>(
    ftree: &FTree,
    unions: impl Iterator<Item = UnionRef<'a>>,
    skip: Option<usize>,
    init: i64,
    m: &mut M,
) -> Result<i64> {
    let mut mult = init;
    for (k, u) in unions.enumerate() {
        if Some(k) != skip {
            mult = checked(mult.checked_mul(count_in(ftree, u, m)?))?;
        }
    }
    Ok(mult)
}

/// A multiplicity, or its refusal once it left `i64`.
fn checked(mult: Option<i64>) -> Result<i64> {
    mult.ok_or_else(|| FdbError::InvalidOperator("tuple multiplicity exceeds i64::MAX".into()))
}

/// `count(E)` — cardinality of the relation represented by union `u`.
pub fn count_union(ftree: &FTree, u: UnionRef<'_>) -> Result<i64> {
    count_in(ftree, u, &mut NoMask)
}

/// The tuple count of `u` read through `m`: the sum over its passing
/// entries of their own multiplicities times their children's counts.
fn count_in<M: Sieve>(ftree: &FTree, u: UnionRef<'_>, m: &mut M) -> Result<i64> {
    if M::MASKS && !m.touches(u.node()) {
        return count_in(ftree, u, &mut NoMask);
    }
    // Leaf atomic union: every (passing) entry stands for exactly one
    // tuple, so the count is the entry count — O(1) unmasked, and the
    // workhorse of the multiplicities the walk scales by.
    if is_atomic_leaf(ftree, u) {
        debug_assert!(u.entries().all(|e| e.child_count() == 0));
        return Ok(m.passing(u) as i64);
    }
    let label = &ftree.node(u.node()).label;
    m.with_runs(u, |m, runs| {
        let mut total: i64 = 0;
        for r in runs {
            for e in u.entries_in(m.run(u, r)) {
                let own = entry_multiplicity(label, e.value())?;
                let mult = count_product(ftree, e.children(), None, own, m)?;
                total = checked(total.checked_add(mult))?;
            }
        }
        Ok(total)
    })
}

/// Whether `u` keeps a tuple under `m`.
fn alive<M: Sieve>(ftree: &FTree, u: UnionRef<'_>, m: &mut M) -> bool {
    if !m.touches(u.node()) {
        return !u.is_empty();
    }
    let kids = &ftree.node(u.node()).children;
    m.with_runs(u, |m, runs| {
        runs.into_iter().any(|r| {
            let run = m.run(u, r);
            u.entries_in(run)
                .any(|e| kids_alive(ftree, kids, e, None, m))
        })
    })
}

/// Whether every child of `e` (of a node with children `kids`) but the
/// one at position `skip` keeps a tuple under `m`. Below an entry only a
/// touched union can be empty, so unmasked this is `true`.
fn kids_alive<M: Sieve>(
    ftree: &FTree,
    kids: &[NodeId],
    e: EntryRef<'_>,
    skip: Option<usize>,
    m: &mut M,
) -> bool {
    (0..kids.len()).all(|k| Some(k) == skip || !m.touches(kids[k]) || alive(ftree, e.child(k), m))
}

/// A composable aggregate (§3.2) as a commutative-semiring fold: the
/// algebra of one function, and nothing about the walk ([`fold_union`]).
trait Fold {
    /// The running value: a sum, the best value so far, a list.
    type Acc: Clone;
    /// The value of no input.
    const ZERO: Self::Acc;
    /// Whether multiplicities change the value. `min`/`max`/`exists`/
    /// `forall` do not: no tuple is counted for them, so a partial
    /// without a count component stays readable.
    const SCALES: bool;
    /// Whether the factors beside the provider scale the value one at a
    /// time (`sum`, whose float products round per factor) rather than
    /// by their product.
    const PER_FACTOR: bool = false;
    /// Adds the term of one more entry.
    fn combine(&self, acc: Self::Acc, term: Self::Acc) -> Self::Acc;
    /// The value of `mult` copies of the tuples behind `acc`; `mult = 1`
    /// leaves every fold's value as it is.
    fn scale(&self, acc: Self::Acc, _mult: i64) -> Self::Acc {
        acc
    }
    /// `combine(acc, scale(term, mult))` with `term` borrowed: the group
    /// fold adds one context value to every group below it, most often
    /// unscaled.
    fn combine_scaled(&self, acc: Self::Acc, term: &Self::Acc, mult: i64) -> Self::Acc {
        match mult {
            1 => self.combine(acc, term.clone()),
            _ => self.combine(acc, self.scale(term.clone(), mult)),
        }
    }
    /// The term of one atomic value.
    fn atom(&self, v: &Value) -> Result<Self::Acc>;
    /// The term of a partial-aggregate component computing the function.
    fn partial(&self, v: &Value) -> Result<Self::Acc> {
        self.atom(v)
    }
    /// The entries at positions `run` of a providing union at once where
    /// its shape has a fast path (`None` walks them): a slice scan of a
    /// contiguous value buffer ([`UnionRef::contiguous_values`]), a sorted
    /// end. Each is bit-identical to the walk — integer adds wrap, so the
    /// loop shape is free to change — and any other buffer falls back to
    /// it. The walk passes the whole union, a mask each passing run.
    fn leaf(
        &self,
        _ftree: &FTree,
        _u: UnionRef<'_>,
        _run: Range<usize>,
    ) -> Result<Option<Self::Acc>> {
        Ok(None)
    }
    /// The function's value.
    fn finish(&self, acc: Self::Acc) -> Result<Value>;
}

/// The one walk behind every composable aggregate: `f` (computing `op`)
/// over the relation represented by union `u`, down `op`'s providing
/// spine, read through `m`. At its end each entry's value (or partial
/// component) is scaled by the entry's children; above it, by the entry's
/// own multiplicity and its children off the spine. Terms combine in
/// entry order over the passing entries that keep a tuple; `None` when
/// none does. The siblings of a NULL value are never counted: every fold
/// that scales skips NULL inputs, and no multiplicity changes its
/// identity.
fn fold_union<F: Fold, M: Sieve>(
    f: &F,
    ftree: &FTree,
    op: &AggOp,
    u: UnionRef<'_>,
    spine: &[usize],
    m: &mut M,
) -> Result<Option<F::Acc>> {
    if M::MASKS && !m.touches(u.node()) {
        return fold_union(f, ftree, op, u, spine, &mut NoMask);
    }
    let node = ftree.node(u.node());
    let (label, kids) = (&node.label, &node.children[..]);
    m.with_runs(u, |m, runs| {
        let mut acc = F::ZERO;
        let mut kept = false;
        let Some((&j, rest)) = spine.split_first() else {
            // With no child touched every passing entry keeps its
            // tuples: the leaf fast path over each run, or the walk when
            // one has none.
            if !kids.iter().any(|&c| m.touches(c)) {
                if let Some(acc) = leaf_runs(f, ftree, u, runs.clone(), m)? {
                    return Ok(acc);
                }
            }
            for r in runs {
                for e in u.entries_in(m.run(u, r)) {
                    let v = match label {
                        NodeLabel::Atomic(_) => e.value(),
                        NodeLabel::Agg(l) => component(l, e.value(), l.component_of(op).unwrap()),
                    };
                    let mult = if F::SCALES && !v.is_null() {
                        count_product(ftree, e.children(), None, 1, m)?
                    } else {
                        i64::from(kids_alive(ftree, kids, e, None, m))
                    };
                    if M::MASKS && mult == 0 {
                        continue;
                    }
                    let term = match label {
                        NodeLabel::Atomic(_) => f.atom(v)?,
                        NodeLabel::Agg(_) => f.partial(v)?,
                    };
                    acc = f.combine(acc, f.scale(term, mult));
                    kept = true;
                }
            }
            return Ok(kept.then_some(acc));
        };
        for r in runs {
            for e in u.entries_in(m.run(u, r)) {
                let mult = if F::SCALES {
                    let own = entry_multiplicity(label, e.value())?;
                    count_product(ftree, e.children(), Some(j), own, m)?
                } else {
                    i64::from(kids_alive(ftree, kids, e, Some(j), m))
                };
                if M::MASKS && mult == 0 {
                    continue;
                }
                if let Some(term) = fold_union(f, ftree, op, e.child(j), rest, m)? {
                    acc = f.combine(acc, f.scale(term, mult));
                    kept = true;
                }
            }
        }
        Ok(kept.then_some(acc))
    })
}

/// [`Fold::leaf`] over the runs `runs` of `u` (indices for
/// [`Sieve::run`]), combined in order: `Some(None)` when there are none,
/// `None` when some run has no fast path. Inline, as [`Sum::leaf`] is:
/// a call per leaf union shows in the walk.
#[inline]
fn leaf_runs<F: Fold, M: Sieve>(
    f: &F,
    ftree: &FTree,
    u: UnionRef<'_>,
    runs: Range<usize>,
    m: &M,
) -> Result<Option<Option<F::Acc>>> {
    let mut acc = None;
    for r in runs {
        let Some(term) = f.leaf(ftree, u, m.run(u, r))? else {
            return Ok(None);
        };
        acc = Some(match acc {
            None => term,
            Some(acc) => f.combine(acc, term),
        });
    }
    Ok(Some(acc))
}

/// `sumA`: integers add wrapping, any float widens the sum.
struct Sum;

impl Fold for Sum {
    type Acc = Number;
    const ZERO: Number = Number::ZERO;
    const SCALES: bool = true;
    const PER_FACTOR: bool = true;
    fn combine(&self, acc: Number, term: Number) -> Number {
        acc.add(term)
    }
    fn scale(&self, acc: Number, mult: i64) -> Number {
        acc.mul(Number::Int(mult))
    }
    fn atom(&self, v: &Value) -> Result<Number> {
        v.as_number()
            .ok_or_else(|| FdbError::NonNumeric(format!("sum over non-numeric value {v}")))
    }
    #[inline]
    fn leaf(&self, ftree: &FTree, u: UnionRef<'_>, run: Range<usize>) -> Result<Option<Number>> {
        // No child cardinalities scale the values of a leaf.
        let vals = is_atomic_leaf(ftree, u).then(|| u.contiguous_values());
        let vals = vals.flatten().map(|v| &v[run]);
        Ok(vals.and_then(sum_int_slice).map(Number::Int))
    }
    fn finish(&self, acc: Number) -> Result<Value> {
        Ok(acc.into_value())
    }
}

/// `minA` (`true`) or `maxA`: the first of equal extremes wins.
struct Extremum(bool);

impl Fold for Extremum {
    type Acc = Option<Value>;
    const ZERO: Option<Value> = None;
    const SCALES: bool = false;
    fn combine(&self, best: Option<Value>, v: Option<Value>) -> Option<Value> {
        match (best, v) {
            (Some(b), Some(v)) if (self.0 && v < b) || (!self.0 && v > b) => Some(v),
            (Some(b), _) => Some(b),
            (None, v) => v,
        }
    }
    fn atom(&self, v: &Value) -> Result<Option<Value>> {
        Ok(Some(v.clone()))
    }
    fn leaf(
        &self,
        ftree: &FTree,
        u: UnionRef<'_>,
        run: Range<usize>,
    ) -> Result<Option<Option<Value>>> {
        Ok(match &ftree.node(u.node()).label {
            // Entries are sorted ascending: the extremum is at an end.
            NodeLabel::Atomic(_) => Some(match run.len() {
                0 => None,
                _ if self.0 => Some(u.entry(run.start).value().clone()),
                _ => Some(u.entry(run.end - 1).value().clone()),
            }),
            // Single-component aggregate unions expose the component as
            // the value itself (first-wins ties are moot — equal `Int`s
            // are identical values).
            NodeLabel::Agg(l) if l.arity() == 1 => {
                let best = u
                    .contiguous_values()
                    .and_then(|v| extremum_int_slice(&v[run], self.0));
                best.map(|b| Some(Value::Int(b)))
            }
            NodeLabel::Agg(_) => None,
        })
    }
    fn finish(&self, best: Option<Value>) -> Result<Value> {
        best.ok_or_else(|| FdbError::InvalidOperator("extremum of an empty union".into()))
    }
}

/// `productA`: the product of `A`'s non-NULL values under bag semantics,
/// NULL when every input is. Scaling exponentiates (`product^count`),
/// which for wrapping integers is congruent mod 2^64 with the flat
/// sequential product.
struct Product;

impl Fold for Product {
    type Acc = Option<Number>;
    const ZERO: Option<Number> = None;
    const SCALES: bool = true;
    fn combine(&self, acc: Option<Number>, term: Option<Number>) -> Option<Number> {
        match (acc, term) {
            (Some(a), Some(b)) => Some(a.mul(b)),
            (a, b) => a.or(b),
        }
    }
    fn scale(&self, acc: Option<Number>, mult: i64) -> Option<Number> {
        acc.map(|n| n.pow(mult.max(0) as u64))
    }
    fn atom(&self, v: &Value) -> Result<Option<Number>> {
        if v.is_null() {
            return Ok(None);
        }
        let n = v.as_number();
        n.map(Some)
            .ok_or_else(|| FdbError::NonNumeric(format!("product over non-numeric value {v}")))
    }
    fn finish(&self, acc: Option<Number>) -> Result<Value> {
        Ok(acc.map_or(Value::Null, Number::into_value))
    }
}

/// `existsA θ c` (`EXISTS = true`: OR from false) or `forallA θ c` (AND
/// from true) over the non-NULL values.
struct Quantifier<const EXISTS: bool>(CmpOp, i64);

impl<const EXISTS: bool> Fold for Quantifier<EXISTS> {
    type Acc = bool;
    const ZERO: bool = !EXISTS;
    const SCALES: bool = false;
    fn combine(&self, acc: bool, term: bool) -> bool {
        if EXISTS {
            acc || term
        } else {
            acc && term
        }
    }
    fn atom(&self, v: &Value) -> Result<bool> {
        // NULL inputs are skipped: they contribute the identity.
        Ok(if v.is_null() {
            Self::ZERO
        } else {
            self.0.eval(v.cmp(&Value::Int(self.1)))
        })
    }
    fn partial(&self, v: &Value) -> Result<bool> {
        // The component already holds the sub-result (0/1) for the
        // erased subtree.
        Ok(v.as_int().expect("boolean aggregate component is 0/1") != 0)
    }
    fn finish(&self, acc: bool) -> Result<Value> {
        Ok(Value::Int(acc as i64))
    }
}

/// `top_k(A, k)`: the `k` largest non-NULL values, descending, under bag
/// semantics — a value shared by `m` tuples occurs `min(m, k)` times.
/// Lists merge in entry order; a partial list left by an earlier `γ`
/// composes like `product`. Lists are sized by the values that arrive,
/// never by `k` alone, which comes from the query.
struct TopK(usize);

impl Fold for TopK {
    type Acc = Vec<Value>;
    const ZERO: Vec<Value> = Vec::new();
    const SCALES: bool = true;
    fn combine(&self, a: Vec<Value>, b: Vec<Value>) -> Vec<Value> {
        self.combine_scaled(a, &b, 1)
    }
    /// Merges the descending run `a` with `mult` copies of each value of
    /// the descending run `b`, in place, keeping at most `k`, `a`'s
    /// values first on ties. A first pass counts how many values each
    /// run gives; the second fills the list from its end, moving `a`'s
    /// values and cloning only the `b` values that are kept — none when
    /// `a` already holds `k` values no smaller than `b`'s largest.
    fn combine_scaled(&self, mut a: Vec<Value>, b: &Vec<Value>, mult: i64) -> Vec<Value> {
        // A full list keeps itself when `b`'s largest value ties or loses
        // with its smallest: one comparison, the common case of a group
        // met many times.
        if a.len() >= self.0 && b.first().is_none_or(|v| a.last().is_none_or(|l| v <= l)) {
            return a;
        }
        let m = mult.max(0) as usize;
        let lb = b.len().saturating_mul(m);
        let n = a.len().saturating_add(lb).min(self.0);
        let (mut i, mut j) = (0, 0);
        while i + j < n {
            if j < lb && (i == a.len() || b[j / m] > a[i]) {
                j += 1;
            } else {
                i += 1;
            }
        }
        a.truncate(i);
        if j == 0 {
            return a;
        }
        a.resize(n, Value::Null);
        let mut w = n;
        while j > 0 {
            w -= 1;
            let v = &b[(j - 1) / m];
            if i > 0 && a[i - 1] < *v {
                a.swap(i - 1, w);
                i -= 1;
            } else {
                a[w] = v.clone();
                j -= 1;
            }
        }
        a
    }
    /// Each value repeated `mult` times, cut at `k`: the top `k` of `mult`
    /// copies of the tuples, since `min(min(c,k)·m, k) = min(c·m, k)`.
    fn scale(&self, mut acc: Vec<Value>, mult: i64) -> Vec<Value> {
        if mult == 1 {
            acc.truncate(self.0);
            return acc;
        }
        self.combine_scaled(Vec::new(), &acc, mult)
    }
    fn atom(&self, v: &Value) -> Result<Vec<Value>> {
        Ok((!v.is_null()).then(|| v.clone()).into_iter().collect())
    }
    fn partial(&self, v: &Value) -> Result<Vec<Value>> {
        // NULL when the partial's tuples had no non-NULL value.
        Ok(match v {
            Value::Tup(vals) => vals.to_vec(),
            v => self.atom(v)?,
        })
    }
    fn leaf(
        &self,
        ftree: &FTree,
        u: UnionRef<'_>,
        run: Range<usize>,
    ) -> Result<Option<Vec<Value>>> {
        if !matches!(ftree.node(u.node()).label, NodeLabel::Atomic(_)) {
            return Ok(None);
        }
        // Entries are sorted ascending; walk them backwards so the
        // largest values fill the budget first; the reverse scan stops
        // after at most k distinct entries.
        let mut out = Vec::with_capacity(self.0.min(run.len()));
        for e in run.rev().map(|i| u.entry(i)) {
            if out.len() >= self.0 {
                break;
            }
            if !e.value().is_null() {
                let mult = count_product(ftree, e.children(), None, 1, &mut NoMask)?;
                let n = (mult.max(0) as usize).min(self.0 - out.len());
                out.extend(std::iter::repeat_n(e.value().clone(), n));
            }
        }
        Ok(Some(out))
    }
    fn finish(&self, acc: Vec<Value>) -> Result<Value> {
        Ok(if acc.is_empty() {
            Value::Null
        } else {
            Value::tup(acc)
        })
    }
}

/// `count`: the tuple count, `None` once it left `i64` (refused at
/// [`Fold::finish`]). It reads no attribute; in a group fold every tuple
/// counts one, whatever its group value.
struct Count;

impl Fold for Count {
    type Acc = Option<i64>;
    const ZERO: Option<i64> = Some(0);
    const SCALES: bool = true;
    fn combine(&self, acc: Option<i64>, term: Option<i64>) -> Option<i64> {
        acc?.checked_add(term?)
    }
    fn scale(&self, acc: Option<i64>, mult: i64) -> Option<i64> {
        acc?.checked_mul(mult)
    }
    fn atom(&self, _v: &Value) -> Result<Option<i64>> {
        Ok(Some(1))
    }
    fn partial(&self, v: &Value) -> Result<Option<i64>> {
        Ok(Some(v.as_int().expect("count component is integral")))
    }
    fn finish(&self, acc: Option<i64>) -> Result<Value> {
        checked(acc).map(Value::Int)
    }
}

/// One use of a composable function's fold, generic over the fold: its
/// evaluation over a product ([`FoldEval`]) or its group-fold table
/// ([`group_sink`]).
trait FoldUse {
    type Out;
    fn with<F: Fold + 'static>(self, f: F) -> Self::Out;
}

/// `u` applied to `op`'s fold — the one `AggOp → Fold` dispatch. Never
/// called for `count(distinct)`, which does not compose.
fn with_fold<U: FoldUse>(op: AggOp, u: U) -> U::Out {
    match op {
        AggOp::Count => u.with(Count),
        AggOp::Sum(_) => u.with(Sum),
        AggOp::Min(_) => u.with(Extremum(true)),
        AggOp::Max(_) => u.with(Extremum(false)),
        AggOp::Product(_) => u.with(Product),
        AggOp::Exists(_, c, r) => u.with(Quantifier::<true>(c, r)),
        AggOp::Forall(_, c, r) => u.with(Quantifier::<false>(c, r)),
        AggOp::TopK(_, k) => u.with(TopK(k)),
        AggOp::CountDistinct(_) => unreachable!("count(distinct) does not fold"),
    }
}

/// Where one function of a group fold reads its input, relative to the
/// root path to the group node (level 0 is the root).
enum Reader {
    /// `count`: the tuples alone, read at the group node.
    Rows,
    /// The root-path node at this level exposes the attribute, or holds a
    /// partial-aggregate component computing the function.
    Node(usize),
    /// Child `j` of the root-path node at `level`, off the path, provides
    /// it down `spine`.
    Child {
        level: usize,
        j: usize,
        spine: Vec<usize>,
    },
}

impl Reader {
    /// The first provider of `op` on `path`, top-down: a node on the path
    /// itself, else a child of it off the path.
    fn resolve(ftree: &FTree, path: &[NodeId], op: &AggOp) -> Result<Reader> {
        if op.attr().is_none() {
            return Ok(Reader::Rows);
        }
        for (level, &n) in path.iter().enumerate() {
            if node_provides(&ftree.node(n).label, op) {
                return Ok(Reader::Node(level));
            }
            let on_path = path.get(level + 1);
            let children = ftree.node(n).children.iter().copied().enumerate();
            let off_path = children.filter(|(_, c)| Some(c) != on_path);
            if let Some((j, spine, _)) = first_provider(ftree, off_path, op) {
                return Ok(Reader::Child { level, j, spine });
            }
        }
        Err(FdbError::InvalidComposition(format!(
            "no node provides {op:?}; a prior aggregate hid the attribute"
        )))
    }
}

/// One entry of a root-path union as every function of a group fold
/// sees it: its own multiplicity and its children's tuple counts are
/// computed on first request and shared by all functions.
struct Here<'a, 'b> {
    ftree: &'a FTree,
    label: &'a NodeLabel,
    e: EntryRef<'a>,
    /// The child on the path; `None` at the group node.
    path_child: Option<usize>,
    own: Option<i64>,
    /// Per child, its tuple count once computed.
    counts: &'b mut Vec<Option<i64>>,
}

impl Here<'_, '_> {
    /// The multiplicity of the entry's factors beside the path: its own
    /// (unless `own` is false — a partial already counts its tuples) times
    /// the tuple counts of its children off the path but `provider`.
    fn mult(&mut self, own: bool, provider: Option<usize>) -> Result<i64> {
        let mut mult = 1;
        if own {
            mult = match self.own {
                Some(m) => m,
                None => *self
                    .own
                    .insert(entry_multiplicity(self.label, self.e.value())?),
            };
        }
        for j in 0..self.e.child_count() {
            if Some(j) == self.path_child || Some(j) == provider {
                continue;
            }
            let n = match self.counts[j] {
                Some(n) => n,
                None => *self.counts[j].insert(count_union(self.ftree, self.e.child(j))?),
            };
            mult = checked(mult.checked_mul(n))?;
        }
        Ok(mult)
    }
}

/// A function's context below one root-path entry: the multiplicity of
/// the tuples above until its reader is passed, then their value, as an
/// index into [`Table::vals`] — an entry that scales it by one shares the
/// value above instead of cloning it.
#[derive(Clone, Copy)]
enum Ctx {
    Mult(i64),
    Value(usize),
}

/// What [`Table::below`] finds below one entry.
enum Below<A> {
    /// The multiplicity so far; the reader is further down.
    Mult(i64),
    /// The current context value, scaled by this multiplicity.
    Scaled(i64),
    /// A new value: the reader's term, scaled.
    Value(A),
}

/// One function of a group fold; the walk ([`GroupWalk`]) is shared.
trait GroupSink {
    /// Whether the function reads its input on `level`.
    fn reads_at(&self, level: usize) -> bool;
    /// Enters `at`, an entry of the root-path union on `level`.
    fn enter(&mut self, at: &mut Here<'_, '_>, level: usize) -> Result<()>;
    /// Leaves the entry entered last.
    fn leave(&mut self);
    /// Adds entries of an atomic leaf group node under the current
    /// context to the groups `gids` of `groups` (a new group's id is the
    /// number of groups so far).
    fn add_leaf(&mut self, gids: &[u32], groups: &GroupLevel) -> Result<()>;
    /// Adds the entries of `u`, a union of the group node on `level`, to
    /// the groups `gids` (one per entry, as in [`GroupSink::add_leaf`]).
    /// `counts` is scratch for [`Here::counts`].
    fn add(
        &mut self,
        ftree: &FTree,
        u: UnionRef<'_>,
        level: usize,
        gids: &[u32],
        counts: &mut Vec<Option<i64>>,
    ) -> Result<()>;
    /// The function's value per group, by group id.
    fn finish(&mut self) -> Result<Vec<Value>>;
}

/// The per-group accumulators of fold `f` (computing `op`) and its
/// context stack along the root path.
struct Table<F: Fold> {
    f: F,
    op: AggOp,
    reader: Reader,
    stack: Vec<Ctx>,
    /// The context values on the stack, bottom-up.
    vals: Vec<F::Acc>,
    groups: Vec<F::Acc>,
}

impl<F: Fold> Table<F> {
    /// Combines `mult` copies of `term` into group `gid` of `groups`, a
    /// new group when it is the number of groups so far.
    fn combine_into(f: &F, groups: &mut Vec<F::Acc>, gid: u32, term: &F::Acc, mult: i64) {
        let gid = gid as usize;
        if gid == groups.len() {
            groups.push(F::ZERO);
        }
        let acc = std::mem::replace(&mut groups[gid], F::ZERO);
        groups[gid] = f.combine_scaled(acc, term, mult);
    }

    /// The context below `at` on `level`. Before the reader, the
    /// multiplicity grows by the entry's; at it, the reader's term is
    /// scaled by the multiplicity of everything else so far; below it,
    /// the value is scaled by the entry's multiplicity. As in
    /// [`fold_union`], a NULL input is never scaled.
    fn below(&self, at: &mut Here<'_, '_>, level: usize) -> Result<Below<F::Acc>> {
        let f = &self.f;
        let m = match *self.stack.last().expect("the root context") {
            Ctx::Value(_) => {
                let mult = if F::SCALES { at.mult(true, None)? } else { 1 };
                return Ok(Below::Scaled(mult));
            }
            Ctx::Mult(m) => m,
        };
        let (term, own, provider, null) = match &self.reader {
            Reader::Node(l) if *l == level => {
                let v = at.e.value();
                match at.label {
                    NodeLabel::Atomic(_) => (f.atom(v)?, false, None, v.is_null()),
                    NodeLabel::Agg(l) => {
                        let v = component(l, v, l.component_of(&self.op).unwrap());
                        (f.partial(v)?, false, None, v.is_null())
                    }
                }
            }
            Reader::Child { level: l, j, spine } if *l == level => {
                let term = fold_union(f, at.ftree, &self.op, at.e.child(*j), spine, &mut NoMask)?;
                let term = term.unwrap_or(F::ZERO);
                (term, true, Some(*j), false)
            }
            Reader::Rows if at.path_child.is_none() => (f.atom(at.e.value())?, true, None, false),
            _ if F::SCALES => {
                return Ok(Below::Mult(checked(m.checked_mul(at.mult(true, None)?))?))
            }
            _ => return Ok(Below::Mult(1)),
        };
        let mut mult = 1;
        if F::SCALES && !null {
            mult = checked(m.checked_mul(at.mult(own, provider)?))?;
        }
        Ok(Below::Value(f.scale(term, mult)))
    }

    /// The index of the value on top of the stack.
    fn top(&self) -> usize {
        match self.stack.last() {
            Some(Ctx::Value(i)) => *i,
            _ => unreachable!("a value context"),
        }
    }
}

impl<F: Fold> GroupSink for Table<F> {
    fn reads_at(&self, level: usize) -> bool {
        match self.reader {
            Reader::Rows => false,
            Reader::Node(l) | Reader::Child { level: l, .. } => l == level,
        }
    }

    fn enter(&mut self, at: &mut Here<'_, '_>, level: usize) -> Result<()> {
        let ctx = match self.below(at, level)? {
            Below::Mult(m) => Ctx::Mult(m),
            Below::Scaled(1) => Ctx::Value(self.top()),
            Below::Scaled(mult) => {
                let v = self.f.scale(self.vals[self.top()].clone(), mult);
                self.vals.push(v);
                Ctx::Value(self.vals.len() - 1)
            }
            Below::Value(v) => {
                self.vals.push(v);
                Ctx::Value(self.vals.len() - 1)
            }
        };
        self.stack.push(ctx);
        Ok(())
    }

    fn leave(&mut self) {
        if let Some(Ctx::Value(i)) = self.stack.pop() {
            if !matches!(self.stack.last(), Some(Ctx::Value(j)) if *j == i) {
                self.vals.truncate(i);
            }
        }
    }

    fn add(
        &mut self,
        ftree: &FTree,
        u: UnionRef<'_>,
        level: usize,
        gids: &[u32],
        counts: &mut Vec<Option<i64>>,
    ) -> Result<()> {
        let node = ftree.node(u.node());
        let label = &node.label;
        // Read above, atomic leaves below: each entry scales the context
        // by its children's entry counts, with no `Here` to set up.
        let leaves = matches!(label, NodeLabel::Atomic(_))
            && node.children.iter().all(|&c| {
                let c = ftree.node(c);
                matches!(c.label, NodeLabel::Atomic(_)) && c.children.is_empty()
            });
        if let (true, Some(&Ctx::Value(i))) = (leaves, self.stack.last()) {
            for (e, &gid) in u.entries().zip(gids) {
                let mut mult = 1;
                if F::SCALES {
                    let mut lens = e.children().map(|c| c.len() as i64);
                    mult = checked(lens.try_fold(1i64, |m, n| m.checked_mul(n)))?;
                }
                Self::combine_into(&self.f, &mut self.groups, gid, &self.vals[i], mult);
            }
            return Ok(());
        }
        for (e, &gid) in u.entries().zip(gids) {
            counts.clear();
            counts.resize(e.child_count(), None);
            let mut at = Here {
                ftree,
                label,
                e,
                path_child: None,
                own: None,
                counts,
            };
            match self.below(&mut at, level)? {
                Below::Scaled(mult) => {
                    let top = self.top();
                    Self::combine_into(&self.f, &mut self.groups, gid, &self.vals[top], mult);
                }
                Below::Value(term) => Self::combine_into(&self.f, &mut self.groups, gid, &term, 1),
                Below::Mult(_) => unreachable!("every reader is passed by the group node"),
            }
        }
        Ok(())
    }

    fn add_leaf(&mut self, gids: &[u32], groups: &GroupLevel) -> Result<()> {
        // An atomic leaf entry stands for one tuple and has no children:
        // nothing at it scales the context.
        let m = match *self.stack.last().expect("the root context") {
            Ctx::Value(i) => {
                for &gid in gids {
                    Self::combine_into(&self.f, &mut self.groups, gid, &self.vals[i], 1);
                }
                return Ok(());
            }
            Ctx::Mult(m) => m,
        };
        // The reader is the group node: its value, or (`count`) its row.
        for &gid in gids {
            let v = groups.value(gid);
            let term = self.f.atom(v)?;
            let null = !matches!(self.reader, Reader::Rows) && v.is_null();
            let mult = if F::SCALES && !null { m } else { 1 };
            Self::combine_into(&self.f, &mut self.groups, gid, &term, mult);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Value>> {
        std::mem::take(&mut self.groups)
            .into_iter()
            .map(|acc| self.f.finish(acc))
            .collect()
    }
}

/// The sink of one function of a group fold on `path`, whose deepest
/// group node has `entries` entries in its arena column.
fn group_sink(
    ftree: &FTree,
    path: &[NodeId],
    op: AggOp,
    entries: usize,
) -> Result<Box<dyn GroupSink>> {
    struct NewTable(AggOp, Reader);
    impl FoldUse for NewTable {
        type Out = Box<dyn GroupSink>;
        fn with<F: Fold + 'static>(self, f: F) -> Box<dyn GroupSink> {
            let NewTable(op, reader) = self;
            Box::new(Table {
                f,
                op,
                reader,
                stack: vec![Ctx::Mult(1)],
                vals: Vec::new(),
                groups: Vec::new(),
            })
        }
    }
    let reader = Reader::resolve(ftree, path, &op)?;
    if !op.needs_raw_input() {
        return Ok(with_fold(op, NewTable(op, reader)));
    }
    // The node that provides the attribute, at the end of the reader.
    let provider = match &reader {
        Reader::Node(l) => path[*l],
        Reader::Child { level, j, spine } => {
            let c = ftree.node(path[*level]).children[*j];
            spine.iter().fold(c, |n, &k| ftree.node(n).children[k])
        }
        Reader::Rows => unreachable!("count(distinct) reads an attribute"),
    };
    if matches!(ftree.node(provider).label, NodeLabel::Agg(_)) {
        return Err(unrecoverable(&op));
    }
    Ok(Box::new(Distinct {
        reader,
        deepest: path.len() - 1,
        stack: Vec::new(),
        ids: ValueIds::new(),
        unions: Vec::new(),
        union_tokens: DenseIds::new(),
        starts: vec![0],
        list: Vec::new(),
        seen: Vec::new(),
        met: (Vec::new(), PairIds::new(direct_cap(entries))),
        pairs: (Vec::new(), PairIds::new(direct_cap(entries))),
        counts: Vec::new(),
    }))
}

/// Why `count(distinct)` cannot read an aggregate singleton: which
/// values occur is lost in a count.
fn unrecoverable(op: &AggOp) -> FdbError {
    FdbError::InvalidComposition(format!(
        "distinct values of {op:?} are unrecoverable from an aggregate singleton"
    ))
}

/// `count(distinct a)` of a group fold: which values of `a` each group's
/// tuples hold, never how often. Each context below the reader carries a
/// token — its providing union (a child reader) or its value (a node on
/// the path) — whose distinct non-NULL value ids are listed once, on
/// first sight. A group takes a token's list the first time it meets the
/// token, and counts each `(group, value id)` pair once: below a shared
/// providing union, most of the group entries cost one pair lookup.
struct Distinct {
    reader: Reader,
    /// The root-path level of the group node the fold's groups are of.
    deepest: usize,
    /// Per entered root-path entry, its context's token; `None` above
    /// the reader.
    stack: Vec<Option<u32>>,
    /// Ids of the attribute's values, in the providing node's column.
    ids: ValueIds,
    /// A child reader's providing unions, by the order their tokens were
    /// given, and the table giving them.
    unions: Vec<u32>,
    union_tokens: DenseIds,
    /// Per token, its value ids: `list[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    list: Vec<u32>,
    /// Per value id, the last token whose list took it.
    seen: Vec<u32>,
    /// The `(group, token)` pairs met, and the `(group, value id)` pairs
    /// counted, each with its table.
    met: (Vec<(u32, u32)>, PairIds),
    pairs: (Vec<(u32, u32)>, PairIds),
    /// Per group, its distinct values.
    counts: Vec<i64>,
}

impl Distinct {
    /// The token of a node reader's value `col[val]`: its value id.
    fn value_token(&mut self, col: &Col<'_>, val: u32) -> u32 {
        let vid = self.ids.intern(col, val);
        if vid as usize + 1 == self.starts.len() {
            if !col.get(val).is_null() {
                self.list.push(vid);
            }
            self.starts.push(self.list.len() as u32);
        }
        vid
    }

    /// The token of providing union `u`; a new one lists the distinct
    /// non-NULL values down the spine.
    fn union_token(&mut self, u: UnionRef<'_>) -> u32 {
        self.unions.push(u.id().0);
        let last = self.unions.len() as u32 - 1;
        let token = self.union_tokens.intern(self.unions.as_slice(), last);
        if token != last {
            self.unions.pop();
            return token;
        }
        let Distinct {
            reader: Reader::Child { spine, .. },
            ids,
            seen,
            list,
            ..
        } = self
        else {
            unreachable!("a child reader's token");
        };
        let mut unions = vec![u];
        for &j in spine.iter() {
            let below = unions
                .iter()
                .flat_map(|u| u.entries().map(move |e| e.child(j)));
            unions = below.collect();
        }
        for u in unions {
            let (col, vals) = u.value_indices();
            for val in vals.filter(|&val| !col.get(val).is_null()) {
                let vid = ids.intern(&col, val) as usize;
                if vid >= seen.len() {
                    seen.resize(vid + 1, u32::MAX);
                }
                if seen[vid] != token {
                    seen[vid] = token;
                    list.push(vid as u32);
                }
            }
        }
        self.starts.push(self.list.len() as u32);
        token
    }

    /// The token below `e` on `level` when the reader is there; `None`
    /// when it reads elsewhere or at the group node itself.
    fn token_at(&mut self, e: EntryRef<'_>, level: usize) -> Option<u32> {
        match self.reader {
            Reader::Node(l) if l == level && l != self.deepest => {
                let (col, val) = e.value_index();
                Some(self.value_token(&col, val))
            }
            Reader::Child { level: l, j, .. } if l == level => Some(self.union_token(e.child(j))),
            _ => None,
        }
    }

    /// Group `gid`'s count, made for a new group.
    fn count(&mut self, gid: u32) -> &mut i64 {
        let gid = gid as usize;
        if gid >= self.counts.len() {
            self.counts.resize(gid + 1, 0);
        }
        &mut self.counts[gid]
    }

    /// Adds the values of `token` that group `gid` lacks to it, the
    /// first time the group meets the token.
    fn credit(&mut self, gid: u32, token: u32) {
        let mut added = 0;
        let (keys, met) = &mut self.met;
        let n = keys.len();
        if met.intern(keys, (gid, token)) as usize == n {
            let (from, to) = (self.starts[token as usize], self.starts[token as usize + 1]);
            let (keys, pairs) = &mut self.pairs;
            for &vid in &self.list[from as usize..to as usize] {
                let n = keys.len();
                added += i64::from(pairs.intern(keys, (gid, vid)) as usize == n);
            }
        }
        *self.count(gid) += added;
    }
}

impl GroupSink for Distinct {
    fn reads_at(&self, level: usize) -> bool {
        match self.reader {
            Reader::Rows => false,
            Reader::Node(l) | Reader::Child { level: l, .. } => l == level,
        }
    }

    fn enter(&mut self, at: &mut Here<'_, '_>, level: usize) -> Result<()> {
        let token = match self.stack.last() {
            Some(&Some(t)) => Some(t),
            _ => self.token_at(at.e, level),
        };
        self.stack.push(token);
        Ok(())
    }

    fn leave(&mut self) {
        self.stack.pop();
    }

    fn add(
        &mut self,
        _ftree: &FTree,
        u: UnionRef<'_>,
        level: usize,
        gids: &[u32],
        _counts: &mut Vec<Option<i64>>,
    ) -> Result<()> {
        let above = self.stack.last().copied().flatten();
        for (e, &gid) in u.entries().zip(gids) {
            match above.or_else(|| self.token_at(e, level)) {
                Some(token) => self.credit(gid, token),
                // The group node itself: one value per group.
                None => *self.count(gid) = i64::from(!e.value().is_null()),
            }
        }
        Ok(())
    }

    fn add_leaf(&mut self, gids: &[u32], groups: &GroupLevel) -> Result<()> {
        match self.stack.last().copied().flatten() {
            Some(token) => gids.iter().for_each(|&gid| self.credit(gid, token)),
            None => {
                for &gid in gids {
                    *self.count(gid) = i64::from(!groups.value(gid).is_null());
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Value>> {
        Ok(std::mem::take(&mut self.counts)
            .into_iter()
            .map(Value::Int)
            .collect())
    }
}

/// The groups of one group node in a group fold.
struct GroupLevel {
    /// Per group, its key: its enclosing group (on the group node above
    /// it on the path, `0` for the topmost) and the id of its value.
    keys: Vec<(u32, u32)>,
    ids: GroupIds,
}

/// How a group node finds the id of an entry's group.
enum GroupIds {
    /// Every node above is a group node: each entry is a group of its
    /// own, met once, and its id is the next number; so is its value's,
    /// and the values are kept by group.
    Next(Vec<Value>),
    /// The topmost group node, under a node outside the set: the value
    /// alone is the key, so a group's id is its value's.
    Value(ValueIds),
    /// Under another group node and a node outside the set: the
    /// `(enclosing group, value id)` key is interned.
    Pair(ValueIds, PairIds),
}

impl GroupLevel {
    /// The groups of a group node with `entries` entries in its arena
    /// column: each entry a group of its own when every node above is a
    /// group node (`next`), else keyed by the value alone on the topmost
    /// group node and by `(enclosing group, value id)` below it.
    fn new(entries: usize, next: bool, topmost: bool) -> GroupLevel {
        let ids = match (next, topmost) {
            (true, _) => GroupIds::Next(Vec::new()),
            (false, true) => GroupIds::Value(ValueIds::new()),
            (false, false) => GroupIds::Pair(ValueIds::new(), PairIds::new(direct_cap(entries))),
        };
        GroupLevel {
            keys: Vec::new(),
            ids,
        }
    }

    /// The value of group `gid`.
    fn value(&self, gid: u32) -> &Value {
        match &self.ids {
            GroupIds::Next(vals) => &vals[gid as usize],
            GroupIds::Value(ids) | GroupIds::Pair(ids, _) => ids.value(self.keys[gid as usize].1),
        }
    }

    /// The id of the group of value `col[val]` inside group `parent`.
    #[inline(always)]
    fn id(&mut self, parent: u32, col: &Col<'_>, val: u32) -> u32 {
        match &mut self.ids {
            GroupIds::Next(vals) => {
                let gid = vals.len() as u32;
                vals.push(col.get(val).clone());
                self.keys.push((parent, gid));
                gid
            }
            GroupIds::Value(ids) => {
                let gid = ids.intern(col, val);
                if gid as usize == self.keys.len() {
                    self.keys.push((parent, gid));
                }
                gid
            }
            GroupIds::Pair(ids, pairs) => {
                let vid = ids.intern(col, val);
                pairs.intern(&mut self.keys, (parent, vid))
            }
        }
    }

    /// [`GroupLevel::id`] of each of `vals`, appended to `gids`: the
    /// topmost interned node (every single-node fold below the root)
    /// loops over its table alone.
    fn ids(
        &mut self,
        parent: u32,
        col: &Col<'_>,
        vals: impl Iterator<Item = u32>,
        gids: &mut Vec<u32>,
    ) {
        if let GroupIds::Value(ids) = &mut self.ids {
            for val in vals {
                let gid = ids.intern(col, val);
                if gid as usize == self.keys.len() {
                    self.keys.push((parent, gid));
                }
                gids.push(gid);
            }
            return;
        }
        for val in vals {
            gids.push(self.id(parent, col, val));
        }
    }
}

/// The shared top-down walk of a group fold.
struct GroupWalk<'a> {
    ftree: &'a FTree,
    /// Per root-path level but the last, the child position of the path.
    path: Vec<usize>,
    /// Per root-path level but the last, whether every context passes it
    /// unchanged: an atomic node whose only child is on the path and
    /// where no function reads.
    quiet: Vec<bool>,
    /// Whether the deepest group node is an atomic leaf: then the
    /// functions see its entries as group ids alone, in one batch per
    /// context.
    leaf: bool,
    sinks: Vec<Box<dyn GroupSink>>,
    /// Per root-path level, the index of its group node in `groups`.
    group_at: Vec<Option<usize>>,
    /// The group nodes' groups, top-down; the last one's are the fold's.
    groups: Vec<GroupLevel>,
    /// Per group node, the group enclosing its entries: `0` for the
    /// topmost, else the group of the entry being walked on the group
    /// node above.
    enclosing: Vec<u32>,
    /// Ids of the deepest group node's entries not yet added.
    gids: Vec<u32>,
    /// Scratch for [`Here::counts`].
    counts: Vec<Option<i64>>,
    /// The root union's entries walked: all of them, or a page's
    /// ([`FoldWindow`]; the root is then not the deepest group node).
    top: Range<usize>,
}

impl<'a> GroupWalk<'a> {
    fn walk(&mut self, u: UnionRef<'a>, level: usize) -> Result<()> {
        let Some(&j) = self.path.get(level) else {
            // The deepest node: the last group node.
            let g = self.groups.len() - 1;
            let (col, vals) = u.value_indices();
            self.groups[g].ids(self.enclosing[g], &col, vals, &mut self.gids);
            if !self.leaf {
                for s in &mut self.sinks {
                    s.add(self.ftree, u, level, &self.gids, &mut self.counts)?;
                }
                self.gids.clear();
            }
            return Ok(());
        };
        // Above the deepest group node: the root's window, or every entry.
        let run = if level == 0 {
            self.top.clone()
        } else {
            0..u.len()
        };
        let group = self.group_at[level];
        if self.quiet[level] {
            for e in u.entries_in(run) {
                if let Some(g) = group {
                    self.enter_group(g, e);
                }
                self.walk(e.child(j), level + 1)?;
            }
            return Ok(());
        }
        let label = &self.ftree.node(u.node()).label;
        for e in u.entries_in(run) {
            if let Some(g) = group {
                self.enter_group(g, e);
            }
            self.counts.clear();
            self.counts.resize(e.child_count(), None);
            let mut at = Here {
                ftree: self.ftree,
                label,
                e,
                path_child: Some(j),
                own: None,
                counts: &mut self.counts,
            };
            for s in &mut self.sinks {
                s.enter(&mut at, level)?;
            }
            self.walk(e.child(j), level + 1)?;
            self.flush()?;
            for s in &mut self.sinks {
                s.leave();
            }
        }
        Ok(())
    }

    /// Enters entry `e` of group node `g`: its group becomes current.
    #[inline(always)]
    fn enter_group(&mut self, g: usize, e: EntryRef<'_>) {
        let (col, val) = e.value_index();
        self.enclosing[g + 1] = self.groups[g].id(self.enclosing[g], &col, val);
    }

    /// Adds the leaf group entries gathered under the current context.
    fn flush(&mut self) -> Result<()> {
        if self.leaf && !self.gids.is_empty() {
            let groups = self.groups.last().expect("a group node");
            for s in &mut self.sinks {
                s.add_leaf(&self.gids, groups)?;
            }
            self.gids.clear();
        }
        Ok(())
    }
}

/// The groups of a group fold ([`fold_groups`]) as a chain: one level
/// per group node, in the order the nodes were given, each in ascending
/// key order.
pub(crate) struct FoldedGroups {
    /// Per level, top-down: each group's enclosing group, as its index on
    /// the level above (non-decreasing; `0` on the top level), and each
    /// group's value. A group stands for the tuple of values up the
    /// chain.
    pub(crate) levels: Vec<(Vec<u32>, Vec<Value>)>,
    /// Per group of the last level, the functions' value: a `Tup` for
    /// several functions ([`eval_funcs`]).
    pub(crate) values: Vec<Value>,
}

/// What a group fold read for a page
/// ([`crate::ops::aggregate::group_fold_page`]): the root union's
/// entries `roots` of its `of`, and the number of the fold's groups that
/// come before them, which the folded groups start after.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldWindow {
    /// The root entries walked, by position.
    pub roots: Range<usize>,
    /// The root union's length.
    pub of: usize,
    /// The groups under the root entries before `roots`.
    pub skipped: usize,
}

/// The window of the groups `page` (positions in the fold's group order)
/// over a fold whose group nodes are the first nodes of the root path,
/// in path order, the deepest reached from the root down the child
/// positions `path` (at least one): each root entry holds the next run
/// of groups, one per entry of the deepest group node below it, so the
/// root entries whose runs end at or before the page's start are
/// skipped and the walk stops after the one that reaches its end.
fn fold_window(root: UnionRef<'_>, path: &[usize], page: Range<usize>) -> FoldWindow {
    fn groups_below(u: UnionRef<'_>, path: &[usize]) -> usize {
        match path.split_first() {
            None => u.len(),
            Some((&j, rest)) => u.entries().map(|e| groups_below(e.child(j), rest)).sum(),
        }
    }
    let groups_in = |i: usize| groups_below(root.entry(i).child(path[0]), &path[1..]);
    let of = root.len();
    let (mut first, mut skipped) = (0, 0);
    while first < of {
        let n = groups_in(first);
        if skipped + n > page.start {
            break;
        }
        skipped += n;
        first += 1;
    }
    let (mut end, mut reached) = (first, skipped);
    while end < of && reached < page.end {
        reached += groups_in(end);
        end += 1;
    }
    FoldWindow {
        roots: first..end,
        of,
        skipped,
    }
}

/// `γ_funcs` grouped by the atomic nodes `groups`, which lie on one root
/// path, over the relation represented by `root` (the union of the
/// tree's only root), as a chain of the group nodes in the given order.
///
/// One walk down the root path to the deepest group node serves every
/// function. Each carries a context down the path: the multiplicity of
/// the tuples so far, until it meets its provider — a node on the path,
/// whose value it reads, or a child off the path, which [`fold_union`]
/// folds — and from then on the accumulated value, scaled by each entry's
/// multiplicity beside the path. At the deepest group node each entry's
/// term combines into the table slot of its group, whose key is the tuple
/// of group values along the path. When the group nodes are a prefix of
/// the path, each group is met exactly once, in path key order, so its id
/// is the next number and, when `groups` keeps the path order, the walk's
/// groups are the chain; otherwise each group node interns `(enclosing
/// group, value)` into a table and the groups are sorted at the end.
/// Multiplicities are checked like everywhere else in this module.
///
/// With `page` (positions in the chain's group order, the end saturated
/// for a page without a limit) and group nodes that are the first two or
/// more nodes of the root path, in path order, the walk reads only the
/// root entries whose groups overlap the page, and returns which
/// ([`FoldWindow`]): the groups folded are the chain's from the window's
/// `skipped` on. An error in a group outside the window (an overflowing
/// multiplicity, a `sum` over a `NULL` partial) is then never met. Any
/// other chain folds every group, the root alone too (greedy keeps its
/// `γ` plan).
pub(crate) fn fold_groups(
    ftree: &FTree,
    root: UnionRef<'_>,
    groups: &[NodeId],
    funcs: &[AggOp],
    page: Option<Range<usize>>,
) -> Result<(FoldedGroups, Option<FoldWindow>)> {
    let deepest = groups.iter().copied().max_by_key(|&g| ftree.depth(g));
    let nodes = ftree.root_path(deepest.expect("at least one group node"));
    let path: Vec<usize> = nodes[1..]
        .iter()
        .map(|&n| ftree.child_position(n))
        .collect();
    let window = page
        .filter(|_| groups == nodes && !path.is_empty())
        .map(|page| fold_window(root, &path, page));
    let sinks: Vec<Box<dyn GroupSink>> = funcs
        .iter()
        .map(|&op| group_sink(ftree, &nodes, op, root.column_len(nodes[nodes.len() - 1])))
        .collect::<Result<_>>()?;
    let quiet = (0..nodes.len() - 1)
        .map(|level| {
            let node = ftree.node(nodes[level]);
            matches!(node.label, NodeLabel::Atomic(_))
                && node.children.len() == 1
                && sinks.iter().all(|s| !s.reads_at(level))
        })
        .collect();
    // The group nodes in path order, and where each sits on the path.
    let levels: Vec<usize> = (0..nodes.len())
        .filter(|&l| groups.contains(&nodes[l]))
        .collect();
    let mut group_at = vec![None; nodes.len()];
    for (g, &l) in levels.iter().enumerate() {
        group_at[l] = Some(g);
    }
    let mut walk = GroupWalk {
        ftree,
        path,
        quiet,
        leaf: ftree.node(nodes[nodes.len() - 1]).children.is_empty(),
        sinks,
        group_at,
        groups: levels
            .iter()
            .enumerate()
            .map(|(g, &l)| GroupLevel::new(root.column_len(nodes[l]), l == g, g == 0))
            .collect(),
        enclosing: vec![0; levels.len() + 1],
        gids: Vec::new(),
        counts: Vec::new(),
        top: window.as_ref().map_or(0..root.len(), |w| w.roots.clone()),
    };
    walk.walk(root, 0)?;
    walk.flush()?;
    let mut cols = walk
        .sinks
        .iter_mut()
        .map(|s| s.finish())
        .collect::<Result<Vec<_>>>()?;
    let values = match cols.len() {
        1 => cols.pop().expect("one function, one column"),
        _ => (0..cols[0].len())
            .map(|gid| {
                let vals = cols
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[gid], Value::Null));
                Value::tup(vals.collect::<Vec<_>>())
            })
            .collect(),
    };
    // The path-order index of each group node, in chain order.
    let chain: Vec<usize> = groups
        .iter()
        .map(|g| {
            let on_path = levels.iter().position(|&l| nodes[l] == *g);
            on_path.expect("every group node lies on the deepest one's root path")
        })
        .collect();
    Ok((chain_groups(walk.groups, &chain, values), window))
}

/// The walk's groups (`levels`, top-down on the path, the last level's
/// ids indexing `values`) as the chain that visits the group nodes in
/// the order `chain` (of indices into `levels`). The walk's own groups
/// when each was met once in path order and the chain keeps it;
/// otherwise sorted by their keys in chain order: a stable counting sort
/// per chain level, last level first, by the rank of the value, skipping
/// a level the order already follows. A level's ranks come from its
/// value ids ([`ValueIds::ascending`]); a level whose groups were each
/// met once gives its values ids in one pass first.
fn chain_groups(levels: Vec<GroupLevel>, chain: &[usize], mut values: Vec<Value>) -> FoldedGroups {
    if levels.iter().all(|l| matches!(l.ids, GroupIds::Next(_))) && chain.is_sorted() {
        let level = |l: GroupLevel| match l.ids {
            GroupIds::Next(vals) => (l.keys.into_iter().map(|(p, _)| p).collect(), vals),
            _ => unreachable!("every level is met once per group"),
        };
        return FoldedGroups {
            levels: levels.into_iter().map(level).collect(),
            values,
        };
    }
    // Per group node, each last-level group's rank of its value there,
    // and the distinct values by rank.
    let n = values.len();
    let mut ranked: Vec<(Vec<u32>, Vec<Value>)> = Vec::with_capacity(levels.len());
    let mut ancestor: Vec<u32> = (0..n as u32).collect();
    for GroupLevel { mut keys, ids } in levels.into_iter().rev() {
        let ids = match ids {
            GroupIds::Next(vals) => {
                let mut ids = ValueIds::new();
                for (gid, key) in keys.iter_mut().enumerate() {
                    key.1 = ids.intern(vals.as_slice(), gid as u32);
                }
                ids
            }
            GroupIds::Value(ids) | GroupIds::Pair(ids, _) => ids,
        };
        let ascending = ids.ascending();
        let mut rank = vec![0; ascending.len()];
        for (r, &id) in ascending.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let mut vals = ids.into_values();
        let distinct = ascending
            .iter()
            .map(|&id| std::mem::replace(&mut vals[id as usize], Value::Null))
            .collect();
        ranked.push((
            ancestor
                .iter()
                .map(|&a| rank[keys[a as usize].1 as usize])
                .collect(),
            distinct,
        ));
        for a in &mut ancestor {
            *a = keys[*a as usize].0;
        }
    }
    ranked.reverse();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for &g in chain.iter().rev() {
        let (rank, distinct) = &ranked[g];
        if order.is_sorted_by_key(|&gid| rank[gid as usize]) {
            continue;
        }
        let mut starts = vec![0; distinct.len() + 1];
        for &gid in &order {
            starts[rank[gid as usize] as usize + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut sorted = vec![0; n];
        for &gid in &order {
            let slot = &mut starts[rank[gid as usize] as usize];
            sorted[*slot] = gid;
            *slot += 1;
        }
        order = sorted;
    }
    // Each chain level: a new group wherever the key up to it changes.
    let mut out = Vec::with_capacity(chain.len());
    let mut changed = vec![false; n];
    // Per sorted group, the index of its group on the level above.
    let mut enclosing = vec![0u32; n];
    for &g in chain {
        let (rank, distinct) = &ranked[g];
        let (mut parents, mut vals) = (Vec::new(), Vec::new());
        let mut prev = u32::MAX;
        for (i, &gid) in order.iter().enumerate() {
            let r = rank[gid as usize];
            changed[i] |= i == 0 || r != prev;
            prev = r;
            if changed[i] {
                parents.push(enclosing[i]);
                vals.push(distinct[r as usize].clone());
            }
            enclosing[i] = vals.len() as u32 - 1;
        }
        out.push((parents, vals));
    }
    let values = order
        .iter()
        .map(|&gid| std::mem::replace(&mut values[gid as usize], Value::Null))
        .collect();
    FoldedGroups {
        levels: out,
        values,
    }
}

/// Interns into `ids` the distinct non-NULL values of the attribute at
/// the end of `spine` in the relation represented by `u`, read through
/// `m`: their number is `count(distinct A)`. Multiplicity-invariant, so
/// the walk only descends the spine: sibling subtrees never change which
/// values occur, unless the mask leaves one of them no tuple, which
/// drops the entry.
///
/// Every entry stands for at least one tuple (unions are never empty),
/// so the distinct values are those of the providing unions' (passing)
/// entries — a value is touched once per entry that mentions it, so the
/// walk runs in factorisation size.
fn intern_distinct<M: Sieve>(
    ftree: &FTree,
    u: UnionRef<'_>,
    spine: &[usize],
    ids: &mut DenseIds,
    m: &mut M,
) {
    if M::MASKS && !m.touches(u.node()) {
        return intern_distinct(ftree, u, spine, ids, &mut NoMask);
    }
    let kids = &ftree.node(u.node()).children;
    let j = spine.first().copied();
    m.with_runs(u, |m, runs| {
        for r in runs {
            for e in u.entries_in(m.run(u, r)) {
                if !kids_alive(ftree, kids, e, j, m) {
                    continue;
                }
                match j {
                    None => {
                        let (col, v) = e.value_index();
                        if !col.get(v).is_null() {
                            ids.intern(&col, v);
                        }
                    }
                    Some(j) => intern_distinct(ftree, e.child(j), &spine[1..], ids, m),
                }
            }
        }
    })
}

/// Evaluates one aggregation function over a *product* of sibling unions
/// (the expression an aggregation operator replaces, §3.2): compiles it
/// against the unions' nodes (`CompiledAgg`), then evaluates it once.
pub fn eval_op(ftree: &FTree, unions: &[UnionRef<'_>], op: &AggOp) -> Result<Value> {
    eval_funcs(ftree, unions, std::slice::from_ref(op))
}

/// Where a composable function reads its attribute.
enum Source<'a> {
    /// The factor at this position provides it, down this spine.
    Factor(usize, &'a [usize]),
    /// It is a group attribute holding this value.
    Group(&'a Value),
}

/// A composable `op` over the product of `unions`, read through the
/// sieve: its fold over the source, scaled by the tuple count of the
/// factors that do not provide.
struct FoldEval<'a, 'u, M>(
    &'a FTree,
    &'a [UnionRef<'u>],
    &'a AggOp,
    Source<'a>,
    &'a mut M,
);

impl<M: Sieve> FoldUse for FoldEval<'_, '_, M> {
    type Out = Result<Value>;
    fn with<F: Fold + 'static>(self, f: F) -> Result<Value> {
        let FoldEval(ftree, unions, op, src, m) = self;
        let acc = match src {
            Source::Group(v) if F::SCALES && !v.is_null() => {
                let term = f.atom(v)?;
                f.scale(
                    term,
                    count_product(ftree, unions.iter().copied(), None, 1, m)?,
                )
            }
            Source::Group(v) => f.atom(v)?,
            Source::Factor(j, spine) if F::PER_FACTOR => {
                let acc = fold_union(&f, ftree, op, unions[j], spine, m)?;
                let mut acc = acc.unwrap_or(F::ZERO);
                for (_, &u) in unions.iter().enumerate().filter(|&(k, _)| k != j) {
                    acc = f.scale(acc, count_in(ftree, u, m)?);
                }
                acc
            }
            Source::Factor(j, spine) => {
                let mut mult = 1;
                if F::SCALES {
                    mult = count_product(ftree, unions.iter().copied(), Some(j), 1, m)?;
                }
                let acc = fold_union(&f, ftree, op, unions[j], spine, m)?;
                f.scale(acc.unwrap_or(F::ZERO), mult)
            }
        };
        f.finish(acc)
    }
}

/// How one factor feeds a [`CompiledAgg`] without a walk, when it is the
/// shape an f-plan's `γ` leaves under a group node: a childless node whose
/// union is a plain value vector or a single partial-aggregate singleton.
/// A component is `None` for a single-function aggregate (the value
/// itself), else the index into its `Tup`.
#[derive(Clone, Copy, Debug)]
enum LeafRole {
    /// Atomic leaf: multiplies by its entry count.
    Rows,
    /// Partial-aggregate leaf: multiplies by its count component.
    Count(Option<usize>),
    /// Partial-aggregate leaf: supplies the function's own component.
    Supply(Option<usize>),
    /// Never read (extrema ignore the factors that only repeat tuples).
    Unread,
}

/// One aggregation function resolved once against the f-tree nodes of a
/// fixed list of factors, then evaluated over any number of products of
/// unions of those nodes: the one evaluator of a function over a product
/// of factors. `γ` compiles one per function per operator, the grouped
/// emitter one per function per result, and [`eval_op`] one per call.
///
/// For `count`/`sum`/`min`/`max` over partial-aggregate leaves resolution
/// also fixes the value components to read: such a product is evaluated
/// without recursion, in the arithmetic order of the walk, so the two
/// agree bit for bit. A leaf union that turns out not to hold exactly one
/// singleton, a count past `i64::MAX` or a non-numeric sum goes through
/// the walk, which reports every error.
#[derive(Clone, Debug)]
pub(crate) struct CompiledAgg {
    op: AggOp,
    /// The first factor whose subtree provides the attribute: `None` for
    /// `count`, which reads every factor, and when none does.
    provider: Option<usize>,
    /// The provider's spine, or why the function cannot be evaluated over
    /// these factors (no factor provides its attribute, or
    /// `count(distinct)` would combine aggregate singletons below a
    /// factor), reported by every evaluation that needs it.
    spine: Result<Vec<usize>>,
    /// Per factor; `None` when some factor needs the walk.
    leaves: Option<Vec<LeafRole>>,
    /// `count(distinct)`: how it reads its values.
    distinct: Option<DistinctRead>,
}

/// How a compiled `count(distinct)` reads the values it counts.
#[derive(Clone, Debug)]
enum DistinctRead {
    /// The values down the provider's spine, interned into one table
    /// cleared per evaluation.
    Walk(DenseIds),
    /// A group fold's final count: this component (`None`: the value
    /// itself) of the provider's one singleton. A union of several
    /// would re-aggregate counts across groups, and is refused.
    Final(Option<usize>),
}

impl CompiledAgg {
    pub(crate) fn new(ftree: &FTree, nodes: &[NodeId], op: AggOp) -> Self {
        let found = first_provider(ftree, nodes.iter().copied().enumerate(), &op);
        let provider = found.as_ref().map(|&(k, ..)| k);
        let component = |l: &AggLabel, i: usize| (l.arity() > 1).then_some(i);
        let mut distinct = None;
        let spine = match found {
            None => Err(FdbError::InvalidComposition(format!(
                "no factor provides {op:?}"
            ))),
            Some((_, spine, n)) if op.needs_raw_input() => match &ftree.node(n).label {
                NodeLabel::Atomic(_) => {
                    distinct = Some(DistinctRead::Walk(DenseIds::new()));
                    Ok(spine)
                }
                // A final count, read where it stands; below a factor it
                // would combine with others, which distinct values forbid.
                NodeLabel::Agg(l) if spine.is_empty() => {
                    let c = l.component_of(&op).expect("the provider computes it");
                    distinct = Some(DistinctRead::Final(component(l, c)));
                    Ok(spine)
                }
                NodeLabel::Agg(_) => Err(unrecoverable(&op)),
            },
            Some((_, spine, _)) => Ok(spine),
        };
        let role = |(k, &n): (usize, &NodeId)| -> Option<LeafRole> {
            let node = ftree.node(n);
            if !node.children.is_empty() {
                return None;
            }
            if provider == Some(k) {
                return match &node.label {
                    NodeLabel::Agg(l) => Some(LeafRole::Supply(component(l, l.component_of(&op)?))),
                    NodeLabel::Atomic(_) => None,
                };
            }
            match (&op, &node.label) {
                (AggOp::Min(_) | AggOp::Max(_), _) => Some(LeafRole::Unread),
                (_, NodeLabel::Atomic(_)) => Some(LeafRole::Rows),
                (_, NodeLabel::Agg(l)) => Some(LeafRole::Count(component(l, l.count_component()?))),
            }
        };
        let compilable = match op {
            AggOp::Count => true,
            AggOp::Sum(_) | AggOp::Min(_) | AggOp::Max(_) => provider.is_some(),
            _ => false,
        };
        let leaves = compilable
            .then(|| nodes.iter().enumerate().map(role).collect())
            .flatten();
        CompiledAgg {
            op,
            provider,
            spine,
            leaves,
            distinct,
        }
    }

    /// True when some factor provides the function's attribute; when none
    /// does, the attribute is a group attribute (or hidden by an earlier
    /// aggregate) and [`CompiledAgg::eval_on_group_value`] applies.
    pub(crate) fn provided(&self) -> bool {
        self.op.attr().is_none() || self.provider.is_some()
    }

    /// The function's value over the relation `{v} × unions` when its
    /// attribute is a group attribute holding `v` in the current group:
    /// the factors cannot provide it and only repeat `v` by their tuple
    /// count.
    pub(crate) fn eval_on_group_value(
        &self,
        ftree: &FTree,
        unions: &[UnionRef<'_>],
        v: &Value,
    ) -> Result<Value> {
        match self.op {
            AggOp::Count => {
                count_product(ftree, unions.iter().copied(), None, 1, &mut NoMask).map(Value::Int)
            }
            // NULL inputs are skipped.
            AggOp::CountDistinct(_) => Ok(Value::Int(!v.is_null() as i64)),
            _ => {
                let eval = FoldEval(ftree, unions, &self.op, Source::Group(v), &mut NoMask);
                with_fold(self.op, eval)
            }
        }
    }

    /// True when the value depends on factor `k`: every factor scales a
    /// multiplicity-sensitive function, the others read their provider
    /// alone. While none of the factors read changes, neither does the
    /// value.
    pub(crate) fn reads(&self, k: usize) -> bool {
        match self.op {
            AggOp::Count | AggOp::Sum(_) | AggOp::Product(_) | AggOp::TopK(..) => true,
            _ => self.provider.is_none_or(|j| j == k),
        }
    }

    /// The function's value over the product of `unions` (parallel to the
    /// nodes given to [`CompiledAgg::new`]), read through `m`. Every
    /// factor must keep a tuple under it ([`eval_compiled`]). Out of
    /// line: inlined into the emitter's per-row loop, which calls it once
    /// per group, it slows every row.
    #[inline(never)]
    pub(crate) fn eval<M: Sieve>(
        &mut self,
        ftree: &FTree,
        unions: &[UnionRef<'_>],
        m: &mut M,
    ) -> Result<Value> {
        // The leaves' fast path reads whole unions.
        if !unions.iter().any(|u| m.touches(u.node())) {
            if let Some(v) = self.eval_leaves(unions) {
                return Ok(v);
            }
        }
        if matches!(self.op, AggOp::Count) {
            return count_product(ftree, unions.iter().copied(), None, 1, m).map(Value::Int);
        }
        let spine = self.spine.as_ref().map_err(FdbError::clone)?;
        let j = self.provider.expect("a resolved spine has a provider");
        // Multiplicity-invariant: the non-providing factors only repeat
        // tuples, never change which values occur.
        match &mut self.distinct {
            Some(DistinctRead::Walk(ids)) => {
                ids.clear();
                intern_distinct(ftree, unions[j], spine, ids, m);
                Ok(Value::Int(ids.len() as i64))
            }
            Some(DistinctRead::Final(c)) => {
                let u = unions[j];
                if u.len() != 1 {
                    return Err(FdbError::InvalidComposition(format!(
                        "{:?} of {} groups does not combine",
                        self.op,
                        u.len()
                    )));
                }
                let v = u.entry(0).value();
                Ok(match *c {
                    None => v.clone(),
                    Some(i) => v.as_tup().expect("composite aggregate holds a Tup")[i].clone(),
                })
            }
            None => {
                let eval = FoldEval(ftree, unions, &self.op, Source::Factor(j, spine), m);
                with_fold(self.op, eval)
            }
        }
    }

    /// The non-recursive path; `None` hands over to the walk.
    fn eval_leaves(&self, unions: &[UnionRef<'_>]) -> Option<Value> {
        let leaves = self.leaves.as_ref()?;
        // The lone singleton of a partial-aggregate leaf, by component.
        let single = |k: usize, c: Option<usize>| -> Option<&Value> {
            let v = (unions[k].len() == 1).then(|| unions[k].entry(0).value())?;
            Some(match c {
                None => v,
                Some(i) => &v.as_tup().expect("composite aggregate holds a Tup")[i],
            })
        };
        // Cardinality of a factor that only multiplies.
        let card = |k: usize| -> Option<i64> {
            match leaves[k] {
                LeafRole::Rows => Some(unions[k].len() as i64),
                LeafRole::Count(c) => {
                    Some(single(k, c)?.as_int().expect("count component is integral"))
                }
                LeafRole::Supply(_) | LeafRole::Unread => {
                    unreachable!("only the provider supplies, only extrema skip factors")
                }
            }
        };
        if matches!(self.op, AggOp::Count) {
            let mut prod: i64 = 1;
            for k in 0..leaves.len() {
                prod = prod.checked_mul(card(k)?)?;
            }
            return Some(Value::Int(prod));
        }
        let j = self.provider?;
        let LeafRole::Supply(c) = leaves[j] else {
            unreachable!("the provider's role is to supply");
        };
        let v = single(j, c)?;
        match self.op {
            AggOp::Sum(_) => {
                // The walk over the one childless entry, then scaled
                // factor by factor.
                let mut total = Sum.combine(Sum::ZERO, Sum.scale(Sum.atom(v).ok()?, 1));
                for k in (0..leaves.len()).filter(|&k| k != j) {
                    total = Sum.scale(total, card(k)?);
                }
                Some(total.into_value())
            }
            AggOp::Min(_) | AggOp::Max(_) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Evaluates compiled functions `(F1,…,Fk)` over one product of unions
/// read through `m`: a scalar when `k = 1`, a `Tup` otherwise (§3.2.4);
/// `None` when some factor keeps no tuple under the mask, so the product
/// is empty and its entry goes.
pub(crate) fn eval_compiled<M: Sieve>(
    aggs: &mut [CompiledAgg],
    ftree: &FTree,
    unions: &[UnionRef<'_>],
    m: &mut M,
) -> Result<Option<Value>> {
    if unions
        .iter()
        .any(|&u| m.touches(u.node()) && !alive(ftree, u, m))
    {
        return Ok(None);
    }
    // γ calls this once per entry: one function allocates nothing.
    if let [a] = aggs {
        return a.eval(ftree, unions, m).map(Some);
    }
    let mut vals = Vec::with_capacity(aggs.len());
    for a in aggs {
        vals.push(a.eval(ftree, unions, m)?);
    }
    Ok(Some(Value::tup(vals)))
}

/// Evaluates a composite function `(F1,…,Fk)` over a product of unions,
/// returning a scalar when `k = 1` and a `Tup` otherwise (§3.2.4).
pub fn eval_funcs(ftree: &FTree, unions: &[UnionRef<'_>], funcs: &[AggOp]) -> Result<Value> {
    let nodes: Vec<NodeId> = unions.iter().map(|u| u.node()).collect();
    let mut aggs: Vec<CompiledAgg> = funcs
        .iter()
        .map(|&f| CompiledAgg::new(ftree, &nodes, f))
        .collect();
    let value = eval_compiled(&mut aggs, ftree, unions, &mut NoMask)?;
    Ok(value.expect("every entry passes without a mask"))
}

/// Derives the *partial* aggregation functions for `γ` over `targets` when
/// the query's final functions are `final_funcs` (Prop. 2): `sumA`
/// decomposes into `sumA` where `A` is available and `count` elsewhere;
/// `count` into `count`s; `min`/`max` into `min`/`max` where available and
/// `count` elsewhere (the counts are ignored by the final extremum but keep
/// the factorisation reducible). Duplicates are evaluated once (§3.2.4).
pub fn partial_funcs(ftree: &FTree, targets: &[NodeId], final_funcs: &[AggOp]) -> Vec<AggOp> {
    partials(final_funcs, |f| {
        targets.iter().any(|&t| subtree_provides(ftree, t, f))
    })
}

/// The partial functions of a group fold by `groups` ([`partial_funcs`]
/// over every node but the group nodes).
pub fn fold_funcs(ftree: &FTree, groups: &[NodeId], final_funcs: &[AggOp]) -> Vec<AggOp> {
    partials(final_funcs, |f| {
        let mut rest = ftree
            .live_nodes()
            .into_iter()
            .filter(|n| !groups.contains(n));
        rest.any(|n| node_provides(&ftree.node(n).label, f))
    })
}

/// Each final function where `available` holds, `count` elsewhere, once.
fn partials(final_funcs: &[AggOp], available: impl Fn(&AggOp) -> bool) -> Vec<AggOp> {
    let mut out: Vec<AggOp> = Vec::new();
    for f in final_funcs {
        // `count` reads no attribute: every subtree provides it.
        let partial = if available(f) { *f } else { AggOp::Count };
        if !out.contains(&partial) {
            out.push(partial);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frep::FRep;
    use fdb_relational::{AttrId, Catalog, CmpOp, Relation, Schema};

    /// The Items relation of Figure 1 as a path factorisation.
    fn items_rep() -> (Catalog, FRep) {
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
    fn count_over_trie() {
        let (_, rep) = items_rep();
        let n = count_union(rep.ftree(), rep.root(0)).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn sum_over_trie() {
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let s = eval_op(rep.ftree(), &[rep.root(0)], &AggOp::Sum(price)).unwrap();
        assert_eq!(s, Value::Int(10));
    }

    #[test]
    fn min_max_over_trie() {
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let mn = eval_op(rep.ftree(), &[rep.root(0)], &AggOp::Min(price)).unwrap();
        let mx = eval_op(rep.ftree(), &[rep.root(0)], &AggOp::Max(price)).unwrap();
        assert_eq!(mn, Value::Int(1));
        assert_eq!(mx, Value::Int(6));
    }

    #[test]
    fn product_distinct_boolean_topk_over_trie() {
        // Prices: 6, 1, 1, 2.
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let t = rep.ftree();
        let unions = [rep.root(0)];
        assert_eq!(
            eval_op(t, &unions, &AggOp::Product(price)).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::CountDistinct(price)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::Exists(price, CmpOp::Gt, 5)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::Exists(price, CmpOp::Gt, 6)).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::Forall(price, CmpOp::Le, 6)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::Forall(price, CmpOp::Lt, 6)).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_op(t, &unions, &AggOp::TopK(price, 3)).unwrap(),
            Value::tup(vec![Value::Int(6), Value::Int(2), Value::Int(1)])
        );
        // k larger than the relation: everything, still descending.
        assert_eq!(
            eval_op(t, &unions, &AggOp::TopK(price, 10)).unwrap(),
            Value::tup(vec![
                Value::Int(6),
                Value::Int(2),
                Value::Int(1),
                Value::Int(1)
            ])
        );
    }

    #[test]
    fn new_ops_exponentiate_over_products() {
        // (A ∪ A) × (B: 1,2,3): every B value occurs twice in the bag.
        let mut c = Catalog::new();
        let a = c.intern("A");
        let b = c.intern("B");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            (1..=2).flat_map(|x| (1..=3).map(move |y| vec![Value::Int(x), Value::Int(y)])),
        );
        let mut t = FTree::new();
        t.add_node(NodeLabel::Atomic(vec![a]), None);
        t.add_node(NodeLabel::Atomic(vec![b]), None);
        let rep = FRep::from_relation(&rel, t).unwrap();
        let unions: Vec<UnionRef<'_>> = rep.root_unions().collect();
        // product(B) = (1·2·3)^2 = 36 — pow by the A factor's count.
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Product(b)).unwrap(),
            Value::Int(36)
        );
        // count(distinct B) ignores the A factor entirely.
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::CountDistinct(b)).unwrap(),
            Value::Int(3)
        );
        // top_k(B, 4) repeats each value |A| = 2 times: 3,3,2,2.
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::TopK(b, 4)).unwrap(),
            Value::tup(vec![
                Value::Int(3),
                Value::Int(3),
                Value::Int(2),
                Value::Int(2)
            ])
        );
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Exists(b, CmpOp::Eq, 3)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Forall(b, CmpOp::Ne, 2)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn count_of_product_multiplies() {
        // (A ∪ A) × (B ∪ B ∪ B): 2 × 3 = 6 (Example 3's factorisation E2).
        let mut c = Catalog::new();
        let a = c.intern("A");
        let b = c.intern("B");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            (1..=2).flat_map(|x| (1..=3).map(move |y| vec![Value::Int(x), Value::Int(y)])),
        );
        let mut t = FTree::new();
        t.add_node(NodeLabel::Atomic(vec![a]), None);
        t.add_node(NodeLabel::Atomic(vec![b]), None);
        let rep = FRep::from_relation(&rel, t).unwrap();
        let unions: Vec<UnionRef<'_>> = rep.root_unions().collect();
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Count).unwrap(),
            Value::Int(6)
        );
        // Σ B over the product: (1+2+3) × |A| = 12.
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Sum(b)).unwrap(),
            Value::Int(12)
        );
        // min A ignores the B factor entirely.
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::Min(a)).unwrap(),
            Value::Int(1)
        );
    }

    /// Builds the Example 8 factorisation over T4 by hand:
    /// customer → pizza → {count(date), sum(price)(item,price)}.
    fn example8() -> (Catalog, FRep) {
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let customer = c.intern("customer");
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let item = c.intern("item");
        let price = c.intern("price");
        let cnt_out = c.intern("countdate");
        let sum_out = c.intern("sumprice");
        let mut t = FTree::new();
        let n_cust = t.add_node(NodeLabel::Atomic(vec![customer]), None);
        let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), Some(n_cust));
        let n_cnt = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Count],
                over: [date].into_iter().collect(),
                outputs: vec![cnt_out],
            }),
            Some(n_pizza),
        );
        let n_sum = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Sum(price)],
                over: [item, price].into_iter().collect(),
                outputs: vec![sum_out],
            }),
            Some(n_pizza),
        );
        let leaf = |node: NodeId, v: i64| Union {
            node,
            entries: vec![Entry {
                value: Value::Int(v),
                children: vec![],
            }],
        };
        let pizza_entry = |name: &str, cnt: i64, sum: i64| Entry {
            value: Value::str(name),
            children: vec![leaf(n_cnt, cnt), leaf(n_sum, sum)],
        };
        let cust_entry = |name: &str, pizzas: Vec<Entry>| Entry {
            value: Value::str(name),
            children: vec![Union {
                node: n_pizza,
                entries: pizzas,
            }],
        };
        let root = Union {
            node: n_cust,
            entries: vec![
                cust_entry("Lucia", vec![pizza_entry("Hawaii", 1, 9)]),
                cust_entry(
                    "Mario",
                    vec![
                        pizza_entry("Capricciosa", 2, 8),
                        pizza_entry("Margherita", 1, 6),
                    ],
                ),
                cust_entry("Pietro", vec![pizza_entry("Hawaii", 1, 9)]),
            ],
        };
        let rep = FRep::new(t, vec![root]).unwrap();
        (c, rep)
    }

    #[test]
    fn example8_sum_price_per_customer() {
        // γ_{sumprice(U)} with U the subtree rooted at pizza: Lucia 9,
        // Mario 2·8 + 1·6 = 22, Pietro 9 (the paper's Example 8).
        let (c, rep) = example8();
        let price = c.lookup("price").unwrap();
        let op = AggOp::Sum(price);
        let root = rep.root(0);
        let per_customer: Vec<(String, Value)> = root
            .entries()
            .map(|e| {
                let unions: Vec<UnionRef<'_>> = e.children().collect();
                (
                    e.value().as_str().unwrap().to_string(),
                    eval_op(rep.ftree(), &unions, &op).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            per_customer,
            vec![
                ("Lucia".to_string(), Value::Int(9)),
                ("Mario".to_string(), Value::Int(22)),
                ("Pietro".to_string(), Value::Int(9)),
            ]
        );
    }

    #[test]
    fn example6_count_reinterprets_aggregate_singletons() {
        // count over {Margherita×⟨count:1⟩ ∪ Capricciosa×⟨count:3⟩ ∪
        // Hawaii×⟨count:3⟩} must be 7, not 3 (Example 6).
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let item = c.intern("item");
        let cnt_out = c.intern("count(item)");
        let mut t = FTree::new();
        let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
        let n_cnt = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Count],
                over: [item].into_iter().collect(),
                outputs: vec![cnt_out],
            }),
            Some(n_pizza),
        );
        let entry = |name: &str, n: i64| Entry {
            value: Value::str(name),
            children: vec![Union {
                node: n_cnt,
                entries: vec![Entry {
                    value: Value::Int(n),
                    children: vec![],
                }],
            }],
        };
        let root = Union {
            node: n_pizza,
            entries: vec![
                entry("Capricciosa", 3),
                entry("Hawaii", 3),
                entry("Margherita", 1),
            ],
        };
        let rep = FRep::new(t.clone(), vec![root]).unwrap();
        assert_eq!(count_union(&t, rep.root(0)).unwrap(), 7);
    }

    #[test]
    fn count_over_sum_singleton_is_invalid() {
        let (c, rep) = example8();
        // Counting the subtree that contains the sum-only aggregate leaf
        // is fine here because the count(date) leaf provides multiplicity;
        // but counting the sum leaf alone must fail.
        let _ = c;
        let sum_leaf = rep.root(0).entry(0).child(0).entry(0).child(1);
        let err = count_union(rep.ftree(), sum_leaf);
        assert!(matches!(err, Err(FdbError::InvalidComposition(_))));
    }

    /// The partial components of [`partial_leaves_rep`]'s `x` leaves.
    fn partial_x_funcs(x: AttrId) -> [AggOp; 6] {
        [
            AggOp::Sum(x),
            AggOp::Count,
            AggOp::Min(x),
            AggOp::Max(x),
            AggOp::Product(x),
            AggOp::TopK(x, 2),
        ]
    }

    /// g → {⟨(sum x, count, min x, max x, product x, top_k(x, 2))⟩,
    /// ⟨count(y)⟩, z}: per group a composite partial-aggregate leaf, a
    /// count leaf and an atomic leaf — the shapes [`CompiledAgg`]
    /// evaluates without a walk — and the flat relation `(g, x, y, z)`
    /// they stand for. Each partial singleton is computed from its own
    /// list of `x` values, all dyadic so that float sums and products are
    /// exact in any order; the group's relation is those values × `ny`
    /// values of `y` × `zs` values of `z`. `extra` adds a second
    /// singleton to the first group's composite leaf (a shape only
    /// restructuring produces), which only the walk can evaluate.
    fn partial_leaves_rep(extra: bool) -> (AttrId, AttrId, FRep, Relation) {
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let ids = c.intern_all(["g", "x", "y", "z", "ny", "s", "n", "lo", "hi", "p", "t"]);
        let [g, x, y, z] = [ids[0], ids[1], ids[2], ids[3]];
        let mut t = FTree::new();
        let n_g = t.add_node(NodeLabel::Atomic(vec![g]), None);
        let n_x = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: partial_x_funcs(x).to_vec(),
                over: [x].into_iter().collect(),
                outputs: ids[5..].to_vec(),
            }),
            Some(n_g),
        );
        let n_ny = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Count],
                over: [y].into_iter().collect(),
                outputs: vec![ids[4]],
            }),
            Some(n_g),
        );
        let n_z = t.add_node(NodeLabel::Atomic(vec![z]), Some(n_g));
        let leaf = |value: Value| Entry {
            value,
            children: vec![],
        };
        // One partial singleton over the values `xs`, folded in order.
        let partial = |xs: &[f64]| {
            let sum = xs[1..].iter().fold(xs[0], |a, b| a + b);
            let product = xs[1..].iter().fold(xs[0], |a, b| a * b);
            let mut top = xs.to_vec();
            top.sort_by(|a, b| b.total_cmp(a));
            top.truncate(2);
            let fold = |pick: fn(f64, f64) -> f64| xs[1..].iter().fold(xs[0], |a, &b| pick(a, b));
            leaf(Value::tup(vec![
                Value::Float(sum),
                Value::Int(xs.len() as i64),
                Value::Float(fold(f64::min)),
                Value::Float(fold(f64::max)),
                Value::Float(product),
                Value::tup(top.into_iter().map(Value::Float).collect::<Vec<_>>()),
            ]))
        };
        let first: Vec<&[f64]> = if extra {
            vec![&[-1.5, 0.5], &[4.25, 1.0, 2.0]]
        } else {
            vec![&[4.25, 1.0, 2.0]]
        };
        let groups: [(Vec<&[f64]>, i64, i64); 3] = [
            (first, 2, 3),
            (vec![&[-0.0]], 1, 1),
            (vec![&[0.125, -2.0, 0.125, 3.5]], 3, 2),
        ];
        let mut rows = Vec::new();
        let mut entries = Vec::new();
        for (gv, (xs, ny, zs)) in groups.iter().enumerate() {
            let gv = Value::Int(gv as i64);
            for &xv in xs.iter().flat_map(|xs| xs.iter()) {
                for (yv, zv) in (0..*ny).flat_map(|yv| (0..*zs).map(move |zv| (yv, zv))) {
                    let row = [gv.clone(), Value::Float(xv), Value::Int(yv), Value::Int(zv)];
                    rows.push(row.to_vec());
                }
            }
            entries.push(Entry {
                value: gv,
                children: vec![
                    Union {
                        node: n_x,
                        entries: xs.iter().map(|xs| partial(xs)).collect(),
                    },
                    Union {
                        node: n_ny,
                        entries: vec![leaf(Value::Int(*ny))],
                    },
                    Union {
                        node: n_z,
                        entries: (0..*zs).map(|z| leaf(Value::Int(z))).collect(),
                    },
                ],
            });
        }
        let root = Union { node: n_g, entries };
        let truth = Relation::from_rows(Schema::new(vec![g, x, y, z]), rows);
        (g, x, FRep::new(t, vec![root]).unwrap(), truth)
    }

    #[test]
    fn compiled_aggregates_agree_with_the_general_evaluator() {
        use fdb_relational::ops::aggregate::{group_aggregate, PhysAggSpec};
        use fdb_relational::{AggFunc, AggSpec, GroupStrategy};
        for extra in [false, true] {
            let (g, x, rep, truth) = partial_leaves_rep(extra);
            let tree = rep.ftree();
            let nodes = &tree.node(tree.roots()[0]).children;
            let out = AttrId(999);
            for func in [
                AggFunc::Count,
                AggFunc::Sum(x),
                AggFunc::Min(x),
                AggFunc::Max(x),
                AggFunc::Product(x),
                AggFunc::TopK(x, 2),
            ] {
                let op = AggOp::from_func(func).unwrap();
                let spec: PhysAggSpec = AggSpec::new(func, out).into();
                let want = group_aggregate(&truth, &[g], &[spec], GroupStrategy::Sort);
                let mut compiled = CompiledAgg::new(tree, nodes, op);
                let walk_free = !matches!(op, AggOp::Product(_) | AggOp::TopK(..));
                assert_eq!(compiled.leaves.is_some(), walk_free, "{op:?}");
                for (gi, e) in rep.root(0).entries().enumerate() {
                    let unions: Vec<UnionRef<'_>> = e.children().collect();
                    let got = compiled.eval(tree, &unions, &mut NoMask).unwrap();
                    assert_eq!(got, want.row(gi)[1], "{op:?} group {gi}");
                    // The non-recursive path really ran — except on the
                    // two-singleton leaf, which only the walk can sum.
                    if walk_free {
                        let fast = compiled.eval_leaves(&unions);
                        assert_eq!(fast.is_some(), !(extra && gi == 0), "{op:?} group {gi}");
                    }
                }
            }
            // Sum over a float leaf holding -0.0 is +0.0 (0 + -0.0), as
            // over the flat relation.
            let unions: Vec<UnionRef<'_>> = rep.root(0).entry(1).children().collect();
            let sum = CompiledAgg::new(tree, nodes, AggOp::Sum(x)).eval(tree, &unions, &mut NoMask);
            assert_eq!(sum.unwrap(), Value::Float(0.0));
            // A function no component computes is refused.
            let exists = CompiledAgg::new(tree, nodes, AggOp::Exists(x, CmpOp::Gt, 0));
            assert!(!exists.provided());
            let refused = exists.clone().eval(tree, &unions, &mut NoMask);
            assert!(matches!(refused, Err(FdbError::InvalidComposition(_))));
            // What each function reads decides when it is re-evaluated.
            let reads = |op| {
                let c = CompiledAgg::new(tree, nodes, op);
                (0..nodes.len()).map(|k| c.reads(k)).collect::<Vec<_>>()
            };
            assert_eq!(reads(AggOp::Sum(x)), [true, true, true]);
            assert_eq!(reads(AggOp::Min(x)), [true, false, false]);
        }
    }

    #[test]
    fn composite_functions_share_evaluation() {
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let unions: Vec<UnionRef<'_>> = rep.root_unions().collect();
        let v = eval_funcs(rep.ftree(), &unions, &[AggOp::Sum(price), AggOp::Count]).unwrap();
        assert_eq!(v, Value::tup(vec![Value::Int(10), Value::Int(4)]));
    }

    #[test]
    fn partial_funcs_follow_prop2() {
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let root = rep.ftree().roots()[0];
        // Aggregating the item subtree for a final sum(price): the subtree
        // provides price, so the partial is sum(price).
        assert_eq!(
            partial_funcs(rep.ftree(), &[root], &[AggOp::Sum(price)]),
            vec![AggOp::Sum(price)]
        );
        // For a subtree that does not provide the attribute, the partial
        // degrades to count.
        let other = AttrIdOutside::attr();
        assert_eq!(
            partial_funcs(rep.ftree(), &[root], &[AggOp::Sum(other)]),
            vec![AggOp::Count]
        );
        // avg = (sum, count): count deduplicates.
        assert_eq!(
            partial_funcs(rep.ftree(), &[root], &[AggOp::Sum(other), AggOp::Count]),
            vec![AggOp::Count]
        );
    }

    /// g → {⟨sum(price):8⟩, ⟨count:c⟩, ⟨top_k(price, k):t⟩} — one group of
    /// partial-aggregate leaves as `γ` leaves them, combined by `eval_op`.
    fn partial_leaf_group(count: i64, top: Value, k: usize) -> (AttrId, FRep) {
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let ids = c.intern_all(["g", "price", "date", "s", "n", "t"]);
        let price = ids[1];
        let mut t = FTree::new();
        let n_g = t.add_node(NodeLabel::Atomic(vec![ids[0]]), None);
        let mut leaf = |op: AggOp, over: AttrId, out: AttrId| {
            t.add_node(
                NodeLabel::Agg(AggLabel {
                    funcs: vec![op],
                    over: [over].into_iter().collect(),
                    outputs: vec![out],
                }),
                Some(n_g),
            )
        };
        let n_sum = leaf(AggOp::Sum(price), price, ids[3]);
        let n_cnt = leaf(AggOp::Count, ids[2], ids[4]);
        let n_top = leaf(AggOp::TopK(price, k), price, ids[5]);
        let single = |node: NodeId, value: Value| Union {
            node,
            entries: vec![Entry {
                value,
                children: vec![],
            }],
        };
        let root = Union {
            node: n_g,
            entries: vec![Entry {
                value: Value::Int(0),
                children: vec![
                    single(n_sum, Value::Int(8)),
                    single(n_cnt, Value::Int(count)),
                    single(n_top, top),
                ],
            }],
        };
        (price, FRep::new(t, vec![root]).unwrap())
    }

    #[test]
    fn partial_leaves_combine_through_eval_op() {
        let nine_five = Value::tup(vec![Value::Int(9), Value::Int(5)]);
        let (price, rep) = partial_leaf_group(2, nine_five, 3);
        let t = rep.ftree();
        let [sum, cnt, top]: [UnionRef<'_>; 3] = rep
            .root(0)
            .entry(0)
            .children()
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        // sum × count = 16 (revenue for Mario's Capricciosa, Example 1).
        assert_eq!(
            eval_op(t, &[sum, cnt], &AggOp::Sum(price)).unwrap(),
            Value::Int(16)
        );
        // A count needs a count component in every factor.
        assert!(matches!(
            eval_op(t, &[sum], &AggOp::Count),
            Err(FdbError::InvalidComposition(_))
        ));
        assert_eq!(eval_op(t, &[cnt], &AggOp::Count).unwrap(), Value::Int(2));
        // A partial top-k list is repeated by the sibling count, then cut
        // at k: (9, 5) × 2 tuples → 9, 9, 5.
        let want = Value::tup(vec![Value::Int(9), Value::Int(9), Value::Int(5)]);
        assert_eq!(
            eval_op(t, &[cnt, top], &AggOp::TopK(price, 3)).unwrap(),
            want
        );
        // A sum-only factor hides its tuple count from every other
        // function; γ pairs such a sum with a count when one is needed.
        assert!(eval_op(t, &[sum, top], &AggOp::TopK(price, 3)).is_err());
        // One value reaches k copies only through the multiplication.
        let (price, rep) = partial_leaf_group(3, Value::tup(vec![Value::Int(9)]), 3);
        let unions: Vec<UnionRef<'_>> = rep.root(0).entry(0).children().skip(1).collect();
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::TopK(price, 3)).unwrap(),
            Value::tup(vec![Value::Int(9); 3])
        );
        // A group whose values were all NULL carries a NULL list.
        let (price, rep) = partial_leaf_group(3, Value::Null, 3);
        let unions: Vec<UnionRef<'_>> = rep.root(0).entry(0).children().skip(1).collect();
        assert_eq!(
            eval_op(rep.ftree(), &unions, &AggOp::TopK(price, 3)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn multiplicity_invariant_functions_never_count() {
        // g → {⟨min(price):3⟩, ⟨exists(price > 5):1⟩, ⟨sum(price):8⟩}: the
        // sum-only leaf hides its tuple count, which min and exists never
        // ask for — only a function that scales does.
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let ids = c.intern_all(["g", "price", "m", "e", "s"]);
        let price = ids[1];
        let (min, exists, sum) = (
            AggOp::Min(price),
            AggOp::Exists(price, CmpOp::Gt, 5),
            AggOp::Sum(price),
        );
        let mut t = FTree::new();
        let n_g = t.add_node(NodeLabel::Atomic(vec![ids[0]]), None);
        let mut children = Vec::new();
        for (op, out, v) in [(min, ids[2], 3), (exists, ids[3], 1), (sum, ids[4], 8)] {
            let label = AggLabel {
                funcs: vec![op],
                over: [price].into_iter().collect(),
                outputs: vec![out],
            };
            let node = t.add_node(NodeLabel::Agg(label), Some(n_g));
            let value = Value::Int(v);
            let entries = vec![Entry {
                value,
                children: vec![],
            }];
            children.push(Union { node, entries });
        }
        let value = Value::Int(0);
        let entries = vec![Entry { value, children }];
        let rep = FRep::new(t, vec![Union { node: n_g, entries }]).unwrap();
        let t = rep.ftree();
        let leaves: Vec<UnionRef<'_>> = rep.root(0).entry(0).children().collect();
        assert_eq!(eval_op(t, &leaves, &min).unwrap(), Value::Int(3));
        assert_eq!(eval_op(t, &leaves, &exists).unwrap(), Value::Int(1));
        let v = Value::Int(4);
        let nodes: Vec<NodeId> = leaves.iter().map(|u| u.node()).collect();
        let on_group = |op| CompiledAgg::new(t, &nodes, op).eval_on_group_value(t, &leaves, &v);
        assert_eq!(on_group(min).unwrap(), v);
        for err in [eval_op(t, &leaves, &sum), on_group(sum)] {
            assert!(
                matches!(err, Err(FdbError::InvalidComposition(_))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_huge_k_reserves_only_what_arrives() {
        // Reserving k up front would ask the allocator for 24 TB (and
        // overflow `Vec`'s capacity at i64::MAX) before the first value.
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        for k in [1_000_000_000_000, i64::MAX as usize] {
            let op = AggOp::TopK(price, k);
            // The path item → price: the providing-child and atomic
            // branches, then the final repetition.
            let all = Value::tup([6, 2, 1, 1].map(Value::Int).to_vec());
            assert_eq!(eval_op(rep.ftree(), &[rep.root(0)], &op).unwrap(), all);
            let (spine, _) = providing_spine(rep.ftree(), rep.root(0).node(), &op).unwrap();
            let top = fold_union(&TopK(k), rep.ftree(), &op, rep.root(0), &spine, &mut NoMask);
            let top = top.unwrap().unwrap();
            assert!(top.capacity() <= 4, "k = {k}: capacity {}", top.capacity());
            // A partial list that γ left for the same k.
            let (price, rep) = partial_leaf_group(2, Value::tup(vec![Value::Int(9)]), k);
            let unions: Vec<UnionRef<'_>> = rep.root(0).entry(0).children().skip(1).collect();
            assert_eq!(
                eval_op(rep.ftree(), &unions, &AggOp::TopK(price, k)).unwrap(),
                Value::tup(vec![Value::Int(9); 2])
            );
        }
    }

    #[test]
    fn a_group_fold_with_a_huge_k_sizes_its_lists_by_what_arrives() {
        // g → x → y: per g, its x values with one to three y each, so the
        // fold scales x's lists by y's counts on the way to g's groups.
        let mut c = Catalog::new();
        let [g, x, y] = ["g", "x", "y"].map(|n| c.intern(n));
        let rows = (0..3).flat_map(|gv| {
            (0..4).flat_map(move |xv| (0..=xv % 3).map(move |yv| [gv, gv * 10 + xv, yv]))
        });
        let rel = Relation::from_rows(
            Schema::new(vec![g, x, y]),
            rows.map(|r| r.map(Value::Int).to_vec()),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[x, g, y])).unwrap();
        let tree = rep.ftree();
        let gn = tree.node_of_attr(g).unwrap();
        let k = i64::MAX as usize;
        let folded = fold_groups(tree, rep.root(0), &[gn], &[AggOp::TopK(x, k)], None)
            .unwrap()
            .0;
        for (gv, top) in folded.levels[0].1.iter().zip(&folded.values) {
            let gv = gv.as_int().unwrap();
            let mut want: Vec<Value> = (0..4)
                .flat_map(|xv| std::iter::repeat_n(Value::Int(gv * 10 + xv), 1 + xv as usize % 3))
                .collect();
            want.reverse();
            assert_eq!(*top, Value::tup(want), "group {gv}");
        }
        // The merge grows a list by the values it keeps, never towards k.
        let f = TopK(k);
        let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        let merged = f.combine_scaled(ints(&[9, 4, 1]), &ints(&[7, 4]), 3);
        assert_eq!(merged, ints(&[9, 7, 7, 7, 4, 4, 4, 4, 1]));
        assert!(
            merged.capacity() <= 2 * merged.len(),
            "{}",
            merged.capacity()
        );
        // Cut at k: a float ranks above every integer.
        let three = TopK(3).combine_scaled(ints(&[5, 1]), &vec![Value::Float(1.0)], 2);
        assert_eq!(three, [Value::Float(1.0), Value::Float(1.0), Value::Int(5)]);
        assert_eq!(TopK(2).combine(ints(&[8, 3]), ints(&[2])), ints(&[8, 3]));
    }

    #[test]
    fn a_final_distinct_count_is_read_once_per_group() {
        // g → ⟨count(distinct x)⟩, as a group fold leaves it: 3 under
        // g = 0, 2 under g = 1; and the same counts as one union of two
        // singletons, which no group fold leaves.
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let [g, x, d] = ["g", "x", "d"].map(|n| c.intern(n));
        let op = AggOp::CountDistinct(x);
        let label = label_of(op, x, d);
        let single = |n| Entry {
            value: Value::Int(n),
            children: vec![],
        };
        let mut t = FTree::new();
        let n_g = t.add_node(NodeLabel::Atomic(vec![g]), None);
        let n_d = t.add_node(label.clone(), Some(n_g));
        let entries = [3, 2]
            .into_iter()
            .enumerate()
            .map(|(gv, n)| Entry {
                value: Value::Int(gv as i64),
                children: vec![Union {
                    node: n_d,
                    entries: vec![single(n)],
                }],
            })
            .collect();
        let rep = FRep::new(t, vec![Union { node: n_g, entries }]).unwrap();
        let tree = rep.ftree();
        let mut compiled = CompiledAgg::new(tree, &[n_d], op);
        for (e, want) in rep.root(0).entries().zip([3, 2]) {
            let unions: Vec<UnionRef<'_>> = e.children().collect();
            assert_eq!(
                compiled.eval(tree, &unions, &mut NoMask).unwrap(),
                Value::Int(want)
            );
        }
        // Across the groups: below a factor, and as several singletons.
        let refused = |r: Result<Value>| matches!(r, Err(FdbError::InvalidComposition(_)));
        assert!(refused(eval_op(tree, &[rep.root(0)], &op)));
        let mut t = FTree::new();
        let n_d = t.add_node(label, None);
        let both = Union {
            node: n_d,
            entries: vec![single(2), single(3)],
        };
        let rep = FRep::new(t, vec![both]).unwrap();
        assert!(refused(eval_op(rep.ftree(), &[rep.root(0)], &op)));
        // A group fold reads no aggregate singleton for distinct values:
        // g → {h, ⟨count(distinct x)⟩}, grouped by h.
        let mut t = FTree::new();
        let h = c.intern("h");
        let n_g = t.add_node(NodeLabel::Atomic(vec![g]), None);
        let n_h = t.add_node(NodeLabel::Atomic(vec![h]), Some(n_g));
        let n_d = t.add_node(label_of(op, x, d), Some(n_g));
        let root = Union {
            node: n_g,
            entries: vec![Entry {
                value: Value::Int(0),
                children: vec![
                    Union {
                        node: n_h,
                        entries: vec![single(1), single(2)],
                    },
                    Union {
                        node: n_d,
                        entries: vec![single(3)],
                    },
                ],
            }],
        };
        let rep = FRep::new(t, vec![root]).unwrap();
        let folded = fold_groups(rep.ftree(), rep.root(0), &[n_h], &[op], None);
        assert!(matches!(folded, Err(FdbError::InvalidComposition(_))));
    }

    /// The label of an aggregate node computing `op` over `x` into `out`.
    fn label_of(op: AggOp, x: AttrId, out: AttrId) -> NodeLabel {
        NodeLabel::Agg(AggLabel {
            funcs: vec![op],
            over: [x].into_iter().collect(),
            outputs: vec![out],
        })
    }

    #[test]
    fn count_distinct_walks_the_spine_with_one_table_per_result() {
        // g → x → y with string y: repeats across x-unions, NULL entries,
        // and a group whose y-values are all NULL.
        let mut c = Catalog::new();
        let [g, x, y] = ["g", "x", "y"].map(|n| c.intern(n));
        let rows: [(i64, i64, Option<&str>); 8] = [
            (0, 0, Some("a")),
            (0, 0, Some("b")),
            (0, 1, Some("a")),
            (0, 1, None),
            (0, 2, Some("c")),
            (1, 0, None),
            (1, 1, None),
            (2, 0, Some("z")),
        ];
        let rel = Relation::from_rows(
            Schema::new(vec![g, x, y]),
            rows.iter().map(|&(a, b, v)| {
                vec![
                    Value::Int(a),
                    Value::Int(b),
                    v.map_or(Value::Null, Value::str),
                ]
            }),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[g, x, y])).unwrap();
        let tree = rep.ftree();
        let nodes = [tree.node_of_attr(x).unwrap()];
        for (op, want) in [
            (AggOp::CountDistinct(y), [3, 0, 1]),
            (AggOp::CountDistinct(x), [3, 2, 1]),
        ] {
            let mut compiled = CompiledAgg::new(tree, &nodes, op);
            assert!(
                matches!(compiled.distinct, Some(DistinctRead::Walk(_))),
                "{op:?}"
            );
            for (e, want) in rep.root(0).entries().zip(want) {
                let unions: Vec<UnionRef<'_>> = e.children().collect();
                assert_eq!(
                    compiled.eval(tree, &unions, &mut NoMask).unwrap(),
                    Value::Int(want)
                );
                // The shared table holds this group's values alone.
                let Some(DistinctRead::Walk(ids)) = &compiled.distinct else {
                    unreachable!("a walking count");
                };
                assert_eq!(ids.len() as i64, want);
                assert_eq!(eval_op(tree, &unions, &op).unwrap(), Value::Int(want));
            }
        }
        // Over the whole relation: a, b, c, z.
        let all = eval_op(tree, &[rep.root(0)], &AggOp::CountDistinct(y)).unwrap();
        assert_eq!(all, Value::Int(4));
    }

    struct AttrIdOutside;
    impl AttrIdOutside {
        fn attr() -> fdb_relational::AttrId {
            fdb_relational::AttrId(999)
        }
    }
}
