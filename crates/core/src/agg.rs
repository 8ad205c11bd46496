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
//! Every function but one composes through partial aggregates
//! ([`partial_funcs`]). `product` exponentiates a partial product by its
//! siblings' tuple count; `top_k` keeps a partial list of at most `k`
//! values and repeats each by that count before cutting at `k` again.
//! `count(distinct)` does not compose — which values occur is lost in a
//! count — so its attribute stays atomic and the final evaluation walks
//! the providing spine once per group, interning each value into one
//! dense-id table reused for the whole result.
//!
//! The evaluators traverse the arena through [`UnionRef`]/[`EntryRef`]
//! cursors — index chasing over flat tables, no pointer-chasing through
//! heap-allocated nodes.

use crate::dense::DenseIds;
use crate::error::{FdbError, Result};
use crate::frep::{EntryRef, UnionRef};
use crate::ftree::{AggLabel, AggOp, FTree, NodeId, NodeLabel};
use fdb_relational::{Number, Value};

/// Evaluates `term` for every entry and folds the results in entry
/// order with `combine`.
fn fold_entries<A, T>(
    u: UnionRef<'_>,
    init: A,
    term: impl Fn(EntryRef<'_>) -> Result<T>,
    mut combine: impl FnMut(A, T) -> A,
) -> Result<A> {
    let mut acc = init;
    for e in u.entries() {
        acc = combine(acc, term(e)?);
    }
    Ok(acc)
}

// ---------------------------------------------------------------------
// Leaf slice kernels
// ---------------------------------------------------------------------
// A leaf atomic union is a plain sorted value vector, and freshly built
// arenas lay its values out back-to-back in the node's column
// ([`UnionRef::contiguous_values`]). The aggregates below collapse such
// unions to tight loops over `&[Value]` — branch-predictable scans over
// the columnar buffer the arena layout was chosen for — instead of a
// per-entry cursor walk with a clone and a `Number` dispatch per value.
// Every kernel is bit-identical to the generic fold it replaces:
// integer adds wrap (associative, so the loop shape is free to change),
// and mixed, non-`Int` or non-contiguous buffers fall back to the
// generic path, preserving result and error identity.

/// True when the union is a leaf of the f-tree with an atomic label:
/// entries carry multiplicity 1 and no children, so aggregates over it
/// reduce to scans of the value buffer.
fn is_atomic_leaf(ftree: &FTree, u: UnionRef<'_>) -> bool {
    let node = ftree.node(u.node());
    matches!(node.label, NodeLabel::Atomic(_)) && node.children.is_empty()
}

/// Wrapping sum when every value is an `Int`; `None` otherwise.
fn sum_int_slice(vals: &[Value]) -> Option<i64> {
    if !vals.iter().all(|v| matches!(v, Value::Int(_))) {
        return None;
    }
    let mut acc = 0i64;
    for v in vals {
        if let Value::Int(x) = v {
            acc = acc.wrapping_add(*x);
        }
    }
    Some(acc)
}

/// Min or max when the slice is non-empty and every value is an `Int`;
/// `None` otherwise.
fn extremum_int_slice(vals: &[Value], is_min: bool) -> Option<i64> {
    if vals.is_empty() || !vals.iter().all(|v| matches!(v, Value::Int(_))) {
        return None;
    }
    let mut best = match vals[0] {
        Value::Int(x) => x,
        _ => unreachable!(),
    };
    for v in &vals[1..] {
        if let Value::Int(x) = v {
            best = if is_min { best.min(*x) } else { best.max(*x) };
        }
    }
    Some(best)
}

/// True if the subtree rooted at `node` can feed the aggregation `op`:
/// it exposes the aggregated attribute atomically, or holds a compatible
/// partial-aggregate component (e.g. `sum(a)` feeding a later `sum(a)`).
pub fn subtree_provides(ftree: &FTree, node: NodeId, op: &AggOp) -> bool {
    match op.attr() {
        None => true,
        Some(attr) => ftree
            .subtree_nodes(node)
            .iter()
            .any(|&n| match &ftree.node(n).label {
                NodeLabel::Atomic(attrs) => attrs.contains(&attr),
                NodeLabel::Agg(l) => l.component_of(op).is_some(),
            }),
    }
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
fn component(label: &AggLabel, value: &Value, i: usize) -> Value {
    if label.arity() == 1 {
        value.clone()
    } else {
        value.as_tup().expect("composite aggregate holds a Tup")[i].clone()
    }
}

/// `count(E)` — cardinality of the relation represented by union `u`.
pub fn count_union(ftree: &FTree, u: UnionRef<'_>) -> Result<i64> {
    // Leaf atomic union: every entry stands for exactly one tuple, so
    // the count is the entry count — O(1), and the workhorse of the
    // sibling-cardinality products in the recursive evaluators below.
    if is_atomic_leaf(ftree, u) {
        debug_assert!(u.entries().all(|e| e.child_count() == 0));
        return Ok(u.len() as i64);
    }
    let label = &ftree.node(u.node()).label;
    fold_entries(
        u,
        0i64,
        |e| {
            let mut prod = entry_multiplicity(label, e.value())?;
            for c in e.children() {
                prod = prod.wrapping_mul(count_union(ftree, c)?);
            }
            Ok(prod)
        },
        i64::wrapping_add,
    )
}

/// `sumA(E)` over union `u`, which must provide `A`.
pub fn sum_union(ftree: &FTree, u: UnionRef<'_>, op: &AggOp) -> Result<Number> {
    let attr = op.attr().expect("sum has an attribute");
    let label = &ftree.node(u.node()).label;
    let node_provides = match label {
        NodeLabel::Atomic(attrs) => attrs.contains(&attr),
        NodeLabel::Agg(l) => l.component_of(op).is_some(),
    };
    if node_provides {
        // Leaf providing union: no child cardinalities scale the
        // values, so an all-`Int` contiguous buffer sums as one slice
        // scan (wrapping adds — identical to the entry-order fold).
        if is_atomic_leaf(ftree, u) {
            if let Some(s) = u.contiguous_values().and_then(sum_int_slice) {
                return Ok(Number::Int(s));
            }
        }
        return fold_entries(
            u,
            Number::ZERO,
            |e| {
                let v = match label {
                    NodeLabel::Atomic(_) => e.value().clone(),
                    NodeLabel::Agg(l) => component(l, e.value(), l.component_of(op).unwrap()),
                };
                let n = v.as_number().ok_or_else(|| {
                    FdbError::NonNumeric(format!("sum over non-numeric value {v}"))
                })?;
                let mut mult: i64 = 1;
                for c in e.children() {
                    mult = mult.wrapping_mul(count_union(ftree, c)?);
                }
                Ok(n.mul(Number::Int(mult)))
            },
            Number::add,
        );
    }
    // Exactly one child subtree provides A (attributes partition the
    // schema); the others contribute their cardinalities.
    let children = &ftree.node(u.node()).children;
    let j = children
        .iter()
        .position(|&c| subtree_provides(ftree, c, op))
        .ok_or_else(|| {
            FdbError::InvalidComposition(format!(
                "no subtree provides {op:?}; a prior aggregate hid the attribute"
            ))
        })?;
    fold_entries(
        u,
        Number::ZERO,
        |e| {
            let mut mult = entry_multiplicity(label, e.value())?;
            for (k, c) in e.children().enumerate() {
                if k != j {
                    mult = mult.wrapping_mul(count_union(ftree, c)?);
                }
            }
            let s = sum_union(ftree, e.child(j), op)?;
            Ok(s.mul(Number::Int(mult)))
        },
        Number::add,
    )
}

/// `minA(E)` / `maxA(E)` over union `u`, which must provide `A`.
pub fn extremum_union(ftree: &FTree, u: UnionRef<'_>, op: &AggOp) -> Result<Value> {
    let is_min = matches!(op, AggOp::Min(_));
    let attr = op.attr().expect("min/max has an attribute");
    let label = &ftree.node(u.node()).label;
    let pick = move |best: Option<Value>, v: Value| -> Option<Value> {
        let better = match &best {
            None => true,
            Some(b) => {
                if is_min {
                    v < *b
                } else {
                    v > *b
                }
            }
        };
        if better {
            Some(v)
        } else {
            best
        }
    };
    let best = match label {
        NodeLabel::Atomic(attrs) if attrs.contains(&attr) => {
            // Entries are sorted ascending: the extremum is at an end.
            if u.is_empty() {
                None
            } else if is_min {
                Some(u.entry(0).value().clone())
            } else {
                Some(u.entry(u.len() - 1).value().clone())
            }
        }
        NodeLabel::Agg(l) if l.component_of(op).is_some() => {
            let i = l.component_of(op).unwrap();
            // Single-component aggregate unions expose the component as
            // the value itself: an all-`Int` contiguous buffer reduces
            // with a slice min/max scan (first-wins ties are moot —
            // equal `Int`s are identical values).
            let fast = if l.arity() == 1 {
                u.contiguous_values()
                    .and_then(|vals| extremum_int_slice(vals, is_min))
                    .map(Value::Int)
            } else {
                None
            };
            match fast {
                Some(v) => Some(v),
                None => fold_entries(u, None, |e| Ok(component(l, e.value(), i)), pick)?,
            }
        }
        _ => {
            let children = &ftree.node(u.node()).children;
            let j = children
                .iter()
                .position(|&c| subtree_provides(ftree, c, op))
                .ok_or_else(|| {
                    FdbError::InvalidComposition(format!(
                        "no subtree provides {op:?}; a prior aggregate hid the attribute"
                    ))
                })?;
            fold_entries(u, None, |e| extremum_union(ftree, e.child(j), op), pick)?
        }
    };
    best.ok_or_else(|| FdbError::InvalidOperator("extremum of an empty union".into()))
}

/// Finds the child subtree of `node` that provides `op`, mirroring the
/// lookup in [`sum_union`].
fn providing_child(ftree: &FTree, node: NodeId, op: &AggOp) -> Result<usize> {
    ftree
        .node(node)
        .children
        .iter()
        .position(|&c| subtree_provides(ftree, c, op))
        .ok_or_else(|| {
            FdbError::InvalidComposition(format!(
                "no subtree provides {op:?}; a prior aggregate hid the attribute"
            ))
        })
}

/// `productA(E)` over union `u`, which must provide `A`: the product of
/// `A`'s non-NULL values under bag semantics. Returns `None` when every
/// input is NULL. The factorised recursion exponentiates by sibling
/// cardinalities (`product^count`), which for wrapping integer
/// arithmetic is congruent mod 2^64 with the flat sequential product.
pub fn product_union(ftree: &FTree, u: UnionRef<'_>, op: &AggOp) -> Result<Option<Number>> {
    let attr = op.attr().expect("product has an attribute");
    let label = &ftree.node(u.node()).label;
    let mul = |acc: Option<Number>, t: Option<Number>| match (acc, t) {
        (Some(a), Some(b)) => Some(a.mul(b)),
        (a, b) => a.or(b),
    };
    let node_provides = match label {
        NodeLabel::Atomic(attrs) => attrs.contains(&attr),
        NodeLabel::Agg(l) => l.component_of(op).is_some(),
    };
    if node_provides {
        return fold_entries(
            u,
            None,
            |e| {
                let v = match label {
                    NodeLabel::Atomic(_) => e.value().clone(),
                    NodeLabel::Agg(l) => component(l, e.value(), l.component_of(op).unwrap()),
                };
                if v.is_null() {
                    return Ok(None);
                }
                let n = v.as_number().ok_or_else(|| {
                    FdbError::NonNumeric(format!("product over non-numeric value {v}"))
                })?;
                // A partial-product singleton already condensed its own
                // tuples (mirrors `sum_union`): only sibling-child
                // cardinalities exponentiate it.
                let mut mult: i64 = 1;
                for c in e.children() {
                    mult = mult.wrapping_mul(count_union(ftree, c)?);
                }
                Ok(Some(n.pow(mult.max(0) as u64)))
            },
            mul,
        );
    }
    let j = providing_child(ftree, u.node(), op)?;
    fold_entries(
        u,
        None,
        |e| {
            let mut mult = entry_multiplicity(label, e.value())?;
            for (k, c) in e.children().enumerate() {
                if k != j {
                    mult = mult.wrapping_mul(count_union(ftree, c)?);
                }
            }
            let p = product_union(ftree, e.child(j), op)?;
            Ok(p.map(|n| n.pow(mult.max(0) as u64)))
        },
        mul,
    )
}

/// The providing spine of `count(distinct A)` below `node`: the child
/// position to descend at each level, down to the atomic node holding
/// `A`. It depends on the f-tree alone, so it is resolved once per
/// evaluation, not once per union.
///
/// The attribute must still be *atomic* in the tree: distinct values
/// cannot be recovered from aggregate singletons.
fn distinct_spine(ftree: &FTree, node: NodeId, op: &AggOp) -> Result<Vec<usize>> {
    let attr = op.attr().expect("count(distinct) has an attribute");
    let mut spine = Vec::new();
    let mut n = node;
    loop {
        match &ftree.node(n).label {
            NodeLabel::Atomic(attrs) if attrs.contains(&attr) => return Ok(spine),
            NodeLabel::Agg(l) if l.component_of(op).is_some() => {
                return Err(FdbError::InvalidComposition(format!(
                    "distinct values of {op:?} are unrecoverable from an aggregate singleton"
                )))
            }
            _ => {
                let j = providing_child(ftree, n, op)?;
                spine.push(j);
                n = ftree.node(n).children[j];
            }
        }
    }
}

/// The number of distinct non-NULL values of the attribute at the end of
/// `spine` in the relation represented by `u` — `count(distinct A)`.
/// Multiplicity-invariant, so the walk only descends the spine: sibling
/// subtrees never change which values occur.
///
/// Every entry stands for at least one tuple (unions are never empty),
/// so the distinct values are those of the providing unions' entries:
/// each is interned into `ids` (cleared first) and the answer is the
/// number of ids — a value is touched once per entry that mentions it,
/// so the walk runs in factorisation size.
fn count_distinct(u: UnionRef<'_>, spine: &[usize], ids: &mut DenseIds) -> i64 {
    fn intern(u: UnionRef<'_>, spine: &[usize], ids: &mut DenseIds) {
        match spine.split_first() {
            None => {
                let (col, vals) = u.value_indices();
                for v in vals {
                    if !col.get(v).is_null() {
                        ids.intern(&col, v);
                    }
                }
            }
            Some((&j, rest)) => {
                for e in u.entries() {
                    intern(e.child(j), rest, ids);
                }
            }
        }
    }
    ids.clear();
    intern(u, spine, ids);
    ids.len() as i64
}

/// `existsA(E)` / `forallA(E)` over union `u`: whether some (resp.
/// every) non-NULL value of `A` satisfies `value θ c`. Both are
/// multiplicity-invariant, so sibling cardinalities never matter — the
/// walk only descends the providing spine, like `min`/`max`.
pub fn boolean_union(ftree: &FTree, u: UnionRef<'_>, op: &AggOp) -> Result<bool> {
    let (attr, cmp, rhs, is_exists) = match *op {
        AggOp::Exists(a, c, r) => (a, c, r, true),
        AggOp::Forall(a, c, r) => (a, c, r, false),
        _ => unreachable!("boolean_union is only called for exists/forall"),
    };
    // exists folds with OR from false; forall with AND from true.
    let combine = move |acc: bool, t: bool| if is_exists { acc || t } else { acc && t };
    let label = &ftree.node(u.node()).label;
    match label {
        NodeLabel::Atomic(attrs) if attrs.contains(&attr) => fold_entries(
            u,
            !is_exists,
            |e| {
                let v = e.value();
                // NULL inputs are skipped: they contribute the identity.
                if v.is_null() {
                    Ok(!is_exists)
                } else {
                    Ok(cmp.eval(v.cmp(&Value::Int(rhs))))
                }
            },
            combine,
        ),
        NodeLabel::Agg(l) if l.component_of(op).is_some() => {
            // The component already holds the sub-result (0/1) for the
            // erased subtree; combine across entries.
            let i = l.component_of(op).unwrap();
            fold_entries(
                u,
                !is_exists,
                |e| {
                    Ok(component(l, e.value(), i)
                        .as_int()
                        .expect("boolean aggregate component is 0/1")
                        != 0)
                },
                combine,
            )
        }
        _ => {
            let j = providing_child(ftree, u.node(), op)?;
            fold_entries(
                u,
                !is_exists,
                |e| boolean_union(ftree, e.child(j), op),
                combine,
            )
        }
    }
}

/// Merges two descending top-`k` lists into one, keeping at most `k`.
fn merge_topk(a: Vec<Value>, b: Vec<Value>, k: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity((a.len() + b.len()).min(k));
    let (mut ia, mut ib) = (0, 0);
    while out.len() < k && (ia < a.len() || ib < b.len()) {
        let take_a = match (a.get(ia), b.get(ib)) {
            (Some(x), Some(y)) => x >= y,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            out.push(a[ia].clone());
            ia += 1;
        } else {
            out.push(b[ib].clone());
            ib += 1;
        }
    }
    out
}

/// Pushes `v` repeated `mult` times (capped at the remaining budget)
/// onto a descending list that still has room for `k` values total.
fn push_repeated(out: &mut Vec<Value>, v: Value, mult: i64, k: usize) {
    let n = (mult.max(0) as usize).min(k.saturating_sub(out.len()));
    for _ in 0..n {
        out.push(v.clone());
    }
}

/// The descending list `vals` with each value repeated `mult` times,
/// truncated at `k`: the top `k` of a partial top-`k` list times `mult`
/// tuples, since `min(min(c,k)·m, k) = min(c·m, k)` — the rule that
/// exponentiates `product` by sibling counts. Sized by the values that
/// arrive, never by `k` alone, which comes from the query.
fn repeat_truncated(vals: &[Value], mult: i64, k: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(k.min(vals.len()));
    for v in vals {
        if out.len() >= k {
            break;
        }
        push_repeated(&mut out, v.clone(), mult, k);
    }
    out
}

/// The `k` largest non-NULL values of `op`'s attribute in the relation
/// represented by `u`, descending, under bag semantics: a value shared
/// by `m` tuples occurs `min(m, k)` times. One list of at most `k`
/// values per union entry, merged in entry order. The attribute may sit
/// in an atomic node or in a partial `top_k` component left by an
/// earlier `γ`: a list that composes like `product`, each value
/// repeated by its entry's tuple count and the list cut at `k` again.
pub fn topk_union(ftree: &FTree, u: UnionRef<'_>, op: &AggOp) -> Result<Vec<Value>> {
    let (attr, k) = match *op {
        AggOp::TopK(a, k) => (a, k),
        _ => unreachable!("topk_union is only called for top_k"),
    };
    if k == 0 {
        return Ok(Vec::new());
    }
    let label = &ftree.node(u.node()).label;
    match label {
        NodeLabel::Atomic(attrs) if attrs.contains(&attr) => {
            // Entries are sorted ascending; walk them backwards so the
            // largest values fill the budget first; the reverse scan
            // stops after at most k distinct entries.
            let mut out = Vec::with_capacity(k.min(u.len()));
            for i in (0..u.len()).rev() {
                if out.len() >= k {
                    break;
                }
                let e = u.entry(i);
                let v = e.value();
                if v.is_null() {
                    continue;
                }
                let mut mult: i64 = 1;
                for c in e.children() {
                    mult = mult.wrapping_mul(count_union(ftree, c)?);
                }
                push_repeated(&mut out, v.clone(), mult, k);
            }
            Ok(out)
        }
        NodeLabel::Agg(l) if l.component_of(op).is_some() => {
            let i = l.component_of(op).unwrap();
            fold_entries(
                u,
                Vec::new(),
                |e| {
                    // A partial list (NULL when its tuples had no
                    // non-NULL value), repeated by this entry's subtree.
                    let mut mult: i64 = 1;
                    for c in e.children() {
                        mult = mult.wrapping_mul(count_union(ftree, c)?);
                    }
                    Ok(match component(l, e.value(), i) {
                        Value::Null => Vec::new(),
                        Value::Tup(vals) => repeat_truncated(&vals, mult, k),
                        v => repeat_truncated(&[v], mult, k),
                    })
                },
                |acc, part| merge_topk(acc, part, k),
            )
        }
        _ => {
            let j = providing_child(ftree, u.node(), op)?;
            fold_entries(
                u,
                Vec::new(),
                |e| {
                    let mut mult = entry_multiplicity(label, e.value())?;
                    for (c_idx, c) in e.children().enumerate() {
                        if c_idx != j {
                            mult = mult.wrapping_mul(count_union(ftree, c)?);
                        }
                    }
                    let sub = topk_union(ftree, e.child(j), op)?;
                    Ok(repeat_truncated(&sub, mult, k))
                },
                |acc, part| merge_topk(acc, part, k),
            )
        }
    }
}

/// Evaluates one aggregation function over a *product* of sibling unions
/// (the expression an aggregation operator replaces, §3.2).
pub fn eval_op(ftree: &FTree, unions: &[UnionRef<'_>], op: &AggOp) -> Result<Value> {
    let provider = provider_among(ftree, unions.iter().map(|u| u.node()), op);
    eval_op_at(ftree, unions, op, provider)
}

/// Index of the first factor whose subtree provides `op`'s attribute
/// (`None` for `count`, which reads every factor, and when no factor
/// does). Depends on the f-tree alone, so callers evaluating the same
/// function over many products of the same shape resolve it once
/// ([`CompiledAgg`]).
fn provider_among(
    ftree: &FTree,
    mut nodes: impl Iterator<Item = NodeId>,
    op: &AggOp,
) -> Option<usize> {
    op.attr()?;
    nodes.position(|n| subtree_provides(ftree, n, op))
}

/// The general evaluator behind [`eval_op`], with the providing factor
/// already resolved.
fn eval_op_at(
    ftree: &FTree,
    unions: &[UnionRef<'_>],
    op: &AggOp,
    provider: Option<usize>,
) -> Result<Value> {
    // Cardinality of the factors other than `j`, multiplied in order.
    let others = |j: Option<usize>| -> Result<i64> {
        let mut mult: i64 = 1;
        for (k, &u) in unions.iter().enumerate() {
            if Some(k) != j {
                mult = mult.wrapping_mul(count_union(ftree, u)?);
            }
        }
        Ok(mult)
    };
    if matches!(op, AggOp::Count) {
        return Ok(Value::Int(others(None)?));
    }
    let j = provider
        .ok_or_else(|| FdbError::InvalidComposition(format!("no factor provides {op:?}")))?;
    match op {
        AggOp::Count => unreachable!("handled above"),
        AggOp::Sum(_) => {
            let mut total = sum_union(ftree, unions[j], op)?;
            for (k, &u) in unions.iter().enumerate() {
                if k != j {
                    total = total.mul(Number::Int(count_union(ftree, u)?));
                }
            }
            Ok(total.into_value())
        }
        AggOp::Min(_) | AggOp::Max(_) => extremum_union(ftree, unions[j], op),
        AggOp::CountDistinct(_) => {
            // Multiplicity-invariant: the non-providing factors only
            // repeat tuples, never change which values occur.
            let spine = distinct_spine(ftree, unions[j].node(), op)?;
            Ok(Value::Int(count_distinct(
                unions[j],
                &spine,
                &mut DenseIds::new(),
            )))
        }
        AggOp::Product(_) => {
            let mult = others(Some(j))?;
            Ok(match product_union(ftree, unions[j], op)? {
                Some(p) => p.pow(mult.max(0) as u64).into_value(),
                None => Value::Null,
            })
        }
        AggOp::Exists(..) | AggOp::Forall(..) => {
            Ok(Value::Int(boolean_union(ftree, unions[j], op)? as i64))
        }
        AggOp::TopK(_, k) => {
            let mult = others(Some(j))?;
            let out = repeat_truncated(&topk_union(ftree, unions[j], op)?, mult, *k);
            Ok(if out.is_empty() {
                Value::Null
            } else {
                Value::tup(out)
            })
        }
    }
}

/// Evaluates `op` over the relation `{v} × unions` when its attribute is
/// a group attribute holding `v` in the current group: the factors below
/// the group cannot provide it and only repeat `v` by their tuple count.
pub(crate) fn eval_on_group_value(
    ftree: &FTree,
    unions: &[UnionRef<'_>],
    op: &AggOp,
    v: &Value,
) -> Result<Value> {
    let mult = || -> Result<i64> {
        let mut mult: i64 = 1;
        for &u in unions {
            mult = mult.wrapping_mul(count_union(ftree, u)?);
        }
        Ok(mult)
    };
    let number = |what: &str| {
        v.as_number()
            .ok_or_else(|| FdbError::NonNumeric(format!("{what} over non-numeric value {v}")))
    };
    Ok(match *op {
        AggOp::Count => Value::Int(mult()?),
        AggOp::Sum(_) => number("sum")?.mul(Number::Int(mult()?)).into_value(),
        AggOp::Min(_) | AggOp::Max(_) => v.clone(),
        // NULL inputs are skipped by every function below.
        _ if v.is_null() => match op {
            AggOp::CountDistinct(_) | AggOp::Exists(..) => Value::Int(0),
            AggOp::Forall(..) => Value::Int(1),
            _ => Value::Null,
        },
        AggOp::CountDistinct(_) => Value::Int(1),
        AggOp::Product(_) => number("product")?.pow(mult()?.max(0) as u64).into_value(),
        AggOp::Exists(_, cmp, rhs) | AggOp::Forall(_, cmp, rhs) => {
            Value::Int(cmp.eval(v.cmp(&Value::Int(rhs))) as i64)
        }
        AggOp::TopK(_, k) => {
            let out = repeat_truncated(std::slice::from_ref(v), mult()?, k);
            if out.is_empty() {
                Value::Null
            } else {
                Value::tup(out)
            }
        }
    })
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
/// fixed list of factors, then evaluated over many products of unions of
/// those nodes — the per-group evaluation of the engine's grouped results.
///
/// Resolution fixes which factor provides the attribute and which only
/// multiply, and for `count`/`sum`/`min`/`max` over partial-aggregate
/// leaves also the value components to read: such a product is evaluated
/// without recursion and without touching the f-tree, in the arithmetic
/// order of the general evaluator, so the two agree bit for bit. For
/// `count(distinct)` it fixes the providing spine and keeps one
/// [`DenseIds`] table for every group. Any other shape — and a leaf
/// union that turns out not to hold exactly one singleton — goes through
/// the general evaluator ([`eval_op`] with the provider supplied).
#[derive(Clone, Debug)]
pub(crate) struct CompiledAgg {
    op: AggOp,
    provider: Option<usize>,
    /// Per factor; `None` when some factor needs the general evaluator.
    leaves: Option<Vec<LeafRole>>,
    /// `count(distinct)`: the provider's spine and the table its values
    /// are interned into, cleared per group. A spine that does not
    /// resolve is left to the general evaluator, which reports why.
    distinct: Option<(Vec<usize>, DenseIds)>,
}

impl CompiledAgg {
    pub(crate) fn new(ftree: &FTree, nodes: &[NodeId], op: AggOp) -> Self {
        let provider = provider_among(ftree, nodes.iter().copied(), &op);
        let component = |l: &AggLabel, i: usize| (l.arity() > 1).then_some(i);
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
        let distinct = match (op, provider) {
            (AggOp::CountDistinct(_), Some(j)) => distinct_spine(ftree, nodes[j], &op)
                .ok()
                .map(|spine| (spine, DenseIds::new())),
            _ => None,
        };
        CompiledAgg {
            op,
            provider,
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

    /// [`eval_on_group_value`] for this function.
    pub(crate) fn eval_on_group_value(
        &self,
        ftree: &FTree,
        unions: &[UnionRef<'_>],
        v: &Value,
    ) -> Result<Value> {
        eval_on_group_value(ftree, unions, &self.op, v)
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
    /// nodes given to [`CompiledAgg::new`]).
    pub(crate) fn eval(&mut self, ftree: &FTree, unions: &[UnionRef<'_>]) -> Result<Value> {
        if let (Some((spine, ids)), Some(j)) = (&mut self.distinct, self.provider) {
            return Ok(Value::Int(count_distinct(unions[j], spine, ids)));
        }
        if let Some(v) = self
            .leaves
            .as_ref()
            .and_then(|l| self.eval_leaves(l, unions))
        {
            return v;
        }
        eval_op_at(ftree, unions, &self.op, self.provider)
    }

    /// The non-recursive path; `None` hands over to the general evaluator.
    fn eval_leaves(&self, leaves: &[LeafRole], unions: &[UnionRef<'_>]) -> Option<Result<Value>> {
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
                prod = prod.wrapping_mul(card(k)?);
            }
            return Some(Ok(Value::Int(prod)));
        }
        let j = self.provider?;
        let LeafRole::Supply(c) = leaves[j] else {
            unreachable!("the provider's role is to supply");
        };
        let v = single(j, c)?;
        match self.op {
            AggOp::Sum(_) => {
                let Some(n) = v.as_number() else {
                    return Some(Err(FdbError::NonNumeric(format!(
                        "sum over non-numeric value {v}"
                    ))));
                };
                // The general fold over the one childless entry, 0 + n·1,
                // then scaled factor by factor.
                let mut total = Number::ZERO.add(n.mul(Number::Int(1)));
                for k in (0..leaves.len()).filter(|&k| k != j) {
                    total = total.mul(Number::Int(card(k)?));
                }
                Some(Ok(total.into_value()))
            }
            AggOp::Min(_) | AggOp::Max(_) => Some(Ok(v.clone())),
            _ => None,
        }
    }
}

/// Evaluates a composite function `(F1,…,Fk)` over a product of unions,
/// returning a scalar when `k = 1` and a `Tup` otherwise (§3.2.4).
pub fn eval_funcs(ftree: &FTree, unions: &[UnionRef<'_>], funcs: &[AggOp]) -> Result<Value> {
    let mut vals = Vec::with_capacity(funcs.len());
    for f in funcs {
        vals.push(eval_op(ftree, unions, f)?);
    }
    Ok(if vals.len() == 1 {
        vals.pop().unwrap()
    } else {
        Value::tup(vals)
    })
}

/// Derives the *partial* aggregation functions for `γ` over `targets` when
/// the query's final functions are `final_funcs` (Prop. 2): `sumA`
/// decomposes into `sumA` where `A` is available and `count` elsewhere;
/// `count` into `count`s; `min`/`max` into `min`/`max` where available and
/// `count` elsewhere (the counts are ignored by the final extremum but keep
/// the factorisation reducible). Duplicates are evaluated once (§3.2.4).
pub fn partial_funcs(ftree: &FTree, targets: &[NodeId], final_funcs: &[AggOp]) -> Vec<AggOp> {
    let mut out: Vec<AggOp> = Vec::new();
    for f in final_funcs {
        let partial = match f {
            AggOp::Count => AggOp::Count,
            AggOp::Sum(_)
            | AggOp::Min(_)
            | AggOp::Max(_)
            | AggOp::Product(_)
            | AggOp::Exists(..)
            | AggOp::Forall(..)
            | AggOp::CountDistinct(_)
            | AggOp::TopK(..) => {
                if targets.iter().any(|&t| subtree_provides(ftree, t, f)) {
                    *f
                } else {
                    AggOp::Count
                }
            }
        };
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
        let s = sum_union(rep.ftree(), rep.root(0), &AggOp::Sum(price)).unwrap();
        assert_eq!(s.into_value(), Value::Int(10));
    }

    #[test]
    fn min_max_over_trie() {
        let (c, rep) = items_rep();
        let price = c.lookup("price").unwrap();
        let mn = extremum_union(rep.ftree(), rep.root(0), &AggOp::Min(price)).unwrap();
        let mx = extremum_union(rep.ftree(), rep.root(0), &AggOp::Max(price)).unwrap();
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

    /// g → {⟨(sum x, count, min x)⟩, ⟨count(y)⟩, z}: per group a
    /// composite partial-aggregate leaf, a count leaf and an atomic leaf
    /// — the shapes [`CompiledAgg`] evaluates without a walk. `extra`
    /// adds a second singleton to the first group's composite leaf (a
    /// shape only restructuring produces), which must fall back.
    fn partial_leaves_rep(extra: bool) -> (AttrId, FRep) {
        use crate::frep::{Entry, Union};
        let mut c = Catalog::new();
        let ids = c.intern_all(["g", "x", "y", "z", "sx", "nx", "lo", "ny"]);
        let x = ids[1];
        let mut t = FTree::new();
        let n_g = t.add_node(NodeLabel::Atomic(vec![ids[0]]), None);
        let n_sx = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Sum(x), AggOp::Count, AggOp::Min(x)],
                over: [x].into_iter().collect(),
                outputs: vec![ids[4], ids[5], ids[6]],
            }),
            Some(n_g),
        );
        let n_ny = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Count],
                over: [ids[2]].into_iter().collect(),
                outputs: vec![ids[7]],
            }),
            Some(n_g),
        );
        let n_z = t.add_node(NodeLabel::Atomic(vec![ids[3]]), Some(n_g));
        let leaf = |value: Value| Entry {
            value,
            children: vec![],
        };
        let group = |g: i64, sums: Vec<(f64, i64)>, ny: i64, zs: i64| Entry {
            value: Value::Int(g),
            children: vec![
                Union {
                    node: n_sx,
                    entries: sums
                        .into_iter()
                        .map(|(s, n)| {
                            leaf(Value::tup(vec![
                                Value::Float(s),
                                Value::Int(n),
                                Value::Float(s / 2.0),
                            ]))
                        })
                        .collect(),
                },
                Union {
                    node: n_ny,
                    entries: vec![leaf(Value::Int(ny))],
                },
                Union {
                    node: n_z,
                    entries: (0..zs).map(|z| leaf(Value::Int(z))).collect(),
                },
            ],
        };
        let first = if extra {
            vec![(-1.5, 2), (4.25, 3)]
        } else {
            vec![(4.25, 3)]
        };
        let root = Union {
            node: n_g,
            entries: vec![
                group(0, first, 2, 3),
                group(1, vec![(-0.0, 1)], 1, 1),
                group(2, vec![(0.1, 7)], 3, 2),
            ],
        };
        (x, FRep::new(t, vec![root]).unwrap())
    }

    #[test]
    fn compiled_aggregates_agree_with_the_general_evaluator() {
        for extra in [false, true] {
            let (x, rep) = partial_leaves_rep(extra);
            let tree = rep.ftree();
            let nodes = &tree.node(tree.roots()[0]).children;
            for op in [
                AggOp::Count,
                AggOp::Sum(x),
                AggOp::Min(x),
                AggOp::Max(x),
                AggOp::Product(x),
                AggOp::TopK(x, 2),
            ] {
                let mut compiled = CompiledAgg::new(tree, nodes, op);
                // Max has no component in the leaf and nothing else
                // exposes x: unprovided. Product has no leaf path.
                let walk_free = matches!(op, AggOp::Count | AggOp::Sum(_) | AggOp::Min(_));
                assert_eq!(compiled.leaves.is_some(), walk_free, "{op:?}");
                for (g, e) in rep.root(0).entries().enumerate() {
                    let unions: Vec<UnionRef<'_>> = e.children().collect();
                    let want = eval_op(tree, &unions, &op);
                    let got = compiled.eval(tree, &unions);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => assert_eq!(g, w),
                        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string()),
                        _ => panic!("{op:?} group {g}: {got:?} vs {want:?}"),
                    }
                    // The non-recursive path really ran — except on the
                    // two-singleton leaf, which only the walk can sum.
                    if let Some(leaves) = &compiled.leaves {
                        let fast = compiled.eval_leaves(leaves, &unions);
                        assert_eq!(fast.is_some(), !(extra && g == 0), "{op:?} group {g}");
                    }
                }
            }
            // Sum over a float leaf holding -0.0 is +0.0 in both (0 + -0.0).
            let unions: Vec<UnionRef<'_>> = rep.root(0).entry(1).children().collect();
            let sum = CompiledAgg::new(tree, nodes, AggOp::Sum(x)).eval(tree, &unions);
            assert_eq!(sum.unwrap(), Value::Float(0.0));
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
            let top = topk_union(rep.ftree(), rep.root(0), &op).unwrap();
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
            assert!(compiled.distinct.is_some(), "{op:?}");
            for (e, want) in rep.root(0).entries().zip(want) {
                let unions: Vec<UnionRef<'_>> = e.children().collect();
                assert_eq!(compiled.eval(tree, &unions).unwrap(), Value::Int(want));
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
