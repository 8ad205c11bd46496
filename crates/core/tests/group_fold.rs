//! The group fold against the plans it replaces. On random single-rooted
//! f-trees — paths and branchings — over data that satisfies the tree's
//! dependencies, a `GroupFold` on one to three nodes of one root path —
//! a prefix of the path or not, chained in path order or in another —
//! must produce the data of a lift-swaps + `γ` reference, and fail where
//! it fails. With one non-root group node the reference is the plan the
//! fold stands for: swaps lifting the node to the root, then `γ` over
//! all its children, compared f-tree and data. With several, the
//! reference lifts the first group node to the root and each next one
//! until an earlier group node is its parent, then, per group, `γ`'s
//! evaluation over the product of the unions left beside the group
//! values; its groups, chained in the fold's order, must be the fold's
//! data, and the fold's f-tree that chain with one aggregate node over
//! every other attribute. In half the cases a partial `γ` off the group
//! nodes' root path runs first, as greedy's step 2 can leave one before
//! the fold. Read for a page, a fold on the top of a random path's root
//! path must hold the slice of the full fold's groups its window names.
//!
//! Two budgets: tier-1 runs a fixed-seed 300 or 1 000 trees per property;
//! the `#[ignore]`d variants run many more
//! (`cargo test --release -p fdb-core --test group_fold -- --ignored`).

use fdb_core::agg::{eval_funcs, fold_funcs, partial_funcs, subtree_provides, FoldWindow};
use fdb_core::frep::{Entry, EntryRef, FRep, Union, UnionRef};
use fdb_core::ftree::{AggOp, FTree, NodeId, NodeLabel};
use fdb_core::ops::{self, AggTarget};
use fdb_core::pipeline::execute;
use fdb_core::plan::{FOp, FPlan};
use fdb_relational::{AttrId, Catalog, CmpOp, Value};
use std::collections::BTreeSet;

/// Deterministic LCG, so every case replays from its seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random tree of 2–6 atomic nodes `a0 … a{n-1}` (node `i`'s parent is
/// an earlier node, so `a0` is the root; with `path`, node `i - 1`) and
/// data over it.
///
/// Each node `i` depends on its parent and on a random set of further
/// ancestors, `S_i`; its values under a context are a pseudo-random
/// function of the values of `S_i` alone. The represented relation is
/// then the join of one relation per node over `{a_i} ∪ S_i`, which the
/// tree's dependencies (those same sets) describe exactly — so a swap
/// may move a subtree that does not depend on the swapped parent, and
/// the swap plan is a correct reference. Each node draws its values
/// from one [`DOMAINS`] entry; with `nulls`, values may be NULL.
fn random_rep(
    rng: &mut Lcg,
    catalog: &mut Catalog,
    nulls: bool,
    path: bool,
) -> (FRep, Vec<AttrId>) {
    let n = 2 + rng.below(5) as usize;
    let attrs: Vec<AttrId> = (0..n).map(|i| catalog.intern(&format!("a{i}"))).collect();
    let mut parent: Vec<Option<usize>> = vec![None];
    for i in 1..n {
        parent.push(Some(if path {
            i - 1
        } else {
            rng.below(i as u64) as usize
        }));
    }
    let domains = (0..n)
        .map(|_| DOMAINS[rng.below(DOMAINS.len() as u64) as usize])
        .collect();
    let mut tree = FTree::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        nodes.push(tree.add_node(
            NodeLabel::Atomic(vec![attrs[i]]),
            parent[i].map(|p| nodes[p]),
        ));
        let mut dep = Vec::new();
        let mut up = parent[i];
        while let Some(a) = up {
            if Some(a) == parent[i] || rng.below(2) == 0 {
                dep.push(a);
            }
            up = parent[a];
        }
        let mut edge: BTreeSet<AttrId> = dep.iter().map(|&a| attrs[a]).collect();
        edge.insert(attrs[i]);
        tree.add_dep(edge);
        deps.push(dep);
    }
    let data = Data {
        seed: rng.next(),
        nulls,
        domains,
        deps,
        nodes,
        children: (0..n)
            .map(|i| (0..n).filter(|&c| parent[c] == Some(i)).collect())
            .collect(),
    };
    let root = data.union(0, &mut vec![Value::Null; n]);
    (FRep::new(tree, vec![root]).unwrap(), attrs)
}

/// The value domains of [`random_rep`]'s nodes, each a map from a draw
/// in `0..7`: dense small `Int`s (one direct span); `Int`s spread wider
/// than any direct span, to both ends of `i64`; strings; floats with
/// both zeros; and two mixes of types and spans, so one walk goes back
/// and forth between the direct and the hashed ids.
const DOMAINS: [fn(u64) -> Value; 6] = [
    |v| Value::Int(v as i64 % 5),
    |v| Value::Int([i64::MIN, -7, -1, 0, 1 << 40, i64::MAX - 1, i64::MAX][v as usize]),
    |v| Value::str(format!("s{}", v % 5)),
    |v| Value::Float([-0.0, 0.0, 1.0, -2.5, 0.5, 4.0, 1.5][v as usize]),
    |v| match v {
        0 => Value::Float(1.0),
        1 => Value::str("1"),
        2 => Value::Int(i64::MAX),
        v => Value::Int(v as i64 - 4),
    },
    |v| Value::Int([0, 1, 2, -3, 1 << 33, 3, 1 << 62][v as usize]),
];

/// How [`random_rep`] generates values.
struct Data {
    seed: u64,
    nulls: bool,
    /// Per node, its values' domain.
    domains: Vec<fn(u64) -> Value>,
    /// Per node, the ancestors it depends on.
    deps: Vec<Vec<usize>>,
    nodes: Vec<NodeId>,
    children: Vec<Vec<usize>>,
}

impl Data {
    /// Node `i`'s union under the ancestor values in `ctx`: its values
    /// are a function of its dependencies' values alone.
    fn union(&self, i: usize, ctx: &mut Vec<Value>) -> Union {
        let mut h = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &d in &self.deps[i] {
            let v = match &ctx[d] {
                Value::Int(x) => *x as u64,
                Value::Float(x) => x.to_bits(),
                Value::Str(s) => s.bytes().map(u64::from).sum(),
                _ => 99,
            };
            h = (h ^ v).wrapping_mul(0x100_0000_01B3);
        }
        let mut rng = Lcg(h);
        let mut vals: Vec<Value> = (0..1 + rng.below(3))
            .map(|_| match rng.below(8) {
                0 if self.nulls => Value::Null,
                v => self.domains[i]((v + 6) % 7),
            })
            .collect();
        vals.sort();
        vals.dedup();
        let entries = vals
            .into_iter()
            .map(|v| {
                ctx[i] = v.clone();
                let children = self.children[i]
                    .iter()
                    .map(|&c| self.union(c, ctx))
                    .collect();
                Entry { value: v, children }
            })
            .collect();
        Union {
            node: self.nodes[i],
            entries,
        }
    }
}

/// One to three final functions over random attributes (the group
/// attribute included), any of the nine. `top_k` draws `k` from 1 to 4
/// or past every group's size (a tree holds at most 3^6 tuples).
fn random_funcs(rng: &mut Lcg, attrs: &[AttrId]) -> Vec<AggOp> {
    let cmps = [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
    (0..1 + rng.below(3))
        .map(|_| {
            let a = attrs[rng.below(attrs.len() as u64) as usize];
            let c = (cmps[rng.below(4) as usize], rng.below(5) as i64);
            match rng.below(9) {
                0 => AggOp::Count,
                1 => AggOp::Sum(a),
                2 => AggOp::Min(a),
                3 => AggOp::Max(a),
                4 => AggOp::Product(a),
                5 => AggOp::Exists(a, c.0, c.1),
                6 => AggOp::Forall(a, c.0, c.1),
                7 => AggOp::CountDistinct(a),
                _ => AggOp::TopK(a, [1, 2, 3, 4, 1000][rng.below(5) as usize]),
            }
        })
        .collect()
}

/// The plan a group fold replaces: swaps lifting `g` to the root, then
/// `γ` over all its children.
fn swap_plan(
    mut rep: FRep,
    g: NodeId,
    funcs: &[AggOp],
    outputs: &[AttrId],
) -> fdb_core::Result<FRep> {
    while let Some(p) = rep.ftree().node(g).parent {
        rep = ops::swap(rep, p, g)?;
    }
    let target = AggTarget {
        parent: Some(g),
        nodes: rep.ftree().node(g).children.clone(),
    };
    ops::aggregate(rep, &target, funcs.to_vec(), outputs.to_vec())
}

/// In half the cases, `rep` with one subtree off `g`'s root path
/// replaced by a partial `γ` of `finals` — what greedy's step 2 can leave
/// before the fold — so the fold reads partial and count components. As
/// in step 2, no subtree that provides a `count(distinct)` attribute is
/// aggregated: which values occur would be lost.
fn maybe_partial(
    rep: &FRep,
    g: NodeId,
    finals: &[AggOp],
    rng: &mut Lcg,
    catalog: &mut Catalog,
) -> FRep {
    let tree = rep.ftree();
    let off: Vec<NodeId> = tree
        .live_nodes()
        .into_iter()
        .filter(|&t| tree.node(t).parent.is_some() && t != g && !tree.is_ancestor(t, g))
        .filter(|&t| {
            let distinct = finals.iter().filter(|f| f.needs_raw_input());
            !distinct.clone().any(|f| subtree_provides(tree, t, f))
        })
        .collect();
    if off.is_empty() || rng.below(2) == 0 {
        return rep.clone();
    }
    let t = off[rng.below(off.len() as u64) as usize];
    let funcs = partial_funcs(tree, &[t], finals);
    let outputs = (0..funcs.len())
        .map(|k| catalog.intern(&format!("partial{k}")))
        .collect();
    let target = AggTarget::subtree(tree, t);
    // A partial that fails (a sum over a NULL) leaves the input as is.
    ops::aggregate(rep.clone(), &target, funcs, outputs).unwrap_or_else(|_| rep.clone())
}

/// A random group set on the root path of a random node `d`: `d` and up
/// to two of its ancestors, chained in path order or shuffled. Never
/// every node of the tree, so something is left to aggregate.
fn random_groups(rng: &mut Lcg, tree: &FTree) -> Vec<NodeId> {
    let nodes = tree.live_nodes();
    let d = nodes[rng.below(nodes.len() as u64) as usize];
    let mut above = tree.root_path(d);
    above.pop();
    let mut groups = vec![d];
    for _ in 0..rng.below(3) {
        if !above.is_empty() {
            groups.push(above.remove(rng.below(above.len() as u64) as usize));
        }
    }
    if groups.len() == nodes.len() {
        groups.pop();
    }
    groups.sort_by_key(|&g| tree.depth(g));
    if rng.below(2) == 0 {
        for i in (1..groups.len()).rev() {
            groups.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    groups
}

/// The groups of `chain` by the lift-swaps + `γ` reference: each group's
/// key (in chain order) and `funcs` over the product of the unions left
/// beside its group values, in key order.
fn chain_reference(
    mut rep: FRep,
    chain: &[NodeId],
    funcs: &[AggOp],
) -> fdb_core::Result<Vec<(Vec<Value>, Value)>> {
    for (i, &g) in chain.iter().enumerate() {
        while let Some(p) = rep
            .ftree()
            .node(g)
            .parent
            .filter(|p| !chain[..i].contains(p))
        {
            rep = ops::swap(rep, p, g)?;
        }
    }
    fn groups(
        rep: &FRep,
        chain: &[NodeId],
        funcs: &[AggOp],
        factors: Vec<UnionRef<'_>>,
        key: &mut Vec<Value>,
        out: &mut Vec<(Vec<Value>, Value)>,
    ) -> fdb_core::Result<()> {
        let Some((&g, rest)) = chain.split_first() else {
            out.push((key.clone(), eval_funcs(rep.ftree(), &factors, funcs)?));
            return Ok(());
        };
        // Every group node is a root or a child of an earlier one.
        let pos = factors.iter().position(|u| u.node() == g).unwrap();
        for e in factors[pos].entries() {
            let mut next = factors.clone();
            next.remove(pos);
            next.extend(e.children());
            key.push(e.value().clone());
            groups(rep, rest, funcs, next, key, out)?;
            key.pop();
        }
        Ok(())
    }
    let mut out = Vec::new();
    let roots = rep.root_unions().collect();
    groups(&rep, chain, funcs, roots, &mut Vec::new(), &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// `groups` (of keys over `chain`) as the chain of unions the fold
/// builds, with each value in a leaf of `agg`.
fn chain_unions(chain: &[NodeId], agg: NodeId, groups: &[(Vec<Value>, Value)]) -> Union {
    let level = chain.len() - groups.first().map_or(0, |(k, _)| k.len());
    let mut entries: Vec<Entry> = Vec::new();
    let mut i = 0;
    while i < groups.len() {
        let v = &groups[i].0[0];
        let j = i + groups[i..].iter().take_while(|(k, _)| k[0] == *v).count();
        let child = if groups[i].0.len() == 1 {
            Union {
                node: agg,
                entries: vec![Entry {
                    value: groups[i].1.clone(),
                    children: Vec::new(),
                }],
            }
        } else {
            let rest: Vec<(Vec<Value>, Value)> = groups[i..j]
                .iter()
                .map(|(k, x)| (k[1..].to_vec(), x.clone()))
                .collect();
            chain_unions(chain, agg, &rest)
        };
        entries.push(Entry {
            value: v.clone(),
            children: vec![child],
        });
        i = j;
    }
    Union {
        node: chain[level],
        entries,
    }
}

/// How many folds of [`fold_matches_the_swap_plan`] succeeded (the rest
/// failed on both sides), how many of them had several group nodes, and
/// how many counted distinct values of an attribute on a group node, on
/// the group nodes' root path, off it, and over NULLs.
#[derive(Debug, Default)]
struct Folds {
    ok: usize,
    several: usize,
    distinct: [usize; 4],
}

/// Runs `cases` random trees; every non-root node is a lone group node
/// once, and three random group sets follow.
fn fold_matches_the_swap_plan(cases: u64, seed: u64) -> Folds {
    let mut folds = Folds::default();
    for case in 0..cases {
        let mut rng = Lcg(seed ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut catalog = Catalog::new();
        let (rep, attrs) = random_rep(&mut rng, &mut catalog, case % 2 == 1, false);
        let tree = rep.ftree();
        let lone = tree
            .live_nodes()
            .into_iter()
            .filter(|&g| tree.node(g).parent.is_some());
        let mut sets: Vec<Vec<NodeId>> = lone.map(|g| vec![g]).collect();
        sets.extend((0..3).map(|_| random_groups(&mut rng, tree)));
        for groups in sets {
            let finals = random_funcs(&mut rng, &attrs);
            let deepest = *groups.iter().max_by_key(|&&g| tree.depth(g)).unwrap();
            let rep = maybe_partial(&rep, deepest, &finals, &mut rng, &mut catalog);
            let funcs = fold_funcs(rep.ftree(), &groups, &finals);
            let outputs: Vec<AttrId> = (0..funcs.len())
                .map(|k| catalog.intern(&format!("out{k}")))
                .collect();
            let plan = FPlan {
                ops: vec![FOp::GroupFold {
                    groups: groups.clone(),
                    funcs: funcs.clone(),
                    outputs: outputs.clone(),
                }],
            };
            let got = execute(&plan, rep.clone()).map(|(r, _)| r);
            let what = || {
                format!(
                    "case {case}, groups {groups:?}, {funcs:?} on\n{}",
                    rep.display(&catalog)
                )
            };
            let want = match groups[..] {
                [g] if rep.ftree().node(g).parent.is_some() => {
                    swap_plan(rep.clone(), g, &funcs, &outputs)
                }
                // The fold's data rebuilt from the reference's groups on
                // the fold's f-tree, which `assert_chain` checks; a fold
                // that failed meets a reference that did not below.
                _ => chain_reference(rep.clone(), &groups, &funcs).map(|want| match &got {
                    Ok(got) if !want.is_empty() => {
                        let agg = got.ftree().node(*groups.last().unwrap()).children[0];
                        let roots = vec![chain_unions(&groups, agg, &want)];
                        FRep::new(got.ftree().clone(), roots).unwrap()
                    }
                    _ => FRep::empty(rep.ftree().clone()),
                }),
            };
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    got.check_invariants().unwrap();
                    assert_eq!(
                        got.ftree().canonical_key(),
                        want.ftree().canonical_key(),
                        "{}",
                        what()
                    );
                    assert!(
                        same_up_to_float_arithmetic(&got, &want, &funcs, &outputs),
                        "{}",
                        what()
                    );
                    assert_chain(&rep, &got, &groups, &funcs, &outputs);
                    folds.ok += 1;
                    folds.several += usize::from(groups.len() > 1);
                    for f in finals.iter().filter(|f| f.needs_raw_input()) {
                        let n = rep.ftree().node_of_attr(f.attr().unwrap()).unwrap();
                        let at = if groups.contains(&n) {
                            0
                        } else if rep.ftree().is_ancestor(n, deepest) {
                            1
                        } else {
                            2
                        };
                        folds.distinct[at] += 1;
                        folds.distinct[3] += usize::from(case % 2 == 1);
                    }
                }
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "{a} vs {b}: {}",
                    what()
                ),
                (got, want) => panic!("fold {got:?} vs reference {want:?}: {}", what()),
            }
        }
    }
    folds
}

/// Whether `got` and `want` hold the same tuples, up to the value
/// arithmetic the engine leaves order-dependent: a `SUM` or `PRODUCT`
/// output that is a float on both sides. Integer terms wrap, and a float
/// term widens whatever the integers wrapped to so far, so the fold and
/// the swap plan, which add and multiply in different orders, can reach
/// different floats from one column that mixes floats with integers
/// (`PRODUCT` of `{i64::MAX, i64::MAX, 1.0}` is `1.0` or `i64::MAX²` by
/// order); `powi` and repeated multiplication also round apart. Every
/// group value and every other output must be equal. (ROADMAP,
/// *Exactness*: wrapping `SUM`/`PRODUCT` should refuse or widen.)
fn same_up_to_float_arithmetic(
    got: &FRep,
    want: &FRep,
    funcs: &[AggOp],
    outputs: &[AttrId],
) -> bool {
    if got.same_data(want) {
        return true;
    }
    let arithmetic: Vec<AttrId> = funcs
        .iter()
        .zip(outputs)
        .filter(|(f, _)| matches!(f, AggOp::Sum(_) | AggOp::Product(_)))
        .map(|(_, &o)| o)
        .collect();
    let tuples = |rep: &FRep| {
        let flat = rep.flatten();
        let mut attrs = flat.schema().attrs().to_vec();
        attrs.sort();
        let mut rows: Vec<Vec<Value>> = flat
            .project_cols(&attrs)
            .rows()
            .map(|row| {
                let float = |(a, v): (&AttrId, &Value)| match v {
                    Value::Float(_) if arithmetic.contains(a) => Value::Float(0.0),
                    v => v.clone(),
                };
                attrs.iter().zip(row).map(float).collect()
            })
            .collect();
        rows.sort();
        rows
    };
    tuples(got) == tuples(want)
}

/// The fold's f-tree: `groups` chained from the root, keeping their ids,
/// and under the last one aggregate node computing `funcs` over every
/// other attribute of the input, with the path constraint kept.
fn assert_chain(input: &FRep, got: &FRep, groups: &[NodeId], funcs: &[AggOp], outputs: &[AttrId]) {
    let tree = got.ftree();
    assert_eq!(tree.roots(), &groups[..1]);
    for w in groups.windows(2) {
        assert_eq!(tree.node(w[0]).children, [w[1]]);
    }
    let [agg] = tree.node(*groups.last().unwrap()).children[..] else {
        panic!("one aggregate node under the last group node");
    };
    let NodeLabel::Agg(label) = &tree.node(agg).label else {
        panic!("an aggregate node under the last group node");
    };
    let mut over = BTreeSet::new();
    for n in input.ftree().live_nodes() {
        match &input.ftree().node(n).label {
            NodeLabel::Atomic(a) if !groups.contains(&n) => over.extend(a.iter().copied()),
            NodeLabel::Agg(l) => over.extend(l.over.iter().copied()),
            NodeLabel::Atomic(_) => {}
        }
    }
    assert_eq!(
        (&label.funcs[..], &label.outputs[..], &label.over),
        (funcs, outputs, &over)
    );
    tree.check_path_constraint().unwrap();
}

/// The rows of `rep` in enumeration order: a chain's groups in order.
fn rows(rep: &FRep) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    rep.for_each_tuple(|row| rows.push(row.to_vec()));
    rows
}

/// How many pages of [`windowed_fold_is_a_slice_of_the_full_fold`]
/// were windowed, how many of those started past the first root entry
/// and how many ended before the last, and how many chains folded every
/// group.
#[derive(Debug, Default)]
struct Pages {
    windowed: usize,
    skipped: usize,
    cut: usize,
    whole: usize,
}

/// Runs `cases` random path trees, five pages each. A fold on the first
/// two or three nodes of the path, in path order, read for the groups
/// `offset..offset + limit` (no limit at times) walks the root entries
/// whose groups overlap the page: the window's `skipped` is the number
/// of the full fold's groups under the root entries before it, and its
/// groups are the full fold's from there on, under the root entries it
/// names. Any other chain (shuffled, not the top of the path, or the
/// root alone) folds every group.
fn windowed_fold_is_a_slice_of_the_full_fold(cases: u64, seed: u64) -> Pages {
    let mut pages = Pages::default();
    for case in 0..cases {
        let mut rng = Lcg(seed ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut catalog = Catalog::new();
        let (rep, attrs) = random_rep(&mut rng, &mut catalog, case % 2 == 1, true);
        let tree = rep.ftree();
        let path = tree.root_path(
            *tree
                .live_nodes()
                .iter()
                .max_by_key(|&&n| tree.depth(n))
                .unwrap(),
        );
        for _ in 0..5 {
            let groups = if rng.below(2) == 0 {
                let k = (2 + rng.below(2) as usize).min(path.len() - 1);
                path[..k].to_vec()
            } else {
                random_groups(&mut rng, tree)
            };
            let finals = random_funcs(&mut rng, &attrs);
            let deepest = *groups.iter().max_by_key(|&&g| tree.depth(g)).unwrap();
            let rep = maybe_partial(&rep, deepest, &finals, &mut rng, &mut catalog);
            let funcs = fold_funcs(rep.ftree(), &groups, &finals);
            let outputs: Vec<AttrId> = (0..funcs.len())
                .map(|k| catalog.intern(&format!("out{k}")))
                .collect();
            let fold = |page| {
                ops::aggregate::group_fold_page(
                    rep.clone(),
                    &groups,
                    funcs.clone(),
                    outputs.clone(),
                    page,
                )
            };
            // An error in a group outside the window is never met.
            let Ok((full, None)) = fold(None) else {
                continue;
            };
            let all = rows(&full);
            let offset = rng.below(all.len() as u64 + 3) as usize;
            let end = match rng.below(4) {
                0 => usize::MAX,
                _ => offset + rng.below(all.len() as u64 / 2 + 2) as usize,
            };
            let what = format!(
                "case {case}, groups {groups:?}, page {offset}..{end}, {funcs:?} on\n{}",
                rep.display(&catalog)
            );
            let (got, window) = fold(Some(offset..end)).unwrap();
            if groups.len() == 1 || groups != rep.ftree().root_path(deepest) {
                assert_eq!(window, None, "{what}");
                assert!(got.same_data(&full), "{what}");
                pages.whole += 1;
                continue;
            }
            // The full fold's root entries and how many groups each holds.
            fn tuples(e: EntryRef<'_>) -> usize {
                let union = |u: UnionRef<'_>| u.entries().map(tuples).sum::<usize>();
                e.children().map(union).product()
            }
            let held: Vec<usize> = full.root(0).entries().map(tuples).collect();
            let before = |i: usize| held[..i].iter().sum::<usize>();
            let n = held.len();
            let first = (0..n).find(|&i| before(i + 1) > offset).unwrap_or(n);
            let last = (first..n).find(|&i| before(i) >= end).unwrap_or(n);
            let want = FoldWindow {
                roots: first..last,
                of: n,
                skipped: before(first),
            };
            assert_eq!(window.as_ref(), Some(&want), "{what}");
            assert_eq!(rows(&got)[..], all[want.skipped..before(last)], "{what}");
            pages.windowed += 1;
            pages.skipped += usize::from(first > 0);
            pages.cut += usize::from(last < n);
        }
    }
    pages
}

#[test]
fn group_fold_matches_the_swap_plan() {
    let folds = fold_matches_the_swap_plan(300, 0xF01D);
    // Most cases evaluate: only a sum over a NULL fails on both sides.
    assert!(
        folds.ok > 1200 && folds.several > 250 && folds.distinct.iter().all(|&n| n > 20),
        "{folds:?}"
    );
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn group_fold_matches_the_swap_plan_long() {
    fold_matches_the_swap_plan(200_000, 0x5EED);
}

#[test]
fn a_page_of_a_path_prefix_fold_is_a_slice_of_the_full_fold() {
    let pages = windowed_fold_is_a_slice_of_the_full_fold(1000, 0x9A6E);
    assert!(
        pages.windowed > 2000 && pages.skipped > 1300 && pages.cut > 280 && pages.whole > 2200,
        "{pages:?}"
    );
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn a_page_of_a_path_prefix_fold_is_a_slice_of_the_full_fold_long() {
    windowed_fold_is_a_slice_of_the_full_fold(100_000, 0x9A6F);
}
