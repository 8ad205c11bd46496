//! Operator semantics against the relational definitions, on random data:
//! each f-plan operator must transform the *represented relation* exactly
//! as its relational counterpart transforms the flat relation.
//!
//! `γ` against the relational group aggregate, the constant selection
//! against the relational one, and a run of selections followed by `γ`
//! against the relational selection and group aggregate have two budgets
//! each: tier-1 runs a
//! fixed-seed few dozen (or hundred) relations; the `#[ignore]`d
//! variants run many more
//! (`cargo test --release -p fdb-core --test op_semantics -- --ignored`).

use fdb_core::agg::partial_funcs;
use fdb_core::frep::{value_for_attr, FRep, UnionRef};
use fdb_core::ftree::{AggOp, FTree, NodeId, NodeLabel};
use fdb_core::ops;
use fdb_core::pipeline;
use fdb_core::plan::{FOp, FPlan};
use fdb_relational::ops as rel_ops;
use fdb_relational::{
    AggFunc, AggSpec, AttrId, Catalog, CmpOp, GroupStrategy, Predicate, Relation, Schema, Value,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn catalog3() -> (Catalog, [fdb_relational::AttrId; 3]) {
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    (c, [x, y, z])
}

fn rel3(attrs: &[fdb_relational::AttrId; 3], rows: &[(i64, i64, i64)]) -> Relation {
    Relation::from_rows(
        Schema::new(attrs.to_vec()),
        rows.iter()
            .map(|&(a, b, d)| vec![Value::Int(a), Value::Int(b), Value::Int(d)]),
    )
    .canonical()
}

/// `L(p, b) ⋈ R(p, b2)` factorised over the branching f-tree
/// `p → {b, b2}`, which the join satisfies by construction.
fn siblings(l: &[(i64, i64)], r: &[(i64, i64)]) -> (Relation, FRep, [fdb_relational::AttrId; 3]) {
    let mut c = Catalog::new();
    let [p, b, b2] = ["p", "b", "b2"].map(|n| c.intern(n));
    let mut rows = Vec::new();
    for &(lp, lb) in l {
        for &(rp, rb) in r {
            if lp == rp {
                rows.push(vec![Value::Int(lp), Value::Int(lb), Value::Int(rb)]);
            }
        }
    }
    let rel = Relation::from_rows(Schema::new(vec![p, b, b2]), rows).canonical();
    let mut t = FTree::new();
    let np = t.add_node(NodeLabel::Atomic(vec![p]), None);
    t.add_node(NodeLabel::Atomic(vec![b]), Some(np));
    t.add_node(NodeLabel::Atomic(vec![b2]), Some(np));
    t.add_dep([p, b]);
    t.add_dep([p, b2]);
    let rep = FRep::from_relation(&rel, t).unwrap();
    (rel, rep, [p, b, b2])
}

const CMP: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Every aggregation function `γ` evaluates, over attribute `a`: the
/// relational definitions the factorised ones are held to.
fn nine_funcs(a: AttrId, cmp: CmpOp, c: i64, k: usize) -> [AggFunc; 9] {
    [
        AggFunc::Count,
        AggFunc::Sum(a),
        AggFunc::Min(a),
        AggFunc::Max(a),
        AggFunc::Product(a),
        AggFunc::Exists(a, cmp, c),
        AggFunc::Forall(a, cmp, c),
        AggFunc::TopK(a, k),
        AggFunc::CountDistinct(a),
    ]
}

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

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// `γ` against the relational group aggregate on `cases` random relations
/// `(x, y, z)` over the path `x → y → z`, drawn from `seed`: for every
/// function, `γ` over the subtree rooted at y groups by x. The same `γ`
/// over a partial `γ` of z's subtree — with a count beside it, so the
/// partial is a composite — reads z from partial components.
fn aggregate_matches(cases: usize, seed: u64) {
    let mut rng = Lcg(seed);
    for case in 0..cases {
        let n = rng.below(30);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| (rng.range(0, 5), rng.range(0, 5), rng.range(-5, 5)))
            .collect();
        let (cmp, c, k) = (
            CMP[rng.below(6) as usize],
            rng.range(-5, 5),
            rng.range(1, 5),
        );
        let (mut catalog, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        if rel.is_empty() {
            continue;
        }
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let ny = rep.ftree().node_of_attr(attrs[1]).unwrap();
        let nz = rep.ftree().node_of_attr(attrs[2]).unwrap();
        let out = catalog.intern("out");
        for ffunc in nine_funcs(attrs[2], cmp, c, k as usize) {
            let what = format!("case {case}, {ffunc:?} on {rows:?}");
            let fop = AggOp::from_func(ffunc).unwrap();
            let target = ops::AggTarget::subtree(rep.ftree(), ny);
            let agged = ops::aggregate(rep.clone(), &target, vec![fop], vec![out]).unwrap();
            assert!(agged.check_invariants().is_ok(), "{what}");
            // Deterministic structurally, not just as a set: the same γ
            // on a rebuilt input.
            let rebuilt = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
            let again = ops::aggregate(rebuilt, &target, vec![fop], vec![out]).unwrap();
            assert!(again.check_invariants().is_ok(), "{what}");
            assert!(again.same_data(&agged), "{what}");
            let expected = rel_ops::group_aggregate(
                &rel,
                &[attrs[0]],
                &[AggSpec::new(ffunc, out).into()],
                GroupStrategy::Sort,
            )
            .canonical();
            let got = agged.flatten().project_cols(&[attrs[0], out]).canonical();
            assert_eq!(got, expected.clone(), "{what}");

            let partials = partial_funcs(rep.ftree(), &[nz], &[fop, AggOp::Count]);
            let names = (0..partials.len())
                .map(|i| catalog.intern(&format!("p{i}")))
                .collect();
            let target_z = ops::AggTarget::subtree(rep.ftree(), nz);
            let partial = ops::aggregate(rep.clone(), &target_z, partials, names).unwrap();
            let target = ops::AggTarget::subtree(partial.ftree(), ny);
            let two = ops::aggregate(partial, &target, vec![fop], vec![out]);
            if fop.needs_raw_input() {
                // Which values occur is lost in a partial: refused.
                assert!(two.is_err(), "{what}");
            } else {
                let got = two
                    .unwrap()
                    .flatten()
                    .project_cols(&[attrs[0], out])
                    .canonical();
                assert_eq!(got, expected, "{what} over a partial");
            }
        }
    }
}

#[test]
fn aggregate_matches_relational_group_aggregate() {
    aggregate_matches(64, 0xA66);
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn aggregate_matches_relational_group_aggregate_long() {
    aggregate_matches(60_000, 0x5EED);
}

/// The relation `R(x, y, z) ⋈ S(x, w)` factorised over the branching
/// f-tree `x → {y → z, w}`, which the join satisfies by construction.
fn branching(
    catalog: &mut Catalog,
    attrs: &[AttrId; 3],
    rows: &[(i64, i64, i64)],
    ws: &[(i64, i64)],
) -> (Relation, FRep, AttrId) {
    let [x, y, z] = *attrs;
    let w = catalog.intern("w");
    let mut joined = Vec::new();
    for &(a, b, c) in rows {
        for &(_, d) in ws.iter().filter(|&&(wx, _)| wx == a) {
            joined.push([a, b, c, d].map(Value::Int).to_vec());
        }
    }
    let rel = Relation::from_rows(Schema::new(vec![x, y, z, w]), joined).canonical();
    let mut t = FTree::new();
    let nx = t.add_node(NodeLabel::Atomic(vec![x]), None);
    let ny = t.add_node(NodeLabel::Atomic(vec![y]), Some(nx));
    t.add_node(NodeLabel::Atomic(vec![z]), Some(ny));
    t.add_node(NodeLabel::Atomic(vec![w]), Some(nx));
    t.add_dep([x, y, z]);
    t.add_dep([x, w]);
    let rep = FRep::from_relation(&rel, t).unwrap();
    (rel, rep, w)
}

/// The plan `[σ, (σ,) γ]` through the plan executor against the
/// relational selection and group aggregate, on `cases` random relations
/// from `seed`. One or two selections, each with any `θ` and a constant
/// below, inside or above its column (so a group, or the whole relation,
/// may lose every tuple) on any attribute; then `γ` of every function over
/// z — over y's subtree grouping by x on the path `x → y → z`, over `y`
/// and `w` grouping by x on the branching `x → {y → z, w}`, and over the
/// root on both. A selection run whose nodes all lie inside the targets
/// is read by the `γ` as a mask, in one pass; any other stays a pass of
/// its own.
fn aggregate_after_selection(cases: usize, seed: u64) {
    let mut rng = Lcg(seed);
    for case in 0..cases {
        let n = rng.below(30);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| (rng.range(0, 5), rng.range(0, 5), rng.range(-5, 5)))
            .collect();
        let ws: Vec<(i64, i64)> = (0..1 + rng.below(12))
            .map(|_| (rng.range(0, 5), rng.range(0, 5)))
            .collect();
        let (cmp, c, k) = (
            CMP[rng.below(6) as usize],
            rng.range(-5, 5),
            rng.range(1, 5) as usize,
        );
        let (mut catalog, attrs) = catalog3();
        let [x, y, z] = attrs;
        let out = catalog.intern("out");
        let path_rel = rel3(&attrs, &rows);
        let path = FRep::from_relation(&path_rel, FTree::path(&attrs)).unwrap();
        let (branch_rel, branch, w) = branching(&mut catalog, &attrs, &rows, &ws);
        let filters: Vec<(AttrId, CmpOp, Value)> = (0..1 + rng.below(2))
            .map(|_| {
                let attr = [x, y, z, w][rng.below(4) as usize];
                (
                    attr,
                    CMP[rng.below(6) as usize],
                    Value::Int(rng.range(-7, 7)),
                )
            })
            .collect();
        for (shape, rel, rep) in [
            ("path", &path_rel, &path),
            ("branching", &branch_rel, &branch),
        ] {
            if rel.is_empty() {
                continue;
            }
            // On the path, w is absent: select on x instead.
            let filters: Vec<(AttrId, CmpOp, Value)> = filters
                .iter()
                .map(|(a, o, v)| {
                    let a = if rep.ftree().node_of_attr(*a).is_some() {
                        *a
                    } else {
                        x
                    };
                    (a, *o, v.clone())
                })
                .collect();
            let preds: Vec<Predicate> = filters
                .iter()
                .map(|(a, o, v)| Predicate::AttrCmp(*a, *o, v.clone()))
                .collect();
            let selected = rel_ops::select(rel, &preds);
            let tree = rep.ftree();
            let node = |a| tree.node_of_attr(a).unwrap();
            let below_x: Vec<NodeId> = tree.node(node(x)).children.clone();
            for (parent, targets, group) in [
                (Some(node(x)), below_x, vec![x]),
                (None, vec![node(x)], vec![]),
            ] {
                let inside = parent.is_none() || filters.iter().all(|f| f.0 != x);
                for ffunc in nine_funcs(z, cmp, c, k) {
                    let what = format!(
                        "case {case}, {shape}, {filters:?}, {ffunc:?} by {group:?} on {rel:?}"
                    );
                    let fop = AggOp::from_func(ffunc).unwrap();
                    let mut plan = FPlan::new();
                    for (attr, op, value) in &filters {
                        plan.push(FOp::SelectConst {
                            attr: *attr,
                            op: *op,
                            value: value.clone(),
                        });
                    }
                    plan.push(FOp::Aggregate {
                        parent,
                        targets: targets.clone(),
                        funcs: vec![fop],
                        outputs: vec![out],
                    });
                    let (got, stats) = pipeline::execute(&plan, rep.clone()).unwrap();
                    assert!(got.check_invariants().is_ok(), "{what}");
                    assert_eq!(stats.stages, if inside { 1 } else { 2 }, "{what}");
                    let mut cols = group.clone();
                    cols.push(out);
                    let got = got.flatten().project_cols(&cols).canonical();
                    if selected.is_empty() {
                        // No tuple, no group: the empty relation.
                        assert!(got.is_empty(), "{what}");
                        continue;
                    }
                    let spec = AggSpec::new(ffunc, out).into();
                    let want =
                        rel_ops::group_aggregate(&selected, &group, &[spec], GroupStrategy::Sort);
                    assert_eq!(got, want.canonical(), "{what}");
                }
            }
        }
    }
}

#[test]
fn aggregate_matches_after_selection() {
    aggregate_after_selection(48, 0x5E1A);
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn aggregate_matches_after_selection_long() {
    aggregate_after_selection(20_000, 0x5EED);
}

/// The number of unions of `rep` (shared ones once) that a selection
/// keeping the values of `node` that satisfy `keep` must rewrite: those
/// with an entry that fails, or an entry whose child on the root path to
/// `node` must be rewritten.
fn unions_to_rewrite(rep: &FRep, node: NodeId, keep: &dyn Fn(&Value) -> bool) -> usize {
    fn walk(
        u: UnionRef<'_>,
        path: &[NodeId],
        keep: &dyn Fn(&Value) -> bool,
        seen: &mut HashMap<u32, bool>,
    ) -> bool {
        if let Some(&c) = seen.get(&u.id().0) {
            return c;
        }
        let changes = match path {
            [_] => u.entries().any(|e| !keep(e.value())),
            // Every entry's child is walked: a later one may change too.
            [_, next, ..] => u.entries().fold(false, |changes, e| {
                let k = e.children().position(|c| c.node() == *next).unwrap();
                walk(e.child(k), &path[1..], keep, seen) || changes
            }),
            [] => unreachable!(),
        };
        seen.insert(u.id().0, changes);
        changes
    }
    let path = rep.ftree().root_path(node);
    let mut seen = HashMap::new();
    for r in rep.root_unions().filter(|r| r.node() == path[0]) {
        walk(r, &path, keep, &mut seen);
    }
    seen.values().filter(|&&c| c).count()
}

/// The shapes [`select_matches`] selects on: a relation, its
/// factorisation, and the attribute selected.
fn selection_inputs(rng: &mut Lcg) -> Vec<(&'static str, Relation, FRep, AttrId)> {
    // Even values, so odd constants are absent from every column; z may
    // hold NULLs. No rows at all selects on an empty root union.
    let n = rng.below(26);
    let rows: Vec<[Value; 3]> = (0..n)
        .map(|_| {
            let z = match rng.below(8) {
                0 => Value::Null,
                v => Value::Int(2 * v as i64 - 2),
            };
            [
                Value::Int(2 * rng.range(0, 4)),
                Value::Int(2 * rng.range(0, 4)),
                z,
            ]
        })
        .collect();
    let (mut catalog, attrs) = catalog3();
    let [x, y, z] = attrs;
    let rel = Relation::from_rows(Schema::new(attrs.to_vec()), rows.iter().map(|r| r.to_vec()))
        .canonical();
    let path = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    let mut out = vec![
        ("root", rel.clone(), path.clone(), x),
        ("inner", rel.clone(), path.clone(), y),
        ("leaf", rel.clone(), path.clone(), z),
    ];
    // Swapped: y on top, x and z below it, sharing their fragments.
    let (nx, ny) = (
        path.ftree().node_of_attr(x).unwrap(),
        path.ftree().node_of_attr(y).unwrap(),
    );
    let swapped = ops::swap(path.clone(), nx, ny).unwrap();
    out.push(("swapped leaf", rel.clone(), swapped.clone(), z));
    out.push(("swapped inner", rel.clone(), swapped, x));
    // A merged class {y, w} at the root, x and z below it: the join of
    // (y, x) and (w, z) on y = w.
    let w = catalog.intern("w");
    let left = rel.project_cols(&[y, x]).canonical();
    let right_rows = rel.rows().map(|r| vec![r[1].clone(), r[2].clone()]);
    let right = Relation::from_rows(Schema::new(vec![w, z]), right_rows).canonical();
    let l = FRep::from_relation(&left, FTree::path(&[y, x])).unwrap();
    let r = FRep::from_relation(&right, FTree::path(&[w, z])).unwrap();
    let joined = ops::product(l, r);
    let (a, b) = (joined.ftree().roots()[0], joined.ftree().roots()[1]);
    let merged = ops::merge(joined, a, b).unwrap();
    let mut joined_rows = Vec::new();
    for lr in left.rows() {
        for rr in right.rows().filter(|rr| rr[0] == lr[0]) {
            joined_rows.push(vec![
                lr[0].clone(),
                lr[1].clone(),
                rr[0].clone(),
                rr[1].clone(),
            ]);
        }
    }
    let joined = Relation::from_rows(Schema::new(vec![y, x, w, z]), joined_rows).canonical();
    out.push(("merged", joined, merged, w));
    // An aggregate output, as `HAVING` reads it: x → (sum z, count).
    let (s, c) = (catalog.intern("s"), catalog.intern("c"));
    let target = ops::AggTarget::subtree(path.ftree(), ny);
    let funcs = vec![AggOp::Sum(z), AggOp::Count];
    if let Ok(agged) = ops::aggregate(path, &target, funcs, vec![s, c]) {
        let specs = [
            AggSpec::new(AggFunc::Sum(z), s),
            AggSpec::new(AggFunc::Count, c),
        ];
        let specs: Vec<_> = specs.into_iter().map(Into::into).collect();
        let grouped = rel_ops::group_aggregate(&rel, &[x], &specs, GroupStrategy::Sort);
        out.push(("aggregate", grouped.clone(), agged.clone(), s));
        out.push(("aggregate count", grouped, agged, c));
    }
    out
}

/// Constant selections against the relational selection on `cases`
/// random relations from `seed`: every `θ`, with constants below, inside
/// (present and absent), and above the column, and `NULL`, `Float` and
/// `Str` constants, on every shape of [`selection_inputs`]. Each result
/// appends no more unions than [`unions_to_rewrite`] counts — none when
/// every entry passes, the input then shared whole.
fn select_matches(cases: usize, seed: u64) {
    let mut rng = Lcg(seed);
    let constants = [
        Value::Int(-1),
        Value::Int(3),
        Value::Int(4),
        Value::Int(99),
        Value::Null,
        Value::Float(4.0),
        Value::str("4"),
    ];
    for case in 0..cases {
        for (shape, rel, rep, attr) in selection_inputs(&mut rng) {
            for op in CMP {
                let c = &constants[rng.below(constants.len() as u64) as usize];
                let what = format!("case {case}, {shape}, {op:?} {c:?} on\n{rel:?}");
                let node = rep.ftree().node_of_attr(attr).unwrap();
                let label = rep.ftree().node(node).label.clone();
                let keep = |v: &Value| {
                    let v = value_for_attr(&label, v, attr).unwrap();
                    op.eval(v.cmp(c))
                };
                let bound = unions_to_rewrite(&rep, node, &keep);
                let before = rep.stats().unions;
                let root = rep.root_ids().to_vec();
                let got = ops::select_const(rep.clone(), attr, op, c).unwrap();
                assert!(got.check_invariants().is_ok(), "{what}");
                let appended = got.stats().unions - before;
                assert!(appended <= bound, "{appended} > {bound} unions: {what}");
                if bound == 0 {
                    assert_eq!(got.root_ids(), root, "{what}");
                }
                let want = rel_ops::select(&rel, &[Predicate::AttrCmp(attr, op, c.clone())]);
                let attrs = want.schema().attrs().to_vec();
                let got = got.flatten().project_cols(&attrs).canonical();
                assert_eq!(got, want.canonical(), "{what}");
            }
        }
    }
}

#[test]
fn select_const_matches_relational_selection() {
    select_matches(120, 0x5E1);
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn select_const_matches_relational_selection_long() {
    select_matches(40_000, 0x5EED);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn merge_implements_natural_join(
        l in prop::collection::vec((0i64..5, 0i64..5), 0..20),
        r in prop::collection::vec((0i64..5, 0i64..5), 0..20),
    ) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let b2 = c.intern("b2");
        let d = c.intern("d");
        let left = Relation::from_rows(
            Schema::new(vec![a, b]),
            l.iter().map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
        ).canonical();
        let right = Relation::from_rows(
            Schema::new(vec![b2, d]),
            r.iter().map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
        ).canonical();
        // FDB join: trie with join attr at the root on the left (swap b
        // up), product, merge roots.
        let lrep = FRep::from_relation(&left, FTree::path(&[b, a])).unwrap();
        let rrep = FRep::from_relation(&right, FTree::path(&[b2, d])).unwrap();
        let nb = lrep.ftree().roots()[0];
        let joined = ops::product(lrep, rrep);
        let nb2 = joined.ftree().roots()[1];
        let merged = ops::merge(joined, nb, nb2).unwrap();
        prop_assert!(merged.check_invariants().is_ok());
        // Compare against the relational natural join (b = b2), dropping
        // the duplicate column: the merged class exposes both b and b2
        // with equal values.
        let renamed_right = right.project_cols(&[b2, d]);
        let mut expected_rows: Vec<Vec<Value>> = Vec::new();
        for lr in left.rows() {
            for rr in renamed_right.rows() {
                if lr[1] == rr[0] {
                    expected_rows.push(vec![
                        lr[1].clone(), // b
                        rr[0].clone(), // b2 (equal)
                        lr[0].clone(), // a
                        rr[1].clone(), // d
                    ]);
                }
            }
        }
        let expected = Relation::from_rows(
            Schema::new(vec![b, b2, a, d]),
            expected_rows,
        ).canonical();
        let got = merged.flatten().project_cols(&[b, b2, a, d]).canonical();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn absorb_implements_equality_selection(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..25),
    ) {
        let (_, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let nx = rep.ftree().node_of_attr(attrs[0]).unwrap();
        let nz = rep.ftree().node_of_attr(attrs[2]).unwrap();
        let absorbed = ops::absorb(rep, nx, nz).unwrap();
        prop_assert!(absorbed.check_invariants().is_ok());
        let expected = rel_ops::select(&rel, &[Predicate::AttrEq(attrs[0], attrs[2])]);
        let got = absorbed.flatten().project_cols(&attrs).canonical();
        prop_assert_eq!(got, expected.canonical());
    }

    #[test]
    fn project_away_implements_projection(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..25),
        victim in 0usize..3,
    ) {
        let (_, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let projected = ops::project_away(rep, attrs[victim]).unwrap();
        prop_assert!(projected.check_invariants().is_ok());
        let keep: Vec<_> = attrs
            .iter()
            .copied()
            .filter(|&a| a != attrs[victim])
            .collect();
        let expected = rel_ops::project(&rel, &keep, true);
        let got = projected.flatten().project_cols(&keep).canonical();
        prop_assert_eq!(got, expected.canonical());
    }

    #[test]
    fn merge_of_inner_siblings_implements_equality_selection(
        l in prop::collection::vec((0i64..3, 0i64..4), 0..15),
        r in prop::collection::vec((0i64..3, 0i64..4), 0..15),
    ) {
        // p → {b, b2}: the merge intersects the b- and b2-unions under
        // every p-entry and prunes the p-entries left without a match.
        let (rel, rep, [p, b, b2]) = siblings(&l, &r);
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let nb2 = rep.ftree().node_of_attr(b2).unwrap();
        let merged = ops::merge(rep, nb, nb2).unwrap();
        prop_assert!(merged.check_invariants().is_ok());
        let expected = rel_ops::select(&rel, &[Predicate::AttrEq(b, b2)]);
        let got = merged.flatten().project_cols(&[p, b, b2]).canonical();
        prop_assert_eq!(got, expected.canonical());
    }

    #[test]
    fn remove_leaf_implements_projection(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..25),
        l in prop::collection::vec((0i64..3, 0i64..4), 0..15),
        r in prop::collection::vec((0i64..3, 0i64..4), 0..15),
    ) {
        // The leaf of a path, and one leaf of a branching node.
        let (_, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let nz = rep.ftree().node_of_attr(attrs[2]).unwrap();
        let out = ops::remove_leaf(rep, nz).unwrap();
        prop_assert!(out.check_invariants().is_ok());
        let keep = [attrs[0], attrs[1]];
        let expected = rel_ops::project(&rel, &keep, true);
        prop_assert_eq!(out.flatten().project_cols(&keep).canonical(), expected.canonical());

        let (rel, rep, [p, b, b2]) = siblings(&l, &r);
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let out = ops::remove_leaf(rep, nb).unwrap();
        prop_assert!(out.check_invariants().is_ok());
        let expected = rel_ops::project(&rel, &[p, b2], true);
        prop_assert_eq!(out.flatten().project_cols(&[p, b2]).canonical(), expected.canonical());
    }

    #[test]
    fn root_aggregate_matches_relational_global(
        rows in prop::collection::vec((0i64..5, 0i64..5, -5i64..5), 1..30),
    ) {
        // Root-level (single-group) reduction through the recursive
        // evaluators.
        let (mut c, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let out = c.intern("total");
        let roots = rep.ftree().roots().to_vec();
        let agged = ops::aggregate(
            rep,
            &ops::AggTarget { parent: None, nodes: roots },
            vec![AggOp::Sum(attrs[2])],
            vec![out],
        )
        .unwrap();
        let expected = rel_ops::group_aggregate(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Sum(attrs[2]), out).into()],
            GroupStrategy::Sort,
        );
        prop_assert_eq!(agged.flatten().canonical(), expected.canonical());
    }

    #[test]
    fn swap_chains_preserve_semantics_and_invariants(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..4), 1..20),
        swaps in prop::collection::vec(any::<bool>(), 1..6),
    ) {
        let (_, attrs) = catalog3();
        let rel = rel3(&attrs, &rows);
        let mut rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        // Random walk over applicable swaps: every intermediate state must
        // be a valid representation of the same relation.
        for pick_first in swaps {
            let candidates: Vec<(fdb_core::NodeId, fdb_core::NodeId)> = rep
                .ftree()
                .live_nodes()
                .into_iter()
                .filter_map(|n| rep.ftree().node(n).parent.map(|p| (p, n)))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let (p, n) = if pick_first {
                candidates[0]
            } else {
                candidates[candidates.len() - 1]
            };
            rep = ops::swap(rep, p, n).unwrap();
            prop_assert!(rep.check_invariants().is_ok());
            prop_assert!(rep.ftree().check_path_constraint().is_ok());
            prop_assert_eq!(
                rep.flatten().project_cols(&attrs).canonical(),
                rel.clone()
            );
        }
    }
}

#[test]
fn aggregate_empty_union_edge_case() {
    // Aggregating an empty relation must stay the empty relation (the
    // only place empty unions are representable is at the roots).
    let (mut c, attrs) = catalog3();
    let rel = Relation::empty(Schema::new(attrs.to_vec()));
    let out = c.intern("n");
    let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    let roots = rep.ftree().roots().to_vec();
    let agged = ops::aggregate(
        rep,
        &ops::AggTarget {
            parent: None,
            nodes: roots,
        },
        vec![AggOp::Count],
        vec![out],
    )
    .unwrap();
    assert!(agged.is_empty());
    let expected = rel_ops::group_aggregate(
        &rel,
        &[],
        &[AggSpec::new(AggFunc::Count, out).into()],
        GroupStrategy::Sort,
    );
    assert!(expected.is_empty());
}

#[test]
fn aggregate_single_child_union_edge_case() {
    // A parent union with exactly one entry must still match relational
    // ground truth.
    let (mut c, attrs) = catalog3();
    let rows: Vec<(i64, i64, i64)> = (0..24).map(|i| (7, i % 6, i % 4)).collect();
    let rel = rel3(&attrs, &rows);
    let out = c.intern("s");
    let expected = rel_ops::group_aggregate(
        &rel,
        &[attrs[0]],
        &[AggSpec::new(AggFunc::Sum(attrs[2]), out).into()],
        GroupStrategy::Sort,
    )
    .canonical();
    let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    assert_eq!(rep.root(0).len(), 1, "single x value");
    let ny = rep.ftree().node_of_attr(attrs[1]).unwrap();
    let target = ops::AggTarget::subtree(rep.ftree(), ny);
    let agged = ops::aggregate(rep, &target, vec![AggOp::Sum(attrs[2])], vec![out]).unwrap();
    assert_eq!(
        agged.flatten().project_cols(&[attrs[0], out]).canonical(),
        expected
    );
}

#[test]
fn aggregate_skewed_child_sizes_edge_case() {
    // One group holds almost all the data, the rest are singletons: the
    // groups are maximally unbalanced and must still agree with
    // relational ground truth.
    let (mut c, attrs) = catalog3();
    let mut rows: Vec<(i64, i64, i64)> = (0..90).map(|i| (0, i % 9, i % 7)).collect();
    rows.extend((1..12).map(|g| (g, 0, g)));
    let rel = rel3(&attrs, &rows);
    let out = c.intern("agg");
    for ffunc in nine_funcs(attrs[2], CmpOp::Gt, 3, 4) {
        let fop = AggOp::from_func(ffunc).unwrap();
        let expected = rel_ops::group_aggregate(
            &rel,
            &[attrs[0]],
            &[AggSpec::new(ffunc, out).into()],
            GroupStrategy::Sort,
        )
        .canonical();
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let ny = rep.ftree().node_of_attr(attrs[1]).unwrap();
        let target = ops::AggTarget::subtree(rep.ftree(), ny);
        let agged = ops::aggregate(rep, &target, vec![fop], vec![out]).unwrap();
        assert_eq!(
            agged.flatten().project_cols(&[attrs[0], out]).canonical(),
            expected,
            "{fop:?}"
        );
    }
}

#[test]
fn having_on_composite_aggregate_node() {
    // Selections on aggregate outputs must read the right component of a
    // composite (sum, count) value.
    let (mut c, attrs) = catalog3();
    let rel = rel3(
        &attrs,
        &[(1, 1, 4), (1, 2, 6), (2, 1, 1), (2, 2, 1), (2, 3, 1)],
    );
    let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    let ny = rep.ftree().node_of_attr(attrs[1]).unwrap();
    let s = c.intern("s");
    let n = c.intern("n");
    let target = ops::AggTarget::subtree(rep.ftree(), ny);
    let agged = ops::aggregate(
        rep,
        &target,
        vec![AggOp::Sum(attrs[2]), AggOp::Count],
        vec![s, n],
    )
    .unwrap();
    // HAVING s > 5: keeps only x=1 (sum 10 vs sum 3).
    let filtered = ops::select_const(agged.clone(), s, CmpOp::Gt, &Value::Int(5)).unwrap();
    assert_eq!(filtered.tuple_count(), 1);
    // HAVING n >= 3: keeps only x=2 (count 3).
    let filtered = ops::select_const(agged, n, CmpOp::Ge, &Value::Int(3)).unwrap();
    assert_eq!(filtered.tuple_count(), 1);
    let flat = filtered.flatten();
    assert_eq!(flat.row(0)[0], Value::Int(2));
}

#[test]
fn aggregate_multiple_sibling_targets_at_once() {
    // γ over two sibling subtrees jointly: counts multiply (product
    // semantics) — build a branching tree x → {y, z}.
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    let rows: Vec<Vec<Value>> = (0..2)
        .flat_map(|a| {
            (0..3).flat_map(move |b| {
                (0..2).map(move |d| vec![Value::Int(a), Value::Int(a + b), Value::Int(d * 3 - a)])
            })
        })
        .collect();
    let rel = Relation::from_rows(Schema::new(vec![x, y, z]), rows);
    let mut t = FTree::new();
    let nx = t.add_node(NodeLabel::Atomic(vec![x]), None);
    let ny = t.add_node(NodeLabel::Atomic(vec![y]), Some(nx));
    let nz = t.add_node(NodeLabel::Atomic(vec![z]), Some(nx));
    t.add_dep([x, y]);
    t.add_dep([x, z]);
    let rep = FRep::from_relation(&rel, t).unwrap();
    let out = c.intern("n");
    let target = ops::AggTarget {
        parent: Some(nx),
        nodes: vec![ny, nz],
    };
    let agged = ops::aggregate(rep.clone(), &target, vec![AggOp::Count], vec![out]).unwrap();
    // Each x group holds 3 × 2 = 6 tuples.
    let flat = agged.flatten();
    assert_eq!(flat.len(), 2);
    assert_eq!(flat.row(0)[1], Value::Int(6));
    assert_eq!(flat.row(1)[1], Value::Int(6));

    // Functions whose providers sit at different factor positions — z's
    // second, y's first, none for the count — in one γ, one composite
    // node: each is resolved against its own provider.
    let funcs = [
        AggFunc::Sum(z),
        AggFunc::Min(y),
        AggFunc::CountDistinct(y),
        AggFunc::Count,
    ];
    let outs: Vec<AttrId> = (0..funcs.len())
        .map(|i| c.intern(&format!("f{i}")))
        .collect();
    let aggs = funcs.map(|f| AggOp::from_func(f).unwrap()).to_vec();
    let agged = ops::aggregate(rep, &target, aggs, outs.clone()).unwrap();
    assert!(agged.check_invariants().is_ok());
    assert_eq!(
        agged.ftree().node(nx).children.len(),
        1,
        "one composite node"
    );
    let specs: Vec<_> = funcs
        .iter()
        .zip(&outs)
        .map(|(&f, &o)| AggSpec::new(f, o).into())
        .collect();
    let expected = rel_ops::group_aggregate(&rel, &[x], &specs, GroupStrategy::Sort).canonical();
    let cols: Vec<AttrId> = std::iter::once(x).chain(outs).collect();
    let got = agged.flatten().project_cols(&cols).canonical();
    assert_eq!(got, expected);
}
