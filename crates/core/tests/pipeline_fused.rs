//! Differential suite for the plan executor: on randomly generated
//! databases and randomly generated *valid* f-plans, `pipeline::execute`
//! (fused selection runs, selection runs read by the `γ` after them as a
//! mask, shared fragments, one compaction at the end) must be
//! bit-identical to the same plan applied one operator at a time through
//! `plan::apply` with a compaction after each step; aggregate-free plans
//! must also produce exactly the tuples of a naive relational evaluation
//! of the plan over the input's flattening. One database holds floats
//! with `±inf` and `-0.0`, so an entry a mask empties must be skipped,
//! never scaled by zero (`inf × 0` is NaN). Complements the SQL-level
//! oracle in `tests/oracle.rs`, which checks the whole engine against the
//! relational engines.

use fdb_core::enumerate::{DirectCursor, EnumSpec, TupleIter};
use fdb_core::frep::FRep;
use fdb_core::ftree::{AggOp, FTree, NodeId, NodeLabel};
use fdb_core::pipeline::{execute, run_operators};
use fdb_core::plan::{apply, apply_to_tree, FOp, FPlan};
use fdb_relational::ops as rel_ops;
use fdb_relational::{AttrId, Catalog, CmpOp, Predicate, Relation, Schema, SortDir, Value};
use proptest::prelude::*;

/// The constants selections draw from on the integer database.
const INTS: [Value; 5] = [
    Value::Int(0),
    Value::Int(1),
    Value::Int(2),
    Value::Int(3),
    Value::Int(4),
];

/// The z values of the float database, and the constants selections draw
/// from on it (beside the integers of x, y and w).
const FLOATS: [Value; 6] = [
    Value::Float(f64::NEG_INFINITY),
    Value::Float(-0.0),
    Value::Float(0.0),
    Value::Float(1.5),
    Value::Float(f64::INFINITY),
    Value::Int(2),
];

/// A three-attribute path factorisation times a one-attribute root —
/// the product gives the plan generator sibling roots to merge and a
/// forest to restructure. `z_of` maps a drawn z to its value.
fn build_rep(
    catalog: &mut Catalog,
    rows: &[(i64, i64, i64)],
    extra: &[i64],
    z_of: impl Fn(i64) -> Value,
) -> FRep {
    let left = path_rep(catalog, rows, z_of);
    times_w(catalog, left, extra)
}

/// The path factorisation `x → y → z` of `rows` (sealed: all base).
fn path_rep(catalog: &mut Catalog, rows: &[(i64, i64, i64)], z_of: impl Fn(i64) -> Value) -> FRep {
    let [x, y, z] = ["x", "y", "z"].map(|a| catalog.intern(a));
    let rel = Relation::from_rows(
        Schema::new(vec![x, y, z]),
        rows.iter()
            .map(|&(a, b, c)| vec![Value::Int(a), Value::Int(b), z_of(c)]),
    )
    .canonical();
    FRep::from_relation(&rel, FTree::path(&[x, y, z])).unwrap()
}

/// `left` times the one-attribute root `w` over `extra`, appended to
/// `left`'s tail.
fn times_w(catalog: &mut Catalog, left: FRep, extra: &[i64]) -> FRep {
    let w = catalog.intern("w");
    let extra_rel = Relation::from_rows(
        Schema::new(vec![w]),
        extra.iter().map(|&v| vec![Value::Int(v)]),
    )
    .canonical();
    let right = FRep::from_relation(&extra_rel, FTree::path(&[w])).unwrap();
    fdb_core::ops::product(left, right)
}

/// Attributes of atomic nodes (selectable, projectable, absorbable).
fn atomic_attrs(tree: &FTree) -> Vec<(NodeId, AttrId)> {
    tree.live_nodes()
        .into_iter()
        .filter_map(|n| match &tree.node(n).label {
            NodeLabel::Atomic(attrs) => Some((n, attrs[0])),
            NodeLabel::Agg(_) => None,
        })
        .collect()
}

/// Builds a random valid plan from a pick stream, simulating each
/// candidate on a scratch tree so every emitted operator is legal for
/// the tree state it will meet at execution time. Selections compare
/// with one of `consts`.
fn random_plan(
    tree0: &FTree,
    catalog: &mut Catalog,
    picks: &[(u8, u8, u8)],
    consts: &[Value],
) -> FPlan {
    let mut tree = tree0.clone();
    let mut plan = FPlan::new();
    let mut fresh = 0usize;
    for &(sel, p1, p2) in picks {
        let live = tree.live_nodes();
        let attrs = tree.all_attrs();
        if attrs.is_empty() {
            break;
        }
        let pick_attr = attrs[p1 as usize % attrs.len()];
        let select_on = |attr| FOp::SelectConst {
            attr,
            op: [CmpOp::Le, CmpOp::Ge, CmpOp::Ne, CmpOp::Eq][p2 as usize % 4],
            value: consts[p2 as usize % consts.len()].clone(),
        };
        let select_op = select_on(pick_attr);
        let op = match sel % 6 {
            1 => {
                // Swap a child above its parent.
                let edges: Vec<(NodeId, NodeId)> = live
                    .iter()
                    .filter_map(|&n| tree.node(n).parent.map(|p| (p, n)))
                    .collect();
                if edges.is_empty() {
                    select_op
                } else {
                    let (parent, child) = edges[p1 as usize % edges.len()];
                    FOp::Swap { parent, child }
                }
            }
            2 => {
                // Aggregate one subtree (or, rarely, the whole forest).
                let out = {
                    fresh += 1;
                    catalog.intern(&format!("agg{fresh}"))
                };
                let (parent, targets) = if p1 % 7 == 0 {
                    (None, tree.roots().to_vec())
                } else {
                    let inner: Vec<NodeId> = live
                        .iter()
                        .copied()
                        .filter(|&n| tree.node(n).parent.is_some())
                        .collect();
                    match inner.get(p1 as usize % inner.len().max(1)) {
                        None => (None, tree.roots().to_vec()),
                        Some(&n) => (tree.node(n).parent, vec![n]),
                    }
                };
                // Always include Count so later aggregations stay
                // composable (Prop. 2); add another function when a
                // target subtree provides the attribute.
                let mut funcs = vec![AggOp::Count];
                let mut outputs = vec![out];
                let mut provided: Vec<AttrId> = Vec::new();
                for &t in &targets {
                    for (n, a) in atomic_attrs(&tree) {
                        if n == t || tree.is_ancestor(t, n) {
                            provided.push(a);
                        }
                    }
                }
                if p2 % 4 != 3 {
                    if let Some(&a) = provided.get(p2 as usize % 3) {
                        funcs.push(match (p2 / 4) % 7 {
                            0 => AggOp::Sum(a),
                            1 => AggOp::Min(a),
                            2 => AggOp::Max(a),
                            3 => AggOp::Exists(a, CmpOp::Gt, 1),
                            4 => AggOp::Forall(a, CmpOp::Le, 3),
                            5 => AggOp::Product(a),
                            _ => AggOp::TopK(a, 2),
                        });
                        fresh += 1;
                        outputs.push(catalog.intern(&format!("agg{fresh}")));
                    }
                }
                // Often a selection inside the targets comes right
                // before: the `γ` then reads it as a mask.
                if p1 % 3 != 2 {
                    if let Some(&a) = provided.get(p1 as usize % provided.len().max(1)) {
                        plan.push(select_on(a));
                    }
                }
                FOp::Aggregate {
                    parent,
                    targets,
                    funcs,
                    outputs,
                }
            }
            3 => {
                // Project away an atomic attribute (keep ≥ 2 nodes live).
                let cands = atomic_attrs(&tree);
                if cands.is_empty() || live.len() < 2 {
                    select_op
                } else {
                    let (_, attr) = cands[p1 as usize % cands.len()];
                    FOp::ProjectAway { attr }
                }
            }
            4 => {
                fresh += 1;
                FOp::Rename {
                    from: pick_attr,
                    to: catalog.intern(&format!("r{fresh}")),
                }
            }
            5 => {
                // Merge two atomic roots, else absorb along a path.
                let roots: Vec<NodeId> = tree
                    .roots()
                    .iter()
                    .copied()
                    .filter(|&n| matches!(tree.node(n).label, NodeLabel::Atomic(_)))
                    .collect();
                if roots.len() >= 2 {
                    FOp::Merge {
                        a: roots[0],
                        b: roots[1],
                    }
                } else {
                    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
                    for (anc, _) in atomic_attrs(&tree) {
                        for (desc, _) in atomic_attrs(&tree) {
                            if tree.is_ancestor(anc, desc) {
                                pairs.push((anc, desc));
                            }
                        }
                    }
                    match pairs.get(p1 as usize % pairs.len().max(1)) {
                        Some(&(anc, desc)) => FOp::Absorb { anc, desc },
                        None => select_op,
                    }
                }
            }
            _ => select_op,
        };
        let mut scratch = tree.clone();
        if apply_to_tree(&mut scratch, &op).is_ok() {
            tree = scratch;
            plan.push(op);
        }
    }
    plan
}

/// Reference (a): the plan one operator at a time through
/// [`apply`], compacting after each step. Also returns the bytes those
/// compacted intermediates hold — what one full copy per operator
/// costs.
fn per_op(plan: &FPlan, mut rep: FRep) -> fdb_core::Result<(FRep, usize)> {
    let mut bytes = 0;
    for op in &plan.ops {
        rep = apply(rep, op)?.compact();
        bytes += rep.data_bytes();
    }
    Ok((rep, bytes))
}

/// Reference (b): the plan evaluated relationally over `input`, the
/// flattening of a representation over `tree`; `None` for plans with
/// an aggregate. Equality selections compare the two nodes' first
/// attributes; swaps change nothing; projections drop a column and
/// deduplicate; renames relabel a column.
fn relational(plan: &FPlan, tree: &FTree, input: Relation) -> Option<Relation> {
    let mut tree = tree.clone();
    let mut rel = input;
    let first_attr = |t: &FTree, n: NodeId| t.node(n).label.exposed_attrs()[0];
    for op in &plan.ops {
        rel = match op {
            FOp::Aggregate { .. } | FOp::GroupFold { .. } => return None,
            FOp::SelectConst { attr, op, value } => {
                rel_ops::select(&rel, &[Predicate::AttrCmp(*attr, *op, value.clone())])
            }
            FOp::Merge { a: x, b: y } | FOp::Absorb { anc: x, desc: y } => rel_ops::select(
                &rel,
                &[Predicate::AttrEq(
                    first_attr(&tree, *x),
                    first_attr(&tree, *y),
                )],
            ),
            FOp::Swap { .. } => rel,
            FOp::ProjectAway { attr } => {
                let keep: Vec<AttrId> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .copied()
                    .filter(|a| a != attr)
                    .collect();
                rel_ops::project(&rel, &keep, true)
            }
            FOp::Rename { from, to } => {
                let attrs = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|&a| if a == *from { *to } else { a })
                    .collect();
                Relation::from_flat(Schema::new(attrs), rel.into_flat())
            }
        };
        apply_to_tree(&mut tree, op).expect("generated plans simulate");
    }
    Some(rel)
}

fn assert_fused_matches_legacy(rep: &FRep, plan: &FPlan) {
    let stepped = per_op(plan, rep.clone());
    let naive = relational(plan, rep.ftree(), rep.flatten());
    let fused = execute(plan, rep.clone());
    match (&stepped, &fused) {
        (Ok((l, _)), Ok((f, _))) => {
            assert!(f.check_invariants().is_ok(), "invariants on {plan:?}");
            assert!(f.same_data(l), "data differs on {plan:?}");
            assert_eq!(
                f.ftree().canonical_key(),
                l.ftree().canonical_key(),
                "tree differs on {plan:?}"
            );
            if let Some(want) = &naive {
                assert_eq!(
                    f.flatten().canonical(),
                    want.project_cols(f.schema().attrs()).canonical(),
                    "tuples differ from the relational evaluation on {plan:?}"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (l, f) => panic!(
            "staged and one-at-a-time disagree on success: \
             per-op {l:?} vs staged {f:?} on {plan:?}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fused_execution_matches_legacy_on_random_plans(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..20),
        extra in prop::collection::vec(0i64..5, 0..5),
        picks in prop::collection::vec((0u8..6, 0u8..32, 0u8..32), 1..9),
    ) {
        let mut catalog = Catalog::new();
        let rep = build_rep(&mut catalog, &rows, &extra, Value::Int);
        let plan = random_plan(rep.ftree(), &mut catalog, &picks, &INTS);
        assert_fused_matches_legacy(&rep, &plan);
    }

    #[test]
    fn fused_execution_matches_legacy_on_floats(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..6), 0..20),
        extra in prop::collection::vec(0i64..3, 0..4),
        picks in prop::collection::vec((0u8..6, 0u8..32, 0u8..32), 1..9),
    ) {
        let mut catalog = Catalog::new();
        let rep = build_rep(&mut catalog, &rows, &extra, |c| FLOATS[c as usize].clone());
        let plan = random_plan(rep.ftree(), &mut catalog, &picks, &FLOATS);
        assert_fused_matches_legacy(&rep, &plan);
    }
}

#[test]
fn fused_matches_legacy_on_empty_and_singleton_databases() {
    for (rows, extra) in [
        (vec![], vec![]),
        (vec![(1, 1, 1)], vec![2]),
        (vec![(0, 0, 0), (0, 1, 0), (1, 0, 1)], vec![]),
    ] {
        let mut catalog = Catalog::new();
        let rep = build_rep(&mut catalog, &rows, &extra, Value::Int);
        // A fixed stress plan: filters, swap, merge, aggregate.
        let picks: Vec<(u8, u8, u8)> = vec![
            (0, 1, 3),
            (5, 0, 0),
            (1, 2, 1),
            (0, 2, 6),
            (2, 3, 2),
            (3, 1, 0),
        ];
        let plan = random_plan(rep.ftree(), &mut catalog, &picks, &INTS);
        assert_fused_matches_legacy(&rep, &plan);
    }
}

/// A selection on y read as a mask by a `γ` over z's subtree, with y
/// below z: a z entry whose y values all fail keeps no tuple, and is
/// skipped by every function — scaling it by zero would turn `±inf`
/// into NaN and `-0.0` into `0.0`.
#[test]
fn a_mask_skips_the_entries_it_empties() {
    let mut rows = Vec::new();
    for x in 0..3 {
        for z in 0..6 {
            // Each z value under x meets a different set of y values.
            for y in 0..4 {
                if (x + z + y) % 3 != 0 {
                    rows.push((x, y, z));
                }
            }
        }
    }
    let mut catalog = Catalog::new();
    let rep = build_rep(&mut catalog, &rows, &[1], |c| FLOATS[c as usize].clone());
    let [x, y, z] = ["x", "y", "z"].map(|a| catalog.lookup(a).unwrap());
    let tree = rep.ftree();
    let [nx, ny, nz] = [x, y, z].map(|a| tree.node_of_attr(a).unwrap());
    let out = [catalog.intern("n"), catalog.intern("v")];
    let funcs = [
        AggOp::Sum(z),
        AggOp::Min(z),
        AggOp::Max(z),
        AggOp::Product(z),
        AggOp::Exists(z, CmpOp::Gt, 1),
        AggOp::Forall(z, CmpOp::Le, 3),
        AggOp::TopK(z, 2),
    ];
    for f in funcs {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            for c in 0..4 {
                let plan = FPlan {
                    ops: vec![
                        FOp::Swap {
                            parent: ny,
                            child: nz,
                        },
                        FOp::SelectConst {
                            attr: y,
                            op,
                            value: Value::Int(c),
                        },
                        FOp::Aggregate {
                            parent: Some(nx),
                            targets: vec![nz],
                            funcs: vec![AggOp::Count, f],
                            outputs: out.to_vec(),
                        },
                    ],
                };
                let (_, stats) = execute(&plan, rep.clone()).unwrap();
                assert_eq!(stats.stages, 2, "{plan:?}");
                assert_fused_matches_legacy(&rep, &plan);
            }
        }
    }
}

#[test]
fn staged_intermediate_bytes_beat_per_op_on_long_plans() {
    let mut catalog = Catalog::new();
    let rows: Vec<(i64, i64, i64)> = (0..600).map(|i| (i % 23, (i * 7) % 17, i % 11)).collect();
    let rep = build_rep(&mut catalog, &rows, &[1, 2, 3], Value::Int);
    let x = catalog.lookup("x").unwrap();
    let y = catalog.lookup("y").unwrap();
    let nx = rep.ftree().node_of_attr(x).unwrap();
    let ny = rep.ftree().node_of_attr(y).unwrap();
    let out = catalog.intern("n");
    let mut plan = FPlan::new();
    plan.push(FOp::SelectConst {
        attr: x,
        op: CmpOp::Le,
        value: Value::Int(20),
    });
    plan.push(FOp::SelectConst {
        attr: y,
        op: CmpOp::Ne,
        value: Value::Int(3),
    });
    plan.push(FOp::Swap {
        parent: nx,
        child: ny,
    });
    plan.push(FOp::Aggregate {
        parent: Some(ny),
        targets: vec![nx],
        funcs: vec![AggOp::Count],
        outputs: vec![out],
    });
    let (stepped, stepped_bytes) = per_op(&plan, rep.clone()).unwrap();
    let (fused, staged) = execute(&plan, rep).unwrap();
    assert!(fused.same_data(&stepped));
    assert!(staged.compacted);
    assert!(staged.copies_avoided > 0);
    assert!(
        staged.intermediate_bytes < stepped_bytes,
        "staged {} >= per-op {}",
        staged.intermediate_bytes,
        stepped_bytes
    );
    // The one end compaction leaves an arena no bigger than compacting
    // after every step does.
    assert!(fused.data_bytes() <= stepped.data_bytes());
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

    /// `n` values below 5.
    fn small(&mut self, n: u64) -> Vec<i64> {
        (0..n).map(|_| self.below(5) as i64).collect()
    }

    fn rows(&mut self, n: u64) -> Vec<(i64, i64, i64)> {
        (0..n)
            .map(|_| {
                (
                    self.below(5) as i64,
                    self.below(5) as i64,
                    self.below(5) as i64,
                )
            })
            .collect()
    }

    fn picks(&mut self) -> Vec<(u8, u8, u8)> {
        (0..1 + self.below(8))
            .map(|_| {
                (
                    self.below(6) as u8,
                    self.below(32) as u8,
                    self.below(32) as u8,
                )
            })
            .collect()
    }
}

/// A random database over the integers and a random plan on it. With
/// `written`, the `x → y → z` factor takes random single-row inserts and
/// deletes after its count index is built, and is settled, before the
/// product with `w` — so its base is either shared with the counted
/// version or a fresh one, and its written tail kept or folded.
fn random_case(rng: &mut Lcg, written: bool) -> (FRep, FPlan) {
    let mut catalog = Catalog::new();
    let n = rng.below(20);
    let rows = rng.rows(n);
    let extra = {
        let n = rng.below(5);
        rng.small(n)
    };
    let mut left = path_rep(&mut catalog, &rows, Value::Int);
    if written {
        let counted = left.clone();
        assert!(counted.count_index_mismatches().is_empty());
        let n = 1 + rng.below(6);
        for (x, y, z) in rng.rows(n) {
            let row = [x, y, z].map(Value::Int);
            if rng.below(3) == 0 {
                left.delete(&row).unwrap();
            } else {
                left.insert(&row).unwrap();
            }
        }
        left = left.settle();
        assert!(left.count_index_mismatches().is_empty());
        if left.shares_base_with(&counted) {
            assert!(left.shares_base_counts_with(&counted));
        }
    }
    let rep = times_w(&mut catalog, left, &extra);
    let picks = rng.picks();
    let plan = random_plan(rep.ftree(), &mut catalog, &picks, &INTS);
    (rep, plan)
}

/// The count index of base + tail against a recount of every reachable
/// union and entry, and a seek to every offset against the full
/// enumeration, on the input and on the plan's result (whose base is
/// the input's unless the plan compacted, and whose counts then reuse
/// the input's base counts). Visit directions are drawn per node.
fn count_index_matches(cases: usize, seed: u64) {
    let mut rng = Lcg(seed);
    for case in 0..cases {
        let (input, plan) = random_case(&mut rng, case % 2 == 1);
        assert!(
            input.count_index_mismatches().is_empty(),
            "input of {plan:?}"
        );
        let Ok((out, _)) = execute(&plan, input.clone()) else {
            continue;
        };
        let bad = out.count_index_mismatches();
        assert!(bad.is_empty(), "unions {bad:?} miscounted after {plan:?}");
        if out.shares_base_with(&input) {
            assert!(out.shares_base_counts_with(&input), "{plan:?}");
        }
        let visit = out.ftree().live_nodes();
        let dirs = visit
            .iter()
            .map(|_| [SortDir::Asc, SortDir::Desc][rng.below(2) as usize])
            .collect();
        let spec = EnumSpec { visit, dirs };
        let mut all = Vec::new();
        let mut it = TupleIter::new(&out, &spec).unwrap();
        while let Some(row) = it.next_row() {
            all.push(row.to_vec());
        }
        for skip in 0..=all.len() {
            let mut seek = DirectCursor::new(&out, &spec, skip as u64).unwrap();
            let row = seek.next_row().map(<[Value]>::to_vec);
            assert_eq!(row.as_ref(), all.get(skip), "offset {skip} of {plan:?}");
        }
    }
}

#[test]
fn count_index_of_base_and_tail_matches_a_recount() {
    count_index_matches(200, 0xC0DE);
}

#[test]
#[ignore = "long budget; CI runs it in release with --ignored"]
fn count_index_of_base_and_tail_matches_a_recount_long() {
    count_index_matches(300_000, 0x5EED);
}

/// The compaction rule at the end of a plan reads the entry records the
/// operators noted dead (`FRep::dead_outnumber_live`) instead of
/// walking the live ones. Held to that walk (`live_entry_count`) on
/// random plans, with and without a written tail:
/// * the noted count never exceeds the records no root reaches, so the
///   rule never compacts where the walk would not;
/// * it equals them — and the two decide alike — on every plan whose
///   operators walk all they supersede: swaps, projections, renames and
///   `γ`s over the whole forest;
/// * on the other shapes the rule may skip a compaction the walk would
///   run. A selection, merge or absorb drops an entry without entering
///   its subtree, and a `γ` under a parent consumes its targets'
///   subtrees without walking them entry by entry, so those records go
///   unnoted — unless the `γ` consumes every child of the only root,
///   when nothing the arena held survives and all of it is noted. They are mostly the input's: in a query they lie in the
///   base the result shares with the view, which no compaction frees
///   while the view holds it.
fn compaction_rule_matches_the_walk(cases: usize, seed: u64) {
    let mut rng = Lcg(seed);
    let (mut exact, mut differ) = (0, 0);
    for case in 0..cases {
        let (input, plan) = random_case(&mut rng, case % 2 == 1);
        let Ok((pre, _)) = run_operators(&plan, input.clone()) else {
            continue;
        };
        let entries = pre.stats().entries as u64;
        let unreached = entries - pre.live_entry_count() as u64;
        let noted = pre.noted_dead_entries();
        assert!(noted <= unreached, "{noted} > {unreached} after {plan:?}");
        let walks_all = plan.ops.iter().all(|op| match op {
            FOp::Swap { .. } | FOp::ProjectAway { .. } | FOp::Rename { .. } => true,
            FOp::Aggregate { parent, .. } => parent.is_none(),
            _ => false,
        });
        let walk = entries > 2 * (entries - unreached);
        if walks_all {
            assert_eq!(noted, unreached, "after {plan:?}");
            exact += 1;
        }
        differ += usize::from(walk != pre.dead_outnumber_live());
        let (_, stats) = execute(&plan, input).unwrap();
        assert_eq!(
            stats.compacted,
            !plan.is_empty() && pre.dead_outnumber_live()
        );
    }
    // Both kinds of plan occur.
    assert!(
        exact > cases / 20 && differ > 0,
        "{exact} exact, {differ} differ"
    );
}

#[test]
fn compaction_rule_without_a_walk_agrees_with_the_walk() {
    compaction_rule_matches_the_walk(400, 0xDEAD);
}
