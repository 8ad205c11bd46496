//! Differential oracle for the write path: randomised INSERT/DELETE
//! interleavings where the delta-maintained factorised view must stay
//! **byte-identical** to a from-scratch rebuild and agree with the
//! relational ground truth — plus snapshot isolation, batch atomicity and
//! memoised-annotation freshness at the `Db` level.

mod common;

use fdb::core::NodeLabel;
use fdb::relational::{AttrId, CmpOp, Predicate};
use fdb::{Catalog, Db, FRep, FTree, FdbEngine, Relation, Schema, Value};
use std::collections::BTreeMap;

/// Deterministic LCG so the churn sequence is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `R(a, b, c)` over small domains, mirrored three ways: the
/// delta-maintained view inside a [`Db`], a plain [`Relation`] ground
/// truth, and (rebuilt on demand) a from-scratch factorisation.
struct Fixture {
    db: Db,
    mirror: Relation,
    tree: FTree,
}

fn fixture(seed: u64, initial: usize) -> Fixture {
    let mut catalog = Catalog::new();
    let a = catalog.intern("a");
    let b = catalog.intern("b");
    let c = catalog.intern("c");
    let tree = FTree::path(&[a, b, c]);
    let mut mirror = Relation::empty(Schema::new(vec![a, b, c]));
    let mut lcg = Lcg(seed);
    for _ in 0..initial {
        let row = random_row(&mut lcg);
        mirror.insert(&row);
    }
    let rep = FRep::from_relation(&mirror, tree.clone()).unwrap();
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R", rep);
    Fixture {
        db: Db::from_engine(engine),
        mirror,
        tree,
    }
}

fn random_row(lcg: &mut Lcg) -> Vec<Value> {
    vec![
        Value::Int((lcg.next() % 6) as i64),
        Value::Int((lcg.next() % 8) as i64),
        Value::Int((lcg.next() % 10) as i64),
    ]
}

/// Sorted distinct rows of the mirror — the ground truth for
/// `SELECT a, b, c FROM R ORDER BY a, b, c`.
fn sorted_rows(mirror: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = mirror.rows().map(<[Value]>::to_vec).collect();
    rows.sort_by(|x, y| x.partial_cmp(y).unwrap());
    rows
}

/// Ground truth for `SELECT a, SUM(c) AS s FROM R GROUP BY a ORDER BY a`.
fn grouped_sums(mirror: &Relation) -> Vec<(i64, i64)> {
    let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
    for row in mirror.rows() {
        let (Value::Int(a), Value::Int(c)) = (&row[0], &row[2]) else {
            panic!("fixture rows are integers")
        };
        *sums.entry(*a).or_insert(0) += c;
    }
    sums.into_iter().collect()
}

fn as_pairs(rel: &Relation) -> Vec<(i64, i64)> {
    rel.rows()
        .map(|r| {
            let (Value::Int(a), Value::Int(s)) = (&r[0], &r[1]) else {
                panic!("integer outputs")
            };
            (*a, *s)
        })
        .collect()
}

fn as_rows(rel: &Relation) -> Vec<Vec<Value>> {
    rel.rows().map(<[Value]>::to_vec).collect()
}

/// Checks the current `Db` state three ways: the registered view is
/// byte-identical to a from-scratch rebuild of the mirror, and both
/// a projection and a grouped aggregate agree with the relational
/// ground truth.
fn check(fx: &Fixture, step: usize) {
    let mut session = fx.db.session();
    let rebuilt = FRep::from_relation(&fx.mirror, fx.tree.clone()).unwrap();
    let live = session.engine_mut().view("R").expect("view registered");
    assert!(
        live.same_data(&rebuilt),
        "step {step}: delta-maintained view diverged from rebuild \
         ({} vs {} tuples)",
        live.tuple_count(),
        rebuilt.tuple_count()
    );

    let got = session
        .query("SELECT a, b, c FROM R ORDER BY a, b, c")
        .unwrap_or_else(|e| panic!("step {step} projection: {e}"));
    assert_eq!(
        as_rows(&got.rows),
        sorted_rows(&fx.mirror),
        "step {step}: projection"
    );
    let got = session
        .query("SELECT a, SUM(c) AS s FROM R GROUP BY a ORDER BY a")
        .unwrap_or_else(|e| panic!("step {step} aggregate: {e}"));
    assert_eq!(
        as_pairs(&got.rows),
        grouped_sums(&fx.mirror),
        "step {step}: aggregate"
    );
}

/// The tentpole differential: 120 randomised insert / delete-row /
/// delete-where steps; every 10 steps the delta-maintained view must be
/// byte-identical to a from-scratch rebuild AND reproduce the relational
/// ground truth.
#[test]
fn randomised_churn_delta_equals_rebuild_and_relational() {
    let mut fx = fixture(0xFDB_2013, 40);
    let mut lcg = Lcg(0xBEEF);
    check(&fx, 0);
    for step in 1..=120 {
        match lcg.next() % 4 {
            // Insert (sometimes a duplicate — must be a no-op).
            0 | 1 => {
                let row = random_row(&mut lcg);
                let added = fx.mirror.insert(&row);
                let report = fx.db.insert("R", [row]).unwrap();
                assert_eq!(report, usize::from(added), "step {step}: insert count");
            }
            // Delete one existing row (or a guaranteed-absent one).
            2 => {
                let row = if fx.mirror.is_empty() || lcg.next() % 5 == 0 {
                    vec![Value::Int(99), Value::Int(99), Value::Int(99)]
                } else {
                    let i = (lcg.next() as usize) % fx.mirror.len();
                    fx.mirror.row(i).to_vec()
                };
                let removed = fx.mirror.delete_row(&row);
                let got = fx.db.delete_row("R", row).unwrap();
                assert_eq!(got, removed, "step {step}: delete-row count");
            }
            // Predicate delete: everything with a = v.
            _ => {
                let v = (lcg.next() % 6) as i64;
                let removed = fx.mirror.delete_where(|r| r[0] == Value::Int(v));
                let preds = vec![Predicate::AttrCmp(
                    fx.db.catalog().intern("a"),
                    CmpOp::Eq,
                    Value::Int(v),
                )];
                let got = fx.db.delete_where("R", preds).unwrap();
                assert_eq!(got, removed, "step {step}: delete-where count");
            }
        }
        if step % 10 == 0 {
            check(&fx, step);
        }
    }
    // Drain to empty and refill: the empty rep round-trips.
    let n = fx.mirror.delete_where(|_| true);
    assert_eq!(fx.db.delete_where("R", Vec::new()).unwrap(), n);
    check(&fx, 121);
    let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
    fx.mirror.insert(&row);
    fx.db.insert("R", [row]).unwrap();
    check(&fx, 122);
}

/// Sessions pin a snapshot: a session opened before a write keeps
/// answering from its epoch — identical bytes before and after the
/// write — while fresh sessions see the new state. Readers in other
/// threads observe the same isolation.
#[test]
fn sessions_are_snapshot_isolated_under_churn() {
    let fx = fixture(7, 30);
    let sql = "SELECT a, b, c FROM R ORDER BY a, b, c";
    let mut pinned = fx.db.session();
    let before = pinned.query(sql).unwrap().rows;
    let epoch0 = pinned.epoch();

    // Concurrent readers each pin their own snapshot while the main
    // thread churns; both reads inside one session must be identical.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let mut session = fx.db.session();
                scope.spawn(move || {
                    let first = session.query(sql).unwrap().rows;
                    std::thread::yield_now();
                    let second = session.query(sql).unwrap().rows;
                    assert_eq!(first, second, "a session must never see a write");
                    first
                })
            })
            .collect();
        let mut lcg = Lcg(11);
        for _ in 0..40 {
            fx.db.insert("R", [random_row(&mut lcg)]).unwrap();
        }
        for h in handles {
            // Readers pinned the pre-churn epoch (spawned before the
            // writes), so they all saw the original state.
            assert_eq!(h.join().unwrap(), before);
        }
    });

    // The pre-write session still answers from its snapshot…
    assert_eq!(pinned.query(sql).unwrap().rows, before);
    assert_eq!(pinned.epoch(), epoch0);
    // …while a fresh session sees the post-churn state.
    let mut fresh = fx.db.session();
    assert!(fresh.epoch() > epoch0);
    assert!(fresh.query(sql).unwrap().rows.len() >= before.len());
}

/// `begin_batch` commits atomically: one epoch bump for many ops, and a
/// failing op aborts the whole batch — no partial state, no bump.
#[test]
fn write_batches_commit_atomically_or_not_at_all() {
    let fx = fixture(3, 10);
    let epoch0 = fx.db.epoch();
    let before = sorted_rows(&fx.mirror);

    // A failing batch (unknown table in the middle) must leave no trace.
    let mut batch = fx.db.begin_batch();
    batch
        .insert("R", vec![Value::Int(50), Value::Int(50), Value::Int(50)])
        .delete_where("NoSuchTable", Vec::new())
        .insert("R", vec![Value::Int(51), Value::Int(51), Value::Int(51)]);
    assert_eq!(batch.len(), 3);
    assert!(batch.commit().is_err());
    assert_eq!(
        fx.db.epoch(),
        epoch0,
        "failed batch must not bump the epoch"
    );
    let mut s = fx.db.session();
    let rows = s
        .query("SELECT a, b, c FROM R ORDER BY a, b, c")
        .unwrap()
        .rows;
    assert_eq!(as_rows(&rows), before, "failed batch must not leak writes");

    // A successful multi-op batch lands together under ONE epoch bump.
    let mut batch = fx.db.begin_batch();
    batch
        .insert("R", vec![Value::Int(60), Value::Int(0), Value::Int(0)])
        .insert("R", vec![Value::Int(61), Value::Int(0), Value::Int(0)])
        .delete_row("R", vec![Value::Int(60), Value::Int(0), Value::Int(0)]);
    let report = batch.commit().unwrap();
    assert_eq!((report.inserted, report.deleted), (2, 1));
    assert_eq!(fx.db.epoch(), epoch0 + 1, "one bump per committed batch");

    // An all-no-op batch (set semantics) must NOT bump the epoch.
    let mut batch = fx.db.begin_batch();
    batch.insert("R", vec![Value::Int(61), Value::Int(0), Value::Int(0)]);
    let report = batch.commit().unwrap();
    assert_eq!((report.inserted, report.deleted), (0, 0));
    assert_eq!(fx.db.epoch(), epoch0 + 1, "no-op batch must not bump");
}

/// A thread that panics while holding the template lock poisons it; the
/// `Db` must keep serving snapshots, queries and writes afterwards, on
/// the template as it was last published.
#[test]
fn a_panic_under_the_template_lock_does_not_wedge_the_db() {
    let mut fx = fixture(4, 12);
    let holder = fx.db.clone();
    let panicked = std::thread::spawn(move || {
        let _guard = holder.catalog();
        panic!("injected panic under the template lock");
    })
    .join();
    assert!(panicked.is_err(), "the injected panic must fire");

    let sql = "SELECT a, b, c FROM R ORDER BY a, b, c";
    let mut s = fx.db.session();
    assert_eq!(
        as_rows(&s.query(sql).unwrap().rows),
        sorted_rows(&fx.mirror)
    );

    let row = vec![Value::Int(70), Value::Int(1), Value::Int(2)];
    fx.mirror.insert(&row);
    assert_eq!(fx.db.insert("R", [row]).unwrap(), 1);
    let mut s = fx.db.session();
    assert_eq!(
        as_rows(&s.query(sql).unwrap().rows),
        sorted_rows(&fx.mirror),
        "a write after the poisoning must be visible to a new session"
    );
}

/// Satellite 1 (staleness audit at the facade): the count annotations
/// memoised for direct access are invalidated by writes — paginated
/// queries after a write land on the post-write offsets, never on the
/// stale index.
#[test]
fn memoised_count_annotations_stay_fresh_across_writes() {
    let mut fx = fixture(5, 25);
    let sql = "SELECT a, b, c FROM R ORDER BY a, b, c LIMIT 3 OFFSET 4";
    let page = |mirror: &Relation| -> Vec<Vec<Value>> {
        sorted_rows(mirror).into_iter().skip(4).take(3).collect()
    };

    // Force the count index by paginating, then write, then re-paginate.
    let mut s = fx.db.session();
    assert_eq!(as_rows(&s.query(sql).unwrap().rows), page(&fx.mirror));

    let mut lcg = Lcg(99);
    for step in 0..12 {
        if step % 3 == 2 && !fx.mirror.is_empty() {
            let row = fx.mirror.row(0).to_vec();
            fx.mirror.delete_row(&row);
            fx.db.delete_row("R", row).unwrap();
        } else {
            let row = random_row(&mut lcg);
            fx.mirror.insert(&row);
            fx.db.insert("R", [row]).unwrap();
        }
        let mut s = fx.db.session();
        let got = s.query(sql).unwrap();
        assert_eq!(
            as_rows(&got.rows),
            page(&fx.mirror),
            "step {step}: page served from a stale count index"
        );
    }
}

/// The delta mutators only append, and every version starts as a copy
/// of the last, so without compaction a view's arena grows with the
/// number of writes ever applied (the churn benchmark's peak RSS rose
/// with its own throughput). A commit sheds the garbage once it
/// outweighs the data: after any number of writes the published view
/// holds at most one dead entry record per live one, and still equals
/// a from-scratch rebuild.
#[test]
fn a_long_churn_leaves_a_bounded_arena() {
    let mut fx = fixture(11, 60);
    let mut lcg = Lcg(2013);
    let mut peak_ratio = 0.0f64;
    for step in 0..600 {
        if step % 2 == 1 && !fx.mirror.is_empty() {
            let row = fx
                .mirror
                .row(lcg.next() as usize % fx.mirror.len())
                .to_vec();
            fx.mirror.delete_row(&row);
            fx.db.delete_row("R", row).unwrap();
        } else {
            let row = random_row(&mut lcg);
            fx.mirror.insert(&row);
            fx.db.insert("R", [row]).unwrap();
        }
        let mut session = fx.db.session();
        let stats = session.engine_mut().view("R").unwrap().stats();
        assert!(
            stats.entries <= 2 * stats.singletons.max(1),
            "step {step}: {} entry records for {} live singletons",
            stats.entries,
            stats.singletons
        );
        peak_ratio = peak_ratio.max(stats.entries as f64 / stats.singletons.max(1) as f64);
    }
    assert!(peak_ratio > 1.2, "the churn never produced garbage to shed");
    check(&fx, 600);
}

/// `R(a, b, c, d)` on the shape of the paper's view R1,
/// `a → {b → c, d}`, mirrored by a plain [`Relation`]. Every a-group is
/// the product of a (b, c) trie and a d-set, so the view satisfies the
/// tree's join dependency; column `c` holds `Null`s.
struct BranchFixture {
    db: Db,
    mirror: Relation,
    tree: FTree,
    attrs: [AttrId; 4],
}

fn branch_fixture() -> BranchFixture {
    let mut catalog = Catalog::new();
    let attrs = ["a", "b", "c", "d"].map(|n| catalog.intern(n));
    let [a, b, c, d] = attrs;
    let mut tree = FTree::new();
    let na = tree.add_node(NodeLabel::Atomic(vec![a]), None);
    let nb = tree.add_node(NodeLabel::Atomic(vec![b]), Some(na));
    tree.add_node(NodeLabel::Atomic(vec![c]), Some(nb));
    tree.add_node(NodeLabel::Atomic(vec![d]), Some(na));
    tree.add_dep([a, b, c]);
    tree.add_dep([a, d]);
    let mut mirror = Relation::empty(Schema::new(attrs.to_vec()));
    let mut lcg = Lcg(0xB2A1C4);
    for av in 0..5i64 {
        let bc: Vec<(i64, Value)> = (0..2 + lcg.next() % 3)
            .map(|_| {
                let bv = (lcg.next() % 4) as i64;
                let cv = match lcg.next() % 5 {
                    0 => Value::Null,
                    _ => Value::Int((lcg.next() % 6) as i64),
                };
                (bv, cv)
            })
            .collect();
        let ds: Vec<i64> = (0..2 + lcg.next() % 2)
            .map(|_| (lcg.next() % 5) as i64)
            .collect();
        for (bv, cv) in &bc {
            for dv in &ds {
                mirror.insert(&[Value::Int(av), Value::Int(*bv), cv.clone(), Value::Int(*dv)]);
            }
        }
    }
    let rep = FRep::from_relation(&mirror, tree.clone()).unwrap();
    assert_eq!(rep.tuple_count(), mirror.len(), "fixture breaks its JD");
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R", rep);
    BranchFixture {
        db: Db::from_engine(engine),
        mirror,
        tree,
        attrs,
    }
}

/// The registered view equals an exact rebuild of the mirror, and a
/// projection and a grouped aggregate answer as the mirror does.
fn check_branch(fx: &BranchFixture, case: &str) {
    let rebuilt = FRep::from_relation(&fx.mirror, fx.tree.clone()).unwrap();
    assert_eq!(rebuilt.tuple_count(), fx.mirror.len(), "{case}: not exact");
    let mut session = fx.db.session();
    let live = session.engine_mut().view("R").expect("view registered");
    assert!(
        live.same_data(&rebuilt),
        "{case}: view diverged from rebuild"
    );

    let mut want_rows: Vec<Vec<Value>> = as_rows(&fx.mirror);
    want_rows.sort();
    let mut sums: BTreeMap<Value, i64> = BTreeMap::new();
    for row in fx.mirror.rows() {
        let Value::Int(d) = row[3] else {
            panic!("d is an integer column")
        };
        *sums.entry(row[0].clone()).or_insert(0) += d;
    }
    let want_sums: Vec<Vec<Value>> = sums
        .into_iter()
        .map(|(a, s)| vec![a, Value::Int(s)])
        .collect();
    let got = session
        .query("SELECT a, b, c, d FROM R ORDER BY a, b, c, d")
        .unwrap_or_else(|e| panic!("{case} projection: {e}"));
    assert_eq!(as_rows(&got.rows), want_rows, "{case}: projection");
    let got = session
        .query("SELECT a, SUM(d) AS s FROM R GROUP BY a ORDER BY a")
        .unwrap_or_else(|e| panic!("{case} aggregate: {e}"));
    assert_eq!(as_rows(&got.rows), want_sums, "{case}: aggregate");
}

/// Runs one predicate delete on a fresh branching fixture against the
/// relational mirror. `on_one_path` cases must be answered exactly; the
/// others either exactly or with a refusal that changes nothing.
/// Returns the deleted count, `None` on a refusal.
fn branch_case(build: impl Fn(&[AttrId; 4]) -> Vec<Predicate>, on_one_path: bool) -> Option<usize> {
    let mut fx = branch_fixture();
    let preds = build(&fx.attrs);
    let case = {
        let catalog = fx.db.catalog();
        let shown: Vec<String> = preds
            .iter()
            .map(|p| p.display(&catalog).to_string())
            .collect();
        shown.join(" AND ")
    };
    let epoch0 = fx.db.epoch();
    let schema = fx.mirror.schema().clone();
    let mut want = fx.mirror.clone();
    let n = want.delete_where(|row| preds.iter().all(|p| p.eval(&schema, row)));
    let outcome = match fx.db.delete_where("R", preds) {
        Ok(got) => {
            assert_eq!(got, n, "{case}: deleted count");
            assert_eq!(fx.db.epoch(), epoch0 + u64::from(n > 0), "{case}: epoch");
            fx.mirror = want;
            Some(got)
        }
        Err(e) => {
            assert!(!on_one_path, "{case}: a one-path delete was refused: {e}");
            assert!(e.to_string().contains("not representable"), "{case}: {e}");
            assert_eq!(fx.db.epoch(), epoch0, "{case}: a refusal bumped the epoch");
            let rebuilt = FRep::from_relation(&want, fx.tree.clone()).unwrap();
            assert_ne!(
                rebuilt.tuple_count(),
                want.len(),
                "{case}: refused an exact delete"
            );
            None
        }
    };
    check_branch(&fx, &case);
    outcome
}

/// Every attribute × every comparison × present, absent and `Null`
/// constants, pushed into the factorisation of a branching view.
#[test]
fn predicate_delete_on_every_attribute_of_a_branching_view() {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let constants = [Value::Int(0), Value::Int(2), Value::Int(99), Value::Null];
    let total = branch_fixture().mirror.len();
    let mut partial = 0;
    for i in 0..4 {
        for op in ops {
            for c in &constants {
                let n = branch_case(|at| vec![Predicate::AttrCmp(at[i], op, c.clone())], true);
                partial += usize::from(n.is_some_and(|n| n > 0 && n < total));
            }
        }
    }
    assert!(
        partial >= 40,
        "only {partial} cases deleted part of the view"
    );
    // The empty list deletes everything.
    assert_eq!(branch_case(|_| Vec::new(), true), Some(total));
}

/// A predicate list over the branching fixture's `[a, b, c, d]`.
type Conjunction = fn(&[AttrId; 4]) -> Vec<Predicate>;

/// Conjunctions along one root-to-leaf path are pushed too; those that
/// span the `b → c` and `d` branches, and attribute equalities, are
/// exact or refused.
#[test]
fn predicate_delete_conjunctions_on_a_branching_view() {
    fn cmp(a: AttrId, op: CmpOp, c: i64) -> Predicate {
        Predicate::AttrCmp(a, op, Value::Int(c))
    }
    let one_path: [Conjunction; 5] = [
        |[a, b, _, _]| vec![cmp(*a, CmpOp::Ge, 1), cmp(*b, CmpOp::Lt, 3)],
        |[a, b, c, _]| {
            vec![
                cmp(*a, CmpOp::Eq, 2),
                cmp(*b, CmpOp::Ge, 1),
                cmp(*c, CmpOp::Ne, 0),
            ]
        },
        |[_, b, c, _]| vec![cmp(*b, CmpOp::Gt, 0), cmp(*c, CmpOp::Le, 3)],
        |[a, _, _, d]| vec![cmp(*a, CmpOp::Ne, 3), cmp(*d, CmpOp::Ge, 2)],
        |[a, _, _, _]| vec![cmp(*a, CmpOp::Gt, 0), cmp(*a, CmpOp::Lt, 4)],
    ];
    for build in one_path {
        branch_case(build, true);
    }
    let cross: [Conjunction; 6] = [
        |[_, b, _, d]| vec![cmp(*b, CmpOp::Eq, 1), cmp(*d, CmpOp::Eq, 2)],
        |[_, _, c, d]| vec![cmp(*c, CmpOp::Lt, 3), cmp(*d, CmpOp::Ge, 1)],
        |[_, _, c, d]| {
            vec![
                Predicate::AttrCmp(*c, CmpOp::Eq, Value::Null),
                cmp(*d, CmpOp::Ge, 0),
            ]
        },
        |[_, b, _, d]| vec![cmp(*b, CmpOp::Ge, 0), cmp(*d, CmpOp::Ge, 0)],
        |[_, b, _, d]| vec![Predicate::AttrEq(*b, *d)],
        |[a, b, _, _]| vec![Predicate::AttrEq(*a, *b)],
    ];
    let outcomes: Vec<Option<usize>> = cross.into_iter().map(|b| branch_case(b, false)).collect();
    assert!(
        outcomes.contains(&None),
        "no cross-branch delete was refused"
    );
    assert!(
        outcomes.iter().any(|o| o.is_some_and(|n| n > 0)),
        "no cross-branch delete was exact: {outcomes:?}"
    );
}

/// Regression: on `a → {b, c}` with the group `a=1 → {10,20}×{100,200}`,
/// `DELETE WHERE b = 10` once reported 2 deletions and left all five
/// tuples in the view. It removes exactly the two `(1, 10, ·)` tuples.
#[test]
fn delete_where_on_a_branch_is_exact() {
    let mut catalog = Catalog::new();
    let [a, b, c] = ["a", "b", "c"].map(|n| catalog.intern(n));
    let mut tree = FTree::new();
    let na = tree.add_node(NodeLabel::Atomic(vec![a]), None);
    tree.add_node(NodeLabel::Atomic(vec![b]), Some(na));
    tree.add_node(NodeLabel::Atomic(vec![c]), Some(na));
    tree.add_dep([a, b, c]);
    let row = |r: [i64; 3]| r.map(Value::Int).to_vec();
    let mut mirror = Relation::from_rows(
        Schema::new(vec![a, b, c]),
        [
            [1, 10, 100],
            [1, 10, 200],
            [1, 20, 100],
            [1, 20, 200],
            [2, 30, 300],
        ]
        .map(row),
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("V", FRep::from_relation(&mirror, tree.clone()).unwrap());
    let db = Db::from_engine(engine);
    let report = db.execute("DELETE FROM V WHERE b = 10").unwrap();
    assert_eq!(report.deleted, 2);
    mirror.delete_where(|r| r[1] == Value::Int(10));
    let mut session = db.session();
    let view = session.engine_mut().view("V").unwrap();
    assert_eq!(view.tuple_count(), 3);
    assert!(view.same_data(&FRep::from_relation(&mirror, tree).unwrap()));
}

/// What one commit appended to view `R1`: records in the tail beyond
/// the root union's re-emitted entries, and union records.
#[derive(Debug, PartialEq)]
struct Appended {
    beyond_root: usize,
    unions: usize,
}

/// A commit costs its writes, not the view: at two view sizes a commit
/// that does not fold publishes a version sharing the previous
/// version's arena base, and appends the same records at both sizes —
/// except the root union's entries, which every spine rewrite
/// re-emits and which grow with the number of packages, not with the
/// view.
#[test]
fn a_commit_appends_its_writes_and_shares_the_base() {
    let mut per_scale = Vec::new();
    for scale in [1, 4] {
        let mut catalog = Catalog::new();
        let cfg = fdb::workload::orders::OrdersConfig {
            scale,
            customers: 100,
            seed: 7,
        };
        let ds = fdb::workload::orders::generate(&mut catalog, &cfg);
        let mut engine = FdbEngine::new(catalog);
        engine.register_view("R1", ds.factorised_view());
        let db = Db::from_engine(engine);
        let current = || db.session().engine_mut().view_arc("R1").unwrap();
        let initial = current();
        assert_eq!(initial.tail_records(), 0, "a registered view is sealed");
        let view_records = {
            let s = initial.stats();
            s.unions + s.entries + s.values
        };
        let package = 1_000_000;
        let rows: Vec<String> = (0..4)
            .map(|c| format!("({package}, 1, {c}, 1, 7)"))
            .collect();
        let mut appended = Vec::new();
        let mut previous = initial.clone();
        for (sql, rewrites) in [
            (
                format!(
                    "INSERT INTO R1 (package, date, customer, item, price) VALUES {}",
                    rows.join(", ")
                ),
                4,
            ),
            (format!("DELETE FROM R1 WHERE package = {package}"), 1),
        ] {
            let report = db.execute(&sql).unwrap();
            assert_eq!(report.inserted + report.deleted, 4, "{sql}");
            let next = current();
            assert!(
                next.shares_base_with(&previous),
                "s={scale}: `{sql}` copied the view"
            );
            let tail = next.tail_records() - previous.tail_records();
            assert!(
                tail * 8 < view_records,
                "s={scale}: {tail} records appended"
            );
            appended.push(Appended {
                beyond_root: tail - rewrites * next.root(0).len(),
                unions: next.stats().unions - previous.stats().unions,
            });
            previous = next;
        }
        assert!(previous.same_data(&initial));
        per_scale.push(appended);
    }
    assert_eq!(
        per_scale[0], per_scale[1],
        "the writes' records depend on the view size"
    );
}
