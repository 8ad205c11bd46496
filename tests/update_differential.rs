//! Differential oracle for the write path: randomised INSERT/DELETE
//! interleavings where the delta-maintained factorised view must stay
//! **byte-identical** to a from-scratch rebuild and agree with the
//! relational ground truth across both executors and every thread
//! count — plus snapshot isolation, batch atomicity and memoised-
//! annotation freshness at the `Db` level.

mod common;

use common::thread_sweep;
use fdb::core::engine::{ExecutorMode, RunOptions};
use fdb::relational::{CmpOp, Predicate};
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
/// ground truth across both executors × the thread sweep.
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

    let want_rows = sorted_rows(&fx.mirror);
    let want_sums = grouped_sums(&fx.mirror);
    for threads in thread_sweep() {
        for executor in [ExecutorMode::Staged, ExecutorMode::PerOp] {
            let opts = RunOptions::new().threads(threads).executor(executor);
            let got = session
                .query_with("SELECT a, b, c FROM R ORDER BY a, b, c", opts)
                .unwrap_or_else(|e| panic!("step {step} projection: {e}"));
            assert_eq!(
                as_rows(&got.rows),
                want_rows,
                "step {step}: projection ({executor:?}, threads={threads})"
            );
            let got = session
                .query_with("SELECT a, SUM(c) AS s FROM R GROUP BY a ORDER BY a", opts)
                .unwrap_or_else(|e| panic!("step {step} aggregate: {e}"));
            assert_eq!(
                as_pairs(&got.rows),
                want_sums,
                "step {step}: aggregate ({executor:?}, threads={threads})"
            );
        }
    }
}

/// The tentpole differential: 120 randomised insert / delete-row /
/// delete-where steps; every 10 steps the delta-maintained view must be
/// byte-identical to a from-scratch rebuild AND both executors at every
/// thread count must reproduce the relational ground truth.
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
