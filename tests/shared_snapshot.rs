//! Concurrent readers over one `Arc`-shared snapshot.
//!
//! The serving layer's correctness contract: N threads enumerating and
//! aggregating the same immutable `FRep` arenas (through cheap engine
//! clones or [`fdb::Session`] snapshots) produce results **byte
//! identical** to the serial run — same rows, same order — and
//! registrations after a snapshot is cut stay invisible to it.

mod common;

use fdb::core::engine::FdbEngine;
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::{Catalog, Db, Relation, Value};
use std::sync::Arc;

/// The byte-identity projection: tuples in enumeration order. Output
/// attribute *ids* are interned per run, so they legitimately differ
/// across engine clones; values and their order must not.
fn tuples(r: &Relation) -> Vec<Vec<Value>> {
    r.rows().map(|row| row.to_vec()).collect()
}

const N_THREADS: usize = 16;

fn orders_engine() -> FdbEngine {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 20,
            seed: 11,
        },
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R1", ds.factorised_view());
    engine.register_relation("Items", ds.items);
    engine
}

const QUERIES: [&str; 4] = [
    "SELECT customer, SUM(price) AS revenue FROM R1 \
     GROUP BY customer ORDER BY revenue DESC, customer LIMIT 5",
    "SELECT COUNT(*) AS n FROM R1",
    "SELECT item, price FROM Items ORDER BY price DESC, item LIMIT 7",
    // A swap-only plan: the threads race to restructure R1's version.
    "SELECT package, date, customer, item, price FROM R1 \
     ORDER BY date, package, item, customer LIMIT 10 OFFSET 500",
];

#[test]
fn engine_clones_share_arenas_and_enumerate_byte_identically() {
    let engine = orders_engine();
    // Serial reference on an engine of its own: a clone would share (and
    // warm) the view's restructured copies.
    let mut reference = orders_engine();
    let serial: Vec<Relation> = QUERIES
        .iter()
        .map(|sql| reference.run_sql(sql).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let mut mine = engine.clone();
                // The clone shares the arena, it does not copy it.
                assert!(Arc::ptr_eq(
                    &engine.view_arc("R1").unwrap(),
                    &mine.view_arc("R1").unwrap()
                ));
                scope.spawn(move || {
                    // Each thread walks the queries from its own offset
                    // so distinct queries overlap in time.
                    (0..QUERIES.len())
                        .map(|i| {
                            let q = (t + i) % QUERIES.len();
                            (q, mine.run_sql(QUERIES[q]).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            for (q, rel) in h.join().unwrap() {
                // Byte-identical: same rows in the same order, not just
                // the same set.
                assert_eq!(tuples(&rel), tuples(&serial[q]), "thread {t}, query {q}");
            }
        }
    });
}

#[test]
fn sixteen_sessions_on_one_db_agree_with_serial() {
    let db = Db::from_engine(orders_engine());
    // The reference runs on a second `Db`, so the sessions below race a
    // cold store of restructured copies.
    let reference = Db::from_engine(orders_engine());
    let serial: Vec<Relation> = QUERIES
        .iter()
        .map(|sql| reference.session().query(sql).unwrap().rows)
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let mut session = db.session();
                scope.spawn(move || {
                    (0..QUERIES.len())
                        .map(|i| {
                            let q = (t + i) % QUERIES.len();
                            (q, session.query(QUERIES[q]).unwrap().rows)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (q, rows) in h.join().unwrap() {
                assert_eq!(tuples(&rows), tuples(&serial[q]));
            }
        }
    });
}

#[test]
fn sessions_are_snapshots_registrations_stay_invisible() {
    let db = Db::from_engine(orders_engine());
    let mut old = db.session();
    let epoch_before = db.epoch();

    // Register a second view after the snapshot was cut.
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 5,
            seed: 99,
        },
    );
    // Serialise/reload so the view lands in the Db's own catalog.
    let mut producer = FdbEngine::new(catalog);
    producer.register_view("Late", ds.factorised_view());
    let mut bytes = Vec::new();
    producer.save_view("Late", &mut bytes).unwrap();
    db.load_view("Late", bytes.as_slice()).unwrap();

    assert!(db.epoch() > epoch_before, "registration bumps the epoch");
    assert_ne!(old.epoch(), db.epoch(), "old session is now stale");

    // The old snapshot cannot see the late view; a fresh one can.
    assert!(old.query("SELECT COUNT(*) AS n FROM Late").is_err());
    let mut fresh = db.session();
    assert!(fresh.query("SELECT COUNT(*) AS n FROM Late").is_ok());
    // And the old snapshot still answers its own queries.
    assert!(old.query("SELECT COUNT(*) AS n FROM R1").is_ok());
}

#[test]
fn outcome_carries_explain_and_stats() {
    let db = Db::from_engine(orders_engine());
    let mut session = db.session();
    let out = session.query(QUERIES[0]).unwrap();
    assert_eq!(out.columns, vec!["customer", "revenue"]);
    assert!(out.explain.contains("f-plan"), "{}", out.explain);
    assert!(out.order.rows_enumerated >= out.rows.len());
    assert_eq!(out.len(), out.rows.len());
    assert!(!out.is_empty());
}

#[test]
fn unaliased_headers_are_stable_across_runs() {
    // Before the per-query catalog rollback the second run answered
    // `sum(price)_2`, the third `sum(price)_3`.
    let db = Db::from_engine(orders_engine());
    let mut session = db.session();
    let sql = "SELECT package, SUM(price) FROM R1 GROUP BY package";
    for _ in 0..3 {
        let out = session.query(sql).unwrap();
        assert_eq!(out.columns, vec!["package", "sum(price)"]);
    }
    // EXPLAIN and failing queries leave no names behind either.
    session.explain(sql).unwrap();
    assert!(session.query("SELECT SUM(nope) AS x FROM R1").is_err());
    assert_eq!(session.query(sql).unwrap().columns[1], "sum(price)");
}

#[test]
fn session_catalog_does_not_grow_with_queries() {
    let db = Db::from_engine(orders_engine());
    let mut session = db.session();
    let names = session.catalog().len();
    for i in 0..10_000 {
        let sql = if i % 2 == 0 {
            "SELECT SUM(price) AS total FROM Items"
        } else {
            "SELECT item, AVG(price) FROM Items GROUP BY item"
        };
        session.query(sql).unwrap();
    }
    assert_eq!(session.catalog().len(), names);
}

/// A direct-access page (`OFFSET` deep into a stored order) seeks through
/// the view's count index. The index is built once per view version: the
/// first session's page builds it into the registered version, and every
/// later snapshot of that version reads the same one. A write's new
/// version starts without one, and a snapshot cut before the write keeps
/// its own.
#[test]
fn the_count_index_is_built_once_per_view_version() {
    let db = Db::from_engine(orders_engine());
    let page = "SELECT package, date, customer, item, price FROM R1 \
                ORDER BY package, date, item, customer LIMIT 10 OFFSET 2000";
    let view = |s: &mut fdb::Session| s.engine_mut().view_arc("R1").unwrap();
    let mut first = db.session();
    assert!(!view(&mut first).has_count_index());
    let rows = first.query(page).unwrap().rows;
    assert_eq!(rows.len(), 10);
    let built = view(&mut db.session());
    assert!(
        built.has_count_index(),
        "the registered version has no index"
    );
    for _ in 0..2 {
        let mut s = db.session();
        assert!(view(&mut s).shares_count_index_with(&built));
        assert_eq!(s.query(page).unwrap().rows, rows);
        assert!(view(&mut s).shares_count_index_with(&built));
    }

    let mut before = db.session();
    db.execute(
        "INSERT INTO R1 (package, date, customer, item, price) VALUES (1000000, 1, 1, 1, 5)",
    )
    .unwrap();
    let written = view(&mut db.session());
    assert!(!written.has_count_index(), "a write kept a stale index");
    assert!(view(&mut before).shares_count_index_with(&built));
    assert_eq!(before.query(page).unwrap().rows, rows);
    db.session().query(page).unwrap();
    let rebuilt = view(&mut db.session());
    assert!(rebuilt.has_count_index());
    assert!(!rebuilt.shares_count_index_with(&built));
}

/// A written version keeps its predecessor's base, and with it the
/// base's counts: its own count index counts only the tail the write
/// appended. A page over it shows the write — here a row that sorts
/// first shifts every later row by one — so it never reads the
/// predecessor's tail counts.
#[test]
fn a_written_version_reuses_the_base_counts_and_counts_its_own_tail() {
    let db = Db::from_engine(orders_engine());
    let page = |offset: usize| {
        format!(
            "SELECT package, date, customer, item, price FROM R1 \
             ORDER BY package, date, item, customer LIMIT 10 OFFSET {offset}"
        )
    };
    let view = |s: &mut fdb::Session| s.engine_mut().view_arc("R1").unwrap();
    let shifted = db.session().query(&page(1999)).unwrap().rows;
    let first = view(&mut db.session());
    assert!(first.has_count_index());

    db.execute("INSERT INTO R1 (package, date, customer, item, price) VALUES (-1, 1, 1, 1, 5)")
        .unwrap();
    let written = view(&mut db.session());
    assert!(written.shares_base_with(&first) && written.tail_records() > 0);
    assert!(!written.has_count_index());
    assert_eq!(db.session().query(&page(2000)).unwrap().rows, shifted);
    let counted = view(&mut db.session());
    assert!(counted.has_count_index());
    assert!(counted.shares_base_counts_with(&first));
    assert!(!counted.shares_count_index_with(&first));
}

/// A page in an order the stored f-tree does not support swaps the view
/// first. The swapped copy is kept per view version: a second run, on
/// the same engine or on another session's clone, reads it — count index
/// and all — and runs no pass. A write's new version swaps afresh, a
/// session cut before the write keeps reading its own version's copy,
/// and another swap order is a plan of its own.
#[test]
fn a_restructured_view_is_built_once_per_view_version() {
    let db = Db::from_engine(orders_engine());
    let page = "SELECT package, date, customer, item, price FROM R1 \
                ORDER BY date, package, item, customer LIMIT 10 OFFSET 2000";
    let reused = "restructured input: reused for this view version";
    let run = |s: &mut fdb::Session, sql: &str| {
        let result = s.engine_mut().run_sql_result(sql).unwrap();
        let rows = result.to_relation().unwrap();
        let explain = result.explain(s.catalog());
        (result, rows, explain)
    };
    let mut session = db.session();
    let (first, rows, explain) = run(&mut session, page);
    assert_eq!(rows.len(), 10);
    assert!(!explain.contains(reused), "{explain}");
    assert!(first.exec_stats().intermediate_bytes > 0);
    assert!(first.rep().has_count_index(), "the page did not seek");
    let mut fresh = db.session();
    for s in [&mut session, &mut fresh] {
        let (again, again_rows, explain) = run(s, page);
        assert!(again.rep().shares_count_index_with(first.rep()));
        assert_eq!(again_rows, rows);
        assert!(explain.contains(reused), "{explain}");
        let stats = again.exec_stats();
        assert_eq!(stats.operators, first.exec_stats().operators);
        assert_eq!((stats.stages, stats.intermediate_bytes), (0, 0));
    }

    // Another swap order over the same version is not this plan.
    let other = "SELECT package, date, customer, item, price FROM R1 \
                 ORDER BY item, package, date, customer LIMIT 10 OFFSET 2000";
    let (cold, cold_rows, _) = run(&mut Db::from_engine(orders_engine()).session(), other);
    let (second, second_rows, explain) = run(&mut db.session(), other);
    assert!(!explain.contains(reused), "{explain}");
    assert!(!second.rep().shares_count_index_with(first.rep()));
    assert_eq!(second_rows, cold_rows);
    assert_eq!(second.order_strategy(), cold.order_strategy());

    let mut before = db.session();
    db.execute("INSERT INTO R1 (package, date, customer, item, price) VALUES (-1, -1, 1, 1, 5)")
        .unwrap();
    let (written, written_rows, explain) = run(&mut db.session(), page);
    assert!(!explain.contains(reused), "{explain}");
    assert!(!written.rep().shares_count_index_with(first.rep()));
    assert_ne!(written_rows, rows, "the written row sorts first");
    let (again, again_rows, _) = run(&mut db.session(), page);
    assert!(again.rep().shares_count_index_with(written.rep()));
    assert_eq!(again_rows, written_rows);
    let (old, old_rows, explain) = run(&mut before, page);
    assert!(old.rep().shares_count_index_with(first.rep()));
    assert!(explain.contains(reused), "{explain}");
    assert_eq!(old_rows, rows);
}
