//! End-to-end ordering behaviour (§4, Experiments 3–4): supported orders
//! stream with constant delay, unsupported orders restructure, LIMIT
//! stops enumeration early, and mixed asc/desc orders work throughout.

mod common;

use common::pizzeria_engines;
use fdb::core::engine::{FdbEngine, OrderStrategy};
use fdb::relational::planner::JoinAggTask;
use fdb::relational::{SortDir, SortKey, Value};
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::Catalog;

/// A small orders environment with the factorised view registered.
fn orders_engine(scale: u32) -> (FdbEngine, fdb::workload::orders::OrdersDataset) {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale,
            customers: 12,
            seed: 99,
        },
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R1", ds.factorised_view());
    (engine, ds)
}

fn assert_streams_sorted(
    engine: &mut FdbEngine,
    task: &JoinAggTask,
    keys: &[SortKey],
    expect_in_tree: bool,
) {
    let result = engine.run_default(task).expect("plans");
    assert_eq!(
        result.order_strategy() == OrderStrategy::StreamInTree,
        expect_in_tree,
        "order-in-tree flag"
    );
    let rel = result.to_relation().expect("enumerates");
    assert!(rel.is_sorted_by(keys), "output must be sorted");
    assert!(!rel.is_empty());
}

#[test]
fn stored_order_streams_without_restructuring() {
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let keys = vec![
        SortKey::asc(a.package),
        SortKey::asc(a.date),
        SortKey::asc(a.item),
    ];
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.date, a.item]),
        order_by: keys.clone(),
        ..Default::default()
    };
    assert_streams_sorted(&mut e, &task, &keys, true);
}

#[test]
fn alternative_supported_order_is_free() {
    // (package, item, date): the other branch order T supports (Q11).
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let keys = vec![
        SortKey::asc(a.package),
        SortKey::asc(a.item),
        SortKey::asc(a.date),
    ];
    assert!(fdb::core::enumerate::supports_order(
        e.view("R1").unwrap().ftree(),
        &keys
    ));
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.item, a.date]),
        order_by: keys.clone(),
        ..Default::default()
    };
    assert_streams_sorted(&mut e, &task, &keys, true);
}

#[test]
fn unsupported_order_restructures_then_streams() {
    // (date, package, item) needs one swap (Q12).
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let keys = vec![
        SortKey::asc(a.date),
        SortKey::asc(a.package),
        SortKey::asc(a.item),
    ];
    assert!(!fdb::core::enumerate::supports_order(
        e.view("R1").unwrap().ftree(),
        &keys
    ));
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.date, a.package, a.item]),
        order_by: keys.clone(),
        ..Default::default()
    };
    assert_streams_sorted(&mut e, &task, &keys, true);
}

#[test]
fn mixed_asc_desc_orders() {
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let keys = vec![
        SortKey {
            attr: a.package,
            dir: SortDir::Desc,
        },
        SortKey {
            attr: a.date,
            dir: SortDir::Asc,
        },
        SortKey {
            attr: a.customer,
            dir: SortDir::Desc,
        },
    ];
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.date, a.customer]),
        order_by: keys.clone(),
        ..Default::default()
    };
    assert_streams_sorted(&mut e, &task, &keys, true);
}

#[test]
fn limit_truncates_streamed_enumeration() {
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let keys = vec![SortKey::asc(a.package), SortKey::asc(a.item)];
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.item]),
        order_by: keys.clone(),
        limit: Some(7),
        ..Default::default()
    };
    let rel = e.run_default(&task).unwrap().to_relation().unwrap();
    assert_eq!(rel.len(), 7);
    assert!(rel.is_sorted_by(&keys));
}

#[test]
fn limit_zero_is_empty() {
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package]),
        limit: Some(0),
        ..Default::default()
    };
    let rel = e.run_default(&task).unwrap().to_relation().unwrap();
    assert!(rel.is_empty());
}

#[test]
fn grouped_aggregate_ordered_by_group_prefix() {
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let total = e.catalog.intern("total");
    let keys = vec![SortKey::asc(a.package), SortKey::asc(a.date)];
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: vec![a.package, a.date],
        aggregates: vec![fdb::relational::AggSpec::new(
            fdb::relational::AggFunc::Sum(a.price),
            total,
        )],
        order_by: keys.clone(),
        ..Default::default()
    };
    assert_streams_sorted(&mut e, &task, &keys, true);
}

#[test]
fn order_by_avg_falls_back_to_sort() {
    // avg is a derived (divided) column: the factorisation cannot realise
    // this order, so the engine must sort the materialised result — and
    // say so via its ordering strategy.
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let m = e.catalog.intern("mean_price");
    let keys = vec![SortKey::desc(m)];
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: vec![a.package],
        aggregates: vec![fdb::relational::AggSpec::new(
            fdb::relational::AggFunc::Avg(a.price),
            m,
        )],
        order_by: keys.clone(),
        ..Default::default()
    };
    let result = e.run_default(&task).unwrap();
    assert_eq!(result.order_strategy(), OrderStrategy::CollectSortCut);
    let rel = result.to_relation().unwrap();
    assert!(rel.is_sorted_by(&keys));
}

#[test]
fn q13_partial_resort_of_orders_trie() {
    // R3 = o_{date,customer,package}(Orders), re-sorted by (customer,
    // date, package): one swap; the package lists stay sorted.
    let (mut e, ds) = orders_engine(1);
    let a = ds.attrs;
    let mut r3 = ds.orders.project_cols(&[a.date, a.customer, a.package]);
    r3.sort_by_keys(&[
        SortKey::asc(a.date),
        SortKey::asc(a.customer),
        SortKey::asc(a.package),
    ]);
    let rep = fdb::core::frep::FRep::from_relation(
        &r3,
        fdb::FTree::path(&[a.date, a.customer, a.package]),
    )
    .unwrap();
    let before = rep.tuple_count();
    e.register_view("R3", rep);
    let keys = vec![
        SortKey::asc(a.customer),
        SortKey::asc(a.date),
        SortKey::asc(a.package),
    ];
    let task = JoinAggTask {
        inputs: vec!["R3".into()],
        projection: Some(vec![a.customer, a.date, a.package]),
        order_by: keys.clone(),
        ..Default::default()
    };
    let result = e.run_default(&task).unwrap();
    assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
    let rel = result.to_relation().unwrap();
    assert_eq!(rel.len(), before);
    assert!(rel.is_sorted_by(&keys));
}

#[test]
fn pizzeria_supported_and_unsupported_orders() {
    // The Example 9 orders, end to end through SQL.
    let mut e = pizzeria_engines();
    for (sql, sorted_cols) in [
        (
            "SELECT pizza, date, customer FROM Orders, Pizzas, Items \
             ORDER BY pizza, date, customer",
            3,
        ),
        (
            "SELECT pizza, item, price FROM Pizzas, Items \
             ORDER BY pizza, item, price",
            3,
        ),
        (
            // Needs restructuring: customer is not a root of T1.
            "SELECT customer, pizza FROM Orders, Pizzas \
             ORDER BY customer DESC, pizza",
            2,
        ),
    ] {
        let out = e.run_fdb(sql);
        assert!(out.len() > 1, "{sql}");
        assert_eq!(out.arity(), sorted_cols);
        // Verify sortedness against the declared keys by re-parsing.
        let schemas = e.fdb.schemas();
        let q = fdb::parse(sql, &mut e.fdb.catalog, &schemas).unwrap();
        assert!(out.is_sorted_by(&q.order_by), "{sql}");
    }
}

#[test]
fn parallel_runs_are_deterministic_including_limit_ties() {
    // Two back-to-back runs on fresh engines must yield byte-identical
    // results — including `ORDER BY … LIMIT` where several groups tie at
    // the cut. The dataset is built so that revenue ties: customers 0..8
    // pair up with equal totals.
    use fdb::relational::{Relation, Schema};

    let build = || {
        let mut catalog = Catalog::new();
        let customer = catalog.intern("customer");
        let order_id = catalog.intern("order_id");
        let amount = catalog.intern("amount");
        // customer c gets orders summing to 100 * (c / 2): consecutive
        // pairs of customers tie exactly.
        let rows: Vec<Vec<Value>> = (0..8i64)
            .flat_map(|c| {
                (0..4i64).map(move |o| {
                    vec![
                        Value::Int(c),
                        Value::Int(c * 10 + o),
                        Value::Int(25 * (c / 2)),
                    ]
                })
            })
            .collect();
        let sales = Relation::from_rows(Schema::new(vec![customer, order_id, amount]), rows);
        let mut e = FdbEngine::new(catalog);
        e.register_relation("Sales", sales);
        e
    };

    let task = |e: &mut FdbEngine| {
        let customer = e.catalog.lookup("customer").unwrap();
        let amount = e.catalog.lookup("amount").unwrap();
        let revenue = e.catalog.intern("revenue");
        JoinAggTask {
            inputs: vec!["Sales".into()],
            group_by: vec![customer],
            aggregates: vec![fdb::relational::AggSpec::new(
                fdb::relational::AggFunc::Sum(amount),
                revenue,
            )],
            order_by: vec![SortKey::desc(revenue), SortKey::asc(customer)],
            limit: Some(3),
            ..Default::default()
        }
    };

    let run_fresh = |make: &dyn Fn(&mut FdbEngine) -> JoinAggTask| {
        let mut e = build();
        let t = make(&mut e);
        e.run_default(&t).unwrap().to_relation().unwrap()
    };

    // Revenue per customer is 100 · (c / 2): customers 6 and 7 tie at
    // 300, broken by customer, then 4 at 200.
    let first = run_fresh(&task);
    let top: Vec<(i64, i64)> = first
        .rows()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(top, vec![(6, 300), (7, 300), (4, 200)]);
    assert_eq!(run_fresh(&task), first, "two runs diverged");

    // The same discipline with the tie *at* the LIMIT cut and no
    // tiebreaker key: the stable sort must resolve it identically on
    // every run.
    let tie_task = |e: &mut FdbEngine| {
        let mut t = task(e);
        t.order_by.truncate(1); // ORDER BY revenue DESC only
        t.limit = Some(5); // cuts inside a tie pair
        t
    };
    let first_tie = run_fresh(&tie_task);
    assert_eq!(first_tie.len(), 5);
    assert_eq!(
        run_fresh(&tie_task),
        first_tie,
        "tie at the LIMIT cut diverged"
    );
}

#[test]
fn top1_revenue_query_streams_single_group() {
    let mut e = pizzeria_engines();
    let out = e.run_fdb(
        "SELECT customer, SUM(price) AS revenue FROM Orders, Pizzas, Items \
         GROUP BY customer ORDER BY revenue DESC LIMIT 1",
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out.row(0)[0], Value::str("Mario"));
}
