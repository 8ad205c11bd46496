//! `TOP_K` and `COUNT(DISTINCT)` in factorisation time, held to the
//! relational engines: a top-k list composes through `γ` like `PRODUCT`
//! (each partial value repeated by its siblings' tuple count, cut at
//! k), and a distinct count is one walk down the providing spine into a
//! reused dense-id table. Checked on the orders view `R1` — whose swaps
//! share item unions across customers by id — and on hand-built edge
//! cases: a value that reaches k copies only through a sibling count,
//! strings, NULL entries and an all-NULL group.

mod common;

use common::EnginePair;
use fdb::relational::{Relation, Schema, Value};
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::Catalog;

/// `R1` as a factorised view for the factorised engine and as its flat
/// join for the relational ones.
fn r1_pair() -> EnginePair {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 8,
            seed: 0xFDB,
        },
    );
    let view = ds.factorised_view();
    let flat = view.flatten();
    let mut pair = EnginePair::new(catalog);
    pair.fdb.register_view("R1", view);
    pair.rdb_sort.register("R1", flat.clone());
    pair.rdb_hash.register("R1", flat);
    pair
}

/// The executed f-plan of `sql` on the factorised engine.
fn explain(pair: &mut EnginePair, sql: &str) -> String {
    let result = pair
        .fdb
        .run_sql_result(sql)
        .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    result.explain(&pair.fdb.catalog)
}

const GROUPINGS: [&str; 4] = ["customer", "package", "date", ""];

/// `SELECT g, <agg> AS v FROM <from> GROUP BY g`, or the global
/// aggregate when `g` is empty.
fn grouped(agg: &str, from: &str, g: &str) -> String {
    if g.is_empty() {
        format!("SELECT {agg} AS v FROM {from}")
    } else {
        format!("SELECT {g}, {agg} AS v FROM {from} GROUP BY {g}")
    }
}

#[test]
fn top_k_composes_through_gamma_on_r1() {
    let mut pair = r1_pair();
    for k in [1, 3, 10, 1000] {
        for g in GROUPINGS {
            let sql = grouped(&format!("TOP_K(price, {k})"), "R1", g);
            let out = pair.assert_all_agree(&sql);
            assert!(!out.is_empty(), "`{sql}`");
            let plan = explain(&mut pair, &sql);
            assert!(
                plan.contains(&format!("γ[top_k(price, {k})]")),
                "`{sql}` must fold price into a partial top-k list:\n{plan}"
            );
        }
    }
}

#[test]
fn count_distinct_walks_r1_without_a_set_per_union() {
    let mut pair = r1_pair();
    for a in ["item", "package", "date", "customer"] {
        for g in GROUPINGS {
            let sql = grouped(&format!("COUNT(DISTINCT {a})"), "R1", g);
            let out = pair.assert_all_agree(&sql);
            assert!(!out.is_empty(), "`{sql}`");
        }
    }
}

/// Orders(customer, date, package), Packages(package, item),
/// Items(item, price) from literal rows.
fn orders_pair(orders: &[[i64; 3]], packages: &[[i64; 2]], items: &[(i64, Value)]) -> EnginePair {
    let mut catalog = Catalog::new();
    let [customer, date, package, item, price] =
        ["customer", "date", "package", "item", "price"].map(|n| catalog.intern(n));
    let ints = |row: &[i64]| row.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
    let mut pair = EnginePair::new(catalog);
    pair.register(
        "Orders",
        Relation::from_rows(
            Schema::new(vec![customer, date, package]),
            orders.iter().map(|r| ints(r)),
        ),
    );
    pair.register(
        "Packages",
        Relation::from_rows(
            Schema::new(vec![package, item]),
            packages.iter().map(|r| ints(r)),
        ),
    );
    pair.register(
        "Items",
        Relation::from_rows(
            Schema::new(vec![item, price]),
            items.iter().map(|(i, p)| vec![Value::Int(*i), p.clone()]),
        ),
    );
    pair
}

#[test]
fn a_value_reaches_k_copies_only_through_a_sibling_count() {
    // One price under one item, ordered on three dates: the partial list
    // under the item holds one 9, and the date count repeats it.
    let mut pair = orders_pair(
        &[[1, 10, 5], [1, 11, 5], [1, 12, 5]],
        &[[5, 7]],
        &[(7, Value::Int(9))],
    );
    let sql = "SELECT customer, TOP_K(price, 3) AS t FROM Orders, Packages, Items \
               GROUP BY customer";
    let out = pair.assert_all_agree(sql);
    assert_eq!(
        out.row(0),
        &[Value::Int(1), Value::tup(vec![Value::Int(9); 3])]
    );
    assert!(explain(&mut pair, sql).contains("γ[top_k(price, 3)]"));
    // Past the tuple count the list stops at what exists.
    let out = pair.assert_all_agree(&sql.replace("3)", "5)"));
    assert_eq!(out.row(0)[1], Value::tup(vec![Value::Int(9); 3]));
}

#[test]
fn top_k_and_count_distinct_over_strings_and_nulls() {
    // Customer 3's only item has a NULL price: TOP_K is NULL and
    // COUNT(DISTINCT price) is 0. Customers 1 and 2 share package 5,
    // whose items repeat a string price and hold a NULL.
    let items = [
        (70, Value::str("b")),
        (71, Value::str("a")),
        (72, Value::Null),
        (73, Value::str("b")),
        (80, Value::Null),
        (90, Value::str("c")),
    ];
    let mut pair = orders_pair(
        &[[1, 10, 5], [1, 11, 6], [2, 10, 5], [2, 12, 5], [3, 10, 8]],
        &[[5, 70], [5, 71], [5, 72], [5, 73], [6, 90], [8, 80]],
        &items,
    );
    let from = "Orders, Packages, Items";
    for g in GROUPINGS {
        for agg in [
            "COUNT(DISTINCT price)",
            "COUNT(DISTINCT item)",
            "TOP_K(price, 2)",
            "TOP_K(price, 10)",
        ] {
            pair.assert_all_agree(&grouped(agg, from, g));
        }
    }
    let out = pair.assert_all_agree(&grouped("COUNT(DISTINCT price)", from, "customer"));
    let counts: Vec<&Value> = out.rows().map(|r| &r[1]).collect();
    assert_eq!(counts, [&Value::Int(3), &Value::Int(2), &Value::Int(0)]);
    let out = pair.assert_all_agree(&grouped("TOP_K(price, 3)", from, "customer"));
    let top: Vec<&Value> = out.rows().map(|r| &r[1]).collect();
    let s = Value::str;
    assert_eq!(
        top,
        [
            &Value::tup(vec![s("c"), s("b"), s("b")]),
            &Value::tup(vec![s("b"), s("b"), s("b")]),
            &Value::Null,
        ]
    );
}

/// An engine over `n` single-column relations `T0(a0), …, T{n-1}(a{n-1})`
/// of two rows each (`0` and `1`), and the `FROM` list of their cross
/// product, which has `2^n` tuples.
fn cross_product(n: usize) -> (fdb::FdbEngine, String) {
    let mut catalog = Catalog::new();
    let attrs: Vec<_> = (0..n).map(|i| catalog.intern(&format!("a{i}"))).collect();
    let mut engine = fdb::FdbEngine::new(catalog);
    for (i, &a) in attrs.iter().enumerate() {
        let rows = [0, 1].map(|v| vec![Value::Int(v)]);
        engine.register_relation(
            format!("T{i}"),
            Relation::from_rows(Schema::new(vec![a]), rows),
        );
    }
    let from = (0..n).map(|i| format!("T{i}")).collect::<Vec<_>>();
    (engine, from.join(", "))
}

#[test]
fn tuple_multiplicities_beyond_i64_are_refused_not_wrapped() {
    let run = |n: usize, agg: &str| {
        let (mut engine, from) = cross_product(n);
        engine.run_sql(&format!("SELECT {agg} AS v FROM {from}"))
    };
    let refused = |n: usize, agg: &str| match run(n, agg) {
        Err(fdb::core::FdbError::InvalidOperator(m)) => assert!(m.contains("multiplicity"), "{m}"),
        other => panic!("{agg} over {n} relations: {other:?}"),
    };
    // 2^62 tuples still fit.
    let out = run(62, "COUNT(*)").unwrap();
    assert_eq!(out.row(0), [Value::Int(4_611_686_018_427_387_904)]);
    // 2^63 tuples do not: the count used to wrap to i64::MIN. A top-k
    // over them scales the provider's list by the other 62 relations'
    // 2^62 tuples, which fits, so it still answers exactly.
    refused(63, "COUNT(*)");
    let top = Value::tup(vec![Value::Int(1); 3]);
    assert_eq!(run(63, "TOP_K(a0, 3)").unwrap().row(0), [top]);
    // 2^64 tuples: the count used to wrap to 0 and the top-k's 2^63
    // repetitions to a NULL list.
    refused(64, "COUNT(*)");
    refused(64, "TOP_K(a0, 3)");
}
