//! The group fold held to the relational engines. A query whose `GROUP
//! BY` attributes lie on one root path of a single-rooted f-tree plans
//! one fold instead of partial `γ`s and swaps, whatever its functions;
//! its rows must be the relational engines' under every `WHERE`,
//! `ORDER BY`, `LIMIT`/`OFFSET` and `HAVING` shape on the orders view
//! `R1` (`package → {date → customer, item → price}`), with NULL group
//! values and NULL inputs, and a multiplicity past `i64` is still
//! refused. The shapes the fold leaves out keep their swap or `γ` plan.

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
            seed: 0xF01D,
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

/// Asserts that `sql` agrees with the relational engines and plans the
/// group fold; returns the plan after the agreed rows.
fn folds(pair: &mut EnginePair, sql: &str) -> (Relation, String) {
    let out = pair.assert_all_agree(sql);
    let plan = explain(pair, sql);
    assert!(plan.contains("fold by"), "`{sql}` must fold:\n{plan}");
    (out, plan)
}

/// [`folds`] on `R1`, a view: no join needs a swap, so none comes before
/// the fold.
fn folds_r1(pair: &mut EnginePair, sql: &str) -> Relation {
    let (out, plan) = folds(pair, sql);
    let fold = plan.find("fold by").unwrap();
    assert!(
        !plan[..fold].contains("swap"),
        "`{sql}` swaps before its fold:\n{plan}"
    );
    out
}

/// Every function the fold takes (`AVG` arrives as a sum and a count),
/// over `price` — the group attribute itself when grouping by price.
const FUNCS: [&str; 10] = [
    "SUM(price)",
    "COUNT(*)",
    "MIN(price)",
    "MAX(price)",
    "PRODUCT(price)",
    "EXISTS(price > 12)",
    "FORALL(price >= 3)",
    "AVG(price)",
    "COUNT(DISTINCT price)",
    "TOP_K(price, 3)",
];

/// Every non-root attribute of `R1`.
const GROUPS: [&str; 4] = ["date", "customer", "item", "price"];

#[test]
fn every_folded_function_agrees_per_group_and_selection() {
    let mut pair = r1_pair();
    for g in GROUPS {
        for f in FUNCS {
            let sql = format!("SELECT {g}, {f} AS v FROM R1 GROUP BY {g}");
            let out = folds_r1(&mut pair, &sql);
            assert!(!out.is_empty(), "`{sql}`");
        }
        // No selection, one on the root, one off the group's root path;
        // every function in one walk.
        let sibling = match g {
            "date" | "customer" => " WHERE item <> 5",
            _ => " WHERE date < 300",
        };
        for w in ["", " WHERE package <> 2", sibling] {
            let all: Vec<String> = FUNCS
                .iter()
                .enumerate()
                .map(|(k, f)| format!("{f} AS v{k}"))
                .collect();
            let sql = format!("SELECT {g}, {} FROM R1{w} GROUP BY {g}", all.join(", "));
            folds_r1(&mut pair, &sql);
        }
    }
}

#[test]
fn functions_over_the_root_path_and_the_group_attribute_fold() {
    let mut pair = r1_pair();
    for sql in [
        // date lies on customer's root path; package is the root.
        "SELECT customer, MIN(date) AS v FROM R1 GROUP BY customer",
        "SELECT customer, MAX(package) AS v, COUNT(*) AS n FROM R1 GROUP BY customer",
        "SELECT price, SUM(package) AS v FROM R1 GROUP BY price",
        // The group attribute itself, read off each group's value.
        "SELECT customer, SUM(customer) AS v FROM R1 GROUP BY customer",
        "SELECT date, SUM(date) AS v, PRODUCT(price) AS p FROM R1 GROUP BY date",
        "SELECT item, MIN(item) AS v, FORALL(item >= 0) AS f FROM R1 GROUP BY item",
    ] {
        folds_r1(&mut pair, sql);
    }
}

#[test]
fn ordered_paged_and_filtered_folds_agree() {
    let mut pair = r1_pair();
    for g in ["customer", "date", "item"] {
        let base = format!("SELECT {g}, SUM(price) AS v FROM R1 GROUP BY {g}");
        for tail in [
            format!(" ORDER BY {g}"),
            format!(" ORDER BY {g} DESC LIMIT 3"),
            format!(" ORDER BY v DESC, {g} LIMIT 4 OFFSET 2"),
            format!(" ORDER BY v, {g} LIMIT 5"),
            " HAVING v > 100".to_string(),
            format!(" HAVING v > 100 ORDER BY v DESC, {g} LIMIT 3 OFFSET 1"),
        ] {
            folds_r1(&mut pair, &format!("{base}{tail}"));
        }
        let avg = format!(
            "SELECT {g}, AVG(price) AS a FROM R1 GROUP BY {g} ORDER BY a DESC, {g} LIMIT 5"
        );
        folds_r1(&mut pair, &avg);
    }
    // A selection that leaves nothing: no groups.
    let none = "SELECT customer, SUM(price) AS v FROM R1 WHERE package > 1000000 GROUP BY customer";
    assert!(folds_r1(&mut pair, none).is_empty());
    // The fold's groups come out in value order.
    let out = pair.run_fdb("SELECT customer, SUM(price) AS v FROM R1 GROUP BY customer");
    let keys: Vec<&Value> = out.rows().map(|r| &r[0]).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
}

/// Group sets on one root path of `R1`: prefixes that do not end in a
/// leaf, and sets under or around a node outside them.
const GROUP_SETS: [&str; 6] = [
    "date, package",
    "customer, date",
    "package, customer",
    "package, item",
    "package, price",
    "customer, package, date, item",
];

#[test]
fn group_sets_on_one_root_path_fold_alone() {
    let mut pair = r1_pair();
    for g in GROUP_SETS {
        let base = format!("SELECT {g}, SUM(price) AS v FROM R1 GROUP BY {g}");
        if g.contains("item") && g.contains("customer") {
            // Not on one root path: no fold.
            let plan = explain(&mut pair, &base);
            assert!(!plan.contains("fold by"), "`{base}` must not fold:\n{plan}");
            pair.assert_all_agree(&base);
            continue;
        }
        let keys: Vec<&str> = g.split(", ").collect();
        let reversed: Vec<&str> = keys.iter().rev().copied().collect();
        for tail in [
            String::new(),
            format!(" ORDER BY {g}"),
            format!(" ORDER BY {}", reversed.join(", ")),
            format!(" ORDER BY {} DESC, {} LIMIT 7 OFFSET 3", keys[1], keys[0]),
        ] {
            // One operator: the fold, with no swap and no partial `γ`.
            let sql = format!("{base}{tail}");
            let (_, plan) = folds(&mut pair, &sql);
            assert!(plan.contains("f-plan (1 operator(s)"), "`{sql}`:\n{plan}");
        }
    }
    // `order_page`'s grouped page.
    let page = "SELECT date, package, SUM(price) AS sum_price FROM R1 \
                GROUP BY date, package ORDER BY package, date LIMIT 10 OFFSET 20";
    let (out, plan) = folds(&mut pair, page);
    assert!(plan.contains("f-plan (1 operator(s)"), "{plan}");
    assert_eq!(out.len(), 10);
}

#[test]
fn group_sets_agree_under_every_clause() {
    let mut pair = r1_pair();
    for g in [
        "date, package",
        "customer, date",
        "package, customer",
        "package, price",
    ] {
        let keys: Vec<&str> = g.split(", ").collect();
        let (a, b) = (keys[0], keys[1]);
        let all: Vec<String> = FUNCS
            .iter()
            .enumerate()
            .map(|(k, f)| format!("{f} AS v{k}"))
            .collect();
        folds_r1(
            &mut pair,
            &format!("SELECT {g}, {} FROM R1 GROUP BY {g}", all.join(", ")),
        );
        let base = format!("SELECT {g}, SUM(price) AS v, COUNT(*) AS n FROM R1");
        for tail in [
            format!(" GROUP BY {g} ORDER BY {a}, {b}"),
            format!(" GROUP BY {g} ORDER BY {b}, {a}"),
            format!(" GROUP BY {g} ORDER BY {a} DESC, {b} DESC"),
            format!(" GROUP BY {g} ORDER BY {b} DESC, {a} LIMIT 5 OFFSET 2"),
            format!(" GROUP BY {g} ORDER BY {a}, {b} LIMIT 4"),
            format!(" GROUP BY {g} ORDER BY v DESC, {a}, {b} LIMIT 6 OFFSET 1"),
            format!(" GROUP BY {g} HAVING v > 40"),
            format!(" GROUP BY {g} HAVING n > 2 ORDER BY n, {b}, {a} LIMIT 3"),
            format!(" WHERE package <> 2 GROUP BY {g}"),
            format!(" WHERE date < 300 AND item <> 5 GROUP BY {g} ORDER BY {b}, {a}"),
        ] {
            folds_r1(&mut pair, &format!("{base}{tail}"));
        }
    }
}

#[test]
fn excluded_shapes_keep_the_swap_plan() {
    let mut pair = r1_pair();
    for (sql, swaps) in [
        // The root is already on top: nothing to lift, nothing to fold.
        (
            "SELECT package, SUM(price) AS v FROM R1 GROUP BY package",
            false,
        ),
        // A prefix of the root path that ends in a leaf: its `γ`s leave
        // every group where it is.
        (
            "SELECT package, date, customer, SUM(price) AS v FROM R1 \
             GROUP BY package, date, customer",
            false,
        ),
        // One swap lifts `item` to the root, and `item → price` is then
        // a prefix that ends in a leaf.
        (
            "SELECT item, price, SUM(price) AS v FROM R1 GROUP BY item, price",
            true,
        ),
        ("SELECT SUM(price) AS v FROM R1", false),
    ] {
        pair.assert_all_agree(sql);
        let plan = explain(&mut pair, sql);
        assert!(!plan.contains("fold by"), "`{sql}` must not fold:\n{plan}");
        assert!(plan.contains("γ["), "`{sql}` keeps its γ:\n{plan}");
        assert_eq!(plan.contains("swap"), swaps, "`{sql}`:\n{plan}");
    }
}

/// `agg_fo`'s distinct and top-k templates, a sum beside a top-k and a
/// distinct count beside an average: each one fold by `customer` and
/// nothing else.
const ONE_FOLD: [&str; 4] = [
    "SELECT customer, COUNT(DISTINCT item) AS u_items FROM R1 GROUP BY customer",
    "SELECT customer, TOP_K(price, 3) AS top_price FROM R1 GROUP BY customer",
    "SELECT customer, SUM(price) AS v, TOP_K(price, 2) AS t FROM R1 GROUP BY customer",
    "SELECT customer, COUNT(DISTINCT date) AS d, AVG(price) AS a FROM R1 GROUP BY customer",
];

#[test]
fn distinct_and_top_k_fold_alone() {
    let mut pair = r1_pair();
    for sql in ONE_FOLD {
        folds_r1(&mut pair, sql);
        let plan = explain(&mut pair, sql);
        assert!(plan.contains("f-plan (1 operator(s)"), "`{sql}`:\n{plan}");
        assert!(plan.contains("fold by customer"), "`{sql}`:\n{plan}");
    }
    // Several group nodes, a top-k and a distinct count of a node on the
    // group nodes' root path and of one off it.
    for sql in [
        "SELECT customer, date, TOP_K(price, 2) AS t FROM R1 GROUP BY customer, date",
        "SELECT date, customer, COUNT(DISTINCT item) AS u, COUNT(DISTINCT package) AS p \
         FROM R1 GROUP BY date, customer",
    ] {
        let (_, plan) = folds(&mut pair, sql);
        assert!(plan.contains("f-plan (1 operator(s)"), "`{sql}`:\n{plan}");
    }
}

#[test]
fn distinct_and_top_k_agree_under_every_clause() {
    let mut pair = r1_pair();
    let d = "SELECT customer, COUNT(DISTINCT item) AS u FROM R1";
    let t = "SELECT customer, TOP_K(price, 3) AS t FROM R1";
    let both = "SELECT customer, COUNT(DISTINCT price) AS u, TOP_K(item, 2) AS t, \
                SUM(price) AS s FROM R1";
    for base in [d, t, both] {
        for tail in [
            " GROUP BY customer HAVING u > 40",
            " GROUP BY customer ORDER BY customer DESC LIMIT 3 OFFSET 2",
            " WHERE customer <> 3 GROUP BY customer",
            " WHERE customer <> 3 AND package <> 1 GROUP BY customer ORDER BY customer",
            " WHERE date < 300 GROUP BY customer",
        ] {
            if base == t && tail.contains("HAVING") {
                continue;
            }
            folds_r1(&mut pair, &format!("{base}{tail}"));
        }
    }
    // Ordered by the aggregate and paged: the fold, then its output
    // consolidated under each group.
    for sql in [
        format!("{d} GROUP BY customer ORDER BY u DESC, customer LIMIT 4 OFFSET 1"),
        format!("{d} GROUP BY customer HAVING u >= 30 ORDER BY u, customer"),
        format!("{t} GROUP BY customer ORDER BY t DESC, customer LIMIT 5"),
        format!("{both} WHERE customer <> 5 GROUP BY customer ORDER BY u, customer LIMIT 3"),
    ] {
        folds_r1(&mut pair, &sql);
    }
    // Grouping sets: one run per set, each its own plan.
    for sql in [
        "SELECT customer, date, COUNT(DISTINCT item) AS u FROM R1 GROUP BY ROLLUP (customer, date)",
        "SELECT customer, date, TOP_K(price, 2) AS t, COUNT(*) AS n FROM R1 \
         GROUP BY ROLLUP (customer, date)",
    ] {
        pair.assert_all_agree(sql);
    }
}

#[test]
fn figure_6_q1_on_the_base_relations_keeps_its_plan() {
    // Joined, the tree is `item → package → customer → date` with a
    // partial `γ` under `item`: one swap lifts `package` to the root and
    // the group nodes are then a prefix that ends in a leaf.
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 8,
            seed: 0xF01D,
        },
    );
    let mut pair = EnginePair::new(catalog);
    pair.register("Orders", ds.orders.clone());
    pair.register("Packages", ds.packages.clone());
    pair.register("Items", ds.items.clone());
    let sql = "SELECT package, date, customer, SUM(price) AS v FROM Orders, Packages, Items \
               GROUP BY package, date, customer";
    pair.assert_all_agree(sql);
    let plan = explain(&mut pair, sql);
    assert!(!plan.contains("fold by"), "{plan}");
}

#[test]
fn figure_6_q3_on_the_base_relations_keeps_its_plan() {
    // Joined, `date` sits under `customer`, below `package`: one swap
    // (`χ(package, item)`), then one fold groups by package and date,
    // interning each order's `(package, date)` pair in direct slots. The
    // swap plan it replaced (three swaps, three `γ`s) was faster while
    // that interning hashed every pair.
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 8,
            seed: 0xF01D,
        },
    );
    let mut pair = EnginePair::new(catalog);
    pair.register("Orders", ds.orders.clone());
    pair.register("Packages", ds.packages.clone());
    pair.register("Items", ds.items.clone());
    let sql = "SELECT date, package, SUM(price) AS v FROM Orders, Packages, Items \
               GROUP BY date, package";
    pair.assert_all_agree(sql);
    let plan = explain(&mut pair, sql);
    let ops: Vec<&str> = plan
        .lines()
        .filter(|l| l.starts_with("  ") && l.trim_start().starts_with(char::is_numeric))
        .collect();
    assert_eq!(ops.len(), 5, "{plan}");
    assert!(ops[2].contains("swap χ(package="), "{plan}");
    assert!(
        ops[4].contains("fold by package=") && ops[4].contains(", date: "),
        "{plan}"
    );
    assert_eq!(plan.matches("swap").count(), 1, "{plan}");
}

/// Orders(customer, date, package), Packages(package, item),
/// Items(item, price) from literal rows.
fn orders_pair(orders: &[[Value; 3]], packages: &[[i64; 2]], items: &[(i64, Value)]) -> EnginePair {
    let mut catalog = Catalog::new();
    let [customer, date, package, item, price] =
        ["customer", "date", "package", "item", "price"].map(|n| catalog.intern(n));
    let mut pair = EnginePair::new(catalog);
    pair.register(
        "Orders",
        Relation::from_rows(
            Schema::new(vec![customer, date, package]),
            orders.iter().map(|r| r.to_vec()),
        ),
    );
    pair.register(
        "Packages",
        Relation::from_rows(
            Schema::new(vec![package, item]),
            packages
                .iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
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
fn null_group_values_and_null_inputs() {
    let i = Value::Int;
    // Customer NULL orders twice; customer 3's only item has a NULL price,
    // and package 5 holds a NULL price beside two numbers.
    let mut pair = orders_pair(
        &[
            [i(1), i(10), i(5)],
            [i(1), i(11), i(6)],
            [Value::Null, i(10), i(5)],
            [Value::Null, i(12), i(6)],
            [i(2), i(12), i(5)],
            [i(3), i(10), i(8)],
        ],
        &[[5, 70], [5, 71], [5, 72], [6, 90], [8, 80]],
        &[
            (70, i(4)),
            (71, Value::Null),
            (72, i(7)),
            (80, Value::Null),
            (90, i(2)),
        ],
    );
    let from = "Orders, Packages, Items";
    for f in [
        "COUNT(*)",
        "MIN(price)",
        "MAX(price)",
        "PRODUCT(price)",
        "EXISTS(price > 5)",
        "FORALL(price > 1)",
        "MIN(date)",
        "SUM(date)",
        "COUNT(DISTINCT price)",
        "TOP_K(price, 2)",
        "COUNT(DISTINCT date)",
    ] {
        for g in ["customer", "price", "date"] {
            folds(
                &mut pair,
                &format!("SELECT {g}, {f} AS v FROM {from} GROUP BY {g}"),
            );
        }
    }
    for g in ["customer, date", "date, customer", "customer, price"] {
        let (a, b) = g.split_once(", ").unwrap();
        for tail in [
            String::new(),
            format!(" ORDER BY {a} DESC, {b}"),
            " HAVING n > 1".to_string(),
        ] {
            folds(
                &mut pair,
                &format!(
                    "SELECT {g}, COUNT(*) AS n, MIN(price) AS lo FROM {from} GROUP BY {g}{tail}"
                ),
            );
        }
    }
    let (out, _) = folds(
        &mut pair,
        &format!("SELECT customer, COUNT(*) AS n, MIN(price) AS lo FROM {from} GROUP BY customer"),
    );
    let rows: Vec<Vec<Value>> = out.rows().map(|r| r.to_vec()).collect();
    // NULL is a group of its own: 3 + 1 tuples, the smallest price 2.
    assert!(rows.contains(&vec![Value::Null, i(4), i(2)]), "{rows:?}");
}

/// An engine over `n` relations `T0(k, a0), …` of four rows each (`k` and
/// `a` each `0` or `1`), and the `FROM` list of their join on `k`: one
/// root `k` with `n` children, `2^(n+1)` tuples.
fn star(n: usize) -> (fdb::FdbEngine, String) {
    let mut catalog = Catalog::new();
    let k = catalog.intern("k");
    let attrs: Vec<_> = (0..n).map(|i| catalog.intern(&format!("a{i}"))).collect();
    let mut engine = fdb::FdbEngine::new(catalog);
    for (i, &a) in attrs.iter().enumerate() {
        let rows = [[0, 0], [0, 1], [1, 0], [1, 1]].map(|r| r.map(Value::Int).to_vec());
        engine.register_relation(
            format!("T{i}"),
            Relation::from_rows(Schema::new(vec![k, a]), rows),
        );
    }
    let from = (0..n).map(|i| format!("T{i}")).collect::<Vec<_>>();
    (engine, from.join(", "))
}

#[test]
fn a_folded_count_past_i64_is_refused() {
    // Each a0 group holds 2 · 2^(n-1) tuples: 2^62 for 62 relations, 2^63
    // for 63.
    let sql = |from: &str| format!("SELECT a0, COUNT(*) AS n FROM {from} GROUP BY a0");
    let (mut engine, from) = star(62);
    let result = engine.run_sql_result(&sql(&from)).unwrap();
    let plan = result.explain(&engine.catalog);
    assert!(plan.contains("fold by"), "{plan}");
    let out = result.to_relation().unwrap();
    let n = Value::Int(1 << 62);
    assert_eq!(
        out.rows().map(|r| r[1].clone()).collect::<Vec<_>>(),
        [n.clone(), n]
    );

    let (mut engine, from) = star(63);
    match engine.run_sql(&sql(&from)) {
        Err(fdb::core::FdbError::InvalidOperator(m)) => {
            assert_eq!(m, "tuple multiplicity exceeds i64::MAX")
        }
        other => panic!("COUNT(*) over 2^63 tuples per group: {other:?}"),
    }
}

/// The passes of `sql`'s executed f-plan, read off `explain`.
fn passes(pair: &mut EnginePair, sql: &str) -> usize {
    let plan = explain(pair, sql);
    let head = plan.lines().next().unwrap_or_default();
    let n = head.split(", ").nth(1).and_then(|p| p.split(' ').next());
    n.and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("`{sql}`: no pass count in\n{plan}"))
}

/// `agg_fo`'s five filtered shapes, a selection keeping one customer, one
/// emptying `R1`, and `customer <> c` under other functions, held to the
/// relational engines. A selection run whose nodes lie inside the `γ`
/// right after it is read by that `γ` as a mask, so the two are one pass
/// (T1 and T2); one before a fold stays a pass of its own (T0).
#[test]
fn selections_read_as_a_mask_agree_with_the_relational_engines() {
    let mut pair = r1_pair();
    for c in [0, 3, 7, 1000] {
        let t0 = format!(
            "SELECT customer, SUM(price) AS revenue FROM R1 WHERE package <> {c} GROUP BY customer"
        );
        let t1 = format!(
            "SELECT package, SUM(price) AS sum_price FROM R1 WHERE customer <> {c} GROUP BY package"
        );
        let t2 = format!("SELECT SUM(price) AS sum_price FROM R1 WHERE date <> {c}");
        for (sql, want) in [(&t0, 2), (&t1, 1), (&t2, 1)] {
            pair.assert_all_agree(sql);
            assert_eq!(passes(&mut pair, sql), want, "`{sql}`");
        }
        for sql in [
            format!(
                "SELECT customer, SUM(price) AS revenue FROM R1 WHERE item <> {c} \
                 GROUP BY customer ORDER BY customer"
            ),
            format!(
                "SELECT customer, SUM(price) AS revenue FROM R1 WHERE package <> {c} \
                 GROUP BY customer ORDER BY revenue, customer"
            ),
            format!(
                "SELECT package, SUM(price) AS s FROM R1 WHERE customer = {c} GROUP BY package"
            ),
            format!(
                "SELECT package, MIN(price) AS lo, EXISTS(price > 8) AS e, TOP_K(price, 3) AS t \
                 FROM R1 WHERE customer <> {c} GROUP BY package"
            ),
            format!(
                "SELECT package, COUNT(DISTINCT item) AS u FROM R1 WHERE customer <> {c} \
                 GROUP BY package"
            ),
        ] {
            pair.assert_all_agree(&sql);
        }
    }
    // No order passes: no group, and no row.
    for sql in [
        "SELECT package, SUM(price) AS s FROM R1 WHERE customer > 1000 GROUP BY package",
        "SELECT SUM(price) AS s FROM R1 WHERE customer > 1000",
        "SELECT package, MIN(price) AS lo FROM R1 WHERE date < 0 GROUP BY package",
    ] {
        let out = pair.assert_all_agree(sql);
        assert!(out.is_empty(), "`{sql}`");
        assert_eq!(passes(&mut pair, sql), 1, "`{sql}`");
    }
}
