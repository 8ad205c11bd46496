//! End-to-end checks of the numbers the paper derives in its running
//! examples (§1 Example 1, §3 Examples 6 and 8), driven through SQL and
//! checked across every engine and plan mode.

mod common;

use common::pizzeria_engines;
use fdb::relational::Value;

#[test]
fn example1_query_s_price_of_each_ordered_pizza() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT customer, date, pizza, SUM(price) AS total \
         FROM Orders, Pizzas, Items \
         GROUP BY customer, date, pizza",
    );
    // Five orders; Capricciosa totals 8, Hawaii 9, Margherita 6.
    assert_eq!(out.len(), 5);
    let by_pizza: Vec<(String, i64)> = out
        .rows()
        .map(|r| (r[2].as_str().unwrap().to_string(), r[3].as_int().unwrap()))
        .collect();
    for (pizza, total) in by_pizza {
        let expected = match pizza.as_str() {
            "Capricciosa" => 8,
            "Hawaii" => 9,
            "Margherita" => 6,
            other => panic!("unexpected pizza {other}"),
        };
        assert_eq!(total, expected, "{pizza}");
    }
}

#[test]
fn example1_query_p_revenue_per_customer() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT customer, SUM(price) AS revenue \
         FROM Orders, Pizzas, Items GROUP BY customer",
    );
    let rows: Vec<(String, i64)> = out
        .rows()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("Lucia".to_string(), 9),
            ("Mario".to_string(), 22),
            ("Pietro".to_string(), 9)
        ]
    );
}

#[test]
fn example1_scenario3_revenue_per_customer_and_pizza() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT customer, pizza, SUM(price) AS revenue \
         FROM Orders, Pizzas, Items GROUP BY customer, pizza",
    );
    // Mario: Capricciosa 16 (two dates × 8), Margherita 6.
    let mario: Vec<(String, i64)> = out
        .rows()
        .filter(|r| r[0].as_str() == Some("Mario"))
        .map(|r| (r[1].as_str().unwrap().to_string(), r[2].as_int().unwrap()))
        .collect();
    assert_eq!(
        mario,
        vec![
            ("Capricciosa".to_string(), 16),
            ("Margherita".to_string(), 6)
        ]
    );
}

#[test]
fn example6_count_composition() {
    // count over pizzas-with-items must weigh each pizza by its items:
    // 7 (pizza, item) pairs, not 3 pizzas.
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree("SELECT COUNT(*) AS n FROM Pizzas");
    assert_eq!(out.row(0)[0], Value::Int(7));
}

#[test]
fn full_join_count() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree("SELECT COUNT(*) AS n FROM Orders, Pizzas, Items");
    assert_eq!(out.row(0)[0], Value::Int(13));
}

#[test]
fn total_revenue_scalar() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree("SELECT SUM(price) AS total FROM Orders, Pizzas, Items");
    // 8 + 8 + 9 + 9 + 6 = 40.
    assert_eq!(out.row(0)[0], Value::Int(40));
}

#[test]
fn min_max_avg_per_pizza() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT pizza, MIN(price) AS lo, MAX(price) AS hi, AVG(price) AS mean \
         FROM Pizzas, Items GROUP BY pizza",
    );
    let caps: Vec<Value> = out
        .rows()
        .find(|r| r[0].as_str() == Some("Capricciosa"))
        .map(|r| r[1..].to_vec())
        .unwrap();
    assert_eq!(
        caps,
        vec![Value::Int(1), Value::Int(6), Value::Float(8.0 / 3.0)]
    );
}

#[test]
fn having_clause_filters_revenue() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT customer, SUM(price) AS revenue \
         FROM Orders, Pizzas, Items GROUP BY customer HAVING revenue > 10",
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out.row(0)[0], Value::str("Mario"));
}

#[test]
fn where_clause_on_price() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree(
        "SELECT customer, SUM(price) AS cheap_revenue \
         FROM Orders, Pizzas, Items WHERE price < 6 GROUP BY customer",
    );
    // Cheap toppings only: Lucia 3, Mario 4, Pietro 3.
    let rows: Vec<(String, i64)> = out
        .rows()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("Lucia".to_string(), 3),
            ("Mario".to_string(), 4),
            ("Pietro".to_string(), 3)
        ]
    );
}

#[test]
fn example2_order_by_customer_pizza_item() {
    // Example 2: the order (customer, pizza, item, price) is obtainable
    // by restructuring; verify the streamed order end-to-end.
    let mut e = pizzeria_engines();
    let sql = "SELECT customer, pizza, item, price \
               FROM Orders, Pizzas, Items \
               ORDER BY customer, pizza, item, price";
    e.assert_all_agree(sql);
    let out = e.run_fdb(sql);
    // Set semantics: projecting `date` away merges Mario's two
    // Capricciosa order dates, so 10 distinct tuples remain of the 13.
    assert_eq!(out.len(), 10);
    let keys: Vec<Vec<String>> = out
        .rows()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "streamed enumeration must be sorted");
    assert_eq!(out.row(0)[0], Value::str("Lucia"));
}

#[test]
fn order_by_revenue_with_limit() {
    // Q7-flavoured: order by the aggregation result, keep the top group.
    let mut e = pizzeria_engines();
    let out = e.run_fdb(
        "SELECT customer, SUM(price) AS revenue \
         FROM Orders, Pizzas, Items GROUP BY customer \
         ORDER BY revenue DESC, customer LIMIT 2",
    );
    assert_eq!(out.len(), 2);
    assert_eq!(out.row(0)[0], Value::str("Mario"));
    assert_eq!(out.row(0)[1], Value::Int(22));
    assert_eq!(out.row(1)[0], Value::str("Lucia"));
}

#[test]
fn distinct_projection_via_group_by() {
    let mut e = pizzeria_engines();
    let out = e.assert_all_agree("SELECT pizza FROM Orders, Pizzas GROUP BY pizza");
    assert_eq!(out.len(), 3);
}

#[test]
fn count_distinct_packages_per_customer() {
    let mut e = pizzeria_engines();
    let out =
        e.assert_all_agree("SELECT customer, COUNT(*) AS orders FROM Orders GROUP BY customer");
    let mario = out.rows().find(|r| r[0].as_str() == Some("Mario")).unwrap()[1].clone();
    assert_eq!(mario, Value::Int(3));
}
