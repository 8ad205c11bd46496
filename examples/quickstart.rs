//! Quickstart: SQL on factorised data in five steps.
//!
//! Opens a [`fdb::Db`], registers the pizzeria base relations, queries
//! through a [`fdb::Session`] — rows, EXPLAIN rendering and execution
//! stats in one [`fdb::QueryOutcome`] — and cross-checks against the
//! relational baseline engine.
//!
//! Run with: `cargo run --release --example quickstart`

use fdb::relational::engine::{PlanMode, RdbEngine};
use fdb::relational::GroupStrategy;
use fdb::workload::pizzeria::pizzeria;
use fdb::{Catalog, Db, FdbEngine};

fn main() {
    // 1. A catalog, the Figure 1 database, and a Db to serve it.
    let mut catalog = Catalog::new();
    let data = pizzeria(&mut catalog);
    let mut engine = FdbEngine::new(catalog);
    engine.register_relation("Orders", data.orders.clone());
    engine.register_relation("Pizzas", data.pizzas.clone());
    engine.register_relation("Items", data.items.clone());
    let db = Db::from_engine(engine);

    // 2. Cut a session: an immutable snapshot sharing the registered
    //    arenas — cheap enough to hand one to every thread.
    let mut session = db.session();

    // 3. One call parses, plans, runs and enumerates.
    let sql = "SELECT customer, SUM(price) AS revenue \
               FROM Orders, Pizzas, Items \
               GROUP BY customer \
               ORDER BY revenue DESC \
               LIMIT 2";
    println!("query: {sql}\n");
    let out = session.query(sql).expect("query runs");

    // 4. The outcome carries the full report, not just rows.
    println!("{}", out.explain);
    println!(
        "ordering strategy: {:?}; rows enumerated: {}; intermediate bytes: {}",
        out.strategy, out.order.rows_enumerated, out.exec.intermediate_bytes
    );
    // The session forgets the query's output attributes once the
    // outcome is built, so the names travel in `out.columns`.
    println!("\nFDB result:\n{}", out.columns.join(" | "));
    for row in out.rows.rows() {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("{}", cells.join(" | "));
    }

    // 5. Cross-check with the relational baseline engine.
    let mut rdb = RdbEngine::new(session.catalog().clone(), GroupStrategy::Sort);
    rdb.register("Orders", data.orders);
    rdb.register("Pizzas", data.pizzas);
    rdb.register("Items", data.items);
    let schemas = rdb.schemas();
    let query = fdb::parse(sql, &mut rdb.catalog, &schemas).expect("valid SQL");
    let baseline = rdb
        .run(&query.to_task(), PlanMode::Naive)
        .expect("baseline runs");
    println!("RDB result:\n{}", baseline.display(&rdb.catalog));
    assert_eq!(out.rows.canonical(), baseline.canonical());
    println!("both engines agree ✓");
}
