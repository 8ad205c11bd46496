//! Plan explorer: the greedy heuristic (§5.2) on the pizzeria queries,
//! printing each f-plan, its size-bound cost (the sum of the f-tree
//! size bounds after every operator, §5.1) and the result.
//!
//! Run with: `cargo run --release --example plan_explorer`

use fdb::core::ftree::AggOp;
use fdb::core::optim::ordering::plan_cost;
use fdb::core::optim::{greedy, tree_cost, QuerySpec, Stats};
use fdb::workload::pizzeria::{factorised_r, pizzeria};
use fdb::Catalog;

fn main() {
    let mut catalog = Catalog::new();
    let db = pizzeria(&mut catalog);
    let a = db.attrs;
    let rep = factorised_r(&db);
    let mut stats = Stats::new();
    stats.add_relation([a.customer, a.date, a.pizza], db.orders.len());
    stats.add_relation([a.pizza, a.item], db.pizzas.len());
    stats.add_relation([a.item, a.price], db.items.len());

    println!("input f-tree T1:\n{}", rep.ftree().display(&catalog));
    println!(
        "input size bound: {:.1} (actual {} singletons)\n",
        tree_cost(rep.ftree(), &stats),
        rep.singleton_count()
    );

    let scenarios: Vec<(&str, Vec<fdb::relational::AttrId>)> = vec![
        ("revenue per customer", vec![a.customer]),
        ("revenue per (customer, pizza)", vec![a.customer, a.pizza]),
        ("total revenue", vec![]),
    ];
    for (name, group_by) in scenarios {
        println!("==== {name} ====");
        let spec = QuerySpec {
            group_by,
            final_funcs: vec![AggOp::Sum(a.price)],
            final_outputs: vec![catalog.fresh("revenue")],
            consolidate: true,
            ..Default::default()
        };
        let plan = greedy(rep.ftree(), &spec, &stats, &mut catalog).expect("greedy plan");
        println!("greedy f-plan:\n{}", plan.display(&catalog, rep.ftree()));
        println!(
            "plan cost: {:.1} ({} operators)",
            plan_cost(rep.ftree(), &plan, &stats),
            plan.len()
        );

        let result = plan.execute(rep.clone()).expect("plan executes");
        println!("result f-tree:\n{}", result.ftree().display(&catalog));
        println!("result:\n{}\n", result.display(&catalog));
    }
}
