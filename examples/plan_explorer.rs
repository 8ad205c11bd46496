//! Plan explorer: compare the greedy heuristic against the exhaustive
//! Dijkstra optimiser on the pizzeria queries, printing the f-plans,
//! the intermediate f-trees and the size-bound costs (§5).
//!
//! Run with: `cargo run --release --example plan_explorer`

use fdb::core::ftree::AggOp;
use fdb::core::optim::ordering::plan_cost;
use fdb::core::optim::{exhaustive, greedy, tree_cost, ExhaustiveConfig, QuerySpec, Stats};
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
        let out_g = catalog.fresh("revenue");
        let mut spec = QuerySpec {
            group_by: group_by.clone(),
            final_funcs: vec![AggOp::Sum(a.price)],
            final_outputs: vec![out_g],
            consolidate: true,
            ..Default::default()
        };
        let gplan = greedy(rep.ftree(), &spec, &stats, &mut catalog).expect("greedy plan");
        println!("greedy f-plan:\n{}", gplan.display(&catalog, rep.ftree()));
        println!(
            "greedy plan cost: {:.1}",
            plan_cost(rep.ftree(), &gplan, &stats)
        );

        spec.final_outputs = vec![catalog.fresh("revenue")];
        match exhaustive(
            rep.ftree(),
            &spec,
            &stats,
            &mut catalog,
            ExhaustiveConfig::default(),
        ) {
            Ok(xplan) => {
                println!(
                    "exhaustive plan cost: {:.1} ({} ops vs greedy's {})",
                    plan_cost(rep.ftree(), &xplan, &stats),
                    xplan.len(),
                    gplan.len()
                );
            }
            Err(e) => println!("exhaustive search gave up: {e}"),
        }

        // Execute the greedy plan and show the result.
        let result = gplan.execute(rep.clone()).expect("plan executes");
        println!("result f-tree:\n{}", result.ftree().display(&catalog));
        println!("result:\n{}\n", result.display(&catalog));
    }
}
