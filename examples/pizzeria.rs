//! A guided tour of the paper's running example (Examples 1–11).
//!
//! Builds the pizzeria database of Figure 1, factorises the join `R =
//! Orders ⋈ Pizzas ⋈ Items` over the f-tree T1, and replays the paper's
//! aggregate scenarios step by step, printing the factorisations in the
//! paper's notation after each operator:
//!
//! 1. local aggregation (query `S`: price of each ordered pizza, T1 → T2);
//! 2. partial aggregation interleaved with restructuring (query `P`:
//!    revenue per customer, T2 → T3 → T4 → final);
//! 3. on-the-fly combination during enumeration (revenue per customer and
//!    pizza over T4, no further restructuring).
//!
//! Run with: `cargo run --release --example pizzeria`

use fdb::core::enumerate::{EnumSpec, GroupCursor};
use fdb::core::ftree::AggOp;
use fdb::core::ops::{self, AggTarget};
use fdb::workload::pizzeria::{factorised_r, pizzeria, t1};
use fdb::Catalog;

fn main() {
    let mut catalog = Catalog::new();
    let db = pizzeria(&mut catalog);
    let a = db.attrs;

    println!("== Figure 1: the factorisation of R over T1 ==");
    let rep = factorised_r(&db);
    println!("f-tree T1:\n{}", rep.ftree().display(&catalog));
    println!("factorisation:\n{}\n", rep.display(&catalog));
    println!(
        "({} tuples represented by {} singletons)\n",
        rep.tuple_count(),
        rep.singleton_count()
    );
    let _ = t1(&a);

    // ------------------------------------------------------------------
    println!("== Scenario 1 (query S): sum the price per pizza, locally ==");
    let item_node = rep.ftree().node_of_attr(a.item).unwrap();
    let sumprice = catalog.intern("sumprice");
    let target = AggTarget::subtree(rep.ftree(), item_node);
    let s = ops::aggregate(
        rep.clone(),
        &target,
        vec![AggOp::Sum(a.price)],
        vec![sumprice],
    )
    .expect("γ sum(price) over the item subtree");
    println!("f-tree T2:\n{}", s.ftree().display(&catalog));
    println!("factorisation:\n{}\n", s.display(&catalog));

    // ------------------------------------------------------------------
    println!("== Scenario 2 (query P): revenue per customer ==");
    // Swap customer up past date and pizza (T2 → T3).
    let n_cust = s.ftree().node_of_attr(a.customer).unwrap();
    let n_date = s.ftree().node(n_cust).parent.unwrap();
    let p = ops::swap(s, n_date, n_cust).expect("χ(date, customer)");
    let n_pizza = p.ftree().node(n_cust).parent.unwrap();
    let p = ops::swap(p, n_pizza, n_cust).expect("χ(pizza, customer)");
    println!(
        "f-tree T3 (customer pushed to the root):\n{}",
        p.ftree().display(&catalog)
    );

    // Count order dates per (customer, pizza) (T3 → T4).
    let n_date = p.ftree().node_of_attr(a.date).unwrap();
    let countdate = catalog.intern("countdate");
    let target = AggTarget::subtree(p.ftree(), n_date);
    let p = ops::aggregate(p, &target, vec![AggOp::Count], vec![countdate]).expect("γ count(date)");
    println!("f-tree T4:\n{}", p.ftree().display(&catalog));
    println!("factorisation over T4:\n{}\n", p.display(&catalog));

    // Final aggregate: sum over everything below customer.
    let below = p.ftree().node(n_cust).children.clone();
    let revenue = catalog.intern("revenue");
    let p_final = ops::aggregate(
        p.clone(),
        &AggTarget {
            parent: Some(n_cust),
            nodes: below,
        },
        vec![AggOp::Sum(a.price)],
        vec![revenue],
    )
    .expect("final γ sum(price)");
    println!("final result:\n{}\n", p_final.display(&catalog));
    let flat = p_final.flatten();
    println!("as a relation:\n{}", flat.display(&catalog));

    // ------------------------------------------------------------------
    println!("== Scenario 3: revenue per customer and pizza, on the fly ==");
    // Reuse the T4 factorisation: enumerate (customer, pizza) groups and
    // combine the partial aggregates per group without restructuring.
    let spec = EnumSpec::group_prefix(p.ftree(), &[a.customer, a.pizza])
        .expect("customer and pizza are above the partial aggregates");
    let mut cur = GroupCursor::new(&p, &spec).expect("group cursor");
    while let Some((vals, dangling)) = cur.next_group() {
        let v = fdb::core::agg::eval_funcs(p.ftree(), dangling, &[AggOp::Sum(a.price)])
            .expect("sum over partial aggregates");
        println!("  {} × {} -> revenue {}", vals[0], vals[1], v);
    }
    println!("\n(the paper's numbers: Lucia 9, Mario 22 = 16 + 6, Pietro 9)");
}
