//! Proposition 2 — composition rules for aggregation operators.
//!
//! For f-trees `U ⊇ V` and functions F, G ∈ {sum, count, min, max}:
//!
//! 1. `γ_F(U) ∘ γ_F(V) = γ_F(U)` — pre-aggregating a subset is absorbed;
//! 2. `γ_sumA(U) ∘ γ_count(V) = γ_sumA(U)` when `A ∉ V` — counting a
//!    subtree that does not hold the summed attribute is a valid partial
//!    step;
//! 3. `γ_F(U) ∘ γ_G(V) = γ_G(V) ∘ γ_F(U)` when `U ∩ V = ∅` — disjoint
//!    operators commute.
//!
//! Each law is checked on the Figure 1 factorisation by executing both
//! sides as operator sequences and comparing the flattened results.

use fdb_core::frep::FRep;
use fdb_core::ftree::{AggOp, FTree, NodeLabel};
use fdb_core::ops::{aggregate, AggTarget};
use fdb_relational::{AttrId, Catalog, Relation, Schema, Value};

struct Fixture {
    catalog: Catalog,
    rep: FRep,
    price: AttrId,
    item: AttrId,
    date: AttrId,
    customer: AttrId,
}

/// R = Orders ⋈ Pizzas ⋈ Items over T1, from Figure 1.
fn fixture() -> Fixture {
    let mut catalog = Catalog::new();
    let pizza = catalog.intern("pizza");
    let date = catalog.intern("date");
    let customer = catalog.intern("customer");
    let item = catalog.intern("item");
    let price = catalog.intern("price");
    let rows: Vec<(&str, i64, &str, &str, i64)> = vec![
        ("Capricciosa", 1, "Mario", "base", 6),
        ("Capricciosa", 1, "Mario", "ham", 1),
        ("Capricciosa", 1, "Mario", "mushrooms", 1),
        ("Capricciosa", 5, "Mario", "base", 6),
        ("Capricciosa", 5, "Mario", "ham", 1),
        ("Capricciosa", 5, "Mario", "mushrooms", 1),
        ("Hawaii", 5, "Lucia", "base", 6),
        ("Hawaii", 5, "Lucia", "ham", 1),
        ("Hawaii", 5, "Lucia", "pineapple", 2),
        ("Hawaii", 5, "Pietro", "base", 6),
        ("Hawaii", 5, "Pietro", "ham", 1),
        ("Hawaii", 5, "Pietro", "pineapple", 2),
        ("Margherita", 2, "Mario", "base", 6),
    ];
    let rel = Relation::from_rows(
        Schema::new(vec![pizza, date, customer, item, price]),
        rows.into_iter().map(|(p, d, cu, i, pr)| {
            vec![
                Value::str(p),
                Value::Int(d),
                Value::str(cu),
                Value::str(i),
                Value::Int(pr),
            ]
        }),
    );
    let mut t = FTree::new();
    let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
    let n_date = t.add_node(NodeLabel::Atomic(vec![date]), Some(n_pizza));
    t.add_node(NodeLabel::Atomic(vec![customer]), Some(n_date));
    let n_item = t.add_node(NodeLabel::Atomic(vec![item]), Some(n_pizza));
    t.add_node(NodeLabel::Atomic(vec![price]), Some(n_item));
    t.add_dep([customer, date, pizza]);
    t.add_dep([pizza, item]);
    t.add_dep([item, price]);
    let rep = FRep::from_relation(&rel, t).unwrap();
    Fixture {
        catalog,
        rep,
        price,
        item,
        date,
        customer,
    }
}

/// Applies the final γ over the whole forest with the given function.
fn final_gamma(rep: FRep, func: AggOp, out: AttrId) -> FRep {
    let roots = rep.ftree().roots().to_vec();
    aggregate(
        rep,
        &AggTarget {
            parent: None,
            nodes: roots,
        },
        vec![func],
        vec![out],
    )
    .unwrap()
}

#[test]
fn law1_pre_aggregation_is_absorbed_sum() {
    // γ_sum(whole) ∘ γ_sum(item-subtree) == γ_sum(whole).
    let mut f = fixture();
    let out = f.catalog.intern("total");

    let direct = final_gamma(f.rep.clone(), AggOp::Sum(f.price), out);

    let item_node = f.rep.ftree().node_of_attr(f.item).unwrap();
    let partial_out = f.catalog.intern("partial");
    let pre = aggregate(
        f.rep.clone(),
        &AggTarget::subtree(f.rep.ftree(), item_node),
        vec![AggOp::Sum(f.price)],
        vec![partial_out],
    )
    .unwrap();
    let composed = final_gamma(pre, AggOp::Sum(f.price), out);

    assert_eq!(direct.flatten().canonical(), composed.flatten().canonical());
    assert_eq!(*direct.root(0).entry(0).value(), Value::Int(40));
}

#[test]
fn law1_pre_aggregation_is_absorbed_count() {
    let mut f = fixture();
    let out = f.catalog.intern("n");
    let direct = final_gamma(f.rep.clone(), AggOp::Count, out);

    // Pre-count the date subtree (under pizza).
    let date_node = f.rep.ftree().node_of_attr(f.date).unwrap();
    let partial = f.catalog.intern("partial_n");
    let pre = aggregate(
        f.rep.clone(),
        &AggTarget::subtree(f.rep.ftree(), date_node),
        vec![AggOp::Count],
        vec![partial],
    )
    .unwrap();
    let composed = final_gamma(pre, AggOp::Count, out);
    assert_eq!(direct.flatten().canonical(), composed.flatten().canonical());
    assert_eq!(*direct.root(0).entry(0).value(), Value::Int(13));
}

#[test]
fn law1_min_max_absorbed() {
    let mut f = fixture();
    for (func, expected) in [
        (AggOp::Min(f.price), Value::Int(1)),
        (AggOp::Max(f.price), Value::Int(6)),
    ] {
        let out = f.catalog.fresh("extremum");
        let direct = final_gamma(f.rep.clone(), func, out);
        let item_node = f.rep.ftree().node_of_attr(f.item).unwrap();
        let partial = f.catalog.fresh("pre_extremum");
        let pre = aggregate(
            f.rep.clone(),
            &AggTarget::subtree(f.rep.ftree(), item_node),
            vec![func],
            vec![partial],
        )
        .unwrap();
        let composed = final_gamma(pre, func, out);
        assert_eq!(*direct.root(0).entry(0).value(), expected);
        assert_eq!(direct.flatten().canonical(), composed.flatten().canonical());
    }
}

#[test]
fn law2_sum_after_count_on_disjoint_subtree() {
    // γ_sum(price)(whole) ∘ γ_count(date-subtree) == γ_sum(price)(whole):
    // price ∉ {date, customer}, so the count is a valid partial step and
    // the final sum multiplies through it.
    let mut f = fixture();
    let out = f.catalog.intern("total2");
    let direct = final_gamma(f.rep.clone(), AggOp::Sum(f.price), out);

    let date_node = f.rep.ftree().node_of_attr(f.date).unwrap();
    let partial = f.catalog.intern("count_dates");
    let pre = aggregate(
        f.rep.clone(),
        &AggTarget::subtree(f.rep.ftree(), date_node),
        vec![AggOp::Count],
        vec![partial],
    )
    .unwrap();
    let composed = final_gamma(pre, AggOp::Sum(f.price), out);
    assert_eq!(direct.flatten().canonical(), composed.flatten().canonical());
}

#[test]
fn law3_disjoint_operators_commute() {
    // γ_count(date-subtree) and γ_sum(price)(item-subtree) touch disjoint
    // subtrees: both orders give the same factorisation.
    let mut f = fixture();
    let cnt_out = f.catalog.intern("cnt");
    let sum_out = f.catalog.intern("sum");

    let apply_count = |rep: FRep| {
        let n = rep.ftree().node_of_attr(f.date).unwrap();
        aggregate(
            rep.clone(),
            &AggTarget::subtree(rep.ftree(), n),
            vec![AggOp::Count],
            vec![cnt_out],
        )
        .unwrap()
    };
    let apply_sum = |rep: FRep| {
        let n = rep.ftree().node_of_attr(f.item).unwrap();
        aggregate(
            rep.clone(),
            &AggTarget::subtree(rep.ftree(), n),
            vec![AggOp::Sum(f.price)],
            vec![sum_out],
        )
        .unwrap()
    };

    let ab = apply_sum(apply_count(f.rep.clone()));
    let ba = apply_count(apply_sum(f.rep.clone()));
    // Same represented relation; column order may differ, so align.
    let cols = ab.schema().attrs().to_vec();
    assert_eq!(
        ab.flatten().canonical(),
        ba.flatten().project_cols(&cols).canonical()
    );
    // And identical nesting structure up to sibling order.
    assert_eq!(ab.ftree().canonical_key(), ba.ftree().canonical_key());
}

#[test]
fn example7_full_pipeline_equivalence() {
    // Example 7: γ_sum(U) ∘ γ_count(date) ∘ γ_sum(item,price) == γ_sum(U)
    // where U is everything below customer — verified per customer group.
    let mut f = fixture();
    // Left side: partials then final (the Example 1 pipeline).
    let item_node = f.rep.ftree().node_of_attr(f.item).unwrap();
    let s1 = f.catalog.intern("sp");
    let with_partials = aggregate(
        f.rep.clone(),
        &AggTarget::subtree(f.rep.ftree(), item_node),
        vec![AggOp::Sum(f.price)],
        vec![s1],
    )
    .unwrap();
    // Restructure customer to the root for both sides: swap it past each
    // parent in turn.
    let lift = |mut rep: FRep| loop {
        let n = rep.ftree().node_of_attr(f.customer).unwrap();
        match rep.ftree().node(n).parent {
            Some(p) => rep = fdb_core::ops::swap(rep, p, n).unwrap(),
            None => break rep,
        }
    };
    let with_partials = lift(with_partials);
    let date_node = with_partials.ftree().node_of_attr(f.date).unwrap();
    let c1 = f.catalog.intern("cd");
    let with_partials = aggregate(
        with_partials.clone(),
        &AggTarget::subtree(with_partials.ftree(), date_node),
        vec![AggOp::Count],
        vec![c1],
    )
    .unwrap();
    let rev1 = f.catalog.intern("rev_a");
    let cust_node = with_partials.ftree().node_of_attr(f.customer).unwrap();
    let below = with_partials.ftree().node(cust_node).children.clone();
    let lhs = aggregate(
        with_partials,
        &AggTarget {
            parent: Some(cust_node),
            nodes: below,
        },
        vec![AggOp::Sum(f.price)],
        vec![rev1],
    )
    .unwrap();

    // Right side: the single final operator, no partials.
    let plain = lift(f.rep.clone());
    let cust_node = plain.ftree().node_of_attr(f.customer).unwrap();
    let below = plain.ftree().node(cust_node).children.clone();
    let rev2 = f.catalog.intern("rev_b");
    let rhs = aggregate(
        plain,
        &AggTarget {
            parent: Some(cust_node),
            nodes: below,
        },
        vec![AggOp::Sum(f.price)],
        vec![rev2],
    )
    .unwrap();

    // The two sides name their output attribute differently (rev_a vs
    // rev_b); compare the tuple data, not the schemas.
    let tuples = |r: &Relation| -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        rows.sort();
        rows
    };
    let l = lhs.flatten();
    let r = rhs.flatten();
    assert_eq!(tuples(&l), tuples(&r));
    // Lucia 9, Mario 22, Pietro 9.
    let revs: Vec<i64> = l.rows().map(|row| row[1].as_int().unwrap()).collect();
    assert_eq!(revs, vec![9, 22, 9]);
}
