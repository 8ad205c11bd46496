//! The queries of Figure 3, as engine-neutral tasks.
//!
//! ```text
//! R1 = Orders ⋈ Items ⋈ Packages                    (materialised view)
//! Q1 = ̟package,date,customer; sum(price)(R1)   ┐
//! Q2 = ̟customer; revenue←sum(price)(R1)        │
//! Q3 = ̟date,package; sum(price)(R1)            │ AGG
//! Q4 = ̟package; sum(price)(R1)                 │
//! Q5 = ̟sum(price)(R1)                          ┘
//! Q6 = o_customer(Q2)        ┐
//! Q7 = o_revenue(Q2)         │ AGG+ORD
//! Q8 = o_date,package(Q3)    │
//! Q9 = o_package,date(Q3)    ┘
//! R2 = o_package,date,item(R1); R3 = o_date,customer,package(Orders)
//! Q10 = R2                         ┐
//! Q11 = o_package,item,date(R2)    │ ORD
//! Q12 = o_date,package,item(R2)    │
//! Q13 = o_customer,date,package(R3)┘
//! ```
//!
//! Q13 is printed in Figure 3 with an `item` attribute, but `R3` is a sort
//! of `Orders`, which has no `item`; the running text (Experiment 4)
//! describes Q13 as re-sorting `R3` by swapping `date` and `customer`, so
//! we implement `o_{customer,date,package}(R3)` (see DESIGN.md).

use fdb_relational::planner::JoinAggTask;
use fdb_relational::{AggFunc, AggSpec, Catalog, CmpOp, SortKey};
use fdb_workload::orders::OrdersAttrs;

/// Query classes of Figure 3, plus the extended aggregate surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Aggregates and group-by (Q1–Q5).
    Agg,
    /// Aggregates with order-by (Q6–Q9).
    AggOrd,
    /// Order-by only (Q10–Q13).
    Ord,
    /// Extended aggregate surface (QD/QP/QB/QK/QG): distinct counting,
    /// wrapping product, boolean quantifiers, top-k-per-group and a
    /// ROLLUP grouping-set expansion ([`extended_agg_queries`]).
    AggExt,
}

/// One benchmark query: its name, class, task, and which materialised
/// input it runs on (`R1` for Q1–Q12, `R3` for Q13).
#[derive(Clone, Debug)]
pub struct PaperQuery {
    pub name: &'static str,
    pub class: QueryClass,
    pub task: JoinAggTask,
    /// The input registered under this name is the query's FROM relation.
    pub input: &'static str,
}

/// Builds Q1–Q13 over the benchmark schema. `revenue` is interned once so
/// Q2/Q6/Q7 share the output attribute.
pub fn paper_queries(catalog: &mut Catalog, a: &OrdersAttrs) -> Vec<PaperQuery> {
    let revenue = catalog.intern("revenue");
    let sum_price = catalog.intern("sum_price");
    let sum = |out| vec![AggSpec::new(AggFunc::Sum(a.price), out)];
    let on_r1 = |group: Vec<_>, aggs, order: Vec<SortKey>| JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: group,
        aggregates: aggs,
        order_by: order,
        ..Default::default()
    };
    let ord_r1 = |order: Vec<SortKey>| JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.date, a.customer, a.item, a.price]),
        order_by: order,
        ..Default::default()
    };
    vec![
        PaperQuery {
            name: "Q1",
            class: QueryClass::Agg,
            task: on_r1(vec![a.package, a.date, a.customer], sum(sum_price), vec![]),
            input: "R1",
        },
        PaperQuery {
            name: "Q2",
            class: QueryClass::Agg,
            task: on_r1(vec![a.customer], sum(revenue), vec![]),
            input: "R1",
        },
        PaperQuery {
            name: "Q3",
            class: QueryClass::Agg,
            task: on_r1(vec![a.date, a.package], sum(sum_price), vec![]),
            input: "R1",
        },
        PaperQuery {
            name: "Q4",
            class: QueryClass::Agg,
            task: on_r1(vec![a.package], sum(sum_price), vec![]),
            input: "R1",
        },
        PaperQuery {
            name: "Q5",
            class: QueryClass::Agg,
            task: on_r1(vec![], sum(sum_price), vec![]),
            input: "R1",
        },
        PaperQuery {
            name: "Q6",
            class: QueryClass::AggOrd,
            task: on_r1(
                vec![a.customer],
                sum(revenue),
                vec![SortKey::asc(a.customer)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "Q7",
            class: QueryClass::AggOrd,
            task: on_r1(vec![a.customer], sum(revenue), vec![SortKey::asc(revenue)]),
            input: "R1",
        },
        PaperQuery {
            name: "Q8",
            class: QueryClass::AggOrd,
            task: on_r1(
                vec![a.date, a.package],
                sum(sum_price),
                vec![SortKey::asc(a.date), SortKey::asc(a.package)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "Q9",
            class: QueryClass::AggOrd,
            task: on_r1(
                vec![a.date, a.package],
                sum(sum_price),
                vec![SortKey::asc(a.package), SortKey::asc(a.date)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "Q10",
            class: QueryClass::Ord,
            task: ord_r1(vec![
                SortKey::asc(a.package),
                SortKey::asc(a.date),
                SortKey::asc(a.item),
            ]),
            input: "R1",
        },
        PaperQuery {
            name: "Q11",
            class: QueryClass::Ord,
            task: ord_r1(vec![
                SortKey::asc(a.package),
                SortKey::asc(a.item),
                SortKey::asc(a.date),
            ]),
            input: "R1",
        },
        PaperQuery {
            name: "Q12",
            class: QueryClass::Ord,
            task: ord_r1(vec![
                SortKey::asc(a.date),
                SortKey::asc(a.package),
                SortKey::asc(a.item),
            ]),
            input: "R1",
        },
        PaperQuery {
            name: "Q13",
            class: QueryClass::Ord,
            task: JoinAggTask {
                inputs: vec!["R3".into()],
                projection: Some(vec![a.customer, a.date, a.package]),
                order_by: vec![
                    SortKey::asc(a.customer),
                    SortKey::asc(a.date),
                    SortKey::asc(a.package),
                ],
                ..Default::default()
            },
            input: "R3",
        },
    ]
}

/// The extended aggregate surface over the same view — not part of
/// Figure 3. `QD` counts distinct items per customer, `QP` takes the
/// (wrapping) price product, `QB` evaluates both boolean quantifiers
/// per package, `QK` keeps the three largest prices per customer, and
/// `QG` expands `ROLLUP (customer, date)` over `SUM(price)`. Benched by
/// `figures --fig 5`, whose claims cover each of them.
pub fn extended_agg_queries(catalog: &mut Catalog, a: &OrdersAttrs) -> Vec<PaperQuery> {
    let u_items = catalog.intern("u_items");
    let p_price = catalog.intern("p_price");
    let e_price = catalog.intern("e_price");
    let f_price = catalog.intern("f_price");
    let top_price = catalog.intern("top_price");
    let gs_price = catalog.intern("gs_sum_price");
    let on_r1 = |group: Vec<_>, aggs| JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: group,
        aggregates: aggs,
        ..Default::default()
    };
    vec![
        PaperQuery {
            name: "QD",
            class: QueryClass::AggExt,
            task: on_r1(
                vec![a.customer],
                vec![AggSpec::new(AggFunc::CountDistinct(a.item), u_items)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "QP",
            class: QueryClass::AggExt,
            task: on_r1(
                vec![a.customer],
                vec![AggSpec::new(AggFunc::Product(a.price), p_price)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "QB",
            class: QueryClass::AggExt,
            task: on_r1(
                vec![a.package],
                vec![
                    AggSpec::new(AggFunc::Exists(a.price, CmpOp::Gt, 8), e_price),
                    AggSpec::new(AggFunc::Forall(a.price, CmpOp::Ge, 1), f_price),
                ],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "QK",
            class: QueryClass::AggExt,
            task: on_r1(
                vec![a.customer],
                vec![AggSpec::new(AggFunc::TopK(a.price, 3), top_price)],
            ),
            input: "R1",
        },
        PaperQuery {
            name: "QG",
            class: QueryClass::AggExt,
            task: JoinAggTask {
                inputs: vec!["R1".into()],
                group_by: vec![a.customer, a.date],
                grouping_sets: vec![vec![a.customer, a.date], vec![a.customer], vec![]],
                aggregates: vec![AggSpec::new(AggFunc::Sum(a.price), gs_price)],
                ..Default::default()
            },
            input: "R1",
        },
    ]
}

/// Figure 5's queries: the AGG queries Q1–Q5, then the extended
/// aggregate surface.
pub fn figure5_queries(catalog: &mut Catalog, a: &OrdersAttrs) -> Vec<PaperQuery> {
    let mut queries = paper_queries(catalog, a);
    queries.retain(|q| q.class == QueryClass::Agg);
    queries.extend(extended_agg_queries(catalog, a));
    queries
}

/// The flat-input variants of the AGG queries (Figure 6): same grouping
/// and aggregates, but over the three base relations instead of the view.
pub fn flat_input_agg_queries(catalog: &mut Catalog, a: &OrdersAttrs) -> Vec<PaperQuery> {
    paper_queries(catalog, a)
        .into_iter()
        .filter(|q| q.class == QueryClass::Agg)
        .map(|mut q| {
            q.task.inputs = vec!["Orders".into(), "Packages".into(), "Items".into()];
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_workload::orders::{generate, OrdersConfig};

    #[test]
    fn thirteen_queries_in_three_classes() {
        let mut c = Catalog::new();
        let ds = generate(
            &mut c,
            &OrdersConfig {
                scale: 1,
                customers: 4,
                seed: 1,
            },
        );
        let qs = paper_queries(&mut c, &ds.attrs);
        assert_eq!(qs.len(), 13);
        assert_eq!(qs.iter().filter(|q| q.class == QueryClass::Agg).count(), 5);
        assert_eq!(
            qs.iter().filter(|q| q.class == QueryClass::AggOrd).count(),
            4
        );
        assert_eq!(qs.iter().filter(|q| q.class == QueryClass::Ord).count(), 4);
        assert!(qs.iter().all(|q| !q.task.inputs.is_empty()));
    }

    #[test]
    fn flat_variants_join_three_relations() {
        let mut c = Catalog::new();
        let ds = generate(
            &mut c,
            &OrdersConfig {
                scale: 1,
                customers: 4,
                seed: 1,
            },
        );
        let qs = flat_input_agg_queries(&mut c, &ds.attrs);
        assert_eq!(qs.len(), 5);
        assert!(qs.iter().all(|q| q.task.inputs.len() == 3));
    }
}
