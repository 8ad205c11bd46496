//! Grouped aggregation: the `̟G; α1←F1,…,αk←Fk` operator on flat relations.
//!
//! Two strategies mirror the engines benchmarked in the paper (§6, Exp. 1):
//! * [`GroupStrategy::Sort`] — sort by the grouping attributes, then fold
//!   each run in one scan (SQLite's approach, and the paper's RDB baseline);
//! * [`GroupStrategy::Hash`] — a hash table keyed by the group values
//!   (PostgreSQL's approach).
//!
//! Both also implement the internal *weighted* aggregates needed by the
//! eager-aggregation planner (`sum(a·b·…)` across partial-aggregate
//! columns, Yan–Larson \[31\]).

use crate::agg::{Accumulator, AggFunc, AggSpec};
use crate::attr::AttrId;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{Number, Value};
use std::collections::HashMap;

/// Grouping strategy of the baseline engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupStrategy {
    /// Sort on the group-by attributes, then aggregate runs in one scan.
    Sort,
    /// Hash-partition groups in one pass.
    Hash,
}

/// Internal physical aggregate: either a plain [`AggFunc`] or a weighted
/// combination over partial-aggregate columns, used to recombine eager
/// pre-aggregates: `SumProd([s, c1, c2])` computes `Σ s·c1·c2` per group.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PhysAgg {
    Plain(AggFunc),
    /// Sum over the product of the listed columns.
    SumProd(Vec<AttrId>),
}

impl PhysAgg {
    fn make_acc(&self) -> PhysAcc {
        match self {
            PhysAgg::Plain(f) => PhysAcc::Plain(Accumulator::new(*f)),
            PhysAgg::SumProd(_) => PhysAcc::SumProd(Number::ZERO),
        }
    }
}

enum PhysAcc {
    Plain(Accumulator),
    SumProd(Number),
}

impl PhysAcc {
    fn update(&mut self, spec: &PhysAgg, schema: &Schema, row: &[Value]) {
        match (self, spec) {
            (PhysAcc::Plain(acc), PhysAgg::Plain(f)) => {
                let v = f.attr().map(|a| {
                    let p = schema.position(a).expect("aggregated attr in schema");
                    &row[p]
                });
                acc.update(v);
            }
            (PhysAcc::SumProd(acc), PhysAgg::SumProd(cols)) => {
                let mut prod = Number::Int(1);
                for &a in cols {
                    let p = schema.position(a).expect("weighted attr in schema");
                    prod = prod.mul(row[p].as_number().expect("weight must be numeric"));
                }
                *acc = acc.add(prod);
            }
            _ => unreachable!("accumulator/spec mismatch"),
        }
    }

    fn finish(self) -> Value {
        match self {
            PhysAcc::Plain(acc) => acc.finish(),
            PhysAcc::SumProd(n) => n.into_value(),
        }
    }
}

/// One physical aggregate output: function plus output attribute.
#[derive(Clone, Debug)]
pub struct PhysAggSpec {
    pub agg: PhysAgg,
    pub output: AttrId,
}

impl From<AggSpec> for PhysAggSpec {
    fn from(s: AggSpec) -> Self {
        PhysAggSpec {
            agg: PhysAgg::Plain(s.func),
            output: s.output,
        }
    }
}

/// Groups `rel` by `group` and evaluates `aggs` within each group.
///
/// The output schema is `group ++ outputs(aggs)`; output tuples appear in
/// ascending group order for [`GroupStrategy::Sort`] and in unspecified
/// order for [`GroupStrategy::Hash`] (callers needing an order sort
/// afterwards, exactly like the engines the strategies model).
pub fn group_aggregate(
    rel: &Relation,
    group: &[AttrId],
    aggs: &[PhysAggSpec],
    strategy: GroupStrategy,
) -> Relation {
    let schema = rel.schema().clone();
    let group_pos: Vec<usize> = group
        .iter()
        .map(|&a| schema.position(a).expect("group attr in schema"))
        .collect();
    let out_schema = Schema::new(
        group
            .iter()
            .copied()
            .chain(aggs.iter().map(|a| a.output))
            .collect(),
    );
    if rel.is_empty() {
        return Relation::empty(out_schema);
    }
    match strategy {
        GroupStrategy::Sort => {
            let keys: Vec<crate::relation::SortKey> = group
                .iter()
                .map(|&a| crate::relation::SortKey::asc(a))
                .collect();
            let mut sorted = rel.clone();
            sorted.sort_by_keys(&keys);
            fold_sorted(&sorted, &schema, &group_pos, aggs, &out_schema)
        }
        GroupStrategy::Hash => fold_hash(rel, &schema, &group_pos, aggs, &out_schema),
    }
}

/// Hash-groups the rows in input order and emits one output row per key
/// in the table's iteration order.
fn fold_hash(
    rel: &Relation,
    schema: &Schema,
    group_pos: &[usize],
    aggs: &[PhysAggSpec],
    out_schema: &Schema,
) -> Relation {
    let mut table: HashMap<Vec<Value>, Vec<PhysAcc>> = HashMap::new();
    for row in rel.rows() {
        let key: Vec<Value> = group_pos.iter().map(|&p| row[p].clone()).collect();
        let accs = table
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| a.agg.make_acc()).collect());
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            acc.update(&spec.agg, schema, row);
        }
    }
    let mut out = Relation::empty(out_schema.clone());
    let mut buf: Vec<Value> = Vec::new();
    for (key, accs) in table {
        buf.clear();
        buf.extend(key);
        for acc in accs {
            buf.push(acc.finish());
        }
        out.push_row(&buf);
    }
    out
}

/// Folds the sorted rows into one output row per group run — the
/// sort-grouping scan.
fn fold_sorted(
    sorted: &Relation,
    schema: &Schema,
    group_pos: &[usize],
    aggs: &[PhysAggSpec],
    out_schema: &Schema,
) -> Relation {
    let mut out = Relation::empty(out_schema.clone());
    let mut accs: Vec<PhysAcc> = aggs.iter().map(|a| a.agg.make_acc()).collect();
    let mut current: Option<Vec<Value>> = None;
    let mut buf: Vec<Value> = Vec::new();
    let flush =
        |accs: &mut Vec<PhysAcc>, key: &[Value], out: &mut Relation, buf: &mut Vec<Value>| {
            buf.clear();
            buf.extend_from_slice(key);
            for acc in std::mem::replace(accs, aggs.iter().map(|a| a.agg.make_acc()).collect()) {
                buf.push(acc.finish());
            }
            out.push_row(buf);
        };
    for row in sorted.rows() {
        let key: Vec<Value> = group_pos.iter().map(|&p| row[p].clone()).collect();
        match &current {
            Some(k) if *k == key => {}
            Some(k) => {
                let k = k.clone();
                flush(&mut accs, &k, &mut out, &mut buf);
                current = Some(key);
            }
            None => current = Some(key),
        }
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            acc.update(&spec.agg, schema, row);
        }
    }
    if let Some(k) = current {
        flush(&mut accs, &k, &mut out, &mut buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;

    fn sales() -> (Catalog, Relation) {
        let mut c = Catalog::new();
        let cust = c.intern("customer");
        let price = c.intern("price");
        let rel = Relation::from_rows(
            Schema::new(vec![cust, price]),
            [
                ("Lucia", 9),
                ("Mario", 8),
                ("Mario", 8),
                ("Mario", 6),
                ("Pietro", 9),
            ]
            .into_iter()
            .map(|(n, p)| vec![Value::str(n), Value::Int(p)]),
        );
        (c, rel)
    }

    fn specs(c: &mut Catalog) -> Vec<PhysAggSpec> {
        let price = c.lookup("price").unwrap();
        let s = c.intern("revenue");
        let n = c.intern("orders");
        vec![
            AggSpec::new(AggFunc::Sum(price), s).into(),
            AggSpec::new(AggFunc::Count, n).into(),
        ]
    }

    #[test]
    fn sort_and_hash_agree() {
        let (mut c, rel) = sales();
        let cust = c.lookup("customer").unwrap();
        let aggs = specs(&mut c);
        let a = group_aggregate(&rel, &[cust], &aggs, GroupStrategy::Sort).canonical();
        let b = group_aggregate(&rel, &[cust], &aggs, GroupStrategy::Hash).canonical();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn sort_strategy_emits_sorted_groups() {
        let (mut c, rel) = sales();
        let cust = c.lookup("customer").unwrap();
        let aggs = specs(&mut c);
        let out = group_aggregate(&rel, &[cust], &aggs, GroupStrategy::Sort);
        let names: Vec<String> = out
            .rows()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["Lucia", "Mario", "Pietro"]);
        // Mario: 8 + 8 + 6 = 22 over 3 orders (matches Example 1's revenue
        // per customer, with the duplicate standing for two order dates).
        assert_eq!(out.row(1)[1], Value::Int(22));
        assert_eq!(out.row(1)[2], Value::Int(3));
    }

    #[test]
    fn global_aggregate_without_grouping() {
        let (mut c, rel) = sales();
        let aggs = specs(&mut c);
        let out = group_aggregate(&rel, &[], &aggs, GroupStrategy::Sort);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Int(40));
        assert_eq!(out.row(0)[1], Value::Int(5));
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let (mut c, rel) = sales();
        let empty = Relation::empty(rel.schema().clone());
        let aggs = specs(&mut c);
        let out = group_aggregate(&empty, &[], &aggs, GroupStrategy::Hash);
        assert!(out.is_empty());
    }

    #[test]
    fn sum_prod_recombines_partials() {
        // Simulates the eager-aggregation combine step: per-group partial
        // sums s with counts c, final = Σ s·c.
        let mut c = Catalog::new();
        let g = c.intern("g");
        let s = c.intern("s");
        let n = c.intern("c");
        let rel = Relation::from_rows(
            Schema::new(vec![g, s, n]),
            [(1, 8, 2), (1, 6, 1), (2, 9, 1)]
                .into_iter()
                .map(|(a, b, d)| vec![Value::Int(a), Value::Int(b), Value::Int(d)]),
        );
        let out_attr = c.intern("total");
        let aggs = vec![PhysAggSpec {
            agg: PhysAgg::SumProd(vec![s, n]),
            output: out_attr,
        }];
        let out = group_aggregate(&rel, &[g], &aggs, GroupStrategy::Sort);
        assert_eq!(out.row(0), &[Value::Int(1), Value::Int(22)]);
        assert_eq!(out.row(1), &[Value::Int(2), Value::Int(9)]);
    }

    #[test]
    fn parallel_global_aggregate_without_grouping() {
        let (mut c, rel) = sales();
        let aggs = specs(&mut c);
        for strategy in [GroupStrategy::Sort, GroupStrategy::Hash] {
            let out = group_aggregate(&rel, &[], &aggs, strategy);
            assert_eq!(out.len(), 1);
            assert_eq!(out.row(0)[0], Value::Int(40));
            assert_eq!(out.row(0)[1], Value::Int(5));
        }
    }

    #[test]
    fn parallel_empty_input_yields_no_groups() {
        let (mut c, rel) = sales();
        let empty = Relation::empty(rel.schema().clone());
        let aggs = specs(&mut c);
        for strategy in [GroupStrategy::Sort, GroupStrategy::Hash] {
            assert!(group_aggregate(&empty, &[], &aggs, strategy).is_empty());
        }
    }

    #[test]
    fn min_max_grouping() {
        let (mut c, rel) = sales();
        let cust = c.lookup("customer").unwrap();
        let price = c.lookup("price").unwrap();
        let mn = c.intern("cheapest");
        let aggs = vec![PhysAggSpec::from(AggSpec::new(AggFunc::Min(price), mn))];
        let out = group_aggregate(&rel, &[cust], &aggs, GroupStrategy::Sort);
        assert_eq!(out.row(1), &[Value::str("Mario"), Value::Int(6)]);
    }
}
