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
    group_aggregate_with(rel, group, aggs, strategy, 1)
}

/// [`group_aggregate`] on up to `threads` worker threads.
///
/// * **Sort**: the input is sorted by the parallel stable sort, then the
///   run-fold is partitioned into group-aligned row ranges — each group
///   is folded wholly by one worker, so the result (including its order)
///   is identical to the serial fold for every thread count.
/// * **Hash**: each worker owns the keys whose (fixed-seed) hash lands
///   in its partition and scans the input for them; concatenation order
///   across workers is unspecified, exactly like the serial hash table's
///   iteration order.
pub fn group_aggregate_with(
    rel: &Relation,
    group: &[AttrId],
    aggs: &[PhysAggSpec],
    strategy: GroupStrategy,
    threads: usize,
) -> Relation {
    let threads = threads.max(1);
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
            sorted.sort_by_keys_par(&keys, threads);
            let n = sorted.len();
            if threads == 1 || n < 2 {
                return fold_sorted_range(&sorted, 0, n, &schema, &group_pos, aggs, &out_schema);
            }
            // Partition rows into group-aligned ranges: a boundary may
            // only fall where the group key changes, so every group is
            // folded by exactly one worker.
            let same_key = |i: usize, j: usize| {
                group_pos
                    .iter()
                    .all(|&p| sorted.row(i)[p] == sorted.row(j)[p])
            };
            // Morsel-count ranges (~4× threads, see fdb-exec): when one
            // group dominates the table, its range stays pinned to one
            // worker while the many small ranges rebalance via stealing.
            let parts = fdb_exec::morsel_count(n, threads);
            let mut bounds: Vec<usize> = vec![0];
            for t in 1..parts {
                let mut b = (t * n) / parts;
                let lo = *bounds.last().expect("non-empty");
                b = b.max(lo);
                while b < n && b > 0 && same_key(b - 1, b) {
                    b += 1;
                }
                bounds.push(b);
            }
            bounds.push(n);
            let ranges: Vec<(usize, usize)> = bounds
                .windows(2)
                .map(|w| (w[0], w[1]))
                .filter(|&(lo, hi)| lo < hi)
                .collect();
            let parts = fdb_exec::parallel_map(threads, ranges, |(lo, hi)| {
                fold_sorted_range(&sorted, lo, hi, &schema, &group_pos, aggs, &out_schema)
            });
            concat_parts(out_schema, parts)
        }
        GroupStrategy::Hash => {
            let n = rel.len();
            if threads == 1 {
                return fold_hash_indices(rel, 0..n, &schema, &group_pos, aggs, &out_schema);
            }
            // Each partition of the key space is aggregated wholly by
            // one worker (no accumulator merging, and each key's rows
            // fold in input order exactly like the serial table). The
            // partition count follows the morsel sizing rule (~4×
            // threads) so a hot key's partition pins one worker while
            // the other partitions drain via stealing. Key hashes are
            // computed once in parallel, then one serial O(n) pass
            // buckets row indices so each worker touches only its own
            // rows.
            let partitions = fdb_exec::morsel_count(n, threads);
            let chunks = fdb_exec::split_morsels((0..n).collect::<Vec<usize>>(), threads);
            let partition_of: Vec<u64> = fdb_exec::parallel_map(threads, chunks, |chunk| {
                chunk
                    .into_iter()
                    .map(|i| key_partition(rel.row(i), &group_pos, partitions as u64))
                    .collect::<Vec<u64>>()
            })
            .into_iter()
            .flatten()
            .collect();
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); partitions];
            for (i, &part) in partition_of.iter().enumerate() {
                buckets[part as usize].push(i);
            }
            let parts = fdb_exec::parallel_map(threads, buckets, |bucket| {
                fold_hash_indices(
                    rel,
                    bucket.into_iter(),
                    &schema,
                    &group_pos,
                    aggs,
                    &out_schema,
                )
            });
            concat_parts(out_schema, parts)
        }
    }
}

/// Hash-groups the rows at the given indices (in index order, so each
/// key's accumulation folds exactly as in a serial scan) and emits one
/// output row per key in the table's iteration order.
fn fold_hash_indices(
    rel: &Relation,
    indices: impl Iterator<Item = usize>,
    schema: &Schema,
    group_pos: &[usize],
    aggs: &[PhysAggSpec],
    out_schema: &Schema,
) -> Relation {
    let mut table: HashMap<Vec<Value>, Vec<PhysAcc>> = HashMap::new();
    for i in indices {
        let row = rel.row(i);
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

/// Fixed-seed partition of a row's group key: deterministic within a
/// build (SipHash with zeroed keys), independent of thread scheduling.
fn key_partition(row: &[Value], group_pos: &[usize], workers: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &p in group_pos {
        row[p].hash(&mut h);
    }
    h.finish() % workers
}

/// Folds the sorted row range `[lo, hi)` into one output row per group
/// run — the serial sort-grouping scan, restricted to a range.
fn fold_sorted_range(
    sorted: &Relation,
    lo: usize,
    hi: usize,
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
    for i in lo..hi {
        let row = sorted.row(i);
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

/// Concatenates per-worker partial outputs in worker order.
fn concat_parts(out_schema: Schema, parts: Vec<Relation>) -> Relation {
    let mut out = Relation::empty(out_schema);
    for part in parts {
        out.reserve(part.len());
        for row in part.rows() {
            out.push_row(row);
        }
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
    fn parallel_sort_grouping_matches_serial_exactly() {
        // Skewed groups: one key owns most rows, so group-aligned range
        // splitting must extend a boundary across the hot run.
        let mut c = Catalog::new();
        let g = c.intern("g");
        let v = c.intern("v");
        let mut rows: Vec<(i64, i64)> = (0..60).map(|i| (0, i)).collect();
        rows.extend((0..12).map(|i| (1 + (i % 3), i)));
        let rel = Relation::from_rows(
            Schema::new(vec![g, v]),
            rows.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
        );
        let s = c.intern("s");
        let n = c.intern("n");
        let aggs = vec![
            PhysAggSpec::from(AggSpec::new(AggFunc::Sum(v), s)),
            PhysAggSpec::from(AggSpec::new(AggFunc::Count, n)),
        ];
        let serial = group_aggregate(&rel, &[g], &aggs, GroupStrategy::Sort);
        for threads in [2, 3, 4, 7] {
            let par = group_aggregate_with(&rel, &[g], &aggs, GroupStrategy::Sort, threads);
            // Sort grouping is order-deterministic: exact equality.
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_hash_grouping_matches_serial_as_a_set() {
        let (mut c, rel) = sales();
        let cust = c.lookup("customer").unwrap();
        let aggs = specs(&mut c);
        let serial = group_aggregate(&rel, &[cust], &aggs, GroupStrategy::Hash).canonical();
        for threads in [2, 4] {
            let par = group_aggregate_with(&rel, &[cust], &aggs, GroupStrategy::Hash, threads)
                .canonical();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_global_aggregate_without_grouping() {
        let (mut c, rel) = sales();
        let aggs = specs(&mut c);
        for strategy in [GroupStrategy::Sort, GroupStrategy::Hash] {
            let out = group_aggregate_with(&rel, &[], &aggs, strategy, 4);
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
            assert!(group_aggregate_with(&empty, &[], &aggs, strategy, 4).is_empty());
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
