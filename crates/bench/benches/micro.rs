//! Operator micro-benchmarks: the primitives whose linear-time behaviour
//! the paper's complexity claims rest on.
//!
//! * recursive aggregation (`count`/`sum`) over a factorised view — §3.2
//!   says linear in the factorisation size;
//! * the swap operator — restructuring cost (a root and an inner `χ`);
//! * constant-delay enumeration — per-tuple cost independent of data size;
//! * constant selection with pruning, and the predicate delete that runs
//!   it backwards.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fdb_core::enumerate::{EnumSpec, TupleIter};
use fdb_core::ftree::AggOp;
use fdb_core::ops;
use fdb_relational::Catalog;
use fdb_relational::{CmpOp, Predicate, Value};
use fdb_workload::orders::{generate, OrdersConfig};

fn micro(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 50,
            seed: 0xFDB,
        },
    );
    let a = ds.attrs;
    let rep = ds.factorised_view();
    let singletons = rep.singleton_count();

    let mut group = c.benchmark_group("micro");
    group.sample_size(20);

    group.bench_function(format!("count_over_{singletons}_singletons"), |b| {
        b.iter(|| {
            let unions: Vec<fdb_core::UnionRef<'_>> = rep.root_unions().collect();
            fdb_core::agg::eval_op(rep.ftree(), &unions, &AggOp::Count).unwrap()
        })
    });

    group.bench_function(format!("sum_over_{singletons}_singletons"), |b| {
        b.iter(|| {
            let unions: Vec<fdb_core::UnionRef<'_>> = rep.root_unions().collect();
            fdb_core::agg::eval_op(rep.ftree(), &unions, &AggOp::Sum(a.price)).unwrap()
        })
    });

    // χ (in place, fragments shared): the root swap regroups one union of every (package, date) pair,
    // the inner swap one date-union per package.
    let package_node = rep.ftree().roots()[0];
    let date_node = rep.ftree().node(package_node).children[0];
    let customer_node = rep.ftree().node(date_node).children[0];
    for (name, parent, child) in [
        ("swap_root_package_date", package_node, date_node),
        ("swap_inner_date_customer", date_node, customer_node),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || rep.clone(),
                |r| ops::swap(r, parent, child).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }

    // `DELETE … WHERE` pushed into the factorisation: one root key (the
    // package's whole group goes by id), and one inner date under every
    // package (a walk of the date unions, customer subtrees dropped).
    let root = rep.root(0);
    let package = root.entry(root.len() / 2).value().clone();
    let date = root.entry(0).child(0).entry(0).value().clone();
    for (name, pred) in [
        (
            "delete_where_root_package",
            Predicate::AttrCmp(a.package, CmpOp::Eq, package),
        ),
        (
            "delete_where_inner_date",
            Predicate::AttrCmp(a.date, CmpOp::Eq, date),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || rep.clone(),
                |mut r| r.delete_where(std::slice::from_ref(&pred)).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }

    group.bench_function("enumerate_all_tuples", |b| {
        b.iter(|| {
            let spec = EnumSpec::all_preorder(rep.ftree());
            let mut it = TupleIter::new(&rep, &spec).unwrap();
            let mut n = 0usize;
            while it.next_row().is_some() {
                n += 1;
            }
            n
        })
    });

    group.bench_function("enumerate_first_100", |b| {
        b.iter(|| {
            let spec = EnumSpec::all_preorder(rep.ftree());
            let mut it = TupleIter::new(&rep, &spec).unwrap();
            let mut n = 0usize;
            while n < 100 && it.next_row().is_some() {
                n += 1;
            }
            n
        })
    });

    group.bench_function("select_price_le_10", |b| {
        b.iter_batched(
            || rep.clone(),
            |r| ops::select_const(r, a.price, CmpOp::Le, &Value::Int(10)).unwrap(),
            BatchSize::LargeInput,
        )
    });

    // The aggregation operator: one evaluation per group (per parent
    // union entry).
    let item_node = rep.ftree().node_of_attr(a.item).unwrap();
    let out = catalog.fresh("bench_sum");
    group.bench_function("aggregate_items_subtree", |b| {
        b.iter_batched(
            || rep.clone(),
            |r| {
                let target = ops::AggTarget::subtree(r.ftree(), item_node);
                ops::aggregate(r, &target, vec![AggOp::Sum(a.price)], vec![out]).unwrap()
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(micro_benches, micro);
criterion_main!(micro_benches);
