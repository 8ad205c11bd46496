//! `ORDER BY … LIMIT` differential suite: the three physical ordering
//! strategies — bounded-heap top-k, collect-sort-cut, restructure+stream
//! — must agree on every query, each forced via `FdbEngine::run_forcing`
//! beside the cost model's own choice, including two-run determinism
//! when ties straddle the LIMIT boundary and NULL-bearing columns (NULLS
//! LAST ascending, first descending).
//!
//! Exactness levels (tie order *within* equal keys is a per-strategy
//! deterministic choice, not a cross-strategy promise):
//!
//! * heap ≡ sort **byte-identical** — the heap's stable tie-break makes
//!   it literally a stable sort + truncate;
//! * every strategy: byte-identical to its own re-run (determinism) and
//!   identical to the reference on the ORDER BY key columns (the columns
//!   the query actually constrains);
//! * every output is sorted by the keys and is a subset of the
//!   unlimited result.

use fdb::core::engine::{FdbEngine, FdbResult, OrderStrategy, RunOptions};
use fdb::relational::planner::JoinAggTask;
use fdb::relational::{AggFunc, AggSpec, Relation, Schema, SortKey, Value};
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::Catalog;

fn order_attrs(task: &JoinAggTask) -> Vec<fdb::relational::AttrId> {
    let mut attrs: Vec<fdb::relational::AttrId> = Vec::new();
    for k in &task.order_by {
        if !attrs.contains(&k.attr) {
            attrs.push(k.attr);
        }
    }
    attrs
}

fn run(
    e: &mut FdbEngine,
    task: &JoinAggTask,
    choice: Option<OrderStrategy>,
) -> fdb::core::Result<FdbResult> {
    let opts = RunOptions::new();
    match choice {
        Some(c) => e.run_forcing(task, opts, c),
        None => e.run(task, opts),
    }
}

/// Runs `task` under the cost model's choice and every forced strategy
/// and checks the agreement contract; returns the collect-sort-cut
/// reference.
fn assert_strategies_agree(e: &mut FdbEngine, task: &JoinAggTask, label: &str) -> Relation {
    let keys = fdb::relational::dedup_sort_keys(&task.order_by);
    let key_attrs = order_attrs(task);
    let sort = Some(OrderStrategy::CollectSortCut);
    let reference = run(e, task, sort)
        .unwrap_or_else(|err| panic!("{label}: sort reference plans: {err}"))
        .to_relation()
        .unwrap();
    let unlimited = {
        let mut t = task.clone();
        t.limit = None;
        run(e, &t, sort).unwrap().to_relation().unwrap().canonical()
    };
    assert!(reference.is_sorted_by(&keys), "{label}: reference sorted");
    for choice in [
        None,
        Some(OrderStrategy::StreamInTree),
        Some(OrderStrategy::HeapTopK),
        sort,
    ] {
        let mut rerun = || {
            run(e, task, choice)
                .unwrap_or_else(|err| panic!("{label}: {choice:?}: {err}"))
                .to_relation_counted()
                .unwrap()
        };
        let (out, stats) = rerun();
        let (out2, _) = rerun();
        assert_eq!(out, out2, "{label}: {choice:?}: two runs diverged");
        assert!(
            out.is_sorted_by(&keys),
            "{label}: {choice:?}: unsorted output"
        );
        assert_eq!(
            out.project_cols(&key_attrs),
            reference.project_cols(&key_attrs),
            "{label}: {choice:?}: key columns differ"
        );
        let contained = out.rows().all(|r| unlimited.rows().any(|u| u == r));
        assert!(
            contained,
            "{label}: {choice:?}: row not in unlimited result"
        );
        if matches!(
            stats.strategy,
            OrderStrategy::HeapTopK | OrderStrategy::CollectSortCut
        ) {
            // Heap ≡ stable sort + truncate, byte for byte.
            assert_eq!(out, reference, "{label}: {choice:?} differs from sort");
        }
        if choice == Some(OrderStrategy::HeapTopK) && task.limit.is_some() {
            assert!(
                matches!(stats.strategy, OrderStrategy::HeapTopK),
                "{label}: a forced heap under a LIMIT must execute the heap"
            );
        }
    }
    reference
}

/// The orders workload with the factorised view registered.
fn orders_engine() -> (FdbEngine, fdb::workload::orders::OrdersDataset) {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 10,
            seed: 0xBEEF,
        },
    );
    let mut e = FdbEngine::new(catalog);
    e.register_view("R1", ds.factorised_view());
    e.register_relation("Orders", ds.orders.clone());
    e.register_relation("Packages", ds.packages.clone());
    e.register_relation("Items", ds.items.clone());
    (e, ds)
}

#[test]
fn orders_workload_limit_sweep() {
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    // Q12-style: keys not realised by the stored f-tree (needs a swap to
    // stream), plus a LIMIT — the acceptance query shape.
    for k in [1, 7, 100] {
        let task = JoinAggTask {
            inputs: vec!["R1".into()],
            projection: Some(vec![a.date, a.package, a.item]),
            order_by: vec![
                SortKey::asc(a.date),
                SortKey::asc(a.package),
                SortKey::asc(a.item),
            ],
            limit: Some(k),
            ..Default::default()
        };
        assert_strategies_agree(&mut e, &task, &format!("Q12 LIMIT {k}"));
    }
    // Q7-style ORDER BY aggregate DESC LIMIT (ties in revenue likely).
    let revenue = e.catalog.intern("rev_diff");
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: vec![a.customer],
        aggregates: vec![AggSpec::new(AggFunc::Sum(a.price), revenue)],
        order_by: vec![SortKey::desc(revenue), SortKey::asc(a.customer)],
        limit: Some(3),
        ..Default::default()
    };
    assert_strategies_agree(&mut e, &task, "Q7 LIMIT 3");
    // Mixed directions without a limit: a forced heap is infeasible and
    // runs the cost model's choice, stream restructures; all agree.
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.date]),
        order_by: vec![SortKey::desc(a.package), SortKey::asc(a.date)],
        ..Default::default()
    };
    assert_strategies_agree(&mut e, &task, "mixed no-limit");
}

#[test]
fn ties_at_the_limit_boundary_are_deterministic() {
    // Revenue ties by construction: customers pair up with equal totals
    // and the LIMIT cuts inside a tie pair; no tiebreaker key.
    let build = || {
        let mut catalog = Catalog::new();
        let customer = catalog.intern("customer");
        let order_id = catalog.intern("order_id");
        let amount = catalog.intern("amount");
        let rows: Vec<Vec<Value>> = (0..12i64)
            .flat_map(|c| {
                (0..3i64).map(move |o| {
                    vec![
                        Value::Int(c),
                        Value::Int(c * 10 + o),
                        Value::Int(50 * (c / 2)),
                    ]
                })
            })
            .collect();
        let sales = Relation::from_rows(Schema::new(vec![customer, order_id, amount]), rows);
        let mut e = FdbEngine::new(catalog);
        e.register_relation("Sales", sales);
        e
    };
    let mut e = build();
    let customer = e.catalog.lookup("customer").unwrap();
    let amount = e.catalog.lookup("amount").unwrap();
    let revenue = e.catalog.intern("revenue");
    let task = JoinAggTask {
        inputs: vec!["Sales".into()],
        group_by: vec![customer],
        aggregates: vec![AggSpec::new(AggFunc::Sum(amount), revenue)],
        order_by: vec![SortKey::desc(revenue)], // ties, no tiebreaker
        limit: Some(5),                         // cuts inside a tie pair
        ..Default::default()
    };
    assert_strategies_agree(&mut e, &task, "tie boundary");
}

#[test]
fn null_bearing_columns_agree_on_placement() {
    // NULLS LAST under ASC, first under DESC — and every strategy agrees
    // because the rule lives in `Value::cmp` itself.
    let mut catalog = Catalog::new();
    let id = catalog.intern("id");
    let score = catalog.intern("score");
    let rows: Vec<Vec<Value>> = (0..20i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 5)
                },
            ]
        })
        .collect();
    let rel = Relation::from_rows(Schema::new(vec![id, score]), rows);
    let mut e = FdbEngine::new(catalog);
    e.register_relation("T", rel);
    for dir in [SortKey::asc(score), SortKey::desc(score)] {
        let task = JoinAggTask {
            inputs: vec!["T".into()],
            projection: Some(vec![score, id]),
            order_by: vec![dir, SortKey::asc(id)],
            limit: Some(6),
            ..Default::default()
        };
        let reference = assert_strategies_agree(&mut e, &task, &format!("nulls {:?}", dir.dir));
        // Spot-check the placement rule itself.
        let first_is_null = reference.row(0)[0].is_null();
        match dir.dir {
            fdb::relational::SortDir::Asc => {
                assert!(!first_is_null, "ASC puts NULLs last");
            }
            fdb::relational::SortDir::Desc => {
                assert!(first_is_null, "DESC puts NULLs first");
            }
        }
    }
}

#[test]
fn duplicate_conflicting_direction_keys_honour_first_everywhere() {
    // ORDER BY package DESC, package ASC: the ASC duplicate is dropped —
    // by every strategy, matching `Relation::sort_by_keys` on the raw
    // key list.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.item]),
        order_by: vec![
            SortKey::desc(a.package),
            SortKey::asc(a.package),
            SortKey::asc(a.item),
        ],
        limit: Some(9),
        ..Default::default()
    };
    let reference = assert_strategies_agree(&mut e, &task, "dup keys");
    // The raw (un-deduplicated) list sorts identically: the first
    // occurrence decided.
    assert!(reference.is_sorted_by(&fdb::relational::dedup_sort_keys(&task.order_by)));
    let mut resorted = reference.clone();
    resorted.sort_by_keys(&task.order_by);
    assert_eq!(resorted, reference);
}

/// `TOP_K(x, k)` per group (the PR-7 aggregate, not the `ORDER BY …
/// LIMIT` pipeline): byte-identical to the flat sort-and-truncate
/// reference, twice in a row.
#[test]
fn top_k_per_group_matches_sort_and_truncate() {
    let mut catalog = Catalog::new();
    let customer = catalog.intern("customer");
    let order_id = catalog.intern("order_id");
    let amount = catalog.intern("amount");
    // Duplicates inside groups, ties across groups, scattered NULLs, and
    // one group (customer 99) whose amounts are all NULL.
    let mut rows: Vec<Vec<Value>> = (0..8i64)
        .flat_map(|c| {
            (0..5i64).map(move |o| {
                let a = if (c + o) % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int((c * o * 7) % 13)
                };
                vec![Value::Int(c), Value::Int(c * 10 + o), a]
            })
        })
        .collect();
    for o in 0..3i64 {
        rows.push(vec![Value::Int(99), Value::Int(990 + o), Value::Null]);
    }
    let sales = Relation::from_rows(Schema::new(vec![customer, order_id, amount]), rows.clone());
    let mut e = FdbEngine::new(catalog);
    e.register_relation("Sales", sales);
    let top = e.catalog.intern("top");

    for k in [1usize, 3, 10] {
        // Flat reference: per group, sort the non-NULL amounts descending
        // and truncate to k (NULL when nothing survives).
        let mut expected: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        groups.sort_unstable();
        groups.dedup();
        for c in groups {
            let mut vals: Vec<Value> = rows
                .iter()
                .filter(|r| r[0].as_int() == Some(c) && !r[2].is_null())
                .map(|r| r[2].clone())
                .collect();
            vals.sort_by(|a, b| b.cmp(a));
            vals.truncate(k);
            let v = if vals.is_empty() {
                Value::Null
            } else {
                Value::tup(vals)
            };
            expected.push(vec![Value::Int(c), v]);
        }
        let reference = Relation::from_rows(Schema::new(vec![customer, top]), expected);

        let task = JoinAggTask {
            inputs: vec!["Sales".into()],
            group_by: vec![customer],
            aggregates: vec![AggSpec::new(AggFunc::TopK(amount, k), top)],
            order_by: vec![SortKey::asc(customer)],
            ..Default::default()
        };
        let mut run = || {
            e.run(&task, RunOptions::new())
                .unwrap_or_else(|err| panic!("top_k k={k}: {err}"))
                .to_relation()
                .unwrap()
        };
        let out = run();
        assert_eq!(out, reference, "top_k k={k} vs sort-and-truncate");
        // Two-run determinism, byte for byte.
        assert_eq!(out, run(), "top_k k={k} re-run");
    }
}

#[test]
fn heap_memory_is_independent_of_flat_size_and_below_sort() {
    // The acceptance property at engine level: the heap's ordering-side
    // allocation depends on k, not on the flat result size, and sits
    // strictly below the collect-sort-cut buffer.
    let run_with = |customers: u32, choice: OrderStrategy| {
        let mut catalog = Catalog::new();
        let ds = generate(
            &mut catalog,
            &OrdersConfig {
                scale: 2,
                customers,
                seed: 7,
            },
        );
        let a = ds.attrs;
        let mut e = FdbEngine::new(catalog);
        e.register_view("R1", ds.factorised_view());
        let task = JoinAggTask {
            inputs: vec!["R1".into()],
            projection: Some(vec![a.date, a.package, a.item]),
            order_by: vec![
                SortKey::asc(a.date),
                SortKey::asc(a.package),
                SortKey::asc(a.item),
            ],
            limit: Some(10),
            ..Default::default()
        };
        let result = e.run_forcing(&task, RunOptions::new(), choice).unwrap();
        let (out, stats) = result.to_relation_counted().unwrap();
        assert_eq!(out.len(), 10);
        stats
    };
    let heap_small = run_with(20, OrderStrategy::HeapTopK);
    let heap_large = run_with(60, OrderStrategy::HeapTopK);
    let sort_large = run_with(60, OrderStrategy::CollectSortCut);
    assert!(
        heap_large.rows_enumerated > heap_small.rows_enumerated,
        "the large input must actually enumerate more rows \
         ({} vs {})",
        heap_large.rows_enumerated,
        heap_small.rows_enumerated
    );
    assert_eq!(
        heap_small.order_bytes, heap_large.order_bytes,
        "heap allocation must not scale with the flat result"
    );
    assert!(
        heap_large.order_bytes < sort_large.order_bytes,
        "heap ({}) must undercut collect-sort-cut ({})",
        heap_large.order_bytes,
        sort_large.order_bytes
    );
}
