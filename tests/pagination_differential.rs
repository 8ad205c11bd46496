//! `ORDER BY … LIMIT k OFFSET m` differential suite: every pagination
//! strategy — count-annotated direct access, (m+k)-heap, restructure +
//! stream-and-skip, collect-sort-cut — must produce the page the
//! relational ground truth produces (stable sort + skip + truncate, i.e.
//! `fdb::relational::ops::page` over the unlimited sorted result), swept
//! over {the cost model's choice, each strategy forced via
//! `FdbEngine::run_forcing`} × offsets {0, 1, mid, result−1, past-end,
//! huge}. A forced strategy outside its feasible set runs the cost
//! model's choice.
//!
//! Exactness levels mirror `topk_differential.rs`:
//!
//! * when the ORDER BY keys cover every output column, rows tied on the
//!   keys are *identical* rows, so every strategy is **byte-identical**
//!   to the reference page at every offset;
//! * with duplicate sort keys over distinct rows at the offset boundary,
//!   tie order within equal keys is a per-strategy deterministic choice:
//!   key columns must match the reference, every row must come from the
//!   unlimited result, each configuration must reproduce itself, and the
//!   (m+k)-heap stays byte-identical to sort (stable tie-break);
//! * `Value::Null` sort keys follow `Value::cmp` (NULLS LAST ascending,
//!   first descending) identically in every strategy.

use fdb::core::engine::{FdbEngine, FdbResult, OrderStrategy, RunOptions};
use fdb::core::FOp;
use fdb::relational::planner::JoinAggTask;
use fdb::relational::{ops, AggFunc, AggSpec, CmpOp, Predicate, Relation, Schema, SortKey, Value};
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::{Catalog, FRep};
use std::sync::Arc;

/// The cost model's choice (`None`) and every strategy forced.
fn choices() -> [Option<OrderStrategy>; 5] {
    [
        None,
        Some(OrderStrategy::StreamInTree),
        Some(OrderStrategy::DirectAccess),
        Some(OrderStrategy::HeapTopK),
        Some(OrderStrategy::CollectSortCut),
    ]
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

/// The offset grid from the issue: start, one-in, middle, last row,
/// exactly past the end, and absurdly past the end.
fn offset_sweep(result_len: usize) -> Vec<usize> {
    let mut v = vec![
        0,
        1,
        result_len / 2,
        result_len.saturating_sub(1),
        result_len,
        10_000_000,
    ];
    v.sort_unstable();
    v.dedup();
    v
}

fn order_attrs(task: &JoinAggTask) -> Vec<fdb::relational::AttrId> {
    let mut attrs: Vec<fdb::relational::AttrId> = Vec::new();
    for k in &task.order_by {
        if !attrs.contains(&k.attr) {
            attrs.push(k.attr);
        }
    }
    attrs
}

/// Sweeps `base` (its `limit`/`offset` are overridden) over the full
/// choice × offset × limit grid against the stable sort + skip +
/// truncate reference.
///
/// * `byte_identical` — the keys cover every output column, so every
///   strategy must reproduce the reference byte for byte;
/// * `expect_direct` — the f-tree (possibly after restructuring)
///   realises the order with a plain tuple cursor, so a forced direct
///   access at a positive offset must actually execute the
///   count-annotated seek and enumerate only the page it returns.
fn assert_pages_agree(
    e: &mut FdbEngine,
    base: &JoinAggTask,
    byte_identical: bool,
    expect_direct: bool,
    label: &str,
) {
    let keys = fdb::relational::dedup_sort_keys(&base.order_by);
    let key_attrs = order_attrs(base);
    let unlimited = {
        let mut t = base.clone();
        t.limit = None;
        t.offset = 0;
        run(e, &t, Some(OrderStrategy::CollectSortCut))
            .unwrap_or_else(|err| panic!("{label}: unlimited reference: {err}"))
            .to_relation()
            .unwrap()
    };
    assert!(unlimited.is_sorted_by(&keys), "{label}: reference sorted");
    let in_unlimited = |row: &[Value]| unlimited.rows().any(|u| u == row);

    for offset in offset_sweep(unlimited.len()) {
        for limit in [None, Some(3)] {
            let expected = ops::page(&unlimited, offset, limit);
            let mut task = base.clone();
            task.offset = offset;
            task.limit = limit;
            for choice in choices() {
                let ctx = format!("{label}: {choice:?} OFFSET {offset} LIMIT {limit:?}");
                let (out, stats) = run(e, &task, choice)
                    .unwrap_or_else(|err| panic!("{ctx}: {err}"))
                    .to_relation_counted()
                    .unwrap();
                assert!(out.is_sorted_by(&keys), "{ctx}: unsorted page");
                if byte_identical {
                    assert_eq!(out, expected, "{ctx}: page differs from sort+skip+cut");
                } else {
                    assert_eq!(
                        out.project_cols(&key_attrs),
                        expected.project_cols(&key_attrs),
                        "{ctx}: key columns differ from sort+skip+cut"
                    );
                    assert!(
                        out.rows().all(&in_unlimited),
                        "{ctx}: row not in unlimited result"
                    );
                }
                // Heap ≡ stable sort + page, byte for byte: the
                // (m+k)-heap keeps the stably-first m+k rows and
                // drops the first m.
                if matches!(
                    stats.strategy,
                    OrderStrategy::HeapTopK | OrderStrategy::CollectSortCut
                ) {
                    assert_eq!(out, expected, "{ctx}: differs from reference");
                }
                match choice {
                    Some(OrderStrategy::DirectAccess) if expect_direct && offset > 0 => {
                        assert!(
                            matches!(stats.strategy, OrderStrategy::DirectAccess),
                            "{ctx}: expected the direct-access seek, got {:?}",
                            stats.strategy
                        );
                        // The acceptance property at test scale: the
                        // seek enumerates exactly the page, never the
                        // skipped prefix.
                        assert_eq!(
                            stats.rows_enumerated,
                            out.len(),
                            "{ctx}: direct access enumerated more than the page"
                        );
                    }
                    _ => {}
                }
                if choice == Some(OrderStrategy::HeapTopK) && limit.is_some() {
                    assert!(
                        matches!(stats.strategy, OrderStrategy::HeapTopK),
                        "{ctx}: a forced heap under a LIMIT must execute the heap"
                    );
                }
            }
        }
    }
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
fn realised_order_pages_agree_at_every_offset() {
    // The stored f-tree realises (package, item, date) for free: direct
    // access must seek without restructuring.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.item, a.date]),
        order_by: vec![
            SortKey::asc(a.package),
            SortKey::asc(a.item),
            SortKey::asc(a.date),
        ],
        ..Default::default()
    };
    assert_pages_agree(&mut e, &task, true, true, "realised order");
}

#[test]
fn swap_requiring_order_pages_agree_at_every_offset() {
    // (date, package, item) needs restructuring first; the seek then
    // runs over the restructured arena's count annotations.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.date, a.package, a.item]),
        order_by: vec![
            SortKey::asc(a.date),
            SortKey::asc(a.package),
            SortKey::asc(a.item),
        ],
        ..Default::default()
    };
    assert_pages_agree(&mut e, &task, true, true, "swap order");

    // The same pages over a written version of the view: the base the
    // pages above counted, plus a tail of rows written since (two fresh
    // packages, one package deleted). The old version stays alive, so
    // registering the new one cannot fold the tail into the base.
    let before = e.view_arc("R1").expect("R1 is registered");
    let mut written = FRep::clone(&before);
    let schema = written.schema();
    let top = (0..ds.packages.len())
        .map(|i| ds.packages.row(i)[0].as_int().unwrap())
        .max()
        .unwrap();
    let mut row = written.flatten().row(0).to_vec();
    for fresh in [top + 1, top + 7] {
        row[schema.position(a.package).unwrap()] = Value::Int(fresh);
        assert!(written.insert(&row).unwrap());
    }
    let gone = Predicate::AttrCmp(a.package, CmpOp::Eq, Value::Int(top / 2));
    assert!(written.delete_where(&[gone]).unwrap() > 0);
    assert!(written.tail_records() > 0 && written.shares_base_with(&before));
    e.register_view_arc("R1", Arc::new(written));
    let written = e.view_arc("R1").unwrap();
    assert!(written.tail_records() > 0);
    assert_pages_agree(&mut e, &task, true, true, "swap order over a written tail");

    // The whole row in that order is a plan of swaps alone, which each
    // view version runs once: every page twice, a swap and then a read
    // of the kept swap, over both versions.
    let sql = "SELECT package, date, customer, item, price FROM R1 \
               ORDER BY date, package, item, customer";
    assert_swapped_pages_agree_twice(&mut e, &before, sql);
    assert_swapped_pages_agree_twice(&mut e, &written, sql);
}

/// Whether `result`'s plan is swaps alone, and whether it read the swap
/// its view version kept instead of running it.
fn swaps_and_reuse(e: &FdbEngine, result: &FdbResult) -> (bool, bool) {
    let ops = &result.plan().ops;
    let swaps = !ops.is_empty() && ops.iter().all(|op| matches!(op, FOp::Swap { .. }));
    let reused = (result.explain(&e.catalog).lines())
        .any(|l| l == "restructured input: reused for this view version");
    (swaps, reused)
}

/// The pages of `sql` (the whole row of R1 in an order its f-tree does
/// not support) against `RdbEngine`'s, byte for byte, at every
/// `offset_sweep` offset with no `LIMIT` and `LIMIT 3`, under every
/// choice. Each page runs twice on `view` registered afresh: the first
/// run restructures, and the second reads the kept result exactly when
/// the plan is swaps alone.
fn assert_swapped_pages_agree_twice(e: &mut FdbEngine, view: &Arc<FRep>, sql: &str) {
    use fdb::relational::engine::{PlanMode, RdbEngine};
    use fdb::relational::GroupStrategy;
    let schemas = e.schemas();
    let base = fdb::parse(sql, &mut e.catalog, &schemas).unwrap().to_task();
    let mut rdb = RdbEngine::new(e.catalog.clone(), GroupStrategy::Sort);
    rdb.register("R1", view.flatten());
    let all = rdb.run(&base, PlanMode::Naive).unwrap();
    let mut reads = 0;
    for offset in offset_sweep(all.len()) {
        for limit in [None, Some(3)] {
            let mut task = base.clone();
            task.offset = offset;
            task.limit = limit;
            let expected = ops::page(&all, offset, limit);
            for choice in choices() {
                e.register_view_counted("R1", Arc::clone(view), all.len());
                for second in [false, true] {
                    let ctx = format!("`{sql}` {choice:?} OFFSET {offset} LIMIT {limit:?}");
                    let result = run(e, &task, choice).unwrap_or_else(|err| panic!("{ctx}: {err}"));
                    let page = result.to_relation().unwrap();
                    assert_eq!(page, expected, "{ctx}, run {}", 1 + second as u8);
                    let (swaps, reused) = swaps_and_reuse(e, &result);
                    assert_eq!(reused, swaps && second, "{ctx}, run {}", 1 + second as u8);
                    reads += reused as usize;
                }
            }
        }
    }
    assert!(reads > 0, "`{sql}`: no page read a kept swap");
}

/// Every order of R1's whole row over one view version: a run reads a
/// kept swap only of its own plan, the swaps kept for the version never
/// append more than the view's own bytes, though together the plans
/// append more, and a run whose swap is not kept pages as one that is.
#[test]
fn restructured_copies_of_a_view_stay_within_its_bytes() {
    use fdb::relational::engine::{PlanMode, RdbEngine};
    use fdb::relational::GroupStrategy;
    let (mut e, _) = orders_engine();
    let view = e.view_arc("R1").expect("R1 is registered");
    let budget = view.data_bytes();
    let mut rdb = RdbEngine::new(e.catalog.clone(), GroupStrategy::Sort);
    rdb.register("R1", view.flatten());
    let names = ["package", "date", "customer", "item", "price"];
    let (mut appended, mut plans) = (0, Vec::new());
    for n in 0..120 {
        // The `n`-th permutation of `names`, by the factorial digits of `n`.
        let (mut left, mut order, mut rest) = (n, Vec::new(), names.to_vec());
        for radix in (1..=names.len()).rev() {
            order.push(rest.remove(left % radix));
            left /= radix;
        }
        let sql = format!(
            "SELECT package, date, customer, item, price FROM R1 \
             ORDER BY {} LIMIT 5 OFFSET 7",
            order.join(", ")
        );
        let schemas = e.schemas();
        let task = fdb::parse(&sql, &mut e.catalog, &schemas)
            .unwrap()
            .to_task();
        let result = run(&mut e, &task, Some(OrderStrategy::StreamInTree)).unwrap();
        let (swaps, reused) = swaps_and_reuse(&e, &result);
        let ops = &result.plan().ops;
        assert!(
            !reused || plans.contains(ops),
            "`{sql}`: read another plan's swap"
        );
        if swaps && !reused {
            appended += result.exec_stats().intermediate_bytes;
        }
        if swaps && !plans.contains(ops) {
            plans.push(ops.clone());
        }
        let kept = e.view_restructured_bytes("R1").unwrap();
        assert!(kept <= budget, "`{sql}`: {kept} bytes kept, view {budget}");
        let expected = rdb.run(&task, PlanMode::Naive).unwrap();
        assert_eq!(result.to_relation().unwrap(), expected, "`{sql}`");
    }
    let n = plans.len();
    assert!(
        n > 10 && appended > 2 * budget,
        "{n} plans, {appended} bytes"
    );
    assert!(e.view_restructured_bytes("R1").unwrap() > 0);
}

#[test]
fn mixed_direction_pages_agree_at_every_offset() {
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.package, a.date]),
        order_by: vec![SortKey::desc(a.package), SortKey::asc(a.date)],
        ..Default::default()
    };
    assert_pages_agree(&mut e, &task, true, false, "mixed directions");
}

#[test]
fn aggregate_order_pages_agree_at_every_offset() {
    // ORDER BY the derived aggregate column: direct access is only
    // available via the consolidated grouped arena, and the (m+k)-heap
    // runs over the unrestructured group stream.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let revenue = e.catalog.intern("rev_page");
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        group_by: vec![a.customer],
        aggregates: vec![AggSpec::new(AggFunc::Sum(a.price), revenue)],
        order_by: vec![SortKey::desc(revenue), SortKey::asc(a.customer)],
        ..Default::default()
    };
    assert_pages_agree(&mut e, &task, true, false, "aggregate order");
    // Two aggregates consolidate into one composite node, sorted by its
    // whole `(s, n)` tuple: only its outputs in order and in one
    // direction, then the group key, stream from the tree (and seek past
    // an OFFSET); the other orders run on the flat candidate.
    let (s, n) = (e.catalog.intern("s_page"), e.catalog.intern("n_page"));
    let customer = a.customer;
    for (order_by, expect_direct, label) in [
        (
            vec![SortKey::asc(s), SortKey::asc(n), SortKey::asc(customer)],
            true,
            "composite s, n, customer",
        ),
        (
            vec![SortKey::asc(n), SortKey::asc(s), SortKey::asc(customer)],
            false,
            "composite n, s, customer",
        ),
        (
            vec![SortKey::desc(s), SortKey::asc(n), SortKey::asc(customer)],
            false,
            "composite s DESC, n ASC, customer",
        ),
        (
            vec![SortKey::asc(s), SortKey::asc(customer), SortKey::asc(n)],
            false,
            "composite s, customer, n",
        ),
    ] {
        let task = JoinAggTask {
            inputs: vec!["R1".into()],
            group_by: vec![customer],
            aggregates: vec![
                AggSpec::new(AggFunc::Sum(a.price), s),
                AggSpec::new(AggFunc::Count, n),
            ],
            order_by,
            ..Default::default()
        };
        assert_pages_agree(&mut e, &task, true, expect_direct, label);
    }
}

#[test]
fn duplicate_rows_at_the_offset_boundary_stay_byte_identical() {
    // Projecting away the discriminating column leaves duplicate sort
    // keys on *identical* rows straddling every page boundary — byte
    // identity must survive because tied rows are indistinguishable.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let task = JoinAggTask {
        inputs: vec!["R1".into()],
        projection: Some(vec![a.customer, a.package]),
        order_by: vec![SortKey::asc(a.customer), SortKey::asc(a.package)],
        ..Default::default()
    };
    assert_pages_agree(&mut e, &task, true, false, "duplicate rows");
}

#[test]
fn duplicate_sort_keys_over_distinct_rows_at_the_boundary() {
    // Revenue ties by construction (customers pair up with equal
    // totals), no tiebreaker key, and the offsets cut *inside* tie
    // pairs. Tie order within equal keys is per-strategy; the key
    // columns, containment, determinism and heap ≡ sort byte identity
    // are the contract.
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
    let revenue = e.catalog.intern("revenue");
    let base = JoinAggTask {
        inputs: vec!["Sales".into()],
        group_by: vec![customer],
        aggregates: vec![AggSpec::new(AggFunc::Sum(amount), revenue)],
        order_by: vec![SortKey::desc(revenue)], // ties, no tiebreaker
        ..Default::default()
    };
    // 12 groups in 6 tie pairs: every odd offset cuts inside a pair.
    assert_pages_agree(&mut e, &base, false, false, "tie boundary");
    // Determinism on the sharpest cut: offset and limit both end inside
    // tie pairs.
    let mut task = base.clone();
    task.offset = 3;
    task.limit = Some(2);
    for choice in choices() {
        let mut rerun = || run(&mut e, &task, choice).unwrap().to_relation().unwrap();
        assert_eq!(rerun(), rerun(), "tie boundary rerun: {choice:?}");
    }
}

#[test]
fn null_sort_keys_page_identically() {
    // NULLS LAST ascending, first descending — `Value::cmp` is the
    // single source of truth, so pages cut inside the NULL run agree
    // byte for byte across every strategy.
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
            ..Default::default()
        };
        assert_pages_agree(
            &mut e,
            &task,
            true,
            false,
            &format!("null keys {:?}", dir.dir),
        );
    }
}

#[test]
fn unordered_grouping_set_pages_straddle_set_boundaries() {
    // Without ORDER BY the sets stream in turn, so a page may start in
    // one set and end in the next. Over the flat `Orders` input both
    // engines list each set's groups in key order, so every page is
    // byte-identical to the relational engine's per-set expansion, and
    // the stream stops at the page's last row.
    use fdb::relational::engine::{PlanMode, RdbEngine};
    use fdb::relational::GroupStrategy;
    let (mut e, ds) = orders_engine();
    let mut rdb = RdbEngine::new(e.catalog.clone(), GroupStrategy::Sort);
    rdb.register("Orders", ds.orders.clone());
    for having in ["", " HAVING n > 1"] {
        let sql = format!(
            "SELECT customer, date, COUNT(*) AS n FROM Orders \
             GROUP BY ROLLUP (customer, date){having}"
        );
        let schemas = e.schemas();
        let base = fdb::parse(&sql, &mut e.catalog, &schemas)
            .unwrap()
            .to_task();
        rdb.catalog = e.catalog.clone();
        let all = rdb.run(&base, PlanMode::Naive).unwrap();
        assert_eq!(
            run(&mut e, &base, None).unwrap().to_relation().unwrap(),
            all
        );
        // The first row NULL in `date` ends the finest set; the last row
        // is the grand total.
        let finest = all.rows().position(|r| r[1] == Value::Null).unwrap();
        let total = all.len() - 1;
        for (offset, limit) in [
            (finest - 2, 5),
            (finest - 1, 1),
            (finest, 2),
            (total - 1, 4),
            (0, all.len() + 3),
        ] {
            let mut task = base.clone();
            task.offset = offset;
            task.limit = Some(limit);
            let ctx = format!("`{sql}` OFFSET {offset} LIMIT {limit}");
            let (page, stats) = run(&mut e, &task, None)
                .unwrap()
                .to_relation_counted()
                .unwrap();
            assert_eq!(page, rdb.run(&task, PlanMode::Naive).unwrap(), "{ctx}");
            assert_eq!(page, ops::page(&all, offset, Some(limit)), "{ctx}");
            if having.is_empty() {
                assert_eq!(
                    stats.rows_enumerated,
                    all.len().min(offset + limit),
                    "{ctx}"
                );
            }
        }
    }
}

/// The grouped pages of `sql` (a grouped query with an `ORDER BY` and no
/// `LIMIT`/`OFFSET`) against `RdbEngine`'s, byte for byte, over the
/// offsets of `offset_sweep`, the offsets on and next to the group
/// boundaries of the first order key, and one page past the end, with no
/// `LIMIT`, `LIMIT 3` and a `LIMIT` that spans several first-key values,
/// under every choice. When forced to stream, the group fold reads a
/// window ([`FdbResult::explain`]'s `page window:` line) exactly when
/// `windows` and the query is a page, and the stream then enumerates
/// only the window's rows up to the page's end.
fn assert_grouped_pages_agree(e: &mut FdbEngine, view: &FRep, sql: &str, windows: bool) {
    use fdb::relational::engine::{PlanMode, RdbEngine};
    use fdb::relational::GroupStrategy;
    let schemas = e.schemas();
    let base = fdb::parse(sql, &mut e.catalog, &schemas).unwrap().to_task();
    let mut rdb = RdbEngine::new(e.catalog.clone(), GroupStrategy::Sort);
    rdb.register("R1", view.flatten());
    let all = rdb.run(&base, PlanMode::Naive).unwrap();
    let first = all.schema().position(base.order_by[0].attr).unwrap();
    let boundaries: Vec<usize> = (1..all.len())
        .filter(|&i| all.row(i)[first] != all.row(i - 1)[first])
        .collect();
    assert!(boundaries.len() > 2, "`{sql}`: several first-key values");
    let mut offsets = offset_sweep(all.len());
    for &b in boundaries.iter().take(2).chain(boundaries.last()) {
        offsets.extend([b - 1, b, b + 1]);
    }
    offsets.push(all.len() + 3);
    offsets.sort_unstable();
    offsets.dedup();
    let wide = 2 * all.len() / boundaries.len() + 1;
    for offset in offsets {
        for limit in [None, Some(3), Some(wide)] {
            let mut task = base.clone();
            task.offset = offset;
            task.limit = limit;
            let expected = rdb.run(&task, PlanMode::Naive).unwrap();
            assert_eq!(expected, ops::page(&all, offset, limit));
            for choice in choices() {
                let ctx = format!("`{sql}` {choice:?} OFFSET {offset} LIMIT {limit:?}");
                let result = run(e, &task, choice).unwrap_or_else(|err| panic!("{ctx}: {err}"));
                let (page, stats) = result.to_relation_counted().unwrap();
                assert_eq!(
                    page, expected,
                    "{ctx}: page differs from the relational one"
                );
                if choice != Some(OrderStrategy::StreamInTree) {
                    continue;
                }
                assert_eq!(stats.strategy, OrderStrategy::StreamInTree, "{ctx}");
                let explain = result.explain(&e.catalog);
                let line = explain.lines().find(|l| l.starts_with("page window: "));
                // The whole result, unpaged, is no page.
                let paged = windows && (offset > 0 || limit.is_some());
                assert_eq!(line.is_some(), paged, "{ctx}:\n{explain}");
                if let Some(line) = line {
                    // `… N groups skipped`: the stream skips the rest of
                    // the offset in the window, then reads the page.
                    let words: Vec<&str> = line.split_whitespace().collect();
                    let skipped: usize = words[words.len() - 3].parse().unwrap();
                    let held = result.rep().tuple_count();
                    assert!(
                        skipped <= offset && skipped + held <= all.len(),
                        "{ctx}: {line}"
                    );
                    let read = (offset - skipped).saturating_add(limit.unwrap_or(usize::MAX));
                    assert_eq!(stats.rows_enumerated, held.min(read), "{ctx}: {line}");
                }
            }
        }
    }
}

#[test]
fn grouped_chain_order_pages_agree_at_every_offset() {
    let (mut e, _) = orders_engine();
    let view = FRep::clone(&e.view_arc("R1").expect("R1 is registered"));
    let q3 = "SELECT date, package, SUM(price) AS sum_price FROM R1";
    for sql in [
        format!("{q3} GROUP BY date, package ORDER BY package, date"),
        format!("{q3} WHERE customer <> 3 GROUP BY date, package ORDER BY package, date"),
    ] {
        assert_grouped_pages_agree(&mut e, &view, &sql, true);
    }
    // Orders the fold's chain is not taken in, and a HAVING that thins
    // the page, fold every group.
    for sql in [
        format!("{q3} GROUP BY date, package ORDER BY package DESC, date"),
        format!("{q3} GROUP BY date, package HAVING SUM(price) > 40 ORDER BY package, date"),
        format!("{q3} GROUP BY date, package ORDER BY date, package"),
    ] {
        assert_grouped_pages_agree(&mut e, &view, &sql, false);
    }
    // A three-level chain: on R1's own f-tree `package → date → customer`
    // ends in a leaf and keeps its `γ` plan, so R1 is stored as the path
    // `package → date → customer → item → price`, where it folds.
    let names = ["package", "date", "customer", "item", "price"];
    let path = names.map(|n| e.catalog.lookup(n).unwrap());
    let deep = FRep::from_relation(&view.flatten(), fdb::FTree::path(&path)).unwrap();
    e.register_view("R1", deep.clone());
    let sql = "SELECT package, date, customer, COUNT(*) AS n, MAX(price) AS top FROM R1 \
               GROUP BY package, date, customer ORDER BY package, date, customer";
    assert_grouped_pages_agree(&mut e, &deep, sql, true);
}

#[test]
fn grouped_chain_order_pages_over_a_written_tail_agree_at_every_offset() {
    // As in `swap_requiring_order_pages_agree_at_every_offset`: a written
    // version of R1 whose tail is kept (two fresh packages, one
    // deleted), while the version it was written from stays alive.
    let (mut e, ds) = orders_engine();
    let a = ds.attrs;
    let before = e.view_arc("R1").expect("R1 is registered");
    let mut written = FRep::clone(&before);
    let schema = written.schema();
    let top = (0..ds.packages.len())
        .map(|i| ds.packages.row(i)[0].as_int().unwrap())
        .max()
        .unwrap();
    let mut row = written.flatten().row(0).to_vec();
    for fresh in [top + 1, top + 7] {
        row[schema.position(a.package).unwrap()] = Value::Int(fresh);
        assert!(written.insert(&row).unwrap());
    }
    let gone = Predicate::AttrCmp(a.package, CmpOp::Eq, Value::Int(top / 2));
    assert!(written.delete_where(&[gone]).unwrap() > 0);
    assert!(written.tail_records() > 0 && written.shares_base_with(&before));
    e.register_view_arc("R1", Arc::new(written.clone()));
    let sql = "SELECT date, package, SUM(price) AS sum_price FROM R1 \
               GROUP BY date, package ORDER BY package, date";
    assert_grouped_pages_agree(&mut e, &written, sql, true);
}
