//! Property-based equivalence: the factorised engine must agree with the
//! relational baselines on randomly generated databases and queries: the
//! factorised run as planned, a derived run whose extra HAVING conjunct
//! makes the aggregate consolidate, sort/hash grouping and naive/eager
//! aggregation must all produce the same `Relation::canonical` on every
//! database × query (see `common::EnginePair::assert_all_agree`); the
//! plan executor is checked plan by plan, on random f-plans, in
//! `crates/core/tests/pipeline_fused.rs`.
//!
//! The query corpus covers joins of one to three relations, all five
//! aggregation functions, grouping by arbitrary subsets, WHERE ranges,
//! HAVING, and ordering; grouping sets are also held to the
//! sort-grouping engine's per-set expansion set by set
//! (`streamed_grouping_sets_match_rdb_row_for_row`).

mod common;

use common::EnginePair;
use fdb::relational::{Relation, Schema, Value};
use fdb::Catalog;
use proptest::prelude::*;

/// Builds the chain-join database R(a,b), S(b,c), T(c,d).
fn chain_db(r_rows: &[(i64, i64)], s_rows: &[(i64, i64)], t_rows: &[(i64, i64)]) -> EnginePair {
    let mut catalog = Catalog::new();
    let a = catalog.intern("a");
    let b = catalog.intern("b");
    let c = catalog.intern("c");
    let d = catalog.intern("d");
    let rel = |x, y, rows: &[(i64, i64)]| {
        Relation::from_rows(
            Schema::new(vec![x, y]),
            rows.iter()
                .map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
        )
        .canonical()
    };
    let mut pair = EnginePair::new(catalog);
    pair.register("R", rel(a, b, r_rows));
    pair.register("S", rel(b, c, s_rows));
    pair.register("T", rel(c, d, t_rows));
    pair
}

/// The query corpus, parameterised by a selector. Each query is valid for
/// the chain schema above.
fn corpus() -> Vec<&'static str> {
    vec![
        // SPJ.
        "SELECT a, b FROM R",
        "SELECT b FROM R, S GROUP BY b",
        "SELECT a, c FROM R, S ORDER BY c DESC, a",
        "SELECT a, d FROM R, S, T",
        "SELECT a FROM R WHERE b >= 2 GROUP BY a",
        // Single-relation aggregates.
        "SELECT SUM(b) AS s FROM R",
        "SELECT a, COUNT(*) AS n FROM R GROUP BY a",
        "SELECT a, MIN(b) AS lo, MAX(b) AS hi FROM R GROUP BY a",
        "SELECT a, AVG(b) AS m FROM R GROUP BY a",
        // Two-way joins.
        "SELECT SUM(c) AS s FROM R, S",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a",
        "SELECT b, COUNT(*) AS n FROM R, S GROUP BY b",
        "SELECT a, b, SUM(c) AS s FROM R, S GROUP BY a, b",
        "SELECT c, MIN(a) AS lo FROM R, S GROUP BY c",
        // Three-way joins.
        "SELECT SUM(d) AS s FROM R, S, T",
        "SELECT COUNT(*) AS n FROM R, S, T",
        "SELECT a, SUM(d) AS s FROM R, S, T GROUP BY a",
        "SELECT b, c, SUM(d) AS s FROM R, S, T GROUP BY b, c",
        // Consolidation gathers two value subtrees under one parent.
        "SELECT a, c, SUM(d) AS s FROM R, S, T GROUP BY a, c",
        "SELECT a, d, COUNT(*) AS n FROM R, S, T GROUP BY a, d",
        // Group sets on one root path, folded in one pass: in path order,
        // and ordered against it.
        "SELECT a, b, SUM(d) AS s FROM R, S, T GROUP BY a, b",
        "SELECT a, c, COUNT(*) AS n, MIN(d) AS lo FROM R, S, T GROUP BY a, c ORDER BY a, c",
        "SELECT a, AVG(d) AS m FROM R, S, T GROUP BY a",
        "SELECT c, MAX(a) AS hi FROM R, S, T GROUP BY c",
        // Aggregating a join attribute.
        "SELECT a, SUM(b) AS s FROM R, S GROUP BY a",
        "SELECT SUM(c) AS s FROM S, T",
        // WHERE + HAVING + ORDER BY combinations.
        "SELECT a, SUM(c) AS s FROM R, S WHERE b <> 1 GROUP BY a",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a HAVING s >= 3",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a ORDER BY s DESC, a",
        "SELECT a, COUNT(*) AS n FROM R, S, T WHERE d < 4 GROUP BY a \
         HAVING n > 1 ORDER BY n, a DESC",
        "SELECT b, AVG(d) AS m FROM S, T GROUP BY b ORDER BY b",
        // New aggregate surface (distinct/product/boolean/top-k).
        "SELECT COUNT(DISTINCT b) AS u FROM R",
        "SELECT a, COUNT(DISTINCT c) AS u FROM R, S GROUP BY a",
        "SELECT PRODUCT(b) AS p FROM R",
        "SELECT a, PRODUCT(c) AS p FROM R, S GROUP BY a",
        "SELECT a, EXISTS(c > 2) AS e, FORALL(c <= 4) AS f FROM R, S GROUP BY a",
        "SELECT c, EXISTS(a = 0) AS e FROM R, S, T GROUP BY c ORDER BY c DESC",
        "SELECT b, TOP_K(d, 3) AS t FROM S, T GROUP BY b",
        "SELECT a, TOP_K(c, 2) AS t FROM R, S GROUP BY a ORDER BY a",
        "SELECT a, COUNT(DISTINCT d) AS u FROM R, S, T GROUP BY a HAVING u >= 1",
        // Top-k lists composed through γ under the root attribute; a
        // distinct count whose group attribute is swapped above the
        // providing spine; functions of a group attribute itself.
        "SELECT b, TOP_K(d, 2) AS t FROM R, S, T GROUP BY b",
        "SELECT c, COUNT(DISTINCT a) AS u FROM R, S GROUP BY c",
        "SELECT b, COUNT(DISTINCT b) AS u, TOP_K(b, 3) AS t, SUM(b) AS s FROM R, S GROUP BY b",
        // OFFSET pagination (PG semantics: with or without LIMIT, either
        // clause order). ORDER BY keys cover every output column, so
        // rows tied on the keys are identical and the page is a
        // deterministic multiset for every strategy.
        "SELECT a, b FROM R ORDER BY a, b LIMIT 3 OFFSET 2",
        "SELECT a, c FROM R, S ORDER BY c DESC, a OFFSET 4",
        "SELECT a, d FROM R, S, T ORDER BY a, d DESC OFFSET 1 LIMIT 5",
        "SELECT a, SUM(c) AS s FROM R, S GROUP BY a ORDER BY s DESC, a LIMIT 2 OFFSET 2",
        "SELECT b, COUNT(*) AS n FROM R, S GROUP BY b ORDER BY n DESC, b OFFSET 1",
        "SELECT a, AVG(d) AS m FROM R, S, T GROUP BY a ORDER BY a LIMIT 2 OFFSET 100",
        // Orders on a composite aggregate node, which sorts by its whole
        // `(s, n)` tuple: its outputs in order, then the group key, can
        // stream from the tree; `n, s` cannot.
        "SELECT a, SUM(c) AS s, COUNT(*) AS n FROM R, S GROUP BY a \
         ORDER BY s, n, a LIMIT 2 OFFSET 1",
        "SELECT a, SUM(c) AS s, COUNT(*) AS n FROM R, S GROUP BY a \
         ORDER BY n, s, a LIMIT 2 OFFSET 1",
        // Grouping sets: ROLLUP / CUBE / explicit list. ORDER BY only
        // where the keys totally order the result (group columns; data
        // Ints never collide with the padding Nulls).
        "SELECT a, b, COUNT(*) AS n FROM R GROUP BY ROLLUP (a, b) ORDER BY a, b",
        "SELECT a, c, SUM(d) AS s FROM R, S, T GROUP BY CUBE (a, c)",
        "SELECT a, b, SUM(c) AS s FROM R, S GROUP BY GROUPING SETS ((a, b), (b), ())",
    ]
}

/// The rows of one relation of the chain database.
fn chain_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..5, 0i64..5), 0..18)
}

/// Four statements of the corpus, drawn over all of it.
fn corpus_picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..corpus().len(), 4)
}

/// The property of `engines_agree_on_random_databases`: the picked
/// statements agree on the chain database of `r`, `s` and `t`.
fn engines_agree(r: &[(i64, i64)], s: &[(i64, i64)], t: &[(i64, i64)], picks: &[usize]) {
    let queries = corpus();
    let mut pair = chain_db(r, s, t);
    for &pick in picks {
        pair.assert_all_agree(queries[pick]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn engines_agree_on_random_databases(
        r in chain_rows(),
        s in chain_rows(),
        t in chain_rows(),
        picks in corpus_picks(),
    ) {
        engines_agree(&r, &s, &t, &picks);
    }

    #[test]
    fn factorise_flatten_round_trip(
        rows in prop::collection::vec((0i64..8, 0i64..8, 0i64..8), 0..30),
    ) {
        let mut catalog = Catalog::new();
        let x = catalog.intern("x");
        let y = catalog.intern("y");
        let z = catalog.intern("z");
        let rel = Relation::from_rows(
            Schema::new(vec![x, y, z]),
            rows.iter().map(|&(u, v, w)| {
                vec![Value::Int(u), Value::Int(v), Value::Int(w)]
            }),
        ).canonical();
        let rep = fdb::core::frep::FRep::from_relation(
            &rel,
            fdb::core::FTree::path(&[x, y, z]),
        ).unwrap();
        prop_assert!(rep.check_invariants().is_ok());
        prop_assert_eq!(rep.flatten().canonical(), rel.clone());
        prop_assert_eq!(rep.tuple_count(), rel.len());
        // The trie never exceeds the flat singleton count.
        prop_assert!(rep.singleton_count() <= rel.len() * 3);
    }

    #[test]
    fn ordered_enumeration_is_sorted_on_random_data(
        rows in prop::collection::vec((0i64..6, 0i64..6, 0i64..6), 1..25),
        desc_mask in 0u8..8,
    ) {
        use fdb::relational::{SortDir, SortKey};
        let mut catalog = Catalog::new();
        let x = catalog.intern("x");
        let y = catalog.intern("y");
        let z = catalog.intern("z");
        let rel = Relation::from_rows(
            Schema::new(vec![x, y, z]),
            rows.iter().map(|&(u, v, w)| {
                vec![Value::Int(u), Value::Int(v), Value::Int(w)]
            }),
        ).canonical();
        let rep = fdb::core::frep::FRep::from_relation(
            &rel,
            fdb::core::FTree::path(&[x, y, z]),
        ).unwrap();
        let dir = |bit: u8| if desc_mask & bit != 0 { SortDir::Desc } else { SortDir::Asc };
        let keys = vec![
            SortKey { attr: x, dir: dir(1) },
            SortKey { attr: y, dir: dir(2) },
            SortKey { attr: z, dir: dir(4) },
        ];
        let spec = fdb::core::enumerate::EnumSpec::ordered(rep.ftree(), &keys).unwrap();
        let it = fdb::core::enumerate::TupleIter::new(&rep, &spec).unwrap();
        let out = it.projected(&[x, y, z], None).unwrap();
        prop_assert_eq!(out.len(), rel.len());
        prop_assert!(out.is_sorted_by(&keys));
    }

    #[test]
    fn swap_preserves_data_on_random_relations(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 1..25),
    ) {
        let mut catalog = Catalog::new();
        let x = catalog.intern("x");
        let y = catalog.intern("y");
        let z = catalog.intern("z");
        let rel = Relation::from_rows(
            Schema::new(vec![x, y, z]),
            rows.iter().map(|&(u, v, w)| {
                vec![Value::Int(u), Value::Int(v), Value::Int(w)]
            }),
        ).canonical();
        let rep = fdb::core::frep::FRep::from_relation(
            &rel,
            fdb::core::FTree::path(&[x, y, z]),
        ).unwrap();
        // Swap y above x, then z above y: every step preserves ⟦E⟧.
        let nx = rep.ftree().node_of_attr(x).unwrap();
        let ny = rep.ftree().node_of_attr(y).unwrap();
        let swapped = fdb::core::ops::swap(rep, nx, ny).unwrap();
        prop_assert!(swapped.check_invariants().is_ok());
        prop_assert_eq!(
            swapped.flatten().project_cols(&[x, y, z]).canonical(),
            rel.clone()
        );
        let nz = swapped.ftree().node_of_attr(z).unwrap();
        let parent = swapped.ftree().node(nz).parent.unwrap();
        let swapped2 = fdb::core::ops::swap(swapped, parent, nz).unwrap();
        prop_assert!(swapped2.check_invariants().is_ok());
        prop_assert_eq!(
            swapped2.flatten().project_cols(&[x, y, z]).canonical(),
            rel
        );
    }

    #[test]
    fn size_bound_is_sound(
        rows in prop::collection::vec((0i64..6, 0i64..6), 1..30),
    ) {
        use fdb::core::optim::{tree_cost, Stats};
        let mut catalog = Catalog::new();
        let x = catalog.intern("x");
        let y = catalog.intern("y");
        let rel = Relation::from_rows(
            Schema::new(vec![x, y]),
            rows.iter().map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
        ).canonical();
        let tree = fdb::core::FTree::path(&[x, y]);
        let rep = fdb::core::frep::FRep::from_relation(&rel, tree.clone()).unwrap();
        let mut stats = Stats::new();
        stats.add_relation([x, y], rel.len());
        prop_assert!(
            tree_cost(&tree, &stats) + 1e-6 >= rep.singleton_count() as f64,
            "bound {} < actual {}",
            tree_cost(&tree, &stats),
            rep.singleton_count()
        );
    }
}

#[test]
fn empty_database_everywhere() {
    let mut pair = chain_db(&[], &[], &[]);
    for sql in corpus() {
        let out = pair.assert_all_agree(sql);
        assert!(out.is_empty(), "`{sql}` on empty inputs");
    }
}

#[test]
fn single_tuple_database() {
    let mut pair = chain_db(&[(1, 1)], &[(1, 1)], &[(1, 1)]);
    for sql in corpus() {
        pair.assert_all_agree(sql);
    }
}

#[test]
fn skewed_database_one_hot_key() {
    // One b-value joins everything: stresses the swap regrouping and the
    // count multiplication paths.
    let r: Vec<(i64, i64)> = (0..10).map(|i| (i, 0)).collect();
    let s: Vec<(i64, i64)> = (0..10).map(|j| (0, j)).collect();
    let t: Vec<(i64, i64)> = (0..4).map(|k| (k, k)).collect();
    let mut pair = chain_db(&r, &s, &t);
    for sql in corpus() {
        pair.assert_all_agree(sql);
    }
}

#[test]
fn thread_sweep_on_larger_skewed_database() {
    // A bigger, heavily skewed database run directly against the engine
    // (not only through `assert_all_agree`): every corpus query must match
    // the relational engine as a set, and a second run must repeat the
    // first exactly, including the order of ordered results.
    use fdb::core::engine::RunOptions;
    use fdb::relational::engine::PlanMode;
    let r: Vec<(i64, i64)> = (0..120).map(|i| (i % 13, i % 4)).collect();
    let s: Vec<(i64, i64)> = (0..150).map(|j| (j % 4, j % 17)).collect();
    let t: Vec<(i64, i64)> = (0..80).map(|k| (k % 17, k % 9)).collect();
    let mut pair = chain_db(&r, &s, &t);
    for sql in corpus() {
        let schemas = pair.fdb.schemas();
        let query = fdb::parse(sql, &mut pair.fdb.catalog, &schemas).unwrap();
        pair.rdb_sort.catalog = pair.fdb.catalog.clone();
        let task = query.to_task();
        let mut run = || {
            pair.fdb
                .run(&task, RunOptions::default())
                .unwrap()
                .to_relation()
                .unwrap()
        };
        let first = run();
        assert_eq!(run(), first, "`{sql}` second run");
        let want = pair.rdb_sort.run(&task, PlanMode::Naive).unwrap();
        assert_eq!(first.canonical(), want.canonical(), "`{sql}` vs rdb");
    }
}

#[test]
fn dangling_tuples_database() {
    // Join keys that never match: plenty of pruning.
    let r = vec![(1, 1), (2, 2), (3, 9)];
    let s = vec![(1, 5), (2, 5), (7, 5)];
    let t = vec![(5, 0), (6, 1)];
    let mut pair = chain_db(&r, &s, &t);
    for sql in corpus() {
        pair.assert_all_agree(sql);
    }
}

/// Grouping-set statements whose sets the emitter streams in turn, each
/// with the order keys that totally order its rows: a HAVING that
/// empties the middle set, a set listed twice, and `AVG`,
/// `COUNT(DISTINCT)` and `TOP_K` under `CUBE`.
const STREAMED_SETS: [(&str, &str); 4] = [
    // The middle set `(b)` has `a` NULL, which sorts after every Int.
    (
        "SELECT a, b, COUNT(*) AS n FROM R \
         GROUP BY GROUPING SETS ((a, b), (b), (a)) HAVING a < 100",
        "a, b",
    ),
    (
        "SELECT a, SUM(b) AS s, COUNT(*) AS n FROM R GROUP BY GROUPING SETS ((a), (a))",
        "a",
    ),
    (
        "SELECT a, c, AVG(d) AS m, COUNT(DISTINCT d) AS u, TOP_K(d, 2) AS t \
         FROM R, S, T GROUP BY CUBE (a, c)",
        "a, c DESC",
    ),
    (
        "SELECT b, a, MIN(c) AS lo FROM R, S GROUP BY ROLLUP (b, a) HAVING lo >= 1",
        "b DESC, a",
    ),
];

/// `rel`'s rows with each run of rows NULL in the same columns (one
/// grouping set's block, in output order) sorted: what the order within
/// a set cannot change.
fn set_blocks(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
    let mask = |row: &[Value]| -> Vec<bool> { row.iter().map(|v| *v == Value::Null).collect() };
    let mut start = 0;
    while start < rows.len() {
        let m = mask(&rows[start]);
        let end = (start..rows.len())
            .find(|&i| mask(&rows[i]) != m)
            .unwrap_or(rows.len());
        rows[start..end].sort();
        start = end;
    }
    rows
}

/// Each statement of [`STREAMED_SETS`] agrees with the relational
/// engines as a set of rows, and with the sort-grouping engine's
/// per-set expansion: ordered row for row, and unordered set block for
/// set block.
fn assert_sets_stream_like_rdb(pair: &mut EnginePair) {
    use fdb::relational::engine::PlanMode;
    for (sql, keys) in STREAMED_SETS {
        let ordered = format!("{sql} ORDER BY {keys}");
        for (sql, ordered) in [(sql, false), (ordered.as_str(), true)] {
            pair.assert_all_agree(sql);
            let got = pair.run_fdb(sql);
            let schemas = pair.fdb.schemas();
            let task = fdb::parse(sql, &mut pair.fdb.catalog, &schemas)
                .unwrap()
                .to_task();
            pair.rdb_sort.catalog = pair.fdb.catalog.clone();
            let want = pair.rdb_sort.run(&task, PlanMode::Naive).unwrap();
            if ordered {
                assert_eq!(got, want, "`{sql}`");
            } else {
                assert_eq!(set_blocks(&got), set_blocks(&want), "`{sql}`");
            }
        }
    }
}

#[test]
fn streamed_grouping_sets_match_rdb_row_for_row() {
    let r: Vec<(i64, i64)> = (0..30).map(|i| (i % 5, (i * 7) % 4)).collect();
    let s: Vec<(i64, i64)> = (0..12).map(|j| (j % 4, (j * 3) % 5)).collect();
    let t: Vec<(i64, i64)> = (0..15).map(|k| (k % 5, (k * 2) % 7)).collect();
    assert_sets_stream_like_rdb(&mut chain_db(&r, &s, &t));
    assert_sets_stream_like_rdb(&mut chain_db(&[(1, 1)], &[(1, 1)], &[(1, 1)]));
    assert_sets_stream_like_rdb(&mut chain_db(&[], &[], &[]));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3_000,
        ..ProptestConfig::default()
    })]

    #[test]
    #[ignore = "long budget; CI runs it in release with --ignored"]
    fn engines_agree_on_random_databases_long(
        r in chain_rows(),
        s in chain_rows(),
        t in chain_rows(),
        picks in corpus_picks(),
    ) {
        engines_agree(&r, &s, &t, &picks);
    }
}
