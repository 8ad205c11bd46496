//! Integration tests: a live `fdb-server` against real sockets —
//! protocol conformance, 16-way concurrent byte-identity with the
//! library execution, LOAD/epoch behaviour, deadlines, plan-cache
//! hits and clean shutdown.

use fdb::workload::orders::{generate, OrdersConfig};
use fdb::{Catalog, Db, FdbEngine, Relation, Schema, Value};
use fdb_server::proto::{render_outcome, split_fields};
use fdb_server::{spawn, Client, ServerOptions};
use std::time::Duration;

/// The pizzeria database behind a [`Db`].
fn pizzeria_db() -> Db {
    let mut catalog = Catalog::new();
    let data = fdb::workload::pizzeria::pizzeria(&mut catalog);
    let mut engine = FdbEngine::new(catalog);
    engine.register_relation("Orders", data.orders);
    engine.register_relation("Pizzas", data.pizzas);
    engine.register_relation("Items", data.items);
    Db::from_engine(engine)
}

/// The paper's Orders/Packages/Items database behind a [`Db`].
fn orders_db() -> Db {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 15,
            seed: 7,
        },
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_relation("Orders", ds.orders);
    engine.register_relation("Packages", ds.packages);
    engine.register_relation("Items", ds.items);
    Db::from_engine(engine)
}

fn stat(payload: &[String], key: &str) -> String {
    payload
        .iter()
        .map(|l| split_fields(l).unwrap())
        .find(|f| f[0] == key)
        .unwrap_or_else(|| panic!("no `{key}` in STATS"))[1]
        .clone()
}

#[test]
fn protocol_basics() {
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    assert_eq!(c.request("PING").unwrap().unwrap(), Vec::<String>::new());

    let rows = c
        .query("SELECT SUM(price) AS total FROM Orders, Pizzas, Items")
        .unwrap()
        .unwrap();
    assert_eq!(rows, vec!["total".to_string(), "40".to_string()]);

    let explain = c
        .request("EXPLAIN SELECT SUM(price) AS total FROM Orders, Pizzas, Items")
        .unwrap()
        .unwrap();
    assert!(explain.iter().any(|l| l.contains("f-plan")), "{explain:?}");

    // Errors keep the connection usable.
    let err = c.request("FROBNICATE now").unwrap().unwrap_err();
    assert!(err.contains("unknown verb"), "{err}");
    let err = c.query("SELECT nothing FROM Nowhere").unwrap().unwrap_err();
    assert!(!err.is_empty());
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "relations"), "Items,Orders,Pizzas");
    assert_eq!(stat(&stats, "errors"), "2");

    c.quit().unwrap();
    server.shutdown();
}

/// The acceptance bar: 16 concurrent connections, interleaved queries,
/// every response byte-identical to the single-threaded library run.
#[test]
fn sixteen_connections_byte_identical_to_library() {
    let db = orders_db();
    let queries = [
        "SELECT customer, SUM(price) AS revenue FROM Orders, Packages, Items \
         GROUP BY customer ORDER BY revenue DESC, customer LIMIT 10",
        "SELECT COUNT(*) AS n FROM Orders, Packages, Items",
        "SELECT package, COUNT(*) AS items FROM Packages GROUP BY package ORDER BY package",
        "SELECT customer, date, SUM(price) AS spent FROM Orders, Packages, Items \
         GROUP BY customer, date ORDER BY customer, date",
    ];
    // Single-threaded library ground truth, rendered exactly as the
    // server renders (header + escaped TAB-joined rows).
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|sql| {
            let mut session = db.session();
            let outcome = session.query(sql).unwrap();
            render_outcome(&outcome)
        })
        .collect();

    // No deadline: 16 concurrent debug-build executions on a loaded CI
    // box can exceed any fixed budget, and this test pins identity,
    // not latency.
    let opts = ServerOptions::new().workers(16).deadline(None);
    let mut server = spawn(db, "127.0.0.1:0", opts).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for t in 0..16 {
            let expected = &expected;
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // Interleave: each connection walks the query list
                // several times, starting at a different offset.
                for i in 0..8 {
                    let q = (t + i) % queries.len();
                    let got = c.query(queries[q]).unwrap().unwrap();
                    assert_eq!(got, expected[q], "conn {t}, query {q}");
                }
                c.quit().unwrap();
            });
        }
    });

    // All 16 connections were truly concurrent (held open together).
    let mut c = Client::connect(addr).unwrap();
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "queries"), format!("{}", 16 * 8));
    server.shutdown();
}

#[test]
fn load_registers_a_view_and_bumps_the_epoch() {
    // Persist a factorised view to a temp file.
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 10,
            seed: 21,
        },
    );
    let mut producer = FdbEngine::new(catalog);
    producer.register_view("R1", ds.factorised_view());
    let dir = std::env::temp_dir().join("fdb_server_load_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r1.fdbv1");
    {
        let file = std::fs::File::create(&path).unwrap();
        producer
            .save_view("R1", std::io::BufWriter::new(file))
            .unwrap();
    }

    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let before: u64 = stat(&c.request("STATS").unwrap().unwrap(), "epoch")
        .parse()
        .unwrap();
    c.request(&format!("LOAD OrdersView {}", path.display()))
        .unwrap()
        .unwrap();
    let stats = c.request("STATS").unwrap().unwrap();
    let after: u64 = stat(&stats, "epoch").parse().unwrap();
    assert!(after > before, "LOAD must bump the epoch");
    assert_eq!(stat(&stats, "views"), "OrdersView");

    // The loaded view is queryable on the same connection.
    let rows = c
        .query("SELECT COUNT(*) AS n FROM OrdersView")
        .unwrap()
        .unwrap();
    assert_eq!(rows[0], "n");
    assert!(rows[1].parse::<i64>().unwrap() > 0);

    // Loading from a missing path reports, doesn't wedge.
    let err = c
        .request("LOAD Broken /nonexistent/path.fdbv1")
        .unwrap()
        .unwrap_err();
    assert!(err.contains("cannot open"), "{err}");

    c.quit().unwrap();
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_deadline_reports_deadline_exceeded() {
    let opts = ServerOptions::new().deadline(Some(Duration::ZERO));
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let err = c
        .query("SELECT SUM(price) AS total FROM Orders, Pizzas, Items")
        .unwrap()
        .unwrap_err();
    assert!(err.contains("deadline exceeded"), "{err}");
    // The worker survives; the connection still answers.
    assert!(c.request("PING").unwrap().is_ok());
    c.quit().unwrap();
    server.shutdown();
}

/// A result far too large to hold — the product of four 30 000-row
/// relations — streams until the deadline and answers `ERR`; it must not
/// size its output from the row count and take the worker down with it.
#[test]
fn a_huge_cross_product_reports_deadline_exceeded() {
    let mut catalog = Catalog::new();
    let attrs = catalog.intern_all(["a", "b", "c", "d"]);
    let mut engine = FdbEngine::new(catalog);
    for (name, &attr) in ["R", "S", "T", "U"].into_iter().zip(&attrs) {
        let rows = (0..30_000i64).map(|i| vec![Value::Int(i)]);
        engine.register_relation(name, Relation::from_rows(Schema::new(vec![attr]), rows));
    }
    let opts = ServerOptions::new()
        .workers(1)
        .deadline(Some(Duration::from_millis(200)));
    let mut server = spawn(Db::from_engine(engine), "127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for sql in [
        "SELECT a, b, c, d FROM R, S, T, U",
        "SELECT a, b, c, d FROM R, S, T, U ORDER BY d, a",
    ] {
        let err = c.query(sql).unwrap().unwrap_err();
        assert!(err.contains("deadline exceeded"), "{sql}: {err}");
    }
    // The one worker survived both.
    assert!(c.request("PING").unwrap().is_ok());
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn plan_cache_serves_repeats_identically() {
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let sql = "SELECT customer, SUM(price) AS spent FROM Orders, Pizzas, Items \
               GROUP BY customer ORDER BY spent DESC";
    let first = c.query(sql).unwrap().unwrap();
    // Same query, different whitespace: normalisation must hit.
    let second = c
        .query(
            "SELECT customer,  SUM(price) AS spent FROM Orders, Pizzas, Items \
                GROUP BY customer    ORDER BY spent DESC;",
        )
        .unwrap()
        .unwrap();
    assert_eq!(first, second);
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "1");
    assert_eq!(stat(&stats, "cache_misses"), "1");
    c.quit().unwrap();
    server.shutdown();
}

/// Regression: a worker keeps its session for a whole epoch, and every
/// query used to intern its output names into it for good — after an
/// eviction the same unaliased SQL came back headed `sum(price)_2`.
#[test]
fn evicted_query_reruns_with_the_same_header() {
    let opts = ServerOptions::new().workers(1).cache_capacity(1);
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let sql = "SELECT customer, SUM(price) FROM Orders, Pizzas, Items GROUP BY customer";
    let first = c.query(sql).unwrap().unwrap();
    assert_eq!(first[0], "customer\tsum(price)");
    // A different query evicts the first from the one-entry cache.
    c.query("SELECT SUM(price) FROM Items").unwrap().unwrap();
    let again = c.query(sql).unwrap().unwrap();
    assert_eq!(again, first);
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "0");
    assert_eq!(stat(&stats, "cache_misses"), "3");
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn stats_reports_per_strategy_query_counts() {
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // Unordered: plain aggregate, no ORDER BY.
    c.query("SELECT SUM(price) AS total FROM Orders, Pizzas, Items")
        .unwrap()
        .unwrap();
    // Streamed: ORDER BY on a group attribute, realised in-tree.
    c.query(
        "SELECT customer, SUM(price) AS spent FROM Orders, Pizzas, Items \
         GROUP BY customer ORDER BY customer",
    )
    .unwrap()
    .unwrap();
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "strategy_unordered"), "1");
    assert_eq!(stat(&stats, "strategy_stream"), "1");
    assert_eq!(stat(&stats, "strategy_direct"), "0");
    // A cached repeat must NOT bump the executed-strategy counters.
    c.query("SELECT SUM(price) AS total FROM Orders, Pizzas, Items")
        .unwrap()
        .unwrap();
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "strategy_unordered"), "1");
    assert_eq!(stat(&stats, "cache_hits"), "1");
    // Total executed queries = sum of the per-strategy counters + hits.
    let executed: u64 = [
        "strategy_unordered",
        "strategy_stream",
        "strategy_direct",
        "strategy_heap",
        "strategy_sort",
    ]
    .iter()
    .map(|k| stat(&stats, k).parse::<u64>().unwrap())
    .sum();
    let hits: u64 = stat(&stats, "cache_hits").parse().unwrap();
    let queries: u64 = stat(&stats, "queries").parse().unwrap();
    assert_eq!(executed + hits, queries);
    c.quit().unwrap();
    server.shutdown();
}

/// Regression: the cache key must not collapse whitespace inside string
/// literals. Before the fix, `normalise_sql` keyed `'a b'` and `'a  b'`
/// identically, so the second query was served the first query's cached
/// response — wrong rows, straight off the socket.
#[test]
fn cache_keeps_literals_with_different_whitespace_distinct() {
    let mut catalog = Catalog::new();
    let name = catalog.intern("name");
    let qty = catalog.intern("qty");
    let rel = Relation::from_rows(
        Schema::new(vec![name, qty]),
        [("a b", 1i64), ("a  b", 2)]
            .into_iter()
            .map(|(n, q)| vec![Value::str(n), Value::Int(q)]),
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_relation("T", rel);
    let mut server = spawn(Db::from_engine(engine), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let one = c
        .query("SELECT SUM(qty) AS s FROM T WHERE name = 'a b'")
        .unwrap()
        .unwrap();
    assert_eq!(one, vec!["s".to_string(), "1".to_string()]);
    // Differs only in the literal's internal whitespace — a distinct
    // query with a distinct answer, not a cache hit on the one above.
    let two = c
        .query("SELECT SUM(qty) AS s FROM T WHERE name = 'a  b'")
        .unwrap()
        .unwrap();
    assert_eq!(two, vec!["s".to_string(), "2".to_string()]);

    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "0");
    assert_eq!(stat(&stats, "cache_misses"), "2");
    // Layout whitespace *outside* literals still normalises to a hit.
    let again = c
        .query("SELECT  SUM(qty)  AS s FROM T WHERE name = 'a  b' ;")
        .unwrap()
        .unwrap();
    assert_eq!(again, two);
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "1");
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_is_clean_with_idle_connections() {
    let mut server = spawn(
        pizzeria_db(),
        "127.0.0.1:0",
        ServerOptions::new().workers(2),
    )
    .unwrap();
    let addr = server.addr();
    // Hold two idle connections open — shutdown must not hang on them.
    let idle1 = Client::connect(addr).unwrap();
    let idle2 = Client::connect(addr).unwrap();
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown blocked on idle connections"
    );
    drop((idle1, idle2));
    // The listener is gone: a fresh connection now fails or yields EOF.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.request("PING").is_err(), "server accepted after shutdown");
        }
    }
}

#[test]
fn auto_worker_count_tracks_available_parallelism() {
    let mut server = spawn(
        pizzeria_db(),
        "127.0.0.1:0",
        ServerOptions::new().workers(0),
    )
    .unwrap();
    assert_eq!(server.workers(), fdb_server::auto_workers());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The old rule floored auto at DEFAULT_WORKERS (16) regardless of
    // hardware; the floor must now track the machine: at most 2× the
    // available parallelism, and never starving bigger machines.
    assert!(
        server.workers() <= 2 * cores,
        "auto pool ({}) oversubscribes {cores} core(s)",
        server.workers()
    );
    assert!(server.workers() >= cores.min(fdb_server::DEFAULT_WORKERS));
    // A PING round-trips on the auto-sized pool.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap().unwrap(), Vec::<String>::new());
    c.quit().unwrap();
    server.shutdown();

    // Explicit counts are taken literally, no floor applied.
    let mut server = spawn(
        pizzeria_db(),
        "127.0.0.1:0",
        ServerOptions::new().workers(3),
    )
    .unwrap();
    assert_eq!(server.workers(), 3);
    server.shutdown();
}

/// INSERT/DELETE verbs write through the facade: the payload reports the
/// affected counts, the epoch bumps, and subsequent queries on the SAME
/// connection see the new data.
#[test]
fn insert_and_delete_verbs_write_through() {
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let before = c.query("SELECT COUNT(*) AS n FROM Items").unwrap().unwrap();
    assert_eq!(before, vec!["n".to_string(), "4".to_string()]);
    let epoch0: u64 = stat(&c.request("STATS").unwrap().unwrap(), "epoch")
        .parse()
        .unwrap();

    let report = c
        .request("INSERT INTO Items VALUES ('olives', 2)")
        .unwrap()
        .unwrap();
    assert_eq!(stat(&report, "inserted"), "1");
    assert_eq!(stat(&report, "deleted"), "0");

    let stats = c.request("STATS").unwrap().unwrap();
    let epoch1: u64 = stat(&stats, "epoch").parse().unwrap();
    assert!(epoch1 > epoch0, "a write must bump the epoch");
    assert_eq!(stat(&stats, "writes"), "1");

    let after = c.query("SELECT COUNT(*) AS n FROM Items").unwrap().unwrap();
    assert_eq!(after, vec!["n".to_string(), "5".to_string()]);

    // Re-inserting the same tuple is a set-semantics no-op: zero rows
    // affected, and — crucially — NO epoch bump, so cached responses
    // stay valid.
    let report = c
        .request("INSERT INTO Items VALUES ('olives', 2)")
        .unwrap()
        .unwrap();
    assert_eq!(stat(&report, "inserted"), "0");
    let unchanged: u64 = stat(&c.request("STATS").unwrap().unwrap(), "epoch")
        .parse()
        .unwrap();
    assert_eq!(unchanged, epoch1, "no-op write must not bump the epoch");

    let report = c
        .request("DELETE FROM Items WHERE item = 'olives'")
        .unwrap()
        .unwrap();
    assert_eq!(stat(&report, "deleted"), "1");
    let back = c.query("SELECT COUNT(*) AS n FROM Items").unwrap().unwrap();
    assert_eq!(back, before);

    // Errors report and keep the connection usable.
    let err = c
        .request("INSERT INTO Nowhere VALUES (1)")
        .unwrap()
        .unwrap_err();
    assert!(!err.is_empty());
    assert!(c.request("PING").unwrap().is_ok());

    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "writes"), "4");
    c.quit().unwrap();
    server.shutdown();
}

/// `ROW <i> <sql>` returns exactly the i-th row of the full result —
/// header plus one data line — and bumps the `row_lookups` counter.
#[test]
fn row_verb_is_pointwise_access_into_the_full_result() {
    let mut server = spawn(orders_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let sql = "SELECT customer, SUM(price) AS revenue FROM Orders, Packages, Items \
               GROUP BY customer ORDER BY revenue DESC, customer";
    let full = c.query(sql).unwrap().unwrap();
    assert!(full.len() >= 4, "need a few rows: {full:?}");

    for i in 0..3u64 {
        let row = c.request(&format!("ROW {i} {sql}")).unwrap().unwrap();
        assert_eq!(row.len(), 2, "header + one row: {row:?}");
        assert_eq!(row[0], full[0], "header must match the full query");
        assert_eq!(row[1], full[1 + i as usize], "ROW {i}");
    }
    // Past the end: header only, no rows — not an error.
    let past = c
        .request(&format!("ROW {} {sql}", full.len()))
        .unwrap()
        .unwrap();
    assert_eq!(past.len(), 1, "{past:?}");

    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "row_lookups"), "4");

    // Malformed forms report and keep the connection alive.
    let err = c.request("ROW x SELECT 1").unwrap().unwrap_err();
    assert!(err.contains("non-negative integer"), "{err}");
    let err = c.request("ROW 3").unwrap().unwrap_err();
    assert!(err.contains("ROW requires"), "{err}");
    // The target query must not carry LIMIT/OFFSET of its own: the
    // appended clause clashes and the parser rejects the duplicate.
    let err = c
        .request(&format!("ROW 0 {sql} LIMIT 2"))
        .unwrap()
        .unwrap_err();
    assert!(!err.is_empty());
    assert!(c.request("PING").unwrap().is_ok());
    c.quit().unwrap();
    server.shutdown();
}

/// Regression: a write must invalidate cached query responses. The cache
/// is keyed by epoch, the write bumps the epoch, so the next repeat is a
/// miss that recomputes against the new snapshot — never a stale hit.
#[test]
fn writes_purge_cached_query_responses() {
    let mut server = spawn(pizzeria_db(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let sql = "SELECT COUNT(*) AS n FROM Items";

    let first = c.query(sql).unwrap().unwrap();
    let repeat = c.query(sql).unwrap().unwrap();
    assert_eq!(first, repeat);
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "1");

    c.request("INSERT INTO Items VALUES ('anchovies', 3)")
        .unwrap()
        .unwrap();
    let fresh = c.query(sql).unwrap().unwrap();
    assert_eq!(
        fresh,
        vec!["n".to_string(), "5".to_string()],
        "post-write repeat must reflect the write, not the cached response"
    );
    let stats = c.request("STATS").unwrap().unwrap();
    assert_eq!(stat(&stats, "cache_hits"), "1", "stale entry must not hit");
    assert_eq!(stat(&stats, "cache_misses"), "2");
    c.quit().unwrap();
    server.shutdown();
}

/// MVCC across the serving layer: a library session opened before a
/// server-side write keeps its snapshot; sessions opened after see the
/// new state.
#[test]
fn sessions_opened_before_a_write_keep_their_snapshot() {
    let db = pizzeria_db();
    let mut old_session = db.session();
    let mut server = spawn(db.clone(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    c.request("INSERT INTO Items VALUES ('capers', 1)")
        .unwrap()
        .unwrap();

    // The pre-write session still sees 4 items (its COW snapshot); a
    // fresh session sees 5.
    let sql = "SELECT COUNT(*) AS n FROM Items";
    let old = old_session.query(sql).unwrap();
    assert_eq!(format!("{:?}", old.rows.row(0)[0]), "Int(4)");
    let mut new_session = db.session();
    let new = new_session.query(sql).unwrap();
    assert_eq!(format!("{:?}", new.rows.row(0)[0]), "Int(5)");
    c.quit().unwrap();
    server.shutdown();
}

/// Regression for re-LOAD: loading a view under a name that is already
/// registered replaces it, purges stale cached responses (epoch bump),
/// and in-flight sessions pinned to the old snapshot finish cleanly.
#[test]
fn reload_replaces_view_and_purges_stale_cache() {
    // Two serialised views with different cardinalities.
    let dir = std::env::temp_dir().join("fdb_server_reload_test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for (i, customers) in [10u32, 20].into_iter().enumerate() {
        let mut catalog = Catalog::new();
        let ds = generate(
            &mut catalog,
            &OrdersConfig {
                scale: 1,
                customers,
                seed: 21,
            },
        );
        let mut producer = FdbEngine::new(catalog);
        producer.register_view("R1", ds.factorised_view());
        let path = dir.join(format!("reload_{i}.fdbv1"));
        let file = std::fs::File::create(&path).unwrap();
        producer
            .save_view("R1", std::io::BufWriter::new(file))
            .unwrap();
        paths.push(path);
    }

    let db = pizzeria_db();
    let mut server = spawn(db.clone(), "127.0.0.1:0", ServerOptions::new()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    c.request(&format!("LOAD V {}", paths[0].display()))
        .unwrap()
        .unwrap();
    let sql = "SELECT COUNT(*) AS n FROM V";
    let n1 = c.query(sql).unwrap().unwrap()[1].parse::<i64>().unwrap();

    // Cache the response, then pin an in-flight library session to the
    // first snapshot before re-loading.
    let cached = c.query(sql).unwrap().unwrap();
    assert_eq!(
        stat(&c.request("STATS").unwrap().unwrap(), "cache_hits"),
        "1"
    );
    let mut inflight = db.session();

    c.request(&format!("LOAD V {}", paths[1].display()))
        .unwrap()
        .unwrap();
    let n2 = c.query(sql).unwrap().unwrap()[1].parse::<i64>().unwrap();
    assert_ne!(n1, n2, "the two serialised views must differ");
    assert_eq!(
        stat(&c.request("STATS").unwrap().unwrap(), "cache_hits"),
        "1",
        "re-LOAD must purge the stale cached response"
    );
    assert_eq!(cached[1].parse::<i64>().unwrap(), n1);

    // The in-flight session still answers — against the OLD snapshot.
    let old = inflight.query(sql).unwrap();
    assert_eq!(format!("{:?}", old.rows.row(0)[0]), format!("Int({n1})"));

    // STATS lists the view once, not twice.
    assert_eq!(
        stat(&c.request("STATS").unwrap().unwrap(), "views"),
        "V",
        "re-LOAD must replace, not duplicate"
    );
    c.quit().unwrap();
    server.shutdown();
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

/// A `DELETE` whose result the view's f-tree cannot represent is
/// refused: the client gets `ERR`, nothing is published, the epoch
/// stays put, and the worker keeps serving — this connection and new
/// ones. A representable delete on the same view then goes through.
#[test]
fn unrepresentable_delete_answers_err_and_the_worker_survives() {
    let mut catalog = Catalog::new();
    let [a, b, c] = ["a", "b", "c"].map(|n| catalog.intern(n));
    let mut tree = fdb::FTree::new();
    let na = tree.add_node(fdb::core::NodeLabel::Atomic(vec![a]), None);
    tree.add_node(fdb::core::NodeLabel::Atomic(vec![b]), Some(na));
    tree.add_node(fdb::core::NodeLabel::Atomic(vec![c]), Some(na));
    tree.add_dep([a, b, c]);
    // a=1 → {10,20}×{100,200}, a=2 → {30}×{300}.
    let rel = Relation::from_rows(
        Schema::new(vec![a, b, c]),
        [
            [1, 10, 100],
            [1, 10, 200],
            [1, 20, 100],
            [1, 20, 200],
            [2, 30, 300],
        ]
        .map(|r: [i64; 3]| r.map(Value::Int).to_vec()),
    );
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("V", fdb::FRep::from_relation(&rel, tree).unwrap());
    let mut server = spawn(
        Db::from_engine(engine),
        "127.0.0.1:0",
        ServerOptions::new().workers(1),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let count = "SELECT COUNT(*) AS n FROM V";
    let epoch = |c: &mut Client| stat(&c.request("STATS").unwrap().unwrap(), "epoch");
    let epoch0 = epoch(&mut c);

    // Removing one cell of the 2×2 product breaks it.
    let err = c
        .request("DELETE FROM V WHERE b = 10 AND c = 100")
        .unwrap()
        .unwrap_err();
    assert!(err.contains("not representable"), "{err}");
    assert_eq!(
        epoch(&mut c),
        epoch0,
        "a refused delete must not bump the epoch"
    );
    assert_eq!(c.query(count).unwrap().unwrap()[1], "5");
    c.quit().unwrap();

    // The one worker serves the next connection too.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.query(count).unwrap().unwrap()[1], "5");
    let report = c.request("DELETE FROM V WHERE b = 10").unwrap().unwrap();
    assert_eq!(stat(&report, "deleted"), "2");
    assert_eq!(c.query(count).unwrap().unwrap()[1], "3");
    c.quit().unwrap();
    server.shutdown();
}

/// Sends one request on a fresh connection and returns its status line,
/// giving up after a few seconds instead of blocking on a dead worker.
fn status_with_timeout(addr: std::net::SocketAddr, line: &str) -> std::io::Result<String> {
    use std::io::{BufRead, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut status = String::new();
    std::io::BufReader::new(stream).read_line(&mut status)?;
    Ok(status.trim_end().to_string())
}

#[test]
fn hostile_fdbv1_load_answers_err_and_the_worker_survives() {
    // A 26-byte file announcing 2^64 − 1 attributes must be refused, not
    // allocated for; a value nested 100 000 tuples deep (~300 KB) must
    // be refused, not recursed into off the worker's stack — an abort
    // that would take every worker down.
    let deep = format!(
        "fdbv1 1 s1:a t 1 -1 a 1 0 d 0 u 1 {}i7",
        "t1 ".repeat(100_000)
    );
    let mut server = spawn(
        pizzeria_db(),
        "127.0.0.1:0",
        ServerOptions::new().workers(1),
    )
    .unwrap();
    for (i, contents) in ["fdbv1 18446744073709551615".to_string(), deep]
        .into_iter()
        .enumerate()
    {
        let path =
            std::env::temp_dir().join(format!("fdb_hostile_{}_{i}.fdbv1", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        let status = status_with_timeout(server.addr(), &format!("LOAD V {}", path.display()));
        std::fs::remove_file(&path).ok();
        let status = status.expect("LOAD got an answer");
        assert!(status.starts_with("ERR "), "file {i}: {status}");
        assert!(status.contains("malformed"), "file {i}: {status}");

        // The one worker is still there to answer the next connection.
        let status = status_with_timeout(server.addr(), "PING").expect("PING got an answer");
        assert!(status.starts_with("OK"), "file {i}: {status}");
    }
    server.shutdown();
}

#[test]
fn a_huge_top_k_answers_ok_and_the_worker_survives() {
    // Sizing the top-k buffer by the query's k asked the allocator for
    // 24 TB (k = 10^12) or overflowed `Vec`'s capacity (k = 2^62) — an
    // abort that would take every worker down.
    let mut server = spawn(
        pizzeria_db(),
        "127.0.0.1:0",
        ServerOptions::new().workers(1),
    )
    .unwrap();
    for k in [
        "1000000000000",
        "4611686018427387904",
        "9223372036854775807",
    ] {
        let sql = format!(
            "SELECT customer, TOP_K(price, {k}) AS t FROM Orders, Pizzas, Items GROUP BY customer"
        );
        let status = status_with_timeout(server.addr(), &format!("QUERY {sql}"))
            .expect("QUERY got an answer");
        assert!(status.starts_with("OK"), "k = {k}: {status}");
        let status = status_with_timeout(server.addr(), "PING").expect("PING got an answer");
        assert!(status.starts_with("OK"), "k = {k}: {status}");
    }
    // The whole list comes back: every price of every pizza a customer
    // ordered, under a k no group reaches.
    let mut c = Client::connect(server.addr()).unwrap();
    let rows = c
        .query(
            "SELECT customer, TOP_K(price, 1000000000000) AS t FROM Orders, Pizzas, Items \
             GROUP BY customer",
        )
        .unwrap()
        .unwrap();
    let small = c
        .query(
            "SELECT customer, TOP_K(price, 100) AS t FROM Orders, Pizzas, Items GROUP BY customer",
        )
        .unwrap()
        .unwrap();
    assert_eq!(rows, small);
    c.quit().unwrap();
    server.shutdown();
}
