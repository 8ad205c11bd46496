//! The traced run: per-layer numbers, timed from outside.
//!
//! One client walks a fixed prefix of the seeded op sequence — fixed,
//! so that every count repeats exactly from run to run — and each
//! operation is decomposed by calling the layers' public functions
//! one by one under spans. Around that, a battery of probes times the
//! layers no read operation reaches (clone, update, io, batch writes,
//! the parallel runtime, the relational baseline) on the workload's own
//! data. A timing metric is the median self time of every span with
//! its name in `trace.json`; a count metric is a sum over them.

use crate::check::{Checker, GoldenMap};
use crate::data::{build_env, out_dir, Env, Workload};
use crate::json::Json;
use crate::ops::{self, Stmt, Verb};
use crate::oracle::{same_response, Oracle};
use crate::rng::Rng;
use crate::run::{
    describe_failure, exec_library, exec_wire, prepare, Metric, Prepared, PreparedOp,
};
use crate::serve::{attribute, fetch_stats, Served};
use crate::stats;
use crate::trace::{SpanId, Tracer, NO_OP};
use fdb::core::engine::{OrderStrategy, RunOptions};
use fdb::core::enumerate::{DirectCursor, EnumSpec};
use fdb::core::pipeline::execute_staged;
use fdb::core::{FPlan, FRep, FTree};
use fdb::relational::planner::JoinAggTask;
use fdb::relational::{SortKey, Value};
use fdb::{Db, QueryOutcome, Session};
use fdb_server::cache::PlanCache;
use fdb_server::{proto, Client, ServerOptions};
use std::path::PathBuf;
use std::sync::Arc;

/// Length of the traced prefix. 300 operations where one costs
/// milliseconds; fewer where one costs tens of them (`agg_flat`: ~45 ms
/// an op; `view_churn`: four statements an op), so that a traced run
/// takes about as long as a timed one; more for `serve_mixed`, whose
/// ops are cheap and whose hit ratio needs several cache epochs.
pub fn trace_ops(workload: Workload) -> usize {
    match workload {
        Workload::AggFo | Workload::OrderPage => 300,
        Workload::AggFlat | Workload::ViewChurn => 100,
        Workload::ServeMixed => 1000,
    }
}

pub struct Layered {
    pub metrics: Vec<Metric>,
    /// Responses checked over all passes, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub trace_path: PathBuf,
}

/// Records a failed check.
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn note(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

fn strategy_key(s: OrderStrategy) -> &'static str {
    match s {
        OrderStrategy::Unordered => "strategy_unordered",
        OrderStrategy::StreamInTree => "strategy_stream",
        OrderStrategy::DirectAccess => "strategy_direct",
        OrderStrategy::HeapTopK { .. } => "strategy_heap",
        OrderStrategy::CollectSortCut => "strategy_sort",
    }
}

fn response_bytes(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

/// One read, layer by layer: exactly the calls `Session::query` +
/// `render_outcome` make, each under its own span.
fn traced_read(
    tr: &mut Tracer,
    op_id: u32,
    session: &mut Session,
    sql: &str,
) -> Result<Vec<String>, String> {
    let opts = session.options();
    let engine = session.engine_mut();

    let parse = tr.enter("query.parse", op_id);
    let schemas = engine.schemas();
    let parsed = fdb::parse(sql, &mut engine.catalog, &schemas).map(|q| q.to_task());
    tr.exit(parse);
    let task: JoinAggTask = parsed.map_err(|e| e.to_string())?;

    let run = tr.enter("core.engine.run", op_id);
    let result = engine.run(&task, opts);
    tr.exit(run);
    let result = result.map_err(|e| e.to_string())?;
    let exec = result.exec_stats();
    tr.count(run, "operators", exec.operators as u64);
    tr.count(run, "stages", exec.stages as u64);
    tr.count(run, "intermediate_bytes", exec.intermediate_bytes as u64);
    tr.count(run, "copies_avoided", exec.copies_avoided);
    tr.count(run, "compactions", u64::from(exec.compacted));

    let explain = tr.leaf("core.engine.explain", op_id, || {
        result.explain(&engine.catalog)
    });
    let strategy = result.order_strategy();

    let flatten = tr.enter("core.enumerate.flatten", op_id);
    let flat = result.to_relation_counted();
    tr.exit(flatten);
    let (rows, order) = flat.map_err(|e| e.to_string())?;
    tr.count(flatten, "rows_enumerated", order.rows_enumerated as u64);
    tr.count(flatten, "order_bytes", order.order_bytes as u64);
    tr.count(flatten, "result_rows", rows.len() as u64);
    tr.count(flatten, strategy_key(order.strategy), 1);

    let columns = rows
        .schema()
        .attrs()
        .iter()
        .map(|&a| engine.catalog.name(a).to_string())
        .collect();
    let outcome = QueryOutcome {
        rows,
        columns,
        explain,
        strategy,
        exec,
        order,
    };
    let render = tr.enter("server.proto.render", op_id);
    let lines = proto::render_outcome(&outcome);
    tr.exit(render);
    tr.count(render, "response_bytes", response_bytes(&lines));

    Ok(lines)
}

/// The replay pass: every read of the prefix once more, to count what
/// its result holds and — for single-view tasks, whose engine input is
/// a plain clone of the registered view — to replay its f-plan through
/// the pipeline alone. What `FdbEngine::run` spends beyond that clone
/// and that execution is plan search, costing and strategy choice.
///
/// The allocator decides much of an arena rewrite's cost (fresh pages
/// fault, recycled ones do not), so the run and the replay it is
/// compared with are each timed straight after a result of the same
/// size was freed: an untimed run first, then the timed run, then the
/// timed replay. (A grouping-sets run executes one plan per set; its
/// `plan()` is only the last of them — counted, not replayed.)
fn replay_pass(tr: &mut Tracer, db: &Db, ops: &[PreparedOp], checks: &mut Checks) {
    let mut session = db.session();
    let opts = session.options();
    let engine = session.engine_mut();
    for (i, p) in ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| op.iter().map(move |p| (i as u32, p)))
        .filter(|(_, p)| !p.stmt.is_write())
    {
        let schemas = engine.schemas();
        let Ok(task) = fdb::parse(&p.sql, &mut engine.catalog, &schemas).map(|q| q.to_task())
        else {
            checks.note(false, || format!("`{}` does not parse", p.sql));
            continue;
        };
        let Ok(first) = engine.run(&task, opts) else {
            checks.note(false, || format!("`{}` does not run", p.sql));
            continue;
        };
        let plan: FPlan = first.plan().clone();
        let singletons = first.singleton_count() as u64;
        drop(first);
        tr.tick();

        let run = tr.enter("replay.run", i);
        let rerun = engine.run(&task, opts);
        tr.exit(run);
        tr.count(run, "result_singletons", singletons);
        drop(rerun);
        if task.inputs.len() != 1 || !task.grouping_sets.is_empty() {
            continue;
        }
        let Some(view) = engine.view_arc(&task.inputs[0]) else {
            continue;
        };
        let clone = tr.enter("core.frep.clone", i);
        let input = FRep::clone(&view);
        tr.exit(clone);
        let exec = tr.enter("core.pipeline.exec", i);
        let out = execute_staged(&plan, input, 1);
        tr.exit(exec);
        checks.note(out.is_ok(), || "pipeline replay failed".into());
        drop(out);
        let plan_ns = tr
            .duration_ns(run)
            .saturating_sub(tr.duration_ns(clone))
            .saturating_sub(tr.duration_ns(exec));
        tr.count(exec, "plan_ns", plan_ns);
    }
}

fn view_of(db: &Db, name: &str) -> Arc<FRep> {
    db.session()
        .engine_mut()
        .view_arc(name)
        .unwrap_or_else(|| panic!("view `{name}` is not registered"))
}

/// A tuple of `R1`'s schema (package, date, customer, item, price)
/// under a package id no generated or churned tuple uses.
fn probe_row(package: i64, customer: i64) -> Vec<Value> {
    [package, 1, customer, 1, 7].map(Value::Int).to_vec()
}

/// The layers no read reaches, timed on this workload's data.
fn probes(env: &Env, tr: &mut Tracer, checks: &mut Checks) {
    let db = &env.db;
    let view = view_of(db, "R1");

    // core::frep — clone, and the count index built cold on a clone
    // (the difference to a second, memoised seek on the same clone).
    for _ in 0..5 {
        tr.tick();
        let copy = tr.leaf("core.frep.clone", NO_OP, || FRep::clone(&view));
        let spec = EnumSpec::all_preorder(copy.ftree());
        let skip = (copy.tuple_count() / 2) as u64;
        let cold = tr.enter("core.frep.count_index_cold", NO_OP);
        let first = DirectCursor::new(&copy, &spec, skip).map(|mut c| c.next_row().is_some());
        tr.exit(cold);
        let warm = tr.enter("core.frep.count_index_warm", NO_OP);
        let second = DirectCursor::new(&copy, &spec, skip).map(|mut c| c.next_row().is_some());
        tr.exit(warm);
        checks.note(
            matches!((&first, &second), (Ok(true), Ok(true))) && copy.has_count_index(),
            || "direct seek into a clone of R1 found no row".into(),
        );
        let build_ns = tr.duration_ns(cold).saturating_sub(tr.duration_ns(warm));
        tr.count(cold, "build_ns", build_ns);
    }

    // core::update — single-tuple delta on an owned clone.
    {
        let mut owned = FRep::clone(&view);
        for j in 0..8 {
            tr.tick();
            let row = probe_row(2_000_000 + j, 1);
            let inserted = tr.leaf("core.update.insert", NO_OP, || owned.insert(&row));
            let deleted = tr.leaf("core.update.delete", NO_OP, || owned.delete(&row));
            checks.note(matches!((inserted, deleted), (Ok(true), Ok(true))), || {
                "delta insert/delete on a clone of R1 did not take".into()
            });
        }
        checks.note(owned.same_data(&view), || {
            "clone of R1 differs after insert+delete".into()
        });
    }

    // core::io — fdbv1 write and read of the view.
    {
        let catalog = db.session().catalog().clone();
        let path = out_dir().join(format!("probe-{}.fdbv1", std::process::id()));
        for _ in 0..3 {
            tr.tick();
            tr.leaf("core.io.write", NO_OP, || {
                let file = std::fs::File::create(&path).expect("create the probe file");
                let mut w = std::io::BufWriter::new(file);
                fdb::core::io::write_frep(&view, &catalog, &mut w).expect("serialise R1");
                std::io::Write::flush(&mut w).expect("flush the probe file");
            });
            let bytes = std::fs::metadata(&path).expect("stat the probe file").len();
            let last = tr.last();
            tr.count(last, "file_bytes", bytes);
            let mut cat = catalog.clone();
            let back = tr.leaf("core.io.read", NO_OP, || {
                let file = std::fs::File::open(&path).expect("open the probe file");
                fdb::core::io::read_frep(std::io::BufReader::new(file), &mut cat)
            });
            checks.note(back.is_ok_and(|b| b.same_data(&view)), || {
                "R1 did not survive an fdbv1 round trip".into()
            });
        }
        let _ = std::fs::remove_file(&path);
    }

    // core::frep — building a factorisation from a flat relation: the
    // Orders trie (order_page's R3).
    {
        let mut session = db.session();
        let orders = session
            .engine_mut()
            .relation_arc("Orders")
            .expect("Orders registered");
        let attr = |name: &str| session.catalog().lookup(name).expect("Orders attribute");
        let order = [attr("date"), attr("customer"), attr("package")];
        let mut flat = orders.project_cols(&order);
        flat.sort_by_keys(&order.map(SortKey::asc));
        for _ in 0..3 {
            tr.tick();
            let built = tr.leaf("core.frep.build", NO_OP, || {
                FRep::from_relation_with(&flat, FTree::path(&order), 1)
            });
            checks.note(
                built.is_ok_and(|r| r.tuple_count() == env.summary.orders),
                || "the Orders trie does not hold |Orders| tuples".into(),
            );
        }
    }

    // src/db.rs — sessions, and one churn cycle (view_churn's op)
    // statement by statement.
    tr.tick();
    for _ in 0..20 {
        tr.leaf("db.session", NO_OP, || db.session());
    }
    // Package ids apart from the traced view_churn ops' own.
    let cycles = prepare(ops::churn_cycles(
        Rng::new(env.seed).fork(0x9807),
        &env.summary,
        3_000_000,
        8,
    ));
    let mut checker = Checker::new(None);
    for p in cycles.iter().flatten() {
        tr.tick();
        let name = match p.stmt.verb {
            Verb::Insert => "db.execute_insert",
            Verb::Delete => "db.execute_delete",
            _ => "db.readback",
        };
        let r = tr.leaf(name, NO_OP, || exec_library(db, &mut db.session(), p));
        checks.note(checker.check(&p.stmt, &p.sql, &r), || {
            describe_failure(p, &r)
        });
    }
    for round in 0..3 {
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|j| probe_row(4_000_000 + round * 8 + j, j))
            .collect();
        let mut batch = db.begin_batch();
        for row in &rows {
            batch.insert("R1", row.clone());
        }
        for row in &rows {
            batch.delete_row("R1", row.clone());
        }
        let ops_in_batch = batch.len() as u64;
        tr.tick();
        let report = tr.leaf("db.batch", NO_OP, || batch.commit());
        let last = tr.last();
        tr.count(last, "ops", ops_in_batch);
        checks.note(
            report.is_ok_and(|r| r.inserted == 8 && r.deleted == 8),
            || "a 16-op batch did not insert and delete 8 rows".into(),
        );
    }
    checks.note(view_of(db, "R1").same_data(&view), || {
        "R1 differs from its initial state after the write probes".into()
    });

    // crates/server — the plan cache on its own.
    {
        let cache = PlanCache::new(fdb_server::DEFAULT_CACHE_CAPACITY);
        let keys: Vec<String> = (0..fdb_server::DEFAULT_CACHE_CAPACITY)
            .map(|i| format!("SELECT customer FROM R1 WHERE package = {i}"))
            .collect();
        for k in &keys {
            cache.put(1, k.clone(), Arc::new(vec!["customer".to_string()]));
        }
        tr.tick();
        for i in 0..256 {
            let hit = tr.leaf("server.cache.get", NO_OP, || {
                cache.get(1, &keys[i % keys.len()])
            });
            checks.note(hit.is_some(), || "plan cache lost an entry".into());
        }
    }
}

/// `crates/exec`: the same reads at `threads(1)` and `threads(nproc)`.
fn exec_probe(env: &Env, ops: &[PreparedOp], tr: &mut Tracer, checks: &mut Checks) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut session = env.db.session();
    let mut seen: Vec<&str> = Vec::new();
    let mut tasks: Vec<JoinAggTask> = Vec::new();
    for p in ops.iter().flatten() {
        if p.stmt.is_write() || seen.contains(&p.sql.as_str()) || tasks.len() == 8 {
            continue;
        }
        seen.push(&p.sql);
        let engine = session.engine_mut();
        let schemas = engine.schemas();
        if let Ok(q) = fdb::parse(&p.sql, &mut engine.catalog, &schemas) {
            tasks.push(q.to_task());
        }
    }
    for _ in 0..3 {
        for task in &tasks {
            for (name, threads) in [("exec.run_t1", 1), ("exec.run_tn", nproc)] {
                tr.tick();
                let rows = tr.leaf(name, NO_OP, || {
                    session
                        .engine_mut()
                        .run(task, RunOptions::new().threads(threads))
                        .and_then(|r| r.to_relation_counted())
                });
                checks.note(rows.is_ok(), || format!("{name} failed"));
            }
        }
    }
}

/// `crates/relational` at s=1 — the paper's headline comparison: the
/// flat engine joining and grouping against the factorised view.
fn relational_probe(seed: u64, tr: &mut Tracer, checks: &mut Checks) {
    let small = build_env(Workload::AggFo, seed, 1, &mut Tracer::new());
    let mut oracle = Oracle::new(&small.db);
    let mut session = small.db.session();
    for base in [
        "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer",
        "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package",
        "SELECT package, SUM(price) AS sum_price FROM R1 GROUP BY package",
    ] {
        let st = Stmt::select(base, false);
        tr.tick();
        let want = tr.leaf("relational.oracle", NO_OP, || oracle.lines(&st));
        tr.tick();
        let got = tr.leaf("relational.fdb", NO_OP, || {
            session.query(base).map(|o| proto::render_outcome(&o))
        });
        checks.note(
            matches!((&got, &want), (Ok(g), Ok(w)) if same_response(false, g, w)),
            || format!("engine and relational oracle disagree on `{base}`"),
        );
    }
}

/// The op prefix through a server, one client, every request
/// attributed by the `STATS` counters around it.
fn server_pass(
    env: &Env,
    ops: &[PreparedOp],
    lib_ms: &[Vec<f64>],
    golden: Option<Arc<GoldenMap>>,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(), String> {
    // A server of the pass's own where the workload has none; it shuts
    // down when dropped.
    let own_server = match &env.server {
        Some(_) => None,
        None => Some(
            fdb_server::spawn(
                env.db.clone(),
                "127.0.0.1:0",
                ServerOptions::new().workers(0),
            )
            .map_err(|e| format!("spawn the server: {e}"))?,
        ),
    };
    let addr = own_server.as_ref().map_or_else(|| env.addr(), |s| s.addr());
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut checker = Checker::new(golden);
    let mut before = fetch_stats(&mut client)?;
    let first = before;

    let mut request = |tr: &mut Tracer,
                       checks: &mut Checks,
                       op_id: u32,
                       p: &Prepared,
                       lib: Option<f64>|
     -> Result<(), String> {
        tr.tick();
        let parsed = tr.leaf("server.proto.parse_request", op_id, || {
            proto::parse_request(&p.wire)
        });
        checks.note(parsed.is_ok(), || format!("`{}` does not parse", p.wire));
        if !p.stmt.is_write() {
            tr.leaf("server.proto.normalise", op_id, || {
                proto::normalise_sql(&p.sql)
            });
        }
        let span = tr.enter("server.roundtrip_other", op_id);
        let response = exec_wire(&mut client, p);
        tr.exit(span);
        let after = fetch_stats(&mut client)?;
        let served = attribute(&before, &after);
        before = after;
        tr.rename(
            span,
            match served {
                Served::Hit => "server.roundtrip_hit",
                Served::Miss => "server.roundtrip_miss",
                Served::Write => "server.roundtrip_write",
                Served::Other => "server.roundtrip_other",
            },
        );
        if let Ok(lines) = &response {
            tr.count(span, "response_bytes", response_bytes(lines));
        }
        if let (Served::Miss, Some(lib)) = (served, lib) {
            // What the server adds to a miss: its round trip minus the
            // same statement straight through the library.
            let over_ms = (tr.duration_ms(span) - lib).max(0.0);
            tr.count(span, "overhead_ref_ns", (over_ms * 1e6) as u64);
        }
        checks.note(checker.check(&p.stmt, &p.sql, &response), || {
            describe_failure(p, &response)
        });
        Ok(())
    };

    for (i, op) in ops.iter().enumerate() {
        for (j, p) in op.iter().enumerate() {
            request(tr, checks, i as u32, p, Some(lib_ms[i][j]))?;
        }
    }
    // Write round trips for workloads whose own ops have none: the
    // serve_mixed write pair, on ids of its own.
    let writes = prepare(
        ops::serve_ops(env.seed, 63, &env.summary)
            .into_iter()
            .filter(|op| op.stmts[0].is_write())
            .take(8)
            .collect(),
    );
    for op in &writes {
        request(tr, checks, NO_OP, &op[0], None)?;
    }
    // And one statement repeated, so that a miss and its hits exist even
    // where every op of the prefix is distinct or follows a write.
    let repeat = prepare(vec![ops::Op {
        stmts: vec![ops::reference_stmt()],
    }]);
    for _ in 0..4 {
        request(tr, checks, NO_OP, &repeat[0][0], None)?;
    }

    let last = before;
    let totals = tr.enter("server.totals", NO_OP);
    tr.exit(totals);
    tr.count(totals, "hits", last.cache_hits - first.cache_hits);
    tr.count(totals, "misses", last.cache_misses - first.cache_misses);
    tr.count(totals, "errors", last.errors - first.errors);
    client.quit().map_err(|e| format!("quit: {e}"))?;
    Ok(())
}

pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: u32,
    golden: Option<Arc<GoldenMap>>,
    record: Json,
) -> Result<Layered, String> {
    let mut tr = Tracer::calibrated();
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let env = build_env(workload, seed, scale, &mut tr);
    let ops: Vec<PreparedOp> = prepare(
        ops::library_ops(workload, seed, &env.summary)
            .into_iter()
            .take(trace_ops(workload))
            .collect(),
    );
    let churn = workload == Workload::ViewChurn;

    probes(&env, &mut tr, &mut checks);
    exec_probe(&env, &ops, &mut tr, &mut checks);
    relational_probe(seed, &mut tr, &mut checks);

    // Pass 1, the reference each decomposition is held to: every
    // statement whole, as the timed run issues it.
    let db = env.db.clone();
    let mut checker = Checker::new(golden.clone());
    let mut session = db.session();
    let mut lib_ms: Vec<Vec<f64>> = Vec::with_capacity(ops.len());
    // Unrecorded warm-up over the head of the prefix: the heap grows to
    // its working size and the first-touch page faults are paid.
    for p in ops.iter().take(ops.len() / 10).flatten() {
        if churn && !p.stmt.is_write() {
            session = db.session();
        }
        let r = exec_library(&db, &mut session, p);
        checks.note(checker.check(&p.stmt, &p.sql, &r), || {
            describe_failure(p, &r)
        });
    }
    for (i, op) in ops.iter().enumerate() {
        let mut per_stmt = Vec::with_capacity(op.len());
        for p in op {
            tr.tick();
            // One span for the whole statement: the same two clock
            // reads a stopwatch would take, kept in the trace.
            let span = tr.enter("reference", i as u32);
            if churn && !p.stmt.is_write() {
                session = db.session();
            }
            let r = exec_library(&db, &mut session, p);
            tr.exit(span);
            per_stmt.push(tr.duration_ms(span));
            checks.note(checker.check(&p.stmt, &p.sql, &r), || {
                describe_failure(p, &r)
            });
        }
        lib_ms.push(per_stmt);
    }

    // Pass 2, traced: the same ops, layer by layer.
    let mut session = db.session();
    let mut op_spans: Vec<SpanId> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let op_id = i as u32;
        tr.tick();
        let span = tr.enter("op", op_id);
        let mut responses = Vec::with_capacity(op.len());
        for p in op {
            responses.push(match p.stmt.verb {
                Verb::Insert => tr.leaf("db.execute_insert", op_id, || {
                    exec_library(&db, &mut session, p)
                }),
                Verb::Delete => tr.leaf("db.execute_delete", op_id, || {
                    exec_library(&db, &mut session, p)
                }),
                Verb::Query | Verb::Row => {
                    if churn {
                        session = tr.leaf("db.session", op_id, || db.session());
                    }
                    traced_read(&mut tr, op_id, &mut session, &p.sql)
                }
            });
        }
        tr.exit(span);
        op_spans.push(span);
        for (p, r) in op.iter().zip(&responses) {
            checks.note(checker.check(&p.stmt, &p.sql, r), || describe_failure(p, r));
        }
    }
    replay_pass(&mut tr, &db, &ops, &mut checks);

    // Pass 3: through the server.
    server_pass(&env, &ops, &lib_ms, golden, &mut tr, &mut checks)?;

    let untraced_ms: Vec<f64> = lib_ms.iter().map(|op| op.iter().sum()).collect();
    let traced_ms: Vec<f64> = op_spans.iter().map(|&s| tr.duration_ms(s)).collect();
    let metrics = assemble(&tr, &env, &untraced_ms, &traced_ms);

    let trace_path = out_dir().join(format!("{}.trace.json", workload.name()));
    let doc = Json::obj([
        ("record", record),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Int(m.samples as i64)),
                    ]),
                )
            })),
        ),
        ("spans", tr.to_json()),
    ]);
    std::fs::write(&trace_path, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    Ok(Layered {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        trace_path,
    })
}

/// Turns the recorded spans into the per-layer metric list — the same
/// names, in the same order, for every workload.
fn assemble(tr: &Tracer, env: &Env, untraced_ms: &[f64], traced_ms: &[f64]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let median_ms = |name: &str| {
        let xs = tr.self_ms_of(name);
        (stats::median(&xs).unwrap_or(0.0), xs.len())
    };
    // Medians of a per-span count kept in (raw) nanoseconds.
    let median_count_ms = |name: &str, key: &str| {
        let xs = tr.count_ms_of(name, key);
        (stats::median(&xs).unwrap_or(0.0), xs.len())
    };
    let n_of = |name: &str| tr.spans().iter().filter(|s| s.name == name).count();
    let ms = |out: &mut Vec<Metric>, name: &'static str, span: &str| {
        let (value, samples) = median_ms(span);
        out.push(Metric {
            name,
            unit: "ms",
            value,
            samples,
        });
    };
    let us = |out: &mut Vec<Metric>, name: &'static str, span: &str| {
        let (value, samples) = median_ms(span);
        out.push(Metric {
            name,
            unit: "us",
            value: value * 1e3,
            samples,
        });
    };
    let sum =
        |out: &mut Vec<Metric>, name: &'static str, unit: &'static str, span: &str, key: &str| {
            out.push(Metric {
                name,
                unit,
                value: tr.sum_count(span, key) as f64,
                samples: n_of(span),
            });
        };
    let value = |out: &mut Vec<Metric>,
                 name: &'static str,
                 unit: &'static str,
                 value: f64,
                 samples: usize| {
        out.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    };

    // crates/query
    us(&mut out, "query.parse_us", "query.parse");
    // core::optim + planning in core::engine
    ms(&mut out, "core.engine.run_ms", "core.engine.run");
    let (plan_ms, plan_n) = median_count_ms("core.pipeline.exec", "plan_ns");
    value(&mut out, "core.optim.plan_ms", "ms", plan_ms, plan_n);
    // core::pipeline / ops / agg
    ms(&mut out, "core.pipeline.exec_ms", "core.pipeline.exec");
    sum(
        &mut out,
        "core.pipeline.operators",
        "count",
        "core.engine.run",
        "operators",
    );
    sum(
        &mut out,
        "core.pipeline.stages",
        "count",
        "core.engine.run",
        "stages",
    );
    sum(
        &mut out,
        "core.pipeline.intermediate_bytes",
        "bytes",
        "core.engine.run",
        "intermediate_bytes",
    );
    sum(
        &mut out,
        "core.pipeline.copies_avoided",
        "count",
        "core.engine.run",
        "copies_avoided",
    );
    sum(
        &mut out,
        "core.pipeline.compactions",
        "count",
        "core.engine.run",
        "compactions",
    );
    // core::enumerate / topk + the result side of core::engine
    ms(
        &mut out,
        "core.enumerate.flatten_ms",
        "core.enumerate.flatten",
    );
    sum(
        &mut out,
        "core.enumerate.rows_enumerated",
        "count",
        "core.enumerate.flatten",
        "rows_enumerated",
    );
    let enumerated = tr.sum_count("core.enumerate.flatten", "rows_enumerated") as f64;
    let returned = tr.sum_count("core.enumerate.flatten", "result_rows") as f64;
    value(
        &mut out,
        "core.enumerate.rows_per_result_row",
        "ratio",
        enumerated / returned.max(1.0),
        n_of("core.enumerate.flatten"),
    );
    sum(
        &mut out,
        "core.enumerate.order_bytes",
        "bytes",
        "core.enumerate.flatten",
        "order_bytes",
    );
    us(&mut out, "core.engine.explain_us", "core.engine.explain");
    for (name, key) in [
        ("core.engine.strategy_unordered", "strategy_unordered"),
        ("core.engine.strategy_stream", "strategy_stream"),
        ("core.engine.strategy_direct", "strategy_direct"),
        ("core.engine.strategy_heap", "strategy_heap"),
        ("core.engine.strategy_sort", "strategy_sort"),
    ] {
        sum(&mut out, name, "count", "core.enumerate.flatten", key);
    }
    // core::frep
    let s = &env.summary;
    value(
        &mut out,
        "core.frep.view_singletons",
        "count",
        s.view_singletons as f64,
        1,
    );
    value(
        &mut out,
        "core.frep.view_bytes",
        "bytes",
        s.view_bytes as f64,
        1,
    );
    value(
        &mut out,
        "core.frep.flat_tuples_per_singleton",
        "ratio",
        s.flat_tuples as f64 / s.view_singletons.max(1) as f64,
        1,
    );
    sum(
        &mut out,
        "core.frep.result_singletons",
        "count",
        "replay.run",
        "result_singletons",
    );
    ms(&mut out, "core.frep.build_ms", "core.frep.build");
    ms(&mut out, "core.frep.clone_ms", "core.frep.clone");
    let (cold_ms, cold_n) = median_count_ms("core.frep.count_index_cold", "build_ns");
    value(
        &mut out,
        "core.frep.count_index_cold_ms",
        "ms",
        cold_ms,
        cold_n,
    );
    // core::update
    us(&mut out, "core.update.insert_us", "core.update.insert");
    us(&mut out, "core.update.delete_us", "core.update.delete");
    // core::io
    ms(&mut out, "core.io.write_ms", "core.io.write");
    ms(&mut out, "core.io.read_ms", "core.io.read");
    let writes = n_of("core.io.write");
    value(
        &mut out,
        "core.io.file_bytes",
        "bytes",
        tr.sum_count("core.io.write", "file_bytes") as f64 / writes.max(1) as f64,
        writes,
    );
    // src/db.rs
    us(&mut out, "db.session_us", "db.session");
    ms(&mut out, "db.execute_insert_ms", "db.execute_insert");
    ms(&mut out, "db.execute_delete_ms", "db.execute_delete");
    let (batch_ms, batch_n) = median_ms("db.batch");
    let batch_ops = tr.sum_count("db.batch", "ops") as f64 / batch_n.max(1) as f64;
    value(
        &mut out,
        "db.batch_per_op_ms",
        "ms",
        batch_ms / batch_ops.max(1.0),
        batch_n,
    );
    ms(&mut out, "db.readback_ms", "db.readback");
    // crates/server
    ms(&mut out, "server.roundtrip_hit_ms", "server.roundtrip_hit");
    ms(
        &mut out,
        "server.roundtrip_miss_ms",
        "server.roundtrip_miss",
    );
    ms(
        &mut out,
        "server.roundtrip_write_ms",
        "server.roundtrip_write",
    );
    // Recorded already at reference speed.
    let over: Vec<f64> = tr
        .count_of("server.roundtrip_miss", "overhead_ref_ns")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let (over_ms, over_n) = (stats::median(&over).unwrap_or(0.0), over.len());
    value(&mut out, "server.overhead_miss_ms", "ms", over_ms, over_n);
    us(
        &mut out,
        "server.proto.parse_request_us",
        "server.proto.parse_request",
    );
    us(
        &mut out,
        "server.proto.normalise_us",
        "server.proto.normalise",
    );
    ms(&mut out, "server.proto.render_ms", "server.proto.render");
    let responses = tr
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("server.roundtrip_"))
        .count();
    value(
        &mut out,
        "server.proto.response_bytes",
        "bytes",
        ["hit", "miss", "write", "other"]
            .iter()
            .map(|k| tr.sum_count(&format!("server.roundtrip_{k}"), "response_bytes"))
            .sum::<u64>() as f64,
        responses,
    );
    let hits = tr.sum_count("server.totals", "hits") as f64;
    let misses = tr.sum_count("server.totals", "misses") as f64;
    value(
        &mut out,
        "server.cache.hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    value(&mut out, "server.cache.hits", "count", hits, 1);
    value(&mut out, "server.cache.misses", "count", misses, 1);
    us(&mut out, "server.cache.get_us", "server.cache.get");
    sum(
        &mut out,
        "server.errors",
        "count",
        "server.totals",
        "errors",
    );
    // crates/exec
    ms(&mut out, "exec.run_ms_t1", "exec.run_t1");
    ms(&mut out, "exec.run_ms_tn", "exec.run_tn");
    let (t1, _) = median_ms("exec.run_t1");
    let (tn, tn_n) = median_ms("exec.run_tn");
    value(
        &mut out,
        "exec.speedup_tn",
        "ratio",
        if tn > 0.0 { t1 / tn } else { 0.0 },
        tn_n,
    );
    // crates/relational, crates/workload
    ms(&mut out, "relational.oracle_ms", "relational.oracle");
    let rdb: f64 = tr.self_ms_of("relational.oracle").iter().sum();
    let fdb: f64 = tr.self_ms_of("relational.fdb").iter().sum();
    value(
        &mut out,
        "relational.rdb_over_fdb",
        "ratio",
        if fdb > 0.0 { rdb / fdb } else { 0.0 },
        n_of("relational.fdb"),
    );
    ms(&mut out, "workload.generate_ms", "workload.generate");
    // harness
    let p50 = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    value(
        &mut out,
        "trace.overhead_ratio",
        "ratio",
        p50(traced_ms) / p50(untraced_ms).max(f64::MIN_POSITIVE) - 1.0,
        traced_ms.len(),
    );
    let (sum_traced, sum_untraced): (f64, f64) = (traced_ms.iter().sum(), untraced_ms.iter().sum());
    value(
        &mut out,
        "trace.decomp_residual_ratio",
        "ratio",
        (sum_traced - sum_untraced).abs() / sum_untraced.max(f64::MIN_POSITIVE),
        traced_ms.len(),
    );
    let speeds: Vec<f64> = tr.speeds().collect();
    value(
        &mut out,
        "trace.speed_factor",
        "ratio",
        stats::median(&speeds).unwrap_or(1.0),
        speeds.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_reports_every_layer_and_counts_repeat() {
        let run = || run_traced(Workload::ViewChurn, 77, 1, None, Json::Null).expect("traced run");
        let a = run();
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        let b = run();
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(x.name, y.name);
            if matches!(x.unit, "count" | "bytes") {
                assert_eq!(x.value, y.value, "{} must repeat exactly", x.name);
            }
        }
        let get = |name: &str| a.metrics.iter().find(|m| m.name == name).unwrap();
        assert!(get("db.execute_insert_ms").value > 0.0);
        assert!(get("server.roundtrip_write_ms").samples > 0);
        assert!(get("core.update.insert_us").value > 0.0);
        assert!(a.trace_path.exists());
    }
}
