#![allow(dead_code)] // helpers are shared across test binaries that each use a subset

//! Shared helpers for the integration tests: paired engine setup and
//! SQL-driven equivalence checking between the factorised engine and the
//! relational baselines.

use fdb::core::engine::FdbEngine;
use fdb::relational::engine::{PlanMode, RdbEngine};
use fdb::relational::planner::JoinAggTask;
use fdb::relational::{AggFunc, CmpOp, GroupStrategy, Predicate, Relation, Value};
use fdb::Catalog;

/// A factorised engine and two relational baselines over the same data.
pub struct EnginePair {
    pub fdb: FdbEngine,
    pub rdb_sort: RdbEngine,
    pub rdb_hash: RdbEngine,
}

impl EnginePair {
    pub fn new(catalog: Catalog) -> Self {
        EnginePair {
            fdb: FdbEngine::new(catalog.clone()),
            rdb_sort: RdbEngine::new(catalog.clone(), GroupStrategy::Sort),
            rdb_hash: RdbEngine::new(catalog, GroupStrategy::Hash),
        }
    }

    pub fn register(&mut self, name: &str, rel: Relation) {
        self.fdb.register_relation(name, rel.clone());
        self.rdb_sort.register(name, rel.clone());
        self.rdb_hash.register(name, rel);
    }

    /// Parses `sql`, runs it on all engines and plan modes, and asserts
    /// that every result is the same set of tuples. Returns the canonical
    /// result.
    ///
    /// An aggregate statement also runs as a derived task with one more
    /// HAVING conjunct, `<out> <> i64::MIN` on its first non-`AVG`
    /// aggregate output. Every row passes it, but a HAVING on an
    /// aggregate makes the factorised engine consolidate the aggregate
    /// into one node (§5.2 step 7), so this run holds the consolidating
    /// plans to the relational engine on every aggregate shape.
    pub fn assert_all_agree(&mut self, sql: &str) -> Relation {
        let schemas = self.fdb.schemas();
        let query = fdb::parse(sql, &mut self.fdb.catalog, &schemas)
            .unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        self.rdb_sort.catalog = self.fdb.catalog.clone();
        self.rdb_hash.catalog = self.fdb.catalog.clone();
        let task = query.to_task();

        let rdb_naive = self
            .rdb_sort
            .run(&task, PlanMode::Naive)
            .unwrap_or_else(|e| panic!("rdb naive `{sql}`: {e}"))
            .canonical();
        let rdb_hash = self
            .rdb_hash
            .run(&task, PlanMode::Naive)
            .unwrap()
            .canonical();
        let rdb_eager = self
            .rdb_sort
            .run(&task, PlanMode::Eager)
            .unwrap_or_else(|e| panic!("rdb eager `{sql}`: {e}"))
            .canonical();
        assert_eq!(rdb_hash, rdb_naive, "hash vs sort grouping on `{sql}`");
        assert_eq!(rdb_eager, rdb_naive, "eager vs naive on `{sql}`");

        let out = fdb_canonical(&mut self.fdb, &task, sql);
        assert_eq!(out, rdb_naive, "fdb vs rdb naive on `{sql}`");

        let plain = task
            .aggregates
            .iter()
            .find(|a| !matches!(a.func, AggFunc::Avg(_)));
        if let Some(agg) = plain {
            let mut derived = task.clone();
            derived.having.push(Predicate::AttrCmp(
                agg.output,
                CmpOp::Ne,
                Value::Int(i64::MIN),
            ));
            let want = self
                .rdb_sort
                .run(&derived, PlanMode::Naive)
                .unwrap_or_else(|e| panic!("rdb naive derived `{sql}`: {e}"))
                .canonical();
            let got = fdb_canonical(&mut self.fdb, &derived, sql);
            assert_eq!(got, want, "fdb vs rdb naive on derived-HAVING `{sql}`");
        }

        // Shared-snapshot axis: concurrent sessions over one Db (cheap
        // engine clones sharing the input arenas via Arc) must be byte
        // identical to each other and reproduce the ground truth.
        let db = fdb::Db::from_engine(self.fdb.clone());
        let serial = db
            .session()
            .query(sql)
            .unwrap_or_else(|e| panic!("session serial `{sql}`: {e}"))
            .rows;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let mut session = db.session();
                    scope.spawn(move || session.query(sql).map(|out| out.rows))
                })
                .collect();
            for h in handles {
                let rows = h
                    .join()
                    .expect("session thread")
                    .unwrap_or_else(|e| panic!("concurrent session `{sql}`: {e}"));
                assert_eq!(rows, serial, "concurrent vs serial session on `{sql}`");
            }
        });
        assert_eq!(
            serial.canonical(),
            rdb_naive,
            "shared-snapshot session vs rdb naive on `{sql}`"
        );
        rdb_naive
    }

    /// Runs `sql` on the factorised engine only, returning the (ordered)
    /// result for order-sensitive assertions.
    pub fn run_fdb(&mut self, sql: &str) -> Relation {
        let schemas = self.fdb.schemas();
        let query = fdb::parse(sql, &mut self.fdb.catalog, &schemas)
            .unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        let task = query.to_task();
        self.fdb
            .run_default(&task)
            .unwrap_or_else(|e| panic!("fdb `{sql}`: {e}"))
            .to_relation()
            .unwrap_or_else(|e| panic!("fdb enumerate `{sql}`: {e}"))
    }
}

/// `task` (lowered from `sql`) on the factorised engine, canonicalised.
fn fdb_canonical(fdb: &mut FdbEngine, task: &JoinAggTask, sql: &str) -> Relation {
    fdb.run_default(task)
        .unwrap_or_else(|e| panic!("fdb `{sql}`: {e}"))
        .to_relation()
        .unwrap_or_else(|e| panic!("fdb enumerate `{sql}`: {e}"))
        .canonical()
}

/// The pizzeria database registered in all engines.
pub fn pizzeria_engines() -> EnginePair {
    let mut catalog = Catalog::new();
    let db = fdb::workload::pizzeria::pizzeria(&mut catalog);
    let mut pair = EnginePair::new(catalog);
    pair.register("Orders", db.orders);
    pair.register("Pizzas", db.pizzas);
    pair.register("Items", db.items);
    pair
}
