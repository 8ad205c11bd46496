#![allow(dead_code)] // helpers are shared across test binaries that each use a subset

//! Shared helpers for the integration tests: paired engine setup and
//! SQL-driven equivalence checking between the factorised engine and the
//! relational baselines.

use fdb::core::engine::{ConsolidateMode, FdbEngine, PlanStrategy, RunOptions};
use fdb::core::ExhaustiveConfig;
use fdb::relational::engine::{PlanMode, RdbEngine};
use fdb::relational::{GroupStrategy, Relation};
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
    pub fn assert_all_agree(&mut self, sql: &str) -> Relation {
        let schemas = self.fdb.schemas();
        let query = fdb::parse(sql, &mut self.fdb.catalog, &schemas)
            .unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        self.rdb_sort.catalog = self.fdb.catalog.clone();
        self.rdb_hash.catalog = self.fdb.catalog.clone();
        let task = query.to_task();

        // Every plan flavour of the factorised engine.
        let flavours: [(&str, RunOptions); 4] = [
            ("greedy", RunOptions::default()),
            (
                "no consolidation",
                RunOptions::new().consolidate(ConsolidateMode::Never),
            ),
            (
                "consolidated",
                RunOptions::new().consolidate(ConsolidateMode::Always),
            ),
            (
                "exhaustive",
                RunOptions::new().strategy(PlanStrategy::Exhaustive(ExhaustiveConfig {
                    max_states: 4000,
                })),
            ),
        ];

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

        // fdb: every plan flavour must reproduce the relational ground
        // truth.
        for (name, opts) in &flavours {
            let out = self
                .fdb
                .run(&task, *opts)
                .unwrap_or_else(|e| panic!("fdb {name} `{sql}`: {e}"))
                .to_relation()
                .unwrap_or_else(|e| panic!("fdb {name} enumerate `{sql}`: {e}"))
                .canonical();
            assert_eq!(out, rdb_naive, "fdb {name} vs rdb naive on `{sql}`");
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
