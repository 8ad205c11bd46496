//! Paired engine setup over the benchmark dataset.
//!
//! A [`BenchEnv`] holds everything one figure needs at one scale:
//!
//! * `fdb` with the **factorised** view `R1` (over the paper's f-tree `T`)
//!   plus the base relations and the Orders trie `R3`;
//! * `rdb_sort` / `rdb_hash` with the **flat materialised** `R1` (which
//!   doubles as `R2 = o_{package,date,item}(R1)` — the flat view is
//!   materialised in exactly that order) and `R3`, plus the base
//!   relations for the flat-input experiment.

use crate::harness::{median_of, time_secs};
use fdb_core::engine::{FdbEngine, FdbResult};
use fdb_core::FRep;
use fdb_relational::engine::RdbEngine;
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{Catalog, GroupStrategy, Relation, SortKey};
use fdb_workload::orders::{generate, OrdersAttrs, OrdersConfig};

/// Dataset + engines for one scale.
pub struct BenchEnv {
    pub scale: u32,
    pub attrs: OrdersAttrs,
    pub fdb: FdbEngine,
    pub rdb_sort: RdbEngine,
    pub rdb_hash: RdbEngine,
    /// Size of the flat view in tuples (the paper reports 280M at s=32).
    pub flat_tuples: usize,
    /// Size of the factorised view in singletons (4.2M at s=32).
    pub view_singletons: usize,
    /// Physical arena footprint of the factorised view in bytes
    /// (capacity-aware, see `FRep::stats`).
    pub view_bytes: usize,
}

/// What to materialise (the ORD experiment needs the flat views; the AGG
/// experiments on views do too; the flat-input experiment only needs base
/// relations). Both engine families run serially.
#[derive(Clone, Copy, Debug)]
pub struct BenchSetup {
    pub config: OrdersConfig,
    /// Materialise the flat join for the relational engines (skipped when
    /// only factorised inputs are needed — it dominates setup time).
    pub materialise_flat: bool,
}

impl BenchSetup {
    /// Builds the environment.
    pub fn build(&self) -> BenchEnv {
        let mut catalog = Catalog::new();
        let ds = generate(&mut catalog, &self.config);
        let a = ds.attrs;

        // Factorised side.
        let view: FRep = ds.factorised_view();
        let view_stats = view.stats();
        let view_singletons = view_stats.singletons;
        let view_bytes = view_stats.bytes;
        let flat_tuples = ds.flat_join_size();
        let mut fdb = FdbEngine::new(catalog.clone());
        fdb.register_view("R1", view);
        fdb.register_relation("Orders", ds.orders.clone());
        fdb.register_relation("Packages", ds.packages.clone());
        fdb.register_relation("Items", ds.items.clone());
        // R3 = o_{date,customer,package}(Orders): as a factorisation, the
        // trie in exactly that attribute order.
        let r3_flat = {
            let mut r = ds.orders.project_cols(&[a.date, a.customer, a.package]);
            r.sort_by_keys(&[
                SortKey::asc(a.date),
                SortKey::asc(a.customer),
                SortKey::asc(a.package),
            ]);
            r
        };
        let r3_rep = FRep::from_relation(
            &r3_flat,
            fdb_core::FTree::path(&[a.date, a.customer, a.package]),
        )
        .expect("orders trie");
        fdb.register_view("R3", r3_rep);

        // Relational side.
        let mut rdb_sort = RdbEngine::new(catalog.clone(), GroupStrategy::Sort);
        let mut rdb_hash = RdbEngine::new(catalog.clone(), GroupStrategy::Hash);
        for rdb in [&mut rdb_sort, &mut rdb_hash] {
            rdb.register("Orders", ds.orders.clone());
            rdb.register("Packages", ds.packages.clone());
            rdb.register("Items", ds.items.clone());
            rdb.register("R3", r3_flat.clone());
        }
        if self.materialise_flat {
            // R1 materialised in (package, date, item) order: it therefore
            // *is* R2, matching the paper's Experiment 4 where Q10's order
            // is the stored order.
            let mut flat = ds.join();
            flat.sort_by_keys(&[
                SortKey::asc(a.package),
                SortKey::asc(a.date),
                SortKey::asc(a.item),
            ]);
            rdb_sort.register("R1", flat.clone());
            rdb_hash.register("R1", flat);
        }

        BenchEnv {
            scale: self.config.scale,
            attrs: a,
            fdb,
            rdb_sort,
            rdb_hash,
            flat_tuples,
            view_singletons,
            view_bytes,
        }
    }
}

impl BenchEnv {
    /// Hands the FDB catalog — where the queries interned their output
    /// attributes — to both relational engines.
    pub fn share_catalog(&mut self) {
        self.rdb_sort.catalog = self.fdb.catalog.clone();
        self.rdb_hash.catalog = self.fdb.catalog.clone();
    }

    /// Runs a task on FDB with flat output, returning the tuple count
    /// (forces full enumeration, like the paper's `FDB` timings).
    pub fn run_fdb_flat(&mut self, task: &JoinAggTask) -> usize {
        let result = self.fdb.run_default(task).expect("fdb plans");
        result.to_relation().expect("fdb enumerates").len()
    }

    /// Registers `R1` and `R3` again from their own `Arc`s, which walks
    /// and copies nothing: the new view versions keep no restructured
    /// copies, so the next run that swaps pays for its swaps again.
    pub fn fresh_views(&mut self) {
        for name in ["R1", "R3"] {
            let rep = self.fdb.view_arc(name).expect("registered view");
            let tuples = self.fdb.view_tuples(name).expect("registered view");
            self.fdb.register_view_counted(name, rep, tuples);
        }
    }

    /// Figure 8's FDB timing: `repeats` flat-output runs of `task`, each
    /// on fresh view versions ([`BenchEnv::fresh_views`], outside the
    /// timed region). Returns the last run's result and row count, and
    /// the median seconds.
    pub fn run_fdb_flat_fresh(
        &mut self,
        task: &JoinAggTask,
        repeats: usize,
    ) -> ((FdbResult, usize), f64) {
        assert!(repeats >= 1);
        let runs = (0..repeats)
            .map(|_| {
                self.fresh_views();
                time_secs(|| {
                    let result = self.run_fdb_fo(task);
                    let rows = result.to_relation().expect("fdb enumerates").len();
                    (result, rows)
                })
            })
            .collect();
        median_of(runs)
    }

    /// Runs a task on FDB keeping the output factorised (`FDB f/o`),
    /// returning the result. Its size report (`rep().stats()`, a walk
    /// over every stored value, a shared view base included) and the
    /// plan executor's report, whose intermediate arena bytes
    /// `tests/intermediate_bytes.rs` gates, are read by the caller,
    /// outside any timing.
    pub fn run_fdb_fo(&mut self, task: &JoinAggTask) -> FdbResult {
        self.fdb.run_default(task).expect("fdb plans")
    }

    /// Runs a task on a relational baseline, returning the tuple count.
    pub fn run_rdb(
        &mut self,
        task: &JoinAggTask,
        strategy: GroupStrategy,
        mode: fdb_relational::engine::PlanMode,
    ) -> usize {
        let engine = match strategy {
            GroupStrategy::Sort => &mut self.rdb_sort,
            GroupStrategy::Hash => &mut self.rdb_hash,
        };
        engine.run(task, mode).expect("rdb runs").len()
    }

    /// The relational engines' ORD fast path: if the stored relation is
    /// already sorted by the requested keys, only a verifying scan + copy
    /// is needed (Experiment 4: "the relational engines need no additional
    /// sorting and only scan the relation" for Q10).
    pub fn run_rdb_ord(&mut self, input: &str, keys: &[SortKey], limit: Option<usize>) -> usize {
        let stored = self.rdb_sort.relation(input).expect("materialised input");
        if stored.is_sorted_by(keys) {
            // Stored order matches: emit a scan (or just the first k rows
            // under LIMIT — "negligible time", Experiment 4).
            return match limit {
                Some(k) => fdb_relational::ops::limit(stored, k).len(),
                None => stored.clone().len(),
            };
        }
        let out: Relation = fdb_relational::ops::order_by(stored, keys);
        match limit {
            Some(k) => fdb_relational::ops::limit(&out, k).len(),
            None => out.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::paper_queries;
    use fdb_relational::engine::PlanMode;

    fn tiny_env() -> BenchEnv {
        BenchSetup {
            config: OrdersConfig {
                scale: 1,
                customers: 8,
                seed: 5,
            },
            materialise_flat: true,
        }
        .build()
    }

    #[test]
    fn all_thirteen_queries_agree_across_engines() {
        let mut env = tiny_env();
        let attrs = env.attrs;
        let queries = paper_queries(&mut env.fdb.catalog, &attrs);
        env.rdb_sort.catalog = env.fdb.catalog.clone();
        env.rdb_hash.catalog = env.fdb.catalog.clone();
        for q in &queries {
            let fdb_out = env
                .fdb
                .run_default(&q.task)
                .unwrap_or_else(|e| panic!("{} fdb: {e}", q.name))
                .to_relation()
                .unwrap()
                .canonical();
            let sort_out = env
                .rdb_sort
                .run(&q.task, PlanMode::Naive)
                .unwrap_or_else(|e| panic!("{} rdb: {e}", q.name))
                .canonical();
            assert_eq!(fdb_out, sort_out, "{} differs", q.name);
            let hash_out = env
                .rdb_hash
                .run(&q.task, PlanMode::Naive)
                .unwrap()
                .canonical();
            assert_eq!(sort_out, hash_out, "{} hash differs", q.name);
        }
    }

    #[test]
    fn flat_input_queries_agree_including_eager() {
        let mut env = tiny_env();
        let attrs = env.attrs;
        let queries = crate::queries::flat_input_agg_queries(&mut env.fdb.catalog, &attrs);
        env.rdb_sort.catalog = env.fdb.catalog.clone();
        for q in &queries {
            let fdb_out = env
                .fdb
                .run_default(&q.task)
                .unwrap()
                .to_relation()
                .unwrap()
                .canonical();
            let naive = env
                .rdb_sort
                .run(&q.task, PlanMode::Naive)
                .unwrap()
                .canonical();
            let eager = env
                .rdb_sort
                .run(&q.task, PlanMode::Eager)
                .unwrap()
                .canonical();
            assert_eq!(fdb_out, naive, "{} fdb vs naive", q.name);
            assert_eq!(naive, eager, "{} naive vs eager", q.name);
        }
    }

    #[test]
    fn ord_fast_path_detects_stored_order() {
        let mut env = tiny_env();
        let a = env.attrs;
        // R1 is stored in (package, date, item) order.
        let stored = [
            SortKey::asc(a.package),
            SortKey::asc(a.date),
            SortKey::asc(a.item),
        ];
        let n = env.run_rdb_ord("R1", &stored, None);
        assert_eq!(n, env.flat_tuples);
        let n10 = env.run_rdb_ord("R1", &stored, Some(10));
        assert_eq!(n10, 10.min(env.flat_tuples));
    }

    /// Every timed repeat of figure 8 restructures: Q12 (one swap of the
    /// stored R1), run twice through the figure's helper, runs its
    /// plan's pass each time and never reads a kept copy.
    #[test]
    fn figure8_runs_restructure_on_every_repeat() {
        let mut env = tiny_env();
        let attrs = env.attrs;
        let queries = paper_queries(&mut env.fdb.catalog, &attrs);
        let q12 = queries.iter().find(|q| q.name == "Q12").unwrap();
        for limit in [None, Some(10)] {
            let task = JoinAggTask {
                limit,
                ..q12.task.clone()
            };
            for run in 0..2 {
                let ((result, _), _) = env.run_fdb_flat_fresh(&task, 1);
                let explain = result.explain(&env.fdb.catalog);
                assert!(
                    explain.contains("1 pass(es)")
                        && !explain.contains("restructured input: reused"),
                    "{limit:?}, run {run}:\n{explain}"
                );
            }
        }
    }

    #[test]
    fn view_sizes_reported() {
        let env = tiny_env();
        assert!(env.view_singletons > 0);
        assert!(env.flat_tuples * 5 > env.view_singletons);
        // The arena footprint covers at least the value payloads.
        assert!(
            env.view_bytes >= env.view_singletons * std::mem::size_of::<fdb_relational::Value>()
        );
    }

    #[test]
    fn fo_stats_report_bytes() {
        let mut env = tiny_env();
        let attrs = env.attrs;
        let queries = paper_queries(&mut env.fdb.catalog, &attrs);
        let q1 = &queries[0];
        let stats = env.run_fdb_fo(&q1.task).rep().stats();
        assert!(stats.singletons > 0);
        assert!(stats.bytes > 0);
    }
}
