//! The FDB query engine: plans and executes join-aggregate-order tasks on
//! factorised data.
//!
//! The engine owns a catalog, registered **factorised views** (read-
//! optimised inputs, the paper's main scenario) and **flat relations**
//! (factorised on the fly as sorted tries). A [`JoinAggTask`] — the same
//! logical task the relational baselines execute — runs through three
//! stages, each a module handing the next one named value: `lower`
//! assembles the input factorisation and desugars the aggregates (a
//! `Lowered`); `choose` plans with the greedy heuristic (§5.2) and picks
//! the ordering strategy (a `Chosen`); `execute` runs the f-plan and
//! verifies the ordering (an [`FdbResult`]). `emit` is the result side:
//! the factorisation itself (`FDB f/o` in the experiments) or its tuples
//! (`FDB`), ordered, filtered and cut. This module keeps the registry of
//! inputs and the entry points.

use crate::error::{FdbError, Result};
use crate::frep::FRep;
use crate::optim::Stats;
use crate::pipeline::ExecStats;
use crate::plan::FOp;
use execute::check_deadline;
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{dedup_sort_keys, Catalog, Relation, Schema};
use lower::EmitCol;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

mod choose;
mod emit;
mod execute;
mod lower;

pub use crate::optim::ordering::OrderStrategy;
pub use emit::OrderRunStats;
pub use execute::FdbResult;

/// Options for [`FdbEngine::run`].
///
/// Every run plans with the greedy heuristic, consolidates the aggregate
/// exactly when HAVING or ORDER BY needs it as a node, and executes its
/// f-plan through the one plan executor ([`crate::pipeline::execute`])
/// on the calling thread. The options
/// only bound how long the run may take. How `ORDER BY` is realised is
/// the cost model's choice, not an option ([`OrderStrategy`]).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::new`] and the builder methods:
///
/// ```
/// use fdb_core::engine::RunOptions;
/// use std::time::Duration;
/// let opts = RunOptions::new().deadline(Some(Duration::from_millis(50)));
/// assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct RunOptions {
    /// Per-run wall-clock budget covering planning, f-plan execution
    /// and enumeration. `None` (the default) never times out. The
    /// budget starts when [`FdbEngine::run`] is entered — once, however
    /// many grouping sets the task expands to; the result's
    /// enumeration ([`FdbResult::to_relation`]) honours the *same*
    /// absolute deadline, so a slow enumeration cannot run away from a
    /// serving worker. On expiry: [`FdbError::DeadlineExceeded`].
    pub deadline: Option<std::time::Duration>,
}

impl RunOptions {
    /// The default options; entry point of the builder chain.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Sets the per-run wall-clock budget (planning + execution +
    /// enumeration); `None` never times out.
    pub fn deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The absolute deadline of a run entered now.
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline.map(|d| Instant::now() + d)
    }

    /// Kept for callers outside the workspace; returns `self` unchanged.
    /// The thread count is ignored: a run executes on the calling thread.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }
}

/// The FDB main-memory engine.
///
/// Registered inputs are held behind [`Arc`], so cloning an engine is
/// cheap — the catalog and the name tables are copied, the arenas and
/// relation buffers are **shared**. This is the snapshot discipline of
/// the serving layer: one template engine per database, one cheap clone
/// per session/worker, all readers enumerating the same immutable
/// arenas concurrently.
#[derive(Clone, Debug, Default)]
pub struct FdbEngine {
    /// Attribute catalog shared with every registered input.
    pub catalog: Catalog,
    views: HashMap<String, View>,
    relations: HashMap<String, Arc<Relation>>,
}

/// A registered view: the representation, its tuple count, the cost
/// model's statistics built from that count, and the restructured
/// copies its runs kept. Engine clones share the copies; registering a
/// view replaces the `View`, so a new version starts with none.
#[derive(Clone, Debug)]
struct View {
    rep: Arc<FRep>,
    tuples: usize,
    stats: Stats,
    restructured: Arc<Mutex<Restructured>>,
}

/// The results of restructure-only plans (every operator a swap) over
/// one view version, keyed by the plan's operators: a later run of the
/// same plan reads the kept result, count index included, instead of
/// swapping again. Swap node ids are fixed for a version, so the
/// operators are the whole key. The bytes the kept results appended stay
/// at most the view's own data bytes; a result that does not fit is
/// not kept.
#[derive(Debug, Default)]
struct Restructured {
    kept: Vec<(Vec<FOp>, Arc<FRep>)>,
    bytes: usize,
    budget: usize,
}

impl Restructured {
    /// The kept result of the plan `ops`.
    fn get(&self, ops: &[FOp]) -> Option<Arc<FRep>> {
        let (_, rep) = self.kept.iter().find(|(k, _)| k.as_slice() == ops)?;
        Some(Arc::clone(rep))
    }

    /// Keeps `rep`, the result of `ops` that appended `bytes`, if it
    /// fits the budget and no concurrent run kept one first.
    fn keep(&mut self, ops: &[FOp], rep: &Arc<FRep>, bytes: usize) {
        if self.bytes + bytes <= self.budget && self.get(ops).is_none() {
            self.bytes += bytes;
            self.kept.push((ops.to_vec(), Arc::clone(rep)));
        }
    }
}

/// Locks a view's restructured copies; a run that panicked under the
/// lock leaves them whole (an entry is pushed in one step).
fn lock(restructured: &Mutex<Restructured>) -> MutexGuard<'_, Restructured> {
    restructured.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FdbEngine {
    pub fn new(catalog: Catalog) -> Self {
        FdbEngine {
            catalog,
            ..FdbEngine::default()
        }
    }

    /// Registers a factorised view (a read-optimised materialised input).
    pub fn register_view(&mut self, name: impl Into<String>, rep: FRep) {
        self.register_view_arc(name, Arc::new(rep));
    }

    /// Registers an [`Arc`]-shared factorised view without copying the
    /// arena — the registration path of the serving layer, where the
    /// same snapshot is shared across many engines/sessions. Counts the
    /// view's tuples once.
    pub fn register_view_arc(&mut self, name: impl Into<String>, rep: Arc<FRep>) {
        let tuples = rep.tuple_count();
        self.register_view_counted(name, rep, tuples);
    }

    /// [`FdbEngine::register_view_arc`] for a caller that knows the
    /// view's tuple count — a writer carries it forward from the
    /// previous version — so registration walks nothing. When `rep` is
    /// not shared yet its tail is sealed into its base, so snapshots of
    /// it copy no records.
    pub fn register_view_counted(
        &mut self,
        name: impl Into<String>,
        mut rep: Arc<FRep>,
        tuples: usize,
    ) {
        if let Some(owned) = Arc::get_mut(&mut rep) {
            owned.seal();
        }
        let mut stats = Stats::new();
        for edge in rep.ftree().deps() {
            stats.add_relation(edge.iter().copied(), tuples);
        }
        // Views with no multi-attribute dependencies still need coverage.
        let attrs = rep.ftree().all_attrs();
        stats.add_relation(attrs, tuples);
        let restructured = Arc::new(Mutex::new(Restructured {
            budget: rep.data_bytes(),
            ..Restructured::default()
        }));
        let view = View {
            rep,
            tuples,
            stats,
            restructured,
        };
        self.views.insert(name.into(), view);
    }

    /// Registers a flat relation (factorised on demand as a sorted trie).
    pub fn register_relation(&mut self, name: impl Into<String>, rel: Relation) {
        self.register_relation_arc(name, Arc::new(rel));
    }

    /// Registers an [`Arc`]-shared flat relation without copying it.
    pub fn register_relation_arc(&mut self, name: impl Into<String>, rel: Arc<Relation>) {
        self.relations.insert(name.into(), rel);
    }

    /// Borrow of a registered view's factorisation.
    pub fn view(&self, name: &str) -> Option<&FRep> {
        self.views.get(name).map(|v| v.rep.as_ref())
    }

    /// Shared handle to a registered view's factorisation (the unit the
    /// serving layer hands to concurrent readers).
    pub fn view_arc(&self, name: &str) -> Option<Arc<FRep>> {
        self.views.get(name).map(|v| Arc::clone(&v.rep))
    }

    /// The tuple count a registered view was registered with.
    pub fn view_tuples(&self, name: &str) -> Option<usize> {
        self.views.get(name).map(|v| v.tuples)
    }

    /// The bytes the restructured copies kept for a registered view's
    /// version appended (at most the view's [`FRep::data_bytes`]).
    #[doc(hidden)]
    pub fn view_restructured_bytes(&self, name: &str) -> Option<usize> {
        self.views.get(name).map(|v| lock(&v.restructured).bytes)
    }

    /// Shared handle to a registered flat relation.
    pub fn relation_arc(&self, name: &str) -> Option<Arc<Relation>> {
        self.relations.get(name).map(Arc::clone)
    }

    /// Names of the registered factorised views (sorted).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of the registered flat relations (sorted).
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serialises a registered view (see [`crate::io`] for the format).
    pub fn save_view(&self, name: &str, w: impl std::io::Write) -> Result<()> {
        let rep = self
            .view(name)
            .ok_or_else(|| FdbError::Unresolved(format!("unknown view `{name}`")))?;
        crate::io::write_frep(rep, &self.catalog, w)
    }

    /// Loads a serialised view and registers it under `name`, re-interning
    /// attribute names into this engine's catalog.
    pub fn load_view(&mut self, name: impl Into<String>, r: impl std::io::BufRead) -> Result<()> {
        let rep = crate::io::read_frep(r, &mut self.catalog)?;
        self.register_view(name, rep);
        Ok(())
    }

    /// Schemas of all registered inputs (for the SQL front-end).
    pub fn schemas(&self) -> HashMap<String, Schema> {
        let mut out: HashMap<String, Schema> = self
            .relations
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect();
        for (k, v) in &self.views {
            out.insert(k.clone(), v.rep.schema());
        }
        out
    }

    /// Runs a task with default options (no deadline).
    pub fn run_default(&mut self, task: &JoinAggTask) -> Result<FdbResult> {
        self.run(task, RunOptions::default())
    }

    /// Parses and runs a SQL query in one step (default options).
    ///
    /// ```
    /// # use fdb_core::engine::FdbEngine;
    /// # use fdb_relational::{Catalog, Relation, Schema, Value};
    /// # let mut catalog = Catalog::new();
    /// # let item = catalog.intern("item");
    /// # let price = catalog.intern("price");
    /// # let items = Relation::from_rows(
    /// #     Schema::new(vec![item, price]),
    /// #     [("base", 6), ("ham", 1)].into_iter()
    /// #         .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
    /// # );
    /// # let mut engine = FdbEngine::new(catalog);
    /// # engine.register_relation("Items", items);
    /// let out = engine
    ///     .run_sql("SELECT SUM(price) AS total FROM Items")
    ///     .unwrap();
    /// assert_eq!(out.row(0)[0], Value::Int(7));
    /// ```
    pub fn run_sql(&mut self, sql: &str) -> Result<Relation> {
        self.run_sql_result(sql)?.to_relation()
    }

    /// Parses and runs a SQL query, returning the full [`FdbResult`]
    /// (default options) — unlike [`FdbEngine::run_sql`], SQL callers
    /// keep access to `explain()`, `exec_stats()`, `order_strategy()`
    /// and factorised (`FDB f/o`) output.
    pub fn run_sql_result(&mut self, sql: &str) -> Result<FdbResult> {
        self.run_sql_with(sql, RunOptions::default())
    }

    /// [`FdbEngine::run_sql_result`] with explicit [`RunOptions`].
    pub fn run_sql_with(&mut self, sql: &str, opts: RunOptions) -> Result<FdbResult> {
        let schemas = self.schemas();
        let query = fdb_query::parse(sql, &mut self.catalog, &schemas)
            .map_err(|e| FdbError::Unresolved(format!("SQL error: {e}")))?;
        self.run(&query.to_task(), opts)
    }

    /// Plans and executes `task` on factorised inputs.
    pub fn run(&mut self, task: &JoinAggTask, opts: RunOptions) -> Result<FdbResult> {
        self.run_by(task, opts.deadline_at(), None)
    }

    /// [`FdbEngine::run`] with the `ORDER BY` strategy pinned to `force`
    /// when it is feasible for `task` ([`crate::optim::OrderCostInputs::feasible`]);
    /// an infeasible choice runs the cost model's pick. The differential
    /// suites use it to hold every strategy to collect-sort-cut. It is
    /// not a [`RunOptions`] field, so the serving layer cannot reach it.
    #[doc(hidden)]
    pub fn run_forcing(
        &mut self,
        task: &JoinAggTask,
        opts: RunOptions,
        force: OrderStrategy,
    ) -> Result<FdbResult> {
        self.run_by(task, opts.deadline_at(), Some(force))
    }

    /// One run by the absolute deadline `deadline_at`: lower → choose →
    /// execute, or one such run per grouping set.
    fn run_by(
        &mut self,
        task: &JoinAggTask,
        deadline_at: Option<Instant>,
        force: Option<OrderStrategy>,
    ) -> Result<FdbResult> {
        if !task.grouping_sets.is_empty() {
            return self.run_grouping_sets(task, deadline_at);
        }
        check_deadline(deadline_at, "input assembly")?;
        let lowered = self.lower(task)?;
        check_deadline(deadline_at, "planning")?;
        let chosen = choose::choose(&lowered, task, &mut self.catalog, force)?;
        check_deadline(deadline_at, "plan execution")?;
        execute::execute(lowered, chosen, task, deadline_at)
    }

    /// GROUPING SETS (and its ROLLUP/CUBE sugar): one factorised run per
    /// grouping set, all by the one deadline. Each set's result stays
    /// factorised and emits in the output schema's layout, NULL in the
    /// group columns outside the set; the emitter chains the sets in set
    /// order. HAVING stays in the row filters and ORDER BY/LIMIT execute
    /// at enumeration, which mirrors the relational twin
    /// (`RdbEngine::run_grouping_sets`) row-for-row.
    fn run_grouping_sets(
        &mut self,
        task: &JoinAggTask,
        deadline_at: Option<Instant>,
    ) -> Result<FdbResult> {
        let schema = Schema::new(task.output_attrs());
        let mut sub = JoinAggTask {
            grouping_sets: Vec::new(),
            having: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: 0,
            ..task.clone()
        };
        let mut sets = Vec::with_capacity(task.grouping_sets.len());
        let mut exec_stats = ExecStats::default();
        for set in &task.grouping_sets {
            sub.group_by = set.clone();
            let mut result = self.run_by(&sub, deadline_at, None)?;
            let own = &result.schema;
            result.emit = (schema.attrs().iter())
                .map(|&a| own.position(a).map_or(EmitCol::Null, |i| result.emit[i]))
                .collect();
            result.schema = schema.clone();
            exec_stats.add(&result.exec_stats);
            sets.push((set.clone(), result));
        }
        let (_, last) = sets.last().expect("a grouping-sets task has a set");
        let (rep, plan, input_tree) = (
            Arc::clone(&last.rep),
            last.plan.clone(),
            last.input_tree.clone(),
        );
        let order_by = dedup_sort_keys(&task.order_by);
        let order_strategy = if order_by.is_empty() {
            OrderStrategy::Unordered
        } else {
            OrderStrategy::CollectSortCut
        };
        Ok(FdbResult {
            rep,
            kind: execute::ResultKind::Sets(sets),
            schema,
            emit: Vec::new(),
            order_by,
            order_strategy,
            row_filters: task.having.clone(),
            limit: task.limit,
            offset: task.offset,
            window: None,
            reused: false,
            plan,
            input_tree,
            exec_stats,
            deadline_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{AggFunc, AggSpec, CmpOp, Predicate, SortDir, SortKey, Value};

    /// Base relations of the running example (natural-join keys shared).
    fn engine() -> FdbEngine {
        let mut catalog = Catalog::new();
        let customer = catalog.intern("customer");
        let date = catalog.intern("date");
        let package = catalog.intern("package");
        let item = catalog.intern("item");
        let price = catalog.intern("price");
        let orders = Relation::from_rows(
            Schema::new(vec![customer, date, package]),
            [
                ("Mario", 1, "Capricciosa"),
                ("Mario", 2, "Margherita"),
                ("Pietro", 5, "Hawaii"),
                ("Lucia", 5, "Hawaii"),
                ("Mario", 5, "Capricciosa"),
            ]
            .into_iter()
            .map(|(c, d, p)| vec![Value::str(c), Value::Int(d), Value::str(p)]),
        );
        let packages = Relation::from_rows(
            Schema::new(vec![package, item]),
            [
                ("Margherita", "base"),
                ("Capricciosa", "base"),
                ("Capricciosa", "ham"),
                ("Capricciosa", "mushrooms"),
                ("Hawaii", "base"),
                ("Hawaii", "ham"),
                ("Hawaii", "pineapple"),
            ]
            .into_iter()
            .map(|(p, i)| vec![Value::str(p), Value::str(i)]),
        );
        let items = Relation::from_rows(
            Schema::new(vec![item, price]),
            [("base", 6), ("ham", 1), ("mushrooms", 1), ("pineapple", 2)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let mut e = FdbEngine::new(catalog);
        e.register_relation("Orders", orders);
        e.register_relation("Packages", packages);
        e.register_relation("Items", items);
        e
    }

    fn revenue_task(e: &mut FdbEngine) -> JoinAggTask {
        let customer = e.catalog.lookup("customer").unwrap();
        let price = e.catalog.lookup("price").unwrap();
        let revenue = e.catalog.intern("revenue");
        JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            group_by: vec![customer],
            aggregates: vec![AggSpec::new(AggFunc::Sum(price), revenue)],
            ..Default::default()
        }
    }

    #[test]
    fn revenue_per_customer_from_flat_inputs() {
        let mut e = engine();
        let task = revenue_task(&mut e);
        let result = e.run_default(&task).unwrap();
        let rel = result.to_relation().unwrap();
        let rows: Vec<(String, i64)> = rel
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                ("Lucia".to_string(), 9),
                ("Mario".to_string(), 22),
                ("Pietro".to_string(), 9)
            ]
        );
    }

    #[test]
    fn ordered_by_group_attribute_streams_sorted() {
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let customer = e.catalog.lookup("customer").unwrap();
        task.order_by = vec![SortKey::asc(customer)];
        let result = e.run_default(&task).unwrap();
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
        let rel = result.to_relation().unwrap();
        assert!(rel.is_sorted_by(&[SortKey::asc(customer)]));
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn ordered_by_aggregate_consolidates() {
        // Q7-style: ORDER BY revenue DESC.
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.order_by = vec![SortKey::desc(revenue)];
        let result = e.run_default(&task).unwrap();
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
        let rel = result.to_relation().unwrap();
        let revs: Vec<i64> = rel.rows().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(revs, vec![22, 9, 9]);
    }

    #[test]
    fn limit_with_order() {
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.order_by = vec![SortKey::desc(revenue)];
        task.limit = Some(1);
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0)[0], Value::str("Mario"));
    }

    #[test]
    fn having_filters_groups() {
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.having = vec![Predicate::AttrCmp(revenue, CmpOp::Gt, Value::Int(10))];
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0)[0], Value::str("Mario"));
    }

    #[test]
    fn avg_is_emitted_as_division() {
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let customer = e.catalog.lookup("customer").unwrap();
        let m = e.catalog.intern("mean_price");
        let task = JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            group_by: vec![customer],
            aggregates: vec![AggSpec::new(AggFunc::Avg(price), m)],
            order_by: vec![SortKey::asc(customer)],
            ..Default::default()
        };
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        // Lucia: (6+1+2)/3 = 3.0.
        assert_eq!(rel.row(0)[1], Value::Float(3.0));
    }

    #[test]
    fn count_and_min_max() {
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let package = e.catalog.lookup("package").unwrap();
        let n = e.catalog.intern("n_parts");
        let cheapest = e.catalog.intern("cheapest");
        let dearest = e.catalog.intern("dearest");
        let task = JoinAggTask {
            inputs: vec!["Packages".into(), "Items".into()],
            group_by: vec![package],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, n),
                AggSpec::new(AggFunc::Min(price), cheapest),
                AggSpec::new(AggFunc::Max(price), dearest),
            ],
            order_by: vec![SortKey::asc(package)],
            ..Default::default()
        };
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        let rows: Vec<(String, i64, i64, i64)> = rel
            .rows()
            .map(|r| {
                (
                    r[0].as_str().unwrap().to_string(),
                    r[1].as_int().unwrap(),
                    r[2].as_int().unwrap(),
                    r[3].as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Capricciosa".to_string(), 3, 1, 6),
                ("Hawaii".to_string(), 3, 1, 6),
                ("Margherita".to_string(), 1, 6, 6),
            ]
        );
    }

    #[test]
    fn spj_with_projection_and_order() {
        let mut e = engine();
        let package = e.catalog.lookup("package").unwrap();
        let item = e.catalog.lookup("item").unwrap();
        let task = JoinAggTask {
            inputs: vec!["Packages".into(), "Items".into()],
            projection: Some(vec![item, package]),
            order_by: vec![SortKey::asc(item), SortKey::asc(package)],
            limit: Some(4),
            ..Default::default()
        };
        let result = e.run_default(&task).unwrap();
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
        let rel = result.to_relation().unwrap();
        assert_eq!(rel.len(), 4);
        assert!(rel.is_sorted_by(&[SortKey::asc(item), SortKey::asc(package)]));
        assert_eq!(rel.row(0)[0], Value::str("base"));
    }

    #[test]
    fn where_predicates_are_applied() {
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let mut task = revenue_task(&mut e);
        task.predicates = vec![Predicate::AttrCmp(price, CmpOp::Le, Value::Int(2))];
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        let rows: Vec<(String, i64)> = rel
            .canonical()
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        // Cheap toppings only: Lucia 3, Mario 2·2=4, Pietro 3.
        assert_eq!(
            rows,
            vec![
                ("Lucia".to_string(), 3),
                ("Mario".to_string(), 4),
                ("Pietro".to_string(), 3)
            ]
        );
    }

    #[test]
    fn factorised_view_input() {
        // Materialise the join as a view (SPJ run), then aggregate on it.
        let mut e = engine();
        let spj = JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            ..Default::default()
        };
        let view = e.run_default(&spj).unwrap();
        let rep = view.rep().clone();
        let flat_count = rep.tuple_count();
        e.register_view("R", rep);
        let task = {
            let customer = e.catalog.lookup("customer").unwrap();
            let price = e.catalog.lookup("price").unwrap();
            let revenue2 = e.catalog.intern("revenue_view");
            JoinAggTask {
                inputs: vec!["R".into()],
                group_by: vec![customer],
                aggregates: vec![AggSpec::new(AggFunc::Sum(price), revenue2)],
                order_by: vec![SortKey::asc(customer)],
                ..Default::default()
            }
        };
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        let rows: Vec<(String, i64)> = rel
            .rows()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Lucia".to_string(), 9),
                ("Mario".to_string(), 22),
                ("Pietro".to_string(), 9)
            ]
        );
        assert_eq!(flat_count, 13);
    }

    #[test]
    fn descending_group_order() {
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let customer = e.catalog.lookup("customer").unwrap();
        task.order_by = vec![SortKey {
            attr: customer,
            dir: SortDir::Desc,
        }];
        let rel = e.run_default(&task).unwrap().to_relation().unwrap();
        let names: Vec<&str> = rel.rows().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["Pietro", "Mario", "Lucia"]);
    }

    #[test]
    fn explain_describes_plan_and_mode() {
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.order_by = vec![SortKey::desc(revenue)];
        task.limit = Some(2);
        let result = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::StreamInTree)
            .unwrap();
        assert!(!result.plan().is_empty());
        let text = result.explain(&e.catalog);
        let passes = result.exec_stats().stages;
        assert!(
            text.contains(&format!(
                "f-plan ({} operator(s), {passes} pass(es)):",
                result.plan().len()
            )),
            "{text}"
        );
        assert!(!text.contains("stages: "), "{text}");
        assert!(text.contains("intermediate bytes allocated"), "{text}");
        assert!(text.contains("result f-tree"), "{text}");
        assert!(
            text.contains("constant-delay streaming"),
            "Q7-style ordering is realised in-tree when streaming is forced: {text}"
        );
        assert!(text.contains("limit: 2"), "{text}");
        // The plan must mention the aggregation operator.
        assert!(text.contains("γ["), "{text}");
    }

    #[test]
    fn explain_names_the_executed_strategy() {
        // The ordering line must report what actually runs — never claim
        // constant-delay streaming for a heap or sort execution.
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.order_by = vec![SortKey::desc(revenue)];
        task.limit = Some(2);
        for (choice, needle) in [
            (OrderStrategy::HeapTopK, "heap top-k (k=2"),
            (OrderStrategy::CollectSortCut, "collect-sort-cut"),
        ] {
            let result = e.run_forcing(&task, RunOptions::new(), choice).unwrap();
            let text = result.explain(&e.catalog);
            assert!(text.contains(needle), "{choice:?}: {text}");
            assert!(
                !text.contains("constant-delay streaming"),
                "{choice:?} must not claim streaming: {text}"
            );
        }
        // A streamed order with residual row filters is not constant-delay
        // and the explain output must say so.
        let mut task = revenue_task(&mut e);
        let customer = e.catalog.lookup("customer").unwrap();
        let m = e.catalog.intern("m_avg");
        task.aggregates.push(AggSpec::new(
            AggFunc::Avg(e.catalog.lookup("price").unwrap()),
            m,
        ));
        task.order_by = vec![SortKey::asc(customer)];
        task.having = vec![Predicate::AttrCmp(m, CmpOp::Gt, Value::Float(0.0))];
        let result = e.run_default(&task).unwrap();
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
        let text = result.explain(&e.catalog);
        assert!(text.contains("row filter(s)"), "{text}");
        assert!(text.contains("delay not constant"), "{text}");
        assert!(!text.contains("constant-delay streaming"), "{text}");
    }

    #[test]
    fn force_direct_seeks_the_offset_page() {
        // Direct access must return exactly the sort-skip-cut page while
        // enumerating only the page itself — the skipped prefix is
        // seeked past, never emitted.
        let mut e = engine();
        let package = e.catalog.lookup("package").unwrap();
        let item = e.catalog.lookup("item").unwrap();
        let task = JoinAggTask {
            inputs: vec!["Packages".into(), "Items".into()],
            projection: Some(vec![item, package]),
            order_by: vec![SortKey::asc(item), SortKey::asc(package)],
            limit: Some(3),
            offset: 2,
            ..Default::default()
        };
        let direct = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::DirectAccess)
            .unwrap();
        assert_eq!(direct.order_strategy(), OrderStrategy::DirectAccess);
        let (rows, stats) = direct.to_relation_counted().unwrap();
        let reference = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::CollectSortCut)
            .unwrap()
            .to_relation()
            .unwrap();
        assert_eq!(rows, reference);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            stats.rows_enumerated, 3,
            "direct access must not enumerate the skipped prefix"
        );
        let text = direct.explain(&e.catalog);
        assert!(
            text.contains("direct access (offset=2, seeks=d·log f"),
            "{text}"
        );
        assert!(text.contains("offset: 2"), "{text}");
        // A past-the-end offset yields an empty page, not an error.
        let mut deep = task.clone();
        deep.offset = 10_000;
        let rel = e
            .run_forcing(&deep, RunOptions::new(), OrderStrategy::DirectAccess)
            .unwrap()
            .to_relation()
            .unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn offset_widens_the_heap_and_explains_mk() {
        // ORDER BY revenue DESC LIMIT 1 OFFSET 1 on a forced heap: the
        // heap holds m+k rows, the first m are dropped, and the explain
        // output names the (m+k)-heap — never constant delay.
        let mut e = engine();
        let mut task = revenue_task(&mut e);
        let revenue = e.catalog.lookup("revenue").unwrap();
        task.order_by = vec![SortKey::desc(revenue)];
        task.limit = Some(1);
        task.offset = 1;
        let heap = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::HeapTopK)
            .unwrap();
        assert_eq!(heap.order_strategy(), OrderStrategy::HeapTopK);
        let (rows, stats) = heap.to_relation_counted().unwrap();
        let reference = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::CollectSortCut)
            .unwrap()
            .to_relation()
            .unwrap();
        assert_eq!(rows, reference);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.row(0)[1], Value::Int(9));
        // The heap saw every group, not just the page.
        assert_eq!(stats.rows_enumerated, 3);
        let text = heap.explain(&e.catalog);
        assert!(text.contains("(m+k)-heap (m=1, k=1"), "{text}");
        assert!(!text.contains("constant-delay"), "{text}");
    }

    #[test]
    fn direct_degrades_when_row_filters_or_grouping_block_the_seek() {
        // Residual row filters make the count annotations unusable (they
        // count unfiltered tuples), and grouped on-the-fly evaluation has
        // no tuple cursor: direct access is infeasible for both, so a
        // forced seek runs what the cost model picks — here the stream —
        // and the explain output claims no seek. An order on the group
        // column alone leaves the aggregate unconsolidated (grouped). An order on the group
        // column alone leaves the aggregate unconsolidated (grouped).
        let mut e = engine();
        let customer = e.catalog.lookup("customer").unwrap();
        let m = e.catalog.intern("m_direct");
        let mut filtered = revenue_task(&mut e);
        filtered.aggregates.push(AggSpec::new(
            AggFunc::Avg(e.catalog.lookup("price").unwrap()),
            m,
        ));
        filtered.order_by = vec![SortKey::asc(customer)];
        filtered.having = vec![Predicate::AttrCmp(m, CmpOp::Gt, Value::Float(0.0))];
        filtered.offset = 1;
        let mut grouped = revenue_task(&mut e);
        grouped.order_by = vec![SortKey::asc(customer)];
        grouped.offset = 1;
        let opts = RunOptions::new();
        for task in [&filtered, &grouped] {
            let result = e
                .run_forcing(task, opts, OrderStrategy::DirectAccess)
                .unwrap();
            assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
            assert!(!result.explain(&e.catalog).contains("direct access"));
            let out = result.to_relation().unwrap();
            let reference = e
                .run_forcing(task, opts, OrderStrategy::CollectSortCut)
                .unwrap()
                .to_relation()
                .unwrap();
            assert_eq!(out, reference);
            assert_eq!(out.len(), 2);
            assert!(out.is_sorted_by(&[SortKey::asc(customer)]));
        }
    }

    #[test]
    fn a_forced_infeasible_choice_runs_the_choosers_pick() {
        // Outside its feasible set a forced choice is ignored: the run is
        // the cost model's, strategy and rows alike, and the rows are the
        // collect-sort-cut rows.
        let mut e = engine();
        let customer = e.catalog.lookup("customer").unwrap();
        let price = e.catalog.lookup("price").unwrap();
        let m = e.catalog.intern("m_infeasible");
        let mut realisable = revenue_task(&mut e);
        realisable.order_by = vec![SortKey::asc(customer)];
        let mut by_avg = realisable.clone();
        by_avg.aggregates = vec![AggSpec::new(AggFunc::Avg(price), m)];
        by_avg.order_by = vec![SortKey::desc(m), SortKey::asc(customer)];
        let mut having = realisable.clone();
        having.having = vec![Predicate::AttrCmp(
            e.catalog.lookup("revenue").unwrap(),
            CmpOp::Gt,
            Value::Int(0),
        )];
        having.offset = 1;
        let cases = [
            // No LIMIT: the heap is infeasible; the chooser streams a
            // realisable order and sorts the rest.
            (&realisable, OrderStrategy::HeapTopK, "heap, realisable"),
            (&by_avg, OrderStrategy::HeapTopK, "heap, by avg"),
            // Direct access under a HAVING (even one pushed into the
            // factorisation) or at OFFSET 0; grouped output is
            // `direct_degrades_when_row_filters_or_grouping_block_the_seek`.
            (&having, OrderStrategy::DirectAccess, "direct, having"),
            (&realisable, OrderStrategy::DirectAccess, "direct, offset 0"),
            // No realising plan: streaming is infeasible.
            (&by_avg, OrderStrategy::StreamInTree, "stream, by avg"),
        ];
        let opts = RunOptions::new();
        for (task, choice, label) in cases {
            let forced = e.run_forcing(task, opts, choice).unwrap();
            let auto = e.run(task, opts).unwrap();
            assert_eq!(forced.order_strategy(), auto.order_strategy(), "{label}");
            let sorted = e
                .run_forcing(task, opts, OrderStrategy::CollectSortCut)
                .unwrap();
            let rows = forced.to_relation().unwrap();
            assert_eq!(rows, auto.to_relation().unwrap(), "{label}");
            assert_eq!(rows, sorted.to_relation().unwrap(), "{label}");
        }
    }

    #[test]
    fn direct_access_over_saturated_counts_streams_past_the_offset() {
        // More than u64::MAX tuples: the seek cannot land, so the page
        // streams past its offset — the streamed page, polled as it goes.
        let (catalog, rep) = crate::enumerate::tests::saturated_rep();
        let mut e = FdbEngine::new(catalog);
        e.register_view("V", rep);
        let sql = "SELECT a, b0, b1, b2, b3, b4, b5, b6 FROM V \
                   ORDER BY a DESC, b0, b1, b2, b3, b4, b5, b6 LIMIT 3 OFFSET 4";
        let schemas = e.schemas();
        let task = fdb_query::parse(sql, &mut e.catalog, &schemas)
            .unwrap()
            .to_task();
        let direct = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::DirectAccess)
            .unwrap();
        assert_eq!(direct.order_strategy(), OrderStrategy::DirectAccess);
        let (rows, stats) = direct.to_relation_counted().unwrap();
        let stream = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::StreamInTree)
            .unwrap();
        assert_eq!(stream.order_strategy(), OrderStrategy::StreamInTree);
        assert_eq!(rows, stream.to_relation().unwrap());
        let firsts: Vec<i64> = rows.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(firsts, vec![3, 2, 2]);
        assert_eq!(stats.rows_enumerated, 7);
    }

    #[test]
    fn auto_prices_offset_pages_and_stays_correct() {
        // Auto with OFFSET (with and without LIMIT) must return the
        // sort-skip-cut page whatever strategy the cost model picks.
        let mut e = engine();
        let package = e.catalog.lookup("package").unwrap();
        let item = e.catalog.lookup("item").unwrap();
        for (limit, offset) in [(Some(2), 3), (None, 3), (Some(2), 0), (None, 10_000)] {
            let task = JoinAggTask {
                inputs: vec!["Packages".into(), "Items".into()],
                projection: Some(vec![item, package]),
                order_by: vec![SortKey::asc(item), SortKey::asc(package)],
                limit,
                offset,
                ..Default::default()
            };
            let auto = e.run_default(&task).unwrap();
            let rows = auto.to_relation().unwrap();
            let reference = e
                .run_forcing(&task, RunOptions::new(), OrderStrategy::CollectSortCut)
                .unwrap()
                .to_relation()
                .unwrap();
            assert_eq!(rows, reference, "limit {limit:?} offset {offset}");
        }
    }

    #[test]
    fn auto_picks_heap_for_unrealisable_order_with_limit() {
        // ORDER BY avg LIMIT 1: Theorem 2 can never hold (a derived
        // division column); with a LIMIT the cost model must pick the
        // bounded heap over collect-sort-cut — and the rows agree.
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let customer = e.catalog.lookup("customer").unwrap();
        let m = e.catalog.intern("mean_topk");
        let task = JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            group_by: vec![customer],
            aggregates: vec![AggSpec::new(AggFunc::Avg(price), m)],
            order_by: vec![SortKey::desc(m)],
            limit: Some(1),
            ..Default::default()
        };
        let auto = e.run_default(&task).unwrap();
        assert_eq!(auto.order_strategy(), OrderStrategy::HeapTopK);
        let (rows, stats) = auto.to_relation_counted().unwrap();
        assert_eq!(stats.strategy, OrderStrategy::HeapTopK);
        assert!(stats.order_bytes > 0);
        let sorted = e
            .run_forcing(&task, RunOptions::new(), OrderStrategy::CollectSortCut)
            .unwrap()
            .to_relation()
            .unwrap();
        assert_eq!(rows, sorted);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn run_reports_exec_stats() {
        let mut e = engine();
        let task = revenue_task(&mut e);
        let first = e.run(&task, RunOptions::default()).unwrap();
        let s = first.exec_stats();
        assert!(
            s.operators >= 2,
            "revenue plan is no longer multi-operator; revisit this test"
        );
        assert_eq!(s.operators, first.plan().len());
        // One pass per operator but for runs of consecutive selections.
        let ops = &first.plan().ops;
        let selection_joins = ops.windows(2).filter(|w| {
            w.iter()
                .all(|op| matches!(op, crate::plan::FOp::SelectConst { .. }))
        });
        assert_eq!(s.stages, s.operators - selection_joins.count());
        assert!(s.copies_avoided > 0);
        assert!(s.intermediate_bytes > 0);
        // A second run builds the same factorisation and reports the same.
        let again = e.run(&task, RunOptions::default()).unwrap();
        assert!(again.rep().same_data(first.rep()));
        assert_eq!(again.exec_stats(), s);
        assert_eq!(again.to_relation().unwrap(), first.to_relation().unwrap());
    }

    #[test]
    fn grouping_sets_report_and_explain_every_set() {
        // A ROLLUP's execution report is the sum of its sets' single-set
        // runs, and its explain output names every set with its plan.
        let mut e = engine();
        let rollup = e
            .run_sql_result(
                "SELECT customer, package, SUM(price) AS revenue \
                 FROM Orders, Packages, Items GROUP BY ROLLUP (customer, package)",
            )
            .unwrap();
        let mut want = ExecStats::default();
        let mut operators = Vec::new();
        for group in ["customer, package", "customer", ""] {
            let by = if group.is_empty() {
                String::new()
            } else {
                format!(" GROUP BY {group}")
            };
            let sql = format!(
                "SELECT {group}{} SUM(price) AS revenue FROM Orders, Packages, Items{by}",
                if group.is_empty() { "" } else { "," }
            );
            let single = e.run_sql_result(&sql).unwrap();
            want.add(&single.exec_stats());
            operators.push(single.plan().len());
        }
        assert_eq!(rollup.exec_stats(), want);
        assert!(want.intermediate_bytes > 0);
        let text = rollup.explain(&e.catalog);
        for (i, set) in ["customer, package", "customer", ""].iter().enumerate() {
            let head = format!(
                "grouping set {} of 3 ({set}):\nf-plan ({} operator(s)",
                i + 1,
                operators[i]
            );
            assert!(text.contains(&head), "{head}\n{text}");
        }
        assert!(text.contains("grouping sets: 3 set(s)"), "{text}");
    }

    #[test]
    fn zero_deadline_fails_deterministically() {
        // A zero budget must be cut at the first checkpoint — before any
        // planning work — with the dedicated error, not a wrong result.
        let mut e = engine();
        let task = revenue_task(&mut e);
        let err = e
            .run(
                &task,
                RunOptions::new().deadline(Some(std::time::Duration::ZERO)),
            )
            .unwrap_err();
        assert!(matches!(err, FdbError::DeadlineExceeded(_)), "{err}");
        // Without a deadline the same task runs to completion.
        assert!(e.run(&task, RunOptions::new().deadline(None)).is_ok());
    }

    #[test]
    fn grouping_sets_spend_one_deadline() {
        // A ROLLUP runs the engine once per set. Every set, and the
        // enumeration, spend the one budget that started when the run was
        // entered, not a fresh budget per set.
        let mut e = engine();
        let sql = "SELECT customer, package, COUNT(*) AS n FROM Orders \
                   GROUP BY ROLLUP (customer, package)";
        let schemas = e.schemas();
        let task = fdb_query::parse(sql, &mut e.catalog, &schemas)
            .unwrap()
            .to_task();
        let budget = std::time::Duration::from_secs(10);
        let at = Instant::now() + budget;
        let result = e.run_grouping_sets(&task, Some(at)).unwrap();
        assert_eq!(result.deadline_at, Some(at));
        assert_eq!(result.to_relation().unwrap().len(), 4 + 3 + 1);
        // Through the entry point the budget starts before the first set
        // runs: nearer the start of the call than its end.
        let before = Instant::now();
        let result = e.run(&task, RunOptions::new().deadline(Some(budget)));
        let took = before.elapsed();
        let started = result.unwrap().deadline_at.unwrap() - budget;
        assert!(started >= before && started - before < took / 2);
    }

    #[test]
    fn deadline_cuts_enumeration_of_a_finished_run() {
        // The absolute deadline rides on the result: a run that finishes
        // planning in time but whose enumeration starts after expiry is
        // cut during `to_relation`.
        let mut e = engine();
        let task = revenue_task(&mut e);
        let result = e
            .run(
                &task,
                RunOptions::new().deadline(Some(std::time::Duration::from_millis(30))),
            )
            .expect("small plan beats a 30 ms budget");
        std::thread::sleep(std::time::Duration::from_millis(40));
        let err = result.to_relation().unwrap_err();
        assert!(matches!(err, FdbError::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn run_sql_result_exposes_explain_and_stats() {
        let mut e = engine();
        let result = e
            .run_sql_result(
                "SELECT customer, SUM(price) AS revenue \
                 FROM Orders, Packages, Items \
                 GROUP BY customer ORDER BY revenue DESC LIMIT 2",
            )
            .unwrap();
        let text = result.explain(&e.catalog);
        assert!(text.contains("f-plan"), "{text}");
        assert!(result.exec_stats().operators > 0);
        let rel = result.to_relation().unwrap();
        assert_eq!(rel.len(), 2);
        // `run_sql` routes through the same path.
        let rows = e
            .run_sql(
                "SELECT customer, SUM(price) AS revenue \
                 FROM Orders, Packages, Items \
                 GROUP BY customer ORDER BY revenue DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(rel, rows);
    }

    #[test]
    fn cloned_engines_share_views_and_agree() {
        // Engine clones share Arc'd inputs: both run the same query and
        // agree byte-for-byte, and the view arena is not duplicated.
        let mut e = engine();
        let spj = JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            ..Default::default()
        };
        let rep = e.run_default(&spj).unwrap().rep().clone();
        e.register_view("V", rep);
        let mut clone = e.clone();
        assert!(Arc::ptr_eq(
            &e.view_arc("V").unwrap(),
            &clone.view_arc("V").unwrap()
        ));
        let sql = "SELECT customer, SUM(price) AS r FROM V GROUP BY customer ORDER BY customer";
        let a = e.run_sql(sql).unwrap();
        let b = clone.run_sql(sql).unwrap();
        assert_eq!(a, b);
    }

    /// The pizzeria's join as the view `R` over the f-tree T1 (Figure 1).
    fn pizzeria_view() -> FdbEngine {
        use crate::ftree::{FTree, NodeLabel};
        let mut catalog = Catalog::new();
        let db = fdb_workload::pizzeria(&mut catalog);
        let a = db.attrs;
        let join = fdb_relational::ops::hash_join(&db.orders, &db.pizzas);
        let join = fdb_relational::ops::hash_join(&join, &db.items);
        let mut t1 = FTree::new();
        let pizza = t1.add_node(NodeLabel::Atomic(vec![a.pizza]), None);
        let date = t1.add_node(NodeLabel::Atomic(vec![a.date]), Some(pizza));
        t1.add_node(NodeLabel::Atomic(vec![a.customer]), Some(date));
        let item = t1.add_node(NodeLabel::Atomic(vec![a.item]), Some(pizza));
        t1.add_node(NodeLabel::Atomic(vec![a.price]), Some(item));
        let mut e = FdbEngine::new(catalog);
        e.register_view("R", FRep::from_relation(&join, t1).unwrap());
        e
    }

    /// `sql`'s result on `e`, and its rows as `(customer, s, n…)` with
    /// every integer column after the first.
    fn run_rows(e: &mut FdbEngine, sql: &str) -> (FdbResult, Vec<(String, Vec<i64>)>) {
        let result = e.run_sql_result(sql).unwrap();
        let rel = result.to_relation().unwrap();
        let row = |r: &[Value]| {
            let ints = r[1..].iter().map(|v| v.as_int().unwrap()).collect();
            (r[0].as_str().unwrap().to_string(), ints)
        };
        let rows = rel.rows().map(row).collect();
        (result, rows)
    }

    #[test]
    fn pushed_having_selections_join_the_plan_and_its_report() {
        let mut e = pizzeria_view();
        let sql = "SELECT customer, SUM(price) AS s FROM R GROUP BY customer HAVING s > 9";
        let (result, rows) = run_rows(&mut e, sql);
        assert_eq!(rows, [("Mario".to_string(), vec![22])]);
        let ops = &result.plan().ops;
        assert!(
            matches!(ops.last(), Some(FOp::SelectConst { .. })),
            "{ops:?}"
        );
        // The selection is an operator and a pass of its own.
        let stats = result.exec_stats();
        assert_eq!((stats.operators, stats.stages), (ops.len(), ops.len()));
        let text = result.explain(&e.catalog);
        let header = format!("f-plan ({0} operator(s), {0} pass(es)):", ops.len());
        assert!(
            text.contains(&header) && text.contains("select s > 9"),
            "{text}"
        );
    }

    #[test]
    fn having_on_a_group_attribute_alone_keeps_the_aggregates_partial() {
        let mut e = pizzeria_view();
        let sql = "SELECT customer, SUM(price) AS s FROM R GROUP BY customer \
                   HAVING customer > 'M' ORDER BY customer";
        let (result, rows) = run_rows(&mut e, sql);
        let expected = [("Mario", 22), ("Pietro", 9)].map(|(c, s)| (c.to_string(), vec![s]));
        assert_eq!(rows, expected);
        let text = result.explain(&e.catalog);
        assert!(text.contains("output mode: grouped"), "{text}");
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
    }

    /// `ORDER BY n` over the composite node `(s, n)` a consolidation
    /// would build cannot stream: the plan is the fold alone, and the
    /// order is left to a sort or a heap. `ORDER BY s, n` is the node's
    /// tuple order and streams.
    #[test]
    fn an_order_a_composite_node_cannot_realise_is_not_planned_into_the_tree() {
        let mut e = pizzeria_view();
        let select = "SELECT customer, SUM(price) AS s, COUNT(*) AS n FROM R GROUP BY customer";
        // The node `γ` gives `(s, n)` sorts by that tuple: an order that
        // leaves its outputs (`n`), breaks their tie by another key
        // before the last output (`s, customer`), or turns direction
        // between them (`s DESC, n`) is not planned into the tree.
        for (order, strategy, counts) in [
            ("ORDER BY n", OrderStrategy::CollectSortCut, vec![3, 3, 7]),
            (
                "ORDER BY n DESC, s LIMIT 2 OFFSET 1",
                OrderStrategy::HeapTopK,
                vec![3, 3],
            ),
            (
                "ORDER BY s, customer",
                OrderStrategy::CollectSortCut,
                vec![3, 3, 7],
            ),
            (
                "ORDER BY s DESC, n",
                OrderStrategy::CollectSortCut,
                vec![7, 3, 3],
            ),
        ] {
            let (result, rows) = run_rows(&mut e, &format!("{select} {order}"));
            let ops = &result.plan().ops;
            assert!(
                matches!(ops[..], [FOp::GroupFold { .. }]),
                "{order}: {ops:?}"
            );
            assert_eq!(result.order_strategy(), strategy, "{order}");
            let n: Vec<i64> = rows.iter().map(|(_, ints)| ints[1]).collect();
            assert_eq!(n, counts, "{order}: {rows:?}");
        }
        let (result, _) = run_rows(&mut e, &format!("{select} ORDER BY s, n"));
        assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
        // Its outputs in order, then the group key: a page streams or
        // seeks in the tree.
        let sql = format!("{select} ORDER BY s, n, customer LIMIT 2 OFFSET 1");
        let (result, rows) = run_rows(&mut e, &sql);
        assert!(
            matches!(
                result.order_strategy(),
                OrderStrategy::StreamInTree | OrderStrategy::DirectAccess
            ),
            "{:?}",
            result.order_strategy()
        );
        let expected = [("Pietro", vec![9, 3]), ("Mario", vec![22, 7])];
        assert_eq!(rows, expected.map(|(c, v)| (c.to_string(), v)));
    }

    #[test]
    fn explain_reports_sort_fallback_for_avg_order() {
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let customer = e.catalog.lookup("customer").unwrap();
        let m = e.catalog.intern("m");
        let task = JoinAggTask {
            inputs: vec!["Orders".into(), "Packages".into(), "Items".into()],
            group_by: vec![customer],
            aggregates: vec![AggSpec::new(AggFunc::Avg(price), m)],
            order_by: vec![SortKey::desc(m)],
            ..Default::default()
        };
        let result = e.run_default(&task).unwrap();
        assert_eq!(result.order_strategy(), OrderStrategy::CollectSortCut);
        let text = result.explain(&e.catalog);
        assert!(text.contains("collect-sort-cut"), "{text}");
    }
}
