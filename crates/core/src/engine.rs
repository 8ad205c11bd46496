//! The FDB query engine: plans and executes join-aggregate-order tasks on
//! factorised data.
//!
//! The engine owns a catalog, registered **factorised views** (read-
//! optimised inputs, the paper's main scenario) and **flat relations**
//! (factorised on the fly as sorted tries). A [`JoinAggTask`] — the same
//! logical task the relational baselines execute — runs through:
//!
//! 1. input assembly: per-relation tries, `product`, natural-join equality
//!    selections (with attribute shadowing for name collisions);
//! 2. optimisation: the greedy heuristic compiles the task into an f-plan
//!    of selections, swaps and partial aggregation operators (§5.2),
//!    consolidating the aggregate into one node only when HAVING or
//!    ORDER BY needs it as a node (step 7);
//! 3. execution of the f-plan on the factorisation;
//! 4. output: either the result factorisation (`FDB f/o` in the
//!    experiments) or tuple enumeration (`FDB`) — ordered with constant
//!    delay when Theorems 1/2 apply, with `HAVING` filters and `LIMIT`
//!    applied during enumeration.

use crate::enumerate::EnumSpec;
use crate::error::{FdbError, Result};
use crate::frep::FRep;
use crate::ftree::{AggOp, FTree};
use crate::optim::ordering::{
    choose_order_strategy, estimate_rows, is_page, plan_cost, OrderChoice, OrderCostInputs,
};
use crate::optim::{greedy, QuerySpec, Stats};
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{
    dedup_sort_keys, AggFunc, AttrId, Catalog, Predicate, Relation, Schema, SortKey, Value,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

mod emit;

/// How often the enumeration sinks poll the deadline clock (rows
/// between checks). Coarse enough to stay invisible in the profile,
/// fine enough that a wedged enumeration is cut within microseconds.
const DEADLINE_CHECK_EVERY: usize = 1024;

/// The physical ordering strategy a result executes — chosen by cost
/// among the feasible ones at plan time ([`crate::optim::ordering`]),
/// reported by [`FdbResult::explain`], dispatched on by
/// [`FdbResult::to_relation`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderStrategy {
    /// No `ORDER BY`: enumeration order is unspecified; `LIMIT` cuts the
    /// stream early.
    #[default]
    Unordered,
    /// The factorisation realises the order (after any planned swaps):
    /// enumeration streams sorted, `LIMIT` stops it early (Theorem 2);
    /// an `OFFSET` enumerates-and-discards its prefix.
    StreamInTree,
    /// The factorisation realises the order *and* the result carries
    /// subtree-count annotations: seek straight to the `OFFSET`-th
    /// tuple in `O(depth · log fanout)` comparisons, then stream the
    /// page with constant delay — the skipped prefix is never
    /// enumerated ([`crate::enumerate::DirectCursor`]).
    DirectAccess,
    /// Bounded-heap top-k ([`crate::topk`]): one unordered enumeration
    /// pass through a size-`k` heap — `O(k·row)` auxiliary memory,
    /// independent of the flat result size.
    HeapTopK {
        /// The `LIMIT`.
        k: usize,
    },
    /// Full enumeration into a flat relation, stable sort, truncate.
    CollectSortCut,
}

/// Report of one enumeration pass ([`FdbResult::to_relation_counted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderRunStats {
    /// The strategy that executed.
    pub strategy: OrderStrategy,
    /// Rows that passed the row filters and reached the ordering stage
    /// (for streamed strategies: rows emitted).
    pub rows_enumerated: usize,
    /// Peak bytes of ordering-side auxiliary state — the heap payload for
    /// top-k, the materialised buffer for collect-sort-cut, zero for the
    /// streamed strategies. Size-based, like [`FRep::data_bytes`], so the
    /// perf gate can hold it to a tight ratio.
    pub order_bytes: usize,
}

/// Options for [`FdbEngine::run`].
///
/// Every run plans with the greedy heuristic, consolidates the aggregate
/// exactly when HAVING or ORDER BY needs it as a node, and executes its
/// f-plan through the one staged pipeline executor
/// ([`crate::pipeline::execute`]) on the calling thread. The options
/// only bound how long the run may take. How `ORDER BY` is realised is
/// the cost model's choice, not an option ([`OrderStrategy`]).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::new`] (or [`RunOptions::default`]) and the builder
/// methods, so future knobs (cache policy, …) are not breaking changes
/// for downstream callers:
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
    /// budget starts when [`FdbEngine::run`] is entered; the result's
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

    /// Kept for callers outside the workspace; returns `self` unchanged.
    /// The thread count is ignored: a run executes on the calling thread.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }
}

/// One planned ordering candidate: the plan, whether it realises the
/// order in-tree, the realisable key prefix and the consolidation choice
/// that survived planning.
#[derive(Clone)]
struct OrderCandidate {
    tree_keys: Vec<SortKey>,
    realised: bool,
    plan: crate::plan::FPlan,
    consolidate: bool,
}

/// How one output column is produced from the enumerated raw columns.
#[derive(Clone, Debug)]
enum EmitCol {
    /// Copy a raw attribute.
    Raw(AttrId),
    /// `num / den` as a float — finalises `avg = (sum, count)` (§3.2.4).
    Div { num: AttrId, den: AttrId },
}

/// Result shape.
#[derive(Clone, Debug)]
enum ResultKind {
    /// Select-project-join: enumerate and project.
    Spj,
    /// Aggregates consolidated into named nodes: enumerate directly.
    AggConsolidated,
    /// Aggregates left as partial leaves: walk groups, evaluate on the fly
    /// (scenario 3 of the introduction).
    AggGrouped {
        group_attrs: Vec<AttrId>,
        final_funcs: Vec<AggOp>,
        func_outputs: Vec<AttrId>,
    },
    /// GROUPING SETS: the concatenation of the per-set runs, already
    /// padded to the output schema. Rows stream as-is; HAVING stays in
    /// the row filters and ordering/limit run at enumeration.
    Materialised(Relation),
}

/// A query result: the factorisation plus everything needed to emit flat
/// tuples (`FDB` mode) or keep it factorised (`FDB f/o` mode).
#[derive(Clone, Debug)]
pub struct FdbResult {
    rep: FRep,
    kind: ResultKind,
    /// Final output columns, in declared order.
    output_attrs: Vec<AttrId>,
    emit: Vec<(EmitCol, AttrId)>,
    /// Normalised (first-occurrence-deduplicated) order keys.
    order_by: Vec<SortKey>,
    /// The physical ordering strategy that executes: the cheapest
    /// feasible one, verified once against the result's f-tree.
    order_strategy: OrderStrategy,
    /// HAVING conjuncts evaluated per output row (those not already pushed
    /// into the factorisation as selections).
    row_filters: Vec<Predicate>,
    limit: Option<usize>,
    /// OFFSET m: rows of the ordered output skipped before the first
    /// returned row (`0` = none).
    offset: usize,
    /// The executed f-plan (for EXPLAIN-style introspection).
    plan: crate::plan::FPlan,
    /// The f-tree the plan ran on: `explain` simulates the plan on it
    /// to name the nodes each operator touches.
    input_tree: FTree,
    /// Execution report of the f-plan run (stages, intermediate
    /// bytes, copies avoided), including the HAVING push-down.
    exec_stats: crate::pipeline::ExecStats,
    /// Absolute deadline carried over from the producing run
    /// ([`RunOptions::deadline`]): enumeration honours the same
    /// wall-clock budget as planning and execution did.
    deadline_at: Option<Instant>,
}

impl FdbResult {
    /// The result factorisation (`FDB f/o`).
    pub fn rep(&self) -> &FRep {
        &self.rep
    }

    /// Size of the factorised result in singletons.
    pub fn singleton_count(&self) -> usize {
        self.rep.singleton_count()
    }

    /// Output schema (declared column order).
    pub fn output_attrs(&self) -> &[AttrId] {
        &self.output_attrs
    }

    /// True when ORDER BY is realised by the factorisation itself (no
    /// sorting needed at enumeration).
    pub fn order_supported_in_tree(&self) -> bool {
        matches!(self.order_strategy, OrderStrategy::StreamInTree)
    }

    /// The physical ordering strategy this result executes.
    pub fn order_strategy(&self) -> OrderStrategy {
        self.order_strategy
    }

    /// The f-plan that produced this result.
    pub fn plan(&self) -> &crate::plan::FPlan {
        &self.plan
    }

    /// Execution report of the f-plan run: stage count, intermediate
    /// bytes allocated, fragments shared instead of copied.
    pub fn exec_stats(&self) -> crate::pipeline::ExecStats {
        self.exec_stats
    }

    /// EXPLAIN-style rendering: the executed f-plan with its stage
    /// grouping, the result f-tree, the output mode, and how
    /// ordering/limits are realised.
    pub fn explain(&self, catalog: &Catalog) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "f-plan ({} operator(s), {} stage(s)):",
            self.plan.len(),
            self.exec_stats.stages
        );
        out.push_str(&self.plan.display(catalog, &self.input_tree));
        if !self.plan.is_empty() {
            let stages = crate::pipeline::segment(&self.plan);
            let _ = writeln!(out, "stages: {}", crate::pipeline::render_stages(&stages));
        }
        let _ = writeln!(
            out,
            "execution: intermediate bytes allocated {}, fragment copies avoided {}{}",
            self.exec_stats.intermediate_bytes,
            self.exec_stats.copies_avoided,
            if self.exec_stats.compacted {
                ", compacted"
            } else {
                ""
            }
        );
        let _ = writeln!(out, "result f-tree:");
        out.push_str(&self.rep.ftree().display(catalog));
        let mode = match &self.kind {
            ResultKind::Spj => "select-project-join (enumerate + project)".to_string(),
            ResultKind::AggConsolidated => "aggregates consolidated into named nodes".to_string(),
            ResultKind::AggGrouped { final_funcs, .. } => format!(
                "grouped: {} aggregate(s) evaluated on the fly per group",
                final_funcs.len()
            ),
            ResultKind::Materialised(rel) => format!(
                "grouping sets: {} concatenated row(s), NULL-padded to the output schema",
                rel.len()
            ),
        };
        let _ = writeln!(out, "output mode: {mode}");
        // Name the strategy that actually executes — never claim
        // constant-delay streaming when row filters stretch the delay or
        // when a sort/heap pass produces the limit.
        let ordering = match self.order_strategy {
            OrderStrategy::Unordered => "none".to_string(),
            OrderStrategy::StreamInTree if self.row_filters.is_empty() => {
                "realised by the factorisation (constant-delay streaming)".to_string()
            }
            OrderStrategy::StreamInTree => format!(
                "realised by the factorisation (streamed; {} row filter(s), \
                 delay not constant)",
                self.row_filters.len()
            ),
            OrderStrategy::DirectAccess => format!(
                "direct access (offset={}, seeks=d·log f; count-annotated \
                 seek past the skipped prefix, then constant-delay \
                 streaming)",
                self.offset
            ),
            OrderStrategy::HeapTopK { k } if self.offset > 0 => format!(
                "(m+k)-heap (m={}, k={k}; bounded heap of m+k rows over the \
                 unrestructured enumeration, first m dropped)",
                self.offset
            ),
            OrderStrategy::HeapTopK { k } => format!(
                "heap top-k (k={k}; bounded heap over the unrestructured \
                 enumeration, no full materialisation)"
            ),
            OrderStrategy::CollectSortCut => {
                "collect-sort-cut (full materialisation, then sort".to_string()
                    + &match (self.offset, self.limit) {
                        (0, Some(k)) => format!(", truncate to {k})"),
                        (0, None) => ")".to_string(),
                        (m, Some(k)) => format!(", cut rows {m}..{})", m + k),
                        (m, None) => format!(", skip {m})"),
                    }
            }
        };
        let _ = writeln!(out, "ordering: {ordering}");
        if let Some(k) = self.limit {
            let _ = writeln!(out, "limit: {k}");
        }
        if self.offset > 0 {
            let _ = writeln!(out, "offset: {}", self.offset);
        }
        if !self.row_filters.is_empty() {
            let _ = writeln!(out, "row filters: {}", self.row_filters.len());
        }
        out
    }
}

/// Cheap periodic deadline clock: polls [`Instant::now`] once every
/// [`DEADLINE_CHECK_EVERY`] calls (and on the very first call, so a
/// zero budget fails deterministically before any row is emitted).
struct DeadlinePoll {
    at: Option<Instant>,
    calls: usize,
}

impl DeadlinePoll {
    fn new(at: Option<Instant>) -> Self {
        DeadlinePoll { at, calls: 0 }
    }

    fn poll(&mut self, what: &str) -> Result<()> {
        let Some(at) = self.at else { return Ok(()) };
        let due = self.calls % DEADLINE_CHECK_EVERY == 0;
        self.calls += 1;
        if due && Instant::now() >= at {
            return Err(FdbError::DeadlineExceeded(format!(
                "run budget expired during {what}"
            )));
        }
        Ok(())
    }
}

/// One-shot deadline check (planning/execution stage boundaries).
fn check_deadline(at: Option<Instant>, what: &str) -> Result<()> {
    DeadlinePoll::new(at).poll(what)
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

/// A registered view: the representation, its tuple count, and the
/// cost model's statistics built from that count.
#[derive(Clone, Debug)]
struct View {
    rep: Arc<FRep>,
    tuples: usize,
    stats: Stats,
}

impl FdbEngine {
    pub fn new(catalog: Catalog) -> Self {
        FdbEngine {
            catalog,
            views: HashMap::new(),
            relations: HashMap::new(),
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
        self.views.insert(name.into(), View { rep, tuples, stats });
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
        self.run_choosing(task, opts, None)
    }

    /// [`FdbEngine::run`] with the `ORDER BY` strategy pinned to `force`
    /// when it is feasible for `task` ([`OrderCostInputs::feasible`]); an
    /// infeasible choice runs the cost model's pick. The differential
    /// suites use it to hold every strategy to collect-sort-cut. It is
    /// not a [`RunOptions`] field, so the serving layer cannot reach it.
    #[doc(hidden)]
    pub fn run_forcing(
        &mut self,
        task: &JoinAggTask,
        opts: RunOptions,
        force: OrderChoice,
    ) -> Result<FdbResult> {
        self.run_choosing(task, opts, Some(force))
    }

    fn run_choosing(
        &mut self,
        task: &JoinAggTask,
        opts: RunOptions,
        force: Option<OrderChoice>,
    ) -> Result<FdbResult> {
        if !task.grouping_sets.is_empty() {
            return self.run_grouping_sets(task, opts);
        }
        let deadline_at = opts.deadline.map(|d| Instant::now() + d);
        check_deadline(deadline_at, "input assembly")?;
        let (rep, stats, mut selections, natural_attrs) = self.build_input(&task.inputs)?;
        check_deadline(deadline_at, "planning")?;

        let mut const_preds = Vec::new();
        for p in &task.predicates {
            match p {
                Predicate::AttrEq(a, b) => selections.push((*a, *b)),
                Predicate::AttrCmp(a, op, v) => const_preds.push((*a, *op, v.clone())),
            }
        }

        // Desugar aggregates; avg becomes (sum, count) plus a division at
        // emission (§3.2.4).
        let mut final_funcs: Vec<AggOp> = Vec::new();
        let mut final_outputs: Vec<AttrId> = Vec::new();
        let mut emit: Vec<(EmitCol, AttrId)> = Vec::new();
        let mut div_outputs: Vec<AttrId> = Vec::new();
        for g in &task.group_by {
            emit.push((EmitCol::Raw(*g), *g));
        }
        for spec in &task.aggregates {
            if let Some(op) = AggOp::from_func(spec.func) {
                final_funcs.push(op);
                final_outputs.push(spec.output);
                emit.push((EmitCol::Raw(spec.output), spec.output));
            } else if let AggFunc::Avg(a) = spec.func {
                let s = self
                    .catalog
                    .fresh(&format!("avg_sum({})", self.catalog.name(a)));
                let n = self
                    .catalog
                    .fresh(&format!("avg_count({})", self.catalog.name(a)));
                final_funcs.push(AggOp::Sum(a));
                final_outputs.push(s);
                final_funcs.push(AggOp::Count);
                final_outputs.push(n);
                emit.push((EmitCol::Div { num: s, den: n }, spec.output));
                div_outputs.push(spec.output);
            }
        }
        let is_aggregate = !task.aggregates.is_empty();

        // Normalised order keys: later duplicates of an attribute are
        // dropped — the first occurrence (and its direction) decides, so
        // arena-ordered streaming, heap top-k and the flat sort all honour
        // the same list (`fdb_relational::dedup_sort_keys`).
        let order_keys = dedup_sort_keys(&task.order_by);
        let has_order = !order_keys.is_empty();

        // Order analysis: keys on group attributes can always be realised
        // in the tree (after restructuring); keys on aggregate outputs
        // need consolidation; keys on avg outputs are computed columns and
        // can never be realised (heap top-k / sort handle them).
        let order_on_raw_agg = order_keys.iter().any(|k| final_outputs.contains(&k.attr));
        let having_on_raw = task.having.iter().any(|p| match p {
            Predicate::AttrCmp(a, _, _) => final_outputs.contains(a) || task.group_by.contains(a),
            Predicate::AttrEq(_, _) => false,
        });
        // Consolidate (§5.2 step 7) exactly when HAVING or ORDER BY needs
        // the aggregate as a node. The stream candidate needs it to
        // realise an order on the aggregate in-tree (Q7); the flat
        // candidates evaluate the aggregate at emission instead, so only
        // HAVING can demand it.
        // A function over a group attribute reads the group's value, which
        // only the grouped evaluation has at hand: such a query never
        // consolidates, and its HAVING filters rows at emission.
        let over_group = final_funcs
            .iter()
            .any(|f| f.attr().is_some_and(|a| task.group_by.contains(&a)));
        let consolidable = is_aggregate && !over_group;
        let want_consolidate_stream = consolidable && (order_on_raw_agg || having_on_raw);
        let want_consolidate_flat = consolidable && having_on_raw;

        // Builds the optimiser spec for a consolidation choice and a
        // realise-the-order choice. The tree can realise the order only
        // if *all* keys are realisable (a partial prefix would still need
        // a sort), and only when the candidate asks for it at all.
        let make_parts =
            |consolidate: bool, realise_order: bool| -> (QuerySpec, Vec<SortKey>, bool) {
                let tree_keys: Vec<SortKey> = order_keys
                    .iter()
                    .copied()
                    .filter(|k| {
                        if div_outputs.contains(&k.attr) {
                            return false;
                        }
                        if is_aggregate {
                            task.group_by.contains(&k.attr)
                                || (consolidate && final_outputs.contains(&k.attr))
                        } else {
                            true
                        }
                    })
                    .collect();
                let realised = realise_order && has_order && tree_keys.len() == order_keys.len();
                let spec = QuerySpec {
                    selections: selections.clone(),
                    const_preds: const_preds.clone(),
                    projection: if is_aggregate {
                        None
                    } else {
                        Some(
                            task.projection
                                .clone()
                                .unwrap_or_else(|| natural_attrs.clone()),
                        )
                    },
                    group_by: task.group_by.clone(),
                    final_funcs: final_funcs.clone(),
                    final_outputs: final_outputs.clone(),
                    order_by: if realised {
                        tree_keys.clone()
                    } else {
                        Vec::new()
                    },
                    consolidate,
                };
                (spec, tree_keys, realised)
            };

        // Consolidation (§5.2 step 7) is not always achievable: partial
        // aggregates pinned under *different* group nodes along a path
        // cannot be gathered by upward swaps. When planning fails for that
        // reason, fall back to the grouped (scenario-3) evaluation — any
        // HAVING / ORDER BY on the aggregate is then handled at emission.
        let build_candidate = |catalog: &mut Catalog,
                               want_consolidate: bool,
                               realise_order: bool|
         -> Result<OrderCandidate> {
            let (mut spec, mut tree_keys, mut realised) =
                make_parts(want_consolidate, realise_order);
            let mut plan = greedy(rep.ftree(), &spec, &stats, catalog);
            let mut consolidate = want_consolidate;
            if consolidate && matches!(plan, Err(FdbError::PlanningFailed(_))) {
                consolidate = false;
                (spec, tree_keys, realised) = make_parts(false, realise_order);
                plan = greedy(rep.ftree(), &spec, &stats, catalog);
            }
            Ok(OrderCandidate {
                tree_keys,
                realised,
                plan: plan?,
                consolidate,
            })
        };

        // The ordering decision (§4): plan the order-realising and the
        // flat candidate once, price every feasible strategy, take the
        // cheapest — or the forced one, when it is feasible. The executed
        // tree is verified once below.
        let (cand, mut order_strategy) = if !has_order {
            let c = build_candidate(&mut self.catalog, want_consolidate_stream, false)?;
            (c, OrderStrategy::Unordered)
        } else {
            let stream_cand = build_candidate(&mut self.catalog, want_consolidate_stream, true)?;
            // When no key is realisable and the consolidation choice
            // matches, the two candidate specs are identical — skip the
            // second optimiser search.
            let flat_cand =
                if !stream_cand.realised && want_consolidate_stream == want_consolidate_flat {
                    stream_cand.clone()
                } else {
                    build_candidate(&mut self.catalog, want_consolidate_flat, false)?
                };
            // Prices decide only a page: an unpaged order is chosen by
            // feasibility alone, so its plans go unpriced.
            let paged = is_page(task.limit, task.offset);
            let price = |plan: &crate::plan::FPlan| {
                if paged {
                    plan_cost(rep.ftree(), plan, &stats)
                } else {
                    0.0
                }
            };
            let stream_plan_cost = stream_cand.realised.then(|| price(&stream_cand.plan));
            let unordered_plan_cost = price(&flat_cand.plan);
            let est_rows = if paged {
                let mut scratch = rep.ftree().clone();
                flat_cand.plan.simulate(&mut scratch)?;
                estimate_rows(&scratch, &stats, &task.group_by, is_aggregate)
            } else {
                0.0
            };
            // The direct seek is quoted only when the stream plan
            // realises the order on a tuple-cursor result shape with no
            // HAVING (the count annotations count unfiltered tuples) and
            // there is an OFFSET to seek past. d·log f per seek, with d
            // the result tree's depth bound (live node count) and the
            // per-level fanout bounded by the row estimate.
            let direct_seek_cost = (stream_cand.realised
                && task.offset > 0
                && task.having.is_empty()
                && (!is_aggregate || stream_cand.consolidate))
                .then(|| {
                    let mut scratch = rep.ftree().clone();
                    let d = match stream_cand.plan.simulate(&mut scratch) {
                        Ok(()) => scratch.live_nodes().len(),
                        Err(_) => rep.ftree().live_nodes().len(),
                    };
                    d.max(1) as f64 * est_rows.max(2.0).log2()
                });
            let inputs = OrderCostInputs {
                stream_plan_cost,
                unordered_plan_cost,
                est_rows,
                k: task.limit,
                offset: task.offset,
                direct_seek_cost,
                row_width: if is_aggregate {
                    emit.len()
                } else {
                    task.projection
                        .as_ref()
                        .map_or(natural_attrs.len(), |p| p.len())
                },
            };
            let choice = match force {
                Some(c) if inputs.feasible(c) => c,
                _ => choose_order_strategy(&inputs),
            };
            match (choice, task.limit) {
                (OrderChoice::Stream, _) => (stream_cand, OrderStrategy::StreamInTree),
                (OrderChoice::Direct, _) => (stream_cand, OrderStrategy::DirectAccess),
                (OrderChoice::Heap, Some(k)) => (flat_cand, OrderStrategy::HeapTopK { k }),
                // The heap is infeasible without a LIMIT: only the sort
                // reaches this arm.
                (OrderChoice::Heap | OrderChoice::Sort, _) => {
                    (flat_cand, OrderStrategy::CollectSortCut)
                }
            }
        };
        let OrderCandidate {
            tree_keys,
            plan,
            consolidate,
            ..
        } = cand;
        check_deadline(deadline_at, "plan execution")?;
        let input_tree = rep.ftree().clone();
        let (mut result_rep, mut exec_stats) = crate::pipeline::execute(&plan, rep)?;
        check_deadline(deadline_at, "plan execution")?;

        // HAVING: push what we can into the factorisation as selections;
        // the rest (e.g. conditions on avg) filters rows at emission.
        // HAVING never changes the f-tree, so the pushable predicates
        // batch into one fused filter walk; the allocation joins the
        // exec-stats accounting.
        let mut row_filters: Vec<Predicate> = Vec::new();
        let mut pushed: Vec<(AttrId, fdb_relational::CmpOp, Value)> = Vec::new();
        for p in &task.having {
            match p {
                Predicate::AttrCmp(a, op, v) if result_rep.ftree().node_of_attr(*a).is_some() => {
                    pushed.push((*a, *op, v.clone()));
                }
                other => row_filters.push(other.clone()),
            }
        }
        if !pushed.is_empty() {
            // Run the pushed predicates as a mini f-plan through the
            // staged executor, so the selection fusion, the
            // garbage-driven compaction and the allocation accounting
            // all live in one place (`crate::pipeline`).
            let mut having_plan = crate::plan::FPlan::new();
            for (attr, op, value) in pushed {
                having_plan.push(crate::plan::FOp::SelectConst { attr, op, value });
            }
            let (rep, hstats) = crate::pipeline::execute(&having_plan, result_rep)?;
            result_rep = rep;
            exec_stats.intermediate_bytes += hstats.intermediate_bytes;
            exec_stats.copies_avoided += hstats.copies_avoided;
            exec_stats.compacted |= hstats.compacted;
        }

        let output_attrs: Vec<AttrId> = if is_aggregate {
            emit.iter().map(|(_, out)| *out).collect()
        } else {
            let proj = task
                .projection
                .clone()
                .unwrap_or_else(|| natural_attrs.clone());
            emit = proj.iter().map(|&a| (EmitCol::Raw(a), a)).collect();
            proj
        };

        let kind = if !is_aggregate {
            ResultKind::Spj
        } else if consolidate {
            ResultKind::AggConsolidated
        } else {
            ResultKind::AggGrouped {
                group_attrs: task.group_by.clone(),
                final_funcs,
                func_outputs: final_outputs,
            }
        };

        // Verify a streamed order once against the *result* f-tree
        // (defensive: never return wrongly ordered data); on failure fall
        // back once — to the heap under a LIMIT, otherwise to the sort.
        // Direct access was chosen only with a tuple cursor and no
        // HAVING, so the order is all there is left to check.
        if matches!(
            order_strategy,
            OrderStrategy::StreamInTree | OrderStrategy::DirectAccess
        ) {
            let verified = match &kind {
                ResultKind::Spj | ResultKind::AggConsolidated => {
                    crate::enumerate::supports_order(result_rep.ftree(), &tree_keys)
                }
                ResultKind::AggGrouped { group_attrs, .. } => {
                    EnumSpec::group_prefix_ordered(result_rep.ftree(), group_attrs, &tree_keys)
                        .is_ok()
                }
                // Built by `run_grouping_sets`, never on this path.
                ResultKind::Materialised(_) => false,
            };
            if !verified {
                order_strategy = match task.limit {
                    Some(k) => OrderStrategy::HeapTopK { k },
                    None => OrderStrategy::CollectSortCut,
                };
            }
        }

        Ok(FdbResult {
            rep: result_rep,
            kind,
            output_attrs,
            emit,
            order_by: order_keys,
            order_strategy,
            row_filters,
            limit: task.limit,
            offset: task.offset,
            plan,
            input_tree,
            exec_stats,
            deadline_at,
        })
    }

    /// GROUPING SETS (and its ROLLUP/CUBE sugar): one factorised run per
    /// grouping set; each sub-result is enumerated, NULL-padded to the
    /// full output schema and concatenated in set order. HAVING stays in
    /// the row filters and ORDER BY/LIMIT execute at enumeration, which
    /// mirrors the relational twin (`RdbEngine::run_grouping_sets`)
    /// row-for-row.
    fn run_grouping_sets(&mut self, task: &JoinAggTask, opts: RunOptions) -> Result<FdbResult> {
        let output_attrs = task.output_attrs();
        // The concatenation's row-major buffer: every value is cloned
        // once, from its set's rows into its padded place.
        let mut data: Vec<Value> = Vec::new();
        let mut rows = 0usize;
        let mut last: Option<FdbResult> = None;
        for set in &task.grouping_sets {
            let sub = JoinAggTask {
                group_by: set.clone(),
                grouping_sets: Vec::new(),
                having: Vec::new(),
                order_by: Vec::new(),
                limit: None,
                offset: 0,
                ..task.clone()
            };
            let result = self.run(&sub, opts)?;
            let rel = result.to_relation()?;
            rows += rel.len();
            if rel.schema().attrs() == output_attrs {
                // The full grouping set: its rows are output rows already.
                data.append(&mut rel.into_flat());
            } else {
                let positions: Vec<Option<usize>> = output_attrs
                    .iter()
                    .map(|&a| rel.schema().position(a))
                    .collect();
                data.reserve(rel.len() * positions.len());
                for row in rel.rows() {
                    data.extend(positions.iter().map(|p| match p {
                        Some(i) => row[*i].clone(),
                        None => Value::Null,
                    }));
                }
            }
            last = Some(result);
        }
        let out = emit::finish(Schema::new(output_attrs.clone()), data, rows);
        let last = last.ok_or_else(|| {
            FdbError::Unresolved("GROUPING SETS task carries no grouping sets".into())
        })?;
        let order_keys = dedup_sort_keys(&task.order_by);
        let order_strategy = if order_keys.is_empty() {
            OrderStrategy::Unordered
        } else {
            OrderStrategy::CollectSortCut
        };
        Ok(FdbResult {
            rep: last.rep,
            kind: ResultKind::Materialised(out),
            emit: output_attrs.iter().map(|&a| (EmitCol::Raw(a), a)).collect(),
            output_attrs,
            order_by: order_keys,
            order_strategy,
            row_filters: task.having.clone(),
            limit: task.limit,
            offset: task.offset,
            plan: last.plan,
            input_tree: last.input_tree,
            exec_stats: last.exec_stats,
            deadline_at: last.deadline_at,
        })
    }

    /// Assembles the input factorisation for the task's `FROM` list:
    /// registered views are cloned, flat relations are factorised as
    /// sorted tries (join attributes towards the root); name collisions
    /// across inputs are shadowed and returned as pending equality
    /// selections (the natural-join conditions).
    #[allow(clippy::type_complexity)]
    fn build_input(
        &mut self,
        inputs: &[String],
    ) -> Result<(FRep, Stats, Vec<(AttrId, AttrId)>, Vec<AttrId>)> {
        if inputs.is_empty() {
            return Err(FdbError::Unresolved("query has no inputs".into()));
        }
        if inputs.len() == 1 {
            if let Some(v) = self.views.get(&inputs[0]) {
                let natural = v.rep.ftree().all_attrs();
                return Ok((FRep::clone(&v.rep), v.stats.clone(), Vec::new(), natural));
            }
        }
        // Shared attributes across the original input schemas determine
        // both the trie orders and the join conditions.
        let schemas: Vec<Vec<AttrId>> = inputs
            .iter()
            .map(|name| {
                if let Some(v) = self.views.get(name) {
                    Ok(v.rep.ftree().all_attrs())
                } else if let Some(rel) = self.relations.get(name) {
                    Ok(rel.schema().attrs().to_vec())
                } else {
                    Err(FdbError::Unresolved(format!("unknown input `{name}`")))
                }
            })
            .collect::<Result<_>>()?;
        let shared = |a: AttrId, except: usize| {
            schemas
                .iter()
                .enumerate()
                .any(|(j, s)| j != except && s.contains(&a))
        };

        let mut combined: Option<FRep> = None;
        let mut stats = Stats::new();
        let mut selections: Vec<(AttrId, AttrId)> = Vec::new();
        let mut seen: Vec<AttrId> = Vec::new();
        let mut natural: Vec<AttrId> = Vec::new();
        for (i, name) in inputs.iter().enumerate() {
            let mut rep = if let Some(v) = self.views.get(name) {
                FRep::clone(&v.rep)
            } else {
                let rel: &Relation = &self.relations[name];
                // Trie order: shared (join) attributes first.
                let mut order: Vec<AttrId> = schemas[i]
                    .iter()
                    .copied()
                    .filter(|&a| shared(a, i))
                    .collect();
                order.extend(schemas[i].iter().copied().filter(|&a| !shared(a, i)));
                FRep::from_relation(rel, FTree::path(&order))?
            };
            let size = rep.tuple_count();
            // Shadow attributes already seen: rename in this input's copy
            // and record the equality selection.
            let mut attrs_after = Vec::new();
            for a in rep.ftree().all_attrs() {
                if seen.contains(&a) {
                    let shadow = self
                        .catalog
                        .fresh(&format!("{}@{}", self.catalog.name(a), name));
                    rep = crate::ops::rename(rep, a, shadow)?;
                    selections.push((a, shadow));
                    attrs_after.push(shadow);
                } else {
                    seen.push(a);
                    natural.push(a);
                    attrs_after.push(a);
                }
            }
            stats.add_relation(attrs_after, size);
            combined = Some(match combined {
                None => rep,
                Some(acc) => crate::ops::product(acc, rep),
            });
        }
        Ok((
            combined.expect("at least one input"),
            stats,
            selections,
            natural,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{AggSpec, CmpOp, SortDir};

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
        assert!(result.order_supported_in_tree());
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
        assert!(result.order_supported_in_tree());
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
        assert!(result.order_supported_in_tree());
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
            .run_forcing(&task, RunOptions::new(), OrderChoice::Stream)
            .unwrap();
        assert!(!result.plan().is_empty());
        let text = result.explain(&e.catalog);
        assert!(text.contains("f-plan"), "{text}");
        assert!(text.contains("stage(s)"), "{text}");
        assert!(text.contains("stages: "), "{text}");
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
            (OrderChoice::Heap, "heap top-k (k=2"),
            (OrderChoice::Sort, "collect-sort-cut"),
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
        assert!(result.order_supported_in_tree());
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
            .run_forcing(&task, RunOptions::new(), OrderChoice::Direct)
            .unwrap();
        assert_eq!(direct.order_strategy(), OrderStrategy::DirectAccess);
        let (rows, stats) = direct.to_relation_counted().unwrap();
        let reference = e
            .run_forcing(&task, RunOptions::new(), OrderChoice::Sort)
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
            .run_forcing(&deep, RunOptions::new(), OrderChoice::Direct)
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
            .run_forcing(&task, RunOptions::new(), OrderChoice::Heap)
            .unwrap();
        assert_eq!(heap.order_strategy(), OrderStrategy::HeapTopK { k: 1 });
        let (rows, stats) = heap.to_relation_counted().unwrap();
        let reference = e
            .run_forcing(&task, RunOptions::new(), OrderChoice::Sort)
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
            let result = e.run_forcing(task, opts, OrderChoice::Direct).unwrap();
            assert_eq!(result.order_strategy(), OrderStrategy::StreamInTree);
            assert!(!result.explain(&e.catalog).contains("direct access"));
            let out = result.to_relation().unwrap();
            let reference = e
                .run_forcing(task, opts, OrderChoice::Sort)
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
            (&realisable, OrderChoice::Heap, "heap, realisable"),
            (&by_avg, OrderChoice::Heap, "heap, by avg"),
            // Direct access under a HAVING (even one pushed into the
            // factorisation) or at OFFSET 0; grouped output is
            // `direct_degrades_when_row_filters_or_grouping_block_the_seek`.
            (&having, OrderChoice::Direct, "direct, having"),
            (&realisable, OrderChoice::Direct, "direct, offset 0"),
            // No realising plan: streaming is infeasible.
            (&by_avg, OrderChoice::Stream, "stream, by avg"),
        ];
        let opts = RunOptions::new();
        for (task, choice, label) in cases {
            let forced = e.run_forcing(task, opts, choice).unwrap();
            let auto = e.run(task, opts).unwrap();
            assert_eq!(forced.order_strategy(), auto.order_strategy(), "{label}");
            let sorted = e.run_forcing(task, opts, OrderChoice::Sort).unwrap();
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
            .run_forcing(&task, RunOptions::new(), OrderChoice::Direct)
            .unwrap();
        assert_eq!(direct.order_strategy(), OrderStrategy::DirectAccess);
        let (rows, stats) = direct.to_relation_counted().unwrap();
        let stream = e
            .run_forcing(&task, RunOptions::new(), OrderChoice::Stream)
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
                .run_forcing(&task, RunOptions::new(), OrderChoice::Sort)
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
        assert_eq!(auto.order_strategy(), OrderStrategy::HeapTopK { k: 1 });
        assert!(!auto.order_supported_in_tree());
        let (rows, stats) = auto.to_relation_counted().unwrap();
        assert_eq!(stats.strategy, OrderStrategy::HeapTopK { k: 1 });
        assert!(stats.order_bytes > 0);
        let sorted = e
            .run_forcing(&task, RunOptions::new(), OrderChoice::Sort)
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
        assert_eq!(s.stages, crate::pipeline::segment(first.plan()).len());
        assert!(s.copies_avoided > 0);
        assert!(s.intermediate_bytes > 0);
        // A second run builds the same factorisation and reports the same.
        let again = e.run(&task, RunOptions::default()).unwrap();
        assert!(again.rep().same_data(first.rep()));
        assert_eq!(again.exec_stats(), s);
        assert_eq!(again.to_relation().unwrap(), first.to_relation().unwrap());
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
        assert!(!result.order_supported_in_tree());
        let text = result.explain(&e.catalog);
        assert!(text.contains("collect-sort-cut"), "{text}");
    }
}
