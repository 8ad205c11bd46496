//! Execution: the chosen f-plan through the plan executor
//! ([`crate::pipeline::execute`]), or the kept result of a
//! restructure-only plan over the same view version, `HAVING` pushed
//! into the result as selections, and the ordering verified once against
//! the result f-tree. The result is an [`FdbResult`]; [`super::emit`]
//! turns it into rows.

use super::choose::Chosen;
use super::lock;
use super::lower::{EmitCol, Lowered};
use crate::agg::FoldWindow;
use crate::enumerate::EnumSpec;
use crate::error::{FdbError, Result};
use crate::frep::FRep;
use crate::ftree::{AggOp, FTree};
use crate::optim::ordering::{is_page, OrderStrategy};
use crate::optim::QuerySpec;
use crate::pipeline::{ExecStats, Page};
use crate::plan::{FOp, FPlan};
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{AttrId, Catalog, Predicate, Schema, SortKey};
use std::sync::Arc;
use std::time::Instant;

/// How often the enumeration sinks poll the deadline clock (rows
/// between checks). Coarse enough to stay invisible in the profile,
/// fine enough that a wedged enumeration is cut within microseconds.
pub(super) const DEADLINE_CHECK_EVERY: usize = 1024;

/// Cheap periodic deadline clock: polls [`Instant::now`] once every
/// [`DEADLINE_CHECK_EVERY`] calls (and on the very first call, so a
/// zero budget fails deterministically before any row is emitted).
pub(super) struct DeadlinePoll {
    at: Option<Instant>,
    calls: usize,
}

impl DeadlinePoll {
    pub(super) fn new(at: Option<Instant>) -> Self {
        DeadlinePoll { at, calls: 0 }
    }

    pub(super) fn poll(&mut self, what: &str) -> Result<()> {
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
pub(super) fn check_deadline(at: Option<Instant>, what: &str) -> Result<()> {
    DeadlinePoll::new(at).poll(what)
}

/// Result shape.
#[derive(Clone, Debug)]
pub(super) enum ResultKind {
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
    /// GROUPING SETS: one factorised result per set, with the set's
    /// group attributes, in set order. Each emits in the output schema's
    /// layout (NULL outside its set); the emitter chains them, and HAVING
    /// stays in the row filters and ordering/limit run at enumeration.
    Sets(Vec<(Vec<AttrId>, FdbResult)>),
}

/// A query result: the factorisation plus everything needed to emit flat
/// tuples (`FDB` mode) or keep it factorised (`FDB f/o` mode).
#[derive(Clone, Debug)]
pub struct FdbResult {
    /// Shared: a restructured view kept for its version is read, not
    /// copied.
    pub(super) rep: Arc<FRep>,
    pub(super) kind: ResultKind,
    /// The output columns, in declared order.
    pub(super) schema: Schema,
    /// How each output column is produced (empty for a grouping-sets
    /// result, whose sets carry their own).
    pub(super) emit: Vec<EmitCol>,
    /// Normalised (first-occurrence-deduplicated) order keys.
    pub(super) order_by: Vec<SortKey>,
    /// The physical ordering strategy that executes: the cheapest
    /// feasible one, verified once against the result's f-tree.
    pub(super) order_strategy: OrderStrategy,
    /// HAVING conjuncts evaluated per output row (those not already pushed
    /// into the factorisation as selections).
    pub(super) row_filters: Vec<Predicate>,
    pub(super) limit: Option<usize>,
    /// OFFSET m: rows of the ordered output skipped before the first
    /// returned row (`0` = none); of a windowed result, of the window's
    /// rows (the query's OFFSET less the groups skipped).
    pub(super) offset: usize,
    /// What the plan's closing group fold read for the page, when it
    /// folded only the page's groups ([`crate::pipeline::Page`]).
    pub(super) window: Option<FoldWindow>,
    /// Whether the plan (all swaps) was not run because the view's
    /// version kept its result.
    pub(super) reused: bool,
    /// The executed f-plan (for EXPLAIN-style introspection), the
    /// selections of the HAVING push-down included.
    pub(super) plan: FPlan,
    /// The f-tree the plan ran on: `explain` simulates the plan on it
    /// to name the nodes each operator touches.
    pub(super) input_tree: FTree,
    /// Execution report of the f-plan run (passes, intermediate
    /// bytes, copies avoided), including the HAVING push-down; summed
    /// over the sets of a grouping-sets result.
    pub(super) exec_stats: ExecStats,
    /// Absolute deadline of the producing run (`RunOptions::deadline`),
    /// which enumeration honours too.
    pub(super) deadline_at: Option<Instant>,
}

/// Executes the chosen plan on the lowered input and verifies the
/// ordering once against the result f-tree.
pub(super) fn execute(
    low: Lowered,
    chosen: Chosen,
    task: &JoinAggTask,
    deadline_at: Option<Instant>,
) -> Result<FdbResult> {
    let spec = chosen.spec;
    let input_tree = low.rep.ftree().clone();
    // A page streamed in the plan's order, with no HAVING to thin it, is
    // all the plan's result is read for: a closing group fold on that
    // order folds only the groups the page shows.
    let page = (matches!(chosen.strategy, OrderStrategy::StreamInTree)
        && is_page(task.limit, task.offset)
        && task.having.is_empty())
    .then_some(Page {
        keys: &spec.order_by,
        offset: task.offset,
        limit: task.limit,
    });
    // A restructure-only plan over a view runs once per view version;
    // later runs read its kept result and report no pass.
    let ops = &chosen.plan.ops;
    let restructured = (low.restructured)
        .filter(|_| !ops.is_empty() && ops.iter().all(|op| matches!(op, FOp::Swap { .. })));
    let kept = restructured.as_deref().and_then(|r| lock(r).get(ops));
    let reused = kept.is_some();
    let (mut rep, mut exec_stats, window) = match kept {
        Some(rep) => {
            let stats = ExecStats {
                operators: ops.len(),
                ..ExecStats::default()
            };
            (rep, stats, None)
        }
        None => {
            let (rep, stats, window) = crate::pipeline::execute_page(&chosen.plan, low.rep, page)?;
            let rep = Arc::new(rep);
            if let Some(r) = &restructured {
                lock(r).keep(ops, &rep, stats.intermediate_bytes);
            }
            (rep, stats, window)
        }
    };
    check_deadline(deadline_at, "plan execution")?;

    // HAVING: what can be is pushed into the factorisation as one fused
    // selection f-plan (HAVING never changes the f-tree), its allocation
    // joining the exec-stats; the rest (e.g. on avg) filters rows at
    // emission.
    let mut row_filters: Vec<Predicate> = Vec::new();
    let mut having_plan = FPlan::new();
    for p in &task.having {
        match p {
            Predicate::AttrCmp(attr, op, value) if rep.ftree().node_of_attr(*attr).is_some() => {
                let (attr, op, value) = (*attr, *op, value.clone());
                having_plan.push(FOp::SelectConst { attr, op, value });
            }
            other => row_filters.push(other.clone()),
        }
    }
    let mut plan = chosen.plan;
    if !having_plan.is_empty() {
        let (filtered, hstats) = crate::pipeline::execute(&having_plan, Arc::unwrap_or_clone(rep))?;
        rep = Arc::new(filtered);
        exec_stats.add(&hstats);
        plan.ops.extend(having_plan.ops);
    }

    // Verify a streamed order once against the *result* f-tree
    // (defensive: never return wrongly ordered data; the chooser already
    // ran the same test on the plan's simulated tree); on failure fall
    // back once, to the chooser's pick among the flat strategies. Only a
    // streamed strategy runs a plan whose spec realises an order. Direct
    // access was chosen only with a tuple cursor and no HAVING, so the
    // order is all there is left to check.
    let realised = realises(rep.ftree(), &spec);
    // A window's chain, from the root in the order's keys, realises it.
    debug_assert!(realised || window.is_none());
    let order_strategy = if realised {
        chosen.strategy
    } else {
        chosen.fallback
    };
    let grouped = spec.is_aggregate() && !spec.consolidate;
    let kind = if !spec.is_aggregate() {
        ResultKind::Spj
    } else if !grouped {
        ResultKind::AggConsolidated
    } else {
        ResultKind::AggGrouped {
            group_attrs: spec.group_by,
            final_funcs: spec.final_funcs,
            func_outputs: spec.final_outputs,
        }
    };

    Ok(FdbResult {
        rep,
        kind,
        schema: low.schema,
        emit: low.emit,
        order_by: low.order_keys,
        order_strategy,
        row_filters,
        limit: task.limit,
        // The groups before the window are not in the result.
        offset: task.offset - window.as_ref().map_or(0, |w| w.skipped),
        window,
        reused,
        plan,
        input_tree,
        exec_stats,
        deadline_at,
    })
}

/// Whether `tree` enumerates in `spec`'s order (trivially when
/// `spec.order_by` is empty): by its group prefix when the aggregates
/// stay partial (Theorem 1), else by its visit order (Theorem 2, with a
/// composite aggregate node's tuple order).
pub(super) fn realises(tree: &FTree, spec: &QuerySpec) -> bool {
    let keys = &spec.order_by;
    keys.is_empty()
        || if spec.is_aggregate() && !spec.consolidate {
            EnumSpec::group_prefix_ordered(tree, &spec.group_by, keys).is_ok()
        } else {
            crate::enumerate::supports_order(tree, keys)
        }
}

impl FdbResult {
    /// The result factorisation (`FDB f/o`); of a grouping-sets result,
    /// its last set's. Of a page whose group fold was windowed (a
    /// `page window:` line in [`FdbResult::explain`]), only the groups
    /// of the root entries the window walked. Of a plan of swaps alone
    /// over a registered view, the copy that view version kept, shared
    /// by every run of the plan over it.
    pub fn rep(&self) -> &FRep {
        &self.rep
    }

    /// Size of the factorised result ([`FdbResult::rep`]) in singletons.
    pub fn singleton_count(&self) -> usize {
        self.rep.singleton_count()
    }

    /// Output schema (declared column order).
    pub fn output_attrs(&self) -> &[AttrId] {
        self.schema.attrs()
    }

    /// The physical ordering strategy this result executes.
    pub fn order_strategy(&self) -> OrderStrategy {
        self.order_strategy
    }

    /// The f-plan that produced this result, ending in the selections
    /// `HAVING` pushed into it; of a grouping-sets result, the one that
    /// produced its last set ([`FdbResult::explain`] lists every set's).
    pub fn plan(&self) -> &FPlan {
        &self.plan
    }

    /// Execution report of the f-plan run: operator and pass counts,
    /// intermediate bytes allocated, fragments shared instead of copied.
    /// Of a grouping-sets result, the sum over its sets' runs.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// EXPLAIN-style rendering: the executed f-plan with its execution
    /// report and the result f-tree (for a grouping-sets result, each
    /// set's, under its group attributes), the output mode, and how
    /// ordering/limits are realised.
    pub fn explain(&self, catalog: &Catalog) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.kind {
            ResultKind::Sets(sets) => {
                for (i, (attrs, set)) in sets.iter().enumerate() {
                    let names: Vec<&str> = attrs.iter().map(|&a| catalog.name(a)).collect();
                    let _ = writeln!(
                        out,
                        "grouping set {} of {} ({}):",
                        i + 1,
                        sets.len(),
                        names.join(", ")
                    );
                    set.explain_run(catalog, &mut out);
                }
            }
            _ => self.explain_run(catalog, &mut out),
        }
        let mode = match &self.kind {
            ResultKind::Spj => "select-project-join (enumerate + project)".to_string(),
            ResultKind::AggConsolidated => "aggregates consolidated into named nodes".to_string(),
            ResultKind::AggGrouped { final_funcs, .. } => format!(
                "grouped: {} aggregate(s) evaluated on the fly per group",
                final_funcs.len()
            ),
            ResultKind::Sets(sets) => format!(
                "grouping sets: {} set(s) streamed in turn, NULL outside each set",
                sets.len()
            ),
        };
        let _ = writeln!(out, "output mode: {mode}");
        // Name the strategy that actually executes — never claim
        // constant-delay streaming when row filters stretch the delay or
        // when a sort/heap pass produces the limit.
        let k = self.limit.unwrap_or(usize::MAX);
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
            OrderStrategy::HeapTopK if self.offset > 0 => format!(
                "(m+k)-heap (m={}, k={k}; bounded heap of m+k rows over the \
                 unrestructured enumeration, first m dropped)",
                self.offset
            ),
            OrderStrategy::HeapTopK => format!(
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
        let skipped = self.window.as_ref().map_or(0, |w| w.skipped);
        if self.offset + skipped > 0 {
            let _ = writeln!(out, "offset: {}", self.offset + skipped);
        }
        if let Some(w) = &self.window {
            let _ = writeln!(
                out,
                "page window: root entries {}..{} of {}, {} groups skipped",
                w.roots.start, w.roots.end, w.of, w.skipped
            );
        }
        if !self.row_filters.is_empty() {
            let _ = writeln!(out, "row filters: {}", self.row_filters.len());
        }
        out
    }

    /// Appends the executed f-plan, its execution report and the result
    /// f-tree of this run to `out`.
    fn explain_run(&self, catalog: &Catalog, out: &mut String) {
        use std::fmt::Write as _;
        let stats = &self.exec_stats;
        let _ = writeln!(
            out,
            "f-plan ({} operator(s), {} pass(es)):",
            self.plan.len(),
            stats.stages
        );
        out.push_str(&self.plan.display(catalog, &self.input_tree));
        let _ = writeln!(
            out,
            "execution: intermediate bytes allocated {}, fragment copies avoided {}{}",
            stats.intermediate_bytes,
            stats.copies_avoided,
            if stats.compacted { ", compacted" } else { "" }
        );
        if self.reused {
            let _ = writeln!(out, "restructured input: reused for this view version");
        }
        let _ = writeln!(out, "result f-tree:");
        out.push_str(&self.rep.ftree().display(catalog));
    }
}
