//! Execution of f-plans: one loop over the operators on one arena.
//!
//! Every f-plan operator is an in-place rewrite of the representation
//! (see [`crate::ops`]): it appends the fragment it rewrites to the
//! arena and shares the rest by id. The paper's cost model (§5.1)
//! prices a plan by the representations it *produces*; this module
//! runs a plan so that it also only *allocates* what it produces, plus
//! at most one compaction pass.
//!
//! [`execute`] walks the plan's operators in order and runs each
//! through [`crate::plan::apply`], so no operator materialises the
//! representation. Two fusions: a run of consecutive constant
//! selections compiles into a single composed filter walk
//! (`select::apply_filters`), one arena pass however many predicates
//! the run carries; and when such a run comes right before a `γ` whose
//! target subtrees hold every filtered node (all atomic), the `γ`'s walk
//! reads the run as a mask (`select::Mask`) and nothing is rewritten —
//! one pass for both. A `GroupFold` builds its (small) result in a fresh
//! arena, so the byte and share counts restart there; closing a plan
//! run for a page in the page's order, it folds only the groups the
//! page shows. Superseded records accumulate as unreachable garbage; at
//! most one sharing-preserving compaction pass per plan
//! ([`crate::frep::FRep::compact`]) sheds them at the end, and it only
//! runs when the records the operators noted dead as they replaced them
//! outnumber the rest (read from a counter, never found by a walk over
//! the live records, which after a swap of a view are the whole view)
//! — an empty plan is a pure
//! pass-through, and short plans whose result is still mostly the input
//! (a selection keeping most entries, a rename) return the arena
//! directly, with no full copy anywhere.
//!
//! Two references pin the executor: the same plan applied one operator
//! at a time with a compaction after each step, and a relational
//! evaluation of the plan over the input's flattening
//! (`tests/pipeline_fused.rs`).

use crate::agg::FoldWindow;
use crate::error::Result;
use crate::frep::FRep;
use crate::ftree::{FTree, NodeId};
use crate::ops::{self, select::Mask, AggTarget};
use crate::plan::{apply, FOp, FPlan};
use fdb_relational::{SortDir, SortKey};
use std::ops::Range;

/// Execution report of one plan run (see [`execute`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Operators executed.
    pub operators: usize,
    /// Arena passes: a run of consecutive constant selections is one
    /// pass, every other operator one — except that a selection run
    /// read as the mask of the `γ` right after it is no pass of its own.
    pub stages: usize,
    /// Bytes of intermediate representation data allocated over the
    /// plan run (size-based, no allocator slack — [`FRep::data_bytes`]):
    /// the operators' appends plus the final compaction copy. `0` for
    /// an empty plan (no intermediates exist) and for pure tree edits
    /// (`Rename`, label-shrink projection).
    pub intermediate_bytes: usize,
    /// Untouched fragments shared by id instead of deep-copied.
    pub copies_avoided: u64,
    /// Whether the final per-plan compaction pass ran.
    pub compacted: bool,
}

impl ExecStats {
    /// Adds `other`'s counts to these: the report of two runs.
    pub(crate) fn add(&mut self, other: &ExecStats) {
        self.operators += other.operators;
        self.stages += other.stages;
        self.intermediate_bytes += other.intermediate_bytes;
        self.copies_avoided += other.copies_avoided;
        self.compacted |= other.compacted;
    }
}

/// The page a plan's result is read for: `LIMIT limit OFFSET offset`
/// over the order `keys`. A plan that ends in a group fold whose chain is
/// the keys' nodes, one key per node, ascending, folds only the groups
/// the page shows when the chain is the top of the root path
/// ([`crate::ops::aggregate::group_fold_page`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct Page<'a> {
    pub keys: &'a [SortKey],
    pub offset: usize,
    pub limit: Option<usize>,
}

impl Page<'_> {
    /// The positions of the page's groups in the order of the fold on
    /// the chain `groups` of `tree`, if the page's order is that chain.
    fn groups_of(&self, tree: &FTree, groups: &[NodeId]) -> Option<Range<usize>> {
        let chain = self.keys.len() == groups.len()
            && (self.keys.iter().zip(groups))
                .all(|(k, &g)| k.dir == SortDir::Asc && tree.node_of_attr(k.attr) == Some(g));
        let end = self.offset.saturating_add(self.limit.unwrap_or(usize::MAX));
        chain.then_some(self.offset..end)
    }
}

/// Executes a plan in one loop over its operators: one shared arena,
/// every operator in place, consecutive selections fused into one walk
/// or read as the mask of the `γ` right after them, and one compaction
/// pass at the end when the records the operators noted dead outnumber
/// the rest ([`FRep::dead_outnumber_live`] — no walk).
pub fn execute(plan: &FPlan, rep: FRep) -> Result<(FRep, ExecStats)> {
    let (rep, stats, _) = execute_page(plan, rep, None)?;
    Ok((rep, stats))
}

/// [`execute`] for the page `page`: a closing group fold on the page's
/// order folds only the groups the page shows, and the window it read
/// is returned with the result.
#[doc(hidden)]
pub fn execute_page(
    plan: &FPlan,
    rep: FRep,
    page: Option<Page<'_>>,
) -> Result<(FRep, ExecStats, Option<FoldWindow>)> {
    let (mut rep, mut stats, window) = run(plan, rep, page)?;
    if !plan.is_empty() && rep.dead_outnumber_live() {
        // The one full arena pass of the plan: shed the superseded
        // fragments while preserving sharing. Plans whose arena is
        // still mostly live data (short plans, selections that keep
        // most entries, pure tree edits) skip it — no copy at all —
        // since the garbage they carry is smaller than the copy would
        // be.
        rep = rep.compact();
        stats.compacted = true;
        stats.intermediate_bytes += rep.data_bytes();
    }
    Ok((rep, stats, window))
}

/// [`execute`] without the closing compaction: the representation
/// whose noted dead records the compaction rule reads (a hook for the
/// tests that hold that rule to a walk over the live records).
#[doc(hidden)]
pub fn run_operators(plan: &FPlan, rep: FRep) -> Result<(FRep, ExecStats)> {
    let (rep, stats, _) = run(plan, rep, None)?;
    Ok((rep, stats))
}

/// [`run_operators`] for `page`, with the window of a closing group fold.
fn run(
    plan: &FPlan,
    rep: FRep,
    page: Option<Page<'_>>,
) -> Result<(FRep, ExecStats, Option<FoldWindow>)> {
    let mut stats = ExecStats {
        operators: plan.len(),
        ..ExecStats::default()
    };
    let mut window = None;
    if plan.is_empty() {
        // An empty plan is a pass-through: not even a byte is appended.
        return Ok((rep, stats, window));
    }
    let mut counter_base = rep.stats_counter_base();
    let mut rep = rep;
    let mut bytes_before = rep.data_bytes();
    let mut ops = plan.ops.iter().peekable();
    while let Some(op) = ops.next() {
        stats.stages += 1;
        rep = match op {
            FOp::SelectConst { attr, op, value } => {
                // A maximal run of constant selections is one walk (a
                // run of one is just `select_const`).
                let mut filters = vec![(*attr, *op, value.clone())];
                while let Some(FOp::SelectConst { attr, op, value }) =
                    ops.next_if(|op| matches!(op, FOp::SelectConst { .. }))
                {
                    filters.push((*attr, *op, value.clone()));
                }
                // A run that feeds a `γ` over the filtered nodes is read
                // by its walk as a mask: one pass, nothing rewritten.
                let fused = match ops.peek() {
                    Some(FOp::Aggregate {
                        parent,
                        targets,
                        funcs,
                        outputs,
                    }) => Mask::new(rep.ftree(), &filters, targets).map(|mask| {
                        let target = AggTarget {
                            parent: *parent,
                            nodes: targets.clone(),
                        };
                        (target, funcs.clone(), outputs.clone(), mask)
                    }),
                    _ => None,
                };
                match fused {
                    Some((target, funcs, outputs, mut mask)) => {
                        ops.next();
                        ops::aggregate::aggregate_in(rep, &target, funcs, outputs, &mut mask)?
                    }
                    None => ops::select::apply_filters(rep, &filters)?,
                }
            }
            FOp::GroupFold {
                groups,
                funcs,
                outputs,
            } => {
                // A fresh arena: all of it is the fold's allocation, and
                // the input's share counter stops here. The plan's last
                // operator folds for the page.
                stats.copies_avoided += rep.stats_counter_base().saturating_sub(counter_base);
                let page = page
                    .filter(|_| ops.peek().is_none())
                    .and_then(|p| p.groups_of(rep.ftree(), groups));
                let (funcs, outputs) = (funcs.clone(), outputs.clone());
                let folded;
                (folded, window) =
                    ops::aggregate::group_fold_page(rep, groups, funcs, outputs, page)?;
                counter_base = folded.stats_counter_base();
                bytes_before = 0;
                folded
            }
            _ => apply(rep, op)?,
        };
        // What the pass appended (the rare root-level-aggregate-of-empty
        // shortcut replaces the arena by a smaller one, hence the
        // saturation).
        let bytes_after = rep.data_bytes();
        stats.intermediate_bytes += bytes_after.saturating_sub(bytes_before);
        bytes_before = bytes_after;
    }
    // Compaction carries the share counter over, so this is final.
    stats.copies_avoided += rep.stats_counter_base().saturating_sub(counter_base);
    Ok((rep, stats, window))
}

/// [`execute`] under its former name, for callers outside the
/// workspace. The thread count is ignored: plans run serially.
pub fn execute_staged(plan: &FPlan, rep: FRep, _threads: usize) -> Result<(FRep, ExecStats)> {
    execute(plan, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::{AggOp, FTree};
    use fdb_relational::{Catalog, CmpOp, Relation, Schema, Value};

    fn rep_abc() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let x = c.intern("x");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b, x]),
            (0..24).map(|i| {
                vec![
                    Value::Int(i % 4),
                    Value::Int((i * 7) % 5),
                    Value::Int(i % 3),
                ]
            }),
        )
        .canonical();
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b, x])).unwrap();
        (c, rep)
    }

    fn sample_plan(c: &mut Catalog, rep: &FRep) -> FPlan {
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let na = rep.ftree().node_of_attr(a).unwrap();
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let out = c.intern("n");
        let mut plan = FPlan::new();
        plan.push(FOp::SelectConst {
            attr: a,
            op: CmpOp::Le,
            value: Value::Int(2),
        });
        plan.push(FOp::SelectConst {
            attr: b,
            op: CmpOp::Ne,
            value: Value::Int(1),
        });
        plan.push(FOp::Swap {
            parent: na,
            child: nb,
        });
        plan.push(FOp::Aggregate {
            parent: Some(nb),
            targets: vec![na],
            funcs: vec![AggOp::Count],
            outputs: vec![out],
        });
        plan
    }

    /// The reference: the plan applied one operator at a time through
    /// [`apply`], compacting after each step, with the bytes those
    /// compacted intermediates hold — what one full copy per operator
    /// costs.
    fn per_op(plan: &FPlan, mut rep: FRep) -> (FRep, usize) {
        let mut bytes = 0;
        for op in &plan.ops {
            rep = apply(rep, op).unwrap().compact();
            bytes += rep.data_bytes();
        }
        (rep, bytes)
    }

    #[test]
    fn staged_matches_per_op_and_compacts() {
        let (mut c, rep) = rep_abc();
        let plan = sample_plan(&mut c, &rep);
        let (stepped, stepped_bytes) = per_op(&plan, rep.clone());
        let (fused, stats) = execute(&plan, rep).unwrap();
        assert!(fused.same_data(&stepped));
        assert_eq!(
            fused.ftree().canonical_key(),
            stepped.ftree().canonical_key()
        );
        assert!(stats.compacted);
        assert!(stats.copies_avoided > 0);
        assert!(
            stats.intermediate_bytes < stepped_bytes,
            "staged {} >= per-op {}",
            stats.intermediate_bytes,
            stepped_bytes
        );
    }

    #[test]
    fn a_selection_run_is_one_pass_and_every_other_operator_one() {
        let (mut c, rep) = rep_abc();
        let mut plan = sample_plan(&mut c, &rep);
        // Two selections, a swap, an aggregate: three passes.
        let (_, stats) = execute(&plan, rep.clone()).unwrap();
        assert_eq!((stats.operators, stats.stages), (4, 3));
        // A selection after the swap starts a run of its own; on `b`,
        // the aggregate's parent, it stays a pass of its own too.
        let sel = plan.ops[1].clone();
        plan.ops.insert(3, sel);
        let (_, stats) = execute(&plan, rep).unwrap();
        assert_eq!((stats.operators, stats.stages), (5, 4));
    }

    #[test]
    fn a_selection_run_inside_the_next_aggregate_is_read_as_its_mask() {
        let (mut c, rep) = rep_abc();
        let mut plan = sample_plan(&mut c, &rep);
        // `a` lies inside the aggregate's target: the selection after the
        // swap runs in the aggregate's walk, with nothing rewritten.
        let sel = plan.ops[0].clone();
        plan.ops.insert(3, sel);
        let (fused, stats) = execute(&plan, rep.clone()).unwrap();
        assert_eq!((stats.operators, stats.stages), (5, 3));
        assert!(fused.same_data(&per_op(&plan, rep.clone()).0));
        // A constant no value passes drops every group.
        let FOp::SelectConst { attr, .. } = plan.ops[3] else {
            unreachable!()
        };
        plan.ops[3] = FOp::SelectConst {
            attr,
            op: CmpOp::Gt,
            value: Value::Int(9),
        };
        let (fused, stats) = execute(&plan, rep.clone()).unwrap();
        assert_eq!(stats.stages, 3);
        assert!(fused.is_empty());
        assert!(fused.same_data(&per_op(&plan, rep).0));
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let (_, rep) = rep_abc();
        let before = rep.stats();
        let (out, stats) = execute(&FPlan::new(), rep).unwrap();
        assert_eq!(stats, ExecStats::default());
        assert_eq!(out.stats(), before); // no appends, no compaction
    }

    #[test]
    fn single_stage_plan_skips_compaction() {
        let (c, rep) = rep_abc();
        let a = c.lookup("a").unwrap();
        let mut plan = FPlan::new();
        plan.push(FOp::SelectConst {
            attr: a,
            op: CmpOp::Lt,
            value: Value::Int(3),
        });
        let (out, stats) = execute(&plan, rep.clone()).unwrap();
        assert!(!stats.compacted);
        assert!(out.same_data(&per_op(&plan, rep).0));
    }

    #[test]
    fn fused_filter_run_matches_sequential_selects() {
        let (c, rep) = rep_abc();
        let a = c.lookup("a").unwrap();
        let x = c.lookup("x").unwrap();
        let mut plan = FPlan::new();
        for (attr, op, v) in [(a, CmpOp::Ge, 1), (x, CmpOp::Ne, 0), (a, CmpOp::Le, 2)] {
            plan.push(FOp::SelectConst {
                attr,
                op,
                value: Value::Int(v),
            });
        }
        let (fused, _) = execute(&plan, rep.clone()).unwrap();
        let (stepped, _) = per_op(&plan, rep);
        assert!(fused.same_data(&stepped));
        assert_eq!(fused.flatten().canonical(), stepped.flatten().canonical());
    }
}
