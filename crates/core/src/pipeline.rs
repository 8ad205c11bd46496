//! Staged pipeline execution of f-plans.
//!
//! Every f-plan operator is an in-place rewrite of the representation
//! (see [`crate::ops`]): it appends the fragment it rewrites to the
//! arena and shares the rest by id. The paper's cost model (§5.1)
//! prices a plan by the representations it *produces*; this module
//! runs a plan so that it also only *allocates* what it produces, plus
//! at most one compaction pass.
//!
//! ## Pipeline IR
//!
//! [`segment`] splits a plan into [`Stage`]s:
//!
//! * a **fused** stage is a maximal run of operators that only rewrite
//!   along a root path (`SelectConst`, `Merge`, `Absorb`,
//!   `ProjectAway`, `Aggregate`, `Rename`);
//! * a **restructure** stage is a single `Swap` — the operator that
//!   rebuilds whole levels and therefore bounds fusion (the `product`
//!   splice happens before plan execution and is already a single
//!   table append);
//! * a **fold** stage is a single `GroupFold`, which reads the whole
//!   input once and builds its (small) result in a fresh arena.
//!
//! ## Execution
//!
//! [`execute`] runs every operator on one shared arena through
//! [`crate::plan::apply`], so no operator materialises the
//! representation. Within a fused stage, runs of consecutive constant
//! selections additionally compile into a single composed filter walk
//! (`select::apply_filters`) — one arena pass no matter how many
//! predicates the stage carries. Superseded records accumulate as
//! unreachable garbage; at most one sharing-preserving compaction pass
//! per plan ([`crate::frep::FRep::compact`]) sheds them at the end, and
//! it only runs when dead records outnumber live ones — an empty plan
//! is a pure pass-through, and short plans whose result is still mostly
//! the input (a selection keeping most entries, a rename) return the
//! arena directly, with no full copy anywhere.
//!
//! Two references pin the executor: the same plan applied one operator
//! at a time with a compaction after each step, and a relational
//! evaluation of the plan over the input's flattening
//! (`tests/pipeline_fused.rs`).

use crate::error::Result;
use crate::frep::FRep;
use crate::ftree::FTree;
use crate::ops;
use crate::plan::{apply, FOp, FPlan};
use fdb_relational::Catalog;
use std::fmt::Write as _;
use std::ops::Range;

/// What a stage does to the f-tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Root-path rewrites only; executed as composed in-place rewrites.
    Fused,
    /// A single `Swap` — rebuilds levels, bounds fusion.
    Restructure,
    /// A single `GroupFold` — a fresh representation, bounds fusion.
    Fold,
}

/// One stage: a range of operator indices into [`FPlan::ops`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    pub ops: Range<usize>,
    pub kind: StageKind,
}

impl Stage {
    /// Number of operators in the stage.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The stage of its own an operator needs, or `None` for operators
/// that only rewrite along a root path and therefore fuse.
fn own_stage(op: &FOp) -> Option<StageKind> {
    match op {
        FOp::Swap { .. } => Some(StageKind::Restructure),
        FOp::GroupFold { .. } => Some(StageKind::Fold),
        _ => None,
    }
}

/// Segments a plan into fusible stages with `Swap` and `GroupFold`
/// boundaries.
pub fn segment(plan: &FPlan) -> Vec<Stage> {
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, op) in plan.ops.iter().enumerate() {
        let Some(kind) = own_stage(op) else {
            run_start.get_or_insert(i);
            continue;
        };
        if let Some(s) = run_start.take() {
            out.push(Stage {
                ops: s..i,
                kind: StageKind::Fused,
            });
        }
        out.push(Stage {
            ops: i..i + 1,
            kind,
        });
    }
    if let Some(s) = run_start {
        out.push(Stage {
            ops: s..plan.len(),
            kind: StageKind::Fused,
        });
    }
    out
}

/// One line summarising the stage grouping, e.g.
/// `1-3 fused | 4 restructure | 5-6 fused`.
pub fn render_stages(stages: &[Stage]) -> String {
    let mut out = String::new();
    for (i, s) in stages.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        if s.len() == 1 {
            let _ = write!(out, "{}", s.ops.start + 1);
        } else {
            let _ = write!(out, "{}-{}", s.ops.start + 1, s.ops.end);
        }
        match s.kind {
            StageKind::Fused => out.push_str(" fused"),
            StageKind::Restructure => out.push_str(" restructure"),
            StageKind::Fold => out.push_str(" fold"),
        }
    }
    out
}

/// Per-stage rendering of a plan over its input f-tree: the operator
/// list annotated with the stage each operator belongs to (used by the
/// plan explorer example).
pub fn display_staged(plan: &FPlan, catalog: &Catalog, input: &FTree) -> String {
    let stages = segment(plan);
    let mut out = String::new();
    let _ = writeln!(out, "stages: {}", render_stages(&stages));
    let ops_text = plan.display(catalog, input);
    for (i, line) in ops_text.lines().enumerate() {
        let stage = stages.iter().position(|s| s.ops.contains(&i));
        match stage {
            Some(si) => {
                let _ = writeln!(out, "  [stage {}] {}", si + 1, line.trim_start());
            }
            None => {
                let _ = writeln!(out, "  {line}");
            }
        }
    }
    out
}

/// Execution report of one plan run (see [`execute`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Operators executed.
    pub operators: usize,
    /// Stages ([`segment`]).
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

/// Executes a plan through the staged pipeline: one shared arena, every
/// operator in place, consecutive selections fused into one walk, and
/// one compaction pass at the end when dead records outnumber live ones.
pub fn execute(plan: &FPlan, rep: FRep) -> Result<(FRep, ExecStats)> {
    let stages = segment(plan);
    let mut stats = ExecStats {
        operators: plan.len(),
        stages: stages.len(),
        ..ExecStats::default()
    };
    if stages.is_empty() {
        // Zero-stage pass-through: not even a byte is appended.
        return Ok((rep, stats));
    }
    let mut counter_base = rep.stats_counter_base();
    let mut rep = rep;
    let mut bytes_before = rep.data_bytes();
    for stage in &stages {
        match stage.kind {
            StageKind::Restructure => {
                rep = apply(rep, &plan.ops[stage.ops.start])?;
            }
            StageKind::Fold => {
                // A fresh arena: all of it is the stage's allocation, and
                // the input's share counter stops here.
                stats.copies_avoided += rep.stats_counter_base().saturating_sub(counter_base);
                rep = apply(rep, &plan.ops[stage.ops.start])?;
                counter_base = rep.stats_counter_base();
                bytes_before = 0;
            }
            StageKind::Fused => {
                let mut i = stage.ops.start;
                while i < stage.ops.end {
                    // Fuse a maximal run of constant selections into one
                    // walk (a run of one is just `select_const`).
                    let mut filters: Vec<_> = Vec::new();
                    while i < stage.ops.end {
                        let FOp::SelectConst { attr, op, value } = &plan.ops[i] else {
                            break;
                        };
                        filters.push((*attr, *op, value.clone()));
                        i += 1;
                    }
                    if !filters.is_empty() {
                        rep = ops::select::apply_filters(rep, &filters)?;
                    } else {
                        rep = apply(rep, &plan.ops[i])?;
                        i += 1;
                    }
                }
            }
        }
        // Intermediate allocation of the stage: what the operators
        // appended (the arena only grows within a fused stage; the
        // rare root-level-aggregate-of-empty shortcut replaces the
        // arena by a smaller one, hence the saturation).
        let bytes_after = rep.data_bytes();
        stats.intermediate_bytes += bytes_after.saturating_sub(bytes_before);
        bytes_before = bytes_after;
    }
    if rep.garbage_dominated() {
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
    stats.copies_avoided += rep.stats_counter_base().saturating_sub(counter_base);
    Ok((rep, stats))
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

    #[test]
    fn segmentation_groups_runs_and_boundaries() {
        let (mut c, rep) = rep_abc();
        let plan = sample_plan(&mut c, &rep);
        let stages = segment(&plan);
        assert_eq!(stages.len(), 3);
        assert_eq!(
            stages[0],
            Stage {
                ops: 0..2,
                kind: StageKind::Fused
            }
        );
        assert_eq!(
            stages[1],
            Stage {
                ops: 2..3,
                kind: StageKind::Restructure
            }
        );
        assert_eq!(
            stages[2],
            Stage {
                ops: 3..4,
                kind: StageKind::Fused
            }
        );
        assert_eq!(
            render_stages(&stages),
            "1-2 fused | 3 restructure | 4 fused"
        );
        let text = display_staged(&plan, &c, rep.ftree());
        assert!(text.contains("stages: 1-2 fused"), "{text}");
        assert!(text.contains("[stage 2]"), "{text}");
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
