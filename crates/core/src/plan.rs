//! F-plans: sequences of f-plan operators (§2.1, §5).
//!
//! A plan is produced by the optimiser against the *initial* f-tree and
//! executed later against the representation. Node ids are stable across
//! restructuring and fresh ids are allocated deterministically, so a plan
//! simulated on a scratch tree references exactly the nodes that will exist
//! at execution time.

use crate::error::Result;
use crate::frep::FRep;
use crate::ftree::{AggOp, FTree, NodeId, Projection};
use crate::ops;
use fdb_relational::{AttrId, Catalog, CmpOp, Value};
use std::fmt::Write as _;

/// One f-plan operator.
#[derive(Clone, Debug, PartialEq)]
pub enum FOp {
    /// `σ_{A θ c}`.
    SelectConst {
        attr: AttrId,
        op: CmpOp,
        value: Value,
    },
    /// `σ_{A=B}` for sibling nodes.
    Merge { a: NodeId, b: NodeId },
    /// `σ_{A=B}` along a root-to-leaf path.
    Absorb { anc: NodeId, desc: NodeId },
    /// `χ_{A,B}` restructuring.
    Swap { parent: NodeId, child: NodeId },
    /// `γ_{F(U)}` aggregation.
    Aggregate {
        parent: Option<NodeId>,
        targets: Vec<NodeId>,
        funcs: Vec<AggOp>,
        outputs: Vec<AttrId>,
    },
    /// `γ_funcs` grouped by the atomic nodes `groups`, which lie on one
    /// root path, read off in one top-down pass ([`ops::group_fold`]). Its
    /// f-tree effect ([`FTree::group_fold`]) is a chain of the group nodes
    /// in the given order with one aggregate node under the last — for one
    /// group node, that of the swaps lifting it to the root followed by
    /// `γ_funcs` over all its children. Its data is new, and no swap or
    /// `γ` runs.
    GroupFold {
        groups: Vec<NodeId>,
        funcs: Vec<AggOp>,
        outputs: Vec<AttrId>,
    },
    /// Projection of one attribute.
    ProjectAway { attr: AttrId },
    /// Constant-time renaming.
    Rename { from: AttrId, to: AttrId },
}

/// A sequence of operators.
#[derive(Clone, Debug, Default)]
pub struct FPlan {
    pub ops: Vec<FOp>,
}

impl FPlan {
    pub fn new() -> Self {
        FPlan { ops: Vec::new() }
    }

    pub fn push(&mut self, op: FOp) {
        self.ops.push(op);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the plan to a representation through the staged pipeline
    /// executor ([`crate::pipeline::execute`]): every operator runs
    /// in place on one shared arena, consecutive selections fuse into one
    /// walk, and at most one compaction pass runs per plan.
    pub fn execute(&self, rep: FRep) -> Result<FRep> {
        crate::pipeline::execute(self, rep).map(|(rep, _)| rep)
    }

    /// Simulates the plan on an f-tree (what the optimiser explores).
    pub fn simulate(&self, tree: &mut FTree) -> Result<()> {
        for op in &self.ops {
            apply_to_tree(tree, op)?;
        }
        Ok(())
    }

    /// Human-readable rendering against `input`, the f-tree the plan
    /// runs on: the plan is simulated on a copy of it, so every operator
    /// names the nodes it touches by their attributes as they stand at
    /// that point (`swap χ(date, customer)`, `γ[sum(price)] over [item,
    /// price]`). Should the simulation fail, the rest of the plan falls
    /// back to raw node ids.
    pub fn display(&self, catalog: &Catalog, input: &FTree) -> String {
        let mut out = String::new();
        let mut tree = Some(input.clone());
        for (i, op) in self.ops.iter().enumerate() {
            let name = |n: NodeId| match &tree {
                Some(t) => t.node_name(n, catalog),
                None => format!("{n:?}"),
            };
            let _ = write!(out, "{:>3}. ", i + 1);
            match op {
                FOp::SelectConst { attr, op, value } => {
                    let _ = writeln!(out, "select {} {op} {value}", catalog.name(*attr));
                }
                FOp::Merge { a, b } => {
                    let _ = writeln!(out, "merge {} with {}", name(*a), name(*b));
                }
                FOp::Absorb { anc, desc } => {
                    let _ = writeln!(out, "absorb {} into {}", name(*desc), name(*anc));
                }
                FOp::Swap { parent, child } => {
                    let _ = writeln!(out, "swap χ({}, {})", name(*parent), name(*child));
                }
                FOp::Aggregate {
                    targets,
                    funcs,
                    outputs,
                    ..
                } => {
                    let fs: Vec<String> = funcs.iter().map(|f| f.display(catalog)).collect();
                    let os: Vec<&str> = outputs.iter().map(|&o| catalog.name(o)).collect();
                    // Every node the aggregate consumes: the targets'
                    // whole subtrees.
                    let over: Vec<String> = match &tree {
                        Some(t) => targets
                            .iter()
                            .flat_map(|&n| t.subtree_nodes(n))
                            .map(name)
                            .collect(),
                        None => targets.iter().map(|&n| name(n)).collect(),
                    };
                    let _ = writeln!(
                        out,
                        "γ[{}] over [{}] -> {}",
                        fs.join(","),
                        over.join(", "),
                        os.join(",")
                    );
                }
                FOp::GroupFold {
                    groups,
                    funcs,
                    outputs,
                } => {
                    let fs: Vec<String> = funcs.iter().map(|f| f.display(catalog)).collect();
                    let os: Vec<&str> = outputs.iter().map(|&o| catalog.name(o)).collect();
                    let by: Vec<String> = groups.iter().map(|&g| name(g)).collect();
                    // Every node but the group nodes (the tree has one root).
                    let over: Vec<String> = match &tree {
                        Some(t) => t
                            .subtree_nodes(t.roots()[0])
                            .into_iter()
                            .filter(|n| !groups.contains(n))
                            .map(name)
                            .collect(),
                        None => Vec::new(),
                    };
                    let _ = writeln!(
                        out,
                        "fold by {}: γ[{}] over [{}] -> {}",
                        by.join(", "),
                        fs.join(","),
                        over.join(", "),
                        os.join(",")
                    );
                }
                FOp::ProjectAway { attr } => {
                    let _ = writeln!(out, "project away {}", catalog.name(*attr));
                }
                FOp::Rename { from, to } => {
                    let _ = writeln!(
                        out,
                        "rename {} -> {}",
                        catalog.name(*from),
                        catalog.name(*to)
                    );
                }
            }
            if let Some(t) = &mut tree {
                if apply_to_tree(t, op).is_err() {
                    tree = None;
                }
            }
        }
        out
    }
}

/// Applies one operator to a representation, in place on its arena
/// (see [`crate::ops`]). The staged executor dispatches every operator
/// that is not part of a fused selection run through here.
pub fn apply(rep: FRep, op: &FOp) -> Result<FRep> {
    match op {
        FOp::SelectConst { attr, op, value } => ops::select_const(rep, *attr, *op, value),
        FOp::Merge { a, b } => ops::merge(rep, *a, *b),
        FOp::Absorb { anc, desc } => ops::absorb(rep, *anc, *desc),
        FOp::Swap { parent, child } => ops::swap(rep, *parent, *child),
        FOp::Aggregate {
            parent,
            targets,
            funcs,
            outputs,
        } => ops::aggregate(
            rep,
            &ops::AggTarget {
                parent: *parent,
                nodes: targets.clone(),
            },
            funcs.clone(),
            outputs.clone(),
        ),
        FOp::GroupFold {
            groups,
            funcs,
            outputs,
        } => ops::group_fold(rep, groups, funcs.clone(), outputs.clone()),
        FOp::ProjectAway { attr } => ops::project_away(rep, *attr),
        FOp::Rename { from, to } => ops::rename(rep, *from, *to),
    }
}

/// Applies one operator to an f-tree only (plan simulation).
pub fn apply_to_tree(tree: &mut FTree, op: &FOp) -> Result<()> {
    match op {
        FOp::SelectConst { .. } => Ok(()),
        FOp::Merge { a, b } => tree.merge(*a, *b).map(|_| ()),
        FOp::Absorb { anc, desc } => tree.absorb(*anc, *desc).map(|_| ()),
        FOp::Swap { parent, child } => tree.swap(*parent, *child).map(|_| ()),
        FOp::Aggregate {
            parent,
            targets,
            funcs,
            outputs,
        } => tree
            .aggregate(*parent, targets, funcs.clone(), outputs.clone())
            .map(|_| ()),
        FOp::GroupFold {
            groups,
            funcs,
            outputs,
        } => tree
            .group_fold(groups, funcs.clone(), outputs.clone())
            .map(|_| ()),
        FOp::ProjectAway { attr } => match tree.projection(*attr)? {
            Projection::ShrinkClass(node) => tree.shrink_class(node, *attr),
            Projection::PushDownAndRemove(node) => {
                while let Some(&c) = tree.node(node).children.first() {
                    tree.swap(node, c)?;
                }
                tree.remove_leaf(node).map(|_| ())
            }
        },
        FOp::Rename { from, to } => tree.rename_attr(*from, *to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{Relation, Schema};

    fn simple_rep() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [(1, 10), (1, 20), (2, 10)]
                .into_iter()
                .map(|(x, y)| vec![Value::Int(x), Value::Int(y)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
        (c, rep)
    }

    #[test]
    fn plan_executes_and_simulates_consistently() {
        let (mut c, rep) = simple_rep();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let na = rep.ftree().node_of_attr(a).unwrap();
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let out_attr = c.intern("n");
        let mut plan = FPlan::new();
        plan.push(FOp::SelectConst {
            attr: a,
            op: CmpOp::Eq,
            value: Value::Int(1),
        });
        plan.push(FOp::Aggregate {
            parent: Some(na),
            targets: vec![nb],
            funcs: vec![AggOp::Count],
            outputs: vec![out_attr],
        });
        // Simulation yields the same structure as execution.
        let mut sim_tree = rep.ftree().clone();
        plan.simulate(&mut sim_tree).unwrap();
        let out = plan.execute(rep).unwrap();
        assert_eq!(out.ftree().canonical_key(), sim_tree.canonical_key());
        assert_eq!(out.tuple_count(), 1);
        // a=1 has two b values.
        assert_eq!(
            *out.root(0).entry(0).child(0).entry(0).value(),
            Value::Int(2)
        );
    }

    #[test]
    fn plan_display_is_readable() {
        let (mut c, rep) = simple_rep();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let na = rep.ftree().node_of_attr(a).unwrap();
        let nb = rep.ftree().node(na).children[0];
        let n = c.intern("n");
        let mut plan = FPlan::new();
        plan.push(FOp::Swap {
            parent: na,
            child: nb,
        });
        plan.push(FOp::Aggregate {
            parent: Some(nb),
            targets: vec![na],
            funcs: vec![AggOp::Count],
            outputs: vec![n],
        });
        plan.push(FOp::ProjectAway { attr: b });
        let s = plan.display(&c, rep.ftree());
        // Nodes are named by their attributes at the point each
        // operator runs — never by raw id.
        assert!(s.contains("swap χ(a, b)"), "{s}");
        assert!(s.contains("γ[count] over [a] -> n"), "{s}");
        assert!(s.contains("project away b"), "{s}");
        assert!(!s.contains("NodeId"), "{s}");

        // A deeper target names its whole subtree, and merge/absorb
        // name both sides.
        let mut c = Catalog::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|s| c.intern(s));
        let mut t = FTree::path(&[x, y, z]);
        let w_node = t.add_node(crate::ftree::NodeLabel::Atomic(vec![w]), None);
        let [nx, ny, nz] = [x, y, z].map(|at| t.node_of_attr(at).unwrap());
        let m = c.intern("m");
        let mut plan = FPlan::new();
        plan.push(FOp::Absorb { anc: nx, desc: nz });
        plan.push(FOp::Merge { a: nx, b: w_node });
        plan.push(FOp::Aggregate {
            parent: Some(nx),
            targets: vec![ny],
            funcs: vec![AggOp::Count],
            outputs: vec![m],
        });
        let s = plan.display(&c, &t);
        assert!(s.contains("absorb z into x"), "{s}");
        assert!(s.contains("merge x=z with w"), "{s}");
        assert!(s.contains("over [y] -> m"), "{s}");
        let t = FTree::path(&[x, y, z]);
        let ny = t.node_of_attr(y).unwrap();
        let mut plan = FPlan::new();
        plan.push(FOp::Aggregate {
            parent: t.node(ny).parent,
            targets: vec![ny],
            funcs: vec![AggOp::Count],
            outputs: vec![m],
        });
        let s = plan.display(&c, &t);
        assert!(s.contains("over [y, z] -> m"), "{s}");
    }

    #[test]
    fn simulation_refuses_what_execution_refuses() {
        // Projecting one output of a composite aggregate fails at
        // execution; simulation must fail the same way, or the optimiser
        // could pick a plan that cannot run.
        let (mut c, rep) = simple_rep();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let na = rep.ftree().node_of_attr(a).unwrap();
        let nb = rep.ftree().node_of_attr(b).unwrap();
        let (n, s) = (c.intern("n"), c.intern("s"));
        let mut plan = FPlan::new();
        plan.push(FOp::Aggregate {
            parent: Some(na),
            targets: vec![nb],
            funcs: vec![AggOp::Count, AggOp::Sum(b)],
            outputs: vec![n, s],
        });
        plan.push(FOp::ProjectAway { attr: n });
        let mut tree = rep.ftree().clone();
        let simulated = plan.simulate(&mut tree);
        assert!(
            matches!(simulated, Err(crate::error::FdbError::InvalidOperator(_))),
            "{simulated:?}"
        );
        let executed = plan.execute(rep);
        assert!(
            matches!(executed, Err(crate::error::FdbError::InvalidOperator(_))),
            "{executed:?}"
        );
    }

    #[test]
    fn project_away_via_plan() {
        let (mut c, rep) = simple_rep();
        let a = c.lookup("a").unwrap();
        let mut plan = FPlan::new();
        plan.push(FOp::ProjectAway { attr: a });
        let out = plan.execute(rep).unwrap();
        assert_eq!(out.tuple_count(), 2); // distinct b values
        let _ = c.intern("unused");
    }
}
