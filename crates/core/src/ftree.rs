//! Factorisation trees (f-trees) — Definition 2 of the paper.
//!
//! An f-tree is a rooted forest whose nodes are labelled by non-empty sets
//! of attributes partitioning the schema. Nodes are either **atomic**
//! (equivalence classes of attributes, grown by selections `A = B`) or
//! **aggregate attributes** `F(X)` produced by the aggregation operator
//! (§3.1): they carry their aggregation function(s) and the original
//! attribute set `X`, which is what gives them their special semantics
//! during later aggregation.
//!
//! The tree also tracks the **dependency sets** (relation hyperedges,
//! extended by projections and aggregates) that drive the path constraint
//! (Proposition 1) and the child partition of the swap operator (§4.2).
//!
//! Nodes live in an arena and keep stable ids across restructuring, so
//! f-plan operators can reference nodes before execution.

use crate::error::{FdbError, Result};
use fdb_relational::{AggFunc, AttrId, Catalog, CmpOp};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Stable identifier of an f-tree node within one [`FTree`] arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One primitive aggregation function (avg is desugared into sum + count
/// before reaching the f-tree, §3.2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggOp {
    Count,
    Sum(AttrId),
    Min(AttrId),
    Max(AttrId),
    /// Number of distinct non-NULL values of the attribute.
    CountDistinct(AttrId),
    /// Product of the attribute's non-NULL values (bag semantics); over a
    /// product of factors it decomposes as `product^count`.
    Product(AttrId),
    /// `1` if any non-NULL value satisfies `value θ c`, else `0`.
    Exists(AttrId, CmpOp, i64),
    /// `1` if every non-NULL value satisfies `value θ c` (vacuously `1`).
    Forall(AttrId, CmpOp, i64),
    /// The `k` largest non-NULL values (bag semantics), descending.
    TopK(AttrId, usize),
}

impl AggOp {
    /// The operator computing a SQL aggregate directly; `None` for `AVG`,
    /// which the engine desugars into `SUM` and `COUNT` (§3.2.4).
    pub fn from_func(func: AggFunc) -> Option<AggOp> {
        Some(match func {
            AggFunc::Count => AggOp::Count,
            AggFunc::Sum(a) => AggOp::Sum(a),
            AggFunc::Min(a) => AggOp::Min(a),
            AggFunc::Max(a) => AggOp::Max(a),
            AggFunc::CountDistinct(a) => AggOp::CountDistinct(a),
            AggFunc::Product(a) => AggOp::Product(a),
            AggFunc::Exists(a, op, c) => AggOp::Exists(a, op, c),
            AggFunc::Forall(a, op, c) => AggOp::Forall(a, op, c),
            AggFunc::TopK(a, k) => AggOp::TopK(a, k),
            AggFunc::Avg(_) => return None,
        })
    }

    /// The attribute this function aggregates, if any.
    pub fn attr(&self) -> Option<AttrId> {
        match self {
            AggOp::Count => None,
            AggOp::Sum(a)
            | AggOp::Min(a)
            | AggOp::Max(a)
            | AggOp::CountDistinct(a)
            | AggOp::Product(a)
            | AggOp::Exists(a, _, _)
            | AggOp::Forall(a, _, _)
            | AggOp::TopK(a, _) => Some(*a),
        }
    }

    /// True for aggregates whose result cannot be composed from
    /// per-subtree partial aggregates: their attribute must stay raw
    /// (unaggregated) until the final group-level evaluation, so the
    /// planner never folds it into a partial `γ`. Only `count(distinct)`:
    /// which values occur cannot be recovered from per-subtree counts.
    pub fn needs_raw_input(&self) -> bool {
        matches!(self, AggOp::CountDistinct(_))
    }

    /// Human-readable name, e.g. `sum(price)`.
    pub fn display(&self, catalog: &Catalog) -> String {
        match self {
            AggOp::Count => "count".to_string(),
            AggOp::Sum(a) => format!("sum({})", catalog.name(*a)),
            AggOp::Min(a) => format!("min({})", catalog.name(*a)),
            AggOp::Max(a) => format!("max({})", catalog.name(*a)),
            AggOp::CountDistinct(a) => format!("count(distinct {})", catalog.name(*a)),
            AggOp::Product(a) => format!("product({})", catalog.name(*a)),
            AggOp::Exists(a, op, c) => {
                format!("exists({} {} {c})", catalog.name(*a), op.symbol())
            }
            AggOp::Forall(a, op, c) => {
                format!("forall({} {} {c})", catalog.name(*a), op.symbol())
            }
            AggOp::TopK(a, k) => format!("top_k({}, {k})", catalog.name(*a)),
        }
    }
}

/// Label of an aggregate attribute node `(F1,…,Fk)(X)`.
///
/// `funcs` and `outputs` are parallel: `outputs[i]` names the column holding
/// the value of `funcs[i]`. Singletons of a node with `k > 1` functions hold
/// composite `Value::Tup` values (§3.2.4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AggLabel {
    pub funcs: Vec<AggOp>,
    /// The original attributes `X` the functions were applied to.
    pub over: BTreeSet<AttrId>,
    pub outputs: Vec<AttrId>,
}

impl AggLabel {
    /// Index of the `count` component, if present.
    pub fn count_component(&self) -> Option<usize> {
        self.funcs.iter().position(|f| matches!(f, AggOp::Count))
    }

    /// Index of the component computing `func`, if present.
    pub fn component_of(&self, func: &AggOp) -> Option<usize> {
        self.funcs.iter().position(|f| f == func)
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.funcs.len()
    }
}

/// Node label: an equivalence class of atomic attributes, or an aggregate
/// attribute.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeLabel {
    /// Equivalence class; `attrs[0]` is the representative. All attributes
    /// of the class carry the same value in every tuple.
    Atomic(Vec<AttrId>),
    /// Aggregate attribute `F(X)`.
    Agg(AggLabel),
}

impl NodeLabel {
    /// The attributes this node *exposes* in the output schema: the class
    /// members for atomic nodes, the output columns for aggregate nodes.
    pub fn exposed_attrs(&self) -> Vec<AttrId> {
        match self {
            NodeLabel::Atomic(attrs) => attrs.clone(),
            NodeLabel::Agg(l) => l.outputs.clone(),
        }
    }

    /// True if this node exposes `attr`.
    pub fn exposes(&self, attr: AttrId) -> bool {
        match self {
            NodeLabel::Atomic(attrs) => attrs.contains(&attr),
            NodeLabel::Agg(l) => l.outputs.contains(&attr),
        }
    }
}

/// One arena node.
#[derive(Clone, Debug)]
pub struct FNode {
    pub label: NodeLabel,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// Dead nodes have been merged away or removed; ids are never recycled.
    pub dead: bool,
}

/// A factorisation tree with dependency tracking.
#[derive(Clone, Debug)]
pub struct FTree {
    nodes: Vec<FNode>,
    roots: Vec<NodeId>,
    /// Dependency hyperedges over exposed attributes: initially one per
    /// base relation, extended by projections and aggregates (§3).
    deps: Vec<BTreeSet<AttrId>>,
}

impl Default for FTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FTree {
    /// Creates an empty forest.
    pub fn new() -> Self {
        FTree {
            nodes: Vec::new(),
            roots: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Builds a linear f-tree (a path) over `attrs` in the given order,
    /// each attribute its own node, with a single dependency edge over all
    /// of them (a base relation makes all its attributes dependent, §2.1).
    pub fn path(attrs: &[AttrId]) -> Self {
        let mut t = FTree::new();
        let mut parent = None;
        for &a in attrs {
            let n = t.add_node(NodeLabel::Atomic(vec![a]), parent);
            parent = Some(n);
        }
        if attrs.len() > 1 {
            t.deps.push(attrs.iter().copied().collect());
        }
        t
    }

    /// Adds a node under `parent` (or as a root) and returns its id.
    pub fn add_node(&mut self, label: NodeLabel, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(FNode {
            label,
            parent,
            children: Vec::new(),
            dead: false,
        });
        match parent {
            Some(p) => self.nodes[p.idx()].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Registers a dependency hyperedge (e.g. a base relation's schema).
    pub fn add_dep(&mut self, edge: impl IntoIterator<Item = AttrId>) {
        let e: BTreeSet<AttrId> = edge.into_iter().collect();
        if e.len() > 1 {
            self.deps.push(e);
        }
    }

    /// The dependency hyperedges.
    pub fn deps(&self) -> &[BTreeSet<AttrId>] {
        &self.deps
    }

    /// Root nodes, in order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Borrow of a node.
    ///
    /// # Panics
    /// Panics on a dead or foreign id (callers hold only live ids).
    pub fn node(&self, id: NodeId) -> &FNode {
        let n = &self.nodes[id.idx()];
        debug_assert!(!n.dead, "access to dead node {id:?}");
        n
    }

    fn node_mut(&mut self, id: NodeId) -> &mut FNode {
        &mut self.nodes[id.idx()]
    }

    /// Iterates over live node ids (pre-order over the forest).
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &r in &self.roots {
            self.collect_subtree(r, &mut out);
        }
        out
    }

    fn collect_subtree(&self, n: NodeId, out: &mut Vec<NodeId>) {
        out.push(n);
        for &c in &self.node(n).children {
            self.collect_subtree(c, out);
        }
    }

    /// Nodes of the subtree rooted at `n` (pre-order, includes `n`).
    pub fn subtree_nodes(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_subtree(n, &mut out);
        out
    }

    /// All attributes exposed in the subtree rooted at `n`.
    pub fn subtree_attrs(&self, n: NodeId) -> BTreeSet<AttrId> {
        self.subtree_nodes(n)
            .iter()
            .flat_map(|&m| self.node(m).label.exposed_attrs())
            .collect()
    }

    /// All attributes exposed by the whole forest, in pre-order.
    pub fn all_attrs(&self) -> Vec<AttrId> {
        self.live_nodes()
            .iter()
            .flat_map(|&n| self.node(n).label.exposed_attrs())
            .collect()
    }

    /// The node exposing `attr`, if any.
    pub fn node_of_attr(&self, attr: AttrId) -> Option<NodeId> {
        self.live_nodes()
            .into_iter()
            .find(|&n| self.node(n).label.exposes(attr))
    }

    /// True if `anc` is a strict ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.node(desc).parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.node(p).parent;
        }
        false
    }

    /// Depth of `n` (roots have depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.node(n).parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.node(p).parent;
        }
        d
    }

    /// Path from the root down to `n`, inclusive.
    pub fn root_path(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = vec![n];
        let mut cur = self.node(n).parent;
        while let Some(p) = cur {
            path.push(p);
            cur = self.node(p).parent;
        }
        path.reverse();
        path
    }

    /// Position of `child` within its parent's child list (or among roots).
    pub fn child_position(&self, child: NodeId) -> usize {
        match self.node(child).parent {
            Some(p) => self
                .node(p)
                .children
                .iter()
                .position(|&c| c == child)
                .expect("child registered under parent"),
            None => self
                .roots
                .iter()
                .position(|&r| r == child)
                .expect("root registered"),
        }
    }

    /// True if the subtree rooted at `n` is dependent on attribute set
    /// `other`: some hyperedge links an attribute exposed in the subtree to
    /// an attribute of `other`.
    pub fn subtree_depends_on(&self, n: NodeId, other: &BTreeSet<AttrId>) -> bool {
        let mine = self.subtree_attrs(n);
        self.deps
            .iter()
            .any(|e| e.iter().any(|a| mine.contains(a)) && e.iter().any(|a| other.contains(a)))
    }

    /// Checks the path constraint (Prop. 1): every dependency edge's
    /// attributes must lie on a single root-to-leaf path.
    pub fn check_path_constraint(&self) -> Result<()> {
        for edge in &self.deps {
            let mut nodes: Vec<NodeId> = Vec::new();
            for &a in edge {
                if let Some(n) = self.node_of_attr(a) {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
            nodes.sort_by_key(|&n| self.depth(n));
            for w in nodes.windows(2) {
                if !(w[0] == w[1] || self.is_ancestor(w[0], w[1])) {
                    return Err(FdbError::PathConstraint(format!(
                        "dependent nodes {:?} and {:?} are on diverging branches",
                        w[0], w[1]
                    )));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural operators (tree level). The representation-level versions
    // in `crate::ops` call these and mirror the change on the data.
    // ------------------------------------------------------------------

    /// Swap `χ_{A,B}`: `b` must be a child of `a`; `b` becomes the parent
    /// of `a`. Children of `b` that do not depend on `a` (`T_B`) move up
    /// with `b`; the rest (`T_AB`) stay under `a` (§4.2).
    ///
    /// Returns which children of `b` moved up and which stayed, in their
    /// original order — the representation transform needs this partition.
    pub fn swap(&mut self, a: NodeId, b: NodeId) -> Result<SwapOutcome> {
        if self.node(b).parent != Some(a) {
            return Err(FdbError::InvalidOperator(format!(
                "swap requires {b:?} to be a child of {a:?}"
            )));
        }
        let a_attrs: BTreeSet<AttrId> = self.node(a).label.exposed_attrs().into_iter().collect();
        let b_children = self.node(b).children.clone();
        let (moved_up, stayed): (Vec<NodeId>, Vec<NodeId>) = b_children
            .iter()
            .partition(|&&c| !self.subtree_depends_on(c, &a_attrs));

        // Detach b from a.
        let b_pos_in_a = self.child_position(b);
        self.node_mut(a).children.remove(b_pos_in_a);
        // b takes a's place under a's parent (or among the roots).
        let a_parent = self.node(a).parent;
        let a_pos = self.child_position(a);
        match a_parent {
            Some(p) => self.node_mut(p).children[a_pos] = b,
            None => self.roots[a_pos] = b,
        }
        self.node_mut(b).parent = a_parent;
        // a becomes b's last child; T_AB re-hang under a.
        self.node_mut(b).children = moved_up.clone();
        self.node_mut(b).children.push(a);
        self.node_mut(a).parent = Some(b);
        for &c in &stayed {
            self.node_mut(c).parent = Some(a);
        }
        self.node_mut(a).children.extend(stayed.iter().copied());
        Ok(SwapOutcome {
            moved_up,
            stayed,
            b_pos_in_a,
        })
    }

    /// Merge: `a` and `b` must be siblings (same parent, or both roots) and
    /// atomic. `b`'s class joins `a`'s class, `b`'s children re-hang under
    /// `a` after `a`'s own. Implements a selection `A = B` on sibling
    /// nodes.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> Result<MergeOutcome> {
        if a == b || self.node(a).parent != self.node(b).parent {
            return Err(FdbError::InvalidOperator(format!(
                "merge requires distinct siblings, got {a:?}, {b:?}"
            )));
        }
        let (a_attrs, b_attrs) = match (&self.node(a).label, &self.node(b).label) {
            (NodeLabel::Atomic(x), NodeLabel::Atomic(y)) => (x.clone(), y.clone()),
            _ => {
                return Err(FdbError::InvalidOperator(
                    "merge applies to atomic nodes only".into(),
                ))
            }
        };
        let a_pos = self.child_position(a);
        let b_pos = self.child_position(b);
        let b_children = std::mem::take(&mut self.node_mut(b).children);
        for &c in &b_children {
            self.node_mut(c).parent = Some(a);
        }
        self.node_mut(a).children.extend(b_children);
        let mut merged = a_attrs;
        merged.extend(b_attrs);
        self.node_mut(a).label = NodeLabel::Atomic(merged);
        self.detach(b);
        self.node_mut(b).dead = true;
        Ok(MergeOutcome { a_pos, b_pos })
    }

    /// Absorb: `desc` must be a strict descendant of `anc`, both atomic.
    /// `desc`'s class joins `anc`'s class; `desc`'s children are spliced
    /// into `desc`'s parent at `desc`'s position. Implements a selection
    /// `A = B` along a path.
    pub fn absorb(&mut self, anc: NodeId, desc: NodeId) -> Result<AbsorbOutcome> {
        if !self.is_ancestor(anc, desc) {
            return Err(FdbError::InvalidOperator(format!(
                "absorb requires {desc:?} to be a descendant of {anc:?}"
            )));
        }
        let (anc_attrs, desc_attrs) = match (&self.node(anc).label, &self.node(desc).label) {
            (NodeLabel::Atomic(x), NodeLabel::Atomic(y)) => (x.clone(), y.clone()),
            _ => {
                return Err(FdbError::InvalidOperator(
                    "absorb applies to atomic nodes only".into(),
                ))
            }
        };
        let parent = self.node(desc).parent.expect("descendant has a parent");
        let pos = self.child_position(desc);
        let desc_children = std::mem::take(&mut self.node_mut(desc).children);
        for &c in &desc_children {
            self.node_mut(c).parent = Some(parent);
        }
        let pc = &mut self.node_mut(parent).children;
        pc.splice(pos..=pos, desc_children.iter().copied());
        let mut merged = anc_attrs;
        merged.extend(desc_attrs);
        self.node_mut(anc).label = NodeLabel::Atomic(merged);
        self.node_mut(desc).dead = true;
        Ok(AbsorbOutcome {
            parent,
            pos,
            spliced: desc_children.len(),
        })
    }

    /// Aggregation at the tree level: replaces the sibling subtrees rooted
    /// at `targets` (children of `parent`, or roots when `parent` is
    /// `None`) with a fresh aggregate node labelled by `funcs`/`outputs`.
    ///
    /// Returns the new node's id. Dependencies are updated per §3: the
    /// removed attributes' dependents become mutually dependent and the new
    /// outputs depend on them.
    pub fn aggregate(
        &mut self,
        parent: Option<NodeId>,
        targets: &[NodeId],
        funcs: Vec<AggOp>,
        outputs: Vec<AttrId>,
    ) -> Result<NodeId> {
        if targets.is_empty() {
            return Err(FdbError::InvalidOperator(
                "aggregate needs at least one target subtree".into(),
            ));
        }
        for &t in targets {
            if self.node(t).parent != parent {
                return Err(FdbError::InvalidOperator(format!(
                    "aggregate target {t:?} is not a child of {parent:?}"
                )));
            }
        }
        // The original attribute set X: atomic attrs plus the `over` sets
        // of aggregate nodes being re-aggregated (they stand for relations
        // over those attributes, §3.1).
        let mut over: BTreeSet<AttrId> = BTreeSet::new();
        let mut removed: BTreeSet<AttrId> = BTreeSet::new();
        for &t in targets {
            for m in self.subtree_nodes(t) {
                match &self.node(m).label {
                    NodeLabel::Atomic(attrs) => {
                        over.extend(attrs.iter().copied());
                        removed.extend(attrs.iter().copied());
                    }
                    NodeLabel::Agg(l) => {
                        over.extend(l.over.iter().copied());
                        removed.extend(l.outputs.iter().copied());
                    }
                }
            }
        }
        // Insert the new node at the first target's position.
        let first_pos = self.child_position(targets[0]);
        let new_id = NodeId(self.nodes.len() as u32);
        self.nodes.push(FNode {
            label: NodeLabel::Agg(AggLabel {
                funcs,
                over,
                outputs: outputs.clone(),
            }),
            parent,
            children: Vec::new(),
            dead: false,
        });
        // Remove targets (and their subtrees) from the forest.
        for &t in targets {
            let pos = self.child_position(t);
            match parent {
                Some(p) => {
                    self.node_mut(p).children.remove(pos);
                }
                None => {
                    self.roots.remove(pos);
                }
            }
            for m in self.subtree_nodes(t) {
                self.node_mut(m).dead = true;
            }
        }
        match parent {
            Some(p) => self.node_mut(p).children.insert(first_pos, new_id),
            None => self.roots.insert(first_pos, new_id),
        }
        self.project_deps(&removed, &outputs);
        Ok(new_id)
    }

    /// The f-tree effect of a group fold on `groups` (`FOp::GroupFold`):
    /// the group nodes, keeping their ids, become a chain from the root in
    /// the given order, and one aggregate node with `funcs` under the last
    /// of them replaces every other node, its dependencies updated as by
    /// [`FTree::aggregate`]. For one group node this is the effect of the
    /// swaps lifting it to the root followed by `γ` over all its children.
    /// Needs a single-rooted tree, distinct atomic group nodes on one root
    /// path and at least one other node; returns the new aggregate node.
    pub fn group_fold(
        &mut self,
        groups: &[NodeId],
        funcs: Vec<AggOp>,
        outputs: Vec<AttrId>,
    ) -> Result<NodeId> {
        let deepest = groups.iter().copied().max_by_key(|&g| self.depth(g));
        let path = deepest.map(|g| self.root_path(g)).unwrap_or_default();
        let rest: Vec<NodeId> = self
            .live_nodes()
            .into_iter()
            .filter(|n| !groups.contains(n))
            .collect();
        let valid = self.roots.len() == 1
            && !rest.is_empty()
            && groups.iter().enumerate().all(|(i, g)| {
                path.contains(g)
                    && !groups[..i].contains(g)
                    && matches!(self.node(*g).label, NodeLabel::Atomic(_))
            });
        let (Some(&last), true) = (groups.last(), valid) else {
            return Err(FdbError::InvalidOperator(format!(
                "a group fold needs one root, distinct atomic group nodes on one root path \
                 and another node, not {groups:?}"
            )));
        };
        let mut over: BTreeSet<AttrId> = BTreeSet::new();
        let mut removed: BTreeSet<AttrId> = BTreeSet::new();
        for &m in &rest {
            match &self.node(m).label {
                NodeLabel::Atomic(attrs) => {
                    over.extend(attrs.iter().copied());
                    removed.extend(attrs.iter().copied());
                }
                NodeLabel::Agg(l) => {
                    over.extend(l.over.iter().copied());
                    removed.extend(l.outputs.iter().copied());
                }
            }
            self.node_mut(m).dead = true;
        }
        let mut parent = None;
        for &g in groups {
            let node = self.node_mut(g);
            node.parent = parent;
            node.children.clear();
            if let Some(p) = parent {
                self.node_mut(p).children.push(g);
            }
            parent = Some(g);
        }
        self.roots = vec![groups[0]];
        let agg = self.add_node(
            NodeLabel::Agg(AggLabel {
                funcs,
                over,
                outputs: outputs.clone(),
            }),
            Some(last),
        );
        self.project_deps(&removed, &outputs);
        Ok(agg)
    }

    /// Removes a leaf node (projection step). Dependencies are updated as
    /// for aggregation but with no new outputs.
    pub fn remove_leaf(&mut self, n: NodeId) -> Result<usize> {
        if !self.node(n).children.is_empty() {
            return Err(FdbError::InvalidOperator(format!(
                "{n:?} is not a leaf; push it down first"
            )));
        }
        let removed: BTreeSet<AttrId> = self.node(n).label.exposed_attrs().into_iter().collect();
        let pos = self.child_position(n);
        self.detach(n);
        self.node_mut(n).dead = true;
        self.project_deps(&removed, &[]);
        Ok(pos)
    }

    /// Projects one attribute out of a multi-member equivalence class.
    ///
    /// The data is untouched (the representative's value stands for the
    /// whole class); dependency edges mentioning the removed attribute are
    /// rewritten to a remaining class member — the members are equal, so
    /// this preserves the dependencies the edges encode.
    pub fn shrink_class(&mut self, n: NodeId, attr: AttrId) -> Result<()> {
        let NodeLabel::Atomic(attrs) = &self.node(n).label else {
            return Err(FdbError::InvalidOperator(
                "shrink_class applies to atomic nodes".into(),
            ));
        };
        let mut rest = attrs.clone();
        rest.retain(|&a| a != attr);
        if rest.is_empty() {
            return Err(FdbError::InvalidOperator(
                "cannot shrink a class to empty; remove the node instead".into(),
            ));
        }
        let replacement = rest[0];
        self.node_mut(n).label = NodeLabel::Atomic(rest);
        for e in &mut self.deps {
            if e.remove(&attr) {
                e.insert(replacement);
            }
        }
        self.deps.retain(|e| e.len() > 1);
        Ok(())
    }

    /// How projecting `attr` away changes this f-tree (§2.1): the one
    /// decision that both the projection operator and plan simulation
    /// follow, so a plan that simulates also executes. A composite
    /// aggregate node is refused — its outputs share one value and
    /// cannot be projected one at a time.
    pub fn projection(&self, attr: AttrId) -> Result<Projection> {
        let n = self
            .node_of_attr(attr)
            .ok_or_else(|| FdbError::Unresolved(format!("attribute {attr} not in f-tree")))?;
        match &self.node(n).label {
            NodeLabel::Atomic(attrs) if attrs.len() > 1 => Ok(Projection::ShrinkClass(n)),
            NodeLabel::Agg(l) if l.outputs.len() > 1 => Err(FdbError::InvalidOperator(
                "cannot project a single output of a composite aggregate".into(),
            )),
            _ => Ok(Projection::PushDownAndRemove(n)),
        }
    }

    /// Renames an exposed attribute in place (constant time; names live in
    /// the f-tree, not in singletons, §2.1).
    pub fn rename_attr(&mut self, from: AttrId, to: AttrId) -> Result<()> {
        let n = self
            .node_of_attr(from)
            .ok_or_else(|| FdbError::Unresolved(format!("attribute {from} not in f-tree")))?;
        match &mut self.node_mut(n).label {
            NodeLabel::Atomic(attrs) => {
                for a in attrs.iter_mut() {
                    if *a == from {
                        *a = to;
                    }
                }
            }
            NodeLabel::Agg(l) => {
                for a in l.outputs.iter_mut() {
                    if *a == from {
                        *a = to;
                    }
                }
            }
        }
        for e in &mut self.deps {
            if e.remove(&from) {
                e.insert(to);
            }
        }
        Ok(())
    }

    /// Disjoint union with another f-tree (the product operator): appends
    /// `other`'s nodes, roots and dependency edges, remapping node ids.
    ///
    /// Returns the id offset applied to `other`'s nodes.
    pub fn extend_forest(&mut self, other: &FTree) -> u32 {
        let offset = self.nodes.len() as u32;
        for node in &other.nodes {
            let mut n = node.clone();
            n.parent = n.parent.map(|p| NodeId(p.0 + offset));
            n.children = n.children.iter().map(|c| NodeId(c.0 + offset)).collect();
            self.nodes.push(n);
        }
        self.roots
            .extend(other.roots.iter().map(|r| NodeId(r.0 + offset)));
        self.deps.extend(other.deps.iter().cloned());
        offset
    }

    fn detach(&mut self, n: NodeId) {
        match self.node(n).parent {
            Some(p) => {
                let pos = self.child_position(n);
                self.node_mut(p).children.remove(pos);
            }
            None => {
                let pos = self.child_position(n);
                self.roots.remove(pos);
            }
        }
        self.node_mut(n).parent = None;
    }

    /// Projection effect on dependencies (§3): attributes dependent on the
    /// removed set become mutually dependent, and the new outputs (if any)
    /// depend on all of them.
    fn project_deps(&mut self, removed: &BTreeSet<AttrId>, new_outputs: &[AttrId]) {
        let mut dependents: BTreeSet<AttrId> = BTreeSet::new();
        for e in &self.deps {
            if e.iter().any(|a| removed.contains(a)) {
                dependents.extend(e.iter().copied().filter(|a| !removed.contains(a)));
            }
        }
        for e in &mut self.deps {
            e.retain(|a| !removed.contains(a));
        }
        self.deps.retain(|e| e.len() > 1);
        let mut new_edge = dependents;
        new_edge.extend(new_outputs.iter().copied());
        if new_edge.len() > 1 {
            self.deps.push(new_edge);
        }
    }

    /// Canonical structural key: label + multiset of child keys, so two
    /// f-trees that differ only in sibling order (semantically
    /// irrelevant for products) get the same key. The tests compare
    /// result trees by it.
    pub fn canonical_key(&self) -> String {
        let mut keys: Vec<String> = self.roots.iter().map(|&r| self.node_key(r)).collect();
        keys.sort();
        keys.join("|")
    }

    fn node_key(&self, n: NodeId) -> String {
        let mut label = String::new();
        match &self.node(n).label {
            NodeLabel::Atomic(attrs) => {
                let mut ids: Vec<u32> = attrs.iter().map(|a| a.0).collect();
                ids.sort_unstable();
                let _ = write!(label, "a{ids:?}");
            }
            NodeLabel::Agg(l) => {
                let _ = write!(label, "g{:?}/{:?}/{:?}", l.funcs, l.over, l.outputs);
            }
        }
        let mut child_keys: Vec<String> = self
            .node(n)
            .children
            .iter()
            .map(|&c| self.node_key(c))
            .collect();
        child_keys.sort();
        format!("({label}[{}])", child_keys.join(","))
    }

    /// Multi-line rendering with attribute names.
    pub fn display(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.display_node(r, catalog, 0, &mut out);
        }
        out
    }

    /// Short name of node `n`: its class members joined by `=` for an
    /// atomic node, its output columns joined by `,` for an aggregate
    /// node (how `EXPLAIN` refers to the nodes an operator touches).
    pub(crate) fn node_name(&self, n: NodeId, catalog: &Catalog) -> String {
        let (attrs, sep) = match &self.node(n).label {
            NodeLabel::Atomic(attrs) => (attrs, "="),
            NodeLabel::Agg(l) => (&l.outputs, ","),
        };
        let names: Vec<&str> = attrs.iter().map(|&a| catalog.name(a)).collect();
        names.join(sep)
    }

    fn display_node(&self, n: NodeId, catalog: &Catalog, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match &self.node(n).label {
            NodeLabel::Atomic(_) => {
                let _ = writeln!(out, "{pad}{}", self.node_name(n, catalog));
            }
            NodeLabel::Agg(l) => {
                let over: Vec<&str> = l.over.iter().map(|&a| catalog.name(a)).collect();
                let funcs: Vec<String> = l.funcs.iter().map(|f| f.display(catalog)).collect();
                let _ = writeln!(out, "{pad}{}({})", funcs.join(","), over.join(","));
            }
        }
        for &c in &self.node(n).children {
            self.display_node(c, catalog, depth + 1, out);
        }
    }
}

/// Result of [`FTree::swap`]: partition of `b`'s former children.
#[derive(Clone, Debug)]
pub struct SwapOutcome {
    /// Children of `b` that moved up with `b` (`T_B`), original order.
    pub moved_up: Vec<NodeId>,
    /// Children of `b` that stayed under `a` (`T_AB`), original order.
    pub stayed: Vec<NodeId>,
    /// Position `b` had among `a`'s children before the swap.
    pub b_pos_in_a: usize,
}

/// Result of [`FTree::projection`]: the f-tree step that projects one
/// attribute away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Projection {
    /// The attribute shares its node with other class members: drop it
    /// from the label ([`FTree::shrink_class`]); the data is untouched.
    ShrinkClass(NodeId),
    /// The node exposes nothing else: push it down to a leaf by swapping
    /// its children above it, then remove it ([`FTree::remove_leaf`]).
    PushDownAndRemove(NodeId),
}

/// Result of [`FTree::merge`]: the sibling positions of the merged nodes.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    pub a_pos: usize,
    pub b_pos: usize,
}

/// Result of [`FTree::absorb`].
#[derive(Clone, Debug)]
pub struct AbsorbOutcome {
    /// `desc`'s former parent.
    pub parent: NodeId,
    /// `desc`'s former position under that parent.
    pub pos: usize,
    /// Number of children spliced in place of `desc`.
    pub spliced: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's f-tree T1 (Fig. 2): pizza → {date → customer,
    /// item → price}, with dependency edges for Orders(customer, date,
    /// pizza), Pizzas(pizza, item), Items(item, price).
    fn t1() -> (Catalog, FTree, [NodeId; 5]) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let customer = c.intern("customer");
        let item = c.intern("item");
        let price = c.intern("price");
        let mut t = FTree::new();
        let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
        let n_date = t.add_node(NodeLabel::Atomic(vec![date]), Some(n_pizza));
        let n_customer = t.add_node(NodeLabel::Atomic(vec![customer]), Some(n_date));
        let n_item = t.add_node(NodeLabel::Atomic(vec![item]), Some(n_pizza));
        let n_price = t.add_node(NodeLabel::Atomic(vec![price]), Some(n_item));
        t.add_dep([customer, date, pizza]);
        t.add_dep([pizza, item]);
        t.add_dep([item, price]);
        (c, t, [n_pizza, n_date, n_customer, n_item, n_price])
    }

    #[test]
    fn path_tree_shape() {
        let t = FTree::path(&[AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(t.roots().len(), 1);
        let nodes = t.live_nodes();
        assert_eq!(nodes.len(), 3);
        assert_eq!(t.depth(nodes[2]), 2);
    }

    #[test]
    fn t1_satisfies_path_constraint() {
        let (_, t, _) = t1();
        t.check_path_constraint().unwrap();
    }

    #[test]
    fn diverging_dependency_violates_path_constraint() {
        let (_, mut t, [_, n_date, _, n_item, _]) = t1();
        // Pretend date and item come from the same relation: they sit on
        // diverging branches under pizza.
        let date = t.node(n_date).label.exposed_attrs()[0];
        let item = t.node(n_item).label.exposed_attrs()[0];
        t.add_dep([date, item]);
        assert!(t.check_path_constraint().is_err());
    }

    #[test]
    fn subtree_attrs_and_node_lookup() {
        let (c, t, [n_pizza, _, _, n_item, _]) = t1();
        let item = c.lookup("item").unwrap();
        let price = c.lookup("price").unwrap();
        let sub = t.subtree_attrs(n_item);
        assert!(sub.contains(&item) && sub.contains(&price));
        assert_eq!(sub.len(), 2);
        assert_eq!(t.node_of_attr(item), Some(n_item));
        assert_eq!(t.subtree_attrs(n_pizza).len(), 5);
    }

    #[test]
    fn swap_moves_independent_children_up() {
        // Swap date above pizza in T1. The item subtree depends on pizza
        // (edge pizza–item), so when swapping χ_{pizza,date}, date keeps
        // nothing (its only child customer depends on pizza via Orders).
        let (_, mut t, [n_pizza, n_date, n_customer, _, _]) = t1();
        let out = t.swap(n_pizza, n_date).unwrap();
        assert_eq!(t.roots(), &[n_date]);
        assert_eq!(t.node(n_pizza).parent, Some(n_date));
        // customer depends on pizza (Orders edge) so it stays under pizza.
        assert!(out.stayed.contains(&n_customer));
        assert!(t.node(n_pizza).children.contains(&n_customer));
        t.check_path_constraint().unwrap();
    }

    #[test]
    fn swap_keeps_independent_subtree() {
        // Example 11 setting: Orders = Menu(pizza,date) ⋈ Guests(date,
        // customer), so customer and pizza are independent given date.
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let date = c.intern("date");
        let customer = c.intern("customer");
        let mut t = FTree::new();
        let n_pizza = t.add_node(NodeLabel::Atomic(vec![pizza]), None);
        let n_date = t.add_node(NodeLabel::Atomic(vec![date]), Some(n_pizza));
        let n_customer = t.add_node(NodeLabel::Atomic(vec![customer]), Some(n_date));
        t.add_dep([pizza, date]);
        t.add_dep([date, customer]);
        let out = t.swap(n_pizza, n_date).unwrap();
        // customer does not depend on pizza: it moves up with date.
        assert_eq!(out.moved_up, vec![n_customer]);
        assert_eq!(t.node(n_date).children, vec![n_customer, n_pizza]);
        t.check_path_constraint().unwrap();
    }

    #[test]
    fn swap_requires_parent_child() {
        let (_, mut t, [n_pizza, _, n_customer, _, _]) = t1();
        assert!(t.swap(n_pizza, n_customer).is_err());
    }

    #[test]
    fn merge_unions_classes_and_children() {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let x = c.intern("x");
        let mut t = FTree::new();
        let na = t.add_node(NodeLabel::Atomic(vec![a]), None);
        let nb = t.add_node(NodeLabel::Atomic(vec![b]), None);
        let nx = t.add_node(NodeLabel::Atomic(vec![x]), Some(nb));
        let out = t.merge(na, nb).unwrap();
        assert_eq!(out.a_pos, 0);
        assert_eq!(out.b_pos, 1);
        assert_eq!(t.roots(), &[na]);
        assert_eq!(t.node(na).label.exposed_attrs().len(), 2);
        assert_eq!(t.node(nx).parent, Some(na));
    }

    #[test]
    fn absorb_splices_children() {
        let (c, mut t, [n_pizza, n_date, n_customer, _, _]) = t1();
        // Pretend a self-join condition pizza = customer (types aside):
        // customer is a strict descendant of pizza.
        t.absorb(n_pizza, n_customer).unwrap();
        let pizza_class = t.node(n_pizza).label.exposed_attrs();
        assert_eq!(pizza_class.len(), 2);
        assert!(pizza_class.contains(&c.lookup("customer").unwrap()));
        assert!(t.node(n_date).children.is_empty());
    }

    #[test]
    fn aggregate_replaces_subtree_and_updates_deps() {
        let (mut c, mut t, [n_pizza, _, _, n_item, _]) = t1();
        let out_attr = c.intern("sum(price)");
        let price = c.lookup("price").unwrap();
        let new = t
            .aggregate(
                Some(n_pizza),
                &[n_item],
                vec![AggOp::Sum(price)],
                vec![out_attr],
            )
            .unwrap();
        // T2 of Fig. 2: pizza → {date → customer, sum(price)}.
        assert_eq!(t.node(n_pizza).children.len(), 2);
        assert_eq!(t.node(new).parent, Some(n_pizza));
        match &t.node(new).label {
            NodeLabel::Agg(l) => {
                assert_eq!(l.funcs, vec![AggOp::Sum(price)]);
                assert!(l.over.contains(&price));
                assert_eq!(l.over.len(), 2);
            }
            _ => panic!("expected aggregate node"),
        }
        // New dependency: sum(price) depends on pizza (Example 5).
        let pizza = c.lookup("pizza").unwrap();
        assert!(t
            .deps()
            .iter()
            .any(|e| e.contains(&out_attr) && e.contains(&pizza)));
        t.check_path_constraint().unwrap();
    }

    #[test]
    fn aggregate_of_aggregate_accumulates_over_set() {
        let (mut c, mut t, [n_pizza, _, _, n_item, _]) = t1();
        let price = c.lookup("price").unwrap();
        let s1 = c.intern("s1");
        let first = t
            .aggregate(Some(n_pizza), &[n_item], vec![AggOp::Sum(price)], vec![s1])
            .unwrap();
        // Now aggregate the whole forest (roots) into one value.
        let s2 = c.intern("s2");
        let root = t.roots()[0];
        let new = t
            .aggregate(None, &[root], vec![AggOp::Sum(price)], vec![s2])
            .unwrap();
        let _ = first;
        match &t.node(new).label {
            NodeLabel::Agg(l) => {
                // over = all five original attributes.
                assert_eq!(l.over.len(), 5);
            }
            _ => panic!("expected aggregate node"),
        }
        assert_eq!(t.roots(), &[new]);
    }

    #[test]
    fn remove_leaf_updates_deps() {
        let (mut c, mut t, [_, _, _, n_item, n_price]) = t1();
        t.remove_leaf(n_price).unwrap();
        assert!(t.node(n_item).children.is_empty());
        let price = c.intern("price");
        assert!(!t.deps().iter().any(|e| e.contains(&price)));
        // Removing an internal node must fail.
        assert!(t.remove_leaf(t.roots()[0]).is_err());
    }

    #[test]
    fn rename_is_constant_time_label_change() {
        let (mut c, mut t, [n_pizza, ..]) = t1();
        let pizza = c.lookup("pizza").unwrap();
        let renamed = c.intern("product");
        t.rename_attr(pizza, renamed).unwrap();
        assert!(t.node(n_pizza).label.exposes(renamed));
        assert!(!t.node(n_pizza).label.exposes(pizza));
    }

    #[test]
    fn extend_forest_remaps_ids() {
        let (_, mut t, _) = t1();
        let other = FTree::path(&[AttrId(10), AttrId(11)]);
        let before = t.live_nodes().len();
        t.extend_forest(&other);
        assert_eq!(t.roots().len(), 2);
        assert_eq!(t.live_nodes().len(), before + 2);
        t.check_path_constraint().unwrap();
    }

    #[test]
    fn canonical_key_ignores_sibling_order() {
        let mut t1 = FTree::new();
        let r1 = t1.add_node(NodeLabel::Atomic(vec![AttrId(0)]), None);
        t1.add_node(NodeLabel::Atomic(vec![AttrId(1)]), Some(r1));
        t1.add_node(NodeLabel::Atomic(vec![AttrId(2)]), Some(r1));
        let mut t2 = FTree::new();
        let r2 = t2.add_node(NodeLabel::Atomic(vec![AttrId(0)]), None);
        t2.add_node(NodeLabel::Atomic(vec![AttrId(2)]), Some(r2));
        t2.add_node(NodeLabel::Atomic(vec![AttrId(1)]), Some(r2));
        assert_eq!(t1.canonical_key(), t2.canonical_key());
        // But different shapes differ.
        let t3 = FTree::path(&[AttrId(0), AttrId(1), AttrId(2)]);
        assert_ne!(t1.canonical_key(), t3.canonical_key());
    }

    #[test]
    fn display_renders_tree() {
        let (c, t, _) = t1();
        let s = t.display(&c);
        assert!(s.contains("pizza"));
        assert!(s.contains("  date"));
        assert!(s.contains("    customer"));
    }
}
