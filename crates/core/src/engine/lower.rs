//! Lowering: a [`JoinAggTask`] onto factorised inputs. Views are cloned,
//! flat relations factorised as tries and multiplied, name collisions
//! shadowed into natural-join selections, and `AVG` desugared into
//! `(sum, count)` plus a division at emission (§3.2.4) — one [`Lowered`]
//! value per run, which planning and execution only read.

use super::{FdbEngine, Restructured};
use crate::error::{FdbError, Result};
use crate::frep::FRep;
use crate::ftree::{AggOp, FTree};
use crate::optim::{QuerySpec, Stats};
use fdb_relational::planner::JoinAggTask;
use fdb_relational::{dedup_sort_keys, AggFunc, AttrId, Predicate, Relation, Schema, SortKey};
use std::sync::{Arc, Mutex};

/// How one output column is produced from the enumerated raw columns.
#[derive(Clone, Copy, Debug)]
pub(super) enum EmitCol {
    /// Copy a raw attribute.
    Raw(AttrId),
    /// `num / den` as a float — finalises `avg = (sum, count)` (§3.2.4).
    Div { num: AttrId, den: AttrId },
    /// NULL: a group column outside the grouping set being emitted.
    Null,
}

/// A task lowered onto factorised inputs.
pub(super) struct Lowered {
    /// The input factorisation: the product of every `FROM` input.
    pub(super) rep: FRep,
    /// The restructured copies of the input's version, when the input
    /// is one registered view.
    pub(super) restructured: Option<Arc<Mutex<Restructured>>>,
    /// The cost model's statistics of those inputs.
    pub(super) stats: Stats,
    /// The optimiser's spec, realising no order and consolidating
    /// nothing; each planned candidate sets those two fields.
    pub(super) spec: QuerySpec,
    /// Normalised order keys: later duplicates of an attribute are
    /// dropped — the first occurrence (and its direction) decides, so
    /// streaming, heap top-k and the flat sort all honour the same list
    /// (`fdb_relational::dedup_sort_keys`).
    pub(super) order_keys: Vec<SortKey>,
    /// The output columns in declared order …
    pub(super) schema: Schema,
    /// … and how each is produced.
    pub(super) emit: Vec<EmitCol>,
}

impl FdbEngine {
    /// Lowers `task`: assembles its inputs, splits its predicates into
    /// equality and constant selections, and desugars its aggregates.
    pub(super) fn lower(&mut self, task: &JoinAggTask) -> Result<Lowered> {
        let mut spec = QuerySpec::default();
        let (rep, stats) = self.build_input(&task.inputs, &mut spec)?;
        let restructured = match task.inputs.as_slice() {
            [name] => self.views.get(name).map(|v| Arc::clone(&v.restructured)),
            _ => None,
        };
        for p in &task.predicates {
            match p {
                Predicate::AttrEq(a, b) => spec.selections.push((*a, *b)),
                Predicate::AttrCmp(a, op, v) => spec.const_preds.push((*a, *op, v.clone())),
            }
        }
        spec.group_by = task.group_by.clone();
        let mut emit: Vec<EmitCol>;
        let schema = if task.is_aggregate() {
            spec.projection = None;
            emit = task.group_by.iter().map(|&g| EmitCol::Raw(g)).collect();
            for agg in &task.aggregates {
                if let Some(op) = AggOp::from_func(agg.func) {
                    spec.final_funcs.push(op);
                    spec.final_outputs.push(agg.output);
                    emit.push(EmitCol::Raw(agg.output));
                } else if let AggFunc::Avg(a) = agg.func {
                    let name = self.catalog.name(a).to_string();
                    let s = self.catalog.fresh(&format!("avg_sum({name})"));
                    let n = self.catalog.fresh(&format!("avg_count({name})"));
                    spec.final_funcs.extend([AggOp::Sum(a), AggOp::Count]);
                    spec.final_outputs.extend([s, n]);
                    emit.push(EmitCol::Div { num: s, den: n });
                }
            }
            Schema::new(task.output_attrs())
        } else {
            let natural = spec.projection.take();
            let proj = task.projection.clone().or(natural).unwrap_or_default();
            emit = proj.iter().map(|&a| EmitCol::Raw(a)).collect();
            spec.projection = Some(proj.clone());
            Schema::new(proj)
        };
        let order_keys = dedup_sort_keys(&task.order_by);
        Ok(Lowered {
            rep,
            restructured,
            stats,
            spec,
            order_keys,
            schema,
            emit,
        })
    }

    /// Assembles the input factorisation for the task's `FROM` list and
    /// its statistics. Adds the natural-join selections to `spec` and
    /// projects it on the natural (unshadowed) attributes.
    fn build_input(&mut self, inputs: &[String], spec: &mut QuerySpec) -> Result<(FRep, Stats)> {
        if inputs.is_empty() {
            return Err(FdbError::Unresolved("query has no inputs".into()));
        }
        if inputs.len() == 1 {
            if let Some(v) = self.views.get(&inputs[0]) {
                spec.projection = Some(v.rep.ftree().all_attrs());
                return Ok((FRep::clone(&v.rep), v.stats.clone()));
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
                    spec.selections.push((a, shadow));
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
        spec.projection = Some(natural);
        Ok((combined.expect("at least one input"), stats))
    }
}
