//! The RDB baseline engine.
//!
//! A basic main-memory relational engine in the spirit of the paper's
//! Experiment 5: relations are fully materialised, grouping is either
//! sort-based (modelling SQLite, whose grouping the paper found RDB to
//! match closely) or hash-based (modelling PostgreSQL), and plans come from
//! the lazy or eager planner.

use crate::attr::Catalog;
use crate::error::RelError;
use crate::ops::GroupStrategy;
use crate::plan::{execute, RelPlan};
use crate::planner::{eager_plan, naive_plan, JoinAggTask};
use crate::relation::Relation;
use crate::schema::Schema;
use std::collections::HashMap;

/// Plan flavour: lazy aggregation (what the off-the-shelf engines did) or
/// eager aggregation (the handcrafted "man" plans of Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    Naive,
    Eager,
}

/// A small materialising main-memory relational engine.
#[derive(Clone, Debug)]
pub struct RdbEngine {
    /// Attribute catalog shared with registered relations.
    pub catalog: Catalog,
    relations: HashMap<String, Relation>,
    /// Default grouping strategy for plans that do not pin one.
    pub strategy: GroupStrategy,
}

impl RdbEngine {
    /// Creates an engine with the given default grouping strategy.
    pub fn new(catalog: Catalog, strategy: GroupStrategy) -> Self {
        RdbEngine {
            catalog,
            relations: HashMap::new(),
            strategy,
        }
    }

    /// Registers (or replaces) a base relation under `name`.
    pub fn register(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    /// Borrow of a registered relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Schemas of all registered relations (input to the planners).
    pub fn schemas(&self) -> HashMap<String, Schema> {
        self.relations
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect()
    }

    /// Plans `task` in the requested mode.
    ///
    /// [`PlanMode::Eager`] falls back to the naive plan when the rewrite
    /// does not apply (mirroring how a real optimiser would).
    pub fn plan(&mut self, task: &JoinAggTask, mode: PlanMode) -> Result<RelPlan, RelError> {
        let schemas = self.schemas();
        match mode {
            PlanMode::Naive => naive_plan(task, &mut self.catalog, &schemas),
            PlanMode::Eager => match eager_plan(task, &mut self.catalog, &schemas) {
                Ok(p) => Ok(p),
                Err(RelError::Unsupported(_)) => naive_plan(task, &mut self.catalog, &schemas),
                Err(e) => Err(e),
            },
        }
    }

    /// Executes a physical plan.
    pub fn execute(&self, plan: &RelPlan) -> Result<Relation, RelError> {
        execute(plan, &self.relations, self.strategy)
    }

    /// Plans and executes in one step.
    pub fn run(&mut self, task: &JoinAggTask, mode: PlanMode) -> Result<Relation, RelError> {
        if !task.grouping_sets.is_empty() {
            return self.run_grouping_sets(task, mode);
        }
        let plan = self.plan(task, mode)?;
        self.execute(&plan)
    }

    /// `GROUP BY GROUPING SETS` (and its ROLLUP/CUBE sugar): one
    /// aggregation per set over the same joined data, missing group
    /// columns padded with NULL, results concatenated in declared set
    /// order; HAVING/ORDER BY/LIMIT apply to the combined rows.
    fn run_grouping_sets(
        &mut self,
        task: &JoinAggTask,
        mode: PlanMode,
    ) -> Result<Relation, RelError> {
        let output = task.output_attrs();
        let out_schema = Schema::new(output.clone());
        let mut out = Relation::empty(out_schema.clone());
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
            let rel = self.run(&sub, mode)?;
            let sub_schema = rel.schema().clone();
            let mut row_buf = Vec::with_capacity(output.len());
            for row in rel.rows() {
                row_buf.clear();
                for &a in &output {
                    match sub_schema.position(a) {
                        Some(p) => row_buf.push(row[p].clone()),
                        None => row_buf.push(crate::value::Value::Null),
                    }
                }
                out.push_row(&row_buf);
            }
        }
        if !task.having.is_empty() {
            out = crate::ops::select(&out, &task.having);
        }
        if !task.order_by.is_empty() {
            out.sort_by_keys(&task.order_by);
        }
        if task.limit.is_some() || task.offset > 0 {
            out = crate::ops::page(&out, task.offset, task.limit);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggSpec};
    use crate::relation::SortKey;
    use crate::value::Value;

    fn engine() -> RdbEngine {
        let mut catalog = Catalog::new();
        let item = catalog.intern("item");
        let price = catalog.intern("price");
        let items = Relation::from_rows(
            Schema::new(vec![item, price]),
            [("base", 6), ("ham", 1), ("mushrooms", 1), ("pineapple", 2)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let mut e = RdbEngine::new(catalog, GroupStrategy::Sort);
        e.register("Items", items);
        e
    }

    #[test]
    fn run_simple_aggregate() {
        let mut e = engine();
        let price = e.catalog.lookup("price").unwrap();
        let total = e.catalog.intern("total");
        let task = JoinAggTask {
            inputs: vec!["Items".into()],
            aggregates: vec![AggSpec::new(AggFunc::Sum(price), total)],
            ..Default::default()
        };
        let out = e.run(&task, PlanMode::Naive).unwrap();
        assert_eq!(out.row(0), &[Value::Int(10)]);
    }

    #[test]
    fn eager_mode_falls_back_for_spj() {
        let mut e = engine();
        let item = e.catalog.lookup("item").unwrap();
        let task = JoinAggTask {
            inputs: vec!["Items".into()],
            projection: Some(vec![item]),
            order_by: vec![SortKey::asc(item)],
            ..Default::default()
        };
        let out = e.run(&task, PlanMode::Eager).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.is_sorted_by(&[SortKey::asc(item)]));
    }

    #[test]
    fn strategies_give_equal_results() {
        let mut sort_engine = engine();
        let mut hash_engine = sort_engine.clone();
        hash_engine.strategy = GroupStrategy::Hash;
        let price = sort_engine.catalog.lookup("price").unwrap();
        let n = sort_engine.catalog.intern("n");
        hash_engine.catalog = sort_engine.catalog.clone();
        let task = JoinAggTask {
            inputs: vec!["Items".into()],
            group_by: vec![price],
            aggregates: vec![AggSpec::new(AggFunc::Count, n)],
            ..Default::default()
        };
        let a = sort_engine.run(&task, PlanMode::Naive).unwrap().canonical();
        let b = hash_engine.run(&task, PlanMode::Naive).unwrap().canonical();
        assert_eq!(a, b);
    }
}
