//! The queries of Figure 3 and the extended aggregate surface, parsed
//! from [`fdb_workload::orders::QUERIES`] into engine-neutral tasks.

use fdb_core::engine::FdbEngine;
use fdb_relational::planner::JoinAggTask;
use fdb_workload::orders::{over_base_relations, QUERIES};

/// Query classes of Figure 3, plus the extended aggregate surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Aggregates and group-by (Q1–Q5).
    Agg,
    /// Aggregates with order-by (Q6–Q9).
    AggOrd,
    /// Order-by only (Q10–Q13).
    Ord,
    /// Extended aggregate surface (QD/QP/QB/QK/QG): distinct counting,
    /// wrapping product, boolean quantifiers, top-k-per-group and a
    /// ROLLUP grouping-set expansion ([`extended_agg_queries`]).
    AggExt,
}

impl QueryClass {
    /// The class of the query named `name` in [`QUERIES`].
    fn of(name: &str) -> Self {
        match name[1..].parse::<u32>() {
            Ok(1..=5) => QueryClass::Agg,
            Ok(6..=9) => QueryClass::AggOrd,
            Ok(_) => QueryClass::Ord,
            Err(_) => QueryClass::AggExt,
        }
    }
}

/// One benchmark query: its name, class and task. The task's only input
/// is its FROM relation (`R1`, or `R3` for Q13), except for the
/// flat-input variants, which join the three base relations.
#[derive(Clone, Debug)]
pub struct PaperQuery {
    pub name: &'static str,
    pub class: QueryClass,
    pub task: JoinAggTask,
}

/// Parses the queries of `classes`, each through `sql`, against `fdb`'s
/// catalog and registered schemas.
fn parse(
    fdb: &mut FdbEngine,
    classes: &[QueryClass],
    sql: impl Fn(&str) -> String,
) -> Vec<PaperQuery> {
    let schemas = fdb.schemas();
    let classed = QUERIES
        .iter()
        .map(|&(name, text)| (name, QueryClass::of(name), text));
    classed
        .filter(|(_, class, _)| classes.contains(class))
        .map(|(name, class, text)| {
            let task = fdb_query::parse(&sql(text), &mut fdb.catalog, &schemas)
                .unwrap_or_else(|err| panic!("{name}: {err}"))
                .to_task();
            PaperQuery { name, class, task }
        })
        .collect()
}

/// Q1–Q13 on the views `R1` and `R3` registered in `fdb`.
pub fn paper_queries(fdb: &mut FdbEngine) -> Vec<PaperQuery> {
    let classes = [QueryClass::Agg, QueryClass::AggOrd, QueryClass::Ord];
    parse(fdb, &classes, str::to_string)
}

/// The extended aggregate surface on `R1` — not part of Figure 3. Benched
/// by `figures --fig 5`, whose claims cover each of them.
pub fn extended_agg_queries(fdb: &mut FdbEngine) -> Vec<PaperQuery> {
    parse(fdb, &[QueryClass::AggExt], str::to_string)
}

/// Figure 5's queries: the AGG queries Q1–Q5, then the extended
/// aggregate surface.
pub fn figure5_queries(fdb: &mut FdbEngine) -> Vec<PaperQuery> {
    parse(fdb, &[QueryClass::Agg, QueryClass::AggExt], str::to_string)
}

/// The flat-input variants of the AGG queries (Figure 6): same grouping
/// and aggregates, but over the three base relations instead of the view.
pub fn flat_input_agg_queries(fdb: &mut FdbEngine) -> Vec<PaperQuery> {
    parse(fdb, &[QueryClass::Agg], over_base_relations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchSetup;
    use fdb_workload::orders::OrdersConfig;

    fn engine() -> FdbEngine {
        let config = OrdersConfig {
            scale: 1,
            customers: 4,
            seed: 1,
        };
        let setup = BenchSetup {
            config,
            materialise_flat: false,
        };
        setup.build().fdb
    }

    #[test]
    fn thirteen_queries_in_three_classes() {
        let qs = paper_queries(&mut engine());
        assert_eq!(qs.len(), 13);
        assert_eq!(qs.iter().filter(|q| q.class == QueryClass::Agg).count(), 5);
        assert_eq!(
            qs.iter().filter(|q| q.class == QueryClass::AggOrd).count(),
            4
        );
        assert_eq!(qs.iter().filter(|q| q.class == QueryClass::Ord).count(), 4);
        assert!(qs.iter().all(|q| !q.task.inputs.is_empty()));
    }

    #[test]
    fn flat_variants_join_three_relations() {
        let qs = flat_input_agg_queries(&mut engine());
        assert_eq!(qs.len(), 5);
        assert!(qs.iter().all(|q| q.task.inputs.len() == 3));
    }
}
