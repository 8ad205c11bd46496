//! Physical plan trees for the relational baseline engines.

use crate::attr::{AttrId, Catalog};
use crate::error::RelError;
use crate::expr::Predicate;
use crate::ops::aggregate::PhysAggSpec;
use crate::ops::{self, GroupStrategy};
use crate::relation::{Relation, SortKey};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Join algorithm choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    Hash,
    SortMerge,
}

/// A physical relational plan.
///
/// Plans are trees of standard operators; [`execute`] evaluates them bottom
/// up, fully materialising each intermediate (the engines modelled here are
/// materialising main-memory engines).
#[derive(Clone, Debug)]
pub enum RelPlan {
    /// Leaf: a registered base relation.
    Scan(String),
    /// Filter by a conjunction of predicates.
    Select {
        input: Box<RelPlan>,
        preds: Vec<Predicate>,
    },
    /// Projection, optionally with duplicate elimination.
    Project {
        input: Box<RelPlan>,
        attrs: Vec<AttrId>,
        distinct: bool,
    },
    /// Natural join of the two inputs.
    Join {
        left: Box<RelPlan>,
        right: Box<RelPlan>,
        algo: JoinAlgo,
    },
    /// Grouped aggregation.
    GroupAggregate {
        input: Box<RelPlan>,
        group: Vec<AttrId>,
        aggs: Vec<PhysAggSpec>,
        /// `None` uses the engine's default strategy.
        strategy: Option<GroupStrategy>,
    },
    /// Derived columns computed per tuple (used to finalise `avg`).
    Derive {
        input: Box<RelPlan>,
        exprs: Vec<(DeriveExpr, AttrId)>,
    },
    /// Lexicographic sort.
    Sort {
        input: Box<RelPlan>,
        keys: Vec<SortKey>,
    },
    /// One page of the input order: skip the first `skip` tuples, then
    /// keep at most `k` (`None` keeps the rest — bare `OFFSET`).
    Limit {
        input: Box<RelPlan>,
        skip: usize,
        k: Option<usize>,
    },
}

/// Scalar expression for [`RelPlan::Derive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeriveExpr {
    /// `num / den` as a float (the `avg = sum / count` finaliser).
    Div(AttrId, AttrId),
}

impl RelPlan {
    /// Convenience constructor for boxed children.
    pub fn select(self, preds: Vec<Predicate>) -> RelPlan {
        RelPlan::Select {
            input: Box::new(self),
            preds,
        }
    }

    pub fn project(self, attrs: Vec<AttrId>, distinct: bool) -> RelPlan {
        RelPlan::Project {
            input: Box::new(self),
            attrs,
            distinct,
        }
    }

    pub fn join(self, right: RelPlan, algo: JoinAlgo) -> RelPlan {
        RelPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            algo,
        }
    }

    pub fn group_aggregate(self, group: Vec<AttrId>, aggs: Vec<PhysAggSpec>) -> RelPlan {
        RelPlan::GroupAggregate {
            input: Box::new(self),
            group,
            aggs,
            strategy: None,
        }
    }

    pub fn derive(self, exprs: Vec<(DeriveExpr, AttrId)>) -> RelPlan {
        RelPlan::Derive {
            input: Box::new(self),
            exprs,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> RelPlan {
        RelPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    pub fn limit(self, k: usize) -> RelPlan {
        self.page(0, Some(k))
    }

    /// `OFFSET skip [LIMIT k]` over the input order.
    pub fn page(self, skip: usize, k: Option<usize>) -> RelPlan {
        RelPlan::Limit {
            input: Box::new(self),
            skip,
            k,
        }
    }

    /// Multi-line indented rendering of the plan with attribute names.
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.explain_into(catalog, 0, &mut out);
        out
    }

    fn explain_into(&self, catalog: &Catalog, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            RelPlan::Scan(name) => {
                let _ = writeln!(out, "{pad}Scan {name}");
            }
            RelPlan::Select { input, preds } => {
                let conds: Vec<String> = preds
                    .iter()
                    .map(|p| p.display(catalog).to_string())
                    .collect();
                let _ = writeln!(out, "{pad}Select [{}]", conds.join(" AND "));
                input.explain_into(catalog, depth + 1, out);
            }
            RelPlan::Project {
                input,
                attrs,
                distinct,
            } => {
                let names: Vec<&str> = attrs.iter().map(|&a| catalog.name(a)).collect();
                let d = if *distinct { " DISTINCT" } else { "" };
                let _ = writeln!(out, "{pad}Project{d} [{}]", names.join(", "));
                input.explain_into(catalog, depth + 1, out);
            }
            RelPlan::Join { left, right, algo } => {
                let _ = writeln!(out, "{pad}{algo:?}Join");
                left.explain_into(catalog, depth + 1, out);
                right.explain_into(catalog, depth + 1, out);
            }
            RelPlan::GroupAggregate {
                input,
                group,
                aggs,
                strategy,
            } => {
                let g: Vec<&str> = group.iter().map(|&a| catalog.name(a)).collect();
                let strat = strategy.map_or(String::new(), |s| format!(" ({s:?})"));
                let _ = writeln!(
                    out,
                    "{pad}GroupAggregate{strat} by [{}] -> {} aggregate(s)",
                    g.join(", "),
                    aggs.len()
                );
                input.explain_into(catalog, depth + 1, out);
            }
            RelPlan::Derive { input, exprs } => {
                let _ = writeln!(out, "{pad}Derive {} column(s)", exprs.len());
                input.explain_into(catalog, depth + 1, out);
            }
            RelPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{:?}", catalog.name(k.attr), k.dir))
                    .collect();
                let _ = writeln!(out, "{pad}Sort [{}]", ks.join(", "));
                input.explain_into(catalog, depth + 1, out);
            }
            RelPlan::Limit { input, skip, k } => {
                match (skip, k) {
                    (0, Some(k)) => {
                        let _ = writeln!(out, "{pad}Limit {k}");
                    }
                    (s, Some(k)) => {
                        let _ = writeln!(out, "{pad}Limit {k} Offset {s}");
                    }
                    (s, None) => {
                        let _ = writeln!(out, "{pad}Offset {s}");
                    }
                }
                input.explain_into(catalog, depth + 1, out);
            }
        }
    }
}

/// Evaluates `plan` bottom-up against the registered `relations`.
pub fn execute(
    plan: &RelPlan,
    relations: &HashMap<String, Relation>,
    default_strategy: GroupStrategy,
) -> Result<Relation, RelError> {
    match plan {
        RelPlan::Scan(name) => relations
            .get(name)
            .cloned()
            .ok_or_else(|| RelError::UnknownRelation(name.clone())),
        RelPlan::Select { input, preds } => {
            let rel = execute(input, relations, default_strategy)?;
            Ok(ops::select(&rel, preds))
        }
        RelPlan::Project {
            input,
            attrs,
            distinct,
        } => {
            let rel = execute(input, relations, default_strategy)?;
            Ok(ops::project(&rel, attrs, *distinct))
        }
        RelPlan::Join { left, right, algo } => {
            let l = execute(left, relations, default_strategy)?;
            let r = execute(right, relations, default_strategy)?;
            Ok(match algo {
                JoinAlgo::Hash => ops::hash_join(&l, &r),
                JoinAlgo::SortMerge => ops::sort_merge_join(&l, &r),
            })
        }
        RelPlan::GroupAggregate {
            input,
            group,
            aggs,
            strategy,
        } => {
            let rel = execute(input, relations, default_strategy)?;
            Ok(ops::group_aggregate(
                &rel,
                group,
                aggs,
                strategy.unwrap_or(default_strategy),
            ))
        }
        RelPlan::Derive { input, exprs } => {
            let rel = execute(input, relations, default_strategy)?;
            derive(&rel, exprs)
        }
        RelPlan::Sort { input, keys } => {
            let rel = execute(input, relations, default_strategy)?;
            Ok(ops::order_by(&rel, keys))
        }
        RelPlan::Limit { input, skip, k } => {
            let rel = execute(input, relations, default_strategy)?;
            Ok(ops::page(&rel, *skip, *k))
        }
    }
}

fn derive(rel: &Relation, exprs: &[(DeriveExpr, AttrId)]) -> Result<Relation, RelError> {
    let schema = rel.schema().clone();
    let out_schema = crate::schema::Schema::new(
        schema
            .attrs()
            .iter()
            .copied()
            .chain(exprs.iter().map(|(_, out)| *out))
            .collect(),
    );
    let mut out = Relation::empty(out_schema);
    let mut buf: Vec<Value> = Vec::with_capacity(out.arity());
    for row in rel.rows() {
        buf.clear();
        buf.extend_from_slice(row);
        for (expr, _) in exprs {
            match expr {
                DeriveExpr::Div(num, den) => {
                    let pn = schema.position(*num).ok_or(RelError::MissingAttribute {
                        attr: format!("{num}"),
                        context: "derive".into(),
                    })?;
                    let pd = schema.position(*den).ok_or(RelError::MissingAttribute {
                        attr: format!("{den}"),
                        context: "derive".into(),
                    })?;
                    let n = row[pn].as_number().expect("numeric numerator").to_f64();
                    let d = row[pd].as_number().expect("numeric denominator").to_f64();
                    buf.push(Value::Float(n / d));
                }
            }
        }
        out.push_row(&buf);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggSpec};
    use crate::schema::Schema;

    fn db() -> (Catalog, HashMap<String, Relation>) {
        let mut c = Catalog::new();
        let item = c.intern("item");
        let price = c.intern("price");
        let items = Relation::from_rows(
            Schema::new(vec![item, price]),
            [("base", 6), ("ham", 1), ("mushrooms", 1), ("pineapple", 2)]
                .into_iter()
                .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
        );
        let mut rels = HashMap::new();
        rels.insert("Items".to_string(), items);
        (c, rels)
    }

    #[test]
    fn scan_missing_relation_errors() {
        let (_, rels) = db();
        let err = execute(&RelPlan::Scan("Nope".into()), &rels, GroupStrategy::Sort);
        assert_eq!(err, Err(RelError::UnknownRelation("Nope".into())));
    }

    #[test]
    fn aggregate_sort_limit_pipeline() {
        let (mut c, rels) = db();
        let price = c.lookup("price").unwrap();
        let total = c.intern("total");
        let plan = RelPlan::Scan("Items".into())
            .group_aggregate(
                vec![],
                vec![AggSpec::new(AggFunc::Sum(price), total).into()],
            )
            .sort(vec![SortKey::asc(total)])
            .limit(1);
        let out = execute(&plan, &rels, GroupStrategy::Sort).unwrap();
        assert_eq!(out.row(0), &[Value::Int(10)]);
    }

    #[test]
    fn derive_divides() {
        let (mut c, rels) = db();
        let price = c.lookup("price").unwrap();
        let s = c.intern("s");
        let n = c.intern("n");
        let avg = c.intern("avg_price");
        let plan = RelPlan::Scan("Items".into())
            .group_aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Sum(price), s).into(),
                    AggSpec::new(AggFunc::Count, n).into(),
                ],
            )
            .derive(vec![(DeriveExpr::Div(s, n), avg)]);
        let out = execute(&plan, &rels, GroupStrategy::Hash).unwrap();
        assert_eq!(out.row(0)[2], Value::Float(2.5));
    }

    #[test]
    fn explain_renders_tree() {
        let (mut c, _) = db();
        let price = c.lookup("price").unwrap();
        let total = c.intern("total");
        let plan = RelPlan::Scan("Items".into())
            .group_aggregate(
                vec![],
                vec![AggSpec::new(AggFunc::Sum(price), total).into()],
            )
            .sort(vec![SortKey::asc(total)]);
        let text = plan.explain(&c);
        assert!(text.contains("Sort"));
        assert!(text.contains("GroupAggregate"));
        assert!(text.contains("Scan Items"));
    }
}
