//! Aggregation function specifications, shared by the relational baselines
//! and (re-exported) by the factorised engine.
//!
//! The paper considers `sum`, `count`, `min` and `max`; `avg` is recovered as
//! the pair `(sum, count)` (§2, §3.2.4). [`AggFunc`] is the logical function
//! as written in a query; [`AggSpec`] pairs it with its output attribute,
//! matching the `̟G; α←F` notation.

use crate::attr::{AttrId, Catalog};
use crate::expr::CmpOp;
use crate::value::{Number, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A logical aggregation function over one attribute (or none, for `count`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of tuples in the group.
    Count,
    /// Sum of the attribute's values.
    Sum(AttrId),
    /// Minimum of the attribute's values.
    Min(AttrId),
    /// Maximum of the attribute's values.
    Max(AttrId),
    /// Average of the attribute's values; evaluated as `(sum, count)`.
    Avg(AttrId),
    /// Number of distinct non-NULL values of the attribute.
    CountDistinct(AttrId),
    /// Product of the attribute's non-NULL values (bag semantics).
    Product(AttrId),
    /// `1` if any non-NULL value satisfies `value θ c`, else `0`.
    Exists(AttrId, CmpOp, i64),
    /// `1` if every non-NULL value satisfies `value θ c` (vacuously `1`).
    Forall(AttrId, CmpOp, i64),
    /// The `k` largest non-NULL values (bag semantics), descending, as a
    /// `Tup`; `NULL` when the group has no non-NULL input.
    TopK(AttrId, usize),
}

impl AggFunc {
    /// The aggregated attribute, if any (`count` has none).
    pub fn attr(&self) -> Option<AttrId> {
        match self {
            AggFunc::Count => None,
            AggFunc::Sum(a)
            | AggFunc::Min(a)
            | AggFunc::Max(a)
            | AggFunc::Avg(a)
            | AggFunc::CountDistinct(a)
            | AggFunc::Product(a)
            | AggFunc::Exists(a, _, _)
            | AggFunc::Forall(a, _, _)
            | AggFunc::TopK(a, _) => Some(*a),
        }
    }

    /// Renders the function with attribute names from `catalog`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> AggFuncDisplay<'a> {
        AggFuncDisplay {
            func: self,
            catalog,
        }
    }

    /// Derived name used when a query does not alias the aggregate.
    pub fn derived_name(&self, catalog: &Catalog) -> String {
        match self {
            AggFunc::Count => "count(*)".to_string(),
            AggFunc::Sum(a) => format!("sum({})", catalog.name(*a)),
            AggFunc::Min(a) => format!("min({})", catalog.name(*a)),
            AggFunc::Max(a) => format!("max({})", catalog.name(*a)),
            AggFunc::Avg(a) => format!("avg({})", catalog.name(*a)),
            AggFunc::CountDistinct(a) => format!("count(distinct {})", catalog.name(*a)),
            AggFunc::Product(a) => format!("product({})", catalog.name(*a)),
            AggFunc::Exists(a, op, c) => {
                format!("exists({} {} {c})", catalog.name(*a), op.symbol())
            }
            AggFunc::Forall(a, op, c) => {
                format!("forall({} {} {c})", catalog.name(*a), op.symbol())
            }
            AggFunc::TopK(a, k) => format!("top_k({}, {k})", catalog.name(*a)),
        }
    }
}

/// Helper for [`AggFunc::display`].
pub struct AggFuncDisplay<'a> {
    func: &'a AggFunc,
    catalog: &'a Catalog,
}

impl fmt::Display for AggFuncDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.func.derived_name(self.catalog))
    }
}

/// One aggregate of a query: `α ← F`, i.e. function plus output attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggSpec {
    pub func: AggFunc,
    pub output: AttrId,
}

impl AggSpec {
    pub fn new(func: AggFunc, output: AttrId) -> Self {
        AggSpec { func, output }
    }
}

/// Running accumulator for one aggregation function.
///
/// Used by the relational baselines' scan-based aggregation; the factorised
/// engine evaluates aggregates recursively on factorisations instead
/// (`fdb-core::agg`).
#[derive(Clone, Debug)]
pub enum Accumulator {
    Count(u64),
    Sum(Number),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: Number, count: u64 },
    CountDistinct(BTreeSet<Value>),
    Product(Option<Number>),
    Exists { op: CmpOp, rhs: i64, found: bool },
    Forall { op: CmpOp, rhs: i64, ok: bool },
    TopK { k: usize, vals: Vec<Value> },
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum(_) => Accumulator::Sum(Number::ZERO),
            AggFunc::Min(_) => Accumulator::Min(None),
            AggFunc::Max(_) => Accumulator::Max(None),
            AggFunc::Avg(_) => Accumulator::Avg {
                sum: Number::ZERO,
                count: 0,
            },
            AggFunc::CountDistinct(_) => Accumulator::CountDistinct(BTreeSet::new()),
            AggFunc::Product(_) => Accumulator::Product(None),
            AggFunc::Exists(_, op, rhs) => Accumulator::Exists {
                op,
                rhs,
                found: false,
            },
            AggFunc::Forall(_, op, rhs) => Accumulator::Forall { op, rhs, ok: true },
            AggFunc::TopK(_, k) => Accumulator::TopK {
                k,
                vals: Vec::new(),
            },
        }
    }

    /// Folds one input value into the accumulator.
    ///
    /// For `count` the value is ignored (every tuple counts once); for the
    /// others it must be numeric or ordered as required. The PR-7
    /// aggregates (`count(distinct …)`, `product`, `exists`/`forall`,
    /// `top_k`) ignore NULL inputs, matching the PostgreSQL default.
    pub fn update(&mut self, value: Option<&Value>) {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum(acc) => {
                let v = value.expect("sum needs a value");
                let n = v.as_number().expect("sum over non-numeric value");
                *acc = acc.add(n);
            }
            Accumulator::Min(m) => {
                let v = value.expect("min needs a value");
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Max(m) => {
                let v = value.expect("max needs a value");
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Avg { sum, count } => {
                let v = value.expect("avg needs a value");
                let n = v.as_number().expect("avg over non-numeric value");
                *sum = sum.add(n);
                *count += 1;
            }
            Accumulator::CountDistinct(set) => {
                let v = value.expect("count(distinct) needs a value");
                if !v.is_null() && !set.contains(v) {
                    set.insert(v.clone());
                }
            }
            Accumulator::Product(acc) => {
                let v = value.expect("product needs a value");
                if v.is_null() {
                    return;
                }
                let n = v.as_number().expect("product over non-numeric value");
                *acc = Some(acc.unwrap_or(Number::Int(1)).mul(n));
            }
            Accumulator::Exists { op, rhs, found } => {
                let v = value.expect("exists needs a value");
                if !v.is_null() && op.eval(v.cmp(&Value::Int(*rhs))) {
                    *found = true;
                }
            }
            Accumulator::Forall { op, rhs, ok } => {
                let v = value.expect("forall needs a value");
                if !v.is_null() && !op.eval(v.cmp(&Value::Int(*rhs))) {
                    *ok = false;
                }
            }
            Accumulator::TopK { k, vals } => {
                let v = value.expect("top_k needs a value");
                if v.is_null() {
                    return;
                }
                vals.push(v.clone());
                // Keep the buffer bounded: prune to the k largest once it
                // doubles. Equal values are interchangeable, so pruning
                // never changes the finished result.
                if vals.len() >= k.saturating_mul(2).max(64) {
                    vals.sort_by(|a, b| b.cmp(a));
                    vals.truncate(*k);
                }
            }
        }
    }

    /// Finalises the accumulator into an output value.
    ///
    /// Value-picking aggregates over groups with no (non-NULL) input
    /// finish as `NULL`; `exists`/`forall` finish as their identities
    /// (`0` / vacuous `1`) and `count(distinct …)` as `0`.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(n as i64),
            Accumulator::Sum(acc) => acc.into_value(),
            Accumulator::Min(m) => m.unwrap_or(Value::Null),
            Accumulator::Max(m) => m.unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.to_f64() / count as f64)
                }
            }
            Accumulator::CountDistinct(set) => Value::Int(set.len() as i64),
            Accumulator::Product(acc) => acc.map(Number::into_value).unwrap_or(Value::Null),
            Accumulator::Exists { found, .. } => Value::Int(found as i64),
            Accumulator::Forall { ok, .. } => Value::Int(ok as i64),
            Accumulator::TopK { k, mut vals } => {
                vals.sort_by(|a, b| b.cmp(a));
                vals.truncate(k);
                if vals.is_empty() {
                    Value::Null
                } else {
                    Value::tup(vals)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_accumulates_tuples() {
        let mut acc = Accumulator::new(AggFunc::Count);
        acc.update(None);
        acc.update(None);
        acc.update(None);
        assert_eq!(acc.finish(), Value::Int(3));
    }

    #[test]
    fn sum_widens_to_float() {
        let mut acc = Accumulator::new(AggFunc::Sum(AttrId(0)));
        acc.update(Some(&Value::Int(2)));
        acc.update(Some(&Value::Float(0.5)));
        assert_eq!(acc.finish(), Value::Float(2.5));
    }

    #[test]
    fn min_max_track_extremes() {
        let a = AttrId(0);
        let mut mn = Accumulator::new(AggFunc::Min(a));
        let mut mx = Accumulator::new(AggFunc::Max(a));
        for v in [5, 1, 9, 3] {
            mn.update(Some(&Value::Int(v)));
            mx.update(Some(&Value::Int(v)));
        }
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(9));
    }

    #[test]
    fn avg_is_sum_over_count() {
        let mut acc = Accumulator::new(AggFunc::Avg(AttrId(0)));
        for v in [1, 2, 3, 4] {
            acc.update(Some(&Value::Int(v)));
        }
        assert_eq!(acc.finish(), Value::Float(2.5));
    }

    #[test]
    fn derived_names() {
        let mut c = Catalog::new();
        let p = c.intern("price");
        assert_eq!(AggFunc::Sum(p).derived_name(&c), "sum(price)");
        assert_eq!(AggFunc::Count.derived_name(&c), "count(*)");
        assert_eq!(AggFunc::Avg(p).display(&c).to_string(), "avg(price)");
        assert_eq!(
            AggFunc::CountDistinct(p).derived_name(&c),
            "count(distinct price)"
        );
        assert_eq!(AggFunc::Product(p).derived_name(&c), "product(price)");
        assert_eq!(
            AggFunc::Exists(p, CmpOp::Gt, 5).derived_name(&c),
            "exists(price > 5)"
        );
        assert_eq!(
            AggFunc::Forall(p, CmpOp::Le, 9).derived_name(&c),
            "forall(price <= 9)"
        );
        assert_eq!(AggFunc::TopK(p, 3).derived_name(&c), "top_k(price, 3)");
    }

    #[test]
    fn count_distinct_ignores_nulls_and_duplicates() {
        let mut acc = Accumulator::new(AggFunc::CountDistinct(AttrId(0)));
        for v in [
            Value::Int(2),
            Value::Int(2),
            Value::Null,
            Value::Int(7),
            Value::Int(2),
        ] {
            acc.update(Some(&v));
        }
        assert_eq!(acc.finish(), Value::Int(2));
        let empty = Accumulator::new(AggFunc::CountDistinct(AttrId(0)));
        assert_eq!(empty.finish(), Value::Int(0));
    }

    #[test]
    fn product_multiplies_and_is_null_on_empty() {
        let mut acc = Accumulator::new(AggFunc::Product(AttrId(0)));
        for v in [Value::Int(2), Value::Null, Value::Int(3), Value::Int(4)] {
            acc.update(Some(&v));
        }
        assert_eq!(acc.finish(), Value::Int(24));
        let empty = Accumulator::new(AggFunc::Product(AttrId(0)));
        assert_eq!(empty.finish(), Value::Null);
    }

    #[test]
    fn exists_and_forall_booleans() {
        let a = AttrId(0);
        let mut ex = Accumulator::new(AggFunc::Exists(a, CmpOp::Gt, 5));
        let mut fa = Accumulator::new(AggFunc::Forall(a, CmpOp::Gt, 5));
        for v in [Value::Int(1), Value::Null, Value::Int(9)] {
            ex.update(Some(&v));
            fa.update(Some(&v));
        }
        assert_eq!(ex.finish(), Value::Int(1));
        assert_eq!(fa.finish(), Value::Int(0), "1 fails the predicate");
        // Empty group: exists is 0, forall vacuously 1.
        assert_eq!(
            Accumulator::new(AggFunc::Exists(a, CmpOp::Gt, 5)).finish(),
            Value::Int(0)
        );
        assert_eq!(
            Accumulator::new(AggFunc::Forall(a, CmpOp::Gt, 5)).finish(),
            Value::Int(1)
        );
    }

    #[test]
    fn top_k_keeps_k_largest_descending() {
        let mut acc = Accumulator::new(AggFunc::TopK(AttrId(0), 3));
        for v in [5, 1, 9, 3, 9, 2] {
            acc.update(Some(&Value::Int(v)));
        }
        acc.update(Some(&Value::Null));
        assert_eq!(
            acc.finish(),
            Value::tup(vec![Value::Int(9), Value::Int(9), Value::Int(5)])
        );
        // Pruning at scale never changes the result.
        let mut big = Accumulator::new(AggFunc::TopK(AttrId(0), 2));
        for v in 0..1000 {
            big.update(Some(&Value::Int(v % 500)));
        }
        assert_eq!(
            big.finish(),
            Value::tup(vec![Value::Int(499), Value::Int(499)])
        );
        assert_eq!(
            Accumulator::new(AggFunc::TopK(AttrId(0), 2)).finish(),
            Value::Null
        );
    }

    #[test]
    fn empty_value_picking_groups_finish_null() {
        assert_eq!(
            Accumulator::new(AggFunc::Min(AttrId(0))).finish(),
            Value::Null
        );
        assert_eq!(
            Accumulator::new(AggFunc::Max(AttrId(0))).finish(),
            Value::Null
        );
        assert_eq!(
            Accumulator::new(AggFunc::Avg(AttrId(0))).finish(),
            Value::Null
        );
    }
}
