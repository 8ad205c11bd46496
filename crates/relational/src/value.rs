//! Data values with a total order.
//!
//! Every value stored in a relation or a factorised representation is a
//! [`Value`]. Factorised representations keep the singletons of every union
//! sorted (§4.1 of the paper), relational baselines sort and hash tuples, and
//! `ORDER BY` needs a deterministic comparison — so `Value` implements a
//! *total* order, including for floating-point data (via `f64::total_cmp`).
//!
//! The `Tup` variant carries composite aggregate results, e.g. the paper
//! recovers `avg` as the pair `(sum, count)` (§3.2.4); a k-ary aggregation
//! operator stores `⟨(F1,…,Fk):(v1,…,vk)⟩` singletons whose value is a `Tup`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single data value.
///
/// Values of different variants are never equal and order by variant rank
/// (`Int < Float < Str < Tup < Null`); columns are expected to be
/// homogeneously typed, which the query validator enforces for constants.
///
/// ## Null placement
///
/// `Null` is the **greatest** value in the total order: under
/// [`crate::SortDir::Asc`] nulls come last, under
/// [`crate::SortDir::Desc`] they come first (the same NULLS LAST / NULLS
/// FIRST defaults as PostgreSQL). Because the rule lives in `Ord` itself,
/// every ordering consumer — the sorted singleton unions of a
/// factorisation, arena-ordered enumeration, heap top-k, and the flat
/// [`crate::Relation::sort_by_keys`] comparator — agrees by construction.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered via `f64::total_cmp` (NaN sorts last).
    Float(f64),
    /// Interned-by-`Arc` string; cloning is cheap.
    Str(Arc<str>),
    /// Composite value, used for k-ary aggregate results such as `avg`.
    Tup(Arc<[Value]>),
    /// Absent value; sorts after every other value (NULLS LAST ascending).
    Null,
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for composite values.
    pub fn tup(vs: impl Into<Vec<Value>>) -> Self {
        Value::Tup(Arc::from(vs.into()))
    }

    /// Variant rank used for cross-variant ordering. `Null` ranks last so
    /// it is the greatest value (NULLS LAST under ascending order).
    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Tup(_) => 3,
            Value::Null => 4,
        }
    }

    /// True if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the components, if this is a `Tup`.
    pub fn as_tup(&self) -> Option<&[Value]> {
        match self {
            Value::Tup(vs) => Some(vs),
            _ => None,
        }
    }

    /// Numeric view used by arithmetic aggregates (`sum`, `avg`).
    ///
    /// Integers widen to `i64` accumulation, floats to `f64`; strings and
    /// tuples are not numeric.
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Value::Int(i) => Some(Number::Int(*i)),
            Value::Float(f) => Some(Number::Float(*f)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Inline for the `Int`/`Int` pair, the one every binary search over an
/// integer column and every regroup sort compares; the other kinds go
/// through `cmp_other`, out of line.
impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            _ => cmp_other(self, other),
        }
    }
}

/// [`Value::cmp`] of every pair but `Int`/`Int`.
#[cold]
fn cmp_other(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Tup(a), Value::Tup(b)) => a.cmp(b),
        (Value::Null, Value::Null) => Ordering::Equal,
        (a, b) => a.rank().cmp(&b.rank()),
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            // `total_cmp` distinguishes -0.0 from 0.0, so hashing the raw
            // bits is consistent with `Eq`.
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Tup(vs) => vs.hash(state),
            Value::Null => {}
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Tup(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

/// Numeric accumulator domain shared by `sum`/`avg`.
///
/// A sum over integers stays integral; any float promotes the whole
/// accumulation to floating point (mirroring SQL numeric widening).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    Int(i64),
    Float(f64),
}

// `add`/`mul` intentionally shadow the operator-trait names: callers use
// them as explicit widening combinators, and the `Ord`-less `f64` payload
// makes full operator impls misleading.
#[allow(clippy::should_implement_trait)]
impl Number {
    /// Additive identity.
    pub const ZERO: Number = Number::Int(0);

    /// Adds two numbers, widening to float when either side is a float.
    pub fn add(self, other: Number) -> Number {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => Number::Int(a.wrapping_add(b)),
            (a, b) => Number::Float(a.to_f64() + b.to_f64()),
        }
    }

    /// Multiplies two numbers, widening to float when either side is a float.
    pub fn mul(self, other: Number) -> Number {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => Number::Int(a.wrapping_mul(b)),
            (a, b) => Number::Float(a.to_f64() * b.to_f64()),
        }
    }

    /// Raises the number to a non-negative power.
    ///
    /// Integers use wrapping exponentiation by squaring — congruent
    /// mod 2^64 with the equivalent chain of [`Number::mul`] calls, so
    /// a factorised `product^count` matches a flat sequential product
    /// exactly. Floats use `powi`, which may round differently from a
    /// sequential multiply; float products are documented as
    /// approximate across engines.
    pub fn pow(self, exp: u64) -> Number {
        match self {
            Number::Int(base) => {
                let mut acc: i64 = 1;
                let mut base = base;
                let mut exp = exp;
                while exp > 0 {
                    if exp & 1 == 1 {
                        acc = acc.wrapping_mul(base);
                    }
                    base = base.wrapping_mul(base);
                    exp >>= 1;
                }
                Number::Int(acc)
            }
            Number::Float(f) => Number::Float(f.powi(exp.min(i32::MAX as u64) as i32)),
        }
    }

    /// Lossy float view, used by `avg` and by float-typed accumulations.
    pub fn to_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// Converts back into a [`Value`].
    pub fn into_value(self) -> Value {
        match self {
            Number::Int(i) => Value::Int(i),
            Number::Float(f) => Value::Float(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(5), Value::Int(5));
    }

    #[test]
    fn cross_variant_ordering_is_total() {
        let vals = [
            Value::Int(10),
            Value::Float(0.5),
            Value::str("abc"),
            Value::tup(vec![Value::Int(1)]),
            Value::Null,
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(one < nan);
    }

    #[test]
    fn hash_consistent_with_eq() {
        let a = Value::str("hello");
        let b = Value::str("hello");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("Capricciosa") < Value::str("Hawaii"));
        assert!(Value::str("Hawaii") < Value::str("Margherita"));
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        let a = Value::tup(vec![Value::Int(1), Value::Int(9)]);
        let b = Value::tup(vec![Value::Int(2), Value::Int(0)]);
        assert!(a < b);
    }

    #[test]
    fn null_sorts_last_ascending_first_descending() {
        use crate::SortDir;
        // NULLS LAST under Asc, NULLS FIRST under Desc — the single rule
        // every ordering consumer inherits from `Ord`.
        for v in [Value::Int(i64::MAX), Value::str("zzz"), Value::Null] {
            assert!(v <= Value::Null, "{v:?} must not sort after NULL");
        }
        assert_eq!(Value::Null.cmp(&Value::Null), Ordering::Equal);
        assert_eq!(hash_of(&Value::Null), hash_of(&Value::Null));
        assert_eq!(
            SortDir::Desc.apply(Value::Int(1).cmp(&Value::Null)),
            Ordering::Greater,
            "descending puts NULL first"
        );
        assert!(Value::Null.is_null() && !Value::Int(0).is_null());
    }

    #[test]
    fn number_widening() {
        assert_eq!(Number::Int(2).add(Number::Int(3)), Number::Int(5));
        assert_eq!(Number::Int(2).mul(Number::Float(1.5)), Number::Float(3.0));
        assert_eq!(Number::ZERO.add(Number::Float(1.0)), Number::Float(1.0));
    }

    #[test]
    fn pow_matches_sequential_wrapping_product() {
        for base in [-7i64, 0, 1, 3, 1_000_003] {
            for exp in [0u64, 1, 2, 5, 17, 64] {
                let mut seq = Number::Int(1);
                for _ in 0..exp {
                    seq = seq.mul(Number::Int(base));
                }
                assert_eq!(Number::Int(base).pow(exp), seq, "{base}^{exp}");
            }
        }
        assert_eq!(Number::Float(2.0).pow(10), Number::Float(1024.0));
    }

    #[test]
    fn display_round_trip_smoke() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(
            Value::tup(vec![Value::Int(1), Value::str("a")]).to_string(),
            "(1,a)"
        );
    }
}
