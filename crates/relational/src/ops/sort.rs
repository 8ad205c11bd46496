//! Ordering and limit: the `oG` and `λk` operators (§2).

use crate::relation::{Relation, SortKey};

/// Returns `rel` sorted lexicographically by `keys` (stable).
pub fn order_by(rel: &Relation, keys: &[SortKey]) -> Relation {
    let mut out = rel.clone();
    out.sort_by_keys(keys);
    out
}

/// Returns the first `k` tuples in the relation's current order (`λk`).
pub fn limit(rel: &Relation, k: usize) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    for row in rel.rows().take(k) {
        out.push_row(row);
    }
    out
}

/// One page of the relation's current order: skip the first `skip`
/// tuples, then keep at most `k` (`k = None` keeps everything after the
/// skip — PostgreSQL's bare `OFFSET`).
///
/// This is the relational ground-truth twin of the factorised engine's
/// pagination strategies: whatever strategy FDB picks (direct access,
/// (m+k)-heap, collect-sort-cut), its output must be byte-identical to a
/// stable sort followed by this operator.
pub fn page(rel: &Relation, skip: usize, k: Option<usize>) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    let it = rel.rows().skip(skip);
    match k {
        Some(k) => {
            for row in it.take(k) {
                out.push_row(row);
            }
        }
        None => {
            for row in it {
                out.push_row(row);
            }
        }
    }
    out
}

/// `λk ∘ oG` fused: the first `k` tuples in sorted order.
///
/// Kept as full-sort-then-cut on purpose: this mirrors what the relational
/// engines in the paper do for `ORDER BY … LIMIT k` (Fig. 8 shows they pay
/// the full sort), whereas FDB answers the same query with restructuring
/// plus constant-delay enumeration.
pub fn top_k(rel: &Relation, keys: &[SortKey], k: usize) -> Relation {
    limit(&order_by(rel, keys), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::schema::Schema;
    use crate::value::Value;

    fn sample() -> (Catalog, Relation) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [(3, 1), (1, 2), (2, 3), (1, 1)]
                .into_iter()
                .map(|(x, y)| vec![Value::Int(x), Value::Int(y)]),
        );
        (c, rel)
    }

    #[test]
    fn order_by_multiple_keys() {
        let (c, rel) = sample();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let out = order_by(&rel, &[SortKey::asc(a), SortKey::asc(b)]);
        let rows: Vec<(i64, i64)> = out
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 1), (1, 2), (2, 3), (3, 1)]);
    }

    #[test]
    fn descending_order() {
        let (c, rel) = sample();
        let a = c.lookup("a").unwrap();
        let out = order_by(&rel, &[SortKey::desc(a)]);
        let firsts: Vec<i64> = out.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(firsts, vec![3, 2, 1, 1]);
    }

    #[test]
    fn limit_truncates() {
        let (_, rel) = sample();
        assert_eq!(limit(&rel, 2).len(), 2);
        assert_eq!(limit(&rel, 99).len(), 4);
        assert_eq!(limit(&rel, 0).len(), 0);
    }

    #[test]
    fn page_skips_then_truncates() {
        let (_, rel) = sample();
        assert_eq!(page(&rel, 0, Some(2)).len(), 2);
        assert_eq!(page(&rel, 1, Some(2)).len(), 2);
        assert_eq!(page(&rel, 3, Some(5)).len(), 1);
        assert_eq!(page(&rel, 4, Some(1)).len(), 0);
        assert_eq!(page(&rel, 99, None).len(), 0);
        assert_eq!(page(&rel, 1, None).len(), 3);
        // page(skip=0, Some(k)) ≡ limit(k)
        assert_eq!(
            page(&rel, 0, Some(3)).canonical(),
            limit(&rel, 3).canonical()
        );
        // The kept rows really are the middle of the input order.
        let mid = page(&rel, 1, Some(2));
        let want: Vec<Vec<Value>> = rel.rows().skip(1).take(2).map(|r| r.to_vec()).collect();
        let got: Vec<Vec<Value>> = mid.rows().map(|r| r.to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn top_k_is_sorted_prefix() {
        let (c, rel) = sample();
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let out = top_k(&rel, &[SortKey::asc(a), SortKey::asc(b)], 2);
        let rows: Vec<(i64, i64)> = out
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 1), (1, 2)]);
    }
}
