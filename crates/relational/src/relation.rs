//! In-memory relations with set semantics.
//!
//! A [`Relation`] stores tuples row-major in one flat `Vec<Value>` (arity
//! stride), which keeps scans cache-friendly and avoids one allocation per
//! tuple. Relational algebra in the paper is over *sets* of tuples — the
//! factorised representations denote sets (Def. 1: unions are disjoint) — so
//! relations offer canonicalisation (sort + dedup) and all engines preserve
//! distinctness.

use crate::attr::Catalog;
use crate::schema::Schema;
use crate::value::Value;
use crate::AttrId;
use std::cmp::Ordering;
use std::fmt;

/// Sort direction for one ordering key, ascending by default as in the paper
/// (`oG` orders ascending unless `↓` is specified, §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SortDir {
    #[default]
    Asc,
    Desc,
}

impl SortDir {
    /// Applies the direction to an ascending comparison result.
    #[inline]
    pub fn apply(self, ord: Ordering) -> Ordering {
        match self {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        }
    }
}

/// One ordering key: attribute plus direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SortKey {
    pub attr: AttrId,
    pub dir: SortDir,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(attr: AttrId) -> Self {
        SortKey {
            attr,
            dir: SortDir::Asc,
        }
    }

    /// Descending key.
    pub fn desc(attr: AttrId) -> Self {
        SortKey {
            attr,
            dir: SortDir::Desc,
        }
    }
}

/// Normalises an ORDER BY key list: later occurrences of an attribute are
/// dropped, keeping the **first** occurrence (and its direction).
///
/// A duplicate key — even with a conflicting direction, as in
/// `ORDER BY a ASC, a DESC` — can never influence the order: rows equal
/// under the first occurrence carry equal values in the duplicate column
/// too, so the first occurrence decides. Normalising once up front makes
/// every consumer (the flat [`Relation::sort_by_keys`] comparator,
/// arena-ordered enumeration, and heap top-k) honour the first occurrence
/// by construction instead of each re-deriving the rule.
pub fn dedup_sort_keys(keys: &[SortKey]) -> Vec<SortKey> {
    let mut out: Vec<SortKey> = Vec::with_capacity(keys.len());
    for k in keys {
        if !out.iter().any(|seen| seen.attr == k.attr) {
            out.push(*k);
        }
    }
    out
}

/// A materialised relation: a schema plus a flat row-major tuple store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    data: Vec<Value>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            data: Vec::new(),
        }
    }

    /// Creates a relation from rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from the schema arity.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.push_row(&row);
        }
        rel
    }

    /// Bulk construction from a row-major value buffer — the append
    /// path of producers that write whole rows straight into the store
    /// (the factorised engine's result emitter) instead of staging each
    /// row in a scratch buffer for [`Relation::push_row`]. The nullary
    /// schema has no buffer to hand over; use `push_row(&[])` there.
    ///
    /// # Panics
    /// Panics if `data` is not a whole number of rows.
    pub fn from_flat(schema: Schema, data: Vec<Value>) -> Self {
        let a = schema.arity();
        assert!(
            if a == 0 {
                data.is_empty()
            } else {
                data.len() % a == 0
            },
            "flat buffer of {} values is not a whole number of arity-{a} rows",
            data.len(),
        );
        Relation { schema, data }
    }

    /// The row-major value buffer, by move (inverse of
    /// [`Relation::from_flat`]; empty for the nullary schema).
    pub fn into_flat(self) -> Vec<Value> {
        if self.schema.arity() == 0 {
            return Vec::new();
        }
        self.data
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        if self.schema.arity() == 0 {
            // A nullary relation holds either zero tuples or the nullary
            // tuple once; we track it via a sentinel length in `data`.
            return self.data.len();
        }
        self.data.len() / self.schema.arity()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one tuple.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} does not match schema arity {}",
            row.len(),
            self.schema.arity()
        );
        if self.schema.arity() == 0 {
            // Represent the presence of the nullary tuple with one sentinel.
            if self.data.is_empty() {
                self.data.push(Value::Int(0));
            }
            return;
        }
        self.data.extend_from_slice(row);
    }

    /// Appends one tuple without arity checks (internal fast path).
    pub(crate) fn push_row_unchecked(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.schema.arity());
        self.data.extend_from_slice(row);
    }

    /// Reserves capacity for `additional` more tuples.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional * self.schema.arity().max(1));
    }

    /// Set-semantics insert: appends `row` unless an equal tuple is
    /// already stored; returns whether the relation changed. Mirror of
    /// the factorised delta insert for the differential oracle.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} does not match schema arity {}",
            row.len(),
            self.schema.arity()
        );
        if self.rows().any(|r| r == row) {
            return false;
        }
        self.push_row(row);
        true
    }

    /// Set-semantics delete: removes every stored tuple equal to `row`
    /// (a canonical relation holds at most one); returns whether the
    /// relation changed. Mirror of the factorised delta delete.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn delete_row(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} does not match schema arity {}",
            row.len(),
            self.schema.arity()
        );
        self.delete_where(|r| r == row) > 0
    }

    /// Removes every tuple matching `pred`; returns how many went.
    /// Relative order of the survivors is preserved.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&[Value]) -> bool) -> usize {
        let a = self.schema.arity();
        if a == 0 {
            // The nullary relation holds the nullary tuple at most once.
            if !self.data.is_empty() && pred(&[]) {
                self.data.clear();
                return 1;
            }
            return 0;
        }
        // Compacts in place: each survivor swaps down over the deleted
        // rows before it, which end up past the survivors and go.
        let before = self.len();
        let mut kept = 0;
        for i in 0..before {
            if pred(&self.data[i * a..(i + 1) * a]) {
                continue;
            }
            if kept != i {
                let (head, rest) = self.data.split_at_mut(i * a);
                head[kept * a..(kept + 1) * a].swap_with_slice(&mut rest[..a]);
            }
            kept += 1;
        }
        self.data.truncate(kept * a);
        before - kept
    }

    /// A copy with room for `additional` more tuples: one allocation and
    /// one copy, where a clone followed by inserts copies twice.
    pub fn clone_with_room(&self, additional: usize) -> Relation {
        let mut data =
            Vec::with_capacity(self.data.len() + additional * self.schema.arity().max(1));
        data.extend_from_slice(&self.data);
        Relation {
            schema: self.schema.clone(),
            data,
        }
    }

    /// Borrowing access to the `i`-th tuple.
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.schema.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over tuples as slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let a = self.schema.arity();
        if a == 0 {
            // chunks(1) over the sentinel yields one pseudo-row per tuple;
            // map to the empty slice.
            RowsIter::Nullary {
                remaining: self.len(),
            }
        } else {
            RowsIter::Chunks(self.data.chunks_exact(a))
        }
    }

    /// Sorts tuples lexicographically by the given keys (stable).
    ///
    /// Attributes not mentioned in `keys` keep their relative order, which
    /// mirrors how re-sorting can reuse existing orders (§1).
    pub fn sort_by_keys(&mut self, keys: &[SortKey]) {
        let positions: Vec<(usize, SortDir)> = keys
            .iter()
            .map(|k| {
                (
                    self.schema
                        .position(k.attr)
                        .expect("sort key must be in schema"),
                    k.dir,
                )
            })
            .collect();
        let a = self.schema.arity();
        if a == 0 {
            return;
        }
        let data = &self.data;
        let mut index: Vec<usize> = (0..self.len()).collect();
        index.sort_by(|&i, &j| {
            let ri = &data[i * a..(i + 1) * a];
            let rj = &data[j * a..(j + 1) * a];
            for &(p, dir) in &positions {
                let ord = dir.apply(ri[p].cmp(&rj[p]));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        let mut out = Vec::with_capacity(self.data.len());
        for i in index {
            out.extend_from_slice(&self.data[i * a..(i + 1) * a]);
        }
        self.data = out;
    }

    /// Sorts by all columns ascending and removes duplicate tuples,
    /// producing the canonical set form used to compare query results.
    pub fn canonicalize(&mut self) {
        let a = self.schema.arity();
        if a == 0 {
            return;
        }
        let mut rows: Vec<&[Value]> = self.data.chunks_exact(a).collect();
        rows.sort();
        rows.dedup();
        let mut out = Vec::with_capacity(rows.len() * a);
        for r in rows {
            out.extend_from_slice(r);
        }
        self.data = out;
    }

    /// Returns a canonicalised copy (sorted by all columns, deduplicated).
    pub fn canonical(&self) -> Relation {
        let mut r = self.clone();
        r.canonicalize();
        r
    }

    /// True if the tuples are sorted (non-strictly) by `keys`.
    pub fn is_sorted_by(&self, keys: &[SortKey]) -> bool {
        let positions: Vec<(usize, SortDir)> = keys
            .iter()
            .filter_map(|k| self.schema.position(k.attr).map(|p| (p, k.dir)))
            .collect();
        if positions.len() != keys.len() {
            return false;
        }
        let mut prev: Option<&[Value]> = None;
        for row in self.rows() {
            if let Some(p) = prev {
                let mut ord = Ordering::Equal;
                for &(pos, dir) in &positions {
                    ord = dir.apply(p[pos].cmp(&row[pos]));
                    if ord != Ordering::Equal {
                        break;
                    }
                }
                if ord == Ordering::Greater {
                    return false;
                }
            }
            prev = Some(row);
        }
        true
    }

    /// Projects the relation onto `attrs` without deduplication.
    ///
    /// Only correct as a relational projection when `attrs` is a superkey or
    /// when followed by [`Relation::canonicalize`]; the distinct variant
    /// lives in [`crate::ops::project`].
    pub fn project_cols(&self, attrs: &[AttrId]) -> Relation {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.position(*a).expect("attr in schema"))
            .collect();
        let out_schema = Schema::new(attrs.to_vec());
        let mut out = Relation::empty(out_schema);
        out.reserve(self.len());
        let mut buf = Vec::with_capacity(attrs.len());
        for row in self.rows() {
            buf.clear();
            buf.extend(positions.iter().map(|&p| row[p].clone()));
            if buf.is_empty() {
                out.push_row(&buf);
            } else {
                out.push_row_unchecked(&buf);
            }
        }
        out
    }

    /// Renders the relation as an aligned table using `catalog` for headers.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> RelationDisplay<'a> {
        RelationDisplay {
            relation: self,
            catalog,
        }
    }
}

enum RowsIter<'a> {
    Chunks(std::slice::ChunksExact<'a, Value>),
    Nullary { remaining: usize },
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        match self {
            RowsIter::Chunks(c) => c.next(),
            RowsIter::Nullary { remaining } => {
                if *remaining == 0 {
                    None
                } else {
                    *remaining -= 1;
                    Some(&[])
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowsIter::Chunks(c) => c.size_hint(),
            RowsIter::Nullary { remaining } => (*remaining, Some(*remaining)),
        }
    }
}

/// Helper for [`Relation::display`].
pub struct RelationDisplay<'a> {
    relation: &'a Relation,
    catalog: &'a Catalog,
}

impl fmt::Display for RelationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .relation
            .schema()
            .attrs()
            .iter()
            .map(|&a| self.catalog.name(a).to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = self
            .relation
            .rows()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, h) in headers.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{:width$}", h, width = widths[i])?;
        }
        writeln!(f)?;
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{:width$}", cell, width = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_ab(rows: &[(i64, i64)]) -> (Catalog, Relation) {
        let mut c = Catalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            rows.iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]),
        );
        (c, rel)
    }

    fn ints(rel: &Relation) -> Vec<(i64, i64)> {
        rel.rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn delete_where_compacts_in_place_keeping_survivor_order() {
        let rows: Vec<(i64, i64)> = (0..10).map(|i| (i, i % 3)).collect();
        let (_, mut rel) = rel_ab(&rows);
        let (buffer, capacity) = (rel.data.as_ptr(), rel.data.capacity());
        assert_eq!(rel.delete_where(|r| r[1] == Value::Int(1)), 3);
        let want: Vec<(i64, i64)> = rows.iter().copied().filter(|r| r.1 != 1).collect();
        assert_eq!(ints(&rel), want);
        // No second buffer: the survivors moved within the first.
        assert_eq!((rel.data.as_ptr(), rel.data.capacity()), (buffer, capacity));
        assert_eq!(rel.delete_where(|_| false), 0);
        assert_eq!(ints(&rel), want);
        assert_eq!(rel.delete_where(|_| true), 7);
        assert!(rel.is_empty());
    }

    #[test]
    fn clone_with_room_takes_its_inserts_without_a_second_buffer() {
        let (_, rel) = rel_ab(&[(1, 2), (3, 4)]);
        let mut copy = rel.clone_with_room(3);
        assert_eq!(copy, rel);
        let buffer = copy.data.as_ptr();
        for i in 0..3 {
            assert!(copy.insert(&[Value::Int(9), Value::Int(i)]));
        }
        assert_eq!(copy.data.as_ptr(), buffer);
        assert_eq!(ints(&copy), [(1, 2), (3, 4), (9, 0), (9, 1), (9, 2)]);
    }

    #[test]
    fn push_and_iterate() {
        let (_, rel) = rel_ab(&[(1, 2), (3, 4)]);
        assert_eq!(rel.len(), 2);
        let rows: Vec<Vec<i64>> = rel
            .rows()
            .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let (_, mut rel) = rel_ab(&[]);
        rel.push_row(&[Value::Int(1)]);
    }

    #[test]
    fn sort_by_keys_multi() {
        let (c, mut rel) = rel_ab(&[(2, 1), (1, 2), (2, 0), (1, 1)]);
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        rel.sort_by_keys(&[SortKey::asc(a), SortKey::desc(b)]);
        let rows: Vec<(i64, i64)> = rel
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 2), (1, 1), (2, 1), (2, 0)]);
        assert!(rel.is_sorted_by(&[SortKey::asc(a)]));
        assert!(!rel.is_sorted_by(&[SortKey::asc(b)]));
    }

    #[test]
    fn dedup_sort_keys_keeps_first_occurrence() {
        let (c, mut rel) = rel_ab(&[(2, 1), (1, 2), (2, 0), (1, 1)]);
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        // A conflicting-direction duplicate keeps the first occurrence.
        let keys = [SortKey::desc(a), SortKey::asc(b), SortKey::asc(a)];
        let norm = dedup_sort_keys(&keys);
        assert_eq!(norm, vec![SortKey::desc(a), SortKey::asc(b)]);
        // Sorting by the raw and the normalised list is identical: the
        // duplicate can never break a tie the first occurrence left.
        let mut raw = rel.clone();
        raw.sort_by_keys(&keys);
        rel.sort_by_keys(&norm);
        assert_eq!(raw, rel);
    }

    #[test]
    fn canonicalize_dedups() {
        let (_, mut rel) = rel_ab(&[(1, 1), (1, 1), (0, 5)]);
        rel.canonicalize();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(0), &[Value::Int(0), Value::Int(5)]);
    }

    #[test]
    fn nullary_relation_semantics() {
        let mut rel = Relation::empty(Schema::empty());
        assert_eq!(rel.len(), 0);
        rel.push_row(&[]);
        rel.push_row(&[]);
        // Set semantics: the nullary tuple is present at most once.
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows().count(), 1);
    }

    #[test]
    fn flat_buffer_round_trips() {
        let (_, rel) = rel_ab(&[(1, 2), (3, 4)]);
        let schema = rel.schema().clone();
        let data = rel.clone().into_flat();
        assert_eq!(data.len(), 4);
        assert_eq!(Relation::from_flat(schema, data), rel);
        assert!(Relation::empty(Schema::empty()).into_flat().is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn flat_buffer_must_hold_whole_rows() {
        let (_, rel) = rel_ab(&[]);
        Relation::from_flat(rel.schema().clone(), vec![Value::Int(1)]);
    }

    #[test]
    fn project_cols_reorders() {
        let (c, rel) = rel_ab(&[(1, 2)]);
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        let p = rel.project_cols(&[b, a]);
        assert_eq!(p.row(0), &[Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn display_renders_headers() {
        let (c, rel) = rel_ab(&[(1, 2)]);
        let s = rel.display(&c).to_string();
        assert!(s.contains('a') && s.contains('b') && s.contains('1'));
    }

    #[test]
    fn stable_sort_preserves_existing_suborder() {
        // Mirrors §1: a relation sorted by (a, b) re-sorted by b keeps the
        // a-order within equal b groups.
        let (c, mut rel) = rel_ab(&[(1, 7), (2, 7), (1, 3), (2, 3)]);
        let a = c.lookup("a").unwrap();
        let b = c.lookup("b").unwrap();
        rel.sort_by_keys(&[SortKey::asc(a), SortKey::asc(b)]);
        rel.sort_by_keys(&[SortKey::asc(b)]);
        let rows: Vec<(i64, i64)> = rel
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(rows, vec![(1, 3), (2, 3), (1, 7), (2, 7)]);
    }
}
