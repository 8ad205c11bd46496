//! Attribute identifiers and the attribute catalog.
//!
//! FDB keeps attribute names in the f-tree rather than with each singleton,
//! which is what makes its `rename` operator constant-time (§2.1). We follow
//! the same design: attribute names are interned once in a [`Catalog`] and
//! every schema, f-tree node and plan operator refers to attributes by a
//! compact [`AttrId`].

use std::collections::HashMap;
use std::fmt;

/// Compact identifier of an attribute, valid within one [`Catalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Index view for direct vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interner mapping attribute names to [`AttrId`]s and back.
///
/// The catalog is append-only; ids are dense and never recycled, so they can
/// be used as vector indices throughout the engine.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    names: Vec<String>,
    index: HashMap<String, AttrId>,
    /// Per [`Catalog::fresh`] base: the first numeric suffix not yet known
    /// to be taken. Names are never removed, so every smaller suffix stays
    /// taken and the next call resumes here instead of re-probing from 2.
    next_suffix: HashMap<String, usize>,
}

/// A saved extent of a [`Catalog`] (see [`Catalog::mark`]).
#[derive(Clone, Debug)]
pub struct CatalogMark {
    len: usize,
    next_suffix: HashMap<String, usize>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = AttrId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Interns several names at once, in order.
    pub fn intern_all<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) -> Vec<AttrId> {
        names.into_iter().map(|n| self.intern(n)).collect()
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.index.get(name).copied()
    }

    /// Returns the name of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this catalog.
    pub fn name(&self, id: AttrId) -> &str {
        &self.names[id.idx()]
    }

    /// Number of interned attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no attribute has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Generates a fresh attribute with a unique, derived name.
    ///
    /// Used for aggregate output attributes such as `sum(price)` when the
    /// query does not name them explicitly; if the derived name collides, the
    /// smallest free numeric suffix (from `_2`) disambiguates. Amortised
    /// O(1) per call: a long-lived session asks for the same base once per
    /// query, so the next free suffix is remembered per base.
    pub fn fresh(&mut self, base: &str) -> AttrId {
        if self.lookup(base).is_none() {
            return self.intern(base);
        }
        let mut i = self.next_suffix.get(base).copied().unwrap_or(2);
        loop {
            let candidate = format!("{base}_{i}");
            i += 1;
            if self.lookup(&candidate).is_none() {
                self.next_suffix.insert(base.to_string(), i);
                return self.intern(&candidate);
            }
        }
    }

    /// The catalog's current extent, to [`Catalog::rollback`] to once
    /// the names interned after it (a query's output and scratch
    /// attributes) are no longer needed.
    pub fn mark(&self) -> CatalogMark {
        CatalogMark {
            len: self.names.len(),
            next_suffix: self.next_suffix.clone(),
        }
    }

    /// Forgets every name interned since `mark` and restores the
    /// [`Catalog::fresh`] suffix counters, so the same derived name
    /// comes out again. Ids handed out since `mark` become invalid.
    pub fn rollback(&mut self, mark: CatalogMark) {
        for name in self.names.drain(mark.len.min(self.names.len())..) {
            self.index.remove(&name);
        }
        self.next_suffix = mark.next_suffix;
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttrId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.intern("customer");
        let b = c.intern("customer");
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut c = Catalog::new();
        let ids = c.intern_all(["a", "b", "c"]);
        assert_eq!(ids, vec![AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(c.name(ids[1]), "b");
    }

    #[test]
    fn lookup_missing_is_none() {
        let c = Catalog::new();
        assert_eq!(c.lookup("nope"), None);
    }

    #[test]
    fn fresh_avoids_collisions() {
        let mut c = Catalog::new();
        c.intern("sum(price)");
        let f = c.fresh("sum(price)");
        assert_eq!(c.name(f), "sum(price)_2");
        let g = c.fresh("sum(price)");
        assert_eq!(c.name(g), "sum(price)_3");
    }

    #[test]
    fn fresh_skips_suffixes_interned_directly() {
        // A name interned behind `fresh`'s back is skipped exactly as the
        // probe-from-2 scan would skip it.
        let mut c = Catalog::new();
        c.intern("x");
        assert_eq!(c.fresh("x"), c.lookup("x_2").unwrap());
        c.intern("x_4");
        let (a, b) = (c.fresh("x"), c.fresh("x"));
        assert_eq!((c.name(a), c.name(b)), ("x_3", "x_5"));
    }

    #[test]
    fn fresh_is_linear_over_a_long_session() {
        // Regression: every call probed `base_2, base_3, …` from 2, so a
        // session slowed with each query it answered — 10 000 calls were
        // 5·10⁷ formatted probes (tens of seconds unoptimised); linear,
        // they are milliseconds.
        let mut c = Catalog::new();
        let base = "partial_sum(price)";
        c.intern(base);
        let start = std::time::Instant::now();
        for i in 2..=10_001 {
            let id = c.fresh(base);
            assert_eq!(c.name(id), format!("{base}_{i}"));
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "10 000 fresh() calls took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn rollback_forgets_names_and_suffixes() {
        let mut c = Catalog::new();
        c.intern("price");
        c.intern("sum(price)");
        let mark = c.mark();
        let f = c.fresh("sum(price)");
        assert_eq!(c.name(f), "sum(price)_2");
        c.intern("total");
        c.rollback(mark);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("total"), None);
        assert_eq!(c.lookup("sum(price)_2"), None);
        // The same derived name, at the same id, comes out again.
        assert_eq!(c.fresh("sum(price)"), f);
        assert_eq!(c.name(f), "sum(price)_2");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut c = Catalog::new();
        c.intern_all(["x", "y"]);
        let collected: Vec<_> = c.iter().map(|(id, n)| (id.0, n.to_string())).collect();
        assert_eq!(collected, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }
}
