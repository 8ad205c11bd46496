//! The plan cache: bounded, FIFO-evicted memoisation of query
//! responses keyed by normalised SQL text and the database epoch.
//!
//! Over an immutable `Arc` snapshot a query is a pure function of its
//! text, so the cache can keep the *complete rendered response* (the
//! payload lines the compiled plan produced) rather than just the
//! plan: a hit skips parsing, planning, execution and rendering in one
//! step. The epoch in the key gives snapshot-consistent invalidation —
//! every registration (`LOAD`, `register_*`) bumps the [`fdb::Db`]
//! epoch, so entries compiled against older data can never be served
//! afterwards. Stale-epoch entries are dropped lazily on lookup and by
//! FIFO eviction.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A cached response payload (shared so concurrent hits don't copy).
pub type CachedLines = Arc<Vec<String>>;

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<(u64, String), CachedLines>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<(u64, String)>,
    hits: u64,
    misses: u64,
}

/// Bounded response cache shared by all server workers.
///
/// Thread-safe behind one mutex: entries are `Arc`s, so the critical
/// section is a `HashMap` probe — negligible next to query execution.
#[derive(Clone, Debug)]
pub struct PlanCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries; `capacity == 0`
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Arc::new(Mutex::new(CacheInner::default())),
            capacity,
        }
    }

    /// Looks up the response for `sql` (already normalised) compiled at
    /// `epoch`, counting a hit or miss.
    pub fn get(&self, epoch: u64, sql: &str) -> Option<CachedLines> {
        let mut inner = self.lock();
        // Borrow-friendly probe: keys are (epoch, owned sql).
        let hit = inner.map.get(&(epoch, sql.to_string())).cloned();
        match hit {
            Some(lines) => {
                inner.hits += 1;
                Some(lines)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly-rendered response, evicting the oldest entry
    /// when full. Entries from epochs other than `epoch` are purged
    /// first — a registration invalidates the whole cache at once.
    pub fn put(&self, epoch: u64, sql: String, lines: CachedLines) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.order.front().is_some_and(|(e, _)| *e != epoch) {
            inner.map.retain(|(e, _), _| *e == epoch);
            inner.order.retain(|(e, _)| *e == epoch);
        }
        let key = (epoch, sql);
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.capacity {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&old);
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, lines);
    }

    /// `(hits, misses, live entries)` counters for `STATS`.
    pub fn stats(&self) -> (u64, u64, usize) {
        let inner = self.lock();
        (inner.hits, inner.misses, inner.map.len())
    }

    /// Locks the map, recovering it from a panic under the lock: every
    /// critical section leaves a consistent map (at worst a counter or
    /// the FIFO order lags by one entry), so a poisoned cache keeps
    /// serving instead of failing every later request.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &str) -> CachedLines {
        Arc::new(vec![s.to_string()])
    }

    #[test]
    fn hit_after_put_same_epoch() {
        let c = PlanCache::new(4);
        assert!(c.get(1, "q").is_none());
        c.put(1, "q".into(), lines("r"));
        assert_eq!(c.get(1, "q").unwrap()[0], "r");
        assert_eq!(c.stats(), (1, 1, 1));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let c = PlanCache::new(4);
        c.put(1, "q".into(), lines("old"));
        assert!(c.get(2, "q").is_none());
        c.put(2, "q".into(), lines("new"));
        // The stale epoch-1 entry was purged on the epoch-2 insert.
        let (_, _, live) = c.stats();
        assert_eq!(live, 1);
        assert_eq!(c.get(2, "q").unwrap()[0], "new");
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let c = PlanCache::new(2);
        c.put(1, "a".into(), lines("1"));
        c.put(1, "b".into(), lines("2"));
        c.put(1, "c".into(), lines("3"));
        assert!(c.get(1, "a").is_none(), "oldest entry evicted");
        assert!(c.get(1, "b").is_some());
        assert!(c.get(1, "c").is_some());
        let (_, _, live) = c.stats();
        assert_eq!(live, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = PlanCache::new(0);
        c.put(1, "q".into(), lines("r"));
        assert!(c.get(1, "q").is_none());
        assert_eq!(c.stats(), (0, 1, 0));
    }
}
