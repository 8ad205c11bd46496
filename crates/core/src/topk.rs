//! Bounded-heap top-k selection — the `ORDER BY … LIMIT k` strategy that
//! touches neither a restructured factorisation nor a full materialised
//! result.
//!
//! The restructure-then-stream path (§4.2) can blow the representation up
//! before the first tuple streams, and collect-sort-cut materialises the
//! *entire* flat result only to throw all but `k` rows away. [`TopK`]
//! instead folds the unordered enumeration into a size-`k` binary
//! max-heap: every candidate row is compared against the current worst
//! kept row and either discarded or swapped in. Peak auxiliary memory is
//! `O(k · row)` — independent of the flat result size — and total work is
//! `O(N · log k)` comparisons over `N` enumerated rows.
//!
//! ## Determinism
//!
//! The heap orders candidates by the sort key *and then by arrival
//! sequence number*, which makes its output **identical** to a stable
//! sort followed by truncation: among rows with equal keys, the earliest
//! enumerated rows win and they are emitted in enumeration order. Since
//! enumeration order over a factorisation is deterministic, two runs of
//! the same query produce byte-identical results even when ties straddle the
//! LIMIT boundary.

use fdb_relational::{SortDir, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One kept row: its extracted key (with per-column direction), its
/// arrival sequence number, and the full output row.
struct Candidate {
    key: Vec<(Value, SortDir)>,
    seq: usize,
    row: Vec<Value>,
}

impl Candidate {
    /// Lexicographic comparison under the per-column directions, ties
    /// broken by arrival order (earlier rows sort first).
    fn order(&self, other: &Self) -> Ordering {
        for ((va, dir), (vb, _)) in self.key.iter().zip(&other.key) {
            match dir.apply(va.cmp(vb)) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.seq.cmp(&other.seq)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order(other)
    }
}

/// A bounded top-k accumulator over output rows.
///
/// Push every (already filtered) row of the unordered enumeration, then
/// take the `k` smallest — under the query's `ORDER BY` directions — in
/// their final output order via [`TopK::into_rows`].
pub struct TopK {
    k: usize,
    /// Column position and direction of each (deduplicated) sort key
    /// within the pushed rows.
    keys: Vec<(usize, SortDir)>,
    /// Max-heap: the root is the worst kept candidate, evicted first.
    heap: BinaryHeap<Candidate>,
    seq: usize,
    bytes_held: usize,
    peak_bytes: usize,
}

impl TopK {
    /// A top-k accumulator keeping `k` rows ordered by the row columns at
    /// `keys` positions (first key decides first).
    pub fn new(k: usize, keys: Vec<(usize, SortDir)>) -> Self {
        TopK {
            k,
            keys,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1 << 20)),
            seq: 0,
            bytes_held: 0,
            peak_bytes: 0,
        }
    }

    /// Rows offered so far (kept or rejected).
    pub fn rows_seen(&self) -> usize {
        self.seq
    }

    /// Peak bytes of heap payload held at any point — size-based, like
    /// [`crate::frep::FRep::data_bytes`]: `O(k · row)` by construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// `row` payload bytes for the size-based accounting (key columns are
    /// duplicated into the extracted key).
    fn row_bytes(&self, row_len: usize) -> usize {
        (row_len + self.keys.len()) * std::mem::size_of::<Value>()
    }

    /// True iff `row` would currently be kept. Runs without allocating —
    /// the fast path that rejects most rows once the heap is warm.
    fn beats_worst(&self, row: &[Value]) -> bool {
        let Some(worst) = self.heap.peek() else {
            return true;
        };
        if self.heap.len() < self.k {
            return true;
        }
        for (&(pos, dir), (wv, _)) in self.keys.iter().zip(&worst.key) {
            match dir.apply(row[pos].cmp(wv)) {
                Ordering::Equal => continue,
                Ordering::Less => return true,
                Ordering::Greater => return false,
            }
        }
        // Key-equal with the worst kept row: the kept row arrived earlier
        // and wins the stable tie-break.
        false
    }

    /// Offers one row; keeps it iff it is among the `k` best seen so far.
    pub fn push(&mut self, row: &[Value]) {
        let seq = self.seq;
        self.seq += 1;
        if self.k == 0 || !self.beats_worst(row) {
            return;
        }
        let key: Vec<(Value, SortDir)> = self
            .keys
            .iter()
            .map(|&(pos, dir)| (row[pos].clone(), dir))
            .collect();
        self.heap.push(Candidate {
            key,
            seq,
            row: row.to_vec(),
        });
        self.bytes_held += self.row_bytes(row.len());
        self.peak_bytes = self.peak_bytes.max(self.bytes_held);
        if self.heap.len() > self.k {
            if let Some(evicted) = self.heap.pop() {
                self.bytes_held -= self.row_bytes(evicted.row.len());
            }
        }
    }

    /// The kept rows in final output order (sorted by key, ties in
    /// arrival order) — identical to a stable sort + truncate at `k`.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| c.row)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{Relation, Schema, SortKey};

    fn attr(i: u32) -> fdb_relational::AttrId {
        fdb_relational::AttrId(i)
    }

    /// Pseudo-random rows (no external rng needed): a linear-congruential
    /// walk over small domains to force plenty of ties.
    fn rows(n: usize) -> Vec<Vec<Value>> {
        let mut x = 0x2545F491u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                vec![
                    Value::Int((x >> 33) as i64 % 5),
                    Value::Int(i as i64),
                    if x % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int((x >> 13) as i64 % 3)
                    },
                ]
            })
            .collect()
    }

    /// Reference: stable sort, truncate at k.
    fn sort_cut(mut data: Vec<Vec<Value>>, keys: &[(usize, SortDir)], k: usize) -> Vec<Vec<Value>> {
        data.sort_by(|a, b| {
            for &(pos, dir) in keys {
                match dir.apply(a[pos].cmp(&b[pos])) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            Ordering::Equal
        });
        data.truncate(k);
        data
    }

    #[test]
    fn matches_stable_sort_cut_with_ties_and_nulls() {
        let data = rows(200);
        for k in [0, 1, 3, 7, 50, 200, 500] {
            for keys in [
                vec![(0, SortDir::Asc)],
                vec![(0, SortDir::Desc)],
                vec![(2, SortDir::Asc), (0, SortDir::Desc)],
                vec![(2, SortDir::Desc)],
            ] {
                let mut topk = TopK::new(k, keys.clone());
                for r in &data {
                    topk.push(r);
                }
                assert_eq!(topk.rows_seen(), data.len());
                assert_eq!(
                    topk.into_rows(),
                    sort_cut(data.clone(), &keys, k),
                    "k={k} keys={keys:?}"
                );
            }
        }
    }

    #[test]
    fn peak_memory_is_bounded_by_k() {
        let keys = vec![(0, SortDir::Asc), (1, SortDir::Desc)];
        let small = {
            let mut t = TopK::new(10, keys.clone());
            for r in rows(100) {
                t.push(&r);
            }
            t.peak_bytes()
        };
        let large = {
            let mut t = TopK::new(10, keys);
            for r in rows(10_000) {
                t.push(&r);
            }
            t.peak_bytes()
        };
        // 100x more input, identical peak: O(k·row), not O(N).
        assert_eq!(small, large);
        assert!(small > 0);
        // And the bound really is (k+1) rows of (3 cols + 2 key cols).
        assert!(small <= 11 * 5 * std::mem::size_of::<Value>());
    }

    #[test]
    fn agrees_with_relation_sort_by_keys() {
        // The comparator must be the very comparator `Relation::sort_by_keys`
        // uses — including NULLS LAST under Asc / first under Desc.
        let a = attr(0);
        let b = attr(1);
        let data = rows(64)
            .into_iter()
            .map(|r| vec![r[2].clone(), r[1].clone()])
            .collect::<Vec<_>>();
        let mut rel = Relation::from_rows(Schema::new(vec![a, b]), data.clone());
        rel.sort_by_keys(&[SortKey::desc(a), SortKey::asc(b)]);
        let keys = vec![(0, SortDir::Desc), (1, SortDir::Asc)];
        let mut topk = TopK::new(9, keys);
        for r in &data {
            topk.push(r);
        }
        let got = topk.into_rows();
        let want: Vec<Vec<Value>> = rel.rows().take(9).map(|r| r.to_vec()).collect();
        assert_eq!(got, want);
    }
}
