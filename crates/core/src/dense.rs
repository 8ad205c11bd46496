//! Dense ids for the values of one arena column: the seeded,
//! linear-probing hash table behind the swap kernel's regroup
//! ([`crate::ops::swap`]) and the distinct count ([`crate::agg`]), and
//! the two tables the group fold ([`crate::agg`]) interns through.
//!
//! A key is a value index into a column (anything indexable by
//! position: a slice, or an arena column split across base and tail;
//! its items are `Value`s, or any other hashable keys),
//! so the table holds no borrow of the arena and one table is cleared
//! and reused across every union (or group) its owner visits: once
//! grown, interning allocates nothing.
//!
//! The group fold interns once per entry, so it keys on integers where
//! it can. [`ValueIds`] gives each value of one group node an id: an
//! `Int` inside the direct span reads its id from an array slot, any
//! other value goes through a [`DenseIds`]. The span starts at the first
//! `Int` met and at least doubles to take a later one, as long as it
//! stays within [`direct_cap`] of the entries interned so far, so a walk
//! that meets few entries allocates few slots, however long the column.
//! Reading the span's array in index order sorts its values, so the
//! group fold's chain needs no second interning to rank them.
//! [`PairIds`] gives each `(enclosing group, value id)` key an id from a
//! direct table of rows, one row per enclosing group, while the table
//! fits [`direct_cap`] of the group node's column. Past their caps both
//! fall back to the seeded hash: a crafted column (`{0, i64::MAX}`, or
//! a few groups each with many values) then costs a hash probe per
//! entry, never memory beyond a few slots per entry, and its values
//! cannot be chosen to collide into one long probe run.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Index;

use fdb_relational::Value;

/// Free slot of [`DenseIds::slots`].
const EMPTY: u32 = u32::MAX;

/// Slots of a freshly cleared table.
const INITIAL_SLOTS: usize = 16;

/// Direct slots a table may hold per entry (of those interned, or of the
/// column): at 4 bytes a slot, at most 32 bytes per entry, less than the
/// arena keeps per entry (its 12-byte record and its 24-byte value).
const DIRECT_PER_ENTRY: usize = 8;

/// Direct slots any table may hold, however short its column.
const DIRECT_FLOOR: usize = 1024;

/// The most direct slots a [`ValueIds`] or [`PairIds`] holds for
/// `entries` entries.
pub(crate) fn direct_cap(entries: usize) -> usize {
    entries
        .saturating_mul(DIRECT_PER_ENTRY)
        .saturating_add(DIRECT_FLOOR)
}

/// Gives each distinct value interned since the last [`DenseIds::clear`]
/// the next dense id, `0, 1, 2, …` in order of first sight.
#[derive(Clone, Debug)]
pub(crate) struct DenseIds {
    /// Per-table random start state of the value hash: the data can come
    /// from clients, and a fixed hash would let crafted values collide
    /// into one long probe run.
    seed: u64,
    /// Per dense id: the column index of the value's first occurrence
    /// and the value's hash.
    keys: Vec<(u32, u64)>,
    /// Linear-probing table of dense ids ([`EMPTY`] = free), grown to
    /// stay at most a quarter full.
    slots: Vec<u32>,
}

impl DenseIds {
    pub(crate) fn new() -> DenseIds {
        DenseIds {
            seed: RandomState::new().hash_one(0u8),
            keys: Vec::new(),
            slots: vec![EMPTY; INITIAL_SLOTS],
        }
    }

    /// Forgets every id; keeps the allocations.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.slots.resize(INITIAL_SLOTS, EMPTY);
    }

    /// Number of distinct values interned.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The dense id of `col[val]`, assigned on first sight (it is then
    /// `len() - 1`). Every call for one table between two clears must
    /// pass the same column.
    // Inlined into the loops of both callers that intern per entry (the
    // distinct count and the group fold): left to the compiler, the
    // second call site stopped it being inlined into the distinct
    // count's loop, which then ran measurably slower.
    #[inline(always)]
    pub(crate) fn intern<C, K>(&mut self, col: &C, val: u32) -> u32
    where
        C: Index<usize, Output = K> + ?Sized,
        K: Hash + PartialEq + ?Sized,
    {
        let v = &col[val as usize];
        let mut h = FxHasher(self.seed);
        v.hash(&mut h);
        let h = h.finish();
        let mask = self.slots.len() - 1;
        let mut s = slot_of(h, mask);
        loop {
            let id = self.slots[s];
            if id == EMPTY {
                break;
            }
            let (f, fh) = self.keys[id as usize];
            if fh == h && (f == val || col[f as usize] == *v) {
                return id;
            }
            s = (s + 1) & mask;
        }
        let id = self.keys.len() as u32;
        self.slots[s] = id;
        self.keys.push((val, h));
        if 4 * self.keys.len() > self.slots.len() {
            // Double and re-place every id by its stored hash.
            let mask = 2 * self.slots.len() - 1;
            self.slots.clear();
            self.slots.resize(mask + 1, EMPTY);
            for (id, &(_, h)) in self.keys.iter().enumerate() {
                let mut s = slot_of(h, mask);
                while self.slots[s] != EMPTY {
                    s = (s + 1) & mask;
                }
                self.slots[s] = id as u32;
            }
        }
        id
    }
}

/// Gives each distinct value of one column the next dense id, `0, 1, 2,
/// …` in order of first sight: an `Int` inside the direct span by its
/// array slot, every other value through a [`DenseIds`].
#[derive(Debug)]
pub(crate) struct ValueIds {
    /// The direct span's first `Int`.
    lo: i64,
    /// Per `Int` of the direct span, `lo` first: its id, or [`EMPTY`].
    direct: Vec<u32>,
    /// The values met outside the direct span (some of them inside it
    /// since it widened).
    hashed: DenseIds,
    /// Per id of `hashed`, the value's id here.
    of_hashed: Vec<u32>,
    /// Per id, its value.
    values: Vec<Value>,
    /// Entries interned: the direct span may grow to [`direct_cap`] of
    /// them.
    walked: usize,
}

impl ValueIds {
    pub(crate) fn new() -> ValueIds {
        ValueIds {
            lo: 0,
            direct: Vec::new(),
            hashed: DenseIds::new(),
            of_hashed: Vec::new(),
            values: Vec::new(),
            walked: 0,
        }
    }

    /// Number of distinct values interned.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The value of id `id`.
    pub(crate) fn value(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// The values by id.
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The id of `col[val]`, assigned on first sight (it is then
    /// `len() - 1`). Every call must pass the column the table was made
    /// for.
    #[inline(always)]
    pub(crate) fn intern<C>(&mut self, col: &C, val: u32) -> u32
    where
        C: Index<usize, Output = Value> + ?Sized,
    {
        self.walked += 1;
        if let Value::Int(i) = col[val as usize] {
            if let Some(id) = self.direct_id(i) {
                return id;
            }
            if self.widen(i) {
                return self.direct_id(i).expect("the widened span takes `i`");
            }
        }
        self.intern_hashed(col, val)
    }

    /// The index of `i`'s slot, which exists if the span takes `i`:
    /// below `lo` or far above it, the difference wraps past any span.
    #[inline(always)]
    fn offset(&self, i: i64) -> usize {
        i.wrapping_sub(self.lo) as u64 as usize
    }

    /// The id of `i` from its direct slot, if the span takes it.
    #[inline(always)]
    fn direct_id(&mut self, i: i64) -> Option<u32> {
        let at = self.offset(i);
        let slot = self.direct.get_mut(at)?;
        if *slot == EMPTY {
            *slot = self.values.len() as u32;
            self.values.push(Value::Int(i));
        }
        Some(*slot)
    }

    /// Widens the direct span to take `i`, at least doubling it, unless
    /// that passes [`direct_cap`] of the entries walked; every hashed
    /// `Int` the span then covers takes its id into its slot.
    #[cold]
    fn widen(&mut self, i: i64) -> bool {
        let old = self.direct.len() as u64;
        let (mut lo, mut hi) = (i, i);
        if old > 0 {
            lo = self.lo.min(i);
            hi = self.lo.saturating_add_unsigned(old - 1).max(i);
        }
        let cap = direct_cap(self.walked) as u64;
        let need = hi.abs_diff(lo).saturating_add(1);
        if need > cap {
            return false;
        }
        let len = need.max(2 * old).min(cap);
        if old > 0 && i < self.lo {
            // Widened downwards, the span ends at `hi`.
            lo = hi.saturating_sub_unsigned(len - 1);
        }
        let mut direct = vec![EMPTY; len as usize];
        if old > 0 {
            let at = self.lo.abs_diff(lo) as usize;
            direct[at..at + old as usize].copy_from_slice(&self.direct);
        }
        (self.lo, self.direct) = (lo, direct);
        for &id in &self.of_hashed {
            if let Value::Int(x) = self.values[id as usize] {
                let at = self.offset(x);
                if let Some(slot) = self.direct.get_mut(at) {
                    *slot = id;
                }
            }
        }
        true
    }

    fn intern_hashed<C>(&mut self, col: &C, val: u32) -> u32
    where
        C: Index<usize, Output = Value> + ?Sized,
    {
        let h = self.hashed.intern(col, val) as usize;
        if h == self.of_hashed.len() {
            self.of_hashed.push(self.values.len() as u32);
            self.values.push(col[val as usize].clone());
        }
        self.of_hashed[h]
    }

    /// Every id, in ascending order of its value (`Value::cmp`). The
    /// direct span read in index order is a counting sort of its
    /// values; the hashed ones are sorted and placed around it (an
    /// `Int` outside the span lies below or above all of it, any other
    /// value above every `Int`).
    pub(crate) fn ascending(&self) -> Vec<u32> {
        let mut hashed = self.of_hashed.clone();
        hashed.retain(|&id| match *self.value(id) {
            Value::Int(i) => self.direct.get(self.offset(i)).is_none(),
            _ => true,
        });
        hashed.sort_unstable_by(|&a, &b| self.value(a).cmp(self.value(b)));
        let lo = Value::Int(self.lo);
        let below = hashed.partition_point(|&id| *self.value(id) < lo);
        let mut ids = Vec::with_capacity(self.len());
        ids.extend_from_slice(&hashed[..below]);
        ids.extend(self.direct.iter().copied().filter(|&id| id != EMPTY));
        ids.extend_from_slice(&hashed[below..]);
        ids
    }
}

/// Gives each distinct key `(row, column)` of small integers — in the
/// group fold, an enclosing group and a value id — the next dense id in
/// order of first sight. Key `(p, v)` is slot `v` of row `p` of a direct
/// table whose rows are `stride` slots long; a `v` past the stride
/// doubles it. Once the table would pass its cap, every key seen so far
/// moves to a [`DenseIds`] over the keys, which takes every later one.
#[derive(Debug)]
pub(crate) struct PairIds {
    /// The most slots the direct table may hold.
    cap: usize,
    /// Slots per row; `0` once hashed.
    stride: usize,
    /// Row `p`, slot `v` at `p * stride + v`: the id of key `(p, v)`, or
    /// [`EMPTY`].
    rows: Vec<u32>,
    /// The keys' table once the direct one passed its cap.
    hashed: Option<DenseIds>,
}

impl PairIds {
    /// A table of at most `cap` slots.
    pub(crate) fn new(cap: usize) -> PairIds {
        PairIds {
            cap,
            stride: 1,
            rows: Vec::new(),
            hashed: None,
        }
    }

    /// The id of `key`, assigned on first sight; `keys` holds the keys
    /// by id, and a new key is pushed onto it. Every call must pass the
    /// same `keys`.
    #[inline(always)]
    pub(crate) fn intern(&mut self, keys: &mut Vec<(u32, u32)>, key: (u32, u32)) -> u32 {
        let v = key.1 as usize;
        if v < self.stride {
            if let Some(slot) = self.rows.get_mut(key.0 as usize * self.stride + v) {
                if *slot == EMPTY {
                    *slot = keys.len() as u32;
                    keys.push(key);
                }
                return *slot;
            }
        }
        self.intern_slow(keys, key)
    }

    /// [`PairIds::intern`] for a key outside the direct table: the table
    /// grows to take it, or, past the cap, gives way to the hashed one.
    fn intern_slow(&mut self, keys: &mut Vec<(u32, u32)>, key: (u32, u32)) -> u32 {
        let (p, v) = (key.0 as usize, key.1 as usize);
        if self.hashed.is_none() {
            let rows = (p + 1).max(self.rows.len() / self.stride);
            let mut stride = self.stride;
            if v >= stride {
                stride = (v + 1).max(2 * stride);
            }
            if rows.saturating_mul(stride) <= self.cap {
                if stride == self.stride {
                    self.rows.resize(rows * stride, EMPTY);
                } else {
                    let mut rows = vec![EMPTY; rows * stride];
                    for (old, new) in self.rows.chunks(self.stride).zip(rows.chunks_mut(stride)) {
                        new[..old.len()].copy_from_slice(old);
                    }
                    self.rows = rows;
                    self.stride = stride;
                }
                return self.intern(keys, key);
            }
            let mut hashed = DenseIds::new();
            for id in 0..keys.len() as u32 {
                hashed.intern(keys.as_slice(), id);
            }
            self.hashed = Some(hashed);
            self.rows = Vec::new();
            self.stride = 0;
        }
        let hashed = self.hashed.as_mut().expect("hashed past the cap");
        let next = keys.len() as u32;
        keys.push(key);
        let id = hashed.intern(keys.as_slice(), next);
        if id != next {
            keys.pop();
        }
        id
    }
}

/// Table slot of hash `h` under `mask` (a power of two minus one).
/// The Fx hash of an integer `i` is `(c ^ i)·K` for constants `c` and
/// `K`, so consecutive integers would fall into a few regular runs of
/// slots; one xor-shift-multiply round mixes them before the high bits
/// are taken.
fn slot_of(h: u64, mask: usize) -> usize {
    let x = (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> (64 - mask.count_ones())) as usize
}

/// Fx-style word hasher (the rustc hasher) from a given start state:
/// one rotate, xor and multiply per word — cheap for the short keys
/// `Value::hash` feeds it.
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_an_id_across_positions_and_growth() {
        // 150 distinct Ints, strings and floats, each at four column
        // positions: the table grows several times and still gives the
        // copies of one value one id, and distinct values distinct ids.
        let col: Vec<Value> = (0..600)
            .map(|i| match i % 3 {
                0 => Value::Int(i % 150),
                1 => Value::str(format!("s{}", i % 150)),
                _ => Value::Float((i % 150) as f64),
            })
            .collect();
        let mut ids = DenseIds::new();
        let got: Vec<u32> = (0..col.len() as u32)
            .map(|v| ids.intern(col.as_slice(), v))
            .collect();
        let mut distinct = col.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!((ids.len(), distinct.len()), (150, 150));
        for (i, &x) in got.iter().enumerate() {
            for (j, &y) in got.iter().enumerate() {
                assert_eq!(x == y, col[i] == col[j], "positions {i} and {j}");
            }
        }
        ids.clear();
        assert_eq!(ids.len(), 0);
        assert_eq!(ids.intern(col.as_slice(), 5), 0);
    }

    /// Small `Int`s, `Int`s far outside any span, strings, both zeros
    /// and NULL, repeated at several positions.
    fn mixed_column() -> Vec<Value> {
        let distinct = [
            Value::Int(3),
            Value::Int(-2),
            Value::Int(i64::MAX),
            Value::str("3"),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Int(i64::MIN + 1),
            Value::Null,
            Value::Int(7),
            Value::Float(1.0),
            Value::Int(1),
            Value::str("a"),
            Value::Int(1 << 40),
        ];
        (0..5 * distinct.len())
            .map(|i| distinct[(i * 5 + i / 7) % distinct.len()].clone())
            .collect()
    }

    /// `Int`s the direct span first cannot take and later covers
    /// (`3000`, then `-5` below it), and some it never takes.
    fn widening_column() -> Vec<Value> {
        let mut col: Vec<Value> = [0, 3000, 1 << 40].map(Value::Int).to_vec();
        col.extend((0..400).map(|i| Value::Int(i % 397)));
        col.extend([2999, 3000, 5000, -5, i64::MIN, i64::MAX].map(Value::Int));
        col.extend([Value::str("x"), Value::Float(3000.0), Value::Int(3000)]);
        col
    }

    #[test]
    fn value_ids_agree_with_dense_ids_on_mixed_columns() {
        // Both number values in order of first sight, so the ids are the
        // same whichever path each value takes.
        for col in [mixed_column(), widening_column()] {
            let mut dense = DenseIds::new();
            let mut ids = ValueIds::new();
            for v in 0..col.len() as u32 {
                let id = ids.intern(col.as_slice(), v);
                assert_eq!(id, dense.intern(col.as_slice(), v), "{:?}", col[v as usize]);
                assert_eq!(*ids.value(id), col[v as usize]);
            }
            assert_eq!(ids.len(), dense.len());
            assert!(ids.direct.len() <= direct_cap(col.len()));
        }
        // The widening column's span grew over `3000` and down to `-5`.
        let col = widening_column();
        let mut ids = ValueIds::new();
        for v in 0..col.len() as u32 {
            ids.intern(col.as_slice(), v);
        }
        let end = ids.lo + ids.direct.len() as i64;
        assert!(
            ids.lo <= -5 && 3000 < end && end <= 5000,
            "{}..{end}",
            ids.lo
        );
    }

    #[test]
    fn an_int_and_an_equal_float_get_distinct_ids() {
        let col = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(0.0),
        ];
        let mut ids = ValueIds::new();
        let got: Vec<u32> = (0..4).map(|v| ids.intern(&col[..], v)).collect();
        assert_eq!(got, [0, 1, 2, 3]);
        assert_eq!(ids.direct.len(), 2, "0 and 1 are direct");
    }

    #[test]
    fn a_column_spanning_every_int_stays_within_the_cap() {
        for col in [
            [Value::Int(0), Value::Int(i64::MAX)],
            [Value::Int(i64::MIN), Value::Int(i64::MAX)],
        ] {
            let mut ids = ValueIds::new();
            assert_eq!((ids.intern(&col[..], 1), ids.intern(&col[..], 0)), (0, 1));
            assert!(ids.direct.capacity() <= direct_cap(2), "{col:?}");
            assert_eq!(ids.ascending(), [1, 0]);
        }
    }

    #[test]
    fn ascending_ids_follow_value_order_across_the_direct_span() {
        for col in [mixed_column(), widening_column()] {
            let mut ids = ValueIds::new();
            for v in 0..col.len() as u32 {
                ids.intern(col.as_slice(), v);
            }
            let got: Vec<Value> = ids
                .ascending()
                .iter()
                .map(|&id| ids.value(id).clone())
                .collect();
            let mut want = col.clone();
            want.sort();
            want.dedup();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn pair_ids_keep_their_ids_as_rows_widen_and_past_the_cap() {
        // Keys from a few rows and columns in a scrambled order: the
        // stride doubles several times, then the table passes its cap of
        // 96 slots and hashes.
        let mut pairs = PairIds::new(96);
        let mut keys = Vec::new();
        let mut want: Vec<(u32, u32)> = Vec::new();
        for i in 0u32..400 {
            let key = ((i * 7 + i / 13) % 12, (i * 11 + i / 5) % (1 + i / 20));
            let id = pairs.intern(&mut keys, key);
            let first = want.iter().position(|&k| k == key).unwrap_or_else(|| {
                want.push(key);
                want.len() - 1
            });
            assert_eq!(id as usize, first, "key {key:?} at step {i}");
            assert!(pairs.rows.len() <= 96);
        }
        assert_eq!(keys, want);
        assert!(
            pairs.hashed.is_some(),
            "12 rows of 20 columns pass 96 slots"
        );
    }
}
