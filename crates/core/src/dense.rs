//! Dense ids for the values of one arena column: the seeded,
//! linear-probing hash table behind the swap kernel's regroup
//! ([`crate::ops::swap`]) and the distinct count ([`crate::agg`]).
//!
//! A key is a value index into a column (anything indexable by
//! position: a slice, or an arena column split across base and tail),
//! so the table holds no borrow of the arena and one table is cleared
//! and reused across every union (or group) its owner visits: once
//! grown, interning allocates nothing.

use fdb_relational::Value;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Index;

/// Free slot of [`DenseIds::slots`].
const EMPTY: u32 = u32::MAX;

/// Slots of a freshly cleared table.
const INITIAL_SLOTS: usize = 16;

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
    #[inline]
    pub(crate) fn intern<C>(&mut self, col: &C, val: u32) -> u32
    where
        C: Index<usize, Output = Value> + ?Sized,
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
}
