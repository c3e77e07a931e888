//! An open-addressed `u64 → u32` table, the one lookup structure of
//! `ExtractMesh`: behind its node table (node key → node) and its
//! hanging-master probes (packed octant → view index). Plus the radix
//! sort that orders the node table's distinct keys.

/// Key of an empty slot. No node key (60 bits) and no valid packed
/// octant (`Octant::INVALID` is all ones) has every bit set.
const EMPTY: u64 = u64::MAX;

/// A map from `u64` keys to `u32` values: linear probing from a
/// multiplicative (Fibonacci) hash, no removal. It doubles its slots
/// before an insertion would fill more than two thirds of them, so every
/// probe run ends at an empty slot. Growth moves every key with its
/// value, so what a lookup returns never depends on the capacity.
pub(crate) struct KeyTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    /// `64 − log2(slots)`: the hash is the product's top bits.
    shift: u32,
    /// Keys present.
    len: usize,
}

impl KeyTable {
    /// An empty table with room for `n` distinct keys before it grows.
    pub(crate) fn with_capacity(n: usize) -> KeyTable {
        let slots = (n + n / 2 + 1).next_power_of_two().max(2);
        KeyTable {
            keys: vec![EMPTY; slots],
            vals: vec![0; slots],
            shift: u64::BITS - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Double the slots and re-insert every key with its value.
    #[cold]
    fn grow(&mut self) {
        let mut grown = KeyTable::with_capacity(self.keys.len());
        for (&k, &v) in self.keys.iter().zip(&self.vals) {
            if k != EMPTY {
                grown.get_or_insert(k, v);
            }
        }
        *self = grown;
    }

    #[inline]
    fn home(&self, k: u64) -> usize {
        (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The value of `k`; if `k` is absent, insert it with value `v`
    /// first, growing the table if it would pass two thirds full.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, k: u64, v: u32) -> u32 {
        debug_assert_ne!(k, EMPTY);
        let mask = self.keys.len() - 1;
        let mut i = self.home(k);
        loop {
            match self.keys[i] {
                EMPTY => {
                    if 3 * (self.len + 1) > 2 * self.keys.len() {
                        self.grow();
                        return self.get_or_insert(k, v);
                    }
                    self.keys[i] = k;
                    self.vals[i] = v;
                    self.len += 1;
                    return v;
                }
                x if x == k => return self.vals[i],
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value of `k`, if present.
    #[inline]
    pub(crate) fn get(&self, k: u64) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(k);
        loop {
            match self.keys[i] {
                EMPTY => return None,
                x if x == k => return Some(self.vals[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Sort pairs with distinct keys by key: a least-significant-digit radix
/// sort over the 8-bit digits of the key bits that differ between pairs.
/// The node keys of a mesh whose finest level is `L` differ only in
/// their top `3·(L + 1)` bits, so an adapted mesh takes a few passes.
pub(crate) fn sort_distinct(pairs: &mut Vec<(u64, u32)>) {
    let Some(&(k0, _)) = pairs.first() else {
        return;
    };
    let differ = pairs.iter().fold(0, |acc, &(k, _)| acc | (k ^ k0));
    let mut scratch = vec![(0, 0); pairs.len()];
    let mut shift = differ.trailing_zeros();
    while shift < u64::BITS - differ.leading_zeros() {
        if (differ >> shift) & 0xff != 0 {
            let digit = |k: u64| ((k >> shift) & 0xff) as usize;
            let mut starts = [0usize; 257];
            for &(k, _) in pairs.iter() {
                starts[digit(k) + 1] += 1;
            }
            for d in 1..257 {
                starts[d] += starts[d - 1];
            }
            for &t in pairs.iter() {
                scratch[starts[digit(t.0)]] = t;
                starts[digit(t.0)] += 1;
            }
            std::mem::swap(pairs, &mut scratch);
        }
        shift += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_keeps_every_key_and_finds_no_other() {
        // Sequential keys cluster in linear probing; `n` of them fill
        // the table to its capacity.
        for n in [0, 1, 2, 7, 8, 100, 1000] {
            let mut t = KeyTable::with_capacity(n);
            for k in 0..n as u64 {
                assert_eq!(t.get_or_insert(k << 3, k as u32), k as u32);
            }
            for k in 0..n as u64 {
                assert_eq!(t.get_or_insert(k << 3, u32::MAX), k as u32);
                assert_eq!(t.get(k << 3), Some(k as u32));
                assert_eq!(t.get(k << 3 | 1), None);
            }
            assert_eq!(t.get(EMPTY - 1), None);
        }
    }

    #[test]
    fn growth_keeps_every_key_with_its_value() {
        // From room for one key to 5000 keys: twelve doublings, each
        // moving every key; no slot count is ever more than two thirds
        // full.
        let mut rng = scomm::rng::SplitMix64::new(7);
        let keys: Vec<u64> = (0..5000).map(|_| rng.next_u64() >> 4).collect();
        let mut t = KeyTable::with_capacity(1);
        for (v, &k) in keys.iter().enumerate() {
            let first = keys.iter().position(|&x| x == k).unwrap() as u32;
            assert_eq!(t.get_or_insert(k, v as u32), first);
            assert!(3 * t.len <= 2 * t.keys.len());
        }
        for (v, &k) in keys.iter().enumerate() {
            let first = keys[..=v].iter().position(|&x| x == k).unwrap() as u32;
            assert_eq!(t.get(k), Some(first));
            assert_eq!(t.get(k | 1 << 62), None);
        }
        assert!(t.keys.len() >= 4096, "{} slots", t.keys.len());
    }

    #[test]
    fn sort_distinct_is_a_sort() {
        let mut rng = scomm::rng::SplitMix64::new(5);
        for (n, bits) in [(0, 8), (1, 8), (2, 64), (300, 24), (3000, 60), (3000, 64)] {
            let mut keys: Vec<u64> = (0..n)
                .map(|_| rng.next_u64() >> (64 - bits) << (64 - bits))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut pairs: Vec<(u64, u32)> = keys.iter().rev().map(|&k| (k, k as u32)).collect();
            sort_distinct(&mut pairs);
            let want: Vec<(u64, u32)> = keys.iter().map(|&k| (k, k as u32)).collect();
            assert_eq!(pairs, want, "{n} keys of {bits} bits");
        }
    }
}
