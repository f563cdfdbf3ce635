//! A deterministic open-addressed hash table for per-access lookups.
//!
//! [`OpenTable`] is the one hash map the cycle-level crates share: the
//! page-table walker's in-flight set and the fleet's placement map both
//! live in one. Slots are a power-of-two array of `(key, value)` pairs
//! with [`TableKey::EMPTY`] marking a free slot. A key's home slot comes
//! from a fixed multiplicative hash of [`TableKey::mix`] — no per-process
//! seed, so the layout is the same on every run — and lookups probe
//! linearly from there. Deletion shifts the rest of the probe chain
//! back, so there are no tombstones. A new table allocates nothing; the
//! first insert makes 64 slots, and the table doubles at half load.
//! Slot order depends on insertion and removal history, so a caller that
//! needs an order sorts what [`OpenTable::iter`] yields.

/// A key an [`OpenTable`] can hold.
pub trait TableKey: Copy + Eq {
    /// The reserved key of an empty slot. No real key may equal it.
    const EMPTY: Self;

    /// The key folded into 64 bits; the table multiplies it by a fixed
    /// odd constant and takes the top bits as the home slot.
    fn mix(self) -> u64;
}

/// Slot count of a table's first allocation.
const INITIAL_SLOTS: usize = 64;

/// An open-addressed map from `K` to `V` with linear probing and
/// backward-shift deletion (see the module docs).
#[derive(Debug)]
pub struct OpenTable<K, V> {
    slots: Vec<(K, V)>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    len: usize,
}

impl<K: TableKey, V: Copy + Default> Default for OpenTable<K, V> {
    fn default() -> Self {
        OpenTable { slots: Vec::new(), shift: 0, len: 0 }
    }
}

impl<K: TableKey, V: Copy + Default> OpenTable<K, V> {
    /// An empty table, with no slots allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_slots(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        OpenTable {
            slots: vec![(K::EMPTY, V::default()); n],
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: K) -> usize {
        (key.mix().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot ending its probe chain.
    fn find(&self, key: K) -> usize {
        let mask = self.mask();
        let mut i = self.home(key);
        while self.slots[i].0 != key && self.slots[i].0 != K::EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: K) -> Option<&V> {
        if self.len == 0 {
            return None;
        }
        let (stored, value) = &self.slots[self.find(key)];
        (*stored != K::EMPTY).then_some(value)
    }

    /// The value stored under `key`, inserting `value` first when the key
    /// is absent.
    pub fn get_or_insert(&mut self, key: K, value: V) -> &mut V {
        debug_assert!(key != K::EMPTY, "the empty key is reserved");
        if self.slots.is_empty() {
            self.grow();
        }
        let mut i = self.find(key);
        if self.slots[i].0 == K::EMPTY {
            if 2 * (self.len + 1) > self.slots.len() {
                self.grow();
                i = self.find(key);
            }
            self.slots[i] = (key, value);
            self.len += 1;
        }
        &mut self.slots[i].1
    }

    /// Stores `value` under `key`, which must be absent.
    pub fn insert(&mut self, key: K, value: V) {
        debug_assert!(self.get(key).is_none(), "key already present");
        self.get_or_insert(key, value);
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.find(key);
        let (stored, value) = self.slots[hole];
        if stored == K::EMPTY {
            return None;
        }
        // Backward-shift deletion: walk the rest of the chain and pull
        // back every entry whose home does not lie cyclically in
        // `(hole, j]`, so no lookup ever crosses an empty slot early.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let moved = self.slots[j];
            if moved.0 == K::EMPTY {
                break;
            }
            let home = self.home(moved.0);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = moved;
                hole = j;
            }
        }
        self.slots[hole] = (K::EMPTY, V::default());
        self.len -= 1;
        Some(value)
    }

    /// Doubles the slot array (or makes the first one), re-homing every
    /// live entry.
    fn grow(&mut self) {
        let mut bigger = Self::with_slots((2 * self.slots.len()).max(INITIAL_SLOTS));
        for &(key, value) in &self.slots {
            if key != K::EMPTY {
                let i = bigger.find(key);
                bigger.slots[i] = (key, value);
            }
        }
        bigger.len = self.len;
        *self = bigger;
    }

    /// Every live entry, in slot order (which nothing should rely on).
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.slots.iter().copied().filter(|&(key, _)| key != K::EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    impl TableKey for u64 {
        const EMPTY: u64 = u64::MAX;
        fn mix(self) -> u64 {
            self
        }
    }

    fn first_slots() -> OpenTable<u64, u64> {
        OpenTable::with_slots(INITIAL_SLOTS)
    }

    /// Keys whose home slot in a table's first slot array is `slot`.
    fn homed_at(slot: usize, n: usize) -> Vec<u64> {
        let t = first_slots();
        (0..).filter(|&k| t.home(k) == slot).take(n).collect()
    }

    #[test]
    fn probe_chains_wrap_the_array_end() {
        let mut t = first_slots();
        let last = t.slots.len() - 1;
        let chain = homed_at(last, 3);
        for (i, &k) in chain.iter().enumerate() {
            t.insert(k, i as u64);
        }
        // Two of the three spilled past the end into slots 0 and 1.
        assert_eq!(t.slots[0].0, chain[1]);
        assert_eq!(t.slots[1].0, chain[2]);
        for (i, &k) in chain.iter().enumerate() {
            assert_eq!(t.get(k), Some(&(i as u64)));
        }
        // Deleting the head at the end pulls the wrapped entries back.
        assert_eq!(t.remove(chain[0]), Some(0));
        assert_eq!(t.slots[last].0, chain[1]);
        assert_eq!(t.slots[0].0, chain[2]);
        assert_eq!(t.slots[1].0, u64::MAX);
        assert_eq!(t.get(chain[0]), None);
        assert_eq!(t.get(chain[2]), Some(&2));
    }

    #[test]
    fn deletes_inside_a_cluster_keep_every_chain_reachable() {
        let mut t = OpenTable::<u64, u64>::new();
        // Two interleaved chains: homes 5 and 6 share one cluster.
        let a = homed_at(5, 3);
        let b = homed_at(6, 3);
        let all: Vec<_> = a.iter().zip(&b).flat_map(|(&x, &y)| [x, y]).collect();
        for (i, &k) in all.iter().enumerate() {
            t.insert(k, i as u64);
        }
        // Delete from the middle, then the head, then the tail.
        for victim in [all[2], all[0], all[5]] {
            let i = all.iter().position(|&k| k == victim).unwrap();
            assert_eq!(t.remove(victim), Some(i as u64));
            assert_eq!(t.remove(victim), None, "removed twice");
            for (j, &k) in all.iter().enumerate() {
                let live = t.slots.iter().any(|s| s.0 == k);
                assert_eq!(t.get(k).copied(), live.then_some(j as u64));
            }
        }
        assert_eq!(t.len(), 3);
        // The survivors sit back at the cluster's start: no holes inside.
        let occupied: Vec<usize> =
            (0..t.slots.len()).filter(|&i| t.slots[i].0 != u64::MAX).collect();
        assert_eq!(occupied, vec![5, 6, 7]);
    }

    #[test]
    fn grows_past_thousands_of_live_entries() {
        let mut t = OpenTable::<u64, u64>::new();
        let mut model = BTreeMap::new();
        let mut rng = SimRng::from_seed(7);
        for i in 0..10_000u64 {
            let k = rng.below(3) << 40 | rng.below(1 << 30);
            if model.contains_key(&k) {
                continue;
            }
            t.insert(k, i);
            model.insert(k, i);
            // Retire every third entry so deletes run at every size.
            if i % 3 == 0 {
                let (&old, &value) = model.iter().next().unwrap();
                assert_eq!(t.remove(old), Some(value));
                model.remove(&old);
            }
        }
        assert!(model.len() >= 4_096, "{} live", model.len());
        assert_eq!(t.len(), model.len());
        assert!(t.slots.len() >= 2 * t.len(), "doubles at half load");
        for (&k, &value) in &model {
            assert_eq!(t.get(k), Some(&value));
        }
        assert_eq!(t.get(1 << 50), None);
        let mut live: Vec<(u64, u64)> = t.iter().collect();
        live.sort_unstable();
        assert_eq!(live, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_new_table_allocates_on_its_first_insert() {
        let mut t = OpenTable::<u64, u64>::new();
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!((t.get(3), t.iter().count()), (None, 0));
        assert_eq!(t.remove(3), None);
        assert!(t.is_empty());
        t.insert(3, 4);
        assert_eq!(t.slots.len(), INITIAL_SLOTS);
        assert_eq!(t.get(3), Some(&4));
    }

    #[test]
    fn get_or_insert_keeps_an_existing_value() {
        let mut t = OpenTable::<u64, u64>::new();
        *t.get_or_insert(9, 1) += 10;
        assert_eq!(*t.get_or_insert(9, 5), 11, "present: the stored value, not the default");
        assert_eq!(t.get(10), None);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
