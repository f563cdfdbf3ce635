//! A key-sorted vector map for the ordered indexes on the fault path.
//!
//! [`SortedMap`] is the one ordered map the cycle-level crates share: the
//! page table's regions and L3 nodes, the page sets' bitmaps and CoCoA's
//! chunk bindings. Entries sit in one `Vec<(K, V)>` sorted by key, so
//! iteration runs in key order and a lookup is a binary search behind a
//! one-entry hint: the index of the entry the last `&mut` lookup or
//! insert used. Faults and map/unmap runs sweep one 2 MB region at a
//! time, so most lookups hit it. Every lookup checks the hinted key
//! first, so a hint that an insert or removal made stale costs only the
//! search; `&self` lookups never move it.

use std::convert::Infallible;

/// A map from `K` to `V` kept as a key-sorted vector behind a one-entry
/// hint (see the module docs). A new map allocates nothing.
#[derive(Debug, Clone)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
    /// Index of the entry the last `&mut` lookup or insert used.
    hint: usize,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap { entries: Vec::new(), hint: 0 }
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// Position of `key`, or where it would be inserted: the hint when
    /// it holds `key`, a binary search otherwise.
    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        match self.entries.get(self.hint) {
            Some((k, _)) if *k == key => Ok(self.hint),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(&key)),
        }
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored under `key`, if any, for writing; the hint moves
    /// to it.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        self.hint = i;
        Some(&mut self.entries[i].1)
    }

    /// The value stored under `key`, inserting `value()` first when the
    /// key is absent; the hint moves to it.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, value: impl FnOnce() -> V) -> &mut V {
        let Ok(v) = self.get_or_try_insert_with(key, || Ok::<V, Infallible>(value()));
        v
    }

    /// As [`SortedMap::get_or_insert_with`], but `value()` may fail: its
    /// error is returned and nothing is inserted.
    ///
    /// # Errors
    ///
    /// The error of `value()`, which runs only when `key` is absent.
    #[inline]
    pub fn get_or_try_insert_with<E>(
        &mut self,
        key: K,
        value: impl FnOnce() -> Result<V, E>,
    ) -> Result<&mut V, E> {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, value()?));
                i
            }
        };
        self.hint = i;
        Ok(&mut self.entries[i].1)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Every entry, in ascending key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.entries.iter()
    }

    /// Whether the keys strictly ascend: the order every lookup relies
    /// on, exposed for the runtime audits.
    pub fn is_sorted(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].0 < w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    /// Asserts that `map` holds exactly `model`'s entries, in key order,
    /// and that every key in `0..keys` looks up the same through `get`.
    fn assert_same(map: &SortedMap<u64, u64>, model: &BTreeMap<u64, u64>, keys: u64, step: usize) {
        let entries: Vec<(u64, u64)> = map.iter().copied().collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(entries, expected, "step {step}: entries or key order");
        assert_eq!(map.iter().len(), model.len(), "step {step}: len");
        assert!(map.is_sorted(), "step {step}: sorted");
        for k in 0..keys {
            assert_eq!(map.get(k), model.get(&k), "step {step}: get({k})");
        }
    }

    /// Seeded churn against a `BTreeMap` reference: every answer of
    /// `get`, `get_mut`, `get_or_insert_with`, both outcomes of the
    /// fallible insert and `remove`, the length and the key order agree
    /// after every step. Keys are drawn mostly near the last one used, so
    /// the hint is hit, moved and made stale by inserts and removals on
    /// either side of it.
    #[test]
    fn matches_btreemap_reference() {
        const KEYS: u64 = 96;
        let mut rng = SimRng::from_seed(0x5027_ED3A);
        let mut map = SortedMap::<u64, u64>::default();
        let mut model = BTreeMap::new();
        let mut last = 0u64;
        for step in 0..20_000 {
            let key =
                if rng.below(3) == 0 { rng.below(KEYS) } else { (last + rng.below(5)) % KEYS };
            last = key;
            let value = step as u64;
            match rng.below(6) {
                0 => assert_eq!(map.get(key), model.get(&key), "step {step}: get"),
                1 => {
                    let got = map.get_mut(key).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want, "step {step}: get_mut");
                }
                2 => {
                    let got = *map.get_or_insert_with(key, || value);
                    assert_eq!(got, *model.entry(key).or_insert(value), "step {step}: insert");
                }
                3 => {
                    // Fails on odd steps: an absent key must stay absent.
                    let got = map
                        .get_or_try_insert_with(key, || {
                            if step % 2 == 0 {
                                Ok(value)
                            } else {
                                Err(step)
                            }
                        })
                        .map(|v| *v);
                    let want = match model.get(&key) {
                        Some(&v) => Ok(v),
                        None if step % 2 == 0 => Ok(*model.entry(key).or_insert(value)),
                        None => Err(step),
                    };
                    assert_eq!(got, want, "step {step}: try insert");
                }
                _ => assert_eq!(map.remove(key), model.remove(&key), "step {step}: remove"),
            }
            assert_same(&map, &model, KEYS, step);
        }
        assert!(model.len() > 10, "the churn keeps a populated map");
    }

    /// The stale-hint cases one by one: an insert below the hinted entry
    /// shifts it up, a removal at the hint or below it shifts or drops
    /// it, and a failed insert moves nothing.
    #[test]
    fn stale_hints_fall_back_to_the_search() {
        let mut map = SortedMap::<u64, u64>::default();
        let mut model = BTreeMap::new();
        let mut step = 0;
        let mut check = |map: &SortedMap<u64, u64>, model: &BTreeMap<u64, u64>| {
            step += 1;
            assert_same(map, model, 50, step);
        };
        for k in [10, 20, 30, 40, 50] {
            map.get_or_insert_with(k, || k + 1);
            model.insert(k, k + 1);
        }
        // Hint on 30; an insert below it probes past the hinted entry.
        *map.get_mut(30).expect("present") += 100;
        *model.get_mut(&30).expect("present") += 100;
        map.get_or_insert_with(5, || 6);
        model.insert(5, 6);
        check(&map, &model);
        // Hint on 20; removing it leaves the hint on its successor.
        map.get_mut(20);
        assert_eq!(map.remove(20), Some(21));
        model.remove(&20);
        check(&map, &model);
        // Hint on 40; removing an entry before it shifts 50 under the hint.
        map.get_mut(40);
        assert_eq!(map.remove(10), Some(11));
        model.remove(&10);
        check(&map, &model);
        // A failed insert leaves the map alone; a present key ignores it.
        assert_eq!(map.get_or_try_insert_with(35, || Err::<u64, _>("full")), Err("full"));
        assert_eq!(map.get_or_try_insert_with(40, || Err::<u64, _>("full")).copied(), Ok(41));
        check(&map, &model);
        // Removing the hinted last entry leaves the hint past the end.
        map.get_mut(50);
        assert_eq!(map.remove(50), Some(51));
        model.remove(&50);
        check(&map, &model);
        assert_eq!(map.remove(50), None);
    }

    #[test]
    fn a_new_map_allocates_nothing() {
        let map = SortedMap::<u64, u64>::default();
        assert_eq!(map.entries.capacity(), 0);
        assert_eq!((map.get(0), map.iter().len(), map.is_sorted()), (None, 0, true));
    }
}
