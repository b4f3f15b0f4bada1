//! The bounded map behind every keyed store that must not grow without
//! limit: the engine's warm result entries, its job traces, the
//! coordinator's stitch plans and the workflow journal.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map holding at most `cap` entries. Inserting a new key into a full
/// map evicts the oldest key first; replacing a key's value keeps its
/// place in line. Evictions are counted for export. The map is not
/// synchronised: shared stores keep it behind a `Mutex`.
#[derive(Debug)]
pub struct FifoMap<K, V> {
    cap: usize,
    order: VecDeque<K>,
    map: HashMap<K, V>,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> FifoMap<K, V> {
    /// An empty map holding at most `cap` entries (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        FifoMap {
            cap: cap.max(1),
            order: VecDeque::new(),
            map: HashMap::new(),
            evictions: 0,
        }
    }

    /// The value stored under `key`, if still held.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key)
    }

    /// Stores `value` under `key`, evicting the oldest key when a new key
    /// would take the map past its capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        if self.map.len() == self.cap {
            let oldest = self
                .order
                .pop_front()
                .expect("a full map has an oldest key");
            self.map.remove(&oldest);
            self.evictions += 1;
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The most entries the map holds.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Keys evicted so far to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn evicts_oldest_key_and_counts_it() {
        let mut m = FifoMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        // Replacing keeps the key's place: `a` is still the oldest.
        m.insert("a", 10);
        assert_eq!((m.len(), m.evictions()), (2, 0));
        m.insert("c", 3);
        assert_eq!(m.get("a"), None, "oldest evicted");
        assert_eq!((m.get("b"), m.get("c")), (Some(&2), Some(&3)));
        assert_eq!((m.len(), m.evictions()), (2, 1));
        assert_eq!(FifoMap::<u8, u8>::new(0).cap(), 1, "capacity clamped");
    }

    /// Bounded eviction holds under concurrent writers: with many threads
    /// hammering inserts (fresh keys and re-inserts), the map never
    /// exceeds its capacity and its order stays in step with its entries.
    #[test]
    fn bounded_eviction_under_concurrent_writers() {
        const CAP: usize = 16;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let store = Mutex::new(FifoMap::new(CAP));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let store = &store;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // A mix of unique keys and cross-thread re-inserts
                        // (every thread rewrites the shared `hot` key).
                        let key = if i % 5 == 0 {
                            "hot".to_owned()
                        } else {
                            format!("k{t}-{i}")
                        };
                        let mut m = store.lock().unwrap();
                        m.insert(key, format!("req-{t}-{i}"));
                        assert!(
                            m.len() <= CAP,
                            "store grew past capacity mid-insert: {}",
                            m.len()
                        );
                    }
                });
            }
        });
        let m = store.into_inner().unwrap();
        assert_eq!(m.len(), CAP, "store ends exactly full");
        assert_eq!(m.order.len(), m.map.len(), "order tracks map");
        for key in &m.order {
            assert!(m.get(key).is_some(), "{key} in order but not map");
        }
    }
}
