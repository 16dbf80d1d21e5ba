//! Process-wide memo lists for artifacts that are a pure function of a
//! small key and cost more to build than a job can spare on its request
//! path: the MAC circuit of a configuration
//! (`AcceleratorConfig::shared_circuit`) and the fabric account of a
//! schedule (`FabricAccount::shared`).
//!
//! Peers choose some of the keys (an ACCEPT's widths, a job's round count),
//! so a list keeps its newest `cap` entries and evicts the oldest; at these
//! sizes a linear scan is the whole index.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded, insertion-ordered (oldest first) key → value list behind one
/// lock.
pub(crate) struct Memo<K, V> {
    entries: Mutex<VecDeque<(K, V)>>,
    cap: usize,
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    /// An empty list that keeps at most `cap` entries.
    pub(crate) const fn new(cap: usize) -> Self {
        Memo {
            entries: Mutex::new(VecDeque::new()),
            cap,
        }
    }

    /// The value kept under `key`, if any.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        find(&self.lock(), key)
    }

    /// The value kept under `key`, built by `build` on a miss. The build
    /// runs outside the lock; when two callers miss at once, the first
    /// insert wins and both get its value.
    pub(crate) fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let value = build();
        let mut entries = self.lock();
        if let Some(raced) = find(&entries, &key) {
            return raced;
        }
        entries.push_back((key, value.clone()));
        if entries.len() > self.cap {
            entries.pop_front();
        }
        value
    }

    /// Entries kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(K, V)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn find<K: PartialEq, V: Clone>(entries: &VecDeque<(K, V)>, key: &K) -> Option<V> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
}
