//! Content-addressed LRU cache of finished responses.
//!
//! Keys are FNV-1a fingerprints of `(circuit bytes, canonicalized
//! config, endpoint)`; values are complete `(status, body)` responses.
//! Because routing is deterministic (DESIGN.md §9) and response bodies
//! contain no wall-clock fields, serving the stored bytes is
//! **bit-identical** to re-running the job — the cache is a pure
//! speedup, never an observable behavior change. Only reproducible
//! results are inserted (`Server::reproducible`): clean ones, and
//! degraded ones from a run with no wall-clock budget, whose
//! degradations (a search-exhausted net, or an expansion cap spent in
//! the same order on every run) recur identically. A degraded body
//! from a run a wall-clock budget cut short reflects the host's speed,
//! not the request, so replaying it for a future identical request
//! would be wrong; so does a run the shutdown interrupt cut.

use crate::lock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// FNV-1a over a byte stream — the workspace's standard fingerprint
/// (same constants as `tests/determinism.rs`).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Extends an existing FNV-1a state with more bytes (used to chain the
/// circuit fingerprint with the canonical config fingerprint).
pub fn fnv1a_extend(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct Inner<V> {
    /// Value and the tick of its last use, per key.
    map: BTreeMap<u64, (V, u64)>,
    tick: u64,
}

/// A fixed-capacity, least-recently-used map, shared by the response
/// cache (encoded `(status, body)` pairs) and the prior-outcome cache of
/// `/route/delta`.
///
/// Eviction scans for the minimum last-use stamp — O(capacity) — which
/// is fine at service cache sizes (tens to a few thousand entries) and
/// keeps the structure an ordered map with deterministic iteration.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V: Clone> Lru<V> {
    /// Map holding at most `capacity` values. Capacity 0 disables it.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let (value, last_used) = inner.map.get_mut(&key)?;
        *last_used = tick;
        Some(value.clone())
    }

    /// Inserts `value`, evicting the least-recently-used entry when full.
    /// Overwrites an existing entry for the same key.
    pub(crate) fn put(&self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((&oldest, _)) = inner.map.iter().min_by_key(|(_, (_, used))| *used) {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key, (value, tick));
    }

    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        // Chaining equals hashing the concatenation.
        assert_eq!(fnv1a_extend(fnv1a(*b"ab"), *b"cd"), fnv1a(*b"abcd"));
    }

    #[test]
    fn hit_returns_stored_bytes() {
        let cache = Lru::new(4);
        assert!(cache.get(1).is_none());
        cache.put(1, (200, b"body".to_vec()));
        assert_eq!(cache.get(1), Some((200, b"body".to_vec())));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = Lru::new(2);
        cache.put(1, (200, b"one".to_vec()));
        cache.put(2, (200, b"two".to_vec()));
        cache.get(1); // refresh 1; 2 becomes the LRU entry
        cache.put(3, (200, b"three".to_vec()));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn overwrite_does_not_grow() {
        let cache = Lru::new(2);
        cache.put(1, (200, b"a".to_vec()));
        cache.put(1, (503, b"b".to_vec()));
        assert_eq!(cache.get(1), Some((503, b"b".to_vec())));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = Lru::new(0);
        cache.put(1, (200, b"a".to_vec()));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(1).is_none());
    }
}
