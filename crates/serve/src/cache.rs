//! The scenario cache: an LRU over canonical request bodies.
//!
//! Every cacheable endpoint computes a pure function of its request body
//! ([`RequestKind::cacheable`](crate::wire::RequestKind::cacheable)), so
//! the server memoizes outcomes keyed by the body's *canonical JSON* —
//! the exact string `serde_json::to_string` produces, whose field order
//! is fixed by the struct definitions. The map is keyed by the pinned
//! 64-bit [`StableHasher`] digest of that string for cheap lookup, but
//! every hit re-compares the stored canonical string, so a (≈2⁻⁶⁴) hash
//! collision degrades to a miss instead of serving the wrong scenario's
//! outcome.
//!
//! The server probes with the request body's bytes as the client sent
//! them, before decoding anything
//! ([`RequestLine`](crate::wire::RequestLine)): clients encode with
//! `serde_json::to_string`, so those bytes are the canonical string. Only
//! a miss decodes the body, re-encodes it canonically and probes again if
//! the two differ. A raw-bytes hit is still exact: it needs byte equality
//! with a stored key, every key is `to_string(k)` for a decoded `k`, and
//! the canonical form is a fixed point of decode then encode, so the
//! bytes decode to exactly the `k` whose outcome is stored.
//!
//! Eviction is least-recently-used under a logical clock bumped on every
//! access. The victim scan is linear in the entry count; capacities here
//! are hundreds of entries guarding seconds-long computations, so the
//! scan is noise.

use crate::wire::{EncodedResult, ResponseKind};
use ktudc_model::hashing::StableHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

struct Entry {
    /// Full canonical body, kept to guard against digest collisions.
    canon: String,
    /// The outcome next to its wire encoding, so a hit costs a reference
    /// count and a copy of bytes, not a clone and a re-encode.
    value: Arc<EncodedResult>,
    last_used: u64,
}

/// A bounded least-recently-used outcome cache.
pub struct LruCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, Entry>,
}

impl LruCache {
    /// A cache holding at most `capacity` outcomes. Capacity 0 disables
    /// caching (every lookup misses, every insert is dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// The pinned digest of a canonical body.
    #[must_use]
    pub fn key_of(canon: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write(canon.as_bytes());
        h.finish()
    }

    /// Looks up the outcome of a canonical body, refreshing its recency.
    pub fn get(&mut self, canon: &str) -> Option<Arc<EncodedResult>> {
        self.clock += 1;
        let entry = self.entries.get_mut(&Self::key_of(canon))?;
        if entry.canon != canon {
            // Digest collision: miss, and keep the incumbent.
            return None;
        }
        entry.last_used = self.clock;
        Some(Arc::clone(&entry.value))
    }

    /// Stores an outcome, evicting the least-recently-used entry at
    /// capacity. A digest collision overwrites the incumbent (one of the
    /// two scenarios stays uncached; correctness is preserved by the
    /// canonical-string check in [`LruCache::get`]). Returns the outcome
    /// with the encoding made for the entry, for the caller to answer
    /// from.
    pub fn insert(&mut self, canon: String, value: ResponseKind) -> Arc<EncodedResult> {
        let value = Arc::new(EncodedResult::new(value));
        if self.capacity == 0 {
            return value;
        }
        self.clock += 1;
        let key = Self::key_of(&canon);
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            Entry {
                canon,
                value: Arc::clone(&value),
                last_used: self.clock,
            },
        );
        value
    }

    /// Exports every cached outcome, least-recently-used first, so that
    /// replaying the list through [`LruCache::warm_load`] reproduces both
    /// the contents and the eviction order. This is the snapshot payload
    /// of a durable server.
    #[must_use]
    pub fn export(&self) -> Vec<(String, ResponseKind)> {
        let mut entries: Vec<(&Entry, u64)> =
            self.entries.values().map(|e| (e, e.last_used)).collect();
        entries.sort_by_key(|&(_, last_used)| last_used);
        entries
            .into_iter()
            .map(|(e, _)| (e.canon.clone(), e.value.kind().clone()))
            .collect()
    }

    /// Replays an exported entry list into this cache (oldest first, so
    /// recency — and therefore future eviction order — is preserved).
    /// Entries beyond capacity evict exactly as live inserts would.
    pub fn warm_load(&mut self, entries: Vec<(String, ResponseKind)>) {
        for (canon, value) in entries {
            self.insert(canon, value);
        }
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached payload under `canon`, without its encoding.
    fn get(cache: &mut LruCache, canon: &str) -> Option<ResponseKind> {
        cache.get(canon).map(|hit| hit.kind().clone())
    }

    fn outcome(tag: u64) -> ResponseKind {
        ResponseKind::Explore(ktudc_sim::ExploreOutcome {
            runs: tag as usize,
            complete: true,
            events: tag,
            digest: tag,
        })
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut cache = LruCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a".to_string(), outcome(1));
        assert_eq!(get(&mut cache, "a"), Some(outcome(1)));
        assert!(cache.get("b").is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a".to_string(), outcome(1));
        cache.insert("b".to_string(), outcome(2));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("c".to_string(), outcome(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a".to_string(), outcome(1));
        cache.insert("b".to_string(), outcome(2));
        cache.insert("a".to_string(), outcome(9));
        assert_eq!(cache.len(), 2);
        assert_eq!(get(&mut cache, "a"), Some(outcome(9)));
        assert_eq!(get(&mut cache, "b"), Some(outcome(2)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert("a".to_string(), outcome(1));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn export_then_warm_load_round_trips_contents_and_recency() {
        let mut cache = LruCache::new(3);
        cache.insert("a".to_string(), outcome(1));
        cache.insert("b".to_string(), outcome(2));
        cache.insert("c".to_string(), outcome(3));
        // Touch "a": it becomes the most recent, "b" the LRU victim.
        assert!(cache.get("a").is_some());

        let exported = cache.export();
        assert_eq!(exported.len(), 3);

        let mut revived = LruCache::new(3);
        revived.warm_load(exported);
        assert_eq!(get(&mut revived, "a"), Some(outcome(1)));
        assert_eq!(get(&mut revived, "b"), Some(outcome(2)));
        assert_eq!(get(&mut revived, "c"), Some(outcome(3)));

        // Recency survived the round trip: inserting a fourth entry must
        // evict "b" (the pre-export LRU victim), not "a".
        let mut revived = LruCache::new(3);
        revived.warm_load(cache.export());
        revived.insert("d".to_string(), outcome(4));
        assert!(revived.get("a").is_some());
        assert!(revived.get("b").is_none());
        assert!(revived.get("c").is_some());
        assert!(revived.get("d").is_some());
    }

    #[test]
    fn warm_load_respects_capacity() {
        let mut big = LruCache::new(8);
        for i in 0..8 {
            big.insert(format!("k{i}"), outcome(i));
        }
        let mut small = LruCache::new(3);
        small.warm_load(big.export());
        assert_eq!(small.len(), 3);
        // The newest three survive, exactly as live inserts would leave it.
        assert!(small.get("k7").is_some());
        assert!(small.get("k5").is_some());
        assert!(small.get("k0").is_none());
    }

    #[test]
    fn digest_is_stable_across_calls() {
        assert_eq!(LruCache::key_of("scenario"), LruCache::key_of("scenario"));
        assert_ne!(LruCache::key_of("scenario"), LruCache::key_of("scenari0"));
    }
}
