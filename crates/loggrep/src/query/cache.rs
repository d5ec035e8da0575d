//! The Query Cache (§3): a map from query command to its location result,
//! so repeated queries — common in the *refining mode* where an engineer
//! builds a command up gradually — skip the matching phase entirely.
//!
//! Line queries and aggregate queries share the cache (and its LRU bound)
//! but live in **disjoint key spaces**: a cached line result can never be
//! returned for an aggregate over the same filter, or vice versa, no
//! matter how the raw key strings collide.
//!
//! The cache is **bounded**: once it holds `capacity` entries, storing a
//! new result evicts the least-recently-used one (refining sessions touch a
//! handful of commands; an unbounded map would grow with every distinct
//! query ever run against a long-lived archive). Evictions are counted
//! locally and on the `query.cache.evictions` telemetry counter.

use crate::query::agg::AggResult;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Default entry cap (see [`crate::Archive::set_query_cache_entries`]).
pub const DEFAULT_CAPACITY: usize = 256;

/// The `query.cache.entries` gauge: live entries summed across every
/// cache in the process (each cache adds on insert and subtracts on
/// evict/clear/drop), so `/metrics` shows total resident results.
fn entries_gauge() -> &'static telemetry::Gauge {
    static G: std::sync::OnceLock<&'static telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| telemetry::gauge("query.cache.entries"))
}

/// A typed cache key: the enum discriminant separates the line-query and
/// aggregate key spaces structurally, so no string convention can make
/// them collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A line query, keyed by its raw command text.
    Lines(String),
    /// An aggregate query, keyed by `offset|spec|filter` (see
    /// `agg_cache_key`).
    Agg(String),
}

/// A cached result, matching its [`Key`]'s variant.
#[derive(Debug, Clone)]
enum Cached {
    Lines(Vec<u32>),
    Agg(AggResult),
}

#[derive(Debug)]
struct Entry {
    value: Cached,
    /// Logical timestamp of the last get/put touching this entry.
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// Monotonic logical clock driving LRU order.
    tick: u64,
    /// Maximum entries before eviction; 0 = unbounded.
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe, LRU-bounded query-result cache keyed by the raw query
/// text.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl QueryCache {
    /// Creates an empty cache with the default entry cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` entries
    /// (`0` = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Changes the entry cap, evicting LRU entries if now over it.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity;
        while over_capacity(&inner) {
            evict_lru(&mut inner);
        }
    }

    /// Looks up a prior line-query result (cloned line-number list).
    pub fn get(&self, query: &str) -> Option<Vec<u32>> {
        match self.get_value(&Key::Lines(query.to_string()))? {
            Cached::Lines(lines) => Some(lines),
            // Unreachable: a `Key::Lines` entry always stores
            // `Cached::Lines`. Fail as a miss rather than panic.
            Cached::Agg(_) => None,
        }
    }

    /// Stores a line-query result, evicting the least-recently-used entry
    /// if full.
    pub fn put(&self, query: &str, lines: Vec<u32>) {
        self.put_value(Key::Lines(query.to_string()), Cached::Lines(lines));
    }

    /// Looks up a prior aggregate result.
    pub fn get_agg(&self, key: &str) -> Option<AggResult> {
        match self.get_value(&Key::Agg(key.to_string()))? {
            Cached::Agg(agg) => Some(agg),
            // Unreachable: see [`QueryCache::get`].
            Cached::Lines(_) => None,
        }
    }

    /// Stores an aggregate result, evicting the least-recently-used entry
    /// if full.
    pub fn put_agg(&self, key: &str, agg: AggResult) {
        self.put_value(Key::Agg(key.to_string()), Cached::Agg(agg));
    }

    fn get_value(&self, key: &Key) -> Option<Cached> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn put_value(&self, key: Key, value: Cached) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if inner.capacity > 0 && inner.map.len() >= inner.capacity {
            evict_lru(&mut inner);
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        entries_gauge().add(1);
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Number of entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and counters (the capacity is kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        entries_gauge().add(-(inner.map.len() as i64));
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

impl Drop for QueryCache {
    fn drop(&mut self) {
        // Keep the process-wide entries gauge balanced when an archive
        // (and its cache) goes away.
        let inner = self.inner.lock();
        entries_gauge().add(-(inner.map.len() as i64));
    }
}

fn over_capacity(inner: &Inner) -> bool {
    inner.capacity > 0 && inner.map.len() > inner.capacity
}

/// Removes the least-recently-used entry. O(entries), which is fine at the
/// small caps this cache runs with.
fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .map
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| k.clone());
    if let Some(victim) = victim {
        inner.map.remove(&victim);
        inner.evictions += 1;
        entries_gauge().add(-1);
        telemetry::counter!("query.cache.evictions", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let c = QueryCache::new();
        assert_eq!(c.get("q"), None);
        c.put("q", vec![1, 2, 3]);
        assert_eq!(c.get("q"), Some(vec![1, 2, 3]));
        assert_eq!(c.counters(), (1, 1));
        c.clear();
        assert_eq!(c.get("q"), None);
    }

    #[test]
    fn lru_eviction_fires_at_the_cap() {
        let c = QueryCache::with_capacity(2);
        c.put("a", vec![1]);
        c.put("b", vec![2]);
        assert_eq!(c.evictions(), 0);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(c.get("a"), Some(vec![1]));
        c.put("c", vec![3]);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b"), None, "LRU entry evicted");
        assert_eq!(c.get("a"), Some(vec![1]));
        assert_eq!(c.get("c"), Some(vec![3]));
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let c = QueryCache::with_capacity(2);
        c.put("a", vec![1]);
        c.put("b", vec![2]);
        c.put("a", vec![9]);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get("a"), Some(vec![9]));
        assert_eq!(c.get("b"), Some(vec![2]));
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let c = QueryCache::with_capacity(8);
        for i in 0..8 {
            c.put(&format!("q{i}"), vec![i]);
        }
        c.set_capacity(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 5);
        // The three most recently stored survive.
        for i in 5..8 {
            assert_eq!(c.get(&format!("q{i}")), Some(vec![i]), "q{i}");
        }
    }

    #[test]
    fn line_and_agg_key_spaces_never_cross() {
        let c = QueryCache::new();
        c.put("k", vec![1, 2]);
        assert_eq!(c.get_agg("k"), None, "line entry must not answer an aggregate");
        c.put_agg("k", AggResult::Count(7));
        assert_eq!(c.get("k"), Some(vec![1, 2]));
        assert_eq!(c.get_agg("k"), Some(AggResult::Count(7)));
        assert_eq!(c.len(), 2, "same string, two distinct entries");
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = QueryCache::with_capacity(0);
        for i in 0..1000u32 {
            c.put(&format!("q{i}"), vec![i]);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
    }
}
