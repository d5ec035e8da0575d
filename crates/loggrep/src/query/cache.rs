//! The Query Cache (§3): a map from query command to its location result,
//! so repeated queries — common in the *refining mode* where an engineer
//! builds a command up gradually — skip the matching phase entirely.
//!
//! Line queries and aggregate queries share the cache (and its LRU bound)
//! but live in **disjoint key spaces**: a cached line result can never be
//! returned for an aggregate over the same filter, or vice versa, no
//! matter how the raw key strings collide.
//!
//! The cache is **bounded**: once it holds [`CAPACITY`] entries, storing a
//! new result evicts the least-recently-used one (refining sessions touch a
//! handful of commands; an unbounded map would grow with every distinct
//! query ever run against a long-lived archive). Evictions are counted
//! locally and on the `query.cache.evictions` telemetry counter.

use crate::query::agg::AggResult;
use crate::rowset::RowSet;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Entries one archive's cache holds before it evicts.
const CAPACITY: usize = 256;

/// The `query.cache.entries` gauge: live entries summed across every
/// cache in the process (each cache adds on insert and subtracts on
/// evict/clear/drop).
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
    /// The filter's matching rows, one set per group in group order.
    Lines(Vec<RowSet>),
    Agg(AggResult),
}

#[derive(Debug)]
struct Entry {
    value: Cached,
    /// Logical timestamp of the last get/put touching this entry.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// Monotonic logical clock driving LRU order.
    tick: u64,
    evictions: u64,
}

/// A thread-safe, LRU-bounded query-result cache keyed by the raw query
/// text.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// Looks up a prior line query's matching rows (cloned).
    pub(crate) fn get(&self, query: &str) -> Option<Vec<RowSet>> {
        match self.get_value(&Key::Lines(query.to_string()))? {
            Cached::Lines(rows) => Some(rows),
            // Unreachable: a `Key::Lines` entry always stores
            // `Cached::Lines`. Fail as a miss rather than panic.
            Cached::Agg(_) => None,
        }
    }

    /// Stores a line query's matching rows, evicting the
    /// least-recently-used entry if full.
    pub(crate) fn put(&self, query: &str, rows: Vec<RowSet>) {
        self.put_value(Key::Lines(query.to_string()), Cached::Lines(rows));
    }

    /// Looks up a prior aggregate result.
    pub(crate) fn get_agg(&self, key: &str) -> Option<AggResult> {
        match self.get_value(&Key::Agg(key.to_string()))? {
            Cached::Agg(agg) => Some(agg),
            // Unreachable: see [`QueryCache::get`].
            Cached::Lines(_) => None,
        }
    }

    /// Stores an aggregate result, evicting the least-recently-used entry
    /// if full.
    pub(crate) fn put_agg(&self, key: &str, agg: AggResult) {
        self.put_value(Key::Agg(key.to_string()), Cached::Agg(agg));
    }

    fn get_value(&self, key: &Key) -> Option<Cached> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
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
        if inner.map.len() >= CAPACITY {
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

    /// Number of entries evicted by the LRU bound so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Current number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Drops all entries and the eviction count.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock();
        entries_gauge().add(-(inner.map.len() as i64));
        inner.map.clear();
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

/// Removes the least-recently-used entry. O(entries), which is fine at the
/// small cap this cache runs with.
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

    fn rows(v: &[u32]) -> Vec<RowSet> {
        vec![RowSet::from_sorted(v.to_vec())]
    }

    /// A cache filled to the cap with `q0`, `q1`, …, stored in that order.
    fn full() -> QueryCache {
        let c = QueryCache::default();
        for i in 0..CAPACITY as u32 {
            c.put(&format!("q{i}"), rows(&[i]));
        }
        c
    }

    #[test]
    fn hit_and_miss() {
        let c = QueryCache::default();
        assert_eq!(c.get("q"), None);
        c.put("q", rows(&[1, 2, 3]));
        assert_eq!(c.get("q"), Some(rows(&[1, 2, 3])));
        c.clear();
        assert_eq!(c.get("q"), None);
    }

    #[test]
    fn lru_eviction_fires_at_the_cap() {
        let c = full();
        assert_eq!(c.evictions(), 0);
        // Touch "q0" so "q1" becomes the LRU victim.
        assert_eq!(c.get("q0"), Some(rows(&[0])));
        c.put("new", rows(&[9]));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), CAPACITY);
        assert_eq!(c.get("q1"), None, "LRU entry evicted");
        assert_eq!(c.get("q0"), Some(rows(&[0])));
        assert_eq!(c.get("new"), Some(rows(&[9])));
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let c = full();
        c.put("q0", rows(&[9]));
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get("q0"), Some(rows(&[9])));
        assert_eq!(c.get("q1"), Some(rows(&[1])));
    }

    #[test]
    fn line_and_agg_key_spaces_never_cross() {
        let c = QueryCache::default();
        c.put("k", rows(&[1, 2]));
        assert_eq!(c.get_agg("k"), None, "line entry must not answer an aggregate");
        c.put_agg("k", AggResult::Count(7));
        assert_eq!(c.get("k"), Some(rows(&[1, 2])));
        assert_eq!(c.get_agg("k"), Some(AggResult::Count(7)));
        assert_eq!(c.len(), 2, "same string, two distinct entries");
    }
}
