//! A bounded, std-only worker pool for data-parallel stages.
//!
//! The pool runs a fixed number of scoped worker threads over a slice of
//! items and collects the results **in submission order**, so a parallel
//! stage is observationally identical to its serial counterpart — the
//! property the compression pipeline relies on for byte-identical archives
//! and reproducible statistics.
//!
//! Design points:
//!
//! * **Scoped**: workers borrow the caller's data (`std::thread::scope`), so
//!   no `'static` bounds or reference counting are needed at call sites.
//! * **Bounded**: at most [`Pool::threads`] workers exist at a time; the
//!   size comes from `LOGGREP_THREADS` or `available_parallelism` when the
//!   pool is built with `Pool::new(0)`.
//! * **Chunked work claiming**: workers grab contiguous chunks of the input
//!   off a shared atomic cursor, amortizing synchronization while keeping
//!   the tail balanced.
//! * **Panic propagation**: a panicking worker re-raises its payload on the
//!   calling thread after all workers have stopped, like a plain `for` loop
//!   would.
//! * **Serial fast path**: a one-thread pool (or a one-item input) runs
//!   inline on the caller with zero spawns, so `threads == 1` is *exactly*
//!   the serial pipeline, not an emulation of it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The `pool.queue_depth` gauge: items not yet claimed off the work
/// cursor. Observable via `--trace`, which prints it in the trace footer.
fn queue_depth_gauge() -> &'static telemetry::Gauge {
    static G: OnceLock<&'static telemetry::Gauge> = OnceLock::new();
    G.get_or_init(|| telemetry::gauge("pool.queue_depth"))
}

/// The `pool.workers_active` gauge: workers currently inside a `map` call.
fn workers_active_gauge() -> &'static telemetry::Gauge {
    static G: OnceLock<&'static telemetry::Gauge> = OnceLock::new();
    G.get_or_init(|| telemetry::gauge("pool.workers_active"))
}

/// The environment variable that overrides the default pool size.
pub const THREADS_ENV: &str = "LOGGREP_THREADS";

/// The default worker count: `LOGGREP_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if even
/// that is unavailable).
///
/// The parallelism probe is cached: on virtualized kernels it can take
/// **milliseconds** (procfs-backed syscalls), too much to pay on every
/// `Pool::new(0)`. The env var is still
/// read on every call (sub-µs) so tests can vary it at runtime.
pub fn default_threads() -> usize {
    match std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => host_parallelism(),
    }
}

/// Cached [`std::thread::available_parallelism`].
fn host_parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A bounded scoped worker pool.
///
/// The pool itself holds no threads — workers are spawned per call and
/// joined before the call returns — so a `Pool` is a cheap, copyable
/// description of the parallelism budget.
///
/// # Examples
///
/// ```
/// let pool = pool::Pool::new(4);
/// let squares = pool.map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` workers; `0` means [`default_threads`].
    pub fn new(threads: usize) -> Self {
        Self {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }

    /// A single-worker pool: every call runs inline on the caller.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// `f` receives `(index, &item)`. Items are processed concurrently in
    /// contiguous chunks; the output vector is deterministic regardless of
    /// scheduling. If any worker panics, the first payload (by join order)
    /// is re-raised here.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.threads.min(n);
        // A few chunks per worker: large enough to amortize the cursor,
        // small enough that one slow chunk cannot strand the tail.
        let chunk = (n / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

        let mut panics = Vec::new();
        queue_depth_gauge().set(n as i64);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // Guard so the gauge drops back even if `f` panics.
                        struct ActiveGuard;
                        impl Drop for ActiveGuard {
                            fn drop(&mut self) {
                                workers_active_gauge().add(-1);
                            }
                        }
                        workers_active_gauge().add(1);
                        let _active = ActiveGuard;
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            // Unclaimed tail after this grab; racy across
                            // workers but monotone enough for a live gauge.
                            queue_depth_gauge().set(n.saturating_sub(end) as i64);
                            for (i, item) in items[start..end].iter().enumerate() {
                                local.push((start + i, f(start + i, item)));
                            }
                        }
                        let mut shared = results.lock().unwrap_or_else(|e| e.into_inner());
                        shared.append(&mut local);
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    panics.push(payload);
                }
            }
        });
        queue_depth_gauge().set(0);
        if let Some(payload) = panics.into_iter().next() {
            resume_unwind(payload);
        }

        let mut pairs = results.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(pairs.len(), n);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`Pool::map`] for fallible stages: runs everything, then
    /// returns the first error **in submission order** (not completion
    /// order), so error reporting is deterministic too.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let pool = Pool::new(8);
        let out = pool.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &r)| r == i * 3));
    }

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let items: Vec<u32> = (0..1023).map(|i| i * 7 % 513).collect();
        let serial = Pool::serial().map(&items, |_, &x| x as u64 + 1);
        for threads in [2, 3, 4, 16] {
            let par = Pool::new(threads).map(&items, |_, &x| x as u64 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn workers_are_bounded() {
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..256).collect();
        Pool::new(3).map(&items, |_, _| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(50));
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |_, &x| {
                if x == 13 {
                    panic!("unlucky");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_map_returns_first_error_by_index() {
        let items: Vec<usize> = (0..200).collect();
        let out: Result<Vec<usize>, String> = Pool::new(4).try_map(&items, |_, &x| {
            if x % 90 == 17 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(out.unwrap_err(), "bad 17");
        let ok: Result<Vec<usize>, String> = Pool::new(4).try_map(&items, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[] as &[u8], |_, &b| b), Vec::<u8>::new());
        assert_eq!(pool.map(&[9u8], |i, &b| (i, b)), vec![(0, 9)]);
    }

    #[test]
    fn gauges_visible_from_workers() {
        // Other tests drive pools concurrently, so only in-worker
        // observations are deterministic: while a worker runs, it is
        // itself counted active, and the queue gauge is a valid depth.
        let items: Vec<usize> = (0..256).collect();
        Pool::new(4).map(&items, |_, &x| {
            let active = telemetry::gauge("pool.workers_active").get();
            assert!(active >= 1, "worker not counted active: {active}");
            let depth = telemetry::gauge("pool.queue_depth").get();
            assert!(depth >= 0, "negative queue depth: {depth}");
            x
        });
    }

    #[test]
    fn zero_means_default_size() {
        assert_eq!(Pool::new(0).threads(), default_threads());
        assert!(default_threads() >= 1);
        assert_eq!(Pool::serial().threads(), 1);
    }
}
