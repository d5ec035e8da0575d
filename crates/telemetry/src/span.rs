//! RAII span timers with a per-thread span stack.
//!
//! A [`Span`] measures the wall time between its creation and drop and
//! records it (in nanoseconds) into a histogram named by the full path of
//! nested spans on the current thread — `span("query")` followed by
//! `span("plan")` records under `"query"` and `"query/plan"`. The path
//! reflects *this thread's* nesting only; each thread keeps its own stack,
//! so concurrent pipelines aggregate into the same histograms without
//! interleaving their paths.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An active span; records its elapsed time on drop.
///
/// Inert (no clock read, no stack push) when telemetry is disabled at
/// creation time.
#[derive(Debug)]
pub struct Span {
    /// `None` for inert spans created while telemetry was disabled.
    armed: Option<ArmedSpan>,
}

#[derive(Debug)]
struct ArmedSpan {
    start: Instant,
    path: String,
}

/// Starts a span named `name`, nested under any spans already active on
/// this thread. Hold the returned guard for the duration of the stage:
///
/// ```
/// telemetry::set_enabled(true);
/// let _stage = telemetry::span("compress");
/// // ... work; time lands in the "compress" histogram on drop.
/// # telemetry::set_enabled(false);
/// ```
pub fn span(name: &str) -> Span {
    if !crate::enabled() {
        return Span { armed: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    crate::journal::record_span_begin(&path);
    Span {
        armed: Some(ArmedSpan {
            start: Instant::now(),
            path,
        }),
    }
}

/// The current thread's active span path (e.g. `"query/plan"`), if any.
pub fn span_path() -> Option<String> {
    SPAN_STACK.with(|stack| stack.borrow().last().cloned())
}

/// A context frame: re-roots this thread's span stack at an **absolute**
/// path without recording anything on drop.
///
/// Worker threads use this to attribute their spans under the pipeline
/// stage that fanned them out — a worker that opens
/// `context("compress")` and then `span("encode")` records under
/// `"compress/encode"`, exactly like the serial pipeline, even though the
/// `compress` span itself lives on the spawning thread. Each worker's
/// stack is thread-local, so concurrent workers never interleave paths.
#[derive(Debug)]
pub struct Context {
    /// `None` for inert contexts created while telemetry was disabled.
    armed: Option<String>,
}

/// Pushes an absolute `path` as the current thread's span root; the frame
/// pops when the guard drops. No histogram is recorded — this only shapes
/// the paths of spans opened underneath it.
pub fn context(path: &str) -> Context {
    if !crate::enabled() {
        return Context { armed: None };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(path.to_string()));
    Context {
        armed: Some(path.to_string()),
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        let Some(path) = self.armed.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|p| *p == path) {
                stack.remove(pos);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let ns = armed.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        crate::histogram(&armed.path).record(ns);
        crate::journal::record_span_end(&armed.path, ns);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own frame; tolerate out-of-order drops (e.g. a span
            // guard outliving a later sibling) by removing the matching
            // entry rather than blindly popping.
            if let Some(pos) = stack.iter().rposition(|p| *p == armed.path) {
                stack.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        {
            let _a = span("span.test.outer");
            assert_eq!(span_path().as_deref(), Some("span.test.outer"));
            {
                let _b = span("inner");
                assert_eq!(span_path().as_deref(), Some("span.test.outer/inner"));
            }
            assert_eq!(span_path().as_deref(), Some("span.test.outer"));
        }
        assert_eq!(span_path(), None);
        let snap = crate::snapshot();
        assert_eq!(snap.histogram("span.test.outer").unwrap().count, 1);
        assert_eq!(snap.histogram("span.test.outer/inner").unwrap().count, 1);
        crate::set_enabled(false);
    }

    #[test]
    fn concurrent_nesting_stays_per_thread() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let _outer = span("span.test.mt");
                        let _inner = span("leaf");
                    }
                    assert_eq!(span_path(), None);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        crate::set_enabled(false);
        let snap = crate::snapshot();
        // All threads aggregate into the same two histograms...
        assert_eq!(snap.histogram("span.test.mt").unwrap().count, 400);
        assert_eq!(snap.histogram("span.test.mt/leaf").unwrap().count, 400);
        // ...and never interleave paths across threads.
        assert!(snap.histogram("span.test.mt/span.test.mt").is_none());
        assert!(snap.histogram("span.test.mt/leaf/leaf").is_none());
        assert!(snap.histogram("span.test.mt/leaf/span.test.mt").is_none());
    }

    #[test]
    fn context_reroots_worker_spans() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        std::thread::spawn(|| {
            let _ctx = context("span.test.ctx");
            let _leaf = span("leaf");
        })
        .join()
        .unwrap();
        crate::set_enabled(false);
        let snap = crate::snapshot();
        // The nested span lands under the context path...
        assert_eq!(snap.histogram("span.test.ctx/leaf").unwrap().count, 1);
        // ...but the context itself records no histogram.
        assert!(snap.histogram("span.test.ctx").is_none());
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::enable_lock();
        crate::set_enabled(false);
        let s = span("span.test.inert");
        assert!(s.armed.is_none());
        assert_eq!(span_path(), None);
        drop(s);
        assert!(crate::snapshot().histogram("span.test.inert").is_none());
    }
}
