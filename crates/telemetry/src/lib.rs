//! Pipeline-wide telemetry for the LogGrep reproduction.
//!
//! A self-contained (std-only) metrics layer shared by every crate in the
//! workspace: lock-free [`Counter`]s and [`Gauge`]s, power-of-two-bucket
//! [`Histogram`]s for latencies and sizes, and RAII [`Span`] timers that
//! aggregate hierarchically (`compress/extract/merge`, `query/plan`, ...)
//! into a process-wide registry ([`snapshot`] reads it).
//!
//! # Design
//!
//! * **Near-zero cost when disabled.** A single process-wide relaxed
//!   [`AtomicBool`] gates everything. [`span`] returns an inert guard and
//!   the `counter!`/`histogram!` macros skip recording when disabled, so
//!   the instrumented hot paths pay one relaxed load.
//! * **`&'static` metric handles.** The registry leaks each metric once
//!   ([`Box::leak`]) and hands out `&'static` references; hot call sites
//!   cache the handle in a local [`std::sync::OnceLock`] (the `counter!`
//!   and `histogram!` macros do this), so the name-map mutex is only taken
//!   on first touch.
//! * **Hierarchical spans.** Each thread keeps a stack of active span
//!   names; a span records its elapsed nanoseconds into a histogram named
//!   by the joined path (e.g. `query/decompress`), so nested stages
//!   aggregate per position in the pipeline, not just per name.
//! * **Exporters are views.** [`snapshot`] captures every metric; the
//!   [`export`] module renders a snapshot as aligned text or JSON without
//!   any serialization dependency.
//! * **Deep observability is layered on top.** The [`journal`] records
//!   span begin/end edges and counter deltas into per-thread ring buffers,
//!   exportable as Chrome trace-event JSON or collapsed stacks.
//!
//! # Example
//!
//! ```
//! telemetry::set_enabled(true);
//! {
//!     let _outer = telemetry::span("compress");
//!     let _inner = telemetry::span("extract");
//!     telemetry::counter("parse.lines").add(42);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("parse.lines"), 42);
//! assert!(snap.histogram("compress/extract").is_some());
//! telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod journal;
pub mod json;
mod metrics;
mod registry;
mod span;

pub use export::{export_json, export_text, export_trace_text};
pub use journal::{
    clear_journal, current_trace_id, export_chrome_trace, export_collapsed, journal_enabled,
    journal_events, mark, set_journal_enabled, trace_scope, trace_scope_with, EventKind,
    TraceEvent, TraceScope,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{counter, gauge, histogram, reset, snapshot, Snapshot};
pub use span::{context, span, span_path, Context, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on or off process-wide.
///
/// Disabled is the default; when disabled, spans are inert and the
/// recording macros skip their atomic updates.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds to a named counter, caching the `&'static` handle at the call site.
///
/// `counter!("parse.lines", n)` is the hot-path form of
/// `telemetry::counter("parse.lines").add(n)`: the handle is resolved
/// through the registry mutex once and kept in a local `OnceLock`, and the
/// add is skipped entirely while telemetry is disabled.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            let handle = *HANDLE.get_or_init(|| $crate::counter($name));
            handle.add($delta);
            if $crate::journal_enabled() {
                $crate::journal::record_counter($name, handle.get());
            }
        }
    }};
}

/// Records a value into a named histogram, caching the handle like
/// [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::histogram($name)).record($value);
        }
    }};
}

/// Serializes tests that flip the process-wide enable flag.
#[cfg(test)]
pub(crate) fn enable_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share one registry; run the whole sequence in a
    /// single test to avoid cross-test interference.
    #[test]
    fn enable_flag_gates_macros() {
        let _guard = enable_lock();
        set_enabled(false);
        counter!("lib.test.gated", 5);
        assert_eq!(snapshot().counter("lib.test.gated"), 0);

        set_enabled(true);
        counter!("lib.test.gated", 5);
        histogram!("lib.test.hist", 100u64);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test.gated"), 5);
        assert_eq!(snap.histogram("lib.test.hist").unwrap().count, 1);
        set_enabled(false);
    }
}
