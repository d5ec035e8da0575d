//! The trace journal: a lock-light ring buffer of span begin/end, counter,
//! and instant events, exportable as Chrome trace-event JSON (loads in
//! Perfetto / `chrome://tracing`) and as flamegraph-collapsed stacks.
//!
//! # Design
//!
//! * **Per-thread rings.** Each recording thread owns a bounded
//!   `VecDeque` of [`TraceEvent`]s behind its own mutex, registered in a
//!   global list on first use. Writers only ever lock their own ring
//!   (uncontended except while an exporter drains), so journaling adds a
//!   short uncontended lock + one event per span edge, nothing global.
//! * **Bounded.** Rings overwrite their oldest events past
//!   [`set_ring_capacity`] events per thread — a long-running process keeps
//!   the *recent* trace, never an unbounded log.
//! * **Off by default.** A dedicated [`set_journal_enabled`] flag gates
//!   recording (separately from the metrics flag, which gates span
//!   arming); both must be on for events to flow.
//! * **Trace ids.** A [`trace_scope`] guard stamps every event recorded
//!   by the current thread with a query-scoped id, and
//!   [`trace_scope_with`] propagates the same id onto worker threads, so
//!   one operation's spans correlate across a pool.
//!
//! Timestamps are nanoseconds since the journal epoch (first enable).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::export::push_json_string;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

static JOURNAL_ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// What a journal event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`value` is 0).
    SpanBegin,
    /// A span closed (`value` is its duration in nanoseconds).
    SpanEnd,
    /// A counter moved (`value` is its new running total).
    Counter,
    /// A point-in-time mark.
    Instant,
}

/// One journal entry.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the journal epoch.
    pub ts_ns: u64,
    /// Journal-assigned thread id (small, stable per thread).
    pub tid: u64,
    /// The enclosing [`trace_scope`] id, 0 when none.
    pub trace_id: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Span path, counter name, or mark label.
    pub name: String,
    /// Kind-specific payload (see [`EventKind`]).
    pub value: u64,
}

struct ThreadRing {
    tid: u64,
    events: Mutex<VecDeque<TraceEvent>>,
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL_RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(VecDeque::new()),
        });
        rings()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    };
    static TRACE_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Turns journal recording on or off process-wide.
///
/// The journal only receives events while the metrics flag
/// ([`crate::set_enabled`]) is *also* on, since disabled spans are inert.
pub fn set_journal_enabled(on: bool) {
    if on {
        epoch(); // Pin the epoch at first enable.
    }
    JOURNAL_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether journal recording is currently enabled.
#[inline]
pub fn journal_enabled() -> bool {
    JOURNAL_ENABLED.load(Ordering::Relaxed)
}

/// Caps each thread's ring at `events` entries (oldest evicted first).
/// Applies to subsequent pushes; `0` is treated as 1.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// The journal-assigned id of the current thread.
pub fn current_tid() -> u64 {
    LOCAL_RING.with(|r| r.tid)
}

/// The current thread's active trace id (0 when outside any scope).
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(std::cell::Cell::get)
}

/// A guard holding a trace id on the current thread; restores the previous
/// id when dropped.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

/// Opens a fresh trace scope (a new process-unique id), stamping every
/// event this thread records until the guard drops. Queries open one scope
/// per execution so all their spans share an id.
pub fn trace_scope() -> TraceScope {
    trace_scope_with(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
}

/// Adopts an existing trace id — used by pool workers to join the scope of
/// the query that fanned them out.
pub fn trace_scope_with(id: u64) -> TraceScope {
    let prev = TRACE_ID.with(|t| t.replace(id));
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        TRACE_ID.with(|t| t.set(self.prev));
    }
}

#[inline]
fn push(kind: EventKind, name: &str, value: u64) {
    let ts_ns = epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let trace_id = current_trace_id();
    LOCAL_RING.with(|ring| {
        let mut events = ring.events.lock().unwrap_or_else(|e| e.into_inner());
        let cap = RING_CAPACITY.load(Ordering::Relaxed).max(1);
        while events.len() >= cap {
            events.pop_front();
        }
        events.push_back(TraceEvent {
            ts_ns,
            tid: ring.tid,
            trace_id,
            kind,
            name: name.to_string(),
            value,
        });
    });
}

/// Records a span-begin edge (called by [`crate::span`]).
#[inline]
pub(crate) fn record_span_begin(path: &str) {
    if journal_enabled() {
        push(EventKind::SpanBegin, path, 0);
    }
}

/// Records a span-end edge with the span's duration.
#[inline]
pub(crate) fn record_span_end(path: &str, dur_ns: u64) {
    if journal_enabled() {
        push(EventKind::SpanEnd, path, dur_ns);
    }
}

/// Records a counter's new running total (called by the `counter!` macro).
#[inline]
pub fn record_counter(name: &str, total: u64) {
    if journal_enabled() {
        push(EventKind::Counter, name, total);
    }
}

/// Records a point-in-time mark (e.g. "cache cleared").
pub fn mark(label: &str) {
    if journal_enabled() {
        push(EventKind::Instant, label, 0);
    }
}

/// A consistent copy of every thread's ring, merged and sorted by
/// timestamp. Non-destructive; see [`clear_journal`] to drop history.
pub fn journal_events() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = rings()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut all = Vec::new();
    for ring in rings {
        let events = ring.events.lock().unwrap_or_else(|e| e.into_inner());
        all.extend(events.iter().cloned());
    }
    all.sort_by_key(|e| (e.ts_ns, e.tid));
    all
}

/// Drops every buffered event (thread rings stay registered).
pub fn clear_journal() {
    let rings: Vec<Arc<ThreadRing>> = rings()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    for ring in rings {
        ring.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Renders events as Chrome trace-event JSON: an object with a
/// `traceEvents` array of `B`/`E` duration edges, `C` counter samples, and
/// `i` instant marks. Loads directly in Perfetto and `chrome://tracing`.
///
/// Timestamps convert to the format's microseconds (fractional, so no
/// nanosecond precision is lost); every event carries `pid`, `tid`, and a
/// `trace` arg holding the [`trace_scope`] id.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = e.ts_ns as f64 / 1e3;
        let ph = match e.kind {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Counter => "C",
            EventKind::Instant => "i",
        };
        out.push_str("{\"name\": ");
        push_json_string(&mut out, &e.name);
        out.push_str(&format!(
            ", \"ph\": \"{ph}\", \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}, ",
            e.tid
        ));
        if e.kind == EventKind::Instant {
            out.push_str("\"s\": \"t\", ");
        }
        match e.kind {
            EventKind::Counter => {
                out.push_str(&format!(
                    "\"args\": {{\"value\": {}, \"trace\": {}}}}}",
                    e.value, e.trace_id
                ));
            }
            _ => {
                out.push_str(&format!("\"args\": {{\"trace\": {}}}}}", e.trace_id));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders events as flamegraph-collapsed stacks: one line per span path,
/// `a;b;c <self-nanoseconds>`, where self time is the path's total minus
/// its direct children's totals (clamped at zero). Feed to
/// `flamegraph.pl` or any FlameGraph-format viewer.
pub fn export_collapsed(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::SpanEnd {
            *totals.entry(e.name.as_str()).or_insert(0) += e.value;
        }
    }
    let mut out = String::new();
    for (path, &total) in &totals {
        let child_sum: u64 = totals
            .iter()
            .filter(|(p, _)| {
                p.len() > path.len()
                    && p.starts_with(path)
                    && p.as_bytes().get(path.len()) == Some(&b'/')
                    && !p[path.len() + 1..].contains('/')
            })
            .map(|(_, &v)| v)
            .sum();
        let self_ns = total.saturating_sub(child_sum);
        if self_ns > 0 {
            out.push_str(&path.replace('/', ";"));
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_records_span_edges_and_counters() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        set_journal_enabled(true);
        clear_journal();
        {
            let _t = trace_scope();
            let _a = crate::span("journal.test.outer");
            let _b = crate::span("inner");
            crate::counter!("journal.test.count", 3);
        }
        set_journal_enabled(false);
        crate::set_enabled(false);

        let events = journal_events();
        let begins: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .collect();
        let ends: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .collect();
        assert_eq!(begins.len(), 2, "{events:?}");
        assert_eq!(ends.len(), 2);
        assert!(begins.iter().any(|e| e.name == "journal.test.outer"));
        assert!(ends.iter().any(|e| e.name == "journal.test.outer/inner"));
        // Every event carries the same nonzero trace id and one tid.
        assert!(events.iter().all(|e| e.trace_id != 0));
        assert!(events.iter().all(|e| e.trace_id == events[0].trace_id));
        let counter = events
            .iter()
            .find(|e| e.kind == EventKind::Counter)
            .expect("counter event");
        assert_eq!(counter.name, "journal.test.count");
        // End edges carry durations; timestamps are monotone after sort.
        assert!(ends.iter().all(|e| e.value > 0));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        set_journal_enabled(false);
        clear_journal();
        let _a = crate::span("journal.test.silent");
        drop(_a);
        crate::set_enabled(false);
        assert!(journal_events().is_empty());
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = crate::enable_lock();
        crate::set_enabled(true);
        set_journal_enabled(true);
        clear_journal();
        set_ring_capacity(16);
        for _ in 0..100 {
            mark("journal.test.flood");
        }
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_journal_enabled(false);
        crate::set_enabled(false);
        let events = journal_events();
        assert!(events.len() <= 16, "ring not bounded: {}", events.len());
        clear_journal();
        assert!(journal_events().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_balanced_edges() {
        let events = vec![
            TraceEvent {
                ts_ns: 100,
                tid: 1,
                trace_id: 7,
                kind: EventKind::SpanBegin,
                name: "query".into(),
                value: 0,
            },
            TraceEvent {
                ts_ns: 150,
                tid: 1,
                trace_id: 7,
                kind: EventKind::Counter,
                name: "query.rows \"x\"".into(),
                value: 42,
            },
            TraceEvent {
                ts_ns: 400,
                tid: 1,
                trace_id: 7,
                kind: EventKind::SpanEnd,
                name: "query".into(),
                value: 300,
            },
            TraceEvent {
                ts_ns: 500,
                tid: 2,
                trace_id: 0,
                kind: EventKind::Instant,
                name: "mark".into(),
                value: 0,
            },
        ];
        let json = export_chrome_trace(&events);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let arr = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .expect("traceEvents array");
        assert_eq!(arr.len(), 4);
        for e in arr {
            assert!(e.str("name").is_some());
            assert!(e.str("ph").is_some());
            assert!(e.num("ts").is_some());
            assert!(e.num("tid").is_some());
            assert!(e.num("pid").is_some());
        }
        assert_eq!(arr[0].str("ph"), Some("B"));
        assert_eq!(arr[1].str("ph"), Some("C"));
        assert_eq!(arr[1].get("args").unwrap().num("value"), Some(42.0));
        assert_eq!(arr[2].str("ph"), Some("E"));
        assert_eq!(arr[3].str("ph"), Some("i"));
        assert_eq!(arr[3].str("s"), Some("t"));
    }

    #[test]
    fn collapsed_subtracts_children() {
        let end = |name: &str, dur: u64| TraceEvent {
            ts_ns: 0,
            tid: 1,
            trace_id: 0,
            kind: EventKind::SpanEnd,
            name: name.into(),
            value: dur,
        };
        let events = vec![
            end("query", 1000),
            end("query/plan", 200),
            end("query/reconstruct", 300),
            end("query/reconstruct/decompress", 120),
        ];
        let collapsed = export_collapsed(&events);
        let mut lines: Vec<&str> = collapsed.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec![
                "query 500",
                "query;plan 200",
                "query;reconstruct 180",
                "query;reconstruct;decompress 120",
            ]
        );
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        assert_eq!(current_trace_id(), 0);
        let outer = trace_scope();
        let outer_id = current_trace_id();
        assert_ne!(outer_id, 0);
        {
            let _inner = trace_scope_with(999);
            assert_eq!(current_trace_id(), 999);
        }
        assert_eq!(current_trace_id(), outer_id);
        drop(outer);
        assert_eq!(current_trace_id(), 0);
    }
}
