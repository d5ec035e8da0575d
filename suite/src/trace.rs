//! Harness-side spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing is added inside the engine. They
//! are kept in memory and written out when the run ends. Every span has a
//! parent or is a top-level op, and all spans of one op share its op id.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            recording: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Turns recording off or on; timing is returned either way, which is
    /// how the tracing overhead itself is measured.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Runs `f` as a span under the innermost open span and returns its
    /// result with its wall time in seconds. With no span open it is a
    /// top-level op and takes a fresh op id.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.recording {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.ops += 1;
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.ops,
        });
        self.open.push(id);
        let out = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }

    /// A leaf span around one call into a layer.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.scope(name, |_| f())
    }

    /// Self time per span name in seconds: a span's duration minus the part
    /// its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            let entry = out.entry(s.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += own as f64 / 1e9;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if id + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_an_op_id() {
        let mut t = Tracer::new();
        t.scope("op", |t| {
            t.call("leaf", || std::hint::black_box(1 + 1));
            t.scope("mid", |t| t.call("leaf", || ()));
        });
        t.call("other-op", || ());
        let s = &t.spans;
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[..4].iter().all(|x| x.op == 1) && s[4].op == 2);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let own = t.self_times();
        assert_eq!(own["leaf"].0, 2);
        let parsed = telemetry::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(parsed.as_arr().map(<[_]>::len), Some(5));
    }

    #[test]
    fn a_stopped_tracer_still_times() {
        let mut t = Tracer::new();
        t.set_recording(false);
        let ((), secs) = t.call("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002 && t.spans.is_empty());
    }
}
