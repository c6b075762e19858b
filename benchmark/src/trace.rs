//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program is instrumented. A span
//! carries its name, start, end, the span that caused it and the
//! `(workload, rep)` it belongs to; counts are attached at the same
//! boundaries. Everything stays in memory until [`Tracer::chrome_json`]
//! is written out when the benchmark ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open or finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: f64,
    /// `None` while the span is open.
    end_us: Option<f64>,
    parent: Option<usize>,
    rep: usize,
    counts: Vec<(&'static str, f64)>,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run executes the same code without the bookkeeping.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    t0: Instant,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &'static str) -> Self {
        Tracer {
            enabled,
            workload,
            t0: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Switch recording on or off between reps (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling the tracer inside a span");
        self.enabled = enabled;
    }

    /// Spans opened from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: None,
            parent: self.open.last().copied(),
            rep: self.rep,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        self.spans[id.0].end_us = Some(self.now_us());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Attach a count to span `id` (open or closed).
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[id.0].counts.push((key, value));
        }
    }

    /// Per span name: `(calls, total ms, self ms)`, where self time is the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end_us) {
                child_us[p] += end - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end_us else { continue };
            let dur = end - s.start_us;
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += (dur - child_us[i]) / 1e3;
        }
        out
    }

    /// The recorded spans as a Chrome-trace document (`chrome://tracing`,
    /// Perfetto): complete events on one track, nested by time, with the
    /// parent span, repetition and counts in `args`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let end = s.end_us?;
                let mut args = vec![
                    ("span".to_string(), Json::Num(i as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep".to_string(), Json::Num(s.rep as f64)),
                ];
                args.extend(s.counts.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))));
                Some(Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(self.workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(end - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ]))
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, "w");
        t.set_rep(2);
        let outer = t.begin("outer");
        t.span("inner", |t| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("leaf", |_| ());
        });
        t.count(outer, "items", 3.0);
        t.end(outer);
        let st = t.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert!(total >= 5.0 && own < total, "self {own} total {total}");
        let doc = t.chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        let inner = &events[1];
        assert_eq!(inner.get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(inner.get("cat").and_then(Json::as_str), Some("w"));
        let args = inner.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("rep").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("items"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        // the document is loadable JSON
        assert_eq!(crate::json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "w");
        let id = t.begin("x");
        t.count(id, "k", 1.0);
        t.end(id);
        assert_eq!(t.span("y", |_| 7), 7);
        assert!(t.self_times().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new(true, "w");
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
