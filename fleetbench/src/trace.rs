//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer (the program itself is not instrumented). Spans are
//! kept in memory and written out when the run ends; with tracing off,
//! `begin`/`end` do nothing.

use crate::util::now_s;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<SpanId>,
    req: u64,
}

pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        spans.push(Span {
            name,
            start: now_s(),
            end: f64::NAN,
            parent: parent.filter(|&p| p != NONE),
            req,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let t = now_s();
        if let Some(s) = self
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_mut(id)
        {
            s.end = t;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut child_ms = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                if let Some(c) = child_ms.get_mut(p) {
                    *c += (s.end - s.start).max(0.0) * 1e3;
                }
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.end.is_nan() {
                continue;
            }
            let d = (s.end - s.start) * 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += (d - child_ms[i]).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line: name, start and end (seconds
    /// since the benchmark started), parent index and request id.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
