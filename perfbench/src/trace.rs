//! In-memory spans for the traced run. The benchmark wraps each call
//! into a layer's public function in a span; spans are kept in memory
//! and written out as JSON lines once the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<function>`, `op` the operation
/// it served, `parent` the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while enabled; while disabled every call is a no-op
/// that reports 0 ms, so traced and untraced operations share one code
/// path.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// The span id handed out while disabled.
const DISABLED: usize = usize::MAX;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn start(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return DISABLED;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        if id == DISABLED {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.start(name, op, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Every span as one JSON line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Write [`jsonl`](Self::jsonl) to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut t = Tracer::new();
        let op = t.start("bench.op", 0, None);
        let ((), a) = t.time("lang.compile", 0, Some(op), || {});
        let ((), b) = t.time("lang.compile", 1, Some(op), || {});
        let whole = t.end(op);
        assert!(whole >= a + b);
        assert_eq!(t.spans.len(), 3);
        let text = t.jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains(r#""parent":0"#));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.set_enabled(false);
        let (v, ms) = t.time("lang.compile", 0, None, || 7);
        assert_eq!((v, ms), (7, 0.0));
        assert!(t.spans.is_empty());
        t.set_enabled(true);
        t.time("lang.compile", 1, None, || ());
        assert_eq!(t.spans.len(), 1);
    }
}
