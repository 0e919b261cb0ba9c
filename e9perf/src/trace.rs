//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. Every span has a name, start, end and parent, and the
//! spans of one operation share an op id. Spans stay in memory until
//! [`Tracer::write`] dumps them at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing, so the untraced
/// timed phase pays one branch per would-be span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: later spans carry this op id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close in LIFO order");
            self.open.pop();
        }
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: one thread, LIFO spans).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-op totals of the self time of spans called `name`, in ms, in
    /// op order. Ops without such a span are absent.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_ns();
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += ns;
            }
        }
        by_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_op(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        let outer_self = t.per_op_self_ms("outer");
        let inner_self = t.per_op_self_ms("inner");
        assert_eq!(outer_self.len(), 1);
        assert!(inner_self[0] >= 5.0);
        assert!(outer_self[0] < inner_self[0]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.per_op_self_ms("x").is_empty());
    }
}
