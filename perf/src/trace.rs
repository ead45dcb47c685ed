//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. Spans nest by
//! call order: [`Tracer::enter`] makes the innermost open span the
//! parent. They stay in memory and are written as JSON lines when the
//! run ends. A layer's *self time* is its span's duration minus the
//! part its child spans cover. With the tracer off every call is one
//! branch, so the untraced run measures the program, not the tracer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `io.driver_step`.
    pub name: &'static str,
    /// Start, ns from the tracer's epoch.
    pub start_ns: u64,
    /// End, ns from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The op the span worked for, when it worked for one.
    pub op_id: Option<u64>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus what child spans cover, ns.
    pub self_ns: u64,
}

/// Handle of an open span; `None` while the tracer is off.
pub type Token = Option<u32>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing until switched on.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording. Only call with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: Option<u64>) -> Token {
        if !self.on {
            return None;
        }
        let index = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `token` opened.
    pub fn exit(&mut self, token: Token) {
        let Some(index) = token else { return };
        let end_ns = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&index));
        self.open.pop();
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Forgets the childless span `token` opened: an idle poll loop
    /// would otherwise record millions.
    pub fn discard(&mut self, token: Token) {
        let Some(index) = token else { return };
        debug_assert_eq!(self.spans.len(), index as usize + 1);
        self.open.pop();
        self.spans.pop();
    }

    /// Records a finished interval that did not nest by call order (an
    /// op, from its due instant to its verified response).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op_id: Option<u64>) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op_id,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let total = out.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += duration;
            total.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent.map(u64::from)),
                opt(span.op_id),
            )?;
        }
        Ok(())
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_discard_forgets() {
        let mut t = Tracer::new();
        assert_eq!(t.enter("off", None), None);
        t.set_on(true);
        let outer = t.enter("outer", Some(7));
        let inner = t.enter("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let idle = t.enter("idle", None);
        t.discard(idle);

        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);

        let mut text = Vec::new();
        t.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"outer\",\"start_ns\":"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"op_id\":7"));
    }
}
