//! The benchmark's own spans, recorded around the public calls into each
//! layer. Spans are kept in memory and written out after the last round.
//!
//! One traced operation is a small tree of spans. A span's *self time* is
//! its duration minus the part of it that its children cover, so the self
//! times of a tree sum to the root's duration and show where it went.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One span of one operation; `parent` indexes into the same operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span as written to the trace file.
#[derive(Debug, Clone)]
struct Kept {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
    parent: Option<u64>,
    op_id: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean duration of one span, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.spans as f64 / 1e3
        }
    }

    /// Mean self time of one span, microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.spans as f64 / 1e3
        }
    }
}

/// Nanoseconds of `spans[i]` not covered by any of its children.
pub fn self_time_ns(spans: &[OpSpan], i: usize) -> u64 {
    let me = spans[i];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (me.end_ns - me.start_ns).saturating_sub(covered)
}

/// Collects operations: totals for all of them, full spans for those the
/// caller asks to keep (every span of a 20 s run would be a 100 MB file).
#[derive(Debug, Default)]
pub struct Tracer {
    kept: Vec<Kept>,
    next_id: u64,
    totals: BTreeMap<&'static str, LayerTotal>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records one operation's spans. A span's parent must come before it.
    pub fn record_op(&mut self, op_id: u64, spans: &[OpSpan], keep: bool) {
        let first_id = self.next_id;
        for (i, span) in spans.iter().enumerate() {
            debug_assert!(span.parent.is_none_or(|p| p < i));
            let self_ns = self_time_ns(spans, i);
            let total = self.totals.entry(span.name).or_default();
            total.spans += 1;
            total.dur_ns += span.end_ns.saturating_sub(span.start_ns);
            total.self_ns += self_ns;
            if keep {
                self.kept.push(Kept {
                    id: first_id + i as u64,
                    name: span.name,
                    start_ns: span.start_ns,
                    end_ns: span.end_ns,
                    self_ns,
                    parent: span.parent.map(|p| first_id + p as u64),
                    op_id,
                });
            }
        }
        self.next_id += spans.len() as u64;
    }

    /// Totals of the spans named `name` (zero if none were recorded).
    pub fn layer(&self, name: &str) -> LayerTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its totals, in name order.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, LayerTotal)> + '_ {
        self.totals.iter().map(|(name, total)| (*name, *total))
    }

    pub fn kept_spans(&self) -> usize {
        self.kept.len()
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.self_ns, parent, s.op_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> OpSpan {
        OpSpan {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let op = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),  // overlaps a by 5
            span("c", 90, 120, Some(0)), // runs past the root
            span("grandchild", 12, 20, Some(1)),
        ];
        // Children cover 10..50 and 90..100.
        assert_eq!(self_time_ns(&op, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&op, 1), 20 - 8);
        assert_eq!(self_time_ns(&op, 4), 8);
    }

    #[test]
    fn totals_count_every_operation_and_only_kept_ones_are_written() {
        let mut tracer = Tracer::new();
        let op = [span("root", 0, 100, None), span("leaf", 20, 60, Some(0))];
        tracer.record_op(1, &op, true);
        tracer.record_op(2, &op, false);
        assert_eq!(tracer.layer("leaf").spans, 2);
        assert_eq!(tracer.layer("leaf").mean_us(), 0.04);
        assert_eq!(tracer.layer("root").self_ns, 120);
        assert_eq!(tracer.layer("absent"), LayerTotal::default());
        assert_eq!(tracer.kept_spans(), 2);
    }
}
