//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public API (the program itself carries no spans). Spans are kept in memory
//! and written out once, when the run ends, so recording costs two clock
//! reads and a vector push.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The workspace crate the call went into (`serve`, `core`, `exec`,
    /// `index`, `pagestore`, `graph`), or `gen` for the load generator.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            layer,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end).max(self.offset_ns(start)),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, layer, start, Instant::now(), parent, request);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Per layer: the self time of its spans in milliseconds (each span's
    /// duration minus the part its children cover), divided by the number
    /// of requests with at least one span in the layer, and that number.
    pub fn self_ms_per_request(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let self_ns = self_times_ns(&self.spans);
        let mut by_layer: BTreeMap<&'static str, (u64, BTreeSet<u64>)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            let (total, requests) = by_layer.entry(span.layer).or_default();
            *total += ns;
            requests.insert(span.request);
        }
        by_layer
            .into_iter()
            .map(|(layer, (ns, requests))| {
                (
                    layer,
                    (ns as f64 / 1e6 / requests.len() as f64, requests.len()),
                )
            })
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id name layer request parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tlayer\trequest\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.layer, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("serve", 0, 100, None),
            // Overlapping children count once: [10, 50) covers 40 ns.
            span("core", 10, 40, Some(0)),
            span("core", 30, 50, Some(0)),
            // A child running past its parent is clipped: [90, 100).
            span("exec", 90, 120, Some(0)),
            // A grandchild only reduces its own parent.
            span("exec", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 30, 10]);
    }

    #[test]
    fn self_time_per_request_divides_by_the_requests_in_the_layer() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let ms = std::time::Duration::from_millis;
        let root = tracer.record("req", "serve", origin, origin + ms(10), None, 1);
        let child = tracer.record("run", "core", origin + ms(2), origin + ms(9), Some(root), 1);
        tracer.record(
            "drain",
            "exec",
            origin + ms(3),
            origin + ms(8),
            Some(child),
            1,
        );
        // A second request reaches only `exec`, with two spans.
        tracer.record("drain", "exec", origin, origin + ms(4), None, 2);
        tracer.record("drain", "exec", origin + ms(5), origin + ms(6), None, 2);
        let by_layer = tracer.self_ms_per_request();
        assert_eq!(by_layer["serve"], (3.0, 1));
        assert_eq!(by_layer["core"], (2.0, 1));
        // (5 + 4 + 1) ms over two requests.
        assert_eq!(by_layer["exec"], (5.0, 2));
        assert!((tracer.duration_ms(2) - 5.0).abs() < 1e-9);
    }
}
