//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into the stack goes through
//! [`Recorder::time`] (or [`Recorder::span`]), which measures it and keeps
//! its duration per (span name, unit). A tracing recorder additionally
//! keeps each span — name, start, end, parent, unit, allocations — in
//! memory, for the per-layer self times and the Chrome trace-event export.
//! Spans exist only at the benchmark's own call boundaries: a layer running
//! inside another layer's
//! call (the runner inside serve, the simulator inside the scheduler's
//! search) is part of its caller's self time.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::{alloc, stats};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `serve.step`.
    pub name: &'static str,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The unit (or deployment, for profiling) the call worked on.
    pub unit: usize,
    /// Allocations made during the span (0 unless counting is on).
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The layer a span name belongs to: the part before the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Times calls; keeps every duration per (name, unit) and, when tracing,
/// every span.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<(&'static str, usize), Vec<f64>>,
    last_allocs: u64,
    last_heap: usize,
}

impl Recorder {
    /// A recorder; `tracing` keeps spans.
    pub fn new(tracing: bool) -> Self {
        Self {
            origin: Instant::now(),
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            last_allocs: 0,
            last_heap: 0,
        }
    }

    /// Whether spans are kept.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Runs `f` as span `name` of `unit`, keeps its duration as a sample,
    /// and returns its result with its wall time in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        unit: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let ((out, secs), heap) = alloc::peak_scope(|| self.span(name, unit, f));
        self.last_heap = heap;
        self.samples.entry((name, unit)).or_default().push(secs);
        (out, secs)
    }

    /// Like [`Recorder::time`] but keeps no sample: for calls too
    /// numerous to sample by name, whose caller keeps the durations.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let index = self.tracing.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start: 0.0, end: 0.0, parent, unit, allocs: 0 });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let allocs0 = alloc::count();
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        self.last_allocs = alloc::count() - allocs0;
        let secs = (t1 - t0).as_secs_f64();
        if let Some(i) = index {
            self.open.pop();
            let span = &mut self.spans[i];
            span.start = (t0 - self.origin).as_secs_f64();
            span.end = (t1 - self.origin).as_secs_f64();
            span.allocs = self.last_allocs;
        }
        (out, secs)
    }

    /// Allocations counted during the most recently closed span.
    pub fn last_allocs(&self) -> u64 {
        self.last_allocs
    }

    /// Peak heap growth, in bytes, of the most recent [`Recorder::time`]
    /// call.
    pub fn last_heap(&self) -> usize {
        self.last_heap
    }

    /// Makes room for `n` more spans, so that recording inside a counted
    /// span does not itself allocate.
    pub fn reserve(&mut self, n: usize) {
        if self.tracing {
            self.spans.reserve(n);
        }
    }

    /// The median duration of `name` per unit that ran it, in unit order.
    pub fn medians(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, t)| stats::median(t))
            .collect()
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer: each span's duration minus the time its child
/// spans cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(layer(s.name)).or_insert(0.0) += s.secs() - c;
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON (complete `X` events in
/// microseconds), which Perfetto and `chrome://tracing` open.
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    chrome_trace(spans, &mut out)?;
    out.flush()
}

fn chrome_trace(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"unit\":{},\"allocs\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            layer(s.name),
            s.start * 1e6,
            s.secs() * 1e6,
            s.unit,
            s.allocs,
        )?;
    }
    out.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, unit: 0, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0, 10] > lower [1, 3], run [4, 9] > step [5, 6], step [7, 8.5]
        let spans = [
            span("bench.round", 0.0, 10.0, None),
            span("scenario.lower", 1.0, 3.0, Some(0)),
            span("serve.run", 4.0, 9.0, Some(0)),
            span("serve.step", 5.0, 6.0, Some(2)),
            span("serve.step", 7.0, 8.5, Some(2)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 10.0 - 2.0 - 5.0);
        assert_eq!(t["scenario"], 2.0);
        // serve.run's self time (5 - 2.5) plus both steps (2.5).
        assert_eq!(t["serve"], 5.0);
        assert_eq!(t.values().sum::<f64>(), 10.0, "self times partition the root");
    }

    #[test]
    fn recorder_nests_spans_and_keeps_samples() {
        let mut rec = Recorder::new(true);
        for _ in 0..3 {
            rec.time("bench.round", 0, |rec| {
                rec.time("core.schedule", 3, |_| std::hint::black_box(1 + 1));
                rec.span("serve.step", 3, |_| ());
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[4].parent, Some(3));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let schedule: Vec<f64> =
            spans.iter().filter(|s| s.name == "core.schedule").map(Span::secs).collect();
        let median = rec.medians("core.schedule");
        assert_eq!(median.len(), 1);
        assert!((median[0] - stats::median(&schedule)).abs() < 1e-9);
        assert!(rec.medians("serve.step").is_empty(), "`span` keeps no samples");

        let mut plain = Recorder::new(false);
        plain.time("core.schedule", 0, |_| ());
        assert!(plain.spans().is_empty(), "an untraced recorder keeps no spans");
        assert_eq!(plain.medians("core.schedule").len(), 1);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let spans = [span("bench.round", 0.0, 1.0, None), span("runner.run", 0.25, 0.5, Some(0))];
        let mut out = Vec::new();
        chrome_trace(&spans, &mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"runner.run\",\"cat\":\"runner\""));
        assert!(text.contains("\"ts\":250000.000,\"dur\":250000.000"));
        assert!(text.contains("\"parent\":0"));
    }
}
