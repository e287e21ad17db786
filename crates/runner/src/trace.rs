//! Execution traces: what ran where, when — the data behind the paper's
//! timeline figures (1, 3, 4), recorded from actual replays.

/// What a trace span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An encoding phase (prefill of admitted queries).
    Encode,
    /// A block of decoding iterations.
    Decode,
    /// A KV-cache handover between GPU groups (WAA).
    KvTransfer,
}

/// One timed span on one GPU group.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which GPU group executed it (`workers`, `encoders`, `decoders`).
    pub group: String,
    /// Span kind.
    pub kind: SpanKind,
    /// Start time (virtual seconds).
    pub t0: f64,
    /// End time.
    pub t1: f64,
    /// Queries involved.
    pub batch: usize,
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span (ignored if it has non-positive duration).
    pub fn record(&mut self, group: &str, kind: SpanKind, t0: f64, t1: f64, batch: usize) {
        if t1 > t0 {
            self.spans.push(Span { group: group.to_string(), kind, t0, t1, batch });
        }
    }

    /// All recorded spans in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the first `window` seconds as an ASCII Gantt chart, one lane
    /// per GPU group: `E` encode, `d` decode, `k` KV transfer, `.` idle.
    ///
    /// # Example
    ///
    /// ```
    /// use exegpt_runner::{SpanKind, Trace};
    ///
    /// let mut t = Trace::new();
    /// t.record("workers", SpanKind::Encode, 0.0, 1.0, 4);
    /// t.record("workers", SpanKind::Decode, 1.0, 3.0, 64);
    /// let g = t.render_gantt(4.0, 40);
    /// assert!(g.contains('E') && g.contains('d'));
    /// ```
    pub fn render_gantt(&self, window: f64, width: usize) -> String {
        let width = width.max(10);
        let window =
            if window > 0.0 { window } else { self.spans.iter().map(|s| s.t1).fold(0.0, f64::max) };
        if window <= 0.0 {
            return String::from("(empty trace)\n");
        }
        // Stable lane order by first appearance.
        let mut groups: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !groups.contains(&s.group.as_str()) {
                groups.push(&s.group);
            }
        }
        let mut out = String::new();
        for group in groups {
            let mut lane = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.group == group && s.t0 < window) {
                let a = ((s.t0 / window) * width as f64) as usize;
                let b = (((s.t1.min(window)) / window) * width as f64).ceil() as usize;
                let ch = match s.kind {
                    SpanKind::Encode => 'E',
                    SpanKind::Decode => 'd',
                    SpanKind::KvTransfer => 'k',
                };
                for c in lane.iter_mut().take(b.min(width)).skip(a) {
                    *c = ch;
                }
            }
            out.push_str(&format!("{group:>9} |"));
            out.extend(lane);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>9}  0s{}{window:.2}s   (E encode, d decode, k kv-transfer)\n",
            "",
            " ".repeat(width.saturating_sub(8))
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_orders_spans() {
        let mut t = Trace::new();
        t.record("workers", SpanKind::Encode, 0.0, 1.0, 8);
        t.record("workers", SpanKind::Decode, 1.0, 2.0, 64);
        t.record("workers", SpanKind::Decode, 2.0, 2.0, 64); // zero-length: dropped
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].kind, SpanKind::Encode);
    }

    #[test]
    fn gantt_shows_lanes_and_idle() {
        let mut t = Trace::new();
        t.record("encoders", SpanKind::Encode, 0.0, 1.0, 2);
        t.record("decoders", SpanKind::Decode, 0.5, 2.0, 32);
        t.record("decoders", SpanKind::KvTransfer, 2.0, 2.2, 2);
        let g = t.render_gantt(4.0, 40);
        assert!(g.contains("encoders"));
        assert!(g.contains("decoders"));
        assert!(g.contains('E') && g.contains('d') && g.contains('k'));
        assert!(g.contains('.'), "idle time is visible");
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        assert!(Trace::new().render_gantt(0.0, 40).contains("empty"));
    }
}
