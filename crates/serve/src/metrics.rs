//! The serving loop's metrics registry.
//!
//! Counters, gauges and latency histograms keyed by name, with summaries
//! (mean/p50/p95/p99/max) computed through the shared
//! [`exegpt_dist::stats::summary`] helper — the same percentile code the
//! offline runner reports use, so online and offline numbers agree by
//! construction.

use std::collections::BTreeMap;

use exegpt_dist::stats::{self, Summary};
use serde::Serialize;

/// In-memory metrics registry: monotonic counters, last-write-wins gauges
/// and raw-sample histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<f64>>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    // The updates below look an existing entry up in place and own the
    // name only on first insert: they run on every serve step and fleet
    // dispatch, where a per-call allocation would dominate the update.

    /// Increments counter `name` by `n` (`n = 0` still creates the
    /// counter).
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(v) = self.histograms.get_mut(name) {
            v.push(value);
        } else {
            self.histograms.insert(name.to_owned(), vec![value]);
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Raw samples of histogram `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.histograms.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary statistics of histogram `name` (`None` if empty/absent).
    pub fn summary(&self, name: &str) -> Option<Summary> {
        stats::summary(self.samples(name))
    }

    /// An immutable, serializable snapshot: histograms are collapsed to
    /// their summaries. Map-backed, so the rendering order (and the JSON
    /// byte stream) is deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            summaries: self
                .histograms
                .iter()
                .filter_map(|(k, v)| stats::summary(v).map(|s| (k.clone(), s)))
                .collect(),
        }
    }
}

/// Point-in-time view of a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries (count/mean/p50/p95/p99/max).
    pub summaries: BTreeMap<String, Summary>,
}

impl MetricsSnapshot {
    /// Renders a fixed-width text table (for CLI output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<28} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<28} {v:.6}\n"));
        }
        for (k, s) in &self.summaries {
            out.push_str(&format!(
                "{k:<28} n={} mean={:.4}s p50={:.4}s p95={:.4}s p99={:.4}s max={:.4}s\n",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = Metrics::new();
        m.inc("completions");
        m.add("completions", 2);
        m.gauge("queue_depth", 7.0);
        for i in 1..=100 {
            m.observe("e2e", i as f64);
        }
        assert_eq!(m.counter("completions"), 3);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge_value("queue_depth"), Some(7.0));
        let s = m.summary("e2e").expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert!(m.summary("missing").is_none());
    }

    #[test]
    fn snapshot_is_deterministic_and_serializable() {
        let mut m = Metrics::new();
        m.inc("b");
        m.inc("a");
        m.observe("lat", 1.0);
        let snap = m.snapshot();
        let j1 = serde_json::to_string(&snap).expect("serializes");
        let j2 = serde_json::to_string(&m.snapshot()).expect("serializes");
        assert_eq!(j1, j2, "snapshot serialization is stable");
        // BTreeMap ordering: "a" before "b" in the rendered table.
        let table = snap.render();
        assert!(table.find("a ").unwrap() < table.find("b ").unwrap());
        assert!(table.contains("p99"));
    }

    #[test]
    fn updates_keep_registry_semantics() {
        let mut m = Metrics::new();
        // A zero add on a new name still creates the counter.
        m.add("zero", 0);
        assert_eq!(m.snapshot().counters.get("zero"), Some(&0));
        m.add("zero", 3);
        m.inc("zero");
        assert_eq!(m.counter("zero"), 4);
        // A repeated gauge overwrites.
        m.gauge("depth", 5.0);
        m.gauge("depth", 2.0);
        assert_eq!(m.gauge_value("depth"), Some(2.0));
        assert_eq!(m.snapshot().gauges.len(), 1);
        // Samples keep insertion order; the summary sees all of them.
        for x in [3.0, 1.0, 2.0] {
            m.observe("lat", x);
        }
        assert_eq!(m.samples("lat"), &[3.0, 1.0, 2.0]);
        assert_eq!(m.summary("lat"), stats::summary(&[3.0, 1.0, 2.0]));
        assert_eq!(m.snapshot().summaries.get("lat"), m.summary("lat").as_ref());
        // A name never updated stays absent.
        let snap = m.snapshot();
        assert!(!snap.counters.contains_key("never"));
        assert!(!snap.gauges.contains_key("never"));
        assert!(!snap.summaries.contains_key("never"));
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge_value("never"), None);
        assert!(m.samples("never").is_empty());
    }
}
