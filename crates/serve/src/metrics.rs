//! The serving loop's metrics registry.
//!
//! Counters, gauges and latency histograms live in one `Vec` of slots,
//! with a name → slot map per kind (counters, gauges and histograms are
//! separate namespaces). Names are looked up once: the serve step and the
//! fleet resolve every per-request metric to a typed handle
//! ([`CounterId`], [`GaugeId`], [`HistogramId`]) when the session or fleet
//! is built, and update through it by indexing. The name-keyed methods
//! stay for cold paths and are the same lookup plus the same slot update.
//! A slot stays out of the snapshot until its first update, so resolving
//! a handle publishes nothing; `add(name, 0)` still creates the counter.
//!
//! Summaries (mean/p50/p95/p99/max) go through the shared
//! [`exegpt_dist::stats`] helpers — the same percentile code the offline
//! runner reports use, so online and offline numbers agree by
//! construction. [`Metrics::into_snapshot`] turns each histogram's buffer
//! into a [`SortedSample`], which sorts it as integer keys in place: no
//! sample is copied. [`Metrics::into_snapshot_keeping`] also hands back
//! the sorted samples of chosen histograms, so a caller that rolls
//! registries up (the fleet, over its replica sessions) merges them in
//! linear time instead of recording and sorting the samples again.

use std::collections::BTreeMap;

use exegpt_dist::stats::{self, SortedSample, Summary};
use serde::Serialize;

/// Handle to a counter of the [`Metrics`] registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge of the [`Metrics`] registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram of the [`Metrics`] registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// One metric's value.
#[derive(Debug, Clone)]
enum Slot {
    /// `None` until the first update.
    Counter(Option<u64>),
    /// `None` until the first update.
    Gauge(Option<f64>),
    /// Raw samples, in insertion order; empty until the first update.
    Histogram(Vec<f64>),
}

/// In-memory metrics registry: monotonic counters, last-write-wins gauges
/// and raw-sample histograms. A handle belongs to the registry that
/// issued it.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Name → index into `slots`, one map per kind.
    counters: BTreeMap<String, usize>,
    gauges: BTreeMap<String, usize>,
    histograms: BTreeMap<String, usize>,
    slots: Vec<Slot>,
}

/// The slot of `name` in `names`, created as `fresh` on first use. The
/// name is owned only then.
fn resolve(
    names: &mut BTreeMap<String, usize>,
    slots: &mut Vec<Slot>,
    name: &str,
    fresh: Slot,
) -> usize {
    if let Some(&i) = names.get(name) {
        return i;
    }
    slots.push(fresh);
    names.insert(name.to_owned(), slots.len() - 1);
    slots.len() - 1
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of counter `name`, registering it (not yet in the
    /// snapshot) on first use.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(resolve(&mut self.counters, &mut self.slots, name, Slot::Counter(None)))
    }

    /// The handle of gauge `name`, registering it (not yet in the
    /// snapshot) on first use.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId(resolve(&mut self.gauges, &mut self.slots, name, Slot::Gauge(None)))
    }

    /// The handle of histogram `name`, registering it (not yet in the
    /// snapshot) on first use.
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        HistogramId(resolve(
            &mut self.histograms,
            &mut self.slots,
            name,
            Slot::Histogram(Vec::new()),
        ))
    }

    /// Increments the counter behind `id` by 1.
    pub fn inc_at(&mut self, id: CounterId) {
        self.add_at(id, 1);
    }

    /// Increments the counter behind `id` by `n` (`n = 0` still puts it in
    /// the snapshot).
    pub fn add_at(&mut self, id: CounterId, n: u64) {
        if let Some(Slot::Counter(v)) = self.slots.get_mut(id.0) {
            *v.get_or_insert(0) += n;
        }
    }

    /// Sets the gauge behind `id` to `value`.
    pub fn gauge_at(&mut self, id: GaugeId, value: f64) {
        if let Some(Slot::Gauge(v)) = self.slots.get_mut(id.0) {
            *v = Some(value);
        }
    }

    /// Records one sample into the histogram behind `id`.
    pub fn observe_at(&mut self, id: HistogramId, value: f64) {
        if let Some(Slot::Histogram(v)) = self.slots.get_mut(id.0) {
            v.push(value);
        }
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `n` (`n = 0` still creates the
    /// counter).
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.counter_id(name);
        self.add_at(id, n);
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let id = self.gauge_id(name);
        self.gauge_at(id, value);
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        let id = self.histogram_id(name);
        self.observe_at(id, value);
    }

    /// The slot `names` maps `name` to, if any.
    fn slot(&self, names: &BTreeMap<String, usize>, name: &str) -> Option<&Slot> {
        names.get(name).and_then(|&i| self.slots.get(i))
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        match self.slot(&self.counters, name) {
            Some(Slot::Counter(v)) => v.unwrap_or(0),
            _ => 0,
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.slot(&self.gauges, name) {
            Some(Slot::Gauge(v)) => *v,
            _ => None,
        }
    }

    /// Raw samples of histogram `name`, in insertion order.
    pub fn samples(&self, name: &str) -> &[f64] {
        match self.slot(&self.histograms, name) {
            Some(Slot::Histogram(v)) => v,
            _ => &[],
        }
    }

    /// Summary statistics of histogram `name` (`None` if empty/absent).
    pub fn summary(&self, name: &str) -> Option<Summary> {
        stats::summary(self.samples(name))
    }

    /// An immutable, serializable snapshot: histograms are collapsed to
    /// their summaries (each sorted in a copy). Map-backed, so the
    /// rendering order (and the JSON byte stream) is deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.clone().into_snapshot()
    }

    /// [`snapshot`](Self::snapshot) of a registry no longer needed: each
    /// histogram's buffer is summarized in place, with no copy.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        self.into_snapshot_keeping([]).0
    }

    /// [`into_snapshot`](Self::into_snapshot) that also returns the sorted
    /// samples of the histograms in `keep`, in `keep`'s order: the buffers
    /// the summaries were read from, so nothing is copied. A histogram
    /// never updated gives an empty sample.
    pub fn into_snapshot_keeping<const N: usize>(
        self,
        keep: [HistogramId; N],
    ) -> (MetricsSnapshot, [SortedSample; N]) {
        let mut slots = self.slots;
        let mut kept = std::array::from_fn(|_| SortedSample::default());
        let counters = self
            .counters
            .into_iter()
            .filter_map(|(name, i)| match slots.get(i) {
                Some(Slot::Counter(Some(v))) => Some((name, *v)),
                _ => None,
            })
            .collect();
        let gauges = self
            .gauges
            .into_iter()
            .filter_map(|(name, i)| match slots.get(i) {
                Some(Slot::Gauge(Some(v))) => Some((name, *v)),
                _ => None,
            })
            .collect();
        let summaries = self
            .histograms
            .into_iter()
            .filter_map(|(name, i)| {
                let Some(Slot::Histogram(v)) = slots.get_mut(i) else { return None };
                let sample = SortedSample::new(std::mem::take(v));
                let summary = sample.summary()?;
                let at = keep.iter().position(|id| id.0 == i);
                if let Some(slot) = at.and_then(|at| kept.get_mut(at)) {
                    *slot = sample;
                }
                Some((name, summary))
            })
            .collect();
        (MetricsSnapshot { counters, gauges, summaries }, kept)
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
    use proptest::prelude::*;

    /// Names shared by all three kinds, which are separate namespaces.
    const NAMES: [&str; 4] = ["e2e", "completions", "queue_depth", "ttft"];

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Add(usize, u64),
        Gauge(usize, f64),
        Observe(usize, f64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let name = 0..NAMES.len();
        prop_oneof![
            (name.clone(), 0u64..3).prop_map(|(i, n)| Op::Add(i, n)),
            (name.clone(), -1e3f64..1e3).prop_map(|(i, v)| Op::Gauge(i, v)),
            (name, -1e3f64..1e3).prop_map(|(i, v)| Op::Observe(i, v)),
        ]
    }

    proptest! {
        /// Updates through names and through handles resolved up front
        /// (for every name of every kind, updated or not) give the same
        /// registry: zero adds create a counter, and names never updated
        /// stay absent.
        #[test]
        fn handles_and_names_give_identical_snapshots(
            ops in prop::collection::vec(arb_op(), 0..64),
        ) {
            let mut by_name = Metrics::new();
            let mut by_id = Metrics::new();
            let counters: Vec<CounterId> = NAMES.iter().map(|n| by_id.counter_id(n)).collect();
            let gauges: Vec<GaugeId> = NAMES.iter().map(|n| by_id.gauge_id(n)).collect();
            let histograms: Vec<HistogramId> =
                NAMES.iter().map(|n| by_id.histogram_id(n)).collect();
            let mut touched = [[false; NAMES.len()]; 3];
            for op in &ops {
                match *op {
                    Op::Add(i, n) => {
                        by_name.add(NAMES[i], n);
                        by_id.add_at(counters[i], n);
                        touched[0][i] = true;
                    }
                    Op::Gauge(i, v) => {
                        by_name.gauge(NAMES[i], v);
                        by_id.gauge_at(gauges[i], v);
                        touched[1][i] = true;
                    }
                    Op::Observe(i, v) => {
                        by_name.observe(NAMES[i], v);
                        by_id.observe_at(histograms[i], v);
                        touched[2][i] = true;
                    }
                }
            }
            for name in NAMES {
                prop_assert_eq!(by_name.counter(name), by_id.counter(name));
                prop_assert_eq!(by_name.gauge_value(name), by_id.gauge_value(name));
                prop_assert_eq!(by_name.samples(name), by_id.samples(name));
            }
            let snap = by_id.snapshot();
            prop_assert_eq!(&snap, &by_name.snapshot());
            for (i, name) in NAMES.iter().enumerate() {
                prop_assert_eq!(snap.counters.contains_key(*name), touched[0][i]);
                prop_assert_eq!(snap.gauges.contains_key(*name), touched[1][i]);
                prop_assert_eq!(snap.summaries.contains_key(*name), touched[2][i]);
            }
            // The keeping snapshot is the same snapshot, and each kept
            // sample is its histogram's samples, sorted.
            let (kept_snap, kept) = by_id.clone().into_snapshot_keeping([
                histograms[3],
                histograms[0],
            ]);
            prop_assert_eq!(&kept_snap, &snap);
            for (sample, name) in kept.iter().zip(["ttft", "e2e"]) {
                prop_assert_eq!(sample.summary(), by_id.summary(name));
                prop_assert_eq!(sample, &SortedSample::new(by_id.samples(name).to_vec()));
            }
            prop_assert_eq!(&by_name.into_snapshot(), &snap);
            prop_assert_eq!(by_id.into_snapshot(), snap);
        }
    }

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
