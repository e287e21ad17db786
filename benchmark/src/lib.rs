//! Wall-clock benchmark of the ExeGPT stack (see `README.md`).
//!
//! [`run`] builds a workload, then runs its units in interleaved rounds
//! until the time budget is spent, with a calibration run before each unit
//! and after the last. Each unit's median round, in reference seconds (see
//! [`calib`]), estimates its cost; work per second is total work over the
//! sum of those medians. An untraced run reports the end-to-end metrics. A
//! traced run alternates untraced and traced rounds and reports the
//! per-layer metrics, including the overhead of tracing itself.

// Reading the wall clock is this crate's purpose; the workspace lint
// configuration forbids it for the library crates it measures.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod calib;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER};
use trace::{Recorder, Span};
pub use workloads::Size;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`metrics::WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall seconds to keep running rounds for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Full or tiny.
    pub size: Size,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// `(name, value, unit)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Failed operations and failed checks over all rounds.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// Traced runs: `(layer, self seconds, share of traced wall time)`.
    pub self_times: Vec<(&'static str, f64, f64)>,
    /// Traced runs: every span.
    pub spans: Vec<Span>,
}

impl Report {
    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns why the workload is unknown or its set-up failed.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut plain = Recorder::new(false);
    let mut traced = Recorder::new(true);
    let setup_rec = if opts.trace { &mut traced } else { &mut plain };
    let (mut w, setup_once) = workloads::build(&opts.workload, opts.seed, opts.size, setup_rec)?;
    let n = w.units();

    let min_rounds = match (opts.size, opts.trace) {
        (Size::Tiny, trace) => 1 + usize::from(trace),
        (Size::Full, false) => 3,
        (Size::Full, true) => 4,
    };
    let mut digests: Vec<Option<u64>> = vec![None; n];
    let mut ops = vec![0.0; n];
    // Per round, per unit: the timed call in reference seconds, and (in
    // untraced rounds) its peak heap in MiB.
    let (mut plain_rounds, mut traced_rounds, mut heap_rounds) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut round_setup = Vec::new();
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < opts.seconds {
        // Traced runs alternate: even rounds untraced, odd rounds traced;
        // the first two traced rounds also run the per-layer probes.
        let tracing = opts.trace && round % 2 == 1;
        let probe = tracing && round < 4;
        let rec = if tracing { &mut traced } else { &mut plain };
        rec.reserve(1 << 16);
        alloc::set_counting(tracing);
        let ((runs, cal), _) = rec.time("bench.round", round, |rec| {
            let mut cal = vec![calib::measure()];
            let mut runs = Vec::with_capacity(n);
            for u in 0..n {
                runs.push(w.run_unit(u, probe, rec));
                cal.push(calib::measure());
            }
            (runs, cal)
        });
        alloc::set_counting(false);
        let mut setup = 0.0;
        let (mut times, mut heap) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (u, r) in runs.into_iter().enumerate() {
            setup += calib::to_reference(r.setup, cal[u], cal[u + 1]);
            times.push(calib::to_reference(r.timed, cal[u], cal[u + 1]));
            heap.push(r.heap / (1024.0 * 1024.0));
            attempted += r.attempted;
            failed += r.failed;
            problems.extend(r.problems);
            ops[u] = r.ops;
            match digests[u] {
                None => digests[u] = Some(r.digest),
                Some(d) if d != r.digest => {
                    failed += 1;
                    problems.push(format!("unit {u}: output differs in round {round}"));
                }
                Some(_) => {}
            }
        }
        round_setup.push(setup);
        if tracing {
            traced_rounds.push(times);
        } else {
            plain_rounds.push(times);
            heap_rounds.push(heap);
        }
        round += 1;
    }

    let seconds = |rounds: &[Vec<f64>]| stats::per_unit_median(rounds).iter().sum::<f64>();
    let (metrics, self_times) = if opts.trace {
        let mut values = BTreeMap::new();
        w.layer_metrics(&traced, &mut values);
        let self_times = generic_layer_metrics(&traced, &mut values);
        let (t, p) = (seconds(&traced_rounds), seconds(&plain_rounds));
        if p > 0.0 {
            values.insert("bench.trace_overhead", t / p - 1.0);
        }
        values.insert("bench.rounds", round as f64);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        (metrics, self_times)
    } else {
        let (virt_qps, virt_e2e_p99) = w.quality();
        let values = [
            setup_once + stats::median(&round_setup),
            stats::work_per_second(&ops, &stats::per_unit_median(&plain_rounds)),
            stats::mean(&stats::per_unit_median(&heap_rounds)),
            virt_qps,
            virt_e2e_p99,
        ];
        let metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect();
        (metrics, Vec::new())
    };
    let mut report =
        Report { metrics, attempted, failed, problems, self_times, spans: traced.spans().to_vec() };
    for m in &mut report.metrics {
        if !m.1.is_finite() {
            report.failed += 1;
            report.problems.push(format!("metric {} is {}", m.0, m.1));
            m.1 = 0.0;
        }
    }
    Ok(report)
}

/// The per-layer metrics any workload's traced spans give: call times per
/// layer (each unit's median call, then the mean, median or a tail over
/// units) and each layer's share of traced wall time. Returns the self
/// time table.
fn generic_layer_metrics(
    traced: &Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, f64)> {
    let sum = |name| traced.medians(name).iter().sum::<f64>();
    let mean_ms = |name| stats::mean(&traced.medians(name)) * 1e3;
    let median_ms = |name| stats::median(&traced.medians(name)) * 1e3;
    out.insert("scenario.lower_ms", mean_ms("scenario.lower"));
    out.insert("workload.trace_ms", mean_ms("workload.trace"));
    out.insert("profiler.profile_ms", sum("profiler.run") * 1e3);
    out.insert("sim.eval_cold_us", mean_ms("sim.evaluate_cold") * 1e3);
    out.insert("sim.eval_warm_us", mean_ms("sim.evaluate_warm") * 1e3);
    let schedule = traced.medians("core.schedule");
    if let Some((_, p50)) = stats::tail_percentile(&schedule, 0.5) {
        out.insert("core.schedule_ms_p50", p50 * 1e3);
    }
    if let Some((_, p75)) = stats::tail_percentile(&schedule, 0.75) {
        out.insert("core.schedule_ms_p75", p75 * 1e3);
    }
    out.insert("core.replan_ms_p50", median_ms("core.reschedule_incremental"));
    let incremental = sum("core.reschedule_incremental");
    if incremental > 0.0 {
        out.insert("core.replan_speedup", sum("core.reschedule") / incremental);
    }
    out.insert("runner.run_ms_p50", median_ms("runner.run"));
    out.insert("fleet.run_ms_p50", median_ms("fleet.run"));

    // Roots are the set-up repetitions and the traced rounds.
    let spans = traced.spans();
    let wall: f64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::secs).sum();
    let self_time = trace::self_time_by_layer(spans);
    let share = |secs: f64| if wall > 0.0 { secs / wall } else { 0.0 };
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".wall_share") {
            out.insert(name, share(self_time.get(layer).copied().unwrap_or(0.0)));
        }
    }
    self_time.into_iter().map(|(layer, secs)| (layer, secs, share(secs))).collect()
}
