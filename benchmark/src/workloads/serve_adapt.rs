//! `serve-adapt`: one adaptive replica through drift and a GPU failure.
//!
//! The `serve-shift` shape — OPT-13B on 4×A40, translation, Poisson
//! arrivals at 0.96× the plan's capacity under the shifted traffic, output
//! mean ×1.5 after the first quarter — plus GPU 3 failing at half the
//! arrival horizon and recovering at three quarters. Most of the step time
//! goes to the few steps that replan (drift reschedules, failover and
//! recovery) and swap plans, so this is the incremental-replan and
//! swap/fault path of core and serve, where `sched-paper` is the cold full
//! search.
//!
//! Untraced rounds call `ServeLowered::run`. Traced rounds drive the same
//! loop step by step through `ServeLoop::into_replica`, timing each step;
//! the harness checks that both produce the same event log.

use std::collections::BTreeMap;

use exegpt_scenario::{lower, Lowered, Scenario, ServeLowered};
use exegpt_serve::{Event, ServeError, ServeLoop, ServeReport, StepOutcome};
use exegpt_sim::Workload as Lengths;

use super::{
    cache_facts, check_plan, eval_probe, repeat_setup, replan_probe, unit_seed, Deployment, Size,
    UnitRun, Workload,
};
use crate::stats;
use crate::trace::Recorder;

const TEMPLATE: &str = r#"
name = "serve-adapt"
seed = {seed}

[model]
preset = "opt-13b"

[cluster]
preset = "a40"
gpus = 4

[workload]
kind = "task"
task = "translation"

[scheduler]
latency_bound_secs = 30.0

[serve]
total = {total}
adaptive = true

[serve.arrivals]
kind = "poisson_with_shift"
shift_after_frac = 0.25
scale_mean = 1.5

[serve.arrivals.rate]
kind = "capacity_frac"
frac = 0.96
of = "shifted"

[serve.slo]
e2e_secs = 36.0

[serve.drift]
window = 128
min_samples = 48
check_every = 16
rel_threshold = 0.15
consecutive = 2

[serve.faults]

[[serve.faults.events]]
t_frac = 0.5
kind = "gpu_fail"
gpu = 3

[[serve.faults.events]]
t_frac = 0.75
kind = "gpu_recover"
gpu = 3
"#;

/// The deterministic outcome of one trace.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    requests: f64,
    throughput: f64,
    e2e_p99: f64,
    ttft_p99: f64,
    queue_wait_p99: f64,
    slo_viol_rate: f64,
    reschedules: f64,
    replans: f64,
    plan_swaps: f64,
    replan_fallbacks: f64,
    retries: f64,
    swap_cost: f64,
    hit_rate: f64,
    entries: f64,
}

/// One serve step: wall seconds, and virtual time before and after it.
type Step = (f64, f64, f64);

/// Per-step wall times of one trace across traced rounds.
#[derive(Debug, Clone, Default)]
struct Steps {
    /// `rounds[r][k]`: time of step `k` in traced round `r` (the steps
    /// repeat exactly across rounds).
    rounds: Vec<Vec<f64>>,
    /// Whether the step's virtual-time interval holds a replan or swap.
    replans: Vec<bool>,
    /// Allocations of the whole serve call.
    allocs: u64,
}

/// The `serve-adapt` workload.
pub struct ServeAdapt {
    seed: u64,
    requests: usize,
    facts: Vec<Option<Facts>>,
    steps: Vec<Steps>,
    fell_back: Vec<bool>,
}

impl ServeAdapt {
    /// Profiles the deployment.
    ///
    /// # Errors
    ///
    /// Returns why profiling failed.
    pub fn new(seed: u64, size: Size, rec: &mut Recorder) -> Result<(Self, f64), String> {
        let dep = Deployment::new(
            exegpt_model::ModelConfig::opt_13b(),
            exegpt_cluster::ClusterSpec::a40_cluster(),
            4,
        )?;
        let ((), setup) = repeat_setup(size, rec, |rec| dep.profile(0, rec).map(drop))?;
        // Replans dominate a trace's cost and vary with the seed (a trace's
        // wall time has a 19 % coefficient of variation across seeds), so
        // many short traces keep the total steady.
        let units = size.pick(24, 1);
        let w = Self {
            seed,
            requests: size.pick(1000, 300),
            facts: vec![None; units],
            steps: vec![Steps::default(); units],
            fell_back: vec![false; units],
        };
        Ok((w, setup))
    }

    /// Serves the trace one step at a time, each step a `serve.step`
    /// span; returns the report, the wall seconds of the whole call, and
    /// each step's wall time and virtual interval.
    fn stepwise(
        &self,
        u: usize,
        s: ServeLowered,
        rec: &mut Recorder,
    ) -> (Result<ServeReport, ServeError>, f64, Vec<Step>) {
        let mut steps = Vec::with_capacity(self.requests + 64);
        let (report, secs) = rec.time("serve.run", u, |rec| {
            let mut session =
                ServeLoop::new(s.engine, &s.schedule.config, s.options)?.into_replica()?;
            for r in s.arrivals {
                session.inject(r);
            }
            loop {
                let t0 = session.now();
                let (outcome, secs) = rec.span("serve.step", u, |_| session.step());
                steps.push((secs, t0, session.now()));
                match outcome? {
                    StepOutcome::Progressed => {}
                    StepOutcome::Parked { until: Some(t) } => session.wake_to(t),
                    StepOutcome::Parked { until: None } | StepOutcome::Done => break,
                }
            }
            Ok(session.finish())
        });
        (report, secs, steps)
    }

    /// Keeps one traced round's step times; marks the replan steps the
    /// first time.
    fn keep_steps(&mut self, u: usize, steps: &[Step], report: &ServeReport, allocs: u64) {
        let acc = &mut self.steps[u];
        acc.allocs = allocs;
        if acc.rounds.is_empty() {
            // Virtual times of the events that replan or swap plans.
            let marks: Vec<f64> = report
                .events
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Reschedule { t, .. }
                    | Event::RescheduleFailed { t, .. }
                    | Event::Replan { t, .. }
                    | Event::ReplanFailed { t, .. }
                    | Event::PlanSwap { t, .. } => Some(*t),
                    _ => None,
                })
                .collect();
            acc.replans = steps
                .iter()
                .map(|&(_, t0, t1)| marks.iter().any(|&t| t0 <= t && t <= t1))
                .collect();
        }
        acc.rounds.push(steps.iter().map(|s| s.0).collect());
    }
}

impl Workload for ServeAdapt {
    fn units(&self) -> usize {
        self.facts.len()
    }

    fn run_unit(&mut self, u: usize, probe: bool, rec: &mut Recorder) -> UnitRun {
        let text = TEMPLATE
            .replace("{seed}", &unit_seed(self.seed, u).to_string())
            .replace("{total}", &self.requests.to_string());
        let (lowered, setup) = rec
            .time("scenario.lower", u, |_| Scenario::from_toml_str(&text).and_then(|s| lower(&s)));
        let mut run = UnitRun::new(setup, self.requests as u64);
        let s = match lowered {
            Ok(Lowered::Serve(s)) => s,
            Ok(_) => {
                run.fail("serve-adapt lowered to another mode");
                return run;
            }
            Err(e) => {
                run.fail(format!("serve-adapt unit {u}: {e}"));
                return run;
            }
        };
        let first = self.facts[u].is_none();
        if first {
            run.check(check_plan(&s.engine, &s.schedule));
        }
        if probe {
            // A same-sized arrival trace straight from the generator.
            let base = s.engine.simulator().workload().clone();
            let shifted = base
                .output()
                .with_scaled_mean(1.5)
                .map(|out| Lengths::new(base.input().clone(), out));
            match shifted {
                Ok(shifted) => {
                    let qps = 0.96 * s.schedule.estimate.throughput;
                    let seed = unit_seed(self.seed, u);
                    rec.time("workload.trace", u, |_| {
                        exegpt_serve::poisson_with_shift(
                            &base,
                            &shifted,
                            qps,
                            self.requests / 4,
                            self.requests,
                            seed,
                        )
                    });
                }
                Err(e) => run.fail(e.to_string()),
            }
            run.check(eval_probe(s.engine.simulator(), &s.schedule, u, rec));
            match replan_probe(&s.engine, &s.schedule, &s.options.scheduler, u, rec) {
                Ok(fell_back) => self.fell_back[u] = fell_back,
                Err(e) => run.fail(e),
            }
        }
        let (hit_rate, entries) = cache_facts(s.engine.simulator());
        let requests = s.arrivals.len();
        let report = if rec.tracing() {
            rec.reserve(2 * requests + 1024);
            let (report, secs, steps) = self.stepwise(u, s, rec);
            run.timed = secs;
            run.heap = rec.last_heap() as f64;
            let allocs = rec.last_allocs();
            if let Ok(r) = &report {
                let known = self.steps[u].replans.len();
                if known > 0 && known != steps.len() {
                    run.fail(format!("unit {u}: {} serve steps, {known} before", steps.len()));
                } else {
                    self.keep_steps(u, &steps, r, allocs);
                }
            }
            report.map_err(|e| e.to_string())
        } else {
            let (report, secs) = rec.time("serve.run", u, |_| s.run().map_err(|e| e.to_string()));
            run.timed = secs;
            run.heap = rec.last_heap() as f64;
            report
        };
        let r = match report {
            Ok(r) => r,
            Err(e) => {
                run.fail(format!("serve-adapt unit {u}: {e}"));
                return run;
            }
        };
        if r.completed + r.requests_lost != requests {
            run.fail(format!(
                "unit {u}: {} completed + {} lost != {requests} arrivals",
                r.completed, r.requests_lost
            ));
        }
        run.lose(r.requests_lost, "lost");
        run.ops = r.completed as f64;
        run.digest = exegpt_scenario::fnv1a(&r.events.to_jsonl());
        if first {
            let p99 = |s: Option<exegpt_dist::stats::Summary>| s.map_or(0.0, |s| s.p99);
            self.facts[u] = Some(Facts {
                requests: requests as f64,
                throughput: r.throughput,
                e2e_p99: p99(r.e2e),
                ttft_p99: p99(r.ttft),
                queue_wait_p99: p99(r.queue_wait),
                slo_viol_rate: r.slo.violation_rate(),
                reschedules: r.reschedules as f64,
                replans: r.replans as f64,
                plan_swaps: r.plan_swaps as f64,
                replan_fallbacks: r.replan_fallbacks as f64,
                retries: r.retries as f64,
                swap_cost: r.swap_cost,
                hit_rate,
                entries,
            });
        }
        run
    }

    fn quality(&self) -> (f64, f64) {
        let facts: Vec<Facts> = self.facts.iter().flatten().copied().collect();
        (
            stats::geomean(&facts.iter().map(|f| f.throughput).collect::<Vec<_>>()),
            stats::geomean(&facts.iter().map(|f| f.e2e_p99).collect::<Vec<_>>()),
        )
    }

    fn layer_metrics(&self, _traced: &Recorder, out: &mut BTreeMap<&'static str, f64>) {
        let facts: Vec<Facts> = self.facts.iter().flatten().copied().collect();
        let sum = |f: fn(&Facts) -> f64| facts.iter().map(f).sum::<f64>();
        let mean = |f: fn(&Facts) -> f64| stats::mean(&facts.iter().map(f).collect::<Vec<_>>());
        let requests = sum(|f| f.requests);
        // Each step's median over the traced rounds.
        let per_step: Vec<Vec<f64>> =
            self.steps.iter().map(|s| stats::per_unit_median(&s.rounds)).collect();
        let all: Vec<f64> = per_step.iter().flatten().copied().collect();
        let replan: f64 = per_step
            .iter()
            .zip(&self.steps)
            .flat_map(|(times, s)| times.iter().zip(&s.replans).filter(|(_, &m)| m).map(|(t, _)| t))
            .sum();
        let total: f64 = all.iter().sum();
        let allocs: f64 = self.steps.iter().map(|s| s.allocs as f64).sum();
        if let Some((_, p50)) = stats::tail_percentile(&all, 0.5) {
            out.insert("serve.step_us_p50", p50 * 1e6);
        }
        if let Some((_, p99)) = stats::tail_percentile(&all, 0.99) {
            out.insert("serve.step_us_p99", p99 * 1e6);
        }
        if requests > 0.0 {
            out.insert("serve.steps_per_req", all.len() as f64 / requests);
            out.insert("serve.allocs_per_req", allocs / requests);
        }
        if total > 0.0 {
            out.insert("serve.replan_step_share", replan / total);
        }
        out.insert("serve.reschedules", sum(|f| f.reschedules));
        out.insert("serve.replans", sum(|f| f.replans));
        out.insert("serve.plan_swaps", sum(|f| f.plan_swaps));
        out.insert("serve.replan_fallbacks", sum(|f| f.replan_fallbacks));
        out.insert("serve.retries", sum(|f| f.retries));
        out.insert("serve.queue_wait_p99", mean(|f| f.queue_wait_p99));
        out.insert("serve.ttft_p99", mean(|f| f.ttft_p99));
        out.insert("serve.swap_cost", mean(|f| f.swap_cost));
        out.insert("serve.slo_viol_rate", mean(|f| f.slo_viol_rate));
        out.insert("sim.cache_hit_rate", mean(|f| f.hit_rate));
        out.insert("sim.cache_entries", mean(|f| f.entries));
        out.insert("core.replan_fallbacks", self.fell_back.iter().filter(|&&b| b).count() as f64);
    }
}
