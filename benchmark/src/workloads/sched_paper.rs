//! `sched-paper`: cold full searches over the Figure 6 grid.
//!
//! Four deployments × five tasks × the 10 % and 70 % latency bounds (40
//! cases), each one `Engine::schedule_with` at default options on a fresh
//! engine (empty evaluation cache). Scheduler and simulator do all the
//! work. The grid has no randomness: the seed is ignored.

use std::collections::BTreeMap;
use std::time::Instant;

use exegpt::{Engine, ScheduleError, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_units::Secs;
use exegpt_workload::Task;

use super::{
    cache_facts, check_plan, eval_probe, repeat_setup, replan_probe, schedule_digest, Deployment,
    Size, UnitRun, Workload,
};
use crate::stats;
use crate::trace::Recorder;

struct Case {
    engine: Engine,
    bound: Secs,
    name: String,
}

/// The deterministic outcome of one case.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// `(throughput, latency)` of the chosen plan; `None` when no plan
    /// meets the bound.
    plan: Option<(f64, f64)>,
    evals: f64,
    cache_hits: f64,
    hit_rate: f64,
    entries: f64,
}

/// The `sched-paper` workload.
pub struct SchedPaper {
    cases: Vec<Case>,
    facts: Vec<Option<Facts>>,
    fell_back: Vec<bool>,
}

impl SchedPaper {
    /// Profiles the deployments and derives the bounds.
    ///
    /// # Errors
    ///
    /// Returns why profiling, the baseline sweep or an engine build failed.
    pub fn new(size: Size, rec: &mut Recorder) -> Result<(Self, f64), String> {
        let deployments = size.pick(
            vec![
                ("T5-11B/8xA40", ModelConfig::t5_11b(), ClusterSpec::a40_cluster(), 8),
                ("OPT-13B/4xA40", ModelConfig::opt_13b(), ClusterSpec::a40_cluster(), 4),
                ("GPT-3-39B/16xA40", ModelConfig::gpt3_39b(), ClusterSpec::a40_cluster(), 16),
                ("GPT-3-101B/16xA100", ModelConfig::gpt3_101b(), ClusterSpec::a100_cluster(), 16),
            ],
            vec![("OPT-13B/4xA40", ModelConfig::opt_13b(), ClusterSpec::a40_cluster(), 4)],
        );
        let tasks = size.pick(Task::all().to_vec(), vec![Task::Summarization]);
        let (cases, setup) = repeat_setup(size, rec, |rec| {
            let mut cases = Vec::new();
            for (d, (name, model, base, gpus)) in deployments.iter().enumerate() {
                let dep = Deployment::new(model.clone(), base.clone(), *gpus)?;
                let profile = dep.profile(d, rec)?;
                for &task in &tasks {
                    let lengths = task.workload().map_err(|e| e.to_string())?;
                    let [p10, _, p70] = dep.bounds(&profile, &lengths, cases.len() / 2, rec)?;
                    let engine = Engine::builder()
                        .model(dep.model.clone())
                        .cluster(dep.cluster.clone())
                        .workload(lengths)
                        .profile(profile.clone())
                        .build()
                        .map_err(|e| e.to_string())?;
                    for (pct, bound) in [("10%", p10), ("70%", p70)] {
                        let name = format!("{name} {} L_B={pct}", task.id());
                        cases.push(Case { engine: engine.clone(), bound, name });
                    }
                }
            }
            Ok(cases)
        })?;
        let n = cases.len();
        Ok((Self { cases, facts: vec![None; n], fell_back: vec![false; n] }, setup))
    }
}

impl Workload for SchedPaper {
    fn units(&self) -> usize {
        self.cases.len()
    }

    fn run_unit(&mut self, u: usize, probe: bool, rec: &mut Recorder) -> UnitRun {
        let case = &self.cases[u];
        let t0 = Instant::now();
        let fresh = case.engine.with_workload(case.engine.simulator().workload().clone());
        let mut run = UnitRun::new(t0.elapsed().as_secs_f64(), 1);
        let opts = SchedulerOptions::bounded(case.bound);
        let (result, secs) = rec.time("core.schedule", u, |_| fresh.schedule_with(&opts));
        run.timed = secs;
        run.heap = rec.last_heap() as f64;
        let (hit_rate, entries) = cache_facts(fresh.simulator());
        let facts = match result {
            Ok(s) => {
                run.ops = 1.0;
                run.digest = schedule_digest(&s);
                if self.facts[u].is_none() {
                    run.check(check_plan(&fresh, &s).map_err(|e| format!("{}: {e}", case.name)));
                }
                if probe {
                    run.check(eval_probe(fresh.simulator(), &s, u, rec));
                    match replan_probe(&fresh, &s, &opts, u, rec) {
                        Ok(fell_back) => self.fell_back[u] = fell_back,
                        Err(e) => run.fail(format!("{}: {e}", case.name)),
                    }
                }
                Facts {
                    plan: Some((s.estimate.throughput, s.estimate.latency.as_secs())),
                    evals: s.evals as f64,
                    cache_hits: s.cache_hits as f64,
                    hit_rate,
                    entries,
                }
            }
            Err(ScheduleError::NoFeasibleSchedule { .. }) => {
                // "NS" is an answer, not a failure.
                run.ops = 1.0;
                run.digest = exegpt_scenario::fnv1a("NS");
                Facts { plan: None, evals: 0.0, cache_hits: 0.0, hit_rate, entries }
            }
            Err(e) => {
                run.fail(format!("{}: {e}", case.name));
                return run;
            }
        };
        self.facts[u].get_or_insert(facts);
        run
    }

    fn quality(&self) -> (f64, f64) {
        let plans: Vec<(f64, f64)> = self.facts.iter().flatten().filter_map(|f| f.plan).collect();
        let throughput: Vec<f64> = plans.iter().map(|p| p.0).collect();
        let latency: Vec<f64> = plans.iter().map(|p| p.1).collect();
        (stats::geomean(&throughput), stats::geomean(&latency))
    }

    fn layer_metrics(&self, _traced: &Recorder, out: &mut BTreeMap<&'static str, f64>) {
        let facts: Vec<Facts> = self.facts.iter().flatten().copied().collect();
        let feasible: Vec<&Facts> = facts.iter().filter(|f| f.plan.is_some()).collect();
        let of =
            |f: fn(&Facts) -> f64| stats::mean(&feasible.iter().map(|x| f(x)).collect::<Vec<_>>());
        out.insert("core.evals_per_schedule", of(|f| f.evals));
        out.insert("core.cache_hits_per_schedule", of(|f| f.cache_hits));
        out.insert("core.infeasible", (facts.len() - feasible.len()) as f64);
        out.insert("core.replan_fallbacks", self.fell_back.iter().filter(|&&b| b).count() as f64);
        out.insert(
            "sim.cache_hit_rate",
            stats::mean(&facts.iter().map(|f| f.hit_rate).collect::<Vec<_>>()),
        );
        out.insert(
            "sim.cache_entries",
            stats::mean(&facts.iter().map(|f| f.entries).collect::<Vec<_>>()),
        );
    }
}
