//! `replay-offline`: the offline runner replaying scheduled plans.
//!
//! OPT-13B on 4×A40 and T5-11B on 8×A40, five tasks each, scheduled at the
//! 30 % latency bound (the scheduler picks RRA for most and WAA-C for
//! some), each plan replayed over a batch of queries by `Runner::run`. Only
//! the runner's phase loops and KV tracker run in the timed span; the
//! scheduler runs while lowering.

use std::collections::BTreeMap;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_runner::RunReport;
use exegpt_scenario::{lower, Lowered, Scenario};
use exegpt_workload::Task;

use super::{
    cache_facts, check_plan, eval_probe, repeat_setup, task_key, unit_seed, Deployment, Size,
    UnitRun, Workload,
};
use crate::stats;
use crate::trace::Recorder;

const TEMPLATE: &str = r#"
name = "replay-offline"
seed = {seed}

[model]
preset = "{model}"

[cluster]
preset = "a40"
gpus = {gpus}

[workload]
kind = "task"
task = "{task}"

[scheduler]
latency_bound_secs = {bound}

[replay]
num_queries = {queries}
"#;

/// The deterministic outcome of one replayed plan.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    queries: f64,
    throughput: f64,
    latency_p99: f64,
    tokens: f64,
    kv_frac: f64,
    hit_rate: f64,
    entries: f64,
}

/// The `replay-offline` workload.
pub struct ReplayOffline {
    seed: u64,
    queries: usize,
    /// One scenario file (minus its seed) per plan.
    plans: Vec<String>,
    facts: Vec<Option<Facts>>,
    /// Allocations of each unit's replay in the traced rounds.
    allocs: Vec<Option<u64>>,
}

impl ReplayOffline {
    /// Profiles the deployments and derives each plan's latency bound.
    ///
    /// # Errors
    ///
    /// Returns why profiling or the baseline sweep failed.
    pub fn new(seed: u64, size: Size, rec: &mut Recorder) -> Result<(Self, f64), String> {
        let deployments = size.pick(
            vec![("opt-13b", ModelConfig::opt_13b(), 4), ("t5-11b", ModelConfig::t5_11b(), 8)],
            vec![("opt-13b", ModelConfig::opt_13b(), 4)],
        );
        let tasks = size.pick(Task::all().to_vec(), vec![Task::Translation]);
        let queries = size.pick(4000, 200);
        let (plans, setup) = repeat_setup(size, rec, |rec| {
            let mut plans = Vec::new();
            for (d, (preset, model, gpus)) in deployments.iter().enumerate() {
                let dep = Deployment::new(model.clone(), ClusterSpec::a40_cluster(), *gpus)?;
                let profile = dep.profile(d, rec)?;
                for &task in &tasks {
                    let lengths = task.workload().map_err(|e| e.to_string())?;
                    let [_, p30, _] = dep.bounds(&profile, &lengths, plans.len(), rec)?;
                    plans.push(
                        TEMPLATE
                            .replace("{model}", preset)
                            .replace("{gpus}", &gpus.to_string())
                            .replace("{task}", task_key(task))
                            .replace("{bound}", &format!("{:?}", p30.as_secs()))
                            .replace("{queries}", &queries.to_string()),
                    );
                }
            }
            Ok(plans)
        })?;
        let n = plans.len();
        let w = Self { seed, queries, plans, facts: vec![None; n], allocs: vec![None; n] };
        Ok((w, setup))
    }
}

/// Digest of a replay's deterministic facts (the runner keeps no event
/// log).
fn replay_digest(r: &RunReport) -> u64 {
    exegpt_scenario::fnv1a(&format!(
        "{} {} {:?} {:?} {:?} {:?} {}",
        r.completed,
        r.tokens_generated,
        r.makespan.as_secs(),
        r.throughput,
        r.latency_summary(),
        r.encoder_stage_times.iter().sum::<f64>(),
        r.peak_kv_bytes
    ))
}

impl Workload for ReplayOffline {
    fn units(&self) -> usize {
        self.plans.len()
    }

    fn run_unit(&mut self, u: usize, probe: bool, rec: &mut Recorder) -> UnitRun {
        let text = self.plans[u].replace("{seed}", &unit_seed(self.seed, u).to_string());
        let (lowered, setup) = rec
            .time("scenario.lower", u, |_| Scenario::from_toml_str(&text).and_then(|s| lower(&s)));
        let mut run = UnitRun::new(setup, self.queries as u64);
        let r = match lowered {
            Ok(Lowered::Replay(r)) => r,
            Ok(_) => {
                run.fail("replay-offline lowered to another mode");
                return run;
            }
            Err(e) => {
                run.fail(format!("replay-offline unit {u}: {e}"));
                return run;
            }
        };
        let first = self.facts[u].is_none();
        if first {
            run.check(check_plan(&r.engine, &r.schedule));
        }
        if probe {
            run.check(eval_probe(r.engine.simulator(), &r.schedule, u, rec));
        }
        let (hit_rate, entries) = cache_facts(r.engine.simulator());
        let capacity = r.engine.simulator().usable_capacity();
        let (report, secs) = rec.time("runner.run", u, |_| r.run());
        run.timed = secs;
        run.heap = rec.last_heap() as f64;
        if rec.tracing() {
            // The runner is single-threaded: its allocation count repeats.
            let allocs = rec.last_allocs();
            if self.allocs[u].is_some_and(|a| a != allocs) {
                run.fail(format!("unit {u}: runner allocations {allocs} != {:?}", self.allocs[u]));
            }
            self.allocs[u] = Some(allocs);
        }
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                run.fail(format!("replay-offline unit {u}: {e}"));
                return run;
            }
        };
        if report.completed != self.queries {
            run.fail(format!(
                "unit {u}: {} of {} queries completed",
                report.completed, self.queries
            ));
        }
        run.ops = report.completed as f64;
        run.digest = replay_digest(&report);
        if first {
            let kv_room = capacity.saturating_sub(report.param_bytes);
            self.facts[u] = Some(Facts {
                queries: self.queries as f64,
                throughput: report.throughput,
                latency_p99: report.p99_latency(),
                tokens: report.tokens_generated as f64,
                kv_frac: if kv_room > 0 {
                    report.peak_kv_bytes as f64 / kv_room as f64
                } else {
                    0.0
                },
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
            stats::geomean(&facts.iter().map(|f| f.latency_p99).collect::<Vec<_>>()),
        )
    }

    fn layer_metrics(&self, traced: &Recorder, out: &mut BTreeMap<&'static str, f64>) {
        let facts: Vec<Facts> = self.facts.iter().flatten().copied().collect();
        let queries: f64 = facts.iter().map(|f| f.queries).sum();
        let tokens: f64 = facts.iter().map(|f| f.tokens).sum();
        let allocs: f64 = self.allocs.iter().flatten().map(|&a| a as f64).sum();
        let secs: f64 = traced.medians("runner.run").iter().sum();
        if secs > 0.0 {
            out.insert("runner.tokens_per_s", tokens / secs);
        }
        if queries > 0.0 {
            out.insert("runner.allocs_per_req", allocs / queries);
        }
        out.insert("runner.peak_kv_frac", facts.iter().map(|f| f.kv_frac).fold(0.0, f64::max));
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
