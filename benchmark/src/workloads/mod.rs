//! The four workloads and what they share.
//!
//! A workload is a fixed list of deterministic *units* (one schedule
//! call, serve trace, fleet trace or replayed plan). The harness runs every
//! unit once per round; [`Workload::run_unit`] does the unit's set-up, then
//! the one timed call, then checks the output.

use std::collections::BTreeMap;
use std::sync::Arc;

use exegpt::{Engine, PlanInvariants, Schedule, ScheduleError, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_sim::{Simulator, Workload as Lengths};
use exegpt_workload::Task;

use crate::trace::Recorder;
use crate::{calib, stats};

mod fleet_tenants;
mod replay_offline;
mod sched_paper;
mod serve_adapt;

pub use fleet_tenants::FleetTenants;
pub use replay_offline::ReplayOffline;
pub use sched_paper::SchedPaper;
pub use serve_adapt::ServeAdapt;

/// Full size, or the tiny size the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as `BENCHMARK.json` defines it.
    Full,
    /// One or two small units per workload.
    Tiny,
}

impl Size {
    /// `full` at full size, `tiny` otherwise.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// What one run of one unit produced.
#[derive(Debug, Default)]
pub struct UnitRun {
    /// Wall seconds of the unit's set-up (outside the timed span).
    pub setup: f64,
    /// Wall seconds of the timed call.
    pub timed: f64,
    /// Peak heap bytes the timed call held above what was live before it.
    pub heap: f64,
    /// Operations the timed call completed.
    pub ops: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// Digest of the unit's deterministic output.
    pub digest: u64,
}

impl UnitRun {
    /// A run that will attempt `attempted` operations.
    pub fn new(setup: f64, attempted: u64) -> Self {
        Self { setup, attempted, ..Self::default() }
    }

    /// Records a failed check or operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Records the failure a check returned, if any.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records `n` requests that never completed (lost or rejected).
    pub fn lose(&mut self, n: usize, what: &str) {
        if n > 0 {
            self.failed += n as u64;
            self.problems.push(format!("{n} requests {what}"));
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Units per round.
    fn units(&self) -> usize;

    /// Runs unit `unit` once: set-up, the per-layer probes when `probe`
    /// (direct calls into the layers the timed call nests, made only in
    /// the first traced rounds), the timed call, and the output checks.
    fn run_unit(&mut self, unit: usize, probe: bool, rec: &mut Recorder) -> UnitRun;

    /// `(virt_qps, virt_e2e_p99)` of the deterministic outputs.
    fn quality(&self) -> (f64, f64);

    /// The per-layer metrics only this workload can compute, from the
    /// traced recorder.
    fn layer_metrics(&self, traced: &Recorder, out: &mut BTreeMap<&'static str, f64>);
}

/// Builds workload `name`; returns it with the median time of its
/// one-time set-up in reference seconds.
///
/// # Errors
///
/// Returns why the name is unknown or the set-up failed.
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> Result<(Box<dyn Workload>, f64), String> {
    Ok(match name {
        "sched-paper" => {
            let (w, s) = SchedPaper::new(size, rec)?;
            (Box::new(w), s)
        }
        "serve-adapt" => {
            let (w, s) = ServeAdapt::new(seed, size, rec)?;
            (Box::new(w), s)
        }
        "fleet-tenants" => {
            let (w, s) = FleetTenants::new(seed, size, rec)?;
            (Box::new(w), s)
        }
        "replay-offline" => {
            let (w, s) = ReplayOffline::new(seed, size, rec)?;
            (Box::new(w), s)
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Runs a one-time set-up five times (once at tiny size), each a
/// `bench.setup` span, and returns the last result with the median time
/// in reference seconds.
fn repeat_setup<T>(
    size: Size,
    rec: &mut Recorder,
    mut f: impl FnMut(&mut Recorder) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let reps = size.pick(5, 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut before = calib::measure();
    for rep in 0..reps {
        let (out, secs) = rec.time("bench.setup", rep, &mut f);
        let after = calib::measure();
        last = Some(out?);
        times.push(calib::to_reference(secs, before, after));
        before = after;
    }
    last.map(|t| (t, stats::median(&times))).ok_or_else(|| "set-up never ran".to_string())
}

/// A model on a sub-cluster.
#[derive(Debug, Clone)]
struct Deployment {
    model: ModelConfig,
    cluster: ClusterSpec,
}

impl Deployment {
    fn new(model: ModelConfig, base: ClusterSpec, gpus: usize) -> Result<Self, String> {
        let cluster = base.subcluster(gpus).map_err(|e| e.to_string())?;
        Ok(Self { model, cluster })
    }

    /// A cold profiling pass (a `profiler.run` span of `index`).
    fn profile(&self, index: usize, rec: &mut Recorder) -> Result<Arc<LayerProfile>, String> {
        let profiler = Profiler::new(self.model.clone(), self.cluster.clone());
        let (profile, _) =
            rec.time("profiler.run", index, |_| profiler.run(&ProfileOptions::default()));
        profile.map(Arc::new).map_err(|e| e.to_string())
    }

    /// The paper's latency bounds for `lengths` (10 %, 30 %, 70 % of the
    /// FasterTransformer batch sweep, §7.1), derived in a
    /// `baselines.ft_sweep` span of `index`.
    fn bounds(
        &self,
        profile: &Arc<LayerProfile>,
        lengths: &Lengths,
        index: usize,
        rec: &mut Recorder,
    ) -> Result<[exegpt_units::Secs; 3], String> {
        let sim = Simulator::new(
            self.model.clone(),
            self.cluster.clone(),
            Arc::clone(profile),
            lengths.clone(),
        );
        let (sweep, _) = rec.time("baselines.ft_sweep", index, |_| {
            exegpt_baselines::FasterTransformer::paper_default(sim).map(|ft| ft.latency_sweep())
        });
        let sweep = sweep.map_err(|e| e.to_string())?;
        let b = exegpt_workload::latency_bounds(&sweep).ok_or("empty FasterTransformer sweep")?;
        Ok([b[0], b[1], b[2]])
    }
}

/// The scenario-file spelling of a paper task.
fn task_key(task: Task) -> &'static str {
    match task {
        Task::Summarization => "summarization",
        Task::Translation => "translation",
        Task::CodeGeneration => "code_generation",
        Task::ConversationalQa1 => "conversational_qa1",
        Task::ConversationalQa2 => "conversational_qa2",
    }
}

/// The seed of unit `unit` under the run's `--seed` (SplitMix64; 31 bits,
/// so it spells as a plain TOML integer).
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(unit as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 33
}

/// Digest of a chosen plan: config, estimate and search counters.
fn schedule_digest(s: &Schedule) -> u64 {
    exegpt_scenario::fnv1a(&format!(
        "{} {:?} {} {}",
        s.config.describe(),
        s.estimate,
        s.evals,
        s.cache_hits
    ))
}

/// `PlanInvariants` on a chosen plan.
fn check_plan(engine: &Engine, schedule: &Schedule) -> Result<(), String> {
    PlanInvariants::check(engine.simulator(), schedule).map_err(|r| r.to_string())
}

/// Evaluates the chosen plan on a fresh simulator (`sim.evaluate_cold`)
/// and again on the now warm one (`sim.evaluate_warm`); both must
/// reproduce the plan's estimate.
fn eval_probe(
    sim: &Simulator,
    schedule: &Schedule,
    unit: usize,
    rec: &mut Recorder,
) -> Result<(), String> {
    let fresh = sim.with_workload(sim.workload().clone());
    let (cold, _) = rec.time("sim.evaluate_cold", unit, |_| fresh.evaluate(&schedule.config));
    let (warm, _) = rec.time("sim.evaluate_warm", unit, |_| fresh.evaluate(&schedule.config));
    for estimate in [cold, warm] {
        if estimate.as_ref() != Ok(&schedule.estimate) {
            return Err(format!(
                "re-evaluating {} gave {estimate:?}, the search had {:?}",
                schedule.config.describe(),
                schedule.estimate
            ));
        }
    }
    Ok(())
}

/// Replans `schedule` for its workload with the output mean ×1.5 — the
/// serve drift path — incrementally (`core.reschedule_incremental`) and
/// in full (`core.reschedule`). Both must choose the same plan; returns
/// whether the incremental path fell back to the full search.
fn replan_probe(
    engine: &Engine,
    schedule: &Schedule,
    opts: &SchedulerOptions,
    unit: usize,
    rec: &mut Recorder,
) -> Result<bool, String> {
    let lengths = engine.simulator().workload();
    let output = lengths.output().with_scaled_mean(1.5).map_err(|e| e.to_string())?;
    let shifted = Lengths::new(lengths.input().clone(), output);
    let mut incremental = engine.clone();
    let (inc, _) = rec.time("core.reschedule_incremental", unit, |_| {
        incremental.reschedule_incremental(shifted.clone(), schedule, opts)
    });
    let mut full = engine.clone();
    let (full, _) = rec.time("core.reschedule", unit, |_| full.reschedule(shifted, opts));
    match (inc, full) {
        (Ok(r), Ok(f)) if r.schedule.config == f.config && r.schedule.estimate == f.estimate => {
            Ok(r.fell_back)
        }
        (
            Err(ScheduleError::NoFeasibleSchedule { .. }),
            Err(ScheduleError::NoFeasibleSchedule { .. }),
        ) => Ok(false),
        (inc, full) => Err(format!(
            "incremental replan {:?} differs from the full replan {:?}",
            inc.map(|r| r.schedule.config.describe()),
            full.map(|s| s.config.describe())
        )),
    }
}

/// Hit rate and entry count of a simulator's evaluation cache.
fn cache_facts(sim: &Simulator) -> (f64, f64) {
    let s = sim.cache_stats();
    let lookups = s.hits + s.misses;
    let rate = if lookups > 0 { s.hits as f64 / lookups as f64 } else { 0.0 };
    (rate, s.entries as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_are_distinct_and_reproducible() {
        let seeds: Vec<u64> = (0..64).map(|u| unit_seed(1, u)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s < 1 << 31));
        assert_eq!(unit_seed(1, 5), seeds[5]);
        assert_ne!(unit_seed(2, 5), seeds[5]);
    }
}
