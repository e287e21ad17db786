//! XScheduler: policy orchestration over the branch-and-bound search
//! (paper §5).
//!
//! For each requested policy the scheduler runs Algorithm 1 over that
//! policy's two monotone control variables, with the partial-TP variable
//! handled as the paper prescribes: the tensor-parallel *degree* is fixed
//! per run and the runs are repeated for every feasible `(degree, #gpus)`
//! setting (§5.1).
//!
//! Axis orientation (both variables increase throughput *and* latency):
//!
//! * RRA: `x1 = B_E`, `x2 = F_E` (encoding frequency — the reverse of
//!   `N_D`, since more frequent encoding raises throughput and latency).
//! * WAA: `x1 = B_E`. The decoder micro-batch count `B_m` is *enumerated*
//!   rather than searched: the paper itself reports it as the least
//!   monotone variable (Table 5), and on this substrate it is unimodal
//!   (optimal near the decode stage count), so a handful of candidate
//!   values per (policy, TP) run is both cheaper and safer than trusting a
//!   monotone direction that does not hold.
//!
//! Branch-and-bound does not run on every task: a cheap staircase probe
//! bounds each task first, and tasks whose bound cannot reach the best
//! result so far are *certified* away. Online replans (drift, faults) are
//! this same search on an engine whose evaluation cache survived the change
//! (DESIGN.md §8), and a search that cache remembers (same cluster, same
//! options) is answered whole from it. The probe bound assumes a monotone surface, so the
//! search returns the `config`/`estimate` a search of every task would only
//! where it holds within ε_T: checked on pinned cases, not proven
//! (DESIGN.md §4a).

#[expect(
    clippy::disallowed_types,
    reason = "audited pool module: the search pool's work index is an atomic counter"
)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use serde::Serialize;

use exegpt_dist::convert::{lossless_f64, round_usize, trunc_usize, widen_u64};
use exegpt_sim::{
    RraConfig, ScheduleConfig, Scorer, SearchOutcome, Simulator, TpConfig, WaaConfig, WaaVariant,
};
use exegpt_units::Secs;

use crate::bnb::{self, BnbOptions};
use crate::error::ScheduleError;

/// A scheduling policy the scheduler may select (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Policy {
    /// Round-Robin Allocation.
    Rra,
    /// Workload-Aware Allocation balanced by computation time.
    WaaCompute,
    /// Workload-Aware Allocation balanced by memory consumption.
    WaaMemory,
}

impl Policy {
    /// All three policies, the scheduler's default portfolio.
    pub fn all() -> Vec<Policy> {
        vec![Policy::Rra, Policy::WaaCompute, Policy::WaaMemory]
    }
}

/// Options controlling one scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerOptions {
    /// Latency bound `L_Bound` for generating the 99th-percentile-length
    /// sequence (`Secs::INFINITY` = unconstrained).
    pub latency_bound: Secs,
    /// Latency tolerance `ε_L` as a fraction of the bound, in `[0, 1)`
    /// (default 5%).
    pub eps_latency_frac: f64,
    /// Throughput tolerance `ε_T` as a fraction of the incumbent (blocks
    /// within this fraction of the best known throughput are not pruned;
    /// in `[0, 1)`, default 2%).
    pub eps_throughput_frac: f64,
    /// Policies to search (default: all three).
    pub policies: Vec<Policy>,
    /// Upper limit for `B_E` (default: derived from the profile).
    pub max_b_e: Option<usize>,
    /// Upper limit for `N_D` (default: the output distribution's maximum).
    pub max_n_d: Option<usize>,
    /// Restrict the search to these partial-TP settings (default: all
    /// profiled degrees at every feasible GPU count).
    pub tp_configs: Option<Vec<TpConfig>>,
    /// Workers of the search pool that runs the per-task probes (default:
    /// the machine's available parallelism, capped at the task count;
    /// `Some(1)` runs them serially, `Some(0)` is rejected). The width
    /// counts the calling thread, which runs one worker, so a width of `n`
    /// spawns `n − 1` threads.
    /// [`Scheduler::schedule`] returns the same `Schedule` for every width,
    /// so this only trades wall-clock time for CPU.
    pub pool_threads: Option<usize>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            latency_bound: Secs::INFINITY,
            eps_latency_frac: 0.05,
            eps_throughput_frac: 0.02,
            policies: Policy::all(),
            max_b_e: None,
            max_n_d: None,
            tp_configs: None,
            pool_threads: None,
        }
    }
}

impl SchedulerOptions {
    /// Convenience constructor for a latency bound with default tolerances.
    pub fn bounded(latency_bound: Secs) -> Self {
        Self { latency_bound, ..Self::default() }
    }
}

/// The outcome of scheduling: a concrete configuration and its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The selected configuration.
    pub config: ScheduleConfig,
    /// The simulator's estimate for it.
    pub estimate: exegpt_sim::Estimate,
    /// Estimate lookups of the whole search: probes and branch-and-bound
    /// runs alike, cache hits included. A configuration looked up by two
    /// tasks counts twice, so this is not a count of distinct
    /// configurations.
    pub evals: usize,
    /// Lookups answered from the shared evaluation cache: `evals` when the
    /// whole search was remembered by the simulator's search memo
    /// ([`Simulator::remembered_search`]), else 0. Scores and estimates are
    /// not memoized point by point.
    pub cache_hits: usize,
}

/// XScheduler: searches the configuration space for the highest-throughput
/// schedule satisfying a latency bound (paper §5).
#[derive(Debug, Clone)]
pub struct Scheduler {
    sim: Simulator,
}

impl Scheduler {
    /// Creates a scheduler over a simulator.
    pub fn new(sim: Simulator) -> Self {
        Self { sim }
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Finds the best schedule across all requested policies.
    ///
    /// Every `(policy, TP, B_m)` task is probed first, on the search pool,
    /// and branch-and-bound runs only on the tasks whose probe bound can
    /// still reach the best result so far. The returned `config` and
    /// `estimate` are what branch-and-bound over every task would select
    /// wherever each certified task's optimum is within its probe bound
    /// × (1 + ε_T): not guaranteed on a non-monotone surface, and checked
    /// only on the pinned Figure 6 grid at the default ε_T.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoFeasibleSchedule`] when nothing satisfies
    /// the bound, or [`ScheduleError::InvalidOptions`] for bad options.
    pub fn schedule(&self, opts: &SchedulerOptions) -> Result<Schedule, ScheduleError> {
        self.sweep(opts).map(|(schedule, _)| schedule)
    }

    /// Enumerates the independent (policy, TP setting) searches, fixing the
    /// TP degree per run as §5.1 prescribes.
    fn search_tasks(&self, opts: &SchedulerOptions) -> Vec<SearchTask> {
        let n = self.sim.cluster().total_gpus();
        let tps = opts.tp_configs.clone().unwrap_or_else(|| {
            let mut tps = vec![TpConfig::none()];
            for &degree in &self.sim.profile().tp_degrees() {
                if degree < 2 {
                    continue;
                }
                let mut gpus = degree;
                while gpus <= n {
                    tps.push(TpConfig { degree, gpus });
                    gpus += degree;
                }
            }
            tps
        });
        let b_m_candidates = b_m_ladder(n);
        let mut tasks = Vec::new();
        for &policy in &opts.policies {
            for &tp in &tps {
                match policy {
                    Policy::Rra => tasks.push(SearchTask { policy, tp, b_m: 1 }),
                    Policy::WaaCompute | Policy::WaaMemory => {
                        for &b_m in &b_m_candidates {
                            tasks.push(SearchTask { policy, tp, b_m });
                        }
                    }
                }
            }
        }
        tasks
    }

    /// Runs one cold branch-and-bound search on `scorer`; returns `None`
    /// when it finds no feasible point.
    fn run_task(
        &self,
        scorer: &mut Scorer<'_>,
        task: &SearchTask,
        opts: &SchedulerOptions,
    ) -> Option<Schedule> {
        let space = self.task_space(task, opts);
        let bnb_opts = self.bnb_options(opts);
        let eval = |x1: usize, x2: usize| scorer.score(&space.config(x1, x2));
        let r = bnb::optimize(space.range1, space.range2, &bnb_opts, eval)?;
        let cfg = space.config(r.point.0, r.point.1);
        let estimate = scorer.evaluate(&cfg).ok()?;
        Some(Schedule { config: cfg, estimate, evals: r.evals, cache_hits: 0 })
    }

    /// The oriented search box and configuration mapping of one task.
    fn task_space(&self, task: &SearchTask, opts: &SchedulerOptions) -> TaskSpace {
        let profile = self.sim.profile();
        let out = self.sim.workload().output();
        match task.policy {
            Policy::Rra => {
                let max_b_e = opts.max_b_e.unwrap_or_else(|| (profile.max_batch() / 4).max(2));
                let max_n_d =
                    opts.max_n_d.unwrap_or_else(|| out.max_len().min(profile.max_seq())).max(1);
                TaskSpace {
                    range1: (1, max_b_e),
                    range2: (1, max_n_d),
                    tp: task.tp,
                    kind: SpaceKind::Rra { max_n_d },
                }
            }
            Policy::WaaCompute | Policy::WaaMemory => {
                let variant = if task.policy == Policy::WaaCompute {
                    WaaVariant::Compute
                } else {
                    WaaVariant::Memory
                };
                let s_d = out.mean().max(1.0);
                let max_b_e = opts
                    .max_b_e
                    .unwrap_or_else(|| trunc_usize(lossless_f64(profile.max_batch()) / s_d).max(2));
                TaskSpace {
                    range1: (1, max_b_e),
                    range2: (1, 1),
                    tp: task.tp,
                    kind: SpaceKind::Waa { b_m: task.b_m, variant, s_d },
                }
            }
        }
    }

    /// The branch-and-bound tolerances derived from scheduler options.
    fn bnb_options(&self, opts: &SchedulerOptions) -> BnbOptions {
        BnbOptions {
            latency_bound: opts.latency_bound,
            eps_latency: if opts.latency_bound.is_finite() {
                opts.latency_bound * opts.eps_latency_frac
            } else {
                Secs::ZERO
            },
            eps_throughput: opts.eps_throughput_frac,
            max_evals: 20_000,
        }
    }

    /// The search behind [`Scheduler::schedule`], returned with its task
    /// counters. A search this simulator's shared cache remembers (same
    /// cluster fingerprint, same [`search_key`]) is answered from it, and
    /// reports every lookup as a cache hit; any other runs
    /// [`cold_sweep`](Self::cold_sweep) and is remembered.
    pub(crate) fn sweep(
        &self,
        opts: &SchedulerOptions,
    ) -> Result<(Schedule, SearchOutcome), ScheduleError> {
        validate(opts)?;
        let profile = self.sim.profile();
        validate_box(opts, profile.max_batch(), profile.max_seq())?;
        let (outcome, remembered) =
            self.sim.remembered_search(search_key(opts), || self.cold_sweep(opts));
        let Some((config, estimate)) = outcome.best.clone() else {
            return Err(ScheduleError::NoFeasibleSchedule { latency_bound: opts.latency_bound });
        };
        let evals = outcome.evals;
        let cache_hits = if remembered { evals } else { 0 };
        let b = Schedule { config, estimate, evals, cache_hits };
        #[cfg(debug_assertions)]
        if let Err(report) = crate::PlanInvariants::check(&self.sim, &b) {
            debug_assert!(false, "schedule violates plan invariants: {report}");
        }
        Ok((b, outcome))
    }

    /// The certified sweep: every task is probed on the search pool; the
    /// probes are independent, so the work done does not depend on the pool
    /// width. A feasible top corner resolves its task exactly. The remaining
    /// tasks are visited in bound order — finite bounds first, then
    /// descending bound, then task index — against `running_best`, which
    /// only ever takes achieved throughputs (exact probes and searches,
    /// never probe bounds). A task whose bound times `(1 + ε_T)` trails it
    /// is certified away; every other task runs the same cold
    /// branch-and-bound as a search of every task. The searches are not
    /// floored at `running_best`: that would save little (0.2% of
    /// `sched-paper`'s evaluations) and is not identity-safe, since on a
    /// surface that is not monotone in `B_E` it can prune the block holding
    /// the task's cold optimum. With one task there is nothing to certify,
    /// so the probe is skipped.
    ///
    /// The reduction then picks the first task in canonical order with
    /// strictly greater throughput, so ties resolve as they would over
    /// every task.
    fn cold_sweep(&self, opts: &SchedulerOptions) -> SearchOutcome {
        let mut outcome = SearchOutcome { best: None, evals: 0, certified: 0, exact: 0, full: 0 };
        let tasks = self.search_tasks(opts);
        let mut per_task: Vec<Option<Schedule>> = vec![None; tasks.len()];
        let mut running_best = f64::NEG_INFINITY;
        let mut deferred: Vec<(usize, f64)> = Vec::new();
        if tasks.len() == 1 {
            deferred.push((0, f64::INFINITY));
        } else {
            let workers = opts.pool_threads.unwrap_or_else(default_pool_width);
            let probes = pool_map(
                &tasks,
                workers,
                || self.sim.scorer(),
                |scorer, task| self.probe_task(scorer, task, opts),
            );
            for (i, probe) in probes.into_iter().enumerate() {
                match probe {
                    Probe::Exact { schedule } => {
                        outcome.exact += 1;
                        running_best = running_best.max(schedule.estimate.throughput);
                        per_task[i] = Some(schedule);
                    }
                    Probe::Bounded { upper, evals } => {
                        outcome.evals += evals;
                        deferred.push((i, upper));
                    }
                }
            }
        }
        // The staircase bound is close to the task's optimum, so the largest
        // finite bound is almost always the winner: searching it first
        // raises `running_best` enough to certify the rest. Unresolved
        // probes (`upper = ∞`) go last.
        deferred.sort_by(|a, b| {
            let inf = (a.1 == f64::INFINITY, b.1 == f64::INFINITY);
            inf.0.cmp(&inf.1).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0))
        });
        let eps_thr = opts.eps_throughput_frac;
        let mut scorer = self.sim.scorer();
        for (i, upper) in deferred {
            if upper * (1.0 + eps_thr) < running_best {
                outcome.certified += 1;
                continue;
            }
            outcome.full += 1;
            if let Some(s) = self.run_task(&mut scorer, &tasks[i], opts) {
                running_best = running_best.max(s.estimate.throughput);
                per_task[i] = Some(s);
            }
        }

        let mut best: Option<Schedule> = None;
        for r in per_task.into_iter().flatten() {
            outcome.evals += r.evals;
            if best.as_ref().is_none_or(|b| r.estimate.throughput > b.estimate.throughput) {
                best = Some(r);
            }
        }
        outcome.best = best.map(|b| (b.config, b.estimate));
        outcome
    }

    /// Derives an upper bound on the best feasible throughput of one task
    /// without searching it, in O(stairs · log(width + height))
    /// evaluations.
    ///
    /// Both ways a point can be unusable are *upward-closed* in the
    /// oriented coordinates: latency grows along both axes (the
    /// orientation contract), and so do the structural limits (a larger
    /// encode batch or a lower encode frequency both grow the decode pool
    /// toward the memory/batch caps). The feasible region is therefore a
    /// monotone staircase whose rows and columns are feasibility prefixes,
    /// and per column the best point sits on its ceiling. The probe traces
    /// that frontier stair by stair — galloping right along each stair's
    /// row to its exact end, then galloping down to the next column's
    /// ceiling — taking the maximum corner throughput, which under the
    /// monotone model *is* the task's optimum (each stair's points are
    /// dominated by its right-end corner); the ε_T slack in the
    /// certification test absorbs the measured non-monotone ripple, the
    /// same robustness contract the search itself relies on. Where the
    /// ripple is larger the bound does not hold, and the search can beat
    /// it; DESIGN.md §4a gives the margin on the paper grid.
    ///
    /// A *feasible* maximal corner of the full box is the cold search's own
    /// first step, so the task resolves exactly to that [`Schedule`].
    /// Otherwise the walk always completes, so the bound is *tight*: the
    /// caller sorts unresolved tasks by it to search the likely winner
    /// first and certify the rest against its result.
    fn probe_task(
        &self,
        scorer: &mut Scorer<'_>,
        task: &SearchTask,
        opts: &SchedulerOptions,
    ) -> Probe {
        let space = self.task_space(task, opts);
        let bnb_opts = self.bnb_options(opts);
        let mut evals = 0usize;
        let mut eval = |x1: usize, x2: usize| {
            evals += 1;
            scorer.score(&space.config(x1, x2))
        };
        let (r1, r2) = (space.range1, space.range2);
        let top = (r1.1, r2.1);
        let p_top = eval(top.0, top.1);
        if p_top.satisfies(bnb_opts.latency_bound) && p_top.throughput.is_finite() {
            let cfg = space.config(top.0, top.1);
            let Ok(estimate) = scorer.evaluate(&cfg) else {
                return Probe::Bounded { upper: f64::INFINITY, evals };
            };
            return Probe::Exact {
                schedule: Schedule { config: cfg, estimate, evals: 1, cache_hits: 0 },
            };
        }

        let mut upper = f64::NEG_INFINITY;
        // Every feasible point the walk touches folds into the bound; the
        // walk's coverage guarantee is that it exactly visits each stair's
        // corner, which dominates every feasible point of that stair.
        let mut test = |x1: usize, x2: usize| -> bool {
            let p = if (x1, x2) == top { p_top } else { eval(x1, x2) };
            let ok = p.satisfies(bnb_opts.latency_bound) && p.throughput.is_finite();
            if ok {
                upper = upper.max(p.throughput);
            }
            ok
        };
        let (mut x1, mut x2) = (r1.0, r2.1);
        loop {
            // Drop to the ceiling of column `x1` (everything at or above
            // `x2 + 1` in it is already known infeasible). Exponential
            // probes keep this O(log drop) — ceilings fall in small steps.
            if !test(x1, x2) {
                let (mut bad, mut step) = (x2, 1usize);
                x2 = loop {
                    if bad == r2.0 {
                        // The column is empty, and ceilings only descend to
                        // the right: the rest of the box is empty too.
                        return Probe::Bounded { upper, evals };
                    }
                    let probe = if bad - r2.0 > step { bad - step } else { r2.0 };
                    if test(x1, probe) {
                        break largest_true(probe, bad, &mut |v| test(x1, v));
                    }
                    bad = probe;
                    step = step.saturating_mul(2);
                };
            }
            // Extend the stair right along its row for as long as the row
            // stays feasible; the run's exact end is this stair's corner.
            if x1 == r1.1 {
                break;
            }
            let (mut t, mut step, mut fail) = (x1, 1usize, None);
            while fail.is_none() && t < r1.1 {
                let probe = (t + step).min(r1.1);
                if test(probe, x2) {
                    t = probe;
                    step = step.saturating_mul(2);
                } else {
                    fail = Some(probe);
                }
            }
            x1 = match fail {
                None => break, // feasible through the right edge
                Some(bad) => largest_true(t, bad, &mut |v| test(v, x2)),
            };
            x1 += 1;
            if x2 == r2.0 {
                break; // the next column's ceiling would sit below the box
            }
            x2 -= 1;
        }
        Probe::Bounded { upper, evals }
    }
}

/// Outcome of the certification probe for one search task.
enum Probe {
    /// The full box's maximal corner is feasible: the cold search would
    /// return it immediately, so the probe resolved the task exactly.
    Exact { schedule: Schedule },
    /// A certified upper bound on every feasible throughput in the task
    /// (`f64::INFINITY` only in the rare case of an evaluation
    /// inconsistency at the maximal corner, which leaves the task
    /// unresolved and forces its branch-and-bound run).
    Bounded { upper: f64, evals: usize },
}

/// The pool width when `SchedulerOptions::pool_threads` is unset: the
/// machine's available parallelism, read once per process, since the query
/// reads cgroup files (19–23 µs a call on a 2-vCPU Linux container).
fn default_pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on a bounded work-stealing pool of `workers`
/// workers, capped at the item count, and returns the results in item
/// order. The width counts the calling thread: it spawns `workers − 1`
/// scoped threads and runs the same work loop itself, so a width of one
/// spawns nothing. Each worker pulls indices from a shared counter and
/// writes per-item slots, so the results never depend on which worker ran
/// what, as long as `f`'s result does not depend on the worker state
/// (`init()`'s, one per worker) it is handed.
fn pool_map<T: Sync, S, R: Send + Sync>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    #[expect(
        clippy::disallowed_types,
        reason = "audited pool module: `next` is a counter, so `Ordering::Relaxed` suffices — \
                  each fetch_add hands out one index"
    )]
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let work = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            // The fetch_add hands each index to exactly one worker, so this
            // slot is necessarily empty.
            let set_res = slots[i].set(f(&mut state, item));
            debug_assert!(set_res.is_ok(), "item index {i} claimed twice");
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "audited pool module: scoped workers write per-item slots that are read back \
                  in item order, so the join is deterministic"
    )]
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    // Every index below `items.len()` was claimed, and a worker that
    // panicked re-raises at the end of the scope, so every slot is full.
    slots.into_iter().filter_map(OnceLock::into_inner).collect()
}

/// Largest value in `[t, b - 1]` for which `pred` holds, given that
/// `pred(t)` holds, `pred(b)` fails, and `pred` is a prefix property
/// (true up to some point, false after). Plain bisection.
fn largest_true(mut t: usize, mut b: usize, pred: &mut dyn FnMut(usize) -> bool) -> usize {
    while b - t > 1 {
        let m = t + (b - t) / 2;
        if pred(m) {
            t = m;
        } else {
            b = m;
        }
    }
    t
}

/// The decoder micro-batch candidates enumerated per WAA (policy, TP) run,
/// capped by cluster size.
fn b_m_ladder(n: usize) -> Vec<usize> {
    [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32].into_iter().filter(|&m| m <= (4 * n).max(2)).collect()
}

/// One task's oriented integer search box plus the mapping back to concrete
/// configurations, shared by the search and the certification probe so
/// both agree on orientation and clamping.
#[derive(Debug, Clone, Copy)]
struct TaskSpace {
    range1: (usize, usize),
    range2: (usize, usize),
    tp: TpConfig,
    kind: SpaceKind,
}

#[derive(Debug, Clone, Copy)]
enum SpaceKind {
    /// `x2` is the encoding-frequency axis: `x2 = max_n_d + 1 - N_D`.
    Rra { max_n_d: usize },
    /// `x2` is degenerate (`B_m` is enumerated per task, not searched).
    /// `s_d` is the mean output length deriving the decode pool from `B_E`.
    Waa { b_m: usize, variant: WaaVariant, s_d: f64 },
}

impl TaskSpace {
    /// The concrete configuration at an oriented point. `B_m` is clamped to
    /// the derived pool so small-`B_E` points stay evaluable.
    fn config(&self, x1: usize, x2: usize) -> ScheduleConfig {
        match self.kind {
            SpaceKind::Rra { max_n_d } => {
                ScheduleConfig::Rra(RraConfig::new(x1, max_n_d + 1 - x2, self.tp))
            }
            SpaceKind::Waa { b_m, variant, s_d } => {
                let b_d = round_usize(lossless_f64(x1) * s_d).max(1);
                ScheduleConfig::Waa(WaaConfig::new(x1, b_m.min(b_d), self.tp, variant))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SearchTask {
    policy: Policy,
    tp: TpConfig,
    /// Fixed decoder micro-batch count for WAA tasks (ignored for RRA).
    b_m: usize,
}

/// Every option that decides a search's outcome, as the words of its
/// search-memo key. Fixed-width fields, tagged `Option`s and
/// length-prefixed lists make the encoding injective, so equal words mean
/// equal options. `pool_threads` is left out: the outcome is the same at
/// every pool width.
fn search_key(opts: &SchedulerOptions) -> Vec<u64> {
    let SchedulerOptions {
        latency_bound,
        eps_latency_frac,
        eps_throughput_frac,
        policies,
        max_b_e,
        max_n_d,
        tp_configs,
        pool_threads: _,
    } = opts;
    let mut key = vec![
        latency_bound.as_f64().to_bits(),
        eps_latency_frac.to_bits(),
        eps_throughput_frac.to_bits(),
        widen_u64(policies.len()),
    ];
    key.extend(policies.iter().map(|p| match p {
        Policy::Rra => 0,
        Policy::WaaCompute => 1,
        Policy::WaaMemory => 2,
    }));
    for limit in [max_b_e, max_n_d] {
        match limit {
            None => key.push(0),
            Some(v) => key.extend([1, widen_u64(*v)]),
        }
    }
    match tp_configs {
        None => key.push(0),
        Some(tps) => {
            key.extend([1, widen_u64(tps.len())]);
            key.extend(tps.iter().flat_map(|tp| [widen_u64(tp.degree), widen_u64(tp.gpus)]));
        }
    }
    key
}

fn validate(opts: &SchedulerOptions) -> Result<(), ScheduleError> {
    #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
    if !(opts.latency_bound.as_f64() > 0.0) {
        return Err(ScheduleError::InvalidOptions {
            what: "latency_bound",
            why: "must be positive".into(),
        });
    }
    if opts.policies.is_empty() {
        return Err(ScheduleError::InvalidOptions {
            what: "policies",
            why: "must request at least one policy".into(),
        });
    }
    for (what, limit) in
        [("max_b_e", opts.max_b_e), ("max_n_d", opts.max_n_d), ("pool_threads", opts.pool_threads)]
    {
        if limit == Some(0) {
            return Err(ScheduleError::InvalidOptions { what, why: "must be at least 1".into() });
        }
    }
    // NaN fails `contains` too.
    for (what, frac) in [
        ("eps_latency_frac", opts.eps_latency_frac),
        ("eps_throughput_frac", opts.eps_throughput_frac),
    ] {
        if !(0.0..1.0).contains(&frac) {
            return Err(ScheduleError::InvalidOptions { what, why: "must be in [0, 1)".into() });
        }
    }
    Ok(())
}

/// Rejects a search box beyond the profiled sweep, before any search:
/// `max_b_e` above its largest batch, `max_n_d` above its longest
/// sequence. An unbounded `max_n_d` would overflow the encoding-frequency
/// axis and size the survival series of the RRA estimate.
fn validate_box(
    opts: &SchedulerOptions,
    max_batch: usize,
    max_seq: usize,
) -> Result<(), ScheduleError> {
    for (what, limit, max, axis) in [
        ("max_b_e", opts.max_b_e, max_batch, "batch"),
        ("max_n_d", opts.max_n_d, max_seq, "sequence length"),
    ] {
        if limit.is_some_and(|v| v > max) {
            return Err(ScheduleError::InvalidOptions {
                what,
                why: format!("must be at most {max}, the profile's largest {axis}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances_outside_the_unit_interval_are_rejected() {
        let base = SchedulerOptions::bounded(Secs::new(10.0));
        let with = |what: &str, frac: f64| match what {
            "eps_latency_frac" => SchedulerOptions { eps_latency_frac: frac, ..base.clone() },
            _ => SchedulerOptions { eps_throughput_frac: frac, ..base.clone() },
        };
        for what in ["eps_latency_frac", "eps_throughput_frac"] {
            for bad in [-0.01, -f64::INFINITY, 1.0, 1.5, f64::INFINITY, f64::NAN] {
                let err = validate(&with(what, bad));
                assert!(
                    matches!(err, Err(ScheduleError::InvalidOptions { what: w, .. }) if w == what),
                    "{what} = {bad}: {err:?}"
                );
            }
            for good in [0.0, 0.02, 0.999] {
                assert!(validate(&with(what, good)).is_ok(), "{what} = {good}");
            }
        }
    }

    #[test]
    fn search_keys_tell_deciding_options_apart() {
        let base = SchedulerOptions::bounded(Secs::new(10.0));
        let variants = [
            base.clone(),
            SchedulerOptions::bounded(Secs::new(10.5)),
            SchedulerOptions::bounded(Secs::INFINITY),
            SchedulerOptions { eps_latency_frac: 0.1, ..base.clone() },
            SchedulerOptions { eps_throughput_frac: 0.0, ..base.clone() },
            SchedulerOptions { policies: vec![Policy::Rra], ..base.clone() },
            SchedulerOptions { policies: vec![Policy::WaaMemory, Policy::Rra], ..base.clone() },
            SchedulerOptions { max_b_e: Some(8), ..base.clone() },
            SchedulerOptions { max_n_d: Some(8), ..base.clone() },
            SchedulerOptions { max_b_e: Some(8), max_n_d: Some(8), ..base.clone() },
            SchedulerOptions { tp_configs: Some(vec![]), ..base.clone() },
            SchedulerOptions { tp_configs: Some(vec![TpConfig::none()]), ..base.clone() },
            SchedulerOptions { tp_configs: Some(vec![TpConfig::full(2, 4)]), ..base.clone() },
        ];
        let keys: Vec<Vec<u64>> = variants.iter().map(search_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "options {i} and {j} share a key");
            }
        }
        // The pool width does not decide the outcome, so it shares the key.
        let pooled = SchedulerOptions { pool_threads: Some(3), ..base.clone() };
        assert_eq!(search_key(&pooled), search_key(&base));
    }
}
