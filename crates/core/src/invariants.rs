//! Runtime plan invariants — the dynamic counterpart of the static gate
//! (DESIGN.md §6).
//!
//! The static gate rules out the constructs that most often corrupt the
//! cost model (nondeterministic maps, wall-clock reads, lossy casts, float
//! equality, library panics). [`PlanInvariants`] closes the loop at runtime:
//! every schedule the search returns is checked — under `debug_assertions`,
//! automatically inside [`Scheduler::schedule`](crate::Scheduler::schedule)
//! (and therefore every live reschedule) — against the structural properties
//! the paper's search relies on:
//!
//! * **Estimate sanity** — latency, throughput, and the timeline breakdown
//!   are finite and positive.
//! * **KV-capacity non-negativity** — the peak per-GPU footprint fits the
//!   usable capacity (the Figure 9 feasibility condition).
//! * **Stage-assignment completeness** — the pipeline plan distributes
//!   exactly the model's layers across exactly the layout's stages.
//! * **Probability mass** — the workload's `P_E(S)`/`P_D(S)` still sum to 1.
//! * **Latency monotonicity probe** — a neighbouring configuration with a
//!   larger `B_E` must not report drastically *lower* latency; that shape of
//!   reversal is the signature of a corrupted cost model, not of the benign
//!   small-tolerance violations the paper measures in Table 5.
//!
//! The check is cheap: the probe shares the simulator's evaluation cache, so
//! it costs at most one extra closed-form evaluation.

use exegpt_sim::{RraConfig, ScheduleConfig, Simulator, WaaConfig};
use exegpt_units::Secs;

use crate::scheduler::Schedule;

/// Tolerance for the probability-mass checks.
const PMF_EPS: f64 = 1e-6;

/// Relative slack for the latency monotonicity probe. The paper itself
/// measures small-tolerance monotonicity violations (Table 5), so the probe
/// only flags reversals far outside that band.
const MONOTONE_SLACK: f64 = 0.25;

/// Structural invariants every returned [`Schedule`] must satisfy.
///
/// # Example
///
/// ```no_run
/// use exegpt::{PlanInvariants, Scheduler, SchedulerOptions};
/// # fn demo(scheduler: &Scheduler) -> Result<(), exegpt::ScheduleError> {
/// let schedule = scheduler.schedule(&SchedulerOptions::bounded(exegpt_units::Secs::new(2.5)))?;
/// // `schedule()` already debug_asserts this; tests can call it directly.
/// assert!(PlanInvariants::check(scheduler.simulator(), &schedule).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PlanInvariants;

/// The violations a [`PlanInvariants::check`] found, in evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    violations: Vec<String>,
}

impl InvariantReport {
    /// The individual violation messages.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} plan invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

impl PlanInvariants {
    /// Checks every invariant; returns all violations, not just the first.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantReport`] listing each violated invariant.
    pub fn check(sim: &Simulator, schedule: &Schedule) -> Result<(), InvariantReport> {
        let mut v = Vec::new();
        check_estimate(schedule, &mut v);
        check_memory(schedule, &mut v);
        check_probability_mass(sim, &mut v);
        match schedule.config {
            ScheduleConfig::Rra(cfg) => check_rra_plan(sim, &cfg, schedule, &mut v),
            ScheduleConfig::Waa(cfg) => check_waa_plan(sim, &cfg, &mut v),
        }
        check_latency_monotone(sim, schedule, &mut v);
        if v.is_empty() {
            Ok(())
        } else {
            Err(InvariantReport { violations: v })
        }
    }
}

fn check_estimate(schedule: &Schedule, v: &mut Vec<String>) {
    let est = &schedule.estimate;
    for (name, value) in [("latency", est.latency), ("breakdown.period", est.breakdown.period)] {
        if !value.is_finite() || value <= Secs::ZERO {
            v.push(format!("{name} must be finite and positive, got {value}"));
        }
    }
    if !est.throughput.is_finite() || est.throughput <= 0.0 {
        v.push(format!("throughput must be finite and positive, got {}", est.throughput));
    }
    for (name, value) in [
        ("breakdown.encode_time", est.breakdown.encode_time),
        ("breakdown.decode_time", est.breakdown.decode_time),
    ] {
        if !value.is_finite() || value < Secs::ZERO {
            v.push(format!("{name} must be finite and non-negative, got {value}"));
        }
    }
    if est.breakdown.decode_batch == 0 {
        v.push("breakdown.decode_batch must be at least 1".into());
    }
    if est.breakdown.stages == 0 {
        v.push("breakdown.stages must be at least 1".into());
    }
}

fn check_memory(schedule: &Schedule, v: &mut Vec<String>) {
    let mem = &schedule.estimate.memory;
    if mem.capacity == 0 {
        v.push("memory.capacity must be positive".into());
    }
    if mem.peak() > mem.capacity {
        v.push(format!(
            "peak per-GPU footprint {} exceeds usable capacity {} (negative KV headroom)",
            mem.peak(),
            mem.capacity
        ));
    }
}

fn check_probability_mass(sim: &Simulator, v: &mut Vec<String>) {
    for (name, dist) in [("input", sim.workload().input()), ("output", sim.workload().output())] {
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        if (total - 1.0).abs() > PMF_EPS {
            v.push(format!("{name} length pmf sums to {total}, expected 1 ± {PMF_EPS}"));
        }
        if dist.iter().any(|(_, p)| !p.is_finite() || p < 0.0) {
            v.push(format!("{name} length pmf contains a negative or non-finite mass"));
        }
    }
}

fn check_rra_plan(sim: &Simulator, cfg: &RraConfig, schedule: &Schedule, v: &mut Vec<String>) {
    let b_d = schedule.estimate.breakdown.decode_batch;
    let plan = match sim.rra_plan(cfg, b_d) {
        Ok(p) => p,
        Err(e) => {
            v.push(format!("RRA plan for the returned schedule is unresolvable: {e}"));
            return;
        }
    };
    let stages = plan.layout.num_stages();
    check_alloc("RRA enc_alloc", &plan.enc_alloc, stages, sim.enc_layers_total(), v);
    check_alloc("RRA dec_alloc", &plan.dec_alloc, stages, sim.dec_layers_total(), v);
}

fn check_waa_plan(sim: &Simulator, cfg: &WaaConfig, v: &mut Vec<String>) {
    let plan = match sim.waa_plan(cfg) {
        Ok(p) => p,
        Err(e) => {
            v.push(format!("WAA plan for the returned schedule is unresolvable: {e}"));
            return;
        }
    };
    if plan.n_enc == 0 {
        v.push("WAA plan assigns no GPUs to the encoding group".into());
    }
    if plan.b_d == 0 {
        v.push("WAA plan derives an empty decode pool".into());
    }
    check_alloc(
        "WAA enc_alloc",
        &plan.enc_alloc,
        plan.enc_layout.num_stages(),
        sim.enc_layers_total(),
        v,
    );
    check_alloc(
        "WAA dec_alloc",
        &plan.dec_alloc,
        plan.dec_layout.num_stages(),
        sim.dec_layers_total(),
        v,
    );
}

fn check_alloc(
    name: &str,
    alloc: &[usize],
    stages: usize,
    total_layers: usize,
    v: &mut Vec<String>,
) {
    if alloc.len() != stages {
        v.push(format!(
            "{name} covers {} stages but the layout has {stages} (incomplete stage assignment)",
            alloc.len()
        ));
    }
    let assigned: usize = alloc.iter().sum();
    if assigned != total_layers {
        v.push(format!("{name} assigns {assigned} layers but the model traverses {total_layers}"));
    }
    if alloc.contains(&0) {
        v.push(format!("{name} leaves a stage with zero layers"));
    }
}

/// Probes the configuration one `B_E` step up: the cost model may wobble
/// within tolerance, but a *large* latency drop for a strictly bigger batch
/// means the estimate surface the branch-and-bound searched is corrupt.
fn check_latency_monotone(sim: &Simulator, schedule: &Schedule, v: &mut Vec<String>) {
    let base = schedule.estimate.latency;
    let neighbor = match schedule.config {
        ScheduleConfig::Rra(cfg) => sim.evaluate_rra(&RraConfig::new(cfg.b_e + 1, cfg.n_d, cfg.tp)),
        ScheduleConfig::Waa(cfg) => {
            sim.evaluate_waa(&WaaConfig::new(cfg.b_e + 1, cfg.b_m, cfg.tp, cfg.variant))
        }
    };
    // An infeasible neighbour (memory, profile range) is not a violation.
    if let Ok(n) = neighbor {
        let floor = base * (1.0 - MONOTONE_SLACK);
        if n.latency < floor {
            v.push(format!(
                "latency at B_E+1 ({}) undercuts the schedule's own latency ({base}) by more \
                 than {:.0}% — non-monotone estimate surface",
                n.latency,
                MONOTONE_SLACK * 100.0
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_sim::Estimate;

    fn broken_schedule(mut est: Estimate, config: ScheduleConfig) -> Schedule {
        est.latency = Secs::new(f64::NAN);
        Schedule { config, estimate: est, evals: 0, cache_hits: 0 }
    }

    #[test]
    fn report_renders_each_violation() {
        let report = InvariantReport { violations: vec!["a".into(), "b".into()] };
        let text = report.to_string();
        assert!(text.contains("2 plan invariant violation(s)"));
        assert!(text.contains("\n  - a"));
        assert!(text.contains("\n  - b"));
        assert_eq!(report.violations().len(), 2);
    }

    #[test]
    fn estimate_sanity_catches_nan_latency() {
        let est = Estimate {
            latency: Secs::new(f64::NAN),
            throughput: 1.0,
            memory: exegpt_sim::MemoryReport {
                encoder_gpu: Default::default(),
                decoder_gpu: Default::default(),
                capacity: 1,
            },
            breakdown: exegpt_sim::Breakdown {
                encode_time: Secs::new(0.1),
                decode_time: Secs::new(0.1),
                period: Secs::new(0.1),
                stages: 1,
                decode_batch: 1,
            },
        };
        let s = broken_schedule(
            est,
            ScheduleConfig::Rra(RraConfig::new(1, 1, exegpt_sim::TpConfig::none())),
        );
        let mut v = Vec::new();
        check_estimate(&s, &mut v);
        assert!(v.iter().any(|m| m.contains("latency")));
    }

    #[test]
    fn memory_check_flags_overflow() {
        let est = Estimate {
            latency: Secs::new(1.0),
            throughput: 1.0,
            memory: exegpt_sim::MemoryReport {
                encoder_gpu: exegpt_model::MemoryFootprint {
                    param_bytes: 10,
                    kv_bytes: 10,
                    activation_bytes: 10,
                },
                decoder_gpu: Default::default(),
                capacity: 20,
            },
            breakdown: exegpt_sim::Breakdown {
                encode_time: Secs::new(0.1),
                decode_time: Secs::new(0.1),
                period: Secs::new(0.1),
                stages: 1,
                decode_batch: 1,
            },
        };
        let s = Schedule {
            config: ScheduleConfig::Rra(RraConfig::new(1, 1, exegpt_sim::TpConfig::none())),
            estimate: est,
            evals: 0,
            cache_hits: 0,
        };
        let mut v = Vec::new();
        check_memory(&s, &mut v);
        assert!(v.iter().any(|m| m.contains("exceeds usable capacity")));
    }

    #[test]
    fn real_schedules_satisfy_every_invariant() {
        let engine = crate::Engine::builder()
            .model(exegpt_model::ModelConfig::opt_13b())
            .cluster(exegpt_cluster::ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(exegpt_sim::Workload::new(
                exegpt_dist::LengthDist::truncated_normal(64.0, 16.0, 128).expect("valid"),
                exegpt_dist::LengthDist::truncated_normal(32.0, 8.0, 64).expect("valid"),
            ))
            .build()
            .expect("builds");
        let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
        let verdict = PlanInvariants::check(engine.simulator(), &schedule);
        assert!(verdict.is_ok(), "{}", verdict.err().map(|r| r.to_string()).unwrap_or_default());
    }

    #[test]
    fn alloc_check_flags_missing_layers_and_empty_stages() {
        let mut v = Vec::new();
        check_alloc("test", &[2, 0, 1], 4, 5, &mut v);
        assert!(v.iter().any(|m| m.contains("incomplete stage assignment")));
        assert!(v.iter().any(|m| m.contains("assigns 3 layers")));
        assert!(v.iter().any(|m| m.contains("zero layers")));
        v.clear();
        check_alloc("test", &[2, 2, 1], 3, 5, &mut v);
        assert!(v.is_empty());
    }
}
