//! `fleet-tenants`: multi-tenant routing across a heterogeneous fleet.
//!
//! The `fleet-loss` topology: two A40 replicas, one A100 replica and an A40
//! standby, SLO-aware dispatch, four tenants (one bursty batch tenant),
//! replica loss at half the arrival horizon with rerouting, the standby
//! scaled up shortly after. Fleet replicas run non-adaptive, so this is
//! routing, rerouting and the steady serve hot path; the scheduler runs only
//! while lowering, outside the timed span.

use std::collections::BTreeMap;

use exegpt_fleet::FleetReport;
use exegpt_scenario::{
    lower, lower_workload, FleetConfig, Lowered, Mode, RateSpec, Scenario, TenantArrivals,
};
use exegpt_workload::{ArrivalProcess, TenantSpec};

use super::{
    cache_facts, check_plan, eval_probe, repeat_setup, unit_seed, Deployment, Size, UnitRun,
    Workload,
};
use crate::stats;
use crate::trace::Recorder;

const TEMPLATE: &str = r#"
name = "fleet-tenants"
seed = {seed}

[model]
preset = "opt-13b"

[workload]
kind = "task"
task = "translation"

[scheduler]
latency_bound_secs = inf

[fleet]
total = {total}
policy = "slo_aware"

[[fleet.pools]]
name = "a40"
cluster = { preset = "a40", gpus = 4 }

[[fleet.pools]]
name = "a100"
cluster = { preset = "a100", gpus = 4 }

[[fleet.replicas]]
name = "a40-0"
pool = "a40"

[[fleet.replicas]]
name = "a40-1"
pool = "a40"

[[fleet.replicas]]
name = "a100-0"
pool = "a100"

[[fleet.replicas]]
name = "a40-standby"
pool = "a40"
standby = true

[[fleet.classes]]
name = "interactive"
weight = 1.0
e2e = { kind = "plan_latency_midpoint" }

[[fleet.classes]]
name = "batch"
weight = 0.0

[[fleet.tenants]]
tenant = 0
class = "interactive"
arrivals = { kind = "poisson", rate = { kind = "pool_capacity_frac", frac = 0.20, pool = "fastest" } }

[[fleet.tenants]]
tenant = 1
class = "interactive"
arrivals = { kind = "poisson", rate = { kind = "pool_capacity_frac", frac = 0.15, pool = "fastest" } }

[[fleet.tenants]]
tenant = 2
class = "batch"
arrivals = { kind = "poisson", rate = { kind = "pool_capacity_frac", frac = 1.80, pool = "slowest" } }

[[fleet.tenants]]
tenant = 3
class = "batch"
arrivals = { kind = "bursty", rate_burst = { kind = "pool_capacity_frac", frac = 1.20, pool = "slowest" }, rate_lull = { kind = "pool_capacity_frac", frac = 0.40, pool = "slowest" }, dwell_burst_secs = 20.0, dwell_lull_secs = 60.0 }

[[fleet.faults]]
t_frac = 0.50
action = "fail"
replica = "a40-1"

[[fleet.faults]]
t_frac = 0.90
action = "recover"
replica = "a40-1"

[[fleet.scale]]
t_frac = 0.55
action = "up"
replica = "a40-standby"
"#;

/// The deterministic outcome of one trace.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    requests: f64,
    throughput: f64,
    e2e_p99: f64,
    queue_wait_p99: f64,
    slo_viol_rate: f64,
    dispatched: f64,
    rerouted: f64,
    rejected: f64,
    lost: f64,
    reschedules: f64,
    replans: f64,
    plan_swaps: f64,
    retries: f64,
    hit_rate: f64,
    entries: f64,
}

/// The `fleet-tenants` workload.
pub struct FleetTenants {
    seed: u64,
    requests: usize,
    facts: Vec<Option<Facts>>,
    /// Allocations of each unit's fleet run in the traced rounds.
    allocs: Vec<Option<u64>>,
}

impl FleetTenants {
    /// Profiles the two pool deployments.
    ///
    /// # Errors
    ///
    /// Returns why profiling failed.
    pub fn new(seed: u64, size: Size, rec: &mut Recorder) -> Result<(Self, f64), String> {
        let model = exegpt_model::ModelConfig::opt_13b();
        let pools = [
            Deployment::new(model.clone(), exegpt_cluster::ClusterSpec::a40_cluster(), 4)?,
            Deployment::new(model, exegpt_cluster::ClusterSpec::a100_cluster(), 4)?,
        ];
        let ((), setup) = repeat_setup(size, rec, |rec| {
            for (i, pool) in pools.iter().enumerate() {
                pool.profile(i, rec)?;
            }
            Ok(())
        })?;
        let units = size.pick(8, 1);
        let w = Self {
            seed,
            requests: size.pick(6000, 600),
            facts: vec![None; units],
            allocs: vec![None; units],
        };
        Ok((w, setup))
    }
}

/// The tenants' arrival processes, resolved the way lowering documents
/// them (`pool_capacity_frac` of the fastest or slowest pool's plan).
fn tenant_specs(cfg: &FleetConfig, throughputs: &[(String, f64)]) -> Option<Vec<TenantSpec>> {
    let rate = |r: &RateSpec| match r {
        RateSpec::Qps { qps } => Some(*qps),
        RateSpec::PoolCapacityFrac { frac, pool } => {
            let thr = throughputs.iter().map(|(_, t)| *t);
            let base = match pool.as_str() {
                "fastest" => thr.fold(f64::NEG_INFINITY, f64::max),
                "slowest" => thr.fold(f64::INFINITY, f64::min),
                name => throughputs.iter().find(|(n, _)| n == name)?.1,
            };
            Some(frac * base)
        }
        RateSpec::CapacityFrac { .. } => None,
    };
    cfg.tenants
        .iter()
        .map(|t| {
            let process = match &t.arrivals {
                TenantArrivals::Poisson { rate: r } => {
                    ArrivalProcess::Poisson { rate_qps: rate(r)? }
                }
                TenantArrivals::Bursty {
                    rate_burst,
                    rate_lull,
                    dwell_burst_secs,
                    dwell_lull_secs,
                } => ArrivalProcess::Bursty {
                    rate_burst: rate(rate_burst)?,
                    rate_lull: rate(rate_lull)?,
                    dwell_burst: *dwell_burst_secs,
                    dwell_lull: *dwell_lull_secs,
                },
            };
            let class = cfg.classes.iter().position(|c| c.name == t.class)?;
            Some(TenantSpec { tenant: t.tenant, class: u32::try_from(class).ok()?, process })
        })
        .collect()
}

/// Digest of the fabric log plus every replica session log.
fn fleet_digest(r: &FleetReport) -> u64 {
    let mut log = r.events.to_jsonl();
    for session in r.replicas.iter().flat_map(|replica| &replica.reports) {
        log.push_str(&session.events.to_jsonl());
    }
    exegpt_scenario::fnv1a(&log)
}

impl Workload for FleetTenants {
    fn units(&self) -> usize {
        self.facts.len()
    }

    fn run_unit(&mut self, u: usize, probe: bool, rec: &mut Recorder) -> UnitRun {
        let text = TEMPLATE
            .replace("{seed}", &unit_seed(self.seed, u).to_string())
            .replace("{total}", &self.requests.to_string());
        let (lowered, setup) = rec.time("scenario.lower", u, |_| {
            Scenario::from_toml_str(&text).and_then(|s| Ok((lower(&s)?, s)))
        });
        let mut run = UnitRun::new(setup, self.requests as u64);
        let (f, scenario) = match lowered {
            Ok((Lowered::Fleet(f), scenario)) => (f, scenario),
            Ok(_) => {
                run.fail("fleet-tenants lowered to another mode");
                return run;
            }
            Err(e) => {
                run.fail(format!("fleet-tenants unit {u}: {e}"));
                return run;
            }
        };
        let first = self.facts[u].is_none();
        if first {
            for (_, engine, schedule) in &f.pools {
                run.check(check_plan(engine, schedule));
            }
        }
        if probe {
            let throughputs: Vec<(String, f64)> =
                f.pools.iter().map(|(n, _, s)| (n.clone(), s.estimate.throughput)).collect();
            let tenants = match &scenario.mode {
                Mode::Fleet(cfg) => tenant_specs(cfg, &throughputs).map(|t| (cfg.total, t)),
                _ => None,
            };
            match (tenants, lower_workload(&scenario.workload)) {
                (Some((total, tenants)), Ok(lengths)) => {
                    rec.time("workload.trace", u, |_| {
                        exegpt_workload::multi_tenant_trace(
                            &lengths,
                            &tenants,
                            total,
                            scenario.seed,
                        )
                    });
                }
                _ => run.fail("fleet-tenants: tenant arrivals do not resolve"),
            }
            for (i, (_, engine, schedule)) in f.pools.iter().enumerate() {
                run.check(eval_probe(engine.simulator(), schedule, u * f.pools.len() + i, rec));
            }
        }
        let cache: Vec<(f64, f64)> =
            f.pools.iter().map(|(_, e, _)| cache_facts(e.simulator())).collect();
        let requests = f.trace.len();
        let (report, secs) = rec.time("fleet.run", u, |_| f.run());
        run.timed = secs;
        run.heap = rec.last_heap() as f64;
        if rec.tracing() {
            let allocs = rec.last_allocs();
            // Fleet replicas never replan, so the run is single-threaded
            // and its allocation count repeats exactly.
            if self.allocs[u].is_some_and(|a| a != allocs) {
                run.fail(format!("unit {u}: fleet allocations {allocs} != {:?}", self.allocs[u]));
            }
            self.allocs[u] = Some(allocs);
        }
        let r = match report {
            Ok(r) => r,
            Err(e) => {
                run.fail(format!("fleet-tenants unit {u}: {e}"));
                return run;
            }
        };
        if r.completed + r.lost + r.rejected != requests {
            run.fail(format!(
                "unit {u}: {} completed + {} lost + {} rejected != {requests} requests",
                r.completed, r.lost, r.rejected
            ));
        }
        run.lose(r.lost, "lost");
        run.lose(r.rejected, "rejected");
        run.ops = r.completed as f64;
        run.digest = fleet_digest(&r);
        if first {
            let p99 = |name: &str| r.metrics.summaries.get(name).map_or(0.0, |s| s.p99);
            let sessions = || r.replicas.iter().flat_map(|x| x.reports.iter());
            let count = |f: fn(&exegpt_serve::ServeReport) -> usize| {
                sessions().map(f).sum::<usize>() as f64
            };
            self.facts[u] = Some(Facts {
                requests: requests as f64,
                throughput: if r.makespan > 0.0 { r.completed as f64 / r.makespan } else { 0.0 },
                e2e_p99: p99("e2e"),
                queue_wait_p99: p99("queue_wait"),
                slo_viol_rate: r.weighted_violation_rate,
                dispatched: r.dispatched as f64,
                rerouted: r.rerouted as f64,
                rejected: r.rejected as f64,
                lost: r.lost as f64,
                reschedules: count(|s| s.reschedules),
                replans: count(|s| s.replans),
                plan_swaps: count(|s| s.plan_swaps),
                retries: count(|s| s.retries),
                hit_rate: stats::mean(&cache.iter().map(|c| c.0).collect::<Vec<_>>()),
                entries: stats::mean(&cache.iter().map(|c| c.1).collect::<Vec<_>>()),
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
        let allocs: f64 = self.allocs.iter().flatten().map(|&a| a as f64).sum();
        if requests > 0.0 {
            out.insert("fleet.allocs_per_req", allocs / requests);
        }
        let dispatched = sum(|f| f.dispatched);
        if dispatched > 0.0 {
            out.insert("fleet.rerouted_frac", sum(|f| f.rerouted) / dispatched);
        }
        out.insert("fleet.rejected", sum(|f| f.rejected));
        out.insert("fleet.lost", sum(|f| f.lost));
        out.insert("fleet.slo_viol_rate", mean(|f| f.slo_viol_rate));
        out.insert("serve.reschedules", sum(|f| f.reschedules));
        out.insert("serve.replans", sum(|f| f.replans));
        out.insert("serve.plan_swaps", sum(|f| f.plan_swaps));
        out.insert("serve.retries", sum(|f| f.retries));
        out.insert("serve.queue_wait_p99", mean(|f| f.queue_wait_p99));
        out.insert("sim.cache_hit_rate", mean(|f| f.hit_rate));
        out.insert("sim.cache_entries", mean(|f| f.entries));
    }
}
