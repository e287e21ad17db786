//! The batteries-included entry point tying profiler, simulator and
//! scheduler together (the whole Figure 2 pipeline).

use std::sync::Arc;

use exegpt_cluster::{ClusterSpec, LoadCostModel, LoadSource};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_sim::{Simulator, Workload};
use exegpt_units::Secs;

use crate::error::ScheduleError;
use crate::scheduler::{Schedule, Scheduler, SchedulerOptions};

/// End-to-end ExeGPT pipeline: profile once, then schedule for any latency
/// bound or workload (paper Figure 2).
///
/// See the crate-level docs for a full example.
#[derive(Debug, Clone)]
pub struct Engine {
    scheduler: Scheduler,
    load_cost: LoadCostModel,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Finds the best schedule for a latency bound
    /// ([`Secs::INFINITY`] for unconstrained), across all policies.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    pub fn schedule(&self, latency_bound: Secs) -> Result<Schedule, ScheduleError> {
        self.scheduler.schedule(&SchedulerOptions::bounded(latency_bound))
    }

    /// Finds the best schedule with full option control.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    pub fn schedule_with(&self, opts: &SchedulerOptions) -> Result<Schedule, ScheduleError> {
        self.scheduler.schedule(opts)
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        self.scheduler.simulator()
    }

    /// Returns an engine for the same deployment serving a different
    /// workload (re-scheduling after a distribution change, §7.6; the
    /// profile is reused, as profiling is per model/cluster).
    pub fn with_workload(&self, workload: Workload) -> Self {
        Self {
            scheduler: Scheduler::new(self.simulator().with_workload(workload)),
            load_cost: self.load_cost.clone(),
        }
    }

    /// Returns an engine for the same model and workload on a different
    /// cluster — the fault-handling path: after device failures the serving
    /// loop replans onto `ClusterSpec::survivors`, reusing the profile
    /// (valid because degraded topologies keep the profiled device and link
    /// types). The load-cost model is rebuilt for the new topology so
    /// [`deploy_time`](Engine::deploy_time) prices redeployment on the
    /// surviving devices.
    pub fn with_cluster(&self, cluster: ClusterSpec) -> Self {
        Self {
            load_cost: LoadCostModel::new(cluster.clone()),
            scheduler: Scheduler::new(self.simulator().with_cluster(cluster)),
        }
    }

    /// Re-schedules *in place* for a new workload on the warm engine: the
    /// profile (the expensive, per-model/cluster part, §7.7) is reused,
    /// only the workload-dependent state is rebuilt, and the engine is left
    /// serving `workload` afterwards. This is the online path the serving
    /// loop takes when drift is detected (§5.2 / §7.6): a fresh
    /// `Engine::builder().build()` would re-profile, which is exactly what
    /// a live reschedule must avoid.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`]. On error the engine still serves the
    /// new workload (scheduling is side-effect free).
    pub fn reschedule(
        &mut self,
        workload: Workload,
        opts: &SchedulerOptions,
    ) -> Result<Schedule, ScheduleError> {
        *self = self.with_workload(workload);
        self.schedule_with(opts)
    }

    /// Compatibility shim for callers of the removed incremental replan:
    /// [`Engine::reschedule`] with the certified search's task counters.
    /// `incumbent` is not consulted, and [`Replan::fell_back`] is always
    /// `false`, since there is no second path to fall back to.
    ///
    /// # Errors
    ///
    /// See [`Engine::reschedule`].
    pub fn reschedule_incremental(
        &mut self,
        workload: Workload,
        _incumbent: &Schedule,
        opts: &SchedulerOptions,
    ) -> Result<Replan, ScheduleError> {
        *self = self.with_workload(workload);
        let (schedule, outcome) = self.scheduler.sweep(opts)?;
        Ok(Replan {
            schedule,
            fell_back: false,
            certified_tasks: outcome.certified,
            exact_tasks: outcome.exact,
            full_tasks: outcome.full,
        })
    }

    /// Estimated cost of (re-)deploying the model according to a new
    /// schedule (paper §7.7, Table 4): loading weights from SSD on first
    /// deployment or from host DRAM on re-deployment.
    pub fn deploy_time(&self, source: LoadSource) -> Secs {
        let sim = self.simulator();
        self.load_cost.load_time(sim.model().param_bytes(), sim.cluster().total_gpus(), source)
    }
}

/// Outcome of [`Engine::reschedule_incremental`]: the schedule and how the
/// certified search resolved the portfolio's tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Replan {
    /// The chosen schedule, exactly as [`Engine::reschedule`] returns it.
    pub schedule: Schedule,
    /// Always `false`; kept so callers of the removed incremental path
    /// still compile.
    pub fell_back: bool,
    /// Searches excluded by their certified monotone upper bound.
    pub certified_tasks: usize,
    /// Searches resolved exactly by a single feasible top-corner probe.
    pub exact_tasks: usize,
    /// Searches the probe could not resolve, which then ran in full.
    pub full_tasks: usize,
}

/// Builder for [`Engine`]: supply a model, cluster and workload; profiling
/// runs at `build()` (once per model/cluster, §7.7).
#[derive(Debug, Default)]
pub struct EngineBuilder {
    model: Option<ModelConfig>,
    cluster: Option<ClusterSpec>,
    workload: Option<Workload>,
    profile: Option<Arc<LayerProfile>>,
    profile_options: Option<ProfileOptions>,
}

impl EngineBuilder {
    /// Sets the model to serve.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the GPU cluster to serve on.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the sequence-length workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Supplies a pre-computed profile (skips profiling in `build`).
    pub fn profile(mut self, profile: Arc<LayerProfile>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Overrides the profiling sweep options.
    pub fn profile_options(mut self, opts: ProfileOptions) -> Self {
        self.profile_options = Some(opts);
        self
    }

    /// Profiles (if needed) and assembles the engine.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::MissingComponent`] if a required part was
    /// not supplied, or a profiling error.
    pub fn build(self) -> Result<Engine, ScheduleError> {
        let model = self.model.ok_or(ScheduleError::MissingComponent { what: "model" })?;
        let cluster = self.cluster.ok_or(ScheduleError::MissingComponent { what: "cluster" })?;
        let workload = self.workload.ok_or(ScheduleError::MissingComponent { what: "workload" })?;
        let profile = match self.profile {
            Some(p) => p,
            None => {
                let opts = self.profile_options.unwrap_or_default();
                Arc::new(Profiler::new(model.clone(), cluster.clone()).run(&opts)?)
            }
        };
        let sim = Simulator::new(model, cluster.clone(), profile, workload);
        Ok(Engine { scheduler: Scheduler::new(sim), load_cost: LoadCostModel::new(cluster) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_dist::LengthDist;

    #[test]
    fn builder_requires_all_components() {
        let err = Engine::builder().build().expect_err("missing everything");
        assert!(matches!(err, ScheduleError::MissingComponent { what: "model" }));
        let err =
            Engine::builder().model(ModelConfig::opt_13b()).build().expect_err("missing cluster");
        assert!(matches!(err, ScheduleError::MissingComponent { what: "cluster" }));
    }

    #[test]
    fn reschedule_swaps_workload_and_reuses_profile() {
        let mut engine = Engine::builder()
            .model(ModelConfig::opt_13b())
            .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(Workload::new(
                LengthDist::point_mass(64, 128).expect("valid"),
                LengthDist::point_mass(32, 64).expect("valid"),
            ))
            .build()
            .expect("builds");
        let profile = std::sync::Arc::clone(engine.simulator().profile());
        let before = engine.schedule(Secs::INFINITY).expect("schedules");
        let longer = Workload::new(
            LengthDist::point_mass(64, 128).expect("valid"),
            LengthDist::point_mass(48, 96).expect("valid"),
        );
        let after = engine
            .reschedule(longer.clone(), &SchedulerOptions::bounded(Secs::INFINITY))
            .expect("reschedules");
        assert!(std::sync::Arc::ptr_eq(&profile, engine.simulator().profile()), "profile reused");
        assert_eq!(engine.simulator().workload(), &longer, "engine now serves the new workload");
        // Longer outputs cost throughput; the schedules genuinely differ.
        assert!(after.estimate.throughput < before.estimate.throughput);
    }

    #[test]
    fn deploy_time_is_slower_from_ssd() {
        let engine = Engine::builder()
            .model(ModelConfig::opt_13b())
            .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(Workload::new(
                LengthDist::point_mass(64, 128).expect("valid"),
                LengthDist::point_mass(32, 64).expect("valid"),
            ))
            .build()
            .expect("builds");
        assert!(engine.deploy_time(LoadSource::Ssd) > engine.deploy_time(LoadSource::Dram));
    }
}
