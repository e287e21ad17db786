//! Replica specification, lifecycle state, and runtime handle.

use exegpt::{Engine, ScheduleConfig};
use exegpt_cluster::LoadSource;
use exegpt_serve::{LatencySamples, ReplicaSession, ServeLoop, ServeOptions, ServeReport};
use serde::Serialize;

use crate::error::FleetError;

/// The static description of one replica: a warm engine on its own
/// (possibly heterogeneous) GPU pool, the schedule it serves, and its
/// serving options. Building the spec validates the schedule on the pool
/// and precomputes the two signals the fabric needs — the plan's estimated
/// latency (SLO-aware routing) and the DRAM deploy cost (autoscaling and
/// recovery).
#[derive(Clone)]
pub struct ReplicaSpec {
    /// Replica name (reports and logs).
    pub name: String,
    engine: Engine,
    cfg: ScheduleConfig,
    opts: ServeOptions,
    /// Whether the replica starts as a standby (not routable until a
    /// scale-up deploys it) instead of active.
    pub standby: bool,
    plan_latency: f64,
    deploy_cost: f64,
}

impl ReplicaSpec {
    /// Creates a replica spec, validating `cfg` on the engine's pool.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Serve`] when the schedule is infeasible on the
    /// pool or the serving options are invalid.
    pub fn new(
        name: &str,
        engine: Engine,
        cfg: ScheduleConfig,
        opts: ServeOptions,
    ) -> Result<Self, FleetError> {
        // A throwaway session both validates (schedule feasibility, option
        // ranges) and yields the installed plan's latency estimate.
        let probe = ServeLoop::new(engine.clone(), &cfg, opts.clone())?.into_replica()?;
        let plan_latency = probe.plan_latency();
        let deploy_cost = engine.deploy_time(LoadSource::Dram).as_secs();
        Ok(Self { name: name.into(), engine, cfg, opts, standby: false, plan_latency, deploy_cost })
    }

    /// Marks the replica as a standby: it starts unroutable and joins the
    /// fleet only when a scale-up deploys it.
    pub fn standby(mut self) -> Self {
        self.standby = true;
        self
    }

    /// The installed plan's estimated per-request latency in seconds.
    pub fn plan_latency(&self) -> f64 {
        self.plan_latency
    }

    /// Virtual seconds to deploy the replica's model from DRAM — charged
    /// before a spun-up or recovered replica becomes routable.
    pub fn deploy_cost(&self) -> f64 {
        self.deploy_cost
    }

    /// The schedule the replica serves.
    pub fn config(&self) -> ScheduleConfig {
        self.cfg
    }

    /// Spawns a fresh serving session for this replica.
    pub(crate) fn spawn(&self) -> Result<ReplicaSession, FleetError> {
        Ok(ServeLoop::new(self.engine.clone(), &self.cfg, self.opts.clone())?.into_replica()?)
    }
}

impl std::fmt::Debug for ReplicaSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSpec")
            .field("name", &self.name)
            .field("config", &self.cfg.describe())
            .field("standby", &self.standby)
            .field("plan_latency", &self.plan_latency)
            .field("deploy_cost", &self.deploy_cost)
            .finish()
    }
}

/// Lifecycle state of a replica in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ReplicaState {
    /// Provisioned but not deployed; joins on a scale-up.
    Standby,
    /// Paying its deploy cost; routable at `ready_at`.
    Deploying {
        /// Virtual time the replica becomes routable.
        ready_at: f64,
    },
    /// Serving and routable.
    Active,
    /// Finishing queued work after a scale-down; not routable.
    Draining,
    /// Lost at `at` to a scripted [`ScaleAction::Lose`](crate::ScaleAction::Lose);
    /// work was rerouted.
    Lost {
        /// Loss time.
        at: f64,
    },
    /// Retired after draining.
    Down,
}

impl ReplicaState {
    /// Whether the router may dispatch new arrivals here.
    pub fn routable(&self) -> bool {
        matches!(self, ReplicaState::Active)
    }
}

/// A replica at run time: its spec, lifecycle state, live session (when
/// deployed), and the reports and latency samples of every session it has
/// run (a replica that is lost and later recovers contributes one of each
/// per life).
pub(crate) struct ReplicaHandle {
    pub(crate) spec: ReplicaSpec,
    pub(crate) state: ReplicaState,
    pub(crate) session: Option<ReplicaSession>,
    pub(crate) reports: Vec<ServeReport>,
    /// The fleet's latency rollups are merged from these.
    pub(crate) samples: Vec<LatencySamples>,
    pub(crate) dispatched: usize,
    pub(crate) completed: usize,
}

impl ReplicaHandle {
    pub(crate) fn new(spec: ReplicaSpec) -> Self {
        let state = if spec.standby { ReplicaState::Standby } else { ReplicaState::Active };
        Self {
            spec,
            state,
            session: None,
            reports: Vec::new(),
            samples: Vec::new(),
            dispatched: 0,
            completed: 0,
        }
    }

    /// Finishes `session`, whose completions have been drained, and keeps
    /// its report and latency samples.
    pub(crate) fn archive(&mut self, session: ReplicaSession) {
        let (report, samples) = session.finish_with_samples();
        self.reports.push(report);
        self.samples.push(samples);
    }
}

/// Per-replica slice of the fleet report.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaReport {
    /// Replica name.
    pub name: String,
    /// Final lifecycle state.
    pub state: ReplicaState,
    /// Requests dispatched to the replica (including reroutes onto it).
    pub dispatched: usize,
    /// Requests it completed.
    pub completed: usize,
    /// One serving report per session the replica ran (recovery after a
    /// loss starts a new session).
    pub reports: Vec<ServeReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_active_is_routable() {
        assert!(ReplicaState::Active.routable());
        for s in [
            ReplicaState::Standby,
            ReplicaState::Deploying { ready_at: 1.0 },
            ReplicaState::Draining,
            ReplicaState::Lost { at: 2.0 },
            ReplicaState::Down,
        ] {
            assert!(!s.routable());
        }
    }
}
