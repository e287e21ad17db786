//! Serving-loop errors.

use exegpt::ScheduleError;
use exegpt_cluster::ClusterError;
use exegpt_dist::DistError;
use exegpt_runner::RunError;

use crate::faults::FaultError;

/// Errors raised by the serving loop.
#[derive(Debug)]
pub enum ServeError {
    /// Execution failed (infeasible schedule, out-of-range batch, stall).
    Run(RunError),
    /// The initial schedule could not be built.
    Schedule(ScheduleError),
    /// Online distribution refitting failed.
    Dist(DistError),
    /// The fault schedule was invalid for this deployment.
    Fault(FaultError),
    /// The degraded topology could not be built (e.g. every device failed).
    Cluster(ClusterError),
    /// A device failure left no feasible schedule on the survivors; the
    /// run cannot continue.
    Failover {
        /// Devices remaining.
        survivors: usize,
        /// Scheduler error on the surviving topology.
        why: String,
    },
    /// An option was invalid.
    InvalidOption {
        /// Which option.
        what: &'static str,
        /// Why it was rejected.
        why: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Run(e) => write!(f, "serving run failed: {e}"),
            ServeError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            ServeError::Dist(e) => write!(f, "distribution refit failed: {e}"),
            ServeError::Fault(e) => write!(f, "invalid fault schedule: {e}"),
            ServeError::Cluster(e) => write!(f, "degraded topology is invalid: {e}"),
            ServeError::Failover { survivors, why } => {
                write!(f, "no feasible schedule on the {survivors} surviving devices: {why}")
            }
            ServeError::InvalidOption { what, why } => {
                write!(f, "invalid serve option `{what}`: {why}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Run(e) => Some(e),
            ServeError::Schedule(e) => Some(e),
            ServeError::Dist(e) => Some(e),
            ServeError::Fault(e) => Some(e),
            ServeError::Cluster(e) => Some(e),
            ServeError::Failover { .. } | ServeError::InvalidOption { .. } => None,
        }
    }
}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> Self {
        ServeError::Run(e)
    }
}

impl From<ScheduleError> for ServeError {
    fn from(e: ScheduleError) -> Self {
        ServeError::Schedule(e)
    }
}

impl From<DistError> for ServeError {
    fn from(e: DistError) -> Self {
        ServeError::Dist(e)
    }
}

impl From<FaultError> for ServeError {
    fn from(e: FaultError) -> Self {
        ServeError::Fault(e)
    }
}

impl From<ClusterError> for ServeError {
    fn from(e: ClusterError) -> Self {
        ServeError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::InvalidOption { what: "drift.window", why: "must be > 0".into() };
        assert!(e.to_string().contains("drift.window"));
        let e: ServeError = DistError::EmptySamples.into();
        assert!(e.to_string().contains("refit"));
    }
}
