//! Scripted replica lifecycle actions: autoscaling and replica loss.
//!
//! Replicas move through a small state machine (see
//! [`ReplicaState`](crate::ReplicaState)): a scale-up takes a `Standby`
//! (or previously retired) replica through `Deploying` — charged its
//! DRAM-sourced [`deploy_time`](exegpt::Engine::deploy_time) before it
//! becomes routable — into `Active`; a scale-down puts an `Active`
//! replica into `Draining`, where it stops receiving dispatches, finishes
//! its queued work, and retires to `Down`. A loss takes a replica out at
//! once: its queued and in-flight work reroutes onto the survivors. A
//! recovery redeploys a lost replica like a scale-up. Actions are scripted
//! on the virtual clock so runs stay deterministic; a reactive controller
//! can be layered on top by generating the same action stream.

use serde::Serialize;

/// One scripted lifecycle action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleAction {
    /// Bring `replica` up: `Standby`/`Down`/`Lost` → `Deploying` →
    /// (after its deploy cost) `Active`.
    Up {
        /// Replica to deploy.
        replica: usize,
    },
    /// Drain `replica`: `Active` → `Draining` → (once quiescent) `Down`.
    Down {
        /// Replica to retire.
        replica: usize,
    },
    /// Lose `replica` (a whole-replica failure): → `Lost`, its queued and
    /// in-flight work rerouted onto the survivors.
    Lose {
        /// Replica that fails.
        replica: usize,
    },
    /// Redeploy `replica` after a loss: the same transitions as
    /// [`Up`](ScaleAction::Up), counted as a deploy but not a scale-up.
    Recover {
        /// Replica to redeploy.
        replica: usize,
    },
}

impl ScaleAction {
    /// The replica the action targets.
    pub fn replica(&self) -> usize {
        match *self {
            ScaleAction::Up { replica }
            | ScaleAction::Down { replica }
            | ScaleAction::Lose { replica }
            | ScaleAction::Recover { replica } => replica,
        }
    }
}

/// A scripted action scheduled on the fleet's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScaleEvent {
    /// Virtual time the action is applied.
    pub t: f64,
    /// The action.
    pub action: ScaleAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_know_their_target() {
        assert_eq!(ScaleAction::Up { replica: 3 }.replica(), 3);
        assert_eq!(ScaleAction::Down { replica: 1 }.replica(), 1);
        assert_eq!(ScaleAction::Lose { replica: 2 }.replica(), 2);
        assert_eq!(ScaleAction::Recover { replica: 0 }.replica(), 0);
    }
}
