//! Model/cluster deployments of the paper's evaluation (Table 2) and the
//! shared profiling cache.

use std::sync::Arc;

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileCache};
use exegpt_sim::{Simulator, Workload};
use exegpt_workload::Task;

/// One deployed system: a model on a sub-cluster (a Table 2 row).
#[derive(Debug, Clone)]
pub struct System {
    /// Short display name, e.g. `OPT-13B/4xA40`.
    pub name: String,
    /// The model.
    pub model: ModelConfig,
    /// The (sub-)cluster it is deployed on.
    pub cluster: ClusterSpec,
}

impl System {
    /// Builds a system on the first `gpus` GPUs of `base`.
    ///
    /// # Panics
    ///
    /// Panics if the sub-cluster is invalid (fixed scenario definitions).
    pub fn new(model: ModelConfig, base: ClusterSpec, gpus: usize) -> Self {
        let cluster = base.subcluster(gpus).expect("scenario sub-cluster is valid");
        let name = format!("{}/{}x{}", model.name().replace(' ', "-"), gpus, cluster.gpu().name());
        Self { name, model, cluster }
    }

    /// The cached layer profile for this deployment (profiled on first use).
    pub fn profile(&self) -> Arc<LayerProfile> {
        ProfileCache::global()
            .get_or_profile(&self.model, &self.cluster)
            .expect("scenario profiling succeeds")
    }

    /// A simulator for this deployment under `workload`.
    pub fn simulator(&self, workload: Workload) -> Simulator {
        Simulator::new(self.model.clone(), self.cluster.clone(), self.profile(), workload)
    }

    /// A simulator for a Table 3 task.
    pub fn simulator_for(&self, task: Task) -> Simulator {
        self.simulator(task.workload().expect("task statistics are valid"))
    }

    /// An ExeGPT engine for this deployment under `workload`.
    pub fn engine(&self, workload: Workload) -> Engine {
        Engine::builder()
            .model(self.model.clone())
            .cluster(self.cluster.clone())
            .workload(workload)
            .profile(self.profile())
            .build()
            .expect("scenario engine builds")
    }
}

/// Small-to-mid-sized deployments of Figure 6 (Table 2 rows).
pub fn small_mid_systems() -> Vec<System> {
    vec![
        System::new(ModelConfig::t5_11b(), ClusterSpec::a40_cluster(), 8),
        System::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster(), 4),
        System::new(ModelConfig::gpt3_39b(), ClusterSpec::a40_cluster(), 16),
        System::new(ModelConfig::gpt3_101b(), ClusterSpec::a100_cluster(), 16),
    ]
}

/// Large deployments of Figure 8.
pub fn large_systems() -> Vec<System> {
    vec![
        System::new(ModelConfig::gpt3_101b(), ClusterSpec::a100_cluster(), 16),
        System::new(ModelConfig::gpt3_175b(), ClusterSpec::a100_cluster(), 16),
        System::new(ModelConfig::gpt3_175b(), ClusterSpec::a40_cluster(), 32),
        System::new(ModelConfig::gpt3_341b(), ClusterSpec::a40_cluster(), 48),
    ]
}

/// The Figure 7 / Figure 11 / Table 6-7 comparison deployment.
pub fn opt_4xa40() -> System {
    System::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster(), 4)
}

/// The second real-world-dataset deployment (Figure 10).
pub fn gpt39b_16xa40() -> System {
    System::new(ModelConfig::gpt3_39b(), ClusterSpec::a40_cluster(), 16)
}

/// The monotonicity-study deployment (Table 5).
pub fn gpt39b_for_tab5() -> System {
    gpt39b_16xa40()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systems_have_expected_sizes() {
        let sys = small_mid_systems();
        assert_eq!(sys.len(), 4);
        assert_eq!(sys[0].cluster.total_gpus(), 8);
        assert_eq!(sys[3].cluster.gpu().name(), "A100-80GB");
        assert!(sys[1].name.contains("OPT-13B"));
    }

    #[test]
    fn profile_cache_is_shared() {
        let a = opt_4xa40().profile();
        let b = opt_4xa40().profile();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
