//! Shared machinery for the baseline systems.

use exegpt_sim::{PipelineLayout, RraPlan, SimError, Simulator, TpConfig};

/// The paper's baseline parallel configuration: maximize tensor parallelism
/// within a node, pipeline across nodes (§7.1). Returns `(tp, pp)`.
pub(crate) fn paper_parallelism(sim: &Simulator) -> (usize, usize) {
    let n = sim.cluster().total_gpus();
    let profiled = sim.profile().tp_degrees();
    let tp = profiled
        .into_iter()
        .filter(|&d| d <= sim.cluster().gpus_per_node() && n.is_multiple_of(d))
        .max()
        .unwrap_or(1);
    (tp, n / tp)
}

/// A uniform PP×TP pipeline (the baselines' only layout). Like an RRA plan,
/// every stage holds a slice of both passes: one shared allocation for
/// decoder-only models, encoder and decoder slices for T5-style models (as
/// FasterTransformer partitions them).
pub(crate) type GridPlan = RraPlan;

pub(crate) fn build_grid(sim: &Simulator, tp: usize) -> Result<GridPlan, SimError> {
    let n = sim.cluster().total_gpus();
    if tp == 0 || !n.is_multiple_of(tp) {
        return Err(SimError::InvalidConfig {
            what: "tp",
            why: format!("tensor parallelism {tp} does not divide {n} gpus"),
        });
    }
    let cfg = if tp == 1 { TpConfig::none() } else { TpConfig { degree: tp, gpus: n } };
    // Uniform grid: every stage is a TP group, so relative speeds are equal
    // and the speedup value only needs to be positive.
    let layout = PipelineLayout::build(n, cfg, 1.0, sim.cluster().gpus_per_node())?;
    GridPlan::allocate(sim, layout)
}

/// Per-GPU parameter bytes on the bottleneck stage of `plan`.
pub(crate) fn param_bytes_per_gpu(sim: &Simulator, plan: &GridPlan) -> u64 {
    let dec_only = sim.enc_layers_total() == sim.model().num_layers();
    plan.enc_alloc
        .iter()
        .zip(&plan.dec_alloc)
        .zip(plan.layout.stages())
        .map(|((&e, &d), s)| {
            let bytes = if dec_only {
                d as u64 * sim.dec_layer_bytes()
            } else {
                e as u64 * sim.enc_layer_bytes() + d as u64 * sim.dec_layer_bytes()
            };
            bytes / s.tp as u64
        })
        .max()
        .unwrap_or(0)
}

/// Batch sizes the paper sweeps: multiples of four from the minimum up
/// (§7.1, "minimum to maximum batch sizes in multiples of four").
pub(crate) fn batch_sweep(max: usize) -> impl Iterator<Item = usize> {
    (1..).map(|i| i * 4).take_while(move |&b| b <= max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_cluster::ClusterSpec;
    use exegpt_model::ModelConfig;
    use exegpt_profiler::{ProfileOptions, Profiler};
    use exegpt_workload::Task;
    use std::sync::Arc;

    fn sim(gpus: usize) -> Simulator {
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        Simulator::new(model, cluster, Arc::new(profile), Task::Translation.workload().unwrap())
    }

    #[test]
    fn paper_parallelism_maximizes_intra_node_tp() {
        let (tp, pp) = paper_parallelism(&sim(4));
        assert_eq!((tp, pp), (4, 1));
        let (tp, pp) = paper_parallelism(&sim(16));
        assert_eq!((tp, pp), (8, 2));
    }

    #[test]
    fn grid_covers_all_layers() {
        let s = sim(16);
        let g = build_grid(&s, 8).expect("valid");
        assert_eq!(g.layout.num_stages(), 2);
        assert_eq!(g.dec_alloc.iter().sum::<usize>(), 40);
        assert_eq!(g.enc_alloc, g.dec_alloc, "decoder-only shares one allocation");
        assert!(build_grid(&s, 3).is_err());
    }

    #[test]
    fn batch_sweep_is_multiples_of_four() {
        let v: Vec<usize> = batch_sweep(17).collect();
        assert_eq!(v, vec![4, 8, 12, 16]);
    }
}
