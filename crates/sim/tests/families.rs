//! Cross-family and cross-cluster simulation coverage: the A100 cluster,
//! the long-context C2 task, and both encoder-decoder presets.

use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{RraConfig, Simulator, TpConfig, WaaConfig, WaaVariant, Workload};

fn sim_on(
    model: ModelConfig,
    cluster: ClusterSpec,
    input: (f64, f64, usize),
    output: (f64, f64, usize),
) -> Simulator {
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiling succeeds");
    let workload = Workload::new(
        LengthDist::truncated_normal(input.0, input.1, input.2).expect("valid"),
        LengthDist::truncated_normal(output.0, output.1, output.2).expect("valid"),
    );
    Simulator::new(model, cluster, Arc::new(profile), workload)
}

/// Task C2 (long contexts) on the A100 cluster with GPT-3 101B: the
/// Figure 8 regime, evaluated through the closed-form simulator.
#[test]
fn gpt3_101b_on_a100_handles_long_contexts() {
    let sim = sim_on(
        ModelConfig::gpt3_101b(),
        ClusterSpec::a100_cluster(),
        (512.0, 252.0, 1024),
        (256.0, 134.0, 640),
    );
    let est = sim.evaluate_rra(&RraConfig::new(8, 32, TpConfig::none())).expect("feasible");
    assert!(est.throughput > 0.0 && est.latency.is_finite());
    // NVLink makes full TP cheap: a TP-heavy config must also be feasible.
    let tp = sim
        .evaluate_rra(&RraConfig::new(8, 32, TpConfig { degree: 8, gpus: 16 }))
        .expect("feasible");
    assert!(tp.latency < est.latency, "TP on NVLink should cut latency");
}

/// The same schedule is faster on A100s than on A40s — the substrate
/// ordering sanity check behind every cross-cluster figure.
#[test]
fn a100_outruns_a40_at_matched_configuration() {
    let mk = |cluster: ClusterSpec| {
        sim_on(ModelConfig::gpt3_39b(), cluster, (128.0, 81.0, 256), (128.0, 68.0, 320))
    };
    let a40 = mk(ClusterSpec::a40_cluster().subcluster(16).expect("fits"));
    let a100 = mk(ClusterSpec::a100_cluster());
    let cfg = RraConfig::new(16, 16, TpConfig::none());
    let t40 = a40.evaluate_rra(&cfg).expect("feasible");
    let t100 = a100.evaluate_rra(&cfg).expect("feasible");
    assert!(t100.throughput > t40.throughput);
    assert!(t100.latency < t40.latency);
}

/// Both encoder-decoder presets (T5 and UL2) schedule under both families,
/// and WAA does *not* pay the decoder-only replica penalty: its encoder
/// GPUs hold encoder layers only.
#[test]
fn encoder_decoder_models_waa_without_replica() {
    for model in [ModelConfig::t5_11b(), ModelConfig::ul2_20b()] {
        let sim = sim_on(
            model.clone(),
            ClusterSpec::a40_cluster().subcluster(8).expect("fits"),
            (256.0, 252.0, 512),
            (32.0, 13.0, 80),
        );
        let est = sim
            .evaluate_waa(&WaaConfig::new(4, 2, TpConfig::none(), WaaVariant::Compute))
            .expect("feasible");
        // Encoder-side parameters are encoder layers only: one GPU's slice
        // can never exceed the whole encoder stack, which is itself well
        // under a full-model replica (the decoder-only penalty, §4.1).
        let enc_stack = model
            .layer_run_param_bytes(exegpt_model::LayerKind::Encoder, model.num_encoder_layers());
        assert!(
            est.memory.encoder_gpu.param_bytes <= enc_stack,
            "{}: encoder gpu holds more than the encoder stack",
            model.name()
        );
        assert!(enc_stack < model.param_bytes(), "the encoder stack is a strict subset");
        assert!(est.throughput > 0.0);
    }
}

/// An empirical workload (as estimated from a dataset) drives the simulator
/// exactly like a parametric one.
#[test]
fn empirical_workloads_are_first_class() {
    let inputs: Vec<usize> = (0..500).map(|i| 64 + (i * 37) % 192).collect();
    let outputs: Vec<usize> = (0..500).map(|i| 16 + (i * 53) % 112).collect();
    let workload = Workload::new(
        LengthDist::empirical(&inputs).expect("non-empty"),
        LengthDist::empirical(&outputs).expect("non-empty"),
    );
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let sim = Simulator::new(model, cluster, Arc::new(profile), workload);
    let est = sim.evaluate_rra(&RraConfig::new(16, 16, TpConfig::none())).expect("feasible");
    assert!(est.throughput > 0.0 && est.latency.is_finite());
}
