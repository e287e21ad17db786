//! Figure 9: per-GPU memory usage of FT versus WAA (encoder/decoder GPUs
//! reported separately), tasks T and G at the unconstrained bound — the
//! regime where batch sizes, and hence memory pressure, are largest (§7.3).

use exegpt::{Policy, SchedulerOptions};
use exegpt_baselines::FasterTransformer;
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_units::Secs;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::System;
use crate::table;

const GIB: f64 = (1u64 << 30) as f64;

/// One deployment/task row of Figure 9, all values in GiB per GPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Deployment name.
    pub system: String,
    /// Task id (T or G).
    pub task: String,
    /// FT model-parameter memory.
    pub ft_model: f64,
    /// FT key/value-cache memory.
    pub ft_kv: f64,
    /// WAA encoder-GPU model memory.
    pub waa_enc_model: f64,
    /// WAA encoder-GPU KV memory.
    pub waa_enc_kv: f64,
    /// WAA decoder-GPU model memory.
    pub waa_dec_model: f64,
    /// WAA decoder-GPU KV memory.
    pub waa_dec_kv: f64,
    /// Which WAA variant the scheduler selected.
    pub waa_variant: String,
}

/// The deployments Figure 9 measures.
pub fn systems() -> Vec<System> {
    vec![
        System::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster(), 4),
        System::new(ModelConfig::gpt3_101b(), ClusterSpec::a100_cluster(), 16),
    ]
}

/// Regenerates Figure 9.
pub fn generate() -> Vec<Row> {
    let mut rows = Vec::new();
    for system in systems() {
        for task in [Task::Translation, Task::CodeGeneration] {
            let workload = task.workload().expect("task statistics are valid");

            let ft = FasterTransformer::paper_default(system.simulator(workload.clone()))
                .expect("grid builds");
            let Some((_, ft_est)) = ft.plan(Secs::INFINITY) else { continue };

            let engine = system.engine(workload);
            let opts = SchedulerOptions {
                policies: vec![Policy::WaaCompute, Policy::WaaMemory],
                ..SchedulerOptions::bounded(Secs::INFINITY)
            };
            let Ok(waa) = engine.schedule_with(&opts) else { continue };
            let variant = match waa.config {
                exegpt::ScheduleConfig::Waa(c) => match c.variant {
                    exegpt::WaaVariant::Compute => "WAA-C",
                    exegpt::WaaVariant::Memory => "WAA-M",
                },
                _ => "?",
            };
            let m = waa.estimate.memory;
            rows.push(Row {
                system: system.name.clone(),
                task: task.id().to_string(),
                ft_model: ft_est.memory.decoder_gpu.param_bytes as f64 / GIB,
                ft_kv: ft_est.memory.decoder_gpu.kv_bytes as f64 / GIB,
                waa_enc_model: m.encoder_gpu.param_bytes as f64 / GIB,
                waa_enc_kv: m.encoder_gpu.kv_bytes as f64 / GIB,
                waa_dec_model: m.decoder_gpu.param_bytes as f64 / GIB,
                waa_dec_kv: m.decoder_gpu.kv_bytes as f64 / GIB,
                waa_variant: variant.to_string(),
            });
        }
    }
    rows
}

/// Renders the rows as the figure's table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                r.task.clone(),
                format!("{:.1}", r.ft_model),
                format!("{:.1}", r.ft_kv),
                format!("{:.1}", r.waa_enc_model),
                format!("{:.1}", r.waa_enc_kv),
                format!("{:.1}", r.waa_dec_model),
                format!("{:.1}", r.waa_dec_kv),
                r.waa_variant.clone(),
            ]
        })
        .collect();
    format!(
        "Figure 9: per-GPU memory (GiB), FT vs WAA encoder/decoder GPUs, L_B = inf\n{}",
        table::render(
            &[
                "system",
                "task",
                "FT.model",
                "FT.kv",
                "WAA.enc.model",
                "WAA.enc.kv",
                "WAA.dec.model",
                "WAA.dec.kv",
                "variant"
            ],
            &body
        )
    )
}
