//! Ablations of the design choices DESIGN.md calls out (beyond the paper's
//! own figures), on OPT-13B / 4×A40, task T:
//!
//! 1. Early termination + cache compaction (ExeGPT RRA) versus fixed-batch
//!    decoding to the batch maximum (FT) at a *matched* admission batch —
//!    isolating the paper's diminishing-batch argument from batch sizing.
//! 2. Dynamic workload adjustment (§5.2) on/off: effect on encoder
//!    stage-time spread.
//! 3. KV reservation disciplines: peak cache tokens under up-front,
//!    incremental, and paged policies at matched load.

use exegpt::{RraConfig, ScheduleConfig, TpConfig};
use exegpt_baselines::FasterTransformer;
use exegpt_runner::{KvTracker, ReservePolicy, RunOptions, RunReport, Runner};
use exegpt_workload::Task;
use serde::{Deserialize, Serialize};

use crate::scenarios::opt_4xa40;

/// Queries admitted in the KV-discipline ablation.
const KV_QUERIES: u64 = 256;

/// Peak KV occupancy of one reservation discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvPeak {
    /// Discipline name (`up-front`, `incremental`, `paged(16)`).
    pub policy: String,
    /// Peak tokens held.
    pub peak_tokens: u64,
}

/// One ablation's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Row {
    /// RRA's early termination versus FT's fixed batch, both holding the
    /// same number of queries resident.
    EarlyTermination {
        /// RRA's steady decode pool, handed to FT as its static batch.
        batch: usize,
        /// ExeGPT-RRA measured throughput (queries/s).
        rra: f64,
        /// FT fixed-batch measured throughput (queries/s).
        ft: f64,
    },
    /// Encoder stage-time spread (± % of the mean) with the §5.2 dynamic
    /// adjustment on and off.
    Adjustment {
        /// Spread with adjustment.
        on: f64,
        /// Spread without adjustment.
        off: f64,
    },
    /// Peak KV tokens per reservation discipline at matched load.
    KvPeaks {
        /// Queries admitted (input 128, actual output 128, declared 320).
        queries: u64,
        /// One entry per discipline.
        peaks: Vec<KvPeak>,
    },
}

/// Encoder stage spread of a run as ± % of its mean stage time.
fn spread(report: &RunReport) -> f64 {
    let (mean, half) = report.encoder_stage_stats();
    if mean > 0.0 {
        100.0 * half / mean
    } else {
        0.0
    }
}

/// Runs the three ablations.
pub fn generate() -> Vec<Row> {
    let sim = opt_4xa40().simulator_for(Task::Translation);
    let runner = Runner::from_simulator(sim.clone());

    // 1. Early termination at a matched resident batch: RRA's steady pool
    //    size B_D is handed to FT as its static batch, so only the
    //    termination/refill policy differs.
    let cfg16 = RraConfig::new(16, 16, TpConfig::none());
    let batch = sim.evaluate_rra(&cfg16).expect("feasible").breakdown.decode_batch;
    let opts = RunOptions { num_queries: 4 * batch, warmup_frac: 0.25, ..Default::default() };
    let rra = runner.run(&ScheduleConfig::Rra(cfg16), &opts).expect("runs");
    let ft = FasterTransformer::paper_default(sim).expect("grid builds");
    let ft = ft.run(batch, &opts).expect("runs");

    // 2. Dynamic adjustment on/off (a threshold of 2.0 never triggers).
    let cfg = ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()));
    let adjusted = |adjust_threshold| {
        let opts = RunOptions { num_queries: 600, adjust_threshold, ..Default::default() };
        spread(&runner.run(&cfg, &opts).expect("runs"))
    };

    // 3. KV disciplines at matched load, tracked in tokens.
    let peaks = [
        ("up-front", ReservePolicy::UpFront),
        ("incremental", ReservePolicy::Incremental),
        ("paged(16)", ReservePolicy::Paged { page_tokens: 16 }),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut kv = KvTracker::new(1.0, u64::MAX >> 1, policy);
        for id in 0..KV_QUERIES {
            if let Some(slot) = kv.try_admit(id, 128, 320) {
                let _ = kv.grow_slot(slot, 128);
            }
        }
        KvPeak { policy: name.to_string(), peak_tokens: kv.peak_bytes() }
    })
    .collect();

    vec![
        Row::EarlyTermination { batch, rra: rra.throughput, ft: ft.throughput },
        Row::Adjustment { on: adjusted(0.15), off: adjusted(2.0) },
        Row::KvPeaks { queries: KV_QUERIES, peaks },
    ]
}

/// Renders one line per ablation.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from("Ablations (OPT-13B / 4xA40, task T)\n");
    for row in rows {
        let line = match row {
            Row::EarlyTermination { batch, rra, ft } => format!(
                "early termination at matched resident batch {batch}: \
                 ExeGPT-RRA {rra:.2} q/s vs FT fixed-batch {ft:.2} q/s ({:.2}x)",
                rra / ft
            ),
            Row::Adjustment { on, off } => {
                format!(
                    "dynamic adjustment: encoder stage spread ±{on:.1}% (on) vs ±{off:.1}% (off)"
                )
            }
            Row::KvPeaks { queries, peaks } => {
                let peaks: Vec<String> = peaks
                    .iter()
                    .map(|p| format!("{} {}k tokens", p.policy, p.peak_tokens / 1000))
                    .collect();
                format!("kv peak at matched load ({queries} queries): {}", peaks.join(", "))
            }
        };
        out.push_str(&format!("  {line}\n"));
    }
    out
}
