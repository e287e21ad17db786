//! Iteration-level scheduling: ORCA, and vLLM as a setting of the same
//! engine (paper §2; §7.1 uses vLLM's iteration-level mode as the stand-in
//! for proprietary ORCA).
//!
//! Every iteration decodes the running batch *and* prefills whatever new
//! queries were admitted into freed slots — the prefill work rides inside
//! the decoding iteration, which keeps batches full (no diminishing-batch
//! problem) but injects large, input-length-dependent stalls into every
//! ongoing query's token cadence. That jitter is precisely why the paper
//! finds iteration-level scheduling hard to bound (§2).

use exegpt_runner::{CompletionLog, KvSlot, ReservePolicy, RunError, RunOptions, RunReport};
use exegpt_sim::{Estimate, SimError, Simulator};
use exegpt_units::Secs;
use exegpt_workload::Request;

use crate::grid::Grid;

/// Tunables distinguishing the iteration-level systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationLevel {
    /// Maximum number of new queries prefill-admitted per iteration
    /// (ORCA: unlimited — fill all free slots; vLLM's iteration-level mode:
    /// one, §7.1).
    pub max_admissions_per_iter: usize,
    /// KV reservation discipline.
    pub kv_policy: ReservePolicy,
    /// Fixed host overhead added to every iteration (scheduler hop,
    /// kernel dispatch).
    pub base_overhead_s: f64,
    /// Per-running-sequence host overhead per iteration. The paper traces
    /// FT's win over vLLM/ORCA to exactly this un-maskable Python-executor
    /// cost (§7.2); in the 2023 engines it scaled with the batch (per-
    /// sequence scheduling, block-table and sampling bookkeeping). The
    /// constants are calibrated so the Figure 7 ordering reproduces on the
    /// paper's OPT-13B / 4xA40 setup (see EXPERIMENTS.md).
    pub per_seq_overhead_s: f64,
}

impl IterationLevel {
    /// ORCA's settings: greedy slot refill, incremental KV, C++ runtime.
    pub fn orca() -> Self {
        Self {
            max_admissions_per_iter: usize::MAX,
            kv_policy: ReservePolicy::Incremental,
            // The paper evaluates ORCA via vLLM's iteration-level mode
            // (§7.1), so it carries the same engine overhead.
            base_overhead_s: 5e-3,
            per_seq_overhead_s: 0.55e-3,
        }
    }

    /// vLLM's settings: one prefill per iteration, paged KV, Python host
    /// overhead (~2 ms per iteration on the paper's A40 setup).
    pub fn vllm() -> Self {
        Self {
            max_admissions_per_iter: 1,
            kv_policy: ReservePolicy::Paged { page_tokens: 16 },
            base_overhead_s: 5e-3,
            per_seq_overhead_s: 0.65e-3,
        }
    }
}

/// An iteration-level serving system over the common PP×TP grid: ORCA, or
/// vLLM with [`IterationLevel::vllm`].
#[derive(Debug, Clone)]
pub struct Orca {
    grid: Grid,
    settings: IterationLevel,
}

impl Orca {
    /// Creates the system with the paper's parallel configuration and the
    /// given iteration-level settings.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if no valid grid exists.
    pub fn new(sim: Simulator, settings: IterationLevel) -> Result<Self, SimError> {
        Ok(Self { grid: Grid::new(sim)?, settings })
    }

    /// Closed-form steady-state estimate for a slot count of `batch`.
    ///
    /// Latency is for a 99th-percentile-length query (early termination
    /// applies, §7.1); each of its tokens pays the average iteration time,
    /// which includes the amortized in-iteration prefill work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for infeasible slot counts.
    pub fn estimate(&self, batch: usize) -> Result<Estimate, SimError> {
        let g = &self.grid;
        // Memory feasibility with the configured KV policy.
        let memory = g.reserve(batch, self.settings.kv_policy)?;
        let w = g.sim().workload();
        let mean_in = w.input().mean();
        let mean_out = w.output().mean().max(1.0);
        let ctx = w.mean_decode_context().as_f64();

        // Steady state: batch/mean_out queries complete (and are admitted)
        // per iteration; their prefill executes inside the iteration. When
        // admissions are capped below the completion rate (vLLM's
        // one-per-iteration mode), they limit throughput.
        let admissions =
            (batch as f64 / mean_out).min(self.settings.max_admissions_per_iter as f64);
        let m_d = g.stages().min(batch).max(1);
        let dec_stage = g.decode(batch as f64 / m_d as f64, ctx)?;
        let enc_stage = if admissions > 0.0 { g.encode(admissions, mean_in)? } else { Secs::ZERO };
        let host = self.settings.base_overhead_s + self.settings.per_seq_overhead_s * batch as f64;
        let t_iter = dec_stage * m_d as f64 + enc_stage + Secs::new(host);
        let (latency, throughput) = (t_iter * w.l99() as f64, admissions / t_iter.as_secs());
        Ok(g.estimate(
            batch,
            memory,
            latency,
            throughput,
            [enc_stage, dec_stage * m_d as f64, t_iter],
        ))
    }

    /// Sweeps slot counts (multiples of four) for the best throughput under
    /// `bound`.
    pub fn plan(&self, bound: Secs) -> Option<(usize, Estimate)> {
        self.grid.best_batch(bound, |b| self.estimate(b))
    }

    /// Executes iteration-level serving with `batch` slots over sampled
    /// queries.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for infeasible configurations, and
    /// [`RunError::InvalidOptions`] for options a closed-loop replay cannot
    /// honour (see [`RunOptions`]).
    pub fn run(&self, batch: usize, opts: &RunOptions) -> Result<RunReport, RunError> {
        let g = &self.grid;
        let mut pending = g.pending(opts)?;
        self.estimate(batch)?;
        let stages = g.stages();
        let max_out = g.sim().workload().output().max_len();
        let mut kv = g.kv(self.settings.kv_policy);

        struct Slot {
            req: Request,
            progress: usize,
            t_admitted: f64,
            fresh: bool,
            kv_slot: KvSlot,
        }
        let mut running: Vec<Slot> = Vec::new();
        let mut t = 0.0f64;
        let mut log = CompletionLog::new(opts);
        let mut tokens: u64 = 0;

        while log.completed() < opts.num_queries {
            // Admit into free slots (up to the per-iteration cap).
            let mut admitted = 0usize;
            let mut admitted_tokens = 0usize;
            while running.len() < batch && admitted < self.settings.max_admissions_per_iter {
                let Some(req) = pending.last().copied() else { break };
                let Some(kv_slot) = kv.try_admit(req.id, req.input_len, max_out) else { break };
                pending.pop();
                admitted += 1;
                admitted_tokens += req.input_len;
                running.push(Slot { req, progress: 0, t_admitted: t, fresh: true, kv_slot });
            }
            if running.is_empty() {
                if pending.is_empty() {
                    break;
                }
                return Err(RunError::Stalled {
                    why: "next query cannot fit in the kv cache".to_string(),
                });
            }

            // One iteration: decode everyone + the admitted prefills.
            let active = running.len();
            let ctx: f64 =
                running.iter().map(|s| (s.req.input_len + s.progress) as f64).sum::<f64>()
                    / active as f64;
            let m_d = stages.min(active).max(1);
            let dec_stage = g.decode(active as f64 / m_d as f64, ctx)?;
            log.decoder_stage_times.push(dec_stage.as_secs());
            let host =
                self.settings.base_overhead_s + self.settings.per_seq_overhead_s * active as f64;
            let mut t_iter = (dec_stage * m_d as f64).as_secs() + host;
            if admitted > 0 {
                let mean_in = admitted_tokens as f64 / admitted as f64;
                let enc_stage = g.encode(admitted as f64, mean_in)?;
                log.encoder_stage_times.push(enc_stage.as_secs());
                t_iter += enc_stage.as_secs();
            }
            t += t_iter;

            // Advance everyone that was decoding this iteration (the newly
            // admitted did their prefill; their first token comes next).
            let mut i = 0;
            while i < running.len() {
                if running[i].fresh {
                    running[i].fresh = false;
                    i += 1;
                    continue;
                }
                running[i].progress += 1;
                tokens += 1;
                kv.grow_slot_or_clamp(running[i].kv_slot, 1);
                if running[i].progress >= running[i].req.output_len {
                    let done = running.swap_remove(i);
                    kv.release(done.kv_slot);
                    log.complete(t, done.t_admitted);
                } else {
                    i += 1;
                }
            }
        }

        Ok(log.into_report(tokens, kv.peak_bytes(), kv.clamped_tokens(), g.params()))
    }
}
