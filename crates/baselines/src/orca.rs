//! Iteration-level scheduling: ORCA, and the engine it shares with vLLM
//! (paper §2; §7.1 uses vLLM's iteration-level mode as the stand-in for
//! proprietary ORCA).
//!
//! Every iteration decodes the running batch *and* prefills whatever new
//! queries were admitted into freed slots — the prefill work rides inside
//! the decoding iteration, which keeps batches full (no diminishing-batch
//! problem) but injects large, input-length-dependent stalls into every
//! ongoing query's token cadence. That jitter is precisely why the paper
//! finds iteration-level scheduling hard to bound (§2).

use exegpt_runner::{
    windowed_throughput, KvSlot, KvTracker, ReservePolicy, RunError, RunOptions, RunReport,
};
use exegpt_sim::{Pass, SimError, Simulator};
use exegpt_units::Secs;
use exegpt_workload::{Request, RequestStream};

use crate::common::{batch_sweep, build_grid, paper_parallelism, param_bytes_per_gpu, GridPlan};

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

/// An iteration-level serving system over the common PP×TP grid.
#[derive(Debug, Clone)]
pub struct Orca {
    sim: Simulator,
    plan: GridPlan,
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
        let (tp, _) = paper_parallelism(&sim);
        let plan = build_grid(&sim, tp)?;
        Ok(Self { sim, plan, settings })
    }

    /// The underlying simulator context.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The iteration-level settings in use.
    pub fn settings(&self) -> IterationLevel {
        self.settings
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
    pub fn estimate(&self, batch: usize) -> Result<exegpt_sim::Estimate, SimError> {
        if batch == 0 {
            return Err(SimError::InvalidConfig { what: "batch", why: "must be >= 1".into() });
        }
        let w = self.sim.workload();
        let mean_in = w.input().mean();
        let mean_out = w.output().mean().max(1.0);
        let ctx = w.mean_decode_context().as_f64();
        let (profile, plan) = (self.sim.profile(), &self.plan);
        let stages = plan.layout.num_stages();

        // Memory feasibility with the configured KV policy.
        let kv_per_token =
            plan.layout.kv_bytes_per_token(&plan.dec_alloc, self.sim.model()).as_f64();
        let params = param_bytes_per_gpu(&self.sim, plan);
        let per_query_tokens = match self.settings.kv_policy {
            ReservePolicy::UpFront => mean_in + w.output().max_len() as f64,
            ReservePolicy::Incremental => self.sim.kv_ctx_tokens().as_f64(),
            ReservePolicy::Paged { page_tokens } => {
                let held = self.sim.kv_ctx_tokens().as_f64();
                (held / page_tokens as f64).ceil() * page_tokens as f64
            }
        };
        let kv_needed = (batch as f64 * per_query_tokens * kv_per_token) as u64;
        let capacity = self.sim.usable_capacity();
        if params + kv_needed > capacity {
            return Err(SimError::OutOfMemory {
                role: "worker",
                needed: params + kv_needed,
                capacity,
            });
        }

        // Steady state: batch/mean_out queries complete (and are admitted)
        // per iteration; their prefill executes inside the iteration.
        let admissions =
            (batch as f64 / mean_out).min(self.settings.max_admissions_per_iter as f64);
        let m_d = stages.min(batch).max(1);
        let dec = Pass::Decode { batch: batch as f64 / m_d as f64, ctx, input_len: mean_in };
        let dec_stage = plan.layout.stage_times(profile, &plan.dec_alloc, dec)?.bottleneck;
        let enc_stage = if admissions > 0.0 {
            let enc = Pass::Encode { batch: admissions, seq: mean_in };
            plan.layout.stage_times(profile, &plan.enc_alloc, enc)?.bottleneck
        } else {
            Secs::ZERO
        };
        let host = self.settings.base_overhead_s + self.settings.per_seq_overhead_s * batch as f64;
        let t_iter = dec_stage * m_d as f64 + enc_stage + Secs::new(host);

        // Throughput is limited by admissions when they are capped below
        // the completion rate (vLLM's one-per-iteration mode).
        let completions_per_iter =
            (batch as f64 / mean_out).min(if self.settings.max_admissions_per_iter == usize::MAX {
                f64::INFINITY
            } else {
                self.settings.max_admissions_per_iter as f64
            });
        let throughput = completions_per_iter / t_iter.as_secs();
        let latency = t_iter * w.l99() as f64;

        let footprint = exegpt_model::MemoryFootprint {
            param_bytes: params,
            kv_bytes: kv_needed,
            activation_bytes: 0,
        };
        Ok(exegpt_sim::Estimate {
            latency,
            throughput,
            memory: exegpt_sim::MemoryReport {
                encoder_gpu: footprint,
                decoder_gpu: footprint,
                capacity,
            },
            breakdown: exegpt_sim::Breakdown {
                encode_time: enc_stage,
                decode_time: dec_stage * m_d as f64,
                period: t_iter,
                stages,
                decode_batch: batch,
            },
        })
    }

    /// Sweeps slot counts (multiples of four) for the best throughput under
    /// `bound`.
    pub fn plan(&self, bound: Secs) -> Option<(usize, exegpt_sim::Estimate)> {
        let mut best: Option<(usize, exegpt_sim::Estimate)> = None;
        for b in batch_sweep(self.sim.profile().max_batch()) {
            match self.estimate(b) {
                Ok(est) if est.latency <= bound => {
                    if best.as_ref().is_none_or(|(_, e)| est.throughput > e.throughput) {
                        best = Some((b, est));
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        best
    }

    /// Executes iteration-level serving with `batch` slots over sampled
    /// queries.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for infeasible configurations.
    pub fn run(&self, batch: usize, opts: &RunOptions) -> Result<RunReport, RunError> {
        self.estimate(batch)?;
        let w = self.sim.workload();
        let (profile, plan) = (self.sim.profile(), &self.plan);
        let stages = plan.layout.num_stages();

        let kv_per_token =
            plan.layout.kv_bytes_per_token(&plan.dec_alloc, self.sim.model()).as_f64();
        let params = param_bytes_per_gpu(&self.sim, plan);
        let capacity = self.sim.usable_capacity().saturating_sub(params);
        let mut kv = KvTracker::new(kv_per_token, capacity, self.settings.kv_policy);

        let stream_workload = opts.request_workload.as_ref().unwrap_or(w);
        let mut pending: Vec<Request> =
            RequestStream::new(stream_workload, opts.seed).take(opts.num_queries).collect();
        pending.reverse();

        struct Slot {
            req: Request,
            progress: usize,
            t_admitted: f64,
            fresh: bool,
            kv_slot: KvSlot,
        }
        let mut running: Vec<Slot> = Vec::new();
        let mut t = 0.0f64;
        let mut latencies = Vec::with_capacity(opts.num_queries);
        let mut completions = Vec::with_capacity(opts.num_queries);
        let mut enc_stage_times = Vec::new();
        let mut dec_stage_times = Vec::new();
        let mut tokens: u64 = 0;

        while latencies.len() < opts.num_queries {
            // Admit into free slots (up to the per-iteration cap).
            let mut admitted = 0usize;
            let mut admitted_tokens = 0usize;
            while running.len() < batch && admitted < self.settings.max_admissions_per_iter {
                let Some(req) = pending.last().copied() else { break };
                let Some(kv_slot) = kv.try_admit(req.id, req.input_len, w.output().max_len())
                else {
                    break;
                };
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
            let micro = active as f64 / m_d as f64;
            let dec = Pass::Decode { batch: micro, ctx, input_len: w.input().mean() };
            let dec_stage = plan.layout.stage_times(profile, &plan.dec_alloc, dec)?.bottleneck;
            dec_stage_times.push(dec_stage.as_secs());
            let host =
                self.settings.base_overhead_s + self.settings.per_seq_overhead_s * active as f64;
            let mut t_iter = (dec_stage * m_d as f64).as_secs() + host;
            if admitted > 0 {
                let mean_in = admitted_tokens as f64 / admitted as f64;
                let enc = Pass::Encode { batch: admitted as f64, seq: mean_in };
                let enc_stage = plan.layout.stage_times(profile, &plan.enc_alloc, enc)?.bottleneck;
                enc_stage_times.push(enc_stage.as_secs());
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
                    latencies.push(t - done.t_admitted);
                    completions.push(t);
                } else {
                    i += 1;
                }
            }
        }

        let (throughput, makespan) = windowed_throughput(&mut completions, opts.warmup_frac);
        Ok(RunReport {
            completed: latencies.len(),
            tokens_generated: tokens,
            makespan: Secs::new(makespan),
            throughput,
            latencies,
            encoder_stage_times: enc_stage_times,
            decoder_stage_times: dec_stage_times,
            peak_kv_bytes: kv.peak_bytes(),
            kv_clamped_tokens: kv.clamped_tokens(),
            param_bytes: params,
            trace: None,
            sojourn_times: vec![],
        })
    }
}
