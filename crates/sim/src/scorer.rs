//! The estimator: a [`Scorer`] evaluates schedule configurations over one
//! [`Simulator`], keeping across evaluations what they share.

use crate::config::{RraConfig, ScheduleConfig, WaaConfig};
use crate::error::SimError;
use crate::estimate::{Estimate, Perf};
use crate::rra::RraState;
use crate::simulator::Simulator;
use crate::waa::WaaState;
use crate::{rra, waa};

/// Evaluates schedule configurations on one [`Simulator`], built by
/// [`Simulator::scorer`]. Every estimate goes through one;
/// [`Simulator::evaluate`] and [`Simulator::score`] use a fresh one per
/// call.
///
/// A scorer keeps handles to the completion analyses (by `N_D`) and the
/// decode stage grids (by stage class) it has used, each fetched once from
/// the simulator's shared evaluation cache. It also keeps one RRA and one
/// WAA plan with the layer split each was built for, and the RRA decode
/// stage classes of that split: a plan holds while its TP setting and TP
/// speedup repeat (on the benchmark's scheduling grid, 69 % of RRA
/// evaluations), the classes while the decode split does (99 %), and a
/// change rebuilds them in place, in `Vec`s that keep their capacity. So
/// once its handles and buffers are warm, an evaluation takes no lock,
/// clones no `Arc` and allocates nothing (an error's message aside). It
/// memoizes no point: every evaluation computes its estimate afresh, and
/// the estimate's bits do not depend on what the scorer evaluated before.
/// A search keeps one scorer per worker thread (DESIGN.md §4a).
///
/// # Example
///
/// ```
/// # use exegpt_cluster::ClusterSpec;
/// # use exegpt_dist::LengthDist;
/// # use exegpt_model::ModelConfig;
/// # use exegpt_profiler::{ProfileOptions, Profiler};
/// # use exegpt_sim::{RraConfig, ScheduleConfig, Simulator, TpConfig, Workload};
/// # let model = ModelConfig::opt_13b();
/// # let cluster = ClusterSpec::a40_cluster().subcluster(4)?;
/// # let profile = Profiler::new(model.clone(), cluster.clone())
/// #     .run(&ProfileOptions::default())?;
/// # let workload = Workload::new(
/// #     LengthDist::truncated_normal(128.0, 81.0, 256)?,
/// #     LengthDist::truncated_normal(128.0, 68.0, 320)?,
/// # );
/// let sim = Simulator::new(model, cluster, profile.into(), workload);
/// let mut scorer = sim.scorer();
/// let best = (1..=16)
///     .map(|n_d| scorer.score(&ScheduleConfig::Rra(RraConfig::new(32, n_d, TpConfig::none()))))
///     .fold(0.0, |best: f64, p| best.max(p.throughput));
/// assert!(best > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Scorer<'a> {
    sim: &'a Simulator,
    rra: RraState,
    waa: WaaState,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(sim: &'a Simulator) -> Self {
        Self { sim, rra: RraState::new(), waa: WaaState::new() }
    }

    /// Evaluates either schedule family.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid, does not fit in
    /// memory, or cannot reach a steady state.
    pub fn evaluate(&mut self, cfg: &ScheduleConfig) -> Result<Estimate, SimError> {
        match cfg {
            ScheduleConfig::Rra(c) => self.evaluate_rra(c),
            ScheduleConfig::Waa(c) => self.evaluate_waa(c),
        }
    }

    /// Evaluates an RRA schedule (see [`RraConfig`]).
    ///
    /// # Errors
    ///
    /// See [`Scorer::evaluate`].
    pub fn evaluate_rra(&mut self, cfg: &RraConfig) -> Result<Estimate, SimError> {
        rra::evaluate(self.sim, &mut self.rra, cfg)
    }

    /// Evaluates a WAA schedule (see [`WaaConfig`]).
    ///
    /// # Errors
    ///
    /// See [`Scorer::evaluate`].
    pub fn evaluate_waa(&mut self, cfg: &WaaConfig) -> Result<Estimate, SimError> {
        waa::evaluate(self.sim, &mut self.waa, cfg)
    }

    /// The [`Perf`] of a configuration: [`Scorer::evaluate`]'s latency and
    /// throughput, bit for bit, or [`Perf::INFEASIBLE`] where it errs.
    pub fn score(&mut self, cfg: &ScheduleConfig) -> Perf {
        Perf::of(&self.evaluate(cfg))
    }
}
