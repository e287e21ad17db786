//! Schedule configurations and workload description.
//!
//! These are the paper's four control variables (§4.2): batch size (`B_E`),
//! encoding frequency (`N_D`, RRA only), decoder micro-batch (`B_m`, WAA
//! only), and partial tensor parallelism (`T_P` degree plus the number of
//! GPUs it is applied to).

use exegpt_dist::LengthDist;
use exegpt_units::Tokens;
use serde::Serialize;

/// Partial tensor parallelism: a fixed degree applied to a subset of the
/// pipeline's GPUs (paper §4.2, Figure 4d).
///
/// `degree` GPUs are fused into one faster pipeline stage; `gpus` GPUs in
/// total participate in such groups (so `gpus / degree` stages are fused and
/// the remaining GPUs form single-GPU stages). The scheduler holds `degree`
/// fixed and varies `gpus` to preserve monotonicity (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TpConfig {
    /// Tensor-parallel degree of each fused group (1 = no TP).
    pub degree: usize,
    /// Number of GPUs running inside TP groups (a multiple of `degree`).
    pub gpus: usize,
}

impl TpConfig {
    /// No tensor parallelism: every GPU is its own pipeline stage.
    pub fn none() -> Self {
        Self { degree: 1, gpus: 0 }
    }

    /// Full tensor parallelism at `degree` across all `total` GPUs.
    pub fn full(degree: usize, total: usize) -> Self {
        Self { degree, gpus: total }
    }

    /// Whether this configuration uses any tensor parallelism.
    pub fn is_none(&self) -> bool {
        self.degree <= 1 || self.gpus == 0
    }
}

impl Default for TpConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Configuration of an RRA (Round-Robin Allocation) schedule: encoder batch
/// size `B_E`, decoding iterations per phase `N_D`, and partial TP.
///
/// The decoding batch size `B_D` is *derived* (not set): the simulator sizes
/// it so that the expected completions per phase equal `B_E` (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RraConfig {
    /// Encoder batch size `B_E`.
    pub b_e: usize,
    /// Decoding iterations between encoding phases `N_D` (the inverse of the
    /// paper's encoding frequency `F_E`).
    pub n_d: usize,
    /// Partial tensor parallelism applied to the pipeline.
    pub tp: TpConfig,
}

impl RraConfig {
    /// Creates an RRA configuration.
    pub fn new(b_e: usize, n_d: usize, tp: TpConfig) -> Self {
        Self { b_e, n_d, tp }
    }
}

/// Which workload estimate WAA uses to split GPUs between encoding and
/// decoding (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum WaaVariant {
    /// Balance estimated *computation* time (`WAA-C`).
    Compute,
    /// Balance *memory* consumption (`WAA-M`), useful when decoder KV
    /// caches are the bottleneck.
    Memory,
}

/// Configuration of a WAA (Workload-Aware Allocation) schedule: encoder
/// batch size `B_E`, decoder micro-batch count `B_m`, partial TP on the
/// decoding group, and the allocation variant.
///
/// The decoding batch size is derived as `B_D = B_E · S_D` where `S_D` is
/// the mean output length (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct WaaConfig {
    /// Encoder batch size `B_E`.
    pub b_e: usize,
    /// Number of decoder micro-batches `B_m` the decode pool is split into.
    pub b_m: usize,
    /// Partial tensor parallelism applied to the decoding group.
    pub tp: TpConfig,
    /// Allocation variant (compute- or memory-balanced).
    pub variant: WaaVariant,
}

impl WaaConfig {
    /// Creates a WAA configuration.
    pub fn new(b_e: usize, b_m: usize, tp: TpConfig, variant: WaaVariant) -> Self {
        Self { b_e, b_m, tp, variant }
    }
}

/// Either schedule family, for APIs that evaluate both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ScheduleConfig {
    /// A Round-Robin Allocation schedule.
    Rra(RraConfig),
    /// A Workload-Aware Allocation schedule.
    Waa(WaaConfig),
}

impl ScheduleConfig {
    /// Short human-readable form, e.g. `RRA(B_E=32, N_D=16, TP=1x0)`.
    pub fn describe(&self) -> String {
        match self {
            ScheduleConfig::Rra(c) => {
                format!("RRA(B_E={}, N_D={}, TP={}x{})", c.b_e, c.n_d, c.tp.degree, c.tp.gpus)
            }
            ScheduleConfig::Waa(c) => format!(
                "WAA-{}(B_E={}, B_m={}, TP={}x{})",
                match c.variant {
                    WaaVariant::Compute => "C",
                    WaaVariant::Memory => "M",
                },
                c.b_e,
                c.b_m,
                c.tp.degree,
                c.tp.gpus
            ),
        }
    }
}

/// The sequence-length workload an NLP service presents: the distributions
/// `P_E(S)` of input lengths and `P_D(S)` of output lengths (paper §6).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    input: LengthDist,
    output: LengthDist,
}

impl Workload {
    /// Creates a workload from input and output length distributions.
    pub fn new(input: LengthDist, output: LengthDist) -> Self {
        Self { input, output }
    }

    /// Input-length distribution `P_E(S)`.
    pub fn input(&self) -> &LengthDist {
        &self.input
    }

    /// Output-length distribution `P_D(S)`.
    pub fn output(&self) -> &LengthDist {
        &self.output
    }

    /// 99th-percentile output length, the paper's latency-bound reference
    /// sequence (§7.1).
    pub fn l99(&self) -> usize {
        self.output.quantile(0.99)
    }

    /// Expected progress (generated tokens so far) of a uniformly-random
    /// in-flight query in steady state: `(E[S²] − E[S]) / (2·E[S])`.
    ///
    /// A query of output length `S` is observed in `S` iterations with
    /// progress `0..S−1`; averaging over the renewal process gives the
    /// formula. Used to size the mean decode context.
    pub fn stationary_progress(&self) -> Tokens {
        let m = self.output.mean();
        if m <= 0.0 {
            return Tokens::ZERO;
        }
        Tokens::new(((self.output.mean_sq() - m) / (2.0 * m)).max(0.0))
    }

    /// Expected total context length (input + generated) of an in-flight
    /// query in steady state, the operand of decode-attention lookups.
    pub fn mean_decode_context(&self) -> Tokens {
        Tokens::new(self.input.mean()) + self.stationary_progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::new(
            LengthDist::truncated_normal(128.0, 81.0, 256).expect("valid"),
            LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid"),
        )
    }

    #[test]
    fn tp_none_is_inert() {
        assert!(TpConfig::none().is_none());
        assert!(!TpConfig::full(4, 8).is_none());
        assert_eq!(TpConfig::default(), TpConfig::none());
    }

    #[test]
    fn l99_matches_quantile() {
        let w = workload();
        assert_eq!(w.l99(), w.output().quantile(0.99));
        assert!(w.l99() > 128);
    }

    #[test]
    fn stationary_progress_for_point_mass() {
        // All outputs length 11: ages 0..10 uniformly -> mean 5.
        let w = Workload::new(
            LengthDist::point_mass(100, 128).expect("valid"),
            LengthDist::point_mass(11, 16).expect("valid"),
        );
        assert!((w.stationary_progress().as_f64() - 5.0).abs() < 1e-9);
        assert!((w.mean_decode_context().as_f64() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn describe_is_informative() {
        let r = ScheduleConfig::Rra(RraConfig::new(32, 16, TpConfig::none()));
        assert!(r.describe().contains("B_E=32"));
        let w = ScheduleConfig::Waa(WaaConfig::new(8, 3, TpConfig::full(2, 2), WaaVariant::Memory));
        assert!(w.describe().contains("WAA-M"));
    }
}
