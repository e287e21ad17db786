//! The closed-form RRA decode sum against its per-iteration reference.
//!
//! `rra::decode_sum` adds up a decode phase's bottleneck terms one linear
//! piece of the stage-cost envelope at a time; `rra::decode_sum_scalar`
//! adds them one iteration at a time. They must agree within a relative
//! 1e-12:
//!
//! * on random output PMFs: point masses (whose survival stays flat over
//!   long runs), truncated normals and bimodal mixtures, at every `N_D` from
//!   1 to the PMF's longest output, for decode pools small enough to reach
//!   the one-query clamp `b_d·s < 1` and large enough to pass the last knot,
//!   with one to four stage classes of a decoder-only profile (OPT-13B), an
//!   encoder-decoder one (T5-11B, with cross-attention), a single-batch-
//!   knot one (constant edge pieces) and one bent so that components reach
//!   their zero clamps beyond the knots at positive batch sizes;
//! * estimate by estimate against `rra::evaluate_scalar`, on decode time,
//!   latency and throughput, over the estimator digest's RRA sweep on the
//!   fidelity setups: OPT-13B on 4×A40 and T5-11B on 8×A40, the five
//!   Table 3 tasks each.

use std::sync::{Arc, OnceLock};

use exegpt_cluster::ClusterSpec;
use exegpt_dist::{CompletionSeries, LengthDist};
use exegpt_model::ModelConfig;
use exegpt_profiler::{DecodeStageGrid, LayerProfile, ProfileOptions, Profiler};
use exegpt_sim::rra::{decode_sum, decode_sum_scalar, evaluate_scalar};
use exegpt_sim::{RraConfig, Simulator, TpConfig, Workload};
use exegpt_units::Secs;
use proptest::prelude::*;

/// The relative tolerance of the closed form.
const TOL: f64 = 1e-12;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL * want.abs()
}

fn profile(model: ModelConfig, gpus: usize, opts: &ProfileOptions) -> LayerProfile {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    Profiler::new(model, cluster).run(opts).expect("profiling succeeds")
}

/// OPT-13B on 4×A40, T5-11B on 8×A40, T5-11B profiled at one batch size
/// only, and OPT-13B bent.
fn profiles() -> &'static [LayerProfile; 4] {
    static PROFILES: OnceLock<[LayerProfile; 4]> = OnceLock::new();
    PROFILES.get_or_init(|| {
        let one_batch = ProfileOptions { max_batch: 1, max_seq: 64, ..Default::default() };
        let opt = profile(ModelConfig::opt_13b(), 4, &ProfileOptions::default());
        [
            opt.bent().expect("bent tables are valid"),
            opt,
            profile(ModelConfig::t5_11b(), 8, &ProfileOptions::default()),
            profile(ModelConfig::t5_11b(), 4, &one_batch),
        ]
    })
}

/// An output PMF over `1..=max_len`: a point mass, a truncated normal or a
/// two-peak mixture, placed by `a` and `b` in `[0, 1)`.
fn output_pmf(kind: usize, max_len: usize, a: f64, b: f64) -> LengthDist {
    let len = |t: f64| 1 + (t * max_len as f64) as usize % max_len;
    match kind {
        0 => LengthDist::point_mass(len(a), max_len),
        1 => LengthDist::truncated_normal(len(a) as f64, 1.0 + b * max_len as f64, max_len),
        _ => {
            let (p, q) = (len(a) as f64, len(b) as f64);
            let bump = |x: f64, at: f64| (-(x - at).powi(2) / 8.0).exp();
            LengthDist::from_weights(
                (1..=max_len).map(|s| bump(s as f64, p) + 0.5 * bump(s as f64, q)).collect(),
            )
        }
    }
    .expect("valid PMF")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closed_form_matches_the_per_iteration_sum(
        which in 0usize..4,
        kind in 0usize..3,
        max_len in 1usize..160,
        (a, b) in (0.0f64..1.0, 0.0f64..1.0),
        b_d in prop_oneof![1usize..8, 1usize..5000, (1usize << 24)..(1 << 27)],
        m_d in 1usize..12,
        (ctx, input_len) in (1.0f64..6000.0, 1.0f64..3000.0),
        picks in prop::collection::vec((0usize..8, any::<bool>(), 1usize..48), 1..=4),
    ) {
        let profile = &profiles()[which];
        let degrees = profile.tp_degrees();
        let grids: Vec<DecodeStageGrid> = picks
            .iter()
            .map(|&(d, intra, layers)| {
                let tp = degrees[d % degrees.len()];
                profile.decode_stage_grid(ctx, input_len, tp, layers as f64, intra).expect("swept")
            })
            .collect();
        let grids: Vec<&DecodeStageGrid> = grids.iter().collect();
        let output = output_pmf(kind, max_len, a, b);
        for n_d in 1..=max_len {
            let series = CompletionSeries::new(&output, n_d).expect("n_d >= 1");
            let got = decode_sum(&grids, &series, b_d, m_d).as_secs();
            let want = decode_sum_scalar(&grids, &series, b_d, m_d).as_secs();
            prop_assert!(close(got, want), "n_d={n_d}: {got:e} vs {want:e}");
        }
    }
}

#[test]
fn zero_clamps_beyond_the_knots_end_pieces() {
    // The bent profile's decode rest and handoff lines reach zero below the
    // first knot, near 0.89 queries, and its TP sync line above the last
    // knot, near 2e7 queries: the micro-batches of these pools sweep past
    // both as the pool drains.
    let profile = &profiles()[0];
    let output = LengthDist::truncated_normal(40.0, 20.0, 80).expect("valid");
    for tp in profile.tp_degrees() {
        for intra in [true, false] {
            let grid = profile.decode_stage_grid(192.0, 128.0, tp, 10.0, intra).expect("swept");
            for (b_d, m_d) in [(12, 8), (1 << 26, 1)] {
                for n_d in [40, 60, 80] {
                    let series = CompletionSeries::new(&output, n_d).expect("n_d >= 1");
                    let got = decode_sum(&[&grid], &series, b_d, m_d).as_secs();
                    let want = decode_sum_scalar(&[&grid], &series, b_d, m_d).as_secs();
                    assert!(close(got, want), "tp={tp} b_d={b_d} n_d={n_d}: {got:e} vs {want:e}");
                }
            }
        }
    }
}

/// A length distribution's `(mean, std, max)`.
type Stats = (f64, f64, usize);

/// The Table 3 tasks' `(input, output)` length statistics: S, T, G, C1,
/// C2.
const TASKS: [(Stats, Stats); 5] = [
    ((256.0, 252.0, 512), (32.0, 13.0, 80)),
    ((128.0, 81.0, 256), (128.0, 68.0, 320)),
    ((64.0, 23.0, 128), (192.0, 93.0, 480)),
    ((256.0, 115.0, 512), (64.0, 30.0, 160)),
    ((512.0, 252.0, 1024), (256.0, 134.0, 640)),
];

/// The estimator digest's RRA sweep.
const B_E: [usize; 15] = [1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128];
const N_D: [usize; 18] = [1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256, 320];

#[test]
fn estimates_match_the_per_iteration_reference() {
    let mut compared = 0;
    for (model, gpus) in [(ModelConfig::opt_13b(), 4), (ModelConfig::t5_11b(), 8)] {
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        let profile = Arc::new(
            Profiler::new(model.clone(), cluster.clone())
                .run(&ProfileOptions::default())
                .expect("profiling succeeds"),
        );
        let mut tps = vec![TpConfig::none()];
        for degree in profile.tp_degrees().into_iter().filter(|&d| d >= 2) {
            tps.extend((degree..=gpus).step_by(degree).map(|gpus| TpConfig { degree, gpus }));
        }
        for (input, output) in TASKS {
            let workload = Workload::new(
                LengthDist::truncated_normal(input.0, input.1, input.2).expect("valid"),
                LengthDist::truncated_normal(output.0, output.1, output.2).expect("valid"),
            );
            let sim =
                Simulator::new(model.clone(), cluster.clone(), Arc::clone(&profile), workload);
            for (&tp, b_e, n_d) in tps.iter().flat_map(|tp| {
                B_E.iter().flat_map(move |&b_e| N_D.iter().map(move |&n_d| (tp, b_e, n_d)))
            }) {
                let cfg = RraConfig::new(b_e, n_d, tp);
                match (sim.evaluate_rra(&cfg), evaluate_scalar(&sim, &cfg)) {
                    (Ok(got), Ok(want)) => {
                        let secs = |t: Secs| t.as_secs();
                        for (what, g, w) in [
                            (
                                "decode time",
                                secs(got.breakdown.decode_time),
                                secs(want.breakdown.decode_time),
                            ),
                            ("latency", secs(got.latency), secs(want.latency)),
                            ("throughput", got.throughput, want.throughput),
                        ] {
                            assert!(close(g, w), "{cfg:?} {what}: {g:e} vs {w:e}");
                        }
                        assert_eq!(got.breakdown.encode_time, want.breakdown.encode_time);
                        assert_eq!(got.breakdown.decode_batch, want.breakdown.decode_batch);
                        compared += 1;
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{cfg:?}: {got:?} vs {want:?}"),
                }
            }
        }
    }
    assert!(compared >= 10_000, "{compared} feasible estimates compared");
}
