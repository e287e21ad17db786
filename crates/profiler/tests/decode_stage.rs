//! The decode stage term, scalar and batched, bit for bit.
//!
//! [`DecodeStageGrid`] evaluates batches below its lowest knot or above its
//! highest from precomputed fixed segments. There it must equal the direct
//! lookups `decode_layer_time(b, ctx, s_e, tp) · layers + handoff_time(b,
//! link)` to the bit, for every profiled TP degree, both links and any
//! layer count.
//!
//! [`DecodeStageGrid::fold_max`], the simulator's batched decode kernel,
//! must equal a `Secs::max` fold of the scalar [`DecodeStageGrid::eval`]
//! from `+0.0` to the bit, for every batch sequence that does not increase:
//! across the above, within and below regions, at the knots and between
//! them, with repeated values, on decoder-only tables (no cross-attention),
//! encoder-decoder ones (with it) and single-knot ones (constant pieces).

use std::sync::OnceLock;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{DecodeStageGrid, LayerProfile, ProfileOptions, Profiler};
use exegpt_units::Secs;
use proptest::prelude::*;

fn profile(model: ModelConfig, gpus: usize) -> LayerProfile {
    profile_with(model, gpus, &ProfileOptions::default())
}

fn profile_with(model: ModelConfig, gpus: usize, opts: &ProfileOptions) -> LayerProfile {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    Profiler::new(model, cluster).run(opts).expect("profiling succeeds")
}

#[test]
fn fixed_segment_term_matches_direct_lookups_bit_for_bit() {
    // The estimator digest's setups: a decoder-only model, and an
    // encoder-decoder one whose decode layers add cross-attention. Context
    // and input lengths include ones past the profiled sequence range.
    let setups = [
        (profile(ModelConfig::opt_13b(), 4), [(192.0, 128.0), (37.5, 12.0), (9000.0, 6000.0)]),
        (profile(ModelConfig::t5_11b(), 8), [(272.0, 256.0), (51.25, 17.0), (9000.0, 6000.0)]),
    ];
    let mut checked = 0;
    for (profile, lengths) in &setups {
        let degrees = profile.tp_degrees();
        assert!(degrees.len() >= 3, "{degrees:?}");
        for tp in degrees {
            for (ctx, input_len) in lengths {
                for intra in [true, false] {
                    for layers in [1.0, 3.0, 10.0, 40.0] {
                        let stage = profile
                            .decode_stage_grid(*ctx, *input_len, tp, layers, intra)
                            .expect("profiled degree");
                        let knots = stage.knots();
                        let (lo, hi) = (knots[0], knots[knots.len() - 1]);
                        let below = [lo * 0.999, lo * 0.5, lo * 0.1, 1e-3, 0.0, -1.0];
                        let above = [hi * 1.001, hi * 1.5, hi * 4.0, hi * 100.0];
                        for batch in below.into_iter().chain(above) {
                            assert!(!stage.covers(batch), "{batch} in [{lo}, {hi}]");
                            let direct = profile
                                .decode_layer_time(batch, *ctx, *input_len, tp)
                                .expect("profiled degree")
                                * layers
                                + profile.handoff_time(batch, intra);
                            assert_eq!(
                                stage.eval(batch).as_secs().to_bits(),
                                direct.as_secs().to_bits(),
                                "tp={tp} ctx={ctx} s_e={input_len} intra={intra} \
                                 layers={layers} batch={batch}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked >= 1000, "{checked}");
}

/// Profiles whose decode tables have no cross-attention (OPT-13B), have it
/// (T5-11B), have a single batch knot but many token knots (sloped
/// collapsed grid, constant edges), and a single knot everywhere.
fn fold_profiles() -> &'static [LayerProfile] {
    static PROFILES: OnceLock<Vec<LayerProfile>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        let one_batch = |max_seq| ProfileOptions { max_batch: 1, max_seq, ..Default::default() };
        vec![
            profile(ModelConfig::opt_13b(), 4),
            profile(ModelConfig::t5_11b(), 8),
            profile_with(ModelConfig::t5_11b(), 4, &one_batch(64)),
            profile_with(ModelConfig::opt_13b(), 4, &one_batch(1)),
        ]
    })
}

/// The stage grids of one decode phase's classes: both links at the
/// profile's TP degrees, with different layer counts.
fn stage_grids(profile: &LayerProfile, ctx: f64, input_len: f64) -> Vec<DecodeStageGrid> {
    let mut grids = Vec::new();
    for (k, tp) in profile.tp_degrees().into_iter().enumerate() {
        for (intra, layers) in [(true, 10.0), (false, 3.0 + k as f64)] {
            grids.push(
                profile.decode_stage_grid(ctx, input_len, tp, layers, intra).expect("profiled"),
            );
        }
    }
    grids
}

/// A batch in one region of `knots`: below the lowest (`region == 0`),
/// at or between knots `region - 1` and `region`, or above the highest
/// (`region > knots.len()`), placed by `t ∈ [0, 1)`.
fn batch_in(knots: &[f64], region: usize, t: f64) -> f64 {
    let (lo, hi) = (knots[0], knots[knots.len() - 1]);
    match region {
        0 => lo * t,
        r if r > knots.len() => hi * (1.0 + 4.0 * t),
        r if r == knots.len() || t < 0.3 => knots[r - 1],
        r => knots[r - 1] + (t - 0.3) / 0.7 * (knots[r] - knots[r - 1]),
    }
}

/// Folds `batches` through every grid, batched and scalar, and compares
/// the bits.
fn assert_fold_matches_scalar(grids: &[DecodeStageGrid], batches: &[f64]) {
    let mut worst = vec![Secs::ZERO; batches.len()];
    for grid in grids {
        grid.fold_max(batches, &mut worst);
    }
    for (&batch, got) in batches.iter().zip(&worst) {
        let want = grids.iter().fold(Secs::ZERO, |acc, g| acc.max(g.eval(batch)));
        assert_eq!(got.as_secs().to_bits(), want.as_secs().to_bits(), "batch={batch}");
    }
}

#[test]
fn batched_fold_matches_scalar_fold_on_every_region() {
    let mut regions = [0usize; 3];
    for profile in fold_profiles() {
        for (ctx, input_len) in [(192.0, 128.0), (51.25, 17.0), (9000.0, 6000.0)] {
            let grids = stage_grids(profile, ctx, input_len);
            let knots = grids[0].knots();
            // Every region of the first grid, knots hit exactly, each
            // batch twice, in non-increasing order.
            let mut batches: Vec<f64> = (0..=knots.len() + 1)
                .flat_map(|r| [0.0, 0.2, 0.5, 0.9].map(|t| batch_in(knots, r, t)))
                .flat_map(|b| [b, b])
                .collect();
            batches.sort_by(|a, b| b.total_cmp(a));
            for &b in &batches {
                let region = usize::from(b >= knots[0]) + usize::from(b > knots[knots.len() - 1]);
                regions[region] += 1;
            }
            assert_fold_matches_scalar(&grids, &batches);
            for grid in &grids {
                assert_fold_matches_scalar(std::slice::from_ref(grid), &batches);
            }
        }
    }
    assert!(regions.iter().all(|&n| n >= 50), "below, within, above: {regions:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random non-increasing sequences: region picks over the first
    /// grid's knots, each repeated one to three times.
    #[test]
    fn batched_fold_is_a_scalar_fold_bit_for_bit(
        which in 0usize..4,
        ctx in 1.0f64..10_000.0,
        input_len in 1.0f64..10_000.0,
        picks in prop::collection::vec((0usize..64, 0.0f64..1.0, 1usize..4), 0..80),
    ) {
        let grids = stage_grids(&fold_profiles()[which], ctx, input_len);
        let knots = grids[0].knots();
        let mut batches: Vec<f64> = picks
            .iter()
            .flat_map(|&(r, t, repeat)| {
                std::iter::repeat_n(batch_in(knots, r % (knots.len() + 2), t), repeat)
            })
            .collect();
        batches.sort_by(|a, b| b.total_cmp(a));
        assert_fold_matches_scalar(&grids, &batches);
    }
}
