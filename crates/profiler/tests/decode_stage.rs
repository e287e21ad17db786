//! The decode stage term: its fixed segments bit for bit, and its
//! breakpoints.
//!
//! [`DecodeStageGrid`] evaluates batches below its lowest knot or above its
//! highest from precomputed fixed segments. There it must equal the direct
//! lookups `decode_layer_time(b, ctx, s_e, tp) · layers + handoff_time(b,
//! link)` to the bit, for every profiled TP degree, both links and any
//! layer count.
//!
//! The simulator's closed-form decode sum relies on
//! [`DecodeStageGrid::breakpoints`]: between two neighbours, and past the
//! outermost, [`DecodeStageGrid::eval`] must be one line. That is checked
//! on decoder-only tables (no cross-attention), encoder-decoder ones (with
//! it), single-knot ones (constant pieces) and tables bent so that fixed
//! segments reach their zero clamps at positive batch sizes.

use std::sync::OnceLock;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{DecodeStageGrid, LayerProfile, ProfileOptions, Profiler};
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
/// collapsed grid, constant edges), a single knot everywhere, and bent
/// edges.
fn profiles() -> &'static [LayerProfile] {
    static PROFILES: OnceLock<Vec<LayerProfile>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        let one_batch = |max_seq| ProfileOptions { max_batch: 1, max_seq, ..Default::default() };
        let opt = profile(ModelConfig::opt_13b(), 4);
        vec![
            opt.bent().expect("bent tables are valid"),
            opt,
            profile(ModelConfig::t5_11b(), 8),
            profile_with(ModelConfig::t5_11b(), 4, &one_batch(64)),
            profile_with(ModelConfig::opt_13b(), 4, &one_batch(1)),
        ]
    })
}

/// Asserts that `grid` is one line between neighbouring breakpoints and
/// past the outermost ones.
fn assert_linear_between_breakpoints(grid: &DecodeStageGrid) {
    let (bps, knots) = (grid.breakpoints(), grid.knots());
    assert!(bps.windows(2).all(|w| w[0] < w[1]), "ascending: {bps:?}");
    assert!(knots.iter().all(|k| bps.contains(k)), "every knot is a breakpoint");
    let (first, last) = (bps[0], bps[bps.len() - 1]);
    let outer = [(first - 1.0 - first.abs(), first), (last, 2.0 * last + 1.0)];
    // Rounding is relative to the term's scale: next to a zero clamp a
    // line's ends differ from zero by rounding alone.
    let scale = grid.eval(knots[0]).as_secs();
    for (a, b) in bps.windows(2).map(|w| (w[0], w[1])).chain(outer) {
        let (ya, yb) = (grid.eval(a).as_secs(), grid.eval(b).as_secs());
        for t in [0.1, 0.37, 0.5, 0.9] {
            let (got, want) = (grid.eval(a + t * (b - a)).as_secs(), ya + t * (yb - ya));
            assert!(
                (got - want).abs() <= 1e-12 * ya.abs().max(yb.abs()).max(scale),
                "[{a}, {b}] at {t}: {got:e} vs {want:e}"
            );
        }
    }
}

#[test]
fn the_term_is_one_line_between_breakpoints() {
    let mut positive_roots = 0;
    for profile in profiles() {
        for (ctx, input_len) in [(192.0, 128.0), (51.25, 17.0), (9000.0, 6000.0)] {
            for tp in profile.tp_degrees() {
                for (intra, layers) in [(true, 10.0), (false, 3.0)] {
                    let grid = profile
                        .decode_stage_grid(ctx, input_len, tp, layers, intra)
                        .expect("profiled");
                    assert_linear_between_breakpoints(&grid);
                    let knots = grid.knots();
                    positive_roots += grid
                        .breakpoints()
                        .iter()
                        .filter(|&&b| b > 0.0 && !knots.contains(&b))
                        .count();
                }
            }
        }
    }
    assert!(positive_roots >= 20, "zero clamps at positive batches: {positive_roots}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_term_is_one_line_between_breakpoints_anywhere(
        which in 0usize..5,
        ctx in 1.0f64..10_000.0,
        input_len in 1.0f64..10_000.0,
        tp in 0usize..8,
        intra in any::<bool>(),
        layers in 1usize..64,
    ) {
        let profile = &profiles()[which];
        let degrees = profile.tp_degrees();
        let grid = profile
            .decode_stage_grid(ctx, input_len, degrees[tp % degrees.len()], layers as f64, intra)
            .expect("profiled");
        assert_linear_between_breakpoints(&grid);
    }
}
