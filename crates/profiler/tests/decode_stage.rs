//! The decode stage term outside its knots, bit for bit.
//!
//! [`DecodeStageGrid`] evaluates batches below its lowest knot or above its
//! highest from precomputed fixed segments. There it must equal the direct
//! lookups `decode_layer_time(b, ctx, s_e, tp) · layers + handoff_time(b,
//! link)` to the bit, for every profiled TP degree, both links and any
//! layer count.

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};

fn profile(model: ModelConfig, gpus: usize) -> LayerProfile {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    Profiler::new(model, cluster).run(&ProfileOptions::default()).expect("profiling succeeds")
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
                            for start in [0, usize::MAX] {
                                let mut cursor = start;
                                let got = stage.eval_from(batch, &mut cursor);
                                assert_eq!(
                                    got.as_secs().to_bits(),
                                    direct.as_secs().to_bits(),
                                    "tp={tp} ctx={ctx} s_e={input_len} intra={intra} \
                                     layers={layers} batch={batch}"
                                );
                                assert_eq!(cursor, start, "the cursor is left alone");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked >= 1000, "{checked}");
}
