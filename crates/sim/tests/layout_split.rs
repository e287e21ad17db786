//! The pipeline layout's closed-form layer split and division-free node
//! links against the formulas they replace: `allocate_layers` must deal
//! layers exactly as a stable sort of the per-stage remainders did, and
//! `intra_node_links` must agree with the GPU-id division of
//! `boundary_intra_node`, on every layout of up to 64 GPUs. Also the
//! invariant the plan builders rely on to skip measuring the TP speedup:
//! where every stage is fused, the split does not depend on the speedup.

use exegpt_dist::convert::{lossless_f64, trunc_usize};
use exegpt_model::ModelConfig;
use exegpt_sim::{PipelineLayout, TpConfig};
use proptest::prelude::*;

/// The split as it was computed per stage: ideal shares, truncated, the
/// leftover dealt round the stages in descending remainder order (a
/// stable sort, so ties go in stage order). Also returns the leftover.
fn sorted_split(layout: &PipelineLayout, total_layers: usize) -> (Vec<usize>, usize) {
    let n = layout.num_stages();
    let speed_sum: f64 = layout.stages().iter().map(|s| s.speed).sum();
    let spare = total_layers - n;
    let ideal: Vec<f64> =
        layout.stages().iter().map(|s| lossless_f64(spare) * s.speed / speed_sum).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|&x| trunc_usize(x)).collect();
    let mut assigned: usize = counts.iter().sum();
    let leftover = spare.saturating_sub(assigned);
    let mut rema: Vec<(usize, f64)> =
        ideal.iter().enumerate().map(|(i, &x)| (i, x - x.floor())).collect();
    rema.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut k = 0;
    while assigned < spare {
        counts[rema[k % n].0] += 1;
        assigned += 1;
        k += 1;
    }
    for c in &mut counts {
        *c += 1;
    }
    (counts, leftover)
}

/// Whether the remainders of the fused and the single run tie while both
/// runs are present and the remainder is not zero.
fn remainders_tie(layout: &PipelineLayout, total_layers: usize) -> bool {
    let stages = layout.stages();
    let (Some(fused), Some(single)) = (stages.first(), stages.last()) else { return false };
    if fused.tp == 1 || single.tp != 1 {
        return false;
    }
    let speed_sum: f64 = stages.iter().map(|s| s.speed).sum();
    let spare = lossless_f64(total_layers - stages.len());
    let rem = |speed: f64| {
        let x = spare * speed / speed_sum;
        x - x.floor()
    };
    let (a, b) = (rem(fused.speed), rem(single.speed));
    a == b && a > 0.0
}

/// Every TP setting of `n` GPUs: none, and each degree from 2 to `n` on
/// each multiple of it.
fn tp_settings(n: usize) -> Vec<TpConfig> {
    let mut tps = vec![TpConfig::none()];
    for degree in 2..=n {
        tps.extend((degree..=n).step_by(degree).map(|gpus| TpConfig { degree, gpus }));
    }
    tps
}

#[test]
fn closed_form_split_deals_layers_as_the_sorted_split() {
    let (mut splits, mut ties, mut wrapped) = (0, 0, 0);
    for n in 1..=64 {
        for tp in tp_settings(n) {
            for speedup in [1.0, 0.05, 0.3, 1.7, 2.0, 3.0, 4.0] {
                let layout = PipelineLayout::build(n, tp, speedup, 8).expect("valid");
                let stages = layout.num_stages();
                for total in [stages, stages + 1, stages + 3, 40, 53, 96] {
                    if total < stages {
                        assert!(layout.allocate_layers(total).is_err());
                        continue;
                    }
                    let (want, leftover) = sorted_split(&layout, total);
                    let got = layout.allocate_layers(total).expect("enough layers");
                    assert_eq!(got, want, "n={n} {tp:?} speedup={speedup} layers={total}");
                    splits += 1;
                    ties += usize::from(speedup != 1.0 && remainders_tie(&layout, total));
                    wrapped += usize::from(leftover >= stages);
                }
            }
        }
    }
    assert!(splits > 100_000, "{splits} splits");
    assert!(ties > 0, "no fused and single remainders tied");
    assert!(wrapped > 0, "no leftover reached the stage count");
}

/// Every all-fused TP setting of `n` GPUs: each degree from 2 to `n` that
/// divides `n`, covering all of them.
fn all_fused_settings(n: usize) -> impl Iterator<Item = TpConfig> {
    (2..=n).filter(move |&d| n.is_multiple_of(d)).map(move |degree| TpConfig { degree, gpus: n })
}

/// The layer counts the model presets split: every preset's encoder,
/// decoder and total layer counts.
fn preset_layer_counts() -> Vec<usize> {
    let mut models = ModelConfig::paper_models();
    models.push(ModelConfig::ul2_20b());
    let mut counts: Vec<usize> = models
        .iter()
        .flat_map(|m| [m.num_layers(), m.num_encoder_layers(), m.num_decoder_layers()])
        .filter(|&layers| layers > 0)
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Whether `layout` splits `total` layers as its speedup-1 twin does, or
/// both reject the count.
fn splits_as_at_unit_speed(layout: &PipelineLayout, n: usize, tp: TpConfig, total: usize) -> bool {
    let even = PipelineLayout::build(n, tp, 1.0, 8).expect("valid");
    layout.allocate_layers(total).ok() == even.allocate_layers(total).ok()
}

#[test]
fn an_all_fused_split_does_not_depend_on_the_speedup() {
    let counts = preset_layer_counts();
    assert!(counts.len() >= 5, "{counts:?}");
    let mut checked = 0;
    for n in 2..=64 {
        for tp in all_fused_settings(n) {
            for speedup in [0.05, 0.1, 0.3, 0.7, 1.0, 1.3, 1.7, 1.9, 2.0, 3.0, 3.3, 4.0, 7.9, 64.0]
            {
                let layout = PipelineLayout::build(n, tp, speedup, 8).expect("valid");
                assert!(layout.stages().iter().all(|s| s.tp == tp.degree));
                for &total in &counts {
                    assert!(
                        splits_as_at_unit_speed(&layout, n, tp, total),
                        "n={n} {tp:?} speedup={speedup} layers={total}"
                    );
                    checked += usize::from(total >= layout.num_stages());
                }
            }
        }
    }
    assert!(checked > 5_000, "{checked} splits");
}

#[test]
fn node_links_are_the_division_formula() {
    let mut crossings = 0;
    for n in 1..=64 {
        for tp in tp_settings(n) {
            // 3 and 5 divide no power-of-two degree, so TP groups straddle
            // nodes; 1 makes every handoff cross.
            for per_node in [1, 2, 3, 4, 5, 8] {
                let layout = PipelineLayout::build(n, tp, 1.5, per_node).expect("valid");
                let stages = layout.stages();
                let links: Vec<bool> = layout.intra_node_links().collect();
                assert_eq!(links.len(), stages.len());
                for i in 0..stages.len() + 2 {
                    let want = match (stages.get(i), stages.get(i + 1)) {
                        (Some(a), Some(b)) => {
                            (a.first_gpu + a.gpus - 1) / per_node == b.first_gpu / per_node
                        }
                        _ => true,
                    };
                    let what = format!("n={n} {tp:?} per_node={per_node} boundary {i}");
                    assert_eq!(layout.boundary_intra_node(i), want, "{what}");
                    if let Some(&link) = links.get(i) {
                        assert_eq!(link, want, "{what}");
                    }
                    crossings += usize::from(!want);
                }
            }
        }
    }
    assert!(crossings > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn closed_form_split_matches_on_random_speedups(
        n in 1usize..=64,
        degree in 2usize..=16,
        groups in 0usize..=32,
        speedup in prop_oneof![0.05f64..8.0, Just(0.05), Just(1.0)],
        extra in 0usize..200,
    ) {
        let gpus = (degree * groups).min(n / degree * degree);
        let tp = TpConfig { degree, gpus };
        let layout = PipelineLayout::build(n, tp, speedup, 8).expect("valid");
        let total = layout.num_stages() + extra;
        let got = layout.allocate_layers(total).expect("enough layers");
        prop_assert_eq!(got, sorted_split(&layout, total).0, "n={} {:?} speedup={}", n, tp, speedup);
    }

    #[test]
    fn an_all_fused_split_ignores_random_speedups(
        n in 2usize..=64,
        pick in 0usize..64,
        speedup in prop_oneof![0.05f64..64.0, Just(0.05), Just(64.0)],
        total in 1usize..=256,
    ) {
        let tps: Vec<TpConfig> = all_fused_settings(n).collect();
        let tp = tps[pick % tps.len()];
        let layout = PipelineLayout::build(n, tp, speedup, 8).expect("valid");
        prop_assert!(
            splits_as_at_unit_speed(&layout, n, tp, total),
            "n={} {:?} speedup={} layers={}", n, tp, speedup, total
        );
    }
}
