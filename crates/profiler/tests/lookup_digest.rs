//! Bit-for-bit lock on the profile's lookups.
//!
//! Every public lookup of a [`LayerProfile`] is evaluated on OPT-13B over
//! 4×A40 and T5-11B over 8×A40, at every profiled TP degree, on the swept
//! profile, its [`LayerProfile::bent`] fixture and a profile swept with
//! `max_batch: 1` (a single-knot batch axis): `encode_layer_time`,
//! `decode_layer_time`, `handoff_time` on both links and
//! `decode_stage_grid(..).eval`. Each coordinate runs through the points
//! where a search can go wrong: every knot and its float neighbours,
//! segment midpoints, points below the first knot and above the last,
//! signed zeros, infinities and NaN. Every result's `to_bits()` is folded
//! into one FNV-1a digest per setup, pinned below, together with the
//! payload of the error an unprofiled TP degree returns. A change to how
//! the lookups find their segment must leave every digest unchanged.

use std::hash::Hasher;

use exegpt_cluster::ClusterSpec;
use exegpt_dist::FnvHasher;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileError, ProfileOptions, Profiler};

/// Pinned digest and number of folded lookups per setup.
const PINNED: [(&str, u64, usize); 6] = [
    ("OPT 13B/4xA40", 0x8e8c_b8c1_1216_10b2, 795_491),
    ("OPT 13B/4xA40 bent", 0x768b_0a04_f3ae_c7b6, 795_491),
    ("OPT 13B/4xA40 max_batch 1", 0x3b54_5837_21f3_883c, 172_123),
    ("T5 11B/8xA40", 0x9b91_1f9d_254d_90e2, 1_060_581),
    ("T5 11B/8xA40 bent", 0x1081_c0fa_7303_84a5, 1_060_581),
    ("T5 11B/8xA40 max_batch 1", 0x1fae_64a0_2919_b612, 229_453),
];

/// The profiler's log2 sweep axis `1, 2, 4, …, max`.
fn log2_axis(max: usize) -> Vec<f64> {
    let mut xs: Vec<f64> =
        (0..usize::BITS).map(|k| 1usize << k).take_while(|&v| v < max).map(|v| v as f64).collect();
    xs.push(max as f64);
    xs
}

/// The probe points of an axis: every knot and its float neighbours, the
/// segment midpoints, points below the first knot and above the last,
/// infinities and NaN.
fn probes(knots: &[f64]) -> Vec<f64> {
    let mut xs: Vec<f64> = knots.iter().flat_map(|&k| [k.next_down(), k, k.next_up()]).collect();
    xs.extend(knots.windows(2).map(|w| 0.5 * (w[0] + w[1])));
    xs.extend([0.5, 1e-3, 0.0, -0.0, -1.0]);
    let last = knots[knots.len() - 1];
    xs.extend([last * 1.5, last * 100.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    xs
}

/// The profile's folded lookups.
struct Fold {
    h: FnvHasher,
    n: usize,
}

impl Fold {
    fn bits(&mut self, v: f64) {
        self.h.write(&v.to_bits().to_le_bytes());
        self.n += 1;
    }

    fn secs(&mut self, r: Result<exegpt_units::Secs, ProfileError>) {
        self.bits(r.expect("profiled degree").as_secs());
    }

    fn error(&mut self, e: &ProfileError) {
        self.h.write(e.to_string().as_bytes());
        if let ProfileError::UnprofiledTpDegree { requested, available } = e {
            self.h.write(&(*requested as u64).to_le_bytes());
            for d in available {
                self.h.write(&(*d as u64).to_le_bytes());
            }
        }
        self.n += 1;
    }
}

fn digest(profile: &LayerProfile) -> (u64, usize) {
    let batches = probes(&log2_axis(profile.max_batch()));
    let seqs = probes(&log2_axis(profile.max_seq()));
    let tokens =
        probes(&log2_axis(profile.max_batch().saturating_mul(profile.max_seq()).min(1 << 24)));
    let mut f = Fold { h: FnvHasher::default(), n: 0 };
    for tp in profile.tp_degrees() {
        for &b in &batches {
            for &s in &seqs {
                f.secs(profile.encode_layer_time(b, s, tp));
                for &input in &seqs {
                    f.secs(profile.decode_layer_time(b, s, input, tp));
                }
            }
        }
        for (ctx, input) in
            [(1.0, 1.0), (37.5, 12.0), (192.0, 128.0), (8192.0, 8192.0), (9000.0, 6000.0)]
        {
            for intra in [true, false] {
                for layers in [1.0, 10.0] {
                    let stage = profile
                        .decode_stage_grid(ctx, input, tp, layers, intra)
                        .expect("profiled degree");
                    for &b in batches.iter().chain(&tokens) {
                        f.bits(stage.eval(b).as_secs());
                    }
                }
            }
        }
    }
    for &t in &tokens {
        f.bits(profile.handoff_time(t, true).as_secs());
        f.bits(profile.handoff_time(t, false).as_secs());
    }
    let unprofiled = 3;
    assert!(!profile.tp_degrees().contains(&unprofiled));
    f.error(&profile.encode_layer_time(8.0, 64.0, unprofiled).expect_err("unprofiled"));
    f.error(&profile.decode_layer_time(8.0, 64.0, 16.0, unprofiled).expect_err("unprofiled"));
    f.error(&profile.decode_stage_grid(64.0, 16.0, unprofiled, 4.0, true).expect_err("unprofiled"));
    (f.h.finish(), f.n)
}

fn setups() -> Vec<(String, LayerProfile)> {
    let single = ProfileOptions { max_batch: 1, ..ProfileOptions::default() };
    let mut out = Vec::new();
    for (model, gpus) in [(ModelConfig::opt_13b(), 4), (ModelConfig::t5_11b(), 8)] {
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        let profiler = Profiler::new(model.clone(), cluster);
        let swept = profiler.run(&ProfileOptions::default()).expect("profiling succeeds");
        let name = format!("{}/{gpus}xA40", model.name());
        let bent = swept.bent().expect("valid bent tables");
        out.push((name.clone(), swept));
        out.push((format!("{name} bent"), bent));
        out.push((
            format!("{name} max_batch 1"),
            profiler.run(&single).expect("profiling succeeds"),
        ));
    }
    out
}

#[test]
fn every_lookup_matches_its_pinned_bits() {
    let got: Vec<(String, u64, usize)> = setups()
        .iter()
        .map(|(name, profile)| {
            let (h, n) = digest(profile);
            (name.clone(), h, n)
        })
        .collect();
    let want: Vec<(String, u64, usize)> =
        PINNED.iter().map(|&(name, h, n)| (name.to_string(), h, n)).collect();
    assert_eq!(got, want);
}
