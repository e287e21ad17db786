//! Bit-for-bit lock on `bnb::optimize`.
//!
//! Runs the search over a seeded family of surfaces and folds, run by run,
//! every `eval` call's point in call order and the result (`point`, the
//! perf bits and `evals`, or a tag for "nothing feasible") into one FNV-1a
//! digest. The family covers monotone surfaces and surfaces with the
//! multiplicative ripple of `props.rs`, all-infeasible surfaces, surfaces
//! whose corners are `Perf::INFEASIBLE`, upward-closed infeasible regions,
//! boxes away from the origin, 1×N and N×1 boxes, several ε_L/ε_T pairs and
//! a tight evaluation budget. A change to how the search stores what it
//! evaluated must leave the digest as it is; only a deliberate change to
//! the search may re-pin it.
//!
//! The properties beside it check the memo's contract on random boxes and
//! surfaces: `eval` runs at most once per point, and `evals` is the number
//! of calls.

use std::hash::Hasher;

use exegpt::bnb::{optimize, BnbOptions, BnbResult, Perf};
use exegpt_dist::FnvHasher;
use exegpt_units::Secs;
use proptest::prelude::*;

/// SplitMix64: a seeded stream of surface coefficients.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a surface departs from a plain monotone one.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Latency and throughput non-decreasing along both axes.
    Monotone,
    /// Monotone times a deterministic ±`ripple` factor, as in `props.rs`.
    Ripple(f64),
    /// Monotone, with the points past an upward-closed "out of memory"
    /// frontier infeasible (the top corner among them).
    Oom,
    /// Monotone, with each of the box's four corners infeasible where the
    /// mask has its bit set.
    Corners(u8),
    /// Every point is `Perf::INFEASIBLE`.
    AllInfeasible,
    /// Monotone latency, one throughput everywhere: every feasible point
    /// ties, so the tie-break picks the winner.
    Plateau,
}

/// A surface over one box: bilinear latency and throughput in the offset
/// from the box's minimal corner, shaped by `shape`.
#[derive(Debug, Clone, Copy)]
struct Surface {
    lo: (usize, usize),
    hi: (usize, usize),
    lat: [f64; 4],
    thr: [f64; 4],
    shape: Shape,
}

impl Surface {
    fn seeded(rng: &mut SplitMix, lo: (usize, usize), hi: (usize, usize), shape: Shape) -> Self {
        let mut coeffs = || [0.5 + rng.unit(), rng.unit(), rng.unit(), rng.unit() * 0.05];
        let (lat, thr) = (coeffs(), coeffs());
        Self { lo, hi, lat, thr, shape }
    }

    /// The monotone part at `p`.
    fn base(&self, p: (usize, usize)) -> Perf {
        let (dx, dy) = ((p.0 - self.lo.0) as f64, (p.1 - self.lo.1) as f64);
        let bilinear = |c: [f64; 4]| c[0] + c[1] * dx + c[2] * dy + c[3] * dx * dy;
        Perf { latency: Secs::new(bilinear(self.lat)), throughput: bilinear(self.thr) }
    }

    fn eval(&self, x: usize, y: usize) -> Perf {
        let base = self.base((x, y));
        match self.shape {
            Shape::Monotone => base,
            Shape::Ripple(ripple) => {
                let r = 1.0 + ripple * ((((x * 31 + y * 17) % 7) as f64 - 3.0) / 3.0);
                Perf { latency: base.latency * r, throughput: base.throughput * r }
            }
            Shape::Oom => {
                let (w, h) = (self.hi.0 - self.lo.0 + 1, self.hi.1 - self.lo.1 + 1);
                let used = (x - self.lo.0 + 1) * (y - self.lo.1 + 1);
                if 3 * used > w * h {
                    Perf::INFEASIBLE
                } else {
                    base
                }
            }
            Shape::Corners(mask) => {
                let corners = [self.lo, (self.lo.0, self.hi.1), (self.hi.0, self.lo.1), self.hi];
                let hit =
                    corners.iter().enumerate().any(|(i, &c)| mask & (1 << i) != 0 && c == (x, y));
                if hit {
                    Perf::INFEASIBLE
                } else {
                    base
                }
            }
            Shape::AllInfeasible => Perf::INFEASIBLE,
            Shape::Plateau => Perf { throughput: self.thr[0], ..base },
        }
    }

    /// The monotone latency at the maximal corner, which scales the bounds.
    fn top_latency(&self) -> f64 {
        self.base(self.hi).latency.as_f64()
    }
}

/// The boxes: the RRA search's, small and offset ones, 1×N, N×1 and 1×1.
const BOXES: [((usize, usize), (usize, usize)); 9] = [
    ((1, 64), (1, 64)),
    ((1, 128), (1, 320)),
    ((37, 100), (200, 260)),
    ((1000, 1040), (1, 16)),
    ((5, 5), (1, 300)),
    ((1, 300), (7, 7)),
    ((1, 1), (1, 1)),
    ((3, 3), (4, 4)),
    ((1, 2), (1, 2)),
];

/// The shapes every box is searched under.
const SHAPES: [Shape; 10] = [
    Shape::Monotone,
    Shape::Ripple(0.02),
    Shape::Ripple(0.08),
    Shape::Oom,
    Shape::Corners(0b0001),
    Shape::Corners(0b1000),
    Shape::Corners(0b0110),
    Shape::Corners(0b1111),
    Shape::AllInfeasible,
    Shape::Plateau,
];

/// Latency bounds as fractions of the top corner's monotone latency; `None`
/// is an infinite bound.
const BOUNDS: [Option<f64>; 6] = [Some(0.05), Some(0.3), Some(0.6), Some(0.9), Some(1.2), None];

/// `(ε_L as a fraction of the bound, ε_T)`.
const EPS: [(f64, f64); 3] = [(0.0, 0.0), (0.05, 0.02), (0.2, 0.1)];

fn fold(h: &mut FnvHasher, words: &[u64]) {
    for w in words {
        h.write(&w.to_le_bytes());
    }
}

fn fold_result(h: &mut FnvHasher, r: Option<BnbResult>) {
    match r {
        None => fold(h, &[0]),
        Some(r) => fold(
            h,
            &[
                1,
                r.point.0 as u64,
                r.point.1 as u64,
                r.perf.latency.as_f64().to_bits(),
                r.perf.throughput.to_bits(),
                r.evals as u64,
            ],
        ),
    }
}

/// Runs the whole family; returns the digest, the runs that found a
/// feasible point, and the total number of `eval` calls.
fn run_family() -> (u64, usize, usize) {
    let mut rng = SplitMix(0x0b6b_d16e_57a1_1d00);
    let mut h = FnvHasher::default();
    let (mut feasible, mut calls) = (0usize, 0usize);
    for (r1, r2) in BOXES {
        let (lo, hi) = ((r1.0, r2.0), (r1.1, r2.1));
        for shape in SHAPES {
            let surface = Surface::seeded(&mut rng, lo, hi, shape);
            for bound in BOUNDS {
                for (eps_l, eps_t) in EPS {
                    for max_evals in [20_000, 25] {
                        let opts = match bound {
                            Some(frac) => {
                                let b = surface.top_latency() * frac;
                                BnbOptions {
                                    latency_bound: Secs::new(b),
                                    eps_latency: Secs::new(b * eps_l),
                                    eps_throughput: eps_t,
                                    max_evals,
                                }
                            }
                            None => BnbOptions {
                                eps_throughput: eps_t,
                                max_evals,
                                ..BnbOptions::default()
                            },
                        };
                        let r = optimize(r1, r2, &opts, |x, y| {
                            calls += 1;
                            fold(&mut h, &[x as u64, y as u64]);
                            surface.eval(x, y)
                        });
                        feasible += usize::from(r.is_some());
                        fold_result(&mut h, r);
                    }
                }
            }
        }
    }
    (h.finish(), feasible, calls)
}

/// Pinned `(digest, feasible runs, eval calls)` of the family.
const PINNED: (u64, usize, usize) = (0xe828_652d_ab21_0e70, 1_788, 398_572);

#[test]
fn search_matches_the_pinned_digest() {
    assert_eq!(run_family(), PINNED);
}

/// Boxes whose area does not fit in `u32`, up to the whole `usize` plane,
/// search normally on a cheap surface: the memo grows with the points
/// evaluated, never with the box.
#[test]
fn huge_boxes_search_without_panicking() {
    let boxes = [
        ((1, 1 << 16), (1, (1 << 16) + 1)),
        ((0, 1 << 40), (0, 1 << 40)),
        ((0, usize::MAX), (0, usize::MAX)),
        ((usize::MAX - 9, usize::MAX), (0, usize::MAX)),
    ];
    for (r1, r2) in boxes {
        let opts =
            BnbOptions { latency_bound: Secs::new(1e12), max_evals: 64, ..Default::default() };
        let mut calls = 0usize;
        let r = optimize(r1, r2, &opts, |x, y| {
            calls += 1;
            let (x, y) = ((x - r1.0) as f64, (y - r2.0) as f64);
            Perf { latency: Secs::new(x + y), throughput: x * y + x + y }
        });
        let r = r.expect("the minimal corner meets the bound");
        assert!(r.perf.latency <= Secs::new(1e12), "{r1:?} × {r2:?}: {r:?}");
        assert_eq!(r.evals, calls, "{r1:?} × {r2:?}");
        assert!(calls <= 64 + 6, "{r1:?} × {r2:?}: {calls} calls past the budget");
    }
}

/// A random box: its minimal corner away from the origin or on it, each
/// side 1 to 40 points long.
fn arb_box() -> impl Strategy<Value = ((usize, usize), (usize, usize))> {
    (0usize..1000, 1usize..=40, 0usize..1000, 1usize..=40)
        .prop_map(|(x, w, y, h)| ((x, y), (x + w - 1, y + h - 1)))
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Monotone),
        (0.0f64..0.1).prop_map(Shape::Ripple),
        Just(Shape::Oom),
        (0u8..16).prop_map(Shape::Corners),
        Just(Shape::AllInfeasible),
        Just(Shape::Plateau),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The memo's contract: no point is evaluated twice, and `evals`
    /// counts the calls.
    #[test]
    fn eval_runs_at_most_once_per_point(
        (lo, hi) in arb_box(),
        shape in arb_shape(),
        seed in any::<u64>(),
        bound_frac in 0.0f64..1.3,
        eps in (0.0f64..0.3, 0.0f64..0.2),
        max_evals in prop_oneof![Just(20_000usize), 1usize..64],
    ) {
        let surface = Surface::seeded(&mut SplitMix(seed), lo, hi, shape);
        let bound = surface.top_latency() * bound_frac;
        let opts = BnbOptions {
            latency_bound: Secs::new(bound),
            eps_latency: Secs::new(bound * eps.0),
            eps_throughput: eps.1,
            max_evals,
        };
        let mut calls = Vec::new();
        let r = optimize((lo.0, hi.0), (lo.1, hi.1), &opts, |x, y| {
            calls.push((x, y));
            surface.eval(x, y)
        });
        let n = calls.len();
        calls.sort_unstable();
        calls.dedup();
        prop_assert_eq!(calls.len(), n, "a point was evaluated twice");
        if let Some(r) = r {
            prop_assert_eq!(r.evals, n);
        }
    }
}
