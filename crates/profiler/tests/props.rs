//! Property-based invariants of the interpolation grids.

use exegpt_profiler::{Grid1D, Grid2D};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interpolation is exact at the knots and bounded by neighbouring
    /// knot values inside each segment for monotone data.
    #[test]
    fn grid1d_interpolates_within_segments(
        increments in prop::collection::vec(0.01f64..10.0, 2..32),
        ys_inc in prop::collection::vec(0.0f64..5.0, 2..32),
        t in 0.0f64..1.0,
    ) {
        let n = increments.len().min(ys_inc.len());
        let mut xs = Vec::with_capacity(n);
        let mut acc = 0.0;
        for inc in &increments[..n] {
            acc += inc;
            xs.push(acc);
        }
        let mut ys = Vec::with_capacity(n);
        let mut yacc = 0.0;
        for inc in &ys_inc[..n] {
            yacc += inc;
            ys.push(yacc);
        }
        let g = Grid1D::new(xs.clone(), ys.clone()).expect("valid grid");
        for i in 0..n {
            prop_assert!((g.eval(xs[i]) - ys[i]).abs() < 1e-9);
        }
        if n >= 2 {
            let i = (t * (n - 1) as f64) as usize;
            let i = i.min(n - 2);
            let x = xs[i] + t.fract() * (xs[i + 1] - xs[i]);
            let v = g.eval(x);
            prop_assert!(v >= ys[i] - 1e-9 && v <= ys[i + 1] + 1e-9);
        }
    }

    /// Bilinear interpolation reproduces affine functions exactly,
    /// everywhere (including extrapolation).
    #[test]
    fn grid2d_reproduces_affine_functions(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        c in -5.0f64..5.0,
        qx in -10.0f64..120.0,
        qy in -10.0f64..120.0,
    ) {
        let xs: Vec<f64> = (0..8).map(|i| (i * i + i + 1) as f64).collect();
        let ys: Vec<f64> = (0..6).map(|i| (3 * i + 1) as f64).collect();
        let f = |x: f64, y: f64| a * x + b * y + c;
        let zs: Vec<Vec<f64>> =
            xs.iter().map(|&x| ys.iter().map(|&y| f(x, y)).collect()).collect();
        let g = Grid2D::new(xs, ys, zs).expect("valid grid");
        let want = f(qx, qy).max(0.0); // grids clamp to non-negative times
        prop_assert!((g.eval(qx, qy) - want).abs() < 1e-6 * (1.0 + want.abs()));
    }
}
