//! Interpolation grids backing the profile tables.

use serde::{Deserialize, Serialize};

use crate::error::ProfileError;

/// A 1-D lookup table with piecewise-linear interpolation.
///
/// Outside the swept range the nearest segment is extrapolated linearly —
/// profiles are swept densely enough (log-spaced) that queries land inside,
/// but batch-size rounding in the simulator may step slightly past an
/// endpoint.
///
/// # Example
///
/// ```
/// use exegpt_profiler::Grid1D;
///
/// let g = Grid1D::new(vec![1.0, 2.0, 4.0], vec![10.0, 20.0, 40.0])?;
/// assert_eq!(g.eval(3.0), 30.0);
/// # Ok::<(), exegpt_profiler::ProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid1D {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Grid1D {
    /// Builds a grid from sample points.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if the axes differ in length,
    /// have fewer than one point, or `xs` is not strictly increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, ProfileError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(ProfileError::InvalidAxis {
                what: "xs/ys",
                why: "must be non-empty and equal length",
            });
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN axis values must fail
        if xs.windows(2).any(|w| !(w[0] < w[1])) {
            return Err(ProfileError::InvalidAxis {
                what: "xs",
                why: "must be strictly increasing",
            });
        }
        if ys.iter().chain(xs.iter()).any(|v| !v.is_finite()) {
            return Err(ProfileError::InvalidAxis { what: "xs/ys", why: "must be finite" });
        }
        Ok(Self { xs, ys })
    }

    /// Interpolated (or linearly extrapolated) value at `x`.
    ///
    /// Extrapolated results are clamped to be non-negative, since all
    /// profiled quantities are times.
    pub fn eval(&self, x: f64) -> f64 {
        self.interpolate(self.segment(x), x)
    }

    /// [`eval`](Self::eval) for a sequence of nearby queries: finds the
    /// segment by walking from the one the previous query left in `cursor`
    /// instead of binary-searching the whole axis. The result is bit for
    /// bit the same as `eval(x)` whatever the query order; the walk is
    /// short when successive queries move little, as the simulator's
    /// shrinking decode micro-batches do. Start a new sequence with
    /// `usize::MAX` (walks down from the top segment) or `0`.
    pub fn eval_from(&self, x: f64, cursor: &mut usize) -> f64 {
        let last = self.xs.len().saturating_sub(2);
        let mut i = (*cursor).min(last);
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN query walks to 0, as in `segment`
        while i > 0 && !(self.xs[i] <= x) {
            i -= 1;
        }
        while i < last && self.xs[i + 1] <= x {
            i += 1;
        }
        debug_assert_eq!(i, self.segment(x), "cursor walk disagrees with the binary search");
        *cursor = i;
        self.interpolate(i, x)
    }

    /// Segment index of `x`: the last `i` with `xs[i] <= x`, clamped to
    /// `[0, n-2]` (`0` for a single-knot grid).
    fn segment(&self, x: f64) -> usize {
        match self.xs.partition_point(|&v| v <= x) {
            0 => 0,
            p => (p - 1).min(self.xs.len().saturating_sub(2)),
        }
    }

    /// The interpolation body shared by [`eval`](Self::eval) and
    /// [`eval_from`](Self::eval_from), on segment `i`.
    fn interpolate(&self, i: usize, x: f64) -> f64 {
        if self.xs.len() == 1 {
            return self.ys[0];
        }
        let (x0, x1) = (self.xs[i], self.xs[i + 1]);
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        let t = (x - x0) / (x1 - x0);
        (y0 + t * (y1 - y0)).max(0.0)
    }

    /// The swept sample positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }
}

/// A 2-D lookup table with bilinear interpolation, used for attention-kernel
/// times over (batch size, sequence length).
///
/// # Example
///
/// ```
/// use exegpt_profiler::Grid2D;
///
/// let g = Grid2D::new(
///     vec![1.0, 2.0],
///     vec![10.0, 20.0],
///     vec![vec![1.0, 2.0], vec![2.0, 4.0]],
/// )?;
/// assert!((g.eval(1.5, 15.0) - 2.25).abs() < 1e-12);
/// # Ok::<(), exegpt_profiler::ProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2D {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `zs[i][j]` is the value at `(xs[i], ys[j])`.
    zs: Vec<Vec<f64>>,
}

impl Grid2D {
    /// Builds a grid from sample points.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if either axis is empty or not
    /// strictly increasing, or `zs` has the wrong shape.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, zs: Vec<Vec<f64>>) -> Result<Self, ProfileError> {
        for (what, axis) in [("xs", &xs), ("ys", &ys)] {
            if axis.is_empty() {
                return Err(ProfileError::InvalidAxis { what, why: "must be non-empty" });
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN axis values must fail
            if axis.windows(2).any(|w| !(w[0] < w[1])) {
                return Err(ProfileError::InvalidAxis { what, why: "must be strictly increasing" });
            }
        }
        if zs.len() != xs.len() || zs.iter().any(|row| row.len() != ys.len()) {
            return Err(ProfileError::InvalidAxis {
                what: "zs",
                why: "must have shape xs.len() x ys.len()",
            });
        }
        if zs.iter().flatten().any(|v| !v.is_finite()) {
            return Err(ProfileError::InvalidAxis { what: "zs", why: "must be finite" });
        }
        Ok(Self { xs, ys, zs })
    }

    fn segment(axis: &[f64], v: f64) -> (usize, f64) {
        let n = axis.len();
        if n == 1 {
            return (0, 0.0);
        }
        let i = match axis.partition_point(|&a| a <= v) {
            0 => 0,
            p => (p - 1).min(n - 2),
        };
        let t = (v - axis[i]) / (axis[i + 1] - axis[i]);
        (i, t)
    }

    /// The swept sample positions along the first axis.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Bilinearly interpolated (or extrapolated) value at `(x, y)`, clamped
    /// non-negative.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        if self.xs.len() == 1 && self.ys.len() == 1 {
            return self.zs[0][0];
        }
        let (i, tx) = Self::segment(&self.xs, x);
        let (j, ty) = Self::segment(&self.ys, y);
        let at = |ii: usize, jj: usize| -> f64 {
            self.zs[ii.min(self.xs.len() - 1)][jj.min(self.ys.len() - 1)]
        };
        let z00 = at(i, j);
        let z10 = at(i + 1, j);
        let z01 = at(i, j + 1);
        let z11 = at(i + 1, j + 1);
        let z0 = z00 + tx * (z10 - z00);
        let z1 = z01 + tx * (z11 - z01);
        (z0 + ty * (z1 - z0)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid1d_exact_at_knots() {
        let g = Grid1D::new(vec![1.0, 10.0, 100.0], vec![5.0, 50.0, 500.0]).expect("valid");
        for (x, y) in [(1.0, 5.0), (10.0, 50.0), (100.0, 500.0)] {
            assert!((g.eval(x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn grid1d_extrapolates_linearly() {
        let g = Grid1D::new(vec![1.0, 2.0], vec![10.0, 20.0]).expect("valid");
        assert!((g.eval(3.0) - 30.0).abs() < 1e-12);
        // Clamped at zero below.
        assert_eq!(g.eval(-5.0), 0.0);
    }

    #[test]
    fn grid1d_single_point_is_constant() {
        let g = Grid1D::new(vec![4.0], vec![7.0]).expect("valid");
        assert_eq!(g.eval(0.0), 7.0);
        assert_eq!(g.eval(100.0), 7.0);
    }

    #[test]
    fn grid1d_rejects_bad_axes() {
        assert!(Grid1D::new(vec![], vec![]).is_err());
        assert!(Grid1D::new(vec![1.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(Grid1D::new(vec![2.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(Grid1D::new(vec![1.0], vec![f64::NAN]).is_err());
        assert!(Grid1D::new(vec![1.0, 2.0], vec![1.0]).is_err());
    }

    #[test]
    fn grid2d_bilinear_matches_plane() {
        // z = 2x + 3y is reproduced exactly by bilinear interpolation.
        let xs = vec![0.0, 1.0, 2.0];
        let ys = vec![0.0, 2.0];
        let zs: Vec<Vec<f64>> =
            xs.iter().map(|&x| ys.iter().map(|&y| 2.0 * x + 3.0 * y).collect()).collect();
        let g = Grid2D::new(xs, ys, zs).expect("valid");
        assert!((g.eval(0.5, 1.0) - 4.0).abs() < 1e-12);
        assert!((g.eval(1.7, 0.3) - (3.4 + 0.9)).abs() < 1e-12);
        // Extrapolation continues the plane.
        assert!((g.eval(3.0, 4.0) - 18.0).abs() < 1e-12);
    }

    #[test]
    fn grid2d_rejects_shape_mismatch() {
        assert!(Grid2D::new(vec![1.0], vec![1.0], vec![]).is_err());
        assert!(Grid2D::new(vec![1.0, 2.0], vec![1.0], vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Grid2D::new(vec![], vec![1.0], vec![]).is_err());
    }
}
