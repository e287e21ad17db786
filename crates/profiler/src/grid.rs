//! Interpolation grids backing the profile tables.

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
#[derive(Debug, Clone, PartialEq)]
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
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN axis values must fail")]
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
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.piece(self.segment(x)).eval(x)
    }

    /// Segment index of `x`: the last `i` with `xs[i] <= x`, clamped to
    /// `[0, n-2]` (`0` for a single-knot grid).
    #[inline]
    fn segment(&self, x: f64) -> usize {
        match self.xs.partition_point(|&v| v <= x) {
            0 => 0,
            p => (p - 1).min(self.last_segment()),
        }
    }

    /// Index of the last segment: where every `x` above the last knot falls.
    #[inline]
    pub(crate) fn last_segment(&self) -> usize {
        self.xs.len().saturating_sub(2)
    }

    /// Segment `i` as a standalone [`Piece`]: the interpolation body of
    /// [`eval`](Self::eval).
    #[inline]
    pub(crate) fn piece(&self, i: usize) -> Piece {
        if self.xs.len() == 1 {
            return Piece::Constant(self.ys[0]);
        }
        let (x0, x1) = (self.xs[i], self.xs[i + 1]);
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        Piece::Linear { span: Span { x0, dx: x1 - x0 }, y0, dy: y1 - y0 }
    }

    /// The swept sample positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// This grid with its first value cut to a tenth of the second
    /// (`first`), or its last a hair below the one before, so that the
    /// fixed segment past that end reaches zero at a finite `x`. A
    /// single-knot grid has no such segment and stays as it is.
    pub(crate) fn bent(&self, first: bool) -> Result<Self, ProfileError> {
        let mut ys = self.ys.clone();
        let n = ys.len();
        if n >= 2 {
            if first {
                ys[0] = ys[1] * 0.1;
            } else {
                ys[n - 1] = ys[n - 2] * (1.0 - 1e-4);
            }
        }
        Self::new(self.xs.clone(), ys)
    }
}

/// One segment of a [`Grid1D`]: the single knot's value, or the line
/// through two neighbouring knots, extended past them and clamped at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Piece {
    /// A single-knot grid's value, unclamped.
    Constant(f64),
    /// The line over `span` rising from `y0` by `dy`: a segment between
    /// two knots.
    Linear { span: Span, y0: f64, dy: f64 },
}

impl Piece {
    /// The segment's value at `x`.
    #[inline]
    pub(crate) fn eval(self, x: f64) -> f64 {
        match self {
            Piece::Constant(y) => y,
            Piece::Linear { span, y0, dy } => (y0 + span.weight(x) * dy).max(0.0),
        }
    }

    /// Where the segment's line, unclamped, crosses zero: `None` for a
    /// constant piece.
    pub(crate) fn root(self) -> Option<f64> {
        match self {
            Piece::Constant(_) => None,
            Piece::Linear { span, y0, dy } => Some(span.x0 - y0 / dy * span.dx),
        }
    }
}

/// A first-axis segment from `x0`, `dx` wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Span {
    x0: f64,
    dx: f64,
}

impl Span {
    /// The interpolation weight of `x`: 0 at `x0`, 1 at `x0 + dx`.
    #[inline]
    pub(crate) fn weight(self, x: f64) -> f64 {
        (x - self.x0) / self.dx
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
#[derive(Debug, Clone, PartialEq)]
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
            #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN axis values must fail")]
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

    /// Segment index of `v` on `axis`: the last `i` with `axis[i] <= v`,
    /// clamped to `[0, n-2]` (`0` for a single-knot axis).
    #[inline]
    fn segment(axis: &[f64], v: f64) -> usize {
        match axis.partition_point(|&a| a <= v) {
            0 => 0,
            p => (p - 1).min(axis.len().saturating_sub(2)),
        }
    }

    /// The swept sample positions along the first axis.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Index of the last segment of the first axis: where every `x` above
    /// its last knot falls.
    #[inline]
    pub(crate) fn last_segment(&self) -> usize {
        self.xs.len().saturating_sub(2)
    }

    /// Bilinearly interpolated (or extrapolated) value at `(x, y)`, clamped
    /// non-negative.
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.cell(Self::segment(&self.xs, x), y).eval(x)
    }

    /// The cell over first-axis segment `i` at fixed `y`, as a standalone
    /// [`Cell`], which evaluates every `x` with the float operations of
    /// [`eval`](Self::eval) on that segment.
    #[inline]
    pub(crate) fn cell(&self, i: usize, y: f64) -> Cell {
        let (nx, ny) = (self.xs.len(), self.ys.len());
        if nx == 1 && ny == 1 {
            return Cell::Constant(self.zs[0][0]);
        }
        let j = Self::segment(&self.ys, y);
        let ty = if ny == 1 { 0.0 } else { (y - self.ys[j]) / (self.ys[j + 1] - self.ys[j]) };
        let x = (nx > 1).then(|| Span { x0: self.xs[i], dx: self.xs[i + 1] - self.xs[i] });
        let at = |ii: usize, jj: usize| -> f64 { self.zs[ii.min(nx - 1)][jj.min(ny - 1)] };
        Cell::Bilinear { x, z: [at(i, j), at(i + 1, j), at(i, j + 1), at(i + 1, j + 1)], ty }
    }
}

/// One cell of a [`Grid2D`] with the second coordinate fixed: the grid's
/// value along one first-axis segment, extended past its knots and clamped
/// at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell {
    /// A single-knot grid's value, unclamped.
    Constant(f64),
    /// Corners `z[i][j], z[i+1][j], z[i][j+1], z[i+1][j+1]` (indices
    /// clamped to the axes), the fixed second-axis weight `ty`, and the
    /// segment's origin and width (`None` on a single-knot first axis,
    /// where the first-axis weight is 0).
    Bilinear { x: Option<Span>, z: [f64; 4], ty: f64 },
}

impl Cell {
    /// The cell's value at `x`.
    #[inline]
    pub(crate) fn eval(self, x: f64) -> f64 {
        match self {
            Cell::Constant(z) => z,
            Cell::Bilinear { x: span, z, ty } => blend(z, ty, span.map_or(0.0, |s| s.weight(x))),
        }
    }

    /// Where the cell's value along its first-axis segment, unclamped,
    /// crosses zero: `None` when it does not vary along that axis.
    pub(crate) fn root(self) -> Option<f64> {
        match self {
            Cell::Bilinear { x: Some(span), z: [z00, z10, z01, z11], ty } => {
                let (y0, y1) = (z00 + ty * (z01 - z00), z10 + ty * (z11 - z10));
                Some(span.x0 + y0 / (y0 - y1) * span.dx)
            }
            _ => None,
        }
    }
}

/// Bilinear blend of the corners `z00, z10, z01, z11` at weights `(tx, ty)`,
/// clamped at zero.
#[inline]
fn blend([z00, z10, z01, z11]: [f64; 4], ty: f64, tx: f64) -> f64 {
    let z0 = z00 + tx * (z10 - z00);
    let z1 = z01 + tx * (z11 - z01);
    (z0 + ty * (z1 - z0)).max(0.0)
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

    #[test]
    fn grid1d_single_knot_branches() {
        let g = Grid1D::new(vec![4.0], vec![7.0]).expect("valid");
        assert_eq!((g.segment(-1.0), g.segment(4.0), g.segment(9.0)), (0, 0, 0));
        assert_eq!(g.last_segment(), 0);
        assert_eq!(g.piece(0), Piece::Constant(7.0));
        assert_eq!(g.eval(1e9), 7.0);
    }

    #[test]
    fn grid2d_single_knot_first_axis_interpolates_the_second() {
        // One batch knot: the value follows the sequence axis only.
        let g = Grid2D::new(vec![2.0], vec![10.0, 20.0], vec![vec![1.0, 3.0]]).expect("valid");
        for x in [0.0, 2.0, 50.0] {
            assert_eq!(g.eval(x, 15.0), 2.0);
            assert_eq!(g.eval(x, 30.0), 5.0, "extrapolates along the second axis");
            assert_eq!(g.eval(x, 0.0), 0.0, "clamped at zero");
        }
        assert!(matches!(g.cell(0, 15.0), Cell::Bilinear { x: None, .. }));
    }

    #[test]
    fn grid2d_single_knot_second_axis_interpolates_the_first() {
        let g = Grid2D::new(vec![1.0, 2.0], vec![5.0], vec![vec![1.0], vec![3.0]]).expect("valid");
        for y in [0.0, 5.0, 80.0] {
            assert_eq!(g.eval(1.5, y), 2.0);
            assert_eq!(g.eval(3.0, y), 5.0);
            assert_eq!(g.eval(0.0, y), 0.0, "clamped at zero");
        }
    }

    #[test]
    fn grid2d_single_knot_is_constant() {
        let g = Grid2D::new(vec![3.0], vec![9.0], vec![vec![0.25]]).expect("valid");
        assert_eq!(g.eval(0.0, 0.0), 0.25);
        assert_eq!(g.eval(1e6, -4.0), 0.25);
        assert_eq!(g.cell(0, 9.0), Cell::Constant(0.25));
    }

    #[test]
    fn edge_segments_reproduce_eval_bit_for_bit() {
        let g1 = Grid1D::new(vec![1.0, 3.0, 7.0], vec![0.5, 2.0, 2.5]).expect("valid");
        let g2 = Grid2D::new(
            vec![1.0, 4.0, 16.0],
            vec![8.0, 64.0],
            vec![vec![0.1, 0.7], vec![0.3, 1.1], vec![0.9, 2.9]],
        )
        .expect("valid");
        let (first1, last1) = (g1.piece(0), g1.piece(g1.last_segment()));
        for y in [2.0, 8.0, 30.5, 64.0, 100.0] {
            let (first2, last2) = (g2.cell(0, y), g2.cell(g2.last_segment(), y));
            for x in [-2.0, 0.0, 0.3, 0.999, f64::NAN] {
                assert_eq!(first1.eval(x).to_bits(), g1.eval(x).to_bits(), "x={x}");
                assert_eq!(first2.eval(x).to_bits(), g2.eval(x, y).to_bits(), "x={x} y={y}");
            }
            for x in [7.0001, 9.0, 16.5, 1e4] {
                assert_eq!(last1.eval(x).to_bits(), g1.eval(x).to_bits(), "x={x}");
            }
            for x in [16.0001, 40.0, 1e4] {
                assert_eq!(last2.eval(x).to_bits(), g2.eval(x, y).to_bits(), "x={x} y={y}");
            }
        }
    }
}
