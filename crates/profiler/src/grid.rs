//! Interpolation grids backing the profile tables.
//!
//! A profile sweeps three axes (batch, sequence, tokens) and many tables
//! over them. Each axis is an [`Axis`], which resolves a query to its
//! segment and interpolation weight once ([`Axis::coord`]), through a bucket
//! guide rather than a binary search. A table holds only values, a
//! [`Line`] over one axis or a [`Surface`] over two, and reads them at
//! resolved coordinates, so tables on the same axis share one resolution.
//! [`Grid1D`] and [`Grid2D`] pair a table with axes of its own.

use crate::error::ProfileError;

/// The guide bucket of `x`: the top 12 bits (sign and exponent) of its
/// total-order key, so that buckets ascend with `x`, one per binade.
#[inline]
fn bucket(x: f64) -> usize {
    let bits = x.to_bits();
    let key = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (key >> 52) as usize
}

/// A swept axis: strictly increasing positions, and a guide from a query's
/// bucket to the first position in that bucket or above.
///
/// A log2-spaced axis has about one position per bucket, so a lookup scans
/// forward over at most one position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Axis {
    xs: Vec<f64>,
    /// `guide[b - base]` counts the positions in buckets below `b`, for
    /// every bucket `b` from the first position's to the last's.
    guide: Vec<u32>,
    /// The first position's bucket.
    base: usize,
}

/// A query resolved on an [`Axis`]: its segment `i`, between positions `i`
/// and `i + 1`, and its weight `t` there, 0 at the first and 1 at the
/// second (below 0 or above 1 when extrapolated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Coord {
    i: usize,
    t: f64,
}

impl Axis {
    /// Builds an axis over `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] naming `what` if `xs` is empty
    /// or not strictly increasing.
    pub(crate) fn new(what: &'static str, xs: Vec<f64>) -> Result<Self, ProfileError> {
        let (Some(&first), Some(&last)) = (xs.first(), xs.last()) else {
            return Err(ProfileError::InvalidAxis { what, why: "must be non-empty" });
        };
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN axis values must fail")]
        if xs.windows(2).any(|w| !(w[0] < w[1])) {
            return Err(ProfileError::InvalidAxis { what, why: "must be strictly increasing" });
        }
        let base = bucket(first);
        let mut below = 0;
        let guide = (base..=bucket(last))
            .map(|b| {
                while bucket(xs[below]) < b {
                    below += 1;
                }
                u32::try_from(below)
            })
            .collect::<Result<_, _>>()
            .map_err(|_| ProfileError::InvalidAxis { what, why: "must have under 2^32 knots" })?;
        Ok(Self { xs, guide, base })
    }

    /// The swept positions.
    pub(crate) fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// How many positions are at most `x` (0 for NaN): the index of the
    /// first position above `x`, or `n` if there is none.
    ///
    /// Every position in a bucket below `x`'s is at most `x`, so the scan
    /// starts at the guide's count for `x`'s bucket and moves forward past
    /// the positions at most `x`, within that bucket.
    #[inline]
    pub(crate) fn rank(&self, x: f64) -> usize {
        let n = self.xs.len();
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN ranks below every position")]
        if !(x >= self.xs[0]) {
            return 0;
        }
        if x >= self.xs[n - 1] {
            return n;
        }
        // Here `x`'s bucket is at most the last position's. It may be one
        // below the first's: `-0.0` sorts below `+0.0` but equals it.
        let mut p = self.guide[bucket(x).saturating_sub(self.base)] as usize;
        while self.xs[p] <= x {
            p += 1;
        }
        p
    }

    /// The segment of `x`, the last `i` with `xs[i] <= x` clamped to
    /// `[0, n - 2]`, and its weight there, extrapolating linearly past
    /// either end; segment 0 and weight 0 on a single-position axis.
    #[inline]
    pub(crate) fn coord(&self, x: f64) -> Coord {
        if self.xs.len() == 1 {
            return Coord { i: 0, t: 0.0 };
        }
        let i = self.rank(x).saturating_sub(1).min(self.last_segment());
        Coord { i, t: self.span(i).weight(x) }
    }

    /// Segment `i` as a [`Span`].
    #[inline]
    fn span(&self, i: usize) -> Span {
        Span { x0: self.xs[i], dx: self.xs[i + 1] - self.xs[i] }
    }

    /// Index of the last segment: where every `x` above the last position
    /// falls (0 on a single-position axis).
    #[inline]
    pub(crate) fn last_segment(&self) -> usize {
        self.xs.len().saturating_sub(2)
    }
}

/// A table's values over one [`Axis`], `ys[i]` at its `i`-th position,
/// interpolated piecewise-linearly and extrapolated along the end
/// segments, clamped at zero (a single value is returned as it is).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Line {
    ys: Vec<f64>,
}

impl Line {
    /// The values `ys` over `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if `ys` and the axis differ in
    /// length or a value is not finite.
    pub(crate) fn new(axis: &Axis, ys: Vec<f64>) -> Result<Self, ProfileError> {
        if ys.len() != axis.xs.len() {
            return Err(ProfileError::InvalidAxis {
                what: "xs/ys",
                why: "must be non-empty and equal length",
            });
        }
        if ys.iter().any(|v| !v.is_finite()) {
            return Err(ProfileError::InvalidAxis { what: "xs/ys", why: "must be finite" });
        }
        Ok(Self { ys })
    }

    /// The value at a coordinate resolved on the line's axis.
    #[inline]
    pub(crate) fn at(&self, c: Coord) -> f64 {
        match self.ys[..] {
            [y] => y,
            _ => {
                let y0 = self.ys[c.i];
                lerp(y0, self.ys[c.i + 1] - y0, c.t)
            }
        }
    }

    /// Segment `i` of the line over `axis` as a standalone [`Piece`]: the
    /// body of [`at`](Self::at) there.
    pub(crate) fn piece(&self, axis: &Axis, i: usize) -> Piece {
        match self.ys[..] {
            [y] => Piece::Constant(y),
            _ => {
                let y0 = self.ys[i];
                Piece::Linear { span: axis.span(i), y0, dy: self.ys[i + 1] - y0 }
            }
        }
    }

    /// This line with its first value cut to a tenth of the second
    /// (`first`), or its last a hair below the one before, so that the
    /// fixed segment past that end reaches zero at a finite `x`. A
    /// single-value line has no such segment and stays as it is.
    pub(crate) fn bent(&self, axis: &Axis, first: bool) -> Result<Self, ProfileError> {
        let mut ys = self.ys.clone();
        let n = ys.len();
        if n >= 2 {
            if first {
                ys[0] = ys[1] * 0.1;
            } else {
                ys[n - 1] = ys[n - 2] * (1.0 - 1e-4);
            }
        }
        Self::new(axis, ys)
    }
}

/// A table's values over two axes, row-major: `zs[i * ny + j]` at the first
/// axis's `i`-th position and the second's `j`-th, interpolated bilinearly
/// and clamped at zero (a single value is returned as it is).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Surface {
    zs: Vec<f64>,
    nx: usize,
    ny: usize,
}

impl Surface {
    /// The values `zs[i][j]` over `x × y`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if `zs` has the wrong shape or
    /// a value is not finite.
    pub(crate) fn new(x: &Axis, y: &Axis, zs: Vec<Vec<f64>>) -> Result<Self, ProfileError> {
        let (nx, ny) = (x.xs.len(), y.xs.len());
        if zs.len() != nx || zs.iter().any(|row| row.len() != ny) {
            return Err(ProfileError::InvalidAxis {
                what: "zs",
                why: "must have shape xs.len() x ys.len()",
            });
        }
        if zs.iter().flatten().any(|v| !v.is_finite()) {
            return Err(ProfileError::InvalidAxis { what: "zs", why: "must be finite" });
        }
        Ok(Self { zs: zs.concat(), nx, ny })
    }

    /// The corners `z[i][j], z[i+1][j], z[i][j+1], z[i+1][j+1]`, indices
    /// clamped to the axes.
    #[inline]
    fn corners(&self, i: usize, j: usize) -> [f64; 4] {
        let at =
            |ii: usize, jj: usize| self.zs[ii.min(self.nx - 1) * self.ny + jj.min(self.ny - 1)];
        [at(i, j), at(i + 1, j), at(i, j + 1), at(i + 1, j + 1)]
    }

    /// The value at coordinates resolved on the surface's two axes.
    #[inline]
    pub(crate) fn at(&self, x: Coord, y: Coord) -> f64 {
        match self.zs[..] {
            [z] => z,
            _ => blend(self.corners(x.i, y.i), y.t, x.t),
        }
    }

    /// The cell over first-axis segment `i` of `x` at a fixed second
    /// coordinate, as a standalone [`Cell`], which evaluates every first
    /// coordinate with the float operations of [`at`](Self::at) on that
    /// segment.
    pub(crate) fn cell(&self, x: &Axis, i: usize, y: Coord) -> Cell {
        match self.zs[..] {
            [z] => Cell::Constant(z),
            _ => Cell::Bilinear {
                x: (self.nx > 1).then(|| x.span(i)),
                z: self.corners(i, y.i),
                ty: y.t,
            },
        }
    }
}

/// A 1-D lookup table with piecewise-linear interpolation.
///
/// Outside the swept range the nearest segment is extrapolated linearly —
/// profiles are swept densely enough (log-spaced) that queries land inside,
/// but batch-size rounding in the simulator may step slightly past an
/// endpoint. A lookup finds its segment through the axis's bucket guide
/// (see [`Grid1D::rank`]), not a binary search.
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
    x: Axis,
    y: Line,
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
        let x = Axis::new("xs", xs)?;
        if x.xs.iter().any(|v| !v.is_finite()) {
            return Err(ProfileError::InvalidAxis { what: "xs/ys", why: "must be finite" });
        }
        let y = Line::new(&x, ys)?;
        Ok(Self { x, y })
    }

    /// Interpolated (or linearly extrapolated) value at `x`.
    ///
    /// Extrapolated results are clamped to be non-negative, since all
    /// profiled quantities are times.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.y.at(self.x.coord(x))
    }

    /// The swept sample positions.
    pub fn xs(&self) -> &[f64] {
        self.x.xs()
    }

    /// How many sample positions are at most `x` (0 for NaN), found
    /// through the bucket guide. A hook for the tests that check the guide
    /// against a binary search.
    #[doc(hidden)]
    pub fn rank(&self, x: f64) -> usize {
        self.x.rank(x)
    }
}

/// One segment of a [`Line`]: the single knot's value, or the line
/// through two neighbouring knots, extended past them and clamped at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Piece {
    /// A single-knot line's value, unclamped.
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
            Piece::Linear { span, y0, dy } => lerp(y0, dy, span.weight(x)),
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
/// times over (batch size, sequence length). Each coordinate finds its
/// segment through its axis's bucket guide.
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
    x: Axis,
    y: Axis,
    z: Surface,
}

impl Grid2D {
    /// Builds a grid from sample points; `zs[i][j]` is the value at
    /// `(xs[i], ys[j])`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if either axis is empty or not
    /// strictly increasing, or `zs` has the wrong shape.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, zs: Vec<Vec<f64>>) -> Result<Self, ProfileError> {
        let x = Axis::new("xs", xs)?;
        let y = Axis::new("ys", ys)?;
        let z = Surface::new(&x, &y, zs)?;
        Ok(Self { x, y, z })
    }

    /// The swept sample positions along the first axis.
    pub fn xs(&self) -> &[f64] {
        self.x.xs()
    }

    /// Bilinearly interpolated (or extrapolated) value at `(x, y)`, clamped
    /// non-negative.
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.z.at(self.x.coord(x), self.y.coord(y))
    }
}

/// One cell of a [`Surface`] with the second coordinate fixed: the
/// surface's value along one first-axis segment, extended past its knots
/// and clamped at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell {
    /// A single-knot surface's value, unclamped.
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

/// The segment from `y0` rising by `dy` at weight `t`, clamped at zero.
#[inline]
fn lerp(y0: f64, dy: f64, t: f64) -> f64 {
    (y0 + t * dy).max(0.0)
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
        assert_eq!((g.rank(-1.0), g.rank(4.0), g.rank(9.0)), (0, 1, 1));
        let at = |x: f64| g.x.coord(x);
        assert_eq!([at(-1.0), at(4.0), at(9.0)], [Coord { i: 0, t: 0.0 }; 3]);
        assert_eq!(g.x.last_segment(), 0);
        assert_eq!(g.y.piece(&g.x, 0), Piece::Constant(7.0));
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
        assert!(matches!(g.z.cell(&g.x, 0, g.y.coord(15.0)), Cell::Bilinear { x: None, .. }));
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
        assert_eq!(g.z.cell(&g.x, 0, g.y.coord(9.0)), Cell::Constant(0.25));
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
        let (first1, last1) = (g1.y.piece(&g1.x, 0), g1.y.piece(&g1.x, g1.x.last_segment()));
        for y in [2.0, 8.0, 30.5, 64.0, 100.0] {
            let cell = |i: usize| g2.z.cell(&g2.x, i, g2.y.coord(y));
            let (first2, last2) = (cell(0), cell(g2.x.last_segment()));
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
