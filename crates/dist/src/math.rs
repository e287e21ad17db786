//! Scalar numeric helpers: error function, normal and skew-normal densities.

use std::f64::consts::PI;

/// Error function, Abramowitz & Stegun 7.1.26 (max abs error ~1.5e-7).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal probability density.
pub(crate) fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Standard normal cumulative distribution.
pub(crate) fn cap_phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Skew-normal density with location `xi`, scale `omega`, shape `alpha`.
pub(crate) fn skew_normal_pdf(x: f64, xi: f64, omega: f64, alpha: f64) -> f64 {
    let z = (x - xi) / omega;
    2.0 / omega * phi(z) * cap_phi(alpha * z)
}

/// Solves the skew-normal shape parameters `(xi, omega, alpha)` that realize
/// the given mean, standard deviation and skewness.
///
/// Uses the standard moment relations with `delta = alpha / sqrt(1+alpha^2)`:
/// `mean = xi + omega*delta*sqrt(2/pi)`, `var = omega^2 (1 - 2 delta^2/pi)`,
/// `skew = (4-pi)/2 * (delta*sqrt(2/pi))^3 / (1 - 2 delta^2/pi)^(3/2)`.
/// `delta` is found by bisection; skewness must lie in the attainable range
/// of the family, approximately (-0.9952, 0.9952).
pub(crate) fn skew_normal_from_moments(
    mean: f64,
    std: f64,
    skewness: f64,
) -> Option<(f64, f64, f64)> {
    const MAX_ABS_SKEW: f64 = 0.9952;
    #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
    if !(std > 0.0) || !skewness.is_finite() || skewness.abs() >= MAX_ABS_SKEW {
        return None;
    }
    let target = skewness.abs();
    let skew_of = |delta: f64| -> f64 {
        let m = delta * (2.0 / PI).sqrt();
        (4.0 - PI) / 2.0 * m.powi(3) / (1.0 - 2.0 * delta * delta / PI).powf(1.5)
    };
    let (mut lo, mut hi) = (0.0_f64, 0.999_999);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if skew_of(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let delta = 0.5 * (lo + hi) * skewness.signum();
    let omega = std / (1.0 - 2.0 * delta * delta / PI).sqrt();
    let xi = mean - omega * delta * (2.0 / PI).sqrt();
    let alpha = delta / (1.0 - delta * delta).sqrt();
    Some((xi, omega, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn cap_phi_is_a_cdf() {
        assert!((cap_phi(0.0) - 0.5).abs() < 1e-9);
        assert!(cap_phi(-8.0) < 1e-6);
        assert!(cap_phi(8.0) > 1.0 - 1e-6);
    }

    #[test]
    fn zero_skew_reduces_to_normal() {
        let (xi, omega, alpha) = skew_normal_from_moments(10.0, 2.0, 0.0).expect("attainable");
        assert!(alpha.abs() < 1e-3);
        assert!((xi - 10.0).abs() < 1e-2);
        assert!((omega - 2.0).abs() < 1e-2);
    }

    #[test]
    fn moments_round_trip_numerically() {
        // Integrate the recovered density and check mean/std/skewness.
        let (xi, omega, alpha) = skew_normal_from_moments(100.0, 30.0, 0.4).expect("attainable");
        let (mut m0, mut m1, mut m2, mut m3) = (0.0, 0.0, 0.0, 0.0);
        let mut x = xi - 10.0 * omega;
        let dx = omega / 400.0;
        while x < xi + 10.0 * omega {
            let p = skew_normal_pdf(x, xi, omega, alpha) * dx;
            m0 += p;
            m1 += p * x;
            x += dx;
        }
        let mean = m1 / m0;
        x = xi - 10.0 * omega;
        while x < xi + 10.0 * omega {
            let p = skew_normal_pdf(x, xi, omega, alpha) * dx;
            m2 += p * (x - mean).powi(2);
            m3 += p * (x - mean).powi(3);
            x += dx;
        }
        let var = m2 / m0;
        let skew = m3 / m0 / var.powf(1.5);
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 30.0).abs() < 0.5, "std {}", var.sqrt());
        assert!((skew - 0.4).abs() < 0.02, "skew {skew}");
    }

    #[test]
    fn unattainable_skew_is_rejected() {
        assert!(skew_normal_from_moments(10.0, 1.0, 1.2).is_none());
        assert!(skew_normal_from_moments(10.0, 0.0, 0.1).is_none());
    }
}
