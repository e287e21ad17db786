//! Checked numeric conversions for the cost-model/scheduler arithmetic.
//!
//! The scheduler's branch-and-bound trusts the simulator's latency and
//! throughput estimates to be *monotone*; a silently lossy integer↔float
//! conversion in the cost arithmetic can bend an estimate enough to break
//! that assumption without failing any test. Rule **N1**
//! (`clippy::as_conversions`, DESIGN.md §6) therefore bans `as` casts in
//! the `exegpt-cluster`/`exegpt`/`exegpt-sim` libraries in favor of these
//! helpers:
//!
//! * In release builds every helper has exactly the semantics of Rust's
//!   saturating `as` cast (`NaN → 0`), so they cost nothing extra.
//! * In debug builds (and under `cargo test`) they `debug_assert!` that
//!   the conversion is exact/in-range, turning a quiet precision bug into
//!   a loud failure at the call site.
//!
//! # Example
//!
//! ```
//! use exegpt_dist::convert::{ceil_u64, lossless_f64, trunc_usize};
//!
//! assert_eq!(lossless_f64(42usize), 42.0);
//! assert_eq!(trunc_usize(3.9), 3);
//! assert_eq!(ceil_u64(3.1), 4);
//! ```

/// Largest integer magnitude an `f64` represents exactly (2^53).
pub const MAX_EXACT_F64_INT: u64 = 1 << 53;

mod sealed {
    /// Unsigned integer sources accepted by the lossless widening helpers.
    pub trait Unsigned: Copy {
        /// Widens to `u64` (exact for every accepted type).
        fn widen(self) -> u64;
    }
    impl Unsigned for u8 {
        fn widen(self) -> u64 {
            u64::from(self)
        }
    }
    impl Unsigned for u16 {
        fn widen(self) -> u64 {
            u64::from(self)
        }
    }
    impl Unsigned for u32 {
        fn widen(self) -> u64 {
            u64::from(self)
        }
    }
    impl Unsigned for u64 {
        fn widen(self) -> u64 {
            self
        }
    }
    impl Unsigned for usize {
        fn widen(self) -> u64 {
            // usize is at most 64 bits on every supported target.
            self as u64
        }
    }
}

use sealed::Unsigned;

/// Converts an unsigned integer to `f64`, asserting (in debug builds) that
/// the value is exactly representable.
#[inline]
pub fn lossless_f64<T: Unsigned>(x: T) -> f64 {
    let v = x.widen();
    debug_assert!(
        v <= MAX_EXACT_F64_INT,
        "lossless_f64: {v} exceeds 2^53 and would lose precision"
    );
    v as f64
}

/// Widens an unsigned integer to `u64` (always exact).
#[inline]
pub fn widen_u64<T: Unsigned>(x: T) -> u64 {
    x.widen()
}

/// Narrows `u64` to `usize`, asserting (in debug builds) that the value
/// fits; saturates in release builds (a no-op on 64-bit targets).
#[inline]
pub fn narrow_usize(x: u64) -> usize {
    debug_assert!(
        usize::try_from(x).is_ok(),
        "narrow_usize: {x} does not fit in usize on this target"
    );
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// Truncates a finite non-negative `f64` to `usize`.
#[inline]
pub fn trunc_usize(x: f64) -> usize {
    assert_in_range(x, "trunc_usize");
    x as usize
}

/// Truncates a finite non-negative `f64` to `u64`.
#[inline]
pub fn trunc_u64(x: f64) -> u64 {
    assert_in_range(x, "trunc_u64");
    x as u64
}

/// Rounds a finite non-negative `f64` to the nearest `usize`.
#[inline]
pub fn round_usize(x: f64) -> usize {
    assert_in_range(x, "round_usize");
    x.round() as usize
}

/// Ceils a finite non-negative `f64` to `usize`.
#[inline]
pub fn ceil_usize(x: f64) -> usize {
    assert_in_range(x, "ceil_usize");
    x.ceil() as usize
}

/// Ceils a finite non-negative `f64` to `u64`.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    assert_in_range(x, "ceil_u64");
    x.ceil() as u64
}

#[inline]
fn assert_in_range(x: f64, who: &str) {
    debug_assert!(x.is_finite(), "{who}: input {x} is not finite");
    debug_assert!(x >= 0.0, "{who}: input {x} is negative");
    // Avoid an unused warning in release builds.
    let _ = (x, who);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_round_trips_typical_counts() {
        assert_eq!(lossless_f64(0usize), 0.0);
        assert_eq!(lossless_f64(1usize << 40), (1u64 << 40) as f64);
        assert_eq!(lossless_f64(123_456u64), 123_456.0);
        assert_eq!(lossless_f64(7u32), 7.0);
    }

    #[test]
    #[should_panic(expected = "lose precision")]
    #[cfg(debug_assertions)]
    fn lossless_rejects_beyond_2_53() {
        let _ = lossless_f64(MAX_EXACT_F64_INT + 1);
    }

    #[test]
    fn truncation_and_rounding_agree_with_as() {
        assert_eq!(trunc_usize(3.999), 3);
        assert_eq!(trunc_u64(0.0), 0);
        assert_eq!(round_usize(2.5), 3);
        assert_eq!(round_usize(2.4), 2);
        assert_eq!(ceil_usize(2.0001), 3);
        assert_eq!(ceil_u64(5.0), 5);
    }

    #[test]
    fn widen_and_narrow_are_exact() {
        assert_eq!(widen_u64(17usize), 17u64);
        assert_eq!(narrow_usize(17u64), 17usize);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    #[cfg(debug_assertions)]
    fn trunc_rejects_nan() {
        let _ = trunc_usize(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    #[cfg(debug_assertions)]
    fn trunc_rejects_negative() {
        let _ = trunc_u64(-1.0);
    }
}
