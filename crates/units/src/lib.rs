//! `exegpt-units`: zero-cost units of measure for the ExeGPT cost model.
//!
//! Every figure this reproduction emits flows through roofline arithmetic
//! that mixes seconds, bytes, FLOPs, token counts and bandwidths. As bare
//! `f64`s those quantities are indistinguishable, so a single unit slip
//! (GB where bytes were meant, milliseconds where seconds were meant)
//! silently skews every downstream number while all tests keep passing.
//! This crate makes the dimension part of the type:
//!
//! * Each quantity is a `#[repr(transparent)]` newtype over `f64` — the
//!   same machine representation, registers and codegen as the raw float,
//!   so the safety layer costs nothing at runtime.
//! * Arithmetic is *dimensional*: same-unit addition/subtraction, scalar
//!   scaling, and the physically meaningful cross-type operations
//!   (`Flops / FlopsPerSec -> Secs`, `Bytes / BytesPerSec -> Secs`,
//!   `BytesPerSec * Secs -> Bytes`, …). Nonsensical combinations such as
//!   `Secs + Bytes` simply do not compile.
//! * Ordering uses [`f64::total_cmp`], so the newtypes are [`Ord`] and can
//!   key deterministic `BTreeMap`s and drive `max`/`min` folds without the
//!   partial-order escape hatches raw floats need.
//! * [`serde::Serialize`] passes the inner `f64` straight through, so
//!   serialized reports and event logs are byte-identical to their
//!   pre-typed form.
//!
//! The xlint rules **U1** (no raw `f64` in public cost-model signatures)
//! and **U2** (identifier-suffix consistency) keep the cost-model crates on
//! this vocabulary; see DESIGN.md §6.
//!
//! # Example
//!
//! ```
//! use exegpt_units::{Bytes, BytesPerSec, Flops, FlopsPerSec, Secs};
//!
//! let work = Flops::new(2.0e12);
//! let rate = FlopsPerSec::new(1.0e12);
//! let compute: Secs = work / rate;
//! assert_eq!(compute, Secs::new(2.0));
//!
//! let traffic = Bytes::new(1.0e9);
//! let bw = BytesPerSec::new(5.0e8);
//! let memory: Secs = traffic / bw;
//! // A roofline takes the slower of the two and both sides are `Secs`.
//! assert_eq!(compute.max(memory), compute);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The numeric-safety gate for library code (DESIGN.md §6.1): test builds,
// binaries and integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    ),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

use serde::{Serialize, Value};

/// Largest integer magnitude an `f64` represents exactly (2^53).
const MAX_EXACT_F64_INT: u64 = 1 << 53;

/// Converts an integer count to `f64`, asserting exactness in debug builds
/// (mirrors `exegpt_dist::convert::lossless_f64`; duplicated so this crate
/// stays dependency-free below the whole workspace).
#[inline]
fn exact_f64(v: u64) -> f64 {
    debug_assert!(v <= MAX_EXACT_F64_INT, "{v} exceeds 2^53 and would lose precision as f64");
    // Saturating `as` semantics; exactness is debug-asserted above.
    v as f64
}

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $unit_str:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);
            /// Positive infinity (used for "unconstrained" bounds and
            /// infeasible sentinels).
            pub const INFINITY: $name = $name(f64::INFINITY);

            /// Wraps a raw magnitude expressed in this type's base unit.
            #[inline]
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The magnitude in this type's base unit.
            ///
            /// This is the *only* exit back to raw floats; keep it at
            /// genuine boundaries (serialization, human-readable output,
            /// dimensionless ratios).
            #[inline]
            #[must_use]
            pub const fn as_f64(self) -> f64 {
                self.0
            }

            /// Whether the magnitude is neither infinite nor NaN.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The larger of two quantities (`total_cmp` order, so NaN
            /// sorts above +∞ rather than poisoning the fold).
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                if self >= other { self } else { other }
            }

            /// The smaller of two quantities (`total_cmp` order).
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                if self <= other { self } else { other }
            }

            /// Clamps the magnitude below by zero (negative → `ZERO`).
            #[inline]
            #[must_use]
            pub fn max_zero(self) -> Self {
                Self(self.0.max(0.0))
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.0.total_cmp(&other.0).is_eq()
            }
        }
        impl Eq for $name {}
        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }
        impl std::ops::Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }
        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }
        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }
        impl std::ops::Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }
        impl std::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }
        impl std::ops::Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }
        /// Same-unit ratio: the dimensions cancel.
        impl std::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }
        impl<'a> std::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fmt(f)?;
                if !$unit_str.is_empty() {
                    write!(f, " {}", $unit_str)?;
                }
                Ok(())
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                Value::F64(self.0)
            }
        }
    };
}

macro_rules! cross_ops {
    // amount / rate = time, rate * time = amount, amount / time = rate
    ($amount:ident, $rate:ident) => {
        impl std::ops::Div<$rate> for $amount {
            type Output = Secs;
            #[inline]
            fn div(self, rhs: $rate) -> Secs {
                Secs::new(self.as_f64() / rhs.as_f64())
            }
        }
        impl std::ops::Mul<Secs> for $rate {
            type Output = $amount;
            #[inline]
            fn mul(self, rhs: Secs) -> $amount {
                $amount::new(self.as_f64() * rhs.as_f64())
            }
        }
        impl std::ops::Mul<$rate> for Secs {
            type Output = $amount;
            #[inline]
            fn mul(self, rhs: $rate) -> $amount {
                $amount::new(self.as_f64() * rhs.as_f64())
            }
        }
        impl std::ops::Div<Secs> for $amount {
            type Output = $rate;
            #[inline]
            fn div(self, rhs: Secs) -> $rate {
                $rate::new(self.as_f64() / rhs.as_f64())
            }
        }
    };
}

unit!(
    /// A duration in seconds — the cost model's single time unit.
    Secs,
    "s"
);
unit!(
    /// An amount of data in bytes (continuous: fractional bytes arise from
    /// expectations over length distributions).
    Bytes,
    "B"
);
unit!(
    /// An amount of floating-point work in FLOPs.
    Flops,
    "FLOP"
);
unit!(
    /// A number of tokens (continuous: means and expectations over length
    /// distributions are fractional).
    Tokens,
    "tok"
);
unit!(
    /// A data rate in bytes per second.
    BytesPerSec,
    "B/s"
);
unit!(
    /// A compute rate in FLOP/s.
    FlopsPerSec,
    "FLOP/s"
);

cross_ops!(Bytes, BytesPerSec);
cross_ops!(Flops, FlopsPerSec);

impl Secs {
    /// A duration given in seconds (alias of [`Secs::new`] that reads
    /// better at call sites mixing units).
    #[inline]
    #[must_use]
    pub const fn from_secs(s: f64) -> Self {
        Self::new(s)
    }

    /// A duration given in milliseconds.
    #[inline]
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// A duration given in microseconds.
    #[inline]
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// The duration in seconds (alias of [`Secs::as_f64`]).
    #[inline]
    #[must_use]
    pub const fn as_secs(self) -> f64 {
        self.as_f64()
    }

    /// The duration in milliseconds.
    #[inline]
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.as_f64() * 1e3
    }

    /// The duration in microseconds.
    #[inline]
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.as_f64() * 1e6
    }
}

impl Bytes {
    /// An exact integer byte count (debug-asserts the count fits in the
    /// `f64` mantissa, i.e. is at most 2^53).
    #[inline]
    #[must_use]
    pub fn from_u64(bytes: u64) -> Self {
        Self::new(exact_f64(bytes))
    }
}

impl Tokens {
    /// An exact integer token count (debug-asserts representability).
    #[inline]
    #[must_use]
    pub fn from_count(tokens: u64) -> Self {
        Self::new(exact_f64(tokens))
    }
}

impl BytesPerSec {
    /// A rate given in decimal gigabytes per second.
    #[inline]
    #[must_use]
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Self::new(gb * 1e9)
    }
}

impl FlopsPerSec {
    /// A rate given in teraFLOP/s.
    #[inline]
    #[must_use]
    pub fn from_tflops(tflops: f64) -> Self {
        Self::new(tflops * 1e12)
    }
}

/// Tokens scale per-token amounts: `Tokens * Bytes` is the total traffic of
/// moving that many tokens at a per-token size.
impl std::ops::Mul<Bytes> for Tokens {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Bytes) -> Bytes {
        Bytes::new(self.as_f64() * rhs.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_transparent() {
        assert_eq!(std::mem::size_of::<Secs>(), std::mem::size_of::<f64>());
        assert_eq!(std::mem::align_of::<Bytes>(), std::mem::align_of::<f64>());
    }

    #[test]
    fn roofline_algebra() {
        let t1: Secs = Flops::new(4.0e12) / FlopsPerSec::from_tflops(2.0);
        assert_eq!(t1, Secs::new(2.0));
        let t2: Secs = Bytes::new((1u64 << 30) as f64) / BytesPerSec::new((1u64 << 30) as f64);
        assert_eq!(t2, Secs::new(1.0));
        let back: Bytes = BytesPerSec::new(10.0) * Secs::new(3.0);
        assert_eq!(back, Bytes::new(30.0));
        let rate: FlopsPerSec = Flops::new(10.0) / Secs::new(2.0);
        assert_eq!(rate, FlopsPerSec::new(5.0));
    }

    #[test]
    fn same_unit_arithmetic_and_ratio() {
        let a = Secs::new(1.5) + Secs::new(0.5) - Secs::new(1.0);
        assert_eq!(a, Secs::new(1.0));
        let mut acc = Secs::ZERO;
        acc += Secs::new(2.0);
        acc -= Secs::new(0.5);
        assert_eq!(acc, Secs::new(1.5));
        let ratio: f64 = Bytes::new(6.0) / Bytes::new(3.0);
        assert!((ratio - 2.0).abs() < 1e-15);
        let scaled = 3.0 * Tokens::new(2.0) / 2.0;
        assert_eq!(scaled, Tokens::new(3.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Secs::new(2.0), Secs::INFINITY, Secs::new(-1.0), Secs::new(f64::NAN)];
        v.sort();
        assert_eq!(v[0], Secs::new(-1.0));
        assert_eq!(v[1], Secs::new(2.0));
        assert_eq!(v[2], Secs::INFINITY);
        assert!(!v[3].is_finite());
        assert_eq!(Secs::new(1.0).max(Secs::new(2.0)), Secs::new(2.0));
        assert_eq!(Secs::new(1.0).min(Secs::new(2.0)), Secs::new(1.0));
        assert_eq!(Secs::new(-3.0).max_zero(), Secs::ZERO);
    }

    #[test]
    fn time_conversions() {
        assert_eq!(Secs::from_millis(1500.0), Secs::new(1.5));
        assert_eq!(Secs::from_micros(12.0), Secs::new(12.0e-6));
        assert!((Secs::new(0.25).as_millis() - 250.0).abs() < 1e-12);
        assert!((Secs::new(0.25).as_micros() - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn sums_and_token_scaling() {
        let total: Secs = [Secs::new(1.0), Secs::new(2.0)].iter().sum();
        assert_eq!(total, Secs::new(3.0));
        let traffic = Tokens::new(128.0) * Bytes::new(2.0);
        assert_eq!(traffic, Bytes::new(256.0));
        assert_eq!(Tokens::from_count(7), Tokens::new(7.0));
    }

    #[test]
    fn serializes_as_plain_f64() {
        assert_eq!(Secs::new(1.25).to_value(), Value::F64(1.25));
    }

    #[test]
    fn display_appends_the_unit() {
        assert_eq!(format!("{}", Secs::new(1.5)), "1.5 s");
        assert_eq!(format!("{:.2}", BytesPerSec::new(3.0)), "3.00 B/s");
        assert_eq!(format!("{}", Flops::new(1.0)), "1 FLOP");
    }
}
