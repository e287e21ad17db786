//! Sequence-length distributions and completion analysis for ExeGPT.
//!
//! ExeGPT's scheduler is *distribution-aware* (paper §6): it consumes the
//! probability distributions `P_E(S)` and `P_D(S)` of input and output
//! sequence lengths, observed from an NLP service over time. This crate
//! provides:
//!
//! * [`LengthDist`] — a discrete distribution over sequence lengths
//!   `1..=max`, constructible as a truncated normal (the paper's fit for
//!   public NLP datasets), a skew normal (used for the distribution-shift
//!   study, Figure 11), a point mass, or an empirical distribution from
//!   observed samples (real-world datasets, Figure 10).
//! * [`CompletionDist`] — the paper's `P_D(U)` analysis: the probability
//!   that a query completes decoding at iteration `U` after the most recent
//!   encoding phase, given an encoding frequency of one encode every `N_D`
//!   decode iterations. This is what keeps RRA's batch sizes consistent.
//!   [`CompletionSeries`] builds the completion fraction and survival series
//!   the RRA estimate reads in one pass.
//! * [`stats`] — correlation and percentile helpers used when deriving
//!   distributions from datasets.
//! * [`convert`] — checked numeric conversions required (by
//!   `clippy::as_conversions`, DESIGN.md §6) throughout the cost-model and
//!   scheduler arithmetic.
//! * [`fnv1a`] / [`FnvHasher`] — the one FNV-1a implementation behind run
//!   digests, cluster fingerprints and evaluation-cache keys.
//!
//! # Example
//!
//! ```
//! use exegpt_dist::LengthDist;
//!
//! // Paper Table 3, task T (translation) output lengths.
//! let out = LengthDist::truncated_normal(128.0, 68.0, 320)?;
//! assert!((out.mean() - 128.0).abs() < 8.0);
//! assert_eq!(out.quantile(1.0), 320);
//! # Ok::<(), exegpt_dist::DistError>(())
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

mod completion;
pub mod convert;
mod error;
pub mod fit;
mod fnv;
mod length;
mod math;
pub mod stats;

pub use completion::{CompletionDist, CompletionSeries};
pub use error::DistError;
pub use fnv::{fnv1a, FnvBuildHasher, FnvHasher};
pub use length::LengthDist;
