//! Layer partitioning across pipeline stages.
//!
//! Both ExeGPT's allocation policies (§4.1) and the FasterTransformer
//! baseline partition a model's layers into contiguous runs, one per pipeline
//! stage. This module provides the (validated) partition type they share.

use serde::Serialize;

use crate::error::ModelError;

/// A half-open range `[start, end)` of layer indices owned by one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LayerRange {
    /// First layer index (inclusive).
    pub start: usize,
    /// One past the last layer index.
    pub end: usize,
}

impl LayerRange {
    /// Number of layers in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range contains no layers.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A partition of `num_layers` contiguous layers into pipeline stages.
///
/// Invariants (enforced at construction): stages are contiguous, cover
/// exactly `[0, num_layers)`, and each stage is non-empty.
///
/// # Example
///
/// ```
/// use exegpt_model::Partition;
///
/// let p = Partition::even(10, 4)?;
/// assert_eq!(p.num_stages(), 4);
/// assert_eq!(p.stage(0).len() + p.stage(1).len() + p.stage(2).len() + p.stage(3).len(), 10);
/// # Ok::<(), exegpt_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Partition {
    stages: Vec<LayerRange>,
}

impl Partition {
    /// Builds a partition from explicit per-stage layer counts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPartition`] if any count is zero or the
    /// counts do not sum to `num_layers`.
    pub fn from_counts(num_layers: usize, counts: &[usize]) -> Result<Self, ModelError> {
        if counts.is_empty() {
            return Err(ModelError::InvalidPartition {
                why: "at least one stage is required".to_string(),
            });
        }
        if counts.contains(&0) {
            return Err(ModelError::InvalidPartition {
                why: "every stage must own at least one layer".to_string(),
            });
        }
        let total: usize = counts.iter().sum();
        if total != num_layers {
            return Err(ModelError::InvalidPartition {
                why: format!("stage counts sum to {total}, expected {num_layers}"),
            });
        }
        let mut stages = Vec::with_capacity(counts.len());
        let mut start = 0;
        for &c in counts {
            stages.push(LayerRange { start, end: start + c });
            start += c;
        }
        Ok(Self { stages })
    }

    /// Splits `num_layers` as evenly as possible into `num_stages` contiguous
    /// runs; earlier stages receive the remainder (as FasterTransformer does).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPartition`] if `num_stages` is zero or
    /// exceeds `num_layers`.
    pub fn even(num_layers: usize, num_stages: usize) -> Result<Self, ModelError> {
        if num_stages == 0 || num_stages > num_layers {
            return Err(ModelError::InvalidPartition {
                why: format!("cannot split {num_layers} layers into {num_stages} stages"),
            });
        }
        let base = num_layers / num_stages;
        let rem = num_layers % num_stages;
        let counts: Vec<usize> = (0..num_stages).map(|i| base + usize::from(i < rem)).collect();
        Self::from_counts(num_layers, &counts)
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Layer range owned by stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_stages()`.
    pub fn stage(&self, i: usize) -> LayerRange {
        self.stages[i]
    }

    /// Iterator over all stage ranges in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = LayerRange> + '_ {
        self.stages.iter().copied()
    }

    /// Total number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.stages.last().map_or(0, |r| r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_covers_all_layers() {
        let p = Partition::even(48, 8).expect("valid partition");
        assert_eq!(p.num_stages(), 8);
        assert_eq!(p.num_layers(), 48);
        assert!(p.iter().all(|r| r.len() == 6));
    }

    #[test]
    fn even_partition_distributes_remainder_to_front() {
        let p = Partition::even(10, 4).expect("valid partition");
        let lens: Vec<_> = p.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        // contiguity
        assert_eq!(p.stage(0).end, p.stage(1).start);
    }

    #[test]
    fn rejects_more_stages_than_layers() {
        assert!(Partition::even(3, 4).is_err());
        assert!(Partition::even(3, 0).is_err());
    }

    #[test]
    fn from_counts_validates_sum_and_zeroes() {
        assert!(Partition::from_counts(5, &[2, 2]).is_err());
        assert!(Partition::from_counts(4, &[4, 0]).is_err());
        assert!(Partition::from_counts(4, &[]).is_err());
        let p = Partition::from_counts(5, &[1, 4]).expect("valid");
        assert_eq!(p.stage(1), LayerRange { start: 1, end: 5 });
    }
}
