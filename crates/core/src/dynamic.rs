//! Dynamic workload adjustment (paper §5.2).
//!
//! Both RRA and WAA assume consistent average encoder/decoder batch sizes,
//! but individual queries vary in length. The runtime therefore adjusts the
//! encoder batch at every encoding opportunity so that (a) the *encoder
//! workload* — the sum of input lengths in the admitted batch — stays within
//! a threshold of its scheduled average, and (b) the *decoder batch* is
//! nudged back toward its scheduled size when early terminations run ahead
//! of or behind expectation.

use exegpt_dist::convert::lossless_f64;

/// Runtime controller keeping encoder/decoder workloads near schedule.
///
/// # Example
///
/// ```
/// use exegpt::DynamicAdjuster;
///
/// // Scheduled: admit 4 queries of ~128 tokens each per encoding phase.
/// let adj = DynamicAdjuster::new(4, 128.0, 0.15);
/// // A queue of short inputs: more of them fit in the workload budget.
/// let admitted = adj.select_batch(&[32; 32], 0, 0);
/// assert!(admitted.len() > 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicAdjuster {
    base_b_e: usize,
    mean_input_len: f64,
    threshold_frac: f64,
}

impl DynamicAdjuster {
    /// How many queued queries past the greedy frontier the selector may
    /// inspect when topping up a batch.
    pub const LOOKAHEAD: usize = 64;

    /// Creates a controller for a schedule that admits `base_b_e` queries of
    /// mean input length `mean_input_len` per encoding phase, keeping the
    /// admitted workload within `threshold_frac` of the average.
    ///
    /// # Panics
    ///
    /// Panics if `mean_input_len` is not positive or `threshold_frac` is
    /// negative.
    pub fn new(base_b_e: usize, mean_input_len: f64, threshold_frac: f64) -> Self {
        assert!(mean_input_len > 0.0, "mean input length must be positive");
        assert!(threshold_frac >= 0.0, "threshold must be non-negative");
        Self { base_b_e, mean_input_len, threshold_frac }
    }

    /// The scheduled (average) encoder workload in tokens.
    pub fn target_workload(&self) -> f64 {
        lossless_f64(self.base_b_e) * self.mean_input_len
    }

    /// Selects which of the `pending` queries (by input length, in queue
    /// order) to admit into the next encoder batch; returns their indices
    /// in increasing order.
    ///
    /// Selection fills the workload budget greedily in arrival order, with
    /// a bounded lookahead that tops the batch up with later short queries
    /// when the next-in-line query would overshoot — keeping the admitted
    /// workload inside the threshold band, as §5.2 requires. The
    /// decoder-pool feedback (`scheduled − current`) shifts the budget
    /// *within* that band, correcting pool drift gradually across phases.
    pub fn select_batch(
        &self,
        pending: &[usize],
        current_decode_batch: usize,
        scheduled_decode_batch: usize,
    ) -> Vec<usize> {
        let mut chosen = Vec::new();
        self.select_batch_into(pending, current_decode_batch, scheduled_decode_batch, &mut chosen);
        chosen
    }

    /// [`DynamicAdjuster::select_batch`] into a caller-provided buffer
    /// (cleared first), for hot loops that admit every round and should not
    /// allocate every round.
    pub fn select_batch_into(
        &self,
        pending: &[usize],
        current_decode_batch: usize,
        scheduled_decode_batch: usize,
        chosen: &mut Vec<usize>,
    ) {
        self.select_batch_by(
            pending.len(),
            |i| pending[i],
            current_decode_batch,
            scheduled_decode_batch,
            chosen,
        );
    }

    /// [`DynamicAdjuster::select_batch_into`] over a queue of `pending`
    /// queries whose input lengths are read through `input_len(index)`, so
    /// callers need not copy their queue into a length slice. Selection
    /// reads only a prefix of the queue: no index past
    /// `max(chosen) +` [`LOOKAHEAD`](Self::LOOKAHEAD) `+ 1`.
    pub fn select_batch_by(
        &self,
        pending: usize,
        input_len: impl Fn(usize) -> usize,
        current_decode_batch: usize,
        scheduled_decode_batch: usize,
        chosen: &mut Vec<usize>,
    ) {
        chosen.clear();
        if pending == 0 {
            return;
        }
        let target = self.target_workload();
        let lo = target * (1.0 - self.threshold_frac);
        let hi = target * (1.0 + self.threshold_frac);
        let deficit = lossless_f64(scheduled_decode_batch) - lossless_f64(current_decode_batch);
        let budget = (target + deficit * self.mean_input_len).clamp(lo, hi).max(
            // Degenerate schedules (B_E = 1) must still admit something.
            self.mean_input_len.min(target),
        );

        let mut workload = 0.0;
        let mut i = 0;
        while i < pending && workload < budget {
            let len = lossless_f64(input_len(i));
            if chosen.is_empty() || workload + len <= hi {
                chosen.push(i);
                workload += len;
                i += 1;
                continue;
            }
            // The next query overshoots: look ahead for one that fits. The
            // same `i` is retried afterwards, so a short `j` can be picked
            // (and its length counted) again; `dedup` below drops the
            // repeat index (a known deviation, see EXPERIMENTS.md).
            let gap = hi - workload;
            let window_end = (i + 1 + Self::LOOKAHEAD).min(pending);
            match (i + 1..window_end).find(|&j| lossless_f64(input_len(j)) <= gap) {
                Some(j) => {
                    chosen.push(j);
                    workload += lossless_f64(input_len(j));
                }
                None => break,
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
    }

    /// Convenience wrapper returning only the number of queries
    /// [`DynamicAdjuster::select_batch`] would admit.
    pub fn encoder_batch(
        &self,
        pending: &[usize],
        current_decode_batch: usize,
        scheduled_decode_batch: usize,
    ) -> usize {
        self.select_batch(pending, current_decode_batch, scheduled_decode_batch).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_scheduled_batch_for_average_inputs() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        assert_eq!(adj.encoder_batch(&[100; 16], 0, 0), 4);
    }

    #[test]
    fn admits_more_short_queries() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        assert!(adj.encoder_batch(&[25; 64], 0, 0) > 8);
    }

    #[test]
    fn admits_fewer_long_queries() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        assert!(adj.encoder_batch(&[400; 8], 0, 0) <= 2);
    }

    #[test]
    fn always_admits_at_least_one_when_pending() {
        let adj = DynamicAdjuster::new(2, 10.0, 0.0);
        assert_eq!(adj.encoder_batch(&[10_000], 0, 0), 1);
        assert_eq!(adj.encoder_batch(&[], 0, 0), 0);
    }

    #[test]
    fn lookahead_tops_up_with_later_short_queries() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        // Greedy stops at 300 (next is 400, overshoots 440); lookahead
        // finds the 90-token query at index 4.
        let chosen = adj.select_batch(&[150, 150, 400, 400, 90], 0, 0);
        assert_eq!(chosen, vec![0, 1, 4]);
    }

    #[test]
    fn lookahead_repicks_the_same_query_known_deviation() {
        // Target 50, cap 57.5. After 30 tokens, 40 overshoots and the
        // lookahead picks the 5-token query; retrying index 1 picks it
        // again (and again) until the counted workload reaches 50. Only 35
        // tokens are admitted, though the 10-token query also fits.
        let adj = DynamicAdjuster::new(1, 50.0, 0.15);
        assert_eq!(adj.select_batch(&[30, 40, 5, 10], 0, 0), vec![0, 2]);
    }

    #[test]
    fn workload_stays_within_the_threshold_band() {
        let adj = DynamicAdjuster::new(8, 100.0, 0.15);
        // A spread of lengths; every selected batch must land in the band
        // unless the queue runs dry.
        let queue: Vec<usize> = (0..200).map(|i| 40 + (i * 73) % 250).collect();
        let mut rest = queue.clone();
        for _ in 0..10 {
            let chosen = adj.select_batch(&rest, 0, 0);
            if chosen.len() == rest.len() {
                break;
            }
            let sum: usize = chosen.iter().map(|&i| rest[i]).sum();
            assert!((640..=920).contains(&sum), "admitted workload {sum} outside the band");
            let keep: Vec<usize> = (0..rest.len()).filter(|i| !chosen.contains(i)).collect();
            rest = keep.into_iter().map(|i| rest[i]).collect();
        }
    }

    #[test]
    fn decode_feedback_shifts_within_the_band() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        // Pool short of schedule: budget rises to the band's top.
        let boosted = adj.encoder_batch(&[100; 32], 16, 32);
        // Pool over schedule: budget drops to the band's bottom.
        let trimmed = adj.encoder_batch(&[100; 32], 48, 32);
        assert!(boosted >= trimmed, "boosted {boosted} vs trimmed {trimmed}");
        assert!((3..=5).contains(&boosted));
        assert!((3..=5).contains(&trimmed));
    }

    #[test]
    #[should_panic(expected = "mean input length")]
    fn zero_mean_panics() {
        let _ = DynamicAdjuster::new(4, 0.0, 0.1);
    }
}
