//! The estimators the benchmark reports with.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Work per second from per-unit work and per-unit times: `Σ work / Σ
/// time`. Each unit's time is its median over the rounds (see
/// [`per_unit_median`]); summing before dividing weights every unit by its
/// cost, as one long run would.
pub fn work_per_second(work: &[f64], times: &[f64]) -> f64 {
    let secs: f64 = times.iter().sum();
    if secs > 0.0 {
        work.iter().sum::<f64>() / secs
    } else {
        0.0
    }
}

/// Each unit's median (nearest rank) time over rounds, from `rounds[r][u]`.
///
/// On the shared 2-vCPU host this benchmark was tuned on, slow phases last
/// from a fraction of a second to minutes. A unit's fastest round then
/// depends on whether the process caught a rare fast window: over eight
/// identical replay processes the summed fastest rounds spread (quartile
/// distance over median) by 7–12 %, the summed medians by 3–4 %.
pub fn per_unit_median(rounds: &[Vec<f64>]) -> Vec<f64> {
    let units = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..units)
        .map(|u| median(&rounds.iter().filter_map(|r| r.get(u).copied()).collect::<Vec<_>>()))
        .collect()
}

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`.
fn rank_index(p: f64, n: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The `p`-th percentile (nearest rank) of `samples`, lowered until at
/// least [`TAIL_SAMPLES`] samples lie beyond it, and never below the
/// median. Returns `(percentile used, value)`, or `None` for no samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let supported = n.saturating_sub(TAIL_SAMPLES + 1);
    let index = rank_index(p, n).min(supported).max(rank_index(0.5, n));
    Some(((index + 1) as f64 / n as f64, sorted[index]))
}

/// Median (nearest rank), 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    exegpt_dist::stats::percentile(samples, 0.5).unwrap_or(0.0)
}

/// Geometric mean of positive values, 0 for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    exegpt_dist::stats::mean(&logs).map_or(0.0, f64::exp)
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    exegpt_dist::stats::mean(xs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_unit_median_drives_the_rate() {
        // Two units, three rounds; a slow phase hits unit 0 in round 1 and
        // unit 1 in round 2, a rare fast window unit 1 in round 0.
        let rounds = vec![vec![0.10, 0.21], vec![0.16, 0.30], vec![0.10, 0.48]];
        let times = per_unit_median(&rounds);
        assert_eq!(times, [0.10, 0.30]);
        // 100 + 300 operations over 0.4 s.
        let rate = work_per_second(&[100.0, 300.0], &times);
        assert!((rate - 1000.0).abs() < 1e-9);
        assert_eq!(work_per_second(&[1.0], &[0.0]), 0.0);
        // A unit that failed in a round has no sample there.
        assert_eq!(per_unit_median(&[vec![0.2, 0.4], vec![0.3]]), [0.2, 0.4]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples leaves exactly ten beyond it.
        assert_eq!(tail_percentile(&xs, 0.99), Some((0.99, 990.0)));
        // With 500 samples p99 would leave five: fall back to p98.
        let half = &xs[..500];
        assert_eq!(tail_percentile(half, 0.99), Some((0.98, 490.0)));
        // Forty samples support p75 exactly.
        let forty = &xs[..40];
        assert_eq!(tail_percentile(forty, 0.75), Some((0.75, 30.0)));
        // Too few for any tail: the median is the floor.
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail_percentile(&few, 0.99), Some((2.0 / 3.0, 2.0)));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
