//! Bit-for-bit lock on `LengthDist::quantile` over the shipped task
//! distributions.
//!
//! Every task's input and output distribution (`Task::all()`, ten in all)
//! is asked for the quantile at each of its CDF values and that value's two
//! float neighbours, and at 0, 1 and NaN. Every returned length is folded
//! into one FNV-1a digest, pinned below. Sampling draws each request length
//! through `quantile`, so a change to how it searches the CDF must leave
//! the digest unchanged. Every one of these CDFs is strictly increasing,
//! which is what makes the length of a search's answer unique.

use std::hash::Hasher;

use exegpt_dist::{FnvHasher, LengthDist};
use exegpt_workload::Task;

/// Pinned digest and number of folded quantiles.
const DIGEST: u64 = 0x7d18_ba4e_4a9b_58a5;
const QUANTILES: usize = 12_366;

/// Every shipped task distribution, inputs and outputs.
fn task_dists() -> Vec<LengthDist> {
    Task::all()
        .iter()
        .flat_map(|t| {
            let w = t.workload().expect("valid task statistics");
            [w.input().clone(), w.output().clone()]
        })
        .collect()
}

#[test]
fn every_quantile_matches_its_pinned_length() {
    let mut h = FnvHasher::default();
    let mut n = 0;
    for d in task_dists() {
        let cdf = (1..=d.max_len()).map(|l| d.cdf(l));
        let probes = cdf.flat_map(|c| [c.next_down(), c, c.next_up()]).chain([0.0, 1.0, f64::NAN]);
        for p in probes {
            h.write(&(d.quantile(p) as u64).to_le_bytes());
            n += 1;
        }
    }
    assert_eq!((h.finish(), n), (DIGEST, QUANTILES));
}

#[test]
fn every_task_cdf_is_strictly_increasing() {
    for d in task_dists() {
        let cdf: Vec<f64> = (1..=d.max_len()).map(|l| d.cdf(l)).collect();
        let flat = cdf.windows(2).position(|w| w[0] >= w[1]);
        assert_eq!(flat, None, "CDF of {} lengths repeats a value", d.max_len());
    }
}
