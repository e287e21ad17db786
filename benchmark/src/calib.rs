//! Host-speed calibration.
//!
//! The shared 2-vCPU host this benchmark was tuned on runs in slow and
//! fast phases lasting from a fraction of a second to minutes (noisy
//! neighbours, not preemption: a thread's CPU time grows as fast as its wall
//! time). Medians over rounds cannot remove a phase that covers a whole
//! run, so every timed call is also expressed in *reference seconds*: its
//! wall time divided by the mean time of a fixed calibration kernel run
//! right before and right after it, times [`REFERENCE_SECS`]. Measured over
//! eight processes per workload, this cut the spread of the per-unit
//! median from 16 % to 2 % (replay) and from 9 % to 4 % (scheduling).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One calibration run in reference seconds: about the kernel's median
/// time on the reference host, a 2-vCPU Xeon virtual machine (over 1000
/// runs: 1.7–1.8 ms fastest, 2.0–2.7 ms median), so reference seconds read
/// close to that host's wall seconds.
pub const REFERENCE_SECS: f64 = 2.0e-3;

/// Runs the calibration kernel once; returns its wall seconds.
pub fn measure() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_secs_f64()
}

/// `secs` of wall time, measured between two calibration runs that took
/// `before` and `after` seconds, in reference seconds.
pub fn to_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_SECS / (0.5 * (before + after))
}

/// A fixed mix of the work the stack does — sorting floats, ordered-map
/// inserts and range lookups, transcendental arithmetic — on about 200 KiB
/// of data. Its code never changes with the program under test.
fn kernel(mut x: u64) -> f64 {
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    let mut small: Vec<f64> = (0..8_000).map(|_| unit(next())).collect();
    small.sort_by(f64::total_cmp);
    let mut map = BTreeMap::new();
    for i in 0..4_000u64 {
        map.insert(next() % 100_000, i);
    }
    let mut acc = 0.0;
    for (i, y) in small.iter().enumerate() {
        acc += (y * i as f64).sqrt().ln_1p() + y.exp();
        if let Some((_, &v)) = map.range(i as u64 * 13..).next() {
            acc += v as f64 * 1e-9;
        }
    }
    let mut large: Vec<f64> = (0..20_000).map(|_| unit(next())).collect();
    large.sort_by(f64::total_cmp);
    for (i, y) in large.iter().enumerate() {
        acc += (y * i as f64).sqrt().ln_1p();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_by_the_calibration() {
        // A call between two calibration runs at twice the reference time
        // ran on a host at half speed: half its wall time is reported.
        let r = to_reference(1.0, 2.0 * REFERENCE_SECS, 2.0 * REFERENCE_SECS);
        assert!((r - 0.5).abs() < 1e-12);
        assert!(measure() > 0.0);
        assert_eq!(kernel(7).to_bits(), kernel(7).to_bits(), "fixed work");
    }
}
