//! Concrete inference requests sampled from a workload.

use exegpt_sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One inference request with its (enforced) sequence lengths.
///
/// As in the paper's methodology (§7.1), output lengths are *enforced*: the
/// runner decodes exactly `output_len` tokens for the query, mimicking the
/// suppressed end-of-sequence token of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Request {
    /// Unique id (assignment order).
    pub id: u64,
    /// Number of input tokens.
    pub input_len: usize,
    /// Number of output tokens to generate.
    pub output_len: usize,
}

/// Deterministic stream of requests sampled from a workload.
///
/// # Example
///
/// ```
/// use exegpt_workload::{RequestStream, Task};
///
/// let w = Task::Summarization.workload()?;
/// let reqs: Vec<_> = RequestStream::new(&w, 42).take(100).collect();
/// assert_eq!(reqs.len(), 100);
/// assert!(reqs.iter().all(|r| r.input_len >= 1 && r.output_len >= 1));
/// # Ok::<(), exegpt_dist::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RequestStream {
    workload: Workload,
    rng: StdRng,
    next_id: u64,
}

impl RequestStream {
    /// Creates a stream over `workload` with a deterministic `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        Self { workload: workload.clone(), rng: StdRng::seed_from_u64(seed), next_id: 0 }
    }

    /// Samples the next request.
    pub fn next_request(&mut self) -> Request {
        let input_len = self.workload.input().sample(&mut self.rng);
        let output_len = self.workload.output().sample(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Request { id, input_len, output_len }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

/// A request paired with its (open-loop) arrival time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedRequest {
    /// The request.
    pub request: Request,
    /// Arrival time in virtual seconds.
    pub arrival: f64,
}

/// A deterministic open-loop arrival stream: requests sampled from a
/// workload, arriving as a Poisson process of the given rate.
///
/// Where [`RequestStream`] models the paper's saturated throughput regime
/// (everything queued at time zero), this models *serving*: queries arrive
/// over time and latency includes queueing — the quantity behind the
/// §7.6 SLA-(a) discussion ("99% of all queries completed within a given
/// timeframe").
///
/// # Example
///
/// ```
/// use exegpt_workload::{PoissonStream, Task};
///
/// let w = Task::Translation.workload()?;
/// let reqs: Vec<_> = PoissonStream::new(&w, 10.0, 7).take(100).collect();
/// assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
/// # Ok::<(), exegpt_dist::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PoissonStream {
    inner: RequestStream,
    gaps: StdRng,
    rate: f64,
    now: f64,
}

impl PoissonStream {
    /// Creates a stream over `workload` with mean arrival rate `rate_qps`
    /// queries per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_qps` is not positive.
    pub fn new(workload: &Workload, rate_qps: f64, seed: u64) -> Self {
        assert!(rate_qps > 0.0, "arrival rate must be positive");
        Self {
            inner: RequestStream::new(workload, seed),
            gaps: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            rate: rate_qps,
            now: 0.0,
        }
    }
}

impl Iterator for PoissonStream {
    type Item = TimedRequest;

    fn next(&mut self) -> Option<TimedRequest> {
        use rand::Rng;
        let u: f64 = self.gaps.gen_range(f64::MIN_POSITIVE..1.0);
        self.now += -u.ln() / self.rate;
        Some(TimedRequest { request: self.inner.next_request(), arrival: self.now })
    }
}

/// A deterministic *bursty* open-loop arrival stream: a two-state Markov-
/// modulated Poisson process (MMPP-2).
///
/// The process alternates between a *burst* state and a *lull* state, each
/// with exponentially distributed dwell times; within a state, arrivals are
/// Poisson at that state's rate. This is the classic on-off traffic model
/// for flash crowds and diurnal swings — the regime where a serving layer's
/// SLO accounting (queueing during bursts) and drift detection earn their
/// keep, versus the memoryless [`PoissonStream`].
///
/// With `rate_lull = 0` the process degenerates to an interrupted Poisson
/// process (pure on-off). The long-run mean rate is
/// `(rate_burst·dwell_burst + rate_lull·dwell_lull) / (dwell_burst + dwell_lull)`,
/// exposed as [`mean_rate`](BurstyStream::mean_rate).
///
/// # Example
///
/// ```
/// use exegpt_workload::{BurstyStream, Task};
///
/// let w = Task::Translation.workload()?;
/// // 30 qps bursts of ~5 s, 5 qps lulls of ~15 s: ~11.25 qps on average.
/// let s = BurstyStream::new(&w, 30.0, 5.0, 5.0, 15.0, 7);
/// assert!((s.mean_rate() - 11.25).abs() < 1e-12);
/// let reqs: Vec<_> = s.take(100).collect();
/// assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
/// # Ok::<(), exegpt_dist::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BurstyStream {
    inner: RequestStream,
    gaps: StdRng,
    rate_burst: f64,
    rate_lull: f64,
    dwell_burst: f64,
    dwell_lull: f64,
    now: f64,
    in_burst: bool,
    next_switch: f64,
}

impl BurstyStream {
    /// Creates a bursty stream over `workload`: Poisson at `rate_burst`
    /// queries/second during bursts of mean length `dwell_burst` seconds,
    /// and at `rate_lull` during lulls of mean length `dwell_lull`. The
    /// process starts in a burst. Fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_burst` is not positive, `rate_lull` is negative, or
    /// either dwell time is not positive.
    pub fn new(
        workload: &Workload,
        rate_burst: f64,
        rate_lull: f64,
        dwell_burst: f64,
        dwell_lull: f64,
        seed: u64,
    ) -> Self {
        assert!(rate_burst > 0.0, "burst arrival rate must be positive");
        assert!(rate_lull >= 0.0, "lull arrival rate must be non-negative");
        assert!(dwell_burst > 0.0 && dwell_lull > 0.0, "dwell times must be positive");
        let mut gaps = StdRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
        let first_switch = exponential(&mut gaps, 1.0 / dwell_burst);
        Self {
            inner: RequestStream::new(workload, seed),
            gaps,
            rate_burst,
            rate_lull,
            dwell_burst,
            dwell_lull,
            now: 0.0,
            in_burst: true,
            next_switch: first_switch,
        }
    }

    /// The long-run mean arrival rate in queries/second.
    pub fn mean_rate(&self) -> f64 {
        (self.rate_burst * self.dwell_burst + self.rate_lull * self.dwell_lull)
            / (self.dwell_burst + self.dwell_lull)
    }
}

/// An exponential draw with the given rate (`f64::INFINITY`-free: the
/// underlying uniform is bounded away from zero).
fn exponential(rng: &mut StdRng, rate: f64) -> f64 {
    use rand::Rng;
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

impl Iterator for BurstyStream {
    type Item = TimedRequest;

    fn next(&mut self) -> Option<TimedRequest> {
        // Memorylessness makes this exact: a candidate gap at the current
        // state's rate either lands before the next state switch (a real
        // arrival) or is discarded and redrawn from the switch point.
        loop {
            let rate = if self.in_burst { self.rate_burst } else { self.rate_lull };
            let candidate = if rate > 0.0 {
                self.now + exponential(&mut self.gaps, rate)
            } else {
                f64::INFINITY // silent lull: jump straight to the switch
            };
            if candidate <= self.next_switch {
                self.now = candidate;
                return Some(TimedRequest {
                    request: self.inner.next_request(),
                    arrival: self.now,
                });
            }
            self.now = self.next_switch;
            self.in_burst = !self.in_burst;
            let mean_dwell = if self.in_burst { self.dwell_burst } else { self.dwell_lull };
            self.next_switch = self.now + exponential(&mut self.gaps, 1.0 / mean_dwell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::Task;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let w = Task::Translation.workload().expect("valid");
        let a: Vec<_> = RequestStream::new(&w, 7).take(50).collect();
        let b: Vec<_> = RequestStream::new(&w, 7).take(50).collect();
        let c: Vec<_> = RequestStream::new(&w, 8).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_sequential() {
        let w = Task::Translation.workload().expect("valid");
        let reqs: Vec<_> = RequestStream::new(&w, 1).take(10).collect();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn poisson_arrivals_have_the_requested_rate() {
        let w = Task::Translation.workload().expect("valid");
        let reqs: Vec<_> = PoissonStream::new(&w, 20.0, 5).take(4000).collect();
        let span = reqs.last().expect("non-empty").arrival;
        let rate = reqs.len() as f64 / span;
        assert!((rate - 20.0).abs() < 1.5, "measured rate {rate}");
        assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        // Deterministic per seed.
        let again: Vec<_> = PoissonStream::new(&w, 20.0, 5).take(10).collect();
        assert_eq!(&reqs[..10], &again[..]);
    }

    #[test]
    fn bursty_arrivals_match_the_modulated_rate() {
        let w = Task::Translation.workload().expect("valid");
        // 40 qps bursts (~4 s) alternating with 4 qps lulls (~12 s):
        // long-run mean (40*4 + 4*12) / 16 = 13 qps.
        let s = BurstyStream::new(&w, 40.0, 4.0, 4.0, 12.0, 11);
        assert!((s.mean_rate() - 13.0).abs() < 1e-12);
        let reqs: Vec<_> = s.take(20_000).collect();
        let span = reqs.last().expect("non-empty").arrival;
        let rate = reqs.len() as f64 / span;
        assert!((rate - 13.0).abs() < 1.0, "measured rate {rate}");
        assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn bursty_interarrivals_are_overdispersed_vs_poisson() {
        let w = Task::Translation.workload().expect("valid");
        let cv2 = |reqs: &[TimedRequest]| {
            let gaps: Vec<f64> = reqs.windows(2).map(|p| p[1].arrival - p[0].arrival).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
            var / (m * m)
        };
        let bursty: Vec<_> = BurstyStream::new(&w, 50.0, 2.0, 3.0, 10.0, 5).take(8000).collect();
        let poisson: Vec<_> = PoissonStream::new(&w, 13.0, 5).take(8000).collect();
        // Poisson inter-arrivals have squared CV ~1; modulation pushes the
        // bursty stream's well above it.
        let (b, p) = (cv2(&bursty), cv2(&poisson));
        assert!(p < 1.3, "poisson cv^2 {p}");
        assert!(b > 2.0, "bursty cv^2 {b} not overdispersed");
    }

    #[test]
    fn bursty_streams_are_deterministic_per_seed() {
        let w = Task::Translation.workload().expect("valid");
        let a: Vec<_> = BurstyStream::new(&w, 30.0, 5.0, 5.0, 15.0, 9).take(200).collect();
        let b: Vec<_> = BurstyStream::new(&w, 30.0, 5.0, 5.0, 15.0, 9).take(200).collect();
        let c: Vec<_> = BurstyStream::new(&w, 30.0, 5.0, 5.0, 15.0, 10).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn silent_lull_degenerates_to_interrupted_poisson() {
        let w = Task::Translation.workload().expect("valid");
        let reqs: Vec<_> = BurstyStream::new(&w, 25.0, 0.0, 2.0, 6.0, 3).take(2000).collect();
        assert_eq!(reqs.len(), 2000, "the stream still yields arrivals");
        assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn sampled_lengths_respect_bounds_and_mean() {
        let w = Task::CodeGeneration.workload().expect("valid");
        let reqs: Vec<_> = RequestStream::new(&w, 3).take(5000).collect();
        assert!(reqs.iter().all(|r| r.input_len <= 128 && r.output_len <= 480));
        let mean_out: f64 =
            reqs.iter().map(|r| r.output_len as f64).sum::<f64>() / reqs.len() as f64;
        assert!((mean_out - w.output().mean()).abs() < 5.0);
    }
}
