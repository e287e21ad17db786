//! Discrete-event replay of an RRA schedule.

use exegpt_sim::{RraConfig, ScheduleConfig, Simulator};

use crate::error::RunError;
use crate::pool::GrowthOrder;
use crate::replay::{Admission, Replay};
use crate::report::RunReport;
use crate::runner::RunOptions;
use crate::trace::SpanKind;

pub(crate) fn run(
    sim: &Simulator,
    cfg: &RraConfig,
    opts: &RunOptions,
) -> Result<RunReport, RunError> {
    let mut r = Replay::new(sim, &ScheduleConfig::Rra(*cfg), opts)?;
    while r.unfinished() {
        // ---- Encoding phase: dynamic admission (§5.2) -------------------
        match r.admit_arrived()? {
            Admission::Run => {}
            Admission::Idle => continue,
            Admission::Drained => break,
        }
        if !r.admitted.is_empty() {
            let enc = r.encode_admitted()?;
            r.enc_stage_times.push(enc.bottleneck.as_secs());
            let t_start = r.t;
            r.t += enc.total.as_secs();
            let (t, n) = (r.t, r.admitted.len());
            if let Some(tr) = r.trace.as_mut() {
                tr.record("workers", SpanKind::Encode, t_start, t, n);
            }
            r.pool_admitted(t_start);
        }

        // ---- Decoding phase: N_D iterations with early termination ------
        let m_d = r.exec.decode_parallelism(r.pool.len());
        let dec_phase_start = r.t;
        let dec_phase_batch = r.pool.len();
        for u in 0..cfg.n_d {
            if r.pool.is_empty() {
                break;
            }
            let dec = r.exec.decode_timing(m_d, r.pool.len(), r.pool.mean_context(), u == 0)?;
            r.dec_stage_times.push(dec.bottleneck.as_secs());
            r.t += dec.total.as_secs();
            // Advance and early-terminate (with cache compaction). During
            // an RRA decode iteration the resident set is exactly the pool.
            r.advance(GrowthOrder::Arena);
        }
        let t = r.t;
        if let Some(tr) = r.trace.as_mut() {
            tr.record("workers", SpanKind::Decode, dec_phase_start, t, dec_phase_batch);
        }
    }
    Ok(r.finish())
}
