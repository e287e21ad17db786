//! Discrete-event replay of a WAA schedule.
//!
//! The encode and decode groups run as coupled pipelines; the replay steps
//! in *rounds*, one decoding iteration of the pool per round, with one
//! encoder hand-over (batch + KV transfer via CPU staging) joining the pool
//! at each round boundary.

use exegpt_sim::{ScheduleConfig, Simulator, WaaConfig};

use crate::error::RunError;
use crate::pool::GrowthOrder;
use crate::replay::{Admission, Replay};
use crate::report::RunReport;
use crate::runner::RunOptions;
use crate::trace::SpanKind;

pub(crate) fn run(
    sim: &Simulator,
    cfg: &WaaConfig,
    opts: &RunOptions,
) -> Result<RunReport, RunError> {
    let mut r = Replay::new(sim, &ScheduleConfig::Waa(*cfg), opts)?;
    while r.unfinished() {
        // ---- Encoder side of this round ---------------------------------
        match r.admit_arrived()? {
            Admission::Run => {}
            Admission::Idle => continue,
            Admission::Drained => break,
        }
        let (p_enc, enc_tokens) = if r.admitted.is_empty() {
            (0.0, 0.0)
        } else {
            let enc = r.encode_admitted()?;
            r.enc_stage_times.push(enc.bottleneck.as_secs());
            (enc.bottleneck.as_secs(), enc.tokens)
        };

        // ---- Decoder side of this round ----------------------------------
        let pool = r.pool.len();
        let p_dec = if pool == 0 {
            0.0
        } else {
            let b_m = r.exec.decode_parallelism(pool);
            let dec = r.exec.decode_timing(b_m, pool, r.pool.mean_context(), false)?;
            r.dec_stage_times.push(dec.bottleneck.as_secs());
            dec.total.as_secs()
        };

        // ---- Round boundary: handover + advance ---------------------------
        let t_kv = r.exec.handover_time(enc_tokens).as_secs();
        let round = p_enc.max(p_dec).max(t_kv);
        let t_start = r.t;
        r.t += round;
        let admitted = r.admitted.len();
        if let Some(tr) = r.trace.as_mut() {
            tr.record("encoders", SpanKind::Encode, t_start, t_start + p_enc, admitted);
            tr.record("decoders", SpanKind::Decode, t_start, t_start + p_dec, pool);
            tr.record("handover", SpanKind::KvTransfer, t_start, t_start + t_kv, admitted);
        }
        // The encoder group's fresh admissions are resident but not pooled
        // yet: only the pool grows, in its scan order.
        r.advance(GrowthOrder::Pool);
        r.pool_admitted(t_start);
    }
    Ok(r.finish())
}
