//! ASCII regeneration of the paper's illustrative timelines (Figures 1, 3
//! and 4): how RRA alternates encode/decode phases on shared GPUs and how
//! WAA dedicates GPU groups to asynchronous encode/decode pipelines.

use exegpt::{Policy, SchedulerOptions};
use exegpt_runner::{PhaseRecord, RunOptions, Runner};
use exegpt_units::Secs;
use exegpt_workload::Task;

use crate::scenarios::opt_4xa40;

/// Renders a labelled proportional bar.
fn bar(label: &str, seconds: f64, scale: f64) -> String {
    let width = ((seconds * scale).round() as usize).clamp(1, 60);
    format!("{label:<18} |{}| {seconds:.3}s", "█".repeat(width))
}

/// One timed span of a replay on one GPU group's lane, drawn as `mark`.
#[derive(Debug, PartialEq)]
struct Span {
    lane: &'static str,
    mark: char,
    t0: f64,
    t1: f64,
}

/// Adds a phase's non-empty spans: RRA phases on the shared workers, WAA
/// rounds on the encoder and decoder groups and the handover between them.
fn push_spans(spans: &mut Vec<Span>, r: &PhaseRecord) {
    let (enc, dec) = if r.coupled { ("encoders", "decoders") } else { ("workers", "workers") };
    // An RRA phase's handover is empty, so it never gets a lane.
    for (lane, mark, [t0, t1]) in
        [(enc, 'E', r.encode), (dec, 'd', r.decode), ("handover", 'k', r.handover)]
    {
        if t1 > t0 {
            spans.push(Span { lane, mark, t0, t1 });
        }
    }
}

/// Draws the first `window` seconds of `spans` as an ASCII Gantt chart,
/// one lane per GPU group in order of first appearance: `E` encode, `d`
/// decode, `k` KV transfer, `.` idle.
fn gantt(spans: &[Span], window: f64, width: usize) -> String {
    let mut lanes: Vec<&str> = Vec::new();
    for s in spans {
        if !lanes.contains(&s.lane) {
            lanes.push(s.lane);
        }
    }
    let mut out = String::new();
    for lane in lanes {
        let mut row = vec!['.'; width];
        for s in spans.iter().filter(|s| s.lane == lane && s.t0 < window) {
            let a = ((s.t0 / window) * width as f64) as usize;
            let b = ((s.t1.min(window) / window) * width as f64).ceil() as usize;
            for c in row.iter_mut().take(b.min(width)).skip(a) {
                *c = s.mark;
            }
        }
        out.push_str(&format!("{lane:>9} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>9}  0s{}{window:.2}s   (E encode, d decode, k kv-transfer)\n",
        "",
        " ".repeat(width.saturating_sub(8))
    ));
    out
}

/// Regenerates the RRA and WAA phase timelines for OPT-13B / task T.
pub fn generate() -> String {
    let system = opt_4xa40();
    let workload = Task::Translation.workload().expect("task statistics are valid");
    let engine = system.engine(workload);
    let mut out = String::from(
        "Illustrative execution timelines (cf. paper Figures 1/3/4)\n\
         One steady-state period per schedule family; bar length ∝ time.\n\n",
    );
    for (name, policies) in
        [("RRA", vec![Policy::Rra]), ("WAA", vec![Policy::WaaCompute, Policy::WaaMemory])]
    {
        let opts = SchedulerOptions { policies, ..SchedulerOptions::bounded(Secs::INFINITY) };
        let Ok(s) = engine.schedule_with(&opts) else { continue };
        let b = s.estimate.breakdown;
        let scale = 50.0 / b.period.as_secs().max(1e-9);
        out.push_str(&format!("{name}: {}\n", s.config.describe()));
        match name {
            "RRA" => {
                // All GPUs alternate: encode phase then N_D decode iterations.
                out.push_str(&bar("  all GPUs: encode", b.encode_time.as_secs(), scale));
                out.push('\n');
                out.push_str(&bar("  all GPUs: decode", b.decode_time.as_secs(), scale));
                out.push('\n');
            }
            _ => {
                // Dedicated groups run concurrently; the period is the max.
                out.push_str(&bar("  enc GPUs: encode", b.encode_time.as_secs(), scale));
                out.push('\n');
                out.push_str(&bar("  dec GPUs: decode", b.decode_time.as_secs(), scale));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "  period {:.3}s, stages {}, decode pool {}\n",
            b.period.as_secs(),
            b.stages,
            b.decode_batch
        ));
        // A real replay's Gantt over the first few periods.
        let runner = Runner::from_simulator(engine.simulator().clone());
        let opts = RunOptions { num_queries: (2 * b.decode_batch).max(120), ..Default::default() };
        let mut spans = Vec::new();
        if runner.run_observed(&s.config, &opts, |r| push_spans(&mut spans, r)).is_ok() {
            out.push_str("  replay (first 4 periods):\n");
            for line in gantt(&spans, (b.period * 4.0).as_secs(), 64).lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        coupled: bool,
        encode: [f64; 2],
        decode: [f64; 2],
        handover: [f64; 2],
    ) -> PhaseRecord {
        PhaseRecord {
            coupled,
            encode,
            decode,
            handover,
            span: [encode[0], decode[1]],
            admitted: 2,
            pool: 32,
            iters: 1,
            encode_stage: None,
            nominal: 0.0,
            dilated: 0.0,
        }
    }

    fn span(lane: &'static str, mark: char, t0: f64, t1: f64) -> Span {
        Span { lane, mark, t0, t1 }
    }

    #[test]
    fn phases_land_on_their_lanes_and_empty_spans_are_dropped() {
        let mut spans = Vec::new();
        push_spans(&mut spans, &record(false, [0.0, 1.0], [1.0, 2.0], [1.0, 1.0]));
        push_spans(&mut spans, &record(false, [2.0, 2.0], [2.0, 3.0], [2.0, 2.0]));
        push_spans(&mut spans, &record(true, [0.0, 1.0], [0.0, 0.0], [1.0, 1.5]));
        assert_eq!(
            spans,
            [
                span("workers", 'E', 0.0, 1.0),
                span("workers", 'd', 1.0, 2.0),
                span("workers", 'd', 2.0, 3.0),
                span("encoders", 'E', 0.0, 1.0),
                span("handover", 'k', 1.0, 1.5),
            ]
        );
    }

    #[test]
    fn gantt_shows_lanes_in_first_appearance_order_and_idle() {
        let spans = [
            span("encoders", 'E', 0.0, 1.0),
            span("handover", 'k', 2.0, 2.2),
            span("decoders", 'd', 0.5, 2.0),
        ];
        let g = gantt(&spans, 4.0, 40);
        let rows: Vec<(&str, &str)> = g
            .lines()
            .filter_map(|l| l.split_once('|'))
            .map(|(lane, row)| (lane.trim(), row))
            .collect();
        let lanes: Vec<&str> = rows.iter().map(|&(lane, _)| lane).collect();
        assert_eq!(lanes, ["encoders", "handover", "decoders"]);
        for ((_, row), mark) in rows.iter().zip(['E', 'k', 'd']) {
            assert!(row.contains(mark) && row.contains('.'), "{row}: busy and idle time show");
        }
    }

    #[test]
    fn gantt_clips_at_the_window() {
        let spans = [span("workers", 'E', 0.0, 1.0), span("workers", 'd', 1.0, 9.0)];
        let g = gantt(&spans, 2.0, 10);
        assert_eq!(g.lines().next(), Some("  workers |EEEEEddddd|"));
        let late = gantt(&[span("workers", 'd', 2.0, 3.0)], 2.0, 10);
        assert_eq!(late.lines().next(), Some("  workers |..........|"));
    }
}
