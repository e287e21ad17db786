//! The metric vocabulary: every name the benchmark emits, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

/// End-to-end metrics, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    // Set-up outside the timed span: profiling, bound derivation and the
    // per-round lowering / cold initial plans.
    ("setup_s", "s"),
    // Schedules per wall-second (sched-paper) or simulated completed
    // requests per wall-second (the others).
    ("ops_per_s", "1/s"),
    // Peak heap the timed call holds above what was live before it, from
    // the counting allocator; mean over units. (The process's resident-set
    // high-water mark moved by 15 % between identical runs: the scheduler's
    // threads allocate from per-thread malloc arenas.)
    ("peak_heap_mb", "MiB"),
    // Throughput the planned or simulated system delivers, per simulated
    // second: the paper's objective.
    ("virt_qps", "req/sim_s"),
    // Tail latency of the same runs in simulated seconds: the paper's
    // constraint.
    ("virt_e2e_p99", "sim_s"),
];

/// Per-layer metrics, emitted by every traced run. A layer the workload
/// does not call directly reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("scenario.lower_ms", "ms"),
    ("scenario.wall_share", "ratio"),
    ("profiler.profile_ms", "ms"),
    ("profiler.wall_share", "ratio"),
    ("workload.trace_ms", "ms"),
    ("workload.wall_share", "ratio"),
    ("baselines.wall_share", "ratio"),
    ("sim.eval_cold_us", "us"),
    ("sim.eval_warm_us", "us"),
    ("sim.cache_hit_rate", "ratio"),
    ("sim.cache_entries", "count"),
    ("sim.wall_share", "ratio"),
    ("core.schedule_ms_p50", "ms"),
    ("core.schedule_ms_p75", "ms"),
    ("core.evals_per_schedule", "count"),
    ("core.cache_hits_per_schedule", "count"),
    ("core.infeasible", "count"),
    ("core.replan_ms_p50", "ms"),
    ("core.replan_fallbacks", "count"),
    ("core.replan_speedup", "ratio"),
    ("core.wall_share", "ratio"),
    ("runner.run_ms_p50", "ms"),
    ("runner.tokens_per_s", "1/s"),
    ("runner.peak_kv_frac", "ratio"),
    ("runner.allocs_per_req", "count"),
    ("runner.wall_share", "ratio"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.steps_per_req", "count"),
    ("serve.replan_step_share", "ratio"),
    ("serve.reschedules", "count"),
    ("serve.replans", "count"),
    ("serve.plan_swaps", "count"),
    ("serve.replan_fallbacks", "count"),
    ("serve.retries", "count"),
    ("serve.queue_wait_p99", "sim_s"),
    ("serve.ttft_p99", "sim_s"),
    ("serve.swap_cost", "sim_s"),
    ("serve.slo_viol_rate", "ratio"),
    ("serve.allocs_per_req", "count"),
    ("serve.wall_share", "ratio"),
    ("fleet.run_ms_p50", "ms"),
    ("fleet.rerouted_frac", "ratio"),
    ("fleet.rejected", "count"),
    ("fleet.lost", "count"),
    ("fleet.slo_viol_rate", "ratio"),
    ("fleet.allocs_per_req", "count"),
    ("fleet.wall_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.rounds", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sched-paper", "serve-adapt", "fleet-tenants", "replay-offline"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
        }
    }
}
