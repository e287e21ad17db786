//! Serving-system shoot-out: ExeGPT versus FasterTransformer, ORCA and
//! vLLM on the same deployment and workload — the paper's §7.2/§7.3
//! comparison as a runnable program.
//!
//! The deployment, workload, and query count come from a declarative
//! scenario file (default `scenarios/replay-comparison.toml`; pass another
//! replay scenario as the first argument). When the scenario pins a finite
//! latency bound, every system plans for it; with an `inf` bound the
//! example falls back to the paper's protocol and derives the bound from
//! FasterTransformer's batch-latency sweep.
//!
//! Run with: `cargo run --release --example serving_comparison`

use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_runner::Runner;
use exegpt_scenario::{lower, Lowered, Scenario};
use exegpt_units::Secs;
use exegpt_workload::latency_bounds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path =
        std::env::args().nth(1).unwrap_or_else(|| "scenarios/replay-comparison.toml".to_string());
    let scenario = Scenario::load(std::path::Path::new(&path))?;
    let Lowered::Replay(replay) = lower(&scenario)? else {
        return Err(format!("{path}: serving_comparison needs a [replay] scenario").into());
    };
    println!("scenario `{}` from {path}\n", scenario.name);

    let engine = replay.engine;
    let sim = engine.simulator().clone();
    let opts = replay.options;

    let ft = FasterTransformer::paper_default(sim.clone())?;
    let bound = if scenario.scheduler.latency_bound_secs.is_finite() {
        let b = Secs::new(scenario.scheduler.latency_bound_secs);
        println!("latency bound: {b:.1} (from the scenario)\n");
        b
    } else {
        // The paper's protocol: percentiles of FT's batch-latency sweep.
        let bounds = latency_bounds(&ft.latency_sweep()).ok_or("empty sweep")?;
        println!("latency bound: {:.1} (FT bottom-30%)\n", bounds[1]);
        bounds[1]
    };
    println!("{:<18} {:>10} {:>12} {:>10}", "system", "tput q/s", "p99 lat(s)", "max lat(s)");

    // ExeGPT: the scenario's own plan, replayed.
    let schedule = engine.schedule(bound)?;
    let rep = Runner::from_simulator(sim.clone()).run(&schedule.config, &opts)?;
    println!(
        "{:<18} {:>10.2} {:>12.2} {:>10.2}   <- {}",
        "ExeGPT",
        rep.throughput,
        rep.p99_latency(),
        rep.max_latency(),
        schedule.config.describe()
    );

    // FasterTransformer: best static batch under the bound.
    if let Some((batch, _)) = ft.plan(bound) {
        let rep = ft.run(batch, &opts)?;
        println!(
            "{:<18} {:>10.2} {:>12.2} {:>10.2}   <- batch {batch}",
            "FasterTransformer",
            rep.throughput,
            rep.p99_latency(),
            rep.max_latency()
        );
    }

    // ORCA and vLLM: iteration-level scheduling.
    for (name, sys) in [
        ("ORCA", Orca::new(sim.clone(), IterationLevel::orca())?),
        ("vLLM", Orca::new(sim.clone(), IterationLevel::vllm())?),
    ] {
        match sys.plan(bound) {
            Some((slots, _)) => {
                let rep = sys.run(slots, &opts)?;
                println!(
                    "{:<18} {:>10.2} {:>12.2} {:>10.2}   <- {slots} slots",
                    name,
                    rep.throughput,
                    rep.p99_latency(),
                    rep.max_latency()
                );
            }
            None => println!("{name:<18} {:>10} (cannot satisfy the bound)", "NS"),
        }
    }
    Ok(())
}
