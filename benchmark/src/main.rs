//! `exegpt-benchmark --workload <name> --seed <n> [--seconds <s>]
//! [--trace <0|1>] [--trace-out <path>]`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 0
//! when every output check passed, 1 when one failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use exegpt_benchmark::alloc::Counting;
use exegpt_benchmark::metrics::WORKLOADS;
use exegpt_benchmark::{run, trace, Options, Size};

#[global_allocator]
static ALLOC: Counting = Counting;

const USAGE: &str = "usage: exegpt-benchmark --workload <sched-paper|serve-adapt|fleet-tenants|\
replay-offline> --seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <path>]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Options, Option<PathBuf>), String> {
    let mut opts =
        Options { workload: String::new(), seed: 0, seconds: 10.0, trace: false, size: Size::Full };
    let mut seed = None;
    let mut out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => opts.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    opts.seed = seed.ok_or("--seed is required")?;
    Ok((opts, out))
}

fn main() -> ExitCode {
    let (opts, out) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("exegpt-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("exegpt-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        let path = out.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("target/traces")
                .join(format!("{}-seed{}.json", opts.workload, opts.seed))
        });
        match trace::write_chrome_trace(&report.spans, &path) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), report.spans.len()),
            Err(e) => {
                report.failed += 1;
                report.problems.push(format!("writing {}: {e}", path.display()));
            }
        }
        println!("{:<12} {:>12} {:>8}", "layer", "self_ms", "share");
        for (layer, secs, share) in &report.self_times {
            println!("{layer:<12} {:>12.3} {share:>8.4}", secs * 1e3);
        }
    }
    for problem in &report.problems {
        eprintln!("FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
