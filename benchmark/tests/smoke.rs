//! Every workload at tiny size: one untraced round reports every
//! end-to-end metric, one untraced plus one traced round every per-layer
//! metric, and every output check passes.

use exegpt_benchmark::alloc::Counting;
use exegpt_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use exegpt_benchmark::{run, Options, Size};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: 1,
                seconds: 0.0,
                trace,
                size: Size::Tiny,
            };
            let report = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(report.correct(), "{workload} (trace {trace}): {:?}", report.problems);
            assert!(report.attempted >= 1);
            let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            let expected = if trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
            assert_eq!(names, expected, "{workload} (trace {trace})");
            if trace {
                let rounds = report.metrics.iter().find(|m| m.0 == "bench.rounds");
                assert_eq!(rounds.map(|m| m.1), Some(2.0));
                assert!(!report.spans.is_empty());
            } else {
                let zero: Vec<_> = report.metrics.iter().filter(|m| m.1 <= 0.0).collect();
                assert!(
                    zero.is_empty(),
                    "{workload}: end-to-end metrics must be positive: {zero:?}"
                );
            }
            let json = report.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
            assert!(!json.contains('\n'));
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let opts =
        Options { workload: "nope".into(), seed: 1, seconds: 0.0, trace: false, size: Size::Tiny };
    assert!(run(&opts).is_err());
}
