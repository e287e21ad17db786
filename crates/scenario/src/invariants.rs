//! The run invariants every finished scenario run must satisfy: request
//! conservation and consistent SLO accounting, checked against the
//! scenario that produced the report.

use crate::lower::Report;
use crate::schema::{Mode, Scenario};

/// Checks a finished run against its scenario and returns one line per
/// broken invariant (empty when all hold):
///
/// * serve — `completed + lost == total`, nothing lost, SLO accounting
///   consistent with every completion checked, mean TTFT ≤ mean e2e;
/// * fleet — every request dispatched and completed, nothing lost or
///   rejected, per-tenant completions summing to the fleet total, every
///   tenant's SLO accounting consistent;
/// * replay — exactly `num_queries` completions.
pub fn broken_invariants(scenario: &Scenario, report: &Report) -> Vec<String> {
    let checks: Vec<(bool, String)> = match (&scenario.mode, report) {
        (Mode::Serve(cfg), Report::Serve(r)) => {
            let (ttft, e2e) = (r.ttft.as_ref().map(|s| s.mean), r.e2e.as_ref().map(|s| s.mean));
            vec![
                (
                    r.completed + r.requests_lost == cfg.total,
                    format!(
                        "serve: completed {} + lost {} != total {}",
                        r.completed, r.requests_lost, cfg.total
                    ),
                ),
                (r.requests_lost == 0, format!("serve: {} requests lost", r.requests_lost)),
                (r.slo.is_consistent(), format!("serve: inconsistent SLO accounting {:?}", r.slo)),
                (
                    r.slo.checked == r.completed,
                    format!("serve: {} SLO checks for {} completions", r.slo.checked, r.completed),
                ),
                (
                    ttft.zip(e2e).is_none_or(|(t, e)| t <= e),
                    format!("serve: mean TTFT {ttft:?} exceeds mean e2e {e2e:?}"),
                ),
            ]
        }
        (Mode::Fleet(cfg), Report::Fleet(r)) => {
            let by_tenant: usize = r.tenants.iter().map(|t| t.completed).sum();
            let mut checks = vec![
                (
                    r.dispatched == cfg.total && r.completed == cfg.total,
                    format!(
                        "fleet: dispatched {} / completed {} of total {}",
                        r.dispatched, r.completed, cfg.total
                    ),
                ),
                (
                    r.lost == 0 && r.rejected == 0,
                    format!("fleet: {} lost, {} rejected", r.lost, r.rejected),
                ),
                (
                    by_tenant == r.completed,
                    format!("fleet: tenants completed {by_tenant} of {}", r.completed),
                ),
            ];
            checks.extend(r.tenants.iter().map(|t| {
                (
                    t.slo.is_consistent(),
                    format!("fleet: tenant {} inconsistent SLO accounting {:?}", t.tenant, t.slo),
                )
            }));
            checks
        }
        (Mode::Replay(cfg), Report::Replay(r)) => vec![(
            r.completed == cfg.num_queries,
            format!("replay: completed {} of {} queries", r.completed, cfg.num_queries),
        )],
        _ => vec![(false, "report mode does not match the scenario's".to_string())],
    };
    checks.into_iter().filter(|(ok, _)| !ok).map(|(_, why)| why).collect()
}
