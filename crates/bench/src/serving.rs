//! The serving studies — the §7.6 drift experiment served online
//! (`serve`), graceful degradation under a straggler (`faults`) and fleet
//! dispatch policies (`fleet`) — run from the shipped `scenarios/*.toml`
//! files exactly as they are, so these tables replay the runs whose
//! event-log digests `scenarios/GOLDENS.toml` locks. Each run must also
//! pass the scenario layer's run invariants before it is reported.

use std::path::Path;

use exegpt_scenario::{broken_invariants, run, Mode, Report, Scenario, DISPATCH_POLICIES};
use exegpt_serve::ServeReport;
use serde::Serialize;

use crate::table;

/// One study as printed: a title, the column names and one row of cells
/// per arm (`--json` writes the same cells).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Study {
    /// Title line above the table.
    pub title: &'static str,
    /// Column names.
    pub header: Vec<&'static str>,
    /// One row of formatted cells per arm, in run order.
    pub rows: Vec<Vec<String>>,
}

impl Study {
    /// Renders the study as its titled text table.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, table::render(&self.header, &self.rows))
    }
}

fn load(file: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios").join(file);
    Scenario::load(&path).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn report(scenario: &Scenario) -> Report {
    let outcome = run(scenario).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
    let broken = broken_invariants(scenario, &outcome.report);
    assert!(broken.is_empty(), "{}: broken run invariants {broken:?}", scenario.name);
    outcome.report
}

/// Two serve arms, each one scenario file, in a table whose middle three
/// columns are study-specific.
fn serve_study(
    title: &'static str,
    arms: [(&str, &str); 2],
    extra: [&'static str; 3],
    cells: fn(&ServeReport) -> [String; 3],
) -> Study {
    let rows = arms
        .iter()
        .map(|&(arm, file)| {
            let Report::Serve(r) = report(&load(file)) else {
                panic!("{file} is not a serve scenario");
            };
            let mut row = vec![
                arm.to_string(),
                r.completed.to_string(),
                format!("{:.2}", r.throughput),
                format!("{:.1}%", 100.0 * r.slo.violation_rate()),
                table::opt_f64(r.e2e.as_ref().map(|s| s.p99)),
            ];
            row.extend(cells(&r));
            row.push(r.final_schedule);
            row
        })
        .collect();
    let mut header = vec!["arm", "served", "tput q/s", "SLO viol", "p99 e2e"];
    header.extend(extra);
    header.push("final schedule");
    Study { title, header, rows }
}

/// §7.6 served online: the stale plan (`serve-shift-static.toml`) against
/// live rescheduling (`serve-shift.toml`) on one shifted arrival stream.
pub fn serve() -> Study {
    serve_study(
        "Figure 11 (end-to-end serving): ×1.5 mean shift, OPT-13B task T, SLO 36s",
        [("static", "serve-shift-static.toml"), ("adaptive", "serve-shift.toml")],
        ["resched", "swaps", "swap s"],
        |r| [r.reschedules.to_string(), r.plan_swaps.to_string(), format!("{:.1}", r.swap_cost)],
    )
}

/// A ×3 straggler kept (`serve-straggler-tolerate.toml`) against evicted
/// with a replan onto the survivors (`serve-straggler.toml`), on one stream.
pub fn faults() -> Study {
    serve_study(
        "Graceful degradation: ×3 straggler, OPT-13B task T, SLO 36s",
        [("tolerate", "serve-straggler-tolerate.toml"), ("degrade", "serve-straggler.toml")],
        ["stragglers", "replans", "lost"],
        |r| [r.stragglers_detected.to_string(), r.replans.to_string(), r.requests_lost.to_string()],
    )
}

/// `fleet-100k.toml` once per dispatch policy: one multi-tenant stream, one
/// replica loss, one standby scale-up in every arm.
pub fn fleet() -> Study {
    let base = load("fleet-100k.toml");
    let rows = DISPATCH_POLICIES
        .iter()
        .map(|&policy| {
            let mut scenario = base.clone();
            if let Mode::Fleet(cfg) = &mut scenario.mode {
                cfg.policy = policy.to_string();
            }
            let Report::Fleet(r) = report(&scenario) else {
                panic!("fleet-100k.toml is not a fleet scenario");
            };
            let interactive: usize = r
                .tenants
                .iter()
                .filter(|t| t.class == "interactive")
                .map(|t| t.slo.violations)
                .sum();
            vec![
                policy.to_string(),
                r.dispatched.to_string(),
                r.rerouted.to_string(),
                r.completed.to_string(),
                r.lost.to_string(),
                interactive.to_string(),
                format!("{:.1}%", 100.0 * r.weighted_violation_rate),
                format!("{:.0}", r.makespan),
            ]
        })
        .collect();
    Study {
        title: "Fleet dispatch policies: 2xA40 + A100 + standby, mid-run replica loss, \
                OPT-13B task T",
        header: vec![
            "policy",
            "dispatched",
            "rerouted",
            "served",
            "lost",
            "interactive viol",
            "weighted viol",
            "makespan s",
        ],
        rows,
    }
}
