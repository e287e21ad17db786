//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p exegpt-bench --release --bin figures -- <experiment> [--json DIR] [--queries N]
//! ```
//!
//! where `<experiment>` is an id from `KNOWN` or `all` (a usage error lists
//! them). With `--json DIR`, machine-readable results are written alongside
//! the printed tables (used to populate `EXPERIMENTS.md`); failing to write
//! them exits with status 1. `serve`, `faults` and `fleet` run the shipped
//! scenario files as they are, so `--queries` does not apply to them.

use std::path::PathBuf;

use exegpt::Policy;
use exegpt_bench::{
    ablations, fig10, fig11, fig6, fig7, fig8, fig9, schedcost, serving, tab4, tab5, tab6, tab7,
    timelines,
};

/// An experiment id and what prints (and saves) it.
type Experiment = (&'static str, fn(&Args, &str));

/// Every experiment, in the order `all` runs them.
const KNOWN: [Experiment; 16] = [
    ("fig6", |a, id| emit(a, id, fig6::generate(a.queries), |r| fig6::render(r))),
    ("fig7", |a, id| emit(a, id, fig7::generate(a.queries), |r| fig7::render(r))),
    ("fig8", |a, id| emit(a, id, fig8::generate(a.queries), |r| fig8::render(r))),
    ("fig9", |a, id| emit(a, id, fig9::generate(), |r| fig9::render(r))),
    ("fig10", |a, id| emit(a, id, fig10::generate(a.queries), |r| fig10::render(r))),
    ("fig11", |a, id| {
        let mut rows = fig11::generate(vec![Policy::WaaCompute, Policy::WaaMemory], a.queries);
        rows.extend(fig11::generate(vec![Policy::Rra], a.queries));
        emit(a, id, rows, |r| fig11::render(r));
    }),
    ("serve", |a, id| emit(a, id, serving::serve(), |s| s.render())),
    ("faults", |a, id| emit(a, id, serving::faults(), |s| s.render())),
    ("fleet", |a, id| emit(a, id, serving::fleet(), |s| s.render())),
    ("tab4", |a, id| emit(a, id, tab4::generate(), |r| tab4::render(r))),
    ("tab5", |a, id| emit(a, id, tab5::generate(), |r| tab5::render(r))),
    ("tab6", |a, id| emit(a, id, tab6::generate(), |r| tab6::render(r))),
    ("tab7", |a, id| emit(a, id, tab7::generate(a.queries), |r| tab7::render(r))),
    ("timelines", |_, _| println!("{}", timelines::generate())),
    ("ablations", |a, id| emit(a, id, ablations::generate(), |r| ablations::render(r))),
    ("schedcost", |a, id| emit(a, id, schedcost::generate(), |r| schedcost::render(r))),
];

struct Args {
    experiments: Vec<String>,
    json_dir: Option<PathBuf>,
    queries: usize,
}

fn parse_args() -> Args {
    let mut experiments = Vec::new();
    let mut json_dir = None;
    let mut queries = 300;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = it.next().map(PathBuf::from);
            }
            "--queries" => {
                queries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&q: &usize| q > 0)
                    .unwrap_or_else(|| die("--queries needs a positive integer"));
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        die("expected an experiment id");
    }
    if let Some(bad) =
        experiments.iter().find(|e| *e != "all" && !KNOWN.iter().any(|(id, _)| id == e))
    {
        die(&format!("unknown experiment `{bad}`"));
    }
    Args { experiments, json_dir, queries }
}

/// Reports a usage error, with the known experiment ids, and exits 2.
fn die(msg: &str) -> ! {
    let ids: Vec<&str> = KNOWN.iter().map(|(id, _)| *id).collect();
    eprintln!("figures: {msg} (known: {} all)", ids.join(" "));
    std::process::exit(2)
}

/// Prints an experiment's results as `render` shows them and, with
/// `--json DIR`, writes them to `DIR/<id>.json`; exits 1 if they cannot be
/// written.
fn emit<T: serde::Serialize>(args: &Args, id: &str, value: T, render: impl Fn(&T) -> String) {
    println!("{}", render(&value));
    let Some(dir) = &args.json_dir else { return };
    let path = dir.join(format!("{id}.json"));
    let written = std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| {
            serde_json::to_string_pretty(&value).map_err(|e| format!("cannot serialize {id}: {e}"))
        })
        .and_then(|json| {
            std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
        });
    if let Err(msg) = written {
        eprintln!("figures: {msg}");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let wants = |id: &str| args.experiments.iter().any(|e| e == id || e == "all");
    for (id, run) in KNOWN {
        if wants(id) {
            run(&args, id);
        }
    }
}
