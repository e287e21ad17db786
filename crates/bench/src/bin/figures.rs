//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p exegpt-bench --release --bin figures -- <experiment> [--json DIR] [--queries N]
//! ```
//!
//! where `<experiment>` is one of `fig6 fig7 fig8 fig9 fig10 fig11 serve
//! faults fleet tab4 tab5 tab6 tab7 timelines all`. With `--json DIR`,
//! machine-readable results are written alongside the printed tables (used
//! to populate `EXPERIMENTS.md`). `serve`, `faults` and `fleet` run the
//! shipped scenario files as they are, so `--queries` does not apply to
//! them.

use std::path::PathBuf;

use exegpt::Policy;
use exegpt_bench::{
    fig10, fig11, fig6, fig7, fig8, fig9, serving, tab4, tab5, tab6, tab7, timelines,
};

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
    const KNOWN: [&str; 15] = [
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "serve",
        "faults",
        "fleet",
        "tab4",
        "tab5",
        "tab6",
        "tab7",
        "timelines",
        "all",
    ];
    if experiments.is_empty() {
        die("expected an experiment id (fig6 fig7 fig8 fig9 fig10 fig11 serve faults fleet tab4 tab5 tab6 tab7 timelines all)");
    }
    if let Some(bad) = experiments.iter().find(|e| !KNOWN.contains(&e.as_str())) {
        die(&format!("unknown experiment `{bad}` (known: {})", KNOWN.join(" ")));
    }
    Args { experiments, json_dir, queries }
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2)
}

fn save_json<T: serde::Serialize>(dir: &Option<PathBuf>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("figures: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("figures: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("figures: cannot serialize {name}: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let wants = |name: &str| args.experiments.iter().any(|e| e == name || e == "all");
    let q = args.queries;

    if wants("fig6") {
        let rows = fig6::run_full(q);
        println!("{}", fig6::render(&rows));
        save_json(&args.json_dir, "fig6", &rows);
    }
    if wants("fig7") {
        let rows = fig7::generate(q);
        println!("{}", fig7::render(&rows));
        save_json(&args.json_dir, "fig7", &rows);
    }
    if wants("fig8") {
        let rows = fig8::run_full(q);
        println!("{}", fig8::render(&rows));
        save_json(&args.json_dir, "fig8", &rows);
    }
    if wants("fig9") {
        let rows = fig9::generate();
        println!("{}", fig9::render(&rows));
        save_json(&args.json_dir, "fig9", &rows);
    }
    if wants("fig10") {
        let rows = fig10::generate(q);
        println!("{}", fig10::render(&rows));
        save_json(&args.json_dir, "fig10", &rows);
    }
    if wants("fig11") {
        let mut rows = fig11::generate(vec![Policy::WaaCompute, Policy::WaaMemory], q);
        rows.extend(fig11::generate(vec![Policy::Rra], q));
        println!("{}", fig11::render(&rows));
        save_json(&args.json_dir, "fig11", &rows);
    }
    if wants("serve") {
        let study = serving::serve();
        println!("{}", study.render());
        save_json(&args.json_dir, "serve", &study);
    }
    if wants("faults") {
        let study = serving::faults();
        println!("{}", study.render());
        save_json(&args.json_dir, "faults", &study);
    }
    if wants("fleet") {
        let study = serving::fleet();
        println!("{}", study.render());
        save_json(&args.json_dir, "fleet", &study);
    }
    if wants("tab4") {
        let rows = tab4::generate();
        println!("{}", tab4::render(&rows));
        save_json(&args.json_dir, "tab4", &rows);
    }
    if wants("tab5") {
        let rows = tab5::generate();
        println!("{}", tab5::render(&rows));
        save_json(&args.json_dir, "tab5", &rows);
    }
    if wants("tab6") {
        let rows = tab6::generate();
        println!("{}", tab6::render(&rows));
        save_json(&args.json_dir, "tab6", &rows);
    }
    if wants("tab7") {
        let rows = tab7::generate(q);
        println!("{}", tab7::render(&rows));
        save_json(&args.json_dir, "tab7", &rows);
    }
    if wants("timelines") {
        println!("{}", timelines::generate());
    }
}
