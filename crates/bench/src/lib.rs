//! Benchmark harness regenerating every table and figure of the ExeGPT
//! evaluation (paper §7).
//!
//! Each `figures::figN`/`tabN` module computes the corresponding result set
//! and renders it as the rows/series the paper reports. Two front ends
//! drive them:
//!
//! * `cargo run -p exegpt-bench --release --bin figures -- <fig6|fig7|…|all>`
//!   regenerates an experiment in full and prints it (optionally writing
//!   JSON next to the text for `EXPERIMENTS.md`).
//! * `cargo bench` — each Criterion bench first prints its experiment at a
//!   reduced query count, then times the experiment's computational kernel
//!   (e.g. one scheduling run), so `bench_output.txt` carries both the
//!   regenerated rows and the real wall-clock cost of scheduling (§7.7).
//!
//! The serving studies (`serve`, `faults`, `fleet`) have no module of their
//! own: [`serving`] runs the shipped `scenarios/*.toml` files through
//! `exegpt-scenario`, the one construction of a serve, fault or fleet run.
//!
//! Absolute numbers come from the simulated cluster substrate and are not
//! expected to match the paper's testbed; the *shape* — who wins, by what
//! factor, where the crossovers fall — is the reproduction target (see
//! `EXPERIMENTS.md`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scenarios;
pub mod serving;
pub mod support;
pub mod tab4;
pub mod tab5;
pub mod tab6;
pub mod tab7;
pub mod table;
pub mod timelines;
